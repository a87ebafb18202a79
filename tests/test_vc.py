import hashlib
import random
import sys
from fractions import Fraction
from itertools import combinations, product as iproduct
from math import prod

import pytest

from prodvc.density import densest_subgraph_bruteforce
from prodvc.flow import MaxFlow
from prodvc.graph import (FactorGraph, GraphError, complete_graph, cycle_graph,
                          induced_subgraph, is_connected, path_graph, quotient, star_graph)
from prodvc.harness import generate, random_factor
from prodvc.products import (ProductSpace, ProductSubgraph, Subproduct, instance_from_json,
                             instance_to_json, octahedron)
from prodvc import graph, vc
from prodvc.vc import (DEFAULT_BUDGET, MinorPartition, _induced_ceilings, _minor_ceilings,
                       _part_of, _partitions, _stream_record, compute_vc_report,
                       connected_partitions, minor_search, shatters_minor, shatters_subproduct,
                       vcd_induced, vcd_minor, vcd_set_system, vcdens_induced, vcdens_minor)

PATH_IN_Q4 = [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1)]
PATH_IN_Q3 = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 1, 0)]
GRID_FIVE = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 2)]


def grid_space():
    return ProductSpace([path_graph(3), path_graph(3)])


def test_connected_partitions_counts():
    # a path on n vertices has 2^(n-1) partitions into connected parts
    assert len(connected_partitions(path_graph(3))) == 4
    assert len(connected_partitions(path_graph(4))) == 8
    # complete graphs admit every partition (Bell numbers)
    assert len(connected_partitions(complete_graph(3))) == 5
    assert len(connected_partitions(complete_graph(4))) == 15


def swept_partitions(f, remaining):
    """Connected partitions by sweeping every bitmask of the part holding
    the smallest vertex, in increasing mask order."""
    if not remaining:
        return [()]
    seed, others = min(remaining), sorted(remaining - {min(remaining)})
    out = []
    for mask in range(1 << len(others)):
        part = frozenset([seed] + [v for j, v in enumerate(others) if mask >> j & 1])
        if is_connected(induced_subgraph(f, part)[0]):
            out += [(part,) + rest for rest in swept_partitions(f, remaining - part)]
    return out


def test_partitions_meeting_hits_keep_order():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 7)
        f = FactorGraph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.4])
        every = swept_partitions(f, frozenset(range(n)))
        assert list(connected_partitions(f)) == every
        hits = frozenset(v for v in range(n) if rng.random() < 0.5)
        assert list(_partitions(f, hits)) == [p for p in every
                                               if all(part & hits for part in p)]
    # a long path is enumerated without recursion
    long_path = path_graph(1100)
    assert next(_partitions(long_path, frozenset(range(1100)))) == tuple(
        frozenset({v}) for v in range(1100))


def test_quotient_graph():
    q = quotient(path_graph(4), [0, 0, 1, 1])
    assert q.n == 2 and q.m == 1


def test_minor_partition_validation():
    sp = grid_space()
    MinorPartition(sp, [[{0, 1}, {2}], [{0, 1, 2}]])
    with pytest.raises(GraphError):
        MinorPartition(sp, [[{0, 2}, {1}], [{0, 1, 2}]])  # disconnected part
    with pytest.raises(GraphError):
        MinorPartition(sp, [[{0, 1}], [{0, 1, 2}]])  # does not cover
    with pytest.raises(GraphError):
        MinorPartition(sp, [[{0, 1, 2}]])  # wrong arity


def induced_check_message(space, parts):
    """The oracle for `MinorPartition`'s checks, as made before the walk:
    each part's induced subgraph built and tested with `is_connected`.
    Returns the `GraphError` message, or None for a valid family."""
    parts = tuple(tuple(frozenset(p) for p in factor_parts) for factor_parts in parts)
    if len(parts) != space.m:
        return "one partition per factor required"
    for i, factor_parts in enumerate(parts):
        f = space.factors[i]
        seen = set()
        for p in factor_parts:
            if not p or (seen & p):
                return f"factor {i}: parts must be nonempty and disjoint"
            seen |= p
            if not is_connected(induced_subgraph(f, p)[0]):
                return f"factor {i}: part {sorted(p)} is not connected"
        if seen != set(range(f.n)):
            return f"factor {i}: parts must cover all vertices"
    return None


def random_part_family(rng, f):
    """Parts for f: a connected partition, a random grouping, or either one
    damaged by an empty, overlapping, dropped, negative or out-of-range part."""
    n = f.n
    if rng.random() < 0.5:
        parts = [set(p) for p in rng.choice(connected_partitions(f))]
    else:
        groups = rng.randint(1, n)
        parts = [set() for _ in range(groups)]
        for v in range(n):
            parts[rng.randrange(groups)].add(v)
        parts = [p for p in parts if p]
    for _ in range(rng.choice((0, 0, 1, 2))):
        damage = rng.randrange(6)
        if damage == 0:
            parts.insert(rng.randint(0, len(parts)), set())
        elif damage == 1 and parts:
            rng.choice(parts).add(rng.randrange(n))  # may overlap another part
        elif damage == 2 and any(parts):
            part = rng.choice([p for p in parts if p])
            part.discard(rng.choice(sorted(part)))  # may empty it or uncover a vertex
        elif damage == 3:
            parts.append({rng.choice((-1, -2, n, n + 1))})  # singleton outside range(n)
        elif parts:
            rng.choice(parts).add(rng.choice((-1, n, n + 3)))
    return parts


def test_minor_partition_matches_the_induced_subgraph_oracle():
    rng = random.Random(715)
    outcomes = {}
    for _ in range(12_000):
        factors = [random_factor(rng, rng.choice(("path", "cycle", "tree", "clique")), 6)
                   for _ in range(rng.randint(1, 3))]
        space = ProductSpace(factors)
        parts = [random_part_family(rng, f) for f in factors]
        if rng.random() < 0.02:
            parts = parts[:-1] if rng.random() < 0.5 else parts + [[{0}]]
        want = induced_check_message(space, parts)
        try:
            mp = MinorPartition(space, parts)
            got = None
        except GraphError as exc:
            got = str(exc)
        assert got == want, (factors, parts)
        if got is None:
            assert mp.parts == tuple(tuple(map(frozenset, fp)) for fp in parts)
        kind = got and got.split(": ")[-1].split(" ")[-1]
        outcomes[kind] = outcomes.get(kind, 0) + 1
    # every outcome is met often: valid, arity, overlap, disconnected, uncovered
    assert len(outcomes) == 5 and min(outcomes.values()) > 100, outcomes


def test_shattering_subproduct():
    sp = grid_space()
    g = ProductSubgraph(sp, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert shatters_subproduct(g, Subproduct(sp, {0: (0, 1), 1: (0, 1)}))
    assert not shatters_subproduct(g, Subproduct(sp, {0: (1, 2), 1: (0, 1)}))


def test_shattering_subproduct_matches_trace_count():
    # a subproduct is shattered iff the coordinates of g, restricted to its
    # factors' chosen vertices, take every combination of them
    rng = random.Random(44)
    for sp in (ProductSpace([path_graph(2)] * 4),
               ProductSpace([complete_graph(3), path_graph(3)])):
        every = list(sp.vertices())
        selections = [[s for k in range(2, f.n + 1) for s in combinations(range(f.n), k)
                       if is_connected(induced_subgraph(f, s)[0])] for f in sp.factors]
        for _ in range(60):
            g = ProductSubgraph(sp, rng.sample(every, rng.randint(1, len(every))))
            picked = rng.sample(range(sp.m), rng.randint(1, sp.m))
            chosen = {i: rng.choice(selections[i]) for i in sorted(picked)}
            traces = {tuple(v[i] for i in chosen) for v in g.vertices
                      if all(v[i] in vals for i, vals in chosen.items())}
            assert shatters_subproduct(g, Subproduct(sp, chosen)) == (
                len(traces) == prod(map(len, chosen.values())))


def test_path_embedding_in_q4():
    g = ProductSubgraph(ProductSpace([path_graph(2)] * 4), PATH_IN_Q4)
    assert g.num_edges == 4
    assert vcd_induced(g)[0] == 1
    d, exact, _ = vcd_minor(g)
    assert (d, exact) == (1, True)
    assert vcd_set_system(g) == 1


def test_path_embedding_in_q3():
    g = ProductSubgraph(ProductSpace([path_graph(2)] * 3), PATH_IN_Q3)
    assert g.num_edges == 4
    k, witness, exact = vcd_induced(g)
    assert (k, exact) == (2, True)
    assert shatters_subproduct(
        g, Subproduct(g.space, {i: e for i, e in witness.items()}))
    d, exact, _ = vcd_minor(g)
    assert (d, exact) == (2, True)
    assert vcd_set_system(g) == 2


def test_grid_five_vertex_fixture():
    g = ProductSubgraph(grid_space(), GRID_FIVE)
    assert vcd_induced(g)[0] == 1
    d, exact, mp = vcd_minor(g)
    assert (d, exact) == (2, True)
    assert mp.parts == ((frozenset({0, 1}), frozenset({2})),
                        (frozenset({0}), frozenset({1, 2})))
    s, s_exact, _ = vcdens_minor(g)
    assert (s, s_exact) == (Fraction(1), True)


def test_induced_oracle_agreement_on_hypercubes():
    rng = random.Random(42)
    for _ in range(80):
        m = rng.randint(1, 6)
        sp = ProductSpace([path_graph(2)] * m)
        verts = set()
        for _ in range(rng.randint(1, min(2 ** m, 20))):
            verts.add(tuple(rng.randint(0, 1) for _ in range(m)))
        g = ProductSubgraph(sp, verts)
        assert vcd_induced(g)[0] == vcd_set_system(g)


def test_set_system_oracle_guards():
    sp = grid_space()
    g = ProductSubgraph(sp, [(0, 0)])
    with pytest.raises(GraphError):
        vcd_set_system(g)


def test_minor_dominates_induced():
    rng = random.Random(5)
    for _ in range(40):
        factors = [path_graph(rng.randint(2, 4)) for _ in range(rng.randint(1, 3))]
        sp = ProductSpace(factors)
        verts = rng.sample(list(sp.vertices()), rng.randint(1, sp.num_vertices()))
        g = ProductSubgraph(sp, verts)
        rep = compute_vc_report(g)
        assert rep["vcd"].value <= rep["vcd_star"].value
        assert rep["vcdens"].value <= rep["vcdens_star"].value
        assert rep["vcd_star"].exact and rep["vcdens_star"].exact
        assert 2 ** rep["vcd"].value <= max(g.n, 1)


def test_minor_witnesses_shatter():
    g = ProductSubgraph(grid_space(), GRID_FIVE)
    rep = compute_vc_report(g)
    (d, d_mp, _), (s, s_mp, _) = rep["vcd_star"], rep["vcdens_star"]
    assert shatters_minor(g, d_mp) and shatters_minor(g, s_mp)
    assert d_mp.nontrivial_factors() == d
    assert s_mp.minor_density() == s


def test_heuristic_mode_is_lower_bound():
    g = ProductSubgraph(grid_space(), GRID_FIVE)
    exact_d, _, _ = vcd_minor(g)
    exact_s, _, _ = vcdens_minor(g)
    budget = 0
    while True:  # every budget short of the full scan gives a bounded result
        d, d_exact, d_mp = vcd_minor(g, budget=budget)
        s, s_exact, s_mp = vcdens_minor(g, budget=budget)
        assert d_exact == s_exact
        if d_exact:
            break
        assert vcd_induced(g, budget)[0] <= d <= exact_d
        assert vcdens_induced(g, budget)[0] <= s <= exact_s
        for value, mp, measure in ((d, d_mp, MinorPartition.nontrivial_factors),
                                   (s, s_mp, MinorPartition.minor_density)):
            if value:
                assert shatters_minor(g, mp) and measure(mp) == value
            else:
                assert mp is None
        budget += 1
    assert budget > 1 and (d, s) == (exact_d, exact_s)


def clear_vc_caches():
    """Start as cold as a fresh process: no stream records, no densities."""
    for obj in vars(vc).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def minor_result(g, budget):
    (d, d_mp, exact), (s, s_mp, _) = minor_search(g, budget)
    return d, d_mp and d_mp.parts, s, s_mp and s_mp.parts, exact


def test_replayed_streams_give_the_results_of_fresh_ones():
    budgets = (0, 7, 50, 300, 1000, 5000, DEFAULT_BUDGET)
    bounded = 0
    for seed in range(110):
        g = generate(m=1 + seed % 3, seed=seed)
        cold = []
        for budget in budgets:
            clear_vc_caches()
            cold.append(minor_result(g, budget))
        assert cold[-1][-1]  # the full scan is exact, so it records every stream it read
        warm = []
        for budget in budgets:
            vc._scan.cache_clear()  # keep the stream records: replay, not a memoized scan
            warm.append(minor_result(g, budget))
        assert warm == cold
        bounded += sum(not result[-1] for result in cold)
    assert bounded > 100


def test_a_scan_that_runs_out_records_no_stream():
    g = ProductSpace([path_graph(22), complete_graph(2)]).materialize()
    hits = frozenset(range(22))
    clear_vc_caches()
    cold = minor_result(g, DEFAULT_BUDGET)
    assert not cold[-1] and not _stream_record(path_graph(22), hits)
    clear_vc_caches()
    assert not minor_result(g, 1000)[-1]
    assert not _stream_record(path_graph(22), hits)
    assert _stream_record(complete_graph(2), frozenset({0, 1}))  # read to its end
    vc._scan.cache_clear()
    assert minor_result(g, DEFAULT_BUDGET) == cold


def exact_from(g, cold: bool) -> int:
    """The least budget at which the minor scan of g is exact, that is, the
    units a full scan charges; a warm search keeps the stream records but
    no memoized scan, so each probe replays the streams."""
    low, high = 0, DEFAULT_BUDGET
    while low < high:
        mid = (low + high) // 2
        if cold:
            clear_vc_caches()
        else:
            vc._scan.cache_clear()
        if minor_search(g, mid)[0].exact:
            high = mid
        else:
            low = mid + 1
    return low


def test_replayed_streams_charge_what_fresh_ones_do():
    graphs = [ProductSubgraph(grid_space(), GRID_FIVE)]
    graphs += [generate(m=2 + seed % 2, seed=seed) for seed in range(8)]
    for g in graphs:
        clear_vc_caches()
        fresh = exact_from(g, cold=True)
        minor_search(g)
        assert fresh > 0 and exact_from(g, cold=False) == fresh


def scan_counts():
    info = vc._scan.cache_info()
    return info.hits, info.misses


def test_equal_instances_share_one_scan():
    # two loads of one instance text are equal subgraphs, not one object:
    # the second minor search is a cache hit and gives equal results
    text = instance_to_json(ProductSubgraph(grid_space(), GRID_FIVE))
    clear_vc_caches()
    first = minor_result(instance_from_json(text), DEFAULT_BUDGET)
    assert scan_counts() == (0, 1)
    assert minor_result(instance_from_json(text), DEFAULT_BUDGET) == first
    assert scan_counts() == (1, 1)


def test_a_different_budget_quantity_or_vertex_set_misses():
    g = ProductSubgraph(grid_space(), GRID_FIVE)
    clear_vc_caches()
    minor_search(g)
    calls = [lambda: minor_search(g, DEFAULT_BUDGET - 1),
             lambda: minor_search(g, dims=False),
             lambda: minor_search(g, dens=False),
             lambda: minor_search(ProductSubgraph(grid_space(), GRID_FIVE[:-1]))]
    for misses, call in enumerate(calls, 2):
        call()
        assert scan_counts() == (0, misses)
    minor_search(g)
    assert scan_counts() == (1, len(calls) + 1)


def test_a_changed_witness_does_not_reach_the_next_call():
    g = ProductSubgraph(grid_space(), GRID_FIVE)
    clear_vc_caches()
    first = vcd_induced(g)
    expected = dict(first.witness)
    assert first.value == len(expected) == 1
    first.witness.clear()
    again = vcd_induced(g)
    assert scan_counts() == (1, 1)
    assert again.witness == expected and again.witness is not first.witness


BOUNDED_BUDGETS = (0, 7, 50, 300)


def budget_corpus():
    return [ProductSubgraph(grid_space(), GRID_FIVE)] + [
        generate(m=1 + seed % 3, seed=seed) for seed in range(20)]


def test_every_scan_of_a_vc_call_runs_at_its_budget(monkeypatch):
    # a minor scan that runs out falls back on the induced scans at the
    # caller's budget, never at the default one
    budgets, real = [], vc._scan

    def record(factors, vertices, budget, *rest):
        budgets.append(budget)
        return real(factors, vertices, budget, *rest)

    clear_vc_caches()
    monkeypatch.setattr(vc, "_scan", record)
    calls = (vcd_minor, vcdens_minor, minor_search, compute_vc_report)
    fallbacks = 0
    for g in budget_corpus():
        for budget in BOUNDED_BUDGETS:
            for call in calls:
                del budgets[:]
                call(g, budget)
                assert budgets and set(budgets) == {budget}
                fallbacks += len(budgets) > (3 if call is compute_vc_report else 1)
    assert fallbacks > 0


def test_minor_values_equal_the_report_at_every_budget():
    bounded = 0
    for g in budget_corpus():
        for budget in BOUNDED_BUDGETS:
            report = compute_vc_report(g, budget)
            d, d_exact, _ = vcd_minor(g, budget)
            s, _, _ = vcdens_minor(g, budget)
            assert (d, s) == (report["vcd_star"].value, report["vcdens_star"].value)
            bounded += not d_exact
    assert bounded > 0
    g = ProductSubgraph(grid_space(), GRID_FIVE)
    assert (vcd_minor(g, 0)[:2], vcdens_minor(g, 0)[:2]) == ((0, False), (0, False))


def test_the_report_fallback_reads_its_own_induced_scans():
    # three scans, the induced pair and the minor one; the minor scan runs
    # out, and its fallback finds the induced pair in the cache
    g = ProductSpace([path_graph(22), complete_graph(2)]).materialize()
    clear_vc_caches()
    report = compute_vc_report(g, 1000)
    assert not report["vcd_star"].exact and not report["vcdens_star"].exact
    assert scan_counts() == (2, 3)


def naive_minor_values(g):
    """(vcd*, witness parts, vcdens*, witness parts) over every combination
    of connected partitions, without pruning, with brute-force minor
    densities; each witness is the first strict maximum."""
    d, d_parts, s, s_parts = 0, None, Fraction(0), None
    for parts in iproduct(*(connected_partitions(f) for f in g.space.factors)):
        mp = MinorPartition(g.space, parts)
        if shatters_minor(g, mp):
            density = sum((densest_subgraph_bruteforce(q).density for q in mp.minors()),
                          Fraction(0))
            if mp.nontrivial_factors() > d:
                d, d_parts = mp.nontrivial_factors(), parts
            if density > s:
                s, s_parts = density, parts
    return d, d_parts, s, s_parts


def test_minor_search_matches_naive_oracle():
    rng = random.Random(2017)
    makers = (path_graph, complete_graph, star_graph, lambda k: cycle_graph(max(k, 3)))
    for _ in range(40):
        factors = [rng.choice(makers)(rng.randint(2, 4)) for _ in range(rng.randint(1, 3))]
        sp = ProductSpace(factors)
        size = sp.num_vertices()
        verts = rng.sample(list(sp.vertices()), rng.randint(min(size, 4), min(size, 24)))
        g = ProductSubgraph(sp, verts)
        (d, d_mp, exact), (s, s_mp, _) = minor_search(g)
        assert exact
        assert (d, d_mp and d_mp.parts, s, s_mp and s_mp.parts) == naive_minor_values(g)


def test_full_product_has_full_dimension():
    sp = ProductSpace([path_graph(2), path_graph(3)])
    g = sp.materialize()
    assert vcd_induced(g)[0] == 2
    assert vcdens_induced(g)[0] == Fraction(1, 2) + Fraction(2, 3)


def wide_subgraphs():
    """Seeded subgraphs of 70 to 130 vertices, with vertices dropped, so each
    cell's bitmask spans more than one 64-bit word; the unpruned minor and
    vcdens oracles stay quick on the first three."""
    rng = random.Random(6464)
    graphs = []
    for factors, size in (([complete_graph(3)] * 4, 70),
                          ([complete_graph(4), complete_graph(4), complete_graph(3),
                            complete_graph(2)], 90),
                          ([star_graph(3), complete_graph(4), path_graph(3),
                            complete_graph(2)], 80),
                          ([complete_graph(4)] * 4, 130),
                          ([complete_graph(5)] * 3, 110)):
        sp = ProductSpace(factors)
        graphs.append(ProductSubgraph(sp, rng.sample(list(sp.vertices()), size)))
    return graphs


def naive_vcd_values(g):
    """(vcd, witness) over every choice, per factor, of an edge between its
    coordinate values (in `f.edges` order) or "skip" (last), without
    pruning, with shattering by materialized subproducts; the witness is
    the first strict maximum."""
    options = []
    for i, f in enumerate(g.space.factors):
        vals = {v[i] for v in g.vertices}
        options.append([e for e in f.edges if set(e) <= vals] + [None])
    best, witness = 0, None
    for choice in iproduct(*options):
        chosen = {i: e for i, e in enumerate(choice) if e is not None}
        if len(chosen) > best and shatters_subproduct(g, Subproduct(g.space, chosen)):
            best, witness = len(chosen), chosen
    return best, witness


def test_vcd_induced_matches_naive_oracle():
    rng = random.Random(1808)
    makers = (path_graph, complete_graph, star_graph, lambda k: cycle_graph(max(k, 3)))
    for _ in range(40):
        factors = [rng.choice(makers)(rng.randint(2, 4)) for _ in range(rng.randint(1, 4))]
        sp = ProductSpace(factors)
        size = sp.num_vertices()
        verts = rng.sample(list(sp.vertices()), rng.randint(1, min(size, 40)))
        g = ProductSubgraph(sp, verts)
        d, witness, exact = vcd_induced(g)
        assert exact
        assert (d, witness) == naive_vcd_values(g)
    # full products, where the dimension bound cuts options
    for factors in ([complete_graph(3)] * 3, [star_graph(3), cycle_graph(4)],
                    [complete_graph(2)] * 4):
        g = ProductSpace(factors).materialize()
        assert vcd_induced(g) == naive_vcd_values(g) + (True,)
    for g in wide_subgraphs():
        assert g.n > 64 and vcd_induced(g) == naive_vcd_values(g) + (True,)


def test_vcd_induced_budget_walk():
    # every budget short of the full scan gives a bounded vcd that its
    # shattering witness reaches, never above the exact value
    rng = random.Random(9)
    sp = ProductSpace([complete_graph(3)] * 4)
    g = ProductSubgraph(sp, rng.sample(list(sp.vertices()), 30))
    full, _, full_exact = vcd_induced(g)
    assert full_exact and full >= 2
    budget, last = 0, 0
    while True:
        d, witness, exact = vcd_induced(g, budget=budget)
        if exact:
            break
        assert last <= d <= full
        assert (witness is None) == (d == 0)
        if witness:
            assert len(witness) == d and shatters_subproduct(g, Subproduct(sp, witness))
        budget, last = budget + 1, d
    assert budget > 1 and d == full


def naive_induced_values(g):
    """(vcdens, witness) over every choice of "skip" or a connected subset
    of each factor's coordinate values with 2..|V(g)| vertices (seed
    ascending, then bitmask order), without pruning, with brute-force
    densities and shattering by materialized subproducts; the witness is
    the first strict maximum."""
    options = []
    for i, f in enumerate(g.space.factors):
        vals = sorted({v[i] for v in g.vertices})
        factor_options = [None]
        for k, seed in enumerate(vals):
            above = vals[k + 1:]
            for mask in range(1 << len(above)):
                s = (seed,) + tuple(v for j, v in enumerate(above) if mask >> j & 1)
                if 2 <= len(s) <= g.n and is_connected(induced_subgraph(f, s)[0]):
                    factor_options.append(s)
        options.append(factor_options)
    best, witness = Fraction(0), None
    for choice in iproduct(*options):
        chosen = {i: s for i, s in enumerate(choice) if s is not None}
        if chosen and induced_witness_value(g, chosen) > best:
            best, witness = induced_witness_value(g, chosen), chosen
    return best, witness


def induced_witness_value(g, witness):
    """The density a vcdens witness reaches (brute force), or -1 if it
    does not shatter."""
    if witness is None:
        return Fraction(0)
    if not shatters_subproduct(g, Subproduct(g.space, witness)):
        return -1
    return sum((densest_subgraph_bruteforce(induced_subgraph(g.space.factors[i], s)[0]).density
                for i, s in witness.items()), Fraction(0))


def test_vcdens_induced_matches_naive_oracle():
    rng = random.Random(1707)
    makers = (path_graph, complete_graph, star_graph, lambda k: cycle_graph(max(k, 3)))
    for _ in range(40):
        factors = [rng.choice(makers)(rng.randint(2, 4)) for _ in range(rng.randint(1, 3))]
        sp = ProductSpace(factors)
        size = sp.num_vertices()
        verts = rng.sample(list(sp.vertices()), rng.randint(1, min(size, 24)))
        g = ProductSubgraph(sp, verts)
        s, witness, exact = vcdens_induced(g)
        assert exact
        assert (s, witness) == naive_induced_values(g)


def test_vcdens_induced_budget_walk_on_star_products():
    # K1,3 x K2 at every budget until the scan completes; each bounded
    # result is flagged and reached by its shattering witness
    g = ProductSpace([star_graph(3), complete_graph(2)]).materialize()
    full, _, full_exact = vcdens_induced(g)
    assert full_exact and full == Fraction(3, 4) + Fraction(1, 2)
    budget, last = 0, Fraction(0)
    while True:
        s, witness, exact = vcdens_induced(g, budget=budget)
        if exact:
            break
        assert induced_witness_value(g, witness) == s
        assert last <= s <= full
        budget, last = budget + 1, s
    assert budget > 1 and s == full
    # K1,14 x K2 (16,383 subsets of the star), walking down from the default
    # budget: exact at 43/30 with the full star until the first bounded
    # budget; from there down to 1000, bounded values its witness reaches
    g = ProductSpace([star_graph(14), complete_graph(2)]).materialize()
    budget, exact = DEFAULT_BUDGET, True
    while exact:
        s, witness, exact = vcdens_induced(g, budget=budget)
        if exact:
            assert s == Fraction(43, 30)
            assert witness == {0: tuple(range(15)), 1: (0, 1)}
            budget //= 4
    assert budget < DEFAULT_BUDGET
    while budget >= 1000:
        s, witness, exact = vcdens_induced(g, budget=budget)
        assert not exact
        assert induced_witness_value(g, witness) == s <= Fraction(43, 30)
        budget //= 4


def test_density_ceilings_bound_every_option():
    # the scan's bound: an option with t labels (a connected subset of the
    # hit values with t vertices, or a connected partition into t parts that
    # each meet them) is never denser than entry t of its factor's ceilings
    rng = random.Random(66)
    for _ in range(80):
        f = (star_graph(rng.randint(1, 6)) if rng.random() < 0.2 else
             random_factor(rng, rng.choice(("path", "cycle", "tree", "clique")), 7))
        vals = frozenset(rng.sample(range(f.n), rng.randint(1, f.n)))
        induced, minor = _induced_ceilings(f, vals), _minor_ceilings(f, len(vals))
        assert len(induced) > len(vals) and len(minor) > len(vals)
        order = sorted(vals)
        for mask in range(1, 1 << len(order)):
            s = [v for j, v in enumerate(order) if mask >> j & 1]
            sub = induced_subgraph(f, s)[0]
            if len(s) >= 2 and is_connected(sub):
                assert densest_subgraph_bruteforce(sub).density <= induced[len(s)]
        for parts in _partitions(f, vals):
            minor_graph = quotient(f, _part_of(parts, f.n))
            assert densest_subgraph_bruteforce(minor_graph).density <= minor[len(parts)]


def small_factor_corpus():
    """Paths, cycles, stars, seeded trees, K3 and octahedron(2) (a 4-cycle),
    whose options have at most one cycle, then K4, octahedron(3), K2,3, C4
    with a chord and that graph with a pendant path, which have options with
    two or more; with the path, some have one edge more than vertices and a
    denser proper subgraph."""
    rng = random.Random(468)
    trees = [FactorGraph(n, [(rng.randrange(v), v) for v in range(1, n)])
             for n in (5, 6, 7) for _ in range(3)]
    return ([path_graph(n) for n in range(1, 7)] + [cycle_graph(n) for n in range(3, 7)]
            + [star_graph(k) for k in range(1, 6)] + trees + [complete_graph(3), octahedron(2)]
            + [complete_graph(4), octahedron(3),
               FactorGraph(5, [(i, j) for i in range(2) for j in range(2, 5)]),
               FactorGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),
               FactorGraph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (3, 4), (4, 5)])])


def test_option_densities_match_the_bruteforce_oracle():
    # every connected subset's density, and its charge of 2 + |V| + |E|
    # units, and every connected partition's minor density, whether read
    # off the edge count (at most one cycle) or solved (two or more)
    clear_vc_caches()
    counted = {True: 0, False: 0}  # options by "at most one cycle"
    for f in small_factor_corpus():
        for mask in range(1, 1 << f.n):
            key = tuple(v for v in range(f.n) if mask >> v & 1)
            sub = induced_subgraph(f, key)[0]
            if not is_connected(sub):
                continue
            charged = []
            assert vc._subset_density(f, key, charged.append) == \
                densest_subgraph_bruteforce(sub).density, (f.edges, key)
            assert charged == [2 + sub.n + sub.m]
            counted[sub.m <= sub.n] += 1
        for parts in connected_partitions(f):
            part_of = bytes(_part_of(parts, f.n))
            minor = quotient(f, part_of)
            assert vc._partition_density(f, part_of) == \
                densest_subgraph_bruteforce(minor).density, (f.edges, parts)
            counted[minor.m <= minor.n] += 1
    assert counted[True] > 1200 and counted[False] > 90


def test_a_report_on_tree_and_unicyclic_factors_builds_no_option_graph(monkeypatch):
    # every option of P4, C5 and K1,3 has at most one cycle, so each density
    # comes from an edge count: no max-flow and no quotient, and the only
    # induced subgraphs are _induced_ceilings' f[vals], one per factor, two
    # of them forests with more than one component (P4 misses coordinate 1,
    # the star its centre)
    space = ProductSpace([path_graph(4), cycle_graph(5), star_graph(3)])
    rng = random.Random(34)
    g = ProductSubgraph(space, [v for v in space.vertices()
                                if v[0] != 1 and v[2] != 0 and rng.random() < 0.7])
    flows, quotients, induced = [], [], []
    real_init, real_quotient, real_induced = MaxFlow.__init__, graph.quotient, graph.induced_subgraph

    def counted_init(self, *args):
        flows.append(args)
        real_init(self, *args)

    def counted_quotient(*args):
        quotients.append(args)
        return real_quotient(*args)

    def counted_induced(f, vertices):
        induced.append((sys._getframe(1).f_code.co_name, f, frozenset(vertices)))
        return real_induced(f, vertices)

    monkeypatch.setattr(MaxFlow, "__init__", counted_init)
    for mod in (graph, vc):
        monkeypatch.setattr(mod, "quotient", counted_quotient)
        monkeypatch.setattr(mod, "induced_subgraph", counted_induced)
    clear_vc_caches()
    report = compute_vc_report(g)
    assert all(found.exact for found in report.values())
    assert report["vcdens"].value > 0 and report["vcdens_star"].value > 0
    assert flows == [] and quotients == []
    assert [(caller, f) for caller, f, _ in induced] == \
        [("_induced_ceilings", f) for f in space.factors]
    forests = [real_induced(f, vals)[0] for _, f, vals in induced]
    assert [is_connected(h) for h in forests] == [False, True, False]


# vcdens of a 29-vertex subgraph of K4 x (C4 with a chord) x P3 at a sweep
# of budgets, and the least budget at which it is exact (4,773 units): where
# a budget runs out follows the charge of 2 + |V| + |E| units per subset
# density, so these move if that charge does
PINNED_VCDENS = {
    0: (Fraction(0), None, False),
    300: (Fraction(1, 2), {2: (0, 1)}, False),
    600: (Fraction(7, 6), {1: (0, 1), 2: (0, 1, 2)}, False),
    900: (Fraction(5, 3), {1: (0, 1, 2), 2: (0, 1, 2)}, False),
    1200: (Fraction(7, 4), {1: (0, 1, 2, 3), 2: (0, 1)}, False),
    1500: (Fraction(23, 12), {1: (0, 1, 2, 3), 2: (0, 1, 2)}, False),
    2400: (Fraction(23, 12), {1: (0, 1, 2, 3), 2: (0, 1, 2)}, False),
    2700: (Fraction(2), {0: (0, 1, 2), 1: (0, 1, 2)}, False),
    3000: (Fraction(9, 4), {0: (0, 1, 2), 1: (0, 1, 2, 3)}, False),
    3900: (Fraction(9, 4), {0: (0, 1, 2), 1: (0, 1, 2, 3)}, False),
    4200: (Fraction(5, 2), {0: (0, 1, 2, 3), 1: (0, 1, 2)}, False),
    4500: (Fraction(11, 4), {0: (0, 1, 2, 3), 1: (0, 1, 2, 3)}, False),
    4772: (Fraction(11, 4), {0: (0, 1, 2, 3), 1: (0, 1, 2, 3)}, False),
    4773: (Fraction(11, 4), {0: (0, 1, 2, 3), 1: (0, 1, 2, 3)}, True),
}


def test_vcdens_induced_at_pinned_budgets():
    chorded_c4 = FactorGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    space = ProductSpace([complete_graph(4), chorded_c4, path_graph(3)])
    rng = random.Random(34)
    g = ProductSubgraph(space, [v for v in space.vertices() if rng.random() < 0.6])
    assert g.n == 29
    for budget, pinned in PINNED_VCDENS.items():
        clear_vc_caches()
        assert vcdens_induced(g, budget) == pinned, budget


def test_minor_ceilings_are_one_shared_tuple_per_factor_and_count():
    row = _minor_ceilings(star_graph(3), 3)
    assert type(row) is tuple and row == (0, 0, Fraction(1, 2), Fraction(2, 3))
    assert _minor_ceilings(star_graph(3), 3) is row


def test_vc_reports_with_cold_and_warm_ceilings_agree():
    graphs = [generate(m=1 + seed % 3, seed=seed) for seed in range(110)]
    cold = []
    for g in graphs:  # no memoized scan either, so every report scans
        _minor_ceilings.cache_clear()
        vc._scan.cache_clear()
        cold.append(report_digest([compute_vc_report(g)]))
    for g in graphs:  # every row any of them asks for is cached
        compute_vc_report(g)
    misses = _minor_ceilings.cache_info().misses
    warm = []
    for g in graphs:
        vc._scan.cache_clear()
        warm.append(report_digest([compute_vc_report(g)]))
    assert _minor_ceilings.cache_info().misses == misses > 10
    assert warm == cold


def assert_matches_oracles(g):
    """minor_search, vcd_minor, vcdens_minor and vcdens_induced are exact
    and agree, values and witnesses, with the unpruned oracles."""
    want = naive_minor_values(g)
    (d, d_mp, exact), (s, s_mp, _) = minor_search(g)
    assert exact and (d, d_mp and d_mp.parts, s, s_mp and s_mp.parts) == want
    d, exact, d_mp = vcd_minor(g)
    assert exact and (d, d_mp and d_mp.parts) == want[:2]
    s, exact, s_mp = vcdens_minor(g)
    assert exact and (s, s_mp and s_mp.parts) == want[2:]
    s, witness, exact = vcdens_induced(g)
    assert exact and (s, witness) == naive_induced_values(g)


def test_branch_and_bound_matches_naive_oracles():
    # full products and dense generated subgraphs of products of up to
    # three factors: the bound cuts options on each of them
    for factors in ([complete_graph(3)] * 2, [complete_graph(4), complete_graph(2)],
                    [complete_graph(2)] * 4, [star_graph(4), complete_graph(2)]):
        assert_matches_oracles(ProductSpace(factors).materialize())
    rng = random.Random(606)
    for _ in range(6):
        factors = [random_factor(rng, rng.choice(("path", "cycle", "tree", "clique")), 4)
                   for _ in range(rng.randint(2, 3))]
        sp = ProductSpace(factors)
        verts = [v for v in sp.vertices() if rng.random() < 0.8][:40]
        assert_matches_oracles(ProductSubgraph(sp, verts))
    for g in wide_subgraphs()[:3]:
        assert_matches_oracles(g)


def report_digest(reports) -> str:
    """sha256 over every value, witness and exact flag of the reports."""
    digest = hashlib.sha256()
    for rep in reports:
        vcd, vcdens, vcd_star, vcdens_star = (rep[name] for name in
                                              ("vcd", "vcdens", "vcd_star", "vcdens_star"))
        minor = [w and [sorted(map(sorted, parts)) for parts in w.parts]
                 for w in (vcd_star.witness, vcdens_star.witness)]
        digest.update(repr((
            vcd.value, str(vcdens.value), vcd_star.value, str(vcdens_star.value),
            vcd.exact, vcdens.exact, vcd_star.exact, vcdens_star.exact,
            vcd.witness and sorted(vcd.witness.items()),
            vcdens.witness and sorted(vcdens.witness.items()), minor)).encode())
    return digest.hexdigest()


def test_vc_reports_match_golden_digests():
    # digests taken with the per-vertex signature scan that bitmask cells
    # replaced: 200 generated instances of one to four factors, and three
    # full products at budget 0 and at a budget they run out of
    mixed = (generate(m=1 + seed % 4, seed=seed) for seed in range(200))
    assert report_digest(map(compute_vc_report, mixed)) == (
        "877e9fc021fef741ac778c9c48de6370ea9651b4bc74e6499d791f7a44733d2c")
    bounded = [ProductSpace(factors).materialize()
               for factors in ([path_graph(22), complete_graph(2)],
                               [complete_graph(2), star_graph(22)],
                               [star_graph(18), complete_graph(2)])]
    assert report_digest(compute_vc_report(g, budget)
                         for g in bounded for budget in (0, 200_000)) == (
        "11e3545f80e8df3d2bbf23c0f55f1ff7814592169767e16d30f14fefd49b3d81")
