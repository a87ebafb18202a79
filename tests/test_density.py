import math
import random
from fractions import Fraction
from itertools import combinations, product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from prodvc import density
from prodvc.density import (DensityReport, arboricity, arboricity_bruteforce,
                            bounded_outdegree_orientation, dens, densest_subgraph,
                            densest_subgraph_bruteforce, forest_decomposition, mad)
from prodvc.flow import MaxFlow
from prodvc.graph import (FactorGraph, GraphError, complete_graph, cycle_graph,
                          degeneracy_ordering, induced_subgraph, is_connected, path_graph,
                          star_graph, to_edgelist)
from prodvc.products import ProductSpace, octahedron


def random_graph(rng, n_max=12):
    n = rng.randint(1, n_max)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < rng.choice((0.15, 0.4, 0.8))]
    return FactorGraph(n, edges)


def test_known_densities():
    assert densest_subgraph(complete_graph(4)).density == Fraction(3, 2)
    assert densest_subgraph(path_graph(1)).density == 0
    assert densest_subgraph(star_graph(5)).density == Fraction(5, 6)
    q3, _ = ProductSpace([path_graph(2)] * 3).materialize().to_factor_graph()
    assert densest_subgraph(q3).density == Fraction(12, 8)
    with pytest.raises(GraphError):
        densest_subgraph(FactorGraph(0, []))


def test_round_that_does_not_raise_the_density_fails(monkeypatch):
    # a wrong cut, whose side is no denser than the density so far, would
    # repeat forever; the round check raises instead (an explicit raise, so
    # it holds under python -O too).  So does a last cut whose side does not
    # have the density reached.  C5 plus a chord has m > n, so it runs a
    # round; C5 itself has m = n and is answered with no round at all
    c5_chord = FactorGraph(5, cycle_graph(5).edges + ((0, 2),))
    for denser, side in ((True, lambda g: set(range(g.n))), (True, lambda g: {0, 1}),
                         (False, lambda g: {0, 1}), (False, lambda g: set())):
        monkeypatch.setattr(density, "_denser_subgraph",
                            lambda g, threshold, within: (denser, side(g)))
        with pytest.raises(RuntimeError):
            densest_subgraph(c5_chord)
        assert densest_subgraph(cycle_graph(5)) == DensityReport(1, (0, 1, 2, 3, 4), 2)


def test_witness_achieves_density():
    for seed in range(30):
        g = random_graph(random.Random(seed))
        rep = densest_subgraph(g)
        ws = set(rep.witness)
        inner = sum(1 for u, v in g.edges if u in ws and v in ws)
        assert Fraction(inner, len(ws)) == rep.density
        assert rep.mad == 2 * rep.density


def test_flow_matches_bruteforce_oracle():
    rng = random.Random(20260823)
    for _ in range(200):
        g = random_graph(rng)
        assert densest_subgraph(g).density == densest_subgraph_bruteforce(g).density
    # each triangle and their union all have density 1: the oracle's witness
    # is the first of them in subset-mask order
    two_triangles = FactorGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert densest_subgraph(two_triangles).density == 1
    assert densest_subgraph_bruteforce(two_triangles).witness == (0, 1, 2)


def _edge_counts(g):
    """|E(S)| for every nonempty vertex set S of g, keyed by bitmask: the
    count of S without its highest vertex v, plus v's neighbours in S."""
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    counts = {0: 0}
    for mask in range(1, 1 << g.n):
        v = mask.bit_length() - 1
        rest = mask ^ 1 << v
        counts[mask] = counts[rest] + (adj[v] & rest).bit_count()
    del counts[0]
    return counts


def _union_of_densest_sets(g, top):
    """The vertices of every set S of g with |E(S)|/|S| equal to `top`."""
    union = 0
    for mask, e in _edge_counts(g).items():
        if e * top.denominator == top.numerator * mask.bit_count():
            union |= mask
    return tuple(v for v in range(g.n) if union >> v & 1)


def _shifted(g, by):
    """g's edges with every vertex moved up by `by`."""
    return tuple((u + by, v + by) for u, v in g.edges)


def _seeded_cubic_graph(rng, n):
    """A random 3-regular graph on n vertices (n even): three stubs per
    vertex, paired at random until no pair is a loop or repeats an edge."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {tuple(sorted(pair)) for pair in zip(stubs[::2], stubs[1::2])}
        if len(edges) == 3 * n // 2 and all(u != v for u, v in edges):
            return FactorGraph(n, edges)


def test_witness_is_the_union_of_all_densest_sets():
    # the densest sets are closed under union, and the witness is the
    # largest of them, whichever flow network finds it
    rng = random.Random(424)
    graphs = [random_graph(rng) for _ in range(80)]
    graphs.append(FactorGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
    # the peel's start, l0, in three places: two K4s joined by a path of
    # three vertices, where l0 = 3/2 is the density, reached by one K4, and
    # the witness is both; K5 with pendant trees, where l0 = 2 is an integer;
    # and a sparse graph with l0 = 13/8 below its density 5/3, so a second
    # round runs
    k4 = complete_graph(4)
    two_k4s = FactorGraph(11, k4.edges + _shifted(k4, 4) + ((3, 8), (8, 9), (9, 10), (4, 10)))
    k5_and_trees = FactorGraph(10, complete_graph(5).edges
                               + ((0, 5), (5, 6), (5, 7), (1, 8), (8, 9)))
    sparse = FactorGraph(9, [(0, 1), (0, 3), (0, 4), (0, 8), (1, 2), (1, 3), (1, 4), (1, 8),
                             (2, 8), (3, 6), (3, 7), (4, 8), (5, 7), (5, 8)])
    starts = [density._peel_density(g) for g in (two_k4s, k5_and_trees, sparse)]
    assert starts == [Fraction(3, 2), 2, Fraction(13, 8)]
    graphs += [two_k4s, k5_and_trees, sparse]
    # regular graphs, connected or not: l0 = m/n = d/2 is the density, and
    # the witness is every vertex
    petersen = FactorGraph(10, [(i, (i + 1) % 5) for i in range(5)]
                           + [(i, i + 5) for i in range(5)]
                           + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    graphs += [complete_graph(n) for n in range(1, 9)]
    graphs += [cycle_graph(n) for n in range(3, 10)]
    graphs += [_power(path_graph(2), m) for m in range(1, 5)]
    graphs += [FactorGraph(2 * n, [(i, n + j) for i in range(n) for j in range(n)])
               for n in range(1, 5)]
    graphs += [octahedron(d) for d in (2, 3, 4)]
    graphs += [petersen, _power(complete_graph(3), 2)]
    c3, c5 = cycle_graph(3), cycle_graph(5)
    graphs += [FactorGraph(8, k4.edges + _shifted(k4, 4)),
               FactorGraph(8, c3.edges + _shifted(c5, 3))]
    graphs += [FactorGraph(n, []) for n in range(2, 6)]
    graphs += [_seeded_cubic_graph(rng, n) for n in (4, 6, 8, 10, 12) for _ in range(3)]
    for g in graphs:
        top = densest_subgraph_bruteforce(g).density
        assert densest_subgraph(g).witness == _union_of_densest_sets(g, top)


def _trees_and_unicyclic_graphs(n):
    """A tree with each vertex v >= 1 under a parent below v, for every
    such parent choice, and each of them with one more edge.  Labelling
    a spanning tree breadth-first puts parents first, so this meets every
    connected graph on n vertices with m <= n, up to isomorphism."""
    for parents in iproduct(*(range(v) for v in range(1, n))):
        tree = [(p, v) for v, p in enumerate(parents, 1)]
        yield FactorGraph(n, tree)
        for extra in combinations(range(n), 2):
            if extra not in tree:
                yield FactorGraph(n, tree + [extra])


def _seeded_tree_or_unicyclic_graph(rng, n):
    """A random tree on n vertices, relabelled at random, and with one more
    edge half of the time."""
    label = rng.sample(range(n), n)
    edges = {tuple(sorted((label[rng.randrange(v)], label[v]))) for v in range(1, n)}
    if rng.random() < 0.5 and n >= 3:
        edges.add(rng.choice([e for e in combinations(range(n), 2) if e not in edges]))
    return FactorGraph(n, edges)


def _disjoint_union(graphs, isolated, rng):
    """The graphs side by side with `isolated` more vertices, relabelled
    at random."""
    n = sum(g.n for g in graphs) + isolated
    label, edges, at = rng.sample(range(n), n), [], 0
    for g in graphs:
        edges += [(label[u], label[v]) for u, v in _shifted(g, at)]
        at += g.n
    return FactorGraph(n, edges)


def test_graphs_with_at_most_one_cycle_need_no_flow(monkeypatch):
    # a connected graph with m <= n has density m/n, every vertex its
    # densest set; a graph whose components each have at most one cycle
    # has the densest component's m_i/n_i, witnessed by every component
    # that reaches it.  Neither runs a flow round, but a union with a K4
    # component still does
    rounds = _recorded(monkeypatch, "_denser_subgraph")
    rng = random.Random(2028)
    graphs = [g for n in range(1, 8) for g in _trees_and_unicyclic_graphs(n)]
    graphs += [_seeded_tree_or_unicyclic_graph(rng, rng.randint(8, 14)) for _ in range(24)]
    assert len(graphs) > 12000
    for g in graphs:
        assert g.m <= g.n and is_connected(g)
        got = densest_subgraph(g)
        oracle = densest_subgraph_bruteforce(g).density
        assert got.density == oracle == Fraction(g.m, g.n) and got.mad == 2 * oracle
        assert got.witness == _union_of_densest_sets(g, oracle) == tuple(range(g.n))
    assert rounds == []
    small = [g for g in graphs if g.n <= 4]
    unions = [_disjoint_union(rng.sample(small, rng.randint(2, 3)), rng.choice((0, 0, 1, 3)), rng)
              for _ in range(400)]
    unions += [FactorGraph(n, []) for n in range(1, 4)]
    assert sum(not is_connected(g) for g in unions) == len(unions) - 1
    for g in unions:
        got = densest_subgraph(g)
        oracle = densest_subgraph_bruteforce(g).density
        assert got.density == oracle and got.mad == 2 * oracle
        assert got.witness == _union_of_densest_sets(g, oracle)
    assert rounds == []
    # C4 with a chord and a pendant path: one edge more than vertices, and
    # the density is the chorded C4's 5/4, not 7/6
    kite_with_tail = FactorGraph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (3, 4), (4, 5)])
    for g in [_disjoint_union([complete_graph(4), path_graph(5)], 3, rng),
              _disjoint_union([complete_graph(4), cycle_graph(3)], 2, rng),
              _disjoint_union([star_graph(3), complete_graph(4), path_graph(2)], 2, rng),
              _disjoint_union([kite_with_tail], 2, rng)]:
        assert g.m <= g.n
        del rounds[:]
        got = densest_subgraph(g)
        assert rounds and got.density == (Fraction(5, 4) if g.n == 8 else Fraction(3, 2))
        assert got.witness == _union_of_densest_sets(g, got.density)


def test_whole_graph_has_no_set_denser_than_the_result(monkeypatch):
    # rounds after the first cut only the last witness; one cut of the
    # whole graph at the final density re-checks the verdict and the
    # witness without the nesting argument, on sparse graphs that take 1 to
    # 3 rounds from the peel's start and on grids, whose densest set is
    # every vertex and whose peel starts at it
    rounds = _recorded(monkeypatch, "_denser_subgraph")
    rng = random.Random(1981)
    graphs = []
    for _ in range(12):
        n = rng.randint(30, 200)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        graphs.append(FactorGraph(n, rng.sample(pairs, rng.randint(n, 2 * n))))
    graphs += [_grid(a, b, rng) for a, b in ((2, 3), (8, 8), (5, 13), (12, 12))]
    counts = []
    for g in graphs:
        del rounds[:]
        rep = densest_subgraph(g)
        counts.append(len(rounds))
        sides = [set(range(g.n))] + [side for _, (_, side) in rounds]
        assert all(later <= earlier for earlier, later in zip(sides, sides[1:]))
        assert [denser for _, (denser, _) in rounds] == [True] * (len(rounds) - 1) + [False]
        assert density._denser_subgraph(g, rep.density, (range(g.n), g.edges)) == (
            False, set(rep.witness))
        ws = set(rep.witness)
        assert Fraction(density._edge_count_within(g, ws), len(ws)) == rep.density
    assert counts[:12] == [2, 2, 2, 3, 1, 1, 1, 3, 2, 3, 2, 1]
    assert counts[12:] == [1] * 4


def test_forest_bound_round_matches_bruteforce():
    rng = random.Random(31)
    outcomes = set()
    for g in [random_graph(rng) for _ in range(60)] + [complete_graph(10)]:
        counts = _edge_counts(g)
        for k in range(1, 5):
            violated = any(e > k * (mask.bit_count() - 1) for mask, e in counts.items())
            assert density._fits_forests(g, density._degeneracy_orientation(g)[0], k) == (not violated)
            outcomes.add((k, violated))
    assert outcomes == {(k, b) for k in range(1, 5) for b in (False, True)}


def test_forest_test_holds_from_any_start_orientation():
    # the drain certifies k from whatever orientation it is given, which is
    # what lets `arboricity` hand every k the orientation the last one left
    rng = random.Random(31)
    orient_rng = random.Random(1964)
    for g in [random_graph(rng) for _ in range(60)] + [complete_graph(10)]:
        counts = _edge_counts(g)
        peeled = density._degeneracy_orientation(g)[0]
        for k in range(1, 5):
            violated = any(e > k * (mask.bit_count() - 1) for mask, e in counts.items())
            reverse = [{u for u in g.adj[v] if v in peeled[u]} for v in range(g.n)]
            shuffled = [set() for _ in range(g.n)]
            for u, v in g.edges:
                tail, head = (u, v) if orient_rng.random() < 0.5 else (v, u)
                shuffled[tail].add(head)
            for out in ([set(a) for a in peeled], reverse, shuffled):
                assert density._fits_forests(g, out, k) == (not violated), (g.edges, k)


def test_product_density_is_sum_of_factor_densities():
    rng = random.Random(7)
    for _ in range(20):
        factors = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(("path", "cycle", "clique"))
            n = rng.randint(2, 4) if kind != "cycle" else rng.randint(3, 4)
            factors.append({"path": path_graph, "cycle": cycle_graph,
                            "clique": complete_graph}[kind](n))
        space = ProductSpace(factors)
        if space.num_vertices() > 216:
            continue
        flat, _ = space.materialize().to_factor_graph()
        assert dens(flat) == sum(dens(f) for f in factors)


def _forbid_flow(monkeypatch):
    def no_flow(*args):
        raise AssertionError("arboricity ran a max-flow")

    monkeypatch.setattr(density, "densest_subgraph", no_flow)
    monkeypatch.setattr(MaxFlow, "max_flow", no_flow)


def _power(factor, m):
    return ProductSpace([factor] * m).materialize().to_factor_graph()[0]


def test_known_arboricities(monkeypatch):
    _forbid_flow(monkeypatch)
    assert arboricity(path_graph(6)) == 1
    assert arboricity(FactorGraph(1, [])) == 0
    # An n-vertex subgraph of a hypercube has at most (n/2) log2 n edges, the
    # density bound of the paper's opening in its sharp form (Harper 1964).
    # Its ratio to n - 1 grows with n, so Q_m itself needs the most forests.
    for m in range(1, 9):  # from Q4 on, past the oracle's 12 vertices
        assert arboricity(_power(path_graph(2), m)) == -(-m * 2 ** (m - 1) // (2 ** m - 1)), m
    for n in range(1, 61):
        assert arboricity(complete_graph(n)) == (0 if n == 1 else -(-n // 2)), n
    assert arboricity(_power(complete_graph(3), 3)) == 4
    assert arboricity(_power(complete_graph(4), 3)) == 5


# L = 3 and U = 4 from the peel, and arboricity 4, so `arboricity` rejects
# k = L.  None of 20,000 random graphs small enough for the brute-force
# oracle does that; this one was found among random graphs grown from a
# dense core, each later vertex joined to a few earlier ones, and pruned
# edge by edge while it still did.
REJECTED_AT_THE_LOWER_BOUND = FactorGraph(17, [
    (0, 1), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 9), (0, 12), (1, 3), (1, 4),
    (1, 5), (1, 14), (2, 3), (2, 5), (2, 9), (2, 11), (3, 4), (3, 5), (3, 6), (3, 7),
    (3, 8), (3, 9), (4, 6), (4, 7), (4, 10), (5, 6), (5, 8), (5, 9), (5, 14), (6, 8),
    (6, 10), (6, 12), (6, 16), (7, 8), (7, 9), (7, 11), (7, 13), (8, 11), (9, 11),
    (9, 14), (9, 15), (10, 13), (10, 16), (12, 15), (12, 16), (13, 14), (13, 15), (15, 16)])


def _recorded(monkeypatch, name):
    """Patch density.<name> to record each call's arguments and result."""
    calls, real = [], getattr(density, name)

    def record(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(density, name, record)
    return calls


def test_arboricity_rejected_at_the_lower_bound(monkeypatch):
    g = REJECTED_AT_THE_LOWER_BOUND
    _forbid_flow(monkeypatch)
    tests = _recorded(monkeypatch, "_fits_forests")
    reversals = _recorded(monkeypatch, "_reverse_path_to_room")
    assert arboricity(g) == 4
    assert [(k, fits) for (_, _, k), fits in tests] == [(3, False)]
    # the drain's reached set needs 4 forests, and the degeneracy builds 4
    reached = next(r for _, r in reversals if r is not None)
    assert sum(1 for u, v in g.edges if u in reached and v in reached) > 3 * (len(reached) - 1)
    fd = forest_decomposition(g)
    assert fd.k == 4
    for j in range(fd.k):
        _assert_forest(g.n, fd.forest_edges(j))
    assert sorted(e for j in range(fd.k) for e in fd.forest_edges(j)) == list(g.edges)


def test_arboricity_peels_once(monkeypatch):
    # one degeneracy peel bounds the value and gives the one orientation
    # that every tested k drains in turn
    peels = _recorded(monkeypatch, "degeneracy_ordering")
    tests = _recorded(monkeypatch, "_fits_forests")
    for g, want in ((complete_graph(60), 30), (_power(path_graph(2), 8), 5),
                    (_power(complete_graph(4), 3), 5), (REJECTED_AT_THE_LOWER_BOUND, 4),
                    (_grid(20, 20), 2)):
        del peels[:], tests[:]
        assert arboricity(g) == want
        assert len(peels) == 1
        assert len({id(out) for (_, out, _), _ in tests}) <= 1


def test_one_heap_peel_per_graph_serves_value_forests_and_orientation(monkeypatch, tmp_path,
                                                                      capsys):
    # the value and the forests of `prodvc arboricity`, and the labels and
    # the orientation of one `labels` suite graph, read one kept peel: the
    # heap peel's first step, `degree_sequence`, runs once per graph
    from prodvc import graph as graph_module
    from prodvc.cli import main
    from prodvc.harness import run_suite
    from prodvc.labeling import encode
    peels = []
    real = graph_module.degree_sequence
    monkeypatch.setattr(graph_module, "degree_sequence", lambda g: peels.append(g) or real(g))
    path = tmp_path / "g.txt"
    for g in (complete_graph(7), _power(path_graph(2), 4), _grid(6, 6, random.Random(6))):
        path.write_text(to_edgelist(g))
        del peels[:]
        assert main(["arboricity", str(path)]) == 0
        assert len(peels) == 1 and peels[0] == g
        del peels[:]
        encode(g)
        bounded_outdegree_orientation(g, math.ceil(dens(g)))
        assert peels == [g]
    capsys.readouterr()
    del peels[:]
    records = run_suite("labels", trials=4, seed=3)
    assert len(peels) == 4 and len(records) == 8


def test_arboricity_matches_bruteforce(monkeypatch):
    _forbid_flow(monkeypatch)
    tests = _recorded(monkeypatch, "_fits_forests")
    # K5 minus an edge (9 > 2*4 edges) inside a 10-vertex graph of density
    # 9/5 whose densest set, the whole graph, has only 2*9 edges: the peel
    # ends on the K5 minus an edge, so L = U = 3
    k5_minus_edge = [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (0, 1)]
    hidden = FactorGraph(10, k5_minus_edge + [(0, 5), (1, 6), (2, 7), (3, 8)]
                         + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])
    # arboricity 4, which the peel already gives as L; U = 5
    round_true = FactorGraph(12, [
        (0, 5), (0, 9), (0, 10), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 6),
        (2, 8), (2, 9), (3, 6), (3, 7), (3, 8), (3, 9), (3, 10), (3, 11), (4, 9), (5, 6),
        (5, 10), (6, 7), (6, 8), (6, 9), (6, 10), (6, 11), (7, 8), (7, 9), (7, 10), (8, 9),
        (8, 10), (9, 10), (10, 11)])
    q3, _ = ProductSpace([path_graph(2)] * 3).materialize().to_factor_graph()
    graphs = [complete_graph(5), q3, hidden, round_true] + [cycle_graph(n) for n in range(3, 13)]
    rng = random.Random(99)
    graphs += [random_graph(rng, n_max=9) for _ in range(120)]
    rng = random.Random(2634)
    graphs += [random_graph(rng, n_max=11) for _ in range(300)]
    outcomes = set()
    for g in graphs:
        before = len(tests)
        assert arboricity(g) == arboricity_bruteforce(g)
        if len(tests) > before:
            outcomes.add("fits at L" if tests[before][1] else "rejected at L")
        elif g.m:
            outcomes.add("bounds meet")
    assert {"bounds meet", "fits at L"} <= outcomes


def _grid(a, b, rng=None):
    """The a x b grid, its vertices relabelled at random when rng is given."""
    label = list(range(a * b))
    if rng is not None:
        rng.shuffle(label)
    edges = [(label[i * b + j], label[i * b + j + 1]) for i in range(a) for j in range(b - 1)]
    edges += [(label[i * b + j], label[i * b + b + j]) for i in range(a - 1) for j in range(b)]
    return FactorGraph(a * b, edges)


def _three_core(g):
    """The vertices left once every vertex of degree below 3 is removed."""
    alive = set(range(g.n))
    low = [v for v in alive if len(g.adj[v]) < 3]
    while low:
        alive -= set(low)
        low = [v for v in alive if len(g.adj[v] & alive) < 3]
    return alive


def test_arboricity_of_grids_and_sparse_random_graphs_needs_no_flow(monkeypatch):
    _forbid_flow(monkeypatch)
    # A G(n, 1.25n) has more than n - 1 edges, so it needs two forests.  A
    # set S with |E(S)| > 2(|S| - 1), minimal under inclusion, keeps at most
    # 2(|S| - 2) edges without any one vertex, so each vertex has degree at
    # least 3 in S and S lies in the 3-core: two forests suffice when the
    # 3-core needs at most two.
    rng = random.Random(1964)
    for n in (100, 200, 300):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for _ in range(3):
            g = FactorGraph(n, rng.sample(pairs, round(1.25 * n)))
            assert arboricity_bruteforce(induced_subgraph(g, _three_core(g))[0]) <= 2
            assert arboricity(g) == 2
    sides = (1, 2, 3, 5, 8, 13, 21, 30)
    for a in sides:
        for b in (b for b in sides if b >= a):
            want = 0 if a == b == 1 else 1 if a == 1 else 2
            assert arboricity(_grid(a, b)) == arboricity(_grid(a, b, rng)) == want, (a, b)
    assert arboricity(_grid(100, 100, rng)) == 2


def test_peel_bounds_that_cross_fail(monkeypatch):
    # a degeneracy below a suffix's forest count would certify a wrong
    # value; arboricity raises instead of returning either bound
    real = degeneracy_ordering
    monkeypatch.setattr(density, "degeneracy_ordering", lambda g: (real(g)[0], 1))
    with pytest.raises(RuntimeError):
        arboricity(complete_graph(4))


def test_arboricity_consistency_with_density():
    rng = random.Random(5)
    for _ in range(60):
        g = random_graph(rng)
        if g.n < 2 or g.m == 0:
            continue
        a = arboricity(g)
        assert a >= math.ceil(dens(g))
        assert a <= math.ceil(dens(g) * g.n / (g.n - 1))


def _assert_forest(n, edges):
    root = list(range(n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        assert ru != rv, f"cycle through edge ({u},{v})"
        root[ru] = rv


def test_forest_decomposition_partitions_into_forests():
    for g, k in [(cycle_graph(6), 2), (complete_graph(4), 3), (path_graph(5), 1)]:
        fd = forest_decomposition(g)
        assert fd.k == k == degeneracy_ordering(g)[1]
        seen = set()
        for j in range(fd.k):
            _assert_forest(g.n, fd.forest_edges(j))
            seen.update(fd.forest_edges(j))
        assert seen == set(g.edges)


def test_forest_decomposition_random():
    rng = random.Random(13)
    for _ in range(60):
        g = random_graph(rng)
        order, k = degeneracy_ordering(g)
        fd = forest_decomposition(g)
        assert fd.k == k
        pos = {v: i for i, v in enumerate(order)}
        for v in range(g.n):  # parents: the later neighbours by id, then roots
            later = sorted(w for w in g.adj[v] if pos[w] > pos[v])
            assert [fd.parents[j][v] for j in range(k)] == later + [g.n] * (k - len(later))
        for j in range(fd.k):
            _assert_forest(g.n, fd.forest_edges(j))
        assert sum(len(fd.forest_edges(j)) for j in range(fd.k)) == g.m


def test_empty_cut_witness_fails(monkeypatch):
    # a cut below the supply always has a vertex on its source side; a
    # wrong one raises (an explicit raise, so it holds under python -O too)
    monkeypatch.setattr(MaxFlow, "min_cut_source_side", lambda net: {0})
    k4_and_a_tail = FactorGraph(6, list(complete_graph(4).edges) + [(3, 4), (4, 5)])
    with pytest.raises(RuntimeError, match="no vertex on the source side"):
        density._denser_subgraph(k4_and_a_tail, Fraction(4, 3),
                                 (range(6), k4_and_a_tail.edges))


def test_orientation_above_the_bound_fails(monkeypatch):
    # a path reversal that reports success but reverses nothing leaves the
    # degeneracy orientation as it was, with outdegree 3 at K4's first
    # vertex; the final explicit outdegree check raises (under python -O too)
    monkeypatch.setattr(density, "_reverse_path_to_room", lambda out, s, d: None)
    with pytest.raises(RuntimeError, match="above 2"):
        bounded_outdegree_orientation(complete_graph(4), 2)


def test_orientation_with_a_wrong_reached_set_fails(monkeypatch):
    # a set reached with no room holds more than d edges per vertex; if the
    # count says otherwise the search is wrong, and it raises instead of
    # calling the input infeasible
    monkeypatch.setattr(density, "_edge_count_within", lambda g, vertices: 0)
    with pytest.raises(RuntimeError, match="reaches no vertex with room"):
        bounded_outdegree_orientation(complete_graph(4), 1)
    # the same for forests: k = L is rejected on this graph
    with pytest.raises(RuntimeError, match="reaches no vertex with room"):
        arboricity(REJECTED_AT_THE_LOWER_BOUND)


def test_orientation_exists_exactly_up_to_the_density():
    # Hakimi: an orientation with outdegree <= d exists iff dens(g) <= d
    rng = random.Random(1965)
    for _ in range(150):
        g = random_graph(rng, n_max=10)
        rho = densest_subgraph_bruteforce(g).density
        for d in range(max((len(a) for a in g.adj), default=0) + 1):
            if rho <= d:
                heads = bounded_outdegree_orientation(g, d)
                assert sorted(heads) == list(g.edges)
                out = [0] * g.n
                for (u, v), head in heads.items():
                    assert head in (u, v)
                    out[u if head == v else v] += 1
                assert max(out, default=0) <= d
            else:
                with pytest.raises(GraphError, match="infeasible"):
                    bounded_outdegree_orientation(g, d)


def test_orientation_bounds_outdegree():
    for g, d in [(complete_graph(4), 2), (cycle_graph(4), 1), (path_graph(5), 1)]:
        orientation = bounded_outdegree_orientation(g, d)
        out = [0] * g.n
        for (u, v), head in orientation.items():
            assert head in (u, v)
            out[u if head == v else v] += 1
        assert max(out) <= d
    with pytest.raises(GraphError):
        bounded_outdegree_orientation(complete_graph(4), 1)


def test_orientation_at_ceil_density_always_succeeds():
    rng = random.Random(3)
    for _ in range(60):
        g = random_graph(rng)
        if g.m == 0:
            continue
        bounded_outdegree_orientation(g, math.ceil(dens(g)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 28 - 1), st.integers(2, 8))
def test_density_oracle_property(bits, n):
    edges = []
    idx = 0
    for u in range(n):
        for v in range(u + 1, n):
            if bits >> idx & 1:
                edges.append((u, v))
            idx += 1
    g = FactorGraph(n, edges)
    rep = densest_subgraph(g)
    assert rep.density == densest_subgraph_bruteforce(g).density
    assert mad(g) == 2 * rep.density
    assert rep.density >= Fraction(g.m, g.n)


def _random_networks(seed):
    """150 seeded random flow networks, as (n, net, arcs): each arc pair
    goes into arcs as (u, v, capacity) both ways, some pairs two-way.  A
    fixed one comes first, with arcs both ways between the source 0 and the
    sink 2, where a greedy walk 0 -> 2 -> 0 -> 2 would take one arc 0 -> 2
    twice and report a flow of 8, not 7."""
    net, arcs = MaxFlow(3), []
    for u, v, c, r in ((2, 1, 2, 0), (0, 1, 2, 1), (2, 0, 3, 0), (1, 2, 1, 0), (2, 0, 2, 6)):
        net.add_edge(u, v, c, r)
        arcs += [(u, v, c), (v, u, r)]
    yield 3, net, arcs
    rng = random.Random(seed)
    for _ in range(150):
        n = rng.randint(2, 12)
        net, arcs = MaxFlow(n), []
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.sample(range(n), 2)
            c, r = rng.randint(1, 9), rng.choice((0, 0, rng.randint(1, 9)))
            net.add_edge(u, v, c, r)  # r > 0: a two-way arc pair
            arcs += [(u, v, c), (v, u, r)]
        yield n, net, arcs


def test_max_flow_matches_networkx():
    nx = pytest.importorskip("networkx")
    for n, net, arcs in _random_networks(11):
        ref = nx.DiGraph()
        ref.add_nodes_from(range(n))
        for a, b, cap in arcs:
            if ref.has_edge(a, b):
                ref[a][b]["capacity"] += cap
            else:
                ref.add_edge(a, b, capacity=cap)
        value = net.max_flow(0, n - 1)
        assert value == nx.maximum_flow_value(ref, 0, n - 1)
        side = net.min_cut_source_side()
        assert n - 1 not in side
        assert sum(c for u, v, c in arcs if u in side and v not in side) == value


def test_min_cut_side_is_the_residual_reach():
    # with or without networkx: the side read off the last level search is
    # what a residual search from the source reaches, the sink side is what
    # reaches the sink, and the capacity out of either source side is the
    # flow value
    for n, net, arcs in _random_networks(1970):
        value = net.max_flow(0, n - 1)
        reach, queue = {0}, [0]
        for v in queue:  # the queue grows while it is walked
            for i in net.head[v]:
                if net.cap[i] > 0 and net.to[i] not in reach:
                    reach.add(net.to[i])
                    queue.append(net.to[i])
        side = net.min_cut_source_side()
        assert side == reach and n - 1 not in side
        assert sum(c for u, v, c in arcs if u in side and v not in side) == value
        # arc i runs to[i ^ 1] -> to[i]: grow the set that reaches the sink
        # by whole passes over the arcs until one adds nothing
        reaches_sink, grew = {n - 1}, True
        while grew:
            grew = False
            for i, head in enumerate(net.to):
                tail = net.to[i ^ 1]
                if net.cap[i] > 0 and head in reaches_sink and tail not in reaches_sink:
                    reaches_sink.add(tail)
                    grew = True
        sink_side = net.min_cut_sink_side(n - 1)
        assert sink_side == reaches_sink and 0 not in sink_side
        assert side.isdisjoint(sink_side)
        assert sum(c for u, v, c in arcs if u not in sink_side and v in sink_side) == value
