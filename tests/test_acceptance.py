"""Acceptance gate: ten end-to-end criteria, one pass/fail line each."""

import math
import random
import time
from fractions import Fraction

import pytest

from prodvc.density import (bounded_outdegree_orientation, dens,
                            densest_subgraph, densest_subgraph_bruteforce)
from prodvc.graph import FactorGraph, degeneracy_ordering, path_graph
from prodvc.harness import (check_clique_bound, check_dd_sum, check_density_sum,
                            check_elimination_bound, check_hypercube_bound, fuzz_records,
                            generate, random_factor, report_to_json, run_suite)
from prodvc.labeling import decode, encode
from prodvc.products import ProductSpace, ProductSubgraph, instance_from_json
from prodvc.reductions import reduce_edge, vc_monotonicity_check
from prodvc.vc import vcd_induced, vcd_minor, vcdens_minor


def _report(num: int, ok: bool, msg: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {msg}"
    print(line)
    assert ok, line


def _random_graph(rng: random.Random, n: int) -> FactorGraph:
    p = rng.choice((0.1, 0.2, 0.4, 0.7))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return FactorGraph(n, edges)


@pytest.fixture(scope="module")
def oracle_corpus():
    rng = random.Random(20260823)
    graphs = []
    for i in range(1000):
        if i < 900:
            n = rng.randint(1, 13)
        elif i < 995:
            n = rng.randint(14, 18)
        else:
            n = rng.randint(19, 20)
        graphs.append(_random_graph(rng, n))
    return graphs


def test_criterion_01_figure_fixtures():
    t0 = time.monotonic()
    p5_in_q4 = ProductSubgraph(
        ProductSpace([path_graph(2)] * 4),
        [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1)])
    p5_in_q3 = ProductSubgraph(
        ProductSpace([path_graph(2)] * 3),
        [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 1, 0)])
    grid5 = ProductSubgraph(
        ProductSpace([path_graph(3), path_graph(3)]),
        [(0, 0), (1, 0), (1, 1), (2, 0), (2, 2)])
    results = []
    for g, want, want_star in ((p5_in_q4, 1, 1), (p5_in_q3, 2, 2), (grid5, 1, 2)):
        start = time.monotonic()
        d = vcd_induced(g)[0]
        d_star, exact, witness = vcd_minor(g)
        elapsed = time.monotonic() - start
        results.append(d == want and d_star == want_star and exact
                       and elapsed < 1.0)
    _, _, witness = vcd_minor(grid5)
    results.append(witness.parts == ((frozenset({0, 1}), frozenset({2})),
                                     (frozenset({0}), frozenset({1, 2}))))
    _report(1, all(results),
            f"figure fixtures vcd/vcd* exact in {time.monotonic() - t0:.2f}s")


def test_criterion_02_density_sum_and_oracle(oracle_corpus):
    t0 = time.monotonic()
    rng = random.Random(2)
    sum_ok = 0
    for _ in range(200):
        while True:
            m = rng.randint(1, 3)
            factors = [random_factor(rng, rng.choice(("path", "cycle", "tree",
                                                      "clique", "sparse")), 6)
                       for _ in range(m)]
            if ProductSpace(factors).num_vertices() <= 216:
                break
        if check_density_sum(factors).verdict == "holds":
            sum_ok += 1
    oracle_ok = 0
    for g in oracle_corpus:
        if densest_subgraph(g).density == densest_subgraph_bruteforce(g).density:
            oracle_ok += 1
    elapsed = time.monotonic() - t0
    _report(2, sum_ok == 200 and oracle_ok == 1000 and elapsed < 300,
            f"density sum {sum_ok}/200, oracle {oracle_ok}/1000 in {elapsed:.1f}s")


def test_criterion_03_hypercube_density_bound():
    t0 = time.monotonic()
    rng = random.Random(3)
    violations = 0
    for _ in range(500):
        m = rng.randint(1, 10)
        count = rng.randint(1, min(64, 2 ** m))
        verts = set()
        while len(verts) < count:
            verts.add(tuple(rng.randint(0, 1) for _ in range(m)))
        g = ProductSubgraph(ProductSpace([path_graph(2)] * m), verts)
        if check_hypercube_bound(g).verdict != "holds":
            violations += 1
    elapsed = time.monotonic() - t0
    _report(3, violations == 0 and elapsed < 600,
            f"|E|/|V| <= vcd on 500 hypercube subgraphs, "
            f"{violations} violations in {elapsed:.1f}s")


def test_criterion_04_log_bound_and_splitting():
    t0 = time.monotonic()
    records = run_suite("thm4", trials=1000, seed=4)
    main = [r for r in records if r.claim == "Thm4"]
    split = [r for r in records if r.claim == "Thm4-split"]
    bad = [r for r in records if r.verdict != "holds"]
    ok = len(main) == 1000 and len(split) == 1000 and not bad
    _report(4, ok,
            f"log-density bound and splitting step on 1000 instances, "
            f"{len(bad)} violations in {time.monotonic() - t0:.1f}s")


def test_criterion_05_mu_times_vcd_star():
    t0 = time.monotonic()
    records = run_suite("thm5", trials=500, seed=5)
    main = [r for r in records if r.claim == "Thm5"]
    ok = (len(main) == 500
          and all(r.verdict == "holds" and r.detail["exact"] for r in main)
          and all(r.verdict == "holds" for r in records if r.claim == "Lem8"))
    _report(5, ok,
            f"|E|/|V| <= mu*vcd_star exact on {len(main)} tree/chordal "
            f"products in {time.monotonic() - t0:.1f}s")


def test_criterion_06_reduction_counting_and_monotonicity():
    t0 = time.monotonic()
    rng = random.Random(6)
    steps = checked = 0
    ok = True
    while steps < 500:
        g = generate(family=rng.choice(("path", "tree", "clique")),
                     m=rng.randint(1, 2), factor_size=4, seed=rng.randrange(2 ** 32))
        i = rng.randrange(g.space.m)
        if g.space.factors[i].m == 0:
            continue
        u, v = rng.choice(g.space.factors[i].edges)
        step = reduce_edge(g, i, u, v)  # counting identities asserted inside
        step.check_counting()
        steps += 1
        for rec in vc_monotonicity_check(step):
            checked += 1
            if rec.verdict not in ("holds", "skipped"):
                ok = False
    _report(6, ok and steps == 500,
            f"counting identities + {checked} monotonicity checks over "
            f"{steps} reduction steps in {time.monotonic() - t0:.1f}s")


def test_criterion_07_elimination_and_clique_bounds():
    t0 = time.monotonic()
    rng = random.Random(7)
    bad = 0
    dd_checked = dd_ok = 0
    for kind in ("tree", "chordal", "octahedron"):
        for _ in range(300):
            g = generate(family=kind, m=rng.randint(1, 2),
                         factor_size=4 if kind != "octahedron" else 6,
                         seed=rng.randrange(2 ** 32))
            if kind == "octahedron":
                recs = [check_clique_bound(g, "octahedron")]
            elif kind == "chordal":
                recs = [check_clique_bound(g, "chordal"),
                        check_elimination_bound(g)]
            else:
                recs = [check_elimination_bound(g)]
            bad += sum(1 for r in recs if r.verdict != "holds")
            if kind != "octahedron" and g.space.num_vertices() <= 216:
                dd_checked += 1
                if check_dd_sum(g.space).verdict == "holds":
                    dd_ok += 1
    _report(7, bad == 0 and dd_checked > 0 and dd_ok == dd_checked,
            f"elimination/clique bounds on 900 instances, 0 violations; "
            f"DD sum exact on {dd_ok}/{dd_checked} products in "
            f"{time.monotonic() - t0:.1f}s")


def test_criterion_08_labeling():
    t0 = time.monotonic()
    rng = random.Random(8)
    pair_checks = 0
    ok = True
    for _ in range(100):
        n = rng.randint(190, 200)
        g = FactorGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < 3.0 / n])
        scheme = encode(g)
        w = max(1, math.ceil(math.log2(n + 1)))
        if scheme.bits_per_label != (scheme.k + 1) * w:
            ok = False
        _, k_degeneracy = degeneracy_ordering(g)
        if not (scheme.k <= k_degeneracy <= math.floor(2 * dens(g))):
            ok = False
        labels = scheme.labels
        for u in range(n):
            lu, au = labels[u], g.adj[u]
            for v in range(n):
                pair_checks += 1
                if decode(lu, labels[v], scheme.k, scheme.w) != (v in au):
                    ok = False
    elapsed = time.monotonic() - t0
    _report(8, ok and pair_checks >= 3_500_000 and elapsed < 120,
            f"labels decode all {pair_checks} ordered pairs on 100 graphs "
            f"in {elapsed:.1f}s")


def test_criterion_09_orientation_at_ceiling_density(oracle_corpus):
    t0 = time.monotonic()
    ok = True
    for g in oracle_corpus:
        d = math.ceil(dens(g))
        heads = bounded_outdegree_orientation(g, d)  # outdegrees asserted inside
        if set(heads) != set(g.edges) or any(h not in e for e, h in heads.items()):
            ok = False
    _report(9, ok,
            f"outdegree-ceil(dens) orientation on all {len(oracle_corpus)} "
            f"corpus graphs in {time.monotonic() - t0:.1f}s")


def test_criterion_10_minor_density_fuzzing():
    t0 = time.monotonic()
    records, violations = [], []
    for factors, trials in (((3, 3), 5000), ((4, 3), 5000)):
        sp = ProductSpace([path_graph(k) for k in factors])
        recs, viols = fuzz_records(sp, trials, seed=10)
        records.extend(recs)
        violations.extend(viols)
    ok = all(r.verdict in ("holds", "inconclusive") for r in records)
    for v in violations:
        g = instance_from_json(v["instance"])
        ratio = Fraction(g.num_edges, g.n)
        d, exact, _ = vcdens_minor(g)
        if not (exact and ratio > d and Fraction(v["ratio"]) == ratio):
            ok = False
    doc = report_to_json(records)
    import json
    parsed = json.loads(doc)
    ok = (ok and parsed["schema"] == "prodvc-report-1"
          and set(parsed["counts"]) == {"holds", "violated", "inconclusive"}
          and parsed["counts"]["violated"] == 0
          and all(set(r) == {"claim", "instance", "lhs", "rhs", "verdict",
                             "runtime", "detail"} for r in parsed["records"]))
    _report(10, ok,
            f"10000 fuzz trials, {len(violations)} archived discoveries with "
            f"reproducers, report schema valid in {time.monotonic() - t0:.1f}s")
