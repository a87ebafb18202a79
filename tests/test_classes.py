import random
from itertools import combinations

import pytest

from prodvc.classes import (EXACT_DISMANTLING_CAP, chordal_certificate, clique_number,
                            is_chordal_bruteforce, is_dismantlable_bruteforce,
                            min_dismantling_order, product_elimination_report,
                            suboctahedron_structure)
from prodvc.graph import (FactorGraph, GraphError, complete_graph, contract_edge,
                          cycle_graph, path_graph, star_graph)
from prodvc.harness import random_factor, random_subgraph
from prodvc.products import ProductSpace, octahedron


def random_graph(rng, n_max=8, connected=False):
    while True:
        n = rng.randint(1, n_max)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < rng.choice((0.2, 0.5, 0.8))]
        g = FactorGraph(n, edges)
        if not connected:
            return g
        from prodvc.graph import is_connected
        if is_connected(g):
            return g


def test_paths_and_trees_dismantle_with_degree_one():
    for g in (path_graph(2), path_graph(5), star_graph(4)):
        cert = min_dismantling_order(g)
        assert cert is not None and cert.dd == 1 and cert.exact


def test_cycle_four_is_not_dismantlable():
    assert min_dismantling_order(cycle_graph(4)) is None
    assert not is_dismantlable_bruteforce(cycle_graph(4))
    # but any chordal graph is
    assert min_dismantling_order(complete_graph(4)).dd == 3


def test_dismantling_order_is_valid():
    rng = random.Random(2)
    for _ in range(120):
        g = random_graph(rng)
        cert = min_dismantling_order(g)
        assert (cert is not None) == is_dismantlable_bruteforce(g)
        if cert is None:
            continue
        alive = set(range(g.n))
        worst = 0
        for u, dom in zip(cert.order, cert.dominators):
            nu = (g.adj[u] | {u}) & alive
            worst = max(worst, len(nu) - 1)
            if len(alive) > 1:
                assert dom != u and dom in alive
                assert nu <= (g.adj[dom] | {dom}) & alive
            alive.discard(u)
        assert worst == cert.dd


def test_greedy_fallback_is_flagged():
    g = path_graph(15)
    assert g.n > EXACT_DISMANTLING_CAP
    cert = min_dismantling_order(g)
    assert cert is not None and not cert.exact and cert.dd >= 1


def test_greedy_picks_smallest_dominator():
    """Replaying a greedy certificate on shuffled dismantlable graphs: each
    removed vertex is the first, by (degree, id), that some alive vertex
    dominates, and its dominator is the smallest such id."""
    rng = random.Random(1330)
    for _ in range(60):
        n = rng.randint(13, 40)
        edges = set()
        for v in range(1, n):  # v is dominated by u when it arrives
            u = rng.randrange(v)
            nbrs = [w for w in range(v) if (min(u, w), max(u, w)) in edges]
            edges |= {(w, v) for w in [u] + [w for w in nbrs if rng.random() < 0.5]}
        name = rng.sample(range(n), n)
        g = FactorGraph(n, [(name[a], name[b]) for a, b in edges])
        cert = min_dismantling_order(g)
        assert cert is not None and not cert.exact
        alive = set(range(n))

        def dominators(u):
            nu = (g.adj[u] | {u}) & alive
            return [v for v in sorted(alive) if v != u and nu <= (g.adj[v] | {v}) & alive]

        for u, dom in list(zip(cert.order, cert.dominators))[:-1]:
            by_degree = sorted(alive, key=lambda x: (len(g.adj[x] & alive), x))
            assert u == next(x for x in by_degree if dominators(x))
            assert dom == dominators(u)[0]
            alive.discard(u)
        assert alive == {cert.order[-1]}


def test_elimination_degree_is_minimal():
    # the greedy order on a star contracts leaves at degree 1; dd must be 1
    assert min_dismantling_order(star_graph(6)).dd == 1
    # a clique cannot avoid a high first removal
    assert min_dismantling_order(complete_graph(5)).dd == 4


def test_product_elimination_sum_identity():
    rng = random.Random(8)
    for _ in range(40):
        factors = []
        for _ in range(rng.randint(1, 3)):
            g = random_graph(rng, n_max=4, connected=True)
            if min_dismantling_order(g) is None:
                g = path_graph(3)
            factors.append(g)
        sp = ProductSpace(factors)
        if sp.num_vertices() > 216:
            continue
        rep = product_elimination_report(sp.materialize())
        assert rep.exact
        assert rep.dd_subgraph == rep.dd_product
        assert rep.dd_product == sum(c.dd for c in rep.factor_certificates)


def test_product_elimination_counts_later_neighbours_of_the_subgraph():
    # brute force over all vertex pairs, independent of g.edges
    rng = random.Random(21)
    for _ in range(60):
        factors = [random_factor(rng, rng.choice(("path", "tree", "chordal", "clique")), 4)
                   for _ in range(rng.randint(1, 3))]
        sp = ProductSpace(factors)
        g = random_subgraph(rng, sp)
        rep = product_elimination_report(g)
        pos = [{v: j for j, v in enumerate(c.order)} for c in rep.factor_certificates]

        def key(v):
            return tuple(p[c] for p, c in zip(pos, v))

        def adjacent(v, w):
            # the definition: v and w differ in one coordinate, along a factor edge
            diff = [i for i in range(sp.m) if v[i] != w[i]]
            return len(diff) == 1 and factors[diff[0]].has_edge(v[diff[0]], w[diff[0]])

        later = [sum(1 for w in g.vertices if adjacent(v, w) and key(w) > key(v))
                 for v in g.vertices]
        assert rep.dd_subgraph == max(later, default=0)
        assert rep.dd_subgraph <= rep.dd_product


def test_product_elimination_rejects_non_dismantlable_factor():
    with pytest.raises(GraphError):
        product_elimination_report(ProductSpace([cycle_graph(4)]).materialize())


def test_chordal_certificates():
    assert chordal_certificate(complete_graph(4)).omega == 4
    assert chordal_certificate(path_graph(5)).omega == 2
    cert = chordal_certificate(cycle_graph(5))
    assert not cert.chordal
    assert cert.hole is not None and len(cert.hole) >= 4


def test_chordal_matches_bruteforce():
    rng = random.Random(77)
    for _ in range(150):
        g = random_graph(rng)
        cert = chordal_certificate(g)
        assert cert.chordal == is_chordal_bruteforce(g)
        if cert.chordal:
            # the elimination ordering is perfect: later neighborhoods are cliques
            pos = {v: i for i, v in enumerate(cert.peo)}
            for v in cert.peo:
                later = [w for w in g.adj[v] if pos[w] > pos[v]]
                for a in later:
                    for b in later:
                        assert a == b or g.has_edge(a, b)
            assert cert.omega == clique_number(g)


def test_chordality_closed_under_edge_contraction():
    rng = random.Random(12)
    done = 0
    while done < 60:
        g = random_graph(rng, n_max=7)
        if g.m == 0 or not chordal_certificate(g).chordal:
            continue
        u, v = rng.choice(g.edges)
        h, _ = contract_edge(g, u, v)
        assert chordal_certificate(h).chordal
        done += 1


def test_clique_number():
    assert clique_number(complete_graph(6)) == 6
    assert clique_number(cycle_graph(5)) == 2
    assert clique_number(FactorGraph(3, [])) == 1
    assert clique_number(FactorGraph(0, [])) == 0
    assert clique_number(cycle_graph(3000)) == 2  # no recursion on long graphs
    nx = pytest.importorskip("networkx")
    rng = random.Random(21)
    for _ in range(150):
        g = random_graph(rng, n_max=10)
        h = nx.Graph(g.edges)
        h.add_nodes_from(range(g.n))
        assert clique_number(g) == max(len(c) for c in nx.find_cliques(h))


def matchings(vertices):
    """Every matching of the complete graph on `vertices`, each once."""
    if len(vertices) < 2:
        yield ()
        return
    v, rest = vertices[0], vertices[1:]
    yield from matchings(rest)  # v unmatched
    for j, w in enumerate(rest):
        for m in matchings(rest[:j] + rest[j + 1:]):
            yield ((v, w),) + m


def test_suboctahedron_omega_is_the_clique_number():
    # the structure proves omega = pairs + universal vertices, so nothing
    # checks it at run time; every K_n minus a matching for n <= 9, and
    # seeded random ones up to n = 12, against clique_number and networkx
    try:
        import networkx as nx
    except ImportError:
        nx = None
    rng = random.Random(1616)
    graphs = [(n, m) for n in range(1, 10) for m in matchings(tuple(range(n)))]
    for _ in range(200):
        n = rng.randint(10, 12)
        order = rng.sample(range(n), n)
        graphs.append((n, tuple(zip(order[0::2], order[1::2]))[:rng.randint(0, n // 2)]))
    assert len(graphs) > 3700
    for n, missing in graphs:
        g = FactorGraph(n, [e for e in combinations(range(n), 2)
                            if e not in missing and e[::-1] not in missing])
        info = suboctahedron_structure(g)
        assert info.omega == clique_number(g) == n - len(missing)
        if nx is not None:
            h = nx.Graph(g.edges)
            h.add_nodes_from(range(n))
            assert info.omega == max(len(c) for c in nx.find_cliques(h))


def test_suboctahedron_structure():
    info = suboctahedron_structure(octahedron(3))
    assert info.pairs == ((0, 1), (2, 3), (4, 5))
    assert info.universal == ()
    assert info.omega == 3
    k4 = suboctahedron_structure(complete_graph(4))
    assert k4.pairs == () and len(k4.universal) == 4
    assert suboctahedron_structure(path_graph(4)) is None
    assert suboctahedron_structure(cycle_graph(5)) is None
    assert suboctahedron_structure(cycle_graph(4)).pairs == ((0, 2), (1, 3))
