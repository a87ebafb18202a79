import copy
import math
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from prodvc.graph import (FactorGraph, GraphError, complete_graph, contract_edge, cycle_graph,
                          degeneracy_ordering, from_edgelist, induced_subgraph, is_connected,
                          path_graph, reached_within, star_graph, to_edgelist,
                          two_min_degree_vertices)


def random_graph(draw_n, edge_bits):
    edges = []
    idx = 0
    for u in range(draw_n):
        for v in range(u + 1, draw_n):
            if edge_bits >> idx & 1:
                edges.append((u, v))
            idx += 1
    return FactorGraph(draw_n, edges)


graphs = st.integers(2, 8).flatmap(
    lambda n: st.integers(0, (1 << (n * (n - 1) // 2)) - 1).map(
        lambda bits: random_graph(n, bits)))


def test_rejects_bad_edges():
    with pytest.raises(GraphError):
        FactorGraph(3, [(0, 0)])
    with pytest.raises(GraphError):
        FactorGraph(3, [(0, 3)])
    with pytest.raises(GraphError):
        FactorGraph(-1, [])


def test_normalizes_and_deduplicates():
    g = FactorGraph(3, [(1, 0), (0, 1), (1, 2)])
    assert g.edges == ((0, 1), (1, 2))
    assert g.m == 2
    assert g.degree(1) == 2


def test_constructors():
    assert path_graph(4).m == 3
    assert cycle_graph(5).m == 5
    assert complete_graph(4).m == 6
    assert star_graph(3).m == 3
    with pytest.raises(GraphError):
        cycle_graph(2)


def test_connectivity():
    assert is_connected(path_graph(5))
    g = FactorGraph(4, [(0, 1), (2, 3)])
    assert not is_connected(g)
    assert reached_within(g, [0], range(4)) == {0, 1}
    assert reached_within(g, [3], range(4)) == {2, 3}


def test_induced_subgraph_compacts():
    g = cycle_graph(5)
    sub, remap = induced_subgraph(g, [1, 2, 4])
    assert sub.n == 3
    assert remap == {1: 0, 2: 1, 4: 2}
    assert sub.edges == ((0, 1),)


def test_contract_edge():
    g = cycle_graph(4)
    h, phi = contract_edge(g, 0, 1)
    assert h.n == 3
    assert h.m == 3  # triangle: contracting one edge of C4 merges two paths
    assert phi[1] == 0 and phi[2] == 1 and phi[3] == 2
    with pytest.raises(GraphError):
        contract_edge(g, 0, 2)


def bucket_peel(g):
    """Oracle: the bucket peel, taking the smallest id of the lowest
    nonempty degree bucket at each step."""
    deg = [len(g.adj[v]) for v in range(g.n)]
    buckets = {}
    for v, d in enumerate(deg):
        buckets.setdefault(d, set()).add(v)
    removed = [False] * g.n
    order, degeneracy = [], 0
    for _ in range(g.n):
        d = 0
        while not buckets.get(d):
            d += 1
        v = min(buckets[d])
        buckets[d].discard(v)
        degeneracy = max(degeneracy, d)
        removed[v] = True
        order.append(v)
        for w in g.adj[v]:
            if not removed[w]:
                buckets[deg[w]].discard(w)
                deg[w] -= 1
                buckets.setdefault(deg[w], set()).add(w)
    return order, degeneracy


def test_degeneracy_ordering_matches_the_bucket_peel():
    rng = random.Random(1983)
    cases = [FactorGraph(0, []), FactorGraph(1, []), FactorGraph(5, []),
             FactorGraph(7, [(0, 1), (1, 2), (4, 5)]),  # isolated vertices 3 and 6
             FactorGraph(8, list(complete_graph(4).edges) + [(4, 5), (5, 6), (6, 4)])]
    for _ in range(300):
        n = rng.randint(0, 40)
        p = rng.choice((0.05, 0.15, 0.4, 0.8))
        cases.append(FactorGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                     if rng.random() < p]))
    for parts in range(2, 6):  # several components, relabelled apart
        edges, base = [], 0
        for _ in range(parts):
            k = rng.randint(1, 9)
            edges += [(base + u, base + v) for u in range(k) for v in range(u + 1, k)
                      if rng.random() < 0.5]
            base += k
        perm = list(range(base))
        rng.shuffle(perm)
        cases.append(FactorGraph(base, [(perm[u], perm[v]) for u, v in edges]))
    for g in cases:
        assert degeneracy_ordering(g) == bucket_peel(g), g


def test_degeneracy_ordering_keeps_its_peel_apart_from_callers():
    # the peel is kept on the graph; every call hands out its own list, so a
    # caller that changes one does not change what the next call returns
    rng = random.Random(1953)
    for _ in range(40):
        n = rng.randint(0, 30)
        g = FactorGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < 0.3])
        first = degeneracy_ordering(g)
        second = degeneracy_ordering(g)
        assert first == second == bucket_peel(g)
        assert first[0] is not second[0]
        first[0].reverse()
        first[0].append(n)
        second[0].clear()
        assert degeneracy_ordering(g) == bucket_peel(g)


def test_a_kept_peel_leaves_equality_hash_and_copies_alone():
    rng = random.Random(1968)
    for _ in range(20):
        n = rng.randint(1, 25)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g, twin = FactorGraph(n, edges), FactorGraph(n, edges)
        before = [pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)]
        peel = degeneracy_ordering(g)
        after = [pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)]
        assert g == twin and hash(g) == hash(twin)
        for h in before + after:
            assert h == g and hash(h) == hash(g)
            assert h.adj == g.adj and degeneracy_ordering(h) == peel
        assert {g, twin, *before, *after} == {twin}


@given(graphs)
def test_degeneracy_order_property(g):
    order, k = degeneracy_ordering(g)
    pos = {v: i for i, v in enumerate(order)}
    later = [sum(1 for w in g.adj[v] if pos[w] > pos[v]) for v in order]
    assert max(later, default=0) <= k
    # minimality: some subgraph has min degree k
    if k:
        best = 0
        alive = set(range(g.n))
        while alive:
            degs = {v: sum(1 for w in g.adj[v] if w in alive) for v in alive}
            best = max(best, min(degs.values()))
            alive.discard(min(degs, key=lambda v: (degs[v], v)))
        assert best == k


@given(graphs)
def test_two_min_degree_vertices_bound(g):
    from prodvc.density import mad
    a, b = two_min_degree_vertices(g)
    cap = math.ceil(mad(g))
    assert a != b
    assert g.degree(a) <= cap and g.degree(b) <= cap


@given(graphs)
def test_edgelist_roundtrip(g):
    text = to_edgelist(g)
    assert from_edgelist(text) == g
    assert to_edgelist(from_edgelist(text)) == text


def test_edgelist_comments_and_errors():
    g = from_edgelist("3 1  # header\n0 1  # an edge\n")
    assert g.edges == ((0, 1),)
    with pytest.raises(GraphError):
        from_edgelist("3 2\n0 1\n")
    with pytest.raises(GraphError):
        from_edgelist("3 1\n1 0\n")  # requires u < v
    with pytest.raises(GraphError):
        from_edgelist("")
    for bad in ("x 1\n0 1\n", "3 1\n0 1 2\n", "3\n0 1\n", "3 1\n0 y\n"):
        with pytest.raises(GraphError):
            from_edgelist(bad)


def test_edgelist_refuses_repeated_edge_lines():
    # a header that counts an edge twice would describe a graph with fewer
    # edges than it says; the constructor itself still merges repeats
    for text, repeats in (("3 2\n0 1\n0 1\n", "1 of 2"),
                          ("4 5\n0 1\n1 2\n0 1\n1 2\n0 1\n", "3 of 5"),
                          ("3 2\n0 1\n0  1 # again\n", "1 of 2")):
        with pytest.raises(GraphError, match=f"^edge lines repeating an earlier one: {repeats}$"):
            from_edgelist(text)
    assert FactorGraph(3, [(0, 1), (1, 0), (0, 1)]).m == 1
