import json
import random
import re

import pytest

from prodvc.graph import FactorGraph, GraphError, complete_graph, path_graph
from prodvc.harness import FAMILIES, generate, instance_digest
from prodvc.products import (ProductSpace, ProductSubgraph, Subproduct,
                             instance_from_json, instance_to_json, octahedron,
                             project_factor, trace)


def product_edges_of(space, vertexset):
    """Oracle for induced edges: every product edge between members of
    `vertexset`, found by building each vertex's neighbour tuples."""
    verts = set()
    for v in vertexset:
        v = tuple(v)
        space.check_vertex(v)
        verts.add(v)
    edges = set()
    for v in verts:
        for i, f in enumerate(space.factors):
            for w in f.adj[v[i]]:
                u = v[:i] + (w,) + v[i + 1:]
                if u in verts:
                    edges.add((v, u) if v <= u else (u, v))
    return frozenset(edges)


def test_space_basics():
    sp = ProductSpace([path_graph(3), path_graph(2)])
    assert sp.m == 2
    assert sp.num_vertices() == 6


def test_space_rejects_disconnected_factor():
    with pytest.raises(GraphError):
        ProductSpace([FactorGraph(4, [(0, 1), (2, 3)])])
    with pytest.raises(GraphError):
        ProductSpace([])


def test_product_edge_count_identity():
    # |E(A x B)| = |E(A)||V(B)| + |V(A)||E(B)|
    for a, b in [(path_graph(3), path_graph(4)), (complete_graph(3), path_graph(2))]:
        g = ProductSpace([a, b]).materialize()
        assert g.n == a.n * b.n
        assert g.num_edges == a.m * b.n + a.n * b.m


def test_standard_spaces():
    q3 = ProductSpace([path_graph(2)] * 3)
    assert q3.num_vertices() == 8
    assert q3.materialize().num_edges == 12
    h = ProductSpace([complete_graph(3)] * 2).materialize()
    assert (h.n, h.num_edges) == (9, 18)
    o2 = octahedron(2)
    assert (o2.n, o2.m) == (4, 4)  # 4-cycle: K4 minus a perfect matching
    with pytest.raises(GraphError):
        octahedron(0)


def test_induced_subgraph_edges_are_derived():
    sp = ProductSpace([path_graph(3), path_graph(3)])
    verts = [(0, 0), (0, 1), (1, 1)]
    g = ProductSubgraph(sp, verts)
    assert g.edges == product_edges_of(sp, verts)
    assert g.num_edges == 2


def test_induced_edges_match_the_neighbour_oracle():
    def check(space, verts):
        g = ProductSubgraph(space, verts)
        assert g.edges == product_edges_of(space, verts)
        assert all(x < y for x, y in g.edges)

    for family in FAMILIES:
        for m in range(1, 6):
            for seed in range(4):
                g = generate(family=family, m=m, factor_size=5, seed=seed)
                check(g.space, g.vertices)

    rng = random.Random(13)
    trivial = ProductSpace([FactorGraph(1, []), path_graph(3), FactorGraph(1, [])])
    check(trivial, list(trivial.vertices()))
    check(trivial, [(0, 0, 0), (0, 2, 0)])
    for wide in (ProductSpace([path_graph(1000), path_graph(2)]),
                 ProductSpace([path_graph(2), path_graph(1000)])):
        check(wide, rng.sample(list(wide.vertices()), 600))
    check(wide, [(0, 500), (0, 501), (1, 501), (1, 999), (1, 998), (0, 0)])
    for space in (ProductSpace([path_graph(2)] * 10), ProductSpace([complete_graph(4)] * 3)):
        check(space, space.materialize().vertices)
    sp = ProductSpace([path_graph(3), path_graph(3)])
    check(sp, [[0, 0], [0, 0], (0, 1), [0, 1], [1, 1]])
    g = ProductSubgraph(sp, [])
    assert (g.n, g.edges) == (0, frozenset())


def test_vertex_check_names_the_bad_vertex():
    sp = ProductSpace([path_graph(3), path_graph(2)])
    for bad in ((3, 0), (0, -1), (0,), (0, 0, 0)):
        with pytest.raises(GraphError, match=rf"^{re.escape(str(bad))} is not a vertex"):
            ProductSubgraph(sp, [(0, 0), bad, (1, 1)])


def test_subproduct():
    sp = ProductSpace([path_graph(3), path_graph(3), path_graph(2)])
    sub = Subproduct(sp, {0: (0, 1), 2: (0, 1)})
    assert sub.indices == (0, 2)
    assert sub.num_vertices() == 4
    with pytest.raises(GraphError):
        Subproduct(sp, {0: (0, 2)})  # not connected in P3
    with pytest.raises(GraphError):
        Subproduct(sp, {0: (0,)})  # trivial selection
    with pytest.raises(GraphError):
        Subproduct(sp, {})


def test_trace():
    sp = ProductSpace([path_graph(3), path_graph(3)])
    g = ProductSubgraph(sp, [(0, 0), (1, 0), (1, 1), (2, 2)])
    sub = Subproduct(sp, {0: (0, 1)})
    assert trace(g, sub) == {(0,), (1,)}


def test_project_factor_uses_image_edges():
    sp = ProductSpace([path_graph(3), path_graph(3)])
    # (0,0)-(1,0) realizes factor-0 edge 0-1; 1-2 is never realized
    g = ProductSubgraph(sp, [(0, 0), (1, 0), (2, 2)])
    proj, remap = project_factor(g, 0)
    assert proj.n == 3
    assert proj.edges == ((0, 1),)
    assert remap == {0: 0, 1: 1, 2: 2}


def test_materialize_cap():
    sp = ProductSpace([complete_graph(10)] * 7)
    with pytest.raises(GraphError):
        sp.materialize(cap=10 ** 6)


def test_instance_json_roundtrip():
    sp = ProductSpace([path_graph(3), path_graph(2)])
    g = ProductSubgraph(sp, [(0, 0), (1, 0), (1, 1)])
    text = instance_to_json(g)
    h = instance_from_json(text)
    assert h.vertices == g.vertices and h.edges == g.edges
    doc = json.loads(text)
    assert doc["induced"] is True
    with pytest.raises(GraphError):
        instance_from_json('{"factors": []}')


# instance_to_json text and its sha256 prefix: every verify record names its
# instance by this digest, so neither may change
PINNED_INSTANCES = [
    (lambda: ProductSubgraph(ProductSpace([path_graph(3), path_graph(2)]),
                             [(1, 1), (0, 0), (1, 0)]),
     '{"factors": [{"edges": [[0, 1], [1, 2]], "n": 3}, {"edges": [[0, 1]], "n": 2}], '
     '"induced": true, "vertices": [[0, 0], [1, 0], [1, 1]]}', "5ae4698253a9"),
    (lambda: ProductSubgraph(ProductSpace([FactorGraph(1, []), path_graph(3)]),
                             [(0, 2), (0, 0)]),
     '{"factors": [{"edges": [], "n": 1}, {"edges": [[0, 1], [1, 2]], "n": 3}], '
     '"induced": true, "vertices": [[0, 0], [0, 2]]}', "4ab9e8c3ce35"),
    (lambda: ProductSpace([path_graph(2), complete_graph(3)]).materialize(),
     '{"factors": [{"edges": [[0, 1]], "n": 2}, {"edges": [[0, 1], [0, 2], [1, 2]], '
     '"n": 3}], "induced": true, "vertices": [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], '
     '[1, 2]]}', "f7083882ec6a"),
    (lambda: ProductSubgraph(ProductSpace([path_graph(2)] * 2), []),
     '{"factors": [{"edges": [[0, 1]], "n": 2}, {"edges": [[0, 1]], "n": 2}], '
     '"induced": true, "vertices": []}', "c5006467856f"),
]


def test_instance_bytes_and_digests_are_pinned():
    for build, text, digest in PINNED_INSTANCES:
        g = build()
        assert instance_to_json(g) == text
        assert instance_digest(g) == digest
        h = instance_from_json(text)
        assert (h.vertices, h.edges) == (g.vertices, g.edges)
        assert instance_to_json(h) == text


def test_instances_that_are_not_induced_are_rejected():
    doc = json.loads(PINNED_INSTANCES[0][1])
    for induced in ({}, {"induced": False}, {"induced": 0}, {"induced": None},
                    {"induced": False, "edges": [[0, 1]]}, {"edges": [[0, 1]]}):
        doc.pop("induced", None)
        doc.update(induced)
        with pytest.raises(GraphError, match='must set "induced": true'):
            instance_from_json(json.dumps(doc))
    # the test is truthiness, as it always was
    for induced in (True, 1, "yes"):
        doc["induced"] = induced
        assert instance_from_json(json.dumps(doc)).n == 3
