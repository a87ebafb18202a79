import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from prodvc.graph import GraphError, complete_graph, path_graph
from prodvc.harness import random_factor, random_subgraph
from prodvc.products import ProductSpace, ProductSubgraph, octahedron
from prodvc.reductions import reduce_edge, reduce_opposite_pair, vc_monotonicity_check


def test_square_reduction_counts():
    q2 = ProductSpace([path_graph(2)] * 2).materialize()
    step = reduce_edge(q2, 0, 0, 1)
    assert step.g_contracted.n == 2 and step.g_link_centers.n == 2
    assert step.edge_groups == {"collapsed": 2, "triangle_merged": 0,
                                "square_merged": 1, "created": 0}
    assert not step.tips


def test_a_contraction_can_create_an_edge():
    # the diagonal {(0,0), (1,1)} of K2 x K2 has no edge; contracting factor
    # 1's edge maps it onto {(0,0), (1,0)}, which is one
    g = ProductSubgraph(ProductSpace([path_graph(2)] * 2), [(0, 0), (1, 1)])
    step = reduce_edge(g, 1, 0, 1)
    assert g.num_edges == 0 and step.g_contracted.vertices == {(0, 0), (1, 0)}
    assert step.edge_groups == {"collapsed": 0, "created": 1, "square_merged": 0,
                                "triangle_merged": 0}


def test_triangle_reduction_produces_tips():
    # the edge 0-1 of K3 has common neighbour 2; of K4, 2 and 3, the star
    # leaves 1 and 2
    for n, tips in ((3, {(1,)}), (4, {(1,), (2,)})):
        g = ProductSpace([complete_graph(n)]).materialize()
        step = reduce_edge(g, 0, 0, 1)
        assert step.num_common_neighbors == n - 2
        assert step.tips == tips
        assert step.edge_groups["triangle_merged"] == len(tips)
        assert step.g.n == step.g_contracted.n + step.g_link_centers.n


# K3 x K2 reduced along the edge 0-1 of K3, with each triangle merge counted
# twice: 4 merges against 2 tips
DOUBLED_TRIANGLES = """
from prodvc import reductions
from prodvc.graph import complete_graph, path_graph
from prodvc.products import ProductSpace

real = reductions._classify_edges


def doubled(*args):
    groups = real(*args)
    groups["triangle_merged"] *= 2
    return groups


reductions._classify_edges = doubled
try:
    reductions.reduce_edge(ProductSpace([complete_graph(3), path_graph(2)]).materialize(), 0, 0, 1)
except RuntimeError as exc:
    print(exc)
"""


def test_wrong_certificate_raises_under_python_dash_o():
    # the certificate checks are explicit raises, so -O, which strips
    # asserts, still refuses the miscounted step instead of returning it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [q for q in os.environ.get("PYTHONPATH", "").split(os.pathsep) if q]))
    proc = subprocess.run([sys.executable, "-O", "-c", DOUBLED_TRIANGLES], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "_reduce: 4 edges triangle merged, expected 2\n"


def test_reduction_requires_a_valid_factor_and_edge():
    h = ProductSpace([path_graph(3)]).materialize()
    with pytest.raises(GraphError, match="not an edge"):
        reduce_edge(h, 0, 0, 2)
    octa = ProductSpace([octahedron(2), path_graph(2)]).materialize()
    for i in (3, 2, -1, -2):
        with pytest.raises(GraphError, match=f"^no factor {i}$"):
            reduce_edge(h, i, 0, 1)
        with pytest.raises(GraphError, match=f"^no factor {i}$"):
            reduce_opposite_pair(octa, i, 0)
    for e in (4, 7, -1):
        with pytest.raises(GraphError, match=f"^vertex {e} is not in factor 0$"):
            reduce_opposite_pair(octa, 0, e)


def test_counting_relations_random_corpus():
    rng = random.Random(11)
    for _ in range(150):
        m = rng.randint(1, 3)
        sp = ProductSpace([random_factor(rng, rng.choice(("path", "cycle", "tree",
                                                          "clique")), 4)
                           for _ in range(m)])
        if sp.num_vertices() > 256:
            continue
        g = random_subgraph(rng, sp)
        i = rng.randrange(m)
        if sp.factors[i].m == 0:
            continue
        u, v = rng.choice(sp.factors[i].edges)
        step = reduce_edge(g, i, u, v)  # identities asserted inside
        # explicit restatement of the counting relations
        assert g.n == step.g_contracted.n + step.g_link_centers.n
        assert g.n == step.g_contracted.n + step.g_link.n - len(step.tips)
        assert (g.num_edges <= step.g_contracted.num_edges
                + step.g_link.num_edges + step.g_link_centers.n)


def test_octahedral_reduction_counts():
    sp = ProductSpace([octahedron(2), path_graph(2)])
    g = sp.materialize()
    step = reduce_opposite_pair(g, 0, 0)
    assert step.edge == (0, 1)
    assert step.edge_groups["collapsed"] == 0
    assert g.n == step.g_contracted.n + step.g_link_centers.n
    assert (g.num_edges <= step.g_contracted.num_edges
            + step.g_link_centers.num_edges + len(step.tips))


def test_octahedral_reduction_random():
    rng = random.Random(23)
    for _ in range(60):
        d = rng.randint(2, 3)
        sp = ProductSpace([octahedron(d), random_factor(rng, "path", 3)])
        g = random_subgraph(rng, sp)
        step = reduce_opposite_pair(g, 0, rng.randrange(2 * d))
        assert g.n == step.g_contracted.n + step.g_link_centers.n


def test_clique_factor_has_no_opposite_pair():
    sp = ProductSpace([complete_graph(3)])
    g = sp.materialize()
    with pytest.raises(GraphError, match="Hamming"):
        reduce_opposite_pair(g, 0, 0)
    sp2 = ProductSpace([path_graph(4)])
    with pytest.raises(GraphError, match="octahedron"):
        reduce_opposite_pair(sp2.materialize(), 0, 0)


def test_monotonicity_small_corpus():
    rng = random.Random(31)
    checked = 0
    for _ in range(60):
        sp = ProductSpace([random_factor(rng, rng.choice(("path", "tree", "clique")),
                                         4)
                           for _ in range(rng.randint(1, 2))])
        g = random_subgraph(rng, sp)
        i = rng.randrange(sp.m)
        if sp.factors[i].m == 0:
            continue
        u, v = rng.choice(sp.factors[i].edges)
        step = reduce_edge(g, i, u, v)
        for rec in vc_monotonicity_check(step):
            assert rec.verdict in ("holds", "skipped"), (rec, sorted(g.vertices))
            checked += 1
    assert checked >= 100


def test_monotonicity_verdicts_treat_bounded_sides_as_lower_bounds(monkeypatch):
    # minor_search stubbed per part: g gets the rhs value, the contracted and
    # center parts the lhs one.  A bounded lhs never holds and a bounded rhs
    # is never violated, whichever way the comparison goes.
    from prodvc import vc
    step = reduce_edge(ProductSpace([complete_graph(3), path_graph(2)]).materialize(), 0, 0, 1)
    for lhs, rhs, verdict in (((1, False), (2, True), "inconclusive"),
                              ((3, False), (2, True), "violated"),
                              ((1, True), (2, False), "holds"),
                              ((3, True), (2, False), "inconclusive"),
                              ((3, True), (2, True), "violated")):
        def search(g, lhs=lhs, rhs=rhs):
            value, exact = rhs if g is step.g else lhs
            return vc.Found(value, None, exact), vc.Found(Fraction(value), None, exact)
        monkeypatch.setattr(vc, "minor_search", search)
        records = vc_monotonicity_check(step)
        assert [r.verdict for r in records] == [verdict] * 4 + ["holds"], (lhs, rhs)
