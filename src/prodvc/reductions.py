"""Edge-type reduction operators on subgraphs of products.

Contracting one factor edge uv splits a subgraph G into a contracted part
(over the product with that factor edge contracted) and a link part (over the
product with the factor replaced by the star on the common neighbors of u and
v).  The vertex count splits exactly and the edge count splits up to merges,
which this module classifies edge by edge.  A parallel pair of operators
handles factors that are spanning subgraphs of octahedra, where the reduction
removes one vertex of an opposite pair instead of contracting an edge.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .graph import FactorGraph, GraphError, contract_edge, quotient, star_graph
from .products import Coord, ProductSpace, ProductSubgraph


def _with_coord(v: Coord, i: int, c: int) -> Coord:
    return v[:i] + (c,) + v[i + 1:]


@dataclass
class ReductionStep:
    """One reduction of an induced subgraph along a factor edge (or an
    opposite pair of an octahedral factor)."""

    factor_index: int
    edge: tuple[int, int]
    g: ProductSubgraph = field(repr=False)
    g_contracted: ProductSubgraph = field(repr=False)     # over the contracted product
    g_link: ProductSubgraph = field(repr=False)           # over the star product
    g_link_centers: ProductSubgraph = field(repr=False)   # induced on center vertices
    tips: frozenset[Coord]
    contraction_map: dict[Coord, Coord] = field(repr=False)
    num_common_neighbors: int
    edge_groups: dict[str, int]

    def check_counting(self) -> None:
        """The exact vertex split and the edge upper bound; a violation
        raises RuntimeError."""
        if self.g.n != self.g_contracted.n + self.g_link_centers.n:
            raise RuntimeError(f"check_counting: {self.g.n} vertices, but "
                               f"{self.g_contracted.n} contracted and "
                               f"{self.g_link_centers.n} centers")
        bound = self.g_contracted.num_edges + self.g_link.num_edges + self.g_link_centers.n
        if self.g.num_edges > bound:
            raise RuntimeError(f"check_counting: {self.g.num_edges} edges, "
                               f"above the bound {bound}")
        if self.g_link.n != self.g_link_centers.n + len(self.tips):
            raise RuntimeError(f"check_counting: the link part has {self.g_link.n} "
                               f"vertices, but {self.g_link_centers.n} centers "
                               f"and {len(self.tips)} tips")


def _classify_edges(g: ProductSubgraph, i: int, cmap: dict[Coord, Coord],
                    g_contracted: ProductSubgraph) -> dict[str, int]:
    """Sort the edges of g by what the contraction does to them: collapsed to
    a point, merged with a partner along the contracted factor (triangle) or
    across another factor (square), or mapped one-to-one.  `created` counts
    contracted-product edges with no preimage (zero here because the images
    of adjacent vertices stay adjacent, but the contracted part is induced,
    so the check is kept explicit)."""
    images: Counter = Counter()
    collapsed = 0
    triangle = 0
    square = 0
    for x, y in g.edges:
        hx, hy = cmap[x], cmap[y]
        if hx == hy:
            collapsed += 1
            continue
        key = (hx, hy) if hx <= hy else (hy, hx)
        if images[key]:
            if x[i] != y[i]:
                triangle += 1
            else:
                square += 1
        images[key] += 1
    created = g_contracted.num_edges - len(images)
    if created < 0:
        raise RuntimeError(f"_classify_edges: {len(images)} edge images, but the "
                           f"contracted part has {g_contracted.num_edges} edges")
    return {"collapsed": collapsed, "triangle_merged": triangle,
            "square_merged": square, "created": created}


def _reduce(g: ProductSubgraph, i: int, u: int, v: int, f_hat: FactorGraph,
            phi: list[int], leaf_of: dict[int, int], edge: tuple[int, int],
            ) -> ReductionStep:
    """The reduction shared by both operators: `phi` maps factor i onto
    `f_hat`, sending v to the image of u.  Factor i of the link part is the
    star with center 0 and leaves 1.. named by `leaf_of`.  Centers are the
    vertices at u whose copy at v is in g, placed at the center; tips are the
    vertices at a leaf beside a center."""
    hat_space = ProductSpace(g.space.factors[:i] + (f_hat,) + g.space.factors[i + 1:])
    cmap = {w: _with_coord(w, i, phi[w[i]]) for w in g.vertices}
    g_contracted = ProductSubgraph(hat_space, set(cmap.values()))

    tilde_space = ProductSpace(g.space.factors[:i] + (star_graph(len(leaf_of)),)
                               + g.space.factors[i + 1:])
    centers = set()
    for w in g.vertices:
        if w[i] == u and _with_coord(w, i, v) in g.vertices:
            centers.add(_with_coord(w, i, 0))
    tips = set()
    for w in g.vertices:
        x = w[i]
        if x in leaf_of and _with_coord(w, i, 0) in centers:
            tips.add(_with_coord(w, i, leaf_of[x]))
    g_link = ProductSubgraph(tilde_space, centers | tips)
    g_link_centers = ProductSubgraph(tilde_space, centers)

    groups = _classify_edges(g, i, cmap, g_contracted)
    # an edge uv collapses once per center; an opposite pair is never adjacent
    adjacent = g.space.factors[i].has_edge(u, v)
    expected = {"collapsed": g_link_centers.n if adjacent else 0,
                "square_merged": g_link_centers.num_edges,
                "triangle_merged": len(tips)}
    for group, count in expected.items():
        if groups[group] != count:
            raise RuntimeError(f"_reduce: {groups[group]} edges {group.replace('_', ' ')}, "
                               f"expected {count}")

    step = ReductionStep(factor_index=i, edge=edge, g=g,
                         g_contracted=g_contracted, g_link=g_link,
                         g_link_centers=g_link_centers,
                         tips=frozenset(tips),
                         contraction_map=cmap,
                         num_common_neighbors=len(leaf_of),
                         edge_groups=groups)
    step.check_counting()
    return step


def _factor(g: ProductSubgraph, i: int) -> FactorGraph:
    """Factor i of the product of g, which both operators reduce along."""
    if not (0 <= i < g.space.m):
        raise GraphError(f"no factor {i}")
    return g.space.factors[i]


def reduce_edge(g: ProductSubgraph, i: int, u: int, v: int) -> ReductionStep:
    """Reduce an induced subgraph along the edge uv of factor i."""
    f = _factor(g, i)
    if not f.has_edge(u, v):
        raise GraphError(f"({u},{v}) is not an edge of factor {i}")
    f_hat, phi = contract_edge(f, u, v)
    leaf_of = {x: j + 1 for j, x in enumerate(sorted(f.adj[u] & f.adj[v]))}
    return _reduce(g, i, u, v, f_hat, phi, leaf_of, (u, v))


# ---------------------------------------------------------------------------
# octahedral factors: remove one vertex of an opposite pair

def reduce_opposite_pair(g: ProductSubgraph, i: int, e: int) -> ReductionStep:
    """Reduce along the opposite pair (e, e-bar) of an octahedral factor i.

    The factor must be a spanning subgraph of an octahedron containing the
    non-edge (e, e-bar); its other vertices are adjacent to both, so removing
    e-bar and rerouting to e plays the role of the contraction.
    """
    from .classes import suboctahedron_structure
    f = _factor(g, i)
    if not (0 <= e < f.n):
        raise GraphError(f"vertex {e} is not in factor {i}")
    info = suboctahedron_structure(f)
    if info is None:
        raise GraphError(f"factor {i} is not a spanning subgraph of an octahedron")
    partner = dict(info.pairs)
    partner.update({b: a for a, b in info.pairs})
    if e not in partner:
        raise GraphError("clique factor, use Hamming base case")
    ebar = partner[e]

    phi = [x - (x > ebar) for x in range(f.n)]
    phi[ebar] = phi[e]
    nbrs = sorted(f.adj[ebar])
    if set(nbrs) != set(range(f.n)) - {e, ebar}:
        raise RuntimeError(f"reduce_opposite_pair: {ebar}, opposite {e}, is not "
                           f"adjacent to every other vertex of factor {i}")
    leaf_of = {x: j + 1 for j, x in enumerate(nbrs)}
    return _reduce(g, i, e, ebar, quotient(f, phi), phi, leaf_of, (min(e, ebar), max(e, ebar)))


# ---------------------------------------------------------------------------
# monotonicity of the VC quantities under one reduction

@dataclass(frozen=True)
class InequalityRecord:
    name: str
    lhs: str
    rhs: str
    verdict: str  # holds / violated / inconclusive / skipped


def vc_monotonicity_check(step: ReductionStep) -> list[InequalityRecord]:
    """Check how the minor VC quantities move across one reduction step:
    they never grow on the contracted part, and on the center part the
    dimension drops by one and the density by one half.  The tip count is
    bounded by the centers times the number of common neighbors.  Verdicts
    follow `harness._verdict`: a side from a bounded search is a lower bound,
    so a bounded lhs never holds and a bounded rhs is never violated.
    """
    from .harness import _verdict
    from .vc import minor_search

    d_g, s_g = minor_search(step.g)
    records = []

    def record(name, lhs=0, rhs="-", lhs_exact=True, rhs_exact=True, skipped=False):
        verdict = "skipped" if skipped else _verdict(lhs <= rhs, lhs_exact, rhs_exact)
        records.append(InequalityRecord(name=name, lhs=str(lhs), rhs=str(rhs), verdict=verdict))

    def compare(name, lhs, rhs, drop=0):  # lhs <= rhs - drop for two `Found`s
        record(name, lhs.value, rhs.value - drop, lhs.exact, rhs.exact)

    if step.g_contracted.n:
        d_c, s_c = minor_search(step.g_contracted)
        compare("vcd_star(contracted) <= vcd_star(g)", d_c, d_g)
        compare("vcdens_star(contracted) <= vcdens_star(g)", s_c, s_g)

    if step.g_link_centers.n:
        d_cc, s_cc = minor_search(step.g_link_centers)
        compare("vcd_star(centers) <= vcd_star(g) - 1", d_cc, d_g, 1)
        compare("vcdens_star(centers) <= vcdens_star(g) - 1/2", s_cc, s_g, Fraction(1, 2))
    else:
        record("vcd_star(centers) <= vcd_star(g) - 1", skipped=True)
        record("vcdens_star(centers) <= vcdens_star(g) - 1/2", skipped=True)

    if step.g_link.n:
        record("tips <= common_neighbors * centers",
               len(step.tips), step.num_common_neighbors * step.g_link_centers.n)
    else:
        record("tips <= common_neighbors * centers", skipped=True)
    return records
