"""Cartesian products, subproducts and their traces, factor projections,
and the subgraph-of-a-product data model.

The full product is never materialized unless its vertex count fits under a
cap (default 10**6): traces and factor projections are computed by
coordinate filtering over the subgraph's own vertex list.
"""

from __future__ import annotations

import json
from operator import mul
from typing import Iterable, Iterator

from .graph import FactorGraph, GraphError, is_connected, is_connected_within

MATERIALIZE_CAP = 10 ** 6

Coord = tuple[int, ...]


class ProductSpace:
    """An ordered list of connected factor graphs; vertices are coordinate
    tuples, edges change exactly one coordinate along a factor edge."""

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable[FactorGraph]):
        factors = tuple(factors)
        if not factors:
            raise GraphError("a product needs at least one factor")
        for i, f in enumerate(factors):
            if f.n < 1:
                raise GraphError(f"factor {i} is empty")
            if not is_connected(f):
                raise GraphError(f"factor {i} is not connected")
        self.factors = factors

    @property
    def m(self) -> int:
        return len(self.factors)

    def num_vertices(self) -> int:
        total = 1
        for f in self.factors:
            total *= f.n
        return total

    def check_vertex(self, v: Coord) -> None:
        if len(v) != self.m or not all(0 <= c < f.n for c, f in zip(v, self.factors)):
            raise GraphError(f"{v} is not a vertex of this product")

    def vertices(self, cap: int = MATERIALIZE_CAP) -> Iterator[Coord]:
        if self.num_vertices() > cap:
            raise GraphError(f"product too large to materialize (> {cap})")
        from itertools import product as iproduct
        return iproduct(*(range(f.n) for f in self.factors))

    def materialize(self, cap: int = MATERIALIZE_CAP) -> "ProductSubgraph":
        verts = frozenset(self.vertices(cap))
        return ProductSubgraph(self, verts)


class ProductSubgraph:
    """The subgraph of a product induced by a set of vertex tuples: its
    edges are every product edge between two of them."""

    __slots__ = ("space", "vertices", "edges")

    def __init__(self, space: ProductSpace, vertices: Iterable[Coord]):
        self.space = space
        verts = frozenset(map(tuple, vertices))
        factors = space.factors
        m = len(factors)
        # Range-check each factor's distinct coordinate values once; only a
        # bad one costs the per-vertex check, which names the offending vertex.
        valid = set(map(len, verts)) <= {m}
        if valid:
            hit = [set(cs) for cs in zip(*verts)]
            valid = all(0 <= min(cs) and max(cs) < f.n for f, cs in zip(factors, hit))
        if not valid:
            for v in verts:
                space.check_vertex(v)
        self.vertices = verts
        # A vertex's lexicographic rank is sum(v[i] * stride_i); an edge of
        # factor i from c up to w > c raises it by (w - c) * stride_i, so
        # each induced edge is found once, from its smaller end.
        strides = [1] * m
        for i in range(m - 1, 0, -1):
            strides[i - 1] = strides[i] * factors[i].n
        rank = {sum(map(mul, v, strides)): v for v in verts}
        found = []
        for i, (f, cs, s) in enumerate(zip(factors, hit, strides)):
            up = {c: [(w - c) * s for w in f.adj[c] if w > c] for c in cs}
            found.extend((v, u) for r, v in rank.items() for d in up[v[i]]
                         if (u := rank.get(r + d)) is not None)
        self.edges = frozenset(found)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def to_factor_graph(self) -> tuple[FactorGraph, dict[Coord, int]]:
        """Flatten to an integer-vertex graph plus the tuple->index map."""
        idx = {v: i for i, v in enumerate(sorted(self.vertices))}
        edges = [(idx[x], idx[y]) for x, y in self.edges]
        return FactorGraph(len(idx), edges), idx

    def __repr__(self):
        return f"<ProductSubgraph n={self.n} m={self.num_edges}>"


# ---------------------------------------------------------------------------
# subproducts

class Subproduct:
    """A product of connected subgraphs of selected factors.

    `chosen` maps a factor index to the (sorted) tuple of factor vertices
    spanning the chosen connected subgraph; the subgraph itself is the
    induced one (density only ever goes up by keeping all induced edges,
    and shattering depends on vertex sets alone).
    """

    __slots__ = ("space", "chosen")

    def __init__(self, space: ProductSpace, chosen: dict[int, Iterable[int]]):
        if not chosen:
            raise GraphError("a subproduct selects at least one factor")
        norm: dict[int, tuple[int, ...]] = {}
        for i, vs in chosen.items():
            if not (0 <= i < space.m):
                raise GraphError(f"no factor {i}")
            vs = tuple(sorted(set(vs)))
            if len(vs) < 2:
                raise GraphError(f"factor {i} selection is trivial")
            if not is_connected_within(space.factors[i], frozenset(vs)):
                raise GraphError(f"selection {vs} is not connected in factor {i}")
            norm[i] = vs
        self.space = space
        self.chosen = norm

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.chosen))

    def num_vertices(self) -> int:
        total = 1
        for vs in self.chosen.values():
            total *= len(vs)
        return total


def trace(g: ProductSubgraph, sub: Subproduct) -> set[Coord]:
    """Subproduct vertices whose fibers meet V(g)."""
    indices = sub.indices
    domains = [set(sub.chosen[i]) for i in indices]
    out = set()
    for v in g.vertices:
        proj = tuple(v[i] for i in indices)
        if all(c in dom for c, dom in zip(proj, domains)):
            out.add(proj)
    return out


def project_factor(g: ProductSubgraph, i: int) -> tuple[FactorGraph, dict[int, int]]:
    """pi_i(g): the image of g under projection to factor i, compacted.

    Vertices are the coordinate values hit by V(g); edges are the images of
    the factor-i edges of g (an edge changing coordinate i lies over a factor
    edge, so no loops arise).
    """
    hit = sorted({v[i] for v in g.vertices})
    remap = {c: j for j, c in enumerate(hit)}
    edges = set()
    for x, y in g.edges:
        if x[i] != y[i]:
            a, b = remap[x[i]], remap[y[i]]
            edges.add((min(a, b), max(a, b)))
    return FactorGraph(len(hit), edges), remap


# ---------------------------------------------------------------------------
# standard factors

def octahedron(d: int) -> FactorGraph:
    """Complete graph on 2d vertices minus the perfect matching of the
    opposite pairs (2i, 2i+1)."""
    if d < 1:
        raise GraphError("octahedron dimension must be >= 1")
    n = 2 * d
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not (u ^ 1 == v)]
    return FactorGraph(n, edges)


# ---------------------------------------------------------------------------
# JSON instance interchange format

def instance_doc(g: ProductSubgraph) -> dict:
    """An instance as a JSON document: factors, sorted vertices, induced."""
    return {
        "factors": [{"n": f.n, "edges": [list(e) for e in f.edges]} for f in g.space.factors],
        "vertices": [list(v) for v in sorted(g.vertices)],
        "induced": True,
    }


def instance_to_json(g: ProductSubgraph) -> str:
    return json.dumps(instance_doc(g), sort_keys=True)


def instance_from_json(text: str) -> ProductSubgraph:
    """The instance `instance_to_json` writes: factors, vertex tuples and
    `"induced": true`, since an instance is the subgraph induced by its
    vertices.  Text that json cannot read (bad syntax, nesting past the
    recursion limit, an int past the digit limit) raises GraphError with
    the parser's message."""
    try:
        doc = json.loads(text)
    except (RecursionError, ValueError) as exc:
        raise GraphError(str(exc)) from None
    try:
        factors = []
        for i, f in enumerate(doc["factors"]):
            n, edges = f["n"], [tuple(e) for e in f["edges"]]
            # exact types: JSON true and false load as bools, which pass as ints
            if type(n) is not int:
                raise GraphError(f"factor {i}: vertex count {n!r} is not an int")
            for e in edges:
                if len(e) != 2:
                    raise GraphError(f"factor {i}: edge {list(e)} is not a pair")
                if type(e[0]) is not int or type(e[1]) is not int:
                    raise GraphError(f"factor {i}: edge {list(e)} has an endpoint "
                                     f"that is not an int")
            # connecting n vertices takes n - 1 edges: a factor with fewer is
            # refused before its adjacency, one set per vertex, is allocated
            if n > len(edges) + 1:
                raise GraphError(f"factor {i} is not connected")
            factors.append(FactorGraph(n, edges))
        space = ProductSpace(factors)
        verts = []
        for v in doc["vertices"]:
            v = tuple(v)
            if not all(type(c) is int for c in v):
                raise GraphError(f"vertex {list(v)} has a coordinate that is not an int")
            verts.append(v)
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed instance: {exc}")
    if not doc.get("induced"):
        raise GraphError('an instance must set "induced": true; it is the subgraph '
                         'induced by its vertices')
    return ProductSubgraph(space, verts)
