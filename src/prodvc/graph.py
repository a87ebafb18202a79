"""Finite simple graphs on dense integer vertices, with the walk inside a
vertex set, the contraction by a vertex map and the degree machinery used by
every other module.

Vertices are always 0..n-1.  Graphs are immutable after construction and all
ratio-valued quantities are exact `Fraction`s; floats only appear in reports.
"""

from __future__ import annotations

import heapq
from typing import Collection, Container, Iterable, Sequence

# most vertices an edge-list header may declare: FactorGraph allocates one
# set per vertex, edgeless ones included (the order of products.MATERIALIZE_CAP)
EDGELIST_VERTEX_CAP = 10 ** 6


class GraphError(ValueError):
    pass


class FactorGraph:
    """A finite simple undirected graph.

    `edges` is stored as a sorted tuple of (u, v) pairs with u < v; `adj[v]`
    is a frozenset of neighbors.  Instances are immutable by convention:
    every operation returns a new graph.  So the graph keeps its peel: the
    first `degeneracy_ordering` call stores (order as a tuple, degeneracy)
    in `_peel`, and later calls, such as the forests after the arboricity,
    read it instead of peeling again.  Equality and hashing ignore it.
    """

    __slots__ = ("n", "edges", "adj", "_peel")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphError("negative vertex count")
        norm = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            norm.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = tuple(sorted(norm))
        # Build sets, then freeze them: a frozenset's iteration order depends
        # on how it was built, and command output follows it (the orientation
        # `prodvc orient` prints changes if per-vertex lists are frozen instead).
        adj = [set() for _ in range(n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        self.adj = tuple(frozenset(s) for s in adj)
        self._peel = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u] if 0 <= u < self.n else False

    def __eq__(self, other):
        return isinstance(other, FactorGraph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"<FactorGraph n={self.n} m={self.m}>"


# ---------------------------------------------------------------------------
# basic constructions

def path_graph(n: int) -> FactorGraph:
    return FactorGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> FactorGraph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return FactorGraph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> FactorGraph:
    return FactorGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> FactorGraph:
    return FactorGraph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def induced_subgraph(g: FactorGraph, vertices: Iterable[int]) -> tuple[FactorGraph, dict[int, int]]:
    """Induced subgraph on `vertices`, compacted to 0..k-1.

    Returns (subgraph, old->new vertex map).
    """
    vs = sorted(set(vertices))
    remap = {v: i for i, v in enumerate(vs)}
    edges = [(remap[u], remap[v]) for u, v in g.edges if u in remap and v in remap]
    return FactorGraph(len(vs), edges), remap


# ---------------------------------------------------------------------------
# degrees and density-adjacent helpers

def degree_sequence(g: FactorGraph) -> list[int]:
    return [len(g.adj[v]) for v in range(g.n)]


def neighbor_masks(g: FactorGraph) -> list[int]:
    """Entry v: the neighbours of v as a bitmask, bit w for vertex w."""
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


# ---------------------------------------------------------------------------
# connectivity inside a vertex set

def reached_within(g: FactorGraph, sources: Iterable[int], part: Container[int]) -> set[int]:
    """The vertices of `part` that a walk of g's adjacency from `sources`,
    which are vertices of g in `part`, reaches without leaving `part`."""
    seen = set(sources)
    stack = list(seen)
    while stack:
        for w in g.adj[stack.pop()]:
            if w in part and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def is_connected_within(g: FactorGraph, part: Collection[int]) -> bool:
    """True iff the nonempty `part` induces a connected subgraph of g; a
    member outside range(g.n) has no neighbours, so only a singleton part
    may hold one."""
    if len(part) == 1:
        return True
    start = min(part)
    return 0 <= start < g.n and len(reached_within(g, (start,), part)) == len(part)


def is_connected(g: FactorGraph) -> bool:
    return g.n > 0 and is_connected_within(g, range(g.n))


# ---------------------------------------------------------------------------
# contraction operators

def quotient(g: FactorGraph, part_of: Sequence[int]) -> FactorGraph:
    """Contract each set of vertices that `part_of` sends to one value: the
    graph on 0..max(part_of) with the edges (part_of[u], part_of[v]) of the
    edges uv of g, loops dropped."""
    return FactorGraph(max(part_of) + 1,
                       [(part_of[u], part_of[v]) for u, v in g.edges if part_of[u] != part_of[v]])


def contract_edge(g: FactorGraph, u: int, v: int) -> tuple[FactorGraph, list[int]]:
    """Contract the edge uv: replace u,v by one vertex w, drop loops and
    multi-edges.

    The surviving vertex takes the smaller index; indices above the removed
    one are compacted.  Returns (contracted graph, old->new vertex map).
    """
    if not g.has_edge(u, v):
        raise GraphError(f"({u},{v}) is not an edge")
    keep, drop = min(u, v), max(u, v)
    phi = [keep if x == drop else x - (x > drop) for x in range(g.n)]
    return quotient(g, phi), phi


# ---------------------------------------------------------------------------
# orderings

def degeneracy_ordering(g: FactorGraph) -> tuple[list[int], int]:
    """Repeated minimum-degree peeling, ties to the smallest id.

    In the returned order every vertex has at most `degeneracy` neighbors
    later in the order, and no smaller value works.  A heap holds each
    vertex's current (degree, id) as the int degree * n + id; older entries
    of a vertex carry a higher degree and are skipped when popped, so the
    peel takes O(m log n).  A peeled vertex's degree is set to -1.  The
    peel runs once per graph (see `FactorGraph`); each call returns a new
    list, so a caller may change it.
    """
    if g._peel is not None:
        order, degeneracy = g._peel
        return list(order), degeneracy
    n = g.n
    deg = degree_sequence(g)
    heap = [d * n + v for v, d in enumerate(deg)]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    order = []
    degeneracy = 0
    while heap:
        d, v = divmod(pop(heap), n)
        if d != deg[v]:
            continue
        degeneracy = max(degeneracy, d)
        deg[v] = -1
        order.append(v)
        for w in g.adj[v]:
            if deg[w] > 0:  # not yet peeled, so v still counts in deg[w]
                deg[w] -= 1
                push(heap, deg[w] * n + w)
    g._peel = tuple(order), degeneracy
    return order, degeneracy


def two_min_degree_vertices(g: FactorGraph) -> tuple[int, int]:
    """The two vertices of smallest degree, ties to the smallest id; each has
    degree at most ceil(mad(g)), since the second-smallest degree d obeys
    (n - 1)·d <= 2|E| <= n·mad(g) and d < n."""
    if g.n < 2:
        raise GraphError("need at least 2 vertices")
    a, b = sorted(range(g.n), key=lambda v: (len(g.adj[v]), v))[:2]
    return a, b


# ---------------------------------------------------------------------------
# edge-list text format: "n m" header then one "u v" line per edge

def to_edgelist(g: FactorGraph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def from_edgelist(text: str) -> FactorGraph:
    """The graph of an edge-list text: an "n m" header, then m lines "u v"
    with 0 <= u < v < n, each edge once; `#` starts a comment, and blank
    lines are skipped."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    rows = [row for row in map(str.split, lines) if row]
    if not rows:
        raise GraphError("empty edge-list file")
    try:
        n, m = map(int, rows[0])
    except ValueError:
        raise GraphError(f"malformed header line: {' '.join(rows[0])!r}") from None
    if n > EDGELIST_VERTEX_CAP:
        raise GraphError(f"header declares {n} vertices, above the cap of {EDGELIST_VERTEX_CAP}")
    if len(rows) - 1 != m:
        raise GraphError(f"header says {m} edges, found {len(rows) - 1}")
    edges = []
    for row in rows[1:]:
        try:
            u, v = map(int, row)
        except ValueError:
            raise GraphError(f"malformed edge line: {' '.join(row)!r}") from None
        if not (0 <= u < v < n):
            raise GraphError(f"edge line '{u} {v}' violates 0 <= u < v < n")
        edges.append((u, v))
    g = FactorGraph(n, edges)
    if g.m != m:
        raise GraphError(f"edge lines repeating an earlier one: {m - g.m} of {m}")
    return g
