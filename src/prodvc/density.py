"""Exact density, maximum average degree, densest subgraph, Nash-Williams
arboricity, forest decompositions, and bounded-outdegree orientations.

Every ratio is an exact `Fraction`.  A graph whose components each have at
most one cycle has as density the largest m_i/n_i over its components, with
the components that reach it as witness, read off with no flow.  Otherwise
the densest-subgraph search runs min-cuts on Goldberg's vertex network
(source -> vertices -> sink, one two-way arc per edge) with the test ratio
p/q scaled to integer capacities, so no tolerance is involved anywhere.
The first round cuts at the best density among the suffixes of the
degeneracy order, the peel the graph already keeps.  Every round builds its
network the same way, from a vertex list and the edges inside it: all of g
in the first round, the last round's witness and its edges after that.  A
cut that finds a denser set reads it as the source side that the last level
search reached; the cut that finds none reads the witness off the sink
side, as the vertices that reach the sink in no residual path.
Arboricity, forests and bounded-outdegree orientations need no flow: all
start from the degeneracy orientation, and an orientation with outdegree d
comes from it by reversing directed paths, one per unit of excess, with
the set reached from a vertex that has no path as the witness that d is
below the density.  The arboricity test drains one vertex at a time to
outdegree 0 through the same loop, `_drain`.  Each k it tests drains the
orientation that the last one left.  A graph keeps its degeneracy peel, so
it is peeled once for both the arboricity and the forests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .flow import MaxFlow
from .graph import FactorGraph, GraphError, degeneracy_ordering, neighbor_masks, reached_within


@dataclass(frozen=True)
class DensityReport:
    density: Fraction
    witness: tuple[int, ...]
    mad: Fraction


@dataclass(frozen=True)
class ForestDecomposition:
    """`parents[j][v]` is v's parent in forest j, or n at a root."""
    k: int
    parents: list[list[int]]

    def forest_edges(self, j: int) -> list[tuple[int, int]]:
        n = len(self.parents[j])
        return sorted((min(v, p), max(v, p)) for v, p in enumerate(self.parents[j]) if p != n)


def _vertex_network(g: FactorGraph, p: int, q: int, vertices,
                    edges: list[tuple[int, int]]) -> tuple[MaxFlow, int]:
    """Goldberg's network for the ratio p/q on the subgraph of g made of
    `vertices` and `edges`, g's edges inside them, and its supply (the
    capacity out of the source).

    Nodes: 0 = source, 1 = sink, 2 + v = vertex v.  With deg v counted in
    `edges`, vertex v has the arc source -> v with capacity q deg v - 2p
    when that is positive, else v -> sink with 2p - q deg v; each edge is
    one arc pair with q both ways.  A source side S of vertices cuts
    supply + 2(p|S| - q|E(S)|).
    """
    degree = [0] * g.n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    net = MaxFlow(2 + g.n)
    supply = 0
    for v in vertices:
        excess = q * degree[v] - 2 * p
        if excess > 0:
            net.add_edge(0, 2 + v, excess)
            supply += excess
        elif excess < 0:
            net.add_edge(2 + v, 1, -excess)
    for u, v in edges:
        net.add_edge(2 + u, 2 + v, q, q)
    return net, supply


def _denser_subgraph(g: FactorGraph, threshold: Fraction, within) -> tuple[bool, set[int]]:
    """One min-cut round at `threshold`: (True, S) with |E(S)|/|S| strictly
    above `threshold`, or (False, S) with S the union of every set whose
    density is exactly `threshold` (empty if there is none).  `within` is a
    pair of vertices and g's edges inside them; S is a subset of those
    vertices, and every call builds its network on that pair.

    Min-cut over the vertex network for p/q: the cut for a source side S
    costs supply + 2(p|S| - q|E(S)|), so the min-cut sides are the
    maximizers of q|E(S)| - p|S|.  When the flow falls below the supply some
    S has q|E(S)| > p|S|, and S is the minimal min-cut source side, read off
    the last level search.  Otherwise the maximizers are the empty set and
    the sets at density exactly p/q, and S is the maximal source side: the
    vertices that reach the sink in no residual path.  Both sides are the
    same for every maximum flow, whichever augmenting paths found it.
    """
    vertices, edges = within
    net, supply = _vertex_network(g, threshold.numerator, threshold.denominator,
                                  vertices, edges)
    if net.max_flow(0, 1) >= supply:
        sink_side = net.min_cut_sink_side(1)
        return False, {v for v in vertices if 2 + v not in sink_side}
    side = net.min_cut_source_side()
    witness = {v for v in vertices if 2 + v in side}
    if not witness:
        raise RuntimeError(f"_denser_subgraph: the cut below the supply at {threshold} "
                           f"has no vertex on the source side")
    return True, witness


def _edge_count_within(g: FactorGraph, vertices: set[int]) -> int:
    return sum(1 for u, v in g.edges if u in vertices and v in vertices)


def _suffix_edge_counts(g: FactorGraph, order: list[int]) -> list[int]:
    """Entry i: the number of edges inside the last i + 1 vertices of
    `order`, each edge counted when its endpoint earlier in the order joins."""
    counts, edges, joined = [], 0, set()
    for v in reversed(order):
        edges += len(g.adj[v] & joined)
        joined.add(v)
        counts.append(edges)
    return counts


def _peel_density(g: FactorGraph) -> Fraction:
    """The largest |E(S)|/|S| over the suffixes S of the degeneracy order
    (Charikar's greedy peel, 2000), at least m/n since all of g is one."""
    top, size = 0, 1
    for s, edges in enumerate(_suffix_edge_counts(g, degeneracy_ordering(g)[0]), 1):
        if edges * size > top * s:  # edges/s > top/size, in integers
            top, size = edges, s
    return Fraction(top, size)


def _unicyclic_density(g: FactorGraph) -> Optional[DensityReport]:
    """g's report when each component has at most one cycle (m_i <= n_i),
    else None: the largest m_i/n_i and the components that reach it."""
    top, size, witness, left = 0, 1, [], set(range(g.n))
    while left:
        part = reached_within(g, (left.pop(),), range(g.n))
        left -= part
        edges = sum(len(g.adj[u]) for u in part) // 2
        if edges > len(part):
            return None
        if edges * size > top * len(part):  # edges/|part| > top/size, in integers
            top, size, witness = edges, len(part), []
        if edges * size == top * len(part):
            witness += part
    return DensityReport(Fraction(top, size), tuple(sorted(witness)), Fraction(2 * top, size))


def densest_subgraph(g: FactorGraph) -> DensityReport:
    """Exact maximizer of |E'|/|V'| over nonempty vertex subsets: the union
    of all of them, which is itself one.  Each round that finds a denser set
    must strictly raise the density, so a wrong cut raises RuntimeError
    instead of looping forever, and the final witness is checked to have
    the density reported.

    A graph with m <= n whose components each have at most one cycle is
    answered with no network built.  Such a component has cyclomatic number
    c = m_i - n_i + 1 <= 1, at least any subgraph's, so a set S in it spans
    at most |S| - 1 + c <= |S| m_i/n_i edges: its density is m_i/n_i.  A
    set's density is the weighted mean of its parts' in the components, so
    the witness is the union of the components with the largest m_i/n_i.

    Other graphs run rounds from l_1 = the best density among the suffixes
    of the degeneracy order, which is at least m/n and often already the
    optimum: for a regular graph, or a grid, it is m/n, and one round
    confirms it.  Round k cuts at l_k.  If a set beats l_k, the round
    returns the minimal maximizer S_k of |E(S)| - l_k |S|, and l_{k+1} =
    |E(S_k)|/|S_k| > l_k.  Otherwise l_k is the density, and the round
    returns the maximal maximizer, whose value is 0: the union of all the
    densest sets.  Every maximizer T at l' lies inside every maximizer S at
    l < l' (Gallo, Grigoriadis and Tarjan 1989).  With f(X) = |E(X)| - l|X|,
    supermodularity gives f(S | T) + f(S & T) >= f(S) + f(T), and
    f(S | T) <= f(S), so f(T) <= f(S & T).  As T maximizes at l',
    f(T) - f(S & T) >= (l' - l)|T - S|.  Together, T - S is empty.  So
    every round after the first cuts only the subgraph induced on the last
    witness.  A subset of it has the same objective there as in g, so the
    round returns the same set as a cut of the whole graph would.  The
    edges inside each witness are filtered from those inside the last one,
    so no round after the first scans all of g's edges.
    """
    if g.n == 0:
        raise GraphError("empty graph")
    if g.m <= g.n and (closed := _unicyclic_density(g)) is not None:
        return closed
    within, best = (range(g.n), g.edges), _peel_density(g)
    while True:
        denser, side = _denser_subgraph(g, best, within)
        edges = [(u, v) for u, v in within[1] if u in side and v in side]
        if not denser:
            break
        found = Fraction(len(edges), len(side))
        if found <= best:
            raise RuntimeError(f"densest_subgraph: a round reached density {found}, "
                               f"not above {best}")
        within, best = (sorted(side), edges), found
    if not side or len(edges) * best.denominator != best.numerator * len(side):
        raise RuntimeError(f"densest_subgraph: the last cut's side holds {len(edges)} "
                           f"edges on {len(side)} vertices, not density {best}")
    return DensityReport(density=best, witness=tuple(sorted(side)), mad=2 * best)


def densest_subgraph_bruteforce(g: FactorGraph) -> DensityReport:
    """Independent oracle: enumerate all nonempty vertex subsets (n <= 20)."""
    if g.n == 0:
        raise GraphError("empty graph")
    if g.n > 20:
        raise GraphError("brute-force oracle capped at 20 vertices")
    edge_count = _subset_edge_counts(g)
    best_e, best_s, best_mask = 0, 1, 1
    for mask in range(1, 1 << g.n):
        e, s = edge_count[mask], mask.bit_count()
        if e * best_s > best_e * s:  # e/s > best_e/best_s, in integers
            best_e, best_s, best_mask = e, s, mask
    best = Fraction(best_e, best_s)
    witness = tuple(v for v in range(g.n) if best_mask >> v & 1)
    return DensityReport(density=best, witness=witness, mad=2 * best)


def _subset_edge_counts(g: FactorGraph) -> list[int]:
    """Entry mask: the number of edges of g inside the vertex set `mask`,
    for all 2^n sets, each from the set without its lowest vertex."""
    adj_mask = neighbor_masks(g)
    edge_count = [0] * (1 << g.n)
    for mask in range(1, 1 << g.n):
        low = (mask & -mask).bit_length() - 1
        edge_count[mask] = edge_count[mask & (mask - 1)] + (adj_mask[low] & mask).bit_count()
    return edge_count


def dens(g: FactorGraph) -> Fraction:
    return densest_subgraph(g).density


def mad(g: FactorGraph) -> Fraction:
    return 2 * densest_subgraph(g).density


# ---------------------------------------------------------------------------
# arboricity (Nash-Williams denominator |V'| - 1)

def arboricity(g: FactorGraph) -> int:
    """max over subgraphs of ceil(|E'|/(|V'|-1)), exactly (0 for edgeless).

    One degeneracy peel bounds it from both sides.  The degeneracy U is an
    upper bound, since `forest_decomposition` builds U forests.  Each suffix
    S of the peeling order with |S| >= 2 needs ceil(|E(S)|/(|S|-1)) forests,
    and the largest of these is a lower bound L.  Between them the value is
    the least k that `_fits_forests` accepts, and U when none below U fits.
    Every tested k drains the orientation that the last one left.  The
    graph keeps the peel, so a later `forest_decomposition` of it does not
    peel again: one peel serves both the value and the forests.

    `forest_decomposition` builds degeneracy(g) forests, which may exceed
    this value (Q3: 3 for arboricity 2).
    """
    out, order, upper = _degeneracy_orientation(g)
    lower = max((-(-edges // i)  # the suffix of i + 1 vertices
                 for i, edges in enumerate(_suffix_edge_counts(g, order)) if i), default=0)
    if lower > upper:
        raise RuntimeError(f"arboricity: a peeling suffix needs {lower} forests, "
                           f"above the degeneracy {upper}")
    return next((k for k in range(lower, upper) if _fits_forests(g, out, k)), upper)


def arboricity_bruteforce(g: FactorGraph) -> int:
    """Oracle: enumerate all vertex subsets of size >= 2 (n <= 12)."""
    if g.n > 12:
        raise GraphError("brute-force oracle capped at 12 vertices")
    return max((-(-edges // (mask.bit_count() - 1))
                for mask, edges in enumerate(_subset_edge_counts(g)) if mask.bit_count() >= 2),
               default=0)


# ---------------------------------------------------------------------------
# the degeneracy orientation: forests and bounded outdegree

def _degeneracy_orientation(g: FactorGraph) -> tuple[list[set[int]], list[int], int]:
    """Each vertex's out-neighbours when every edge points from its endpoint
    earlier in `degeneracy_ordering` to the later one, that order, and the
    degeneracy, which bounds every outdegree."""
    order, k = degeneracy_ordering(g)
    out = [None] * g.n  # every vertex is in the order, so every slot is filled
    peeled = set()
    for v in order:
        peeled.add(v)
        out[v] = set(g.adj[v] - peeled)
    return out, order, k


def forest_decomposition(g: FactorGraph) -> ForestDecomposition:
    """Partition E(g) into k = degeneracy(g) forests.

    In forest j a vertex's parent is its j-th out-neighbour by id in the
    degeneracy orientation (n if it has fewer).  Parents lie strictly later
    in the order, so no forest has a cycle.
    """
    out, _, k = _degeneracy_orientation(g)
    parents = [[g.n] * g.n for _ in range(k)]
    for v in range(g.n):
        for j, w in enumerate(sorted(out[v])):
            parents[j][v] = w
    return ForestDecomposition(k=k, parents=parents)


def _reverse_path_to_room(out: list[set[int]], s: int, d: int) -> Optional[set[int]]:
    """Breadth-first along out-arcs from s to the nearest vertex w with
    outdegree below d, then reverse that path: s loses one out-arc, w gains
    one, and the vertices between keep their outdegrees.  Returns None, or,
    when no such w is reachable, the set of vertices reached from s."""
    parent = {s: s}
    queue = [s]
    for x in queue:  # the queue grows while it is walked
        for y in out[x]:
            if y in parent:
                continue
            parent[y] = x
            if len(out[y]) < d:
                while y != s:
                    x = parent[y]
                    out[x].remove(y)
                    out[y].add(x)
                    y = x
                return None
            queue.append(y)
    return set(queue)


def _drain(g: FactorGraph, out: list[set[int]], cap: int, room: int, most) -> bool:
    """Bring each vertex s in turn down to outdegree `cap`, one reversed
    path per unit of its excess, each to a vertex with outdegree below
    `room`.  False when s reaches no such vertex and the set R it reaches
    holds more than most(|R|) edges; a smaller count means the search is
    wrong, and raises."""
    for s in range(g.n):
        for _ in range(len(out[s]) - cap):
            reached = _reverse_path_to_room(out, s, room)
            if reached is None:
                continue
            inside = _edge_count_within(g, reached)
            if inside > most(len(reached)):
                return False
            raise RuntimeError(f"_drain: vertex {s} reaches no vertex with room, "
                               f"but its {len(reached)} reached vertices hold only "
                               f"{inside} edges")
    return True


def bounded_outdegree_orientation(g: FactorGraph, d: int) -> dict[tuple[int, int], int]:
    """Orient every edge so that each vertex has outdegree at most d; maps
    each edge (u, v) to its head.

    Feasible exactly when dens(g) <= d (Hakimi 1965).  The construction
    (Frank and Gyárfás 1976) starts from the degeneracy orientation and
    moves each unit by which a vertex s exceeds d along a reversed path to a
    vertex with room.  When none is reachable, every out-arc of the set R
    reached from s stays inside R, and every vertex of R has outdegree at
    least d, s more, so |E(R)| > d|R|: R witnesses dens(g) > d.  That count
    and the final outdegrees are checked explicitly.
    """
    out = _degeneracy_orientation(g)[0]
    if d < 0 or not _drain(g, out, d, d, lambda r: d * r):
        raise GraphError(f"infeasible, density exceeds {d}")
    orientation = {(u, v): v if v in out[u] else u for u, v in g.edges}
    outdeg = [0] * g.n
    for (u, v), head in orientation.items():
        outdeg[u if head == v else v] += 1
    if max(outdeg, default=0) > d:
        raise RuntimeError(f"bounded_outdegree_orientation: {max(outdeg)} edges "
                           f"point out of one vertex, above {d}")
    return orientation


def _fits_forests(g: FactorGraph, out: list[set[int]], k: int) -> bool:
    """True iff no subgraph has |E'| > k(|V'| - 1), that is, iff g splits
    into k forests (Nash-Williams 1964).

    `out` is any orientation of g, and is drained in place: first every
    outdegree comes down to at most k, then each vertex s in turn drains to
    0, each unit along a path to another vertex with outdegree below k, and
    s rejoins the others at bound k.  Once s is drained, every set S holding
    s has |E(S)| <= k(|S| - 1), since each edge points out of one of S's
    vertices.  If s reaches no vertex with room, the set R it reaches keeps
    every out-arc of its vertices, those other than s have outdegree at
    least k and s more than its cap (k, then 0), so |E(R)| > k(|R| - 1).
    Either way every outdegree is at most k afterwards, unless the first
    phase failed.
    """
    return all(_drain(g, out, cap, k, lambda r: k * (r - 1)) for cap in (k, 0))
