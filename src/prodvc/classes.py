"""Recognition and certificates for the special factor classes: dismantlable
graphs (with exact elimination degrees), chordal graphs (with a perfect
elimination ordering or a chordless-cycle witness), and spanning supergraphs
of octahedra (complete multipartite with parts of size at most two).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .graph import FactorGraph, GraphError, neighbor_masks
from .products import ProductSubgraph

EXACT_DISMANTLING_CAP = 12  # most vertices on which min_dismantling_order is exact


# ---------------------------------------------------------------------------
# dismantlable graphs

@dataclass(frozen=True)
class DismantlingCertificate:
    """A removal order in which every vertex is dominated at its turn.

    `order[j]` is removed at step j and `dominators[j]` witnesses the
    domination; `dd` is the maximum degree at removal time, minimized over
    all valid orders when `exact` is set.
    """
    order: tuple[int, ...]
    dominators: tuple[int, ...]
    dd: int
    exact: bool


def _closed_masks(g: FactorGraph) -> list[int]:
    return [mask | 1 << v for v, mask in enumerate(neighbor_masks(g))]


def min_dismantling_order(g: FactorGraph) -> Optional[DismantlingCertificate]:
    """The elimination order minimizing the maximum removal degree, or None
    when the graph is not dismantlable.

    Exact (dynamic program over vertex subsets) up to EXACT_DISMANTLING_CAP
    vertices; beyond that a greedy order is returned with `exact=False`.
    """
    if g.n == 0:
        raise GraphError("empty graph")
    if g.n <= EXACT_DISMANTLING_CAP:
        return _exact_dismantling(g)
    return _greedy_dismantling(g)


def _exact_dismantling(g: FactorGraph) -> Optional[DismantlingCertificate]:
    closed = _closed_masks(g)
    memo: dict[int, Optional[tuple[int, int, int]]] = {}

    def solve(mask: int) -> Optional[tuple[int, int, int]]:
        """(dd, removed vertex, dominator) for the induced subgraph, or None."""
        if mask & (mask - 1) == 0:
            v = mask.bit_length() - 1
            return (0, v, v)
        if mask in memo:
            return memo[mask]
        best = None
        rest = mask
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            cu = closed[u] & mask
            dominator = next((v for v in range(g.n)
                              if v != u and mask >> v & 1
                              and (closed[v] & mask) | cu == closed[v] & mask), None)
            if dominator is None:
                continue
            sub = solve(mask & ~(1 << u))
            if sub is None:
                continue
            deg = (cu.bit_count() - 1)
            score = max(deg, sub[0])
            if best is None or score < best[0]:
                best = (score, u, dominator)
        memo[mask] = best
        return best

    full = (1 << g.n) - 1
    top = solve(full)
    if top is None:
        return None
    order, dominators = [], []
    mask = full
    while mask:
        _, u, dom = solve(mask)
        order.append(u)
        dominators.append(dom)
        mask &= ~(1 << u)
    return DismantlingCertificate(tuple(order), tuple(dominators), top[0], exact=True)


def _greedy_dismantling(g: FactorGraph) -> Optional[DismantlingCertificate]:
    alive = set(range(g.n))
    closed = {v: set(g.adj[v]) | {v} for v in range(g.n)}
    order, dominators = [], []
    dd = 0
    while len(alive) > 1:
        pick = None
        for u in sorted(alive, key=lambda x: (len(closed[x]) - 1, x)):
            # a dominator of u is a neighbour: it holds u in its closed neighbourhood
            dom = min((v for v in closed[u] if v != u and closed[u] <= closed[v]), default=None)
            if dom is not None:
                pick = (u, dom)
                break
        if pick is None:
            return None
        u, dom = pick
        dd = max(dd, len(closed[u]) - 1)
        order.append(u)
        dominators.append(dom)
        alive.discard(u)
        for v in alive:
            closed[v].discard(u)
        del closed[u]
    last = alive.pop()
    order.append(last)
    dominators.append(last)
    return DismantlingCertificate(tuple(order), tuple(dominators), dd, exact=False)


def is_dismantlable_bruteforce(g: FactorGraph) -> bool:
    """Independent oracle (n <= 8): try every removable vertex recursively."""
    if g.n > 8:
        raise GraphError("brute-force oracle capped at 8 vertices")
    closed = _closed_masks(g)
    memo: dict[int, bool] = {}

    def rec(mask: int) -> bool:
        if mask & (mask - 1) == 0:
            return True
        if mask in memo:
            return memo[mask]
        ok = False
        rest = mask
        while rest and not ok:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            cu = closed[u] & mask
            if any(v != u and mask >> v & 1 and cu | (closed[v] & mask) == closed[v] & mask
                   for v in range(g.n)):
                ok = rec(mask & ~(1 << u))
        memo[mask] = ok
        return ok

    return rec((1 << g.n) - 1)


# ---------------------------------------------------------------------------
# product elimination orders

@dataclass(frozen=True)
class ProductEliminationReport:
    factor_certificates: tuple[DismantlingCertificate, ...]
    dd_product: int          # sum of the factor dd values
    dd_subgraph: int         # max later-degree of the subgraph in the order
    exact: bool


def product_elimination_report(g: ProductSubgraph) -> ProductEliminationReport:
    """Order the product by factorwise elimination positions (lexicographic)
    and measure the subgraph's maximum number of later neighbors.

    Every factor must be dismantlable.  Because a product neighbor differs in
    exactly one coordinate, the product's own maximum later-degree under this
    order is exactly the sum of the factor dd values, and the induced
    subgraph can only do better.
    """
    certs = []
    positions = []
    for i, f in enumerate(g.space.factors):
        cert = min_dismantling_order(f)
        if cert is None:
            raise GraphError(f"factor {i} is not dismantlable")
        certs.append(cert)
        positions.append({v: j for j, v in enumerate(cert.order)})

    key = {v: tuple(positions[i][c] for i, c in enumerate(v)) for v in g.vertices}
    later = Counter(x if key[x] < key[y] else y for x, y in g.edges)
    dd_sub = max(later.values(), default=0)
    dd_prod = sum(c.dd for c in certs)
    if dd_sub > dd_prod:
        raise RuntimeError(f"product_elimination_report: the subgraph's "
                           f"later-degree {dd_sub} is above the product's {dd_prod}")
    return ProductEliminationReport(tuple(certs), dd_prod, dd_sub,
                                    exact=all(c.exact for c in certs))


# ---------------------------------------------------------------------------
# chordal graphs

@dataclass(frozen=True)
class ChordalCertificate:
    chordal: bool
    peo: Optional[tuple[int, ...]]       # perfect elimination ordering
    omega: Optional[int]                 # clique number, from the PEO
    hole: Optional[tuple[int, ...]]      # a chordless cycle of length >= 4


def _lex_bfs(g: FactorGraph) -> list[int]:
    labels: dict[int, list[int]] = {v: [] for v in range(g.n)}
    order = []
    remaining = set(range(g.n))
    for step in range(g.n):
        v = max(remaining, key=lambda x: (labels[x], -x))
        order.append(v)
        remaining.discard(v)
        for w in g.adj[v]:
            if w in remaining:
                labels[w].append(g.n - step)
    return order


def _find_hole(g: FactorGraph) -> Optional[tuple[int, ...]]:
    """Some chordless cycle of length >= 4: for a center v with non-adjacent
    neighbors x, y, a shortest x-y path avoiding N[v] closes one."""
    from collections import deque
    for v in range(g.n):
        nbrs = sorted(g.adj[v])
        for ai in range(len(nbrs)):
            for bi in range(ai + 1, len(nbrs)):
                x, y = nbrs[ai], nbrs[bi]
                if g.has_edge(x, y):
                    continue
                banned = (g.adj[v] | {v}) - {x, y}
                prev = {x: None}
                queue = deque([x])
                while queue:
                    a = queue.popleft()
                    if a == y:
                        break
                    for b in g.adj[a]:
                        if b not in prev and b not in banned:
                            prev[b] = a
                            queue.append(b)
                if y in prev:
                    path = []
                    a = y
                    while a is not None:
                        path.append(a)
                        a = prev[a]
                    hole = tuple([v] + path[::-1])
                    _check_hole(g, hole)
                    return hole
    return None


def _check_hole(g: FactorGraph, cycle: tuple[int, ...]) -> None:
    k = len(cycle)
    if k < 4:
        raise RuntimeError(f"_find_hole: cycle {cycle} is shorter than 4")
    for i in range(k):
        for j in range(i + 1, k):
            adjacent = g.has_edge(cycle[i], cycle[j])
            consecutive = j - i == 1 or (i == 0 and j == k - 1)
            if adjacent != consecutive:
                raise RuntimeError(f"_find_hole: cycle {cycle} has a chord or gap")


def chordal_certificate(g: FactorGraph) -> ChordalCertificate:
    """Either a perfect elimination ordering with the clique number, or a
    chordless cycle showing the graph is not chordal."""
    if g.n == 0:
        return ChordalCertificate(True, (), 0, None)
    peo = _lex_bfs(g)[::-1]
    pos = {v: i for i, v in enumerate(peo)}
    omega = 1
    for v in peo:
        later = [w for w in g.adj[v] if pos[w] > pos[v]]
        omega = max(omega, 1 + len(later))
        if not later:
            continue
        u = min(later, key=lambda w: pos[w])
        for w in later:
            if w != u and not g.has_edge(u, w):
                hole = _find_hole(g)
                if hole is None:
                    raise RuntimeError("chordal_certificate: no perfect elimination "
                                       "ordering, but no chordless cycle either")
                return ChordalCertificate(False, None, None, hole)
    return ChordalCertificate(True, tuple(peo), omega, None)


def is_chordal_bruteforce(g: FactorGraph) -> bool:
    """Oracle (n <= 12): no vertex subset of size >= 4 induces a cycle."""
    if g.n > 12:
        raise GraphError("brute-force oracle capped at 12 vertices")
    from .graph import induced_subgraph, is_connected
    for mask in range(1 << g.n):
        if mask.bit_count() < 4:
            continue
        vs = [v for v in range(g.n) if mask >> v & 1]
        sub, _ = induced_subgraph(g, vs)
        if sub.m == sub.n and all(sub.degree(v) == 2 for v in range(sub.n)) \
                and is_connected(sub):
            return False
    return True


# ---------------------------------------------------------------------------
# clique number

def clique_number(g: FactorGraph) -> int:
    """Maximum clique size by branch and bound over neighbor masks, on an
    explicit stack, so a long graph cannot overflow the interpreter stack."""
    if g.n == 0:
        return 0
    adj_mask = neighbor_masks(g)
    best = 0
    stack = [((1 << g.n) - 1, 0)]  # (candidates, size)
    while stack:
        candidates, size = stack.pop()
        if size + candidates.bit_count() <= best:
            continue
        if candidates == 0:
            best = size
            continue
        v = (candidates & -candidates).bit_length() - 1
        stack.append((candidates & ~(1 << v), size))       # skip v
        stack.append((candidates & adj_mask[v], size + 1))  # take v (popped first)
    return best


# ---------------------------------------------------------------------------
# octahedra and their spanning supergraph structure

@dataclass(frozen=True)
class SuboctahedronInfo:
    """Complete multipartite structure with parts of size at most two:
    `pairs` lists the non-adjacent opposite pairs, `universal` the vertices
    adjacent to everything else."""
    pairs: tuple[tuple[int, int], ...]
    universal: tuple[int, ...]

    @property
    def omega(self) -> int:
        return len(self.pairs) + len(self.universal)


def suboctahedron_structure(g: FactorGraph) -> Optional[SuboctahedronInfo]:
    """The opposite-pair structure if every vertex misses at most one other
    vertex, else None."""
    pairs = []
    universal = []
    for v in range(g.n):
        missing = [w for w in range(g.n) if w != v and w not in g.adj[v]]
        if len(missing) > 1:
            return None
        if missing:
            if missing[0] > v:
                pairs.append((v, missing[0]))
        else:
            universal.append(v)
    return SuboctahedronInfo(tuple(pairs), tuple(universal))
