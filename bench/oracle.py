"""Independent reference computations used to check the program's answers.

Written from the definitions, not from the program's code, and importing
nothing from prodvc.  The VC oracles enumerate plainly and are meant for the
desk-scale instances of the `vc-products` pool (see make_reference.py); the
flow check is fast enough to run on every `graph-flow` input.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction


# ---------------------------------------------------------------------------
# small graphs given as (n, edges)

def brute_density(n: int, edges) -> Fraction:
    """max |E(S)|/|S| over nonempty S, by enumeration (n <= ~20)."""
    best = Fraction(0)
    for mask in range(1, 1 << n):
        inside = sum(1 for u, v in edges if mask >> u & 1 and mask >> v & 1)
        best = max(best, Fraction(inside, bin(mask).count("1")))
    return best


def _connected(vertices, adj) -> bool:
    vertices = set(vertices)
    start = next(iter(vertices))
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y in vertices and y not in seen:
                seen.add(y)
                queue.append(y)
    return seen == vertices


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def set_partitions(n: int):
    """All set partitions of range(n), as lists of frozensets."""
    def grow(v, blocks):
        if v == n:
            yield [frozenset(b) for b in blocks]
            return
        for b in blocks:
            b.append(v)
            yield from grow(v + 1, blocks)
            b.pop()
        blocks.append([v])
        yield from grow(v + 1, blocks)
        blocks.pop()
    yield from grow(0, [])


def connected_partitions(n: int, edges) -> list[list[frozenset]]:
    adj = adjacency(n, edges)
    return [p for p in set_partitions(n) if all(_connected(b, adj) for b in p)]


def quotient_density(edges, parts) -> Fraction:
    owner = {v: j for j, p in enumerate(parts) for v in p}
    qedges = {(min(owner[u], owner[v]), max(owner[u], owner[v]))
              for u, v in edges if owner[u] != owner[v]}
    return brute_density(len(parts), sorted(qedges))


# ---------------------------------------------------------------------------
# the four VC quantities of an induced product subgraph

def vc_values(inst: dict) -> dict:
    """vcd, vcdens, vcd*, vcdens* of the induced instance, exactly.

    A family of per-factor vertex groups is shattered when every combination
    of one group per factor contains a vertex of the subgraph.
    """
    factors = [(f["n"], [tuple(e) for e in f["edges"]]) for f in inst["factors"]]
    verts = {tuple(v) for v in inst["vertices"]}
    m = len(factors)

    def shattered(groups: dict[int, list[frozenset]]) -> bool:
        idx = sorted(groups)
        need = 1
        for i in idx:
            need *= len(groups[i])
        if need > len(verts):
            return False
        owner = {i: {x: j for j, g in enumerate(groups[i]) for x in g} for i in idx}
        hit = set()
        for v in verts:
            cell = tuple(owner[i].get(v[i]) for i in idx)
            if None not in cell:
                hit.add(cell)
        return len(hit) == need

    # induced pair: one connected vertex set (>= 2 vertices) per chosen factor,
    # split into singletons
    options = []
    for n, edges in factors:
        adj = adjacency(n, edges)
        opts = []
        for size in range(2, n + 1):
            for s in itertools.combinations(range(n), size):
                if _connected(s, adj):
                    sub = [(s.index(u), s.index(v)) for u, v in edges if u in s and v in s]
                    opts.append((s, brute_density(size, sub)))
        options.append(opts)
    vcd, vcdens = 0, Fraction(0)
    for k in range(1, m + 1):
        for idx in itertools.combinations(range(m), k):
            for choice in itertools.product(*(options[i] for i in idx)):
                groups = {i: [frozenset([x]) for x in s] for i, (s, _) in zip(idx, choice)}
                if shattered(groups):
                    if all(len(s) == 2 for s, _ in choice):
                        vcd = max(vcd, k)
                    vcdens = max(vcdens, sum((d for _, d in choice), Fraction(0)))

    # minor pair: one connected partition per factor, all factors at once
    parts = [[(p, quotient_density(edges, p)) for p in connected_partitions(n, edges)]
             for n, edges in factors]
    vcd_star, vcdens_star = 0, Fraction(0)
    for combo in itertools.product(*parts):
        groups = {i: p for i, (p, _) in enumerate(combo)}
        if shattered(groups):
            vcd_star = max(vcd_star, sum(1 for p, _ in combo if len(p) >= 2))
            vcdens_star = max(vcdens_star, sum((d for _, d in combo), Fraction(0)))
    return {"vcd": vcd, "vcdens": vcdens, "vcd_star": vcd_star, "vcdens_star": vcdens_star}


def induced_witness_value(inst: dict, witness, edges_only: bool = False):
    """The value a vcd (edges_only) or vcdens witness certifies, or None.

    The witness maps a factor index (as a string) to vertices of that factor;
    they must induce a connected subgraph (an edge for vcd) and every
    combination of them must occur among the instance's coordinates.
    """
    if not witness:
        return None
    factors = inst["factors"]
    chosen = {int(i): sorted(vs) for i, vs in witness.items()}
    total = Fraction(0)
    for i, vs in chosen.items():
        edges = [tuple(e) for e in factors[i]["edges"]]
        inside = [(vs.index(u), vs.index(v)) for u, v in edges if u in vs and v in vs]
        if len(set(vs)) < 2 or not _connected(range(len(vs)), adjacency(len(vs), inside)):
            return None
        if edges_only and len(vs) != 2:
            return None
        total += brute_density(len(vs), inside)
    idx = sorted(chosen)
    present = {tuple(v[i] for i in idx) for v in inst["vertices"]}
    if not all(c in present for c in itertools.product(*(chosen[i] for i in idx))):
        return None
    return len(idx) if edges_only else total


def minor_witness_ok(inst: dict, witness) -> bool:
    """A vcd*/vcdens* witness (one list of parts per factor) is a connected
    partition of every factor and shatters the instance."""
    factors = [(f["n"], [tuple(e) for e in f["edges"]]) for f in inst["factors"]]
    if witness is None or len(witness) != len(factors):
        return False
    owners = []
    need = 1
    for (n, edges), parts in zip(factors, witness):
        adj = adjacency(n, edges)
        owner = {x: j for j, p in enumerate(parts) for x in p}
        if sorted(owner) != list(range(n)) or sum(map(len, parts)) != n:
            return False
        if not all(p and _connected(p, adj) for p in parts):
            return False
        owners.append(owner)
        need *= len(parts)
    hit = {tuple(o[c] for o, c in zip(owners, v)) for v in map(tuple, inst["vertices"])}
    return len(hit) == need


def minor_witness_value(inst: dict, witness) -> tuple[int, Fraction]:
    """(nontrivial factor count, summed quotient density) of a witness."""
    factors = [[tuple(e) for e in f["edges"]] for f in inst["factors"]]
    count = sum(1 for parts in witness if len(parts) >= 2)
    density = sum((quotient_density(edges, [frozenset(p) for p in parts])
                   for edges, parts in zip(factors, witness)), Fraction(0))
    return count, density


# ---------------------------------------------------------------------------
# a flow-based density certificate for large graphs

def no_denser_subgraph(n: int, edges, ratio: Fraction) -> bool:
    """True iff every vertex set S has |E(S)| <= ratio * |S|.

    Goldberg's vertex network for ratio p/q: s->v with capacity q*m,
    u<->v with capacity q per edge, v->t with capacity q*m + 2p - q*deg(v).
    A cut {s} u S costs q*m*n + 2(p|S| - q|E(S)|), so the minimum cut equals
    q*m*n exactly when no S beats the ratio.  Solved by an iterative Dinic.
    """
    m = len(edges)
    if m == 0:
        return True
    p, q = ratio.numerator, ratio.denominator
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    s, t = n, n + 1
    net = _Network(n + 2)
    for v in range(n):
        net.add(s, v, q * m)
        net.add(v, t, q * m + 2 * p - q * deg[v])
    for u, v in edges:
        net.add(u, v, q, q)
    return net.max_flow(s, t) == q * m * n


def exceeds_forest_bound(n: int, edges, k: int) -> bool:
    """True iff some vertex set S has |E(S)| > k(|S| - 1), so that E does
    not split into k forests (Nash-Williams).

    For each forced vertex v, one min cut over the network s -> edge
    (capacity 1) -> both endpoints (unbounded) -> t (capacity k), with s -> v
    unbounded: a cut with source side S containing v costs
    (m - |E(S)|) + k|S|, so the bound fails at v exactly when
    m - mincut >= 1 - k.
    """
    m = len(edges)
    big = m + 1
    for forced in range(n):
        net = _Network(2 + n + m)
        s, t = 0, 1
        for v in range(n):
            net.add(2 + v, t, k)
        net.add(s, 2 + forced, big * (k + 1))
        for idx, (u, v) in enumerate(edges):
            node = 2 + n + idx
            net.add(s, node, 1)
            net.add(node, 2 + u, big)
            net.add(node, 2 + v, big)
        if m - net.max_flow(s, t) >= 1 - k:
            return True
    return False


class _Network:
    def __init__(self, size: int):
        self.size = size
        self.head = [[] for _ in range(size)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add(self, u: int, v: int, cap: int, back: int = 0) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(back)

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while True:
            level = [-1] * self.size
            level[s] = 0
            queue = deque([s])
            while queue:
                x = queue.popleft()
                for a in self.head[x]:
                    if self.cap[a] > 0 and level[self.to[a]] < 0:
                        level[self.to[a]] = level[x] + 1
                        queue.append(self.to[a])
            if level[t] < 0:
                return total
            it = [0] * self.size
            while True:
                pushed = self._augment(s, t, level, it)
                if not pushed:
                    break
                total += pushed

    def _augment(self, s: int, t: int, level, it) -> int:
        """One blocking-flow path with an explicit stack (no recursion)."""
        path: list[int] = []
        x = s
        while True:
            if x == t:
                push = min(self.cap[a] for a in path)
                for a in path:
                    self.cap[a] -= push
                    self.cap[a ^ 1] += push
                return push
            advanced = False
            while it[x] < len(self.head[x]):
                a = self.head[x][it[x]]
                y = self.to[a]
                if self.cap[a] > 0 and level[y] == level[x] + 1:
                    path.append(a)
                    x = y
                    advanced = True
                    break
                it[x] += 1
            if not advanced:
                if not path:
                    return 0
                level[x] = -1  # dead end: prune it for this phase
                a = path.pop()
                x = self.to[a ^ 1]
                it[x] += 1
