"""Seeded input generators owned by the benchmark.

Nothing here imports prodvc: a change to the program's own generators can
never change the benchmark's inputs.  Graphs are (n, sorted edge list) with
u < v; product instances are plain dicts in the program's instance JSON
layout ({"factors": [{"n", "edges"}], "vertices": [...], "induced": true}).
"""

from __future__ import annotations

import itertools
import random


def edgelist_text(n: int, edges: list[tuple[int, int]]) -> str:
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


def _norm(edges) -> list[tuple[int, int]]:
    return sorted({(min(u, v), max(u, v)) for u, v in edges})


def relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return _norm((perm[u], perm[v]) for u, v in edges)


def grid(a: int, b: int) -> tuple[int, list[tuple[int, int]]]:
    edges = []
    for i in range(a):
        for j in range(b):
            v = i * b + j
            if i + 1 < a:
                edges.append((v, v + b))
            if j + 1 < b:
                edges.append((v, v + 1))
    return a * b, _norm(edges)


def path_power(k: int, d: int) -> tuple[int, list[tuple[int, int]]]:
    """P_k^d, the d-fold Cartesian power of the k-vertex path (k=2: Q_d)."""
    verts = list(itertools.product(range(k), repeat=d))
    index = {v: i for i, v in enumerate(verts)}
    edges = []
    for v in verts:
        for i in range(d):
            if v[i] + 1 < k:
                edges.append((index[v], index[v[:i] + (v[i] + 1,) + v[i + 1:]]))
    return len(verts), _norm(edges)


def gnp(n: int, c: float, rng: random.Random) -> list[tuple[int, int]]:
    """Erdos-Renyi G(n, c/n)."""
    p = c / n
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def gnm(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """G(n, c/n) conditioned on exactly m = cn/2 edges, so that every seed
    gives the same amount of work."""
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def shuffled_cycle(n: int, rng: random.Random) -> list[tuple[int, int]]:
    return relabel(n, [(i, (i + 1) % n) for i in range(n)], rng)


# ---------------------------------------------------------------------------
# product instances

def _factor(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    kind = rng.choice(("path", "path", "cycle", "star", "tree", "clique"))
    if kind == "path":
        n = rng.randint(2, 5)
        return n, [(i, i + 1) for i in range(n - 1)]
    if kind == "cycle":
        n = rng.randint(3, 5)
        return n, _norm((i, (i + 1) % n) for i in range(n))
    if kind == "star":
        n = rng.randint(3, 5)
        return n, [(0, i) for i in range(1, n)]
    if kind == "tree":
        n = rng.randint(3, 5)
        return n, [(rng.randrange(v), v) for v in range(1, n)]
    n = rng.randint(2, 3)
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


def _instance(factors, keep: float, rng: random.Random) -> dict:
    verts = [list(v) for v in itertools.product(*(range(n) for n, _ in factors))
             if rng.random() < keep]
    if not verts:
        verts = [[0] * len(factors)]
    return {"factors": [{"n": n, "edges": [list(e) for e in edges]} for n, edges in factors],
            "vertices": verts, "induced": True}


def small_instance(rng: random.Random) -> dict:
    """Three desk-scale factors (16 to 64 product vertices): the whole
    search stays exhaustive."""
    while True:
        factors = [_factor(rng) for _ in range(3)]
        if 16 <= _size(factors) <= 64:
            return _instance(factors, rng.uniform(0.5, 0.85), rng)


def wide_instance(rng: random.Random) -> dict:
    """Past the exhaustive caps: seven K2 factors (a sparse subgraph of Q7)."""
    return _instance([(2, [(0, 1)])] * 7, rng.uniform(0.12, 0.18), rng)


def long_instance(rng: random.Random) -> dict:
    """Past the exhaustive caps: a 9-vertex path factor times a small one."""
    other = rng.choice(((2, [(0, 1)]), (3, [(0, 1), (1, 2)])))
    return _instance([(9, [(i, i + 1) for i in range(8)]), other], rng.uniform(0.5, 0.8), rng)


def _size(factors) -> int:
    total = 1
    for n, _ in factors:
        total *= n
    return total
