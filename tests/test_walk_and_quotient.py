"""The one walk inside a vertex set and the one quotient by a vertex map,
against the constructions they replaced, kept here as named oracles: an
induced subgraph with its components listed by breadth-first search, and a
quotient built from a dict of parts."""

import random
from collections import deque
from itertools import combinations

from prodvc.graph import (FactorGraph, contract_edge, induced_subgraph, is_connected,
                          is_connected_within, quotient, reached_within)
from prodvc.harness import random_subgraph
from prodvc.products import ProductSpace
from prodvc.reductions import reduce_opposite_pair
from prodvc.vc import _finishable


def components_oracle(g, part):
    """The components of g[part] as sets of members of `part`: the induced
    subgraph, compacted, and its components by breadth-first search.  A
    member outside range(g.n) is a component of its own."""
    sub, remap = induced_subgraph(g, part)
    back = {i: v for v, i in remap.items()}
    seen = [False] * sub.n
    comps = []
    for s in range(sub.n):
        if seen[s]:
            continue
        seen[s] = True
        comp, queue = {back[s]}, deque([s])
        while queue:
            for w in sub.adj[queue.popleft()]:
                if not seen[w]:
                    seen[w] = True
                    comp.add(back[w])
                    queue.append(w)
        comps.append(comp)
    return comps


def quotient_oracle(g, part_of):
    """The quotient by a dict from each vertex to the index of its part,
    with one vertex per index in 0..max(part_of)."""
    parts = [set() for _ in range(max(part_of) + 1)]
    for v, j in enumerate(part_of):
        parts[j].add(v)
    index = {v: i for i, part in enumerate(parts) for v in part}
    edges = set()
    for u, v in g.edges:
        a, b = index[u], index[v]
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return FactorGraph(len(parts), edges)


def contract_edge_oracle(g, u, v):
    """The contraction of uv as a loop over the vertices and the edges."""
    keep, drop = min(u, v), max(u, v)
    phi = [keep if x == drop else x - 1 if x > drop else x for x in range(g.n)]
    edges = {(min(phi[a], phi[b]), max(phi[a], phi[b])) for a, b in g.edges if phi[a] != phi[b]}
    return FactorGraph(g.n - 1, edges), phi


def random_graph(rng, n):
    p = rng.random()
    return FactorGraph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def random_tree(rng):
    n = rng.randint(1, 4)
    return FactorGraph(n, [(rng.randrange(v), v) for v in range(1, n)])


def random_part(rng, n):
    """A nonempty vertex set, sometimes with members outside range(n)."""
    part = {v for v in range(n) if rng.random() < 0.6} or {rng.randrange(n)}
    if rng.random() < 0.2:
        part.add(rng.choice((-2, -1, n, n + 3)))
    if rng.random() < 0.1:
        part = {rng.choice((-1, 0, n - 1, n, n + 2))}  # a singleton
    return frozenset(part)


def test_walk_within_a_part_matches_the_component_listing():
    rng = random.Random(1913)
    outcomes = {True: 0, False: 0}
    outside = 0
    for _ in range(3000):
        n = rng.randint(1, 9)
        g = random_graph(rng, n)
        part = random_part(rng, n)
        comps = components_oracle(g, part)
        connected = is_connected_within(g, part)
        assert connected == (len(comps) == 1), (g.edges, part)
        outcomes[connected] += 1
        outside += not part <= set(range(n))
        inside = sorted(part & set(range(n)))
        if inside:
            sources = rng.sample(inside, rng.randint(1, len(inside)))
            assert reached_within(g, sources, part) == set().union(
                *(c for c in comps if c & set(sources)))
    assert min(outcomes.values()) > 500 and outside > 300, (outcomes, outside)
    for n in range(1, 9):
        g = random_graph(rng, n)
        assert is_connected(g) == (len(components_oracle(g, range(n))) == 1)
    assert not is_connected(FactorGraph(0, []))


def test_finishable_matches_the_component_listing():
    rng = random.Random(1914)
    seen = set()
    for _ in range(3000):
        n = rng.randint(1, 9)
        g = random_graph(rng, n)
        rest = frozenset(v for v in range(n) if rng.random() < 0.7)
        hits = frozenset(v for v in range(n) if rng.random() < 0.4)
        charges = []
        got = _finishable(g, rest, hits, charges.append)
        assert got == all(c & hits for c in components_oracle(g, rest)), (g.edges, rest, hits)
        assert charges == ([len(rest)] if rest <= hits else [len(rest), g.m])
        seen.add((got, rest <= hits))
    assert seen == {(True, True), (True, False), (False, False)}


def test_quotient_matches_the_dict_of_parts():
    rng = random.Random(1915)
    for _ in range(2000):
        n = rng.randint(1, 9)
        g = random_graph(rng, n)
        k = rng.randint(1, n + 2)  # some labels may go unused: isolated vertices
        part_of = [rng.randrange(k) for _ in range(n)]
        assert quotient(g, part_of) == quotient_oracle(g, part_of)
        assert quotient(g, bytes(part_of)) == quotient_oracle(g, part_of)
        if g.m:
            u, v = rng.choice(g.edges)
            assert contract_edge(g, u, v) == contract_edge_oracle(g, u, v)
            assert contract_edge(g, v, u) == contract_edge_oracle(g, u, v)


def test_opposite_pair_reduction_matches_removing_the_partner():
    # the factor is a complete graph minus a matching; merging e-bar into e
    # gives the graph induced on every vertex but e-bar, with e-bar sent to e
    rng = random.Random(1916)
    for _ in range(150):
        n = rng.randint(3, 7)
        order = rng.sample(range(n), n)
        pairs = [tuple(order[j:j + 2]) for j in range(0, n - 1, 2)][:rng.randint(1, n // 2)]
        missing = {frozenset(p) for p in pairs}
        f = FactorGraph(n, [e for e in combinations(range(n), 2) if frozenset(e) not in missing])
        factors = [f] + ([random_tree(rng)] if rng.random() < 0.5 else [])
        space = ProductSpace(factors)
        g = random_subgraph(rng, space)
        e, ebar = rng.choice(pairs)[::rng.choice((1, -1))]
        step = reduce_opposite_pair(g, 0, e)
        keep = [x for x in range(n) if x != ebar]
        f_hat, remap = induced_subgraph(f, keep)
        phi = [remap[x] if x != ebar else remap[e] for x in range(n)]
        assert step.g_contracted.space.factors[0] == f_hat
        assert step.contraction_map == {w: (phi[w[0]],) + w[1:] for w in g.vertices}
