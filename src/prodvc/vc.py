"""Shattering tests and the four VC quantities of subgraphs of Cartesian
products: the induced pair (over subproducts) and the minor pair (over
factorwise connected partitions).

All four come from one depth-first branch-and-bound scan (`_scan`), run
over cube-subproducts for vcd, over subproducts for vcdens and over
partitions for the minor maxima wanted.  A prefix's cells are bitmasks
over the vertices of g, in signature order, and an option splits each
cell with one AND per label.  It cuts an option when, by the vertex count
P of the prefix's smallest cell (its fewest bits) and per-factor density
ceilings, nothing below it can strictly beat the best so far for a wanted
maximum; a cut option is still charged, and a cut can only skip ties, so
witnesses are those of the full scan.  An option with at most as many
edges as vertices has at most one cycle, and its density is their ratio,
counted with no graph built.  Each value is exact when its scan ends
within its work budget and otherwise a lower bound, flagged inexact,
that its witness reaches.  A scan depends only on the factors, the vertex
set, the budget and the maxima wanted, so a process memoizes it by their
values, in a bounded cache; results do not change.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm, prod
from typing import Iterable, Iterator, NamedTuple, Optional

from .density import densest_subgraph
from .graph import (FactorGraph, GraphError, induced_subgraph, is_connected_within, quotient,
                     reached_within)
from .products import ProductSpace, ProductSubgraph, Subproduct, trace

DEFAULT_BUDGET = 10_000_000  # work units of each VC scan; see `_scan`

Partition = tuple[frozenset, ...]


class Found(NamedTuple):
    """One VC quantity: its value, a witness that reaches it (None for the
    value 0) and whether the value is exact, not just a lower bound."""
    value: int | Fraction
    witness: object
    exact: bool


# ---------------------------------------------------------------------------
# connected subsets and connected partitions of a factor

class _BudgetSpent(Exception):
    """Raised by a scan's work meter once its budget is spent."""


def _connected_subsets_with_seed(g: FactorGraph, allowed: frozenset, seed: int,
                                 hits: frozenset, spend) -> Iterator[frozenset]:
    """The subsets of `allowed` containing `seed` that induce a connected
    subgraph and meet `hits`, in increasing order of their vertex bitmask.
    Vertices are decided from the largest down, left out first; a branch
    ends once its taken vertices cannot all reach `seed` through undecided
    ones or it can no longer meet `hits`, so every branch yields a subset.
    `spend` is charged per adjacency entry the reachability tests read."""
    order = sorted(allowed - {seed}, reverse=True)
    lowest_hit = min((allowed & hits) - {seed}, default=g.n)  # undecided while order[j] >= it

    def joinable(taken: frozenset, j: int) -> bool:
        undecided_max = order[j] if j < len(order) else -1
        seen, stack, missing, looked = {seed}, [seed], len(taken) - 1, 1
        while stack and missing:
            adj = g.adj[stack.pop()]
            looked += len(adj)
            for w in adj:
                if w not in seen and (w in taken or (w <= undecided_max and w in allowed)):
                    seen.add(w)
                    stack.append(w)
                    missing -= w in taken
        spend(looked)
        return not missing

    stack = [(0, frozenset({seed}), seed in hits)]
    while stack:
        j, taken, met = stack.pop()
        if not (met or (j < len(order) and order[j] >= lowest_hit)) or not joinable(taken, j):
            continue
        if j == len(order):
            yield taken
            continue
        stack.append((j + 1, taken | {order[j]}, met or order[j] in hits))
        stack.append((j + 1, taken, met))  # leaving out pops first


def _finishable(g: FactorGraph, rest: frozenset, hits: frozenset, spend) -> bool:
    """True iff every component of g[rest] meets `hits`, that is, iff rest
    splits into connected parts that each meet `hits`."""
    spend(len(rest))
    if rest <= hits:
        return True
    spend(g.m)
    return len(reached_within(g, rest & hits, rest)) == len(rest)


def _partitions(g: FactorGraph, hits: frozenset, spend=lambda units: None,
                ) -> Iterator[Partition]:
    """The partitions of V(g) into connected parts that each meet `hits`,
    lazily and in the order of `connected_partitions`.  An explicit stack
    holds one stream of candidate parts per part placed, so long factors do
    not recurse; a candidate is kept only if what it leaves can be finished."""
    if g.n == 0:
        yield ()
        return
    everything = frozenset(range(g.n))
    stack = [(everything, (), _connected_subsets_with_seed(g, everything, 0, hits, spend))]
    while stack:
        remaining, placed, candidates = stack[-1]
        part = next(candidates, None)
        if part is None:
            stack.pop()
            continue
        rest = remaining - part
        if not _finishable(g, rest, hits, spend):
            continue
        if not rest:
            yield placed + (part,)
        elif len(rest & hits) == 1:  # rest is connected: the last part
            yield placed + (part, rest)
        else:
            stack.append((rest, placed + (part,),
                          _connected_subsets_with_seed(g, rest, min(rest), hits, spend)))


@lru_cache(maxsize=1 << 10)
def connected_partitions(g: FactorGraph) -> tuple[Partition, ...]:
    """Every partition of V(g) into connected parts, each generated once:
    the smallest unassigned vertex always seeds the next part."""
    return tuple(_partitions(g, frozenset(range(g.n))))


@lru_cache(maxsize=1 << 10)
def _stream_record(g: FactorGraph, hits: frozenset) -> list:
    """The record of the stream `_partitions(g, hits)` as a minor scan
    reads it, empty until some scan reads the stream to its end: the option
    keys (each `part_of` as g.n bytes) concatenated, the part count of each
    option as bytes, and the units the stream charged before each option
    and after the last one."""
    return []


def _part_of(parts: Iterable[Iterable[int]], n: int) -> list[int]:
    """The index of the part holding each vertex of 0..n-1."""
    part_of = [0] * n
    for j, part in enumerate(parts):
        for v in part:
            part_of[v] = j
    return part_of


def _parts_of(part_of) -> list[list[int]]:
    """The partition whose part j holds the vertices v with part_of[v] == j."""
    parts: list[list[int]] = [[] for _ in range(max(part_of) + 1)]
    for v, j in enumerate(part_of):
        parts[j].append(v)
    return parts


@lru_cache(maxsize=1 << 14)
def _partition_density(g: FactorGraph, part_of) -> Fraction:
    """Density of the minor that the connected parts `part_of` of the
    connected g define, with one edge per pair of parts g joins: their ratio
    when the edges number at most the parts, else solved."""
    joined = set()
    for u, v in g.edges:
        a, b = part_of[u], part_of[v]
        if a != b:
            joined.add((a, b) if a < b else (b, a))
    parts = max(part_of) + 1
    if len(joined) <= parts:
        return Fraction(len(joined), parts)
    return _quotient_density(FactorGraph(parts, joined))


@lru_cache(maxsize=1 << 14)
def _quotient_density(quotient: FactorGraph) -> Fraction:
    """Density of a quotient or induced subgraph, cached by the graph: an
    option with two or more cycles, a `MinorPartition` minor or f[vals]."""
    return densest_subgraph(quotient).density


# ---------------------------------------------------------------------------
# minor partitions

class MinorPartition:
    """Per-factor partitions into connected parts, defining a minor of each
    factor and hence a minor-subproduct.  `part_of[i][c]` is the index of
    the part of factor i that holds c."""

    __slots__ = ("space", "parts", "part_of")

    def __init__(self, space: ProductSpace, parts: Iterable[Iterable[Iterable[int]]]):
        parts = tuple(tuple(frozenset(p) for p in factor_parts) for factor_parts in parts)
        if len(parts) != space.m:
            raise GraphError("one partition per factor required")
        for i, factor_parts in enumerate(parts):
            f = space.factors[i]
            seen: set[int] = set()
            for p in factor_parts:
                if not p or (seen & p):
                    raise GraphError(f"factor {i}: parts must be nonempty and disjoint")
                seen |= p
                if not is_connected_within(f, p):
                    raise GraphError(f"factor {i}: part {sorted(p)} is not connected")
            if seen != set(range(f.n)):
                raise GraphError(f"factor {i}: parts must cover all vertices")
        self.space = space
        self.parts = parts
        self.part_of = tuple(_part_of(p, f.n) for f, p in zip(space.factors, parts))

    def cell_of(self, v: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(part_of[c] for part_of, c in zip(self.part_of, v))

    def num_cells(self) -> int:
        return prod(len(factor_parts) for factor_parts in self.parts)

    def nontrivial_factors(self) -> int:
        return sum(1 for factor_parts in self.parts if len(factor_parts) >= 2)

    def minors(self) -> list[FactorGraph]:
        return [quotient(f, part_of) for f, part_of in zip(self.space.factors, self.part_of)]

    def minor_density(self) -> Fraction:
        return sum((_quotient_density(q) for q in self.minors()), Fraction(0))


# ---------------------------------------------------------------------------
# shattering

def shatters_subproduct(g: ProductSubgraph, sub: Subproduct) -> bool:
    """True iff every vertex of the subproduct has a fiber meeting V(g)
    (equivalently, the trace of V(g) is the whole subproduct)."""
    return len(trace(g, sub)) == sub.num_vertices()


def shatters_minor(g: ProductSubgraph, mp: MinorPartition) -> bool:
    """True iff every cell of the product partition contains a vertex of g."""
    needed = mp.num_cells()
    if needed > g.n:
        return False
    hit = {mp.cell_of(v) for v in g.vertices}
    return len(hit) == needed


# ---------------------------------------------------------------------------
# the scan behind vcdens, vcd* and vcdens*

@lru_cache(maxsize=1 << 10)
def _minor_ceilings(f: FactorGraph, h: int) -> tuple[Fraction, ...]:
    """Entry t, for t <= h, bounds the density of any graph on t vertices
    that is a minor of the connected graph f, such as a subgraph of f: a
    densest subgraph of it on u <= t vertices has at most u(u-1)/2 edges,
    at most |E(f)|, and at most u - 1 + c edges, since c = |E(f)| - |V(f)|
    + 1, the cyclomatic number of f, bounds its own.  The row depends on
    (f, h) alone, so every scan of f with h coordinates shares one."""
    row = [Fraction(0), Fraction(0)]
    for u in range(2, h + 1):
        row.append(max(row[-1], Fraction(min(u * (u - 1) // 2, f.m, u + f.m - f.n), u)))
    return tuple(row)


def _induced_ceilings(f: FactorGraph, vals: frozenset) -> list[Fraction]:
    """Entry t bounds the density of f[S] for the subsets S of `vals` with
    t vertices: that of a minor of f, and that of f[vals]."""
    top = _quotient_density(induced_subgraph(f, vals)[0])
    return [min(top, c) for c in _minor_ceilings(f, len(vals))]


@lru_cache(maxsize=1 << 6)
def _scan(factors: tuple[FactorGraph, ...], vertices: frozenset, budget: int, options,
          dims: bool, density, ceilings) -> tuple[Optional[Found], Optional[Found]]:
    """Depth-first over one option per factor of the subgraph g of the
    product of `factors` on `vertices`: the most factors with two or more
    labels and the largest density, each found with its choice as
    witness, a tuple of option keys, the first strict maximum in scan
    order.  Only the wanted maxima are sought, the dimension when `dims`
    and the density when `density` is not None; the others come back None.

    The scan depends on its arguments' values alone, so it is memoized per
    process: the callbacks are module-level functions, and two equal
    subgraphs, such as two loads of one instance, share one scan at one
    budget.  The cache is bounded and keeps only immutable results; each
    caller builds its own witness from the choice.

    `options(f, vals, n, spend, left)` yields the options of a factor f,
    in which g takes the coordinates `vals`, as (key, label of each vertex
    of f, t), labels in range(t); label t drops the vertex, n is |V(g)|
    and `left()` reads the budget left.  A choice is shattered when the
    vertices of g that no option drops carry every combination of labels.
    This marginalizes, so the scan keeps a prefix's cells, each the set of
    vertices of g (a bitmask) whose labels so far match one combination, in
    signature order (cell-major, label-minor).  An option's label j covers
    the vertices whose coordinate it labels j, an OR of per-coordinate
    masks; the new cells are each old
    cell ANDed with each label's mask, and the scan drops any prefix with
    more cells than g has vertices or with an empty cell.
    `density(f, key, spend)` is asked when an option of f first survives a
    prefix; entry t of `ceilings(f, vals)` bounds the density of any
    option of f with t labels.

    Branch and bound: let P be the fewest vertices of g in a cell of a
    prefix, its smallest bit count.  Every final cell needs a vertex, so the
    label counts t_j of the factors still to come multiply to at most P, and
    each t_j is at most h_j, the number of coordinates g takes in factor j.
    So at most min(#{j : h_j >= 2}, log2 P) of them have two or more labels,
    and their densities add up to at most the best sum of ceilings, a table
    kept per scan and keyed by (factor, P).  An option is cut when no
    wanted maximum can still strictly beat the best so far: checked first
    with P <= |V(g)| // (cells * t) and the option's density if known, else
    its ceiling, then with the P its cells give.  A cut leaf could at best
    tie, so witnesses and exact results are those of the full scan.
    Densities are integers scaled by lcm(1..max h_j), which divides every
    denominator met.

    `spend` charges the budget, which counts work: |V(g)| units per option
    tried on a prefix, cut or not, |V(f)| + |V(g)| per option of f built,
    and what `options` and `density` charge; the bound's own work is not
    charged.  A scan that runs out is inexact.  Inner factors keep their
    options, with the labels of f's vertices as bytes, for the next prefix.
    """
    n, m = len(vertices), len(factors)
    left = budget

    def spend(units: int) -> None:
        nonlocal left
        left -= units
        if left < 0:
            raise _BudgetSpent

    # coord_masks[i][c]: the vertices of g with coordinate c in factor i, one
    # bit each in g.vertices order
    coord_masks: list[dict[int, int]] = []
    for i in range(m):
        masks, bit = {}, 1
        for v in vertices:
            masks[v[i]] = masks.get(v[i], 0) | bit
            bit <<= 1
        coord_masks.append(masks)
    vals = [frozenset(masks) for masks in coord_masks]
    h = [len(masks) for masks in coord_masks]
    wide = [0] * (m + 1)  # wide[i]: factors i.. with h >= 2
    for i in reversed(range(m)):
        wide[i] = wide[i + 1] + (h[i] >= 2)
    scale, caps = 1, []  # caps[i][t]: the ceiling of factor i at t labels, scaled
    if density is not None and n:
        scale = lcm(*range(1, max(h) + 1))
        caps = [[c.numerator * scale // c.denominator for c in ceilings(f, vals[i])]
                for i, f in enumerate(factors)]
    table: dict[tuple[int, int], int] = {}

    def most_density(i: int, p: int) -> int:
        """The most scaled density factors i.. can add when their label
        counts multiply to at most p."""
        if i == m:
            return 0
        got = table.get((i, p))
        if got is None:
            row = caps[i]
            got = table[i, p] = max(row[t] + most_density(i + 1, p // t)
                                    for t in range(1, min(h[i], p) + 1))
        return got

    def hopeless(i: int, p: int, nontrivial: int, total: int) -> bool:
        """True iff no choice for factors i.. can make a wanted maximum
        beat the best so far, their label counts multiplying to at most p."""
        return ((not dims or nontrivial + min(wide[i], p.bit_length() - 1) <= d)
                and (density is None or total + most_density(i, p) <= s))

    streams = [options(f, vals[i], n, spend, lambda: left) for i, f in enumerate(factors)]
    kept: list[list] = [[] for _ in range(m)]
    combo: list = [None] * m
    d, d_combo, s, s_combo = 0, None, 0, None

    def entries(i: int) -> Iterator[list]:
        """Those kept, then new ones: [key, label of each vertex of f, t,
        scaled density]."""
        yield from kept[i]
        for key, label_of, t in streams[i]:
            spend(factors[i].n + n)
            entry = [key, bytes(label_of) if t < 256 else tuple(label_of), t,
                     None if density else 0]
            if i:
                kept[i].append(entry)
            yield entry

    def rec(i: int, cells: list[int], nontrivial: int, total: int) -> None:
        """Scan the options of factors i.. below a prefix with these cells."""
        nonlocal d, d_combo, s, s_combo
        if i == m:
            if dims and nontrivial > d:
                d, d_combo = nontrivial, tuple(combo)
            if density is not None and total > s:
                s, s_combo = total, tuple(combo)
            return
        for entry in entries(i):
            spend(n)
            key, labels, t, value = entry
            size = len(cells) * t
            if size > n:
                continue
            more = nontrivial + (t >= 2)
            most = total + (caps[i][t] if value is None else value)
            if hopeless(i + 1, n // size, more, most):
                continue
            masks = [0] * t  # label t, dropped, gets none
            for c, mask in coord_masks[i].items():
                j = labels[c]
                if j < t:
                    masks[j] |= mask
            new_cells = [cell & mask for cell in cells for mask in masks]
            if not all(new_cells):
                continue
            p = min(map(int.bit_count, new_cells))
            if value is None and not hopeless(i + 1, p, more, most):
                found = density(factors[i], key, spend)
                value = entry[3] = found.numerator * scale // found.denominator
                most = total + value
            if value is None or hopeless(i + 1, p, more, most):  # None: cut on its ceiling
                continue
            combo[i] = key
            rec(i + 1, new_cells, more, most)

    try:
        rec(0, [(1 << n) - 1], 0, 0)
        exact = True
    except _BudgetSpent:
        exact = False
    return (Found(d, d_combo, exact) if dims else None,
            None if density is None else Found(Fraction(s, scale), s_combo, exact))


# ---------------------------------------------------------------------------
# induced VC-dimension and VC-density

def _by_factor(choice: Optional[tuple]) -> Optional[dict[int, tuple[int, ...]]]:
    """An induced scan's choice as factor -> key, skipped factors left out."""
    return choice and {i: key for i, key in enumerate(choice) if key}


def _edge_options(f: FactorGraph, vals, n: int, spend, left,
                  ) -> Iterator[tuple[tuple, list[int], int]]:
    """vcd's options for f: its edges between the values `vals`, in
    `f.edges` order, ends labelled 0 and 1 and every other vertex dropped,
    then "skip"."""
    for a, b in f.edges:
        if a in vals and b in vals:
            yield (a, b), [0 if v == a else 1 if v == b else 2 for v in range(f.n)], 2
    yield (), [0] * f.n, 1  # skip the factor


def vcd_induced(g: ProductSubgraph, budget: int = DEFAULT_BUDGET) -> Found:
    """vcd, with a witness as factor -> edge: the most factors of a
    shattered cube-subproduct, from one `_scan` over `_edge_options`."""
    d, choice, exact = _scan(g.space.factors, g.vertices, budget, _edge_options, True,
                             None, None)[0]
    return Found(d, _by_factor(choice), exact)


def _subset_options(f: FactorGraph, vals, n: int, spend, left,
                    ) -> Iterator[tuple[tuple, list[int], int]]:
    """vcdens's options for f: "skip", then the connected subsets of the
    values `vals` with 2..n vertices (seed ascending, then bitmask order);
    a vertex outside the chosen subset drops out."""
    yield (), [0] * f.n, 1  # skip the factor
    for seed in sorted(vals):
        above = frozenset(v for v in vals if v >= seed)
        for s in _connected_subsets_with_seed(f, above, seed, above, spend):
            if 2 <= len(s) <= n:
                key = tuple(sorted(s))
                yield key, [key.index(v) if v in s else len(s) for v in range(f.n)], len(s)


def _subset_density(f: FactorGraph, key: tuple, spend) -> Fraction:
    """The density of f[key], `key` connected, charged 2 + |V| + |E| units
    of f[key]: their ratio when |E| <= |V|, else solved."""
    if not key:
        return Fraction(0)
    inside = frozenset(key)
    edges = sum(len(f.adj[v] & inside) for v in key) // 2
    spend(2 + len(key) + edges)
    if edges <= len(key):
        return Fraction(edges, len(key))
    return _quotient_density(induced_subgraph(f, key)[0])


def vcdens_induced(g: ProductSubgraph, budget: int = DEFAULT_BUDGET) -> Found:
    """vcdens, with a witness as factor -> subset: the largest density of a
    shattered subproduct (sum of the densities of the chosen induced
    subgraphs of the factors), from one `_scan` over `_subset_options`."""
    s, choice, exact = _scan(g.space.factors, g.vertices, budget, _subset_options, False,
                             _subset_density, _induced_ceilings)[1]
    return Found(s, _by_factor(choice), exact)


# ---------------------------------------------------------------------------
# minor VC-dimension and VC-density

def _partition_options(f: FactorGraph, hits, n: int, spend, left,
                       ) -> Iterator[tuple[bytes, bytes, int]]:
    """The minor scan's options for f: its connected partitions whose parts
    all meet `hits`, each keyed and labelled by `part_of`, replayed from
    `_stream_record` when some scan has read the stream to its end."""
    width = f.n
    record = _stream_record(f, hits) if width < 256 else None
    if record:  # replay: each option's units, then the option
        keys, counts, charges = record
        at = 0
        for t, units in zip(counts, charges):
            spend(units)
            key = keys[at:at + width]
            at += width
            yield key, key, t
        spend(charges[-1])
        return
    keys, counts, charges = bytearray(), bytearray(), array("q")
    mark = left()
    for parts in _partitions(f, hits, spend):
        key = (bytes if len(parts) < 256 else tuple)(_part_of(parts, width))
        if record is not None:
            charges.append(mark - left())
            keys += key
            counts.append(len(parts))
        yield key, key, len(parts)
        mark = left()
    if record is not None:
        charges.append(mark - left())
        record[:] = bytes(keys), bytes(counts), charges


def _partition_option_density(f: FactorGraph, part_of, spend) -> Fraction:
    """The density of the minor of f that `part_of` defines, uncharged."""
    return _partition_density(f, part_of)


def _partition_ceilings(f: FactorGraph, hits) -> tuple[Fraction, ...]:
    """The minor ceilings of f at as many labels as `hits` has values."""
    return _minor_ceilings(f, len(hits))


def minor_search(g: ProductSubgraph, budget: int = DEFAULT_BUDGET,
                 dims: bool = True, dens: bool = True,
                 ) -> tuple[Optional[Found], Optional[Found]]:
    """(vcd*, vcdens*), each witnessed by a `MinorPartition`, from one
    `_scan` over the factorwise connected partitions whose parts all meet
    the coordinates of g, each vertex labelled by the part holding its
    coordinate.  Only the wanted quantities are sought, vcd* when `dims`
    and vcdens* when `dens` (a density-free scan solves no flows); the
    others come back as None.
    The budget also counts one unit per vertex or edge read by the
    connectivity tests that build parts.

    A factor f with fewer than 256 vertices has its stream of partitions
    enumerated once per set of coordinates of g in f: a scan that reads it
    to its end stores it in `_stream_record`, at about |V(f)| + 9 bytes per
    option, and later scans replay it, charging each option's units just
    before it and the rest after the last.  Charges are never negative and
    the scan changes nothing while a stream advances, so a budget runs out
    at the option where a fresh enumeration would, and results are those
    of a fresh enumeration at every budget.

    When the budget runs out, the induced witnesses at the same budget,
    from `vcd_induced(g, budget)` and `vcdens_induced(g, budget)` (memoized
    scans, so `compute_vc_report` pays for them once), grown into
    partitions, replace the scan's witnesses they beat.  Each value is the
    one its witness reaches.
    """
    scanned = _scan(g.space.factors, g.vertices, budget, _partition_options, dims,
                    _partition_option_density if dens else None, _partition_ceilings)
    searches = ((vcd_induced, MinorPartition.nontrivial_factors),
                (vcdens_induced, MinorPartition.minor_density))
    found = []
    for best, (search, measure) in zip(scanned, searches):
        if best is not None:
            value, choice, exact = best
            witness = choice and MinorPartition(g.space, [_parts_of(po) for po in choice])
            if not exact:
                seeds = search(g, budget).witness
                grown = _seed_partition_from_edges(g, seeds)  # one part per factor if None
                if shatters_minor(g, grown) and measure(grown) > value:
                    value, witness = measure(grown), grown
            best = Found(value, witness, exact)
        found.append(best)
    return found[0], found[1]


def _seed_partition_from_edges(g: ProductSubgraph,
                               witness: Optional[dict[int, tuple[int, ...]]]) -> MinorPartition:
    """Grow a full connected partition around an induced witness by
    multi-source BFS, one part per witness vertex; unselected factors get a
    single part."""
    from collections import deque
    parts = []
    for i, f in enumerate(g.space.factors):
        seeds = sorted(witness.get(i, ())) if witness else []
        if len(seeds) < 2:
            parts.append([frozenset(range(f.n))])
            continue
        owner = {s: j for j, s in enumerate(seeds)}
        queue = deque(seeds)
        while queue:
            v = queue.popleft()
            for w in f.adj[v]:
                if w not in owner:
                    owner[w] = owner[v]
                    queue.append(w)
        parts.append(_parts_of([owner[v] for v in range(f.n)]))  # factors are connected
    return MinorPartition(g.space, parts)


# vcd_minor and vcdens_minor return (value, exact?, witness), not a `Found`:
# the benchmark's tracer (`_count_exact` in bench/tracing.py) reads result[1]
# as the exact flag, so their order changes only with the benchmark.
def vcd_minor(g: ProductSubgraph, budget: int = DEFAULT_BUDGET,
              ) -> tuple[int, bool, Optional[MinorPartition]]:
    """(vcd*, exact?, witness); see `minor_search`."""
    d, witness, exact = minor_search(g, budget, dens=False)[0]
    return d, exact, witness


def vcdens_minor(g: ProductSubgraph, budget: int = DEFAULT_BUDGET,
                 ) -> tuple[Fraction, bool, Optional[MinorPartition]]:
    """(vcdens*, exact?, witness); see `minor_search`."""
    s, witness, exact = minor_search(g, budget, dims=False)[1]
    return s, exact, witness


# ---------------------------------------------------------------------------
# combined report

def compute_vc_report(g: ProductSubgraph, budget: int = DEFAULT_BUDGET) -> dict[str, Found]:
    """The four quantities by name, every scan at `budget`.  The induced
    pair comes first, so a minor fallback finds its scans in `_scan`'s cache."""
    vcd, vcdens = vcd_induced(g, budget), vcdens_induced(g, budget)
    vcd_star, vcdens_star = minor_search(g, budget)
    return {"vcd": vcd, "vcdens": vcdens, "vcd_star": vcd_star, "vcdens_star": vcdens_star}


# ---------------------------------------------------------------------------
# independent set-system oracle for hypercube subgraphs

def vcd_set_system(g: ProductSubgraph) -> int:
    """Classical VC-dimension of the set family encoded by a hypercube
    subgraph: enumerate coordinate subsets and check all traces occur."""
    if any(f.n != 2 or f.m != 1 for f in g.space.factors):
        raise GraphError("set-system oracle applies to hypercube subgraphs only")
    m = g.space.m
    if m > 16 or g.n > 64:
        raise GraphError("set-system oracle capped at m <= 16, |V| <= 64")
    masks = {sum(1 << i for i, c in enumerate(v) if c) for v in g.vertices}
    best = 0
    cap = min(m, g.n.bit_length() - 1)
    for size in range(cap, 0, -1):
        for coords in combinations(range(m), size):
            ymask = sum(1 << i for i in coords)
            traces = {s & ymask for s in masks}
            if len(traces) == 1 << size:
                return size
    return best
