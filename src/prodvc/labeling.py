"""Adjacency labels from the degeneracy orientation (Kannan, Naor and
Rudich, "Implicit representation of graphs").

A graph of degeneracy k gets labels of (k+1) fields of w = ceil(log2(n+1))
bits each: the vertex id followed by its parents in the k degeneracy forests
of `forest_decomposition`, i.e. its out-neighbours (the value n marks a
root).  Two labels decide adjacency alone: the vertices are adjacent exactly
when one's id appears among the other's parent fields.

`encode` and `from_label_file` hand out their labels as `_Label`s, ints
that keep their split into id and parent fields after their first decode,
since each label takes part in 2n decodes of an all-pairs query.
"""

from __future__ import annotations

from dataclasses import dataclass

from .density import forest_decomposition
from .graph import FactorGraph, GraphError


def field_width(n: int) -> int:
    """Bits per field: ids 0..n-1 plus the root sentinel n.  In integers,
    ceil(log2(n+1)) is n.bit_length(); the float log2 rounds wrongly from
    n = 2**53 on."""
    return max(1, n.bit_length())


class _Label(int):
    """A label that keeps its split, (k, w, id, parent fields), once a decode
    under that layout has checked it.  It compares, hashes and prints as its
    value, and pickles as a plain int."""
    _split = (None, None, None, ())

    def __reduce__(self):
        return int, (int(self),)


@dataclass(frozen=True)
class LabelScheme:
    n: int
    k: int
    w: int
    labels: tuple[int, ...]  # labels[v] is the packed (k+1)-field value

    @property
    def bits_per_label(self) -> int:
        return (self.k + 1) * self.w


def encode(g: FactorGraph) -> LabelScheme:
    """Labels for g from its degeneracy forests (k = degeneracy(g) <= mad)."""
    if g.n == 0:
        raise GraphError("empty graph")
    fd = forest_decomposition(g)
    w = field_width(g.n)
    labels = []
    for v in range(g.n):
        value = v
        for forest in fd.parents:
            value = (value << w) | forest[v]
        labels.append(_Label(value))
    return LabelScheme(n=g.n, k=fd.k, w=w, labels=tuple(labels))


def decode(label_x: int, label_y: int, k: int, w: int) -> bool:
    """Adjacency from two labels alone: true iff one id is a parent field of
    the other.  Root sentinels never collide with an id, since every id is
    below the sentinel value."""
    # No comprehension, generator or nested function here: any of them makes
    # k and w cell variables, which slows every call of a warm all-pairs loop.
    if type(label_x) is _Label and type(label_y) is _Label:
        kx, wx, x, px = label_x._split
        ky, wy, y, py = label_y._split
        if kx == k == ky and wx == w == wy:
            return (y in px or x in py) and x != y
    return _split_and_decode(label_x, label_y, k, w)


def _split_and_decode(label_x: int, label_y: int, k: int, w: int) -> bool:
    """decode for every label its fast path misses (plain ints, mixed pairs,
    _Labels last split under another layout): check both labels, split each
    into id and parent fields under (k, w), and keep the split only on a
    _Label."""
    both = label_x | label_y  # negative iff either label is
    if both < 0:
        raise GraphError("labels are nonnegative integers")
    top = k * w
    if both >> (top + w):
        raise GraphError("label too long for the declared field layout")
    mask = (1 << w) - 1
    x, y = label_x >> top, label_y >> top
    px, py = (frozenset(label >> i * w & mask for i in range(k)) for label in (label_x, label_y))
    for label, split in ((label_x, (k, w, x, px)), (label_y, (k, w, y, py))):
        if type(label) is _Label:
            label._split = split
    return (y in px or x in py) and x != y


# ---------------------------------------------------------------------------
# label file format: "n k w" header, then one "vertex_id hexstring" per line

def to_label_file(scheme: LabelScheme) -> str:
    bits = scheme.bits_per_label
    hexlen = -(-bits // 4)
    pad = 4 * hexlen - bits
    lines = [f"{scheme.n} {scheme.k} {scheme.w}"]
    for v, label in enumerate(scheme.labels):
        lines.append(f"{v} {label << pad:0{hexlen}x}")
    return "\n".join(lines) + "\n"


def from_label_file(text: str) -> LabelScheme:
    rows = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    rows = [r for r in rows if r]
    if not rows:
        raise GraphError("empty label file")
    try:
        n, k, w = map(int, rows[0].split())
    except ValueError:
        raise GraphError("malformed label file header")
    if n < 1:  # encode labels no empty graph
        raise GraphError(f"label file header declares {n} vertices, need at least 1")
    if k < 0 or w < 1:
        raise GraphError(f"bad field layout in label file header: k={k}, w={w}")
    if len(rows) - 1 != n:
        raise GraphError(f"header says {n} labels, found {len(rows) - 1}")
    bits = (k + 1) * w
    hexlen = -(-bits // 4)
    if hexlen > len(text):  # before a w-bit mask is built from the header alone
        raise GraphError(f"field layout k={k}, w={w} needs {hexlen} hex digits per label, "
                         f"more than the file holds")
    pad = 4 * hexlen - bits
    top = bits - w
    mask = (1 << w) - 1
    shifts = range(top - w, -1, -w)  # the k parent fields, forest 0 first
    labels = [0] * n
    seen = set()
    full = False
    for row in rows[1:]:
        parts = row.split()
        if len(parts) != 2:
            raise GraphError(f"malformed label line: {row!r}")
        try:
            v, label = int(parts[0]), int(parts[1], 16)
        except ValueError:
            raise GraphError(f"malformed label line: {row!r}")
        if not (0 <= v < n) or v in seen:
            raise GraphError(f"bad or repeated vertex id {v}")
        if len(parts[1]) != hexlen:
            raise GraphError(f"label for {v} has {len(parts[1])} hex digits, want {hexlen}")
        # int(_, 16) also takes a sign, a 0x prefix and underscores
        if parts[1].strip("0123456789abcdefABCDEF"):
            raise GraphError(f"label for {v} is not a string of hex digits")
        if label & ((1 << pad) - 1):
            raise GraphError(f"label for {v} has nonzero pad bits")
        label >>= pad
        if label >> top != v:
            raise GraphError(f"label on line {v} carries vertex id {label >> top}")
        # encode writes v's later neighbours by increasing id, then the
        # root value n in every field left
        prev = -1
        for shift in shifts:
            p = label >> shift & mask
            if p > n or p == v or p <= prev and p != n:
                raise GraphError(f"label for {v}: parent fields must be increasing ids "
                                 f"below {n} other than {v}, then {n} in every field left")
            prev = p
        full = full or prev < n
        seen.add(v)
        labels[v] = _Label(label)
    if k and not full:
        raise GraphError(f"no label fills all {k} parent fields")
    return LabelScheme(n=n, k=k, w=w, labels=tuple(labels))


def decoded_graph(scheme: LabelScheme) -> FactorGraph:
    """The graph the labels describe, reconstructed pairwise."""
    labels, k, w = scheme.labels, scheme.k, scheme.w
    edges = [(u, v) for u in range(scheme.n) for v in range(u + 1, scheme.n)
             if decode(labels[u], labels[v], k, w)]
    return FactorGraph(scheme.n, edges)
