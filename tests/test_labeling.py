import copy
import hashlib
import json
import math
import pickle
import random

import pytest

from prodvc.density import mad
from prodvc.graph import (FactorGraph, GraphError, complete_graph, cycle_graph,
                          degeneracy_ordering, path_graph)
from prodvc.labeling import (LabelScheme, _Label, decode, decoded_graph, encode,
                             field_width, from_label_file, to_label_file)


def random_graph(rng, n_max=20):
    n = rng.randint(1, n_max)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.2]
    return FactorGraph(n, edges)


def test_field_width():
    assert field_width(1) == 1
    assert field_width(7) == 3
    assert field_width(8) == 4  # needs to hold the sentinel value 8
    # past 2**53 the float log2 of n + 1 rounds down to an integer
    assert field_width(2 ** 53) == 54
    assert field_width(2 ** 53 + 1) == 54
    assert field_width(2 ** 60) == 61
    for n in range(2 ** 12):
        w = field_width(n)
        assert w >= 1 and 2 ** w > n and (w == 1 or 2 ** (w - 1) <= n)


def test_decode_recovers_small_graphs():
    for g in (path_graph(5), cycle_graph(6), complete_graph(5)):
        scheme = encode(g)
        assert decoded_graph(scheme) == g


def test_decode_recovers_random_graphs():
    rng = random.Random(6)
    for _ in range(60):
        g = random_graph(rng)
        scheme = encode(g)
        assert decoded_graph(scheme) == g


def test_label_sizes_and_forest_count():
    rng = random.Random(9)
    for _ in range(40):
        g = random_graph(rng)
        scheme = encode(g)
        w = field_width(g.n)
        assert scheme.w == w
        assert scheme.bits_per_label == (scheme.k + 1) * w
        for label in scheme.labels:
            assert label.bit_length() <= scheme.bits_per_label
        _, degeneracy = degeneracy_ordering(g)
        assert scheme.k == degeneracy
        if g.n >= 2:
            assert degeneracy <= math.floor(mad(g))


def test_decode_is_irreflexive_and_symmetric():
    g = complete_graph(4)
    s = encode(g)
    for v in range(4):
        assert not decode(s.labels[v], s.labels[v], s.k, s.w)
    for u in range(4):
        for v in range(4):
            assert (decode(s.labels[u], s.labels[v], s.k, s.w)
                    == decode(s.labels[v], s.labels[u], s.k, s.w))


def field_list_decode(label_x, label_y, k, w):
    """decode by the definition: split each label into its id and k fields."""
    if min(label_x, label_y) < 0:
        raise GraphError("labels are nonnegative integers")
    ids, fields = [], []
    for label in (label_x, label_y):
        parents = []
        for _ in range(k):
            label, field = divmod(label, 2 ** w)
            parents.append(field)
        if label >= 2 ** w:
            raise GraphError("label too long for the declared field layout")
        ids.append(label)
        fields.append(parents)
    return ids[0] != ids[1] and (ids[0] in fields[1] or ids[1] in fields[0])


def outcome(decoder, x, y, k, w):
    try:
        return decoder(x, y, k, w)
    except GraphError as exc:
        return str(exc)


def test_decode_matches_field_list_oracle():
    # plain ints, and labels as encode hands them out: decoded cold, when
    # each keeps its split, and again from the kept splits
    rng = random.Random(12)

    def with_field(label, i, value, w):
        return label & ~(((1 << w) - 1) << (i * w)) | value << (i * w)

    seen = set()
    for k in range(7):
        for w in range(1, 10):
            bits = (k + 1) * w
            exact = 1 << (bits - 1)  # lowest label of exactly `bits` bits
            for _ in range(60):
                x, y = rng.getrandbits(bits), rng.getrandbits(bits)
                ids = (x >> (k * w), y >> (k * w))
                pairs = [(x, y), (x, x), (x | exact, y), (x, y | exact),
                         (x | exact << 1, y), (x, y | exact << 1),
                         (-1 - x, y), (x, -1 - y), (-1 - x, -1 - y),
                         (-1 - x, y | exact << 1)]
                if k and ids[0] != ids[1]:
                    pairs += [(with_field(x, 0, ids[1], w), y),
                              (x, with_field(y, 0, ids[0], w)),
                              (with_field(x, k - 1, ids[1], w), y),
                              (x, with_field(y, k - 1, ids[0], w))]
                for a, b in pairs:
                    want = outcome(field_list_decode, a, b, k, w)
                    assert outcome(decode, a, b, k, w) == want, (a, b, k, w)
                    la = _Label(a)
                    lb = la if a == b else _Label(b)
                    for _ in range(2):
                        assert outcome(decode, la, lb, k, w) == want, (a, b, k, w)
                        assert outcome(decode, lb, la, k, w) == want, (b, a, k, w)
                    seen.add(want)
    assert seen == {True, False, "labels are nonnegative integers",
                    "label too long for the declared field layout"}


def test_labels_are_checked_again_under_a_new_layout():
    # a label keeps the split of the last layout that checked it; another
    # layout runs the checks again, and may find the label too long for it
    rng = random.Random(23)
    for g in (complete_graph(4), cycle_graph(9), random_graph(rng, 30)):
        s = encode(g)
        k, w = s.k, s.w
        layouts = [(k, w), (k - 1, w), (k, w), (k + 1, w), (k, w + 1), (0, w),
                   ((k + 1) * w - 1, 1), (k, w), (k, 0)]
        seen = set()
        for x in range(g.n):
            for y in range(g.n):
                for kk, ww in layouts:
                    want = outcome(field_list_decode, s.labels[x], s.labels[y], kk, ww)
                    assert outcome(decode, s.labels[x], s.labels[y], kk, ww) == want
                    # one label that keeps a split beside a plain int
                    assert outcome(decode, s.labels[x], int(s.labels[y]), kk, ww) == want
                    seen.add(want)
        assert seen == {True, False, "label too long for the declared field layout"}
        assert decoded_graph(s) == g
    zero = _Label(0)
    assert decode(zero, zero, 3, 0) is False
    assert field_list_decode(0, 0, 3, 0) is False


# sha256 of every file in _golden_corpus(), and of the file each reads back
# as, written by the labeling code before labels kept their split
GOLDEN_LABEL_FILES = "73ff6ef18cfa0d349060a947d6cd81bc8764b702be30a8c8e61aa8c4d7f46b5e"


def _golden_corpus():
    rng = random.Random(23)
    graphs = [path_graph(9), cycle_graph(7), complete_graph(6)]
    for _ in range(40):
        n = rng.randint(1, 40)
        p = rng.choice((0.05, 0.2, 0.5))
        graphs.append(FactorGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                      if rng.random() < p]))
    return graphs


def test_labels_stay_ints_to_every_consumer():
    digest = hashlib.sha256()
    for g in _golden_corpus():
        scheme = encode(g)
        text = to_label_file(scheme)
        back = from_label_file(text)
        digest.update(text.encode())
        digest.update(to_label_file(back).encode())
        for s in (scheme, back):
            assert decoded_graph(s) == g  # every label now keeps its split
            values = [int(label) for label in s.labels]
            assert {type(label) for label in pickle.loads(pickle.dumps(s.labels))} == {int}
            assert pickle.loads(pickle.dumps(s.labels)) == s.labels
            assert copy.deepcopy(s) == s == scheme
            assert json.dumps(list(s.labels)) == json.dumps(values)
            assert list(map(hash, s.labels)) == list(map(hash, values))
            assert [str(label) for label in s.labels] == [str(v) for v in values]
            assert to_label_file(LabelScheme(s.n, s.k, s.w, tuple(values))) == text
    assert digest.hexdigest() == GOLDEN_LABEL_FILES


def test_decode_validates_length():
    with pytest.raises(GraphError):
        decode(1 << 40, 0, 1, 3)
    with pytest.raises(GraphError):
        decode(-1, 0, 1, 3)


def test_label_file_roundtrip():
    rng = random.Random(4)
    for _ in range(20):
        g = random_graph(rng)
        scheme = encode(g)
        text = to_label_file(scheme)
        back = from_label_file(text)
        assert back == scheme
        assert to_label_file(back) == text
        header = text.splitlines()[0].split()
        assert [int(x) for x in header] == [scheme.n, scheme.k, scheme.w]
    for _ in range(200):  # every file encode writes loads, whatever the density
        n = rng.randint(1, 40)
        p = rng.choice((0.05, 0.2, 0.5, 0.9))
        text = to_label_file(encode(FactorGraph(n, [(u, v) for u in range(n)
                                                    for v in range(u + 1, n)
                                                    if rng.random() < p])))
        assert to_label_file(from_label_file(text)) == text


def _label_file(n, k, rows):
    """A label file with header n k field_width(n) and the given parent
    fields on line v, packed and padded as encode's files are."""
    w = field_width(n)
    labels = []
    for v, parents in enumerate(rows):
        for p in parents:
            v = v << w | p
        labels.append(v)
    return to_label_file(LabelScheme(n=n, k=k, w=w, labels=tuple(labels)))


def test_label_file_errors():
    with pytest.raises(GraphError):
        from_label_file("")
    with pytest.raises(GraphError):
        from_label_file("2 1 2\n0 0\n")  # missing a label line
    with pytest.raises(GraphError):
        from_label_file("1 0 1\n0 zz\n")
    with pytest.raises(GraphError):
        from_label_file("2 0 1\n0 0\n0 1\n")  # repeated vertex
    k2 = "2 1 2\n0 1\n1 6\n"
    p8 = "8 1 4\n0 01\n1 12\n2 23\n3 34\n4 45\n5 56\n6 67\n7 78\n"
    # encode writes each vertex's later neighbours by increasing id, then
    # the root value n, and some vertex fills all k = degeneracy fields
    k3 = _label_file(3, 2, [[1, 2], [2, 3], [3, 3]])
    for good, graph in ((k2, complete_graph(2)), (p8, path_graph(8)), (k3, complete_graph(3))):
        assert to_label_file(encode(graph)) == good
        assert to_label_file(from_label_file(good)) == good
    # int(_, 16) takes signed strings, and these pass the digit count
    signed = [p8.replace("0 01", f"0 {label}") for label in ("+1", "-1", "-0")]
    parent_layouts = [
        "2 1 2\n0 3\n1 6\n",  # a parent above the root value 2
        _label_file(2, 1, [[1], [3]]),  # the same, beside a label that fills k
        "2 3 2\n0 05\n1 6a\n",  # k above the degeneracy, a repeated parent
        _label_file(3, 2, [[0, 2], [2, 3], [3, 3]]),  # 0 is its own parent
        _label_file(3, 2, [[2, 1], [2, 3], [3, 3]]),  # parents out of order
        _label_file(3, 2, [[1, 1], [2, 3], [3, 3]]),  # a repeated parent
        _label_file(3, 2, [[1, 2], [3, 2], [3, 3]]),  # a parent after a root
        _label_file(3, 3, [[1, 2, 3], [2, 3, 3], [3, 3, 3]])]  # none fills k
    for bad in ["1 0 1\nz 00\n", "1 0 1\nz 0\n", "1 0 1\n0 z\n",
                "2 -2 -1\n0 0\n1 8\n",  # negative k and w pass the digit count
                "2 1 2\n0 6\n1 4\n",  # line 0 carries id 1
                "1 0 3\n0 1\n"] + signed + parent_layouts:  # a nonzero pad bit, signed labels
        with pytest.raises(GraphError):
            from_label_file(bad)


def test_empty_graph_rejected():
    with pytest.raises(GraphError):
        encode(FactorGraph(0, []))
