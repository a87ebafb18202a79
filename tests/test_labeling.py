import math
import random

import pytest

from prodvc.density import mad
from prodvc.graph import (FactorGraph, GraphError, complete_graph, cycle_graph,
                          degeneracy_ordering, path_graph)
from prodvc.labeling import (decode, decoded_graph, encode, field_width,
                             from_label_file, to_label_file)


def random_graph(rng, n_max=20):
    n = rng.randint(1, n_max)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.2]
    return FactorGraph(n, edges)


def test_field_width():
    assert field_width(1) == 1
    assert field_width(7) == 3
    assert field_width(8) == 4  # needs to hold the sentinel value 8


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
        header = text.splitlines()[0].split()
        assert [int(x) for x in header] == [scheme.n, scheme.k, scheme.w]


def test_label_file_errors():
    with pytest.raises(GraphError):
        from_label_file("")
    with pytest.raises(GraphError):
        from_label_file("2 1 2\n0 0\n")  # missing a label line
    with pytest.raises(GraphError):
        from_label_file("1 0 1\n0 zz\n")
    with pytest.raises(GraphError):
        from_label_file("2 0 1\n0 0\n0 1\n")  # repeated vertex
    for bad in ("1 0 1\nz 00\n", "1 0 1\nz 0\n", "1 0 1\n0 z\n",
                "2 -2 -1\n0 0\n1 8\n"):  # negative k and w pass the digit count
        with pytest.raises(GraphError):
            from_label_file(bad)


def test_empty_graph_rejected():
    with pytest.raises(GraphError):
        encode(FactorGraph(0, []))
