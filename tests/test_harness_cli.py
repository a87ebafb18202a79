import json
import os
import random
import re
import resource
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from prodvc.cli import build_parser, main
from prodvc.density import densest_subgraph
from prodvc.graph import (EDGELIST_VERTEX_CAP, FactorGraph, GraphError, complete_graph,
                          from_edgelist, path_graph, to_edgelist)
from prodvc.harness import (FAMILIES, GeneratorSpec, _json_text, check_density_sum,
                            check_thm4, fuzz_records,
                            generate, instance_digest, random_factor,
                            report_to_json, resolve_mu, run_suite)
from prodvc.labeling import decode, encode, from_label_file, to_label_file
from prodvc.products import (ProductSpace, ProductSubgraph, Subproduct,
                             instance_from_json, instance_to_json, octahedron)
from prodvc.vc import MinorPartition, shatters_minor, shatters_subproduct


def test_generator_families_and_determinism():
    rng = random.Random(0)
    for family in FAMILIES:
        f = random_factor(rng, family, 6)
        assert f.n >= 2
    spec = GeneratorSpec(family="path", m=2, factor_size=4, seed=7)
    a_space, a_g = generate(spec)
    b_space, b_g = generate(spec)
    assert a_space.factors == b_space.factors
    assert a_g.vertices == b_g.vertices


def test_generated_chordal_factors_are_chordal():
    from prodvc.classes import chordal_certificate
    rng = random.Random(3)
    for _ in range(30):
        f = random_factor(rng, "chordal", 7)
        assert chordal_certificate(f).chordal


def test_report_determinism_and_schema():
    def stripped(text):
        doc = json.loads(text)
        for rec in doc["records"]:
            rec.pop("runtime")
        return doc

    a = report_to_json(run_suite("thm4", trials=5, seed=11))
    b = report_to_json(run_suite("thm4", trials=5, seed=11))
    assert stripped(a) == stripped(b)  # deterministic apart from timings
    doc = json.loads(a)
    assert doc["schema"] == "prodvc-report-1"
    assert set(doc["counts"]) == {"holds", "violated", "inconclusive"}
    for rec in doc["records"]:
        assert rec["verdict"] in ("holds", "violated", "inconclusive")
        assert set(rec) >= {"claim", "instance", "lhs", "rhs", "runtime"}
    digests = [r["instance"] for r in doc["records"]]
    assert digests == sorted(digests)


def test_all_suites_have_no_violations():
    for suite in ("thm4", "thm5", "lemmas", "classes", "labels"):
        recs = run_suite(suite, trials=8, seed=5)
        assert recs
        assert not [r for r in recs if r.verdict == "violated"], suite


def test_counting_split_records_are_computed(monkeypatch):
    """Lem10/Lem16 judge the vertex split of each step they get, so a step
    whose counts do not add up is reported violated (with or without -O)."""
    import dataclasses
    from prodvc import reductions

    def broken(reduce):
        # the whole graph as the centers: |V(g)| < contracted + centers
        return lambda *args: dataclasses.replace(reduce(*args), g_link_centers=args[0])

    honest = {(r.claim, r.verdict) for r in run_suite("lemmas", trials=4, seed=3)}
    assert {("Lem10", "holds"), ("Lem16", "holds")} <= honest
    monkeypatch.setattr(reductions, "reduce_edge", broken(reductions.reduce_edge))
    monkeypatch.setattr(reductions, "reduce_opposite_pair",
                        broken(reductions.reduce_opposite_pair))
    records = [r for r in run_suite("lemmas", trials=4, seed=3)
               if r.claim in ("Lem10", "Lem16")]
    assert {r.claim for r in records} == {"Lem10", "Lem16"}
    assert all(r.verdict == "violated" and int(r.lhs) < int(r.rhs) for r in records)


def test_bounded_vcd_makes_failed_comparisons_inconclusive(monkeypatch):
    """Thm1, Prop13 and Cor14/Prop15 compare |E|/|V| with a multiple of
    vcd; a bounded vcd is only a lower bound, so a failed comparison is
    "violated" only when vcd is exact."""
    from prodvc import harness
    cube = ProductSubgraph(ProductSpace([path_graph(2)] * 3),
                           [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)])
    grid = ProductSpace([path_graph(3), path_graph(3)]).materialize()
    checks = (lambda: harness.check_hypercube_bound(cube),
              lambda: harness.check_elimination_bound(grid),
              lambda: harness.check_clique_bound(grid, "chordal"))
    assert [check().verdict for check in checks] == ["holds"] * 3
    for exact, verdict in ((False, "inconclusive"), (True, "violated")):
        monkeypatch.setattr(harness, "vcd_induced", lambda g: (0, None, exact))
        records = [check() for check in checks]
        assert [r.claim for r in records] == ["Thm1", "Prop13", "Cor14"]
        assert all(r.verdict == verdict and r.detail["vcd_exact"] is exact
                   for r in records)


def test_bounded_vcd_star_and_dd_follow_the_one_verdict_rule(monkeypatch):
    """Thm5 (|E|/|V| <= mu*vcd*) holds on a bounded vcd* but is never
    violated by one; Lem8 (2^vcd* <= |V|) is violated by a bounded vcd* but
    never holds on one; DD-sum on an inexact elimination order settles
    nothing."""
    from prodvc import harness
    from prodvc.classes import ProductEliminationReport
    grid = ProductSpace([path_graph(3), path_graph(3)])  # |E|/|V| = 4/3, |V| = 9
    for d, exact, thm5, lem8 in ((0, False, "inconclusive", "inconclusive"),
                                 (4, False, "holds", "violated"),
                                 (0, True, "violated", "holds"),
                                 (4, True, "holds", "violated")):
        monkeypatch.setattr(harness, "vcd_minor", lambda g: (d, exact, None))
        records = harness.check_mu_bound(grid.materialize(), 1)
        assert [(r.claim, r.verdict) for r in records] == [("Thm5", thm5), ("Lem8", lem8)]
    for dd_subgraph, exact, verdict in ((2, False, "inconclusive"), (1, False, "inconclusive"),
                                        (2, True, "holds"), (1, True, "violated")):
        report = ProductEliminationReport((), 2, dd_subgraph, exact)
        monkeypatch.setattr(harness, "product_elimination_report", lambda g: report)
        assert harness.check_dd_sum(grid).verdict == verdict


def test_resolve_mu():
    assert resolve_mu("tree") == 2
    assert resolve_mu("planar") == 6
    assert resolve_mu("K4-minor-free") == 4
    assert resolve_mu(3) == 3
    assert resolve_mu("3") == resolve_mu(" 3 ") == 3
    with pytest.raises(Exception):
        resolve_mu("bogus")
    with pytest.raises(Exception):
        resolve_mu(0)


def test_single_checks():
    rec = check_density_sum([path_graph(3), complete_graph(3)])
    assert rec.verdict == "holds" and rec.claim == "Lem2"
    sp = ProductSpace([path_graph(3), path_graph(3)])
    g = sp.materialize()
    assert [(r.claim, r.verdict) for r in check_thm4(g)] == [("Thm4", "holds"),
                                                             ("Thm4-split", "holds")]
    one = ProductSubgraph(sp, [(0, 0)])
    assert [(r.claim, r.verdict) for r in check_thm4(one)] == [  # vacuous single vertex
        ("Thm4", "holds"), ("Thm4-split", "holds")]


def test_fuzz_archives_reproducers():
    sp = ProductSpace([path_graph(3), path_graph(3)])
    recs, violations = fuzz_records(sp, 200, seed=0)
    assert recs[0].claim == "Conj3"
    for v in violations:
        from prodvc.products import instance_from_json
        g = instance_from_json(v["instance"])
        assert instance_digest(g) == v["digest"]
    # discoveries are flagged but never 'violated'
    assert recs[0].verdict in ("holds", "inconclusive")


# ---------------------------------------------------------------------------
# CLI

@pytest.fixture
def k4_file(tmp_path):
    p = tmp_path / "k4.txt"
    p.write_text(to_edgelist(complete_graph(4)))
    return str(p)


@pytest.fixture
def instance_file(tmp_path):
    sp = ProductSpace([path_graph(3), path_graph(3)])
    g = ProductSubgraph(sp, [(0, 0), (1, 0), (1, 1), (2, 0), (2, 2)])
    p = tmp_path / "inst.json"
    p.write_text(instance_to_json(g))
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_cli_density(capsys, k4_file):
    code, doc = run_cli(capsys, "density", k4_file)
    assert code == 0
    assert doc["density"] == {"exact": "3/2", "approx": 1.5}
    assert doc["schema"] == "prodvc-report-1"


def test_cli_arboricity_and_orient(capsys, k4_file):
    code, doc = run_cli(capsys, "arboricity", k4_file)
    assert code == 0 and doc["arboricity"] == 2
    code, doc = run_cli(capsys, "orient", "--max-outdegree", "2", k4_file)
    assert code == 0 and len(doc["arcs_tail_head"]) == 6
    code, _ = run_cli(capsys, "orient", "--max-outdegree", "1", k4_file)
    assert code == 2


def test_cli_vcd(capsys, instance_file):
    code, doc = run_cli(capsys, "vcd", instance_file, "--minor")
    assert code == 0
    assert doc["vcd"] == 1 and doc["vcd_star"] == 2
    assert doc["vcdens_star"]["exact"] == "1/1"
    assert doc["vcd_star_witness"] == [[[0, 1], [2]], [[0], [1, 2]]]


def test_cli_vcd_long_path_products(capsys, tmp_path):
    # P12 x K2 scans completely; P22 x K2 stops at the scan budget and keeps
    # the induced witness grown into a partition
    for k, density, exact in ((12, "17/12", True), (22, "16/11", False)):
        g = ProductSpace([path_graph(k), complete_graph(2)]).materialize()
        p = tmp_path / f"p{k}k2.json"
        p.write_text(instance_to_json(g))
        code, doc = run_cli(capsys, "vcd", str(p), "--minor")
        assert code == 0
        assert (doc["vcd"], doc["vcd_star"]) == (2, 2)
        assert doc["vcdens"]["exact"] == doc["vcdens_star"]["exact"] == density
        assert doc["vcd_star_exact"] is doc["vcdens_star_exact"] is exact
        d_mp = MinorPartition(g.space, doc["vcd_star_witness"])
        s_mp = MinorPartition(g.space, doc["vcdens_star_witness"])
        assert shatters_minor(g, d_mp) and d_mp.nontrivial_factors() == 2
        assert shatters_minor(g, s_mp) and s_mp.minor_density() == Fraction(density)


def test_cli_vcd_small_subgraph_of_long_factor(capsys, tmp_path):
    # four vertices of P1200 x K2: the scan builds parts of the 1200-vertex
    # path without recursing and stops at its budget, which bounds that work
    sp = ProductSpace([path_graph(1200), complete_graph(2)])
    for verts, known in (([(0, 0), (400, 1), (800, 0), (1199, 1)], None),
                         ([(600, 0), (600, 1), (601, 0), (601, 1)], (2, "1/1"))):
        g = ProductSubgraph(sp, verts)
        p = tmp_path / "long.json"
        p.write_text(instance_to_json(g))
        code, doc = run_cli(capsys, "vcd", str(p), "--minor")
        assert code == 0
        assert doc["vcd_star_exact"] is doc["vcdens_star_exact"] is False
        d, s = doc["vcd_star"], Fraction(doc["vcdens_star"]["exact"])
        assert d >= doc["vcd"] and s >= Fraction(doc["vcdens"]["exact"])
        if known:  # two coordinates per factor: no partition does better
            assert (d, doc["vcdens_star"]["exact"]) == known
        d_mp = MinorPartition(sp, doc["vcd_star_witness"])
        s_mp = MinorPartition(sp, doc["vcdens_star_witness"])
        assert shatters_minor(g, d_mp) and d_mp.nontrivial_factors() == d
        assert shatters_minor(g, s_mp) and s_mp.minor_density() == s


def test_cli_vcd_on_a_large_hamming_subgraph(capsys, tmp_path):
    # 300 vertices of K8^5: vcd comes from the budgeted scan, exact at the
    # default budget; a small budget gives a bounded vcd that its witness
    # reaches, if it has one
    sp = ProductSpace([complete_graph(8)] * 5)
    g = ProductSubgraph(sp, random.Random(8).sample(list(sp.vertices()), 300))
    p = tmp_path / "k8_5.json"
    p.write_text(instance_to_json(g))
    code, doc = run_cli(capsys, "vcd", str(p))
    assert code == 0 and doc["vcd_exact"] is True
    full = doc["vcd"]
    for budget in ("1000", "300000"):
        code, doc = run_cli(capsys, "vcd", str(p), "--budget", budget)
        assert code == 0 and doc["vcd_exact"] is False and doc["vcd"] <= full
        witness = doc["vcd_witness"]
        assert (witness is None) == (doc["vcd"] == 0)
        if witness:
            sub = Subproduct(sp, {int(i): tuple(e) for i, e in witness.items()})
            assert len(witness) == doc["vcd"] and shatters_subproduct(g, sub)


def test_cli_reduce(capsys, instance_file):
    code, doc = run_cli(capsys, "reduce", instance_file,
                        "--factor", "0", "--edge", "0,1")
    assert code == 0
    assert set(doc["graphs"]) == {"input", "contracted", "link",
                                  "link_centers", "link_tips"}
    assert doc["edge_groups"]["created"] >= 0
    code, _ = run_cli(capsys, "reduce", instance_file, "--factor", "0",
                      "--edge", "nonsense")
    assert code == 2


def test_cli_classify(capsys, k4_file):
    code, doc = run_cli(capsys, "classify", k4_file)
    assert code == 0
    assert doc == {"schema": "prodvc-report-1", "chordal": True,
                   "dismantlable": True, "suboctahedron": True, "dd": 3,
                   "omega": 4, "degeneracy": 3}


def test_cli_label_roundtrip(capsys, tmp_path, k4_file):
    labels = str(tmp_path / "k4.labels")
    code, _ = run_cli(capsys, "label", "encode", k4_file, "--out", labels)
    assert code == 0
    code, doc = run_cli(capsys, "label", "decode", labels, "0", "3")
    assert code == 0 and doc["adjacent"] is True
    code, doc = run_cli(capsys, "label", "decode", labels, "1", "1")
    assert code == 0 and doc["adjacent"] is False


def test_cli_label_decode_rejects_labels_encode_never_writes(capsys, tmp_path):
    # every label has the right digit count and parses with int(_, 16)
    p8 = "8 1 4\n0 01\n1 12\n2 23\n3 34\n4 45\n5 56\n6 67\n7 78\n"
    cases = [("2 1 2\n0 6\n1 4\n", "0", "1"),  # line 0 carries id 1
             ("1 0 3\n0 1\n", "0", "0"),  # a nonzero pad bit
             (p8.replace("0 01", "0 +1"), "0", "1"),  # a signed hex string
             (p8.replace("0 01", "0 -1"), "2", "3"),
             ("2 1 2\n0 3\n1 6\n", "0", "1"),  # a parent above the sentinel
             ("2 3 2\n0 05\n1 6a\n", "0", "1")]  # k above the degeneracy
    for idx, (text, x, y) in enumerate(cases):
        p = tmp_path / f"tampered{idx}.labels"
        p.write_text(text)
        assert main(["label", "decode", str(p), x, y]) == 2, text
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


def test_cli_exits_2_on_bad_labels_and_arguments(capsys, tmp_path, k4_file):
    labels = tmp_path / "k4.labels"
    assert main(["label", "encode", k4_file, "--out", str(labels)]) == 0
    good = labels.read_text()
    assert good.startswith("4 3 3\n0 053\n")
    cases = [(["label", "decode", str(labels), "0", "4"], "vertices must lie in 0..3"),
             (["label", "decode", str(labels), "-1", "0"], "vertices must lie in 0..3"),
             (["orient", "--max-outdegree", "-1", k4_file], "infeasible, density exceeds -1"),
             (["fuzz-conj3", "--spaces", "bogus", "--trials", "1"],
              "unknown space 'bogus'; choose from p3p3, p4p3, p4p4")]
    for idx, (text, message) in enumerate((
            (good.replace("4 3 3", "4 3"), "malformed label file header"),
            (good.replace("4 3 3", "4 3 x"), "malformed label file header"),
            (good.replace("0 053", "0 053 1"), "malformed label line: '0 053 1'"),
            (good.replace("0 053", "0"), "malformed label line: '0'"),
            (good.replace("0 053", "0 0053"), "label for 0 has 4 hex digits, want 3"),
            (good.replace("0 053", "0 53"), "label for 0 has 2 hex digits, want 3"),
            (good.replace("4 3 3", "4 3 99999999999"),  # no 12.5 GB mask from the header
             "field layout k=3, w=99999999999 needs 99999999999 hex digits per label, "
             "more than the file holds"),
            ("0 0 1\n", "label file header declares 0 vertices, need at least 1"))):
        p = tmp_path / f"bad{idx}.labels"
        p.write_text(text)
        cases.append((["label", "decode", str(p), "1", "2"], message))
    latin1 = tmp_path / "latin1.labels"  # any input file that is not UTF-8
    latin1.write_bytes(b"\xff" + good.encode())
    for argv in (["density", str(latin1)], ["label", "decode", str(latin1), "0", "1"]):
        cases.append((argv, f"{latin1}: not UTF-8 text (invalid start byte at byte 0)"))
    for argv, message in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n", argv


def _mutated(rng, data: bytes, alphabet: bytes, tokens) -> bytes:
    """`data` after 0 to 3 random edits: a byte replaced, a byte of
    `alphabet` inserted, a byte deleted, or a whitespace-separated token
    swapped for one of `tokens`."""
    data = bytearray(data)
    for _ in range(rng.randint(0, 3)):
        at = rng.randrange(len(data) + 1)
        op = rng.randrange(4)
        if op == 0 and at < len(data):
            data[at] = rng.randrange(256)
        elif op == 1:
            data[at:at] = bytes([rng.choice(alphabet)])
        elif op == 2:
            del data[at:at + 1]
        else:
            parts = re.split(rb"(\s+)", bytes(data))
            parts[2 * rng.randrange((len(parts) + 1) // 2)] = rng.choice(tokens)
            data = bytearray(b"".join(parts))
    return bytes(data)


def test_cli_label_decode_fuzz(capsys, tmp_path):
    # byte and token mutations of label files, with random vertex arguments:
    # each call exits 0 with decode's answer or 2 with one error line, and
    # no exception leaves main
    rng = random.Random(1977)
    sparse = FactorGraph(12, [(u, v) for u in range(12) for v in range(u + 1, 12)
                              if rng.random() < 0.3])
    seeds = [(g.n, to_label_file(encode(g)).encode())
             for g in (complete_graph(4), path_graph(8), sparse)]
    tokens = [b"0", b"1", b"7", b"-1", b"+1", b"0x1", b"1_0", b"ff", b"FF", b"zz", b"#",
              b"", b"\xff", "\u0661".encode(), b"9" * 5000, b"99999999999", b"0 0"]
    path = tmp_path / "fuzz.labels"
    exits = {0: 0, 2: 0}
    for _ in range(400):
        n, text = rng.choice(seeds)
        data = _mutated(rng, text, b"0123456789abcdef \n#-x\xff", tokens)
        path.write_bytes(data)
        x, y = rng.randint(-1, n), rng.randint(-1, n)
        code = main(["label", "decode", str(path), str(x), str(y)])
        captured = capsys.readouterr()
        assert code in exits, data
        exits[code] += 1
        if code == 2:
            assert captured.out == "" and captured.err.startswith("error: "), data
            assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), data
        else:
            scheme = from_label_file(data.decode())
            adjacent = decode(int(scheme.labels[x]), int(scheme.labels[y]), scheme.k, scheme.w)
            assert captured.err == "" and json.loads(captured.out)["adjacent"] is adjacent
    assert min(exits.values()) >= 40, exits  # both outcomes are common


def _reference_edge_list(data: bytes):
    """The edge-list format read one line at a time, apart from
    `graph.from_edgelist`: (n, sorted edges), or None for a file that the
    format refuses (not UTF-8, no header, a field that is not an int, a
    line without exactly two fields, a negative or too large n, an edge
    outside 0 <= u < v < n, an edge count other than the header's, or an
    edge given twice)."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    header, edges = None, []
    for line in text.splitlines():
        fields = line.partition("#")[0].split()
        if not fields:
            continue
        if len(fields) != 2:
            return None
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            return None
        if header is None:
            if not 0 <= a <= EDGELIST_VERTEX_CAP:
                return None
            header = (a, b)
        elif 0 <= a < b < header[0]:
            edges.append((a, b))
        else:
            return None
    if header is None or len(edges) != header[1] or len(set(edges)) != len(edges):
        return None
    return header[0], sorted(edges)


EDGE_LIST_COMMANDS = (["density"], ["arboricity"], ["orient", "--max-outdegree", "2"],
                      ["classify"], ["label", "encode"])


def test_cli_edge_list_fuzz(capsys, tmp_path):
    # byte and token mutations of three small edge lists, some of which
    # repeat an edge that their header counts: every edge-list command exits
    # 0, or 2 with one error line, and accepts exactly the files that the
    # line-by-line reference reads, whose n and edges the loader returns
    rng = random.Random(1736)
    sparse = [(u, v) for u in range(9) for v in range(u + 1, 9) if rng.random() < 0.3]
    seeds = [(4, list(complete_graph(4).edges)),
             (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]), (9, sparse)]
    tokens = [b"0", b"1", b"2", b"3", b"8", b"-1", b"+1", b"1_0", b"x", b"1.0", b"", b"#",
              b"\xff", "\u0661".encode(), b"0 1", b"1 0", b"0 0", b"9" * 5000,
              str(EDGELIST_VERTEX_CAP + 1).encode(), b"\r\n"]
    path = tmp_path / "fuzz.txt"
    accepted = refused = repeated = 0
    for _ in range(400):
        n, edges = rng.choice(seeds)
        if rng.random() < 0.25:  # an edge line given twice, and counted twice
            edges = edges + [rng.choice(edges)]
            rng.shuffle(edges)
        lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
        if rng.random() < 0.3:
            lines.insert(rng.randrange(len(lines) + 1), "# comment")
            lines[rng.randrange(len(lines))] += "  # note"
            lines.insert(rng.randrange(len(lines) + 1), " \t")
        text = ("\r\n" if rng.random() < 0.2 else "\n").join(lines) + "\n"
        data = _mutated(rng, text.encode(), b"0123456789 \t\r\n#-+_x\xff", tokens)
        path.write_bytes(data)
        want = _reference_edge_list(data)
        if want is None:
            refused += 1
        else:
            accepted += 1
            g = from_edgelist(path.read_text(encoding="utf-8"))
            assert (g.n, list(g.edges)) == want, data
        for args in EDGE_LIST_COMMANDS:
            head = 2 if args[0] == "label" else 1
            code = main([*args[:head], str(path), *args[head:]])
            captured = capsys.readouterr()
            assert code in (0, 2), (args, data)
            if code == 2:
                assert captured.out == "" and captured.err.startswith("error: "), (args, data)
                assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), (args, data)
                if "repeat" in captured.err:
                    repeated += args[0] == "density"
            else:
                assert captured.err == "", (args, data)
            if want is None:
                assert code == 2, (args, data)
            elif want[0] >= 1:
                fits = args[0] != "orient" or densest_subgraph(g).density <= 2
                assert code == (0 if fits else 2), (args, data)
    assert min(accepted, refused) >= 80 and repeated >= 20, (accepted, refused, repeated)


def _json_slots(doc):
    """Every (container, key) pair inside a parsed JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _json_slots(value)


INSTANCE_COMMANDS = (["vcd", "--budget", "2000"], ["vcd", "--minor", "--budget", "2000"],
                     ["reduce", "--factor", "0", "--edge", "0,1"])


def test_cli_instance_json_fuzz(capsys, tmp_path):
    # value, key and list-item mutations of five small instance documents,
    # and a corrupted character of their text: vcd, vcd --minor and reduce
    # each exit 0 with no error line, or 2 with exactly one, and no
    # exception leaves main
    rng = random.Random(2011)
    star = FactorGraph(4, [(0, 1), (0, 2), (0, 3)])
    seeds = [ProductSubgraph(ProductSpace([path_graph(3), path_graph(3)]),
                             [(0, 0), (1, 0), (1, 1), (2, 0), (2, 2)]),
             ProductSpace([complete_graph(3), path_graph(2)]).materialize(),
             ProductSubgraph(ProductSpace([path_graph(2)] * 3),
                             [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]),
             ProductSpace([star]).materialize(),
             ProductSubgraph(ProductSpace([octahedron(2), path_graph(2)]),
                             [(0, 0), (1, 0), (2, 1), (3, 1)])]
    values = [None, True, False, 0.5, 1.0, "", "1", 0, 1, 2, -1, 2 ** 70, -2 ** 70,
              [], [0], [0, 1], [[0, 1]], {}]
    path = tmp_path / "fuzz.json"
    exits = {0: 0, 2: 0}
    for _ in range(400):
        doc = json.loads(instance_to_json(rng.choice(seeds)))
        for _ in range(rng.randint(1, 2)):
            slots = list(_json_slots(doc))
            if not slots:
                break
            container, key = rng.choice(slots)
            op = rng.randrange(3)
            if op == 0:
                container[key] = rng.choice(values)
            elif op == 1:
                del container[key]
            elif isinstance(container, list):
                container.insert(key, container[key])
        text = json.dumps(doc)
        if rng.random() < 0.2:
            at = rng.randrange(len(text))
            text = text[:at] + rng.choice('{}[],:"0123456789-. x') + text[at + 1:]
        path.write_text(text)
        for args in INSTANCE_COMMANDS:
            code = main([args[0], str(path), *args[1:]])
            captured = capsys.readouterr()
            assert code in exits, (args, text)
            exits[code] += 1
            if code == 2:
                assert captured.out == "" and captured.err.startswith("error: "), (args, text)
                assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), (args, text)
            else:
                assert captured.err == "" and json.loads(captured.out), (args, text)
    assert exits[0] >= 40 and exits[2] >= 600, exits


def test_cli_verify_and_fuzz(capsys, tmp_path):
    out = str(tmp_path / "report.json")
    code, _ = run_cli(capsys, "verify", "--suite", "labels", "--trials", "3",
                      "--out", out)
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["schema"] == "prodvc-report-1"
    code, doc = run_cli(capsys, "fuzz-conj3", "--trials", "30",
                        "--spaces", "p3p3")
    assert code == 0
    assert doc["schema"] == "prodvc-report-1"
    assert isinstance(doc["violations"], list)


def test_cli_rejects_out_of_range_numbers(capsys, instance_file):
    # a negative budget, or fewer than one trial, is bad input: exit 2 with
    # a one-line error and no report
    for argv in (("vcd", instance_file, "--budget", "-5"),
                 ("vcd", instance_file, "--minor", "--budget", "-1"),
                 ("verify", "--trials", "-3"), ("verify", "--trials", "0"),
                 ("fuzz-conj3", "--trials", "-1")):
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    code, doc = run_cli(capsys, "vcd", instance_file, "--minor", "--budget", "0")
    assert code == 0
    assert doc["vcd_exact"] is doc["vcdens_exact"] is False
    assert doc["vcd_star_exact"] is doc["vcdens_star_exact"] is False


def _instance_doc(vertices, **extra):
    doc = {"factors": [{"n": 3, "edges": [[0, 1], [1, 2]]},
                       {"n": 2, "edges": [[0, 1]]}], "vertices": vertices}
    doc.update(extra)
    return doc


def _assert_input_error(capsys, tmp_path, doc, message=None):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    for argv in (["vcd", str(p)], ["vcd", str(p), "--minor"],
                 ["reduce", str(p), "--factor", "0", "--edge", "0,1"]):
        assert main(argv) == 2, (argv, doc)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message is None or captured.err == f"error: {message}\n"
        # rejected while reading, before any command asks for an induced graph
        assert "induced" not in captured.err


def test_cli_rejects_coordinates_that_are_not_ints(capsys, tmp_path):
    # {1, 1.0, True} is one value to a set, so each coordinate is checked
    for bad in (0.0, 1.0, "a", True, False, None, [0]):
        for induced in ({"induced": True}, {"edges": [[0, 1]]}):
            _assert_input_error(capsys, tmp_path,
                                _instance_doc([[0, 0], [1, 0], [bad, 1]], **induced))


def test_cli_rejects_factor_sizes_and_endpoints_that_are_not_ints(capsys, tmp_path):
    # JSON true and false load as bools, which Python compares and indexes as
    # 1 and 0, so a bool size or endpoint would pass for an int
    cases = [({"n": n, "edges": [[0, 1]]}, f"vertex count {n!r} is not an int")
             for n in (True, 2.0, "2")]
    cases += [({"n": 2, "edges": [edge]}, f"edge {edge} has an endpoint that is not an int")
              for bad in (False, True, 0.0, "0") for edge in ([bad, 1], [0, bad])]
    for factor, message in cases:
        doc = _instance_doc([[0, 0], [1, 0]], induced=True)
        doc["factors"][1] = factor
        _assert_input_error(capsys, tmp_path, doc, f"factor 1: {message}")


def test_cli_rejects_a_factor_edge_that_is_not_a_pair(capsys, tmp_path):
    p = tmp_path / "bad_edge.json"
    for edge in ([0], [0, 1, 2], []):
        doc = _instance_doc([[0, 0], [1, 0]], induced=True)
        doc["factors"][1]["edges"] = [edge]
        p.write_text(json.dumps(doc))
        for argv in (["vcd", str(p)], ["vcd", str(p), "--minor"],
                     ["reduce", str(p), "--factor", "0", "--edge", "0,1"]):
            assert main(argv) == 2, (argv, edge)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: factor 1: edge {edge} is not a pair\n"


def test_cli_rejects_an_oversized_factor_before_allocating_it(capsys, tmp_path):
    # 400000 vertices and no edges cannot be connected: refused from n and
    # the edge count alone, before FactorGraph builds one set per vertex
    text = json.dumps({"factors": [{"n": 400000, "edges": []}], "vertices": [[0]],
                       "induced": True})
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="^factor 0 is not connected$"):
            instance_from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20
    p = tmp_path / "oversized.json"
    p.write_text(text)
    assert main(["vcd", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: factor 0 is not connected\n"


def test_cli_rejects_an_edge_list_header_above_the_vertex_cap(tmp_path):
    # a header of 10**9 vertices is refused before one set per vertex is
    # allocated; the child's address space is capped, so a regression ends
    # in a MemoryError traceback instead of exhausting the machine
    p = tmp_path / "huge.txt"
    p.write_text("1000000000 0\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [q for q in os.environ.get("PYTHONPATH", "").split(os.pathsep) if q]))
    limit = (2 ** 30, 2 ** 30)
    proc = subprocess.run([sys.executable, "-m", "prodvc", "density", str(p)], env=env,
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (f"error: header declares 1000000000 vertices, "
                           f"above the cap of {EDGELIST_VERTEX_CAP}\n")


def test_cli_rejects_instances_that_json_cannot_read(capsys, tmp_path):
    # nesting past the recursion limit and an int past Python's digit limit
    # are bad input, like a syntax error: exit 2 with the parser's message
    deep = "[" * 100000
    long_n = '{"factors": [{"n": %s, "edges": []}], "vertices": [[0]], "induced": true}' \
        % ("1" * 5000)
    syntax = '{"factors": ['
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads(syntax)
    p = tmp_path / "unreadable.json"
    for text, message in ((deep, "maximum recursion depth exceeded"),
                          (long_n, "Exceeds the limit (4300 digits)"),
                          (syntax, str(exc.value))):
        p.write_text(text)
        for argv in (["vcd", str(p)], ["vcd", str(p), "--minor"],
                     ["reduce", str(p), "--factor", "0", "--edge", "0,1"]):
            assert main(argv) == 2, (argv, text[:20])
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {message}")
            assert captured.err.count("\n") == 1


def test_cli_rejects_instances_that_are_not_induced(capsys, tmp_path):
    # an instance is the subgraph induced by its vertices; one without a
    # truthy "induced", with or without an edge list, is bad input
    p = tmp_path / "not_induced.json"
    for extra in ({}, {"induced": False}, {"induced": 0}, {"edges": [[0, 1]]},
                  {"edges": [[0, 5]]}, {"edges": {"0": 1}}, {"induced": None, "edges": []}):
        p.write_text(json.dumps(_instance_doc([[0, 0], [1, 0]], **extra)))
        for argv in (["vcd", str(p)], ["vcd", str(p), "--minor"],
                     ["reduce", str(p), "--factor", "0", "--edge", "0,1"],
                     ["reduce", str(p), "--factor", "0", "--octahedron", "0"]):
            assert main(argv) == 2, (argv, extra)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == 'error: an instance must set "induced": true; ' \
                                   'it is the subgraph induced by its vertices\n'


def test_cli_reduce_octahedron_checks_its_indices(capsys, tmp_path):
    octa = tmp_path / "octa.json"
    octa.write_text(instance_to_json(ProductSpace([octahedron(2), path_graph(2)]).materialize()))
    for factor, vertex, message in (("5", "0", "no factor 5"), ("-2", "0", "no factor -2"),
                                    ("0", "7", "vertex 7 is not in factor 0"),
                                    ("0", "-1", "vertex -1 is not in factor 0")):
        argv = ["reduce", str(octa), "--factor", factor, "--octahedron", vertex]
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
    code, doc = run_cli(capsys, "reduce", str(octa), "--factor", "0", "--octahedron", "3")
    assert code == 0 and doc["factor"] == 0 and doc["edge"] == [2, 3]


def test_cli_verify_takes_an_integer_mu(capsys):
    for mu, value in (("3", 3), ("planar", 6)):
        code, doc = run_cli(capsys, "verify", "--suite", "thm5", "--mu", mu, "--trials", "2")
        assert code == 0
        thm5 = [r for r in doc["records"] if r["claim"] == "Thm5"]
        assert len(thm5) == 2 and all(r["detail"]["mu"] == value for r in thm5)
    for bad in ("0", "-3", "2.5", "bogus"):
        assert main(["verify", "--suite", "thm5", "--mu", bad, "--trials", "2"]) == 2, bad
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_help_and_errors_match_the_full_parser(capsys):
    # main builds only the parser of the subcommand it is given; what it
    # prints, and its exit code, must be those of the full parser
    cases = [[], ["-h"], ["bogus"], ["vcd"], ["label", "encode", "-h"],
             ["density", "graph.txt", "extra"]]
    cases += [[name, "-h"] for name in ("density", "arboricity", "orient", "vcd", "reduce",
                                        "classify", "label", "verify", "fuzz-conj3")]
    for argv in cases:
        seen = []
        for parse in (main, build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(list(argv))
            seen.append((exc.value.code, capsys.readouterr()))
        assert seen[0] == seen[1], argv


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-m", "prodvc", "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: prodvc")


def test_cli_io_error(capsys, tmp_path):
    code, _ = run_cli(capsys, "density", "/no/such/file")
    assert code == 2
    for idx, text in enumerate(("x 1\n0 1\n", "3 1\n0 1 2\n", "3\n0 1\n")):
        p = tmp_path / f"bad{idx}.txt"
        p.write_text(text)
        code, _ = run_cli(capsys, "density", str(p))
        assert code == 2
    p = tmp_path / "bad.labels"
    p.write_text("1 0 1\nz 00\n")
    code, _ = run_cli(capsys, "label", "decode", str(p), "0", "0")
    assert code == 2


def test_cli_arboricity_of_a_large_grid(capsys, tmp_path):
    grid, _ = ProductSpace([path_graph(30), path_graph(30)]).materialize().to_factor_graph()
    p = tmp_path / "grid30.txt"
    p.write_text(to_edgelist(grid))
    code, doc = run_cli(capsys, "arboricity", str(p))
    assert code == 0 and doc["arboricity"] == 2 and len(doc["forests"]) == 2
    assert sorted(tuple(e) for f in doc["forests"].values() for e in f) == list(grid.edges)


def test_cli_shuffled_long_cycle(capsys, tmp_path):
    # a shuffled long cycle makes augmenting paths thousands of arcs long
    n = 3000
    perm = list(range(n))
    random.Random(0).shuffle(perm)
    cycle = FactorGraph(n, [(perm[i], perm[(i + 1) % n]) for i in range(n)])
    p = tmp_path / "c3000.txt"
    p.write_text(to_edgelist(cycle))
    code, doc = run_cli(capsys, "density", str(p))
    assert code == 0 and doc["density"]["exact"] == "1/1"
    code, doc = run_cli(capsys, "orient", "--max-outdegree", "1", str(p))
    assert code == 0 and len(doc["arcs_tail_head"]) == n
    assert sorted(t for t, _ in doc["arcs_tail_head"]) == list(range(n))
    code, doc = run_cli(capsys, "classify", str(p))
    assert code == 0 and doc["omega"] == 2


# ---------------------------------------------------------------------------
# the JSON writer: json.dumps(doc, indent=2, sort_keys=True), byte for byte

def assert_json_text_is_json_dumps(doc):
    try:
        want = json.dumps(doc, indent=2, sort_keys=True)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            _json_text(doc)
    else:
        assert _json_text(doc) == want


_json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2 ** 200, 2 ** 200),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1e16, 5e-324, 1.5, -2.25e-7]),
    st.text(), st.text(st.characters(max_codepoint=0x20)),
    st.text(st.characters(min_codepoint=0x7f, max_codepoint=0x2fff)),
    st.lists(st.integers()),  # the writer's two fast paths
    st.lists(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1)))
_json_docs = st.recursive(
    _json_leaves,
    lambda kids: st.one_of(st.lists(kids, max_size=5),
                           st.lists(kids, max_size=5).map(tuple),
                           st.dictionaries(st.text(max_size=6), kids, max_size=5)),
    max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(_json_docs)
def test_json_text_matches_json_dumps(doc):
    assert_json_text_is_json_dumps(doc)


@settings(max_examples=60, deadline=None)
@given(_json_docs, st.one_of(st.fractions(), st.integers(), st.floats(),
                             st.sampled_from([float("nan"), float("inf"), -float("inf")])))
def test_json_text_leaves_other_values_to_json(doc, odd):
    # a non-str key, a Fraction, a non-finite float, a bool in an int list:
    # the bytes, or the error, are json's
    for wrapped in ({"doc": doc, "odd": odd}, {odd: doc} if odd == odd else {}, [1, odd],
                    [[1, 2], [odd]], {"a": [[3], [1, True]]}, [1, 2, False],
                    {1: "one", "1": "one"}, {2: "b", 1: "a"}, {"x": Fraction(1, 2)}):
        assert_json_text_is_json_dumps(wrapped)


def test_every_subcommand_writes_the_bytes_of_json_dumps(capsys, tmp_path, k4_file,
                                                         instance_file):
    octa = tmp_path / "octa.json"
    octa.write_text(instance_to_json(ProductSpace([octahedron(2), path_graph(2)]).materialize()))
    labels = str(tmp_path / "k4.labels")
    assert main(["label", "encode", k4_file, "--out", labels]) == 0
    runs = [["density", k4_file], ["arboricity", k4_file],
            ["orient", "--max-outdegree", "2", k4_file], ["classify", k4_file],
            ["vcd", instance_file], ["vcd", instance_file, "--minor"],
            ["reduce", instance_file, "--factor", "0", "--edge", "0,1"],
            ["reduce", str(octa), "--factor", "0", "--octahedron", "0"],
            ["label", "decode", labels, "0", "1"],
            ["verify", "--suite", "thm4", "--trials", "3"],
            ["fuzz-conj3", "--trials", "30", "--spaces", "p3p3"]]
    for argv in runs:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv


def test_verify_reports_are_the_bytes_of_json_dumps():
    for suite in ("thm4", "thm5", "lemmas", "classes", "labels"):
        text = report_to_json(run_suite(suite, trials=3, seed=2))
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True), suite


def test_orient_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # the orientation walks sets; its output must be fixed by the input
    q6, _ = ProductSpace([path_graph(2)] * 6).materialize().to_factor_graph()
    perm = list(range(q6.n))
    random.Random(6).shuffle(perm)
    p = tmp_path / "q6.txt"
    p.write_text(to_edgelist(FactorGraph(q6.n, [(perm[u], perm[v]) for u, v in q6.edges])))
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
            [src] + [q for q in os.environ.get("PYTHONPATH", "").split(os.pathsep) if q]))
        proc = subprocess.run([sys.executable, "-m", "prodvc", "orient", "--max-outdegree",
                               "3", str(p)], env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert len(json.loads(outputs[0])["arcs_tail_head"]) == q6.m
