"""The four workloads: their inputs, their jobs, and the checks on each
job's output.

A job is one thing a user waits for.  `run()` is the timed part and only
calls into prodvc; `check(output)` runs after the clock stops and returns
(error or None, exact results, results).  Inputs come from gen.py, seeded by
the benchmark's --seed; references come from closed forms, from oracle.py,
or from the committed reference.json.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import gen
import oracle

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"


class Job:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label, self.run, self.check = label, run, check


def cli(mods, argv: list[str]) -> tuple[int, str]:
    """One in-process `prodvc` invocation: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = mods.cli.main(argv)
    if rc != 0:
        return rc, out.getvalue() + err.getvalue()
    return rc, out.getvalue()


def _is_forest(n: int, edges) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# graph-flow: density, orientation at ceil(dens), arboricity

def arboricity_reference(n: int, edges, rho: Fraction) -> int:
    """The arboricity, given the certified density rho.

    With p = ceil(rho) it is at least p, and more only if some S has
    |E(S)| >= p(|S| - 1) + 1.  Since |E(S)| <= min(floor(rho |S|),
    |S|(|S|-1)/2), usually no size admits that count; otherwise min cuts
    decide it.
    """
    p = math.ceil(rho)
    if all(min(math.floor(rho * s), s * (s - 1) // 2) < p * (s - 1) + 1
           for s in range(2, n + 1)):
        return p
    k = p
    while oracle.exceeds_forest_bound(n, edges, k):
        k += 1
    return k


class GraphFlow:
    """Each job: `density`, `orient --max-outdegree ceil(dens)` and
    `arboricity` on one edge-list graph."""

    GRIDS = ((5, 5), (6, 6), (7, 7), (8, 8))
    GNM = range(30, 60)   # vertices; edges = 1.25 n
    PROBE_CYCLES = (3000, 3000, 3000)

    def __init__(self, mods, seed: int, workdir: Path):
        self.mods = mods
        rng = random.Random(seed)
        inputs = []  # (label, n, edges, dens or None, arboricity or None)
        for a, b in self.GRIDS:
            n, edges = gen.grid(a, b)
            d = Fraction(a - 1, a) + Fraction(b - 1, b)
            inputs.append((f"grid{a}x{b}", n, edges, d, 2))
            inputs.append((f"grid{a}x{b}-shuffled", n, gen.relabel(n, edges, rng), d, 2))
        n, edges = gen.path_power(2, 6)
        inputs.append(("Q6-shuffled", n, gen.relabel(n, edges, rng), Fraction(3), 4))
        n, edges = gen.path_power(3, 4)  # dens 4 * 2/3, arboricity ceil(216/80)
        inputs.append(("P3^4-shuffled", n, gen.relabel(n, edges, rng), Fraction(8, 3), 3))
        for n in self.GNM:
            edges = gen.gnm(n, round(1.25 * n), rng)
            inputs.append((f"G({n},{len(edges)})", n, edges, None, None))
        self.jobs = []
        for idx, (label, n, edges, d, arb) in enumerate(inputs):
            path = workdir / f"g{idx}.txt"
            path.write_text(gen.edgelist_text(n, edges), encoding="utf-8")
            ref = {"n": n, "edges": edges, "dens": d, "arb": arb}
            self.jobs.append(Job(label, self._runner(str(path)), self._checker(ref)))
        self.probe_paths = []
        for idx, n in enumerate(self.PROBE_CYCLES):
            path = workdir / f"cycle{idx}.txt"
            path.write_text(gen.edgelist_text(n, gen.shuffled_cycle(n, rng)), encoding="utf-8")
            self.probe_paths.append(str(path))

    def _runner(self, path: str):
        def run():
            rc, text = cli(self.mods, ["density", path])
            if rc != 0:
                return (rc, text), None, None
            d = Fraction(json.loads(text)["density"]["exact"])
            return ((rc, text), cli(self.mods, ["orient", "--max-outdegree",
                                                str(math.ceil(d)), path]),
                    cli(self.mods, ["arboricity", path]))
        return run

    def _checker(self, ref: dict):
        n, edges = ref["n"], ref["edges"]
        edge_set = set(edges)

        def check(output):
            dens_out, orient_out, arb_out = output
            for step, out in (("density", dens_out), ("orient", orient_out),
                              ("arboricity", arb_out)):
                if out is None or out[0] != 0:
                    return f"{step} exited {out and out[0]}: {out and out[1][-200:]}", 0, 3
            doc = json.loads(dens_out[1])
            d = Fraction(doc["density"]["exact"])
            witness = set(doc["witness"])
            inside = sum(1 for u, v in edges if u in witness and v in witness)
            if not witness or Fraction(inside, len(witness)) != d:
                return f"density witness reaches {inside}/{len(witness)}, not {d}", 0, 3
            if ref["dens"] is None:
                if not oracle.no_denser_subgraph(n, edges, d):
                    return f"a subgraph is denser than the reported {d}", 0, 3
                ref["dens"] = d  # certified: the witness reaches d, nothing beats it
            if d != ref["dens"]:
                return f"density {d} != reference {ref['dens']}", 0, 3
            doc = json.loads(orient_out[1])
            cap = math.ceil(d)
            outdeg = [0] * n
            arcs = doc["arcs_tail_head"]
            if {(min(a, b), max(a, b)) for a, b in arcs} != edge_set or len(arcs) != len(edges):
                return "orientation does not cover every edge once", 0, 3
            for tail, _ in arcs:
                outdeg[tail] += 1
            if doc["max_outdegree"] != cap or max(outdeg, default=0) > cap:
                return f"orientation outdegree {max(outdeg)} > {cap}", 0, 3
            if ref["arb"] is None:
                ref["arb"] = arboricity_reference(n, edges, d)
            doc = json.loads(arb_out[1])
            if doc["arboricity"] != ref["arb"]:
                return f"arboricity {doc['arboricity']} != reference {ref['arb']}", 0, 3
            seen = []
            for forest in doc["forests"].values():
                forest = [tuple(e) for e in forest]
                if not _is_forest(n, forest):
                    return "a forest has a cycle", 0, 3
                seen.extend(forest)
            if len(seen) != len(edges) or set(seen) != edge_set:
                return "forests do not partition the edges", 0, 3
            return None, 3, 3

        return check

    def probe(self) -> list[str]:
        """Shuffled long cycles through `density` and `orient --max-outdegree
        1`, outside the timed jobs: "ok" or the failure, per cycle.  Whether
        the recursive Dinic overflows the stack depends on the vertex order,
        so several cycles are tried."""
        results = []
        for path in self.probe_paths:
            try:
                rc, text = cli(self.mods, ["density", path])
                if rc == 0:
                    rc, text = cli(self.mods, ["orient", "--max-outdegree", "1", path])
                results.append("ok" if rc == 0 else f"exit {rc}")
            except Exception as exc:  # the known failure is a RecursionError
                results.append(type(exc).__name__)
        return results


# ---------------------------------------------------------------------------
# label-query: encode, label-file round trip, decode every ordered pair

class LabelQuery:
    RANDOM_GRAPHS = 28

    def __init__(self, mods, seed: int, workdir: Path):
        self.mods = mods
        rng = random.Random(seed)
        inputs = []
        for j in range(self.RANDOM_GRAPHS):
            n = rng.randint(190, 200)
            inputs.append((f"G({n},3/n)", n, gen.gnp(n, 3.0, rng)))
        n, edges = gen.path_power(2, 6)
        inputs.append(("Q6-shuffled", n, gen.relabel(n, edges, rng)))
        n, edges = gen.grid(14, 14)
        inputs.append(("grid14x14-shuffled", n, gen.relabel(n, edges, rng)))
        self.jobs = []
        for idx, (label, n, edges) in enumerate(inputs):
            path = workdir / f"g{idx}.txt"
            path.write_text(gen.edgelist_text(n, edges), encoding="utf-8")
            self.jobs.append(Job(label, self._runner(path, workdir / f"g{idx}.labels"),
                                 self._checker(n, edges)))

    def _runner(self, path: Path, label_path: Path):
        mods = self.mods

        def run():
            g = mods.graph.from_edgelist(path.read_text(encoding="utf-8"))
            scheme = mods.labeling.encode(g)
            label_path.write_text(mods.labeling.to_label_file(scheme), encoding="utf-8")
            scheme = mods.labeling.from_label_file(label_path.read_text(encoding="utf-8"))
            decode, labels, k, w = mods.labeling.decode, scheme.labels, scheme.k, scheme.w
            rows = [[v for v, lv in enumerate(labels) if decode(lu, lv, k, w)]
                    for lu in labels]
            return scheme.n, k, w, scheme.bits_per_label, rows
        return run

    @staticmethod
    def _checker(n: int, edges):
        adj = [sorted(s) for s in oracle.adjacency(n, edges)]

        def check(output):
            got_n, k, w, bits, rows = output
            if got_n != n or w != max(1, math.ceil(math.log2(n + 1))) or bits != (k + 1) * w:
                return f"label layout n={got_n} k={k} w={w} bits={bits}", 0, 1
            if rows != adj:
                bad = next(u for u in range(n) if rows[u] != adj[u])
                return f"decoded neighbours of {bad} differ from the graph", 0, 1
            return None, 1, 1

        return check


# ---------------------------------------------------------------------------
# vc-products: `vcd --minor`, one reduce_edge and its monotonicity check

def _relabel_instance(inst: dict, rng: random.Random) -> tuple[dict, list[int]]:
    """Permute each factor's vertex ids and the vertex order; the four VC
    values are invariant under this, so the references still apply."""
    perms = []
    factors = []
    for f in inst["factors"]:
        perm = list(range(f["n"]))
        rng.shuffle(perm)
        perms.append(perm)
        factors.append({"n": f["n"], "edges": [sorted((perm[u], perm[v])) for u, v in f["edges"]]})
    verts = [[perms[i][c] for i, c in enumerate(v)] for v in inst["vertices"]]
    rng.shuffle(verts)
    return {"factors": factors, "vertices": verts, "induced": True}, perms


class VcProducts:
    def __init__(self, mods, seed: int, workdir: Path):
        self.mods = mods
        rng = random.Random(seed)
        pool = load_reference()["vc"]
        self.jobs = []
        for idx, entry in enumerate(pool):
            inst = vc_pool_instance(entry)
            if digest(inst) != entry["digest"]:
                raise RuntimeError(f"vc pool instance {idx} no longer matches reference.json")
            inst, perms = _relabel_instance(inst, rng)
            i, u, v = entry["reduce"]
            edge = (i, perms[i][u], perms[i][v])
            path = workdir / f"i{idx}.json"
            path.write_text(json.dumps(inst), encoding="utf-8")
            self.jobs.append(Job(f"{entry['kind']}{idx}", self._runner(str(path), edge),
                                 self._checker(inst, edge, entry)))
        rng.shuffle(self.jobs)

    def _runner(self, path: str, edge):
        mods = self.mods

        def run():
            vcd = cli(mods, ["vcd", path, "--minor"])
            with open(path, encoding="utf-8") as fh:
                g = mods.products.instance_from_json(fh.read())
            step = mods.reductions.reduce_edge(g, *edge)
            records = mods.reductions.vc_monotonicity_check(step)
            split = (step.g_contracted.n, step.g_link_centers.n, len(step.tips),
                     step.num_common_neighbors)
            return vcd, split, [(r.name, r.lhs, r.rhs, r.verdict) for r in records]
        return run

    @staticmethod
    def _checker(inst: dict, edge, ref: dict):
        expected_split = reduction_split(inst, edge)
        ref_vcd, ref_vcdens = ref["vcd"], Fraction(ref["vcdens"])
        ref_star, ref_dens_star = ref["vcd_star"], Fraction(ref["vcdens_star"])

        def check(output):
            (rc, text), split, records = output
            if rc != 0:
                return f"vcd exited {rc}: {text[-200:]}", 0, 2
            doc = json.loads(text)
            exact = doc["vcd_star_exact"] + doc["vcdens_star_exact"]
            vcdens = Fraction(doc["vcdens"]["exact"])
            if (doc["vcd"], vcdens) != (ref_vcd, ref_vcdens):
                return f"vcd/vcdens {doc['vcd']}/{vcdens} != reference", exact, 2
            w = doc["vcd_witness"]
            if ref_vcd and oracle.induced_witness_value(inst, w, edges_only=True) != ref_vcd:
                return "vcd witness is not a shattered cube of that dimension", exact, 2
            w = doc["vcdens_witness"]
            if ref_vcdens and oracle.induced_witness_value(inst, w) != ref_vcdens:
                return "vcdens witness does not reach the reported density", exact, 2
            for key, value, low, high, pos in (
                    ("vcd_star", doc["vcd_star"], ref_vcd, ref_star, 0),
                    ("vcdens_star", Fraction(doc["vcdens_star"]["exact"]), ref_vcdens,
                     ref_dens_star, 1)):
                witness = doc[key + "_witness"]
                if witness is None:
                    reached = 0
                elif oracle.minor_witness_ok(inst, witness):
                    reached = oracle.minor_witness_value(inst, witness)[pos]
                else:
                    return f"{key} witness does not shatter", exact, 2
                if doc[key + "_exact"]:
                    if value != high or reached != value:
                        return f"exact {key} {value} != reference {high}", exact, 2
                elif not low <= value <= high:
                    return f"bounded {key} {value} outside [{low}, {high}]", exact, 2
            if split != expected_split:
                return f"reduction split {split} != {expected_split}", exact, 2
            for name, lhs, rhs, verdict in records:
                if verdict == "skipped":
                    continue
                holds = Fraction(lhs) <= Fraction(rhs)
                if verdict != ("holds" if holds else "inconclusive"):
                    return f"record {name!r}: {lhs} vs {rhs} judged {verdict}", exact, 2
                if name.startswith("tips") and (int(lhs), int(rhs)) != (
                        expected_split[2], expected_split[3] * expected_split[1]):
                    return f"record {name!r}: {lhs} vs {rhs} miscounted", exact, 2
            return None, exact, 2

        return check


def reduction_split(inst: dict, edge) -> tuple[int, int, int, int]:
    """(contracted vertices, centers, tips, common neighbours) of contracting
    factor edge uv of factor i, counted from the definitions."""
    i, u, v = edge
    verts = {tuple(x) for x in inst["vertices"]}
    adj = oracle.adjacency(inst["factors"][i]["n"], inst["factors"][i]["edges"])
    common = adj[u] & adj[v]

    def at(x, c):
        return x[:i] + (c,) + x[i + 1:]

    contracted = {at(x, u) if x[i] == v else x for x in verts}
    centers = [x for x in verts if x[i] == u and at(x, v) in verts]
    tips = [x for x in verts if x[i] in common and at(x, u) in verts and at(x, v) in verts]
    return len(contracted), len(centers), len(tips), len(common)


# ---------------------------------------------------------------------------
# verify-mix: `prodvc verify` suites and `fuzz-conj3`, in process

VERIFY_TRIALS = {"thm4": 8, "thm5": 6, "lemmas": 3, "classes": 10, "labels": 10}
VERIFY_SEEDS = range(16)
FUZZ_TRIALS = {"p3p3": 30, "p4p3": 20}
FUZZ_SEEDS = range(10)


def verify_commands() -> dict[str, list[str]]:
    """The fixed job list: its inputs are the program's own generators at
    these seeds, so the references can be committed."""
    cmds = {}
    for suite, trials in VERIFY_TRIALS.items():
        for k in VERIFY_SEEDS:
            cmds[f"{suite}:{k}"] = ["verify", "--suite", suite, "--trials", str(trials),
                                    "--seed", str(k)]
    for space, trials in FUZZ_TRIALS.items():
        for k in FUZZ_SEEDS:
            cmds[f"fuzz-{space}:{k}"] = ["fuzz-conj3", "--spaces", space,
                                         "--trials", str(trials), "--seed", str(k)]
    return cmds


def verify_summary(rc: int, text: str) -> dict:
    """Exit code plus a digest of the multiset of (claim, instance, lhs, rhs,
    verdict), and of the archived discoveries; runtimes are left out."""
    doc = json.loads(text)
    rows = sorted([r["claim"], r["instance"], r["lhs"], r["rhs"], r["verdict"]]
                  for r in doc["records"])
    rows += sorted(["discovery", v["digest"], v["ratio"], v["vcdens_star"], ""]
                   for v in doc.get("violations", ()))
    return {"rc": rc, "records": len(doc["records"]), "digest": digest(rows),
            "inconclusive": sum(r["verdict"] == "inconclusive" for r in doc["records"])}


class VerifyMix:
    def __init__(self, mods, seed: int, workdir: Path):
        self.mods = mods
        refs = load_reference()["verify"]
        self.jobs = [Job(key, self._runner(argv), self._checker(refs[key]))
                     for key, argv in verify_commands().items()]
        random.Random(seed).shuffle(self.jobs)

    def _runner(self, argv):
        return lambda: cli(self.mods, argv)

    @staticmethod
    def _checker(ref: dict):
        def check(output):
            rc, text = output
            if rc != ref["rc"]:
                return f"exit {rc}, reference {ref['rc']}: {text[-200:]}", 0, 1
            got = verify_summary(rc, text)
            exact = got["records"] - got["inconclusive"]
            if got != ref:
                return "records differ from the reference", exact, got["records"]
            return None, exact, got["records"]

        return check


WORKLOADS = {"verify-mix": VerifyMix, "graph-flow": GraphFlow,
             "label-query": LabelQuery, "vc-products": VcProducts}


# ---------------------------------------------------------------------------
# the committed reference pool

VC_POOL = [("small", k) for k in range(38)] + [("wide", 0), ("long", 0)]


def vc_pool_instance(entry: dict) -> dict:
    make = {"small": gen.small_instance, "wide": gen.wide_instance,
            "long": gen.long_instance}[entry["kind"]]
    return make(random.Random(1_000_003 * entry["gen_seed"] + 17))


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))
