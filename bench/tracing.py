"""Spans and counters at the public functions of every prodvc module,
installed from outside the program.

Each public function is replaced at every module binding (so a name that
one module imports from another, such as `vc.densest_subgraph_bruteforce`,
is traced too), plus `MaxFlow.max_flow` and `ProductSubgraph.__init__`.
A span stack gives each call its self time (its duration minus the time
of the traced calls it made).  Spans stay in memory and are written out
once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from time import perf_counter

LAYERS = ("graph", "flow", "density", "products", "vc", "reductions",
          "classes", "labeling", "harness", "cli")
MAX_SPANS = 200_000

# per-function metrics: (traced name, kinds reported)
FUNCTIONS = (
    ("flow.max_flow", ("calls", "self_s")),
    ("density.arboricity", ("calls", "self_s")),
    ("density.densest_subgraph", ("self_s",)),
    ("density.bounded_outdegree_orientation", ("self_s",)),
    ("density.forest_decomposition", ("self_s",)),
    ("density.densest_subgraph_bruteforce", ("calls", "self_s")),
    ("products.ProductSubgraph", ("calls", "self_s")),
    ("products.instance_from_json", ("self_s",)),
    ("vc.vcd_induced", ("self_s",)),
    ("vc.vcdens_induced", ("self_s",)),
    ("vc.vcd_minor", ("self_s",)),
    ("vc.vcdens_minor", ("self_s",)),
    ("vc.shatters_minor", ("calls",)),
    ("vc.connected_partitions", ("calls",)),
    ("reductions.reduce_edge", ("self_s",)),
    ("reductions.reduce_opposite_pair", ("self_s",)),
    ("reductions.vc_monotonicity_check", ("self_s",)),
    ("classes.min_dismantling_order", ("self_s",)),
    ("classes.chordal_certificate", ("self_s",)),
    ("classes.clique_number", ("self_s",)),
    ("classes.product_elimination_report", ("self_s",)),
    ("labeling.encode", ("self_s",)),
    ("labeling.decode", ("calls", "self_s")),
    ("labeling.from_label_file", ("self_s",)),
    ("graph.induced_subgraph", ("calls", "self_s")),
    ("graph.is_connected", ("calls",)),
    ("graph.degeneracy_ordering", ("self_s",)),
    ("graph.from_edgelist", ("self_s",)),
    ("harness.run_suite", ("self_s",)),
    ("cli.main", ("self_s",)),
)


class Tracer:
    def __init__(self, package, modules: dict, partitions_cache):
        self.package = package
        self.modules = modules          # layer name -> module object
        self.partitions_cache = partitions_cache
        self.cache_hits = self.cache_misses = 0
        self.names: list[str] = []      # span name id -> "layer.function"
        self.stats: list[list] = []     # span name id -> [calls, self_s, errors]
        self.stack = [0.0]              # traced child time of each open span
        self.open: list[int] = []       # name id of each open span
        self.job = 0                    # id shared by the spans of one job
        self.span_job = array("l")
        self.span_name = array("l")
        self.span_depth = array("l")
        self.span_start = array("d")
        self.span_dur = array("d")
        self.dropped = 0
        self.counters = {"flow.arcs": 0, "products.vertices_built": 0,
                         "vc.results": 0, "vc.exact": 0, "harness.records": 0,
                         "harness.inconclusive": 0, "labeling.labels": 0,
                         "labeling.label_bits": 0}
        self._patches: list[tuple[object, str, object, object]] = []
        self._plan()

    # -- installation ------------------------------------------------------

    def _plan(self) -> None:
        hooks = {"flow.max_flow": self._count_arcs,
                 "products.ProductSubgraph": self._count_vertices,
                 "vc.vcd_minor": self._count_exact, "vc.vcdens_minor": self._count_exact,
                 "harness.run_suite": self._count_records,
                 "harness.fuzz_records": self._count_records,
                 "labeling.encode": self._count_bits}
        wrapped = {}  # id(original) -> wrapper
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = self._wrap(obj, name, hooks.get(name))
        for mod in [self.package, *self.modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patches.append((mod, attr, obj, wrapped[id(obj)]))
        maxflow = self.modules["flow"].MaxFlow
        subgraph = self.modules["products"].ProductSubgraph
        for cls, attr, name in ((maxflow, "max_flow", "flow.max_flow"),
                                (subgraph, "__init__", "products.ProductSubgraph")):
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original, self._wrap(original, name, hooks.get(name))))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, hook):
        sid = len(self.names)
        self.names.append(name)
        st = [0, 0.0, 0]
        self.stats.append(st)
        stack = self.stack
        opened = self.open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = len(opened)
            stack.append(0.0)
            opened.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st[2] += 1
                raise
            finally:
                dur = perf_counter() - start
                opened.pop()
                child = stack.pop()
                stack[-1] += dur
                st[0] += 1
                st[1] += dur - child
                self._record(sid, depth, start, dur)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _record(self, sid: int, depth: int, start: float, dur: float) -> None:
        if len(self.span_dur) >= MAX_SPANS:
            self.dropped += 1
            return
        self.span_job.append(self.job)
        self.span_name.append(sid)
        self.span_depth.append(depth)
        self.span_start.append(start)
        self.span_dur.append(dur)

    # -- counters read from arguments and results --------------------------

    def _count_arcs(self, args, result) -> None:
        self.counters["flow.arcs"] += len(args[0].to) // 2

    def _count_vertices(self, args, result) -> None:
        self.counters["products.vertices_built"] += len(args[0].vertices)

    def _count_exact(self, args, result) -> None:
        self.counters["vc.results"] += 1
        self.counters["vc.exact"] += bool(result[1])

    def _count_records(self, args, result) -> None:
        if any(self.names[sid] == "harness.run_suite" for sid in self.open):
            return  # run_suite("all") recurses; count each record once
        records = result[0] if isinstance(result, tuple) else result
        self.counters["harness.records"] += len(records)
        self.counters["harness.inconclusive"] += sum(r.verdict == "inconclusive" for r in records)

    def _count_bits(self, args, result) -> None:
        self.counters["labeling.labels"] += result.n
        self.counters["labeling.label_bits"] += result.n * result.bits_per_label

    # -- output ------------------------------------------------------------

    def begin_pass(self) -> None:
        self._before = ([list(st) for st in self.stats], dict(self.counters))
        self.cache_hits = self.cache_misses = 0
        self.install()

    def end_job(self) -> None:
        """Called after each job of a traced pass, before the caches clear."""
        self.job += 1
        info = self.partitions_cache.cache_info()
        self.cache_hits += info.hits
        self.cache_misses += info.misses

    def end_pass(self) -> dict[str, float]:
        """Uninstall, and return this pass's per-layer metrics."""
        self.uninstall()
        before_stats, before_counters = self._before
        totals = {name: [now - old for now, old in zip(st, prev)]
                  for name, st, prev in zip(self.names, self.stats, before_stats)}
        c = {k: v - before_counters[k] for k, v in self.counters.items()}
        out = {}
        for name, kinds in FUNCTIONS:
            calls, self_s, _ = totals.get(name, (0, 0.0, 0))
            for kind in kinds:
                out[f"{name}.{kind}"] = calls if kind == "calls" else self_s
        for layer in LAYERS:
            out[f"{layer}.errors"] = sum(v[2] for k, v in totals.items()
                                         if k.startswith(layer + "."))
        calls, self_s, _ = totals.get("labeling.decode", (0, 0.0, 0))
        out["labeling.decode_ns"] = 1e9 * self_s / calls if calls else 0.0
        out["labeling.bits_per_label"] = (c["labeling.label_bits"] / c["labeling.labels"]
                                          if c["labeling.labels"] else 0.0)
        out["flow.arcs"] = c["flow.arcs"]
        out["products.vertices_built"] = c["products.vertices_built"]
        looked_up = self.cache_hits + self.cache_misses
        out["vc.connected_partitions.hit_ratio"] = (self.cache_hits / looked_up
                                                    if looked_up else 0.0)
        out["vc.exact_ratio"] = c["vc.exact"] / c["vc.results"] if c["vc.results"] else 1.0
        out["harness.records"] = c["harness.records"]
        out["harness.inconclusive"] = c["harness.inconclusive"]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# job\tname\tdepth\tstart_s\tdur_s"
                     f"\t(dropped after {MAX_SPANS}: {self.dropped})\n")
            for j, n, d, s, u in zip(self.span_job, self.span_name, self.span_depth,
                                     self.span_start, self.span_dur):
                fh.write(f"{j}\t{self.names[n]}\t{d}\t{s:.9f}\t{u:.9f}\n")
