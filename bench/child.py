"""One workload run in a fresh process: set up, run the closed loop, check
every job, print one JSON line.  Started by run.py; not meant to be run by
hand.

The loop issues each job only after the previous one finished, one pass
over the workload's fixed job list after another, until the next pass would
end after --seconds (at least MIN_PASSES passes).  With --trace 1 passes
alternate untraced and traced.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
HARD_STOP_S = 120        # stop starting passes here, whatever else is pending
CALIBRATION_REF_S = 0.0008  # calibration_work() at full speed on a 2-CPU Xeon VM
MIN_PASSES = 3           # repeats of each job untraced; with --trace 1, two of each
MAX_FAILURES_SHOWN = 10


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import prodvc from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "prodvc" / "__init__.py").is_file():
        fail(f"no program sources at {src / 'prodvc'}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("prodvc")
    if Path(package.__file__).resolve().parent != (src / "prodvc").resolve():
        fail(f"imported prodvc from {package.__file__}, not from {src}")
    from tracing import LAYERS
    mods = {name: importlib.import_module(f"prodvc.{name}") for name in LAYERS}
    return package, mods


def calibration_work(slots=[0] * 64) -> int:
    """A fixed slice of interpreter work timed around every job to read the
    machine's speed: an arithmetic loop, then a loop of small list builds,
    slices and calls, taking about 30% and 70% of the time.  Neither part
    alone tracks all four workloads' slowdown under contention; this mix
    tracked each within a few percent."""
    acc = 0
    for i in range(1600):
        slots[i & 63] = acc
        acc = (acc + (i * i) % 7 + slots[(i * 7) & 63]) & 0xFFFFF
    for i in range(800):
        fields = [(i >> shift) & 7 for shift in (0, 3, 6, 9)]
        acc += _member(fields, i)
    return acc


def _member(fields: list[int], i: int) -> bool:
    return fields[0] in fields[1:] or bool(i & 1)


def calibrate() -> float:
    """Seconds calibration_work() takes now; the garbage collector is held
    off so that a collection of the program's heap cannot land inside it."""
    gc.disable()
    try:
        start = time.perf_counter()
        calibration_work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def tail_percentile(jobs: int) -> int:
    """Highest whole percentile with at least ten of `jobs` values beyond it."""
    return 100 * (jobs - 10) // jobs


def nearest_rank(sorted_values: list[float], percentile: int) -> float:
    rank = max(1, math.ceil(percentile * len(sorted_values) / 100))
    return sorted_values[rank - 1]


def measure(workload, mods: dict, package, seconds: float, trace: bool) -> dict:
    lru = [obj for mod in mods.values() for obj in vars(mod).values()
           if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == mod.__name__]
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer(package, mods, mods["vc"].connected_partitions)
    passes: list[tuple[bool, list[tuple[float, float]]]] = []  # (traced, [(latency, calibration)])
    layer_passes: list[dict] = []
    attempted = failed = exact = results = 0
    failures: list[str] = []
    start = time.monotonic()
    longest = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.begin_pass()
        wall = time.monotonic()
        latencies = []
        before = calibrate()
        for job in workload.jobs:
            for cache in lru:  # each job starts as cold as a fresh CLI process
                cache.cache_clear()
            t0 = time.perf_counter()
            try:
                output = job.run()
                error = None
            except Exception as exc:
                error = f"raised {type(exc).__name__}: {str(exc)[:120]}"
            latency = time.perf_counter() - t0
            after = calibrate()
            latencies.append((latency, (before + after) / 2))
            before = after
            if traced:
                tracer.end_job()
            if error is None:
                try:
                    error, e, r = job.check(output)
                except Exception as exc:
                    error, e, r = f"output unreadable: {type(exc).__name__}: {exc}", 0, 1
                exact += e
                results += r
            attempted += 1
            if error is not None:
                failed += 1
                if len(failures) < MAX_FAILURES_SHOWN:
                    failures.append(f"{job.label}: {error}")
        if traced:
            layer_passes.append(tracer.end_pass())
        passes.append((traced, latencies))
        elapsed = time.monotonic() - start
        longest = max(longest, time.monotonic() - wall)
        enough = len(passes) >= (4 if trace else MIN_PASSES)
        if elapsed > HARD_STOP_S or (enough and elapsed + longest > seconds):
            break

    plain = job_latencies(passes, traced=False)
    ranked = sorted(plain)
    percentile = tail_percentile(len(ranked))
    metrics = {
        "run_s": sum(plain),
        "op_p50_ms": 1000 * statistics.median(ranked),
        "op_tail_ms": 1000 * nearest_rank(ranked, percentile),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "exact_ratio": exact / results if results else 1.0,
    }
    meta = {"passes": len(passes), "jobs": len(workload.jobs), "tail_percentile": percentile,
            "raw_run_s": sum(min(lat for lat, _ in samples)
                             for samples in zip(*(p[1] for p in passes if not p[0]))),
            "calibration_s": statistics.median(c for p in passes for _, c in p[1])}
    probe = getattr(workload, "probe", None)
    if probe is not None:
        meta["cycle_probe"] = probe()
    if tracer is not None:
        metrics.update(combine_layer_passes(layer_passes))
        metrics["trace.overhead_s"] = sum(job_latencies(passes, traced=True)) - sum(plain)
        metrics["probe.cycle_failures"] = float(sum(r != "ok" for r in meta.get("cycle_probe", ())))
        spans = ROOT / ".bench_work" / f"spans-{workload.name}.tsv"
        tracer.write_spans(spans)
        meta["spans"] = str(spans.relative_to(ROOT))
    return {"attempted": attempted, "failed": failed, "correct": failed == 0,
            "metrics": metrics, "meta": meta, "failures": failures}


def job_latencies(passes, traced: bool) -> list[float]:
    """Each job's latency over the passes of one kind, at reference speed.

    Other tenants of a shared host slow this machine by up to 1.7x for
    stretches of seconds to a whole run, in CPU time as much as in wall
    time.  Every sample is therefore scaled by CALIBRATION_REF_S over the
    time the calibration work took around it, and a job's latency is the
    median of its scaled samples.  A change to prodvc moves the job times
    and not the calibration, so it shows in full.
    """
    runs = [samples for t, samples in passes if t == traced]
    return [statistics.median(lat * CALIBRATION_REF_S / cal for lat, cal in job)
            for job in zip(*runs)]


def combine_layer_passes(layer_passes: list[dict]) -> dict:
    """Per-layer metrics per traced pass, combined over the traced passes:
    times (unscaled) at their best, since contention only adds to them;
    counts at their largest, so that an error in any pass shows."""
    out = {}
    for name in layer_passes[0]:
        values = [p[name] for p in layer_passes]
        out[name] = min(values) if name.endswith(("_s", "_ns")) else max(values)
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if not __debug__:
        fail("the program's certificate checks are asserts; run without -O")
    package, mods = load_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](SimpleNamespace(**mods), args.seed, workdir)
        workload.name = args.workload
        ready = time.monotonic()
        result = {"ready": ready}
        if not args.setup_only:
            result.update(measure(workload, mods, package, args.seconds, bool(args.trace)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
