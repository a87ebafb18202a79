"""prodvc benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each run starts fresh single-threaded
child processes (bench/child.py) that import prodvc from ./src with asserts
on: one that sets up and measures, with SETUP_REPEATS that only set up
split before and after it.  `setup_s` is the median time from starting a
child to its inputs being ready; unlike the job latencies it is not scaled
by the calibration loop, which process start and import follow too loosely.
The last line of stdout is the result; the line before it holds the machine
and run details.  Metric names and units come from BENCHMARK.json.
Workloads, metrics and predictions are described in bench/DESIGN.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 8
DEADLINE_S = 170


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(1)


def spawn(args, extra: list[str], deadline: float) -> tuple[float, dict]:
    """Run one child; return (seconds from its start to inputs ready, its result)."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONOPTIMIZE", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("a benchmark child ran past the deadline")
    if proc.returncode != 0:
        sys.stderr.write(err)
        fail(f"benchmark child exited {proc.returncode}")
    doc = json.loads(out.strip().splitlines()[-1])
    return doc["ready"] - start, doc


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "prodvc" / "__init__.py").is_file():
        fail("no program sources under src/prodvc in this directory")

    setups = [spawn(args, ["--setup-only"], deadline)[0] for _ in range(SETUP_REPEATS // 2)]
    ready, child = spawn(args, [], deadline)
    setups.append(ready)
    setups += [spawn(args, ["--setup-only"], deadline)[0] for _ in range(SETUP_REPEATS // 2)]
    measured = dict(child["metrics"], setup_s=statistics.median(setups))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        fail(f"no value for {', '.join(missing)}")
    for line in child["failures"]:
        print(f"bench: failed job {line}", file=sys.stderr)
    meta = dict(child["meta"], workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace, setups_s=setups,
                python=platform.python_version(), nproc=os.cpu_count(),
                platform=platform.platform())
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": child["correct"], "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))


if __name__ == "__main__":
    main()
