"""Run every workload once and print each metric by name and unit.

    python3 bench/all.py [--seed N] [--seconds S] [--trace 0|1]

Workloads run one after another (never concurrently), each through
bench/run.py, so every number here is one the single-workload command
would print.  Exits non-zero if any workload fails to produce a result or
reports a failed job.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    ok = True
    for workload in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload['name']}: no result (exit {proc.returncode})")
            ok = False
            continue
        result = json.loads(lines[-1])
        meta = json.loads(lines[-2])["meta"]
        ok = ok and result["correct"]
        print(f"{workload['name']}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} jobs={meta['jobs']} passes={meta['passes']} "
              f"tail=p{meta['tail_percentile']}"
              + (f" cycle_probe={meta['cycle_probe']}" if "cycle_probe" in meta else ""))
        for name, metric in result["metrics"].items():
            print(f"  {name:48s} {metric['value']:>14.6g} {metric['unit']}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
