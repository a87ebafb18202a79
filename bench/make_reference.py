"""Rebuild bench/reference.json, the committed reference answers.

    python3 bench/make_reference.py

- `vc`: the vc-products instance pool.  Each entry names the generator and
  seed of one instance, a digest of it, the factor edge its job reduces
  along, and its vcd, vcdens, vcd* and vcdens* computed by oracle.py, which
  shares no code with prodvc.
- `verify`: for each verify-mix job, the exit code and a digest of the
  multiset of (claim, instance, lhs, rhs, verdict) that prodvc reports at
  the commit this is run on.  That workload's inputs are the program's own
  generators, so these are golden answers: rebuild them only when a change
  is meant to alter what the suites report, and say so.
"""

from __future__ import annotations

import json
import random
import sys
from types import SimpleNamespace

import oracle
from child import load_program
from workloads import (REFERENCE, VC_POOL, cli, digest, verify_commands,
                       verify_summary, vc_pool_instance)


def vc_entry(kind: str, gen_seed: int) -> dict:
    entry = {"kind": kind, "gen_seed": gen_seed}
    inst = vc_pool_instance(entry)
    rng = random.Random(gen_seed)
    i = rng.choice([j for j, f in enumerate(inst["factors"]) if f["edges"]])
    u, v = rng.choice(inst["factors"][i]["edges"])
    values = oracle.vc_values(inst)
    return dict(entry, digest=digest(inst), reduce=[i, u, v],
                vcd=values["vcd"], vcdens=str(values["vcdens"]),
                vcd_star=values["vcd_star"], vcdens_star=str(values["vcdens_star"]))


def main() -> None:
    _, mods = load_program()
    mods = SimpleNamespace(**mods)
    caches = [mods.vc.connected_partitions, mods.vc._partition_density]
    verify = {}
    for key, argv in verify_commands().items():
        for cache in caches:
            cache.cache_clear()
        verify[key] = verify_summary(*cli(mods, argv))
        print(key, verify[key]["records"], file=sys.stderr)
    vc = [vc_entry(kind, seed) for kind, seed in VC_POOL]
    REFERENCE.write_text(json.dumps({"vc": vc, "verify": verify}, indent=1, sort_keys=True)
                         + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
