"""Rebuild ``pins.json``: the result digest of every workload and input seed.

    python3 perfbench/pin.py

Runs each pinned workload once per input seed in ``range(PIN_SEEDS)``, each
in a fresh process, and refuses to pin a result that fails its own output
checks, or a sharded result that differs from the single-process one.
Only rerun it when a change is meant to alter simulated results.
"""

from __future__ import annotations

import json
import sys

from run import PIN_SEEDS, PINS, run_rep
from workloads import PIN_KEY, WORKLOADS


def main() -> int:
    pins: dict = {}
    for workload in WORKLOADS:
        key = PIN_KEY[workload]
        for seed in range(PIN_SEEDS):
            rep = run_rep(workload, seed, traced=False)
            problems = [rep["error"]] if "error" in rep else rep["failures"]
            if problems:
                print(f"{workload} seed {seed}: {problems}", file=sys.stderr)
                return 1
            known = pins.setdefault(key, {}).setdefault(str(seed), rep["digest"])
            if known != rep["digest"]:
                print(f"{workload} seed {seed}: digest {rep['digest']} differs "
                      f"from {key}'s {known}", file=sys.stderr)
                return 1
            print(f"{workload} seed {seed}: {rep['digest']}", flush=True)
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
