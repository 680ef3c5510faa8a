"""End-to-end simulator benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs repetitions of one workload (see ``workloads.py``), each in a fresh
interpreter (``point.py``), until the next one would end past ``--seconds``
(at least two, so work counters can be compared between repeats).  Every
repetition's output is checked:

* flit conservation, and for ``fault_drain`` a full drain with every
  generated packet delivered (checked inside the repetition);
* its result digest equals the one pinned in ``pins.json`` for the
  workload and input seed; ``paper_ur_shards2`` is pinned to ``paper_ur``'s
  digests, so the sharded result must equal the single-process one;
* its deterministic work counters equal the first repetition's.

A repetition that fails any check counts as failed and adds no timings.
A canary re-runs the digest check against a tampered pin and requires it
to fail.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json`` (medians over repetitions; ``chunk_ms_p90`` is the mean
of the repetitions' p90s).  With ``--trace 1`` the
repetitions alternate traced and untraced; the last line carries the
per-layer metrics of the traced ones plus the tracing overhead (traced vs
untraced ``point_s``), and the spans are written to
``perfbench/out/spans-<workload>-seed<n>.json``.

The workload seed selects the inputs: traffic and fault seeds are
``seed % PIN_SEEDS``, the range ``pins.json`` covers (``pin.py`` rebuilds
it).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from statistics import mean, median

from workloads import HERE, PIN_KEY, ROOT, SRC, WORKLOADS

PIN_SEEDS = 16
PINS = os.path.join(HERE, "pins.json")
OUT = os.path.join(HERE, "out")
POINT = os.path.join(HERE, "point.py")
#: no repetition starts once it could no longer end inside this...
RUN_BUDGET_S = 150
#: ...and one still running at this point of the run is killed and failed
RUN_LIMIT_S = 170
MIN_REPS = 2


def run_rep(workload: str, input_seed: int, traced: bool,
            timeout: float = RUN_LIMIT_S) -> dict:
    """Run one repetition in a fresh process; ``{"error": ...}`` on failure.

    The child gets its own session so that, on timeout, its forked shard
    workers are killed with it.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, POINT, workload, str(input_seed), str(int(traced))],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        _await_group_exit(proc.pid)
        return {"error": f"repetition timed out after {timeout:.0f} s"}
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        return {"error": f"exit code {proc.returncode}: {err.strip()[-2000:]}",
                "wall_s": wall}
    rec = json.loads(out.splitlines()[-1])
    rec["wall_s"] = wall
    return rec


def _await_group_exit(pgid: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def rep_failures(rep: dict, pinned: str | None, ref_counters: dict | None) -> list[str]:
    """Every output check a repetition fails."""
    if "error" in rep:
        return [rep["error"]]
    failures = list(rep["failures"])
    if pinned is None:
        failures.append("no pinned digest for this workload and input seed")
    elif rep["digest"] != pinned:
        failures.append(f"digest {rep['digest']} != pinned {pinned}")
    if ref_counters is not None and rep["counters"] != ref_counters:
        diff = {k: (ref_counters.get(k), v) for k, v in rep["counters"].items()
                if ref_counters.get(k) != v}
        failures.append(f"work counters differ from the first repeat: {diff}")
    return failures


def tampered(digest: str) -> str:
    return digest[:-1] + ("0" if digest[-1] != "0" else "1")


def load_pins(workload: str) -> dict:
    with open(PINS) as f:
        return json.load(f).get(PIN_KEY[workload], {})


def load_metric_units() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no simulator sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    e2e_units, layer_units = load_metric_units()
    input_seed = args.seed % PIN_SEEDS
    pinned = load_pins(args.workload).get(str(input_seed))
    traced_run = bool(args.trace)

    reps: list[dict] = []
    started = time.perf_counter()
    while True:
        traced = traced_run and len(reps) % 2 == 0
        rep = run_rep(args.workload, input_seed, traced,
                      RUN_LIMIT_S - (time.perf_counter() - started))
        rep["traced"] = traced
        reps.append(rep)
        elapsed = time.perf_counter() - started
        walls = [r["wall_s"] for r in reps if "wall_s" in r]
        est = median(walls) if walls else RUN_LIMIT_S
        if elapsed + est > RUN_BUDGET_S:
            break
        if len(reps) >= MIN_REPS and elapsed + est > args.seconds:
            break

    ref = next((r["counters"] for r in reps if "counters" in r), None)
    ok = []
    for rep in reps:
        rep["check_failures"] = rep_failures(rep, pinned, ref)
        if not rep["check_failures"]:
            ok.append(rep)
    canary_ok = bool(ok) and any(
        "digest" in f for f in rep_failures(ok[0], tampered(pinned), ref)
    )
    failed = len(reps) - len(ok)
    correct = failed == 0 and canary_ok

    env = next((r["env"] for r in reps if "env" in r), {})
    print(f"workload {args.workload}, seed {args.seed} (input seed "
          f"{input_seed}), {len(reps)} repetitions in "
          f"{time.perf_counter() - started:.1f} s; python {env.get('python')}, "
          f"nproc {env.get('nproc')}, gc thresholds {env.get('gc_thresholds')}")
    for i, rep in enumerate(reps):
        state = "ok" if not rep["check_failures"] else "; ".join(rep["check_failures"])
        print(f"  rep {i}{' traced' if rep['traced'] else ''}: {state}")
    print(f"  canary (tampered pinned digest is caught): "
          f"{'ok' if canary_ok else 'FAILED'}")
    print(f"  fail_share = {failed / len(reps):.4f} fraction "
          f"({failed} of {len(reps)})")
    if ok:
        print(f"  regime: {json.dumps(ok[0]['regime'])}")
        print(f"  counters: {json.dumps(ok[0]['counters'])}")

    if traced_run:
        metrics = layer_metrics(ok, layer_units)
    else:
        metrics = e2e_metrics(ok, len(reps), e2e_units)
    unseen = set(ok[0].get("not_measured", ())) if ok else set()
    for name, m in metrics.items():
        note = " (not measured on this workload)" if name in unseen else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{note}")

    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    with open(os.path.join(OUT, f"result-{stem}-trace{args.trace}.json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "input_seed": input_seed, "pinned_digest": pinned,
                   "canary_ok": canary_ok, "metrics": metrics,
                   "reps": [{k: v for k, v in r.items() if k != "spans"}
                            for r in reps]}, f, indent=1)
    if traced_run:
        with open(os.path.join(OUT, f"spans-{stem}.json"), "w") as f:
            json.dump([{"rep": i, "spans": r["spans"]}
                       for i, r in enumerate(reps) if "spans" in r], f)

    print(json.dumps({"correct": correct, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0


def e2e_metrics(ok: list[dict], attempted: int, units: dict) -> dict:
    out = {}
    for name, unit in units.items():
        if name == "ok_share":
            value = len(ok) / attempted
        elif name == "chunk_ms_p90":
            # A mean, not a median: in the sharded run whole repetitions
            # land in a slow (~12 ms) or fast (~8 ms) mode, depending on
            # where the scheduler puts three processes on two cores, and
            # the median over repetitions flips between the modes.
            value = mean(r["timings"][name] for r in ok) if ok else 0.0
        else:
            value = median(r["timings"][name] for r in ok) if ok else 0.0
        out[name] = {"value": value, "unit": unit}
    return out


def layer_metrics(ok: list[dict], units: dict) -> dict:
    traced = [r for r in ok if r["traced"]]
    untraced = [r for r in ok if not r["traced"]]
    out = {}
    for name, unit in units.items():
        if name == "trace.overhead_share":
            value = (
                median(r["timings"]["point_s"] for r in traced)
                / median(r["timings"]["point_s"] for r in untraced) - 1
                if traced and untraced else 0.0
            )
        else:
            value = median(r["layers"][name] for r in traced) if traced else 0.0
        out[name] = {"value": value, "unit": unit}
    return out


if __name__ == "__main__":
    sys.exit(main())
