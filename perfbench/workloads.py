"""The benchmark's workloads and schedule arithmetic (no simulator imports,
so the driver can read them in a checkout without the simulator)."""

from __future__ import annotations

import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Each workload: topology, routing, traffic, and the cycle schedule.
#: ``warmup`` cycles run untimed before ``chunks`` timed chunks of
#: ``chunk_cycles`` each; ``warmup + chunks * chunk_cycles`` is the run
#: handed to ``finalize_point``, whose ejected-flit snapshot at half that
#: length must fall on a run boundary.
_PAPER_UR = dict(
    widths=(8, 8, 8), tpr=2, algorithm="DimWAR", pattern="UR", rate=0.2,
    warmup=300, chunks=100, chunk_cycles=2, shards=0,
)
WORKLOADS = {
    "paper_ur": _PAPER_UR,
    "paper_ur_shards2": {**_PAPER_UR, "shards": 2},
    "bc_omniwar": dict(
        widths=(16, 16), tpr=1, algorithm="OmniWAR", pattern="BC", rate=0.6,
        warmup=300, chunks=100, chunk_cycles=3, shards=0,
    ),
    "fault_drain": dict(
        widths=(16, 16), tpr=1, algorithm="FTHX", pattern="UR", rate=0.002,
        warmup=0, chunks=100, chunk_cycles=200, shards=0,
        link_faults=4, fault_cycle=10000,
    ),
}

#: Workload whose pinned digests a workload's result must match: the
#: sharded run must reproduce the single-process run byte for byte.
PIN_KEY = {name: name for name in WORKLOADS}
PIN_KEY["paper_ur_shards2"] = "paper_ur"


def total_cycles(w: dict) -> int:
    return w["warmup"] + w["chunks"] * w["chunk_cycles"]


def warmup_bounds(w: dict) -> list[int]:
    """Cycle boundaries of the untimed warm-up runs (split at the half-way
    snapshot when it falls inside the warm-up)."""
    half = total_cycles(w) // 2
    return sorted({b for b in (half, w["warmup"]) if 0 < b <= w["warmup"]})
