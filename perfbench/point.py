"""One repetition of one benchmark workload, run in a fresh interpreter.

    python3 perfbench/point.py <workload> <input_seed> <traced: 0|1>

Builds the workload's network through the simulator's public calls, runs
it (warm-up, then a measured window of fixed-size cycle chunks, then a
drain where the workload has one), classifies the result with
``finalize_point``, checks it, and prints one JSON object on stdout: host
timings, deterministic work counters, the result digest, the output-check
failures and, when traced, per-layer numbers and spans.

``perfbench/run.py`` starts one such process per repetition so heap growth
and GC state never leak from one repetition into the next.  It also
compares the digest with the pinned one; this process does not read pins.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import sys
from contextlib import nullcontext
from dataclasses import asdict
from statistics import quantiles
from time import perf_counter

from spans import Spans
from workloads import SRC, WORKLOADS, total_cycles, warmup_bounds

sys.path.insert(0, SRC)

from repro import DegradedTopology, HyperX, make_algorithm, random_link_faults  # noqa: E402
from repro.analysis.parallel import PointSpec  # noqa: E402
from repro.analysis.sweep import finalize_point  # noqa: E402
from repro.config import default_config  # noqa: E402
from repro.faults import FaultInjector, FaultSchedule  # noqa: E402
from repro.network.network import Network  # noqa: E402
from repro.network.shard import ShardEngine  # noqa: E402
from repro.network.simulator import Simulator  # noqa: E402
from repro.network.stats import LatencySample, PacketStats  # noqa: E402
from repro.traffic.injection import SyntheticTraffic  # noqa: E402
from repro.traffic.patterns import pattern_by_name  # noqa: E402
from repro.traffic.sizes import UniformSize  # noqa: E402

#: Per-layer metrics the sharded workload cannot see: the simulation runs
#: in forked workers and ShardEngine reports only merged statistics.
SHARD_UNSEEN = (
    "network.build_s", "network.build_gc_collections",
    "network.tracked_objects", "network.run_self_s", "network.flit_hops",
    "network.ns_per_flit_hop", "network.run_gc_collections", "network.run_gc_s",
    "network.executed_cycles", "network.skipped_share",
    "core.route_cache_hit_rate", "core.candidates_calls", "core.candidates_s",
    "traffic.calls", "traffic.s", "traffic.packets_generated",
)


def result_digest(point, samples: list, ejected: int, ejected_at_half: int,
                  backlog: int, extra: dict | None = None) -> str:
    """SHA-256 over the simulated result: the classified point (host time
    left out), every latency sample, and the flit counters it came from."""
    rec = asdict(point)
    rec.pop("wall_clock_s")
    body = {
        "point": rec,
        "samples": hashlib.sha256(
            json.dumps(sorted(samples)).encode()
        ).hexdigest(),
        "ejected": ejected,
        "ejected_at_half": ejected_at_half,
        "backlog": backlog,
        **(extra or {}),
    }
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def p90_ms(chunk_s: list[float]) -> float:
    return quantiles(chunk_s, n=10)[-1] * 1e3


def hit_rate(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


# ----------------------------------------------------------------------
# Single-process workloads
# ----------------------------------------------------------------------


def run_single(w: dict, seed: int, spans: Spans | None) -> dict:
    span = nullcontext if spans is None else spans.span

    class Traffic(SyntheticTraffic):
        """Counts executed cycles (the engine calls every process once per
        executed cycle); traced, folds its calls into ``traffic`` spans."""

        executed = 0

        def __call__(self, cycle):
            self.executed += 1
            if spans is None:
                return SyntheticTraffic.__call__(self, cycle)
            return spans.timed("traffic", SyntheticTraffic.__call__, self, cycle)

        def next_wakeup(self, cycle):
            if spans is None:
                return SyntheticTraffic.next_wakeup(self, cycle)
            return spans.timed("traffic", SyntheticTraffic.next_wakeup, self, cycle)

    class Injector(FaultInjector):
        """Traced, folds the injector's calls into ``faults.injector``."""

        def __call__(self, cycle):
            if spans is None:
                return FaultInjector.__call__(self, cycle)
            return spans.timed("faults.injector", FaultInjector.__call__, self, cycle)

        def next_wakeup(self, cycle):
            if spans is None:
                return FaultInjector.next_wakeup(self, cycle)
            return spans.timed(
                "faults.injector", FaultInjector.next_wakeup, self, cycle)

    layers: dict = {}
    started = perf_counter()
    with span("topology"):
        base = HyperX(w["widths"], w["tpr"])
        topo = DegradedTopology(base) if w.get("link_faults") else base
        algo = make_algorithm(w["algorithm"], topo)
    t = perf_counter()
    with span("network.build"):
        net = Network(topo, algo, default_config())
    build_s = perf_counter() - t
    setup_s = perf_counter() - started
    if spans is not None:
        layers["network.build_gc_collections"] = spans.totals(
            "gc", parent="network.build")[0]
        with span("bench.count_objects"):
            layers["network.tracked_objects"] = len(gc.get_objects())

    sim = Simulator(net)
    if w.get("link_faults"):
        fset = random_link_faults(base, k=w["link_faults"], seed=seed)
        sim.processes.append(  # before traffic, as in the fault drivers
            Injector(net, FaultSchedule.from_faultset(fset, cycle=w["fault_cycle"]))
        )
    traffic = Traffic(
        net, pattern_by_name(w["pattern"], base), w["rate"],
        UniformSize(1, 16), seed=seed,
    )
    sim.processes.append(traffic)
    stats = PacketStats()
    for term in net.terminals:
        term.delivery_listeners.append(stats.on_delivery)
    if spans is not None:
        algo.candidates = spans.wrap("core.candidates", algo.candidates)
        untraced_run = sim.run

        def traced_run(cycles):
            with span("network.run"):
                untraced_run(cycles)

        sim.run = traced_run  # Simulator.drain reaches it through self.run

    routers = net.routers
    total = total_cycles(w)
    half = total // 2
    ejected_at_half = None
    for bound in warmup_bounds(w):
        sim.run(bound - sim.cycle)
        if sim.cycle == half:
            ejected_at_half = net.total_ejected_flits()
    hits0 = sum(r.route_cache_hits for r in routers)
    misses0 = sum(r.route_cache_misses for r in routers)
    ejected0 = net.total_ejected_flits()
    chunk_s = []
    cc = w["chunk_cycles"]
    for _ in range(w["chunks"]):
        t = perf_counter()
        sim.run(cc)
        chunk_s.append(perf_counter() - t)
        if sim.cycle == half:
            ejected_at_half = net.total_ejected_flits()
    hits = sum(r.route_cache_hits for r in routers) - hits0
    misses = sum(r.route_cache_misses for r in routers) - misses0
    ejected = net.total_ejected_flits()
    backlog = net.total_backlog_flits()

    with span("analysis.finalize_point"):
        point = finalize_point(
            rate=w["rate"], total_cycles=total,
            num_terminals=base.num_terminals, stats=stats,
            ejected_total=ejected, ejected_at_half=ejected_at_half,
            undelivered_backlog=backlog,
            routes_computed=sum(r.routes_computed for r in routers),
            route_stalls=sum(r.route_stalls for r in routers),
            started=started,
        )
    samples = [
        (s.create_cycle, s.latency, s.hops, s.deroutes) for s in stats.samples
    ]
    failures = []
    injected, in_flight = net.total_injected_flits(), net.flits_in_flight()
    if injected != ejected + in_flight:
        failures.append(
            f"flit conservation: injected {injected} != ejected {ejected} "
            f"+ in flight {in_flight}"
        )

    extra = None
    drain_s = 0.0
    state = net.fault_state
    if w.get("link_faults"):
        traffic.stop()
        t = perf_counter()
        with span("faults.drain"):
            drained = sim.drain()
        drain_s = perf_counter() - t
        injected, drained_flits = (
            net.total_injected_flits(), net.total_ejected_flits())
        if not drained:
            failures.append("network did not drain")
        if stats.packets_delivered != traffic.packets_generated:
            failures.append(
                f"delivered {stats.packets_delivered} of "
                f"{traffic.packets_generated} generated packets"
            )
        if injected != drained_flits or net.total_backlog_flits():
            failures.append(
                f"after drain: injected {injected} flits, ejected "
                f"{drained_flits}, backlog {net.total_backlog_flits()}"
            )
        extra = {
            "drained_at": sim.cycle,
            "drained_packets": stats.packets_delivered,
            "drained_flits": drained_flits,
        }
    digest = result_digest(point, samples, ejected, ejected_at_half, backlog,
                           extra)
    point_s = perf_counter() - started

    counters = {
        "routes_computed": sum(r.routes_computed for r in routers),
        "route_cache_hits": sum(r.route_cache_hits for r in routers),
        "route_cache_misses": sum(r.route_cache_misses for r in routers),
        "route_stalls": sum(r.route_stalls for r in routers),
        "flit_hops": sum(r.flits_forwarded for r in routers),
        "executed_cycles": traffic.executed,
        "simulated_cycles": sim.cycle,
        "packets_generated": traffic.packets_generated,
        "flits_injected": net.total_injected_flits(),
        "fault_events": state.events_applied if state else 0,
    }
    window_s = sum(chunk_s)
    timings = {
        "setup_s": setup_s,
        "point_s": point_s,
        "window_s": window_s,
        "cycles_per_s": w["chunks"] * cc / window_s,
        "flits_per_s": (ejected - ejected0) / window_s,
        "chunk_ms_p90": p90_ms(chunk_s),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    regime = {
        "warmup_cycles": w["warmup"],
        "hit_rate_after_warmup": hit_rate(hits0, misses0),
        "window_hit_rate": hit_rate(hits, misses),
        "window_cycles": [total - w["chunks"] * cc, total],
        "latency_window": [int(total * 0.3), int(total * 0.7)],
        "stable": point.stable,
        "mean_latency": point.mean_latency,
        "accepted_rate": point.accepted_rate,
    }
    if spans is not None:
        self_s = spans.self_times()
        run_self = self_s.get("network.run", 0.0)
        cand_calls, cand_s = spans.totals("core.candidates")
        traffic_calls, traffic_s = spans.totals("traffic")
        run_gc = spans.totals("gc", parent="network.run")
        layers.update({
            "network.build_s": build_s,
            "network.run_self_s": run_self,
            "network.flit_hops": counters["flit_hops"],
            "network.ns_per_flit_hop":
                run_self / max(1, counters["flit_hops"]) * 1e9,
            "network.run_gc_collections": run_gc[0],
            "network.run_gc_s": run_gc[1],
            "network.executed_cycles": counters["executed_cycles"],
            "network.skipped_share":
                1 - counters["executed_cycles"] / counters["simulated_cycles"],
            "core.routes_computed": counters["routes_computed"],
            "core.route_cache_hit_rate": regime["window_hit_rate"],
            "core.candidates_calls": cand_calls,
            "core.candidates_s": cand_s,
            "core.route_stalls": counters["route_stalls"],
            "traffic.calls": traffic_calls,
            "traffic.s": traffic_s,
            "traffic.packets_generated": counters["packets_generated"],
            "faults.events_applied": counters["fault_events"],
            "faults.masked_candidates": state.masked_candidates if state else 0,
            "faults.injector_s": spans.totals("faults.injector")[1],
            "faults.drain_s": drain_s,
            "shard.spawn_s": 0.0,
            "shard.worker_cpu_s": 0.0,
            "shard.lockstep_wait_share": 0.0,
            "shard.max_worker_rss_mib": 0.0,
        })
    return {
        "digest": digest, "failures": failures, "counters": counters,
        "timings": timings, "regime": regime, "layers": layers,
    }


# ----------------------------------------------------------------------
# Sharded workload
# ----------------------------------------------------------------------


def run_sharded(w: dict, seed: int, spans: Spans | None) -> dict:
    span = nullcontext if spans is None else spans.span
    total = total_cycles(w)
    half = total // 2
    shards = w["shards"]
    spec = PointSpec(
        widths=w["widths"], terminals_per_router=w["tpr"],
        algorithm=w["algorithm"], pattern=w["pattern"], rate=w["rate"],
        total_cycles=total, seed=seed, shards=shards,
    )
    started = perf_counter()
    with span("shard.spawn"):
        engine = ShardEngine(spec, shards)
    setup_s = perf_counter() - started
    try:
        def run(cycles):
            with span("shard.run"):
                engine.run(cycles)

        ejected_at_half = None
        for bound in warmup_bounds(w):
            run(bound - engine.cycle)
            if engine.cycle == half:
                ejected_at_half = engine.total_ejected()
        ejected0 = engine.total_ejected()
        chunk_s = []
        cc = w["chunk_cycles"]
        for _ in range(w["chunks"]):
            t = perf_counter()
            run(cc)
            chunk_s.append(perf_counter() - t)
            if engine.cycle == half:
                ejected_at_half = engine.total_ejected()
        window_flits = engine.total_ejected() - ejected0
        simulated = engine.cycle
        with span("shard.finish"):
            reports = engine.finish()
    finally:
        with span("shard.close"):
            engine.close()
    engine_wall = perf_counter() - started

    stats = PacketStats()
    for rep in reports:
        stats.samples.extend(LatencySample(*s) for s in rep["samples"])
        stats.packets_delivered += rep["packets_delivered"]
        stats.flits_delivered += rep["flits_delivered"]
    ejected = sum(r["ejected"] for r in reports)
    backlog = sum(r["backlog"] for r in reports)
    counters = {
        "routes_computed": sum(r["routes_computed"] for r in reports),
        "route_stalls": sum(r["route_stalls"] for r in reports),
        "packets_delivered": stats.packets_delivered,
        "flits_ejected": ejected,
        "simulated_cycles": simulated,
    }
    with span("analysis.finalize_point"):
        point = finalize_point(
            rate=w["rate"], total_cycles=total,
            num_terminals=engine.num_terminals, stats=stats,
            ejected_total=ejected, ejected_at_half=ejected_at_half,
            undelivered_backlog=backlog,
            routes_computed=counters["routes_computed"],
            route_stalls=counters["route_stalls"],
            started=started,
        )
    samples = [
        (s.create_cycle, s.latency, s.hops, s.deroutes) for s in stats.samples
    ]
    digest = result_digest(point, samples, ejected, ejected_at_half, backlog)
    point_s = perf_counter() - started

    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    worker_cpu = workers.ru_utime + workers.ru_stime
    window_s = sum(chunk_s)
    timings = {
        "setup_s": setup_s,
        "point_s": point_s,
        "window_s": window_s,
        "cycles_per_s": w["chunks"] * cc / window_s,
        "flits_per_s": window_flits / window_s,
        "chunk_ms_p90": p90_ms(chunk_s),
        "peak_rss_mib": workers.ru_maxrss / 1024,  # the largest worker
    }
    regime = {
        "warmup_cycles": w["warmup"],
        "window_cycles": [total - w["chunks"] * cc, total],
        "latency_window": [int(total * 0.3), int(total * 0.7)],
        "stable": point.stable,
        "mean_latency": point.mean_latency,
        "accepted_rate": point.accepted_rate,
    }
    layers: dict = {}
    if spans is not None:
        layers = {name: 0 for name in SHARD_UNSEEN}
        layers.update({
            "core.routes_computed": counters["routes_computed"],
            "core.route_stalls": counters["route_stalls"],
            "faults.events_applied": 0,
            "faults.masked_candidates": 0,
            "faults.injector_s": 0.0,
            "faults.drain_s": 0.0,
            "shard.spawn_s": setup_s,
            "shard.worker_cpu_s": worker_cpu,
            # Workers live from spawn to close; whatever part of that
            # lifetime they did not spend on a CPU they spent waiting for
            # the lock-step exchange (or for the coordinator).
            "shard.lockstep_wait_share": 1 - worker_cpu / (shards * engine_wall),
            "shard.max_worker_rss_mib": workers.ru_maxrss / 1024,
        })
    return {
        "digest": digest, "failures": [], "counters": counters,
        "timings": timings, "regime": regime, "layers": layers,
        "not_measured": list(SHARD_UNSEEN) if spans is not None else [],
    }


def main(argv: list[str]) -> int:
    if len(argv) != 4 or argv[1] not in WORKLOADS or argv[3] not in ("0", "1"):
        print(f"usage: {argv[0]} <{'|'.join(WORKLOADS)}> <seed> <0|1>",
              file=sys.stderr)
        return 2
    w = WORKLOADS[argv[1]]
    spans = Spans() if argv[3] == "1" else None
    runner = run_sharded if w["shards"] else run_single
    with (nullcontext() if spans is None else spans.span("point")):
        out = runner(w, int(argv[2]), spans)
    if spans is not None:
        out["spans"] = spans.to_json()
        out["self_s"] = spans.self_times()
    out["env"] = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "gc_thresholds": list(gc.get_threshold()),
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
