#!/usr/bin/env python3
"""JAMM benchmark: goodput, event age and failure share per workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload steady --seed 4242 --seconds 30
    python3 perfbench/run.py --workload storm --trace 1
    python3 perfbench/run.py --self-test

A run repeats the workload (a batch job of fixed simulated size, see
``workloads.py``) back to back for ``--seconds`` and reports medians
over the repetitions.  Every repetition passes the correctness gate or
is counted as failed, not timed.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` adds one traced repetition and prints the
per-layer metrics instead (writing the per-span aggregates under
``perfbench/out/``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Wall times are corrected for host speed by :mod:`clock`; see there.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: kernel events per timed slice: the host-speed calibration runs
#: between slices (about every 50 ms of work)
SLICE_EVENTS = 2000
#: setup is a few milliseconds; take at least this many samples a run
MIN_SETUPS = 20
#: a layer-self-time sum may miss the traced wall time by this share
SELF_SUM_TOLERANCE = 0.05

END_TO_END = (
    ("committed_per_s", "1/s"), ("deliveries_per_s", "1/s"),
    ("sim_s_per_wall_s", "s/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("event_age_p50_ms", "sim_ms"), ("event_age_p99_ms", "sim_ms"),
    ("search_p50_ms", "sim_ms"), ("search_p95_ms", "sim_ms"),
    ("success_frac", "ratio"))


def make_slicer(clock):
    """``make_run(sim)`` for the workloads: runs the simulation in
    slices of ``SLICE_EVENTS`` kernel events, ticking ``clock`` after
    each, with the same outcome as one ``sim.run(until)``."""
    def make_run(sim):
        def run(until=None, **_kwargs):
            while True:
                before = sim.events_executed
                sim.run(until=until, max_events=SLICE_EVENTS)
                clock.tick()
                if sim.events_executed - before < SLICE_EVENTS:
                    return sim.now
        return run
    return make_run


def timed_setup(cls, seed: int, clock) -> tuple:
    """Build one workload; returns (workload, corrected setup seconds)."""
    gc.collect()
    workload = cls(seed)
    clock.start()
    workload.setup()
    return workload, clock.stop()[1]


def run_once(cls, seed: int, clock, tracer=None):
    """One repetition: returns (setup_s, run_wall_s, run_s, outcome)
    where the unprefixed times are host-speed corrected.  With a
    ``tracer``, only spans of the execution phase are kept (the call
    counters keep setup's calls, as the program's counters do)."""
    workload, setup_s = timed_setup(cls, seed, clock)
    gc.collect()
    if tracer is not None:
        tracer.spans.clear()
    clock.start()
    workload.execute(make_slicer(clock))
    run_wall, run_s = clock.stop()
    return setup_s, run_wall, run_s, workload.outcome()


def gate(outcome, digest) -> list:
    problems = list(outcome.violations)
    if digest is not None and outcome.digest != digest:
        problems.append("digest differs from the first run of this seed")
    return problems


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------


def end_to_end(reps: list, setups: list) -> tuple:
    """(metrics, detail) over the timed repetitions."""
    from workloads import percentile
    first = reps[0][3]
    runs = [r[2] for r in reps]
    ages, searches = first.ages_ms, [ms for ms, _ in first.searches]
    values = {
        "committed_per_s": statistics.median(
            r[3].committed / r[2] for r in reps),
        "deliveries_per_s": statistics.median(
            r[3].deliveries / r[2] for r in reps),
        "sim_s_per_wall_s": statistics.median(
            r[3].sim_s / r[2] for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "event_age_p50_ms": percentile(ages, 50),
        "event_age_p99_ms": percentile(ages, 99),
        "search_p50_ms": percentile(searches, 50),
        "search_p95_ms": percentile(searches, 95),
        "success_frac": 1.0 - first.failed / first.attempted,
    }
    beyond = len(searches) - int(-(-len(searches) * 95 // 100))
    print(f"# {len(reps)} timed runs; corrected run time median "
          f"{statistics.median(runs):.3f} s, raw wall median "
          f"{statistics.median(r[1] for r in reps):.3f} s; "
          f"{len(ages)} event ages, {len(searches)} searches "
          f"({beyond} beyond p95), {len(setups)} setups")
    return ({name: {"value": values[name], "unit": unit}
             for name, unit in END_TO_END}, {"beyond_p95": beyond})


# ---------------------------------------------------------------------------
# per-layer metrics (traced run)
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, outcome, traced_wall: float, traced_s: float,
              untraced_s: float) -> tuple:
    """(metrics, fidelity problems, per-key aggregate) of a traced run."""
    from tracing import LAYERS
    agg = tracer.aggregate()
    keys, counts = agg["keys"], tracer.counts

    def calls(prefix: str) -> int:
        return sum(r["calls"] for k, r in keys.items()
                   if k.startswith(prefix))

    def self_s(prefix: str) -> float:
        return sum(r["self_s"] for k, r in keys.items()
                   if k.startswith(prefix))

    def total_s(key: str) -> float:
        return keys.get(key, {}).get("total_s", 0.0)

    world, deployment = outcome.world, outcome.deployment
    transport = world.transport
    links = world.network.links()
    gateways = [g.stats() for g in deployment.gateways.values()]
    archives = [a.stats() for a in outcome.archives]
    heal = [s.heal_stats() for s in outcome.sessions]
    directory = deployment.directory
    servers = [directory.master] + list(directory.replicas)
    backends = [s.backend for s in servers]
    sensors = [m.sensors[n] for m in deployment.managers.values()
               for n in m.sensors]
    policy_stats = [p.stats() for p in outcome.policies]
    totals = {c: sum(p["totals"][c] for p in policy_stats)
              for c in ("attempts", "retries", "failures")}

    committed = outcome.committed
    ingests = counts["gateway.ingests"]
    sends = sum(v for k, v in counts.items()
                if k.startswith("transport.sends."))
    serialize = calls("ulm.manager.") + calls("ulm.gateway.") \
        + calls("ulm.runner.")
    parse = calls("ulm.intake.") + calls("ulm.consumer.")
    scanned = counts["session.replay_scanned"]
    replayed = sum(h["replayed"] for h in heal)
    unattributed = traced_wall - agg["top_s"]

    m = {
        "kernel.events": counts["kernel.events"],
        "kernel.events_per_committed": _ratio(counts["kernel.events"],
                                              committed),
        "transport.sends.monitoring": counts["transport.sends.monitoring"],
        "transport.sends.background": counts["transport.sends.background"],
        "transport.wakeups_per_send": _ratio(transport.delivery_wakeups,
                                             sends),
        "transport.queue_delay_s": transport.queue_delay_s,
        "transport.lost": transport.messages_lost
        + transport.messages_lost_congestion,
        "links.offers": calls("links.queue_offer"),
        "links.drops": counts["links.drops"],
        "links.peak_backlog_s": max(max(l.queue_peak_s) for l in links),
        "ulm.serialize_calls": serialize,
        "ulm.parse_calls": parse,
        "ulm.calls_per_committed": _ratio(serialize + parse, committed),
        "manager.relays": calls("manager.relay"),
        "gateway.ingests": ingests,
        "gateway.deliveries_per_ingest": _ratio(
            sum(g["events_delivered"] for g in gateways), ingests),
        "gateway.renders_per_ingest": _ratio(calls("ulm.gateway."),
                                             ingests),
        "gateway.filtered": sum(g["events_filtered"] for g in gateways),
        "gateway.outbox_peak": max(g["outbox_peak"] for g in gateways),
        "gateway.shed": sum(g["events_shed"] for g in gateways),
        "consumer.dispatches": calls("consumer.dispatch"),
        "session.heal_passes": calls("session.heal_now"),
        "session.replay_scanned": scanned,
        "session.replayed": replayed,
        "session.replay_useful_ratio": _ratio(replayed, scanned),
        "session.resubscribes": sum(h["resubscribes"] for h in heal),
        "archive.appends": counts["archive.appends"],
        "archive.append_s": total_s("archive.append"),
        "archive.scanned": counts["archive.scanned"],
        "archive.scan_s": total_s("archive.iter_query"),
        "archive.compactions": calls("archive.compact_once"),
        "archive.compact_s": total_s("archive.compact_once"),
        "directory.searches": counts["directory.searches"],
        "directory.index_hit_ratio": _ratio(
            sum(b.index_hits for b in backends),
            sum(b.index_hits + b.full_scans for b in backends)),
        "resilience.attempts": totals["attempts"],
        "resilience.retries": totals["retries"],
        "resilience.failures": totals["failures"],
        "resilience.breaker_opens": sum(
            b["opens"] for p in policy_stats for b in p["breakers"].values()),
        "resilience.budget_denied": sum(
            p["budget"]["retries_denied"] for p in policy_stats),
        "resilience.success_ratio": _ratio(
            totals["attempts"] - totals["failures"], totals["attempts"]),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.unattributed_s": unattributed,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s(f"{layer}.")

    # wrapper fidelity: every layer's call count against the program's
    # own counter for the same thing
    fidelity = (
        ("kernel.events", counts["kernel.events"],
         world.sim.events_executed),
        ("transport sends", sends, transport.messages_sent),
        ("links.drops", counts["links.drops"],
         sum(sum(l.queue_drops) for l in links)),
        ("gateway.ingests", ingests, sum(g["events_in"] for g in gateways)),
        ("archive.appends", counts["archive.appends"],
         sum(a["ingested"] for a in archives)),
        ("manager.relays", m["manager.relays"],
         sum(s.events_emitted for s in sensors)),
        ("consumer accepts", calls("consumer.accept"),
         sum(s.received for s in outcome.sessions)),
        ("session.resubscribes", counts["session.resubscribes"],
         m["session.resubscribes"]),
        ("directory.searches", counts["directory.searches"],
         sum(s.op_counts["search"] for s in servers)),
    )
    problems = [f"{name}: wrappers saw {seen}, program counted {truth}"
                for name, seen, truth in fidelity if seen != truth]
    self_sum = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    if abs(self_sum + unattributed - traced_wall) > \
            SELF_SUM_TOLERANCE * traced_wall or unattributed < 0:
        problems.append(
            f"layer self times {self_sum:.4f} s + residual "
            f"{unattributed:.4f} s != traced wall {traced_wall:.4f} s")
    return m, problems, agg


def _unit(name: str) -> str:
    if name.endswith("_ratio") or name.endswith("_frac") \
            or "_per_" in name:
        return "ratio"
    if name in ("transport.queue_delay_s", "links.peak_backlog_s"):
        return "sim_s"
    if name.endswith("_s"):
        return "s"
    return "count"


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from clock import RefClock
    from workloads import WORKLOADS
    cls = WORKLOADS[name]
    clock = RefClock()
    reps, setups, problems = [], [], []
    attempted = failed = runs = 0
    digest = None
    deadline = perf_counter() + seconds
    while runs == 0 or perf_counter() < deadline:
        runs += 1
        setup_s, run_wall, run_s, out = run_once(cls, seed, clock)
        attempted += out.attempted
        bad = gate(out, digest)
        digest = digest or out.digest
        if bad:
            problems.extend(bad)
            failed += out.attempted
            continue
        failed += out.failed
        setups.append(setup_s)
        # the first outcome keeps its world for the metrics; later ones
        # drop theirs, so a run holds one world at a time
        reps.append((setup_s, run_wall, run_s, _light(out) if reps else out))
    while len(setups) < MIN_SETUPS:
        setups.append(timed_setup(cls, seed, clock)[1])
    if not reps:
        return {"correct": False, "attempted": attempted, "failed": failed,
                "problems": problems, "metrics": {}, "detail": {}}
    if not trace:
        metrics, detail = end_to_end(reps, setups)
    else:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(extra=_bench_hooks())
        try:
            _, wall, run_s, out = run_once(cls, seed, clock, tracer)
        finally:
            tracer.restore()
        attempted += out.attempted
        bad = gate(out, digest)
        failed += out.attempted if bad else out.failed
        untraced = statistics.median(r[2] for r in reps)
        metrics, fidelity, agg = per_layer(tracer, out, wall, run_s,
                                           untraced)
        problems.extend(bad + fidelity)
        _write_trace(name, seed, tracer, agg, metrics, problems)
        metrics = {k: {"value": v, "unit": _unit(k)}
                   for k, v in sorted(metrics.items())}
        detail = {"keys": agg["keys"]}
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "problems": problems, "metrics": metrics,
            "detail": detail}


def _light(out):
    """The outcome without references to its world."""
    out.world = out.deployment = None
    out.sessions, out.archives, out.policies = [], [], []
    return out


def _bench_hooks() -> list:
    import workloads
    return [(workloads.AgeRecordingRunner, "_record", "runner.record"),
            (workloads.Recorder, "__call__", "runner.record")]


def _write_trace(name, seed, tracer, agg, metrics, problems) -> None:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    doc = {"workload": name, "seed": seed, "spans": len(tracer.spans),
           "keys": agg["keys"], "metrics": metrics, "problems": problems}
    path = out_dir / f"trace-{name}-{seed}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import repro
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise SystemExit(f"repro imported from {repro.__file__}, not from "
                         f"this checkout's src/")
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long to repeat the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check every workload on two seeds")
    args = parser.parse_args(argv)
    if args.self_test:
        from selftest import self_test
        return self_test(measure)
    if args.workload is None:
        parser.error("--workload is required")
    cls = WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    result = measure(args.workload, seed, args.seconds, bool(args.trace))
    result.pop("detail")
    for problem in result.pop("problems"):
        print(f"# FAILED CHECK: {problem}")
    for metric, row in result["metrics"].items():
        print(f"{metric} {row['value']:.6g} {row['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
