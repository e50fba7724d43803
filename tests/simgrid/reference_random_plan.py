"""A frozen copy of ``FaultPlan.random`` from before the fault-kind table.

``repro.simgrid.faults`` now derives the random draw from one table
entry per fault kind; this module keeps the hand-written ``elif``
chain it replaced, verbatim, as the oracle for the differential test
(``test_random_plan_differential.py``).  It builds plans through the
public :class:`FaultPlan` builder methods only, so the two can be
compared by their JSON.  Do not edit it to follow the program: a
difference is the finding.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.simgrid import FaultPlan

__all__ = ["reference_random"]

TRAFFIC_STORM_KINDS = ("constant", "onoff")


def reference_random(seed: int, *, hosts: Iterable[str],
                     links: Iterable[str] = (), n_steps: int = 50,
                     horizon: float = 60.0,
                     protect: Iterable[str] = (),
                     max_down_fraction: float = 0.67,
                     consumers: Iterable[str] = (),
                     archives: Iterable[str] = (),
                     storms: Iterable[str] = (),
                     flaky: Iterable[str] = ()) -> FaultPlan:
    rng = random.Random(seed)
    host_names = sorted(set(hosts))
    link_names = sorted(set(links))
    consumer_names = sorted(set(consumers))
    archive_names = sorted(set(archives))
    storm_names = sorted(set(storms))
    protected = set(protect)
    crashable = [h for h in host_names if h not in protected]
    plan = FaultPlan(seed=seed)
    #: host -> [(crash_at, restart_at)] — a host may crash many
    #: times per plan, just never with overlapping down intervals
    down_spans: dict[str, list[tuple[float, float]]] = {}
    partitioned_until = -1.0
    max_down = max(1, int(len(crashable) * max_down_fraction)) \
        if crashable else 0

    def hosts_down_at(t: float) -> int:
        return sum(1 for spans in down_spans.values()
                   for lo, hi in spans if lo <= t < hi)

    def recover_at(at: float) -> float:
        return min(at + round(rng.uniform(2.0, horizon * 0.2), 3),
                   horizon * 0.95)

    kinds = ["host_crash", "process_kill", "partition",
             "link_loss", "link_latency", "clock_skew",
             "sensor_degrade", "asymmetric_partition"]
    if consumer_names:
        kinds.append("slow_consumer")
    if archive_names:
        kinds += ["disk_full", "compaction_stall", "torn_segment",
                  "slow_disk"]
    if len(storm_names) >= 2:
        kinds.append("congestion_storm")
    flaky_names = sorted(set(flaky))
    if flaky_names:
        kinds.append("flaky_rpc")
    for _ in range(max(0, int(n_steps))):
        at = round(rng.uniform(0.0, horizon * 0.8), 3)
        kind = rng.choice(kinds)
        if kind == "host_crash" and crashable:
            host = rng.choice(crashable)
            down = round(rng.uniform(1.0, horizon * 0.15), 3)
            restart_at = min(at + down, horizon * 0.95)
            spans = down_spans.setdefault(host, [])
            if any(lo <= restart_at and at <= hi for lo, hi in spans):
                continue  # overlaps one of this host's down windows
            if hosts_down_at(at) >= max_down:
                continue  # too many hosts down at once
            plan.crash_host(at, host)
            plan.restart_host(restart_at, host)
            spans.append((at, restart_at))
        elif kind == "process_kill":
            plan.kill_process(at, rng.choice(host_names))
        elif kind == "partition" and len(host_names) >= 2:
            if at <= partitioned_until:
                continue
            cut = rng.randint(1, len(host_names) - 1)
            group_a = host_names[:cut]
            group_b = host_names[cut:]
            heal_at = min(at + round(rng.uniform(1.0, horizon * 0.2), 3),
                          horizon * 0.95)
            plan.partition(at, group_a, group_b)
            plan.heal(heal_at)
            partitioned_until = heal_at
        elif kind == "link_loss" and link_names:
            plan.link_loss(at, rng.choice(link_names),
                           round(rng.uniform(0.0, 0.2), 4))
        elif kind == "link_latency" and link_names:
            plan.link_latency(at, rng.choice(link_names),
                              round(rng.uniform(0.5, 20.0), 3))
        elif kind == "clock_skew":
            plan.skew_clock(at, rng.choice(host_names),
                            offset=round(rng.uniform(-0.5, 0.5), 6),
                            drift=round(rng.uniform(-1e-4, 1e-4), 9))
        elif kind == "sensor_degrade":
            pool = crashable or host_names
            host = rng.choice(pool)
            plan.degrade_sensor(
                at, host,
                mode=rng.choice(["corrupt", "partial"]),
                rate=round(rng.uniform(0.5, 1.0), 3),
                seed=rng.randrange(2**31))
            plan.restore_sensor(recover_at(at), host)
        elif kind == "asymmetric_partition" and len(host_names) >= 2:
            if at <= partitioned_until:
                continue
            cut = rng.randint(1, len(host_names) - 1)
            heal_at = recover_at(at)
            plan.asymmetric_partition(at, host_names[:cut],
                                      host_names[cut:])
            plan.heal(heal_at)
            partitioned_until = heal_at
        elif kind == "slow_consumer":
            host = rng.choice(consumer_names)
            plan.slow_consumer(at, host,
                               rate=round(rng.uniform(1.0, 10.0), 3))
            plan.restore_consumer(recover_at(at), host)
        elif kind == "disk_full":
            archive = rng.choice(archive_names)
            plan.disk_full(at, archive,
                           budget_bytes=rng.randrange(8_000, 64_000))
            plan.restore_disk(recover_at(at), archive)
        elif kind == "compaction_stall":
            archive = rng.choice(archive_names)
            plan.stall_compaction(at, archive, mode="wedge")
            plan.restore_compaction(recover_at(at), archive)
        elif kind == "torn_segment":
            archive = rng.choice(archive_names)
            plan.tear_segment(at, archive, index=rng.randrange(0, 8))
            plan.mend_segments(recover_at(at), archive)
        elif kind == "slow_disk":
            archive = rng.choice(archive_names)
            plan.slow_disk(at, archive,
                           round(rng.uniform(2.0, 20.0), 3))
            plan.restore_disk_speed(recover_at(at), archive)
        elif kind == "congestion_storm":
            src = rng.choice(storm_names)
            dst = rng.choice([h for h in storm_names if h != src])
            shape = rng.choice(list(TRAFFIC_STORM_KINDS))
            plan.congestion_storm(
                at, src, dst,
                rate_bps=round(rng.uniform(100e6, 900e6), 0),
                kind=shape,
                seed=rng.randrange(2**31))
            plan.calm_traffic(recover_at(at), src, dst)
        elif kind == "flaky_rpc":
            host = rng.choice(flaky_names)
            plan.flaky_rpc(at, host,
                           rate=round(rng.uniform(0.2, 0.8), 3),
                           latency_s=round(rng.uniform(0.0, 0.5), 3),
                           seed=rng.randrange(2**31))
            plan.steady_rpc(recover_at(at), host)
    # every random plan converges: restart stragglers, heal, settle
    for host in down_spans:
        plan.restart_host(horizon * 0.96, host)
    plan.heal(horizon * 0.96)
    return plan
