"""Deterministic fault injection for simulated Grids.

The paper's whole premise is monitoring a grid whose hosts, links, and
sensors fail; this module makes those failures first-class, scheduled
simulation inputs instead of ad-hoc test pokes.  A :class:`FaultPlan`
is an ordered list of :class:`FaultEvent` records — host crash/restart,
process kill, network partition/heal, per-link loss and latency spikes,
clock skew — that a :class:`FaultInjector` turns into kernel-scheduled
callbacks against a :class:`~repro.simgrid.world.GridWorld`.

Design constraints:

* **Reproducible.**  Plans are plain data; :meth:`FaultPlan.random`
  derives a plan purely from ``(seed, n_steps, horizon)`` and the
  world's *names* (hosts/links sorted by name), never from object
  identity or iteration order, so any scenario replays bit-identically
  from its seed.  Plans round-trip through JSON
  (:meth:`FaultPlan.to_json` / :meth:`FaultPlan.from_json`) so failing
  schedules can be dumped into a corpus and replayed as regression
  tests.
* **Kernel-driven.**  Application of every event goes through
  ``Simulator.call_at``, so faults interleave with ordinary events
  under the kernel's deterministic same-time FIFO tie-break.
* **Model-level.**  A "host crash" flips :attr:`Host.up` and notifies
  the host's registered services (``on_host_down``/``on_host_up``
  hooks); the transport refuses traffic to/from down hosts.  Nothing
  reaches into private service state — self-healing layers react to
  the same observable signals real ones would.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional

__all__ = ["FaultEvent", "FaultPlan", "FaultInjector", "FaultError",
           "FaultKind", "KINDS", "FAULT_KINDS", "HEAL_ORDER",
           "SENSOR_DEGRADE_MODES"]

#: how a compaction stall manifests (see FaultPlan.stall_compaction)
COMPACTION_STALL_MODES = ("wedge", "kill")

#: sample-corruption modes a degraded sensor can exhibit
SENSOR_DEGRADE_MODES = ("corrupt", "partial", "stale")

#: storm traffic shapes (mirrors repro.simgrid.traffic.TRAFFIC_KINDS)
TRAFFIC_STORM_KINDS = ("constant", "onoff")


class FaultError(RuntimeError):
    """A fault event references an unknown target or bad parameters."""


@dataclass(frozen=True)
class FaultKind:
    """One fault kind: an entry of :data:`KINDS`, the table at the end
    of this module.  ``target`` is what :attr:`FaultEvent.target` names
    (``host``, ``host_or_all`` — empty = every one —, ``link``,
    ``archive``, ``groups`` as ``a,b|c,d`` node names, ``pair`` as
    ``src|dst`` hosts, ``pair_or_all`` or ``none``); ``apply(injector,
    event)`` makes the fault (or its restore) happen; ``undo`` is the
    undo-log group its lasting state goes to; ``draw(d, at)`` draws one
    event plus its recovery in :meth:`FaultPlan.random`, when
    ``gate(d)`` admits the kind to that draw; ``check(event)`` is an
    extra arm-time check of the params."""

    target: str
    apply: Callable[[Any, "FaultEvent"], None]
    undo: str = ""
    draw: Optional[Callable[[Any, float], None]] = None
    gate: Callable[[Any], bool] = lambda d: True
    check: Optional[Callable[["FaultEvent"], None]] = None


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.  ``target`` names what its kind's
    :attr:`FaultKind.target` says; ``params`` carries kind-specific
    knobs (loss rate, latency factor, clock offset/drift, ...)."""

    at: float
    kind: str
    target: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise FaultError(f"unknown fault kind {self.kind!r}")
        if self.at < 0:
            raise FaultError(f"fault scheduled before t=0: {self.at}")

    def to_dict(self) -> dict:
        out = {"at": self.at, "kind": self.kind}
        if self.target:
            out["target"] = self.target
        if self.params:
            out["params"] = dict(self.params)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        return cls(at=float(data["at"]), kind=data["kind"],
                   target=data.get("target", ""),
                   params=dict(data.get("params", {})))


class FaultPlan:
    """An ordered, reproducible schedule of fault events.

    Build one fluently::

        plan = (FaultPlan(seed=7)
                .crash_host(10.0, "gw.siteA")
                .restart_host(25.0, "gw.siteA")
                .partition(40.0, ["gw.siteA", "s0.siteA"], ["consumer.siteB"])
                .heal(55.0))

    or generate a random-but-deterministic one with
    :meth:`FaultPlan.random`.  ``seed`` is carried for provenance (test
    failure repro lines print it); it does not affect a hand-built
    plan.
    """

    def __init__(self, events: Iterable[FaultEvent] = (), *, seed: int = 0):
        self.seed = int(seed)
        self.events: list[FaultEvent] = sorted(events, key=lambda e: e.at)

    # -- construction -------------------------------------------------------

    def add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        self.events.sort(key=lambda e: e.at)
        return self

    def crash_host(self, at: float, host: str) -> "FaultPlan":
        return self.add(FaultEvent(at, "host_crash", host))

    def restart_host(self, at: float, host: str) -> "FaultPlan":
        return self.add(FaultEvent(at, "host_restart", host))

    def kill_process(self, at: float, host: str, *,
                     sensor: str = "") -> "FaultPlan":
        """Kill one sensor's sampling process on ``host`` (the sensor
        object survives — exactly the wedge a supervisor must detect)."""
        return self.add(FaultEvent(at, "process_kill", host,
                                   {"sensor": sensor}))

    def partition(self, at: float, group_a: Iterable[str],
                  group_b: Iterable[str]) -> "FaultPlan":
        """Cut every link crossing between the two node-name groups."""
        target = ",".join(sorted(group_a)) + "|" + ",".join(sorted(group_b))
        return self.add(FaultEvent(at, "partition", target))

    def heal(self, at: float) -> "FaultPlan":
        """Bring every injector-downed link back up."""
        return self.add(FaultEvent(at, "heal"))

    def link_down(self, at: float, link: str) -> "FaultPlan":
        return self.add(FaultEvent(at, "link_down", link))

    def link_up(self, at: float, link: str) -> "FaultPlan":
        return self.add(FaultEvent(at, "link_up", link))

    def link_loss(self, at: float, link: str, loss_rate: float, *,
                  toward: str = "") -> "FaultPlan":
        """Set a link's random-loss rate (1.0 = true blackhole).  With
        ``toward`` (an endpoint node name) only that direction loses
        packets — the building block of asymmetric partitions."""
        params: dict = {"loss_rate": float(loss_rate)}
        if toward:
            params["toward"] = toward
        return self.add(FaultEvent(at, "link_loss", link, params))

    def link_latency(self, at: float, link: str, factor: float) -> "FaultPlan":
        """Scale a link's propagation latency (a congestion spike)."""
        return self.add(FaultEvent(at, "link_latency", link,
                                   {"factor": float(factor)}))

    def skew_clock(self, at: float, host: str, *, offset: float = 0.0,
                   drift: float = 0.0) -> "FaultPlan":
        return self.add(FaultEvent(at, "clock_skew", host,
                                   {"offset": float(offset),
                                    "drift": float(drift)}))

    # -- gray faults ---------------------------------------------------------

    def degrade_sensor(self, at: float, host: str, *, sensor: str = "",
                       mode: str = "corrupt", rate: float = 1.0,
                       seed: int = 0) -> "FaultPlan":
        """Make a sensor on ``host`` lossy-but-alive: its loop keeps
        running and heartbeating, but each sample is degraded with
        probability ``rate`` — ``corrupt`` garbles the fields,
        ``partial`` silently swallows the sample, ``stale`` freezes the
        timestamp.  Cured by a sensor restart (supervision) or
        :meth:`restore_sensor`/:meth:`heal`."""
        if mode not in SENSOR_DEGRADE_MODES:
            raise FaultError(f"unknown sensor degrade mode {mode!r}")
        return self.add(FaultEvent(at, "sensor_degrade", host,
                                   {"sensor": sensor, "mode": mode,
                                    "rate": float(rate), "seed": int(seed)}))

    def restore_sensor(self, at: float, host: str, *,
                       sensor: str = "") -> "FaultPlan":
        """Clear a sensor degradation (params carry no ``mode``)."""
        return self.add(FaultEvent(at, "sensor_degrade", host,
                                   {"sensor": sensor}))

    def asymmetric_partition(self, at: float, group_a: Iterable[str],
                             group_b: Iterable[str]) -> "FaultPlan":
        """Blackhole A->B traffic while B->A stays clean.  Links stay
        *up* (routing unchanged, no ``on_fail`` at senders) — the gray
        twin of :meth:`partition`.  Recovered by :meth:`heal`."""
        target = ",".join(sorted(group_a)) + "|" + ",".join(sorted(group_b))
        return self.add(FaultEvent(at, "asymmetric_partition", target))

    def slow_consumer(self, at: float, host: str,
                      rate: float) -> "FaultPlan":
        """Throttle the drain rate (events/s) of every gateway
        subscription delivering to ``host`` — the classic slow-consumer
        overload that backpressure must absorb."""
        return self.add(FaultEvent(at, "slow_consumer", host,
                                   {"rate": float(rate)}))

    def restore_consumer(self, at: float, host: str) -> "FaultPlan":
        """Lift a consumer drain-rate throttle."""
        return self.add(FaultEvent(at, "slow_consumer", host,
                                   {"rate": None}))

    def disk_full(self, at: float, archive: str,
                  budget_bytes: int) -> "FaultPlan":
        """Cap a registered :class:`EventArchive`'s byte budget: the
        archive sheds oldest records to fit, then serves reads in a
        read-only ``degraded`` mode until the budget is lifted."""
        return self.add(FaultEvent(at, "disk_full", archive,
                                   {"budget_bytes": int(budget_bytes)}))

    def restore_disk(self, at: float, archive: str) -> "FaultPlan":
        """Lift an archive byte budget (params carry no budget)."""
        return self.add(FaultEvent(at, "disk_full", archive))

    # -- storage faults (segmented archives) ----------------------------------

    def stall_compaction(self, at: float, archive: str, *,
                         mode: str = "wedge") -> "FaultPlan":
        """Wedge an archive's compactor.  ``mode="wedge"`` pins the
        stall — ingest continues, retention pressure eventually forces
        ``compaction_backlog`` degraded mode, and supervision restarts
        the (still-wedged) worker until :meth:`restore_compaction`;
        ``mode="kill"`` kills the worker process once, so supervision
        alone recovers it (no restore event needed)."""
        if mode not in COMPACTION_STALL_MODES:
            raise FaultError(f"unknown compaction stall mode {mode!r}")
        return self.add(FaultEvent(at, "compaction_stall", archive,
                                   {"mode": mode}))

    def restore_compaction(self, at: float, archive: str) -> "FaultPlan":
        """Clear a compaction stall (params carry no ``mode``)."""
        return self.add(FaultEvent(at, "compaction_stall", archive))

    def tear_segment(self, at: float, archive: str, *,
                     index: int = 0) -> "FaultPlan":
        """Corrupt one sealed segment (torn write / media error).  The
        next query touching it quarantines it — the rest of the archive
        keeps serving, and replay floors stall at the hole until
        :meth:`mend_segments` (or ``heal``) reinstates it."""
        return self.add(FaultEvent(at, "torn_segment", archive,
                                   {"index": int(index)}))

    def mend_segments(self, at: float, archive: str) -> "FaultPlan":
        """Repair and reinstate every torn/quarantined segment."""
        return self.add(FaultEvent(at, "torn_segment", archive))

    def slow_disk(self, at: float, archive: str,
                  factor: float) -> "FaultPlan":
        """Stretch an archive's seal/compaction latency by ``factor``
        (an I/O slowdown: compaction cadence, and the supervision beat
        tolerance with it, scale up)."""
        return self.add(FaultEvent(at, "slow_disk", archive,
                                   {"factor": float(factor)}))

    def restore_disk_speed(self, at: float, archive: str) -> "FaultPlan":
        """Restore normal I/O latency (params carry no ``factor``)."""
        return self.add(FaultEvent(at, "slow_disk", archive))

    # -- congestion (background cross-traffic) --------------------------------

    def congestion_storm(self, at: float, src: str, dst: str, *,
                         rate_bps: float, kind: str = "constant",
                         packet_bytes: int = 8192, on_s: float = 0.5,
                         off_s: float = 0.5, seed: int = 0) -> "FaultPlan":
        """Start seeded background traffic from ``src`` to ``dst``
        (:mod:`repro.simgrid.traffic`), congesting every shared link on
        the path: queue backlogs grow, monitoring/bulk traffic sees
        queuing delay, and overflow becomes drops AIMD reacts to.
        Stopped by :meth:`calm_traffic` (or ``heal``).  A second storm
        on the same ``src->dst`` pair replaces the first."""
        return self.add(FaultEvent(at, "congestion_storm",
                                   f"{src}|{dst}",
                                   {"rate_bps": float(rate_bps),
                                    "kind": kind,
                                    "packet_bytes": int(packet_bytes),
                                    "on_s": float(on_s),
                                    "off_s": float(off_s),
                                    "seed": int(seed)}))

    def calm_traffic(self, at: float, src: str = "",
                     dst: str = "") -> "FaultPlan":
        """Stop injector-started background traffic — the ``src->dst``
        storm when named, every storm when called with no names."""
        target = f"{src}|{dst}" if (src or dst) else ""
        return self.add(FaultEvent(at, "calm_traffic", target))

    # -- transient RPC faults -------------------------------------------------

    def flaky_rpc(self, at: float, host: str, *, rate: float = 0.3,
                  latency_s: float = 0.0, seed: int = 0) -> "FaultPlan":
        """Make RPCs *to* ``host`` transiently fail (probability
        ``rate`` per message, seeded) and/or arrive ``latency_s`` late
        — an overloaded or crash-looping service endpoint.  Unlike the
        silent gray-loss kinds, the failure is sender-visible (the
        ``on_fail`` callback fires), which makes it the retryable
        error class that amplifies into retry storms when callers
        have no budget.  Restored by :meth:`steady_rpc` (or ``heal``)."""
        return self.add(FaultEvent(at, "flaky_rpc", host,
                                   {"rate": float(rate),
                                    "latency_s": float(latency_s),
                                    "seed": int(seed)}))

    def steady_rpc(self, at: float, host: str = "") -> "FaultPlan":
        """Steady the named host's RPC endpoint again — or every flaky
        host when called with no name."""
        return self.add(FaultEvent(at, "steady_rpc", host))

    # -- random generation ---------------------------------------------------

    @classmethod
    def random(cls, seed: int, *, hosts: Iterable[str],
               links: Iterable[str] = (), n_steps: int = 50,
               horizon: float = 60.0,
               protect: Iterable[str] = (),
               max_down_fraction: float = 0.67,
               consumers: Iterable[str] = (),
               archives: Iterable[str] = (),
               storms: Iterable[str] = (),
               flaky: Iterable[str] = ()) -> "FaultPlan":
        """A deterministic random schedule of ``n_steps`` events.

        The draw depends only on ``seed`` and the *sorted* name lists.
        ``protect`` names hosts never crashed (e.g. the consumer whose
        records the invariants read); ``max_down_fraction`` caps how
        many hosts are down at once.  Every drawn fault comes with its
        recovery inside the horizon, and the plan ends restarting every
        crashed host and healing, so it always ends recoverable.

        A drawable kind of :data:`KINDS` joins the draw when its gate
        holds: ``consumers`` admits ``slow_consumer``; ``archives`` the
        storage kinds (``compaction_stall`` in wedge mode only); two or
        more ``storms`` hosts ``congestion_storm``; ``flaky`` RPC
        server hosts ``flaky_rpc``.  A plan drawn with a gate shut
        replays bit-identically to one from before that kind existed.
        ``sensor_degrade`` never draws ``stale`` mode: frozen
        timestamps look like ancient events to replay floors.
        """
        d = _Draw(cls(seed=seed), random.Random(seed), horizon, hosts, links,
                  protect, max_down_fraction, consumers, archives, storms,
                  flaky)
        kinds = [k for k in KINDS.values() if k.draw and k.gate(d)]
        for _ in range(max(0, int(n_steps))):
            at = round(d.rng.uniform(0.0, horizon * 0.8), 3)
            d.rng.choice(kinds).draw(d, at)
        # every random plan converges: restart stragglers, heal, settle
        for host in d.down_spans:
            d.plan.restart_host(horizon * 0.96, host)
        d.plan.heal(horizon * 0.96)
        return d.plan

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {"seed": self.seed,
                "events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls((FaultEvent.from_dict(e) for e in data.get("events", [])),
                   seed=int(data.get("seed", 0)))

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    # -- introspection -------------------------------------------------------

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def describe(self) -> str:
        """Human-readable schedule (printed by failing scenario tests)."""
        lines = [f"FaultPlan seed={self.seed} ({len(self.events)} events)"]
        for e in self.events:
            extra = f" {e.params}" if e.params else ""
            lines.append(f"  t={e.at:9.3f}  {e.kind:<12} {e.target}{extra}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FaultPlan seed={self.seed} events={len(self.events)}>"


class _Draw:
    """One :meth:`FaultPlan.random` call: its sorted inputs, RNG and
    plan.  A drawable kind's table entry names its method here; one
    that cannot draw returns without touching the RNG again."""

    def __init__(self, plan: FaultPlan, rng: random.Random, horizon: float,
                 hosts: Iterable[str], links: Iterable[str],
                 protect: Iterable[str], max_down_fraction: float,
                 consumers: Iterable[str], archives: Iterable[str],
                 storms: Iterable[str], flaky: Iterable[str]):
        self.plan = plan
        self.rng = rng
        self.horizon = horizon
        self.hosts = sorted(set(hosts))
        self.links = sorted(set(links))
        self.consumers = sorted(set(consumers))
        self.archives = sorted(set(archives))
        self.storms = sorted(set(storms))
        self.flaky = sorted(set(flaky))
        protected = set(protect)
        self.crashable = [h for h in self.hosts if h not in protected]
        #: host -> [(crash_at, restart_at)] — a host may crash many
        #: times per plan, just never with overlapping down intervals
        self.down_spans: dict[str, list[tuple[float, float]]] = {}
        self.partitioned_until = -1.0
        self.max_down = max(1, int(len(self.crashable) * max_down_fraction)) \
            if self.crashable else 0

    def recover_at(self, at: float, soonest: float = 2.0) -> float:
        return min(at + round(self.rng.uniform(soonest, self.horizon * 0.2),
                              3), self.horizon * 0.95)

    def _split(self, at: float, build: Callable, soonest: float) -> None:
        """A (symmetric or asymmetric) partition between a random cut of
        the sorted hosts, healed before any other one starts."""
        if len(self.hosts) < 2 or at <= self.partitioned_until:
            return
        cut = self.rng.randint(1, len(self.hosts) - 1)
        heal_at = self.recover_at(at, soonest)
        build(at, self.hosts[:cut], self.hosts[cut:])
        self.plan.heal(heal_at)
        self.partitioned_until = heal_at

    def host_crash(self, at: float) -> None:
        if not self.crashable:
            return
        rng, plan = self.rng, self.plan
        host = rng.choice(self.crashable)
        down = round(rng.uniform(1.0, self.horizon * 0.15), 3)
        restart_at = min(at + down, self.horizon * 0.95)
        spans = self.down_spans.setdefault(host, [])
        if any(lo <= restart_at and at <= hi for lo, hi in spans):
            return  # overlaps one of this host's down windows
        if sum(1 for other in self.down_spans.values()
               for lo, hi in other if lo <= at < hi) >= self.max_down:
            return  # too many hosts down at once
        plan.crash_host(at, host)
        plan.restart_host(restart_at, host)
        spans.append((at, restart_at))

    def process_kill(self, at: float) -> None:
        self.plan.kill_process(at, self.rng.choice(self.hosts))

    def partition(self, at: float) -> None:
        self._split(at, self.plan.partition, 1.0)

    def link_loss(self, at: float) -> None:
        if self.links:
            self.plan.link_loss(at, self.rng.choice(self.links),
                                round(self.rng.uniform(0.0, 0.2), 4))

    def link_latency(self, at: float) -> None:
        if self.links:
            self.plan.link_latency(at, self.rng.choice(self.links),
                                   round(self.rng.uniform(0.5, 20.0), 3))

    def clock_skew(self, at: float) -> None:
        rng = self.rng
        self.plan.skew_clock(at, rng.choice(self.hosts),
                             offset=round(rng.uniform(-0.5, 0.5), 6),
                             drift=round(rng.uniform(-1e-4, 1e-4), 9))

    def sensor_degrade(self, at: float) -> None:
        rng = self.rng
        host = rng.choice(self.crashable or self.hosts)
        self.plan.degrade_sensor(at, host,
                                 mode=rng.choice(["corrupt", "partial"]),
                                 rate=round(rng.uniform(0.5, 1.0), 3),
                                 seed=rng.randrange(2**31))
        self.plan.restore_sensor(self.recover_at(at), host)

    def asymmetric_partition(self, at: float) -> None:
        self._split(at, self.plan.asymmetric_partition, 2.0)

    def slow_consumer(self, at: float) -> None:
        host = self.rng.choice(self.consumers)
        self.plan.slow_consumer(at, host,
                                rate=round(self.rng.uniform(1.0, 10.0), 3))
        self.plan.restore_consumer(self.recover_at(at), host)

    def disk_full(self, at: float) -> None:
        archive = self.rng.choice(self.archives)
        self.plan.disk_full(at, archive,
                            budget_bytes=self.rng.randrange(8_000, 64_000))
        self.plan.restore_disk(self.recover_at(at), archive)

    def compaction_stall(self, at: float) -> None:
        archive = self.rng.choice(self.archives)
        self.plan.stall_compaction(at, archive, mode="wedge")
        self.plan.restore_compaction(self.recover_at(at), archive)

    def torn_segment(self, at: float) -> None:
        archive = self.rng.choice(self.archives)
        self.plan.tear_segment(at, archive, index=self.rng.randrange(0, 8))
        self.plan.mend_segments(self.recover_at(at), archive)

    def slow_disk(self, at: float) -> None:
        archive = self.rng.choice(self.archives)
        self.plan.slow_disk(at, archive, round(self.rng.uniform(2.0, 20.0), 3))
        self.plan.restore_disk_speed(self.recover_at(at), archive)

    def congestion_storm(self, at: float) -> None:
        rng = self.rng
        src = rng.choice(self.storms)
        dst = rng.choice([h for h in self.storms if h != src])
        shape = rng.choice(list(TRAFFIC_STORM_KINDS))
        self.plan.congestion_storm(
            at, src, dst, rate_bps=round(rng.uniform(100e6, 900e6), 0),
            kind=shape, seed=rng.randrange(2**31))
        self.plan.calm_traffic(self.recover_at(at), src, dst)

    def flaky_rpc(self, at: float) -> None:
        rng = self.rng
        host = rng.choice(self.flaky)
        self.plan.flaky_rpc(at, host, rate=round(rng.uniform(0.2, 0.8), 3),
                            latency_s=round(rng.uniform(0.0, 0.5), 3),
                            seed=rng.randrange(2**31))
        self.plan.steady_rpc(self.recover_at(at), host)


class FaultInjector:
    """Schedules a :class:`FaultPlan` against a GridWorld.

    Every fault that leaves state behind (a downed link, a link's
    pristine loss/latency, a degraded sensor, a throttled consumer, a
    capped/stalled/torn/slowed archive, a storm, a flaky host) files
    one ``(undo group, target)`` entry in the undo log.  A restore
    event pops one entry; ``heal`` and :meth:`heal_all` pop them all.
    Unknown targets raise :class:`FaultError` at :meth:`arm` time — a
    plan must be entirely valid before any of it runs.
    """

    def __init__(self, world: Any, plan: FaultPlan):
        self.world = world
        self.plan = plan
        self.applied: list[tuple[float, FaultEvent]] = []
        #: (undo group, target) -> saved state, in insertion order
        self._log: dict[tuple[str, Any], Any] = {}
        self._armed = False

    @property
    def storms(self) -> dict[str, Any]:
        """A copy of the running storms: ``"src|dst"`` -> generator."""
        return {key: gen for (group, key), gen in self._log.items()
                if group == "storm"}

    # -- lookup ---------------------------------------------------------------

    def _host(self, name: str) -> Any:
        host = self.world.hosts.get(name)
        if host is None:
            raise FaultError(f"fault targets unknown host {name!r}")
        return host

    def _link(self, name: str) -> Any:
        for link in self.world.network.links():
            if link.name == name:
                return link
        raise FaultError(f"fault targets unknown link {name!r}")

    def _archive(self, name: str) -> Any:
        archive = getattr(self.world, "archives", {}).get(name)
        if archive is None:
            raise FaultError(f"fault targets unknown archive {name!r}")
        return archive

    def _sensor(self, event: FaultEvent) -> Any:
        """The sensor ``event`` names on its host (else the first by
        name), or None when the host runs none."""
        manager = self._host(event.target).service("sensor-manager")
        if manager is None or not getattr(manager, "sensors", None):
            return None
        wanted = event.params.get("sensor", "")
        return manager.sensors[wanted if wanted in manager.sensors
                               else min(manager.sensors)]

    @staticmethod
    def _groups(target: str) -> tuple[list[str], list[str]]:
        spec_a, _, spec_b = target.partition("|")
        return (sorted(n for n in spec_a.split(",") if n),
                sorted(n for n in spec_b.split(",") if n))

    def _validate(self) -> None:
        network = self.world.network
        for event in self.plan:
            kind, target = KINDS[event.kind], event.target
            if kind.check is not None:
                kind.check(event)
            shape = kind.target.removesuffix("_or_all")
            if shape != kind.target and not target:
                continue  # empty target: every host / every storm
            if shape in ("groups", "pair") and "|" not in target:
                raise FaultError(f"{event.kind} target needs 'a|b': "
                                 f"{target!r}")
            if shape == "host":
                self._host(target)
            elif shape == "pair":
                for name in target.split("|", 1):
                    self._host(name)
            elif shape == "archive":
                self._archive(target)
            elif shape == "groups":
                for name in sum(self._groups(target), []):
                    if network.get(name) is None:
                        raise FaultError(
                            f"fault targets unknown node {name!r}")
            elif shape == "link":
                link, toward = self._link(target), event.params.get("toward")
                if toward and network.get(toward) not in (link.a, link.b):
                    raise FaultError(f"'toward' {toward!r} is not an endpoint "
                                     f"of link {target!r}")

    # -- scheduling ------------------------------------------------------------

    def arm(self) -> "FaultInjector":
        """Validate the plan and schedule every event on the kernel."""
        if self._armed:
            raise FaultError("injector already armed")
        self._validate()
        self._armed = True
        sim = self.world.sim
        for event in self.plan:
            when = max(event.at, sim.now)
            sim.call_at(when, self._apply, event)
        return self

    # -- application ------------------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        KINDS[event.kind].apply(self, event)
        self.applied.append((self.world.sim.now, event))

    # -- undo ------------------------------------------------------------------

    def _undo(self, group: str, target: Any) -> None:
        """Pop ``(group, target)`` from the log and reverse it (the undo
        runs even for an unlogged target: restore events always act)."""
        UNDO[group](self, target, self._log.pop((group, target), None))

    def _undo_all(self, group: str, name: str = "") -> None:
        """Undo ``name`` — or with no name the whole group: storms by
        ``"src|dst"``, the rest in the order the faults happened."""
        targets = [name] if name else [t for g, t in self._log if g == group]
        if group == "storm":
            targets.sort()
        for target in targets:
            self._undo(group, target)

    def heal_all(self) -> None:
        """Undo every logged fault, group by group in :data:`HEAL_ORDER`
        (crashed hosts are not logged: restarts are the caller's)."""
        for group in HEAL_ORDER:
            self._undo_all(group)

    def _toggle(self, event: FaultEvent, target: Any, param: str,
                apply: Callable[[Any, Any], Optional[bool]]) -> None:
        """A kind restored by omitting ``param``: with it, ``apply(target,
        value)`` and log the kind's undo entry unless that returns False;
        without it, undo the entry."""
        group = KINDS[event.kind].undo
        value = event.params.get(param)
        if value is None:
            self._undo(group, target)
        elif apply(target, value) is not False:
            self._log[(group, target)] = None

    def _restore(self, link: Any, pristine: Optional[tuple] = None) -> None:
        """Undo both link groups on ``link``: its pristine loss/latency
        (``pristine`` if already popped) and its up state."""
        self._log.pop(("link_down", link), None)
        pristine = self._log.pop(("link", link), pristine)
        if pristine is not None:
            link.restore_loss(pristine[0])
            link.latency_s = pristine[1]
        if not link.up:
            self.world.network.set_link_state(link, True)

    def _pristine(self, link: Any) -> tuple:
        """``link``'s (loss state, latency) from before the injector first
        touched it; the first call files it in the undo log."""
        return self._log.setdefault(("link", link),
                                    (link.loss_state(), link.latency_s))

    def _cut(self, link: Any) -> None:
        if link.up:
            self.world.network.set_link_state(link, False)
            self._log[("link_down", link)] = None

    # -- faults with more to them than one line ------------------------------

    def _process_kill(self, event: FaultEvent) -> None:
        """Kill a sensor's sampling process without touching the sensor
        object — the supervisor's heartbeat check must notice."""
        sensor = self._sensor(event)
        proc = getattr(sensor, "_proc", None)
        if proc is not None and proc.alive:
            proc.kill()

    def _cross_paths(self, target: str) -> Iterator[tuple[Any, Any]]:
        """Yield ``(path, link to cut)`` for each routable A -> B pair,
        name-sorted, routed when reached.  The link is the middle
        *infrastructure* link (neither endpoint in either group), so
        intra-group connectivity survives where the topology allows —
        else the path's last, B-side access link."""
        group_a, group_b = self._groups(target)
        members = set(group_a) | set(group_b)
        network = self.world.network
        for a in group_a:
            if network.get(a) is None:
                continue
            for b in group_b:
                if network.get(b) is None:
                    continue
                try:
                    path = network.route(a, b)
                except Exception:
                    continue
                infra = [l for l in path.links
                         if l.a.name not in members and l.b.name not in members]
                yield path, (infra[len(infra) // 2] if infra
                             else path.links[-1] if path.links else None)

    def _partition(self, event: FaultEvent) -> None:
        """Cut links until no group-A node can route to any group-B
        node: each pass cuts the chosen link of the first surviving
        cross-group route (deterministic: iteration is name-sorted)."""
        while True:
            found = next(self._cross_paths(event.target), None)
            if found is None:
                return
            self._cut(found[1])

    def _asymmetric_partition(self, event: FaultEvent) -> None:
        """Blackhole every A->B route while leaving B->A (and routing)
        intact: the link :meth:`_partition` would cut on each cross
        pair's path gets directional loss 1.0 toward the B side.  The
        links stay up, so senders keep getting "successful" sends."""
        for path, chosen in self._cross_paths(event.target):
            if not path.links or path.loss_rate >= 1.0:
                continue  # same node, or already black this way
            for node, link in zip(path.nodes[:-1], path.links):
                if link is chosen:
                    self._pristine(link)
                    link.set_loss(1.0, toward=link.other(node))
                    break

    def _link_loss(self, event: FaultEvent) -> None:
        link, p = self._link(event.target), event.params
        self._pristine(link)
        node = self.world.network.get(p["toward"]) if p.get("toward") else None
        link.set_loss(min(1.0, max(0.0, p["loss_rate"])), toward=node)

    def _link_latency(self, event: FaultEvent) -> None:
        link = self._link(event.target)
        link.latency_s = self._pristine(link)[1] * max(0.0,
                                                       event.params["factor"])

    def _clock_skew(self, event: FaultEvent) -> None:
        clock, p = self._host(event.target).clock, event.params
        if p.get("offset", 0.0):
            clock.adjust(p["offset"])
        if p.get("drift") is not None:
            clock.set_drift(p["drift"])

    def _sensor_degrade(self, event: FaultEvent) -> None:
        """Degrade (or, with no ``mode`` param, restore) one sensor's
        sample quality.  The sensor object keeps running and
        heartbeating — only sample-quality supervision can tell."""
        sensor, p = self._sensor(event), event.params
        if sensor is not None:
            self._toggle(event, sensor, "mode", lambda s, mode: s.set_degraded(
                mode, rate=float(p.get("rate", 1.0)),
                seed=int(p.get("seed", 0))))

    def _set_drain_rate(self, host_name: str, rate: Optional[float]) -> None:
        for name in sorted(self.world.hosts):
            gw = self.world.hosts[name].service("gateway")
            if gw is not None and hasattr(gw, "throttle_consumer"):
                gw.throttle_consumer(host_name, rate)

    def _congestion_storm(self, event: FaultEvent) -> None:
        """Start (or replace) a background-traffic generator between the
        target host pair.  The injector owns the generator's lifecycle:
        ``calm_traffic`` and ``heal`` stop it."""
        from .traffic import TrafficGenerator, TrafficSpec
        src, _, dst = event.target.partition("|")
        self._undo("storm", event.target)
        p = event.params
        spec = TrafficSpec(src=src, dst=dst,
                           rate_bps=float(p["rate_bps"]),
                           kind=p.get("kind", "constant"),
                           packet_bytes=int(p.get("packet_bytes", 8192)),
                           on_s=float(p.get("on_s", 0.5)),
                           off_s=float(p.get("off_s", 0.5)),
                           seed=int(p.get("seed", 0)))
        self._log[("storm", event.target)] = TrafficGenerator(
            self.world, spec).start()

    def _flaky_rpc(self, event: FaultEvent) -> None:
        p = event.params
        self.world.transport.set_flaky_host(
            event.target, rate=float(p.get("rate", 0.3)),
            latency_s=float(p.get("latency_s", 0.0)),
            seed=int(p.get("seed", 0)))
        self._log[("flaky", event.target)] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<FaultInjector plan={self.plan!r} "
                f"applied={len(self.applied)}>")


# -- the fault-kind table -----------------------------------------------------

#: undo-log group -> the action that reverses one of its entries:
#: ``undo(injector, target, saved state or None)``
UNDO: dict[str, Callable[[FaultInjector, Any, Any], None]] = {
    "link_down": FaultInjector._restore,
    "link": FaultInjector._restore,
    "sensor": lambda inj, sensor, _: sensor.clear_degraded(),
    "throttle": lambda inj, host, _: inj._set_drain_rate(host, None),
    "budget": lambda inj, archive, _: archive.set_byte_budget(None),
    "stall": lambda inj, archive, _: archive.clear_compaction_stall(),
    "torn": lambda inj, archive, _: archive.mend_segments(),
    "slow_disk": lambda inj, archive, _: archive.set_io_latency(None),
    "storm": lambda inj, key, generator: generator and generator.stop(),
    "flaky": lambda inj, host, _: inj.world.transport.clear_flaky_host(host),
}


def _storage(param: str, apply: Callable[[Any, Any], Optional[bool]]
             ) -> Callable[[FaultInjector, FaultEvent], None]:
    return lambda inj, e: inj._toggle(e, inj._archive(e.target), param, apply)


def _stall(archive: Any, mode: str) -> bool:
    # "kill" is one-shot: supervision alone recovers, nothing to undo
    archive.stall_compaction("kill" if mode == "kill" else "wedge")
    return mode != "kill"


def _check_rate(event: FaultEvent) -> None:
    rate = float(event.params.get("rate", 0.0))
    if not 0.0 <= rate <= 1.0:
        raise FaultError(f"flaky_rpc rate {rate} not in [0, 1]")


#: every fault kind, in table order (the random draw list is its
#: drawable subset, in this order — reordering changes every random plan)
KINDS: dict[str, FaultKind] = {
    "host_crash": FaultKind("host", lambda inj, e: inj._host(e.target).crash(),
                            draw=_Draw.host_crash),
    "host_restart": FaultKind("host",
                              lambda inj, e: inj._host(e.target).restart()),
    "process_kill": FaultKind("host", FaultInjector._process_kill,
                              draw=_Draw.process_kill),
    "partition": FaultKind("groups", FaultInjector._partition,
                           undo="link_down", draw=_Draw.partition),
    "heal": FaultKind("none", lambda inj, e: inj.heal_all()),
    "link_down": FaultKind("link",
                           lambda inj, e: inj._cut(inj._link(e.target)),
                           undo="link_down"),
    "link_up": FaultKind("link",
                         lambda inj, e: inj._restore(inj._link(e.target))),
    "link_loss": FaultKind("link", FaultInjector._link_loss, undo="link",
                           draw=_Draw.link_loss),
    "link_latency": FaultKind("link", FaultInjector._link_latency,
                              undo="link", draw=_Draw.link_latency),
    "clock_skew": FaultKind("host", FaultInjector._clock_skew,
                            draw=_Draw.clock_skew),
    "sensor_degrade": FaultKind("host", FaultInjector._sensor_degrade,
                                undo="sensor", draw=_Draw.sensor_degrade),
    "asymmetric_partition": FaultKind(
        "groups", FaultInjector._asymmetric_partition, undo="link",
        draw=_Draw.asymmetric_partition),
    "slow_consumer": FaultKind(
        "host", lambda inj, e: inj._toggle(e, e.target, "rate", lambda h, r:
                                           inj._set_drain_rate(h, float(r))),
        undo="throttle", draw=_Draw.slow_consumer,
        gate=lambda d: bool(d.consumers)),
    "disk_full": FaultKind(
        "archive", _storage("budget_bytes",
                            lambda a, v: a.set_byte_budget(int(v))),
        undo="budget", draw=_Draw.disk_full, gate=lambda d: bool(d.archives)),
    "compaction_stall": FaultKind(
        "archive", _storage("mode", _stall), undo="stall",
        draw=_Draw.compaction_stall, gate=lambda d: bool(d.archives)),
    "torn_segment": FaultKind(
        "archive", _storage("index", lambda a, v: a.tear_segment(int(v))),
        undo="torn", draw=_Draw.torn_segment, gate=lambda d: bool(d.archives)),
    "slow_disk": FaultKind(
        "archive", _storage("factor", lambda a, v: a.set_io_latency(float(v))),
        undo="slow_disk", draw=_Draw.slow_disk,
        gate=lambda d: bool(d.archives)),
    "congestion_storm": FaultKind(
        "pair", FaultInjector._congestion_storm, undo="storm",
        draw=_Draw.congestion_storm, gate=lambda d: len(d.storms) >= 2),
    "calm_traffic": FaultKind(
        "pair_or_all", lambda inj, e: inj._undo_all("storm", e.target)),
    "flaky_rpc": FaultKind(
        "host", FaultInjector._flaky_rpc, undo="flaky", draw=_Draw.flaky_rpc,
        gate=lambda d: bool(d.flaky), check=_check_rate),
    "steady_rpc": FaultKind(
        "host_or_all", lambda inj, e: inj._undo_all("flaky", e.target)),
}

#: every fault kind the injector knows how to apply
FAULT_KINDS = tuple(KINDS)

#: the order :meth:`FaultInjector.heal_all` empties the undo groups in:
#: the order they first appear in the table
HEAL_ORDER = tuple(dict.fromkeys(k.undo for k in KINDS.values() if k.undo))
