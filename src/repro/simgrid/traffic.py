"""Seeded background traffic, modelled as fluid rates.

The paper's congestion pathologies (§6, §7) only appear when links
carry *cross traffic*: someone else's bytes filling the queues the
monitoring path observes.  This module provides deterministic
background sources — a constant-rate stream and an on/off burst source
— tagged with the ``"background"`` traffic class, so link queues,
utilization windows, and drop counters move as they would under real
load.

A source is not simulated packet by packet.  While it runs it is a
piecewise-constant byte rate on every link direction of its route (a
:class:`~repro.simgrid.network.FluidLane`); its on/off edges are its
only kernel events.  :class:`BackgroundLoad` keeps the sources of one
network and settles them lazily: every reader of a loaded link, node,
port table or class-byte counter calls :meth:`BackgroundLoad.settle`
first, which integrates backlog, carried and overflowing bytes in
closed form up to the reader's instant.  Each hop is offered what the
hop before it admitted, at the same instant (the transport's
single-timestamp rule), so a congested hop thins the load downstream.
Datagrams and TCP windows still queue one by one behind the fluid
backlog and lose what overflows it.  This is the flow-level model of
grid simulators (Velho et al., ACM TOMACS 2013); the per-packet source
it replaces is kept in the test tree as the cross-validation oracle.

Specs are plain data (:class:`TrafficSpec` round-trips through JSON,
like fault plans).  ``jitter`` spreads packet gaps around their mean,
so the fluid rate ignores it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from typing import Any, Optional

from .network import TRAFFIC_CLASSES, NoRouteError, Tally

__all__ = ["TrafficSpec", "TrafficGenerator", "BackgroundLoad",
           "TRAFFIC_PORT", "TRAFFIC_KINDS"]

#: well-known sink port (the "discard" service): background bytes are
#: credited to this port on the destination host
TRAFFIC_PORT = 9

#: generator shapes
TRAFFIC_KINDS = ("constant", "onoff")


@dataclass(frozen=True)
class TrafficSpec:
    """One background source, as plain data.

    ``kind`` is ``"constant"`` (``rate_bps`` throughout) or ``"onoff"``
    (bursts of ``on_s`` at ``rate_bps``, silent for ``off_s`` — the
    classic on/off cross-traffic shape).  ``packet_bytes`` is the
    background datagram size: it sets the queue headroom background
    leaves free and the packet equivalents counters report.
    ``jitter`` (0..1) is the spread of a packet source's gaps; it keeps
    the mean rate, so the fluid model ignores it.
    """

    src: str
    dst: str
    rate_bps: float
    kind: str = "constant"
    packet_bytes: int = 8192
    start: float = 0.0
    duration: Optional[float] = None
    on_s: float = 0.5
    off_s: float = 0.5
    jitter: float = 0.0
    seed: int = 0
    traffic_class: str = "background"
    port: int = TRAFFIC_PORT

    def __post_init__(self) -> None:
        if self.kind not in TRAFFIC_KINDS:
            raise ValueError(f"unknown traffic kind {self.kind!r}")
        if self.rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        if self.packet_bytes <= 0:
            raise ValueError("packet_bytes must be positive")
        if not (0.0 <= self.jitter <= 1.0):
            raise ValueError("jitter must be in [0, 1]")
        if self.kind == "onoff" and (self.on_s <= 0 or self.off_s < 0):
            raise ValueError("onoff needs on_s > 0 and off_s >= 0")
        if self.traffic_class not in TRAFFIC_CLASSES:
            raise ValueError(f"unknown traffic class {self.traffic_class!r}")

    # -- serialization (mirrors FaultPlan's JSON discipline) ----------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrafficSpec":
        return cls(**data)

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TrafficSpec":
        return cls.from_dict(json.loads(text))


class TrafficGenerator:
    """Runs one :class:`TrafficSpec` against a world, as a fluid rate.

    While the source is on and both hosts are up with a route between
    them, it offers ``rate_bps`` to its route; otherwise what it would
    have sent counts as failed sends (background traffic does not crash
    when the world degrades, it resumes when the path does).
    ``packets_sent``, ``bytes_sent`` and ``send_failures`` count whole
    ``packet_bytes`` datagrams' worth.  :meth:`stop` is idempotent.
    """

    def __init__(self, world: Any, spec: TrafficSpec):
        self.world = world
        self.spec = spec
        self.running = False
        #: the source's lanes, in route order, while it can send
        self.lanes: Optional[list] = None
        #: offered bytes/s right now (0 while off)
        self.rate = 0.0
        #: bytes/s the last hop admits, per the current settle step
        self.delivered = 0.0
        size = spec.packet_bytes
        mtu = world.transport.MTU
        self.dgrams_per_byte = 1.0 / size
        self.pkts_per_byte = ((size + mtu - 1) // mtu) / size
        self._offered = 0.0
        self._failed = 0.0
        self._edge = None
        self._t_end: Optional[float] = None
        self._src_port = 0
        self._load: Optional[BackgroundLoad] = None
        #: out bytes, out packets, in bytes, in packets, class bytes
        self._tallies = tuple(Tally() for _ in range(5))

    # -- counters (packet equivalents) --------------------------------------

    def _settle(self) -> None:
        if self._load is not None:
            self._load.settle()

    @property
    def bytes_sent(self) -> int:
        self._settle()
        return int(self._offered)

    @property
    def packets_sent(self) -> int:
        self._settle()
        return int(self._offered * self.dgrams_per_byte)

    @property
    def send_failures(self) -> int:
        self._settle()
        return int(self._failed * self.dgrams_per_byte)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "TrafficGenerator":
        if self.running:
            return self
        self.running = True
        sim = self.world.sim
        if self.spec.start > sim.now:
            self._edge = sim.call_at(self.spec.start, self._begin)
        else:
            self._begin()
        return self

    def stop(self) -> None:
        if not self.running:
            return
        self.running = False
        if self._edge is not None:
            self._edge.cancel()
            self._edge = None
        if self._load is not None:
            self._load.remove(self)

    def _begin(self) -> None:
        sim = self.world.sim
        spec = self.spec
        self._edge = None
        self._src_port = self.world.transport.ephemeral_port()
        self._t_end = (sim.now + spec.duration
                       if spec.duration is not None else None)
        self._load = BackgroundLoad.of(self.world)
        self._load.add(self)
        self._set_on(True)

    def _set_on(self, on: bool) -> None:
        """An edge: settle at the old rate, switch, schedule the next."""
        sim = self.world.sim
        spec = self.spec
        self._load.settle()
        if self._t_end is not None and sim.now >= self._t_end:
            self.running = False
            self._edge = None
            self._load.remove(self)
            return
        self.rate = spec.rate_bps / 8.0 if on else 0.0
        self._load.dirty = True
        if spec.kind == "onoff" and spec.off_s > 0:
            nxt = sim.now + (spec.on_s if on else spec.off_s)
        else:
            nxt = None
        if self._t_end is not None and (nxt is None or nxt > self._t_end):
            nxt = self._t_end
        if nxt is not None:
            self._edge = sim.call_at(nxt, self._set_on, not on)

    # -- fluid accounting ---------------------------------------------------

    def route(self) -> None:
        """Recompute :attr:`lanes` from the hosts' state and routing."""
        hosts = self.world.hosts
        src, dst = hosts[self.spec.src], hosts[self.spec.dst]
        self.lanes = None
        if not (src.up and dst.up):
            return
        try:
            path = self.world.network.route(src.node, dst.node)
        except NoRouteError:
            return
        self.lanes = [link.fluid_lane(link.other(node))
                      for node, link in zip(path.nodes[:-1], path.links)]

    def advance(self, t1: float, dt: float) -> None:
        """Credit one settle step of ``dt`` seconds ending at ``t1``."""
        if self.rate <= 0.0:
            return
        nbytes = self.rate * dt
        if self.lanes is None:
            self._failed += nbytes
            return
        self._offered += nbytes
        spec = self.spec
        t_bytes, t_pkts, t_in, t_in_pkts, t_class = self._tallies
        hosts = self.world.hosts
        out = hosts[spec.src].ports._entry(self._src_port)
        out.bytes_out += t_bytes.take(nbytes)
        out.packets_out += t_pkts.take(nbytes * self.pkts_per_byte)
        out.last_activity = t1
        totals = self.world.transport._class_bytes
        cls = spec.traffic_class
        totals[cls] = totals.get(cls, 0) + t_class.take(nbytes)
        if self.delivered > 0.0:
            got = self.delivered * dt
            inn = hosts[spec.dst].ports._entry(spec.port)
            inn.bytes_in += t_in.take(got)
            inn.packets_in += t_in_pkts.take(got * self.pkts_per_byte)
            inn.last_activity = t1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TrafficGenerator {self.spec.src}->{self.spec.dst} "
                f"{self.spec.rate_bps/1e6:.0f}Mbps "
                f"sent={self.packets_sent}>")


class BackgroundLoad:
    """The running background sources of one network, settled together.

    ``settle(now)`` advances every lane the sources cross from the last
    settled instant to ``now`` in steps: within a step each lane's
    regime (open, full, over its cap) and so every hop's admitted rate
    is constant, and a step ends where some lane's backlog reaches its
    cap or empties.  Rates change only at source edges, host crashes
    and restarts, route changes (:meth:`refresh`) and datagram offers
    to a loaded link (which mark the solution ``dirty``).
    """

    def __init__(self, world: Any):
        self.sim = world.sim
        self.hosts = world.hosts
        self.sources: list[TrafficGenerator] = []
        self.lanes: list = []
        self.dirty = True
        self._t = self.sim.now
        self._next = float("inf")
        self._touched: list = []

    @classmethod
    def of(cls, world: Any) -> "BackgroundLoad":
        """The world's load, created on first use."""
        load = world.network.fluid
        if load is None:
            load = world.network.fluid = cls(world)
        return load

    # -- source registry ----------------------------------------------------

    def add(self, source: TrafficGenerator) -> None:
        self.settle()
        self.sources.append(source)
        self._rebuild()

    def remove(self, source: TrafficGenerator) -> None:
        self.settle()
        self.sources.remove(source)
        self._rebuild()

    def refresh(self) -> None:
        """Hosts or routes changed: settle at the old rates, reroute."""
        self.settle()
        self._rebuild()

    def _rebuild(self) -> None:
        hosts = self.hosts
        lanes: dict = {}
        holders: dict = {}
        for src in self.sources:
            src.route()
            for lane in src.lanes or ():
                cap = lane.link.queue_bytes - src.spec.packet_bytes
                if lane in lanes:
                    cap = min(cap, lanes[lane])
                lanes[lane] = cap
                for obj in (lane.link, lane.link.a, lane.link.b):
                    holders[obj] = None
            for name in (src.spec.src, src.spec.dst):
                holders[hosts[name].ports] = None
        for lane, cap in lanes.items():
            lane.cap = max(cap, 0.0)
        for obj in self._touched:
            obj._fluid = None
        self._touched = list(holders)
        for obj in self._touched:
            obj._fluid = self
        self.lanes = list(lanes)
        self.dirty = True

    # -- settling -----------------------------------------------------------

    def settle(self, now: Optional[float] = None) -> None:
        """Integrate every lane and source up to ``now`` (default: the
        simulator's clock).  Idempotent for an instant already settled."""
        if now is None:
            now = self.sim.now
        t = self._t
        if now <= t:
            return
        if not self.sources:
            self._t = now
            return
        while t < now:
            if self.dirty:
                self._solve(t)
            end = now
            if self._next <= now:       # a lane reaches its cap or empties
                end = self._next if self._next > t else t
                self.dirty = True
            for lane in self.lanes:
                lane.advance(t, end)
            for src in self.sources:
                src.advance(end, end - t)
            t = end
        self._t = now

    def _solve(self, t: float) -> None:
        """Each lane's regime at ``t`` and the rates it implies."""
        lanes, sources = self.lanes, self.sources
        for lane in lanes:
            lane.begin(t)
        # a full lane admits what drains, shared pro rata; its offered
        # rate depends on what full lanes upstream admit, so iterate to
        # the fixed point (one pass per hop of upstream depth)
        for _ in range(len(lanes) + 1):
            for lane in lanes:
                lane.inp = 0.0
            for src in sources:
                rate = src.rate
                for lane in src.lanes or ():
                    lane.inp += rate
                    rate *= lane.frac
            changed = False
            for lane in lanes:
                changed = lane.admit() or changed
            if not changed:
                break
        for src in sources:
            rate = src.rate
            cls = src.spec.traffic_class
            for lane in src.lanes or ():
                admitted = rate * lane.frac
                lane.carry(rate, admitted, cls, src.pkts_per_byte,
                           src.dgrams_per_byte)
                rate = admitted
            src.delivered = rate if src.lanes is not None else 0.0
        self._next = min((lane.horizon(t) for lane in lanes),
                         default=float("inf"))
        self.dirty = False
