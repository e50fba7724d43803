"""Network topology: nodes, links, routers/switches, routing.

The Matisse testbed (paper Fig. 5) is a handful of hosts, two site LANs
(1000BT), and a WAN path (OC-12 into the OC-48 DARPA Supernet).  We
model the topology as an undirected graph of :class:`NetNode`\\ s joined
by :class:`Link`\\ s with bandwidth, propagation latency, and an
optional random-loss rate.  Routing is shortest-path by hop count
(cached, invalidated on topology change or link failure).

Routers and switches keep SNMP-visible interface counters (octets,
unicast packets, errors, CRC errors, discards) — the statistics the
JAMM network sensors poll (§2.2 "network sensors") and which §6 used to
rule the network out ("SNMP errors on the end switches and routers were
also monitored ... but no errors were reported").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

__all__ = ["NetNode", "RouterNode", "SwitchNode", "Link", "Network",
           "NoRouteError", "InterfaceCounters", "Path", "TRAFFIC_CLASSES",
           "FluidLane"]

#: traffic classes every transport send is tagged with (rotorsim-style
#: flow tagging): control-plane/monitoring messages, bulk data, and
#: injected background cross-traffic.  Links account carried bytes per
#: class so scenarios can see *who* filled a congested queue.
TRAFFIC_CLASSES = ("monitoring", "bulk", "background")


class NoRouteError(RuntimeError):
    """No usable path between two nodes."""


@dataclass
class InterfaceCounters:
    """MIB-II-style interface counters for one (node, link) interface."""

    in_octets: int = 0
    out_octets: int = 0
    in_packets: int = 0
    out_packets: int = 0
    in_errors: int = 0
    crc_errors: int = 0
    discards: int = 0

    def as_dict(self) -> dict:
        return {
            "ifInOctets": self.in_octets,
            "ifOutOctets": self.out_octets,
            "ifInUcastPkts": self.in_packets,
            "ifOutUcastPkts": self.out_packets,
            "ifInErrors": self.in_errors,
            "ifCrcErrors": self.crc_errors,
            "ifInDiscards": self.discards,
        }


class NetNode:
    """A vertex in the topology (host attachment point, router, switch)."""

    kind = "node"

    def __init__(self, name: str):
        self.name = name
        self.links: list["Link"] = []
        #: per-link interface counters, keyed by the link object
        self.interfaces: dict["Link", InterfaceCounters] = {}
        #: the fluid background load crossing one of this node's links
        #: (settled before counters are read), else None
        self._fluid = None

    def interface(self, link: "Link") -> InterfaceCounters:
        if self._fluid is not None:
            self._fluid.settle()
        return self._interface(link)

    def _interface(self, link: "Link") -> InterfaceCounters:
        ctr = self.interfaces.get(link)
        if ctr is None:
            ctr = InterfaceCounters()
            self.interfaces[link] = ctr
        return ctr

    def totals(self) -> InterfaceCounters:
        """Aggregate counters across all interfaces."""
        if self._fluid is not None:
            self._fluid.settle()
        total = InterfaceCounters()
        for ctr in self.interfaces.values():
            total.in_octets += ctr.in_octets
            total.out_octets += ctr.out_octets
            total.in_packets += ctr.in_packets
            total.out_packets += ctr.out_packets
            total.in_errors += ctr.in_errors
            total.crc_errors += ctr.crc_errors
            total.discards += ctr.discards
        return total

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name!r}>"


class RouterNode(NetNode):
    kind = "router"


class SwitchNode(NetNode):
    kind = "switch"


class Link:
    """A bidirectional link with bandwidth, latency, loss rate, and a
    per-direction FIFO output queue.

    The queue makes the link a genuinely *shared* resource: every
    transport (control-plane messages, TCP rounds, background traffic)
    enqueues its bytes behind whatever is already draining at line rate,
    sees the backlog as queuing delay, and loses what overflows
    ``queue_bytes`` — the congestion signal the paper's monitoring path
    exists to observe (§6, §7).

    Background load is not offered packet by packet: it arrives as a
    fluid rate on a :class:`FluidLane` per direction, and every reader
    of the queue state settles it first (see :mod:`repro.simgrid.traffic`).
    A link no fluid source crosses never settles anything.
    """

    #: default queue depth, in seconds of line rate (a quarter-second of
    #: buffering — generous router-class queues, so an uncongested flow
    #: never drops but a storm builds visible delay before loss)
    QUEUE_SECONDS = 0.25
    #: width of the utilization accounting window, seconds
    UTIL_WINDOW_S = 1.0

    def __init__(self, a: NetNode, b: NetNode, *, bandwidth_bps: float,
                 latency_s: float, loss_rate: float = 0.0, name: str = "",
                 queue_bytes: Optional[float] = None):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if latency_s < 0:
            raise ValueError("latency must be non-negative")
        if not (0.0 <= loss_rate <= 1.0):
            raise ValueError("loss rate must be in [0, 1]")
        if queue_bytes is not None and queue_bytes <= 0:
            raise ValueError("queue depth must be positive")
        self.a = a
        self.b = b
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency_s = float(latency_s)
        #: per-direction random-loss rates: [toward b, toward a].  1.0 is
        #: a true blackhole — packets die but the link stays "up", so
        #: routing still uses it (the gray-failure case, as opposed to
        #: ``set_up(False)`` which reroutes around the link).
        self._loss = [float(loss_rate), float(loss_rate)]
        self.name = name or f"{a.name}--{b.name}"
        self.up = True
        #: queue depth in bytes (per direction)
        self.queue_bytes = (float(queue_bytes) if queue_bytes is not None
                            else self.QUEUE_SECONDS * self.bandwidth_bps / 8.0)
        # -- per-direction queue state, [toward b, toward a] like _loss.
        # The queue is virtual: we track only the time the transmitter
        # is busy until, so the idle fast path is a compare + add.
        self._q_busy_until = [0.0, 0.0]
        #: overflow events (an enqueue that lost bytes) per direction
        self.queue_drops = [0, 0]
        #: bytes lost to queue overflow per direction
        self.queue_dropped_bytes = [0, 0]
        #: worst backlog ever seen at enqueue time, seconds, per direction
        self.queue_peak_s = [0.0, 0.0]
        #: cumulative queuing delay charged to accepted traffic, seconds
        self.queue_delay_total_s = [0.0, 0.0]
        # sliding-window byte-rate accounting (utilization observable)
        self._win_start = [0.0, 0.0]
        self._win_bytes = [0, 0]
        self._win_rate_bps = [0.0, 0.0]
        #: carried bytes per traffic class (both directions combined)
        self._class_bytes: dict[str, int] = {}
        #: fluid background overflow per direction (bytes, and whole
        #: background datagrams' worth); ``queue_drops`` counts offers only
        self.fluid_dropped_bytes = [0.0, 0.0]
        self.fluid_drops = [0, 0]
        #: the fluid background load while a source crosses this link
        self._fluid = None
        self._lanes: list[Optional["FluidLane"]] = [None, None]
        a.links.append(self)
        b.links.append(self)

    def other(self, node: NetNode) -> NetNode:
        if node is self.a:
            return self.b
        if node is self.b:
            return self.a
        raise ValueError(f"{node!r} not an endpoint of {self!r}")

    # -- loss ----------------------------------------------------------------

    @property
    def loss_rate(self) -> float:
        """Worst-direction loss rate (the only rate, for symmetric links)."""
        return max(self._loss)

    @loss_rate.setter
    def loss_rate(self, rate: float) -> None:
        self.set_loss(rate)

    def _dir_index(self, toward: NetNode) -> int:
        if toward is self.b:
            return 0
        if toward is self.a:
            return 1
        raise ValueError(f"{toward!r} not an endpoint of {self!r}")

    def loss_toward(self, dst: NetNode) -> float:
        """Loss rate for traffic flowing toward endpoint ``dst``."""
        return self._loss[self._dir_index(dst)]

    def set_loss(self, rate: float, *, toward: Optional[NetNode] = None) -> None:
        """Set the loss rate — both directions, or only ``toward`` one
        endpoint (asymmetric faults: A->B black, B->A clean)."""
        rate = float(rate)
        if not (0.0 <= rate <= 1.0):
            raise ValueError("loss rate must be in [0, 1]")
        if toward is None:
            self._loss[0] = self._loss[1] = rate
        else:
            self._loss[self._dir_index(toward)] = rate

    def loss_state(self) -> tuple:
        """Opaque snapshot of both directions (pair with :meth:`restore_loss`)."""
        return (self._loss[0], self._loss[1])

    def restore_loss(self, state: tuple) -> None:
        self._loss = [float(state[0]), float(state[1])]

    def set_up(self, up: bool) -> None:
        self.up = up

    # -- shared FIFO queue ---------------------------------------------------

    @property
    def class_bytes(self) -> dict:
        """Carried bytes per traffic class (both directions combined)."""
        if self._fluid is not None:
            self._fluid.settle()
        return self._class_bytes

    def queue_backlog_s(self, toward: NetNode, now: float) -> float:
        """Seconds of traffic queued ahead of a new arrival heading
        ``toward`` the given endpoint at time ``now``."""
        if self._fluid is not None:
            self._fluid.settle(now)
        busy = self._q_busy_until[self._dir_index(toward)]
        return busy - now if busy > now else 0.0

    def drops_toward(self, toward: NetNode, now: float) -> int:
        """Overflow events toward ``toward``: dropped offers plus fluid
        background overflow in whole datagrams (SNMP ``ifOutQDrops``)."""
        if self._fluid is not None:
            self._fluid.settle(now)
        d = self._dir_index(toward)
        return self.queue_drops[d] + self.fluid_drops[d]

    def queue_offer(self, src: NetNode, nbytes: int, now: float,
                    traffic_class: Optional[str] = None,
                    *, atomic: bool = False) -> tuple[int, float]:
        """Offer ``nbytes`` for transmission from ``src`` toward the
        other endpoint.  Returns ``(accepted_bytes, queue_delay_s)``.

        Accepted bytes join the per-direction FIFO behind the current
        backlog and drain at line rate; the caller adds the returned
        delay to its delivery time.  Bytes beyond the free queue space
        overflow — with ``atomic=True`` (whole datagrams) an overflow
        rejects the entire offer, otherwise the head that fits is
        accepted and the tail is the caller's loss to model.
        """
        if src is self.a:
            d = 0
        elif src is self.b:
            d = 1
        else:
            raise ValueError(f"{src!r} not an endpoint of {self!r}")
        fluid = self._fluid
        if fluid is not None:
            fluid.settle(now)
        rate = self.bandwidth_bps / 8.0    # bytes/s drain rate
        busy = self._q_busy_until[d]
        if busy <= now:
            # idle fast path: empty queue, nothing can overflow
            delay = 0.0
            accepted = nbytes
            self._q_busy_until[d] = now + nbytes / rate
        else:
            delay = busy - now
            free = self.queue_bytes - delay * rate
            if nbytes <= free:
                accepted = nbytes
            elif atomic:
                accepted = 0
            else:
                accepted = int(free) if free > 0 else 0
            dropped = nbytes - accepted
            if dropped:
                self.queue_drops[d] += 1
                self.queue_dropped_bytes[d] += dropped
            if accepted:
                self._q_busy_until[d] = busy + accepted / rate
                self.queue_delay_total_s[d] += delay
            if delay > self.queue_peak_s[d]:
                self.queue_peak_s[d] = delay
        if accepted:
            # sliding-window utilization accounting (carried bytes only)
            if now - self._win_start[d] >= self.UTIL_WINDOW_S:
                elapsed = now - self._win_start[d]
                self._win_rate_bps[d] = self._win_bytes[d] * 8.0 / elapsed
                self._win_start[d] = now
                self._win_bytes[d] = accepted
            else:
                self._win_bytes[d] += accepted
            if traffic_class is not None:
                self._class_bytes[traffic_class] = \
                    self._class_bytes.get(traffic_class, 0) + accepted
            if fluid is not None:
                fluid.dirty = True      # the backlog left its regime
        return accepted, delay

    def utilization(self, toward: NetNode, now: float) -> float:
        """Fraction of line rate carried toward ``toward`` over the
        current sliding window (what an SNMP poller would compute from
        octet deltas)."""
        if self._fluid is not None:
            self._fluid.settle(now)
        d = self._dir_index(toward)
        elapsed = now - self._win_start[d]
        if elapsed >= self.UTIL_WINDOW_S:
            rate = self._win_bytes[d] * 8.0 / elapsed
        else:
            # partial window: never *under*-report a hot link just
            # because the window recently rolled — blend with the last
            # completed window's rate
            rate = max(self._win_rate_bps[d],
                       self._win_bytes[d] * 8.0 / self.UTIL_WINDOW_S)
        util = rate / self.bandwidth_bps
        return util if util < 1.0 else 1.0

    def queue_stats(self) -> dict:
        """Snapshot of the queue observables (both directions)."""
        class_bytes = dict(self.class_bytes)     # settles first
        return {
            "queue_bytes": self.queue_bytes,
            "drops": tuple(self.queue_drops),
            "dropped_bytes": tuple(self.queue_dropped_bytes),
            "fluid_drops": tuple(self.fluid_drops),
            "fluid_dropped_bytes": tuple(self.fluid_dropped_bytes),
            "peak_backlog_s": tuple(self.queue_peak_s),
            "delay_total_s": tuple(self.queue_delay_total_s),
            "class_bytes": class_bytes,
        }

    # -- fluid background load -----------------------------------------------

    def fluid_lane(self, toward: NetNode) -> "FluidLane":
        """The (lazily created) fluid lane heading ``toward``."""
        d = self._dir_index(toward)
        lane = self._lanes[d]
        if lane is None:
            lane = self._lanes[d] = FluidLane(self, d)
        return lane

    def _fluid_carry(self, d: int, t0: float, t1: float,
                     rate: float) -> None:
        """Credit ``rate`` bytes/s carried over ``[t0, t1]`` to the
        utilization window, rolling it where a continuous offerer would:
        at each window end, or at ``t0`` if it expired before."""
        t = t0
        while True:
            start = self._win_start[d]
            end = start + self.UTIL_WINDOW_S
            if end > t1:
                break
            if end < t:
                elapsed = t - start
            else:
                self._win_bytes[d] += rate * (end - t)
                elapsed, t = self.UTIL_WINDOW_S, end
            self._win_rate_bps[d] = self._win_bytes[d] * 8.0 / elapsed
            self._win_start[d] = t
            self._win_bytes[d] = 0
        self._win_bytes[d] += rate * (t1 - t)

    def record_transit(self, src: NetNode, nbytes: int, npackets: int = 1,
                       *, errors: int = 0, crc: int = 0) -> None:
        """Update interface counters for ``npackets``/``nbytes`` crossing
        from ``src`` toward the other endpoint."""
        dst = self.other(src)
        out = src._interface(self)
        out.out_octets += nbytes
        out.out_packets += npackets
        inn = dst._interface(self)
        inn.in_octets += nbytes
        inn.in_packets += npackets
        inn.in_errors += errors
        inn.crc_errors += crc

    def __repr__(self) -> str:  # pragma: no cover
        state = "up" if self.up else "DOWN"
        return f"<Link {self.name} {self.bandwidth_bps/1e6:.0f}Mbps {state}>"


class Tally:
    """A float running total paid out into an integer counter: ``take``
    adds to the total and returns the whole units still owed."""

    __slots__ = ("total", "paid")

    def __init__(self) -> None:
        self.total = 0.0
        self.paid = 0

    def take(self, amount: float) -> int:
        self.total += amount
        due = int(self.total) - self.paid
        self.paid += due
        return due


#: a lane's regime over one settle step: open (accepts everything it
#: is offered), full (at its cap, accepts what drains) or over (pushed
#: past the cap by datagrams, accepts nothing until back at the cap)
_OPEN, _FULL, _OVER = 0, 1, 2


class FluidLane:
    """Fluid background load on one direction of a :class:`Link`.

    :mod:`repro.simgrid.traffic` sets the offered rate ``inp`` and the
    admitted share each settle step; the lane integrates backlog,
    carried and overflowing bytes, the utilization window and the
    interface counters in closed form over the step.  The backlog is
    the link's own busy-until clock, so datagrams and TCP windows
    offered between two steps queue behind it as behind packets.

    Drop-tail granularity: background fills the queue only to ``cap``
    = ``queue_bytes`` minus its packet size, so a smaller datagram still
    fits a queue the background keeps full.
    """

    __slots__ = ("link", "d", "out", "inn", "drain", "cap", "tol", "state",
                 "frac", "inp", "acc", "acc_pkts", "acc_dgrams", "ovf",
                 "ovf_pkts", "ovf_dgrams", "acc_class", "slope", "until",
                 "target",
                 "_octets", "_pkts", "_drops", "_discards", "_class")

    def __init__(self, link: Link, d: int):
        self.link = link
        self.d = d
        src, dst = (link.a, link.b) if d == 0 else (link.b, link.a)
        self.out = src._interface(link)
        self.inn = dst._interface(link)
        self.drain = link.bandwidth_bps / 8.0
        self.cap = link.queue_bytes
        self.tol = 1e-6 * link.queue_bytes
        self.state = _OPEN
        self.frac = 1.0
        self.slope = self.target = 0.0
        self.until = float("inf")
        self.inp = 0.0
        self._reset_rates()
        self._octets, self._pkts = Tally(), Tally()
        self._drops, self._discards = Tally(), Tally()
        self._class: dict[str, Tally] = {}

    def _reset_rates(self) -> None:
        self.acc = self.acc_pkts = self.acc_dgrams = 0.0
        self.ovf = self.ovf_pkts = self.ovf_dgrams = 0.0
        self.acc_class: dict[str, float] = {}

    def backlog(self, t: float) -> float:
        """Queued bytes at ``t``."""
        busy = self.link._q_busy_until[self.d]
        return (busy - t) * self.drain if busy > t else 0.0

    def begin(self, t: float) -> None:
        """Classify the regime at ``t``; clear the step's rates."""
        b = self.backlog(t)
        if b > self.cap + self.tol:
            self.state, self.frac = _OVER, 0.0
        else:
            self.state = _FULL if b >= self.cap - self.tol else _OPEN
            self.frac = 1.0
        self._reset_rates()

    def admit(self) -> bool:
        """Set a full lane's admitted share from its offered rate;
        True when the share changed."""
        if self.state != _FULL:
            return False
        frac = self.drain / self.inp if self.inp > self.drain else 1.0
        changed = frac != self.frac
        self.frac = frac
        return changed

    def carry(self, offered: float, admitted: float, cls: str,
              pkts_per_byte: float, dgrams_per_byte: float) -> None:
        """Add one source's offered and admitted bytes/s to the step."""
        if admitted > 0.0:
            self.acc += admitted
            self.acc_pkts += admitted * pkts_per_byte
            self.acc_dgrams += admitted * dgrams_per_byte
            self.acc_class[cls] = self.acc_class.get(cls, 0.0) + admitted
        lost = offered - admitted
        if lost > 0.0:
            self.ovf += lost
            self.ovf_pkts += lost * pkts_per_byte
            self.ovf_dgrams += lost * dgrams_per_byte

    def horizon(self, t: float) -> float:
        """The instant after ``t`` at which the regime changes at these
        rates (inf if never); the backlog then is ``target``."""
        self.slope = 0.0
        self.until = float("inf")
        if self.inp == 0.0:
            return self.until       # no fluid: the busy clock drains itself
        b = self.backlog(t)
        if self.state == _OVER:
            self.slope, self.target = -self.drain, self.cap
        elif self.state == _FULL and self.acc >= self.drain:
            return self.until       # admits what drains: stays full
        elif self.acc > self.drain:
            self.slope, self.target = self.acc - self.drain, self.cap
        elif self.acc < self.drain and b > 0.0:
            self.slope, self.target = self.acc - self.drain, 0.0
        else:
            return self.until
        self.until = t + (self.target - b) / self.slope
        return self.until

    def advance(self, t0: float, t1: float) -> None:
        """Integrate the step ``[t0, t1]``: linear inside it, and
        exactly at ``target`` once ``until`` is reached."""
        if self.inp == 0.0:
            return
        link, d, drain = self.link, self.d, self.drain
        dt = t1 - t0
        b0 = self.backlog(t0)
        if t1 >= self.until:
            b1 = self.target
        else:
            b1 = max(b0 + self.slope * dt, 0.0)
        link._q_busy_until[d] = t1 + b1 / drain
        peak = (b0 if b0 > b1 else b1) / drain
        if peak > link.queue_peak_s[d]:
            link.queue_peak_s[d] = peak
        if self.acc > 0.0:
            link._fluid_carry(d, t0, t1, self.acc)
            link.queue_delay_total_s[d] += \
                self.acc_dgrams * dt * (b0 + b1) / (2.0 * drain)
            n = self._octets.take(self.acc * dt)
            self.out.out_octets += n
            self.inn.in_octets += n
            n = self._pkts.take(self.acc_pkts * dt)
            self.out.out_packets += n
            self.inn.in_packets += n
            totals = link._class_bytes
            for cls, rate in self.acc_class.items():
                tally = self._class.get(cls)
                if tally is None:
                    tally = self._class[cls] = Tally()
                totals[cls] = totals.get(cls, 0) + tally.take(rate * dt)
        if self.ovf > 0.0:
            link.fluid_dropped_bytes[d] += self.ovf * dt
            link.fluid_drops[d] += self._drops.take(self.ovf_dgrams * dt)
            self.inn.discards += self._discards.take(self.ovf_pkts * dt)


@dataclass(frozen=True)
class Path:
    """A resolved route: the node sequence and its aggregate properties."""

    nodes: tuple
    links: tuple

    @property
    def hops(self) -> int:
        return len(self.links)

    @property
    def router_hops(self) -> int:
        return sum(1 for n in self.nodes[1:-1] if n.kind == "router")

    @cached_property
    def hop_plan(self) -> tuple:
        """Per-hop ``(link, node, next_node, d, out, inn)`` for a sender:
        hop *i* leaves ``node`` toward ``next_node`` in link direction
        ``d`` (the index of ``_loss``/queue state), charging ``node``'s
        ``out`` and ``next_node``'s ``inn`` interface counters.

        Built on first use, not by routing: it creates the interface
        counters, and a route looked up only to test reachability must
        leave none behind.  It holds structure only — latency,
        bandwidth and loss are read from the links on every use,
        because faults change them in place."""
        plan = []
        for node, nxt, link in zip(self.nodes, self.nodes[1:], self.links):
            plan.append((link, node, nxt, 0 if node is link.a else 1,
                         node._interface(link), nxt._interface(link)))
        return tuple(plan)

    @property
    def latency_s(self) -> float:
        # plain left-to-right addition, exactly as MessageTransport.send
        # sums it hop by hop (sum() compensates on newer Pythons)
        total = 0.0
        for link in self.links:
            total += link.latency_s
        return total

    @property
    def rtt_s(self) -> float:
        return 2.0 * self.latency_s

    @property
    def bottleneck_bps(self) -> float:
        return min(l.bandwidth_bps for l in self.links)

    @property
    def loss_rate(self) -> float:
        """Combined *directional* loss along the path (src toward dst).

        ``nodes``/``links`` are ordered src -> dst, so link *i* is
        traversed from ``nodes[i]`` toward its far endpoint — an
        asymmetric fault on a link only affects paths crossing it in
        the lossy direction."""
        keep = 1.0
        for node, link in zip(self.nodes[:-1], self.links):
            loss = link._loss
            if loss[0] == 0.0 and loss[1] == 0.0:
                continue        # clean link: skip the direction lookup
            keep *= 1.0 - (loss[0] if node is link.a else loss[1])
        return 1.0 - keep


class Network:
    """The topology container + routing."""

    def __init__(self):
        self._nodes: dict[str, NetNode] = {}
        self._links: list[Link] = []
        self._route_cache: dict[tuple[str, str], Path] = {}
        self._epoch = 0  # bumped on any topology/link-state change
        #: the fluid background load (:class:`repro.simgrid.traffic.
        #: BackgroundLoad`) once a source has started, else None
        self.fluid = None

    # -- construction -------------------------------------------------------

    def add_node(self, node: NetNode) -> NetNode:
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._invalidate()
        return node

    def node(self, name: str) -> NetNode:
        """Create-or-get a plain attachment node by name."""
        existing = self._nodes.get(name)
        if existing is not None:
            return existing
        return self.add_node(NetNode(name))

    def router(self, name: str) -> RouterNode:
        existing = self._nodes.get(name)
        if existing is not None:
            if not isinstance(existing, RouterNode):
                raise ValueError(f"{name!r} exists and is not a router")
            return existing
        return self.add_node(RouterNode(name))  # type: ignore[return-value]

    def switch(self, name: str) -> SwitchNode:
        existing = self._nodes.get(name)
        if existing is not None:
            if not isinstance(existing, SwitchNode):
                raise ValueError(f"{name!r} exists and is not a switch")
            return existing
        return self.add_node(SwitchNode(name))  # type: ignore[return-value]

    def link(self, a: NetNode | str, b: NetNode | str, *, bandwidth_bps: float,
             latency_s: float, loss_rate: float = 0.0, name: str = "",
             queue_bytes: Optional[float] = None) -> Link:
        node_a = self.node(a) if isinstance(a, str) else a
        node_b = self.node(b) if isinstance(b, str) else b
        lk = Link(node_a, node_b, bandwidth_bps=bandwidth_bps,
                  latency_s=latency_s, loss_rate=loss_rate, name=name,
                  queue_bytes=queue_bytes)
        self._links.append(lk)
        self._invalidate()
        return lk

    # -- state --------------------------------------------------------------

    def nodes(self) -> Iterable[NetNode]:
        return self._nodes.values()

    def links(self) -> list[Link]:
        return list(self._links)

    def routers(self) -> list[RouterNode]:
        return [n for n in self._nodes.values() if isinstance(n, RouterNode)]

    def switches(self) -> list[SwitchNode]:
        return [n for n in self._nodes.values() if isinstance(n, SwitchNode)]

    def get(self, name: str) -> Optional[NetNode]:
        return self._nodes.get(name)

    def set_link_state(self, link: Link, up: bool) -> None:
        link.set_up(up)
        self._invalidate()

    def _invalidate(self) -> None:
        self._route_cache.clear()
        self._epoch += 1
        if self.fluid is not None:
            self.fluid.refresh()    # background sources follow the reroute

    # -- routing ------------------------------------------------------------

    def route(self, src: NetNode | str, dst: NetNode | str) -> Path:
        """Shortest usable path by hop count (BFS), cached."""
        src_node = self._nodes[src] if isinstance(src, str) else src
        dst_node = self._nodes[dst] if isinstance(dst, str) else dst
        key = (src_node.name, dst_node.name)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        path = self._bfs(src_node, dst_node)
        if path is None:
            raise NoRouteError(f"no route {src_node.name} -> {dst_node.name}")
        self._route_cache[key] = path
        return path

    def _bfs(self, src: NetNode, dst: NetNode) -> Optional[Path]:
        if src is dst:
            return Path(nodes=(src,), links=())
        prev: dict[NetNode, tuple[NetNode, Link]] = {}
        seen = {src}
        queue = deque([src])
        while queue:
            node = queue.popleft()
            for link in node.links:
                if not link.up:
                    continue
                neighbor = link.other(node)
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                prev[neighbor] = (node, link)
                if neighbor is dst:
                    return self._unwind(src, dst, prev)
                queue.append(neighbor)
        return None

    @staticmethod
    def _unwind(src: NetNode, dst: NetNode,
                prev: dict) -> Path:
        nodes = [dst]
        links = []
        node = dst
        while node is not src:
            parent, link = prev[node]
            nodes.append(parent)
            links.append(link)
            node = parent
        nodes.reverse()
        links.reverse()
        return Path(nodes=tuple(nodes), links=tuple(links))
