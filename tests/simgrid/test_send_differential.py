"""Differential test: ``MessageTransport.send``'s one-pass hop loop.

``RefTransport.send`` is a frozen copy of the send path as it was when
each hop made its own calls — ``Path.loss_rate`` for the loss draw,
``Link.queue_put`` (an atomic ``queue_offer``) then
``Link.record_transit`` per hop, and
``Path.latency_s`` / ``Path.bottleneck_bps`` for the delivery delay.
Two identical worlds run the same hypothesis-generated script (random
multi-hop topologies, directional loss, queues preloaded to overflow
at a middle hop, an active fluid background lane, latency and
bandwidth changed between sends, links taken down and up); one world's
transport is switched to the reference.  Deliveries, queuing delay,
every interface counter, the link queues and the loss counters must
agree bit for bit.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Callable, Optional

from hypothesis import given, settings, strategies as st

from repro.simgrid import GridWorld
from repro.simgrid.network import TRAFFIC_CLASSES, NoRouteError
from repro.simgrid.sockets import DeliveryError, Message, MessageTransport
from repro.simgrid.traffic import TrafficGenerator, TrafficSpec

PORT = 7000


class RefTransport(MessageTransport):
    """``MessageTransport`` with the per-hop send path, frozen.  No
    script here makes a host flaky, so the ``flaky_rpc`` branch (after
    the hop loop, and untouched by it) is left out."""

    def send(self, src, dst, dst_port: int, payload: Any, *,
             size_bytes: int = 256, src_port: Optional[int] = None,
             traffic_class: str = "monitoring",
             on_fail: Optional[Callable[[Exception], None]] = None,
             on_delivered: Optional[Callable[[Message], None]] = None,
             oneshot: bool = False) -> Optional[Message]:
        size = size_bytes + self.HEADER_BYTES
        if src_port is None:
            src_port = next(self._ephemeral)
        msg = Message(src_host=src, dst_host=dst, src_port=src_port,
                      dst_port=dst_port, payload=payload, size_bytes=size,
                      msg_id=next(self._msg_ids), sent_at=self.sim.now)
        if not src.up or not dst.up:
            self.messages_dropped += 1
            on_fail(DeliveryError("down"))
            return None
        try:
            path = self.network.route(src.node, dst.node)
        except NoRouteError as exc:
            self.messages_dropped += 1
            on_fail(DeliveryError(str(exc)))
            return None
        npackets = max(1, (size + self.MTU - 1) // self.MTU)
        self.messages_sent += 1
        self.bytes_sent += size
        self.per_host_sent[src.name] = self.per_host_sent.get(src.name, 0) + 1
        self.per_host_bytes[src.name] = \
            self.per_host_bytes.get(src.name, 0) + size
        self._class_bytes[traffic_class] = \
            self._class_bytes.get(traffic_class, 0) + size
        src.ports.record(src_port, bytes_out=size, packets_out=npackets)
        loss = _ref_loss_rate(path) if src is not dst else 0.0
        if loss > 0.0:
            flow = (src.name, dst.name, -1 if oneshot else dst_port)
            rng = self._loss_rngs.get(flow)
            if rng is None:
                digest = hashlib.sha256(
                    f"{self._loss_salt}:{flow}".encode()).digest()
                rng = self._loss_rngs[flow] = random.Random(
                    int.from_bytes(digest[:8], "big"))
            if rng.random() < loss:
                for node, link in zip(path.nodes[:-1], path.links):
                    link.record_transit(node, size, npackets)
                    receiver = link.other(node)
                    if link.loss_toward(receiver) > 0.0:
                        receiver.interface(link).discards += npackets
                        break
                self.messages_lost += 1
                return msg
        qdelay = 0.0
        if src is not dst:
            now = self.sim.now
            for node, link in zip(path.nodes[:-1], path.links):
                d = _queue_put(link, node, size, now, traffic_class)
                if d < 0.0:
                    link.other(node).interface(link).discards += npackets
                    self.messages_lost_congestion += 1
                    return msg
                qdelay += d
                link.record_transit(node, size, npackets)
            self.queue_delay_s += qdelay
        dst.ports.record(dst_port, bytes_in=size, packets_in=npackets)
        delay = (sum(l.latency_s for l in path.links)
                 + (size * 8.0) / min(l.bandwidth_bps for l in path.links)
                 + qdelay) if path.links else 1e-6
        when = self.sim.now + delay
        if not oneshot:
            flow = (src.name, dst.name, dst_port)
            prev = self._flow_clock.get(flow)
            if prev is not None and when < prev:
                when = prev
            self._flow_clock[flow] = when
        if self.messages_sent >= self._prune_at:
            self._prune_flow_state()
        batch = self._arrivals.get(when)
        if batch is None:
            self._arrivals[when] = batch = []
            self.delivery_wakeups += 1
            self.sim.call_at(when, self._deliver_batch, when)
        batch.append((msg, on_fail, on_delivered))
        return msg


def _queue_put(link, src, nbytes, now, traffic_class) -> float:
    """``Link.queue_put`` as the reference send called it."""
    accepted, delay = link.queue_offer(src, nbytes, now, traffic_class,
                                       atomic=True)
    return delay if accepted else -1.0


def _ref_loss_rate(path) -> float:
    """``Path.loss_rate`` as the reference send read it."""
    keep = 1.0
    for node, link in zip(path.nodes[:-1], path.links):
        loss = link._loss
        if loss[0] == 0.0 and loss[1] == 0.0:
            continue
        keep *= 1.0 - (loss[0] if node is link.a else loss[1])
    return 1.0 - keep


# -- worlds -------------------------------------------------------------------

BANDWIDTHS = (1e6, 8e6, 100e6, 622e6)
LATENCIES = (1e-4, 1e-3, 5e-3, 2e-2)

topologies = st.fixed_dictionaries({
    # routers r0..r{k-1} in a chain, plus extra router-router links
    "routers": st.integers(2, 5),
    "extra": st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                      max_size=3),
    # hosts h0..h{m-1}, each on a router
    "hosts": st.lists(st.integers(0, 4), min_size=2, max_size=4),
    "bandwidth": st.lists(st.sampled_from(BANDWIDTHS), min_size=12,
                          max_size=12),
    "latency": st.lists(st.sampled_from(LATENCIES), min_size=12,
                        max_size=12),
    # an active fluid lane: None, or (src host, dst host, rate)
    "storm": st.one_of(st.none(), st.tuples(
        st.integers(0, 3), st.integers(0, 3),
        st.sampled_from((0.5e6, 4e6, 50e6, 900e6)))),
})

sends = st.tuples(st.just("send"), st.integers(0, 3), st.integers(0, 3),
                  st.sampled_from((0, 100, 1436, 1437, 5000, 60_000)),
                  st.sampled_from(TRAFFIC_CLASSES), st.booleans(),
                  st.sampled_from((0.0, 0.0, 1e-4, 3e-3, 0.05)))

steps = st.lists(st.one_of(
    sends, sends, sends,
    st.tuples(st.just("loss"), st.integers(0, 11),
              st.sampled_from((0.0, 0.2, 0.7, 1.0)),
              st.sampled_from((None, 0, 1))),
    st.tuples(st.just("latency"), st.integers(0, 11),
              st.sampled_from(LATENCIES)),
    st.tuples(st.just("bandwidth"), st.integers(0, 11),
              st.sampled_from(BANDWIDTHS)),
    st.tuples(st.just("state"), st.integers(0, 11), st.booleans()),
    # fill one hop's queue (the middle hop of the path between two
    # hosts) so the next sends overflow there
    st.tuples(st.just("preload"), st.integers(0, 3), st.integers(0, 3),
              st.sampled_from((0.9, 1.0, 1.2))),
), min_size=8, max_size=60)


def _build(topo: dict, reference: bool):
    world = GridWorld(seed=5)
    if reference:
        world.transport.__class__ = RefTransport
    net = world.network
    k = topo["routers"]
    routers = [net.router(f"r{i}") for i in range(k)]
    pairs = [(i, i + 1) for i in range(k - 1)]
    pairs += [(a % k, b % k) for a, b in topo["extra"] if a % k != b % k]
    hosts = [world.add_host(f"h{i}") for i in range(len(topo["hosts"]))]
    bws, lats = iter(topo["bandwidth"]), iter(topo["latency"])
    for a, b in pairs:
        net.link(routers[a], routers[b], bandwidth_bps=next(bws),
                 latency_s=next(lats))
    for host, r in zip(hosts, topo["hosts"]):
        net.link(host.node, routers[r % k], bandwidth_bps=next(bws),
                 latency_s=next(lats))
    deliveries = []
    for host in hosts:
        host.ports.bind(PORT, lambda msg, _t, name=host.name:
                        deliveries.append((name, msg.msg_id,
                                           msg.delivered_at)))
    if topo["storm"] is not None:
        s, d, rate = topo["storm"]
        s, d = s % len(hosts), d % len(hosts)
        if s != d:
            TrafficGenerator(world, TrafficSpec(
                src=hosts[s].name, dst=hosts[d].name,
                rate_bps=rate)).start()
    return world, hosts, deliveries


def _play(world, hosts, script) -> list:
    net, links = world.network, world.network.links()
    failures = []
    for step in script:
        kind = step[0]
        if kind == "send":
            _, s, d, size, cls, oneshot, gap = step
            world.run(until=world.sim.now + gap)
            world.transport.send(
                hosts[s % len(hosts)], hosts[d % len(hosts)], PORT, None,
                size_bytes=size, traffic_class=cls, oneshot=oneshot,
                on_fail=lambda exc: failures.append(
                    (world.sim.now, str(exc))))
        elif kind == "loss":
            _, i, rate, toward = step
            link = links[i % len(links)]
            link.set_loss(rate, toward=None if toward is None
                          else (link.a, link.b)[toward])
        elif kind == "latency":
            links[step[1] % len(links)].latency_s = step[2]
        elif kind == "bandwidth":
            links[step[1] % len(links)].bandwidth_bps = step[2]
        elif kind == "state":
            net.set_link_state(links[step[1] % len(links)], step[2])
        else:  # preload the middle hop of a route
            _, s, d, fill = step
            src, dst = hosts[s % len(hosts)], hosts[d % len(hosts)]
            try:
                path = net.route(src.node, dst.node)
            except NoRouteError:
                continue            # partitioned: nothing to fill
            if not path.links:
                continue
            mid = len(path.links) // 2
            link = path.links[mid]
            link.queue_offer(path.nodes[mid],
                             int(fill * link.queue_bytes), world.sim.now,
                             "bulk")
    world.run(until=world.sim.now + 5.0)
    return failures


def _observe(world, deliveries, failures) -> dict:
    t = world.transport
    counters = {}
    for node in world.network.nodes():
        for link in world.network.links():
            if link not in node.interfaces:
                continue
            row = node.interface(link).as_dict()      # settles first
            if any(row.values()):
                # a counter nothing has touched reads like no counter
                counters[(node.name, link.name)] = row
    queues = {link.name: (link.queue_stats(), list(link._q_busy_until),
                          list(link._win_start), list(link._win_bytes),
                          list(link._win_rate_bps))
              for link in world.network.links()}
    return {
        "deliveries": deliveries, "failures": failures,
        "queue_delay_s": t.queue_delay_s,
        "messages_lost": t.messages_lost,
        "messages_lost_congestion": t.messages_lost_congestion,
        "messages_sent": t.messages_sent,
        "messages_dropped": t.messages_dropped,
        "class_bytes": dict(t.class_bytes),
        "counters": counters, "queues": queues,
    }


@settings(max_examples=150, deadline=None)
@given(topologies, steps)
def test_send_matches_per_hop_reference(topo, script):
    seen = []
    for reference in (False, True):
        world, hosts, deliveries = _build(topo, reference)
        failures = _play(world, hosts, script)
        seen.append(_observe(world, deliveries, failures))
    assert seen[0] == seen[1]


def test_routing_alone_creates_no_interface_counters():
    world = GridWorld(seed=5)
    net = world.network
    r0, r1, r2 = net.router("r0"), net.router("r1"), net.router("r2")
    net.link(r0, r1, bandwidth_bps=8e6, latency_s=1e-3)
    net.link(r1, r2, bandwidth_bps=8e6, latency_s=1e-3)
    a, b = world.add_host("a"), world.add_host("b")
    net.link(a.node, r0, bandwidth_bps=8e6, latency_s=1e-3)
    net.link(b.node, r2, bandwidth_bps=8e6, latency_s=1e-3)
    path = net.route(a.node, b.node)
    assert path.hops == 4
    assert path.latency_s > 0.0 and path.bottleneck_bps == 8e6
    assert path.loss_rate == 0.0
    assert all(not node.interfaces for node in net.nodes())
    b.ports.bind(PORT, lambda _msg, _t: None)
    world.transport.send(a, b, PORT, None)
    # the first send builds the hop plan and with it every counter
    assert all(link in node.interfaces
               for node, link in zip(path.nodes, path.links))
    assert a.node.interface(path.links[0]).out_packets == 1
    assert b.node.interface(path.links[-1]).in_packets == 1
