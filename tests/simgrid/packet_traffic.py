"""Per-packet background traffic: the oracle for the fluid model.

:class:`PacketTrafficGenerator` runs a :class:`TrafficSpec` the
detailed way — one fire-and-forget datagram through the transport per
``packet_bytes``, spaced at ``rate_bps`` (with the spec's seeded
jitter), each charged to every hop's queue.  ``repro.simgrid.traffic``
replaces it with per-link fluid rates; the cross-validation tests run
both on the same small world and compare what monitoring sees.

The sink listener on the destination port is reference counted per
host, so stopping one of two sources into the same sink leaves the
other's datagrams a listener.
"""

from __future__ import annotations

from typing import Any

from repro.simgrid.kernel import Timeout
from repro.simgrid.traffic import TrafficSpec

__all__ = ["PacketTrafficGenerator"]


def _sink_refs(host) -> dict:
    refs = getattr(host, "_packet_sinks", None)
    if refs is None:
        refs = host._packet_sinks = {}
    return refs


class PacketTrafficGenerator:
    """Sends one :class:`TrafficSpec` as individual datagrams."""

    def __init__(self, world: Any, spec: TrafficSpec):
        self.world = world
        self.spec = spec
        self.rng = world.rng.stream(
            f"traffic:{spec.src}->{spec.dst}:{spec.seed}")
        self.packets_sent = 0
        self.bytes_sent = 0
        self.send_failures = 0
        self.running = False
        self._proc = None

    def start(self) -> "PacketTrafficGenerator":
        if self.running:
            return self
        self.running = True
        dst = self.world.hosts[self.spec.dst]
        refs = _sink_refs(dst)
        port = self.spec.port
        if port in refs:
            refs[port] += 1
        elif dst.ports.listener(port) is None:
            dst.ports.bind(port, lambda msg, tr: None)
            refs[port] = 1
        # False when someone else's listener already serves the port
        self._holds_sink = port in refs
        self._proc = self.world.sim.spawn(
            self._run(), name=f"traffic:{self.spec.src}->{self.spec.dst}")
        return self

    def stop(self) -> None:
        if not self.running:
            return
        self.running = False
        if self._proc is not None and self._proc.alive:
            self._proc.kill()
        self._proc = None
        if self._holds_sink:
            dst = self.world.hosts[self.spec.dst]
            refs = _sink_refs(dst)
            refs[self.spec.port] -= 1
            if refs[self.spec.port] == 0:
                del refs[self.spec.port]
                dst.ports.unbind(self.spec.port)
            self._holds_sink = False

    def _interval(self) -> float:
        gap = self.spec.packet_bytes * 8.0 / self.spec.rate_bps
        if self.spec.jitter > 0.0:
            gap *= 1.0 + self.spec.jitter * (self.rng.random() - 0.5)
        return gap

    def _send_one(self) -> None:
        spec = self.spec
        transport = self.world.transport
        msg = transport.send(
            self.world.hosts[spec.src], self.world.hosts[spec.dst],
            spec.port, None,
            size_bytes=max(1, spec.packet_bytes - transport.HEADER_BYTES),
            traffic_class=spec.traffic_class, on_fail=lambda exc: None)
        if msg is None:
            self.send_failures += 1
        else:
            self.packets_sent += 1
            self.bytes_sent += spec.packet_bytes

    def _run(self):
        spec = self.spec
        sim = self.world.sim
        if spec.start > sim.now:
            yield Timeout(spec.start - sim.now)
        t_end = (sim.now + spec.duration
                 if spec.duration is not None else None)
        while self.running and (t_end is None or sim.now < t_end):
            if spec.kind == "onoff":
                burst_end = sim.now + spec.on_s
                while self.running and sim.now < burst_end and \
                        (t_end is None or sim.now < t_end):
                    self._send_one()
                    yield Timeout(self._interval())
                if spec.off_s > 0:
                    yield Timeout(spec.off_s)
            else:
                self._send_one()
                yield Timeout(self._interval())
        self.running = False
