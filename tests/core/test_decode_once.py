"""Decode once per rendering: consumers share one decode of each wire.

The gateway renders an event once per wire format and sends every
delivery of that rendering with one :class:`DecodeCell`.  The first
consumer to receive it decodes the wire into the cell; every receiver
gets its own copy of that message.  These tests pin that the copy is
indistinguishable from a fresh decode, that no consumer can reach
another's message, that throttled (outbox) deliveries share the cell
too, and that a malformed wire is a decode error wherever it lands.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from repro.core import EventGateway
from repro.core.consumers import base as consumer_base
from repro.core.consumers.base import Consumer
from repro.core.gateway import DecodeCell, _render
from repro.simgrid import GridWorld
from repro.ulm import ULMMessage, decode, from_xml, parse
from tests.ulm.test_ulm_properties import ulm_messages

FORMATS = ("ulm", "xml", "binary")
DECODERS = {"ulm": parse, "xml": from_xml, "binary": decode}
#: the consumer module's own binding of each decoder
DECODER_NAMES = {"ulm": "parse_ulm", "xml": "from_xml", "binary": "ulm_decode"}


def count_decodes(monkeypatch, fmt: str) -> list:
    """Count calls of the consumer's decoder for ``fmt``."""
    calls = []
    name = DECODER_NAMES[fmt]
    real = getattr(consumer_base, name)

    def counted(wire):
        calls.append(wire)
        return real(wire)
    monkeypatch.setattr(consumer_base, name, counted)
    return calls


def snapshot(event: ULMMessage) -> tuple:
    """Everything observable about a message, raw date cache included
    (read before ``date_str`` fills it)."""
    return (event.date.hex(), event._date_str, event.date_str, event.host,
            event.prog, event.lvl, tuple(event.fields.items()))


def deliver(consumer: Consumer, fmt: str, wire, cell) -> None:
    consumer._handle_delivery(SimpleNamespace(payload={
        "gw": "gw", "sub": 1, "fmt": fmt, "wire": wire, "decoded": cell}),
        None)


def recording_consumers(world, n: int) -> tuple:
    consumers, got = [], []
    for i in range(n):
        consumer = Consumer(world.sim, name=f"c{i}")
        events: list = []
        consumer.add_handler(events.append)
        consumers.append(consumer)
        got.append(events)
    return consumers, got


@pytest.mark.parametrize("fmt", FORMATS)
def test_shared_copy_equals_a_fresh_decode(fmt):
    @settings(max_examples=60, deadline=None)
    @given(ulm_messages())
    def check(msg):
        world = GridWorld(seed=1)
        consumers, got = recording_consumers(world, 3)
        wire = _render(msg, fmt)
        cell = DecodeCell()
        for consumer in consumers:
            deliver(consumer, fmt, wire, cell)
        fresh = snapshot(DECODERS[fmt](wire))
        events = [g[0] for g in got]
        for event in events:
            assert snapshot(event) == fresh
            assert event is not cell.event
            assert event.fields is not cell.event.fields
        for i, event in enumerate(events):
            for other in events[i + 1:]:
                assert event is not other
                assert event.fields is not other.fields
    check()


def build(n_consumers: int, fmt: str):
    """A networked gateway, a stub sensor, and ``n_consumers`` consumers
    on their own hosts, each subscribed in ``fmt``."""
    world = GridWorld(seed=13)
    gw_host = world.add_host("gw.lbl.gov")
    hosts = [world.add_host(f"c{i}.lbl.gov") for i in range(n_consumers)]
    world.lan([gw_host] + hosts, switch="sw")
    gateway = EventGateway(world.sim, name="gw", host=gw_host,
                           transport=world.transport)
    sensor = SimpleNamespace(name="vmstat", sink=None, consumer_count=0)
    gateway.register_sensor(sensor)
    consumers = []
    for host in hosts:
        consumer = Consumer(world.sim, host=host)
        consumer.subscribe(gateway, "vmstat", fmt=fmt)
        consumers.append(consumer)
    return world, gateway, sensor, consumers


def emit(world, sensor, n: int) -> list:
    sent = []
    for i in range(n):
        msg = ULMMessage(date=world.sim.now + 1.0 + i * 0.25, host="h",
                         prog="vmstat", event=f"E{i}",
                         fields={"VALUE": i, "NOTE": "x y"})
        sent.append(msg)
        sensor.sink(msg)
    return sent


@pytest.mark.parametrize("fmt", FORMATS)
def test_mutating_callback_cannot_reach_other_consumers(monkeypatch, fmt):
    decodes = count_decodes(monkeypatch, fmt)
    world, gateway, sensor, consumers = build(4, fmt)
    seen: list = []

    def vandal(event):
        # record what arrived, then wreck it
        seen.append((event, snapshot(event)))
        event.fields.clear()
        event.set("VANDAL", "1")
        event.host = "evil"
        event.date = 0.0
        event._date_str = None
    for consumer in consumers:
        consumer.add_handler(vandal)
    sent = emit(world, sensor, 5)
    world.run(until=world.sim.now + 2.0)
    assert len(seen) == 5 * len(consumers)
    assert len(decodes) == 5          # one decode per rendering
    expected = {snapshot(DECODERS[fmt](_render(m, fmt)))[1:] for m in sent}
    # nobody received an event another consumer's callback had wrecked
    assert {snap[1:] for _e, snap in seen} == expected
    events = [e for e, _snap in seen]
    for i, event in enumerate(events):
        assert all(event is not other for other in events[i + 1:])
    for consumer in consumers:
        assert consumer.received == 5
        assert consumer.decode_errors == 0


@pytest.mark.parametrize("fmt", FORMATS)
def test_throttled_subscriptions_share_one_decode(monkeypatch, fmt):
    decodes = count_decodes(monkeypatch, fmt)
    world, gateway, sensor, consumers = build(3, fmt)
    for consumer in consumers:
        assert gateway.throttle_consumer(consumer.host.name, 20.0) == 1
    emit(world, sensor, 6)
    world.run(until=world.sim.now + 3.0)
    stats = gateway.stats()
    assert stats["outbox_peak"] > 0             # went through the outbox
    assert stats["events_shed"] == 0
    for consumer in consumers:
        assert consumer.received == 6
    assert len(decodes) == 6


@pytest.mark.parametrize("fmt,wire", [("ulm", "garbage line"),
                                      ("xml", "<event"),
                                      ("binary", b"\x00\x01garbage")])
def test_malformed_wire_is_a_decode_error_on_every_consumer(
        monkeypatch, fmt, wire):
    decodes = count_decodes(monkeypatch, fmt)
    world = GridWorld(seed=1)
    consumers, got = recording_consumers(world, 3)
    cell = DecodeCell()
    for consumer in consumers:
        deliver(consumer, fmt, wire, cell)
    assert cell.event is None           # a failed decode fills nothing
    assert len(decodes) == 3            # so each receiver tries itself
    for consumer, events in zip(consumers, got):
        assert consumer.decode_errors == 1
        assert events == []
