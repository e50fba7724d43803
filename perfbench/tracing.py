"""Outside-in tracing: spans around calls into each layer's functions.

The program is not edited.  :class:`Tracer` replaces selected functions
with timing wrappers while a traced run is set up and executed, and
restores them afterwards.  Module-level names are patched where the
callers look them up (``repro.core.gateway.serialize`` is the gateway's
own binding of the ULM serializer, so patching ``repro.ulm`` alone
would miss it), and class attributes are patched before the world is
built, so callbacks bound at build time bind the wrappers.

Every wrapped call records a span ``(key, start, end, parent)`` in
memory; ``key`` is ``"<layer>.<function>"``.  A generator function
(``EventArchive.iter_query``, ``DirectoryClient.search_resilient``)
records one span per resume, so a scan is timed over its whole
iteration and never overlaps the caller's work between items.  A
layer's self time is its spans' durations minus the time of their
child spans.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

__all__ = ["Tracer", "LAYERS"]

#: layer names, each named for the module it times
LAYERS = ("kernel", "transport", "links", "ulm", "manager", "gateway",
          "consumer", "session", "archive", "directory", "runner")


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.session_depth = 0
        self._stack = [-1]
        self._undo: list = []

    # -- wrappers ------------------------------------------------------------

    def wrap(self, key, fn, *, before=None, after=None):
        """A timing wrapper for a plain function.  ``key`` names the
        spans, or is a callable ``key(args, kwargs)`` naming each one.
        ``before(args, kwargs)`` runs ahead of the call and its result
        is handed to ``after(state, args, kwargs, result)``, which
        counts outcomes of calls that returned."""
        spans, stack, clock = self.spans, self._stack, perf_counter
        dynamic = callable(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            name = key(args, kwargs) if dynamic else key
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, t0, clock(), parent)
                stack.pop()
            if after is not None:
                after(state, args, kwargs, result)
            return result
        return traced

    def wrap_gen(self, key: str, fn, *, on_yield=None):
        """A timing wrapper for a generator function: one span per
        resume, ``on_yield()`` after each item."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._drive(key, fn(*args, **kwargs), on_yield)
        return traced

    def _drive(self, key, gen, on_yield):
        spans, stack, clock = self.spans, self._stack, perf_counter
        value, exc = None, None
        while True:
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                out = gen.send(value) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                spans[idx] = (key, t0, clock(), parent)
                stack.pop()
            if on_yield is not None:
                on_yield()
            try:
                value, exc = (yield out), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as err:  # forwarded into the generator
                value, exc = None, err

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def span(self, owner, attr: str, key, **hooks) -> None:
        self.patch(owner, attr, self.wrap(key, owner.__dict__[attr], **hooks))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install(self, extra=()) -> None:
        """Patch every layer boundary.  ``extra`` lists further
        ``(owner, attr, key)`` triples (the benchmark's own hooks)."""
        import repro.ulm
        from repro.client.facade import ClientSession
        from repro.core import gateway as gateway_mod
        from repro.core import manager as manager_mod
        from repro.core.archive import EventArchive
        from repro.core.consumers import base as consumer_mod
        from repro.core.directory.client import DirectoryClient
        from repro.core.directory.server import DirectoryServer
        from repro.core.sensors.base import Sensor
        from repro.core.subscriptions import SubscriptionHandle
        from repro.scenarios import runner as runner_mod
        from repro.simgrid.kernel import Simulator
        from repro.simgrid.network import Link
        from repro.simgrid.sockets import MessageTransport

        counts = self.counts

        def count(name, test=lambda _state, result: result):
            """An ``after`` hook counting the calls ``test(state,
            result)`` accepts (by default: a truthy result)."""
            def after(state, _args, _kwargs, result):
                if test(state, result):
                    counts[name] += 1
            return after

        # kernel: the dispatch loop; events executed inside each call
        def kernel_after(before, args, _kwargs, _result):
            counts["kernel.events"] += args[0].events_executed - before
        self.span(Simulator, "run", "kernel.run",
                  before=lambda args, _kw: args[0].events_executed,
                  after=kernel_after)

        # transport: timed and counted by traffic class; a send counts
        # when it entered the network
        def send_key(_args, kwargs):
            return "transport.send." + kwargs.get("traffic_class",
                                                  "monitoring")

        def send_after(_state, args, kwargs, result):
            if result is not None:
                counts[send_key(args, kwargs).replace(".send.",
                                                      ".sends.")] += 1
        self.span(MessageTransport, "send", send_key, after=send_after)
        self.span(MessageTransport, "request", "transport.request")
        self.span(MessageTransport, "reply", "transport.reply")

        # links: an offer whose tail did not fit is one queue drop
        def offer_after(_state, args, _kwargs, result):
            if result[0] < args[2]:
                counts["links.drops"] += 1
        self.span(Link, "queue_offer", "links.queue_offer",
                  after=offer_after)
        self.span(Link, "record_transit", "links.record_transit")

        # ulm: every codec call, at each caller's own binding
        for module, names, where in (
                (manager_mod, ("serialize",), "manager"),
                (gateway_mod, ("serialize", "to_xml", "encode"), "gateway"),
                (repro.ulm, ("parse",), "intake"),
                (consumer_mod, ("parse_ulm", "from_xml", "ulm_decode"),
                 "consumer"),
                (runner_mod, ("serialize",), "runner")):
            for name in names:
                self.span(module, name, f"ulm.{where}.{name}")

        # manager: sampling/emission and the per-sensor remote relay
        self.span(Sensor, "emit", "manager.emit")
        self.span(manager_mod.SensorManager, "check_sensors",
                  "manager.check_sensors")
        make_relay = manager_mod.SensorManager.__dict__["_remote_relay"]

        def remote_relay(manager, sensor_name, gateway):
            return self.wrap("manager.relay",
                             make_relay(manager, sensor_name, gateway))
        self.patch(manager_mod.SensorManager, "_remote_relay", remote_relay)

        # gateway: an ingest counts when the gateway admits it
        def ingest_before(args, _kwargs):
            gw, name = args[0], args[1]
            return gw.up and name in gw._handles
        gw_cls = gateway_mod.EventGateway
        self.span(gw_cls, "ingest", "gateway.ingest", before=ingest_before,
                  after=count("gateway.ingests", lambda ok, _result: ok))
        self.span(gw_cls, "_handle_intake", "gateway.intake")
        self.span(gw_cls, "_pump_one", "gateway.pump")
        self.span(gw_cls, "_handle_request", "gateway.request")

        # consumer: wire decode + demux, handle dispatch, acceptance
        self.span(consumer_mod.Consumer, "_handle_delivery",
                  "consumer.delivery")
        self.span(consumer_mod.Consumer, "_accept", "consumer.accept")
        self.span(SubscriptionHandle, "_dispatch", "consumer.dispatch")

        # session: watchdog passes; archive rows scanned inside them
        # are replay work
        heal_now = ClientSession.__dict__["heal_now"]
        traced_heal = self.wrap("session.heal_now", heal_now)

        def heal(*args, **kwargs):
            self.session_depth += 1
            try:
                return traced_heal(*args, **kwargs)
            finally:
                self.session_depth -= 1
        self.patch(ClientSession, "heal_now", heal)
        self.span(ClientSession, "_resubscribe", "session.resubscribe",
                  after=count("session.resubscribes"))

        # archive: writes, scans (per item), rollups, compaction
        self.span(EventArchive, "append", "archive.append",
                  after=count("archive.appends"))

        def scanned():
            counts["archive.scanned"] += 1
            if self.session_depth:
                counts["session.replay_scanned"] += 1
        self.patch(EventArchive, "iter_query", self.wrap_gen(
            "archive.iter_query", EventArchive.__dict__["iter_query"],
            on_yield=scanned))
        self.span(EventArchive, "summarize_window",
                  "archive.summarize_window")
        self.span(EventArchive, "compact_once", "archive.compact_once")

        # directory: server-side searches (in-process and networked)
        # and the client entry points
        self.span(DirectoryServer, "search_now", "directory.search_now",
                  after=count("directory.searches", lambda _s, _r: True))
        self.span(DirectoryServer, "_handle", "directory.handle")
        self.span(DirectoryClient, "search", "directory.search")
        self.patch(DirectoryClient, "search_resilient", self.wrap_gen(
            "directory.search_resilient",
            DirectoryClient.__dict__["search_resilient"]))

        # runner: the scenario harness's commit/record hooks + collect
        self.span(runner_mod.ScenarioRunner, "_commit", "runner.commit")
        self.span(runner_mod.ScenarioRunner, "collect", "runner.collect")
        for owner, attr, key in extra:
            self.span(owner, attr, key)

    # -- aggregation ---------------------------------------------------------

    def aggregate(self) -> dict:
        """Per-key calls, total and self time; plus top-level time."""
        spans = self.spans
        child = [0.0] * len(spans)
        for key, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        keys: dict = {}
        top = 0.0
        for i, (key, t0, t1, parent) in enumerate(spans):
            dur = t1 - t0
            row = keys.get(key)
            if row is None:
                row = keys[key] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
            if parent < 0:
                top += dur
        return {"keys": keys, "top_s": top}
