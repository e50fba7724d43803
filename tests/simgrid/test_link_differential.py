"""Differential test: the storm-free link queue is today's arithmetic.

``RefQueue`` is a frozen copy of ``Link.queue_offer`` (and the
utilization read) as it was before fluid background traffic existed.
On hypothesis-generated offer sequences, a link no fluid source
crosses, and a link crossed by a source whose rate is zero, must
return the same ``(accepted, delay)`` pair for every offer and end with
the same queue counters, bit for bit.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.simgrid import GridWorld
from repro.simgrid.network import TRAFFIC_CLASSES
from repro.simgrid.traffic import TrafficGenerator, TrafficSpec

BANDWIDTH_BPS = 8e6          # 1 MB/s: a 250 KB queue
QUEUE_SECONDS = 0.25
UTIL_WINDOW_S = 1.0


class RefQueue:
    """The pre-fluid per-direction queue, frozen."""

    def __init__(self) -> None:
        self.queue_bytes = QUEUE_SECONDS * BANDWIDTH_BPS / 8.0
        self.busy = [0.0, 0.0]
        self.drops = [0, 0]
        self.dropped_bytes = [0, 0]
        self.peak = [0.0, 0.0]
        self.delay_total = [0.0, 0.0]
        self.win_start = [0.0, 0.0]
        self.win_bytes = [0, 0]
        self.win_rate = [0.0, 0.0]
        self.class_bytes: dict = {}

    def offer(self, d, nbytes, now, traffic_class, atomic):
        rate = BANDWIDTH_BPS / 8.0
        busy = self.busy[d]
        if busy <= now:
            delay = 0.0
            accepted = nbytes
            self.busy[d] = now + nbytes / rate
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
                self.drops[d] += 1
                self.dropped_bytes[d] += dropped
            if accepted:
                self.busy[d] = busy + accepted / rate
                self.delay_total[d] += delay
            if delay > self.peak[d]:
                self.peak[d] = delay
        if accepted:
            if now - self.win_start[d] >= UTIL_WINDOW_S:
                elapsed = now - self.win_start[d]
                self.win_rate[d] = self.win_bytes[d] * 8.0 / elapsed
                self.win_start[d] = now
                self.win_bytes[d] = accepted
            else:
                self.win_bytes[d] += accepted
            if traffic_class is not None:
                self.class_bytes[traffic_class] = \
                    self.class_bytes.get(traffic_class, 0) + accepted
        return accepted, delay

    def utilization(self, d, now):
        elapsed = now - self.win_start[d]
        if elapsed >= UTIL_WINDOW_S:
            rate = self.win_bytes[d] * 8.0 / elapsed
        else:
            rate = max(self.win_rate[d],
                       self.win_bytes[d] * 8.0 / UTIL_WINDOW_S)
        util = rate / BANDWIDTH_BPS
        return util if util < 1.0 else 1.0


def _link(zero_rate_source: bool):
    world = GridWorld(seed=1)
    a, b = world.add_host("a"), world.add_host("b")
    link = world.network.link(a.node, b.node, bandwidth_bps=BANDWIDTH_BPS,
                              latency_s=1e-3)
    if zero_rate_source:
        gen = TrafficGenerator(world, TrafficSpec(
            src="a", dst="b", rate_bps=1e6)).start()
        # a registered source offering nothing (an on/off source
        # between bursts)
        gen.rate = 0.0
        world.network.fluid.dirty = True
        assert link._fluid is not None
    return link, (a.node, b.node)


offers = st.lists(
    st.tuples(st.integers(0, 1),                         # direction
              st.one_of(st.integers(1, 300_000),         # bytes, with
                        st.sampled_from((50_000, 100_000,  # exact fits
                                         150_000, 250_000))),
              st.one_of(st.just(0.0),
                        st.floats(0.0, 0.6, allow_nan=False)),  # gap
              st.booleans(),                             # atomic
              st.sampled_from((None,) + TRAFFIC_CLASSES)),
    min_size=1, max_size=60)


def _check(seq, zero_rate_source):
    link, ends = _link(zero_rate_source)
    ref = RefQueue()
    now = 0.0
    for d, nbytes, gap, atomic, cls in seq:
        now += gap
        got = link.queue_offer(ends[d], nbytes, now, cls, atomic=atomic)
        assert got == ref.offer(d, nbytes, now, cls, atomic)
        toward = ends[1 - d]
        assert link.utilization(toward, now) == ref.utilization(d, now)
        busy = ref.busy[d]
        assert link.queue_backlog_s(toward, now) == \
            (busy - now if busy > now else 0.0)
    stats = link.queue_stats()
    assert stats["drops"] == tuple(ref.drops)
    assert stats["dropped_bytes"] == tuple(ref.dropped_bytes)
    assert stats["peak_backlog_s"] == tuple(ref.peak)
    assert stats["delay_total_s"] == tuple(ref.delay_total)
    assert stats["class_bytes"] == ref.class_bytes
    assert stats["fluid_drops"] == (0, 0)
    assert link._q_busy_until == ref.busy


#: a datagram that exactly fills the free space must be accepted
EXACT_FIT = [(0, 100_000, 0.0, True, None), (0, 150_000, 0.0, True, None)]


@settings(max_examples=200, deadline=None)
@given(offers)
@example(EXACT_FIT)
def test_link_without_fluid_matches_reference(seq):
    _check(seq, zero_rate_source=False)


@settings(max_examples=100, deadline=None)
@given(offers)
@example(EXACT_FIT)
def test_zero_rate_source_is_a_no_op(seq):
    _check(seq, zero_rate_source=True)
