"""Differential test: ``FaultPlan.random`` against its frozen oracle.

``reference_random_plan.reference_random`` is the hand-written draw
loop as it was before each fault kind became one table entry.  For the
same inputs both must emit the same plan, byte for byte in JSON: the
same RNG calls in the same order, the same gates, the same recovery
events.  A small sample runs in tier-1; the wide one is ``slow``
(``--runslow`` / ``RUN_SLOW=1``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from reference_random_plan import reference_random
from repro.simgrid import FaultPlan

HOSTS = ("gw.a", "dir.a", "s0.a", "s1.a", "s2.b", "consumer.b", "dir.b")
LINKS = ("a--sw", "b--sw", "sw--wan", "wan--swb")


@st.composite
def random_args(draw):
    hosts = draw(st.lists(st.sampled_from(HOSTS), min_size=1, max_size=7,
                          unique=True))
    kwargs = {
        "hosts": hosts,
        "links": draw(st.lists(st.sampled_from(LINKS), max_size=4,
                               unique=True)),
        "n_steps": draw(st.integers(min_value=0, max_value=120)),
        "horizon": draw(st.floats(min_value=5.0, max_value=300.0,
                                  allow_nan=False)),
        "protect": draw(st.lists(st.sampled_from(hosts), max_size=3,
                                 unique=True)),
        "max_down_fraction": draw(st.floats(min_value=0.0, max_value=1.0)),
    }
    # each gate on or off: its kinds join the draw only when named
    if draw(st.booleans()):
        kwargs["consumers"] = draw(st.lists(st.sampled_from(hosts),
                                            min_size=1, unique=True))
    if draw(st.booleans()):
        kwargs["archives"] = draw(st.lists(
            st.sampled_from(("commit-log", "arch-b")), min_size=1,
            unique=True))
    if draw(st.booleans()):
        # one storm host leaves the gate shut (a storm needs a pair)
        kwargs["storms"] = draw(st.lists(st.sampled_from(HOSTS),
                                         min_size=1, unique=True))
    if draw(st.booleans()):
        kwargs["flaky"] = draw(st.lists(st.sampled_from(hosts),
                                        min_size=1, unique=True))
    return draw(st.integers(min_value=0, max_value=2**31 - 1)), kwargs


def _check(seed: int, kwargs: dict) -> None:
    assert FaultPlan.random(seed, **kwargs).to_json() == \
        reference_random(seed, **kwargs).to_json()


@given(args=random_args())
@settings(max_examples=150, deadline=None)
def test_random_matches_reference(args):
    _check(*args)


@pytest.mark.slow
@given(args=random_args())
@settings(max_examples=5000, deadline=None)
def test_random_matches_reference_wide(args):
    _check(*args)


def test_every_gate_on_matches_reference():
    kwargs = {"hosts": HOSTS, "links": LINKS, "n_steps": 300,
              "protect": ("consumer.b",), "consumers": ("consumer.b",),
              "archives": ("commit-log",), "storms": HOSTS,
              "flaky": ("dir.a", "gw.a")}
    for seed in range(20):
        _check(seed, kwargs)
    kinds = {e.kind for e in FaultPlan.random(0, **kwargs)}
    assert {"slow_consumer", "disk_full", "compaction_stall",
            "torn_segment", "slow_disk", "congestion_storm",
            "flaky_rpc"} <= kinds
