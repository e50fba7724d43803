"""Retry-storm A/B: budgeted retries beat naive retries under duress.

The tentpole claims, as tests:

* under a congestion storm plus a flaky master, the budgeted+breaker
  arm keeps at least 2x the naive arm's goodput (it sheds to the local
  replica instead of hammering the flaky master);
* the naive arm's wire bytes during the storm are dominated by retries
  (the metastable ingredient), and its goodput visibly collapses;
* both arms fully recover once the storm calms;
* the whole A/B outcome is deterministic in the seed;
* with no faults injected, the standard scenario digests are
  bit-identical to the pre-resilience baselines — the resilience layer
  is free on the idle fast path.
"""

from __future__ import annotations

from repro.scenarios import (RetryStormScenario, Scenario, ScenarioRunner,
                             run_retrystorm, run_scenario)
from repro.simgrid import FaultPlan

#: digests of no-fault standard-scenario runs captured BEFORE the
#: resilience layer was wired in (the pre-PR baselines); any drift means
#: the wiring changed fault-free behavior
BASELINE_NOFAULT_SEED7 = \
    "94931813679870eb550c9b002f58e9d329e609ed6afeae21d68e552e74bab65c"
BASELINE_NOFAULT_SEED3 = \
    "4c859fa472914efbf42559c0b02a2abfb62a6c1ae40b68e1fa44fb12539746cc"


def test_budgeted_arm_survives_the_storm():
    result = run_retrystorm(seed=7)
    # the one-call version of every claim below
    result.check(min_goodput_ratio=2.0, min_recovery_rate=0.9)

    naive, budgeted = result.naive, result.budgeted
    # goodput: the budgeted arm keeps >= 2x the naive arm's during the
    # storm window (in practice ~5x with the default knobs)
    assert result.goodput_ratio() >= 2.0
    # collapse: the naive arm visibly melts down relative to its own
    # pre-storm goodput; the budgeted arm does not
    assert naive.goodput["storm"] < 0.5 * naive.goodput["pre"]
    assert budgeted.goodput["storm"] >= 0.9 * budgeted.goodput["pre"]
    # the metastable ingredient: most naive request bytes are retries
    assert naive.retry_fraction() >= 0.5
    # the budgeted arm spends almost nothing on retries — the budget
    # identity holds by construction, shedding does the real work
    assert budgeted.retry_fraction() < 0.2
    totals = budgeted.policy_stats["totals"]
    cfg = result.scenario.policy_config()
    assert totals["retries"] <= (cfg.budget_burst
                                 + cfg.budget_ratio * totals["attempts"])


def test_both_arms_recover_after_calm():
    result = run_retrystorm(seed=3)
    for arm in (result.naive, result.budgeted):
        assert arm.success_rate["post"] >= 0.9, arm.name
        assert arm.success_rate["pre"] >= 0.9, arm.name


def test_retrystorm_is_deterministic():
    a = run_retrystorm(RetryStormScenario(seed=11))
    b = run_retrystorm(RetryStormScenario(seed=11))
    assert a.digest() == b.digest()
    assert a.naive.records == b.naive.records
    assert a.budgeted.records == b.budgeted.records
    # and the digest discriminates
    c = run_retrystorm(RetryStormScenario(seed=12))
    assert c.digest() != a.digest()


def test_no_fault_digest_matches_pre_resilience_baseline():
    """The resilience layer is free when nothing fails: no-fault runs
    are bit-identical to digests captured before this layer existed."""
    r7 = run_scenario(Scenario(name="idle", seed=7, plan=FaultPlan(seed=7),
                               horizon=30.0, drain=10.0))
    assert r7.digest() == BASELINE_NOFAULT_SEED7
    r3 = run_scenario(Scenario(name="idle", seed=3, plan=FaultPlan(seed=3),
                               horizon=20.0, drain=8.0))
    assert r3.digest() == BASELINE_NOFAULT_SEED3


def test_resilience_config_knob_is_digest_neutral():
    """Turning the deployment-wide resilience config on (jitter 0)
    changes accounting, never behavior, on the no-fault path."""
    plain = run_scenario(Scenario(name="idle", seed=7,
                                  plan=FaultPlan(seed=7),
                                  horizon=30.0, drain=10.0))
    configured = run_scenario(Scenario(name="idle", seed=7,
                                       plan=FaultPlan(seed=7),
                                       horizon=30.0, drain=10.0,
                                       resilience={"jitter": 0.0}))
    assert configured.digest() == plain.digest() == BASELINE_NOFAULT_SEED7
    # the configured run actually built policies and counted work
    totals = configured.stats["resilience"]["totals"]
    assert totals["attempts"] > 0


def test_flaky_random_plans_hold_invariants():
    """Random plans with flaky_rpc in the mix still satisfy every
    system invariant (always-recovering: steady_rpc is scheduled for
    each flaky_rpc)."""
    result = run_scenario(Scenario(name="flaky-random", seed=7,
                                   horizon=30.0, drain=10.0,
                                   flaky=True, random_steps=40))
    result.check()
    kinds = {e["kind"] for e in result.plan.to_dict()["events"]}
    assert "flaky_rpc" in kinds
    assert result.stats["transport"]["messages_flaky_failed"] > 0


def test_runner_force_heal_steadies_a_flaky_host():
    """A ``flaky_rpc`` still in force at the horizon is undone by the
    runner's force-heal like every other residual fault, so the drain
    and flush talk to a working endpoint."""
    runner = ScenarioRunner(Scenario(
        name="flaky-tail", seed=7,
        plan=FaultPlan(seed=7).flaky_rpc(50.0, "gw.siteA", rate=1.0)))
    result = runner.run()
    world = runner.world
    # about as many RPCs fail as when the plan itself steadies the host
    # just before the horizon (a few more: those sent up to the horizon
    # itself); left flaky through drain and flush, three times as many
    steadied = run_scenario(Scenario(
        name="flaky-tail", seed=7,
        plan=(FaultPlan(seed=7).flaky_rpc(50.0, "gw.siteA", rate=1.0)
              .steady_rpc(59.9, "gw.siteA"))))
    assert result.stats["transport"]["messages_flaky_failed"] <= \
        steadied.stats["transport"]["messages_flaky_failed"] + 5
    # and an RPC sent after the run reaches the host
    got, failed = [], []
    world.host("gw.siteA").ports.bind(7999, lambda m, _t: got.append(m))
    world.transport.send(world.host("consumer.siteB"),
                         world.host("gw.siteA"), 7999, "probe",
                         on_fail=failed.append)
    world.run(until=world.sim.now + 1.0)
    assert failed == [] and len(got) == 1
