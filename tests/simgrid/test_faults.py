"""Unit tests for the fault-injection layer itself."""

from __future__ import annotations

import pytest

from repro.simgrid import (FaultError, FaultEvent, FaultPlan, GridWorld,
                           NoRouteError)
from repro.simgrid.faults import FAULT_KINDS, HEAL_ORDER, KINDS


def two_site_world():
    world = GridWorld(seed=3)
    a1 = world.add_host("a1")
    a2 = world.add_host("a2")
    b1 = world.add_host("b1")
    world.lan([a1, a2], switch="sw-a")
    world.lan([b1], switch="sw-b")
    world.wan_path("sw-a", "sw-b", routers=["r1"], latency_s=5e-3)
    return world


class TestFaultPlan:
    def test_events_sorted_and_round_trip(self):
        plan = (FaultPlan(seed=4)
                .restart_host(20.0, "a1")
                .crash_host(10.0, "a1")
                .link_loss(15.0, "a1--sw-a", 0.05))
        assert [e.at for e in plan] == [10.0, 15.0, 20.0]
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.to_dict() == plan.to_dict()
        assert clone.seed == 4

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError):
            FaultEvent(1.0, "meteor_strike", "a1")

    def test_random_plans_always_recover(self):
        """Every crashed host is restarted and partitions heal within
        the horizon, so random plans always end in a live world."""
        plan = FaultPlan.random(99, hosts=["a1", "a2", "b1"],
                                n_steps=100, horizon=50.0)
        crashed, restarted = set(), set()
        last_partition, last_heal = -1.0, -1.0
        for e in plan:
            if e.kind == "host_crash":
                crashed.add(e.target)
            elif e.kind == "host_restart":
                restarted.add(e.target)
            elif e.kind == "partition":
                last_partition = max(last_partition, e.at)
            elif e.kind == "heal":
                last_heal = max(last_heal, e.at)
        assert crashed <= restarted
        if last_partition >= 0:
            assert last_heal >= last_partition

    def test_protected_hosts_never_crash(self):
        plan = FaultPlan.random(1, hosts=["a1", "a2", "b1"], n_steps=200,
                                horizon=60.0, protect=["b1"])
        assert all(e.target != "b1" for e in plan
                   if e.kind == "host_crash")

    def test_gray_kinds_round_trip_json(self):
        plan = (FaultPlan(seed=9)
                .degrade_sensor(1.0, "a1", mode="partial", rate=0.7, seed=42)
                .restore_sensor(2.0, "a1")
                .asymmetric_partition(3.0, ["a1", "a2"], ["b1"])
                .slow_consumer(4.0, "b1", 2.5)
                .restore_consumer(5.0, "b1")   # rate None -> JSON null
                .disk_full(6.0, "arch", 10_000)
                .restore_disk(7.0, "arch")
                .heal(8.0))
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.to_dict() == plan.to_dict()
        lifted = next(e for e in clone if e.kind == "slow_consumer"
                      and e.at == 5.0)
        assert lifted.params["rate"] is None

    def test_degrade_mode_validated(self):
        with pytest.raises(FaultError):
            FaultPlan().degrade_sensor(1.0, "a1", mode="melt")

    def test_random_plans_include_and_recover_gray_kinds(self):
        plan = FaultPlan.random(
            7, hosts=["a1", "a2", "b1"], n_steps=400, horizon=60.0,
            consumers=["b1"], archives=["arch"])
        kinds = {e.kind for e in plan}
        assert {"sensor_degrade", "slow_consumer", "disk_full"} <= kinds
        # every degradation is restored (a no-mode event) per host
        degraded = [e for e in plan if e.kind == "sensor_degrade"]
        assert all(e.params.get("mode") != "stale" for e in degraded)
        for host in {e.target for e in degraded if "mode" in e.params}:
            sets = [e for e in degraded if e.target == host
                    and e.params.get("mode")]
            clears = [e for e in degraded if e.target == host
                      and not e.params.get("mode")]
            assert len(clears) >= 1
            assert max(e.at for e in clears) <= 60.0
        # throttles and byte caps are lifted before the horizon
        for kind, param in (("slow_consumer", "rate"),
                            ("disk_full", "budget_bytes")):
            events = [e for e in plan if e.kind == kind]
            assert events[-1].params.get(param) is None

    def test_storage_kinds_round_trip_json(self):
        plan = (FaultPlan(seed=11)
                .stall_compaction(1.0, "arch", mode="wedge")
                .restore_compaction(2.0, "arch")   # params empty
                .tear_segment(3.0, "arch", index=2)
                .mend_segments(4.0, "arch")
                .slow_disk(5.0, "arch", 8.5)
                .restore_disk_speed(6.0, "arch"))
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.to_dict() == plan.to_dict()
        restore = next(e for e in clone if e.kind == "compaction_stall"
                       and e.at == 2.0)
        assert "mode" not in restore.params

    def test_stall_mode_validated(self):
        with pytest.raises(FaultError):
            FaultPlan().stall_compaction(1.0, "arch", mode="unplug")

    def test_random_plans_include_and_recover_storage_kinds(self):
        plan = FaultPlan.random(
            13, hosts=["a1", "a2", "b1"], n_steps=600, horizon=60.0,
            archives=["arch"])
        kinds = {e.kind for e in plan}
        assert {"compaction_stall", "torn_segment", "slow_disk"} <= kinds
        # every storage fault's last event is its parameterless restore
        for kind, param in (("compaction_stall", "mode"),
                            ("torn_segment", "index"),
                            ("slow_disk", "factor")):
            events = [e for e in plan if e.kind == kind]
            assert param in events[0].params
            assert param not in events[-1].params
            assert events[-1].at <= 60.0 * 0.95

    def test_random_plans_deterministic_per_seed(self):
        kwargs = dict(hosts=["a1", "a2", "b1"], n_steps=120, horizon=50.0,
                      consumers=["b1"], archives=["arch"])
        assert FaultPlan.random(5, **kwargs).to_dict() == \
            FaultPlan.random(5, **kwargs).to_dict()
        assert FaultPlan.random(5, **kwargs).to_dict() != \
            FaultPlan.random(6, **kwargs).to_dict()


class TestFaultInjector:
    def test_arm_validates_targets_up_front(self):
        world = two_site_world()
        with pytest.raises(FaultError):
            world.inject(FaultPlan().crash_host(1.0, "nope"))
        with pytest.raises(FaultError):
            world.inject(FaultPlan().link_down(1.0, "no-such-link"))

    def test_host_crash_drops_traffic_and_restart_restores(self):
        world = two_site_world()
        a1, b1 = world.host("a1"), world.host("b1")
        world.inject(FaultPlan().crash_host(1.0, "b1").restart_host(3.0, "b1"))
        got = []
        b1.ports.bind(4000, lambda m, _t: got.append(m))
        for t in (0.5, 2.0, 4.0):
            world.sim.call_at(t, lambda: world.transport.send(
                a1, b1, 4000, {"n": 1}, on_fail=lambda exc: None))
        world.run(until=6.0)
        assert len(got) == 2  # the t=2.0 send died with the host down
        assert b1.crashes == 1 and b1.restarts == 1

    def test_partition_cuts_cross_site_routes_only(self):
        world = two_site_world()
        plan = FaultPlan().partition(1.0, ["a1", "a2"], ["b1"])
        injector = world.inject(plan)
        world.run(until=2.0)
        with pytest.raises(NoRouteError):
            world.network.route("a1", "b1")
        # intra-site connectivity survives (an infra link was cut)
        assert world.network.route("a1", "a2").hops == 2

    def test_heal_restores_routes_and_link_params(self):
        world = two_site_world()
        link = next(l for l in world.network.links()
                    if l.name == "sw-a--r1")
        base_latency = link.latency_s
        plan = (FaultPlan()
                .partition(1.0, ["a1", "a2"], ["b1"])
                .link_loss(1.5, "sw-a--r1", 0.2)
                .link_latency(1.5, "sw-a--r1", 10.0)
                .heal(3.0))
        world.inject(plan)
        world.run(until=2.0)
        assert link.loss_rate == pytest.approx(0.2)
        world.run(until=4.0)
        assert world.network.route("a1", "b1").hops == 4
        assert link.loss_rate == 0.0
        assert link.latency_s == pytest.approx(base_latency)

    def test_clock_skew_applies_offset_and_drift(self):
        world = two_site_world()
        world.inject(FaultPlan().skew_clock(1.0, "a1", offset=0.25,
                                            drift=1e-3))
        world.run(until=2.0)
        clock = world.host("a1").clock
        assert clock.error() == pytest.approx(0.25 + 1e-3 * 1.0)

    def test_asymmetric_partition_loses_one_direction_silently(self):
        world = two_site_world()
        a1, b1 = world.host("a1"), world.host("b1")
        world.inject(FaultPlan()
                     .asymmetric_partition(1.0, ["a1", "a2"], ["b1"])
                     .heal(4.0))
        results = {"a_to_b": [], "b_to_a": [], "failed": []}
        a1.ports.bind(4000, lambda m, _t: results["b_to_a"].append(m))
        b1.ports.bind(4000, lambda m, _t: results["a_to_b"].append(m))

        def exchange():
            world.transport.send(a1, b1, 4000, {"d": "a->b"},
                                 on_fail=results["failed"].append)
            world.transport.send(b1, a1, 4000, {"d": "b->a"},
                                 on_fail=results["failed"].append)

        world.sim.call_at(2.0, exchange)   # during the gray partition
        world.sim.call_at(5.0, exchange)   # after heal
        world.run(until=6.0)
        # routing stayed up the whole time, and the cut direction died
        # SILENTLY: no on_fail at the sender — that's the gray part
        assert world.network.route("a1", "b1").hops >= 1
        assert results["failed"] == []
        assert len(results["a_to_b"]) == 1   # t=2.0 copy blackholed
        assert len(results["b_to_a"]) == 2   # reverse path never cut
        assert world.transport.messages_lost == 1

    def test_disk_full_degrades_registered_archive_and_heals(self):
        from repro.core.archive import EventArchive
        from repro.ulm import ULMMessage

        world = two_site_world()
        archive = EventArchive(name="arch")
        world.register_archive(archive)
        world.inject(FaultPlan()
                     .disk_full(1.0, "arch", 2_000)
                     .restore_disk(3.0, "arch"))

        def feed(n, t):
            for i in range(n):
                archive.append(ULMMessage(date=t + i * 1e-3, host="a1",
                                          prog="s", event="E",
                                          fields={"PAYLOAD": "x" * 64}))

        world.sim.call_at(0.5, lambda: feed(40, 0.5))
        world.run(until=2.0)
        assert archive.degraded
        assert archive.shed > 0                  # oldest retention shed
        assert len(archive.query(event="E")) > 0  # still serves reads
        dropped_while_degraded = archive.dropped_degraded
        world.sim.call_at(2.5, lambda: feed(5, 2.5))
        world.run(until=2.8)
        assert archive.dropped_degraded == dropped_while_degraded + 5
        world.run(until=4.0)
        assert not archive.degraded              # budget lifted
        before = len(archive.messages)
        feed(3, 5.0)
        assert len(archive.messages) == before + 3

    def test_unknown_gray_targets_rejected_at_arm(self):
        world = two_site_world()
        with pytest.raises(FaultError):
            world.inject(FaultPlan().degrade_sensor(1.0, "nope"))
        with pytest.raises(FaultError):
            world.inject(FaultPlan().slow_consumer(1.0, "nope", 2.0))
        with pytest.raises(FaultError):
            world.inject(FaultPlan().disk_full(1.0, "no-arch", 1000))
        with pytest.raises(FaultError):
            world.inject(FaultPlan().stall_compaction(1.0, "no-arch"))
        with pytest.raises(FaultError):
            world.inject(FaultPlan().tear_segment(1.0, "no-arch"))
        with pytest.raises(FaultError):
            world.inject(FaultPlan().slow_disk(1.0, "no-arch", 4.0))

    def test_unknown_partition_groups_rejected_at_arm(self):
        world = two_site_world()
        for kind in ("partition", "asymmetric_partition"):
            with pytest.raises(FaultError, match="a1-typo"):
                world.inject(getattr(FaultPlan(), kind)(1.0, ["a1-typo"],
                                                        ["b1"]))
            with pytest.raises(FaultError, match="nope"):
                world.inject(getattr(FaultPlan(), kind)(1.0, ["a1"],
                                                        ["b1", "nope"]))
        # switches and routers are nodes too
        world.inject(FaultPlan().partition(1.0, ["a1", "sw-a"], ["r1"]))

    @staticmethod
    def _segmented_archive(world, n=40):
        from repro.core.archive import EventArchive
        from repro.ulm import ULMMessage

        archive = EventArchive(name="arch", segment_events=8)
        world.register_archive(archive)
        for i in range(n):
            archive.append(ULMMessage(date=0.1 + i * 1e-2, host="a1",
                                      prog="s", event="E",
                                      fields={"SEQ": i, "VALUE": i}))
        return archive

    def test_compaction_stall_wedges_until_restored(self):
        world = two_site_world()
        archive = self._segmented_archive(world)
        compactor = archive.start_compaction(world.sim, interval=0.5)
        world.inject(FaultPlan()
                     .stall_compaction(1.0, "arch", mode="wedge")
                     .restore_compaction(4.0, "arch"))
        world.run(until=0.9)
        passes_before = archive.compaction_passes
        assert passes_before > 0
        world.run(until=3.9)
        assert archive.compaction_stalled
        # wedged: supervision restarts are visible but don't help
        assert archive.compaction_passes == passes_before
        assert compactor.stats()["restarts"] >= 1
        world.run(until=6.0)
        assert not archive.compaction_stalled
        assert archive.compaction_passes > passes_before  # caught up
        compactor.stop()

    def test_compaction_kill_recovers_via_supervision_alone(self):
        world = two_site_world()
        archive = self._segmented_archive(world)
        compactor = archive.start_compaction(world.sim, interval=0.5)
        # one-shot kill: no restore event in the plan at all
        world.inject(FaultPlan().stall_compaction(1.0, "arch", mode="kill"))
        world.run(until=1.1)
        passes_killed = archive.compaction_passes
        world.run(until=8.0)
        assert archive.compaction_passes > passes_killed
        assert compactor.stats()["restarts"] >= 1
        assert not archive.compaction_stalled
        compactor.stop()

    def test_torn_segment_quarantines_then_mend_reinstates(self):
        world = two_site_world()
        archive = self._segmented_archive(world, n=40)
        total = len(archive)
        world.inject(FaultPlan()
                     .tear_segment(1.0, "arch", index=0)
                     .mend_segments(3.0, "arch"))
        world.run(until=2.0)
        # detection is lazy: the query notices, quarantines, and keeps
        # serving every healthy segment
        served = archive.query(event="E")
        assert 0 < len(served) < total
        assert archive.stats()["quarantined"] == 1
        assert archive.quarantined_spans()
        world.run(until=4.0)
        assert archive.stats()["quarantined"] == 0
        assert archive.stats()["segments_reinstated"] == 1
        assert len(archive.query(event="E")) == total

    def test_slow_disk_stretches_and_restores_io_latency(self):
        world = two_site_world()
        archive = self._segmented_archive(world)
        world.inject(FaultPlan()
                     .slow_disk(1.0, "arch", 6.0)
                     .restore_disk_speed(3.0, "arch"))
        world.run(until=2.0)
        assert archive.io_latency_factor == pytest.approx(6.0)
        world.run(until=4.0)
        assert archive.io_latency_factor == pytest.approx(1.0)

    def test_heal_clears_all_storage_gray_state(self):
        world = two_site_world()
        archive = self._segmented_archive(world, n=40)
        total = len(archive)
        world.inject(FaultPlan()
                     .stall_compaction(1.0, "arch", mode="wedge")
                     .tear_segment(1.0, "arch", index=1)
                     .slow_disk(1.0, "arch", 9.0)
                     .heal(3.0))
        world.run(until=2.0)
        archive.query(event="E")  # trip the lazy torn detection
        assert archive.compaction_stalled
        assert archive.stats()["quarantined"] == 1
        world.run(until=4.0)
        assert not archive.compaction_stalled
        assert archive.io_latency_factor == pytest.approx(1.0)
        assert archive.stats()["quarantined"] == 0
        assert len(archive.query(event="E")) == total

    def test_sensor_degrade_applies_and_heal_clears(self):
        from repro.core import JAMMDeployment, JAMMConfig
        world = two_site_world()
        jamm = JAMMDeployment(world)
        gw = jamm.add_gateway("gw", host=world.host("b1"))
        config = JAMMConfig()
        config.add_sensor("cpu", "cpu", period=0.5)
        manager = jamm.add_manager(world.host("a1"), config=config,
                                   gateway=gw)
        manager.supervision_interval = 100.0  # park supervision: isolate heal
        sensor = manager.sensors["cpu"]
        world.inject(FaultPlan()
                     .degrade_sensor(1.0, "a1", mode="partial", rate=1.0)
                     .heal(3.0))
        world.run(until=2.0)
        assert sensor.degrade_mode == "partial"
        assert sensor.running and sensor._proc.alive  # alive, just lossy
        world.run(until=4.0)
        assert sensor.degrade_mode is None            # heal cured it

    def test_process_kill_targets_a_sensor_loop(self):
        from repro.core import JAMMDeployment, JAMMConfig
        world = two_site_world()
        jamm = JAMMDeployment(world)
        gw = jamm.add_gateway("gw", host=world.host("b1"))
        config = JAMMConfig()
        config.add_sensor("cpu", "cpu", period=0.5)
        manager = jamm.add_manager(world.host("a1"), config=config,
                                   gateway=gw)
        manager.supervision_interval = 2.0
        sensor = manager.sensors["cpu"]
        # kill between supervision ticks (2.0, 4.0, ...) so the wedged
        # state — "running" with a dead loop — is observable
        world.inject(FaultPlan().kill_process(2.5, "a1", sensor="cpu"))
        world.run(until=3.0)
        assert sensor.running and not sensor._proc.alive  # wedged
        world.run(until=6.0)
        assert sensor._proc.alive  # the supervisor restarted it
        assert sensor.restarts == 1
        assert manager.sensor_restarts == 1


class TestFlakyRpc:
    """Transient RPC faults at the transport boundary (flaky_rpc)."""

    def test_flaky_kinds_round_trip_json(self):
        plan = (FaultPlan(seed=21)
                .flaky_rpc(1.0, "b1", rate=0.4, latency_s=0.2, seed=9)
                .steady_rpc(2.0, "b1")
                .steady_rpc(3.0))           # no host -> clears all
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.to_dict() == plan.to_dict()
        flaky = next(e for e in clone if e.kind == "flaky_rpc")
        assert flaky.params == {"rate": 0.4, "latency_s": 0.2, "seed": 9}

    def test_flaky_rate_validated(self):
        world = two_site_world()
        with pytest.raises(FaultError):
            world.inject(FaultPlan().flaky_rpc(1.0, "b1", rate=1.5))
        with pytest.raises(FaultError):
            world.inject(FaultPlan().flaky_rpc(1.0, "nope", rate=0.5))

    def test_random_plans_with_flaky_always_recover(self):
        plan = FaultPlan.random(17, hosts=["a1", "a2", "b1"], n_steps=300,
                                horizon=60.0, flaky=["a1", "b1"])
        flaky = [e for e in plan if e.kind == "flaky_rpc"]
        steady = [e for e in plan if e.kind == "steady_rpc"]
        assert flaky, "flaky hosts given but no flaky_rpc drawn"
        # always-recovering: every flaky host gets a steady_rpc at or
        # after its last flaky_rpc, inside the horizon
        for host in {e.target for e in flaky}:
            last_flaky = max(e.at for e in flaky if e.target == host)
            clears = [e.at for e in steady if e.target == host]
            assert clears and max(clears) >= last_flaky
            assert max(clears) <= 60.0

    def test_flaky_gating_preserves_seed_replay(self):
        """Plans generated WITHOUT the flaky parameter are bit-identical
        to pre-flaky_rpc plans: the new kind is appended to the draw
        list only when flaky hosts are supplied."""
        kwargs = dict(hosts=["a1", "a2", "b1"], n_steps=150, horizon=50.0,
                      consumers=["b1"], archives=["arch"])
        base = FaultPlan.random(5, **kwargs)
        assert "flaky_rpc" not in {e.kind for e in base}
        assert base.to_dict() == FaultPlan.random(5, **kwargs).to_dict()
        withflaky = FaultPlan.random(5, flaky=["a1"], **kwargs)
        assert "flaky_rpc" in {e.kind for e in withflaky}

    def test_injected_flaky_drops_then_steady_restores(self):
        """End-to-end through a world: sends toward the flaky host fail
        with seeded transient errors (sender-visible via on_fail), and
        steady_rpc restores perfect delivery."""
        world = two_site_world()
        a1, b1 = world.host("a1"), world.host("b1")
        got, errors = [], []
        b1.ports.bind(7000, lambda m, t: got.append(m))
        world.inject(FaultPlan(seed=3)
                     .flaky_rpc(1.0, "b1", rate=0.6, seed=3)
                     .steady_rpc(10.0, "b1"))

        def sender():
            from repro.simgrid.kernel import Timeout
            for _ in range(40):
                yield Timeout(0.2)
                world.transport.send(a1, b1, 7000, "ping",
                                     on_fail=errors.append)
        world.sim.spawn(sender())
        world.run(until=9.0)
        mid_delivered, mid_failed = len(got), len(errors)
        assert mid_failed > 0, "no transient failures at rate=0.6"
        assert mid_delivered > 0, "flaky is not a blackhole"
        assert world.transport.messages_flaky_failed == mid_failed
        world.run(until=20.0)
        # after steady_rpc every remaining send was delivered
        assert len(errors) == mid_failed
        assert len(got) + len(errors) == 40

    def test_flaky_rpc_is_seed_deterministic(self):
        def run_once():
            world = two_site_world()
            a1, b1 = world.host("a1"), world.host("b1")
            got, errors = [], []
            b1.ports.bind(7000, lambda m, t: got.append(m.payload))
            world.inject(FaultPlan(seed=8).flaky_rpc(0.5, "b1", rate=0.5,
                                                     seed=8))

            def sender():
                from repro.simgrid.kernel import Timeout
                for i in range(30):
                    yield Timeout(0.1)
                    world.transport.send(a1, b1, 7000, i,
                                         on_fail=lambda e, i=i:
                                         errors.append(i))
            world.sim.spawn(sender())
            world.run(until=5.0)
            return got, errors
        first, second = run_once(), run_once()
        assert first == second

    def test_heal_clears_flaky_state(self):
        world = two_site_world()
        a1, b1 = world.host("a1"), world.host("b1")
        errors = []
        b1.ports.bind(7000, lambda m, t: None)
        world.inject(FaultPlan(seed=2)
                     .flaky_rpc(0.5, "b1", rate=1.0)
                     .heal(2.0))

        def sender():
            from repro.simgrid.kernel import Timeout
            for _ in range(10):
                yield Timeout(0.3)
                world.transport.send(a1, b1, 7000, "x",
                                     on_fail=errors.append)
        world.sim.spawn(sender())
        world.run(until=2.0)
        during = len(errors)
        assert during > 0
        world.run(until=6.0)
        assert len(errors) == during  # heal turned flaky off


class TestFaultKindTable:
    def test_kind_list_and_draw_order_come_from_the_table(self):
        assert FAULT_KINDS == tuple(KINDS)
        # the random draw picks by index into this list: its order is
        # part of every seed's plan
        assert [k for k, v in KINDS.items() if v.draw] == [
            "host_crash", "process_kill", "partition", "link_loss",
            "link_latency", "clock_skew", "sensor_degrade",
            "asymmetric_partition", "slow_consumer", "disk_full",
            "compaction_stall", "torn_segment", "slow_disk",
            "congestion_storm", "flaky_rpc"]

    def test_heal_order(self):
        assert HEAL_ORDER == ("link_down", "link", "sensor", "throttle",
                              "budget", "stall", "torn", "slow_disk",
                              "storm", "flaky")

    def test_heal_all_undoes_everything_still_in_force(self):
        world = two_site_world()
        link = world.network.route("a1", "b1").links[1]
        latency = link.latency_s
        injector = world.inject(
            FaultPlan(seed=1)
            .partition(0.5, ["a1"], ["b1"])
            .link_latency(0.5, link.name, 10.0)
            .congestion_storm(0.5, "a2", "b1", rate_bps=50e6)
            .flaky_rpc(0.5, "b1", rate=1.0))
        world.run(until=1.0)
        assert injector.storms
        with pytest.raises(NoRouteError):
            world.network.route("a1", "b1")
        injector.heal_all()
        assert injector.storms == {}
        assert link.latency_s == latency
        world.network.route("a1", "b1")
        got, failed = [], []
        world.host("b1").ports.bind(7000, lambda m, _t: got.append(m))
        world.transport.send(world.host("a1"), world.host("b1"), 7000, "x",
                             on_fail=failed.append)
        world.run(until=2.0)
        assert failed == [] and len(got) == 1
