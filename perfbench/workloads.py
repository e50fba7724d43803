"""The benchmark's three workloads, built from a seed.

Each workload is a batch job of fixed simulated size.  ``setup()``
builds the world, deploys JAMM and opens every subscription (the
``setup_s`` span); ``execute(make_run)`` drives the simulation to
completion through ``make_run(sim)(until)``, which the caller slices
and times; ``outcome()`` reads what the run produced and checks it.
The seed only shapes the inputs (sensor periods, link latencies, RNG
streams, fault seeds): the program receives the generated world and
plan and nothing else.

Load model: one process, one thread.  Sensors sample on a fixed
schedule in simulated time (open loop).  The two discovery pollers are
closed loop with a fixed think time.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.core import JAMMDeployment
from repro.core.config import JAMMConfig
from repro.core.filters import Threshold
from repro.core.resilience import ResilienceConfig, ResiliencePolicy
from repro.scenarios import Scenario, ScenarioRunner
from repro.scenarios.runner import BASE_CLOCK_OFFSET
from repro.simgrid import FaultPlan, GridWorld
from repro.simgrid.kernel import Timeout

__all__ = ["WORKLOADS", "Outcome", "Steady", "Fanout", "Storm",
           "percentile"]

#: every sensor samples at this period (simulated seconds), spread by
#: a seeded +-1% per host so event interleavings differ between seeds
#: while the amount of work barely does
SENSOR_PERIOD = 0.05
PERIOD_SPREAD = 0.01
#: each link's one-way latency is spread by a seeded +-2%, so
#: simulated latencies differ between seeds
LATENCY_SPREAD = 0.02
#: closed-loop think time of the discovery pollers
POLL_THINK_S = 0.1
N_POLLERS = 2
SENSOR_BASE = "ou=sensors,o=grid"


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


@dataclass
class Outcome:
    """What one run of a workload produced, and whether it was right."""

    committed: int
    deliveries: int
    sim_s: float
    #: simulated ms from each sample's ULM DATE to a remote consumer
    #: callback, in delivery order
    ages_ms: list
    #: (simulated latency ms, ok) per poller search, in issue order
    searches: list
    attempted: int
    failed: int
    digest: str
    violations: list = field(default_factory=list)
    #: program objects the traced run reads its counters from
    world: object = None
    deployment: object = None
    sessions: list = field(default_factory=list)
    archives: list = field(default_factory=list)
    policies: list = field(default_factory=list)


class Poller:
    """A closed-loop discovery client: think, search, repeat.  Every
    workload runs two at site B, so every workload reports search
    latency; they add a few hundred searches to thousands of events."""

    def __init__(self, world, deployment, host, name: str, until: float):
        policy = ResiliencePolicy(
            world.sim, ResilienceConfig(),
            rng=world.rng.stream(f"resilience:{name}"), name=name)
        self.policy = policy
        self.client = deployment.directory_client(host=host,
                                                  resilience=policy)
        self.records: list = []
        world.sim.spawn(self._loop(world.sim, until), name=name)

    def _loop(self, sim, until: float):
        while sim.now < until:
            yield Timeout(POLL_THINK_S)
            if sim.now >= until:
                break
            start = sim.now
            ok, value, _key, _attempts = yield from \
                self.client.search_resilient(SENSOR_BASE,
                                             "(objectclass=sensor)")
            good = ok and isinstance(value, dict) and bool(value.get("ok"))
            self.records.append(((sim.now - start) * 1e3, good))


def _spread_periods(managers: dict, rng: random.Random) -> None:
    for name in sorted(managers):
        for sensor_name in sorted(managers[name].sensors):
            managers[name].sensors[sensor_name].period = SENSOR_PERIOD * (
                1.0 + rng.uniform(-PERIOD_SPREAD, PERIOD_SPREAD))


def _spread_latencies(world, rng: random.Random) -> None:
    for link in world.network.links():
        link.latency_s *= 1.0 + rng.uniform(-LATENCY_SPREAD, LATENCY_SPREAD)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


def _policies(deployment, sessions, pollers) -> list:
    """Every resilience policy in the world, each object once."""
    found: list = []

    def note(policy) -> None:
        if policy is not None and not any(p is policy for p in found):
            found.append(policy)

    for session in sessions:
        note(session._resilience)
        note(getattr(session.client.directory, "resilience", None))
    for manager in deployment.managers.values():
        note(manager.resilience)
        note(getattr(manager.directory, "resilience", None))
    note(deployment.directory.master.replicator.resilience)
    for policy in deployment.policies.values():
        note(policy)
    for poller in pollers:
        note(poller.policy)
    return found


# ---------------------------------------------------------------------------
# steady / storm: the standard two-site ScenarioRunner world
# ---------------------------------------------------------------------------


class AgeRecordingRunner(ScenarioRunner):
    """The scenario runner, plus event ages at the remote consumer."""

    def __init__(self, scenario: Scenario):
        super().__init__(scenario)
        self.ages_ms: list = []

    def _record(self, event) -> None:
        super()._record(event)
        host = self.session.client.host
        self.ages_ms.append((host.timestamp() - event.date) * 1e3)


class Steady:
    """10 sensor hosts at 50 ms, the commit log, one healing consumer."""

    name = "steady"
    default_seed = 4242
    N_SENSOR_HOSTS = 10
    HORIZON = 30.0
    DRAIN = 4.0

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.runner = None
        self.pollers: list = []
        self.result = None

    def scenario(self) -> Scenario:
        return Scenario(name=self.name, seed=self.seed,
                        plan=FaultPlan(seed=self.seed),
                        n_sensor_hosts=self.N_SENSOR_HOSTS,
                        sensor_period=SENSOR_PERIOD,
                        horizon=self.HORIZON, drain=self.DRAIN)

    def setup(self) -> None:
        self.runner = AgeRecordingRunner(self.scenario()).build()
        world, deployment = self.runner.world, self.runner.deployment
        _spread_periods(deployment.managers, self.rng)
        self.extend_world(world)
        _spread_latencies(world, self.rng)
        consumer = world.hosts["consumer.siteB"]
        self.pollers = [Poller(world, deployment, consumer, f"poller{i}",
                               self.HORIZON) for i in range(N_POLLERS)]

    def extend_world(self, world) -> None:
        """Hook for workloads that add hosts to the standard world."""

    def execute(self, make_run) -> None:
        self.runner.world.run = make_run(self.runner.world.sim)
        self.result = self.runner.run()

    def outcome(self) -> Outcome:
        runner, result = self.runner, self.result
        searches = [r for p in self.pollers for r in p.records]
        missing = result.committed - result.received_set
        sessions = [runner.session, runner.commit_session]
        return Outcome(
            committed=len(result.committed),
            deliveries=sum(s.received for s in sessions),
            sim_s=runner.world.sim.now,
            ages_ms=runner.ages_ms,
            searches=searches,
            attempted=len(result.committed) + len(searches),
            failed=len(missing) + sum(1 for _, ok in searches if not ok),
            digest=_digest([result.digest(), runner.ages_ms, searches]),
            violations=list(result.violations),
            world=runner.world, deployment=runner.deployment,
            sessions=sessions, archives=[runner.archive],
            policies=_policies(runner.deployment, sessions, self.pollers))


class Storm(Steady):
    """The steady world under a seeded fault plan: a WAN congestion
    storm both ways, a flaky master directory, and a gateway crash and
    restart inside the storm window."""

    name = "storm"
    default_seed = 7
    STORM_START = 8.0
    STORM_END = 12.0
    STORM_BPS = 800e6          # above the OC-12's 622 Mb/s
    CRASH_AT = 9.0
    RESTART_AT = 11.0

    def scenario(self) -> Scenario:
        sc = super().scenario()
        sc.resilience = True
        seed = self.seed
        sc.plan = (FaultPlan(seed=seed)
                   .congestion_storm(self.STORM_START, "blast.siteA",
                                     "sink.siteB", rate_bps=self.STORM_BPS,
                                     seed=seed)
                   .congestion_storm(self.STORM_START, "sink.siteB",
                                     "blast.siteA", rate_bps=self.STORM_BPS,
                                     seed=seed + 1)
                   .flaky_rpc(self.STORM_START, "dir.siteA", rate=0.5,
                              latency_s=0.05, seed=seed)
                   .crash_host(self.CRASH_AT, "gw.siteA")
                   .restart_host(self.RESTART_AT, "gw.siteA")
                   .calm_traffic(self.STORM_END)
                   .steady_rpc(self.STORM_END, "dir.siteA"))
        return sc

    def extend_world(self, world) -> None:
        # cross traffic comes from hosts outside JAMM, so the storm
        # loads the shared WAN, not a sensor host's own LAN link
        clock = {"clock_offset": BASE_CLOCK_OFFSET}
        world.lan([world.add_host("blast.siteA", **clock)],
                  switch="siteA-sw")
        world.lan([world.add_host("sink.siteB", **clock)],
                  switch="siteB-sw")


# ---------------------------------------------------------------------------
# fanout: few sensors, many remote sessions, built on the public API
# ---------------------------------------------------------------------------


class Recorder:
    """A session callback: records (stream, seq) and the event's age."""

    def __init__(self, host):
        self.host = host
        self.received: list = []
        self.ages_ms: list = []

    def __call__(self, event) -> None:
        self.received.append((event.prog, event.get_int("SEQ")))
        self.ages_ms.append((self.host.timestamp() - event.date) * 1e3)


class Fanout:
    """2 sensor hosts at 50 ms, 24 sessions at site B (one host each),
    wire formats in thirds, every eighth session behind a Threshold
    filter.  No commit log."""

    name = "fanout"
    default_seed = 2000
    N_SENSOR_HOSTS = 2
    N_SESSIONS = 24
    FORMATS = ("ulm", "xml", "binary")
    HORIZON = 30.0
    FLUSH = 2.0

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.limits = {i: self.rng.randint(3, 6)
                       for i in range(self.N_SESSIONS) if i % 8 == 7}
        self.world = None

    def setup(self) -> None:
        world = GridWorld(seed=self.seed, sanitize=True)
        self.world = world
        clock = {"clock_offset": BASE_CLOCK_OFFSET}
        sensor_hosts = [world.add_host(f"s{i}.siteA", **clock)
                        for i in range(self.N_SENSOR_HOSTS)]
        gw_host = world.add_host("gw.siteA", **clock)
        dir_a = world.add_host("dir.siteA", **clock)
        consumer_hosts = [world.add_host(f"c{i}.siteB", **clock)
                          for i in range(self.N_SESSIONS)]
        dir_b = world.add_host("dir.siteB", **clock)
        world.lan(sensor_hosts + [gw_host, dir_a], switch="siteA-sw")
        world.lan(consumer_hosts + [dir_b], switch="siteB-sw")
        world.wan_path("siteA-sw", "siteB-sw", routers=["wan-r1"],
                       latency_s=10e-3)
        _spread_latencies(world, self.rng)
        deployment = JAMMDeployment(world, directory_hosts=(dir_a, dir_b),
                                    n_directory_replicas=1)
        self.deployment = deployment
        gateway = deployment.add_gateway("gw0", host=gw_host)
        config = JAMMConfig()
        config.add_sensor("seq", "seq", period=SENSOR_PERIOD)
        for host in sensor_hosts:
            deployment.add_manager(host, config=config, gateway=gateway)
        _spread_periods(deployment.managers, self.rng)
        self.sessions, self.recorders = [], []
        for i, host in enumerate(consumer_hosts):
            client = deployment.client(host=host)
            session = client.session(name=f"fanout{i}")
            flt = (Threshold("VALUE", ">", self.limits[i])
                   if i in self.limits else None)
            recorder = Recorder(host)
            session.subscribe_all(client.sensors(type="seq"),
                                  fmt=self.FORMATS[i % len(self.FORMATS)],
                                  event_filter=flt, on_event=recorder)
            self.sessions.append(session)
            self.recorders.append(recorder)
        self.pollers = [Poller(world, deployment, consumer_hosts[i],
                               f"poller{i}", self.HORIZON)
                        for i in range(N_POLLERS)]

    def _sensors(self) -> list:
        managers = self.deployment.managers
        return [managers[n].sensors[s] for n in sorted(managers)
                for s in sorted(managers[n].sensors)]

    def execute(self, make_run) -> None:
        run = make_run(self.world.sim)
        run(self.HORIZON)
        for sensor in self._sensors():
            sensor.stop()
        run(self.HORIZON + self.FLUSH)
        self.world.sanitize_check()

    def expected(self, index: int, streams: dict) -> list:
        """The (stream, seq) pairs session ``index`` must receive: every
        emitted sample its filter admits, in per-stream order."""
        limit = self.limits.get(index)
        out = []
        for prog in sorted(streams):
            flt = Threshold("VALUE", ">", limit) if limit is not None \
                else None
            for seq in range(1, streams[prog] + 1):
                sample = SimpleNamespace(fields={"VALUE": str(seq % 10)})
                if flt is None or flt.accept(sample):
                    out.append((prog, seq))
        return out

    def outcome(self) -> Outcome:
        streams = {s.name: s.seq for s in self._sensors()}
        violations, attempted, failed = [], 0, 0
        for i, recorder in enumerate(self.recorders):
            want = self.expected(i, streams)
            got = sorted(recorder.received)
            attempted += len(want)
            failed += len(set(want) - set(got))
            if got != sorted(want):
                violations.append(
                    f"session {i}: received {len(got)} events, its filter "
                    f"admits {len(want)} ({len(set(want) - set(got))} "
                    f"missing, {len(got) - len(set(got) & set(want))} "
                    "unexpected or repeated)")
        searches = [r for p in self.pollers for r in p.records]
        gw = self.deployment.gateways["gw0"].stats()
        ages = [a for r in self.recorders for a in r.ages_ms]
        return Outcome(
            committed=gw["events_in"],
            deliveries=sum(s.received for s in self.sessions),
            sim_s=self.world.sim.now,
            ages_ms=ages,
            searches=searches,
            attempted=attempted + len(searches),
            failed=failed + sum(1 for _, ok in searches if not ok),
            digest=_digest([[r.received for r in self.recorders], ages,
                            searches, gw["events_in"]]),
            violations=violations,
            world=self.world, deployment=self.deployment,
            sessions=self.sessions, archives=[],
            policies=_policies(self.deployment, self.sessions,
                               self.pollers))


WORKLOADS = {cls.name: cls for cls in (Steady, Fanout, Storm)}
