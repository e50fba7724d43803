"""Fluid background traffic cross-validated against the per-packet oracle.

One small world, run twice: once with the fluid sources of
``repro.simgrid.traffic`` and once with the per-packet oracle
(``packet_traffic.PacketTrafficGenerator``) on the same specs.  Both
runs carry the same probe stream of small monitoring datagrams and the
same TCP flow, and the test compares what the monitoring path and the
flow see.

Topology: site A -- r1 -- site B over two 622 Mb/s WAN hops, plus a
host at site C attached straight to r1.  An 800 Mb/s constant storm
runs A -> B across both hops; a 550 Mb/s on/off storm joins at r1
(C -> B), so the second hop carries what the first admits plus a
fresh burst.  Storms blow from 0.5 s to 3.0 s; the run ends at 3.6 s.
"""

from __future__ import annotations

import statistics

import pytest

from packet_traffic import PacketTrafficGenerator
from repro.simgrid import GridWorld
from repro.simgrid.traffic import TRAFFIC_PORT, TrafficGenerator, TrafficSpec

STORM_START, STORM_END, RUN_END = 0.5, 3.0, 3.6
PROBE_PORT, TCP_PORT = 7000, 7100
#: sampling grid for backlog and SNMP reads (offset from the probes)
SAMPLE_EVERY = 0.05

SPECS = (
    dict(src="a.siteA", dst="b.siteB", rate_bps=800e6,
         start=STORM_START, duration=STORM_END - STORM_START, seed=1),
    dict(src="c.siteC", dst="b.siteB", rate_bps=550e6, kind="onoff",
         on_s=0.4, off_s=0.4, start=STORM_START,
         duration=STORM_END - STORM_START, seed=2),
)


def _world():
    world = GridWorld(seed=21)
    site_a = [world.add_host(n) for n in ("a.siteA", "probe.siteA",
                                          "tcp.siteA")]
    site_b = [world.add_host(n) for n in ("b.siteB", "probe.siteB",
                                          "tcp.siteB")]
    c = world.add_host("c.siteC")
    world.lan(site_a, switch="swA")
    world.lan(site_b, switch="swB")
    hop1, hop2 = world.wan_path("swA", "swB", routers=["r1"],
                                latency_s=5e-3)
    world.network.link(c.node, "r1", bandwidth_bps=1000e6,
                       latency_s=0.1e-3)
    return world, hop1, hop2


def _measure(generator_cls) -> dict:
    world, hop1, hop2 = _world()
    hosts = world.hosts
    r1, sw_b = world.network.get("r1"), world.network.get("swB")
    generators = [generator_cls(world, TrafficSpec(**spec)).start()
                  for spec in SPECS]

    probes: dict = {}

    def on_probe(msg, _tr):
        probes[msg.payload] = msg.delivered_at - msg.sent_at

    hosts["probe.siteB"].ports.bind(PROBE_PORT, on_probe)
    sent: dict = {}

    def probe(seq):
        sent[seq] = world.now
        world.transport.send(hosts["probe.siteA"], hosts["probe.siteB"],
                             PROBE_PORT, seq, size_bytes=200,
                             on_fail=lambda exc: None)
    for seq in range(int((RUN_END - 0.1) / 0.01)):
        world.sim.call_at(0.003 + seq * 0.01, probe, seq)

    samples: list = []

    def sample():
        now = world.now
        samples.append((
            now,
            hop1.queue_backlog_s(r1, now),
            hop2.queue_backlog_s(sw_b, now),
            world.snmp.interface_walk("swA", hop1.name),
            world.snmp.interface_walk("r1", hop2.name)))
    for i in range(1, int(RUN_END / SAMPLE_EVERY)):
        world.sim.call_at(i * SAMPLE_EVERY, sample)

    flow = world.tcp_flow("tcp.siteA", "tcp.siteB", dst_port=TCP_PORT,
                          rwnd_bytes=2 << 20)
    flow.run_for(RUN_END)
    world.run(until=RUN_END)

    base = min(probes.values())
    delays = {seq: probes[seq] - base for seq in probes}
    storm = [delays[seq] for seq, t in sent.items()
             if STORM_START + 0.5 <= t < STORM_END and seq in delays]
    lost = len(sent) - len(probes)
    if generator_cls is PacketTrafficGenerator:
        dropped = ((world.transport.messages_lost_congestion - lost)
                   * TrafficSpec(**SPECS[0]).packet_bytes)
    else:
        dropped = sum(sum(link.queue_stats()["fluid_dropped_bytes"])
                      for link in world.network.links())
    return {
        "samples": samples,
        "probe_delay": [delays.get(seq) for seq in sorted(sent)],
        "storm_delay_mean": statistics.fmean(storm) if storm else 0.0,
        "probe_lost": lost,
        "background_loss": dropped / sum(g.bytes_sent for g in generators),
        "tcp_bps": flow.stats.throughput_bps(STORM_START, STORM_END),
        "sink_bytes": hosts["b.siteB"].ports.activity(TRAFFIC_PORT).bytes_in,
        # the receiving interface of each WAN hop (octets, discards)
        "rx": [r1.interface(hop1).as_dict(), sw_b.interface(hop2).as_dict()],
    }


# -- tolerances (fluid vs packet) --------------------------------------------
#: per-hop backlog at every sample, seconds: a saturated drop-tail queue
#: wobbles by one 8 KB packet (0.1 ms at 622 Mb/s); allow ten
BACKLOG_TOL_S = 1e-3
#: each probe's queuing delay, seconds (a probe sent as a storm starts or
#: stops can meet one packet more or less on each hop)
PROBE_DELAY_TOL_S = 5e-3
#: mean probe queuing delay inside the storm, relative
PROBE_MEAN_REL = 0.01
#: share of background bytes lost to overflow, absolute
LOSS_FRAC_TOL = 0.01
#: SNMP ifOutUtilization at every sample, absolute
UTIL_TOL = 0.01
#: SNMP ifOutQDrops, relative (plus two datagrams at the edges)
DROPS_REL = 0.01
#: TCP goodput over the storm window and bytes credited to the sink,
#: relative
TCP_REL = 0.05
SINK_REL = 0.01
#: receiving interfaces' octets, packets and discards, relative
COUNTER_REL = 0.01


@pytest.fixture(scope="module")
def runs():
    return _measure(TrafficGenerator), _measure(PacketTrafficGenerator)


def _pairs(runs):
    fluid, packet = runs
    assert len(fluid["samples"]) == len(packet["samples"])
    return zip(fluid["samples"], packet["samples"])


def test_per_hop_backlog_tracks_the_oracle(runs):
    peak = 0.0
    for f, p in _pairs(runs):
        for hop in (1, 2):
            assert f[hop] == pytest.approx(p[hop], abs=BACKLOG_TOL_S), \
                f"hop {hop} at t={f[0]:.2f}"
            peak = max(peak, p[hop])
    assert peak > 0.24      # both hops really filled to ~0.25 s


def test_probe_delay_and_loss_match(runs):
    fluid, packet = runs
    assert fluid["probe_lost"] == packet["probe_lost"] == 0
    for i, (f, p) in enumerate(zip(fluid["probe_delay"],
                                   packet["probe_delay"])):
        assert f == pytest.approx(p, abs=PROBE_DELAY_TOL_S), f"probe {i}"
    # a probe crossing both full hops waits ~0.5 s
    assert packet["storm_delay_mean"] > 0.45
    assert fluid["storm_delay_mean"] == pytest.approx(
        packet["storm_delay_mean"], rel=PROBE_MEAN_REL)


def test_background_loss_fraction_matches(runs):
    fluid, packet = runs
    assert packet["background_loss"] > 0.2
    assert fluid["background_loss"] == pytest.approx(
        packet["background_loss"], abs=LOSS_FRAC_TOL)
    assert fluid["sink_bytes"] == pytest.approx(packet["sink_bytes"],
                                                rel=SINK_REL)


def test_snmp_interface_observables_match(runs):
    for f, p in _pairs(runs):
        for hop in (3, 4):
            fm, pm = f[hop], p[hop]
            assert fm["ifOutUtilization"] == pytest.approx(
                pm["ifOutUtilization"], abs=UTIL_TOL), f"t={f[0]:.2f}"
            assert fm["ifOutQBacklogS"] == pytest.approx(
                pm["ifOutQBacklogS"], abs=BACKLOG_TOL_S)
            assert fm["ifOutQDrops"] == pytest.approx(
                pm["ifOutQDrops"], rel=DROPS_REL, abs=2)


def test_receiver_interface_counters_match(runs):
    fluid, packet = runs
    for f, p in zip(fluid["rx"], packet["rx"]):
        for oid in ("ifInOctets", "ifInUcastPkts", "ifInDiscards"):
            assert p[oid] > 0
            assert f[oid] == pytest.approx(p[oid], rel=COUNTER_REL), oid


def test_tcp_goodput_matches(runs):
    fluid, packet = runs
    assert packet["tcp_bps"] > 0
    assert fluid["tcp_bps"] == pytest.approx(packet["tcp_bps"], rel=TCP_REL)
