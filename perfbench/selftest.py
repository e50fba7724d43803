"""The benchmark's self-test: every workload, on its default seed and
on a second one, untraced and traced.

Checks that every run passes the correctness gate and the wrapper
fidelity check, that the deterministic metrics repeat between two runs
of one seed, and that the traced runs confirm what each workload was
built to show:

* ``storm``: links plus background transport take more self time than
  any other layer; the search p95 has at least ten samples beyond it;
* ``steady``: links plus background transport are a small share;
* ``fanout``: the archive does nothing, and each ingest fans out to at
  least 20 deliveries.

Run it with ``python3 perfbench/run.py --self-test``.
"""

from __future__ import annotations

#: a seed none of the workloads was tuned on
SECOND_SEED = 11
DETERMINISTIC = ("event_age_p50_ms", "event_age_p99_ms", "search_p50_ms",
                 "search_p95_ms", "success_frac")


def _storm_share(keys: dict, layer_self: dict) -> tuple:
    """(links + background transport self time, the largest other
    layer's self time, the share of all self time)."""
    background = keys.get("transport.send.background", {}).get("self_s", 0.0)
    storm = layer_self["links"] + background
    others = dict(layer_self, links=0.0)
    others["transport"] -= background
    return storm, max(others.values()), storm / sum(layer_self.values())


def self_test(measure) -> int:
    from tracing import LAYERS
    from workloads import WORKLOADS
    problems = []
    for name in sorted(WORKLOADS):
        for seed in (WORKLOADS[name].default_seed, SECOND_SEED):
            tag = f"{name} seed {seed}"
            plain = [measure(name, seed, 0.0, False) for _ in range(2)]
            traced = measure(name, seed, 0.0, True)
            for result in plain + [traced]:
                problems += [f"{tag}: {p}" for p in result["problems"]]
            for metric in DETERMINISTIC:
                a, b = (r["metrics"][metric]["value"] for r in plain)
                if a != b:
                    problems.append(f"{tag}: {metric} differs between "
                                    f"runs ({a} vs {b})")
            m = {k: v["value"] for k, v in traced["metrics"].items()}
            layer_self = {layer: m[f"{layer}.self_s"] for layer in LAYERS}
            storm, other, share = _storm_share(traced["detail"]["keys"],
                                               layer_self)
            beyond = plain[0]["detail"]["beyond_p95"]
            print(f"# {tag}: links+background self {storm:.3f} s "
                  f"({share:.0%} of self time, largest other layer "
                  f"{other:.3f} s), {beyond} searches beyond p95, "
                  f"deliveries/ingest {m['gateway.deliveries_per_ingest']:.1f}"
                  f", archive appends {m['archive.appends']}")
            if name == "storm" and (storm <= other or beyond < 10):
                problems.append(f"{tag}: storm traffic is not the largest "
                                f"layer, or p95 has {beyond} < 10 beyond")
            if name == "steady" and share >= 0.25:
                problems.append(f"{tag}: links+background share {share:.0%}")
            if name == "fanout" and (m["archive.appends"] != 0 or
                                     m["gateway.deliveries_per_ingest"] < 20):
                problems.append(f"{tag}: archive appends or fan-out off")
    for problem in problems:
        print(f"# FAILED CHECK: {problem}")
    print("# self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0
