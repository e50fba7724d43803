"""Pinned digests of faulted scenarios.

The determinism audit runs the same code twice, so it cannot notice a
fault path that changed behaviour.  These digests were recorded from
random 200-step plans (every fault kind in the draw, with and without
congestion storms and flaky RPC endpoints) and must stay exactly
equal: a refactor of the fault layer that moves an RNG call, reorders
a heal step or drops an undo changes them.  Re-pin only for a change
that is meant to alter fault behaviour, and say so.
"""

from __future__ import annotations

import pytest

from repro.scenarios import Scenario, run_scenario

#: (seed, storms, flaky) -> ScenarioResult.digest()
PINNED = {
    (0, False, False):
        "3f682df013fcdc3c37494bdde732682742efe7b3b0c04872de8a9524724d3a27",
    (0, False, True):
        "9443811efe3ba186987dc880611974e5946e2945beb0387c558654579c2b36d5",
    (0, True, False):
        "7f92a42727e5cc75aa714b37218ab3a677989f5fd7e1c4e29711c64474feb281",
    (0, True, True):
        "0dac556ed575a603bb36e1520a505098a8febbad683f0e9bd943aecb173e791b",
    (1, False, False):
        "d06141be9ed8a46f4b49a289912cbaa0b68115382f1c378960dbddf42b2720f4",
    (1, False, True):
        "d8aa44598de8415f6fed32e412dc095dd830e4584aef7476f10d96cf73302236",
    (1, True, False):
        "1e460f4b62feaa2425d594acc048c1a82434370ec54aefa08abd7232d540261f",
    (1, True, True):
        "b8a6da25e38fa4c96fb73e631a91d4bc0e9e5e9bf6c11d01b75632699a43d3b6",
    (2, False, False):
        "11395089e75cfdfa982290dc70249fe71179f21427d1d5b011ab263e6e42ba42",
    (2, False, True):
        "3090d1edc6ccd966d24db892ff8daa78e90905269b0515da0451fd01925d5f95",
    (2, True, False):
        "3f4d7634718e6cc72ea9d2c62430484ef502ee5484518348b387f51ccb307168",
    (2, True, True):
        "698e8007a070a6815a1612016585148827a83741c11e151f3620f37bbe85855d",
}


@pytest.mark.parametrize("seed,storms,flaky", sorted(PINNED))
def test_random_plan_digest_is_pinned(seed, storms, flaky):
    result = run_scenario(Scenario(name="pin", seed=seed, random_steps=200,
                                   storms=storms, flaky=flaky))
    assert result.digest() == PINNED[(seed, storms, flaky)], \
        result.plan.describe()
