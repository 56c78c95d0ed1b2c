"""Pinned shard goldens: per-cell fingerprints and per-cell counters.

``test_determinism.py`` pins the merged churn digest at seed 0; this
file pins each cell's own ``StreamingFingerprint`` and every
``CellReport`` counter except ``events`` (which counts the instants
the cell loop visits — a cost figure, not behaviour) for ``churn`` at
seeds 0, 1 and 7 and the 1/512-scale ``megaflow``, each at 1 and 2
workers.  A change to event order, timing or counts inside any one
cell fails here with the cell named.

The values were recorded on the loop that ticked every host and driver
at every instant; the event-gated cell loop reproduces them bit for
bit.
"""

from typing import Dict, List, Tuple

import pytest

from repro.shard import get_shard_scenario, run_shard

#: CellReport counter order of the tuples below.
COUNTERS = (
    "packets_sent", "packets_received", "retransmits", "timeouts",
    "ecn_echoes", "forwarded", "dropped", "ecn_marked", "conns_opened",
    "conns_established", "txns_completed", "conns_closed", "accepted",
    "responded",
)

#: Churn's per-cell counters: the same for every seed (the seed only
#: jitters connect instants inside their slots).
_CHURN_COUNTERS = [
    (1120, 992, 0, 0, 0, 992, 0, 0, 160, 160, 160, 160, 32, 32),
    (928, 832, 0, 0, 0, 832, 0, 0, 128, 128, 128, 128, 32, 32),
    (640, 768, 0, 0, 0, 768, 0, 0, 0, 0, 0, 0, 128, 128),
    (832, 928, 0, 0, 0, 928, 0, 0, 32, 32, 32, 32, 128, 128),
]
_MEGAFLOW_CLIENT = (1152, 640, 0, 0, 0, 640, 0, 0, 512, 512, 64, 0, 0, 0)
_MEGAFLOW_SERVER = (640, 1152, 0, 0, 0, 1152, 0, 0, 0, 0, 0, 0, 512, 64)

#: case -> (scenario, seed, dry-run scale, epochs, per-cell digests,
#: per-cell counters).
GOLDENS: Dict[str, Tuple[str, int, int, int, List[str], List[tuple]]] = {
    "churn-0": ("churn", 0, 1, 67, [
        "d7782da078d454c72343895b3565350e7f53abe5595bbc066e9f925e75f18b28",
        "7928b3ca9f2973acbe8dc0693d9d5b6be67b6e6d597e78dc1e224f8406b8adb2",
        "22753d72403997fc1b001f0ff532f968b4882f0950d62372c838d8d3d1e917f9",
        "8fb303bf282ddda28b58f2a0fb9b6e437027e31c296b4b01f98fc6527bc4dbed",
    ], _CHURN_COUNTERS),
    "churn-1": ("churn", 1, 1, 67, [
        "ede5250ebf80258f028c9a532081d4546ed38c58d7ff342588194f0a398e9299",
        "020afa260af80c8d04ea3c61180f5833236022fe258ec68de1846f9f0ed7eb13",
        "3d7570623caa471ba9e6d3e7c22737ebfda3accd6df8b71e36cb7e2bee4148ea",
        "0f87abb311a8a3c2a61a6cd000e50c483c8cc5db80427e41aff7c711fe786050",
    ], _CHURN_COUNTERS),
    "churn-7": ("churn", 7, 1, 67, [
        "cab0665014a69331bef964c728fd1dae67ee62c87db156efaa4d301f09096e88",
        "d7890d892a2888854c90bb78d41f350fa83f62ea8fc9af48c7df4986f96a4d11",
        "814e1d2c8e9874d9a00fde7f073fc4bf8bffd713a4029e46a0c81543fb029278",
        "2df4fd382de77931640d57cba08c06253ef4e8c260e3e5abb3498892cd3ad6f0",
    ], _CHURN_COUNTERS),
    "megaflow-dry512": ("megaflow", 0, 512, 1007, [
        "5a06b3a8f9b49058f8e35f5201c6b362782c9317b8a13fdf8ebc83bee1cda5c6",
        "4b82e755d3f01f70e0d643a1205d97a4bf2033230d7653efc533f783faf2af13",
        "16f3f80884bf3a8e4ecb378e48dadbd58dcf09557d0a21ce691e57bb0ebe533c",
        "d8761ab5095643581337c1cf6650576c9b5fea673baaac3ca72c4a9e3d08af1a",
        "2d6cc38100b4e6e8a08271bdfaf9e90f2cbabeda1103d1b52e07e652ff88bb35",
        "a1a77fcce756090443204f469b292ed5b4741aa1eff6b896edf343ba0fb41b10",
        "276030266fcfcd5382deae665e4413f53ca1cc431c8bb02b3a767bcebb64b64c",
        "e25b86b4e4b9377293941ffbcf8e36222bd988f0e42509608fe4ffcbafdde69b",
    ], [_MEGAFLOW_CLIENT] * 4 + [_MEGAFLOW_SERVER] * 4),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(GOLDENS))
def test_per_cell_goldens(case, workers):
    name, seed, scale, epochs, digests, counters = GOLDENS[case]
    scenario = get_shard_scenario(name, seed=seed).scaled(scale)
    result = run_shard(scenario, workers=workers, fingerprint=True)
    assert result.finished
    assert result.epochs == epochs
    assert [c.fingerprint for c in result.cells] == digests
    assert [
        tuple(c.counters[key] for key in COUNTERS) for c in result.cells
    ] == counters
    assert set(result.cells[0].counters) == set(COUNTERS) | {"events"}
