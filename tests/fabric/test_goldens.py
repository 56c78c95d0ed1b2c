"""Pinned fabric goldens: trace fingerprints and result scalars.

Every registered scenario on every backend at 4 hosts, the two heaviest
scenarios at 8 hosts, and the switch variants that exercise DRR and
buffer drops.  Each case pins the ``StreamingFingerprint`` of the
fabric-layer trace plus a digest of ``FabricResult.scalars()``, so any
change to event order, timing or counts in the switch, the soft stacks
or the fabric driver fails here — not just a change that makes two
same-seed runs disagree with each other.

The digests were recorded before the fabric driver became
event-driven; the driver rewrite had to reproduce them bit for bit.
"""

import hashlib
from dataclasses import replace
from typing import Dict, Tuple

import pytest

from repro.fabric import get_fabric_scenario, run_fabric
from repro.fabric.backend import available_backends
from repro.fabric.scenarios import available_fabric_scenarios
from repro.obs.trace import StreamingFingerprint

#: case id -> (scenario, backend, hosts, seed, switch overrides)
CASES: Dict[str, Tuple[str, str, int, int, Tuple[Tuple[str, object], ...]]] = {
    f"{name}-{backend}-4": (name, backend, 4, 3, ())
    for name in ("flash_crowd", "incast", "outcast", "zipf_fanout")
    for backend in ("f4t", "flextoe", "pno", "linux_stack")
}
CASES.update({
    "incast-f4t-8": ("incast", "f4t", 8, 3, ()),
    "zipf_fanout-f4t-8": ("zipf_fanout", "f4t", 8, 3, ()),
    "incast-flextoe-4-drr": (
        "incast", "flextoe", 4, 3, (("queueing", "drr"),)
    ),
    "incast-flextoe-4-static64k": (
        "incast", "flextoe", 4, 3,
        (("partition", "static"), ("buffer_bytes", 64 * 1024)),
    ),
    "incast-flextoe-4-shared128k": (
        "incast", "flextoe", 4, 3,
        (("partition", "shared"), ("buffer_bytes", 128 * 1024)),
    ),
})


def scalars_digest(scalars: Dict[str, float]) -> str:
    """Exact digest of a scalars dict (float reprs round-trip)."""
    return hashlib.sha256(
        repr(sorted(scalars.items())).encode()
    ).hexdigest()[:16]


def run_case(name, backend, hosts, seed, overrides) -> Tuple[str, str]:
    scenario = get_fabric_scenario(name, num_hosts=hosts, seed=seed)
    if overrides:
        scenario = replace(
            scenario, switch=replace(scenario.switch, **dict(overrides))
        )
    sink = StreamingFingerprint(layers=["fabric"])
    result = run_fabric(scenario, backend=backend, trace=sink)
    return sink.hexdigest(), scalars_digest(result.scalars())


GOLDENS: Dict[str, Tuple[str, str]] = {
    "flash_crowd-f4t-4": (
        "6fbf73108885eff11bd6d65ba66b858c37b3c9259fb4f44e6d5c2e8ae751e588",
        "7fc152aef7757e9c",
    ),
    "flash_crowd-flextoe-4": (
        "0058d49710f55351697ac4cbe7422d5638a147f920c35a65360752953f378b56",
        "e2d0f106a5a072dd",
    ),
    "flash_crowd-pno-4": (
        "50ec4af66c6d3110f931c6bc5b242a01083dcb9a9dd845f9adf92e151d70b057",
        "efc6d13427323474",
    ),
    "flash_crowd-linux_stack-4": (
        "b3db40741e2a656c6ff0f95790fce74468a24f541b3cc3a37525d1e23654bc38",
        "6c0c204c2f239904",
    ),
    "incast-f4t-4": (
        "d43f67c831c7da21088c45e18d89441779f136acf947a432ce5e8561a419c08e",
        "641c23a71a0fe904",
    ),
    "incast-flextoe-4": (
        "2461e6062d81362498714df5187653f30c25d41516c921aadf41abc6916ecda9",
        "c41f5f60a702811a",
    ),
    "incast-pno-4": (
        "b19370d4f486ef4fb0f6491a2b48612e6ab416911e0fa83a1bb57a47b0b056bc",
        "86614b6da9989277",
    ),
    "incast-linux_stack-4": (
        "8e2d6792abc6f4ee7518c70f04a6820e74b609b32f8d4cafe2083b71325e1f48",
        "bfaaef99c9128c43",
    ),
    "outcast-f4t-4": (
        "027d6188e716ef23e8ea19c8b8d0852a7c4a7667579ac7dcf5d023d7ad72f5a5",
        "3be956abbc37646a",
    ),
    "outcast-flextoe-4": (
        "9884b28109cd0caa0187a30772ce572d2932db32dc9b18cec1d942b1cc84a437",
        "bac086438990a4ee",
    ),
    "outcast-pno-4": (
        "12ea8f84183ad8357898b61fc3a47632a0eddc2d9e33c61b6790bbbd4fcaf9d1",
        "24c0fa79fdb00c19",
    ),
    "outcast-linux_stack-4": (
        "c9c94074e53387115f00ff460c0a3cce233b83bbf22642f35ddf545718fe1e9e",
        "788a5a7640ae4ea1",
    ),
    "zipf_fanout-f4t-4": (
        "01b4a9ac9ec01c1b38c8a64a9f2a23e033baddfb7a2ec0973a409aa74b7d08a8",
        "8d32b72671747ae0",
    ),
    "zipf_fanout-flextoe-4": (
        "517574723e0273449cf68f1764bdac4eff3ba239d02dfae531a6f775468d9c38",
        "2ddfc9b69f78f042",
    ),
    "zipf_fanout-pno-4": (
        "3a80b151df952ce18ebf8c9b55fe95b20bc34bd3e56b527a5c333d39f58fdb08",
        "9b3ce65d9b9a1c54",
    ),
    "zipf_fanout-linux_stack-4": (
        "bfc993d7c7e57240b4eae856e01362a45052ebb4f45d9f1aa88006e2fc9d9186",
        "9b5748bb7d6db12d",
    ),
    "incast-f4t-8": (
        "3670edbbbf323eceb336f83249809d03b76420a4848086bda4e2186b389544a3",
        "bf23fa90cf94c3ea",
    ),
    "zipf_fanout-f4t-8": (
        "8851804cffcadbed8f812328a8453c9bee59b941ddcffdce42479bd2d14a4595",
        "665384aac4b9d15b",
    ),
    "incast-flextoe-4-drr": (
        "3754642945fc17cb885e9fa9f97b6545fa8ca40a4ee3a51943311422cb92365a",
        "698b99608cc4b832",
    ),
    "incast-flextoe-4-static64k": (
        "6941201c559b340d0125b47a2b832d94d7640a6a77e731cc7cb16ab8d6333afa",
        "edc189ec609135e1",
    ),
    "incast-flextoe-4-shared128k": (
        "13487acf4c8417cb1f7313f68f1d1a757c4e3a622010d6035aa175f1eec74e78",
        "174bddfd1395314f",
    ),
}


def test_cases_cover_every_scenario_and_backend():
    covered = {(spec[0], spec[1]) for spec in CASES.values() if spec[2] == 4}
    assert covered >= {
        (name, backend)
        for name in available_fabric_scenarios()
        for backend in available_backends()
    }
    assert set(GOLDENS) == set(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_golden(case_id):
    assert run_case(*CASES[case_id]) == GOLDENS[case_id]
