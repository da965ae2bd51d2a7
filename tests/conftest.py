"""Shared helpers: scenario factories, one simulated probe and bundled fixture paths."""
from __future__ import annotations

import copy
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "data" / "fixtures"

# A three-hop bent-pipe path: two terrestrial routers, then the customer
# across the satellite segment.  Segment one-way latencies in ms.
BASE_SCENARIO = {
    "schema": "leolink-scenario/1",
    "seed": 7,
    "duration_s": 300,
    "hops": [
        {"label": "isp-edge", "address": "10.0.0.1", "ttl_expired": True, "echo": False},
        {"label": "pop-edge", "address": "10.0.0.2", "ttl_expired": True, "echo": False},
        {"label": "customer", "address": "100.64.9.1", "ttl_expired": True, "echo": True},
    ],
    "base_latencies_ms": [2.0, 3.0, 12.5],
    "satellite_segment": [2, 3],
    "jitter": {"dist": "none", "sigma_ms": 0.0, "satellite_sigma_ms": 0.0},
    "events": [],
}


def respond_to_probe(scenario, target: str, ttl: int, t_ms: int, *, protocol: str = "icmp"):
    """Answer one probe at virtual time t, or None for silence: the reply
    of a fresh simnet transport on ``protocol``."""
    from leolink.simnet import SimnetTransport, VirtualClock
    transport = SimnetTransport(scenario, protocol=protocol)
    transport.clock = VirtualClock(t_ms)
    return transport.probe(target, ttl)


def scenario_dict(**overrides) -> dict:
    """Deep copy of the base scenario with top-level overrides applied."""
    obj = copy.deepcopy(BASE_SCENARIO)
    obj.update(overrides)
    return obj


@pytest.fixture
def quiet_scenario():
    from leolink.simnet import build_scenario
    return build_scenario(scenario_dict())


@pytest.fixture
def quiet_transport(quiet_scenario):
    from leolink.simnet import SimnetTransport
    return SimnetTransport(quiet_scenario)
