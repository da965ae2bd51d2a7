"""Shared helpers: scenario factories, one simulated probe, bundled fixture paths
and the spikes of a report table."""
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
    from leolink.simnet import SimnetTransport
    transport = SimnetTransport(scenario, protocol=protocol)
    transport._now_ms = float(t_ms)  # set directly: t_ms may be before the clock's start
    return transport.probe(target, ttl)


def scenario_dict(**overrides) -> dict:
    """Deep copy of the base scenario with top-level overrides applied."""
    obj = copy.deepcopy(BASE_SCENARIO)
    obj.update(overrides)
    return obj


def spikes_by_address(report_csv: Path) -> dict:
    """Each address's spikes in a report table of ``spikes.csv``'s columns."""
    from leolink.analysis import SpikeEvent
    from leolink.store import read_report_csv
    spikes: dict = {}
    for _, address, start, end, kind, peak, base in read_report_csv(report_csv)[2]:
        spikes.setdefault(address, []).append(
            SpikeEvent(int(start), int(end), kind, float(peak), float(base)))
    return spikes


@pytest.fixture
def quiet_scenario():
    from leolink.simnet import build_scenario
    return build_scenario(scenario_dict())


@pytest.fixture
def quiet_transport(quiet_scenario):
    from leolink.simnet import SimnetTransport
    return SimnetTransport(quiet_scenario)
