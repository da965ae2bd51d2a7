"""Shared helpers: scenario factories, one simulated probe, bundled fixture paths,
the spikes of a report table and the surface-point geometry oracle."""
from __future__ import annotations

import copy
from pathlib import Path

import numpy as np
import pytest

from leolink.geo import EARTH_RADIUS_KM

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


def latlon_to_ecef(lat, lon, radius_km=EARTH_RADIUS_KM) -> np.ndarray:
    """Cartesian position of a surface point at the given radius.

    Elementwise over arrays of coordinates; the last axis holds x, y, z.
    """
    phi = np.radians(lat)
    lam = np.radians(lon)
    xyz = np.empty(np.broadcast(phi, lam).shape + (3,))
    xyz[..., 0] = radius_km * np.cos(phi) * np.cos(lam)
    xyz[..., 1] = radius_km * np.cos(phi) * np.sin(lam)
    xyz[..., 2] = radius_km * np.sin(phi)
    return xyz


@pytest.fixture
def quiet_scenario():
    from leolink.simnet import build_scenario
    return build_scenario(scenario_dict())


@pytest.fixture
def quiet_transport(quiet_scenario):
    from leolink.simnet import SimnetTransport
    return SimnetTransport(quiet_scenario)
