"""Acceptance gate: the eleven release criteria for this toolkit.

Each test prints one PASS/FAIL line before asserting, so a full run
reads as a checklist.  Criteria marked exact compare integers or reuse
the library's own arithmetic; statistical criteria state their
tolerance inline.  The whole file is budgeted to finish in well under
five minutes.
"""

import csv
import json
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from leolink import analysis, cli
from leolink.constellation import (
    ConstellationConfig,
    DishSite,
    GroundStation,
    NoCoverageError,
    Shell,
    StudyCase,
    best_case_rtt,
    composite_route_rtt,
    direct_path_floor_rtt,
    evaluate_case,
    isl_extra_hop_rtt,
    propagate,
    worst_case_rtt,
)
from leolink.discovery import Endpoint
from leolink.geo import EARTH_RADIUS_KM, LIGHT_SPEED_KM_S
from leolink.probe import identify_sat_link, measure_session, run_traceroute
from leolink.simnet import (
    RerouteEvent,
    SimnetTransport,
    build_scenario,
    load_scenario_dir,
    score_spikes,
)
from leolink.store import MeasurementStore
from tests.conftest import latlon_to_ecef, spikes_by_address

FIXTURES = Path(__file__).resolve().parent.parent / "data" / "fixtures"
SCENARIOS = Path(cli.__file__).parent / "data" / "scenarios"

# measurable endpoints per POP in the bundled full-size scan fixture
COHORT_HISTOGRAM = {
    "sttlwax1": 243, "atlagax1": 210, "dllstxx1": 186, "chcoilx1": 182,
    "lsancax1": 173, "sydyaus1": 148, "nwyynyx1": 144, "frntdeu1": 124,
    "dnvrcox1": 87, "lndngbr1": 56, "mdrdesp1": 20, "sntoch1": 19,
    "acklnzl1": 11, "lgosnga1": 6, "bgtacol1": 5, "limaper1": 3,
    "prthaus1": 3, "qrtomex1": 3, "splobra1": 3, "tkyojpn1": 3,
}


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"acceptance {num:02d} {name:<34} {'PASS' if ok else 'FAIL'}  {detail}")


def scenario(seed, *, events=(), duration_s=1000, jitter=None,
             address="100.64.9.1", sat_base_ms=12.5):
    """A scenario file's object: one target behind two terrestrial hops."""
    return {
        "schema": "leolink-scenario/1",
        "duration_s": duration_s,
        "seed": seed,
        "hops": [
            {"label": "isp-edge", "address": "10.0.0.1",
             "ttl_expired": True, "echo": False},
            {"label": "pop-edge", "address": "10.0.0.2",
             "ttl_expired": True, "echo": False},
            {"label": "customer", "address": address,
             "ttl_expired": True, "echo": True},
        ],
        "base_latencies_ms": [2.0, 3.0, sat_base_ms],
        "satellite_segment": [2, 3],
        "jitter": jitter or {"dist": "gaussian",
                             "sigma_ms": 0.5, "satellite_sigma_ms": 1.5},
        "events": list(events),
    }


def run_pipeline(scen, pop_code="sttlwax1"):
    """Traceroute, satellite-link identification, session, isolation."""
    transport = SimnetTransport(scen)
    target = scen.target_address
    path = identify_sat_link(run_traceroute(transport, target))
    endpoint = Endpoint(address=target, pop_code=pop_code)
    session = measure_session(transport, endpoint, path,
                              duration_s=scen.duration_s)
    isolated, _ = analysis.isolate_satellite_latency(session)
    smoothed = analysis.smooth(isolated)
    return session, isolated, smoothed, analysis.detect_spikes(smoothed)


def simulate(tmp_path, name, scenarios):
    """Run ``leolink simulate`` over scenario objects of one duration: the
    store, and per target its scenario and the spikes ``spikes.csv`` lists."""
    scenario_dir, out = tmp_path / name, tmp_path / f"{name}-store"
    scenario_dir.mkdir()
    for i, obj in enumerate(scenarios):
        (scenario_dir / f"{i:02d}.json").write_text(json.dumps(obj))
    assert cli.main(["simulate", "--scenarios", str(scenario_dir), "--out", str(out),
                     "--duration", str(scenarios[0]["duration_s"]),
                     "--partition", name]) == 0
    spikes = spikes_by_address(out / "reports" / "spikes.csv")
    return MeasurementStore(out), {address: (scen, spikes.get(address, []))
                                   for address, scen in load_scenario_dir(scenario_dir).items()}


@pytest.fixture(scope="module")
def nigeria_summary():
    return evaluate_case(StudyCase.nigeria())


# ---------------------------------------------------------------- criterion 1

def test_a01_sustained_reroute_recall(tmp_path):
    # 20 scenarios, 3 scheduled sustained reroutes each (>= 2 sigma,
    # >= 15 s).  Every event must be recalled as a sustained spike in
    # the spikes.csv that simulate writes.
    kinds = ("isl_reroute", "satellite_switch", "gs_switch")
    scenarios = []
    for k in range(20):
        starts = (150 + 15 * (k % 4), 420 + 15 * (k % 3), 780 + 15 * (k % 5))
        durations = (45, 60, 45 + 15 * (k % 2))
        deltas = (28.0 + (k % 5), 30.0, 32.0 - (k % 3))
        events = [{"at_s": s, "kind": kinds[i % 3],
                   "delta_ms": deltas[i], "duration_s": durations[i]}
                  for i, s in enumerate(starts)]
        scenarios.append(scenario(7000 + k, events=events, address=f"100.64.9.{k + 1}"))
    _, simulated = simulate(tmp_path, "a01", scenarios)
    total = matched = sustained_total = 0
    for scen, spikes in simulated.values():
        sustained_total += sum(e.kind == "sustained" for e in spikes)
        recalled = score_spikes(spikes, scen.events).recalled
        total += len(recalled)
        matched += sum(recalled)
    ok = matched == total == 60
    report(1, "sustained reroute recall", ok,
           f"recall={matched}/{total} sustained={sustained_total}")
    assert ok


# ---------------------------------------------------------------- criterion 2

def test_a02_false_positive_bound(tmp_path):
    # 10 x 1000 s of jitter-only traffic (terrestrial deviation under
    # 1 ms): at most one sustained false positive in the aggregate.
    # With a 10 ms terrestrial-jitter endpoint added, jitter_filter
    # must screen it out, leaving zero false positives on kept traffic.
    # Spikes are simulate's spikes.csv; sessions are read back from its store.
    quiet_jitter = {"dist": "gaussian", "sigma_ms": 0.1,
                    "satellite_sigma_ms": 1.5}
    noisy_jitter = {"dist": "gaussian", "sigma_ms": 10.0,
                    "satellite_sigma_ms": 1.5}
    scenarios = [scenario(9001 + k, jitter=quiet_jitter, address=f"100.64.9.{k + 1}")
                 for k in range(10)]
    noisy = "100.64.9.111"
    scenarios.append(scenario(9011, jitter=noisy_jitter, address=noisy, sat_base_ms=40.0))
    store, simulated = simulate(tmp_path, "a02", scenarios)
    false_positives = {address: score_spikes(spikes, scen.events).false_sustained
                       for address, (scen, spikes) in simulated.items()}
    aggregate_fp = sum(fp for address, fp in false_positives.items() if address != noisy)

    candidates = []
    for record in store.sessions("a02"):
        session = store.read_session(record)
        candidates.append((session.endpoint, analysis.terrestrial_series(session)))
    kept = analysis.jitter_filter(candidates)
    kept_addresses = {e.address for e in kept}
    kept_fp = sum(false_positives[a] for a in kept_addresses)

    ok = (aggregate_fp <= 1
          and noisy not in kept_addresses
          and len(kept) == 10
          and kept_fp == 0)
    report(2, "sustained false-positive bound", ok,
           f"aggregate_fp={aggregate_fp}/10000s kept={len(kept)}/11 "
           f"kept_fp={kept_fp}")
    assert ok


# ---------------------------------------------------------------- criterion 3

def test_a03_isolation_accuracy():
    # 10 seeded 300 s runs at default jitter; the isolated series must
    # land within 10 ms of the scenario's true satellite RTT for at
    # least 96% of samples and within 3 ms for at least 50%.
    within_10 = within_3 = n = 0
    for k in range(10):
        scen = build_scenario(scenario(3001 + k, duration_s=300))
        truth = 2.0 * (scen.satellite_base_oneway_ms() + scen.satellite_delta_ms(0.0))
        _, isolated, _, _ = run_pipeline(scen)
        error = np.abs(isolated.values_ms - truth)
        within_10 += int(np.sum(error <= 10.0))
        within_3 += int(np.sum(error <= 3.0))
        n += len(error)
    frac_10 = within_10 / n
    frac_3 = within_3 / n
    ok = frac_10 >= 0.96 and frac_3 >= 0.50
    report(3, "isolation accuracy", ok,
           f"within10ms={frac_10:.4f} within3ms={frac_3:.4f} n={n}")
    assert ok


# ---------------------------------------------------------------- criterion 4

def test_a04_composite_route_total(nigeria_summary):
    # Stated sub-terms reproduce the 154 ms route within 1 ms; deriving
    # the satellite terms from geometry stays within 5 ms.
    case = StudyCase.nigeria()
    stated = composite_route_rtt(
        case.dish, case.access_gs, case.pop,
        route_kind="isl", landing_gs=case.landing_gs,
        access_rtt_ms=11.0, isl_oneway_ms=11.0,
        terrestrial_rtt_ms=case.terrestrial_rtt_ms)
    derived = composite_route_rtt(
        case.dish, case.access_gs, case.pop,
        route_kind="isl", landing_gs=case.landing_gs,
        access_rtt_ms=nigeria_summary.best_rtt_ms,
        terrestrial_rtt_ms=case.terrestrial_rtt_ms)
    stated_err = abs(stated.total_rtt_ms - 154.0)
    derived_err = abs(derived.total_rtt_ms - 154.0)
    ok = stated_err < 1.0 and derived_err < 5.0
    report(4, "composite route total", ok,
           f"stated={stated.total_rtt_ms:.3f}ms "
           f"derived={derived.total_rtt_ms:.3f}ms")
    assert ok


# ---------------------------------------------------------------- criterion 5

def test_a05_single_hop_and_spread(nigeria_summary):
    # One extra in-plane hop costs 13 +/- 1 ms; the Nigeria worst-best
    # RTT spread sits at 12 +/- 3 ms.
    hop_ms = isl_extra_hop_rtt(ConstellationConfig.default())
    spread = nigeria_summary.worst_minus_best_ms
    ok = abs(hop_ms - 13.0) <= 1.0 and abs(spread - 12.0) <= 3.0
    report(5, "hop cost and selection spread", ok,
           f"hop={hop_ms:.3f}ms spread={spread:.3f}ms")
    assert ok


# ---------------------------------------------------------------- criterion 6

def oracle_look(site, sat_pos, t_s):
    """Slant/elevation/azimuth written directly from the definitions."""
    theta = math.degrees(7.2921159e-5 * t_s)
    site_pos = latlon_to_ecef(site.latitude, site.longitude + theta,
                              EARTH_RADIUS_KM + site.altitude_m / 1000.0)
    rel = np.asarray(sat_pos) - site_pos
    slant = float(np.linalg.norm(rel))
    up = site_pos / np.linalg.norm(site_pos)
    elevation = math.degrees(math.asin(
        max(-1.0, min(1.0, float(rel @ up) / slant))))
    east = np.cross([0.0, 0.0, 1.0], up)
    east = east / np.linalg.norm(east)
    north = np.cross(up, east)
    azimuth = math.degrees(math.atan2(float(rel @ east),
                                      float(rel @ north))) % 360.0
    return slant, elevation, azimuth


def oracle_best_worst(dish, gs, snap, max_slant, min_elev):
    best = (math.inf, None)
    worst = (-math.inf, None)
    for i in range(len(snap.positions)):
        pos = snap.positions[i]
        d_slant, d_elev, d_az = oracle_look(dish, pos, snap.t_s)
        g_slant, g_elev, _ = oracle_look(gs, pos, snap.t_s)
        if (d_slant > max_slant or d_elev < min_elev
                or g_slant > max_slant or g_elev < min_elev):
            continue
        total = d_slant + g_slant
        if total < best[0]:
            best = (total, i)
        if dish.azimuth_allowed(d_az) and total > worst[0]:
            worst = (total, i)
    to_rtt = lambda km: 2.0 * km / LIGHT_SPEED_KM_S * 1000.0
    return (None if best[1] is None else to_rtt(best[0]),
            None if worst[1] is None else to_rtt(worst[0]))


def test_a06_selection_matches_brute_force():
    # Best/worst satellite selection equals an exhaustive search on 100
    # random small constellations (agreement on no-coverage included).
    rng = random.Random(20260814)
    checked = skipped = mismatches = 0
    while checked < 100:
        shell = Shell(rng.uniform(400, 1200), rng.uniform(35, 97),
                      rng.randint(2, 6), rng.randint(2, 8),
                      rng.uniform(0, 15))
        snap = propagate(ConstellationConfig(shells=(shell,)),
                         rng.uniform(0, 6000))
        lat, lon = rng.uniform(-60, 60), rng.uniform(-180, 180)
        dish = DishSite(lat, lon, boresight_azimuth_deg=rng.uniform(0, 360))
        gs = GroundStation(lat + rng.uniform(-3, 3), lon + rng.uniform(-3, 3))
        max_slant = rng.uniform(1000, 3000)
        min_elev = rng.uniform(5, 30)
        want_best, want_worst = oracle_best_worst(
            dish, gs, snap, max_slant, min_elev)
        try:
            got_best, _ = best_case_rtt(dish, gs, snap, max_slant_km=max_slant,
                                        min_elevation_deg=min_elev)
        except NoCoverageError:
            got_best = None
        try:
            got_worst, _ = worst_case_rtt(dish, gs, snap, max_slant_km=max_slant,
                                          min_elevation_deg=min_elev)
        except NoCoverageError:
            got_worst = None
        if want_best is None and got_best is None and got_worst is None:
            skipped += 1
            assert skipped < 500, "coverage too sparse to collect 100 cases"
            continue
        agree = ((want_best is None) == (got_best is None)
                 and (want_worst is None) == (got_worst is None))
        if agree and want_best is not None:
            agree = abs(want_best - got_best) <= 1e-9
        if agree and want_worst is not None:
            agree = abs(want_worst - got_worst) <= 1e-9
        mismatches += not agree
        checked += 1
    ok = checked == 100 and mismatches == 0
    report(6, "selection vs brute force", ok,
           f"checked={checked} mismatches={mismatches} no_coverage={skipped}")
    assert ok


# ---------------------------------------------------------------- criterion 7

def test_a07_physical_floor():
    # 10,000 randomized composite routes; every total must respect the
    # round-trip speed-of-light floor between dish and POP.
    config = ConstellationConfig.default()
    snaps = [propagate(config, 300.0 * k) for k in range(20)]
    rng = random.Random(777)
    routes = violations = tries = 0
    worst_margin = math.inf
    while routes < 10_000:
        tries += 1
        snap = snaps[tries % len(snaps)]
        lat, lon = rng.uniform(-52, 52), rng.uniform(-180, 180)
        dish = DishSite(lat, lon)
        gs = GroundStation(lat + rng.uniform(-2.5, 2.5),
                           lon + rng.uniform(-2.5, 2.5))
        pop = GroundStation(lat + rng.uniform(-12, 12),
                            lon + rng.uniform(-12, 12), label="pop")
        kind = "relay" if rng.random() < 0.7 else "isl"
        landing = None
        if kind == "isl":
            landing = GroundStation(pop.latitude + rng.uniform(-4, 4),
                                    pop.longitude + rng.uniform(-4, 4))
        try:
            route = composite_route_rtt(
                dish, gs, pop, route_kind=kind, landing_gs=landing,
                snapshot=snap, extra_isl_hops=rng.choice([0, 0, 1, 2]))
        except NoCoverageError:
            continue
        floor = direct_path_floor_rtt(dish.latitude, dish.longitude,
                                      pop.latitude, pop.longitude)
        margin = route.total_rtt_ms - floor
        worst_margin = min(worst_margin, margin)
        violations += margin < -1e-9
        routes += 1
    ok = routes == 10_000 and violations == 0
    report(7, "speed-of-light floor", ok,
           f"routes={routes} violations={violations} "
           f"min_margin={worst_margin:.3f}ms")
    assert ok


# ---------------------------------------------------------------- criterion 8

def test_a08_relay_fraction_classification(nigeria_summary):
    # The bundled relay/ISL split session must classify 70% +/- 2 of
    # smoothed samples below the next-generation ISL threshold.
    (target, scen), = load_scenario_dir(SCENARIOS / "relay_split").items()
    _, _, smoothed, _ = run_pipeline(scen, pop_code="lgosnga1")
    threshold = nigeria_summary.isl_threshold_ms
    fraction = float(np.mean(smoothed.values_ms < threshold))
    ok = abs(fraction - 0.70) <= 0.02
    report(8, "relay fraction classification", ok,
           f"fraction={fraction:.4f} threshold={threshold:.3f}ms")
    assert ok


# ---------------------------------------------------------------- criterion 9

def test_a09_discovery_catalog(tmp_path, capsys):
    # Full scan fixture reproduces the endpoint catalog exactly; the
    # 100-record fixture loses exactly 9% to proxy-enhancement removal.
    out = tmp_path / "cohort.csv"
    assert cli.main(["discover", "--scan", str(FIXTURES / "scan_fixture.jsonl"),
                     "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        histogram = Counter(r["pop_code"] for r in csv.DictReader(fh))

    small_out = tmp_path / "small.csv"
    assert cli.main(["discover", "--scan", str(FIXTURES / "scan_small.jsonl"),
                     "--out", str(small_out)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines()
             if l.startswith("discover ok ")]
    fields = dict(kv.split("=", 1) for kv in lines[-1].split()[2:])
    pep_removed = int(fields["pep_removed"])
    candidates = int(fields["candidates"])

    ok = dict(histogram) == COHORT_HISTOGRAM and (pep_removed, candidates) == (9, 100)
    report(9, "discovery catalog", ok,
           f"pops={len(histogram)} kept={sum(histogram.values())} "
           f"pep_removed={pep_removed}/{candidates}")
    assert ok


# --------------------------------------------------------------- criterion 10

def test_a10_obstruction_attribution():
    # Constructed timelines: 2 of 5 sustained spikes lack a nearby
    # satellite switch; 5 of 100 standard spikes lack one.
    def spike(start_s, kind):
        return analysis.SpikeEvent(
            start_ms=int(start_s * 1000), end_ms=int(start_s * 1000) + 20_000,
            kind=kind, peak_ms=100.0, baseline_median_ms=40.0)

    def switch(at_s):
        return RerouteEvent(at_s=at_s, kind="satellite_switch", duration_s=0)

    def unexplained(spikes, switches):
        return score_spikes(spikes, switches).nearest.count(None) / len(spikes)

    sustained = [spike(t, "sustained") for t in (100, 300, 500, 700, 900)]
    sustained_unexplained = unexplained(sustained, [switch(t + 5) for t in (100, 500, 900)])

    standard = [spike(100 + 40 * i, "standard") for i in range(100)]
    standard_unexplained = unexplained(standard, [switch(100 + 40 * i + 3) for i in range(95)])

    ok = sustained_unexplained == 2 / 5 and standard_unexplained == 0.05
    report(10, "obstruction attribution", ok,
           f"sustained_unexplained={sustained_unexplained:.2f} "
           f"standard_unexplained={standard_unexplained:.2f}")
    assert ok


# --------------------------------------------------------------- criterion 11

def test_a11_deterministic_replay(tmp_path, capsys):
    # Two simulated campaigns from the same seed produce byte-identical
    # session stores.
    args = ["simulate", "--scenarios", str(SCENARIOS / "relay_split"),
            "--duration", "1000", "--partition", "p1"]
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    compared = differing = 0
    for rel in ("p1", "reports"):
        a_files = sorted((tmp_path / "a" / rel).rglob("*"))
        b_files = sorted((tmp_path / "b" / rel).rglob("*"))
        assert [f.name for f in a_files] == [f.name for f in b_files]
        for fa, fb in zip(a_files, b_files):
            if fa.is_file():
                compared += 1
                differing += fa.read_bytes() != fb.read_bytes()
    ok = compared > 0 and differing == 0
    report(11, "deterministic replay", ok,
           f"files_compared={compared} differing={differing}")
    assert ok
