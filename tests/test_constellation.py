import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leolink import constellation
from leolink.constellation import (
    DEFAULT_MAX_SLANT_KM,
    ConstellationConfig,
    DishSite,
    GeometryError,
    GroundStation,
    NoCoverageError,
    Shell,
    Snapshot,
    StudyCase,
    best_case_rtt,
    composite_route_rtt,
    direct_path_floor_rtt,
    evaluate_case,
    isl_extra_hop_rtt,
    isl_path_distance_km,
    min_isl_ng_threshold,
    propagate,
    visible_satellites,
    worst_case_rtt,
)
from leolink.geo import (
    EARTH_RADIUS_KM,
    GEO_FLOOR_RTT_MS,
    KM_PER_MILE,
    LIGHT_SPEED_KM_S,
    fiber_rtt_ms,
    haversine_km,
)
from tests.conftest import REPO_ROOT, latlon_to_ecef

DISH = DishSite(latitude=0.0, longitude=0.0)
GS = GroundStation(latitude=2.0, longitude=2.0, label="gs")


def snapshot_at(latlons, altitude_km=550.0):
    """Satellites over given (lat, lon) sub-points at t = 0, one single-satellite shell each.

    A one-satellite shell has right ascension 0 and, at t = 0, argument of
    latitude 0, so ``propagate`` puts it over (0, 0) whatever its inclination.
    Its plane holds the x axis, with normal (0, -sin i, cos i): inclination
    atan2(z, y) tilts it through the sub-point, where the satellite is placed
    on its orbit (at t = u / n, ``propagate`` puts it there too).
    """
    positions = np.array([latlon_to_ecef(lat, lon, EARTH_RADIUS_KM + altitude_km)
                          for lat, lon in latlons])
    shells = tuple(Shell(altitude_km, math.degrees(math.atan2(z, y)) % 180.0, 1, 1)
                   for _, y, z in positions)
    return Snapshot(t_s=0.0, config=ConstellationConfig(shells=shells), positions=positions)


def look(site, sat_pos, t_s=0.0):
    """Slant/elevation/azimuth oracle, written from the definitions."""
    theta = math.degrees(7.2921159e-5 * t_s)
    site_pos = latlon_to_ecef(site.latitude, site.longitude + theta,
                              EARTH_RADIUS_KM + site.altitude_m / 1000.0)
    rel = np.asarray(sat_pos) - site_pos
    slant = float(np.linalg.norm(rel))
    up = site_pos / np.linalg.norm(site_pos)
    elevation = math.degrees(math.asin(float(rel @ up) / slant))
    east = np.cross([0.0, 0.0, 1.0], up)
    east = east / np.linalg.norm(east)
    north = np.cross(up, east)
    azimuth = math.degrees(math.atan2(float(rel @ east), float(rel @ north))) % 360.0
    return slant, elevation, azimuth


# -------------------------------------------------------------- propagation

def test_shell_validation():
    with pytest.raises(GeometryError):
        Shell(-1.0, 53.0, 72, 22)
    with pytest.raises(GeometryError):
        Shell(550.0, 200.0, 72, 22)
    with pytest.raises(GeometryError):
        Shell(550.0, 53.0, 0, 22)


def test_propagate_single_satellite_epoch_position():
    config = ConstellationConfig(shells=(Shell(550.0, 53.0, 1, 1),))
    snap = propagate(config, 0.0)
    assert len(snap) == 1
    assert snap.positions[0] == pytest.approx(
        [EARTH_RADIUS_KM + 550.0, 0.0, 0.0], abs=1e-9)


def test_propagate_returns_after_one_period():
    config = ConstellationConfig(shells=(Shell(550.0, 53.0, 4, 5),))
    period = config.shells[0].period_s
    start = propagate(config, 0.0).positions
    loop = propagate(config, period).positions
    assert np.max(np.linalg.norm(start - loop, axis=1)) < 1e-3  # under 1 m


def test_propagate_circular_over_a_day():
    config = ConstellationConfig.default()
    a = config.shells[0].semi_major_axis_km
    for t in np.linspace(0.0, 86_400.0, 9):
        radii = np.linalg.norm(propagate(config, float(t)).positions, axis=1)
        assert np.max(np.abs(radii - a)) < 1e-3


def test_default_config_shape():
    config = ConstellationConfig.default()
    assert config.n_satellites == 72 * 22
    shell = config.shells[0]
    assert shell.altitude_km == 550.0
    assert shell.inclination_deg == 53.0


def test_in_plane_spacing_matches_22_per_orbit():
    shell = ConstellationConfig.default().shells[0]
    assert shell.in_plane_spacing_km == pytest.approx(
        2.0 * math.pi * (EARTH_RADIUS_KM + 550.0) / 22.0)
    # 22 satellites per 550 km orbit puts neighbours ~1243 miles apart
    assert shell.in_plane_spacing_km / KM_PER_MILE == pytest.approx(1243.0, rel=0.02)


@given(st.floats(200.0, 2000.0), st.integers(1, 40), st.integers(1, 40),
       st.floats(0.0, 86_400.0))
@settings(max_examples=40, deadline=None)
def test_propagate_conserves_radius(altitude, n_orbits, sats, t):
    config = ConstellationConfig(shells=(Shell(altitude, 53.0, n_orbits, sats),))
    radii = np.linalg.norm(propagate(config, t).positions, axis=1)
    assert np.allclose(radii, EARTH_RADIUS_KM + altitude, atol=1e-6)


# --------------------------------------------------------------- visibility

def test_azimuth_fov_boundaries():
    dish = DishSite(latitude=0.0, longitude=0.0)  # boresight -22
    assert dish.azimuth_allowed(30.0)
    assert dish.azimuth_allowed(157.9)
    assert not dish.azimuth_allowed(158.0)
    assert not dish.azimuth_allowed(200.0)
    assert not dish.azimuth_allowed(337.9)
    assert dish.azimuth_allowed(338.1)


def test_visible_overhead_not_antipode():
    snap = snapshot_at([(0.0, 0.0), (0.0, 180.0)])
    seen = visible_satellites(GroundStation(0.0, 0.0), snap)
    assert [s.slot_index for s in seen] == [0]
    assert [s.shell_index for s in seen] == [0]  # each satellite is its own shell


def test_visible_respects_slant_limit():
    snap = snapshot_at([(0.0, 0.0)])
    assert visible_satellites(GroundStation(0.0, 0.0), snap,
                              max_slant_km=500.0) == []


def test_visible_respects_elevation_mask():
    # ~48 deg elevation from the site: included at 25, excluded at 60.
    snap = snapshot_at([(4.0, 0.0)])
    site = GroundStation(0.0, 0.0)
    assert len(visible_satellites(site, snap, min_elevation_deg=25.0)) == 1
    assert visible_satellites(site, snap, min_elevation_deg=60.0) == []


def test_dish_fov_hides_southern_sky():
    # Satellite due south (azimuth 180) of an equator dish: outside the
    # half-sky of a boresight at -22, visible again with the fov off.
    snap = snapshot_at([(-4.0, 0.0)])
    _, elev, azim = look(DISH, snap.positions[0])
    assert elev > 25.0 and azim == pytest.approx(180.0, abs=0.1)
    assert visible_satellites(DISH, snap) == []
    assert len(visible_satellites(DISH, snap, apply_fov=False)) == 1


# -------------------------------------------------------------- best / worst

def test_best_case_overhead_colocated():
    snap = snapshot_at([(0.0, 0.0)])
    gs = GroundStation(0.0, 0.0)
    rtt, sat = best_case_rtt(DishSite(0.0, 0.0), gs, snap)
    assert rtt == pytest.approx(4.0 * 550.0 / LIGHT_SPEED_KM_S * 1000.0)
    assert rtt == pytest.approx(7.34, abs=0.01)
    assert sat.slot_index == 0


def test_best_case_above_direct_floor():
    snap = snapshot_at([(0.0, 0.0), (1.0, 1.0), (3.0, 1.0)])
    rtt, _ = best_case_rtt(DISH, GS, snap)
    floor = 2.0 * haversine_km(DISH.latitude, DISH.longitude,
                               GS.latitude, GS.longitude) / LIGHT_SPEED_KM_S * 1000.0
    assert rtt >= floor


def test_single_candidate_worst_equals_best():
    snap = snapshot_at([(1.0, 1.0)])
    best, _ = best_case_rtt(DISH, GS, snap)
    worst, _ = worst_case_rtt(DISH, GS, snap)
    assert worst == best


def test_best_and_worst_match_brute_force():
    latlons = [(0.5, 0.5), (3.0, 1.0), (1.0, 4.0), (-2.0, 1.0), (4.0, 4.0),
               (0.0, -3.0), (6.0, 2.0), (-1.0, -1.0)]
    snap = snapshot_at(latlons)
    joint, fov_joint = [], []
    for pos in snap.positions:
        ds, de, da = look(DISH, pos)
        gs_s, ge, _ = look(GS, pos)
        vis_d = ds <= DEFAULT_MAX_SLANT_KM and de >= 25.0
        vis_g = gs_s <= DEFAULT_MAX_SLANT_KM and ge >= 25.0
        if vis_d and vis_g:
            joint.append(ds + gs_s)
            if DISH.azimuth_allowed(da):
                fov_joint.append(ds + gs_s)
    assert joint and fov_joint
    best, _ = best_case_rtt(DISH, GS, snap)
    worst, _ = worst_case_rtt(DISH, GS, snap)
    assert best == pytest.approx(2.0 * min(joint) / LIGHT_SPEED_KM_S * 1000.0)
    assert worst == pytest.approx(2.0 * max(fov_joint) / LIGHT_SPEED_KM_S * 1000.0)
    assert best <= worst


def test_worst_case_from_a_plain_site_spans_the_whole_sky():
    # Only a DishSite has a field of view: from a plain ground station the
    # worst case may use the satellite due south that the dish cannot see.
    snap = snapshot_at([(-4.0, 0.0), (1.0, 1.0)])
    site = GroundStation(0.0, 0.0)
    paths = [look(site, pos)[0] + look(GS, pos)[0] for pos in snap.positions]
    worst, sat = worst_case_rtt(site, GS, snap)
    assert worst == pytest.approx(2.0 * max(paths) / LIGHT_SPEED_KM_S * 1000.0)
    assert sat.shell_index == 0
    assert worst > worst_case_rtt(DISH, GS, snap)[0]


def test_no_coverage_raises():
    snap = snapshot_at([(60.0, 120.0)])
    with pytest.raises(NoCoverageError):
        best_case_rtt(DISH, GS, snap)
    with pytest.raises(NoCoverageError):
        worst_case_rtt(DISH, GS, snap)
    with pytest.raises(NoCoverageError):
        min_isl_ng_threshold(DISH, GS, snap)


# ---------------------------------------------------------------- isl terms

def test_isl_extra_hop_default_shell():
    rtt = isl_extra_hop_rtt(ConstellationConfig.default())
    assert rtt == pytest.approx(13.18667581538872)
    assert rtt == pytest.approx(13.0, abs=1.0)


def test_isl_extra_hop_halves_with_double_density():
    base = ConstellationConfig(shells=(Shell(550.0, 53.0, 72, 22),))
    dense = ConstellationConfig(shells=(Shell(550.0, 53.0, 72, 44),))
    assert isl_extra_hop_rtt(dense) == pytest.approx(isl_extra_hop_rtt(base) / 2.0)


@given(st.floats(300.0, 1500.0), st.integers(4, 60))
@settings(max_examples=40)
def test_isl_extra_hop_closed_form(altitude, n):
    config = ConstellationConfig(shells=(Shell(altitude, 53.0, 10, n),))
    hand = 2.0 * (2.0 * math.pi * (EARTH_RADIUS_KM + altitude) / n) \
        / LIGHT_SPEED_KM_S * 1000.0
    assert isl_extra_hop_rtt(config) == pytest.approx(hand)


def test_isl_path_distance_zero_and_bounds():
    assert isl_path_distance_km(6.4, 5.6, 6.4, 5.6, altitude_km=550.0) == 0.0
    # Continental span: chained chords sit between the single chord and
    # the full arc at orbital altitude.
    theta = haversine_km(10.29, 11.17, 37.258, -7.2046, radius_km=1.0)
    r = EARTH_RADIUS_KM + 550.0
    d = isl_path_distance_km(10.29, 11.17, 37.258, -7.2046, altitude_km=550.0)
    assert 2.0 * r * math.sin(theta / 2.0) <= d <= r * theta
    assert d == pytest.approx(r * theta, rel=0.02)


def test_isl_path_respects_chord_cap():
    d = isl_path_distance_km(0.0, 0.0, 0.0, 120.0, altitude_km=550.0)
    theta = math.radians(120.0)
    r = EARTH_RADIUS_KM + 550.0
    n = math.ceil(theta / (2.0 * math.asin(5400.0 / (2.0 * r))))
    assert d == pytest.approx(n * 2.0 * r * math.sin(theta / (2 * n)))
    assert d / n <= 5400.0 + 1e-9


def test_isl_leg_gombe_to_lepe():
    d = isl_path_distance_km(10.29, 11.17, 37.258, -7.2046, altitude_km=550.0)
    assert d == pytest.approx(3773.901024709787)
    assert d / LIGHT_SPEED_KM_S * 1000.0 == pytest.approx(12.588378806746992)


# ---------------------------------------------------------- composite routes

def test_composite_stated_case_is_154():
    case = StudyCase.nigeria()
    route = composite_route_rtt(
        case.dish, case.access_gs, case.pop,
        route_kind="isl", landing_gs=case.landing_gs,
        access_rtt_ms=11.0, isl_oneway_ms=11.0, terrestrial_rtt_ms=110.0)
    assert route.total_rtt_ms == pytest.approx(154.0)


def test_composite_derived_from_geometry():
    case = StudyCase.nigeria()
    summary = evaluate_case(case)
    route = composite_route_rtt(
        case.dish, case.access_gs, case.pop,
        route_kind="isl", landing_gs=case.landing_gs,
        access_rtt_ms=summary.best_rtt_ms,
        terrestrial_rtt_ms=case.terrestrial_rtt_ms)
    assert route.total_rtt_ms == pytest.approx(154.62931349507465)
    assert route.total_rtt_ms == pytest.approx(154.0, abs=5.0)
    media = [seg.medium for seg in route.segments]
    assert media == ["vacuum", "vacuum", "vacuum", "measured"]


def test_composite_relay_degenerate_tail():
    snap = snapshot_at([(0.0, 0.0)])
    gs = GroundStation(0.0, 0.0, label="gs-at-pop")
    route = composite_route_rtt(DishSite(0.0, 0.0), gs, gs, route_kind="relay",
                                snapshot=snap, terrestrial_rtt_ms=0.0)
    best, _ = best_case_rtt(DishSite(0.0, 0.0), gs, snap)
    assert route.total_rtt_ms == pytest.approx(best)


def test_composite_relay_derives_fiber_tail():
    pop = GroundStation(6.5244, 3.3792, label="pop")
    gs = GroundStation(10.29, 11.17, label="gs")
    route = composite_route_rtt(DISH, gs, pop, route_kind="relay",
                                access_rtt_ms=20.0)
    tail = fiber_rtt_ms(haversine_km(10.29, 11.17, 6.5244, 3.3792))
    assert route.total_rtt_ms == pytest.approx(20.0 + tail)
    assert route.segments[-1].medium == "fiber"


def test_composite_extra_isl_hops_priced_per_hop():
    case = StudyCase.nigeria()
    kwargs = dict(route_kind="isl", landing_gs=case.landing_gs,
                  access_rtt_ms=10.0, isl_oneway_ms=11.0,
                  terrestrial_rtt_ms=110.0, config=case.config)
    base = composite_route_rtt(case.dish, case.access_gs, case.pop, **kwargs)
    detour = composite_route_rtt(case.dish, case.access_gs, case.pop,
                                 extra_isl_hops=3, **kwargs)
    per_hop = isl_extra_hop_rtt(case.config)
    assert detour.total_rtt_ms - base.total_rtt_ms == pytest.approx(3 * per_hop)


def test_composite_validation_errors():
    with pytest.raises(GeometryError):
        composite_route_rtt(DISH, GS, GS, route_kind="laser")
    with pytest.raises(GeometryError):
        composite_route_rtt(DISH, GS, GS, route_kind="isl", access_rtt_ms=10.0)
    with pytest.raises(GeometryError):
        composite_route_rtt(DISH, GS, GS, route_kind="relay", extra_isl_hops=-1)
    with pytest.raises(GeometryError):
        composite_route_rtt(DISH, GS, GS, route_kind="relay")  # no snapshot


def test_snapshot_refuses_positions_off_the_config_layout():
    config = ConstellationConfig(shells=(Shell(550.0, 53.0, 2, 3),))
    Snapshot(t_s=0.0, config=config, positions=propagate(config, 0.0).positions)
    for shape in ((5, 3), (7, 3), (6, 2), (18,)):
        with pytest.raises(GeometryError, match=re.escape("expected shape (6, 3)")):
            Snapshot(t_s=0.0, config=config, positions=np.zeros(shape))


def test_snapshot_refuses_positions_off_the_config_orbits():
    # Every query culls by plane, so a satellite off its orbit would be lost
    # silently: this one over (40, 100) is about 1,490 km off the plane of a
    # 53 deg orbit of right ascension 0, and best_case_rtt found no coverage.
    config = ConstellationConfig(shells=(Shell(550.0, 53.0, 1, 1),))
    over = latlon_to_ecef(40.0, 100.0, EARTH_RADIUS_KM + 550.0)
    with pytest.raises(GeometryError, match="row 0 is 1492.* km off its orbit"):
        Snapshot(t_s=0.0, config=config, positions=over[None])
    on = propagate(config, 0.0).positions
    for bad in (on * 1.001, on + [0.0, 0.0, 0.01], np.full((1, 3), np.nan)):
        with pytest.raises(GeometryError, match="off its orbit"):
            Snapshot(t_s=0.0, config=config, positions=bad)
    Snapshot(t_s=0.0, config=config, positions=on + [0.0, 0.0, 1e-4])


def test_snapshot_at_puts_each_satellite_over_its_sub_point():
    latlons = [(0.0, 0.0), (0.0, 180.0), (40.0, 100.0), (-4.0, 0.0), (60.0, 120.0)]
    snap = snapshot_at(latlons)
    assert [s.inclination_deg for s in snap.config.shells[:2]] == [0.0, 0.0]
    for k, ((lat, lon), pos) in enumerate(zip(latlons, snap.positions)):
        assert pos == pytest.approx(latlon_to_ecef(lat, lon, EARTH_RADIUS_KM + 550.0))
        # its shell's orbit passes there: argument of latitude u at t = u / n
        shell = snap.config.shells[k]
        x, y, z = pos / shell.semi_major_axis_km
        inc = math.radians(shell.inclination_deg)
        u = math.atan2(y * math.cos(inc) + z * math.sin(inc), x) % (2.0 * math.pi)
        at = propagate(snap.config, u / shell.mean_motion_rad_s).positions[k]
        assert at == pytest.approx(pos, abs=1e-6)
    sats = visible_satellites(GroundStation(40.0, 100.0), snap)
    assert [s.shell_index for s in sats] == [2]


def test_composite_refuses_snapshot_and_config_together():
    config = ConstellationConfig.default()
    with pytest.raises(GeometryError, match="not both"):
        composite_route_rtt(DISH, GS, GS, snapshot=propagate(config, 0.0), config=config,
                            access_rtt_ms=10.0)


def test_composite_isl_without_constellation_reads_the_bundled_default():
    case = StudyCase.nigeria()
    kwargs = dict(route_kind="isl", landing_gs=case.landing_gs, access_rtt_ms=10.0,
                  terrestrial_rtt_ms=110.0, extra_isl_hops=2)
    bare = composite_route_rtt(case.dish, case.access_gs, case.pop, **kwargs)
    default = composite_route_rtt(case.dish, case.access_gs, case.pop,
                                  config=ConstellationConfig.default(), **kwargs)
    assert bare == default
    assert len(bare.segments) == 5


def test_composite_isl_on_a_snapshot_reads_its_constellation():
    snap = snapshot_at([(0.0, 0.0), (0.0, 90.0)], altitude_km=1100.0)
    landing = GroundStation(0.0, 40.0, label="landing")
    route = composite_route_rtt(DISH, GS, GS, route_kind="isl", landing_gs=landing,
                                snapshot=snap, access_rtt_ms=10.0, terrestrial_rtt_ms=0.0,
                                extra_isl_hops=1)
    isl, hop = route.segments[2:4]
    assert isl.distance_km == isl_path_distance_km(2.0, 2.0, 0.0, 40.0, altitude_km=1100.0)
    assert hop.rtt_ms == isl_extra_hop_rtt(snap.config)


def test_direct_floor_seychelles_to_lagos():
    floor = direct_path_floor_rtt(-4.6796, 55.4920, 6.5244, 3.3792)
    assert floor == pytest.approx(39.4748312542466)
    assert floor == pytest.approx(40.0, abs=1.0)
    zigzag = direct_path_floor_rtt(-4.6796, 55.4920, 6.5244, 3.3792,
                                   zigzag_factor=2.0)
    assert zigzag == pytest.approx(2.0 * floor)
    assert zigzag <= 80.0
    with pytest.raises(GeometryError):
        direct_path_floor_rtt(0.0, 0.0, 1.0, 1.0, zigzag_factor=0.5)


def test_leo_routes_beat_geo_floor():
    assert GEO_FLOOR_RTT_MS == pytest.approx(477.477, abs=0.01)
    summary = evaluate_case(StudyCase.nigeria())
    assert summary.worst_rtt_ms < GEO_FLOOR_RTT_MS


# ------------------------------------------------------------ isl threshold

def test_threshold_matches_brute_force_pairs():
    latlons = [(0.5, 0.5), (3.0, 1.0), (1.0, 4.0), (-2.0, 1.0), (4.0, 4.0)]
    snap = snapshot_at(latlons)
    dish_vis, gs_vis = [], []
    for i, pos in enumerate(snap.positions):
        ds, de, _ = look(DISH, pos)
        gs_s, ge, _ = look(GS, pos)
        if ds <= DEFAULT_MAX_SLANT_KM and de >= 25.0:
            dish_vis.append((i, ds))
        if gs_s <= DEFAULT_MAX_SLANT_KM and ge >= 25.0:
            gs_vis.append((i, gs_s))
    best = min(
        d1 + float(np.linalg.norm(snap.positions[i] - snap.positions[j])) + d2
        for i, d1 in dish_vis for j, d2 in gs_vis if i != j)
    expected = 2.0 * best / LIGHT_SPEED_KM_S * 1000.0
    assert min_isl_ng_threshold(DISH, GS, snap) == pytest.approx(expected)


def test_threshold_exceeds_best_case():
    snap = snapshot_at([(0.5, 0.5), (3.0, 1.0), (1.0, 4.0), (-2.0, 1.0)])
    best, _ = best_case_rtt(DISH, GS, snap)
    assert min_isl_ng_threshold(DISH, GS, snap) > best


# -------------------------------------------------------------- study cases

def test_nigeria_case_fields():
    case = StudyCase.nigeria()
    assert case.pop.label == "lgosnga1"
    assert case.landing_gs is not None
    assert case.terrestrial_rtt_ms == 110.0
    assert case.visibility.max_slant_km == 2500.0
    assert case.visibility.min_elevation_deg == 11.0
    assert case.dish.boresight_azimuth_deg == -22.0


def test_study_case_rejects_bad_json(tmp_path):
    bad = tmp_path / "case.json"
    bad.write_text(json.dumps({"label": "x", "pop": {"latitude": 1.0}}))
    with pytest.raises(GeometryError):
        StudyCase.from_json(bad)


SHELL = {"altitude_km": 550.0, "inclination_deg": 53.0, "n_orbits": 72, "sats_per_orbit": 22}
NIGERIA = json.loads((REPO_ROOT / "src" / "leolink" / "data" / "nigeria_case.json").read_text())


def _with(obj, key, **fields):
    return {**obj, key: {**obj[key], **fields}}


@pytest.mark.parametrize("read,text,where", [
    (StudyCase.from_json, "{not json", "Expecting property name enclosed in double quotes"),
    (StudyCase.from_json, "[]", "top level: expected an object, got []"),
    (StudyCase.from_json, json.dumps(_with(NIGERIA, "dish", latitude="6.4")),
     "dish.latitude: expected a finite number, got '6.4'"),
    (StudyCase.from_json, json.dumps({**NIGERIA, "terrestrial_rtt_ms": "110"}),
     "terrestrial_rtt_ms: expected a finite number or null, got '110'"),
    (StudyCase.from_json, json.dumps({k: v for k, v in NIGERIA.items() if k != "pop"}),
     "pop: expected an object, got None"),
    (StudyCase.from_json, json.dumps(_with(NIGERIA, "visibility", max_slant_km=None)),
     "visibility.max_slant_km: expected a finite number, got None"),
    (StudyCase.from_json, json.dumps(_with(NIGERIA, "access_gs", label=7)),
     "access_gs.label: expected a string, got 7"),
    (ConstellationConfig.from_json, "{not json", "Expecting property name"),
    (ConstellationConfig.from_json, json.dumps({"shells": [{**SHELL, "altitude_km": "550"}]}),
     "shells[0].altitude_km: expected a finite number, got '550'"),
    (ConstellationConfig.from_json, json.dumps({"shells": [{**SHELL, "apogee_km": 560}]}),
     "shells[0]: unknown fields ['apogee_km']"),
    (ConstellationConfig.from_json, json.dumps({"shells": [{**SHELL, "n_orbits": 7.5}]}),
     "shells[0].n_orbits: expected an integer, got 7.5"),
    (ConstellationConfig.from_json, json.dumps({"shells": [SHELL], "epoch_s": True}),
     "epoch_s: expected a finite number, got True"),
    (ConstellationConfig.from_json, json.dumps({"shells": {}}), "shells: expected a list, got {}"),
    *((StudyCase.from_json, json.dumps(_with(NIGERIA, "sampling", step_s=step)),
       f"sampling.step_s: must be at least 1 s, got {step!r}") for step in (0, -15, 1e-9, 0.5)),
    (StudyCase.from_json, json.dumps({**NIGERIA, "terrestrial_rtt": 110.0}),
     ": unknown fields ['terrestrial_rtt']"),
    (StudyCase.from_json, json.dumps(_with(NIGERIA, "visibility", max_slant=1000.0)),
     "visibility: unknown fields ['max_slant']"),
    (StudyCase.from_json, json.dumps(_with(NIGERIA, "sampling", stepp_s=60.0)),
     "sampling: unknown fields ['stepp_s']"),
    (StudyCase.from_json, json.dumps(_with(NIGERIA, "dish", altitude=3000.0)),
     "dish: unknown fields ['altitude']"),
    (StudyCase.from_json, json.dumps(_with(NIGERIA, "pop", boresight_azimuth_deg=0.0)),
     "pop: unknown fields ['boresight_azimuth_deg']"),
    (StudyCase.from_json, json.dumps({**NIGERIA, "landing_gs": {}}),
     "landing_gs.latitude: expected a finite number, got None"),
    (ConstellationConfig.from_json, json.dumps({"shells": [SHELL], "epoch": 100.0}),
     ": unknown fields ['epoch']"),
    *((StudyCase.from_json, json.dumps(_with(NIGERIA, "visibility", max_slant_km=slant)),
       f"visibility.max_slant_km: must be positive, got {slant!r}") for slant in (-5.0, 0)),
    *((StudyCase.from_json, json.dumps(_with(NIGERIA, "visibility", min_elevation_deg=elev)),
       f"visibility.min_elevation_deg: must be within [-90, 90], got {elev!r}")
      for elev in (90.5, -91)),
    (ConstellationConfig.from_json, json.dumps({"shells": [{**SHELL, "altitude_km": -5.0}]}),
     "shells[0].altitude_km: -5.0 is not positive"),
    (ConstellationConfig.from_json,
     json.dumps({"shells": [SHELL, {**SHELL, "inclination_deg": 181}]}),
     "shells[1].inclination_deg: 181 is not within [0, 180]"),
    (ConstellationConfig.from_json, json.dumps({"shells": [{**SHELL, "n_orbits": 0}]}),
     "shells[0].n_orbits: 0 is below 1"),
    (StudyCase.from_json, json.dumps(_with(NIGERIA, "dish", latitude=500.0)),
     "dish.latitude: expected a latitude within [-90, 90], got 500.0"),
    (StudyCase.from_json, json.dumps(_with(NIGERIA, "pop", longitude=-722.3)),
     "pop.longitude: expected a longitude within [-180, 180], got -722.3"),
    (StudyCase.from_json, json.dumps(_with(NIGERIA, "landing_gs", latitude=-90.5)),
     "landing_gs.latitude: expected a latitude within [-90, 90], got -90.5"),
    (StudyCase.from_json, json.dumps({**NIGERIA, "config": {"shells": [SHELL]}}),
     ": unknown fields ['config']"),
], ids=["case_not_json", "case_not_an_object", "dish_latitude_string", "terrestrial_string",
        "pop_missing", "slant_null", "label_number", "config_not_json", "altitude_string",
        "unknown_shell_key", "n_orbits_float", "epoch_bool", "shells_object",
        "step_zero", "step_negative", "step_tiny", "step_half",
        "misspelt_case_key", "misspelt_visibility_key", "misspelt_sampling_key",
        "misspelt_dish_key", "boresight_on_pop", "landing_gs_empty", "misspelt_config_key",
        "slant_negative", "slant_zero", "elevation_above_90", "elevation_below_90",
        "altitude_negative", "inclination_181", "zero_orbits", "dish_latitude_off_earth",
        "pop_longitude_off_earth", "landing_gs_latitude_off_earth", "config_in_case"])
def test_bad_geometry_file_names_file_and_field(tmp_path, read, text, where):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(GeometryError) as err:
        read(path)
    assert str(err.value).startswith(f"{path}: ")
    assert where in str(err.value)


@pytest.mark.parametrize("site", ["dish", "access_gs", "pop", "landing_gs"])
def test_study_case_reads_every_site_altitude(tmp_path, site):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(_with(NIGERIA, site, altitude_m=3000.0)))
    assert getattr(StudyCase.from_json(path), site).altitude_m == 3000.0


def test_constellation_config_allows_a_top_level_comment():
    config = ConstellationConfig.from_dict({"comment": "one shell", "shells": [SHELL]})
    assert config == ConstellationConfig(shells=(Shell(**SHELL),))


def test_constellation_config_comment_is_kept_out_of_equality():
    plain = ConstellationConfig(shells=(Shell(**SHELL),))
    noted = ConstellationConfig(shells=(Shell(**SHELL),), comment="one shell")
    assert noted == plain and hash(noted) == hash(plain) and noted.comment == "one shell"
    with pytest.raises(GeometryError, match=re.escape("comment: expected a string, got 5")):
        ConstellationConfig.from_dict({"comment": 5, "shells": [SHELL]})


def test_constellation_config_needs_a_shell_in_code_as_in_a_file():
    for build in (lambda: ConstellationConfig(shells=()),
                  lambda: ConstellationConfig.from_dict({"shells": []})):
        with pytest.raises(GeometryError, match="^config needs at least one shell$"):
            build()


def test_study_case_accepts_a_one_second_sampling_step(tmp_path):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(_with(NIGERIA, "sampling", step_s=1)))
    assert StudyCase.from_json(path).sampling.step_s == 1


def test_constellation_config_from_dict_refuses_a_fractional_orbit_count():
    with pytest.raises(GeometryError, match=re.escape("shells[0].n_orbits: expected an integer")):
        ConstellationConfig.from_dict({"shells": [{**SHELL, "n_orbits": 7.5}]})


def test_a_sweep_propagates_only_the_slots_that_come_into_view(monkeypatch):
    # Of the Nigeria case's 1,584 satellites a block's plane cull keeps
    # about 535, whole planes; about 63 come within 2,500 km of a site.
    counts = []
    propagate_rows = constellation._propagate

    def counted(config, times, rows):
        counts.append(len(rows))
        return propagate_rows(config, times, rows)

    monkeypatch.setattr(constellation, "_propagate", counted)
    summary = evaluate_case(StudyCase.nigeria())
    assert len(counts) == -(-summary.n_samples // constellation._BLOCK_STEPS)
    assert sum(counts) / len(counts) <= 100, f"{sum(counts) / len(counts):.0f} rows a block"


def test_evaluate_nigeria_case_frozen_medians():
    summary = evaluate_case(StudyCase.nigeria())
    assert summary.n_no_coverage == 0
    assert summary.n_samples == 383
    assert summary.best_rtt_ms == pytest.approx(9.726277940790329)
    assert summary.worst_rtt_ms == pytest.approx(20.67579165154005)
    assert summary.worst_minus_best_ms == pytest.approx(11.043024804454813)
    assert summary.isl_threshold_ms == pytest.approx(11.931667010990301)
    # expected bands for this case: one-way access around 11 ms,
    # selection penalty around 12 ms
    assert 9.0 <= summary.best_rtt_ms <= 13.0
    assert summary.worst_minus_best_ms == pytest.approx(12.0, abs=3.0)
    assert summary.isl_threshold_ms > summary.best_rtt_ms


def test_route_estimates_script_prints_case_medians():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, str(REPO_ROOT / "scripts" / "route_estimates.py")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    summary = evaluate_case(StudyCase.nigeria())
    printed = dict(re.findall(r"^  (best-case RTT|worst-case RTT|worst minus best"
                              r"|next-gen threshold) +(\S+) ms$", run.stdout, re.M))
    assert printed == {
        "best-case RTT": f"{summary.best_rtt_ms:.3f}",
        "worst-case RTT": f"{summary.worst_rtt_ms:.3f}",
        "worst minus best": f"{summary.worst_minus_best_ms:.3f}",
        "next-gen threshold": f"{summary.isl_threshold_ms:.3f}",
    }
    assert (f"({summary.n_samples} samples, {summary.n_no_coverage} without coverage)"
            in run.stdout)


# ------------------------------------------------------------------ geometry

@given(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0),
       st.floats(-90.0, 90.0), st.floats(-180.0, 180.0),
       st.floats(-90.0, 90.0), st.floats(-180.0, 180.0))
@settings(max_examples=80)
@example(0, 0, -1, 0, -1e-5, 180)  # on one great circle, 180 degrees end to end
def test_haversine_symmetric_and_triangle(lat1, lon1, lat2, lon2, lat3, lon3):
    d12 = haversine_km(lat1, lon1, lat2, lon2)
    d21 = haversine_km(lat2, lon2, lat1, lon1)
    assert d12 == pytest.approx(d21, abs=1e-9)
    d13 = haversine_km(lat1, lon1, lat3, lon3)
    d23 = haversine_km(lat2, lon2, lat3, lon3)
    assert d13 <= d12 + d23 + 1e-6
