"""The fast paths against the scalar code they replaced.

Each oracle below is the earlier, obviously correct implementation: a
per-tick ``np.median`` loop for ``smooth``, a ``while`` loop for
``_maximal_runs``, a linear event scan, a per-probe hop chain and a
per-tick loop over ``probe()`` for the simulator, a per-sample loop for
isolation, for the session store a sort-then-``csv.writer`` pass and a
``heapq.merge`` of per-sample lists, and for the constellation the
per-snapshot geometry: one propagation, one look-angle pass over every
satellite per rule and a per-satellite loop for the two-satellite
threshold, one time step at a time.  The fast code must agree with
them exactly, not approximately.  The one
exception is the report's Spearman rho, checked against
``scipy.stats.spearmanr`` (skipped without scipy) to 1e-12.
"""
import csv
import hashlib
import heapq
import io
import math
import random
import struct
import sys
import threading
import warnings
from collections import namedtuple
from dataclasses import replace
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leolink import constellation, probe, simnet
from leolink.analysis import (
    EmptySeriesError,
    LatencySeries,
    SessionStats,
    SessionUnusableError,
    _maximal_runs,
    isolate_satellite_latency,
    min_rtt_vs_pop_distance,
    smooth,
)
from leolink.constellation import (
    CaseSummary,
    ConstellationConfig,
    DishSite,
    GroundStation,
    NoCoverageError,
    SatelliteState,
    Shell,
    StudyCase,
    best_case_rtt,
    composite_route_rtt,
    evaluate_case,
    min_isl_ng_threshold,
    propagate,
    propagate_many,
    visible_satellites,
    worst_case_rtt,
)
from leolink.discovery import Endpoint, PopLocation
from leolink.geo import EARTH_RADIUS_KM, vacuum_rtt_ms
from leolink.probe import MeasurementSession, SatLinkPath
from leolink.store import MeasurementStore
from tests.conftest import respond_to_probe, scenario_dict

# One probe as the per-sample code held it; rtt_us is None when lost.
Sample = namedtuple("Sample", "timestamp_ms target_ttl rtt_us")

# ------------------------------------------------------------- oracles


def oracle_smooth(ts, vs, window_s):
    half_ms = window_s * 1000.0 / 2.0
    lo = np.searchsorted(ts, ts - half_ms, side="left")
    hi = np.searchsorted(ts, ts + half_ms, side="right")
    out = np.empty(len(ts), dtype=np.float64)
    for i in range(len(ts)):
        out[i] = np.median(vs[lo[i]:hi[i]])
    return out


def oracle_maximal_runs(mask):
    runs = []
    i = 0
    n = len(mask)
    while i < n:
        if mask[i]:
            j = i
            while j < n and mask[j]:
                j += 1
            runs.append((i, j))
            i = j
        else:
            i += 1
    return runs


def oracle_satellite_delta_ms(scenario, t_s):
    for ev in scenario.events:
        if ev.active_at(t_s):
            if ev.new_rtt_ms is not None:
                return ev.new_rtt_ms / 2.0 - scenario.satellite_base_oneway_ms(), ev
            return (ev.delta_ms or 0.0) / 2.0, ev
    return 0.0, None


def oracle_probe_rng(seed, t_ms, ttl, protocol):
    """A fresh generator per probe, seeded from the probe's coordinates."""
    digest = hashlib.blake2b(
        struct.pack("<QqiH", seed & 0xFFFFFFFFFFFFFFFF, t_ms, ttl, simnet.FLOW)
        + protocol.encode(),
        digest_size=8,
    ).digest()
    return random.Random(int.from_bytes(digest, "little"))


def oracle_respond_to_probe(scenario, target, ttl, t_ms, *, protocol="icmp"):
    """The reply with the hop chain rebuilt on every probe."""
    if target != scenario.target_address:
        return None
    t_s = t_ms / 1000.0
    rng = oracle_probe_rng(scenario.seed, t_ms, ttl, protocol)
    if scenario.loss_probability > 0 and rng.random() < scenario.loss_probability:
        return None
    delta, _ = oracle_satellite_delta_ms(scenario, t_s)
    chain = []
    for i, hop in enumerate(scenario.hops):
        chain.append((hop, scenario.base_latencies_ms[i], (i + 1) == scenario.pre_sat + 1))
    flap = scenario.hop_flap
    if flap is not None and (t_s % flap.every_s) < flap.duration_s:
        flap_hop = simnet.SimHop(label="flap", address="10.255.255.1")
        chain.insert(scenario.pre_sat, (flap_hop, 0.1, False))
    n = len(chain)
    expire_at = min(ttl, n)
    hop, _, _ = chain[expire_at - 1]
    if ttl >= n:
        if not hop.echo or protocol not in scenario.target_protocols:
            return None
        kind = "echo"
    else:
        if not hop.ttl_expired:
            return None
        kind = "ttl_expired"
    oneway = 0.0
    noise = 0.0
    for (_, seg_ms, is_sat_entry) in chain[:expire_at]:
        oneway += seg_ms + (delta if is_sat_entry else 0.0)
        sigma = scenario.jitter.satellite_sigma_ms if is_sat_entry else scenario.jitter.sigma_ms
        if scenario.jitter.dist == "gaussian" and sigma > 0:
            noise += rng.gauss(0.0, sigma)
        elif scenario.jitter.dist == "lognormal" and sigma > 0:
            noise += sigma * (rng.lognormvariate(0.0, 1.0) / math.e ** 0.5)
    rtt_ms = max(2.0 * oneway + noise, 0.001)
    return (hop.address, rtt_ms * 1000.0, kind)


def samples_of(session):
    """The per-hop sample lists of an array session."""
    return [[Sample(t, ttl, None if math.isnan(r) else r)
             for t, r in zip(sent.tolist(), rtt.tolist())]
            for sent, rtt, ttl in ((session.terrestrial_sent_ms, session.terrestrial_rtt_us,
                                    session.path.pre_sat_ttl),
                                   (session.endpoint_sent_ms, session.endpoint_rtt_us,
                                    session.path.post_sat_ttl))]


def oracle_session_csv(target, terrestrial, endpoint):
    """The session.csv bytes as csv.writer wrote them from one sorted list."""
    rows = []
    for samples in (terrestrial, endpoint):
        for s in samples:
            rtt = "" if s.rtt_us is None else f"{s.rtt_us:.1f}"
            lost = "true" if s.rtt_us is None else "false"
            rows.append((s.timestamp_ms, target, s.target_ttl, rtt, lost))
    rows.sort(key=lambda r: (r[0], r[2]))
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["timestamp_ms", "target", "hop_ttl", "rtt_us", "lost"])
    w.writerows(rows)
    return buf.getvalue().encode("utf-8")


def oracle_merged_csv(target, terrestrial, endpoint):
    """The session.csv bytes as the per-sample writer merged the two hops."""
    if any(c in target for c in ',"\r\n'):
        target = '"' + target.replace('"', '""') + '"'
    samples = heapq.merge(terrestrial, endpoint, key=attrgetter("timestamp_ms", "target_ttl"))
    return ("timestamp_ms,target,hop_ttl,rtt_us,lost\r\n" + "".join(
        f"{s.timestamp_ms},{target},{s.target_ttl},,true\r\n" if s.rtt_us is None
        else f"{s.timestamp_ms},{target},{s.target_ttl},{s.rtt_us:.1f},false\r\n"
        for s in samples)).encode("utf-8")


def oracle_isolate(terrestrial, endpoint):
    """(timestamps, values, clamped) of the per-sample isolation loop."""
    timestamps, values, clamped = [], [], 0
    for terr, endp in zip(terrestrial, endpoint):
        if terr.rtt_us is None or endp.rtt_us is None:
            continue
        diff_ms = (endp.rtt_us - terr.rtt_us) / 1000.0
        if diff_ms < 0.0:
            diff_ms = 0.0
            clamped += 1
        timestamps.append(endp.timestamp_ms)
        values.append(diff_ms)
    return timestamps, values, clamped


def oracle_propagate(config, t_s):
    """(positions, shell, orbit, slot) of every satellite at one instant."""
    dt = t_s - config.epoch_s
    pos_parts, shell_ix, orbit_ix, slot_ix = [], [], [], []
    for s_i, shell in enumerate(config.shells):
        a = shell.semi_major_axis_km
        inc = math.radians(shell.inclination_deg)
        orbits = np.arange(shell.n_orbits)
        slots = np.arange(shell.sats_per_orbit)
        raan = np.radians(360.0 * orbits / shell.n_orbits)[:, None]
        u0 = np.radians(360.0 * slots / shell.sats_per_orbit)[None, :]
        u = u0 + np.radians(shell.phase_offset_deg) * orbits[:, None] \
            + shell.mean_motion_rad_s * dt
        cos_u, sin_u = np.cos(u), np.sin(u)
        cos_r, sin_r = np.cos(raan), np.sin(raan)
        x = a * (cos_r * cos_u - sin_r * sin_u * math.cos(inc))
        y = a * (sin_r * cos_u + cos_r * sin_u * math.cos(inc))
        z = a * (sin_u * math.sin(inc))
        n = shell.n_orbits * shell.sats_per_orbit
        pos_parts.append(np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1))
        shell_ix.append(np.full(n, s_i))
        orbit_ix.append(np.repeat(orbits, shell.sats_per_orbit))
        slot_ix.append(np.tile(slots, shell.n_orbits))
    return (np.concatenate(pos_parts), np.concatenate(shell_ix),
            np.concatenate(orbit_ix), np.concatenate(slot_ix))


def oracle_site_position(site, t_s, epoch_s):
    theta = math.degrees(constellation.EARTH_ROTATION_RAD_S * (t_s - epoch_s))
    radius = EARTH_RADIUS_KM + site.altitude_m / 1000.0
    phi, lam = math.radians(site.latitude), math.radians(site.longitude + theta)
    return np.array([radius * math.cos(phi) * math.cos(lam),
                     radius * math.cos(phi) * math.sin(lam),
                     radius * math.sin(phi)])


def oracle_look_angles(site_pos, sat_pos):
    """Slant range (km), elevation and azimuth (deg) to each satellite."""
    rel = sat_pos - site_pos[None, :]
    slant = np.linalg.norm(rel, axis=1)
    up = site_pos / np.linalg.norm(site_pos)
    sin_el = rel @ up / slant
    elevation = np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0)))
    east = np.cross([0.0, 0.0, 1.0], up)
    norm = np.linalg.norm(east)
    if norm < 1e-12:
        east = np.array([1.0, 0.0, 0.0])
    else:
        east = east / norm
    north = np.cross(up, east)
    azimuth = np.degrees(np.arctan2(rel @ east, rel @ north)) % 360.0
    return slant, elevation, azimuth


def oracle_visible(site, t_s, epoch_s, positions, max_slant_km, min_elevation_deg, apply_fov):
    """(mask, slant) of one site over one snapshot."""
    slant, elevation, azimuth = oracle_look_angles(
        oracle_site_position(site, t_s, epoch_s), positions)
    mask = (slant <= max_slant_km) & (elevation >= min_elevation_deg)
    if apply_fov and isinstance(site, DishSite):
        mask &= site.azimuth_allowed(azimuth)
    return mask, slant


def oracle_selection(dish, gs, t_s, epoch_s, positions, max_slant_km, min_elevation_deg):
    """Best and worst ``(rtt_ms, index)`` and the two-satellite threshold,
    each None without coverage."""
    look = (t_s, epoch_s, positions, max_slant_km, min_elevation_deg)
    gs_mask, gs_slant = oracle_visible(gs, *look, False)
    out = []
    for fov, pick, fill in ((False, np.argmin, np.inf), (True, np.argmax, -np.inf)):
        dish_mask, dish_slant = oracle_visible(dish, *look, fov)
        sums = np.where(dish_mask & gs_mask, dish_slant + gs_slant, fill)
        i = int(pick(sums))
        out.append((vacuum_rtt_ms(float(sums[i])), i) if np.isfinite(sums[i]) else None)
    dish_mask, dish_slant = oracle_visible(dish, *look, False)
    dish_idx, gs_idx = np.nonzero(dish_mask)[0], np.nonzero(gs_mask)[0]
    best = np.inf
    for i in dish_idx:
        inter = np.linalg.norm(positions[gs_idx] - positions[i], axis=1)
        totals = dish_slant[i] + inter + gs_slant[gs_idx]
        totals[gs_idx == i] = np.inf
        best = min(best, float(np.min(totals)) if len(totals) else np.inf)
    out.append(vacuum_rtt_ms(best) if np.isfinite(best) else None)
    return out


def oracle_evaluate_case(case):
    """The per-step sweep of one period; None when no step had coverage."""
    times = np.arange(0.0, case.config.shells[0].period_s, case.sample_step_s)
    best, worst, thresh = [], [], []
    for t in times:
        positions = oracle_propagate(case.config, float(t))[0]
        b, w, th = oracle_selection(case.dish, case.access_gs, float(t), case.config.epoch_s,
                                    positions, case.max_slant_km, case.min_elevation_deg)
        if b is None or w is None or th is None:
            continue
        best.append(b[0])
        worst.append(w[0])
        thresh.append(th)
    if not best:
        return None
    b, w = np.asarray(best), np.asarray(worst)
    return CaseSummary(label=case.label, best_rtt_ms=float(np.median(b)),
                       worst_rtt_ms=float(np.median(w)),
                       worst_minus_best_ms=float(np.median(w - b)),
                       isl_threshold_ms=float(np.median(thresh)),
                       n_samples=len(times), n_no_coverage=len(times) - len(best))


# ----------------------------------------------------------- smoothing

def irregular_series():
    """Strictly increasing timestamps with gaps from 1 ms to 40 s."""
    gaps = st.one_of(st.integers(1, 40_000), st.sampled_from([500, 1000, 1000, 2000]))
    values = st.one_of(st.floats(0.0, 500.0), st.sampled_from([0.0, 20.0, 20.5, 35.0]))
    return st.lists(st.tuples(gaps, values), min_size=1, max_size=200).map(
        lambda pairs: (np.cumsum([g for g, _ in pairs]).astype(np.int64),
                       np.array([v for _, v in pairs], dtype=np.float64)))


windows = st.one_of(st.integers(1, 120).map(float), st.floats(1.0, 120.0))


@given(irregular_series(), windows)
@settings(max_examples=150, deadline=None)
def test_smooth_equals_per_tick_median(ts_vs, window_s):
    ts, vs = ts_vs
    got = smooth(LatencySeries(ts, vs), window_s=window_s)
    assert np.array_equal(got.values_ms, oracle_smooth(ts, vs, window_s))
    assert np.array_equal(got.timestamps_ms, ts)


@given(st.integers(1, 3000), st.sampled_from([1, 2, 10]), windows, st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_smooth_equals_per_tick_median_on_long_grids(n, cadence_hz, window_s, seed):
    # Long enough that the widest groups span several chunks.
    rng = np.random.default_rng(seed)
    ts = np.arange(n, dtype=np.int64) * (1000 // cadence_hz)
    vs = np.round(rng.normal(40.0, 6.0, size=n), 1)
    got = smooth(LatencySeries(ts, vs), window_s=window_s)
    assert np.array_equal(got.values_ms, oracle_smooth(ts, vs, window_s))


@given(st.lists(st.booleans(), max_size=300))
@settings(max_examples=200, deadline=None)
def test_maximal_runs_equal_while_loop(bits):
    mask = np.array(bits, dtype=bool)
    assert _maximal_runs(mask) == oracle_maximal_runs(mask)


def _spearman_columns(n):
    # Few distinct values, so ties are common and a column is often constant.
    dist = st.one_of(st.lists(st.integers(0, 6).map(float), min_size=n, max_size=n),
                     st.lists(st.floats(0.0, 20_000.0), min_size=n, max_size=n))
    rtts = st.lists(st.sampled_from([20.0, 25.0, 30.0, 31.5]), min_size=n, max_size=n)
    return st.tuples(dist, rtts)


@given(st.integers(3, 200).flatmap(_spearman_columns))
@example(([1.0, 2.0, 3.0], [25.0, 25.0, 25.0]))
@example(([4.0] * 5, [20.0, 25.0, 30.0, 25.0, 20.0]))
@example(([0.0] * 200, [31.5] * 200))
@settings(max_examples=200, deadline=None)
def test_spearman_rho_equals_scipy(columns):
    stats = pytest.importorskip("scipy.stats")
    # A POP at (0, 0) and each customer on the equator, dist km east of it.
    pop = PopLocation("", "", 0.0, 0.0)
    items = [(Endpoint(f"a{i}", "x", pop, (0.0, math.degrees(d / EARTH_RADIUS_KM))),
              SessionStats(m, m, m, 0.0, 0.0, 0.0)) for i, (d, m) in enumerate(zip(*columns))]
    rows, rho = min_rtt_vs_pop_distance(items)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on a constant column
        want = stats.spearmanr([r[1] for r in rows], [r[2] for r in rows]).statistic
    if math.isnan(want):
        assert math.isnan(rho)
    else:
        assert abs(rho - want) <= 1e-12


# ------------------------------------------------------------- simnet

@st.composite
def event_scenarios(draw):
    """A scenario with disjoint grid events of both delta kinds, maybe a flap."""
    duration_s = 15 * draw(st.integers(4, 200))
    slots = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 6)), max_size=12))
    events = []
    at = 0
    for gap, length in slots:
        at += 15 * gap
        if at + 15 * length > duration_s:
            break
        ev = {"at_s": at, "kind": draw(st.sampled_from(simnet.EVENT_KINDS)),
              "duration_s": 15 * length}
        if draw(st.booleans()):
            ev["new_rtt_ms"] = draw(st.floats(1.0, 200.0))
        else:
            ev["delta_ms"] = draw(st.floats(-20.0, 80.0))
        events.append(ev)
        at += 15 * length
    obj = scenario_dict(
        duration_s=duration_s, events=events, seed=draw(st.integers(0, 2**63)),
        jitter={"dist": draw(st.sampled_from(simnet.JITTER_DISTS)),
                "sigma_ms": draw(st.sampled_from([0.0, 0.4])),
                "satellite_sigma_ms": draw(st.sampled_from([0.0, 1.5]))},
        loss_probability=draw(st.sampled_from([0.0, 0.2])))
    if draw(st.booleans()):
        every = draw(st.integers(2, 60))
        obj["hop_flap"] = {"every_s": every, "duration_s": draw(st.integers(1, every - 1))}
    return simnet.build_scenario(obj)


def boundary_times(scenario):
    for ev in scenario.events:
        yield from (ev.at_s, ev.end_s - 0.001, ev.end_s, ev.at_s - 0.001)


@given(event_scenarios(), st.lists(st.floats(-10.0, 3100.0), max_size=20))
@settings(max_examples=150, deadline=None)
def test_event_lookup_equals_linear_scan(scenario, extra_times):
    for t_s in [*boundary_times(scenario), 0.0, float(scenario.duration_s), *extra_times]:
        assert scenario.satellite_delta_ms(t_s) == oracle_satellite_delta_ms(scenario, t_s)


@given(event_scenarios(), st.lists(st.integers(0, 3_100_000), max_size=15),
       st.sampled_from(simnet.PROTOCOLS))
@settings(max_examples=100, deadline=None)
def test_probe_replies_equal_per_probe_chain(scenario, times_ms, protocol):
    edges = [int(t * 1000) for t in boundary_times(scenario)]
    for t_ms in edges + times_ms:
        for ttl in range(1, scenario.path_length + 3):
            reply = respond_to_probe(scenario, scenario.target_address, ttl, t_ms,
                                     protocol=protocol)
            got = None if reply is None else (reply.responder, reply.rtt_us, reply.kind)
            assert got == oracle_respond_to_probe(scenario, scenario.target_address, ttl,
                                                  t_ms, protocol=protocol)


def oracle_probe_ticks(transport, target, hops, start_ms, cadence_hz, n_ticks):
    """The session as a per-tick loop over ``probe()``: send times, RTTs
    with lost and wrong-responder replies NaN, and the wrong replies per TTL."""
    sent_ms = np.zeros((len(hops), n_ticks), dtype=np.int64)
    rtt_us = np.full((len(hops), n_ticks), np.nan)
    wrong = {}
    for k in range(n_ticks):
        transport.sleep_until_ms(start_ms + (k * 1000) // cadence_hz)
        for hop, (ttl, responder) in enumerate(hops):
            sent_ms[hop, k] = transport.now_ms()
            reply = transport.probe(target, ttl)
            if reply is not None and reply.responder == responder:
                rtt_us[hop, k] = reply.rtt_us
            elif reply is not None:
                wrong[ttl] = wrong.get(ttl, 0) + 1
    return sent_ms, rtt_us, wrong


@st.composite
def session_runs(draw):
    """A scenario, a transport protocol, a session schedule and the probes
    sent before it, which leave a fractional clock as a traceroute does."""
    scenario = draw(event_scenarios())
    protocols = draw(st.lists(st.sampled_from(simnet.PROTOCOLS), min_size=1, unique=True))
    scenario = replace(scenario, target_protocols=tuple(protocols))
    addresses = [h.address for h in scenario.hops] + ["10.255.255.1", "192.0.2.1"]
    hops = draw(st.lists(st.tuples(st.integers(1, scenario.path_length + 2),
                                   st.sampled_from(addresses)), min_size=1, max_size=3))
    return dict(
        scenario=scenario, protocol=draw(st.sampled_from(simnet.PROTOCOLS)),
        before=draw(st.lists(st.integers(1, scenario.path_length + 1), max_size=6)),
        target=draw(st.sampled_from([scenario.target_address, scenario.target_address,
                                     "192.0.2.1"])),
        hops=tuple(hops), cadence_hz=draw(st.integers(1, 10)),
        n_ticks=draw(st.integers(1, 80)))


def session_transport(run):
    transport = simnet.SimnetTransport(run["scenario"], protocol=run["protocol"], timeout_s=2.0)
    for ttl in run["before"]:
        transport.probe(run["scenario"].target_address, ttl)
    return transport


def session_state(transport, sent_ms, rtt_us):
    return (sent_ms.tolist(), rtt_us.tobytes(), transport.clock._now_ms, transport.probes_sent,
            transport.sat_probe_count, dict(transport.wrong_responders))


@given(session_runs())
@settings(max_examples=150, deadline=None)
def test_session_call_equals_per_tick_probe_loop(run):
    # Cadences that do not divide 1000, 2 s timeouts that overrun ticks,
    # loss, flaps, lognormal jitter, new_rtt_ms events, refused protocols
    # and wrong responders: the one call answers as the loop does.
    schedule = (run["target"], run["hops"])
    fast = session_transport(run)
    start_ms = fast.now_ms()
    got = session_state(fast, *fast.probe_ticks(*schedule, start_ms, run["cadence_hz"],
                                                run["n_ticks"]))
    slow = session_transport(run)
    assert slow.now_ms() == start_ms
    sent_ms, rtt_us, wrong = oracle_probe_ticks(slow, *schedule, start_ms, run["cadence_hz"],
                                                run["n_ticks"])
    slow.wrong_responders.update(wrong)
    assert got == session_state(slow, sent_ms, rtt_us)
    # the transport-agnostic loop raw sockets use answers the same
    each = session_transport(run)
    assert session_state(each, *probe.probe_each_tick(each, *schedule, start_ms,
                                                      run["cadence_hz"], run["n_ticks"])) == got


def test_session_clock_advances_as_probe_does():
    # probe() advances the clock by rtt_us / 1000, which is not always
    # rtt_ms: on this path the two hops' RTTs (4.62 and 38.84 ms) sum to
    # one ulp apart the two ways, so the session must take the same route.
    scenario = simnet.build_scenario(scenario_dict(base_latencies_ms=[0.92, 1.39, 17.11]))
    schedule = ("100.64.9.1", ((2, "10.0.0.2"), (3, "100.64.9.1")), 0, 1, 1)
    fast, slow = simnet.SimnetTransport(scenario), simnet.SimnetTransport(scenario)
    fast.probe_ticks(*schedule)
    oracle_probe_ticks(slow, *schedule)
    assert fast.clock._now_ms == slow.clock._now_ms
    rtt_ms = [simnet._probe_core(scenario, "icmp")(ttl, 0)[2] for ttl in (2, 3)]
    assert slow.clock._now_ms != 0.0 + rtt_ms[0] + rtt_ms[1]


def test_concurrent_sessions_share_no_generator():
    # Transports probing on more threads than cores, switching often,
    # answer as each does alone: the generator each reseeds per probe is
    # its own.
    def scenario(seed):
        return simnet.build_scenario(scenario_dict(
            seed=seed, duration_s=3000, loss_probability=0.1,
            jitter={"dist": "gaussian", "sigma_ms": 0.4, "satellite_sigma_ms": 1.5}))

    def session(seed):
        transport = simnet.SimnetTransport(scenario(seed))
        return session_state(transport, *transport.probe_ticks(
            "100.64.9.1", ((2, "10.0.0.2"), (3, "100.64.9.1")), 0, 1, 3000))

    seeds = (1, 2, 3)
    alone = [session(seed) for seed in seeds]
    together = [None] * len(seeds)

    def run(i):
        together[i] = session(seeds[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(seeds))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert together == alone


# ------------------------------------------------------- store, isolation

rtts = st.one_of(st.none(), st.floats(0.0, 3e6), st.sampled_from([0.05, 0.25, 12345.65]))
# RTTs that survive session.csv's one decimal exactly
tenths = st.one_of(st.none(), st.integers(0, 30_000_000).map(lambda k: k / 10))
targets = st.sampled_from(["100.64.9.1", "2001:db8::1", 'odd,"name"', "a\nb", "#x"])


def make_session(ticks, target="100.64.9.1"):
    """ticks: (gap, terrestrial rtt, endpoint rtt); None is a lost probe.

    The endpoint probe leaves when the terrestrial one returned, sometimes
    in the same millisecond, and the next tick may start in that one too.
    """
    path = SatLinkPath(target=target, pre_sat_ttl=2, pre_sat_router="10.0.0.2",
                       post_sat_ttl=3, jump_ms=25.0)
    terr_ms, endp_ms = [], []
    t = 0
    for gap, _, _ in ticks:
        terr_ms.append(t)
        t += gap % 3
        endp_ms.append(t)
        t += gap
    terr, endp = ([math.nan if v is None else v for v in hop] for hop in
                  ([terr for _, terr, _ in ticks], [endp for _, _, endp in ticks]))
    return MeasurementSession(
        endpoint=Endpoint(address="100.64.9.1", pop_code="sttlwax1", pop_location=None),
        path=path, start_ms=0, duration_s=len(ticks), cadence_hz=1,
        terrestrial_sent_ms=terr_ms, terrestrial_rtt_us=terr,
        endpoint_sent_ms=endp_ms, endpoint_rtt_us=endp)


@given(st.lists(st.tuples(st.integers(0, 2500), rtts, rtts), min_size=1, max_size=60),
       targets)
@settings(max_examples=60, deadline=None)
def test_session_csv_equals_sorted_csv_writer(tmp_path_factory, ticks, target):
    session = make_session(ticks, target)
    store = MeasurementStore(tmp_path_factory.mktemp("store"))
    written = store.write_session(store.new_partition("p"), session, config_hash="x")
    terrestrial, endpoint = samples_of(session)
    assert written.read_bytes() == oracle_session_csv(target, terrestrial, endpoint)
    assert written.read_bytes() == oracle_merged_csv(target, terrestrial, endpoint)


@given(st.lists(st.tuples(st.integers(0, 2500), tenths, tenths), min_size=1, max_size=60),
       targets)
@settings(max_examples=60, deadline=None)
def test_read_session_round_trips_arrays(tmp_path_factory, ticks, target):
    session = make_session(ticks, target)
    store = MeasurementStore(tmp_path_factory.mktemp("store"))
    store.write_session(store.new_partition("p"), session, config_hash="x")
    loaded = store.read_session(store.sessions()[0])
    for name in ("terrestrial_sent_ms", "terrestrial_rtt_us",
                 "endpoint_sent_ms", "endpoint_rtt_us"):
        got, want = getattr(loaded, name), getattr(session, name)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want, equal_nan=True)


@given(st.lists(st.tuples(rtts, rtts), min_size=1, max_size=120))
@settings(max_examples=150, deadline=None)
def test_isolation_equals_per_sample_loop(pairs):
    # Both hops of a tick sent in the same millisecond.
    session = make_session([(1000, terr, endp) for terr, endp in pairs])
    session.endpoint_sent_ms = session.terrestrial_sent_ms.copy()
    timestamps, values, clamped = oracle_isolate(*samples_of(session))
    if not session.usable:
        with pytest.raises(SessionUnusableError):
            isolate_satellite_latency(session)
    elif not values:
        with pytest.raises(EmptySeriesError):
            isolate_satellite_latency(session)
    else:
        series, got_clamped = isolate_satellite_latency(session)
        assert np.array_equal(series.timestamps_ms, np.array(timestamps, dtype=np.int64))
        assert series.values_ms.tolist() == values
        assert got_clamped == clamped


# ------------------------------------------------------- constellation

shells = st.builds(Shell, altitude_km=st.floats(300.0, 2000.0),
                   inclination_deg=st.floats(0.0, 180.0), n_orbits=st.integers(1, 8),
                   sats_per_orbit=st.integers(1, 10), phase_offset_deg=st.floats(0.0, 30.0))
configs = st.builds(lambda shells, epoch: ConstellationConfig(shells=tuple(shells), epoch_s=epoch),
                    st.lists(shells, min_size=1, max_size=2), st.floats(-5000.0, 5000.0))
# the poles exactly, where the local east vector falls back to +x
latitudes = st.one_of(st.sampled_from([90.0, -90.0]), st.floats(-90.0, 90.0))
longitudes = st.floats(-180.0, 180.0)
dishes = st.builds(DishSite, latitude=latitudes, longitude=longitudes,
                   altitude_m=st.floats(0.0, 3000.0), boresight_azimuth_deg=st.floats(-360.0, 360.0))
offsets = st.floats(-25.0, 25.0)
max_slants = st.floats(300.0, 9000.0)
min_elevations = st.floats(-20.0, 80.0)


def ground_station(dish, dlat, dlon):
    """A ground station near the dish, its latitude folded into [-90, 90]."""
    return GroundStation(latitude=max(-90.0, min(90.0, dish.latitude + dlat)),
                         longitude=dish.longitude + dlon)


def state(arrays, i):
    positions, shell_ix, orbit_ix, slot_ix = arrays
    return SatelliteState(int(shell_ix[i]), int(orbit_ix[i]), int(slot_ix[i]),
                          tuple(float(x) for x in positions[i]))


@given(configs, st.lists(st.floats(-20_000.0, 20_000.0), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_propagate_many_equals_per_step_propagation(config, times):
    block = propagate_many(config, times)
    assert block.shape == (len(times), config.n_satellites, 3)
    for t, positions in zip(times, block):
        want = oracle_propagate(config, t)
        assert np.array_equal(positions, want[0])
        snap = propagate(config, t)
        assert np.array_equal(snap.positions, want[0])


@given(configs, st.floats(0.0, 20_000.0), dishes, offsets, offsets, max_slants, min_elevations)
@settings(max_examples=300, deadline=None)
def test_selection_equals_per_snapshot_oracle(config, t_s, dish, dlat, dlon,
                                              max_slant, min_elev):
    gs = ground_station(dish, dlat, dlon)
    arrays = oracle_propagate(config, t_s)
    snap = propagate(config, t_s)
    mask = dict(max_slant_km=max_slant, min_elevation_deg=min_elev)
    want_best, want_worst, want_threshold = oracle_selection(
        dish, gs, t_s, config.epoch_s, arrays[0], max_slant, min_elev)
    for rule, want in ((best_case_rtt, want_best), (worst_case_rtt, want_worst)):
        if want is None:
            with pytest.raises(NoCoverageError):
                rule(dish, gs, snap, **mask)
        else:
            rtt, sat = rule(dish, gs, snap, **mask)
            assert (rtt, sat) == (want[0], state(arrays, want[1]))
    if want_threshold is None:
        with pytest.raises(NoCoverageError):
            min_isl_ng_threshold(dish, gs, snap, **mask)
    else:
        assert min_isl_ng_threshold(dish, gs, snap, **mask) == want_threshold
    for site in (dish, gs):
        for fov in (False, True):
            want_mask, _ = oracle_visible(site, t_s, config.epoch_s, arrays[0],
                                          max_slant, min_elev, fov)
            got = visible_satellites(site, snap, apply_fov=fov, **mask)
            assert got == [state(arrays, i) for i in np.flatnonzero(want_mask)]


@st.composite
def study_cases(draw):
    dish = draw(dishes)
    config = draw(configs)
    # 1 to ~60 steps per period, so some sweeps span several blocks
    step = config.shells[0].period_s / draw(st.floats(0.9, 60.0))
    return StudyCase(label="drawn", dish=dish,
                     access_gs=ground_station(dish, draw(offsets), draw(offsets)),
                     pop=GroundStation(0.0, 0.0), landing_gs=None, terrestrial_rtt_ms=None,
                     max_slant_km=draw(max_slants), min_elevation_deg=draw(min_elevations),
                     sample_step_s=step, config=config)


def partly_covered_case():
    """A sparse shell over a polar dish: some steps see a pair, some none."""
    config = ConstellationConfig(shells=(Shell(550.0, 97.0, 3, 4, 7.0),))
    dish = DishSite(90.0, 0.0, boresight_azimuth_deg=40.0)
    return StudyCase(label="sparse", dish=dish, access_gs=GroundStation(84.0, 30.0),
                     pop=GroundStation(0.0, 0.0), landing_gs=None, terrestrial_rtt_ms=None,
                     max_slant_km=3000.0, min_elevation_deg=5.0,
                     sample_step_s=config.shells[0].period_s / 50, config=config)


@given(study_cases())
@example(partly_covered_case())
@settings(max_examples=60, deadline=None)
def test_evaluate_case_equals_per_step_sweep(case):
    want = oracle_evaluate_case(case)
    if want is None:
        with pytest.raises(NoCoverageError):
            evaluate_case(case)
    else:
        assert evaluate_case(case) == want


def test_partly_covered_case_has_steps_with_and_without_coverage():
    summary = oracle_evaluate_case(partly_covered_case())
    assert summary is not None
    assert summary.n_samples > constellation._BLOCK_STEPS
    assert 0 < summary.n_no_coverage < summary.n_samples


def test_evaluate_case_equals_per_step_sweep_on_nigeria():
    case = StudyCase.nigeria()
    assert evaluate_case(case) == oracle_evaluate_case(case)


polar_and_retrograde = st.builds(
    Shell, altitude_km=st.floats(300.0, 2000.0),
    inclination_deg=st.one_of(st.sampled_from([0.0, 53.0, 90.0, 97.6, 180.0]),
                              st.floats(0.0, 180.0)),
    n_orbits=st.integers(1, 12), sats_per_orbit=st.integers(1, 40),
    phase_offset_deg=st.floats(0.0, 30.0))


@given(st.lists(polar_and_retrograde, min_size=1, max_size=2), st.floats(-5000.0, 5000.0),
       st.floats(-20_000.0, 20_000.0), st.lists(dishes, min_size=1, max_size=3),
       st.one_of(st.floats(300.0, 20_000.0), st.integers(0, 10_000)))
@settings(max_examples=300, deadline=None)
def test_plane_cull_keeps_every_satellite_within_the_slant_limit(shells, epoch, t_s, sites,
                                                                  limit):
    config = ConstellationConfig(shells=tuple(shells), epoch_s=epoch)
    positions = oracle_propagate(config, t_s)[0]
    site_pos = np.array([oracle_site_position(site, t_s, epoch) for site in sites])
    slant = np.array([oracle_look_angles(pos, positions)[0] for pos in site_pos])
    # A float is a limit; an integer picks a satellite whose slant is the limit.
    max_slant = limit if isinstance(limit, float) else float(slant.ravel()[limit % slant.size])
    rows = constellation._cull(config, site_pos, max_slant)
    assert np.all(np.diff(rows) > 0)
    assert set(np.flatnonzero((slant <= max_slant).any(axis=0))) <= set(rows.tolist())
    if max_slant >= 2.0 * max(shell.semi_major_axis_km for shell in shells):
        assert len(rows) == config.n_satellites


def test_site_no_plane_comes_near_has_no_candidates():
    # The 53 deg shell comes no closer than about 4,250 km to the pole.
    config = ConstellationConfig.default()
    snap = propagate(config, 0.0)
    dish, gs = DishSite(90.0, 0.0), GroundStation(90.0, 0.0)
    sites = constellation._site_positions([dish], [0.0], config.epoch_s)[0]
    assert len(constellation._cull(config, sites, 600.0)) == 0
    for rule in (best_case_rtt, worst_case_rtt, min_isl_ng_threshold):
        with pytest.raises(NoCoverageError):
            rule(dish, gs, snap, max_slant_km=600.0)
    assert visible_satellites(dish, snap, max_slant_km=600.0) == []


def test_one_plane_cull_rounds_as_the_full_sky():
    # Within this slant limit only the plane of satellite 1 comes near the
    # site.  Over one row the look's matrix product is a dot product, which
    # rounds that satellite's elevation two units in the last place above
    # the oracle's; one unit above the oracle's value must still hide it.
    config = ConstellationConfig(shells=(Shell(550.0, 53.0, 12, 1),))
    site, t_s = GroundStation(29.3, 55.7), 576.4
    arrays = oracle_propagate(config, t_s)
    slant, elevation, _ = oracle_look_angles(
        oracle_site_position(site, t_s, config.epoch_s), arrays[0])
    snap = propagate(config, t_s)
    for min_elev in (elevation[1], np.nextafter(elevation[1], 90.0)):
        mask = dict(max_slant_km=float(slant[1]) + 1.0, min_elevation_deg=float(min_elev))
        want, _ = oracle_visible(site, t_s, config.epoch_s, arrays[0], apply_fov=False, **mask)
        got = visible_satellites(site, snap, apply_fov=False, **mask)
        assert got == [state(arrays, k) for k in np.flatnonzero(want)]


def test_one_plane_cull_rounds_as_the_full_sky_for_joint_queries():
    # A dish and a ground station at the site above: only the plane of
    # satellite 1 comes near both, so both joint rules see what the full
    # sky sees.  At one unit above the oracle's elevation neither site sees
    # it; at the oracle's value both do, yet no second satellite makes a pair.
    config = ConstellationConfig(shells=(Shell(550.0, 53.0, 12, 1),))
    dish, gs, t_s = DishSite(29.3, 55.7), GroundStation(29.3, 55.7), 576.4
    arrays = oracle_propagate(config, t_s)
    slant, elevation, _ = oracle_look_angles(
        oracle_site_position(gs, t_s, config.epoch_s), arrays[0])
    snap = propagate(config, t_s)
    covered = []
    for min_elev in (elevation[1], np.nextafter(elevation[1], 90.0)):
        mask = dict(max_slant_km=float(slant[1]) + 1.0, min_elevation_deg=float(min_elev))
        want, _, _ = oracle_selection(dish, gs, t_s, config.epoch_s, arrays[0],
                                      mask["max_slant_km"], mask["min_elevation_deg"])
        covered.append(want is not None)
        if want is None:
            with pytest.raises(NoCoverageError):
                best_case_rtt(dish, gs, snap, **mask)
        else:
            assert best_case_rtt(dish, gs, snap, **mask) == (want[0], state(arrays, want[1]))
        why = "no two-satellite path" if want else "no satellite visible at one of the endpoints"
        with pytest.raises(NoCoverageError, match=why):
            min_isl_ng_threshold(dish, gs, snap, **mask)
    assert covered == [True, False]


@given(st.floats(-52.0, 52.0), longitudes, st.lists(st.floats(-2.5, 2.5), min_size=2, max_size=2),
       st.lists(st.floats(-12.0, 12.0), min_size=2, max_size=2),
       st.one_of(st.none(), st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2)),
       st.integers(0, 2), st.floats(0.0, 6000.0), max_slants, min_elevations)
@settings(max_examples=150, deadline=None)
def test_composite_access_term_equals_per_snapshot_oracle(lat, lon, to_gs, to_pop, to_landing,
                                                          extra, t_s, max_slant, min_elev):
    # The a07 recipe: access ground station near the dish, POP up to 12 deg
    # away, a relay route or an inter-satellite one landing near the POP.
    config = ConstellationConfig.default()
    dish = DishSite(lat, lon)
    gs = GroundStation(lat + to_gs[0], lon + to_gs[1])
    pop = GroundStation(lat + to_pop[0], lon + to_pop[1], label="pop")
    landing = (None if to_landing is None
               else GroundStation(pop.latitude + to_landing[0], pop.longitude + to_landing[1]))
    look = (t_s, config.epoch_s, oracle_propagate(config, t_s)[0], max_slant, min_elev, False)
    dish_mask, dish_slant = oracle_visible(dish, *look)
    gs_mask, gs_slant = oracle_visible(gs, *look)
    best = np.where(dish_mask & gs_mask, dish_slant + gs_slant, np.inf).min(initial=np.inf)
    route = dict(route_kind="relay" if landing is None else "isl", landing_gs=landing,
                 extra_isl_hops=extra, max_slant_km=max_slant, min_elevation_deg=min_elev)
    if not np.isfinite(best):
        with pytest.raises(NoCoverageError):
            composite_route_rtt(dish, gs, pop, snapshot=propagate(config, t_s), **route)
    else:
        got = composite_route_rtt(dish, gs, pop, snapshot=propagate(config, t_s), **route)
        assert got == composite_route_rtt(dish, gs, pop, config=config,
                                          access_rtt_ms=vacuum_rtt_ms(float(best)), **route)
        access = got.segments[:1 if landing is None else 2]
        assert [seg.rtt_ms for seg in access] == [vacuum_rtt_ms(float(best))] * len(access)


@pytest.mark.parametrize("site", [DishSite(6.45, 3.39, boresight_azimuth_deg=-22.0),
                                  GroundStation(-33.9, 151.2, altitude_m=58.0),
                                  DishSite(-90.0, 0.0, boresight_azimuth_deg=10.0)])
def test_visibility_limits_hold_at_the_oracle_values(site):
    # Each limit set to one satellite's own slant range, elevation or
    # azimuth, as the per-snapshot code computed them, puts it on the edge
    # of the mask; one unit in the last place either way moves it out.
    # The default shell plus a polar one that passes over the pole site:
    config = ConstellationConfig(shells=(*ConstellationConfig.default().shells,
                                         Shell(560.0, 97.6, 6, 20, 1.0)))
    t_s = 1234.5
    snap = propagate(config, t_s)
    arrays = oracle_propagate(config, t_s)
    slant, elevation, azimuth = oracle_look_angles(
        oracle_site_position(site, t_s, config.epoch_s), arrays[0])
    near = np.flatnonzero(slant <= 3000.0)
    assert len(near) >= 5
    for i in near:
        edges = [(site, dict(max_slant_km=float(slant[i]), min_elevation_deg=-90.0)),
                 (site, dict(max_slant_km=3000.0, min_elevation_deg=float(elevation[i])))]
        if isinstance(site, DishSite):
            edges.append((replace(site, boresight_azimuth_deg=float(azimuth[i])),
                          dict(max_slant_km=3000.0, min_elevation_deg=-90.0)))
        for edge_site, mask in edges:
            for fov in (False, True):
                want, _ = oracle_visible(edge_site, t_s, config.epoch_s, arrays[0],
                                         apply_fov=fov, **mask)
                got = visible_satellites(edge_site, snap, apply_fov=fov, **mask)
                assert got == [state(arrays, k) for k in np.flatnonzero(want)]
