"""The fast paths against the scalar code they replaced.

Each oracle below is the earlier, obviously correct implementation: a
per-tick ``np.median`` loop for ``smooth``, a ``while`` loop for
``_maximal_runs``, a linear event scan and a per-probe hop chain for the
simulator, a per-sample loop for isolation, and for the session store a
sort-then-``csv.writer`` pass and a ``heapq.merge`` of per-sample lists.
The fast code must agree with them exactly, not approximately.
"""
import csv
import heapq
import io
import math
from collections import namedtuple
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leolink import simnet
from leolink.analysis import (
    EmptySeriesError,
    LatencySeries,
    SessionUnusableError,
    _maximal_runs,
    isolate_satellite_latency,
    smooth,
)
from leolink.discovery import Endpoint
from leolink.probe import MeasurementSession, SatLinkPath
from leolink.store import MeasurementStore
from tests.conftest import scenario_dict

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


def oracle_respond_to_probe(scenario, target, ttl, t_ms, *, protocol="icmp", flow_id=0):
    """The reply with the hop chain rebuilt on every probe."""
    if target != scenario.target_address:
        return None
    t_s = t_ms / 1000.0
    rng = simnet._probe_rng(scenario.seed, t_ms, ttl, flow_id, protocol)
    if scenario.loss_probability > 0 and rng.random() < scenario.loss_probability:
        return None
    delta, _ = oracle_satellite_delta_ms(scenario, t_s)
    chain = []
    for i, hop in enumerate(scenario.hops):
        chain.append((hop, scenario.base_latencies_ms[i], (i + 1) == scenario.pre_sat + 1))
    if scenario.flap_active(t_s):
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
       st.integers(0, 3), st.sampled_from(simnet.PROTOCOLS))
@settings(max_examples=100, deadline=None)
def test_probe_replies_equal_per_probe_chain(scenario, times_ms, flow_id, protocol):
    edges = [int(t * 1000) for t in boundary_times(scenario)]
    for t_ms in edges + times_ms:
        for ttl in range(1, scenario.path_length + 3):
            reply = simnet.respond_to_probe(scenario, scenario.target_address, ttl, t_ms,
                                            protocol=protocol, flow_id=flow_id)
            got = None if reply is None else (reply.responder, reply.rtt_us, reply.kind)
            assert got == oracle_respond_to_probe(scenario, scenario.target_address, ttl,
                                                  t_ms, protocol=protocol, flow_id=flow_id)


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
