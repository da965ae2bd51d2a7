import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leolink.analysis import (
    KIND_STANDARD,
    KIND_SUSTAINED,
    AnalysisError,
    EmptySeriesError,
    LatencySeries,
    SessionUnusableError,
    aggregate_by_pop,
    detect_spikes,
    isolate_satellite_latency,
    jitter_filter,
    min_rtt_vs_pop_distance,
    session_stats,
    smooth,
    temporal_trend,
    terrestrial_series,
)
from leolink.discovery import Endpoint, PopCatalog, PopLocation
from leolink.probe import MeasurementSession, SatLinkPath

PATH = SatLinkPath(target="98.97.48.115", pre_sat_ttl=2,
                   pre_sat_router="206.224.64.21", post_sat_ttl=3, jump_ms=38.0)
ENDPOINT = Endpoint(address="98.97.48.115", pop_code="sttlwax1")
SEATTLE = PopCatalog({"sttlwax1": PopLocation("Seattle", "US", 47.6062, -122.3321)})


def make_session(pairs, start_ms=0, cadence_hz=1):
    """pairs: per-tick (terrestrial_rtt_us | None, endpoint_rtt_us | None)."""
    sent_ms = start_ms + 1000 * np.arange(len(pairs), dtype=np.int64)
    rtt_us = [[np.nan if v is None else v for v in hop] for hop in zip(*pairs)]
    return MeasurementSession(endpoint=ENDPOINT, path=PATH, start_ms=start_ms,
                              duration_s=len(pairs), cadence_hz=cadence_hz,
                              sent_ms=[sent_ms, sent_ms], rtt_us=rtt_us)


def series(values, start_ms=0, tick_ms=1000):
    ts = start_ms + tick_ms * np.arange(len(values), dtype=np.int64)
    return LatencySeries(ts, np.asarray(values, dtype=np.float64))


# --------------------------------------------------------------- isolation

def test_isolate_subtracts_per_tick():
    session = make_session([(12_000.0, 50_000.0)] * 90)
    isolated, clamped = isolate_satellite_latency(session)
    assert clamped == 0
    assert len(isolated) == 90
    assert np.allclose(isolated.values_ms, 38.0)


def test_isolate_omits_lost_ticks():
    pairs = [(12_000.0, 50_000.0)] * 10
    pairs[3] = (None, 50_000.0)
    pairs[7] = (12_000.0, None)
    isolated, _ = isolate_satellite_latency(make_session(pairs))
    assert len(isolated) == 8
    assert 3000 not in isolated.timestamps_ms
    assert 7000 not in isolated.timestamps_ms


def test_isolate_clamps_negative_differences():
    pairs = [(12_000.0, 50_000.0)] * 6 + [(55_000.0, 50_000.0)] * 2
    isolated, clamped = isolate_satellite_latency(make_session(pairs))
    assert clamped == 2
    assert float(isolated.values_ms.min()) == 0.0


def test_isolate_rejects_unusable_session():
    pairs = [(None, 50_000.0)] * 6 + [(12_000.0, 50_000.0)] * 4
    with pytest.raises(SessionUnusableError):
        isolate_satellite_latency(make_session(pairs))


def test_isolate_rejects_fully_lost_pairing():
    pairs = [(12_000.0, None)] * 4
    with pytest.raises(EmptySeriesError):
        isolate_satellite_latency(make_session(pairs))


def test_terrestrial_series_converts_to_ms():
    session = make_session([(12_500.0, 50_000.0)] * 5)
    terr = terrestrial_series(session)
    assert np.allclose(terr.values_ms, 12.5)


def test_series_requires_increasing_timestamps():
    with pytest.raises(ValueError):
        LatencySeries(np.array([0, 1000, 1000]), np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_series_refuses_non_finite_values(bad):
    # The median kernel partitions without a NaN check, so the series
    # holds none; the message names the first bad index.
    with pytest.raises(ValueError, match=f"value 2 is {bad}"):
        series([1.0, -2.0, bad, 4.0, bad])


# --------------------------------------------------------------- smoothing

def brute_force_smooth(ts, vs, window_s):
    half = window_s * 1000.0 / 2.0
    out = []
    for t in ts:
        member = [v for u, v in zip(ts, vs) if t - half <= u <= t + half]
        out.append(np.median(member))
    return np.array(out)


def test_smooth_is_identity_on_constants():
    s = series([40.0] * 120)
    assert np.array_equal(smooth(s).values_ms, s.values_ms)
    assert np.array_equal(smooth(s).timestamps_ms, s.timestamps_ms)


def test_smooth_removes_single_outlier():
    values = [40.0] * 60
    values[30] = 140.0
    s = series(values)
    smoothed = smooth(s)
    assert np.allclose(smoothed.values_ms, brute_force_smooth(
        s.timestamps_ms, s.values_ms, 15.0))
    assert float(smoothed.values_ms.max()) == 40.0


def test_smooth_keeps_20s_plateau():
    values = [40.0] * 100
    for i in range(50, 70):
        values[i] = 70.0
    smoothed = smooth(series(values))
    # The middle of a 20 s plateau outlives a 15 s median window.
    assert smoothed.values_ms[60] == 70.0
    assert np.allclose(smoothed.values_ms, brute_force_smooth(
        smoothed.timestamps_ms, values, 15.0))


def test_smooth_rejects_nonpositive_window():
    with pytest.raises(ValueError):
        smooth(series([1.0, 2.0]), window_s=0.0)


def test_smooth_rejects_nan_window():
    with pytest.raises(ValueError, match="window_s must be positive"):
        smooth(series([1.0, 2.0]), window_s=float("nan"))


def test_smooth_exact_idempotence_on_long_plateaus():
    values = [30.0] * 40 + [55.0] * 40 + [30.0] * 40
    once = smooth(series(values))
    twice = smooth(once)
    assert np.array_equal(once.values_ms, twice.values_ms)


@given(st.lists(st.floats(min_value=0.0, max_value=500.0), min_size=1, max_size=80))
@settings(max_examples=60)
def test_smooth_stays_within_value_bounds(values):
    smoothed = smooth(series(values))
    assert smoothed.values_ms.min() >= min(values) - 1e-9
    assert smoothed.values_ms.max() <= max(values) + 1e-9


# ----------------------------------------------------------- spike taxonomy

def alternating_baseline(n, low=37.0, high=43.0):
    return [low if i % 2 == 0 else high for i in range(n)]


def test_flat_series_has_no_spikes():
    assert detect_spikes(series([40.0] * 120)) == []


def test_short_series_rejected():
    with pytest.raises(AnalysisError):
        detect_spikes(series([40.0, 41.0] * 10))


def test_short_series_states_its_span_to_the_millisecond():
    # 1 ms short of the bound, counting one 15 s tick past the last sample:
    # the span must not round up to the bound it misses
    short = LatencySeries(np.array([0, 15_000, 30_000, 44_999]),
                          np.array([40.0, 41.0, 40.0, 41.0]))
    with pytest.raises(AnalysisError) as info:
        detect_spikes(short)
    assert str(info.value) == "series spans 59.999 s; need at least 60 s for a baseline"


def test_sustained_spike_20s_excursion():
    values = alternating_baseline(600)
    for i in range(300, 320):
        values[i] = 120.0
    events = detect_spikes(series(values))
    assert len(events) == 1
    event = events[0]
    assert event.kind == KIND_SUSTAINED
    assert event.start_ms == 300_000
    assert event.end_ms == 320_000
    assert event.duration_ms == 20_000
    assert event.peak_ms == 120.0
    assert event.baseline_median_ms == 43.0


def test_standard_spike_10s_excursion():
    values = alternating_baseline(600)
    for i in range(300, 310):
        values[i] = 120.0
    events = detect_spikes(series(values))
    assert [e.kind for e in events] == [KIND_STANDARD]
    assert events[0].duration_ms == 10_000


def test_mixed_run_splits_into_sustained_segments():
    # One long 1-sigma run containing two separated 2-sigma cores, each
    # long enough to sustain: both report as sustained events.
    values = alternating_baseline(900)
    for i in range(300, 380):
        values[i] = 60.0   # above 1 sigma, below 2 sigma
    for i in range(310, 330):
        values[i] = 130.0
    for i in range(350, 370):
        values[i] = 130.0
    events = detect_spikes(series(values))
    kinds = [e.kind for e in events]
    assert kinds == [KIND_SUSTAINED, KIND_SUSTAINED]
    assert events[0].start_ms == 310_000 and events[0].end_ms == 330_000
    assert events[1].start_ms == 350_000 and events[1].end_ms == 370_000


def test_events_disjoint_and_sorted():
    rng = np.random.default_rng(11)
    values = list(40.0 + rng.normal(0.0, 1.0, size=1200))
    for start in (100, 400, 800):
        for i in range(start, start + 25):
            values[i] = 90.0
    events = detect_spikes(series(values))
    assert len(events) == 3
    for a, b in zip(events, events[1:]):
        assert a.end_ms <= b.start_ms


@given(st.floats(min_value=-500.0, max_value=500.0))
@settings(max_examples=40)
def test_detection_translation_invariant(shift):
    values = alternating_baseline(300)
    for i in range(100, 120):
        values[i] = 120.0
    base_events = detect_spikes(series(values))
    shifted_events = detect_spikes(series([v + shift for v in values]))
    assert len(base_events) == len(shifted_events)
    for a, b in zip(base_events, shifted_events):
        assert (a.start_ms, a.end_ms, a.kind) == (b.start_ms, b.end_ms, b.kind)
        assert b.baseline_median_ms == pytest.approx(a.baseline_median_ms + shift)


# ------------------------------------------------------------ jitter screen

def test_jitter_filter_drops_jittery_terrestrial():
    flat = series([12.0] * 100)
    spiky = series([12.0] * 50 + [22.0] + [12.0] * 49)
    exactly_one = series([12.0] * 99 + [13.0])
    kept = jitter_filter([
        (Endpoint(address="a", pop_code="sttlwax1"), flat),
        (Endpoint(address="b", pop_code="sttlwax1"), spiky),
        (Endpoint(address="c", pop_code="sttlwax1"), exactly_one),
    ])
    assert [e.address for e in kept] == ["a", "c"]


def test_jitter_filter_skips_empty_series():
    empty = LatencySeries(np.array([], dtype=np.int64), np.array([]))
    assert jitter_filter([(ENDPOINT, empty)]) == []


# ------------------------------------------------------------------- stats

def test_session_stats_values():
    s = series([30.0, 40.0, 50.0, 40.0])
    st_ = session_stats(s, expected_ticks=5)
    assert st_.min_ms == 30.0
    assert st_.median_ms == 40.0
    assert st_.mean_ms == 40.0
    assert st_.stddev_ms == pytest.approx(float(np.std([30, 40, 50, 40])))
    assert st_.loss_fraction == pytest.approx(0.2)


def test_session_stats_spike_fraction():
    values = alternating_baseline(600)
    for i in range(300, 320):
        values[i] = 120.0
    s = series(values)
    events = detect_spikes(s)
    st_ = session_stats(s, spikes=events)
    # 20 s of spike across a 600 s session.
    assert st_.spike_time_fraction == pytest.approx(20.0 / 600.0)


def test_session_stats_rejects_empty():
    with pytest.raises(EmptySeriesError):
        session_stats(LatencySeries(np.array([], dtype=np.int64), np.array([])))


def test_aggregate_single_endpoint_identity():
    st_ = session_stats(series([30.0, 40.0, 50.0]))
    aggs = aggregate_by_pop([(ENDPOINT, st_)])
    assert len(aggs) == 1
    assert aggs[0].pop_code == "sttlwax1"
    assert aggs[0].n_endpoints == 1
    assert aggs[0].mean_of_means_ms == st_.mean_ms
    assert aggs[0].stddev_of_means_ms == 0.0


def test_aggregate_groups_and_sorts_by_pop():
    items = [
        (Endpoint(address="a", pop_code="sttlwax1"), session_stats(series([40.0, 42.0]))),
        (Endpoint(address="b", pop_code="atlagax1"), session_stats(series([30.0, 30.0]))),
        (Endpoint(address="c", pop_code="sttlwax1"), session_stats(series([44.0, 46.0]))),
    ]
    aggs = aggregate_by_pop(items)
    assert [a.pop_code for a in aggs] == ["atlagax1", "sttlwax1"]
    assert aggs[1].n_endpoints == 2
    assert aggs[1].mean_of_means_ms == pytest.approx((41.0 + 45.0) / 2)


def test_temporal_trend_25_percent_decrease():
    def day(median):
        return [session_stats(series([median] * 4))]
    trend = temporal_trend([("2024-01-15", day(300.0)), ("2023-03-01", day(400.0))])
    assert [d for d, _ in trend] == ["2023-03-01", "2024-01-15"]
    first, last = trend[0][1], trend[-1][1]
    assert (first - last) / first == pytest.approx(0.25)


# ------------------------------------------------------- distance correlation

def endpoint_at(address, lat, lon):
    return Endpoint(address=address, pop_code="sttlwax1", customer_location=(lat, lon))


def test_min_rtt_distance_zero_at_pop():
    ep = endpoint_at("a", 47.6062, -122.3321)
    rows, rho = min_rtt_vs_pop_distance([(ep, session_stats(series([40.0])))], SEATTLE)
    assert rows[0][1] == pytest.approx(0.0, abs=1e-9)
    assert rho is None  # a single point has no rank correlation


def test_min_rtt_distance_monotone_gives_rho_one():
    items = []
    for i, (lat, rtt) in enumerate([(47.6, 30.0), (44.0, 40.0), (40.0, 50.0),
                                    (35.0, 60.0)]):
        items.append((endpoint_at(f"e{i}", lat, -122.3321),
                      session_stats(series([rtt] * 3))))
    rows, rho = min_rtt_vs_pop_distance(items, SEATTLE)
    assert len(rows) == 4
    assert rho == pytest.approx(1.0)


def test_min_rtt_distance_skips_unlocated():
    located = (endpoint_at("a", 47.0, -122.0), session_stats(series([40.0])))
    missing = (Endpoint(address="b", pop_code="sttlwax1"), session_stats(series([40.0])))
    # located, but its POP is not in the catalog
    uncatalogued = (Endpoint(address="c", pop_code="lgosnga1", customer_location=(6.5, 3.4)),
                    session_stats(series([40.0])))
    rows, _ = min_rtt_vs_pop_distance([located, missing, uncatalogued], SEATTLE)
    assert [r[0] for r in rows] == ["a"]
