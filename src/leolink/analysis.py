"""Latency isolation, smoothing, spike detection, and cohort statistics.

Per tick, the satellite segment's round trip is the endpoint hop RTT
minus the terrestrial hop RTT measured in the same tick.  The isolated
series is smoothed with a centered moving median before any detection:
a single lost-and-retransmitted frame can throw one tick by tens of
milliseconds without the link state changing.

Spike taxonomy over a smoothed series with session median m and
standard deviation sigma (both computed on the smoothed series):

* sustained spike: a maximal run above m + 2*sigma lasting at least
  15 seconds; these track real route changes.
* standard spike: any other maximal excursion above m + 1*sigma; short
  excursions count as standard even when their peak clears 2*sigma.

Event spans are half-open [start, end): the end is the first tick after
the run, one nominal tick interval past the last sample in it, so a run
of 15 one-second ticks lasts exactly 15 s.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .discovery import Endpoint, PopCatalog
from .geo import haversine_km
from .probe import MeasurementSession

SMOOTHING_WINDOW_S = 15.0
SUSTAINED_MIN_MS = 15_000
SUSTAINED_SIGMA = 2.0
STANDARD_SIGMA = 1.0
JITTER_MAX_DEVIATION_MS = 1.0
MIN_DETECTION_SPAN_MS = 60_000

KIND_SUSTAINED = "sustained"
KIND_STANDARD = "standard"


class AnalysisError(ValueError):
    pass


class EmptySeriesError(AnalysisError):
    """No paired ticks survived; nothing to analyze."""


class SessionUnusableError(AnalysisError):
    """Terrestrial reference loss exceeded the usability bound."""


@dataclass
class LatencySeries:
    """A timestamped latency series in milliseconds."""

    timestamps_ms: np.ndarray  # int64, strictly increasing
    values_ms: np.ndarray      # float64, finite

    def __post_init__(self) -> None:
        self.timestamps_ms = np.asarray(self.timestamps_ms, dtype=np.int64)
        self.values_ms = np.asarray(self.values_ms, dtype=np.float64)
        if self.timestamps_ms.shape != self.values_ms.shape:
            raise ValueError("timestamps and values must align")
        if len(self.timestamps_ms) > 1 and np.any(np.diff(self.timestamps_ms) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        bad = ~np.isfinite(self.values_ms)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"values must be finite; value {i} is {self.values_ms[i]}")

    def __len__(self) -> int:
        return len(self.timestamps_ms)

    @property
    def duration_ms(self) -> float:
        """Half-open, as an event's span: one nominal tick past the last sample."""
        if len(self) == 0:
            return 0.0
        return int(self.timestamps_ms[-1] - self.timestamps_ms[0]) + self.tick_interval_ms()

    def tick_interval_ms(self) -> float:
        """Nominal inter-sample gap; median of the observed gaps."""
        if len(self) < 2:
            return 1000.0
        # np.median averages int64 gaps in float64
        return float(_medians(np.diff(self.timestamps_ms).astype(np.float64)))


@dataclass(frozen=True)
class SpikeEvent:
    start_ms: int
    end_ms: int  # exclusive
    kind: str
    peak_ms: float
    baseline_median_ms: float

    @property
    def duration_ms(self) -> int:
        return self.end_ms - self.start_ms


@dataclass(frozen=True)
class SessionStats:
    min_ms: float
    median_ms: float
    mean_ms: float
    stddev_ms: float
    loss_fraction: float
    spike_time_fraction: float


@dataclass(frozen=True)
class SessionResult:
    n_ticks: int  # paired ticks in the isolated series
    clamped: int
    spikes: list[SpikeEvent]
    stats: SessionStats


@dataclass
class PopAggregate:
    pop_code: str
    n_endpoints: int
    mean_of_means_ms: float
    stddev_of_means_ms: float


def _medians(values: np.ndarray) -> np.ndarray:
    """``np.median(values, axis=-1)`` of NaN-free float64 values, bit for
    bit, from one partition at ``w // 2`` where ``np.median`` partitions
    around three pivots (the middle ranks and the last, for its NaN
    check).  -0.0 and 0.0 tie, so a zero median may differ in sign.

    For an even width the lower middle is the largest value left of the
    pivot, and the two are summed and halved as ``np.median`` does.

    >>> odd, even = np.array([[7.0, 1.0, 4.0]]), np.array([[0.3, 5.0, 0.1, 2.5]])
    >>> _medians(odd), np.median(odd, axis=-1)
    (array([4.]), array([4.]))
    >>> _medians(even), np.median(even, axis=-1)
    (array([1.4]), array([1.4]))
    """
    k = values.shape[-1] // 2
    part = np.partition(values, k, axis=-1)
    upper = part[..., k]
    if values.shape[-1] % 2:
        return upper
    return (part[..., :k].max(axis=-1) + upper) / 2.0


def isolate_satellite_latency(session: MeasurementSession) -> tuple[LatencySeries, int]:
    """Subtract per-tick terrestrial RTT from endpoint RTT.

    Ticks where either probe was lost are omitted.  Occasional negative
    differences (jitter on the terrestrial probe exceeding the satellite
    segment) are clamped to zero and counted; the count is returned with
    the series.  Raises if the session is unusable or no tick paired.
    """
    if not session.usable:
        raise SessionUnusableError(
            f"{session.path.target}: terrestrial loss "
            f"{session.terrestrial_loss_fraction:.0%} exceeds 50%")
    terr, endp = session.rtt_us
    paired = ~(np.isnan(terr) | np.isnan(endp))
    if not paired.any():
        raise EmptySeriesError(f"{session.path.target}: no paired ticks")
    diff_ms = (endp[paired] - terr[paired]) / 1000.0
    negative = diff_ms < 0.0
    series = LatencySeries(session.sent_ms[1][paired], np.where(negative, 0.0, diff_ms))
    return series, int(np.count_nonzero(negative))


def terrestrial_series(session: MeasurementSession) -> LatencySeries:
    """RTT series of the terrestrial reference hop, for jitter screening."""
    rtt_us = session.rtt_us[0]
    answered = ~np.isnan(rtt_us)
    if not answered.any():
        raise EmptySeriesError(f"{session.path.target}: terrestrial hop never answered")
    return LatencySeries(session.sent_ms[0][answered], rtt_us[answered] / 1000.0)


def smooth(series: LatencySeries, window_s: float = SMOOTHING_WINDOW_S) -> LatencySeries:
    """Centered moving median over a time window.

    The window is [t - w/2, t + w/2] and is truncated at the series
    edges.  Timestamps are preserved.
    """
    if not window_s > 0:  # NaN fails too
        raise ValueError("window_s must be positive")
    n = len(series)
    if n == 0:
        return LatencySeries(series.timestamps_ms.copy(), series.values_ms.copy())
    half_ms = window_s * 1000.0 / 2.0
    ts = series.timestamps_ms
    vs = series.values_ms
    out = np.empty(n, dtype=np.float64)
    lo = np.searchsorted(ts, ts - half_ms, side="left")
    width = np.searchsorted(ts, ts + half_ms, side="right") - lo
    # Windows of equal width are rows of one sliding-window view, whose
    # row medians equal the slice medians bit for bit.  Each _medians
    # call gathers at most 2**16 values, so memory stays flat.
    order = np.argsort(width, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(width[order])) + 1):
        w = int(width[group[0]])
        rows = sliding_window_view(vs, w)
        step = max(1, (1 << 16) // w)
        for k in range(0, len(group), step):
            part = group[k:k + step]
            out[part] = _medians(rows[lo[part]])
    return LatencySeries(ts.copy(), out)


def _maximal_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index ranges [starts[k], ends[k]) of maximal True runs."""
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
    return edges[::2], edges[1::2]


def detect_spikes(
    smoothed: LatencySeries,
    *,
    sustained_sigma: float = SUSTAINED_SIGMA,
    standard_sigma: float = STANDARD_SIGMA,
) -> list[SpikeEvent]:
    """Classify excursions of a smoothed series against its own baseline.

    The baseline median and standard deviation are computed over the
    full session.  Excursions are maximal runs above median + 1*sigma;
    sub-runs are the maximal runs of the joint mask, above both that and
    median + 2*sigma.  A sub-run lasting at least 15 s is a sustained
    event; an excursion holding none is one standard event.  A flat
    series (sigma == 0) has no events by definition.  Requires a series
    lasting at least 60 s (its :attr:`~LatencySeries.duration_ms`);
    shorter sessions cannot carry a meaningful baseline.
    """
    if len(smoothed) == 0:
        raise EmptySeriesError("cannot detect spikes on an empty series")
    vs, ts = smoothed.values_ms, smoothed.timestamps_ms
    tick_ms = smoothed.tick_interval_ms()
    duration_ms = int(ts[-1] - ts[0]) + tick_ms  # as smoothed.duration_ms, from tick_ms
    if duration_ms < MIN_DETECTION_SPAN_MS:
        raise AnalysisError(f"series spans {duration_ms / 1000.0:.3f} s; need at least "
                            f"{MIN_DETECTION_SPAN_MS / 1000.0:.0f} s for a baseline")
    m = float(_medians(vs))
    sigma = float(np.std(vs))
    if sigma == 0.0:
        return []

    def runs(mask: np.ndarray) -> tuple[np.ndarray, ...]:
        # First index, span [start, end) and peak of each run; end is one tick
        # past the last sample.  Each peak's reduction goes on to the next run,
        # over values the mask left out, which are below every value in a run.
        i, j = _maximal_runs(mask)
        return i, ts[i], (ts[j - 1] + tick_ms).astype(np.int64), np.maximum.reduceat(vs, i)

    above = vs > m + standard_sigma * sigma
    first, *excursions = runs(above)
    sub_first, sub_start, sub_end, sub_peak = runs(above & (vs > m + sustained_sigma * sigma))
    long = sub_end - sub_start >= SUSTAINED_MIN_MS
    held = np.zeros(len(first), dtype=bool)  # the excursions holding a long sub-run
    held[np.searchsorted(first, sub_first[long], side="right") - 1] = True
    events = [SpikeEvent(start_ms=start, end_ms=end, kind=kind, peak_ms=peak,
                         baseline_median_ms=m)
              for kind, columns, keep in ((KIND_SUSTAINED, (sub_start, sub_end, sub_peak), long),
                                          (KIND_STANDARD, excursions, ~held))
              for start, end, peak in zip(*(column[keep].tolist() for column in columns))]
    events.sort(key=lambda e: e.start_ms)
    return events


def analyze_session(session: MeasurementSession, *, window_s: float = SMOOTHING_WINDOW_S,
                    sustained_sigma: float = SUSTAINED_SIGMA,
                    standard_sigma: float = STANDARD_SIGMA) -> SessionResult:
    """Isolate, smooth, detect and summarize one session; loss is counted
    against its scheduled ticks.  Raises :class:`AnalysisError`."""
    series, clamped = isolate_satellite_latency(session)
    spikes = detect_spikes(smooth(series, window_s=window_s),
                           sustained_sigma=sustained_sigma,
                           standard_sigma=standard_sigma)
    stats = session_stats(series, spikes=spikes,
                          expected_ticks=session.duration_s * session.cadence_hz)
    return SessionResult(len(series), clamped, spikes, stats)


def jitter_filter(candidates: Sequence[tuple[Endpoint, LatencySeries]]) -> list[Endpoint]:
    """Keep endpoints whose terrestrial hop is effectively jitter-free.

    The screen is the maximum absolute deviation of the terrestrial RTT
    series from its own median; at most 1 ms (inclusive) passes.  A
    jittery terrestrial reference poisons the subtraction and shows up
    as fake satellite spikes, so those endpoints are dropped up front.
    """
    kept = []
    for endpoint, series in candidates:
        if len(series) == 0:
            continue
        deviation = float(np.max(np.abs(series.values_ms - _medians(series.values_ms))))
        if deviation <= JITTER_MAX_DEVIATION_MS:
            kept.append(endpoint)
    return kept


def session_stats(
    series: LatencySeries,
    *,
    spikes: Sequence[SpikeEvent] = (),
    expected_ticks: Optional[int] = None,
) -> SessionStats:
    """Summary statistics of an isolated series.

    ``expected_ticks`` (the scheduled probe count) turns the paired-tick
    count into a loss fraction; without it loss is reported as 0.
    """
    if len(series) == 0:
        raise EmptySeriesError("no samples to summarize")
    vs = series.values_ms
    loss = 0.0
    if expected_ticks:
        loss = max(0.0, 1.0 - len(series) / expected_ticks)
    span = series.duration_ms
    spike_ms = sum(e.duration_ms for e in spikes)
    return SessionStats(
        min_ms=float(np.min(vs)),
        median_ms=float(_medians(vs)),
        mean_ms=float(np.mean(vs)),
        stddev_ms=float(np.std(vs)),
        loss_fraction=loss,
        spike_time_fraction=min(1.0, spike_ms / span) if span > 0 else 0.0,
    )


def aggregate_by_pop(
    items: Sequence[tuple[Endpoint, SessionStats]],
) -> list[PopAggregate]:
    """Group per-endpoint stats by POP code, sorted by code."""
    by_pop: dict[str, list[float]] = {}
    for endpoint, st in items:
        by_pop.setdefault(endpoint.pop_code, []).append(st.mean_ms)
    aggregates = []
    for code in sorted(by_pop):
        means = np.array(by_pop[code])
        aggregates.append(PopAggregate(
            pop_code=code,
            n_endpoints=len(means),
            mean_of_means_ms=float(np.mean(means)),
            stddev_of_means_ms=float(np.std(means)),
        ))
    return aggregates


def temporal_trend(
    daily: Sequence[tuple[str, Sequence[SessionStats]]],
) -> list[tuple[str, float]]:
    """Per-day median of endpoint median latencies, sorted by date.

    ``daily`` pairs an ISO date with that day's session statistics; a
    day without any is left out.  The return value is plot-ready.
    """
    return [(date, float(np.median([st.median_ms for st in stats])))
            for date, stats in sorted(daily, key=lambda item: item[0]) if stats]


def min_rtt_vs_pop_distance(
    items: Sequence[tuple[Endpoint, SessionStats]],
    catalog: PopCatalog,
) -> tuple[list[tuple[str, float, float]], Optional[float]]:
    """Relate each endpoint's minimum RTT to its distance from the POP.

    Needs the customer's coordinates and the POP's in ``catalog``;
    endpoints missing either are skipped.  Returns (address, distance_km,
    min_rtt_ms) rows and the Spearman rank correlation, or None with
    fewer than 3 points.
    """
    rows: list[tuple[str, float, float]] = []
    for endpoint, st in items:
        if endpoint.customer_location is None or endpoint.pop_code not in catalog:
            continue
        lat, lon = endpoint.customer_location
        pop = catalog[endpoint.pop_code]
        rows.append((endpoint.address, haversine_km(lat, lon, pop.latitude, pop.longitude),
                     st.min_ms))
    if len(rows) < 3:
        return rows, None
    _, dist, rtts = zip(*rows)
    return rows, _spearman_rho(np.array(dist), np.array(rtts))


def _spearman_rho(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of average ranks (ties share their mean rank);
    NaN for a constant column or one holding NaN."""
    if np.isnan(x).any() or np.isnan(y).any():
        return float("nan")
    ranks = []
    for column in (x, y):
        _, inverse, counts = np.unique(column, return_inverse=True, return_counts=True)
        ends = np.cumsum(counts)
        ranks.append(((2 * ends - counts + 1) / 2)[inverse])
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.corrcoef(*ranks)[0, 1])
