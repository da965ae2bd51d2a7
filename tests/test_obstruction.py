import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leolink.analysis import SpikeEvent
from leolink.obstruction import ObstructionError, SwitchEvent, correlate_spikes


def spike(start_s, kind="sustained"):
    return SpikeEvent(start_ms=int(start_s * 1000), end_ms=int(start_s * 1000) + 20_000,
                      kind=kind, peak_ms=100.0, baseline_median_ms=40.0)


# -------------------------------------------------------------- correlation

def switch(at):
    return SwitchEvent(at=at, from_cell=(0, 0), to_cell=(9, 9),
                       displacement_cells=9)


def test_no_switches_leaves_all_spikes_unexplained():
    report = correlate_spikes([], [spike(t) for t in (10, 60, 110, 160, 210)])
    assert report.n_sustained == 5
    assert report.sustained_unexplained_fraction == 1.0
    assert report.pairs == []


def test_two_of_five_sustained_unexplained():
    spikes = [spike(t) for t in (100, 200, 300, 400, 500)]
    switches = [switch(101.0), switch(196.0), switch(305.0)]
    report = correlate_spikes(switches, spikes)
    assert report.n_sustained == 5
    assert report.n_sustained_unexplained == 2
    assert report.sustained_unexplained_fraction == pytest.approx(2 / 5)
    assert len(report.pairs) == 3


def test_five_percent_standard_unexplained():
    spikes = [spike(float(100 + 30 * i), kind="standard") for i in range(100)]
    switches = [switch(100.0 + 30 * i + 3.0) for i in range(95)]
    report = correlate_spikes(switches, spikes)
    assert report.n_standard == 100
    assert report.n_standard_unexplained == 5
    assert report.standard_unexplained_fraction == pytest.approx(0.05)


def test_match_window_is_inclusive_both_sides():
    before = correlate_spikes([switch(85.0)], [spike(100)])
    after = correlate_spikes([switch(115.0)], [spike(100)])
    outside = correlate_spikes([switch(115.1)], [spike(100)])
    assert before.n_sustained_unexplained == 0
    assert after.n_sustained_unexplained == 0
    assert outside.n_sustained_unexplained == 1


def test_spike_pairs_with_nearest_switch():
    switches = [switch(95.0), switch(102.0), switch(112.0)]
    report = correlate_spikes(switches, [spike(100)])
    assert report.pairs[0][1].at == 102.0


def test_empty_classes_report_zero_fraction():
    report = correlate_spikes([switch(5.0)], [])
    assert report.sustained_unexplained_fraction == 0.0
    assert report.standard_unexplained_fraction == 0.0


def test_correlate_rejects_negative_window():
    with pytest.raises(ObstructionError):
        correlate_spikes([], [], window_s=-1.0)


@given(st.lists(st.floats(0.0, 5000.0), min_size=0, max_size=8),
       st.lists(st.floats(0.0, 5000.0), min_size=0, max_size=8))
@settings(max_examples=60)
def test_unexplained_fractions_bounded(switch_times, spike_times):
    switches = [switch(t) for t in switch_times]
    spikes = [spike(round(t)) for t in sorted(set(round(x) for x in spike_times))]
    report = correlate_spikes(switches, spikes)
    assert 0.0 <= report.sustained_unexplained_fraction <= 1.0
    assert 0.0 <= report.standard_unexplained_fraction <= 1.0
    assert report.n_sustained == len(spikes)


def test_time_shift_moves_matches_consistently():
    spikes = [spike(t) for t in (100, 200, 300)]
    switches = [switch(103.0), switch(207.0)]
    base = correlate_spikes(switches, spikes)
    shifted = correlate_spikes(
        [switch(s.at + 1000.0) for s in switches],
        [spike(int(s.start_ms / 1000) + 1000) for s in spikes])
    assert base.n_sustained_unexplained == shifted.n_sustained_unexplained
