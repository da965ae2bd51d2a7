import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leolink.analysis import SpikeEvent
from leolink.obstruction import (
    IncompatibleMapsError,
    InsufficientDataError,
    ObstructionError,
    ObstructionMap,
    SatTrack,
    SwitchEvent,
    build_track,
    correlate_spikes,
    detect_switches,
    diff_maps,
    FRAME_FORMAT,
    read_frames,
    write_frames,
    write_switches_csv,
    write_track_csv,
)

SHAPE = (16, 16)


def frame(t, cells=(), shape=SHAPE):
    """Accumulated map with the given cells fully marked."""
    grid = np.zeros(shape)
    for r, c in cells:
        grid[r, c] = 1.0
    return ObstructionMap(timestamp=float(t), grid=grid)


def recording(cells_per_frame, start=0.0, dt=1.0):
    """Accumulating frames visiting the cell sequence, one per frame."""
    seen: list[tuple[int, int]] = []
    maps = [frame(start)]
    for i, cell in enumerate(cells_per_frame):
        if cell is not None:
            seen.append(cell)
        maps.append(frame(start + (i + 1) * dt, seen))
    return maps


def spike(start_s, kind="sustained"):
    return SpikeEvent(start_ms=int(start_s * 1000), end_ms=int(start_s * 1000) + 20_000,
                      kind=kind, peak_ms=100.0, baseline_median_ms=40.0)


def drift_cells(n, row=0):
    """A plausible pass: serpentine walk, one new cell per frame."""
    assert n <= (SHAPE[0] - row) * SHAPE[1]
    cells = []
    r, c, dc = row, 0, 1
    for _ in range(n):
        cells.append((r, c))
        if 0 <= c + dc < SHAPE[1]:
            c += dc
        else:
            r += 1
            dc = -dc
    return cells


# ------------------------------------------------------------------ diffing

def test_diff_identical_maps_is_none():
    assert diff_maps(frame(1.0, [(3, 3)]), frame(0.0, [(3, 3)])) is None


def test_diff_finds_single_new_cell():
    prev = frame(0.0, [(2, 2)])
    cur = frame(1.0, [(2, 2), (9, 12)])
    assert diff_maps(cur, prev) == (9, 12)


def test_diff_ignores_subthreshold_increment():
    prev = frame(0.0)
    cur = frame(1.0)
    cur.grid[4, 4] = 0.04  # below the 0.05 noise floor
    assert diff_maps(cur, prev) is None
    cur.grid[4, 4] = 0.06
    assert diff_maps(cur, prev) == (4, 4)


def test_diff_rejects_shape_mismatch():
    with pytest.raises(IncompatibleMapsError):
        diff_maps(frame(1.0, shape=(8, 8)), frame(0.0, shape=(16, 16)))


def test_diff_rejects_time_disorder():
    with pytest.raises(ObstructionError):
        diff_maps(frame(0.0), frame(0.0))


def test_map_validation():
    with pytest.raises(ObstructionError):
        ObstructionMap(0.0, np.zeros((0, 4)))
    with pytest.raises(ObstructionError):
        ObstructionMap(0.0, np.full((4, 4), 1.5))
    with pytest.raises(ObstructionError):
        ObstructionMap(0.0, np.full((4, 4), np.nan))


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 2**16))
@settings(max_examples=50)
def test_diff_self_is_always_none(r, c, dt):
    m = frame(0.0, [(r, c)])
    later = ObstructionMap(timestamp=1.0 + dt, grid=m.grid.copy())
    assert diff_maps(later, m) is None


# ------------------------------------------------------------------- tracks

def test_track_needs_two_frames():
    with pytest.raises(InsufficientDataError):
        build_track([frame(0.0)])


def test_track_of_static_recording_is_all_gaps():
    track = build_track([frame(0.0, [(2, 2)]), frame(1.0, [(2, 2)])])
    assert track.points == []
    assert track.gaps == [1.0]


def test_track_follows_drifting_satellite():
    cells = drift_cells(100)
    track = build_track(recording(cells))
    assert len(track.points) == 100
    assert len(track.gaps) == 0
    assert [(r, c) for _, r, c in track.points] == cells
    assert [t for t, _, _ in track.points] == [float(i) for i in range(1, 101)]


def test_track_accounts_for_every_frame():
    cells = drift_cells(30)
    cells[10] = None  # a frame with no new connection
    cells[17] = None
    maps = recording(cells)
    track = build_track(maps)
    assert len(track.points) + len(track.gaps) == len(maps) - 1
    assert len(track.gaps) == 2


def test_track_warmup_blank_frames_lead_with_gaps():
    blank = [frame(float(t)) for t in range(30)]
    rest = recording(drift_cells(10), start=30.0)
    track = build_track(blank + rest[1:])
    assert track.gaps[:29] == [float(t) for t in range(1, 30)]
    assert len(track.points) == 10


def test_track_rejects_unordered_frames():
    with pytest.raises(ObstructionError):
        build_track([frame(1.0), frame(0.5)])


def test_track_rejects_duplicate_point_timestamps():
    with pytest.raises(ObstructionError):
        SatTrack(points=[(1.0, 2, 2), (1.0, 3, 3)])


# ----------------------------------------------------------------- switches

def test_drift_produces_no_switches():
    track = build_track(recording(drift_cells(60)))
    assert detect_switches(track) == []


def test_single_jump_is_one_switch():
    cells = drift_cells(20) + drift_cells(10, row=5)
    track = build_track(recording(cells))
    switches = detect_switches(track)
    assert len(switches) == 1
    assert switches[0].at == 21.0
    assert switches[0].to_cell == (5, 0)
    assert switches[0].displacement_cells > 2


def test_seven_injected_switches_all_found():
    # Eight separate passes stitched together; each restart is a jump
    # bigger than the neighbor radius, giving seven switches.
    cells: list[tuple[int, int]] = []
    switch_times = []
    for k, row in enumerate(range(0, 16, 2)):
        if k > 0:
            switch_times.append(float(len(cells) + 1))
        cells.extend(drift_cells(12, row=row))
    track = build_track(recording(cells))
    switches = detect_switches(track)
    assert len(switches) == 7
    assert [s.at for s in switches] == switch_times
    assert all(s.displacement_cells == 11 for s in switches)


def test_neighbor_radius_validation():
    with pytest.raises(ObstructionError):
        detect_switches(SatTrack(), neighbor_radius_cells=-1)


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


# -------------------------------------------------------------------- files

def test_frames_roundtrip(tmp_path):
    maps = recording(drift_cells(12))
    path = tmp_path / "rec.jsonl"
    n = write_frames(maps, path)
    assert n == len(maps)
    loaded = read_frames(path)
    assert len(loaded) == len(maps)
    for a, b in zip(maps, loaded):
        assert a.timestamp == b.timestamp
        assert np.allclose(a.grid, b.grid, atol=1e-6)


def test_read_frames_rejects_foreign_file(tmp_path):
    path = tmp_path / "other.jsonl"
    path.write_text('{"format": "something-else"}\n')
    with pytest.raises(ObstructionError):
        read_frames(path)
    (tmp_path / "empty.jsonl").write_text("")
    with pytest.raises(ObstructionError):
        read_frames(tmp_path / "empty.jsonl")


HEADER = json.dumps({"format": FRAME_FORMAT, "rows": 2, "cols": 2})


@pytest.mark.parametrize("lines,where", [
    ([HEADER, "{not json"], "line 2: Expecting property name"),
    ([HEADER, '{"cells": [0, 0, 0, 0]}'], "line 2: t: expected a finite number, got None"),
    ([HEADER, '{"t": "1", "cells": [0, 0, 0, 0]}'], "line 2: t: expected a finite number"),
    ([HEADER, '{"t": 1, "cells": ["a", 0, 0, 0]}'], "line 2: could not convert"),
    ([HEADER, '{"t": 1}'], "line 2: cells: expected a list, got None"),
    ([HEADER, '{"t": 1, "cells": [0, 0, 0]}'], "line 2: cells: expected 4, got 3"),
    ([HEADER, '{"t": 1, "cells": [0, 2, 0, 0]}'], "line 2: grid values must lie in [0, 1]"),
    ([HEADER, "", "[1, 2]"], "line 3: top level: expected an object, got [1, 2]"),
    (["{not json"], "line 1: Expecting property name"),
    ([json.dumps({"format": FRAME_FORMAT, "rows": "2", "cols": 2})],
     "line 1: rows: expected an integer, got '2'"),
    ([json.dumps({"format": FRAME_FORMAT, "rows": 2})], "line 1: cols: expected an integer"),
    ([json.dumps({"format": FRAME_FORMAT, "rows": 2, "cols": 2, "rowz": 9})],
     "line 1: unknown fields ['rowz']"),
    ([HEADER, '{"t": 1, "tt": 1, "cells": [0, 0, 0, 0]}'], "line 2: unknown fields ['tt']"),
    ([HEADER, '{"t": 1, "cells": [0, true, 0, 0]}'],
     "line 2: cells[1]: expected a finite number, got True"),
], ids=["not_json", "t_missing", "t_string", "cell_string", "cells_missing", "cells_short",
        "cell_out_of_range", "not_an_object", "header_not_json", "rows_string", "cols_missing",
        "header_unknown_key", "frame_unknown_key", "cell_bool"])
def test_read_frames_names_file_line_and_field(tmp_path, lines, where):
    path = tmp_path / "rec.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ObstructionError) as err:
        read_frames(path)
    assert str(err.value).startswith(f"{path} {where}")


def test_write_frames_rejects_mixed_shapes(tmp_path):
    with pytest.raises(IncompatibleMapsError):
        write_frames([frame(0.0), frame(1.0, shape=(8, 8))], tmp_path / "x.jsonl")
    with pytest.raises(InsufficientDataError):
        write_frames([], tmp_path / "y.jsonl")


def test_track_csv_interleaves_points_and_gaps(tmp_path):
    cells = drift_cells(6)
    cells[2] = None
    track = build_track(recording(cells))
    path = tmp_path / "track.csv"
    write_track_csv(track, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["timestamp", "kind", "row", "col"]
    assert len(rows) == 7
    kinds = [r[1] for r in rows[1:]]
    assert kinds.count("gap") == 1
    stamps = [float(r[0]) for r in rows[1:]]
    assert stamps == sorted(stamps)


def test_switches_csv_columns(tmp_path):
    path = tmp_path / "switches.csv"
    write_switches_csv([switch(42.0)], path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["at", "from_row", "from_col", "to_row", "to_col",
                       "displacement_cells"]
    assert rows[1] == ["42.0", "0", "0", "9", "9", "9"]
