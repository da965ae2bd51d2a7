"""Satellite tracking from dish obstruction-map recordings.

The dish exposes a sky-dome bitmap that accumulates, cell by cell, where
a satellite was successfully connected.  Differencing successive frames
recovers the connected satellite's apparent position over time without
any cooperation from the terminal's routing layer.  Jumps in that track
mark satellite switches, which can then be lined up against latency
spikes from the same session.

Frames are consumed from recordings, one grid per second or so; the
module never talks to a dish.  Cell values are fractions in [0, 1];
purely binary maps are the special case {0, 1}.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .analysis import SpikeEvent
from .checks import Fields, read

# Accumulated cell increments below this are sensor noise, not a new
# connection cell.
CELL_DELTA_EPS = 0.05

# Moves of at most this many cells (Chebyshev) count as the same
# satellite drifting; larger moves are switches.
DEFAULT_NEIGHBOR_RADIUS = 2

# Matching window between a spike start and a switch, either direction.
SWITCH_MATCH_WINDOW_S = 15.0

FRAME_FORMAT = "leolink-obstruction/1"


class ObstructionError(ValueError):
    pass


class IncompatibleMapsError(ObstructionError):
    pass


class InsufficientDataError(ObstructionError):
    pass


@dataclass
class ObstructionMap:
    """One frame: the dome bitmap at a moment, row-major."""

    timestamp: float
    grid: np.ndarray

    def __post_init__(self) -> None:
        self.grid = np.asarray(self.grid, dtype=np.float64)
        if self.grid.ndim != 2 or self.grid.size == 0:
            raise ObstructionError("grid must be a non-empty 2-D array")
        if not np.all(np.isfinite(self.grid)):
            raise ObstructionError("grid values must be finite")
        if float(self.grid.min()) < 0.0 or float(self.grid.max()) > 1.0:
            raise ObstructionError("grid values must lie in [0, 1]")

    @property
    def shape(self) -> tuple[int, int]:
        return self.grid.shape  # type: ignore[return-value]


@dataclass
class SatTrack:
    """Reconstructed positions; cells are (row, col) grid indices."""

    points: list[tuple[float, int, int]] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        stamps = [p[0] for p in self.points]
        if len(set(stamps)) != len(stamps):
            raise ObstructionError("at most one track point per timestamp")


@dataclass(frozen=True)
class SwitchEvent:
    at: float
    from_cell: tuple[int, int]
    to_cell: tuple[int, int]
    displacement_cells: int


def diff_maps(
    current: ObstructionMap,
    previous: ObstructionMap,
    *,
    threshold: float = CELL_DELTA_EPS,
) -> Optional[tuple[int, int]]:
    """Cell that newly connected between two frames, if any.

    The maps accumulate, so the satellite's position at ``current`` is
    the cell whose value grew the most; increments at or below the
    noise threshold yield no position.
    """
    if current.shape != previous.shape:
        raise IncompatibleMapsError(
            f"grid shapes differ: {current.shape} vs {previous.shape}")
    if not current.timestamp > previous.timestamp:
        raise ObstructionError("current frame must be later than previous")
    delta = current.grid - previous.grid
    flat = int(np.argmax(delta))
    r, c = np.unravel_index(flat, delta.shape)
    if delta[r, c] <= threshold:
        return None
    return int(r), int(c)


def build_track(
    maps: Sequence[ObstructionMap],
    *,
    threshold: float = CELL_DELTA_EPS,
) -> SatTrack:
    """Difference a recording frame by frame into a satellite track.

    Frames during the recorder's warm-up are all-zero; they simply
    produce leading gaps.  Every frame after the first contributes
    either one point or one gap, so len(points) + len(gaps) equals
    len(maps) - 1.
    """
    if len(maps) < 2:
        raise InsufficientDataError("need at least two frames to difference")
    for a, b in zip(maps, maps[1:]):
        if not b.timestamp > a.timestamp:
            raise ObstructionError("frames must be strictly time-ordered")
    track = SatTrack()
    for prev, cur in zip(maps, maps[1:]):
        cell = diff_maps(cur, prev, threshold=threshold)
        if cell is None:
            track.gaps.append(cur.timestamp)
        else:
            track.points.append((cur.timestamp, cell[0], cell[1]))
    return track


def detect_switches(
    track: SatTrack,
    neighbor_radius_cells: int = DEFAULT_NEIGHBOR_RADIUS,
) -> list[SwitchEvent]:
    """Moves larger than the neighbor radius between consecutive points.

    A drifting satellite steps at most a cell or two per frame; a new
    satellite appears somewhere else entirely.
    """
    if neighbor_radius_cells < 0:
        raise ObstructionError("neighbor radius must be >= 0")
    events: list[SwitchEvent] = []
    for (t0, r0, c0), (t1, r1, c1) in zip(track.points, track.points[1:]):
        disp = max(abs(r1 - r0), abs(c1 - c0))
        if disp > neighbor_radius_cells:
            events.append(SwitchEvent(
                at=t1, from_cell=(r0, c0), to_cell=(r1, c1),
                displacement_cells=disp))
    return events


@dataclass
class SpikeSwitchReport:
    """How many latency spikes a switch can (not) account for."""

    n_sustained: int
    n_sustained_unexplained: int
    n_standard: int
    n_standard_unexplained: int
    pairs: list[tuple[SpikeEvent, SwitchEvent]] = field(default_factory=list)

    @property
    def sustained_unexplained_fraction(self) -> float:
        if self.n_sustained == 0:
            return 0.0
        return self.n_sustained_unexplained / self.n_sustained

    @property
    def standard_unexplained_fraction(self) -> float:
        if self.n_standard == 0:
            return 0.0
        return self.n_standard_unexplained / self.n_standard


def correlate_spikes(
    switches: Sequence[SwitchEvent],
    spikes: Sequence[SpikeEvent],
    *,
    window_s: float = SWITCH_MATCH_WINDOW_S,
) -> SpikeSwitchReport:
    """Match spike starts against switches within the +/- window.

    Spike timestamps are session-relative milliseconds and switch
    timestamps are seconds; both must share the same epoch.  A spike
    with no switch within the window is unexplained by satellite
    switching.  Each spike pairs with its nearest switch in time.
    """
    if window_s < 0:
        raise ObstructionError("window must be >= 0")
    report = SpikeSwitchReport(0, 0, 0, 0)
    for spike in spikes:
        start_s = spike.start_ms / 1000.0
        best: Optional[SwitchEvent] = None
        best_gap = math.inf
        for sw in switches:
            gap = abs(sw.at - start_s)
            if gap <= window_s and gap < best_gap:
                best, best_gap = sw, gap
        if spike.kind == "sustained":
            report.n_sustained += 1
            report.n_sustained_unexplained += best is None
        else:
            report.n_standard += 1
            report.n_standard_unexplained += best is None
        if best is not None:
            report.pairs.append((spike, best))
    return report


def write_frames(maps: Iterable[ObstructionMap], path: str | Path) -> int:
    """Store a recording as one JSON header line plus one line per frame."""
    maps = list(maps)
    if not maps:
        raise InsufficientDataError("nothing to write")
    rows, cols = maps[0].shape
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": FRAME_FORMAT, "rows": rows, "cols": cols}) + "\n")
        for m in maps:
            if m.shape != (rows, cols):
                raise IncompatibleMapsError("all frames in a recording share one shape")
            rec = {"t": m.timestamp, "cells": [round(float(v), 6) for v in m.grid.ravel()]}
            fh.write(json.dumps(rec) + "\n")
            n += 1
    return n


def read_frames(path: str | Path) -> list[ObstructionMap]:
    """A recording written by :func:`write_frames`; a bad line raises an error naming it."""
    with open(path, encoding="utf-8") as fh:
        if not (header_line := fh.readline()).strip():
            raise ObstructionError(f"{path}: empty recording")
        maps, lineno = [], 1
        try:
            header = Fields(json.loads(header_line), ObstructionError)
            if header.obj.get("format") != FRAME_FORMAT:
                raise ObstructionError(f"not a {FRAME_FORMAT} recording")
            header.only(("format", "rows", "cols"))
            rows, cols = header("rows", "integer"), header("cols", "integer")
            for lineno, line in enumerate(fh, start=2):
                if line.strip():
                    frame = Fields(json.loads(line), ObstructionError).only(("t", "cells"))
                    # a string cell fails the conversion, a bool one the check after it
                    cells = np.asarray(frame("cells", "list"), dtype=np.float64)
                    read(frame.obj["cells"], tuple[float, ...], "cells", ObstructionError)
                    if cells.size != rows * cols:
                        raise ObstructionError(f"cells: expected {rows * cols}, got {cells.size}")
                    maps.append(ObstructionMap(timestamp=frame("t", "number"),
                                               grid=cells.reshape(rows, cols)))
        except (TypeError, ValueError) as exc:  # ObstructionError, or not JSON or numbers
            raise ObstructionError(f"{path} line {lineno}: {exc}") from None
    return maps


def write_track_csv(track: SatTrack, path: str | Path) -> None:
    entries = [(t, "point", r, c) for t, r, c in track.points]
    entries += [(t, "gap", "", "") for t in track.gaps]
    entries.sort(key=lambda e: e[0])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp", "kind", "row", "col"])
        w.writerows(entries)


def write_switches_csv(events: Sequence[SwitchEvent], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["at", "from_row", "from_col", "to_row", "to_col",
                    "displacement_cells"])
        for e in events:
            w.writerow([e.at, e.from_cell[0], e.from_cell[1],
                        e.to_cell[0], e.to_cell[1], e.displacement_cells])
