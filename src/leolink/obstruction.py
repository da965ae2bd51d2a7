"""Attribution of latency spikes to satellite switches.

A dish hands its connection from one satellite to the next every few
seconds; a switch can explain a latency spike that starts near it in
time, and a spike with no switch nearby needs another cause.  Given the
switch times of a session and the spikes found in it, this module counts
how many spikes of each kind no switch accounts for.

Switches come from outside the pipeline, for example from the connected
satellite jumping across the dish's sky grid (``from_cell`` to
``to_cell``); the module never talks to a dish.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .analysis import SpikeEvent

# Matching window between a spike start and a switch, either direction.
SWITCH_MATCH_WINDOW_S = 15.0


class ObstructionError(ValueError):
    pass


@dataclass(frozen=True)
class SwitchEvent:
    at: float
    from_cell: tuple[int, int]
    to_cell: tuple[int, int]
    displacement_cells: int


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
