"""Constellation geometry model for plausibility-checking measurements.

Satellites fly circular orbits around a spherical earth; that is enough
to bound what latencies the radio segment can physically produce.  The
model answers three kinds of question:

* what is the best-case (and worst-case) bent-pipe RTT between a dish
  and a ground station right now,
* how much does one extra inter-satellite laser hop cost,
* what end-to-end RTT does a composite route imply (radio access plus
  inter-satellite path plus terrestrial fiber tail back to the POP).

Positions are computed in the inertial frame of the epoch; ground sites
rotate beneath the constellation, so always evaluate site positions at
the same instant as the snapshot they are compared against.

The default configuration (one 550 km, 53 deg shell of 72 x 22) ships as
package data; studies override it with their own JSON of the same shape.
The per-plane phase offset is operator-internal and unknowable from the
outside; it defaults to an arbitrary but fixed stagger, which changes
none of the latency statistics.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .checks import Fields, hints, read_json
from .geo import (
    EARTH_RADIUS_KM,
    LIGHT_SPEED_KM_S,
    central_angle_rad,
    fiber_rtt_ms,
    haversine_km,
    miles_to_km,
    vacuum_rtt_ms,
)

MU_EARTH_KM3_S2 = 398_600.4418
EARTH_ROTATION_RAD_S = 7.2921159e-5

# Default visibility: a terminal sees satellites out to 600 miles slant
# range and above 25 degrees elevation.
DEFAULT_MAX_SLANT_KM = miles_to_km(600.0)
DEFAULT_MIN_ELEVATION_DEG = 25.0

# Laser links span at most a few thousand km; longer inter-satellite
# paths chain multiple hops along the orbital shell.
MAX_ISL_CHORD_KM = 5400.0

DEFAULT_BORESIGHT_DEG = -22.0

# A snapshot's positions lie on the config's orbits to within this: far
# above propagation's rounding, well inside the plane cull's 0.01 km slack.
_ON_ORBIT_KM = 1e-3

# Snapshots evaluated together, and per array pass of the narrowing to slot
# arcs: on the Nigeria case the fastest (19.8 ms; a pass a block, 21.4) with
# the least peak memory (565 KB; passes of 48, 833; blocks of 12, 926).
_BLOCK_STEPS = 8
_ARC_STEPS = 24


class GeometryError(ValueError):
    pass


class NoCoverageError(GeometryError):
    """No satellite satisfies the visibility constraints."""


@dataclass(frozen=True)
class Shell:
    altitude_km: float
    inclination_deg: float
    n_orbits: int
    sats_per_orbit: int
    phase_offset_deg: float = 0.0

    def __post_init__(self) -> None:
        if self.altitude_km <= 0:
            raise GeometryError(f"altitude_km: {self.altitude_km!r} is not positive")
        if not 0 <= self.inclination_deg <= 180:
            raise GeometryError(f"inclination_deg: {self.inclination_deg!r} is not within [0, 180]")
        for name in ("n_orbits", "sats_per_orbit"):
            if getattr(self, name) < 1:
                raise GeometryError(f"{name}: {getattr(self, name)!r} is below 1")

    @property
    def semi_major_axis_km(self) -> float:
        return EARTH_RADIUS_KM + self.altitude_km

    @property
    def mean_motion_rad_s(self) -> float:
        return math.sqrt(MU_EARTH_KM3_S2 / self.semi_major_axis_km ** 3)

    @property
    def period_s(self) -> float:
        return 2.0 * math.pi / self.mean_motion_rad_s

    @property
    def in_plane_spacing_km(self) -> float:
        """Arc length between neighbouring satellites of one orbit."""
        return 2.0 * math.pi * self.semi_major_axis_km / self.sats_per_orbit


@dataclass(frozen=True)
class ConstellationConfig:
    """The fields are the keys of a constellation config file."""

    shells: tuple[Shell, ...]
    epoch_s: float = 0.0
    comment: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.shells:
            raise GeometryError("config needs at least one shell")

    @classmethod
    def from_dict(cls, obj: dict) -> "ConstellationConfig":
        return Fields(obj, GeometryError).make(cls)

    @classmethod
    def from_json(cls, path: str | Path) -> "ConstellationConfig":
        return read_json(path, GeometryError, lambda config: cls.from_dict(config.obj))

    @classmethod
    def default(cls) -> "ConstellationConfig":
        ref = resources.files("leolink.data").joinpath("constellation_default.json")
        with resources.as_file(ref) as path:
            return cls.from_json(path)

    @property
    def n_satellites(self) -> int:
        return sum(s.n_orbits * s.sats_per_orbit for s in self.shells)

    @functools.cached_property
    def _layout(self) -> tuple[np.ndarray, ...]:
        """Per layout row, the seven ``terms`` (7, N) of its propagation and its
        ``names`` (4, N): plane, shell, orbit and slot; per plane, its unit
        ``normals`` (P, 3) and ``radius`` (P,), fixed in the epoch frame as right
        ascension does not precess.  Built on first use; every query shares it,
        so it is read-only.
        """
        terms, planes = [], []
        for shell_index, shell in enumerate(self.shells):
            orbits = np.arange(shell.n_orbits)[:, None]
            slots = np.arange(shell.sats_per_orbit)
            raan = np.radians(360.0 * orbits / shell.n_orbits)
            u0 = np.radians(360.0 * slots / shell.sats_per_orbit)
            a, inc = shell.semi_major_axis_km, math.radians(shell.inclination_deg)
            cos_r, sin_r, cos_i, sin_i = np.cos(raan), np.sin(raan), math.cos(inc), math.sin(inc)
            row = (a, cos_r, sin_r, cos_i, sin_i, u0 + np.radians(shell.phase_offset_deg) * orbits,
                   shell.mean_motion_rad_s, orbits + len(planes), shell_index, orbits, slots)
            terms.append(np.stack([x.ravel() for x in np.broadcast_arrays(*row)]))
            planes += [(a, sin_i * s, -sin_i * c, cos_i) for c, s in zip(cos_r[:, 0], sin_r[:, 0])]
        terms, planes = np.concatenate(terms, axis=1), np.array(planes)
        layout = (terms[:7], terms[7:].astype(int), planes[:, 1:], planes[:, 0])
        for array in layout:
            array.setflags(write=False)
        return layout


@dataclass(frozen=True)
class SatelliteState:
    shell_index: int
    orbit_index: int
    slot_index: int
    position_km: tuple[float, float, float]


@dataclass
class Snapshot:
    """All satellite positions at one instant, in the epoch frame.

    Row i of ``positions`` is satellite i of the config's layout: shells
    in order, within a shell orbit by orbit, within an orbit slot by slot.
    Each lies on its orbit: every query culls by plane, so a position off
    it would be lost silently.
    """

    t_s: float
    config: ConstellationConfig
    positions: np.ndarray          # (N, 3) km

    def __post_init__(self) -> None:
        want = (self.config.n_satellites, 3)
        if np.shape(self.positions) != want:
            raise GeometryError(f"positions: expected shape {want} for the config's layout, "
                                f"got {np.shape(self.positions)}")
        _, (plane, *_), normals, radius = self.config._layout
        p = np.asarray(self.positions, dtype=float)
        off = np.maximum(abs(_norm(p) - radius[plane]), abs((p * normals[plane]).sum(axis=1)))
        bad = np.flatnonzero(~(off <= _ON_ORBIT_KM))
        if len(bad):
            raise GeometryError(f"positions: row {bad[0]} is {off[bad[0]]:.6g} km off its orbit, "
                                f"more than {_ON_ORBIT_KM} km")

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class GroundStation:
    """A site on the ground; one read from a file has its coordinates on Earth."""

    latitude: float = field(metadata={"kind": "latitude"})
    longitude: float = field(metadata={"kind": "longitude"})
    altitude_m: float = 0.0
    label: str = ""


@dataclass(frozen=True)
class DishSite(GroundStation):
    """Customer terminal; sees only the half-sky ahead of its boresight."""

    boresight_azimuth_deg: float = DEFAULT_BORESIGHT_DEG

    def azimuth_allowed(self, azimuth_deg: float) -> bool:
        # Boresight -22 deg => azimuths below 158 or above 338 pass.
        # Elementwise on an array of azimuths.
        return (azimuth_deg - self.boresight_azimuth_deg) % 360.0 < 180.0


@dataclass(frozen=True)
class RouteSegment:
    start: str
    end: str
    medium: str                    # "vacuum" | "fiber" | "measured"
    rtt_ms: float
    distance_km: Optional[float] = None


@dataclass
class RoutePath:
    segments: list[RouteSegment] = field(default_factory=list)

    @property
    def total_rtt_ms(self) -> float:
        return sum(s.rtt_ms for s in self.segments)


def _propagate(config: ConstellationConfig, times: Sequence[float], rows) -> np.ndarray:
    """Positions (T, len(rows), 3) of layout ``rows``; elementwise, so any subset rounds alike."""
    a, cos_r, sin_r, cos_i, sin_i, u0, motion = config._layout[0][:, rows]
    u = u0 + motion * (np.asarray(times, dtype=float) - config.epoch_s)[:, None]
    cos_u, sin_u = np.cos(u), np.sin(u)
    out = np.empty(u.shape + (3,))
    out[..., 0] = a * (cos_r * cos_u - sin_r * sin_u * cos_i)
    out[..., 1] = a * (sin_r * cos_u + cos_r * sin_u * cos_i)
    out[..., 2] = a * (sin_u * sin_i)
    return out


def propagate_many(config: ConstellationConfig, times: Sequence[float]) -> np.ndarray:
    """Satellite positions (T, N, 3) in km at each of ``times``.

    Times are seconds since the config epoch.  Circular orbits: each
    plane is spaced uniformly in right ascension, each slot uniformly in
    argument of latitude, with the shell's phase offset applied per
    plane.  Positions are exactly periodic with the shell period.
    """
    return _propagate(config, times, slice(None))


def propagate(config: ConstellationConfig, t_s: float) -> Snapshot:
    """Satellite positions at time t (seconds since the config epoch)."""
    return Snapshot(t_s=t_s, config=config, positions=propagate_many(config, [t_s])[0])


def _site_positions(sites: Sequence[GroundStation], times: Sequence[float],
                    epoch_s: float) -> np.ndarray:
    """Inertial-frame positions (S, T, 3) of ground sites at each of ``times``.

    Scalar math, term for term as numpy's elementwise form rounds (its
    float64 sin and cos call libm, as ``math`` does), and for a few sites
    far cheaper than small arrays.
    """
    turns = [math.degrees(EARTH_ROTATION_RAD_S * (float(t) - epoch_s)) for t in times]
    out = []
    for site in sites:
        radius = EARTH_RADIUS_KM + site.altitude_m / 1000.0
        phi = math.radians(site.latitude)
        r_cos, z = radius * math.cos(phi), radius * math.sin(phi)
        for theta in turns:
            lam = math.radians(site.longitude + theta)
            out.append((r_cos * math.cos(lam), r_cos * math.sin(lam), z))
    return np.array(out).reshape(len(sites), len(turns), 3)


def _cull(config: ConstellationConfig, sites: np.ndarray, max_slant_km: float,
          every: bool = False) -> np.ndarray:
    """Ascending layout rows of the planes within ``max_slant_km`` of any of ``sites`` (..., 3),
    or with ``every`` of each of sites (S, 3), one per site at one instant: what a snapshot's
    queries look at, as its positions exist and a narrower cull costs more than it saves."""
    near = _near(config._layout, sites.reshape(-1, 3), max_slant_km)
    rows = (near.all(axis=0) if every else near.any(axis=0))[config._layout[1][0]].nonzero()[0]
    # One row would make the look's matrix products dot products, which
    # round unlike the products over several rows; keep them all instead.
    return np.arange(config.n_satellites) if len(rows) == 1 else rows


def _near(layout: tuple[np.ndarray, ...], flat: np.ndarray, max_slant_km: float) -> np.ndarray:
    """Which planes (M, P) come within ``max_slant_km`` of each of sites ``flat`` (M, 3).  No
    satellite on a circle of radius a about unit normal n is nearer site s than sqrt(h^2 +
    (a - rho)^2), h = s.n, rho = sqrt(|s|^2 - h^2); the limit has 0.01 km of slack for rounding."""
    _, _, normals, radius = layout
    h = flat @ normals.T
    h2 = h * h
    rho = np.sqrt(np.maximum((flat * flat).sum(axis=1)[:, None] - h2, 0.0))
    return np.sqrt(h2 + (radius - rho) ** 2) <= max_slant_km + 0.01


def _arcs(config: ConstellationConfig, sites: np.ndarray, times: np.ndarray,
          max_slant_km: float) -> list[tuple[slice, np.ndarray]]:
    """Per block of ``_BLOCK_STEPS`` of ``times``, its slice and the ascending layout rows
    of the slots within ``max_slant_km`` of one of ``sites`` (S, T, 3) at one of its times.

    Slot u of a plane :func:`_near` keeps is sqrt(|s|^2 + a^2 - 2 a rho cos(u - phi)) from
    a site at polar (rho, phi) in the plane's (e1, e2), so within reach r on the arc
    cos(u - phi) >= (|s|^2 + a^2 - r^2) / (2 a rho): a cyclic run of the evenly spaced
    slots, none if the bound is above 1, all if below -1 or at rho = 0.  r has the cull's
    slack, the arc 1e-6 rad more than the rounding of u and phi.  A block of one row takes
    its plane cull, as :func:`_cull` keeps more than one row.
    """
    terms, names, _, _ = config._layout
    first, blocks = np.flatnonzero(names[3] == 0), []  # each plane's slot 0
    for lo in range(0, len(times), _ARC_STEPS):
        flat, dt = sites[:, lo:lo + _ARC_STEPS].reshape(-1, 3), times[lo:lo + _ARC_STEPS]
        site, plane = _near(config._layout, flat, max_slant_km).nonzero()
        a, cos_r, sin_r, cos_i, sin_i, u0, motion = np.take(terms, first[plane], axis=1)
        sx, sy, sz = np.take(flat, site, axis=0).T  # x and y along e1 and e2 of the plane
        x, y = sx * cos_r + sy * sin_r, (sy * cos_r - sx * sin_r) * cos_i + sz * sin_i
        bound = ((sx * sx + sy * sy + sz * sz + (a * a - (max_slant_km + 0.01) ** 2))
                 / np.maximum(2.0 * a * np.sqrt(x * x + y * y), 1e-9))
        slots = np.diff(first, append=names.shape[1])[plane]
        spacing = 2.0 * np.pi / slots  # between slots, in radians
        width = (np.arccos(bound.clip(-1.0, 1.0)) + 1e-6) / spacing
        step = site % len(dt)  # phi less slot 0's u at the site's time, in slots:
        centre = (np.arctan2(y, x) - (u0 + motion * (dt[step] - config.epoch_s))) / spacing
        lo_slot = np.ceil(centre - width)
        count = np.minimum(np.floor(centre + width) - lo_slot + 1.0, slots)
        ahead = np.arange(count.max(initial=0.0))[:, None]  # a run's slots, from [0, slots)
        slot = lo_slot - np.floor(lo_slot / slots) * slots + ahead
        keep = np.zeros((-(-len(dt) // _BLOCK_STEPS), names.shape[1] + 1), dtype=bool)
        row = first[plane] + np.where(slot < slots, slot, slot - slots)  # wrapped past the last
        keep[step // _BLOCK_STEPS, np.where(ahead < count, row, -1).astype(np.intp)] = True
        for k, rows in enumerate(map(np.flatnonzero, keep[:, :-1])):
            block = slice(lo + k * _BLOCK_STEPS, lo + min((k + 1) * _BLOCK_STEPS, len(dt)))
            blocks.append((block, rows if len(rows) != 1 else _cull(config, sites[:, block],
                                                                     max_slant_km)))
    return blocks  # a list, so no pass's scratch is held while a block is looked at


def _norm(v: np.ndarray) -> np.ndarray:
    """Length over a last axis of 3, summed in the order numpy's norm sums."""
    sq = (v * v).reshape(-1, 3)
    return np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2]).reshape(v.shape[:-1])


def _length(v: np.ndarray) -> np.ndarray:
    """Length (..., 1) of each row of (..., 3), as ``np.linalg.norm`` of one row rounds."""
    return np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]


def _project(rel: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``rel[..., :, :] @ v[..., :]``: (..., K, 3) on (..., 3).

    One matrix-vector product per site and snapshot, so the dot products
    round as they do for a single snapshot of a single site.
    """
    return (rel @ v[..., :, None])[..., 0]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` over a last axis of 3, term for term, without its set-up."""
    return a[..., [1, 2, 0]] * b[..., [2, 0, 1]] - a[..., [2, 0, 1]] * b[..., [1, 2, 0]]


def _look(sites: np.ndarray, positions: np.ndarray, max_slant_km: float,
          min_elevation_deg: float, dish: Optional[GroundStation] = None):
    """One look-angle pass of sites at (S, ..., 3) over positions (..., K, 3).

    Each site's ``slant`` range and ``visible`` mask (S, ..., K): within the
    slant limit and above the elevation mask, elevation computed only within
    the limit.  ``in_fov`` (..., K) marks what site 0 sees, within its field
    of view if it is a :class:`DishSite` given as ``dish``; azimuth is
    computed only for what it sees.
    """
    rel = positions - sites[..., None, :]
    slant = _norm(rel)
    near = slant <= max_slant_km
    up = sites / _length(sites)
    sin_el = _project(rel, up)[near] / slant[near]
    visible = near.copy()
    visible[near] = np.degrees(np.arcsin(sin_el.clip(-1.0, 1.0))) >= min_elevation_deg
    if not isinstance(dish, DishSite):
        return slant, visible, visible[0]
    # Local east/north for azimuth, degenerate at the poles.
    east = _cross(np.array([0.0, 0.0, 1.0]), up[0])
    norm = _length(east)
    pole = norm < 1e-12
    east = np.where(pole, [1.0, 0.0, 0.0], east / np.where(pole, 1.0, norm))
    north = _cross(up[0], east)
    seen = visible[0]
    azimuth = np.degrees(np.arctan2(_project(rel[0], east)[seen],
                                    _project(rel[0], north)[seen])) % 360.0
    in_fov = seen.copy()
    in_fov[seen] = dish.azimuth_allowed(azimuth)
    return slant, visible, in_fov


class _JointSky:
    """A dish (site 0) and a ground station (site 1) over a block of snapshots, or one.

    Looks at the layout ``rows`` it is given at their ``positions``: a block
    at the slots of its arcs (:func:`_arcs`), a snapshot at its plane cull
    (:func:`_cull`).  A block has a time axis before the rows' axis K, a
    snapshot none.  Each rule answers with one-way path lengths in km.
    """

    def __init__(self, sites, positions, rows, max_slant_km, min_elevation_deg, dish=None):
        self.rows, self.positions = rows, positions
        self.slant, self.visible, self.in_fov = _look(sites, positions, max_slant_km,
                                                      min_elevation_deg, dish)

    @classmethod
    def of(cls, dish, gs, snapshot, max_slant_km, min_elevation_deg, *, dish_fov=False,
           every=False):
        sites = _site_positions([dish, gs], [snapshot.t_s], snapshot.config.epoch_s)[:, 0]
        rows = _cull(snapshot.config, sites, max_slant_km, every)
        return cls(sites, snapshot.positions.take(rows, axis=0), rows, max_slant_km,
                   min_elevation_deg, dish if dish_fov else None)

    def bent_pipes(self, worst: bool = False) -> np.ndarray:
        """Dish -> satellite -> ground station lengths (..., K) through each satellite both
        see; inf elsewhere, or with ``worst`` within the dish's view and -inf elsewhere."""
        dish, fill = (self.in_fov, -np.inf) if worst else (self.visible[0], np.inf)
        return np.where(dish & self.visible[1], self.slant[0] + self.slant[1], fill)

    def two_satellites(self) -> np.ndarray:
        """Shortest dish -> s1 -> s2 -> ground station path, s1 != s2.

        One distance matrix per snapshot, between the satellites the dish
        sees and those the ground station sees at any time of the block,
        masked to the pairs in view at that snapshot.
        """
        seen = self.visible.any(axis=tuple(range(1, self.visible.ndim - 1)))
        di, gi = np.flatnonzero(seen[0]), np.flatnonzero(seen[1])
        inter = _norm(self.positions[..., None, gi, :] - self.positions[..., di, None, :])
        totals = (self.slant[0][..., di, None] + inter) + self.slant[1][..., None, gi]
        pair = (self.visible[0][..., di, None] & self.visible[1][..., None, gi]
                & (di[:, None] != gi))
        return np.where(pair, totals, np.inf).min(axis=(-2, -1), initial=np.inf)


def _bent_pipe(dish, gs, snapshot, max_slant_km, min_elevation_deg, worst=False):
    """RTT (ms) and row of the shortest shared bent pipe; ``worst``: the longest the dish sees."""
    sky = _JointSky.of(dish, gs, snapshot, max_slant_km, min_elevation_deg,
                       dish_fov=worst, every=True)
    paths = sky.bent_pipes(worst)
    i = (paths.argmax() if worst else paths.argmin()) if len(paths) else None
    if i is None or not np.isfinite(paths[i]):
        raise NoCoverageError("no satellite jointly visible " + (
            "within the dish field of view" if worst else "to dish and ground station"))
    return vacuum_rtt_ms(float(paths[i])), int(sky.rows[i])


def _state_at(snapshot: Snapshot, i: int) -> SatelliteState:
    """Satellite ``i`` of the snapshot, named from its config's layout."""
    _, shell, orbit, slot = snapshot.config._layout[1][:, i].tolist()
    return SatelliteState(shell, orbit, slot, tuple(float(x) for x in snapshot.positions[i]))


def visible_satellites(
    site: GroundStation,
    snapshot: Snapshot,
    *,
    max_slant_km: float = DEFAULT_MAX_SLANT_KM,
    min_elevation_deg: float = DEFAULT_MIN_ELEVATION_DEG,
    apply_fov: bool = True,
) -> list[SatelliteState]:
    """Satellites within slant range and above the elevation mask.

    For a :class:`DishSite` the azimuth field-of-view rule also applies
    unless ``apply_fov`` is disabled.
    """
    sites = _site_positions([site], [snapshot.t_s], snapshot.config.epoch_s)[:, 0]
    rows = _cull(snapshot.config, sites, max_slant_km)
    *_, in_fov = _look(sites, snapshot.positions.take(rows, axis=0), max_slant_km,
                       min_elevation_deg, site if apply_fov else None)
    return [_state_at(snapshot, i) for i in rows[in_fov].tolist()]


def best_case_rtt(
    dish: GroundStation,
    gs: GroundStation,
    snapshot: Snapshot,
    *,
    max_slant_km: float = DEFAULT_MAX_SLANT_KM,
    min_elevation_deg: float = DEFAULT_MIN_ELEVATION_DEG,
) -> tuple[float, SatelliteState]:
    """Bent-pipe RTT through the best jointly visible satellite.

    Returns ``(rtt_ms, satellite)``.  Best-case selection searches the
    whole sky: an optimal scheduler is not limited by the dish's
    current orientation.
    """
    rtt, i = _bent_pipe(dish, gs, snapshot, max_slant_km, min_elevation_deg)
    return rtt, _state_at(snapshot, i)


def worst_case_rtt(
    dish: DishSite,
    gs: GroundStation,
    snapshot: Snapshot,
    *,
    max_slant_km: float = DEFAULT_MAX_SLANT_KM,
    min_elevation_deg: float = DEFAULT_MIN_ELEVATION_DEG,
) -> tuple[float, SatelliteState]:
    """Bent-pipe RTT through the worst satellite the dish could pick.

    Returns ``(rtt_ms, satellite)``.  The candidate set honours the
    dish's azimuth field of view; the ground station is unconstrained
    (its antennas cover all azimuths).
    """
    rtt, i = _bent_pipe(dish, gs, snapshot, max_slant_km, min_elevation_deg, worst=True)
    return rtt, _state_at(snapshot, i)


def isl_extra_hop_rtt(config: ConstellationConfig) -> float:
    """Round-trip cost of one extra in-plane inter-satellite hop (ms).

    Neighbouring satellites of one orbit of the first shell sit one
    in-plane spacing apart; a detour over one extra satellite adds that
    distance in both directions.
    """
    return vacuum_rtt_ms(config.shells[0].in_plane_spacing_km)


def isl_path_distance_km(
    from_lat: float, from_lon: float,
    to_lat: float, to_lon: float,
    altitude_km: float,
) -> float:
    """Length of an inter-satellite path bridging two ground points.

    The path follows the great circle at orbital altitude, chained as
    chords no longer than a laser link's reach.  For continent-scale
    spans a single chord differs from the arc by under one percent.
    """
    theta = central_angle_rad(from_lat, from_lon, to_lat, to_lon)
    if theta == 0.0:
        return 0.0
    radius = EARTH_RADIUS_KM + altitude_km
    theta_max = 2.0 * math.asin(min(1.0, MAX_ISL_CHORD_KM / (2.0 * radius)))
    n = max(1, math.ceil(theta / theta_max))
    return n * 2.0 * radius * math.sin(theta / (2.0 * n))


def composite_route_rtt(
    dish: GroundStation,
    access_gs: GroundStation,
    pop: GroundStation,
    *,
    route_kind: str = "relay",
    landing_gs: Optional[GroundStation] = None,
    extra_isl_hops: int = 0,
    snapshot: Optional[Snapshot] = None,
    config: Optional[ConstellationConfig] = None,
    access_rtt_ms: Optional[float] = None,
    isl_oneway_ms: Optional[float] = None,
    terrestrial_rtt_ms: Optional[float] = None,
    max_slant_km: float = DEFAULT_MAX_SLANT_KM,
    min_elevation_deg: float = DEFAULT_MIN_ELEVATION_DEG,
) -> RoutePath:
    """End-to-end RTT of a composite route from dish to POP.

    Two route kinds:

    * ``relay``: one bent pipe, dish -> satellite -> access_gs, then a
      terrestrial tail from the access ground station to the POP.
    * ``isl``: the traffic enters over the dish's local access geometry,
      crosses the inter-satellite path to ``landing_gs``, and returns to
      the POP over terrestrial fiber.  Both ends pay a radio access
      segment, so the access RTT counts twice.

    Each term can be supplied explicitly (e.g. a measured terrestrial
    RTT) or derived: access from best-case selection on the snapshot,
    the inter-satellite leg from great-circle geometry at altitude, the
    tail from fiber speed over the great circle.  A supplied terrestrial
    RTT below the fiber floor suggests bad data but is not rejected.

    One constellation, the snapshot's, else ``config``, else the bundled
    default, sets the inter-satellite altitude and the extra-hop spacing
    from its first shell; passing both ``snapshot`` and ``config`` is refused.
    """
    if route_kind not in ("relay", "isl"):
        raise GeometryError(f"unknown route kind: {route_kind}")
    if snapshot is not None and config is not None:
        raise GeometryError("pass snapshot or config, not both: a route reads one constellation")
    if route_kind == "isl" and landing_gs is None:
        raise GeometryError("isl route requires landing_gs")
    if extra_isl_hops < 0:
        raise GeometryError("extra_isl_hops must be >= 0")

    if access_rtt_ms is None:
        if snapshot is None:
            raise GeometryError("need snapshot or access_rtt_ms for the access term")
        access_rtt_ms, _ = _bent_pipe(dish, access_gs, snapshot, max_slant_km,
                                      min_elevation_deg)
    if route_kind == "relay":
        segments = [RouteSegment("dish", access_gs.label or "access_gs", "vacuum", access_rtt_ms)]
    else:
        segments = [RouteSegment(start, "constellation", "vacuum", access_rtt_ms)
                    for start in ("dish", "constellation")]

    tail_gs = access_gs
    if route_kind == "isl":
        assert landing_gs is not None
        tail_gs = landing_gs
        if isl_oneway_ms is None or extra_isl_hops:
            cfg = (snapshot.config if snapshot is not None
                   else config or ConstellationConfig.default())
        dist = None
        if isl_oneway_ms is None:
            dist = isl_path_distance_km(
                access_gs.latitude, access_gs.longitude,
                landing_gs.latitude, landing_gs.longitude,
                altitude_km=cfg.shells[0].altitude_km)
            isl_oneway_ms = dist / LIGHT_SPEED_KM_S * 1000.0
        segments.append(RouteSegment("constellation", landing_gs.label or "landing_gs",
                                     "vacuum", 2.0 * isl_oneway_ms, distance_km=dist))
        if extra_isl_hops:
            segments.append(RouteSegment("constellation", "constellation", "vacuum",
                                         extra_isl_hops * isl_extra_hop_rtt(cfg)))

    tail = (tail_gs.label or "gs", pop.label or "pop")
    if terrestrial_rtt_ms is None:
        d = haversine_km(tail_gs.latitude, tail_gs.longitude, pop.latitude, pop.longitude)
        segments.append(RouteSegment(*tail, "fiber", fiber_rtt_ms(d), distance_km=d))
    elif terrestrial_rtt_ms > 0 or route_kind == "isl":
        segments.append(RouteSegment(*tail, "measured", terrestrial_rtt_ms))
    return RoutePath(segments=segments)


def direct_path_floor_rtt(
    site_lat: float, site_lon: float,
    pop_lat: float, pop_lon: float,
    zigzag_factor: float = 1.0,
) -> float:
    """Speed-of-light RTT floor between two ground points (ms).

    ``zigzag_factor`` scales the path for indirect inter-satellite
    routing; 2.0 bounds a path that zig-zags instead of flying the
    great circle.
    """
    if zigzag_factor < 1.0:
        raise GeometryError("zigzag_factor must be >= 1")
    d = haversine_km(site_lat, site_lon, pop_lat, pop_lon)
    return 2.0 * d * zigzag_factor / LIGHT_SPEED_KM_S * 1000.0


def min_isl_ng_threshold(
    dish: GroundStation,
    gs: GroundStation,
    snapshot: Snapshot,
    *,
    max_slant_km: float = DEFAULT_MAX_SLANT_KM,
    min_elevation_deg: float = DEFAULT_MIN_ELEVATION_DEG,
) -> float:
    """Minimum RTT via exactly two satellites to the ground station (ms).

    Exhaustive search over pairs (s1 visible to the dish, s2 visible to
    the ground station, s1 != s2) of dish->s1->s2->gs.  Any measured RTT
    below this bound cannot have used an inter-satellite link, which
    classifies it as bent-pipe relay routing.
    """
    sky = _JointSky.of(dish, gs, snapshot, max_slant_km, min_elevation_deg)
    if not sky.visible.any(axis=-1).all():
        raise NoCoverageError("no satellite visible at one of the endpoints")
    best = sky.two_satellites()
    if not np.isfinite(best):
        raise NoCoverageError("no two-satellite path exists")
    return vacuum_rtt_ms(float(best))


@dataclass(frozen=True)
class Visibility:
    """The sky a study's terminal and ground stations can use."""

    max_slant_km: float = DEFAULT_MAX_SLANT_KM
    min_elevation_deg: float = DEFAULT_MIN_ELEVATION_DEG

    def __post_init__(self) -> None:
        if not self.max_slant_km > 0:
            raise GeometryError(f"max_slant_km: must be positive, got {self.max_slant_km!r}")
        if not -90 <= self.min_elevation_deg <= 90:
            raise GeometryError("min_elevation_deg: must be within [-90, 90], "
                                f"got {self.min_elevation_deg!r}")


@dataclass(frozen=True)
class Sampling:
    """How often a study samples one orbital period."""

    step_s: float = 15.0

    def __post_init__(self) -> None:
        if not self.step_s >= 1.0:  # one period at 1 s is already about 5,700 samples
            raise GeometryError(f"step_s: must be at least 1 s, got {self.step_s!r}")


@dataclass(frozen=True, kw_only=True)
class StudyCase:
    """One named geometry study: sites, mask, and a sampling protocol.  The
    fields other than ``config`` are the keys of a study case file.

    The visibility mask in a study overrides the module defaults; the
    defaults describe nominal service, a study may ask what the radio
    segment could do with the full sky.
    """

    label: str
    dish: DishSite
    access_gs: GroundStation
    pop: GroundStation
    landing_gs: Optional[GroundStation] = None
    terrestrial_rtt_ms: Optional[float] = None
    visibility: Visibility = Visibility()
    sampling: Sampling = Sampling()
    comment: str = field(default="", compare=False)
    config: ConstellationConfig = field(default_factory=ConstellationConfig.default)

    @classmethod
    def from_json(cls, path: str | Path) -> "StudyCase":
        """The case in file ``path``, labelled by the file's stem unless it says."""
        def build(case: Fields) -> StudyCase:
            case.only(hints(cls).keys() - {"config"})  # the constellation is the code's
            return Fields({"label": Path(path).stem, **case.obj}, GeometryError).make(cls)

        return read_json(path, GeometryError, build)

    @classmethod
    def nigeria(cls) -> "StudyCase":
        ref = resources.files("leolink.data").joinpath("nigeria_case.json")
        with resources.as_file(ref) as path:
            return cls.from_json(path)


@dataclass
class CaseSummary:
    """Medians over one orbital period of the case's shell."""

    label: str
    best_rtt_ms: float
    worst_rtt_ms: float
    worst_minus_best_ms: float
    isl_threshold_ms: float
    n_samples: int
    n_no_coverage: int


def evaluate_case(case: StudyCase) -> CaseSummary:
    """Sample one period at the case's step, in blocks of snapshots, and take medians.

    A sample where either selection has no coverage is dropped from
    every statistic, keeping the medians comparable.
    """
    times = np.arange(0.0, case.config.shells[0].period_s, case.sampling.step_s)
    sites = _site_positions([case.dish, case.access_gs], times, case.config.epoch_s)
    blocks = []
    for block, rows in _arcs(case.config, sites, times, case.visibility.max_slant_km):
        sky = _JointSky(sites[:, block], _propagate(case.config, times[block], rows), rows,
                        case.visibility.max_slant_km, case.visibility.min_elevation_deg, case.dish)
        blocks.append((sky.bent_pipes().min(axis=-1, initial=np.inf),
                       np.abs(sky.bent_pipes(worst=True).max(axis=-1, initial=-np.inf)),
                       sky.two_satellites()))
    best, worst, thresh = (np.concatenate(paths) for paths in zip(*blocks))
    covered = np.isfinite(best) & np.isfinite(worst) & np.isfinite(thresh)
    if not covered.any():
        raise NoCoverageError(f"case {case.label}: no sample had joint coverage")
    b = vacuum_rtt_ms(best[covered])
    w = vacuum_rtt_ms(worst[covered])
    return CaseSummary(
        label=case.label,
        best_rtt_ms=float(np.median(b)),
        worst_rtt_ms=float(np.median(w)),
        worst_minus_best_ms=float(np.median(w - b)),
        isl_threshold_ms=float(np.median(vacuum_rtt_ms(thresh[covered]))),
        n_samples=len(times),
        n_no_coverage=int(np.count_nonzero(~covered)),
    )
