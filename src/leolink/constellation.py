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
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .checks import Fields, read_json
from .geo import (
    EARTH_RADIUS_KM,
    LIGHT_SPEED_KM_S,
    central_angle_rad,
    fiber_rtt_ms,
    haversine_km,
    latlon_to_ecef,
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

# Snapshots evaluated together.  The Nigeria case keeps 24-25 of 72 planes
# per block, so at 6 steps a block's largest array (pair distances, 101 KB)
# stays under that of a 3-step block over every satellite (114 KB).
_BLOCK_STEPS = 6


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
            raise GeometryError("altitude_km must be positive")
        if not 0 <= self.inclination_deg <= 180:
            raise GeometryError("inclination_deg must be within [0, 180]")
        if self.n_orbits < 1 or self.sats_per_orbit < 1:
            raise GeometryError("need at least one orbit and one satellite")

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
    shells: tuple[Shell, ...]
    epoch_s: float = 0.0

    @classmethod
    def from_dict(cls, obj: dict) -> "ConstellationConfig":
        config = Fields(obj, GeometryError).only(("shells", "epoch_s", "comment"))
        shells = tuple(Fields(s, GeometryError, f"shells[{i}].").make(Shell)
                       for i, s in enumerate(config("shells", "list")))
        if not shells:
            raise GeometryError("config needs at least one shell")
        return cls(shells=shells, epoch_s=config("epoch_s", "number", 0.0))

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
    """

    t_s: float
    config: ConstellationConfig
    positions: np.ndarray          # (N, 3) km

    def __post_init__(self) -> None:
        want = (self.config.n_satellites, 3)
        if np.shape(self.positions) != want:
            raise GeometryError(f"positions: expected shape {want} for the config's layout, "
                                f"got {np.shape(self.positions)}")

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class GroundStation:
    latitude: float
    longitude: float
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
    """Inertial-frame positions (S, T, 3) of ground sites at each of ``times``."""
    theta = np.degrees(EARTH_ROTATION_RAD_S * (np.asarray(times, dtype=float) - epoch_s))
    lat, lon, alt = np.array([(s.latitude, s.longitude, s.altitude_m) for s in sites]).T[..., None]
    return latlon_to_ecef(lat, lon + theta, radius_km=EARTH_RADIUS_KM + alt / 1000.0)


def site_positions(site: GroundStation, times: Sequence[float],
                   epoch_s: float = 0.0) -> np.ndarray:
    """Inertial-frame positions (T, 3) of a ground site at each of ``times``.

    The earth rotates the site eastward relative to the epoch frame.
    """
    return _site_positions([site], times, epoch_s)[0]


def _cull(config: ConstellationConfig, sites: np.ndarray, max_slant_km: float) -> np.ndarray:
    """Ascending layout rows of the planes within ``max_slant_km`` of any of ``sites`` (K, 3).

    A satellite on a circle of radius a about unit normal n is no closer to
    site s than sqrt(h^2 + (a - rho)^2), h = s.n, rho = sqrt(|s|^2 - h^2).
    That rounds by under 1e-3 km, so the limit gets 0.01 km of slack.
    """
    _, (plane, *_), normals, radius = config._layout
    h = sites @ normals.T
    h2 = h * h
    rho = np.sqrt(np.maximum((sites * sites).sum(axis=1)[:, None] - h2, 0.0))
    keep = (np.sqrt(h2 + (radius - rho) ** 2) <= max_slant_km + 0.01).any(axis=0)
    rows = np.flatnonzero(keep[plane])
    # One row would make the look's matrix products dot products, which
    # round unlike the products over several rows; keep them all instead.
    return np.arange(len(plane)) if len(rows) == 1 else rows


def _norm(v: np.ndarray) -> np.ndarray:
    """Length over a last axis of 3, summed in the order numpy's norm sums."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return np.sqrt(x * x + y * y + z * z)


def _length(v: np.ndarray) -> np.ndarray:
    """Length (..., 1) of each row of (..., 3), as ``np.linalg.norm`` of one row rounds."""
    return np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]


def _project(rel: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``rel[..., t, :, :] @ v[..., t, :]`` for each snapshot: (..., T, N, 3) on (..., T, 3).

    One matrix-vector product per snapshot, so the dot products round as
    they do for a single snapshot.
    """
    return (rel @ v[..., :, None])[..., 0]


class _Sky(NamedTuple):
    """Sites' views of a block of snapshots, each (..., T, N).

    ``slant`` is the range to every satellite; ``visible`` marks those
    within the slant limit and above the elevation mask, ``in_fov``
    those of them that a dish's field of view also admits.
    """

    slant: np.ndarray
    visible: np.ndarray
    in_fov: np.ndarray


def _look(
    site: GroundStation,
    site_pos: np.ndarray,
    positions: np.ndarray,
    max_slant_km: float,
    min_elevation_deg: float,
    fov: bool,
) -> _Sky:
    """One look-angle pass of site positions (..., T, 3) over positions (T, N, 3).

    Elevation is computed only within the slant limit, azimuth only for
    a :class:`DishSite` with ``fov`` set; otherwise ``in_fov`` is
    ``visible``.
    """
    rel = positions - site_pos[..., None, :]
    slant = _norm(rel)
    near = np.nonzero(slant <= max_slant_km)
    up = site_pos / _length(site_pos)
    sin_el = _project(rel, up)[near] / slant[near]
    above = np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0))) >= min_elevation_deg
    near = tuple(i[above] for i in near)
    visible = np.zeros(slant.shape, dtype=bool)
    visible[near] = True
    if not (fov and isinstance(site, DishSite)):
        return _Sky(slant, visible, visible)
    # Local east/north for azimuth, degenerate at the poles.
    east = np.cross([0.0, 0.0, 1.0], up)
    norm = _length(east)
    pole = norm < 1e-12
    east = np.where(pole, [1.0, 0.0, 0.0], east / np.where(pole, 1.0, norm))
    north = np.cross(up, east)
    azimuth = np.degrees(np.arctan2(_project(rel, east)[near],
                                    _project(rel, north)[near])) % 360.0
    allowed = site.azimuth_allowed(azimuth)
    in_fov = np.zeros_like(visible)
    in_fov[tuple(i[allowed] for i in near)] = True
    return _Sky(slant, visible, in_fov)


class _JointSky:
    """A dish and a ground station over one block of snapshots.

    Only satellites of the planes within the slant limit of either site
    are looked at, propagated unless ``positions`` of a snapshot are given.
    Each rule answers per snapshot with one-way path lengths in km,
    infinite where no satellite qualifies.
    """

    def __init__(self, dish, gs, config, times, max_slant_km, min_elevation_deg, *,
                 dish_fov=False, positions=None):
        sites = _site_positions([dish, gs], times, config.epoch_s)
        self.rows = _cull(config, sites.reshape(-1, 3), max_slant_km)
        self.positions = (_propagate(config, times, self.rows) if positions is None
                          else positions[None, self.rows])
        at = (self.positions, max_slant_km, min_elevation_deg)
        if dish_fov:
            self.dish, self.gs = _look(dish, sites[0], *at, True), _look(gs, sites[1], *at, False)
        else:  # one pass for both sites
            self.dish, self.gs = (_Sky(*sky) for sky in zip(*_look(gs, sites, *at, False)))

    @classmethod
    def of(cls, dish, gs, snapshot, max_slant_km, min_elevation_deg, *, dish_fov=False):
        return cls(dish, gs, snapshot.config, [snapshot.t_s], max_slant_km, min_elevation_deg,
                   dish_fov=dish_fov, positions=snapshot.positions)

    def _pick(self, mask, arg, fill):
        sums = np.where(mask & self.gs.visible, self.dish.slant + self.gs.slant, fill)
        if not len(self.rows):  # no candidate: no row, infinite length
            return None, np.full(len(sums), np.inf)
        i = arg(sums, axis=1)
        return self.rows[i], np.abs(sums[np.arange(len(i)), i])  # a -inf fill reads inf

    def best(self) -> tuple[np.ndarray, np.ndarray]:
        """Satellite row and length of the shortest bent pipe, whole sky."""
        return self._pick(self.dish.visible, np.argmin, np.inf)

    def worst(self) -> tuple[np.ndarray, np.ndarray]:
        """Satellite row and length of the longest bent pipe in the dish's view."""
        return self._pick(self.dish.in_fov, np.argmax, -np.inf)

    def two_satellites(self) -> np.ndarray:
        """Shortest dish -> s1 -> s2 -> ground station path, s1 != s2.

        One distance matrix per snapshot, between the satellites the dish
        sees and those the ground station sees at any time of the block,
        masked to the pairs in view at that snapshot.
        """
        di = np.flatnonzero(self.dish.visible.any(axis=0))
        gi = np.flatnonzero(self.gs.visible.any(axis=0))
        inter = _norm(self.positions[:, None, gi] - self.positions[:, di, None])
        totals = (self.dish.slant[:, di, None] + inter) + self.gs.slant[:, None, gi]
        pair = (self.dish.visible[:, di, None] & self.gs.visible[:, None, gi]
                & (di[:, None] != gi))
        return np.where(pair, totals, np.inf).min(axis=(1, 2), initial=np.inf)


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
    site_pos = site_positions(site, [snapshot.t_s], snapshot.config.epoch_s)
    rows = _cull(snapshot.config, site_pos, max_slant_km)
    sky = _look(site, site_pos, snapshot.positions[None, rows], max_slant_km,
                min_elevation_deg, apply_fov)
    return [_state_at(snapshot, int(rows[i])) for i in np.flatnonzero(sky.in_fov[0])]


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
    i, d = _JointSky.of(dish, gs, snapshot, max_slant_km, min_elevation_deg).best()
    if not np.isfinite(d[0]):
        raise NoCoverageError("no satellite jointly visible to dish and ground station")
    return vacuum_rtt_ms(float(d[0])), _state_at(snapshot, int(i[0]))


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
    i, d = _JointSky.of(dish, gs, snapshot, max_slant_km, min_elevation_deg,
                        dish_fov=True).worst()
    if not np.isfinite(d[0]):
        raise NoCoverageError("no satellite jointly visible within the dish field of view")
    return vacuum_rtt_ms(float(d[0])), _state_at(snapshot, int(i[0]))


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
        access_rtt_ms, _ = best_case_rtt(dish, access_gs, snapshot,
                                         max_slant_km=max_slant_km,
                                         min_elevation_deg=min_elevation_deg)
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
    if not (sky.dish.visible.any() and sky.gs.visible.any()):
        raise NoCoverageError("no satellite visible at one of the endpoints")
    best = sky.two_satellites()[0]
    if not np.isfinite(best):
        raise NoCoverageError("no two-satellite path exists")
    return vacuum_rtt_ms(float(best))


@dataclass(frozen=True)
class StudyCase:
    """One named geometry study: sites, mask, and a sampling protocol.

    The visibility mask in a study overrides the module defaults; the
    defaults describe nominal service, a study may ask what the radio
    segment could do with the full sky.
    """

    label: str
    dish: DishSite
    access_gs: GroundStation
    pop: GroundStation
    landing_gs: Optional[GroundStation]
    terrestrial_rtt_ms: Optional[float]
    max_slant_km: float
    min_elevation_deg: float
    sample_step_s: float
    config: ConstellationConfig

    @classmethod
    def from_json(cls, path: str | Path,
                  config: Optional[ConstellationConfig] = None) -> "StudyCase":
        def build(case: Fields) -> StudyCase:
            case.only(("label", "comment", "dish", "access_gs", "pop", "landing_gs",
                       "terrestrial_rtt_ms", "visibility", "sampling"))
            vis = _block(case, "visibility", {}).only(("max_slant_km", "min_elevation_deg"))
            step_s = _block(case, "sampling", {}).only(("step_s",))("step_s", "number", 15.0)
            slant = vis("max_slant_km", "number", DEFAULT_MAX_SLANT_KM)
            elevation = vis("min_elevation_deg", "number", DEFAULT_MIN_ELEVATION_DEG)
            if step_s < 1.0:  # one period at 1 s is already about 5,700 samples
                raise GeometryError(f"sampling.step_s: must be at least 1 s, got {step_s!r}")
            if slant <= 0:
                raise GeometryError(f"visibility.max_slant_km: must be positive, got {slant!r}")
            if not -90 <= elevation <= 90:
                raise GeometryError("visibility.min_elevation_deg: must be within [-90, 90], "
                                    f"got {elevation!r}")
            return cls(
                label=case("label", "string", Path(path).stem),
                dish=_block(case, "dish").make(DishSite),
                access_gs=_block(case, "access_gs").make(GroundStation),
                pop=_block(case, "pop").make(GroundStation),
                landing_gs=(None if case.obj.get("landing_gs") is None
                            else _block(case, "landing_gs").make(GroundStation)),
                terrestrial_rtt_ms=case("terrestrial_rtt_ms", "number", optional=True),
                max_slant_km=slant, min_elevation_deg=elevation, sample_step_s=step_s,
                config=config or ConstellationConfig.default(),
            )

        return read_json(path, GeometryError, build)

    @classmethod
    def nigeria(cls) -> "StudyCase":
        ref = resources.files("leolink.data").joinpath("nigeria_case.json")
        with resources.as_file(ref) as path:
            return cls.from_json(path)


def _block(case: Fields, key: str, default=None) -> Fields:
    """The fields of the object in field ``key``, or of ``default`` when it is absent."""
    return Fields(case.obj.get(key, default), GeometryError, f"{key}.")


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
    times = np.arange(0.0, case.config.shells[0].period_s, case.sample_step_s)
    blocks = []
    for lo in range(0, len(times), _BLOCK_STEPS):
        sky = _JointSky(case.dish, case.access_gs, case.config, times[lo:lo + _BLOCK_STEPS],
                        case.max_slant_km, case.min_elevation_deg, dish_fov=True)
        blocks.append((sky.best()[1], sky.worst()[1], sky.two_satellites()))
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
