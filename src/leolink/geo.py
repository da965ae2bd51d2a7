"""Spherical-earth geometry helpers shared across the toolkit.

All distances are kilometres, all angles degrees unless suffixed otherwise.
The earth is modelled as a sphere of radius 6371.0 km throughout; none of
the latency arithmetic here needs better than that.
"""
from __future__ import annotations

import math

EARTH_RADIUS_KM = 6371.0
# Vacuum speed of light; radio and laser links run at this speed.
LIGHT_SPEED_KM_S = 299_792.458
# Propagation speed in fiber is roughly two thirds of c.
FIBER_SPEED_KM_S = LIGHT_SPEED_KM_S * (2.0 / 3.0)
KM_PER_MILE = 1.609344

# Geostationary altitude, used only as a latency floor reference.
GEO_ALTITUDE_KM = 35_786.0
GEO_FLOOR_RTT_MS = 2.0 * 2.0 * GEO_ALTITUDE_KM / LIGHT_SPEED_KM_S * 1000.0


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float,
                 radius_km: float = EARTH_RADIUS_KM) -> float:
    """Great-circle distance between two points on the sphere.

    Parameters
    ----------
    lat1, lon1, lat2, lon2 : float
        Coordinates in decimal degrees.
    radius_km : float
        Sphere radius; defaults to the earth radius used everywhere else.

    Examples
    --------
    >>> round(haversine_km(0.0, 0.0, 0.0, 90.0), 1)
    10007.5
    """
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    if a <= 0.5:  # up to 90 degrees apart, where asin is well-conditioned
        return 2.0 * radius_km * math.asin(math.sqrt(a))
    # Nearer antipodal, a rounds close to 1 and asin loses the last digits:
    # the Vincenty form, atan2(|u x v|, u . v) of the unit vectors, keeps them.
    lam1, lam2 = math.radians(lon1), math.radians(lon2)
    ux, uy, uz = math.cos(phi1) * math.cos(lam1), math.cos(phi1) * math.sin(lam1), math.sin(phi1)
    vx, vy, vz = math.cos(phi2) * math.cos(lam2), math.cos(phi2) * math.sin(lam2), math.sin(phi2)
    cross = math.hypot(uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx)
    return radius_km * math.atan2(cross, ux * vx + uy * vy + uz * vz)


def central_angle_rad(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Angle subtended at the earth's centre by two surface points."""
    return haversine_km(lat1, lon1, lat2, lon2, radius_km=1.0)


def vacuum_rtt_ms(distance_km: float) -> float:
    """Round-trip time over a one-way path of the given length at c."""
    return 2.0 * distance_km / LIGHT_SPEED_KM_S * 1000.0


def fiber_rtt_ms(distance_km: float) -> float:
    """Round-trip time over a one-way fiber path at (2/3)c."""
    return 2.0 * distance_km / FIBER_SPEED_KM_S * 1000.0


def miles_to_km(miles: float) -> float:
    return miles * KM_PER_MILE
