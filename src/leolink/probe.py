"""Path probing: traceroute, satellite-link identification, TTL-pinned sessions.

The measurement trick: a satellite endpoint's last-mile shows up in a
traceroute as one large RTT jump between the final two responsive hops.
The hop before the jump (typically the provider POP edge) is terrestrial
and stays pinned by routing; the hop after it is the customer endpoint
reached through the satellite.  Probing both hops every tick with
TTL-pinned pings and subtracting isolates the satellite segment without
any cooperation from the endpoint.

A TTL ping is a single probe whose initial TTL equals the hop's distance
so it expires exactly there; routers answer TTL-expired even when their
addresses ignore directly addressed pings.

All operations run against an abstract ``Transport`` so the same code
drives real raw-socket probing and the deterministic simulator.  A
transport fixes the probe protocol, the timeout and the flow when it is
opened, and ``probe(target, ttl)`` is all a probe says.  So every probe
to one endpoint carries the same flow-identifying header fields, and
per-flow load balancers keep a whole trace and session on one path
(the Paris-traceroute rule).
"""
from __future__ import annotations

import numbers
import statistics
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

import numpy as np

from .discovery import Endpoint

PROTOCOLS = ("icmp", "udp", "tcp")  # the protocols a transport can be opened on
DEFAULT_JUMP_THRESHOLD_MS = 10.0
DEFAULT_PROBE_TIMEOUT_S = 2.0
DEFAULT_PROBES_PER_HOP = 3
# A bent-pipe link near its gateway (a 9 ms round trip) can read under
# the jump threshold on three jittered samples per hop.  So a last-hop
# jump in CONFIRM_BAND_MS, [low, high), is probed CONFIRM_PROBES more
# times at each of the two hops, and over CONFIRM_SAMPLES samples a jump
# of CONFIRMED_JUMP_MS is enough.
CONFIRM_BAND_MS = (3.0, 10.0)
CONFIRM_PROBES = 6
CONFIRM_SAMPLES = DEFAULT_PROBES_PER_HOP + CONFIRM_PROBES
CONFIRMED_JUMP_MS = 6.0
DEFAULT_MAX_TTL = 32
DEFAULT_CADENCE_HZ = 1
DEFAULT_DURATION_S = 300
UNUSABLE_LOSS_FRACTION = 0.5
# Ticks per array pass of probe_ticks, a session's rounding and write_session: fewer
# passes, fewer numpy calls; scratch about 1.4 MB a pass at 8,192 (a test holds 2 MB).
PASS_TICKS = 8192
# The inclusive range of each integer setting of a campaign, a trace and a session.
RANGES = {"cadence_hz": (1, 10), "duration_s": (1, 86_400), "concurrency": (1, 64),
          "probes_per_hop": (1, 10), "max_ttl": (1, 64)}


def check_range(name: str, value: int, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` naming ``name`` unless value is an integer in ``RANGES[name]``."""
    lo, hi = RANGES[name]
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not lo <= value <= hi:
        raise error(f"{name}: expected an integer in {lo}..{hi}, got {value!r}")


class ProbeError(Exception):
    pass


class UnreachableError(ProbeError):
    """No hop responded at all; the target cannot be traced."""


class NoSatelliteJumpError(ProbeError):
    """The trace shows no RTT jump at or above the threshold."""


class InsufficientPathError(ProbeError):
    """Fewer than two responsive hops; nothing to compare."""


@dataclass(frozen=True)
class ProbeReply:
    responder: str
    rtt_us: float


class Transport(Protocol):
    """Probe transport with a clock, its protocol, timeout and flow fixed
    when it is opened.  Implementations: raw sockets
    (:mod:`leolink.rawnet`) and the simulator (:mod:`leolink.simnet`).
    ``probe_ticks`` answers a whole session schedule in one call."""

    wrong_responders: dict[int, int]  # per TTL, replies from an unexpected hop

    def now_ms(self) -> int: ...

    def sleep_until_ms(self, t_ms: int) -> None: ...

    def probe(self, target: str, ttl: int) -> Optional[ProbeReply]: ...

    def probe_ticks(self, target: str, hops: Sequence[tuple[int, str]], start_ms: int,
                    cadence_hz: int, n_ticks: int) -> tuple[np.ndarray, np.ndarray]:
        """What :func:`probe_each_tick` returns for the same schedule."""


@dataclass(frozen=True)
class TraceHop:
    """One TTL position in a trace.

    ``responsive`` is true exactly when a responder address and at least
    one RTT sample are present.
    """

    ttl: int
    responder: Optional[str]
    rtt_samples: tuple[float, ...]  # microseconds

    @property
    def responsive(self) -> bool:
        return self.responder is not None

    @property
    def median_rtt_us(self) -> float:
        return statistics.median(self.rtt_samples)

    def __post_init__(self) -> None:
        if (self.responder is None) != (len(self.rtt_samples) == 0):
            raise ValueError("responder and rtt_samples must be both present or both absent")


@dataclass(frozen=True)
class TracerouteResult:
    target: str
    hops: tuple[TraceHop, ...]
    reached: bool

    def responsive_hops(self) -> list[TraceHop]:
        return [h for h in self.hops if h.responsive]


@dataclass(frozen=True)
class SatLinkPath:
    """The two probe targets that bracket the satellite segment."""

    target: str
    pre_sat_ttl: int
    pre_sat_router: str
    post_sat_ttl: int
    jump_ms: float


def _tenths(rtt_us: np.ndarray, held: bool = False) -> np.ndarray:
    """Each RTT in integer tenths of a µs, as ``f"{rtt:.1f}"`` rounds it; nan stays nan.

    ``rtt_us * 10`` is off the exact product by at most half an ulp, so
    only an element within ``np.spacing`` of a .5 boundary can round
    otherwise than the decimal form does: those few take its digits.  The
    result is exact below 2**53 tenths, and ties go to even as there.  Times
    10, an RTT ``held`` as a session holds it, t / 10, is within t * 2**-52 of
    t: below 2**51 tenths rint alone gives t, and at least 2**51 above.
    """
    scaled = rtt_us * 10.0
    tenths = np.rint(scaled)
    if held and np.fmax.reduce(tenths, axis=None, initial=0.0) < 2 ** 51:
        return tenths
    for i in np.flatnonzero(np.abs(scaled - np.floor(scaled) - 0.5)
                            <= np.spacing(scaled)).tolist():
        tenths.flat[i] = int(f"{rtt_us.flat[i]:.1f}".replace(".", ""))
    return tenths


@dataclass(frozen=True)
class MeasurementSession:
    """Per-tick probes of the terrestrial and endpoint hops, held as stored.

    ``sent_ms`` (int64) and ``rtt_us`` (float64, NaN for a lost probe) have
    shape ``(2, n)``: row 0 is the terrestrial hop, row 1 the endpoint hop,
    and column k is tick k, with ``n == duration_s * cadence_hz``.  Tick
    k's endpoint probe leaves no earlier than its terrestrial probe and no
    later than tick k + 1's.  Each RTT is NaN, or is held as ``session.csv``
    spells it: 1 to 2**53 - 1 tenths of a µs, the range float64 holds exactly.
    The session holds read-only copies of the arrays it is given.
    """

    endpoint: Endpoint
    path: SatLinkPath
    start_ms: int
    duration_s: int
    cadence_hz: int
    sent_ms: np.ndarray
    rtt_us: np.ndarray

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "sent_ms", np.array(self.sent_ms, dtype=np.int64))
            rtt = np.asarray(self.rtt_us, dtype=np.float64)  # rounded below
            fresh = isinstance(self.rtt_us, (list, tuple))  # so rtt is no caller's array
            aligned = self.sent_ms.shape == rtt.shape == (2, self.sent_ms.size // 2)
        except ValueError:  # numpy refuses ragged rows
            aligned = False
        if not aligned:
            raise ValueError("sent_ms and rtt_us must be alike (2, n) arrays, rows aligned by tick")
        if self.sent_ms.shape[1] != self.duration_s * self.cadence_hz:
            raise ValueError(f"{self.sent_ms.shape[1]} ticks, but {self.duration_s} s at "
                             f"{self.cadence_hz} Hz is {self.duration_s * self.cadence_hz}")
        terrestrial, endpoint = self.sent_ms
        late = endpoint < terrestrial
        late[:-1] |= terrestrial[1:] < endpoint[:-1]
        if late.any():
            raise ValueError(f"the rows of tick {late.argmax()} do not pair by send time; "
                             f"rows are missing or out of order")
        # fmin and fmax skip NaN, and make no array as large as rtt
        extremes = np.array([np.fmin.reduce(rtt, axis=None, initial=np.inf),
                             np.fmax.reduce(rtt, axis=None, initial=0.0)])
        if extremes[0] <= 0 or extremes[1] == np.inf:
            tick = ((rtt <= 0) | (rtt == np.inf)).any(axis=0).argmax()
            raise ValueError(f"the RTTs of tick {tick}, {rtt[:, tick].tolist()}, are "
                             f"not each nan (lost) or finite and positive")
        with np.errstate(over="ignore", invalid="ignore"):  # an RTT near 1e308 has inf tenths
            least, greatest = _tenths(extremes)
        for x, refused, stored in ((extremes[0], least == 0, "as 0.0"),
                                   (extremes[1], greatest >= 2 ** 53,
                                    "inexactly, at 2**53 tenths of a µs or more")):
            if refused:
                raise ValueError(f"the RTT {x} µs of tick {(rtt == x).any(axis=0).argmax()} "
                                 f"would be stored {stored}")
        object.__setattr__(self, "rtt_us", rtt if fresh else np.empty_like(rtt))
        for lo in range(0, rtt.shape[1], PASS_TICKS):
            chunk = slice(lo, lo + PASS_TICKS)
            np.divide(_tenths(rtt[:, chunk]), 10.0, out=self.rtt_us[:, chunk])
        self.sent_ms.flags.writeable = self.rtt_us.flags.writeable = False

    @property
    def terrestrial_loss_fraction(self) -> float:
        lost = np.isnan(self.rtt_us[0])
        return float(lost.mean()) if len(lost) else 1.0

    @property
    def usable(self) -> bool:
        # More than half the terrestrial reference lost means the
        # subtraction baseline is gone.
        return self.terrestrial_loss_fraction <= UNUSABLE_LOSS_FRACTION


def run_traceroute(
    transport: Transport,
    target: str,
    *,
    max_ttl: int = DEFAULT_MAX_TTL,
    probes_per_hop: int = DEFAULT_PROBES_PER_HOP,
) -> TracerouteResult:
    """Trace the path to target, one TTL ramp on the transport's flow.

    Stops at the first TTL whose responder is the target itself.  If the
    RTT jump across the last two responsive hops of a trace that reached
    the target falls in ``CONFIRM_BAND_MS``, each of those hops takes
    ``CONFIRM_PROBES`` more probes.
    """
    check_range("max_ttl", max_ttl)
    check_range("probes_per_hop", probes_per_hop)
    hops: list[TraceHop] = []
    reached = False
    for ttl in range(1, max_ttl + 1):
        hops.append(_probe_hop(transport, target, TraceHop(ttl, None, ()), probes_per_hop))
        if hops[-1].responder == target:
            reached = True
            break
    last_two = [i for i, hop in enumerate(hops) if hop.responsive][-2:]
    if reached and len(last_two) == 2:
        pre, post = (hops[i].median_rtt_us for i in last_two)
        if CONFIRM_BAND_MS[0] <= (post - pre) / 1000.0 < CONFIRM_BAND_MS[1]:
            for i in last_two:
                hops[i] = _probe_hop(transport, target, hops[i], CONFIRM_PROBES)
    result = TracerouteResult(target=target, hops=tuple(hops), reached=reached)
    if not result.responsive_hops():
        raise UnreachableError(f"{target}: no responsive hop within ttl {max_ttl}")
    return result


def _probe_hop(transport: Transport, target: str, hop: TraceHop, count: int) -> TraceHop:
    """``hop`` with ``count`` more probes at its TTL; its responder is the first to answer."""
    responder, samples = hop.responder, list(hop.rtt_samples)
    for _ in range(count):
        reply = transport.probe(target, hop.ttl)
        if reply is None:
            continue
        if responder is None:
            responder = reply.responder
        samples.append(reply.rtt_us)
    return TraceHop(ttl=hop.ttl, responder=responder, rtt_samples=tuple(samples))


def identify_sat_link(
    trace: TracerouteResult,
    jump_threshold_ms: float = DEFAULT_JUMP_THRESHOLD_MS,
) -> SatLinkPath:
    """Locate the satellite segment between the last two responsive hops.

    Compares median hop RTTs; the jump must meet the threshold, or, for
    a threshold no higher than the top of ``CONFIRM_BAND_MS``,
    ``CONFIRMED_JUMP_MS`` when both hops hold ``CONFIRM_SAMPLES`` samples.
    The last responsive hop must be the target (the endpoint answers its
    own echo), otherwise the pre/post pairing is meaningless.
    """
    responsive = trace.responsive_hops()
    if len(responsive) < 2:
        raise InsufficientPathError(
            f"{trace.target}: need two responsive hops, got {len(responsive)}")
    post = responsive[-1]
    pre = responsive[-2]
    if not trace.reached or post.responder != trace.target:
        raise InsufficientPathError(f"{trace.target}: trace did not reach the target")
    jump_ms = (post.median_rtt_us - pre.median_rtt_us) / 1000.0
    if (jump_threshold_ms <= CONFIRM_BAND_MS[1]
            and min(len(pre.rtt_samples), len(post.rtt_samples)) >= CONFIRM_SAMPLES):
        jump_threshold_ms = min(jump_threshold_ms, CONFIRMED_JUMP_MS)
    if jump_ms < jump_threshold_ms:
        raise NoSatelliteJumpError(
            f"{trace.target}: last-hop jump {jump_ms:.2f} ms below "
            f"threshold {jump_threshold_ms:.2f} ms")
    return SatLinkPath(
        target=trace.target,
        pre_sat_ttl=pre.ttl,
        pre_sat_router=pre.responder,
        post_sat_ttl=post.ttl,
        jump_ms=jump_ms,
    )


def probe_each_tick(transport: Transport, target: str, hops: Sequence[tuple[int, str]],
                    start_ms: int, cadence_hz: int,
                    n_ticks: int) -> tuple[np.ndarray, np.ndarray]:
    """Probe each ``(ttl, responder)`` hop once per tick, in order.

    Tick k sleeps until ``start_ms + (k * 1000) // cadence_hz``, so ticks
    stay on the cadence grid and a slow tick never shifts later ones.
    Returns send times in ms and RTTs in microseconds, each of shape
    ``(len(hops), n_ticks)``.  No reply, or a reply from anyone but the
    hop's responder (counted in ``wrong_responders``), is a NaN RTT.
    """
    sent_ms = np.empty((len(hops), n_ticks), dtype=np.int64)
    rtt_us = np.full((len(hops), n_ticks), np.nan)
    for k in range(n_ticks):
        transport.sleep_until_ms(start_ms + (k * 1000) // cadence_hz)
        for hop, (ttl, responder) in enumerate(hops):
            sent_ms[hop, k] = transport.now_ms()
            reply = transport.probe(target, ttl)
            if reply is None:
                continue
            if reply.responder == responder:
                rtt_us[hop, k] = reply.rtt_us
            else:
                wrong = transport.wrong_responders
                wrong[ttl] = wrong.get(ttl, 0) + 1
    return sent_ms, rtt_us


def measure_session(
    transport: Transport,
    endpoint: Endpoint,
    path: SatLinkPath,
    *,
    duration_s: int = DEFAULT_DURATION_S,
    cadence_hz: int = DEFAULT_CADENCE_HZ,
) -> MeasurementSession:
    """Probe the pre- and post-satellite hops once per tick.

    Each tick sends exactly one probe per hop target, so only one probe
    per tick crosses the satellite link (the endpoint pays one packet
    per second at the default cadence).  Ticks are scheduled on a fixed
    grid from the session start; a slow tick never shifts later ones.
    A reply from anyone but ``pre_sat_router`` at the terrestrial TTL or
    the target at the endpoint TTL is lost.
    """
    check_range("duration_s", duration_s)
    check_range("cadence_hz", cadence_hz)
    start_ms = transport.now_ms()
    sent_ms, rtt_us = transport.probe_ticks(
        path.target, ((path.pre_sat_ttl, path.pre_sat_router), (path.post_sat_ttl, path.target)),
        start_ms, cadence_hz, duration_s * cadence_hz)
    return MeasurementSession(endpoint=endpoint, path=path, start_ms=start_ms,
                              duration_s=duration_s, cadence_hz=cadence_hz,
                              sent_ms=sent_ms, rtt_us=rtt_us)
