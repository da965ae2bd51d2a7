"""Deterministic seeded network simulator for offline pipeline testing.

A scenario describes one probe target behind a hop chain: per-segment
one-way latencies, which hops answer TTL-expired and/or echo probes,
where the satellite span sits in the chain, scheduled satellite reroute
events, and a jitter model.  ``SimnetTransport`` then answers probes
exactly like a real network would, against a virtual clock, so a
2,000-second measurement session runs in milliseconds of wall time.

Everything is reproducible: all randomness (jitter, loss) is a
counter-based stream, a splitmix64 hash of the scenario seed and the
probe's coordinates (send time, TTL, flow, protocol), with no generator
and no global state.  So identical (scenario, probe sequence, seed)
produce identical replies bit for bit regardless of thread interleaving,
and the probes of many send times are answered in one array pass.  A
transport fixes its protocol and timeout when it is made and every probe
carries one flow, so within a session only the send time and the TTL
vary.

Scenario files are JSON with schema id ``leolink-scenario/1``:

.. code-block:: json

    {
      "schema": "leolink-scenario/1",
      "seed": 42,
      "duration_s": 300,
      "hops": [
        {"label": "isp-edge", "address": "10.0.0.1",
         "ttl_expired": true, "echo": false},
        {"label": "customer", "address": "100.64.9.1",
         "ttl_expired": true, "echo": true}
      ],
      "base_latencies_ms": [1.0, 20.0],
      "satellite_segment": [1, 2],
      "jitter": {"dist": "gaussian", "sigma_ms": 0.5,
                 "satellite_sigma_ms": 1.5},
      "loss_probability": 0.0,
      "target_protocols": ["icmp"],
      "events": [
        {"at_s": 60, "kind": "isl_reroute", "delta_ms": 80.0,
         "duration_s": 30}
      ]
    }

``hops[i]`` answers probes whose TTL expires at position ``i + 1``;
``base_latencies_ms[i]`` is the one-way latency of the segment entering
that hop.  ``satellite_segment`` gives the 1-based hop numbers of the
last hop before and the first responding hop after the satellite link;
the spanned segments form the satellite ground truth.  Reroute deltas
attach to the first spanned segment, and no event may take the span's
RTT below 0.  Event times and durations must be multiples of 15 seconds
(the provider reschedules on a 15 s grid).

Optional knobs used by individual studies, all documented here because
they extend the schema: ``target_protocols`` limits which probe
protocols the target answers (intermediate hops expire any protocol);
``loss_probability`` drops probes uniformly; ``hop_flap`` periodically
inserts one extra terrestrial hop (``{"every_s": 25, "duration_s": 1}``)
to model transient path-length flaps; ``endpoint`` carries the
endpoint's ``pop_code``, ``source``, ``latitude`` and ``longitude`` (both
coordinates or neither).
A key outside the schema is refused at every level, except a free-text
``comment`` string at the top level.  :class:`Scenario` is the schema.
The events form the ground truth: :meth:`Scenario.event_at` names the
event active at each of an array of times, and
:meth:`Scenario.satellite_delta_ms` its delta, the one lookup that the
probe replies use too.  :func:`score_spikes` scores detected spikes
against a scenario's events.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import probe
from .analysis import KIND_SUSTAINED, SMOOTHING_WINDOW_S, SpikeEvent
from .checks import Fields, check, read_json
from .probe import DEFAULT_PROBE_TIMEOUT_S, PROTOCOLS, ProbeReply

SCHEMA_ID = "leolink-scenario/1"
EVENT_KINDS = ("gs_switch", "isl_reroute", "satellite_switch")
EVENT_GRID_S = 15
JITTER_DISTS = ("none", "gaussian", "lognormal")
_ENDPOINT_KINDS = {"pop_code": "string", "source": "string",
                   "latitude": "latitude", "longitude": "longitude"}
FLOW = 1  # the one flow every probe carries, packed into the per-probe hash


class ScenarioError(ValueError):
    """Scenario file failed validation; the message names the field."""


@dataclass(frozen=True)
class SimHop:
    label: str
    address: str = field(metadata={"kind": "address"})
    ttl_expired: bool = True
    echo: bool = False


@dataclass(frozen=True)
class RerouteEvent:
    at_s: int
    kind: str
    duration_s: int
    delta_ms: Optional[float] = None
    new_rtt_ms: Optional[float] = None

    @property
    def end_s(self) -> int:
        return self.at_s + self.duration_s


@dataclass(frozen=True)
class Jitter:
    dist: str = "gaussian"
    sigma_ms: float = 0.5
    satellite_sigma_ms: float = 1.5


@dataclass(frozen=True)
class HopFlap:
    every_s: int
    duration_s: int


@dataclass
class Scenario:
    """Validated simulation scenario for a single probe target: the fields are
    a scenario file's keys, and one built in code is checked as a file is."""

    hops: tuple[SimHop, ...]
    base_latencies_ms: tuple[float, ...]
    satellite_segment: tuple[int, ...]  # (pre_sat, post_sat), as the module docstring says
    schema: str = SCHEMA_ID
    comment: str = ""
    seed: int = 0
    duration_s: int = 300
    jitter: Jitter = field(default_factory=Jitter)
    events: tuple[RerouteEvent, ...] = ()
    loss_probability: float = 0.0
    target_protocols: tuple[str, ...] = PROTOCOLS
    hop_flap: HopFlap = None  # absent means no flap; a file's null is refused
    endpoint: dict = field(default_factory=dict)  # keys and kinds: _ENDPOINT_KINDS

    def __post_init__(self) -> None:
        if len(self.hops) < 2:
            raise _err("hops", "need at least two hops (one before and one after the satellite)")
        if len(self.base_latencies_ms) != len(self.hops):
            raise _err("base_latencies_ms", f"need exactly {len(self.hops)} per-segment values")
        for i, x in enumerate(self.base_latencies_ms):
            if x < 0:
                raise _err(f"base_latencies_ms[{i}]", "latency must be non-negative")
        if len(self.satellite_segment) != 2:
            raise _err("satellite_segment", "expected [pre_hop, post_hop]")
        if not (1 <= self.pre_sat < self.post_sat <= len(self.hops)):
            raise _err("satellite_segment", f"need 1 <= pre < post <= {len(self.hops)}")
        if self.duration_s <= 0:
            raise _err("duration_s", "must be positive")
        if self.jitter.dist not in JITTER_DISTS:
            raise _err("jitter.dist", f"must be one of {JITTER_DISTS}")
        for name in ("sigma_ms", "satellite_sigma_ms"):
            if getattr(self.jitter, name) < 0:
                raise _err(f"jitter.{name}", "sigma must be non-negative")
        for i, event in enumerate(self.events):
            name = f"events[{i}]"
            if event.kind not in EVENT_KINDS:
                raise _err(f"{name}.kind", f"must be one of {EVENT_KINDS}")
            if event.at_s < 0 or event.at_s % EVENT_GRID_S != 0:
                raise _err(f"{name}.at_s", f"must be a non-negative multiple of {EVENT_GRID_S}")
            if event.duration_s <= 0 or event.duration_s % EVENT_GRID_S != 0:
                raise _err(f"{name}.duration_s", f"must be a positive multiple of {EVENT_GRID_S}")
            if event.end_s > self.duration_s:
                raise _err(name, "event extends past scenario duration")
            if (event.delta_ms is None) == (event.new_rtt_ms is None):
                raise _err(name, "exactly one of delta_ms / new_rtt_ms required")
            rtt = (event.new_rtt_ms if event.delta_ms is None
                   else 2.0 * self.satellite_base_oneway_ms() + event.delta_ms)
            if rtt < 0:
                raise _err(name, f"satellite RTT would be {rtt!r} ms, below 0")
        self.events = tuple(sorted(self.events, key=lambda e: e.at_s))
        for a, b in zip(self.events, self.events[1:]):
            if b.at_s < a.end_s:
                raise _err("events", f"events at {a.at_s}s and {b.at_s}s overlap")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise _err("loss_probability", "must be within [0, 1]")
        for p in self.target_protocols:
            if p not in PROTOCOLS:
                raise _err("target_protocols", f"unknown protocol {p!r}")
        if self.hop_flap and not 0 < self.hop_flap.duration_s < self.hop_flap.every_s:
            raise _err("hop_flap.every_s", "need every_s > duration_s > 0")
        endpoint = Fields(self.endpoint, ScenarioError, "endpoint.").only(_ENDPOINT_KINDS)
        for key, value in endpoint.obj.items():
            check(value, _ENDPOINT_KINDS[key], f"endpoint.{key}", ScenarioError)
        for key, other in (("latitude", "longitude"), ("longitude", "latitude")):
            if other in endpoint.obj and key not in endpoint.obj:
                raise _err(f"endpoint.{key}", f"required with endpoint.{other}")

        # The timeline: per event its start, end and one-way delta on the
        # span, then a row for "no event" (index -1) that no time falls in.
        base = self.satellite_base_oneway_ms()
        timeline = [(ev.at_s, ev.end_s, ev.delta_ms / 2.0 if ev.new_rtt_ms is None
                     else ev.new_rtt_ms / 2.0 - base) for ev in self.events]
        self._starts, self._ends, self._deltas = map(
            np.array, zip(*timeline, (np.inf, -np.inf, 0.0)))
        # (hop, oneway_ms, is_sat_entry, sigma_ms) per TTL, without and
        # with a flap, which puts one terrestrial hop before the span.
        chain = [(hop, ms, i == self.pre_sat, self.jitter.satellite_sigma_ms
                  if i == self.pre_sat else self.jitter.sigma_ms)
                 for i, (hop, ms) in enumerate(zip(self.hops, self.base_latencies_ms))]
        flap = [(SimHop(label="flap", address="10.255.255.1"), 0.1, False, self.jitter.sigma_ms)]
        self._chains = (chain, chain[:self.pre_sat] + flap + chain[self.pre_sat:])

    pre_sat = property(lambda self: self.satellite_segment[0])
    post_sat = property(lambda self: self.satellite_segment[1])

    @property
    def target_address(self) -> str:
        return self.hops[-1].address

    def satellite_base_oneway_ms(self) -> float:
        # Segments strictly after pre_sat up to and including post_sat.
        return sum(self.base_latencies_ms[self.pre_sat:self.post_sat])

    def event_at(self, t_s: np.ndarray) -> np.ndarray:
        """Index into ``events`` of the event active at each of the times
        ``t_s`` (in ``[at_s, end_s)``), or -1 where none is."""
        # The events are sorted and disjoint, so the last event to start by
        # t is the only one that can be active at t.
        i = np.searchsorted(self._starts, t_s, side="right") - 1
        return np.where(t_s < self._ends[i], i, -1)

    def satellite_delta_ms(self, t_s: np.ndarray) -> np.ndarray:
        """One-way latency delta on the satellite span at each of the times
        ``t_s``; the jitter-free span RTT is ``2 * (base + delta)``."""
        return self._deltas[self.event_at(t_s)]


@dataclass(frozen=True)
class SpikeScore:
    """What :func:`score_spikes` finds of one session."""

    recalled: tuple[bool, ...]          # per event
    false_sustained: int
    nearest: tuple[Optional[int], ...]  # per spike, an index into the events


def score_spikes(spikes: Sequence[SpikeEvent], events: Sequence[RerouteEvent], *,
                 window_s: float = 15.0) -> SpikeScore:
    """Score one session's spikes against its timed events, in one pass.

    An event is recalled when a sustained spike overlaps its span
    ``[at_s, end_s)`` less the first and last half smoothing window, over
    which the smoothed series is still ramping.  A sustained spike that
    overlaps no event's whole span is false.  A spike's nearest event is
    the first whose start lies closest to the spike's start, if it is
    within ``window_s`` either side inclusive, else None.
    """
    if not window_s >= 0:
        raise ValueError(f"window_s: must be >= 0, got {window_s!r}")
    trim_ms = SMOOTHING_WINDOW_S / 2 * 1000.0
    spans = [(ev.at_s * 1000, ev.end_s * 1000) for ev in events]
    recalled, false, nearest = [False] * len(spans), 0, []
    for spike in spikes:
        start, end = spike.start_ms, spike.end_ms
        if spike.kind == KIND_SUSTAINED:
            false += not any(start < hi and end > lo for lo, hi in spans)
            for i, (lo, hi) in enumerate(spans):
                recalled[i] |= start < hi - trim_ms and end > lo + trim_ms
        gaps = [abs(ev.at_s - start / 1000.0) for ev in events]
        best = min(range(len(gaps)), key=gaps.__getitem__, default=None)
        nearest.append(best if best is not None and gaps[best] <= window_s else None)
    return SpikeScore(tuple(recalled), false, tuple(nearest))


def _err(fieldname: str, message: str) -> ScenarioError:
    return ScenarioError(f"{fieldname}: {message}")


def build_scenario(source: dict | str | Path) -> Scenario:
    """Validate a scenario description (dict or JSON file path).

    A bad description raises :class:`ScenarioError` naming the field,
    prefixed by the file when one was read.  Nothing is coerced.
    """
    if not isinstance(source, dict):
        return read_json(source, ScenarioError, lambda scenario: build_scenario(scenario.obj))
    if source.get("schema") != SCHEMA_ID:
        raise _err("schema", f"expected {SCHEMA_ID!r}, got {source.get('schema')!r}")
    return Fields(source, ScenarioError).make(Scenario)


def load_scenario_dir(path: str | Path) -> dict[str, Scenario]:
    """Load every *.json scenario in a directory, keyed by target address."""
    scenarios: dict[str, Scenario] = {}
    files = sorted(Path(path).glob("*.json"))
    if not files:
        raise ScenarioError(f"{path}: no scenario files found")
    for f in files:
        sc = build_scenario(f)
        if sc.target_address in scenarios:
            raise ScenarioError(f"{f}: duplicate target {sc.target_address}")
        scenarios[sc.target_address] = sc
    return scenarios


_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64's counter step, 2**64 over the golden ratio
_U64 = np.uint64
_SQRT_E = math.e ** 0.5


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's finaliser over a uint64 array; products wrap modulo 2**64."""
    z = z ^ (z >> _U64(30))
    z *= _U64(0xBF58476D1CE4E5B9)
    z ^= z >> _U64(27)
    z *= _U64(0x94D049BB133111EB)
    z ^= z >> _U64(31)
    return z


def _probe_core(scenario: Scenario, protocol: str) -> tuple[Callable, Callable]:
    """``(plan_of, replies)``: ``replies(ttl, t_ms)`` answers the probes to
    the scenario's target at one TTL sent at the int64 virtual times ``t_ms``.

    It returns ``(rtt_ms, flapped)``: each probe's RTT, NaN for silence,
    and whether the flap hop was in the path.  The responder is the first
    item of ``plan_of(flapped, ttl)``.  The RTT is twice the one-way
    latency up to the hop where the TTL expires, the satellite span
    shifted by :meth:`Scenario.satellite_delta_ms`, plus jitter.  Each
    (flap, TTL) is planned once.

    The draws come from a counter-based stream, with no generator:
    ``key = mix(seed ^ mix(protocol_index << 48 | FLOW << 32 | ttl))`` and
    ``h = mix(key ^ t_ms * G)``, where ``mix`` is splitmix64's finaliser,
    ``G`` its step and ``protocol_index`` the protocol's position in
    ``probe.PROTOCOLS``.  Uniform j is ``(mix(h + j * G) >> 11) * 2**-53``.
    When the scenario has loss, uniform 1 decides it.  The uniforms after
    pair into Box-Muller normals, one per jittered segment in path order,
    and lognormal jitter is ``exp(z) / sqrt(e)`` of the same normal.
    """
    gaussian = scenario.jitter.dist == "gaussian"
    draws = gaussian or scenario.jitter.dist == "lognormal"
    loss, flap = scenario.loss_probability, scenario.hop_flap
    seed, protocol_index = _U64(scenario.seed % 2 ** 64), PROTOCOLS.index(protocol)
    keys: dict[int, np.ndarray] = {}  # per TTL, a one-element uint64 array

    def plan(chain: list, expire_at: int) -> Optional[tuple]:
        # responder, (seg_ms, is_sat_entry) per segment, sigma per draw,
        # and whether the probe crosses the satellite span
        hop, at_target = chain[expire_at - 1][0], expire_at == len(chain)
        if not (hop.echo and protocol in scenario.target_protocols if at_target
                else hop.ttl_expired):
            return None
        segments = chain[:expire_at]
        return (hop.address, [(ms, entry) for _, ms, entry, _ in segments],
                [sigma for *_, sigma in segments if draws and sigma > 0],
                any(entry for _, _, entry, _ in segments))

    # per flap state, the plan of each TTL from 1 to the target's
    plans = [[None] + [plan(chain, ttl) for ttl in range(1, len(chain) + 1)]
             for chain in scenario._chains]

    def plan_of(flapped: bool, ttl: int) -> Optional[tuple]:
        by_ttl = plans[flapped]
        return by_ttl[min(ttl, len(by_ttl) - 1)]

    def rtts(p: tuple, key: np.ndarray, t_ms: np.ndarray, t_s: np.ndarray) -> np.ndarray:
        _, segments, sigmas, crosses = p
        first = 2 if loss > 0 else 1  # the first jitter uniform: with loss, loss takes 1
        h = _mix(key ^ t_ms.view(_U64) * _U64(_GOLDEN))

        def uniform(j: int) -> np.ndarray:
            return (_mix(h + _U64(j * _GOLDEN % 2 ** 64)) >> _U64(11)) * 2.0 ** -53

        delta = scenario.satellite_delta_ms(t_s) if crosses else 0.0
        oneway, noise = 0.0, np.zeros(len(t_ms))
        for seg_ms, is_sat_entry in segments:
            oneway = oneway + (seg_ms + delta if is_sat_entry else seg_ms)
        for i, sigma in enumerate(sigmas):
            if i % 2 == 0:
                angle = uniform(first + i) * math.tau
                radius = np.sqrt(-2.0 * np.log(1.0 - uniform(first + 1 + i)))
                z = np.cos(angle) * radius
            else:
                z = np.sin(angle) * radius
            # lognormal: one-sided queueing-style noise with scale sigma
            noise = noise + (z * sigma if gaussian else sigma * (np.exp(z) / _SQRT_E))
        rtt = np.maximum(2.0 * oneway + noise, 0.001)
        if loss > 0:
            rtt[uniform(1) < loss] = np.nan
        return rtt

    def replies(ttl: int, t_ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if ttl < 1:
            raise ValueError("ttl must be >= 1")
        t_s = t_ms / 1000.0
        if flap is None:
            flapped, states = np.zeros(len(t_ms), dtype=bool), [(0, slice(None))]
        else:
            flapped = np.remainder(t_s, flap.every_s) < flap.duration_s
            states = [(0, ~flapped), (1, flapped)]
        if ttl not in keys:
            keys[ttl] = _mix(seed ^ _mix(np.array([protocol_index << 48 | FLOW << 32 | ttl],
                                                  dtype=_U64)))
        key = keys[ttl]
        rtt = np.full(len(t_ms), np.nan)
        for state, on in states:
            p = plan_of(state, ttl)
            if p is not None:
                rtt[on] = rtts(p, key, t_ms[on], t_s[on])
        return rtt, flapped

    return plan_of, replies


class SimnetTransport:
    """Probe transport bound to one scenario with its own virtual clock.

    Create one transport per measurement task: virtual time advances
    only through the owning task's probes and sleeps, which keeps
    concurrent sessions over different endpoints deterministic.  The
    clock counts float ms, read whole; a sleep never moves it back, and a
    probe moves it on by its RTT, or by the timeout when no reply comes.
    ``probe`` and ``probe_ticks`` share one array core (:func:`_probe_core`):
    ``probe`` asks it one probe, ``probe_ticks`` a pass of ticks at a time.
    """

    def __init__(self, scenario: Scenario, *, protocol: str = "icmp",
                 timeout_s: float = DEFAULT_PROBE_TIMEOUT_S):
        if protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol: {protocol}")
        if not timeout_s > 0:  # a lost probe must not move the clock back
            raise ValueError(f"timeout_s must be positive, got {timeout_s!r}")
        self.scenario = scenario
        self.protocol = protocol
        self.timeout_s = timeout_s
        self._now_ms = 0.0
        self.probes_sent = 0
        self.sat_probe_count = 0
        self.wrong_responders: dict[int, int] = {}
        self._plan, self._replies = _probe_core(scenario, protocol)

    def now_ms(self) -> int:
        return int(self._now_ms)

    def sleep_until_ms(self, t_ms: int) -> None:
        if t_ms > self._now_ms:
            self._now_ms = float(t_ms)

    def probe(self, target: str, ttl: int) -> Optional[ProbeReply]:
        self.probes_sent += 1
        self.sat_probe_count += ttl > self.scenario.pre_sat
        if target == self.scenario.target_address:
            rtt_ms, flapped = self._replies(ttl, np.array([self.now_ms()], dtype=np.int64))
            if not math.isnan(rtt_ms[0]):
                reply = ProbeReply(responder=self._plan(bool(flapped[0]), ttl)[0],
                                   rtt_us=float(rtt_ms[0]) * 1000.0)
                self._now_ms += reply.rtt_us / 1000.0
                return reply
        self._now_ms += self.timeout_s * 1000.0
        return None

    def _answer(self, target: str, hops: Sequence[tuple[int, str]], clock: np.ndarray,
                sent_ms: np.ndarray, rtt_us: np.ndarray, wrong: np.ndarray) -> np.ndarray:
        """Send each hop's probe in turn from every float clock in ``clock``;
        fill the hop rows of send times, RTTs (NaN when lost or from a wrong
        responder) and wrong responders, and return the clocks after."""
        answers = target == self.scenario.target_address
        for h, (ttl, expected) in enumerate(hops):
            sent_ms[h] = t_ms = clock.astype(np.int64)
            if answers:
                rtt_ms, flapped = self._replies(ttl, t_ms)
                bad = [p is not None and p[0] != expected
                       for p in (self._plan(False, ttl), self._plan(True, ttl))]
                wrong[h] = np.where(flapped, bad[1], bad[0]) & ~np.isnan(rtt_ms)
            else:
                rtt_ms, wrong[h] = np.full(len(t_ms), np.nan), False
            got = rtt_ms * 1000.0
            # as probe() advances the clock: by the RTT in us over 1000
            clock = clock + np.where(np.isnan(got), self.timeout_s * 1000.0, got / 1000.0)
            rtt_us[h] = np.where(wrong[h], np.nan, got)
        return clock

    def probe_ticks(self, target: str, hops: Sequence[tuple[int, str]], start_ms: int,
                    cadence_hz: int, n_ticks: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`probe` once per hop per tick, exactly as
        :func:`probe.probe_each_tick` would send them.

        Each pass of ``probe.PASS_TICKS`` ticks is answered in one array call per hop, as if
        every tick left at its grid time.  A tick leaves at its grid time or
        when the tick before it ends, whichever is later, so a tick after a
        timeout (or at a high cadence) leaves late.  Fix-up passes answer
        late ticks again from those leaving times: each pass takes every
        tick whose leaving time moved while its previous tick's did not,
        which is the next tick of every run of late ticks at once.  They
        end when no leaving time moves.
        """
        if any(ttl < 1 for ttl, _ in hops):
            raise ValueError("ttl must be >= 1")
        sent_ms = np.empty((len(hops), n_ticks), dtype=np.int64)
        rtt_us = np.empty((len(hops), n_ticks), dtype=np.float64)
        end = self._now_ms  # the float clock, not the session's int start
        for lo in range(0, n_ticks, probe.PASS_TICKS):
            block = slice(lo, lo + probe.PASS_TICKS)
            sent, rtt = sent_ms[:, block], rtt_us[:, block]
            due = start_ms + np.arange(lo, lo + sent.shape[1], dtype=np.int64) * 1000 // cadence_hz
            wrong = np.empty(sent.shape, dtype=bool)
            leave = due.astype(np.float64)
            ends = self._answer(target, hops, leave, sent, rtt, wrong)
            while True:
                leaves = np.maximum(due, np.concatenate(([end], ends[:-1])))
                moved = leaves != leave
                moved[1:] &= ~moved[:-1]  # a tick waits for the one before it to settle
                ticks = np.flatnonzero(moved)
                if not len(ticks):
                    break
                leave[ticks] = leaves[ticks]
                part = (slice(None), ticks)
                answered = sent[part], rtt[part], wrong[part]
                ends[ticks] = self._answer(target, hops, leave[ticks], *answered)
                sent[part], rtt[part], wrong[part] = answered
            end = float(ends[-1])
            for (ttl, _), count in zip(hops, wrong.sum(axis=1).tolist()):
                if count:
                    self.wrong_responders[ttl] = self.wrong_responders.get(ttl, 0) + count
        self._now_ms = end
        self.probes_sent += len(hops) * n_ticks
        self.sat_probe_count += n_ticks * sum(ttl > self.scenario.pre_sat for ttl, _ in hops)
        return sent_ms, rtt_us
