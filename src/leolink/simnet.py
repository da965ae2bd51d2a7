"""Deterministic seeded network simulator for offline pipeline testing.

A scenario describes one probe target behind a hop chain: per-segment
one-way latencies, which hops answer TTL-expired and/or echo probes,
where the satellite span sits in the chain, scheduled satellite reroute
events, and a jitter model.  ``SimnetTransport`` then answers probes
exactly like a real network would, against a virtual clock, so a
2,000-second measurement session runs in milliseconds of wall time.

Everything is reproducible: all randomness (jitter, loss) is derived
from the scenario seed and the probe coordinates, never from global
state, so identical (scenario, probe sequence, seed) produce identical
replies bit for bit regardless of thread interleaving.  A transport
fixes its protocol and timeout when it is made and every probe carries
one flow, so a whole session runs on values fixed up front.

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
endpoint's ``pop_code``, ``source``, ``latitude`` and ``longitude``.
A key outside the schema is refused at every level, except a free-text
``comment`` string at the top level.  :class:`Scenario` is the schema.
"""
from __future__ import annotations

import math
import random
import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from hashlib import blake2b
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .checks import Fields, read_json
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
    address: str
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

    def active_at(self, t_s: float) -> bool:
        return self.at_s <= t_s < self.end_s


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
        if self.jitter.sigma_ms < 0 or self.jitter.satellite_sigma_ms < 0:
            raise _err("jitter.sigma_ms", "sigma must be non-negative")
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
        for key in endpoint.obj:
            endpoint(key, _ENDPOINT_KINDS[key])

        # The events are sorted and disjoint, so the last event to start by
        # t is the only one that can be active at t.
        self._event_starts = [ev.at_s for ev in self.events]
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

    @property
    def path_length(self) -> int:
        return len(self.hops)

    def satellite_base_oneway_ms(self) -> float:
        # Segments strictly after pre_sat up to and including post_sat.
        return sum(self.base_latencies_ms[self.pre_sat:self.post_sat])

    def satellite_delta_ms(self, t_s: float) -> tuple[float, Optional[RerouteEvent]]:
        """One-way latency delta on the satellite span at time t."""
        i = bisect_right(self._event_starts, t_s) - 1
        if i >= 0 and self.events[i].active_at(t_s):
            ev = self.events[i]
            if ev.new_rtt_ms is not None:
                return ev.new_rtt_ms / 2.0 - self.satellite_base_oneway_ms(), ev
            return (ev.delta_ms or 0.0) / 2.0, ev
        return 0.0, None


@dataclass(frozen=True)
class GroundTruth:
    route_kind: str          # "baseline" or the active event kind
    sat_rtt_ms: float        # satellite span round-trip, jitter-free
    in_event: bool


def ground_truth(scenario: Scenario, t_s: float) -> GroundTruth:
    delta, ev = scenario.satellite_delta_ms(t_s)
    rtt = 2.0 * (scenario.satellite_base_oneway_ms() + delta)
    if ev is None:
        return GroundTruth("baseline", rtt, False)
    return GroundTruth(ev.kind, rtt, True)


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


class VirtualClock:
    def __init__(self, start_ms: int = 0):
        self._now_ms = float(start_ms)

    def now_ms(self) -> int:
        return int(self._now_ms)

    def advance_ms(self, dt_ms: float) -> None:
        if dt_ms < 0:
            raise ValueError("clock cannot run backwards")
        self._now_ms += dt_ms

    def sleep_until_ms(self, t_ms: int) -> None:
        if t_ms > self._now_ms:
            self._now_ms = float(t_ms)


def _probe_core(scenario: Scenario, protocol: str) -> Callable:
    """``reply(ttl, t_ms)``: the ``(responder, kind, rtt_ms)`` of a probe to
    the scenario's target sent at virtual time t_ms, or None for silence.

    The RTT is twice the one-way latency up to the hop where the TTL
    expires, the satellite span event-adjusted, plus jitter.  The core's
    own generator is reseeded per probe from a blake2b hash of (seed,
    t_ms, ttl, flow, protocol) and draws gaussians term for term as
    ``random.gauss`` does.  Each (flap, ttl) is planned once.
    """
    gaussian = scenario.jitter.dist == "gaussian"
    draws = gaussian or scenario.jitter.dist == "lognormal"
    loss, flap = scenario.loss_probability, scenario.hop_flap
    rng = random.Random()
    reseed, uniform = super(random.Random, rng).seed, rng.random  # as random.Random(n) seeds
    key, unpack = struct.Struct("<QqiH"), struct.Struct("<Q").unpack
    seed, suffix = scenario.seed & 0xFFFFFFFFFFFFFFFF, protocol.encode()

    def plan(chain: list, expire_at: int) -> Optional[tuple]:
        # responder, kind, (seg_ms, is_sat_entry) per segment, sigma per
        # draw, and whether the probe crosses the satellite span
        hop, at_target = chain[expire_at - 1][0], expire_at == len(chain)
        if not (hop.echo and protocol in scenario.target_protocols if at_target
                else hop.ttl_expired):
            return None
        segments = chain[:expire_at]
        return (hop.address, "echo" if at_target else "ttl_expired",
                [(ms, entry) for _, ms, entry, _ in segments],
                [sigma for *_, sigma in segments if draws and sigma > 0],
                any(entry for _, _, entry, _ in segments))

    # per flap state, the plan of each TTL from 1 to the target's
    plans = [[None] + [plan(chain, ttl) for ttl in range(1, len(chain) + 1)]
             for chain in scenario._chains]

    def reply(ttl: int, t_ms: int) -> Optional[tuple[str, str, float]]:
        if ttl < 1:
            raise ValueError("ttl must be >= 1")
        t_s = t_ms / 1000.0
        by_ttl = plans[flap is not None and (t_s % flap.every_s) < flap.duration_s]
        p = by_ttl[min(ttl, len(by_ttl) - 1)]
        if p is None:
            return None
        responder, kind, segments, sigmas, crosses = p
        if loss > 0 or sigmas:
            reseed(unpack(blake2b(key.pack(seed, t_ms, ttl, FLOW) + suffix,
                                  digest_size=8).digest())[0])
            if loss > 0 and uniform() < loss:
                return None
        delta = scenario.satellite_delta_ms(t_s)[0] if crosses else 0.0
        oneway = noise = 0.0
        for seg_ms, is_sat_entry in segments:
            oneway += seg_ms + (delta if is_sat_entry else 0.0)
        z2 = None  # random.gauss's cached second normal
        for sigma in sigmas:
            if not gaussian:  # one-sided queueing-style noise with scale sigma
                noise += sigma * (rng.lognormvariate(0.0, 1.0) / math.e ** 0.5)
            elif z2 is None:
                x2pi, g2rad = uniform() * math.tau, math.sqrt(-2.0 * math.log(1.0 - uniform()))
                z2 = math.sin(x2pi) * g2rad
                noise += 0.0 + (math.cos(x2pi) * g2rad) * sigma
            else:
                noise += 0.0 + z2 * sigma
                z2 = None
        return responder, kind, max(2.0 * oneway + noise, 0.001)

    return reply


class SimnetTransport:
    """Probe transport bound to one scenario with its own virtual clock.

    Create one transport per measurement task: virtual time advances
    only through the owning task's probes and sleeps, which keeps
    concurrent sessions over different endpoints deterministic.  A probe
    that draws no reply advances the clock by the timeout.  ``probe``
    and ``probe_ticks`` share one per-probe core (:func:`_probe_core`).
    """

    def __init__(self, scenario: Scenario, *, protocol: str = "icmp",
                 timeout_s: float = DEFAULT_PROBE_TIMEOUT_S):
        if protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol: {protocol}")
        self.scenario = scenario
        self.protocol = protocol
        self.timeout_s = timeout_s
        self.clock = VirtualClock()
        self.probes_sent = 0
        self.sat_probe_count = 0
        self.wrong_responders: dict[int, int] = {}
        self._reply = _probe_core(scenario, protocol)

    def now_ms(self) -> int:
        return self.clock.now_ms()

    def sleep_until_ms(self, t_ms: int) -> None:
        self.clock.sleep_until_ms(t_ms)

    def probe(self, target: str, ttl: int) -> Optional[ProbeReply]:
        self.probes_sent += 1
        self.sat_probe_count += ttl > self.scenario.pre_sat
        answer = (self._reply(ttl, self.now_ms()) if target == self.scenario.target_address
                  else None)
        if answer is None:
            self.clock.advance_ms(self.timeout_s * 1000.0)
            return None
        reply = ProbeReply(responder=answer[0], rtt_us=answer[2] * 1000.0, kind=answer[1])
        self.clock.advance_ms(reply.rtt_us / 1000.0)
        return reply

    def probe_ticks(self, target: str, hops: Sequence[tuple[int, str]], start_ms: int,
                    cadence_hz: int, n_ticks: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`probe` once per hop per tick, exactly as
        :func:`probe.probe_each_tick` would send them, in one loop."""
        if any(ttl < 1 for ttl, _ in hops):
            raise ValueError("ttl must be >= 1")
        sent_ms = np.empty((len(hops), n_ticks), dtype=np.int64)
        rtt_us = np.empty((len(hops), n_ticks), dtype=np.float64)
        reply = self._reply if target == self.scenario.target_address else lambda *_: None
        timeout_ms, nan, wrong = self.timeout_s * 1000.0, math.nan, self.wrong_responders
        rows = [(ttl, responder, memoryview(sent_ms[h]), memoryview(rtt_us[h]))
                for h, (ttl, responder) in enumerate(hops)]
        now = self.clock._now_ms  # the float clock, not the session's int start
        for k in range(n_ticks):
            tick = start_ms + (k * 1000) // cadence_hz
            if tick > now:
                now = float(tick)
            for ttl, expected, sent, rtt in rows:
                sent[k] = t_ms = int(now)
                answer = reply(ttl, t_ms)
                if answer is None:
                    rtt[k] = nan
                    now += timeout_ms
                    continue
                rtt[k] = got = answer[2] * 1000.0
                now += got / 1000.0  # as probe() advances the clock
                if answer[0] != expected:
                    rtt[k] = nan
                    wrong[ttl] = wrong.get(ttl, 0) + 1
        self.clock._now_ms = now
        self.probes_sent += len(hops) * n_ticks
        self.sat_probe_count += n_ticks * sum(ttl > self.scenario.pre_sat for ttl, _ in hops)
        return sent_ms, rtt_us
