"""Inputs, timed parts, output checks and digests of the three workloads.

Every workload drives the public ``leolink`` API from outside and is
built from a seed alone.  Each one has two timed parts:

* ``fleet`` and ``day``: ``leolink simulate`` then ``leolink report``
  over scenarios made by ``scripts/run_simulated_campaign.py``.
* ``geometry``: ``evaluate_case`` on the bundled Nigeria case, then a
  seeded sweep of composite dish/GS/POP routes at fixed snapshots.

``verify`` checks the outputs of the last iteration and digests them.
A failed check raises ``CheckFailed``.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

CONCURRENCY = 2

FLEET_ENDPOINTS = 32
FLEET_DURATION_S = 1800
DAY_DURATION_S = 86_400        # the largest duration_s CampaignConfig allows
# ``day`` gets one scheduled event per segment, so its event count (144)
# is fixed and the seed moves only placement, size, kind and jitter.
DAY_EVENT_SEGMENT_S = 600

ROUTE_ATTEMPTS = 2000
ROUTE_SNAPSHOT_TIMES_S = (0.0, 300.0, 600.0, 900.0)
# Routes the sweep may leave without coverage.  Every route of seeds
# 1-40, 7 and 20260814 was priced, at full and at quick size.
MAX_NO_COVERAGE = 0

QUICK_FLEET = (3, 600)         # endpoints, duration_s
QUICK_DAY_DURATION_S = 3600
QUICK_ROUTE_ATTEMPTS = 100

# a02 allows one sustained false positive per 10 x 1000 s of traffic.
FALSE_SUSTAINED_PER_S = 1 / 10_000

# evaluate_case(StudyCase.nigeria()) as recorded for this benchmark.
NIGERIA_REFERENCE = {
    "label": "nigeria-lagos-pop",
    "best_rtt_ms": 9.726277940790329,
    "worst_rtt_ms": 20.67579165154005,
    "worst_minus_best_ms": 11.043024804454813,
    "isl_threshold_ms": 11.931667010990301,
    "n_samples": 383,
    "n_no_coverage": 0,
}
REFERENCE_TOLERANCE = 1e-9


class CheckFailed(Exception):
    """An output of the program is wrong; the run must not print numbers."""


@dataclass
class Verdict:
    digest: str
    attempted: int
    lines: list[str]
    quality: dict = field(default_factory=dict)


def _load_campaign_script(root: Path):
    path = root / "scripts" / "run_simulated_campaign.py"
    spec = importlib.util.spec_from_file_location("run_simulated_campaign", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest_tree(top: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in top.rglob("*") if p.is_file()):
        h.update(path.relative_to(top).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def fixed_events(rng: random.Random, duration_s: int, kinds) -> list[dict]:
    """One event per DAY_EVENT_SEGMENT_S segment, on the 15 s grid.

    Sizes follow ``make_scenario``: 45 or 60 s long, 26-34 ms deep.  Each
    event ends at least 30 s before the next segment starts, and the
    first one starts no earlier than make_scenario's 60 s lead-in.
    """
    events = []
    for start in range(0, duration_s, DAY_EVENT_SEGMENT_S):
        length = rng.choice((45, 60))
        last_slot = (DAY_EVENT_SEGMENT_S - length - 30) // 15
        slot = rng.randint(4 if start == 0 else 0, last_slot)
        events.append({
            "at_s": start + 15 * slot,
            "kind": rng.choice(kinds),
            "delta_ms": round(rng.uniform(26.0, 34.0), 1),
            "duration_s": length,
        })
    return events


class PipelineWorkload:
    """``simulate`` then ``report`` through ``cli.main``, one process."""

    part_names = ("cli.simulate", "cli.report")

    def __init__(self, name: str, root: Path, workdir: Path, seed: int, quick: bool):
        from leolink import cli

        self.cli = cli
        self.name = name
        if name == "fleet":
            self.n_endpoints, self.duration_s = QUICK_FLEET if quick else (
                FLEET_ENDPOINTS, FLEET_DURATION_S)
        else:
            self.n_endpoints = 1
            self.duration_s = QUICK_DAY_DURATION_S if quick else DAY_DURATION_S
        # make_scenario addresses endpoint i as 98.97.{120 + i}.9
        if not 1 <= self.n_endpoints <= 256 - 120:
            raise ValueError(f"{self.n_endpoints} endpoints overflow 98.97.120+i")
        campaign = _load_campaign_script(root)
        rng = random.Random(seed)
        self.scenarios = []
        for i in range(self.n_endpoints):
            obj = campaign.make_scenario(rng, i, self.duration_s)
            if name == "day":
                obj["events"] = fixed_events(rng, self.duration_s, campaign.EVENT_KINDS)
            self.scenarios.append(obj)
        # Relative paths keep meta.json's config hash, and so the digest,
        # independent of where the checkout lives.
        self.scenario_dir = (workdir / "scenarios").relative_to(root)
        self.store = (workdir / "store").relative_to(root)
        self.abs_store = workdir / "store"
        shutil.rmtree(workdir / "scenarios", ignore_errors=True)
        (workdir / "scenarios").mkdir(parents=True)
        for i, obj in enumerate(self.scenarios):
            (workdir / "scenarios" / f"endpoint_{i:03d}.json").write_text(
                json.dumps(obj, indent=2) + "\n")
        self.codes: list[int] = []

    @property
    def n_events(self) -> int:
        return sum(len(s["events"]) for s in self.scenarios)

    def facts(self) -> dict:
        return {"endpoints": self.n_endpoints, "duration_s": self.duration_s,
                "events": self.n_events}

    def reset(self) -> None:
        shutil.rmtree(self.abs_store, ignore_errors=True)
        self.codes = []

    def _cli(self, argv: list[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            self.codes.append(self.cli.main(argv))

    def part1(self) -> None:
        self._cli(["simulate", "--scenarios", str(self.scenario_dir),
                   "--out", str(self.store), "--duration", str(self.duration_s),
                   "--partition", self.name, "--concurrency", str(CONCURRENCY)])

    def part2(self) -> None:
        self._cli(["report", "--store", str(self.store), "--partition", self.name])

    def _sustained(self, report: str) -> dict[str, list[tuple[int, int]]]:
        with open(self.abs_store / "reports" / report, newline="", encoding="utf-8") as fh:
            fh.readline()  # provenance comment
            spans: dict[str, list[tuple[int, int]]] = {}
            for row in csv.DictReader(fh):
                if row["kind"] == "sustained":
                    spans.setdefault(row["address"], []).append(
                        (int(row["start_ms"]), int(row["end_ms"])))
        return spans

    def _score(self, report: str) -> tuple[int, int]:
        """(recalled events, sustained spikes overlapping no event), a01 rule."""
        spans = self._sustained(report)
        recalled = false = 0
        for obj in self.scenarios:
            mine = spans.get(obj["hops"][-1]["address"], [])
            for ev in obj["events"]:
                lo = (ev["at_s"] + 7.5) * 1000.0
                hi = (ev["at_s"] + ev["duration_s"] - 7.5) * 1000.0
                recalled += any(s < hi and e > lo for s, e in mine)
            for s, e in mine:
                false += not any(s < (ev["at_s"] + ev["duration_s"]) * 1000
                                 and e > ev["at_s"] * 1000 for ev in obj["events"])
        return recalled, false

    def verify(self) -> Verdict:
        if self.codes != [0, 0]:
            raise CheckFailed(f"{self.name}: simulate/report exit codes {self.codes}")
        part = self.abs_store / self.name
        sessions = sum(1 for d in part.iterdir() if (d / "session.csv").is_file())
        failed = self.n_endpoints - sessions
        if failed:
            raise CheckFailed(f"{self.name}: {failed} of {self.n_endpoints} endpoints failed")
        allowed = int(self.n_endpoints * self.duration_s * FALSE_SUSTAINED_PER_S)
        lines = []
        # simulate's spikes.csv and report's spike_inventory.csv
        scores = {r: self._score(r) for r in ("spikes.csv", "spike_inventory.csv")}
        for report, (recalled, false) in scores.items():
            lines.append(f"check {report} event_recall={recalled}/{self.n_events} "
                         f"false_sustained={false} allowed={allowed}")
            if recalled != self.n_events or false > allowed:
                raise CheckFailed(f"{self.name}: {lines[-1]}")
        recalled, false = scores["spikes.csv"]
        return Verdict(digest=_digest_tree(self.abs_store), attempted=self.n_endpoints,
                       lines=lines,
                       quality={"event_recall": recalled / self.n_events,
                                "false_sustained": false})


class GeometryWorkload:
    """The constellation layer alone: one case sweep, one route sweep."""

    part_names = ("bench.case", "bench.routes")

    def __init__(self, name: str, root: Path, workdir: Path, seed: int, quick: bool):
        from leolink import constellation

        self.name = name
        self.geo = constellation
        self.case = constellation.StudyCase.nigeria()
        rng = random.Random(seed)
        self.routes = []
        # the a07 recipe: dish within +-52 deg latitude, access GS nearby,
        # POP up to 12 deg away, 30% inter-satellite routes
        for _ in range(QUICK_ROUTE_ATTEMPTS if quick else ROUTE_ATTEMPTS):
            lat, lon = rng.uniform(-52, 52), rng.uniform(-180, 180)
            dish = constellation.DishSite(lat, lon)
            gs = constellation.GroundStation(lat + rng.uniform(-2.5, 2.5),
                                             lon + rng.uniform(-2.5, 2.5))
            pop = constellation.GroundStation(lat + rng.uniform(-12, 12),
                                              lon + rng.uniform(-12, 12), label="pop")
            kind = "relay" if rng.random() < 0.7 else "isl"
            landing = None
            if kind == "isl":
                landing = constellation.GroundStation(pop.latitude + rng.uniform(-4, 4),
                                                      pop.longitude + rng.uniform(-4, 4))
            self.routes.append((dish, gs, pop, kind, landing, rng.choice([0, 0, 1, 2])))
        self.reset()

    def facts(self) -> dict:
        return {"route_attempts": len(self.routes),
                "snapshots": len(ROUTE_SNAPSHOT_TIMES_S)}

    def reset(self) -> None:
        self.summary = None
        self.totals: list = []

    def part1(self) -> None:
        self.summary = self.geo.evaluate_case(self.case)

    def part2(self) -> None:
        snaps = [self.geo.propagate(self.case.config, t) for t in ROUTE_SNAPSHOT_TIMES_S]
        totals = []
        for k, (dish, gs, pop, kind, landing, extra) in enumerate(self.routes):
            try:
                route = self.geo.composite_route_rtt(
                    dish, gs, pop, route_kind=kind, landing_gs=landing,
                    snapshot=snaps[k % len(snaps)], extra_isl_hops=extra)
            except self.geo.NoCoverageError:
                totals.append(None)
                continue
            totals.append(route.total_rtt_ms)
        self.totals = totals

    def verify(self) -> Verdict:
        s = self.summary
        for key, want in NIGERIA_REFERENCE.items():
            got = getattr(s, key)
            bad = (abs(got - want) > REFERENCE_TOLERANCE if isinstance(want, float)
                   else got != want)
            if bad:
                raise CheckFailed(f"geometry: CaseSummary.{key}={got!r}, reference {want!r}")
        violations = 0
        for (dish, _, pop, *_), total in zip(self.routes, self.totals):
            if total is None:
                continue
            floor = self.geo.direct_path_floor_rtt(dish.latitude, dish.longitude,
                                                   pop.latitude, pop.longitude)
            violations += total - floor < -1e-9
        priced = sum(t is not None for t in self.totals)
        no_coverage = len(self.totals) - priced
        line = (f"check nigeria_summary=reference routes={priced}/{len(self.routes)} "
                f"no_coverage={no_coverage} allowed={MAX_NO_COVERAGE} "
                f"floor_violations={violations}")
        if (violations or no_coverage > MAX_NO_COVERAGE
                or len(self.totals) != len(self.routes)):
            raise CheckFailed(f"geometry: {line}")
        h = hashlib.sha256()
        for key in NIGERIA_REFERENCE:
            h.update(repr(getattr(s, key)).encode() + b"\0")
        for t in self.totals:
            h.update(b"-\0" if t is None else float(t).hex().encode() + b"\0")
        return Verdict(digest=h.hexdigest(), attempted=1 + len(self.routes),
                       lines=[line])


def make(name: str, root: Path, workdir: Path, seed: int, quick: bool):
    """Build a workload's inputs from the seed; this is the timed set-up."""
    cls = GeometryWorkload if name == "geometry" else PipelineWorkload
    return cls(name, root, workdir, seed, quick)
