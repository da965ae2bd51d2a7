"""Traced runs: rebind the public functions of each layer, record spans.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` rebinds
module functions and class methods at run time and ``Tracer.restore``
puts the originals back, so untraced iterations run unwrapped code.

Calls at session level and above become spans (name, endpoint, parent,
start, end).  Every span carries the endpoint it serves, so the spans of
one endpoint share that id.  Per-probe and per-route calls are folded
into ``[calls, busy_s, flagged]`` on the innermost open span of the
calling thread.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import resource
import threading
import time
from typing import Callable, Optional

perf = time.perf_counter

ALL_ENDPOINTS = "*"


def _cpu_s() -> float:
    """CPU seconds of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._part: Optional[dict] = None
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def endpoint(self) -> str:
        """The endpoint this thread last opened a session-level span for."""
        return getattr(self._local, "endpoint", ALL_ENDPOINTS)

    @contextlib.contextmanager
    def span(self, name: str, endpoint: str):
        stack = self._stack()
        # Pool threads start with an empty stack; their parent is the part.
        parent = stack[-1] if stack else self._part
        rec = {"id": next(self._ids), "name": name, "endpoint": endpoint,
               "parent": parent["id"] if parent else None,
               "thread": threading.get_ident(), "folds": {}, "error": None}
        stack.append(rec)
        rec["start"] = perf()
        try:
            yield rec
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = perf()
            stack.pop()
            self.spans.append(rec)

    @contextlib.contextmanager
    def part(self, name: str):
        """A timed part of the workload; the root of its spans."""
        cpu0 = _cpu_s()
        with self.span(name, ALL_ENDPOINTS) as rec:
            self._part = rec
            try:
                yield rec
            finally:
                self._part = None
        rec["cpu_s"] = _cpu_s() - cpu0

    def fold(self, key: str, busy_s: float, flagged: bool) -> None:
        stack = self._stack()
        owner = stack[-1] if stack else self._part
        acc = owner["folds"].setdefault(key, [0, 0.0, 0])
        acc[0] += 1
        acc[1] += busy_s
        acc[2] += flagged

    # ------------------------------------------------------- rebinding

    def _rebind(self, owner: object, attr: str, make: Callable) -> None:
        orig = getattr(owner, attr)
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, functools.wraps(orig)(make(orig)))

    def spanned(self, owner, attr: str, name: str,
                endpoint_of: Optional[Callable[[dict], str]] = None,
                after: Optional[Callable] = None) -> None:
        """Rebind owner.attr so each call is a span.

        ``endpoint_of`` maps the call's bound arguments to the endpoint
        it serves and makes that the thread's current endpoint; without
        it the span takes the thread's current endpoint.
        ``after(rec, arguments, result)`` runs once the span has closed,
        outside its timing.
        """
        def make(orig):
            sig = inspect.signature(orig)

            def wrapper(*args, **kwargs):
                arguments = sig.bind(*args, **kwargs).arguments
                if endpoint_of is not None:
                    self._local.endpoint = str(endpoint_of(arguments))
                with self.span(name, self.endpoint) as rec:
                    result = orig(*args, **kwargs)
                if after is not None:
                    after(rec, arguments, result)
                return result
            return wrapper
        self._rebind(owner, attr, make)

    def folded(self, owner, attr: str, key: str,
               flag: Callable[[object], bool] = lambda result: False,
               flag_error: tuple = ()) -> None:
        """Rebind owner.attr so calls fold into counts and busy time.

        A result for which ``flag`` is true, or an exception of a type in
        ``flag_error``, counts as flagged.
        """
        def make(orig):
            def wrapper(*args, **kwargs):
                # a folded call made inside another one is part of its time
                if getattr(self._local, "folding", False):
                    return orig(*args, **kwargs)
                self._local.folding = True
                t0 = perf()
                try:
                    result = orig(*args, **kwargs)
                except flag_error:
                    self.fold(key, perf() - t0, True)
                    raise
                finally:
                    self._local.folding = False
                self.fold(key, perf() - t0, flag(result))
                return result
            return wrapper
        self._rebind(owner, attr, make)

    def install(self) -> None:
        from leolink import analysis, cli, constellation, probe, simnet, store

        def session_ticks(rec, arguments, result):
            rec["ticks"] = result.duration_s * result.cadence_hz

        def bytes_written(rec, arguments, path):
            rec["bytes"] = (path.stat().st_size
                            + (path.parent / store.META_FILENAME).stat().st_size)

        def bytes_read(rec, arguments, result):
            rec["bytes"] = arguments["record"].path.stat().st_size

        self.spanned(probe, "run_traceroute", "probe.traceroute",
                     lambda a: a["target"])
        self.spanned(probe, "measure_session", "probe.session",
                     lambda a: a["endpoint"].address, after=session_ticks)
        self.folded(simnet.SimnetTransport, "probe", "simnet.probe",
                    flag=lambda reply: reply is None)
        self.spanned(store.MeasurementStore, "write_session", "store.write",
                     lambda a: a["session"].endpoint.address, after=bytes_written)
        self.spanned(store.MeasurementStore, "read_session", "store.read",
                     lambda a: a["record"].address, after=bytes_read)
        # cli imported this name itself, so it is rebound in cli
        self.spanned(cli, "write_report_csv", "store.report_csv",
                     lambda a: ALL_ENDPOINTS)
        for attr, name in (("isolate_satellite_latency", "analysis.isolate"),
                           ("smooth", "analysis.smooth"),
                           ("detect_spikes", "analysis.detect"),
                           ("session_stats", "analysis.stats"),
                           ("aggregate_by_pop", "analysis.aggregate"),
                           ("min_rtt_vs_pop_distance", "analysis.aggregate"),
                           ("temporal_trend", "analysis.aggregate")):
            self.spanned(analysis, attr, name)
        self.spanned(constellation, "evaluate_case", "constellation.evaluate",
                     lambda a: a["case"].label)
        for attr, key in (("propagate", "constellation.propagate"),
                          ("best_case_rtt", "constellation.select"),
                          ("worst_case_rtt", "constellation.select"),
                          ("min_isl_ng_threshold", "constellation.threshold")):
            self.folded(constellation, attr, key)
        self.folded(constellation, "composite_route_rtt", "constellation.route",
                    flag_error=(constellation.NoCoverageError,))

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


# ------------------------------------------------------------ metrics

def _duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def _covered(part: dict, children: list[dict]) -> float:
    """Time of the part covered by its child spans or calls folded on it."""
    covered = 0.0
    reach = part["start"]
    for rec in sorted(children, key=lambda r: r["start"]):
        start, end = max(rec["start"], reach), min(rec["end"], part["end"])
        if end > start:
            covered += end - start
            reach = end
    return covered + sum(acc[1] for acc in part["folds"].values())


def layer_metrics(spans: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration whose parts took wall_s."""
    by_name: dict[str, list[dict]] = {}
    for rec in spans:
        by_name.setdefault(rec["name"], []).append(rec)

    def recs(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(_duration(r) for r in recs(name))

    def folds(key, within=None):
        calls = busy_s = flagged = 0
        for rec in spans:
            if within is not None and rec["name"] != within:
                continue
            acc = rec["folds"].get(key)
            if acc:
                calls += acc[0]
                busy_s += acc[1]
                flagged += acc[2]
        return calls, busy_s, flagged

    parts = [r for r in spans if r["parent"] is None]
    children: dict[int, list[dict]] = {}
    for rec in spans:
        children.setdefault(rec["parent"], []).append(rec)
    layers_s = cli_self = 0.0
    for part in parts:
        covered = _covered(part, children.get(part["id"], []))
        layers_s += covered
        if part["name"].startswith("cli."):
            cli_self += _duration(part) - covered
    simulate = recs("cli.simulate")

    probes, probe_s, unanswered = folds("simnet.probe")
    _, session_probe_s, _ = folds("simnet.probe", within="probe.session")
    written = len(recs("store.write"))
    analyzed = len(recs("analysis.isolate"))
    prop_calls, prop_s, _ = folds("constellation.propagate", within="constellation.evaluate")
    sel_calls, sel_s, _ = folds("constellation.select", within="constellation.evaluate")
    _, thr_s, _ = folds("constellation.threshold", within="constellation.evaluate")
    route_calls, route_s, no_cov = folds("constellation.route")
    return {
        "simnet.probes": probes,
        "simnet.probe_s": probe_s,
        "simnet.unanswered": unanswered,
        "probe.traceroutes": len(recs("probe.traceroute")),
        "probe.traceroute_s": busy("probe.traceroute"),
        "probe.ticks": sum(r.get("ticks", 0) for r in recs("probe.session")),
        "probe.session_s": busy("probe.session") - session_probe_s,
        "probe.errors": sum(r["error"] is not None for n in ("probe.traceroute", "probe.session")
                            for r in recs(n)),
        "store.sessions_written": written,
        "store.write_s": busy("store.write"),
        "store.bytes_written": sum(r.get("bytes", 0) for r in recs("store.write")),
        "store.sessions_read": len(recs("store.read")),
        "store.read_s": busy("store.read"),
        "store.bytes_read": sum(r.get("bytes", 0) for r in recs("store.read")),
        "store.report_csv_s": busy("store.report_csv"),
        "analysis.isolate_s": busy("analysis.isolate"),
        "analysis.smooth_s": busy("analysis.smooth"),
        "analysis.detect_s": busy("analysis.detect"),
        "analysis.stats_s": busy("analysis.stats"),
        "analysis.aggregate_s": busy("analysis.aggregate"),
        "analysis.sessions_analyzed": analyzed,
        "analysis.passes_per_session": analyzed / written if written else 0.0,
        "cli.cpu_per_wall": (sum(r["cpu_s"] for r in simulate) / sum(map(_duration, simulate))
                             if simulate else 0.0),
        "cli.self_s": cli_self,
        "constellation.evaluate_s": busy("constellation.evaluate"),
        "constellation.propagate_calls": prop_calls,
        "constellation.propagate_s": prop_s,
        "constellation.select_calls": sel_calls,
        "constellation.select_s": sel_s,
        "constellation.threshold_s": thr_s,
        "constellation.routes": route_calls - no_cov,
        "constellation.route_s": route_s,
        "constellation.no_coverage": no_cov,
        "constellation.route_yield": (route_calls - no_cov) / route_calls if route_calls else 0.0,
        "trace.unaccounted_s": wall_s - layers_s - cli_self,
    }


def dump(spans: list[dict]) -> list[dict]:
    """Spans as JSON-ready dicts, times in seconds from the first start."""
    t0 = min((r["start"] for r in spans), default=0.0)
    return [dict(rec, start=rec["start"] - t0, end=rec["end"] - t0)
            for rec in sorted(spans, key=lambda r: r["start"])]
