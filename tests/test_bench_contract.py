"""Smoke test of the benchmark's workloads at their quick size.

``perfbench/workloads.py`` runs ``simulate`` and ``report`` through the
CLI and checks that every scheduled event is recalled in both
``spikes.csv`` and ``spike_inventory.csv``; for ``geometry`` it checks
``evaluate_case`` on the Nigeria case against its recorded reference
and prices a route sweep against the speed-of-light floor.  Running it
here means a change that breaks those checks fails the test suite, not
only the benchmark.  No timing is asserted.  The bench scores spikes
against events with its own copy of ``simnet.score_spikes``' rule, so
the two are held to the same counts here.
"""
from __future__ import annotations

import hashlib
import importlib.util
import shutil
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leolink.analysis import SpikeEvent
from leolink.simnet import build_scenario, score_spikes
from leolink.store import MeasurementStore
from tests.conftest import REPO_ROOT, spikes_by_address


@pytest.fixture
def workloads(monkeypatch):
    path = REPO_ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    # the workloads pass paths relative to the checkout to the CLI
    monkeypatch.chdir(REPO_ROOT)
    return module


def run_quick(workloads, name, seed=7, sessions=None, inspect=None):
    """Build, run and verify one workload at quick size; its verdict.

    If ``sessions`` is a list, the sha256 of the workload's stored sessions
    is appended to it (see :func:`sessions_digest`).  ``inspect``, if
    given, is called with the verified workload before its files go.
    """
    bench_dir = REPO_ROOT / ".perfbench"
    bench_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"smoke-{name}-", dir=bench_dir))
    try:
        work = workloads.make(name, REPO_ROOT, workdir, seed=seed, quick=True)
        work.reset()
        work.part1()
        work.part2()
        if sessions is not None:
            sessions.append(sessions_digest(workdir / "store", name))
        verdict = work.verify()
        if inspect is not None:
            inspect(work)
        return verdict
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def sessions_digest(store: Path, partition: str) -> str:
    """sha256 over the sessions of one partition as ``read_session`` returns
    them, in store order: each one's directory name, a NUL byte, and the
    bytes of its ``sent_ms`` and ``rtt_us`` arrays."""
    h = hashlib.sha256()
    sessions = MeasurementStore(store)
    for record in sessions.sessions(partition):
        session = sessions.read_session(record)
        h.update(record.address.encode() + b"\0")
        h.update(session.sent_ms.tobytes() + session.rtt_us.tobytes())
    return h.hexdigest()


def session_files_digest(store: Path, partition: str) -> str:
    """sha256 over the ``session.csv`` files of one partition, in store
    order: each one's directory name, a NUL byte, and the file's bytes."""
    h = hashlib.sha256()
    for record in MeasurementStore(store).sessions(partition):
        h.update(record.address.encode() + b"\0" + record.path.read_bytes())
    return h.hexdigest()


def report_tables_digest(store: Path) -> str:
    """sha256 over the tables ``analyze`` computes from the sessions:
    ``reports/sessions.csv`` then ``reports/spikes.csv``, each as its file
    name, a NUL byte, and the file's bytes."""
    h = hashlib.sha256()
    for name in ("sessions.csv", "spikes.csv"):
        h.update(name.encode() + b"\0" + (store / "reports" / name).read_bytes())
    return h.hexdigest()


def scorer_totals(scenarios, spikes):
    """(recalled events, false sustained spikes) of ``score_spikes`` over the
    workload's scenario objects, given each target's spikes."""
    recalled = false = 0
    for obj in scenarios:
        score = score_spikes(spikes.get(obj["hops"][-1]["address"], []),
                             build_scenario(obj).events)
        recalled += sum(score.recalled)
        false += score.false_sustained
    return recalled, false


@pytest.mark.parametrize("name", ["fleet", "day"])
def test_pipeline_workload_passes_its_checks(workloads, name):
    verdict = run_quick(workloads, name)
    assert verdict.quality["event_recall"] == 1.0
    assert [line.split()[1] for line in verdict.lines] == ["spikes.csv", "spike_inventory.csv"]


@pytest.mark.parametrize("name", ["fleet", "day"])
@pytest.mark.parametrize("seed", [7, 11])
def test_bench_score_agrees_with_the_scorer(workloads, name, seed):
    # The bench's _score over spikes.csv and spike_inventory.csv gives what
    # score_spikes gives over the same rows.
    scores = {}

    def score_both(work):
        for report in ("spikes.csv", "spike_inventory.csv"):
            spikes = spikes_by_address(work.abs_store / "reports" / report)
            scores[report] = work._score(report), scorer_totals(work.scenarios, spikes)

    run_quick(workloads, name, seed, inspect=score_both)
    assert len(scores) == 2
    for bench, scorer in scores.values():
        assert bench == scorer


def test_bench_score_agrees_with_the_scorer_on_generated_spans(workloads):
    # Sustained spans placed at random and around each event's edges and
    # ramps go through _score's _sustained hook, so its false-positive
    # branch is held to the scorer's too.
    (REPO_ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="smoke-score-", dir=REPO_ROOT / ".perfbench"))
    try:
        work = workloads.make("fleet", REPO_ROOT, workdir, seed=7, quick=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    addresses = [obj["hops"][-1]["address"] for obj in work.scenarios]
    edges_ms = sorted({t for obj in work.scenarios for ev in obj["events"]
                       for t in (ev["at_s"] * 1000, ev["at_s"] * 1000 + 7500,
                                 (ev["at_s"] + ev["duration_s"]) * 1000 - 7500,
                                 (ev["at_s"] + ev["duration_s"]) * 1000)})
    starts = st.one_of(st.integers(0, work.duration_s * 1000), st.sampled_from(edges_ms).flatmap(
        lambda t: st.integers(t - 20_000, t + 20_000)))
    spans = st.tuples(st.sampled_from(addresses), starts, st.integers(1, 90_000))
    seen = []

    @given(st.lists(spans, max_size=12))
    @settings(max_examples=100, deadline=None)
    def agree(generated):
        by_address = {}
        for address, start, length in generated:
            by_address.setdefault(address, []).append((start, start + length))
        work._sustained = lambda report: by_address
        spikes = {address: [SpikeEvent(s, e, "sustained", 0.0, 0.0) for s, e in mine]
                  for address, mine in by_address.items()}
        bench = work._score("generated")
        assert bench == scorer_totals(work.scenarios, spikes)
        seen.append(bench)

    agree()
    assert any(false for _, false in seen) and any(recalled for recalled, _ in seen)


def test_traced_fleet_counts_every_session_written_and_analyzed(workloads):
    # perfbench/layertrace.py rebinds src/ functions by name; a refactor
    # that moves a session's write or analysis out of them reads 0 here.
    path = REPO_ROOT / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("perfbench_layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    tracer = layertrace.Tracer()
    checked = []

    def traced(work):
        work.reset()
        tracer.install()
        try:
            for name, part in zip(work.part_names, (work.part1, work.part2)):
                with tracer.part(name):
                    part()
        finally:
            tracer.restore()
        checked.append(work.verify())

    run_quick(workloads, "fleet", inspect=traced)
    layers = layertrace.layer_metrics(tracer.spans, wall_s=0.0)
    n = checked[0].attempted
    assert (layers["store.sessions_written"], layers["analysis.sessions_analyzed"]) == (n, n)
    assert [span["name"] for span in tracer.spans if span["error"]] == []


def test_geometry_workload_passes_its_checks(workloads):
    # verify() raises CheckFailed unless the Nigeria summary matches the
    # reference to 1e-9, every route is priced and none beats the floor
    verdict = run_quick(workloads, "geometry")
    n = workloads.QUICK_ROUTE_ATTEMPTS
    assert verdict.attempted == 1 + n
    assert verdict.lines == [f"check nigeria_summary=reference routes={n}/{n} "
                             "no_coverage=0 allowed=0 floor_violations=0"]


@pytest.mark.parametrize("seed, digest", [
    (7, "973df159f7333cfdafaf9827b7c21a1fe0af94c3ab058838feced7d383b570f6"),
    (11, "b840dfd2271cd03570cc62942a342842dcdfd565bb72a88ae01fe69512c62f98"),
])
def test_geometry_digest_is_pinned(workloads, seed, digest):
    # The digest hashes the Nigeria summary and every route total bit for
    # bit, so a geometry fast path that rounds one value differently fails
    # here, not only in a benchmark run.
    assert run_quick(workloads, "geometry", seed).digest == digest


@pytest.mark.parametrize("name, seed, digest", [
    ("fleet", 7, "e1d7c47c2c2d498f57941f937db4c5768543217df9531efb9e18401aa68293ef"),
    ("fleet", 11, "1c7133df0c8dd1e9600b70a59c3df621993913f7687ba7e82f6016052539a8c9"),
    ("day", 7, "d04448c0f855a35c1692500f4d40df8db676b5c1cdba91adc8712c3fb65d00c5"),
    ("day", 11, "44e4957cf6e12b8108c999f633849e15c45ea1bbdd1a7baf577e6c296efbf42e"),
])
def test_simulated_sessions_are_pinned(workloads, name, seed, digest):
    # Every probe the simulator answers lands in a stored session, and
    # this hashes the arrays read back from the store, not the file
    # bytes: a change to the per-probe stream, the tick clock or the
    # rounding on write fails here, a change of the file layout alone
    # does not.  Unlike the workload digest this hash does not depend on
    # the temporary work directory.
    sessions = []
    run_quick(workloads, name, seed, sessions)
    assert sessions == [digest]


@pytest.mark.parametrize("name, seed, digest", [
    ("fleet", 7, "d294570a71f30b88be1a72f406a47df8ca8f5a6358454ba9869c99b766ee0367"),
    ("fleet", 11, "307ba341b3887512e68e12bda1ca56e27775023b01b0698bad13d818a1229852"),
    ("day", 7, "8056f37a61b3041c7496790b39a53c40c341cc054b9788651c43de340aee1965"),
    ("day", 11, "686e3593ed91605adec4a8e1be78cde34399478d6ee608c8c7a2c96aeb1e651c"),
])
def test_session_files_are_pinned(workloads, name, seed, digest):
    # The file bytes, where the pin above hashes the arrays read back: a
    # change of digits, rounding, separators or line ends in session.csv
    # fails here even when it parses to the same arrays.
    files = []
    run_quick(workloads, name, seed,
              inspect=lambda work: files.append(session_files_digest(work.abs_store, name)))
    assert files == [digest]


@pytest.mark.parametrize("name, seed, digest", [
    ("fleet", 7, "c5eaca56ba9a91edf294de2c41e65d905c8512d1f46fe6a9a0e5ecac601af1fa"),
    ("fleet", 11, "a38c8cec8163815a1a019b4496f82f8c76a4d37d91aa401565a9c006cc572678"),
    ("day", 7, "1d1fcf22635b3c5622bd086a9efade58dd473f7d1a80c1d508799e3bb633da56"),
    ("day", 11, "f8f282c0c339d5c6193ab0ffdce6d37c52f5348f56853f8d2804d8d92728512f"),
])
def test_analysis_tables_are_pinned(workloads, name, seed, digest):
    # What analyze computes from the pinned sessions: the stats of
    # sessions.csv as printed, and every spike edge, kind and peak of
    # spikes.csv.  A median that moves one edge or one printed stat fails
    # here even when every event is still recalled.
    tables = []
    run_quick(workloads, name, seed,
              inspect=lambda work: tables.append(report_tables_digest(work.abs_store)))
    assert tables == [digest]
