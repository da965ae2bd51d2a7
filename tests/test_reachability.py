"""What no command reaches does not stay in ``src/``.

One fresh interpreter imports ``leolink`` and runs every command that
needs no raw socket under a profile hook (``sys.setprofile`` plus
``threading.setprofile``, so the cohort's worker thread is seen too);
a fresh one, so that calls made while a module is first imported count.
The test lists each public function and method of ``leolink`` by
``ast``.  A public name that no run called must be on :data:`ALLOWED`,
with the reason it stays; an allowed name that is gone, or that a run
now calls, must leave the list.

Run as a script, ``python tests/test_reachability.py DIR`` runs the
commands in DIR and writes the (file, first line) of every code object
called to ``DIR/reached.json``.
"""
import ast
import importlib.util
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "data" / "fixtures"

RAW = "raw sockets: trace and measure over a live network need root"
# An entry covers the name itself and every public name under it.
ALLOWED = {
    "rawnet": RAW,
    "probe.probe_each_tick": RAW,
    "probe.Transport": "raw sockets: the protocol's stubs; each transport defines its own",
    "cli.load_endpoints_csv": RAW,
    "simnet.SimnetTransport.sleep_until_ms": "raw sockets: only probe_each_tick sleeps",
    "constellation.propagate": "the geometry benchmark workload builds its snapshots with it",
    "constellation.propagate_many": "the geometry benchmark workload",
    "constellation.ConstellationConfig.n_satellites": "the geometry benchmark workload",
    "geo.fiber_rtt_ms": "the geometry benchmark workload",
    "constellation.best_case_rtt": "the benchmark tracer rebinds it; evaluate_case takes over",
    "constellation.worst_case_rtt": "the benchmark tracer rebinds it; evaluate_case takes over",
    "constellation.min_isl_ng_threshold": "the benchmark tracer rebinds it; "
                                          "evaluate_case takes over",
    "constellation.visible_satellites": "the per-snapshot form, until evaluate_case replaces it",
    "analysis.jitter_filter": "no command screens terrestrial jitter yet",
    "analysis.terrestrial_series": "no command screens terrestrial jitter yet",
    "simnet.score_spikes": "the reference the benchmark's spike score is checked against",
    "discovery.ParseReport.note_error": "error path: the bundled scans hold no malformed row",
}


def public_functions(package: Path) -> dict[tuple[str, int], str]:
    """(file, first line of its code object) -> ``module.qualname`` of every
    public module-level function and public method of a public class."""
    found = {}
    for path in sorted(package.resolve().glob("*.py")):
        scopes = [("", ast.parse(path.read_text()).body)]
        for prefix, body in scopes:
            for node in body:
                if getattr(node, "name", "_").startswith("_"):
                    continue
                if isinstance(node, ast.ClassDef):
                    scopes.append((f"{prefix}{node.name}.", node.body))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # a decorated function's code starts at its first decorator
                    first = min([d.lineno for d in node.decorator_list] + [node.lineno])
                    found[(str(path), first)] = f"{path.stem}.{prefix}{node.name}"
    return found


def run_every_command(tmp: Path) -> None:
    from leolink import cli
    scenarios = Path(cli.__file__).parent / "data" / "scenarios"
    cfg = tmp / "simnet.json"
    cfg.write_text(json.dumps({"transport": "simnet", "output_dir": str(tmp / "store"),
                               "scenario_dir": str(scenarios / "relay_split"),
                               "duration_s": 120}))
    runs = [
        ["discover", "--scan", str(FIXTURES / "scan_fixture.jsonl"),
         "--geofeed", str(FIXTURES / "geofeed.csv"), "--out", str(tmp / "cohort.csv")],
        ["discover", "--scan", str(FIXTURES / "oneweb_scan.jsonl"), "--provider", "oneweb",
         "--out", str(tmp / "oneweb.csv")],
        ["trace", "--config", str(cfg), "--out", str(tmp / "paths.csv")],
        ["measure", "--config", str(cfg), "--partition", "measured"],
        *(["simulate", "--scenarios", str(scenarios / name), "--out", str(tmp / "store"),
           "--duration", "300", "--partition", name] for name in ("relay_split", "reroute_day")),
        ["analyze", "--store", str(tmp / "store")],
        ["report", "--store", str(tmp / "store")],
    ]
    for argv in runs:
        assert cli.main(argv) == 0, argv
    spec = importlib.util.spec_from_file_location(
        "route_estimates", REPO_ROOT / "scripts" / "route_estimates.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    sys.argv = ["route_estimates.py"]
    assert script.main() == 0


def record_reached(tmp: Path) -> None:
    reached = set()

    def hook(frame, event, arg):
        if event == "call":
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        run_every_command(tmp)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    files = {name: str(Path(name).resolve()) for name, _ in reached}
    (tmp / "reached.json").write_text(json.dumps(
        sorted((files[name], line) for name, line in reached)))


def test_every_public_function_is_reached_or_allowed(tmp_path):
    import leolink
    package = Path(leolink.__file__).parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(package.parent), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                         stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    reached = {tuple(key) for key in json.loads((tmp_path / "reached.json").read_text())}

    def under(entry, name):
        return name == entry or name.startswith(entry + ".")

    names = public_functions(package)
    unreached = sorted(name for key, name in names.items() if key not in reached
                       and not any(under(entry, name) for entry in ALLOWED))
    assert not unreached, f"public, but no command reaches them: {unreached}"
    hits = {entry: [key in reached for key, name in names.items() if under(entry, name)]
            for entry in ALLOWED}
    stale = sorted(entry for entry, hit in hits.items() if not hit or any(hit))
    assert not stale, f"allowed, but gone or reached by a command: {stale}"


if __name__ == "__main__":
    record_reached(Path(sys.argv[1]))
