#!/usr/bin/env python3
"""Run every workload, untraced and traced, and check the results.

Run from the root of a checkout.  The quick self-test runs all three
workloads at a tiny size, checks every metric name and unit against
BENCHMARK.json, the output checks, digest equality across two runs of
one seed, layer isolation and span accounting, that a program with a
wrong output fails the run, and that the benchmark refuses to run
without the program's sources.  It asserts no timing:

    python3 perfbench/suite.py --quick

At full size it also reports each end-to-end metric's spread over the
seeds, the distance between the first and third quartile as a share of
the median, against the metric's bound and a third of it, next to the
spread of the unscaled medians of the same runs:

    python3 perfbench/suite.py --seeds 1 2 3 4 5 6 7 8 9 10
"""
from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

PIPELINE_LAYERS = ("simnet.", "probe.", "store.", "analysis.", "cli.")
# Traced time outside the layer spans, allowed as a share of the wall:
# trace.unaccounted_s on geometry, cli.self_s on the pipelines (where
# the former is 0 by construction).
ACCOUNTING_SHARE = 0.05
ACCOUNTING_SLACK_S = 0.01

# Programs with a wrong output, each rebound from the outside before
# run.py starts; the run must exit 1 and print no result.
BROKEN_PROGRAMS = {
    "geometry": ("every route without coverage", """
from leolink import constellation
def composite_route_rtt(*args, **kwargs):
    raise constellation.NoCoverageError("no satellite in view")
constellation.composite_route_rtt = composite_route_rtt
"""),
    "fleet": ("no spikes detected", """
from leolink import analysis
analysis.detect_spikes = lambda *args, **kwargs: []
"""),
}


def run(workload: str, seed: int, seconds: float, trace: int,
        quick: bool) -> tuple[dict, str, dict]:
    """One run's JSON result, digest and unscaled medians."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv + (["--quick"] if quick else []), cwd=ROOT,
                          capture_output=True, text=True, timeout=900, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    digest = next(l.split("=", 1)[1] for l in lines if l.startswith("digest sha256="))
    unscaled = {m[1]: float(m[2]) for l in lines
                if (m := re.match(r"metric (\S+) = .*, unscaled (\S+)\)$", l))}
    return json.loads(lines[-1]), digest, unscaled


def check_result(result: dict, specs: list[dict], label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["attempted"] >= 1, label
    assert isinstance(result["failed"], int) and result["failed"] == 0, label
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in specs}
    assert got == want, f"{label}: metrics {got} != BENCHMARK.json {want}"


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def check_broken_program(workload: str, label: str, patch: str) -> None:
    """A program with a wrong output must fail the run."""
    argv = ["--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", "0", "--quick"]
    code = (f"import sys\nsys.path[:0] = ['src', 'perfbench']\n{patch}\n"
            f"import run\nsys.exit(run.main({argv!r}))\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=180, check=False)
    assert done.returncode == 1 and "{" not in done.stdout, \
        f"{workload} with {label}: exit {done.returncode}\n{done.stdout}{done.stderr}"
    print(f"{workload} with {label}: exit 1, no result; {done.stderr.strip()}")


def check_bare_checkout() -> None:
    """Without src/ the benchmark must fail and print no result."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, *SPEC["command"][1:], "--workload", "fleet",
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=bare, capture_output=True, text=True,
                          timeout=180, check=False)
    shutil.rmtree(bare)
    assert done.returncode != 0 and "{" not in done.stdout, done.stdout
    print(f"bare checkout: exit {done.returncode}, no result")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--quick", action="store_true")
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in SPEC["workloads"]])
    args = p.parse_args()
    seconds = 1.0 if args.quick else args.seconds
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    unsteady = []

    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, digest, unscaled = run(workload, seed, seconds, 0, args.quick)
            check_result(result, SPEC["end_to_end"], f"{workload} seed {seed}")
            runs.append((seed, result, digest, unscaled))
            print(f"{workload} seed {seed}: digest {digest[:16]} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))

        seed, untraced, digest, unscaled = runs[0]
        traced, traced_digest, _ = run(workload, seed, seconds, 1, args.quick)
        check_result(traced, SPEC["per_layer"], f"{workload} traced")
        assert traced_digest == digest, f"{workload}: seed {seed} gave two digests"
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        wall = unscaled["wall_s"] + layers["trace.overhead_s"]   # traced, unscaled
        outside = "trace.unaccounted_s" if workload == "geometry" else "cli.self_s"
        assert abs(layers[outside]) <= ACCOUNTING_SHARE * wall + ACCOUNTING_SLACK_S, \
            f"{workload}: spans leave {outside}={layers[outside]:.4f} s of {wall:.4f} s"
        geometry_layer = {k: v for k, v in layers.items() if k.startswith("constellation.")}
        pipeline_layers = {k: v for k, v in layers.items() if k.startswith(PIPELINE_LAYERS)}
        idle = pipeline_layers if workload == "geometry" else geometry_layer
        assert not any(idle.values()), f"{workload} touched other layers: {idle}"
        print(f"{workload} traced, seed {seed}: digest {digest[:16]} equal to untraced; "
              f"spans leave {outside}={layers[outside]:.4f} s of {wall:.4f} s")
        for name, value in layers.items():
            print(f"  {name:32s} {value:.6g}")

        if len(runs) >= 4:
            print(f"{workload} over {len(runs)} seeds: metric, median, spread, "
                  f"bound/3, unscaled median and spread")
            for name, bound in bounds.items():
                values = [r["metrics"][name]["value"] for _, r, _, _ in runs]
                s = spread(values)
                raw = [u[name] for *_, u in runs if name in u]
                raw_spread = (f"{statistics.median(raw):10.4f} {spread(raw):8.4f}"
                              if len(raw) == len(runs) else f"{'-':>19s}")
                flag = ("" if s < bound / 3 else
                        "  UNSTEADY" if s <= bound else "  OVER BOUND")
                if flag:
                    unsteady.append(f"{workload}.{name}")
                print(f"  {name:12s} {statistics.median(values):10.4f} {s:8.4f} "
                      f"{bound / 3:8.4f} {raw_spread}{flag}")

    if args.quick:
        for workload, (label, patch) in BROKEN_PROGRAMS.items():
            check_broken_program(workload, label, patch)
        check_bare_checkout()
    if unsteady:
        print("unsteady: " + ", ".join(unsteady))
        return 1
    print("suite ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
