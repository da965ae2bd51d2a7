#!/usr/bin/env python3
"""leolink benchmark: one workload, one run, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet --seed 7 --seconds 20 --trace 0

``--trace 0`` times untraced iterations and prints the end-to-end
metrics of BENCHMARK.json.  ``--trace 1`` alternates untraced and
traced iterations and prints the per-layer metrics, tracing overhead
included.  Either way the outputs are checked every iteration; a failed
check exits 1 without printing a result.  The program is imported from
the checkout's ``src/``; without it the run exits 2.

End-to-end times are scaled to a reference machine speed: a fixed
calibration kernel, which touches no leolink code, is timed after every
part, and each part's time is multiplied by CALIBRATION_REFERENCE_S over
the mean of the kernel times on either side of it.  A shared host that
slows down for a minute slows the kernel as much as the parts, so the
scaled times stay put while a slower program still reads slower.  The
kernel runs with the garbage collector off, so the size of the heap the
program leaves behind does not change its time.  The unscaled medians
are printed next to the scaled ones.  Each set-up sample is scaled the
same way by the kernel times on either side of it.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKDIR = ROOT / ".perfbench"

MIN_ITERATIONS = 3        # untraced iterations per --trace 0 run
SETUP_SAMPLES = 11        # fresh processes timing the set-up
# The calibration kernel's time, in seconds, on the reference machine:
# the two-core host this benchmark was written on, when quiet.
CALIBRATION_REFERENCE_S = 0.080

def fail(code: int, message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_program() -> None:
    src = ROOT / "src"
    if not (src / "leolink" / "__init__.py").is_file():
        fail(2, f"no leolink sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import leolink
    if Path(leolink.__file__).resolve().parent != (src / "leolink").resolve():
        fail(2, f"imported leolink from {leolink.__file__}, not from {src}")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("fleet", "day", "geometry"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="tiny inputs, for the self-test; numbers mean nothing")
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs once, print the set-up time, exit")
    return p.parse_args(argv)


def setup_child(args: argparse.Namespace) -> None:
    """Time import plus input generation in this fresh process."""
    t0 = time.perf_counter()
    import_program()
    import workloads
    workloads.make(args.workload, ROOT, WORKDIR / args.workload / f"setup-{os.getpid()}",
                   args.seed, args.quick)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def time_setups(args: argparse.Namespace, kernel_before: float) -> tuple[list, list, float]:
    """Time the set-up in fresh processes, timing the kernel after each.

    Returns raw and scaled set-up times and the last kernel time, as
    scaled_iteration does for the parts.
    """
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--quick"] if args.quick else [])
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            fail(2, f"set-up child failed: {done.stderr.strip()}")
        raw.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
        kernel_after = calibrate()
        scaled.append(raw[-1] * CALIBRATION_REFERENCE_S / ((kernel_before + kernel_after) / 2))
        kernel_before = kernel_after
    for path in (WORKDIR / args.workload).glob("setup-*"):
        shutil.rmtree(path)
    return raw, scaled, kernel_before


def calibrate() -> float:
    """Seconds a fixed kernel of Python and numpy work takes right now.

    It mixes what the workloads spend their time on: hashing, seeded
    random draws, string formatting and sorting, and numpy calls on
    short slices.  Nothing in it depends on leolink or on the seed.
    """
    import numpy as np

    gc.disable()
    t0 = time.perf_counter()
    rows = []
    for i in range(5000):
        digest = hashlib.blake2b(i.to_bytes(8, "little"), digest_size=8).digest()
        rng = random.Random(int.from_bytes(digest, "little"))
        rows.append((f"{rng.random():.3f}", rng.gauss(0.0, 1.0)))
    rows.sort()
    values = np.linspace(0.0, 1.0, 3000) ** 2
    out = np.empty(len(values))
    for i in range(len(values)):
        out[i] = np.median(values[max(0, i - 7):i + 8])
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def traced_iteration(wl, tracer) -> list[float]:
    """Run both parts once under the tracer; returns their wall times."""
    wl.reset()
    gc.collect()
    walls = []
    for name, part in zip(wl.part_names, (wl.part1, wl.part2)):
        t0 = time.perf_counter()
        with tracer.part(name):
            part()
        walls.append(time.perf_counter() - t0)
    return walls


def scaled_iteration(wl, kernel_before: float) -> tuple[list, list, float]:
    """Run both parts once untraced, timing the kernel after each part.

    Returns raw part times, part times scaled to the reference machine,
    and the last kernel time (the next iteration's "before").
    """
    wl.reset()
    gc.collect()
    raw, scaled = [], []
    for part in (wl.part1, wl.part2):
        t0 = time.perf_counter()
        part()
        raw.append(time.perf_counter() - t0)
        kernel_after = calibrate()
        speed = CALIBRATION_REFERENCE_S / ((kernel_before + kernel_after) / 2)
        scaled.append(raw[-1] * speed)
        kernel_before = kernel_after
    return raw, scaled, kernel_before


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child.

    Read before the set-up children run, so the child figure is the
    program's own: 0 while it works in threads, one worker's peak if it
    starts processes.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def facts_line(args, wl, iterations: int) -> str:
    import numpy
    import scipy
    import workloads
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "numpy": numpy.__version__, "scipy": scipy.__version__,
             "workload": args.workload, "seed": args.seed,
             "concurrency": workloads.CONCURRENCY, "traced": args.trace,
             "seconds": args.seconds, "quick": int(args.quick),
             "iterations": iterations}
    facts.update(wl.facts())
    return "facts " + " ".join(f"{k}={v}" for k, v in facts.items())


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        setup_child(args)
        return 0
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(2, f"{spec_path} missing; run from the root of a checkout")
    spec = json.loads(spec_path.read_text())
    import_program()
    import layertrace
    import workloads

    wl = workloads.make(args.workload, ROOT, WORKDIR / args.workload, args.seed, args.quick)
    kernel = calibrate()
    digests = set()
    verdicts = []
    untraced: list[list[float]] = []      # scaled part times
    raw: list[list[float]] = []
    traced: list[dict] = []
    spans: list[dict] = []
    lengths: list[float] = []
    start = time.perf_counter()

    def check() -> None:
        try:
            verdicts.append(wl.verify())
        except workloads.CheckFailed as exc:
            fail(1, f"check failed: {exc}")
        digests.add(verdicts[-1].digest)
        if len(digests) != 1:
            fail(1, "check failed: outputs differ between iterations of one seed")

    while True:
        t_iter = time.perf_counter()
        raw_parts, scaled_parts, kernel = scaled_iteration(wl, kernel)
        raw.append(raw_parts)
        untraced.append(scaled_parts)
        check()
        if args.trace:
            tracer = layertrace.Tracer()
            tracer.install()
            try:
                walls = traced_iteration(wl, tracer)
            finally:
                tracer.restore()
            check()
            layers = layertrace.layer_metrics(tracer.spans, sum(walls))
            quality = {"event_recall": 0.0, "false_sustained": 0, **verdicts[-1].quality}
            layers.update({f"analysis.{k}": v for k, v in quality.items()})
            layers["trace.wall_s"] = sum(walls)
            traced.append(layers)
            spans = tracer.spans
        lengths.append(time.perf_counter() - t_iter)
        elapsed = time.perf_counter() - start
        enough = args.trace or len(untraced) >= MIN_ITERATIONS
        if enough and elapsed + statistics.median(lengths) > args.seconds:
            break

    walls = [a + b for a, b in untraced]
    if args.trace:
        medians = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
        medians["trace.overhead_s"] = (medians.pop("trace.wall_s")
                                       - statistics.median(a + b for a, b in raw))
        values = medians
        WORKDIR.mkdir(exist_ok=True)
        (WORKDIR / f"spans-{args.workload}.json").write_text(
            json.dumps(layertrace.dump(spans), indent=1) + "\n")
        wanted = spec["per_layer"]
    else:
        rss = peak_rss_mb()
        raw_setups, setups, kernel = time_setups(args, kernel)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "part1_s": statistics.median(a for a, _ in untraced),
            "part2_s": statistics.median(b for _, b in untraced),
            "peak_rss_mb": rss,
        }
        wanted = spec["end_to_end"]

    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        fail(2, f"metrics disagree with BENCHMARK.json: {sorted(missing)}")
    shutil.rmtree(WORKDIR / args.workload, ignore_errors=True)

    print(facts_line(args, wl, len(untraced) + len(traced)))
    for line in verdicts[-1].lines:
        print(line)
    print(f"digest sha256={digests.pop()}")
    if args.trace:
        basis = f"median of {len(traced)} traced iterations"
    else:
        basis = f"median of {len(untraced)} iterations"
        unscaled = {"setup_s": statistics.median(raw_setups),
                    "wall_s": statistics.median(a + b for a, b in raw),
                    "part1_s": statistics.median(a for a, _ in raw),
                    "part2_s": statistics.median(b for _, b in raw)}
        print(f"calibration kernel {kernel:.4f} s now, "
              f"{CALIBRATION_REFERENCE_S:.4f} s on the reference machine")
    bases = {"setup_s": f"median of {SETUP_SAMPLES} fresh processes",
             "peak_rss_mb": "this process plus its largest child"}
    metrics = {}
    for m in wanted:
        name = m["name"]
        metrics[name] = {"value": values[name], "unit": m["unit"]}
        note = "" if args.trace or name not in unscaled else f", unscaled {unscaled[name]:.6g}"
        print(f"metric {name} = {values[name]:.6g} {m['unit']} "
              f"({m['better']} is better; {bases.get(name, basis)}{note})")
    print(json.dumps({"correct": True,
                      "attempted": sum(v.attempted for v in verdicts),
                      "failed": 0,   # any failure exits above
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
