"""Campaign command line: discover, trace, measure, analyze, simulate, report.

Each subcommand prints exactly one machine-parsable summary line to
stdout: ``<command> <ok|error> key=value ...``.  Per-endpoint problems
go to stderr, tagged with the stage and endpoint, and never abort the
rest of the cohort.

Exit codes: 0 full success, 1 partial failures or an empty result,
2 configuration or usage errors.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import ipaddress
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from datetime import date
from pathlib import Path
from typing import Optional, Sequence

from . import analysis, probe
from .discovery import (
    DatasetError,
    Endpoint,
    PepBlocklist,
    PopCatalog,
    exclude_peps,
    filter_customer_endpoints,
    filter_oneweb_customers,
    geolocate_customer,
    parse_scan_dataset,
)
from .simnet import Scenario, ScenarioError, SimnetTransport, load_scenario_dir
from .store import (
    CampaignConfig,
    ConfigError,
    MeasurementStore,
    StoreError,
    write_report_csv,
)

ENDPOINT_CSV_HEADER = [
    "address", "pop_code", "pop_city", "pop_country", "pop_lat", "pop_lon",
    "cust_lat", "cust_lon", "source",
]


def _err(line: str) -> None:
    print(line, file=sys.stderr)


def _params_hash(params: dict) -> str:
    blob = json.dumps(params, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


# ---------------------------------------------------------------- discover

def cmd_discover(args: argparse.Namespace) -> int:
    catalog = PopCatalog.from_csv(args.pop_catalog) if args.pop_catalog else PopCatalog.default()
    try:
        records, parse_report = parse_scan_dataset(args.scan, fmt=args.format)
    except (DatasetError, OSError) as exc:
        _err(f"discover error stage=parse msg={exc}")
        return 2

    if args.provider == "oneweb":
        endpoints, unclassifiable = filter_oneweb_customers(records)
        pep_removed = 0
        kept = endpoints
        extra = f"unclassifiable={unclassifiable}"
    else:
        endpoints, filter_report = filter_customer_endpoints(records, catalog)
        if args.pep_blocklist:
            with open(args.pep_blocklist, encoding="utf-8") as fh:
                words = tuple(w.strip() for w in fh if w.strip())
            blocklist = PepBlocklist(words)
        else:
            blocklist = PepBlocklist()
        kept, pep_removed = exclude_peps(endpoints, records, blocklist)
        extra = (f"unknown_pop={len(filter_report.unknown_pop)} "
                 f"ambiguous={len(filter_report.ambiguous)}")

    if args.geofeed:
        kept = [geolocate_customer(ep, args.geofeed) for ep in kept]

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(ENDPOINT_CSV_HEADER)
        for ep in kept:
            pop = ep.pop_location
            cust = ep.customer_location
            w.writerow([
                ep.address, ep.pop_code,
                pop.city if pop else "", pop.country if pop else "",
                f"{pop.latitude:.4f}" if pop else "",
                f"{pop.longitude:.4f}" if pop else "",
                f"{cust[0]:.4f}" if cust else "",
                f"{cust[1]:.4f}" if cust else "",
                ep.source,
            ])
    print(f"discover ok records={parse_report.total_rows} "
          f"malformed={parse_report.malformed} candidates={len(endpoints)} "
          f"pep_removed={pep_removed} kept={len(kept)} {extra} out={out}")
    return 0


def load_endpoints_csv(path: str | Path, catalog: Optional[PopCatalog] = None) -> list[Endpoint]:
    """Read an endpoint cohort written by cmd_discover."""
    catalog = catalog or PopCatalog.default()
    endpoints = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            pop_code = row.get("pop_code", "")
            cust = None
            if row.get("cust_lat") and row.get("cust_lon"):
                cust = (float(row["cust_lat"]), float(row["cust_lon"]))
            endpoints.append(Endpoint(
                address=row["address"],
                pop_code=pop_code,
                pop_location=catalog[pop_code] if pop_code in catalog else None,
                customer_location=cust,
                source=row.get("source", "starlink_ptr"),
            ))
    return endpoints


# ------------------------------------------------------------ measurement

def _endpoint_from_scenario(scenario: Scenario, catalog: PopCatalog) -> Endpoint:
    meta = scenario.endpoint_meta
    pop_code = str(meta.get("pop_code", ""))
    cust = None
    if "latitude" in meta and "longitude" in meta:
        cust = (float(meta["latitude"]), float(meta["longitude"]))
    return Endpoint(
        address=scenario.target_address,
        pop_code=pop_code,
        pop_location=catalog[pop_code] if pop_code in catalog else None,
        customer_location=cust,
        source=str(meta.get("source", "starlink_ptr")),
    )


def _load_exclusions(path: Optional[str]) -> list:
    if not path:
        return []
    nets = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                nets.append(ipaddress.ip_network(line, strict=False))
    return nets


def _excluded(address: str, nets: Sequence) -> bool:
    if not nets:
        return False
    addr = ipaddress.ip_address(address)
    return any(addr in net for net in nets)


def _trace_path(transport, endpoint: Endpoint, cfg: CampaignConfig) -> probe.SatLinkPath:
    trace = probe.run_traceroute(
        transport, endpoint.address, protocol=cfg.protocol,
        max_ttl=cfg.max_ttl, probes_per_hop=cfg.probes_per_hop,
        timeout_s=cfg.timeout_s)
    return probe.identify_sat_link(trace, jump_threshold_ms=cfg.jump_threshold_ms)


def _measure_endpoint(transport, endpoint: Endpoint,
                      cfg: CampaignConfig) -> probe.MeasurementSession:
    path = _trace_path(transport, endpoint, cfg)
    return probe.measure_session(
        transport, endpoint, path, duration_s=cfg.duration_s,
        cadence_hz=cfg.cadence_hz, protocol=cfg.protocol,
        timeout_s=cfg.timeout_s)


def _with_transport(transport: Optional[SimnetTransport], step, endpoint: Endpoint, cfg):
    """Run ``step`` on the simulated transport, else on raw sockets it closes."""
    if transport is not None:
        return step(transport, endpoint, cfg)
    from .rawnet import RawTransport
    with RawTransport() as raw:
        return step(raw, endpoint, cfg)


def _run_campaign(cfg: CampaignConfig, partition_label: Optional[str]) -> tuple[int, dict]:
    """Measure the whole cohort into a fresh partition.

    Returns (exit_code, counters).  A failing endpoint is reported and
    skipped; only configuration-level problems abort the run.
    """
    store = MeasurementStore(cfg.output_dir)
    catalog = PopCatalog.default()
    nets = _load_exclusions(cfg.exclude_file)

    jobs: list[tuple[Endpoint, Optional[SimnetTransport]]] = []
    excluded = 0
    if cfg.transport == "simnet":
        scenarios = load_scenario_dir(cfg.scenario_dir)
        for address in sorted(scenarios):
            ep = _endpoint_from_scenario(scenarios[address], catalog)
            if _excluded(ep.address, nets):
                excluded += 1
                continue
            jobs.append((ep, SimnetTransport(scenarios[address])))
    else:
        for ep in load_endpoints_csv(cfg.endpoints_file, catalog):
            if _excluded(ep.address, nets):
                excluded += 1
                continue
            jobs.append((ep, None))

    label = partition_label or cfg.partition_label or date.today().isoformat()
    partition = store.new_partition(label)
    config_hash = cfg.config_hash()

    def work(job: tuple[Endpoint, Optional[SimnetTransport]]) -> Optional[str]:
        endpoint, transport = job
        try:
            session = _with_transport(transport, _measure_endpoint, endpoint, cfg)
        except probe.ProbeError as exc:
            return f"measure error stage=probe endpoint={endpoint.address} msg={exc}"
        except Exception as exc:  # noqa: BLE001 - cohort must survive one endpoint
            return f"measure error stage=transport endpoint={endpoint.address} msg={exc}"
        extra = {"transport": cfg.transport, "protocol": cfg.protocol}
        if transport is not None:
            extra["seed"] = transport.scenario.seed
        store.write_session(partition, session, config_hash=config_hash,
                            extra_meta=extra)
        return None

    failures = 0
    with ThreadPoolExecutor(max_workers=cfg.concurrency) as pool:
        for problem in pool.map(work, jobs):
            if problem:
                _err(problem)
                failures += 1

    counters = {
        "sessions": len(jobs) - failures,
        "failed": failures,
        "excluded": excluded,
        "partition": partition,
        "store": str(store.root),
    }
    return (1 if failures else 0), counters


def cmd_measure(args: argparse.Namespace) -> int:
    cfg = CampaignConfig.from_json(args.config)
    code, counters = _run_campaign(cfg, args.partition)
    status = "ok" if code == 0 else "error"
    pairs = " ".join(f"{k}={v}" for k, v in counters.items())
    print(f"measure {status} {pairs}")
    return code


def cmd_trace(args: argparse.Namespace) -> int:
    cfg = CampaignConfig.from_json(args.config)
    catalog = PopCatalog.default()
    if cfg.transport == "simnet":
        scenarios = load_scenario_dir(cfg.scenario_dir)
        jobs = [(_endpoint_from_scenario(scenarios[a], catalog),
                 SimnetTransport(scenarios[a])) for a in sorted(scenarios)]
    else:
        jobs = [(ep, None) for ep in load_endpoints_csv(cfg.endpoints_file, catalog)]

    rows = []
    failures = 0
    for endpoint, transport in jobs:
        try:
            path = _with_transport(transport, _trace_path, endpoint, cfg)
        except probe.ProbeError as exc:
            _err(f"trace error stage=probe endpoint={endpoint.address} msg={exc}")
            failures += 1
            continue
        rows.append([endpoint.address, path.pre_sat_ttl, path.pre_sat_router,
                     path.post_sat_ttl, f"{path.jump_ms:.3f}"])

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_report_csv(out, ["address", "pre_sat_ttl", "pre_sat_router",
                           "post_sat_ttl", "jump_ms"], rows,
                     config_hash=cfg.config_hash())
    status = "ok" if failures == 0 else "error"
    print(f"trace {status} paths={len(rows)} failed={failures} out={out}")
    return 1 if failures else 0


# --------------------------------------------------------------- analysis

def _analyze_store(store: MeasurementStore, partition: Optional[str],
                   out_dir: Path, *, window_s: float, sustained_sigma: float,
                   standard_sigma: float) -> tuple[int, dict]:
    records = store.sessions(partition)
    if not records:
        return 1, {}
    params_hash = _params_hash({
        "smoothing_window_s": window_s,
        "sustained_sigma": sustained_sigma,
        "standard_sigma": standard_sigma,
    })
    spike_rows = []
    session_rows = []
    failures = 0
    n_spikes = n_sustained = 0
    for rec in records:
        try:
            session = store.read_session(rec)
            series, clamped = analysis.isolate_satellite_latency(session)
            smoothed = analysis.smooth(series, window_s=window_s)
            spikes = analysis.detect_spikes(
                smoothed, sustained_sigma=sustained_sigma,
                standard_sigma=standard_sigma)
            expected = session.duration_s * session.cadence_hz
            stats = analysis.session_stats(series, spikes=spikes,
                                           expected_ticks=expected)
        except (analysis.AnalysisError, StoreError, KeyError, ValueError) as exc:
            _err(f"analyze error stage=analysis endpoint={rec.address} msg={exc}")
            failures += 1
            continue
        for ev in spikes:
            n_spikes += 1
            n_sustained += ev.kind == "sustained"
            spike_rows.append([rec.partition, rec.address, ev.start_ms,
                               ev.end_ms, ev.kind, f"{ev.peak_ms:.3f}",
                               f"{ev.baseline_median_ms:.3f}"])
        session_rows.append([
            rec.partition, rec.address, rec.meta.get("pop_code", ""),
            len(series), clamped, f"{stats.min_ms:.3f}", f"{stats.median_ms:.3f}",
            f"{stats.mean_ms:.3f}", f"{stats.stddev_ms:.3f}",
            f"{stats.loss_fraction:.4f}", f"{stats.spike_time_fraction:.4f}",
        ])
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_csv(out_dir / "spikes.csv",
                     ["partition", "address", "start_ms", "end_ms", "kind",
                      "peak_ms", "baseline_median_ms"],
                     spike_rows, config_hash=params_hash)
    write_report_csv(out_dir / "sessions.csv",
                     ["partition", "address", "pop_code", "n_ticks", "clamped",
                      "min_ms", "median_ms", "mean_ms", "stddev_ms",
                      "loss_fraction", "spike_time_fraction"],
                     session_rows, config_hash=params_hash)
    counters = {
        "sessions": len(session_rows),
        "failed": failures,
        "spikes": n_spikes,
        "sustained": n_sustained,
        "out": str(out_dir),
    }
    return (1 if failures else 0), counters


def cmd_analyze(args: argparse.Namespace) -> int:
    store = MeasurementStore(args.store)
    out_dir = Path(args.out) if args.out else store.root / "reports"
    code, counters = _analyze_store(
        store, args.partition, out_dir, window_s=args.window,
        sustained_sigma=args.sustained_sigma, standard_sigma=args.standard_sigma)
    if not counters:
        print("analyze error no-sessions")
        return 1
    status = "ok" if code == 0 else "error"
    pairs = " ".join(f"{k}={v}" for k, v in counters.items())
    print(f"analyze {status} {pairs}")
    return code


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        cfg = CampaignConfig(
            transport="simnet",
            scenario_dir=args.scenarios,
            output_dir=args.out,
            duration_s=args.duration,
            cadence_hz=args.cadence,
            concurrency=args.concurrency,
        )
    except ConfigError as exc:
        _err(f"simulate error stage=config msg={exc}")
        return 2
    code, counters = _run_campaign(cfg, args.partition)
    if counters.get("sessions"):
        store = MeasurementStore(cfg.output_dir)
        a_code, a_counters = _analyze_store(
            store, counters["partition"], store.root / "reports",
            window_s=cfg.smoothing_window_s,
            sustained_sigma=cfg.sustained_sigma,
            standard_sigma=cfg.standard_sigma)
        code = max(code, a_code)
        counters.update({k: a_counters[k] for k in ("spikes", "sustained") if k in a_counters})
    status = "ok" if code == 0 else "error"
    pairs = " ".join(f"{k}={v}" for k, v in counters.items())
    print(f"simulate {status} {pairs}")
    return code


# ---------------------------------------------------------------- report

def cmd_report(args: argparse.Namespace) -> int:
    store = MeasurementStore(args.store)
    records = store.sessions(args.partition)
    if not records:
        print("report error no-sessions")
        return 1
    catalog = PopCatalog.from_csv(args.pop_catalog) if args.pop_catalog else PopCatalog.default()
    params_hash = _params_hash({"report": 1, "partitions": sorted({r.partition for r in records})})

    items: list[tuple[Endpoint, analysis.SessionStats]] = []
    by_date: dict[str, list[tuple[str, analysis.SessionStats]]] = {}
    spike_rows = []
    failures = 0
    for rec in records:
        try:
            session = store.read_session(rec)
            series, _ = analysis.isolate_satellite_latency(session)
            smoothed = analysis.smooth(series)
            spikes = analysis.detect_spikes(smoothed)
            expected = session.duration_s * session.cadence_hz
            stats = analysis.session_stats(series, spikes=spikes,
                                           expected_ticks=expected)
        except (analysis.AnalysisError, StoreError, KeyError, ValueError) as exc:
            _err(f"report error stage=analysis endpoint={rec.address} msg={exc}")
            failures += 1
            continue
        endpoint = session.endpoint
        if endpoint.pop_code in catalog:
            endpoint = replace(endpoint, pop_location=catalog[endpoint.pop_code])
        items.append((endpoint, stats))
        day = rec.partition.split(".")[0]
        by_date.setdefault(day, []).append((endpoint.address, stats))
        for ev in spikes:
            spike_rows.append([rec.partition, rec.address, ev.start_ms, ev.end_ms,
                               ev.kind, f"{ev.peak_ms:.3f}",
                               f"{ev.baseline_median_ms:.3f}"])
    if not items:
        print("report error no-sessions")
        return 1

    out_dir = Path(args.out) if args.out else store.root / "reports"
    out_dir.mkdir(parents=True, exist_ok=True)

    aggregates = analysis.aggregate_by_pop(items)
    write_report_csv(out_dir / "pop_summary.csv",
                     ["pop_code", "n_endpoints", "mean_of_means_ms",
                      "stddev_of_means_ms"],
                     [[a.pop_code, a.n_endpoints, f"{a.mean_of_means_ms:.3f}",
                       f"{a.stddev_of_means_ms:.3f}"] for a in aggregates],
                     config_hash=params_hash)

    dist_rows, rho = analysis.min_rtt_vs_pop_distance(items)
    write_report_csv(out_dir / "min_rtt_distance.csv",
                     ["address", "pop_distance_km", "min_rtt_ms"],
                     [[a, f"{d:.1f}", f"{m:.3f}"] for a, d, m in dist_rows],
                     config_hash=params_hash)

    daily = []
    for day in sorted(by_date):
        agg = analysis.PopAggregate(
            pop_code="all", n_endpoints=len(by_date[day]),
            mean_of_means_ms=0.0, stddev_of_means_ms=0.0,
            endpoint_stats=by_date[day])
        daily.append((day, agg))
    trend = analysis.temporal_trend(daily)
    write_report_csv(out_dir / "temporal_trend.csv",
                     ["date", "median_ms"],
                     [[d, f"{m:.3f}"] for d, m in trend],
                     config_hash=params_hash)

    write_report_csv(out_dir / "spike_inventory.csv",
                     ["partition", "address", "start_ms", "end_ms", "kind",
                      "peak_ms", "baseline_median_ms"],
                     spike_rows, config_hash=params_hash)

    lines = [
        f"sessions analyzed: {len(items)} (failed: {failures})",
        f"POPs covered: {len(aggregates)}",
        "",
        f"{'pop':10s} {'n':>4s} {'mean_ms':>9s} {'std_ms':>8s}",
    ]
    for a in aggregates:
        lines.append(f"{a.pop_code:10s} {a.n_endpoints:4d} "
                     f"{a.mean_of_means_ms:9.2f} {a.stddev_of_means_ms:8.2f}")
    lines.append("")
    if rho is not None:
        lines.append(f"spearman(min RTT, POP distance) = {rho:.3f} over {len(dist_rows)} endpoints")
    else:
        lines.append("spearman(min RTT, POP distance): not enough located endpoints")
    lines.append(f"spikes recorded: {len(spike_rows)}")
    lines.append("")
    lines.append(f"config_hash: {params_hash}")
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    status = "ok" if failures == 0 else "error"
    print(f"report {status} sessions={len(items)} failed={failures} "
          f"pops={len(aggregates)} spikes={len(spike_rows)} out={out_dir}")
    return 1 if failures else 0


# ------------------------------------------------------------------ main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leolink",
        description="Measure satellite-link latency over existing customer paths.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discover", help="filter a scan dataset into a cohort")
    p.add_argument("--scan", required=True, help="scan dataset file")
    p.add_argument("--format", default="json_lines", choices=["json_lines", "csv"])
    p.add_argument("--provider", default="starlink", choices=["starlink", "oneweb"])
    p.add_argument("--pop-catalog", default=None, help="override POP catalog CSV")
    p.add_argument("--pep-blocklist", default=None,
                   help="file of proxy-vendor substrings, one per line")
    p.add_argument("--geofeed", default=None, help="geofeed CSV for customer coordinates")
    p.add_argument("--out", required=True, help="endpoint cohort CSV to write")
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("trace", help="locate the satellite segment per endpoint")
    p.add_argument("--config", required=True, help="campaign config JSON")
    p.add_argument("--out", default="paths.csv")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("measure", help="run measurement sessions into the store")
    p.add_argument("--config", required=True, help="campaign config JSON")
    p.add_argument("--partition", default=None,
                   help="partition label (default: config label or today)")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("analyze", help="detect spikes over stored sessions")
    p.add_argument("--store", required=True)
    p.add_argument("--partition", default=None)
    p.add_argument("--out", default=None, help="report directory (default <store>/reports)")
    p.add_argument("--window", type=float, default=analysis.SMOOTHING_WINDOW_S)
    p.add_argument("--sustained-sigma", type=float, default=analysis.SUSTAINED_SIGMA)
    p.add_argument("--standard-sigma", type=float, default=analysis.STANDARD_SIGMA)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="measure + analyze a scenario directory")
    p.add_argument("--scenarios", required=True, help="directory of scenario JSON files")
    p.add_argument("--out", required=True, help="store root directory")
    p.add_argument("--partition", default=None)
    p.add_argument("--duration", type=int, default=600)
    p.add_argument("--cadence", type=int, default=1)
    p.add_argument("--concurrency", type=int, default=8)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="render per-POP, distance and trend tables")
    p.add_argument("--store", required=True)
    p.add_argument("--partition", default=None)
    p.add_argument("--pop-catalog", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ScenarioError, DatasetError) as exc:
        _err(f"{args.command} error stage=config msg={exc}")
        return 2
    except OSError as exc:
        _err(f"{args.command} error stage=io msg={exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
