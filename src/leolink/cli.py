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
import ipaddress
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from datetime import date
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import analysis, probe
from .checks import Fields, text_lines
from .discovery import (
    DatasetError,
    Endpoint,
    PepBlocklist,
    PopCatalog,
    exclude_peps,
    filter_customer_endpoints,
    filter_oneweb_customers,
    geolocate_customer,
    load_geofeed,
    parse_scan_dataset,
)
from .simnet import Scenario, ScenarioError, SimnetTransport, load_scenario_dir
from .store import (
    CampaignConfig,
    ConfigError,
    MeasurementStore,
    StoreError,
    params_hash,
    read_report_csv,
    replaced,
    write_report_csv,
)

ENDPOINT_CSV_HEADER = [
    "address", "pop_code", "pop_city", "pop_country", "pop_lat", "pop_lon",
    "cust_lat", "cust_lon", "source",
]


def _err(line: str) -> None:
    print(line, file=sys.stderr)


def _print_summary(command: str, code: int, counters: dict) -> int:
    """Print the one summary line of ``command`` and pass its exit code on."""
    status = "ok" if code == 0 else "error"
    print(f"{command} {status} " + " ".join(f"{k}={v}" for k, v in counters.items()))
    return code


# ---------------------------------------------------------------- discover

def cmd_discover(args: argparse.Namespace) -> int:
    catalog = PopCatalog.from_csv(args.pop_catalog) if args.pop_catalog else PopCatalog.default()
    try:
        records, parse_report = parse_scan_dataset(args.scan, fmt=args.format)
    except (DatasetError, OSError) as exc:
        _err(f"discover error stage=parse msg={exc}")
        return 2
    for message in parse_report.errors:  # the first MAX_KEPT_ERRORS malformed rows
        _err(f"discover error stage=parse msg={message}")

    if args.provider == "oneweb":
        endpoints, unclassifiable = filter_oneweb_customers(records)
        kept, pep_removed, extra = endpoints, 0, {"unclassifiable": unclassifiable}
    else:
        endpoints, filter_report = filter_customer_endpoints(records, catalog)
        blocklist = PepBlocklist()
        if args.pep_blocklist:
            blocklist = PepBlocklist(tuple(w.strip() for w in text_lines(
                args.pep_blocklist, ConfigError) if w.strip()))
        kept, pep_removed = exclude_peps(endpoints, records, blocklist)
        extra = {"unknown_pop": len(filter_report.unknown_pop),
                 "ambiguous": len(filter_report.ambiguous)}

    if args.geofeed:
        feed = load_geofeed(args.geofeed)
        kept = [geolocate_customer(ep, feed) for ep in kept]

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with replaced(out) as fh:
        w = csv.writer(fh)
        w.writerow(ENDPOINT_CSV_HEADER)
        for ep in kept:
            pop = ep.pop_code and catalog[ep.pop_code]  # filtered to catalogued codes, or blank
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
    return _print_summary("discover", 0, {
        "records": parse_report.total_rows, "malformed": parse_report.malformed,
        "candidates": len(endpoints), "pep_removed": pep_removed,
        "kept": len(kept), **extra, "out": out})


def load_endpoints_csv(path: str | Path) -> list[Endpoint]:
    """Read an endpoint cohort written by cmd_discover; a malformed one
    raises :class:`ConfigError` naming the file and line (and the field)."""
    endpoints = []
    reader = csv.DictReader(text_lines(path, ConfigError))
    if "address" not in (reader.fieldnames or ()):
        raise ConfigError(f"{path} line 1: no address column")
    for row in reader:
        lat, lon = row.get("cust_lat"), row.get("cust_lon")
        try:
            if bool(lat) != bool(lon):
                raise ConfigError("cust_lon: required with cust_lat" if lat
                                  else "cust_lat: required with cust_lon")
            fields = {key: row[key] for key in ("address", "pop_code", "source") if key in row}
            fields["customer_location"] = (float(lat), float(lon)) if lat else None
            endpoints.append(Fields(fields, ConfigError).make(Endpoint))
        except ValueError as exc:
            raise ConfigError(f"{path} line {reader.line_num}: {exc}") from None
    return endpoints


# ------------------------------------------------------------ measurement

def _endpoint_from_scenario(scenario: Scenario) -> Endpoint:
    meta = scenario.endpoint  # checked by Scenario, latitude and longitude together
    return Endpoint(
        address=scenario.target_address,
        **{key: meta[key] for key in ("pop_code", "source") if key in meta},
        customer_location=(meta["latitude"], meta["longitude"]) if "latitude" in meta else None)


def _cohort(cfg: CampaignConfig) -> tuple[list[tuple[Endpoint, Callable]], int]:
    """Each endpoint of the campaign with the function that opens its
    transport on ``cfg``'s protocol and timeout (its own simulator, in
    sorted address order, or raw sockets closed after use), and how many
    addresses ``cfg.exclude_file`` dropped."""
    settings = {"protocol": cfg.protocol, "timeout_s": cfg.timeout_s}
    if cfg.transport == "simnet":
        cohort = [(_endpoint_from_scenario(scenario),
                   partial(nullcontext, SimnetTransport(scenario, **settings)))
                  for _, scenario in sorted(load_scenario_dir(cfg.scenario_dir).items())]
    else:
        from . import rawnet  # only raw campaigns pay for the socket modules
        cohort = [(ep, partial(rawnet.RawTransport, **settings))
                  for ep in load_endpoints_csv(cfg.endpoints_file)]
    nets = []
    if cfg.exclude_file:
        for lineno, line in enumerate(text_lines(cfg.exclude_file, ConfigError), start=1):
            try:
                if entry := line.split("#", 1)[0].strip():
                    nets.append(ipaddress.ip_network(entry, strict=False))
            except ValueError as exc:
                raise ConfigError(f"{cfg.exclude_file} line {lineno}: {exc}") from None
    kept = [(ep, t) for ep, t in cohort  # every address is an IP address, as read
            if not any(ipaddress.ip_address(ep.address) in net for net in nets)]
    return kept, len(cohort) - len(kept)


def _trace_path(transport, endpoint: Endpoint, cfg: CampaignConfig) -> probe.SatLinkPath:
    trace = probe.run_traceroute(transport, endpoint.address, max_ttl=cfg.max_ttl,
                                 probes_per_hop=cfg.probes_per_hop)
    return probe.identify_sat_link(trace, jump_threshold_ms=cfg.jump_threshold_ms)


def _measure_endpoint(transport, endpoint: Endpoint,
                      cfg: CampaignConfig) -> probe.MeasurementSession:
    path = _trace_path(transport, endpoint, cfg)
    return probe.measure_session(transport, endpoint, path, duration_s=cfg.duration_s,
                                 cadence_hz=cfg.cadence_hz)


def _run_cohort(command: str, cfg: CampaignConfig, cohort: Sequence, step,
                write: Optional[Callable] = None) -> tuple[list[tuple[Endpoint, object]], int]:
    """Run ``step(transport, endpoint, cfg)`` on a transport opened for each
    address of ``cohort``, then ``write(transport, result)`` if given: raw
    probes wait on sockets, so ``cfg.concurrency`` addresses run at a time;
    the simulator waits on nothing, so it runs one.  Returns the successful
    (endpoint, what write returned, else what step returned) pairs in cohort
    order and the failure count; each failure is a ``<command> error stage=``
    line: ``probe`` for a ProbeError, ``transport`` for any other probing
    error, ``store`` for a failed write or a repeated address (reported
    before any probing starts)."""
    jobs: dict[str, tuple] = {}
    for endpoint, open_transport in cohort:
        if endpoint.address in jobs:
            # Two workers on one address would race on its session directory.
            _err(f"{command} error stage=store endpoint={endpoint.address} "
                 f"msg=listed more than once in the cohort")
        else:
            jobs[endpoint.address] = (endpoint, open_transport)

    def work(job) -> tuple[Optional[str], object]:
        endpoint, open_transport = job
        try:
            with open_transport() as transport:
                result = step(transport, endpoint, cfg)
        except probe.ProbeError as exc:
            return "probe", exc
        except Exception as exc:  # noqa: BLE001 - cohort must survive one endpoint
            return "transport", exc
        if write is not None:
            try:
                result = write(transport, result)  # the session is not held past its write
            except (StoreError, OSError) as exc:
                return "store", exc
        return None, result

    done = []
    with ThreadPoolExecutor(cfg.concurrency if cfg.transport == "raw" else 1) as pool:
        for (endpoint, _), (stage, outcome) in zip(jobs.values(), pool.map(work, jobs.values())):
            if stage is None:
                done.append((endpoint, outcome))
            else:
                _err(f"{command} error stage={stage} endpoint={endpoint.address} msg={outcome}")
    return done, len(cohort) - len(done)


def _run_campaign(command: str, cfg: CampaignConfig, partition_label: Optional[str],
                  params: Optional[dict] = None) -> tuple[int, dict]:
    """Measure the whole cohort into a fresh partition; returns (exit_code, counters).
    Given analysis ``params``, each session is also analyzed right after its write
    (none is read back; ``_run_cohort`` runs a simulated cohort one session at a time),
    and ``_analysis_tables`` writes the rows unless tables of other params exist."""
    store = MeasurementStore(cfg.output_dir)
    cohort, excluded = _cohort(cfg)
    label = partition_label or cfg.partition_label or date.today().isoformat()
    partition = store.new_partition(label)
    config_hash = cfg.config_hash()

    def write(transport, session: probe.MeasurementSession):
        seed = transport.scenario.seed if isinstance(transport, SimnetTransport) else None
        store.write_session(partition, session, config_hash=config_hash,
                            transport=cfg.transport, protocol=cfg.protocol, seed=seed)
        if params is not None:
            return _session_rows(partition, session, params)

    sessions, failed = _run_cohort(command, cfg, cohort, _measure_endpoint, write)
    counters = {"sessions": len(sessions), "failed": failed, "excluded": excluded,
                "partition": partition, "store": str(store.root)}
    if params is None or not sessions:
        return (1 if failed else 0), counters
    # Tables of other params are left as they are; report analyzes what they lack.
    table_hash = _analyzed_tables(store.reports)[0]
    code, tables = _analysis_tables(  # by address, as analyze lists them; each is unique
        sorted((ep.address, rows) for ep, rows in sessions),
        store.reports if table_hash in (None, _analysis_hash(**params)) else None,
        params, command, partition)
    counters.update({k: tables[k] for k in ("spikes", "sustained")})
    return (1 if failed or code else 0), counters


def cmd_measure(args: argparse.Namespace) -> int:
    cfg = CampaignConfig.from_json(args.config)
    return _print_summary("measure", *_run_campaign("measure", cfg, args.partition))


def cmd_trace(args: argparse.Namespace) -> int:
    cfg = CampaignConfig.from_json(args.config)
    cohort, _ = _cohort(cfg)
    paths, failed = _run_cohort("trace", cfg, cohort, _trace_path)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_report_csv(out, ["address", "pre_sat_ttl", "pre_sat_router",
                           "post_sat_ttl", "jump_ms"],
                     [[ep.address, p.pre_sat_ttl, p.pre_sat_router, p.post_sat_ttl,
                       f"{p.jump_ms:.3f}"] for ep, p in paths],
                     config_hash=cfg.config_hash())
    return _print_summary("trace", 1 if failed else 0,
                          {"paths": len(paths), "failed": failed, "out": out})


# --------------------------------------------------------------- analysis

SESSION_HEADER = ["partition", "address", "pop_code", "n_ticks", "clamped",
                  "min_ms", "median_ms", "mean_ms", "stddev_ms",
                  "loss_fraction", "spike_time_fraction"]
SPIKE_HEADER = ["partition", "address", "start_ms", "end_ms", "kind",
                "peak_ms", "baseline_median_ms"]


def _analysis_hash(window_s: float = analysis.SMOOTHING_WINDOW_S,
                   sustained_sigma: float = analysis.SUSTAINED_SIGMA,
                   standard_sigma: float = analysis.STANDARD_SIGMA) -> str:
    """Hash of the ``analysis.analyze_session`` parameters, defaults included."""
    return params_hash({"smoothing_window_s": window_s,
                        "sustained_sigma": sustained_sigma,
                        "standard_sigma": standard_sigma})


def _session_rows(partition: str, session: probe.MeasurementSession,
                  params: dict) -> tuple[list, list[list]] | Exception:
    """The ``sessions.csv`` row and ``spikes.csv`` rows of
    ``analyze_session(session, **params)``, or the error that stopped it."""
    try:
        result = analysis.analyze_session(session, **params)
    except (analysis.AnalysisError, KeyError, ValueError) as exc:
        return exc
    ep, st = session.endpoint, result.stats
    return [partition, ep.address, ep.pop_code, result.n_ticks, result.clamped,
            f"{st.min_ms:.3f}", f"{st.median_ms:.3f}", f"{st.mean_ms:.3f}",
            f"{st.stddev_ms:.3f}", f"{st.loss_fraction:.4f}",
            f"{st.spike_time_fraction:.4f}"], [
        [partition, ep.address, ev.start_ms, ev.end_ms, ev.kind, f"{ev.peak_ms:.3f}",
         f"{ev.baseline_median_ms:.3f}"] for ev in result.spikes]


def _stored_rows(store: MeasurementStore, records: Sequence, params: dict) -> list[tuple]:
    """(address, ``_session_rows`` outcome) of each record as read from the store."""
    def outcome(rec):
        try:
            return _session_rows(rec.partition, store.read_session(rec), params)
        except (StoreError, KeyError, ValueError) as exc:
            return exc
    return [(rec.address, outcome(rec)) for rec in records]


def _analysis_rows(analyzed: Sequence[tuple], command: str) -> tuple[list[list], list[list], int]:
    """Session rows, spike rows and failure count of (address, ``_session_rows``
    outcome) pairs; a failed session is reported as ``<command> error stage=analysis``."""
    for address, outcome in analyzed:
        if isinstance(outcome, Exception):
            _err(f"{command} error stage=analysis endpoint={address} msg={outcome}")
    done = [outcome for _, outcome in analyzed if not isinstance(outcome, Exception)]
    return ([row for row, _ in done], [row for _, rows in done for row in rows],
            len(analyzed) - len(done))


def _analysis_tables(analyzed: Sequence[tuple], out_dir: Optional[Path], params: dict,
                     command: str, partition: Optional[str] = None) -> tuple[int, dict]:
    """Unless ``out_dir`` is None, write there as ``sessions.csv`` and ``spikes.csv`` the
    rows of (address, ``_session_rows`` outcome) pairs of ``partition`` (None: of all) and,
    if the tables replaced carry the same analysis hash, their rows of every other
    partition, in (partition, address) order.  Failures are reported under ``command``."""
    session_rows, spike_rows, failures = _analysis_rows(analyzed, command)
    if out_dir is not None:
        config_hash = _analysis_hash(**params)
        table_hash, *tables = _analyzed_tables(out_dir) if partition else (None, [], [])
        kept = [[row for row in rows if row[0] != partition] if table_hash == config_hash
                 else [] for rows in tables]
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, header, rows, old in (("spikes.csv", SPIKE_HEADER, spike_rows, kept[1]),
                                        ("sessions.csv", SESSION_HEADER, session_rows, kept[0])):
            write_report_csv(out_dir / name, header, sorted(old + rows, key=lambda r: r[:2]),
                             config_hash=config_hash)
    sustained = sum(row[4] == analysis.KIND_SUSTAINED for row in spike_rows)
    return (1 if failures else 0), {"sessions": len(session_rows), "failed": failures,
                                    "spikes": len(spike_rows), "sustained": sustained,
                                    "out": str(out_dir)}


def cmd_analyze(args: argparse.Namespace) -> int:
    # Written as "not in range" so that NaN fails each check.
    if not 1 <= args.window <= 120:
        raise ConfigError(f"--window: {args.window} s is not in 1..120")
    if not args.standard_sigma > 0:
        raise ConfigError(f"--standard-sigma: {args.standard_sigma} is not positive")
    if not args.sustained_sigma >= args.standard_sigma:
        raise ConfigError(f"--sustained-sigma: {args.sustained_sigma} is below "
                          f"--standard-sigma {args.standard_sigma}")
    store = MeasurementStore(args.store)
    records = store.sessions(args.partition)
    if not records:
        print("analyze error no-sessions")
        return 1
    params = {"window_s": args.window, "sustained_sigma": args.sustained_sigma,
              "standard_sigma": args.standard_sigma}
    out_dir = Path(args.out) if args.out else store.reports
    return _print_summary("analyze", *_analysis_tables(
        _stored_rows(store, records, params), out_dir, params, "analyze", args.partition))


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = CampaignConfig(
        transport="simnet",
        scenario_dir=args.scenarios,
        output_dir=args.out,
        duration_s=args.duration,
        cadence_hz=args.cadence,
        concurrency=args.concurrency,
    )
    return _print_summary("simulate", *_run_campaign("simulate", cfg, args.partition, {}))


# ---------------------------------------------------------------- report

def _analyzed_tables(directory: Path) -> tuple[Optional[str], list, list]:
    """(params hash, session rows, spike rows) of the tables in ``directory``;
    none unless both tables exist with the documented columns and one hash."""
    try:
        (s_hash, s_header, session_rows), (k_hash, k_header, spike_rows) = (
            read_report_csv(directory / name)
            for name in ("sessions.csv", "spikes.csv"))
    except (OSError, StoreError, ValueError, csv.Error):
        return None, [], []
    if (s_hash, s_header, k_header) != (k_hash, SESSION_HEADER, SPIKE_HEADER):
        return None, [], []
    return s_hash, session_rows, spike_rows


def cmd_report(args: argparse.Namespace) -> int:
    store = MeasurementStore(args.store)
    records = store.sessions(args.partition)
    catalog = PopCatalog.from_csv(args.pop_catalog) if args.pop_catalog else PopCatalog.default()

    # Sessions in analyze's tables keep its rows and params; the rest are
    # analyzed here with the defaults and nothing is written back.
    table_hash, table_sessions, table_spikes = _analyzed_tables(store.reports)
    session_rows = {tuple(r[:2]): r for r in table_sessions}
    spike_rows = [r for r in table_spikes if tuple(r[:2]) in session_rows]
    uncovered = [r for r in records if (r.partition, r.address) not in session_rows]
    analysis_hashes = (({table_hash} if len(uncovered) < len(records) else set())
                       | ({_analysis_hash()} if uncovered else set()))
    fresh_sessions, fresh_spikes, failures = _analysis_rows(
        _stored_rows(store, uncovered, {}), "report")
    session_rows.update((tuple(r[:2]), r) for r in fresh_sessions)
    spike_rows += fresh_spikes
    spikes_of: dict[tuple, list] = {}
    for row in spike_rows:
        spikes_of.setdefault(tuple(row[:2]), []).append(row)
    report_hash = params_hash({"report": 1,
                               "partitions": sorted({r.partition for r in records}),
                               "analysis": sorted(analysis_hashes)})

    items: list[tuple[Endpoint, analysis.SessionStats]] = []
    by_date: dict[str, list[analysis.SessionStats]] = {}
    inventory = []
    for rec in records:
        key = (rec.partition, rec.address)
        if key not in session_rows:
            continue  # its analysis failed and was reported
        try:
            endpoint = rec.meta  # a SessionMeta is the Endpoint it measured
            stats = analysis.SessionStats(*map(float, session_rows[key][5:]))
        except (StoreError, KeyError, TypeError, ValueError) as exc:
            _err(f"report error stage=analysis endpoint={rec.address} msg={exc}")
            failures += 1
            continue
        items.append((endpoint, stats))
        day = rec.partition.split(".")[0]
        by_date.setdefault(day, []).append(stats)
        inventory.extend(spikes_of.get(key, ()))
    if not items:
        print("report error no-sessions")
        return 1

    out_dir = Path(args.out) if args.out else store.reports
    out_dir.mkdir(parents=True, exist_ok=True)

    aggregates = analysis.aggregate_by_pop(items)
    dist_rows, rho = analysis.min_rtt_vs_pop_distance(items, catalog)
    trend = analysis.temporal_trend(list(by_date.items()))
    tables = {
        "pop_summary.csv": (
            ["pop_code", "n_endpoints", "mean_of_means_ms", "stddev_of_means_ms"],
            [[a.pop_code, a.n_endpoints, f"{a.mean_of_means_ms:.3f}",
              f"{a.stddev_of_means_ms:.3f}"] for a in aggregates]),
        "min_rtt_distance.csv": (["address", "pop_distance_km", "min_rtt_ms"],
                                 [[a, f"{d:.1f}", f"{m:.3f}"] for a, d, m in dist_rows]),
        "temporal_trend.csv": (["date", "median_ms"], [[d, f"{m:.3f}"] for d, m in trend]),
        "spike_inventory.csv": (SPIKE_HEADER, inventory),
    }
    for name, (header, rows) in tables.items():
        write_report_csv(out_dir / name, header, rows, config_hash=report_hash)

    lines = [
        f"sessions analyzed: {len(items)} (failed: {failures})",
        f"POPs covered: {len(aggregates)}",
        "",
        f"{'pop':10s} {'n':>4s} {'mean_ms':>9s} {'std_ms':>8s}",
    ]
    lines += [f"{a.pop_code:10s} {a.n_endpoints:4d} "
              f"{a.mean_of_means_ms:9.2f} {a.stddev_of_means_ms:8.2f}" for a in aggregates]
    lines += [
        "",
        f"spearman(min RTT, POP distance) = {rho:.3f} over {len(dist_rows)} endpoints"
        if rho is not None else "spearman(min RTT, POP distance): not enough located endpoints",
        f"spikes recorded: {len(inventory)}",
        "",
        f"config_hash: {report_hash}",
    ]
    with replaced(out_dir / "summary.txt") as fh:
        fh.write("\n".join(lines) + "\n")

    return _print_summary("report", 1 if failures else 0, {
        "sessions": len(items), "failed": failures, "pops": len(aggregates),
        "spikes": len(inventory), "out": out_dir})


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
    p.add_argument("--duration", type=int, default=CampaignConfig.duration_s)
    p.add_argument("--cadence", type=int, default=CampaignConfig.cadence_hz)
    p.add_argument("--concurrency", type=int, default=CampaignConfig.concurrency,
                   help="checked (1..64) but unused: a simulated cohort runs one at a time")
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
    except StoreError as exc:
        _err(f"{args.command} error stage=store msg={exc}")
        return 2
    except OSError as exc:
        _err(f"{args.command} error stage=io msg={exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
