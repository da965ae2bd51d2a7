import csv
import importlib.util
import json
import os
import random
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from leolink import cli, discovery, rawnet
from leolink import store as store_module
from leolink.discovery import Endpoint
from leolink.probe import MeasurementSession, SatLinkPath, probe_each_tick
from leolink.simnet import SimnetTransport, build_scenario
from leolink.store import (
    TRANSPORTS,
    CampaignConfig,
    ConfigError,
    MeasurementStore,
    StoreError,
    read_report_csv,
    write_report_csv,
)
from tests.conftest import FIXTURES, respond_to_probe, scenario_dict

SCENARIOS = Path(cli.__file__).parent / "data" / "scenarios"

# measurable endpoints per POP in the bundled full-size scan fixture
COHORT_HISTOGRAM = {
    "sttlwax1": 243, "atlagax1": 210, "dllstxx1": 186, "chcoilx1": 182,
    "lsancax1": 173, "sydyaus1": 148, "nwyynyx1": 144, "frntdeu1": 124,
    "dnvrcox1": 87, "lndngbr1": 56, "mdrdesp1": 20, "sntoch1": 19,
    "acklnzl1": 11, "lgosnga1": 6, "bgtacol1": 5, "limaper1": 3,
    "prthaus1": 3, "qrtomex1": 3, "splobra1": 3, "tkyojpn1": 3,
}


def make_config(tmp_path, **overrides):
    scen_dir = tmp_path / "scenarios"
    scen_dir.mkdir(exist_ok=True)
    (scen_dir / "one.json").write_text(json.dumps(scenario_dict()))
    fields = dict(transport="simnet", output_dir=str(tmp_path / "store"),
                  scenario_dir=str(scen_dir), duration_s=120)
    fields.update(overrides)
    return CampaignConfig(**fields)


def small_session(address="100.64.9.1", n=5):
    path = SatLinkPath(target=address, pre_sat_ttl=2, pre_sat_router="10.0.0.2",
                       post_sat_ttl=3, jump_ms=25.0)
    endpoint = Endpoint(address=address, pop_code="sttlwax1", pop_location=None)
    sent_ms = np.arange(n, dtype=np.int64) * 1000
    endpoint_rtt_us = np.full(n, 35_000.0)
    endpoint_rtt_us[2] = np.nan
    return MeasurementSession(endpoint=endpoint, path=path, start_ms=0,
                              duration_s=n, cadence_hz=1,
                              terrestrial_sent_ms=sent_ms,
                              terrestrial_rtt_us=np.full(n, 10_000.0),
                              endpoint_sent_ms=sent_ms, endpoint_rtt_us=endpoint_rtt_us)


# ----------------------------------------------------------- campaign config

@pytest.mark.parametrize("overrides,field", [
    (dict(transport="carrier-pigeon"), "transport"),
    (dict(transport="simnet", scenario_dir=None), "scenario_dir"),
    (dict(transport="raw"), "endpoints_file"),
    (dict(output_dir=""), "output_dir"),
    (dict(cadence_hz=11), "cadence_hz"),
    (dict(duration_s=0), "duration_s"),
    (dict(concurrency=65), "concurrency"),
    (dict(jump_threshold_ms=0.0), "jump_threshold_ms"),
    (dict(probes_per_hop=11), "probes_per_hop"),
    (dict(max_ttl=65), "max_ttl"),
    (dict(timeout_s=31.0), "timeout_s"),
    (dict(timeout_s=0.0), "timeout_s"),
    (dict(jump_threshold_ms=float("nan")), "jump_threshold_ms"),
    (dict(protocol="gre"), "protocol"),
])
def test_config_validation(tmp_path, overrides, field):
    with pytest.raises(ConfigError) as err:
        make_config(tmp_path, **overrides)
    assert str(err.value).startswith(field + ":")


def test_config_from_json_rejects_unknown_fields(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"transport": "simnet", "output_dir": "x",
                                "scenario_dir": "y", "cheese": 1}))
    with pytest.raises(ConfigError, match="unknown fields"):
        CampaignConfig.from_json(path)
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top level"):
        CampaignConfig.from_json(path)
    with pytest.raises(ConfigError, match="cannot load"):
        CampaignConfig.from_json(tmp_path / "missing.json")


@pytest.mark.parametrize("field,value", [
    ("smoothing_window_s", 15.0), ("sustained_sigma", 2.0),
    ("standard_sigma", 1.0), ("schedule", "once"),
])
def test_removed_config_fields_are_unknown(tmp_path, capsys, field, value):
    # analyze's own options set these; a config naming one must say so.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"transport": "simnet", "output_dir": str(tmp_path / "s"),
                                    "scenario_dir": str(SCENARIOS / "relay_split"),
                                    field: value}))
    with pytest.raises(ConfigError, match=re.escape(f"unknown fields ['{field}']")):
        CampaignConfig.from_json(cfg_path)
    assert cli.main(["measure", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"measure error stage=config msg={cfg_path}: unknown fields ['{field}']"]
    assert not (tmp_path / "s").exists()


def test_config_hash_ignores_store_location(tmp_path):
    a = make_config(tmp_path, output_dir=str(tmp_path / "store-a"))
    b = make_config(tmp_path, output_dir=str(tmp_path / "store-b"))
    c = make_config(tmp_path, cadence_hz=2)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert len(a.config_hash()) == 12
    # nor does how many endpoints are probed at once
    assert (make_config(tmp_path, concurrency=1).config_hash()
            == make_config(tmp_path, concurrency=8).config_hash() == a.config_hash())


# ------------------------------------------------------------------- store

def test_partition_names_get_suffixes(tmp_path):
    store = MeasurementStore(tmp_path / "store")
    assert store.new_partition("2026-08-14") == "2026-08-14"
    assert store.new_partition("2026-08-14") == "2026-08-14.1"
    assert store.new_partition("2026-08-14") == "2026-08-14.2"
    assert store.partitions() == ["2026-08-14", "2026-08-14.1", "2026-08-14.2"]
    with pytest.raises(StoreError):
        store.new_partition("bad/label")


def test_session_roundtrip(tmp_path):
    store = MeasurementStore(tmp_path / "store")
    part = store.new_partition("p")
    session = small_session()
    store.write_session(part, session, config_hash="cafe0123beef",
                        extra_meta={"transport": "simnet"})
    records = store.sessions()
    assert len(records) == 1
    rec = records[0]
    assert rec.address == "100.64.9.1"
    assert rec.partition == "p"
    loaded = store.read_session(rec)
    for name in ("terrestrial_sent_ms", "terrestrial_rtt_us",
                 "endpoint_sent_ms", "endpoint_rtt_us"):
        assert np.array_equal(getattr(loaded, name), getattr(session, name), equal_nan=True)
        assert getattr(loaded, name).dtype == getattr(session, name).dtype
    assert loaded.path == session.path
    assert loaded.endpoint.pop_code == "sttlwax1"
    assert loaded.duration_s == 5 and loaded.cadence_hz == 1


def test_session_meta_fields(tmp_path):
    store = MeasurementStore(tmp_path / "store")
    part = store.new_partition("p")
    store.write_session(part, small_session(), config_hash="cafe0123beef")
    meta_path = next((store.root / "p").glob("*/meta.json"))
    meta = json.loads(meta_path.read_text())
    assert meta["schema_version"] == 1
    assert meta["config_hash"] == "cafe0123beef"
    assert meta["address"] == "100.64.9.1"
    assert meta["pre_sat_ttl"] == 2 and meta["post_sat_ttl"] == 3
    assert meta["n_terrestrial"] == 5 and meta["n_endpoint"] == 5
    assert meta["terrestrial_loss_fraction"] == 0.0


def test_session_csv_columns_and_order(tmp_path):
    store = MeasurementStore(tmp_path / "store")
    part = store.new_partition("p")
    store.write_session(part, small_session(), config_hash="x")
    csv_path = next((store.root / "p").glob("*/session.csv"))
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["timestamp_ms", "target", "hop_ttl", "rtt_us", "lost"]
    # per tick the terrestrial hop (smaller ttl) sorts first
    assert [r[2] for r in rows[1:5]] == ["2", "3", "2", "3"]
    lost_rows = [r for r in rows[1:] if r[4] == "true"]
    assert len(lost_rows) == 1 and lost_rows[0][3] == ""


def test_store_is_append_only(tmp_path):
    store = MeasurementStore(tmp_path / "store")
    part = store.new_partition("p")
    store.write_session(part, small_session(), config_hash="x")
    with pytest.raises(StoreError, match="exists"):
        store.write_session(part, small_session(), config_hash="x")


def test_read_session_rejects_alien_ttl(tmp_path):
    store = MeasurementStore(tmp_path / "store")
    part = store.new_partition("p")
    store.write_session(part, small_session(), config_hash="x")
    csv_path = next((store.root / "p").glob("*/session.csv"))
    text = csv_path.read_text().replace("0,100.64.9.1,2,", "0,100.64.9.1,7,")
    csv_path.write_text(text)
    with pytest.raises(StoreError, match="neither"):
        store.read_session(store.sessions()[0])


@pytest.mark.parametrize("hop_ttl", ["2", "3"])
def test_read_session_rejects_missing_rows(tmp_path, hop_ttl):
    store = MeasurementStore(tmp_path / "store")
    store.write_session(store.new_partition("p"), small_session(), config_hash="x")
    csv_path = next((store.root / "p").glob("*/session.csv"))
    lines = csv_path.read_bytes().split(b"\r\n")
    dropped = next(i for i, line in enumerate(lines)
                   if line.split(b",")[2:3] == [hop_ttl.encode()])
    csv_path.write_bytes(b"\r\n".join(lines[:dropped] + lines[dropped + 1:]))
    with pytest.raises(StoreError, match="4 .* rows, meta.json records 5"):
        store.read_session(store.sessions()[0])


@pytest.mark.parametrize("bad_row", [b"0,100.64.9.1,2", b"0,100.64.9.1,2,fast,false",
                                     b"zero,100.64.9.1,2,10000.0,false"])
def test_read_session_rejects_malformed_rows(tmp_path, bad_row):
    store = MeasurementStore(tmp_path / "store")
    store.write_session(store.new_partition("p"), small_session(), config_hash="x")
    csv_path = next((store.root / "p").glob("*/session.csv"))
    lines = csv_path.read_bytes().split(b"\r\n")
    csv_path.write_bytes(b"\r\n".join(lines[:1] + [bad_row] + lines[2:]))
    with pytest.raises(StoreError, match="line 2"):
        store.read_session(store.sessions()[0])


def test_read_session_without_rows_fails_on_the_counts(tmp_path, recwarn):
    store = MeasurementStore(tmp_path / "store")
    store.write_session(store.new_partition("p"), small_session(), config_hash="x")
    csv_path = next((store.root / "p").glob("*/session.csv"))
    csv_path.write_bytes(csv_path.read_bytes().split(b"\r\n")[0] + b"\r\n")
    with pytest.raises(StoreError, match="0 terrestrial rows, meta.json records 5"):
        store.read_session(store.sessions()[0])
    assert not recwarn.list


def test_failed_meta_write_leaves_no_session(tmp_path, monkeypatch):
    store = MeasurementStore(tmp_path / "store")
    part = store.new_partition("p")

    def broken_dump(*args, **kwargs):
        raise OSError("disk full")

    with monkeypatch.context() as m:
        m.setattr(store_module.json, "dump", broken_dump)
        with pytest.raises(OSError, match="disk full"):
            store.write_session(part, small_session(), config_hash="x")
    endpoint_dir = store.root / "p" / "100.64.9.1"
    assert sorted(p.name for p in endpoint_dir.iterdir()) == []
    assert store.sessions() == []
    # nothing half-written blocks the append-only store from a retry
    store.write_session(part, small_session(), config_hash="x")
    assert sorted(p.name for p in endpoint_dir.iterdir()) == ["meta.json", "session.csv"]
    assert len(store.read_session(store.sessions()[0]).endpoint_rtt_us) == 5


def test_report_csv_roundtrip(tmp_path):
    path = tmp_path / "r.csv"
    write_report_csv(path, ["a", "b"], [[1, "x"], [2, "y"]],
                     config_hash="beefbeefbeef")
    h, header, rows = read_report_csv(path)
    assert h == "beefbeefbeef"
    assert header == ["a", "b"]
    assert rows == [["1", "x"], ["2", "y"]]
    bare = tmp_path / "bare.csv"
    bare.write_text("a,b\n1,2\n")
    with pytest.raises(StoreError, match="provenance"):
        read_report_csv(bare)


# ---------------------------------------------------------------- discover

def test_discover_full_funnel(tmp_path, capsys):
    out = tmp_path / "cohort.csv"
    code = cli.main(["discover", "--scan", str(FIXTURES / "scan_fixture.jsonl"),
                     "--out", str(out)])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("discover ok ")
    fields = dict(kv.split("=", 1) for kv in line.split()[2:])
    assert fields["records"] == "2051"
    assert fields["candidates"] == "1790"
    assert fields["pep_removed"] == "161"
    assert fields["kept"] == "1629"
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1629
    histogram = Counter(r["pop_code"] for r in rows)
    assert dict(histogram) == COHORT_HISTOGRAM


def test_discover_writes_documented_columns(tmp_path):
    out = tmp_path / "cohort.csv"
    cli.main(["discover", "--scan", str(FIXTURES / "scan_small.jsonl"),
              "--out", str(out)])
    with open(out, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["address", "pop_code", "pop_city", "pop_country",
                      "pop_lat", "pop_lon", "cust_lat", "cust_lon", "source"]


def test_discover_small_scan_pep_removal(tmp_path, capsys):
    out = tmp_path / "cohort.csv"
    assert cli.main(["discover", "--scan", str(FIXTURES / "scan_small.jsonl"),
                     "--out", str(out)]) == 0
    line = capsys.readouterr().out.strip()
    assert "pep_removed=9" in line
    assert "kept=91" in line


def test_discover_geofeed_locates_customers(tmp_path):
    out = tmp_path / "cohort.csv"
    cli.main(["discover", "--scan", str(FIXTURES / "scan_small.jsonl"),
              "--geofeed", str(FIXTURES / "geofeed.csv"), "--out", str(out)])
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    located = [r for r in rows if r["cust_lat"]]
    assert located
    assert all(r["pop_lat"] for r in rows)


def test_discover_reads_the_geofeed_once(tmp_path, capsys, monkeypatch):
    feed = FIXTURES / "geofeed.csv"
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(Path(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(discovery, "open", counting_open, raising=False)
    assert cli.main(["discover", "--scan", str(FIXTURES / "scan_small.jsonl"),
                     "--geofeed", str(feed), "--out", str(tmp_path / "cohort.csv")]) == 0
    assert "kept=91" in capsys.readouterr().out
    assert opened.count(feed) == 1


def test_discover_oneweb_provider(tmp_path, capsys):
    out = tmp_path / "cohort.csv"
    code = cli.main(["discover", "--provider", "oneweb",
                     "--scan", str(FIXTURES / "oneweb_scan.jsonl"),
                     "--out", str(out)])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert "unclassifiable=1" in line
    with open(out, newline="") as fh:
        addresses = {r["address"] for r in csv.DictReader(fh)}
    assert addresses == {"185.118.1.1", "185.118.1.2"}


def test_discover_missing_scan_is_exit_2(tmp_path, capsys):
    code = cli.main(["discover", "--scan", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "stage=parse" in capsys.readouterr().err


# ---------------------------------------------------------- simulate/analyze

def test_simulate_reroute_day_finds_five_sustained(tmp_path, capsys):
    code = cli.main(["simulate", "--scenarios", str(SCENARIOS / "reroute_day"),
                     "--out", str(tmp_path / "store"), "--duration", "2000",
                     "--partition", "day1"])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("simulate ok ")
    fields = dict(kv.split("=", 1) for kv in line.split()[2:])
    assert fields["sessions"] == "1"
    assert fields["failed"] == "0"
    assert fields["spikes"] == "5"
    assert fields["sustained"] == "5"
    assert fields["partition"] == "day1"
    _, _, rows = read_report_csv(tmp_path / "store" / "reports" / "spikes.csv")
    assert [r[4] for r in rows] == ["sustained"] * 5


def test_simulate_refuses_a_session_whose_terrestrial_hop_flaps(tmp_path, capsys):
    # The flap is active at t = 0, so the trace brackets the flap router
    # at TTL 4.  Outside flaps TTL 4 reaches the target itself, and those
    # replies must count as lost, not enter the series as the terrestrial
    # hop (which would isolate a satellite RTT of about 0.3 ms).
    obj = json.loads((SCENARIOS / "reroute_day" / "seattle_reroute_day.json").read_text())
    obj["hop_flap"] = {"every_s": 25, "duration_s": 1}
    obj["events"] = []
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    (scenarios / "flap.json").write_text(json.dumps(obj))
    code = cli.main(["simulate", "--scenarios", str(scenarios), "--out", str(tmp_path / "store"),
                     "--duration", "600", "--partition", "p"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.startswith("simulate error sessions=1 failed=0 ")
    [line] = captured.err.splitlines()
    assert line == ("simulate error stage=analysis endpoint=98.97.48.115 msg=98.97.48.115: "
                    "terrestrial loss 96% exceeds 50%")
    meta = json.loads((tmp_path / "store" / "p" / "98.97.48.115" / "meta.json").read_text())
    assert (meta["pre_sat_ttl"], meta["pre_sat_router"]) == (4, "10.255.255.1")


def test_analyze_truncated_session_exits_1(tmp_path, capsys):
    store_dir = tmp_path / "store"
    assert cli.main(["simulate", "--scenarios", str(SCENARIOS / "relay_split"),
                     "--out", str(store_dir), "--duration", "300",
                     "--partition", "p"]) == 0
    csv_path = next((store_dir / "p").glob("*/session.csv"))
    lines = csv_path.read_bytes().splitlines(keepends=True)
    csv_path.write_bytes(b"".join(lines[:100] + lines[101:]))
    capsys.readouterr()
    assert cli.main(["analyze", "--store", str(store_dir), "--partition", "p"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("analyze error sessions=0 failed=1 ")
    assert "analyze error stage=analysis endpoint=" in captured.err
    assert "meta.json records 300" in captured.err
    assert "Traceback" not in captured.err


def test_unpaired_ticks_fail_the_session(tmp_path, capsys):
    # One row of each hop dropped and meta.json fixed up to match: the
    # counts agree, but pairing the rest by position would shift ticks.
    store_dir = tmp_path / "store"
    assert cli.main(["simulate", "--scenarios", str(SCENARIOS / "relay_split"),
                     "--out", str(store_dir), "--duration", "300",
                     "--partition", "p"]) == 0
    csv_path = next((store_dir / "p").glob("*/session.csv"))
    meta_path = csv_path.parent / "meta.json"
    meta = json.loads(meta_path.read_text())
    lines = csv_path.read_bytes().split(b"\r\n")
    rows_of = {ttl: [i for i, line in enumerate(lines)
                     if line.split(b",")[2:3] == [str(ttl).encode()]]
               for ttl in (meta["pre_sat_ttl"], meta["post_sat_ttl"])}
    dropped = {rows_of[meta["pre_sat_ttl"]][3], rows_of[meta["post_sat_ttl"]][7]}
    csv_path.write_bytes(b"\r\n".join(line for i, line in enumerate(lines)
                                       if i not in dropped))
    meta.update(n_terrestrial=299, n_endpoint=299)
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    store = MeasurementStore(store_dir)
    with pytest.raises(StoreError, match="tick 3 do not pair"):
        store.read_session(store.sessions("p")[0])
    capsys.readouterr()
    assert cli.main(["analyze", "--store", str(store_dir), "--partition", "p"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("analyze error sessions=0 failed=1 ")
    assert "analyze error stage=analysis endpoint=176.83.201.7 " in captured.err
    assert "Traceback" not in captured.err


def _two_partition_store(tmp_path):
    """A store with one relay_split session in each of p1 and p2; the
    analyze tables under ``reports/`` cover p2 only."""
    store_dir = tmp_path / "store"
    for partition in ("p1", "p2"):
        assert cli.main(["simulate", "--scenarios", str(SCENARIOS / "relay_split"),
                         "--out", str(store_dir), "--duration", "300",
                         "--partition", partition]) == 0
    return store_dir


BAD_META = pytest.mark.parametrize("meta_text", ["{not json", "[]"],
                                   ids=["not_json", "not_an_object"])


@BAD_META
def test_analyze_fails_only_the_session_with_a_bad_meta_json(tmp_path, capsys, meta_text):
    store_dir = _two_partition_store(tmp_path)
    meta_path = next((store_dir / "p2").glob("*/meta.json"))
    meta_path.write_text(meta_text)
    capsys.readouterr()
    assert cli.main(["analyze", "--store", str(store_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("analyze error sessions=1 failed=1 ")
    [line] = captured.err.splitlines()
    assert line.startswith(f"analyze error stage=analysis endpoint=176.83.201.7 "
                           f"msg={meta_path}: ")
    _, _, rows = read_report_csv(store_dir / "reports" / "sessions.csv")
    assert [r[0] for r in rows] == ["p1"]


@BAD_META
@pytest.mark.parametrize("partition", ["p1", "p2"], ids=["fresh", "from_tables"])
def test_report_fails_only_the_session_with_a_bad_meta_json(tmp_path, capsys, meta_text,
                                                            partition):
    store_dir = _two_partition_store(tmp_path)
    meta_path = next((store_dir / partition).glob("*/meta.json"))
    meta_path.write_text(meta_text)
    capsys.readouterr()
    assert cli.main(["report", "--store", str(store_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("report error sessions=1 failed=1 ")
    [line] = captured.err.splitlines()
    assert line.startswith(f"report error stage=analysis endpoint=176.83.201.7 "
                           f"msg={meta_path}: ")
    _, _, trend = read_report_csv(store_dir / "reports" / "temporal_trend.csv")
    assert [r[0] for r in trend] == [{"p1": "p2", "p2": "p1"}[partition]]


WRONG_META_TYPE = pytest.mark.parametrize("field,value", [
    ("pre_sat_ttl", None), ("n_endpoint", [300]), ("customer_location", 5),
    ("duration_s", -120), ("cadence_hz", 0),  # integers outside CampaignConfig's ranges
    ("customer_location", [500.0, -722.3]),
], ids=["pre_sat_ttl_null", "n_endpoint_list", "customer_location_number",
        "duration_negative", "cadence_zero", "customer_location_off_earth"])


def _reroute_day_store(tmp_path, field, value):
    """A store with one reroute_day session whose meta.json has ``field`` set
    to ``value``, and no analyze tables; returns it and the meta.json path."""
    store_dir = tmp_path / "store"
    assert cli.main(["simulate", "--scenarios", str(SCENARIOS / "reroute_day"),
                     "--out", str(store_dir), "--duration", "300", "--partition", "p"]) == 0
    shutil.rmtree(store_dir / "reports")
    meta_path = store_dir / "p" / "98.97.48.115" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta[field] = value
    meta_path.write_text(json.dumps(meta))
    return store_dir, meta_path


@WRONG_META_TYPE
@pytest.mark.parametrize("command", ["analyze", "report"])
def test_meta_field_of_the_wrong_type_fails_its_session(tmp_path, capsys, command,
                                                        field, value):
    store_dir, meta_path = _reroute_day_store(tmp_path, field, value)
    capsys.readouterr()
    assert cli.main([command, "--store", str(store_dir)]) == 1
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith(f"{command} error stage=analysis endpoint=98.97.48.115 "
                           f"msg={meta_path}: {field}: expected ")
    assert line.endswith(f", got {value!r}")
    assert captured.out.startswith({"analyze": "analyze error sessions=0 failed=1 ",
                                    "report": "report error no-sessions"}[command])


def test_analyze_empty_store_exits_1(tmp_path, capsys):
    MeasurementStore(tmp_path / "store")
    assert cli.main(["analyze", "--store", str(tmp_path / "store")]) == 1
    assert "analyze error no-sessions" in capsys.readouterr().out
    assert cli.main(["report", "--store", str(tmp_path / "store")]) == 1
    assert "report error no-sessions" in capsys.readouterr().out


@pytest.mark.parametrize("options", [
    ["--window", "0"], ["--window", "nan"], ["--window", "121"],
    ["--standard-sigma", "0"], ["--sustained-sigma", "0.5", "--standard-sigma", "1.0"],
], ids=["window_0", "window_nan", "window_121", "standard_0", "sustained_below_standard"])
def test_analyze_rejects_bad_parameters(tmp_path, capsys, options):
    store = MeasurementStore(tmp_path / "store")
    store.write_session(store.new_partition("p"), small_session(), config_hash="x")
    assert cli.main(["analyze", "--store", str(store.root), *options]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"analyze error stage=config msg={options[0]}: ")
    assert not (store.root / "reports").exists()


def test_analyze_accepts_the_range_ends(tmp_path, capsys):
    store_dir = tmp_path / "store"
    assert cli.main(["simulate", "--scenarios", str(SCENARIOS / "relay_split"),
                     "--out", str(store_dir), "--duration", "300", "--partition", "p"]) == 0
    for options in (["--window", "1"], ["--window", "120"],
                    ["--sustained-sigma", "1.5", "--standard-sigma", "1.5"]):
        assert cli.main(["analyze", "--store", str(store_dir), *options]) == 0, options
    assert "Traceback" not in capsys.readouterr().err


def test_missing_partition_is_a_store_diagnostic(tmp_path, capsys):
    for command in ("analyze", "report"):
        assert cli.main([command, "--store", str(tmp_path / "store"),
                         "--partition", "nope"]) == 2
        err = capsys.readouterr().err
        assert f"{command} error stage=store msg=no such partition: nope" in err
        assert "Traceback" not in err


def test_simulate_runs_are_byte_identical(tmp_path, capsys):
    args = ["simulate", "--scenarios", str(SCENARIOS / "relay_split"),
            "--duration", "1000", "--partition", "p1"]
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    for rel in ("p1", "reports"):
        a_files = sorted((tmp_path / "a" / rel).rglob("*"))
        b_files = sorted((tmp_path / "b" / rel).rglob("*"))
        assert [f.name for f in a_files] == [f.name for f in b_files]
        for fa, fb in zip(a_files, b_files):
            if fa.is_file():
                assert fa.read_bytes() == fb.read_bytes(), fa.name


def test_measure_honors_exclusion_file(tmp_path, capsys):
    exclude = tmp_path / "exclude.txt"
    exclude.write_text("# blackout ranges\n100.64.9.0/24\n")
    cfg = make_config(tmp_path, exclude_file=str(exclude))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "transport": "simnet", "output_dir": cfg.output_dir,
        "scenario_dir": cfg.scenario_dir, "duration_s": 120,
        "exclude_file": str(exclude)}))
    assert cli.main(["measure", "--config", str(cfg_path)]) == 0
    line = capsys.readouterr().out.strip()
    assert "sessions=0" in line and "excluded=1" in line


def test_trace_and_measure_share_the_exclusion_file(tmp_path, capsys, monkeypatch):
    exclude = tmp_path / "exclude.txt"
    exclude.write_text("176.83.201.7/32  # the relay_split endpoint\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "transport": "simnet", "output_dir": str(tmp_path / "store"),
        "scenario_dir": str(SCENARIOS / "relay_split"), "duration_s": 120,
        "exclude_file": str(exclude)}))
    probed = []
    original = SimnetTransport.probe, SimnetTransport.probe_ticks

    def spy(self, target, ttl, **kwargs):
        probed.append(target)
        return original[0](self, target, ttl, **kwargs)

    def session_spy(self, target, *args, **kwargs):
        probed.append(target)
        return original[1](self, target, *args, **kwargs)

    monkeypatch.setattr(SimnetTransport, "probe", spy)
    monkeypatch.setattr(SimnetTransport, "probe_ticks", session_spy)
    out = tmp_path / "paths.csv"
    assert cli.main(["trace", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("trace ok paths=0 failed=0 ")
    assert read_report_csv(out)[2] == []
    assert cli.main(["measure", "--config", str(cfg_path)]) == 0
    line = capsys.readouterr().out.strip()
    assert "sessions=0" in line and "excluded=1" in line
    assert probed == []


@pytest.mark.parametrize("command", ["trace", "measure"])
def test_malformed_exclusion_file_is_a_config_error(tmp_path, capsys, command):
    exclude = tmp_path / "exclude.txt"
    exclude.write_text("100.64.9.0/24\nnot-a-network\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "transport": "simnet", "output_dir": str(tmp_path / "store"),
        "scenario_dir": str(SCENARIOS / "relay_split"), "exclude_file": str(exclude)}))
    extra = {"trace": ["--out", str(tmp_path / "paths.csv")], "measure": []}[command]
    assert cli.main([command, "--config", str(cfg_path), *extra]) == 2
    err = capsys.readouterr().err
    assert f"{command} error stage=config msg=exclude_file: 'not-a-network'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["trace", "measure"])
def test_non_ip_cohort_address_under_exclusion_is_a_config_error(tmp_path, capsys,
                                                                 monkeypatch, command):
    cohort = tmp_path / "cohort.csv"
    cohort.write_text("address,pop_code\n100.64.9.1,sttlwax1\nhost.example,sttlwax1\n")
    exclude = tmp_path / "exclude.txt"
    exclude.write_text("192.0.2.0/24\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"transport": "raw", "output_dir": str(tmp_path / "s"),
                                    "endpoints_file": str(cohort),
                                    "exclude_file": str(exclude)}))
    monkeypatch.setattr(StubRawTransport, "instances", [])
    monkeypatch.setattr(rawnet, "RawTransport", StubRawTransport)
    extra = {"trace": ["--out", str(tmp_path / "paths.csv")], "measure": []}[command]
    assert cli.main([command, "--config", str(cfg_path), *extra]) == 2
    err = capsys.readouterr().err
    assert f"{command} error stage=config msg=exclude_file: cohort address 'host.example'" in err
    assert "Traceback" not in err
    assert StubRawTransport.instances == []


def test_measure_bad_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"transport": "simnet", "output_dir": "x",
                                    "scenario_dir": "y", "cadence_hz": 99}))
    assert cli.main(["measure", "--config", str(cfg_path)]) == 2
    assert "stage=config" in capsys.readouterr().err


def test_simulate_bad_cadence_exits_2(tmp_path, capsys):
    code = cli.main(["simulate", "--scenarios", str(SCENARIOS / "relay_split"),
                     "--out", str(tmp_path / "s"), "--cadence", "11"])
    assert code == 2
    assert "stage=config" in capsys.readouterr().err


# -------------------------------------------------------------- trace/report

def test_trace_writes_paths_csv(tmp_path, capsys):
    cfg = make_config(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "transport": "simnet", "output_dir": cfg.output_dir,
        "scenario_dir": cfg.scenario_dir}))
    out = tmp_path / "paths.csv"
    assert cli.main(["trace", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert "trace ok paths=1 failed=0" in capsys.readouterr().out
    h, header, rows = read_report_csv(out)
    assert h == CampaignConfig.from_json(cfg_path).config_hash()
    assert header == ["address", "pre_sat_ttl", "pre_sat_router",
                      "post_sat_ttl", "jump_ms"]
    assert rows[0][:2] == ["100.64.9.1", "2"]
    assert float(rows[0][4]) == pytest.approx(25.0, abs=0.001)


def test_report_renders_tables(tmp_path, capsys):
    store_dir = tmp_path / "store"
    assert cli.main(["simulate", "--scenarios", str(SCENARIOS / "relay_split"),
                     "--out", str(store_dir), "--duration", "1000",
                     "--partition", "2026-08-01"]) == 0
    out_dir = tmp_path / "tables"
    assert cli.main(["report", "--store", str(store_dir),
                     "--out", str(out_dir)]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("report ok sessions=1")
    for name in ("pop_summary.csv", "min_rtt_distance.csv",
                 "temporal_trend.csv", "spike_inventory.csv"):
        assert (out_dir / name).exists(), name
    _, _, pops = read_report_csv(out_dir / "pop_summary.csv")
    assert [r[0] for r in pops] == ["lgosnga1"]
    _, _, dist = read_report_csv(out_dir / "min_rtt_distance.csv")
    assert len(dist) == 1  # scenario endpoint has coordinates
    _, _, trend = read_report_csv(out_dir / "temporal_trend.csv")
    assert [r[0] for r in trend] == ["2026-08-01"]
    summary = (out_dir / "summary.txt").read_text()
    assert "sessions analyzed: 1" in summary


def _spike_rows(path):
    return read_report_csv(path)[2]


def test_report_takes_spike_rows_from_analyze(tmp_path, capsys):
    store_dir = tmp_path / "store"
    assert cli.main(["simulate", "--scenarios", str(SCENARIOS / "relay_split"),
                     "--out", str(store_dir), "--duration", "1000",
                     "--partition", "p"]) == 0
    assert cli.main(["analyze", "--store", str(store_dir), "--window", "30",
                     "--sustained-sigma", "2.5"]) == 0
    out_dir = tmp_path / "tables"
    assert cli.main(["report", "--store", str(store_dir), "--out", str(out_dir)]) == 0
    spikes = _spike_rows(store_dir / "reports" / "spikes.csv")
    assert [r[4] for r in spikes] == ["standard"] * 2  # the defaults find 4 sustained
    assert _spike_rows(out_dir / "spike_inventory.csv") == spikes
    assert "report ok sessions=1 failed=0 " in capsys.readouterr().out


def test_report_mixes_analyzed_tables_and_fresh_sessions(tmp_path, capsys):
    store_dir = tmp_path / "store"
    reports = store_dir / "reports"
    simulate = ["simulate", "--scenarios", str(SCENARIOS / "relay_split"),
                "--out", str(store_dir), "--duration", "1000"]
    assert cli.main(simulate + ["--partition", "p1"]) == 0
    p1_spikes = _spike_rows(reports / "spikes.csv")
    # the tables now cover p2 only, analyzed with other parameters
    assert cli.main(simulate + ["--partition", "p2"]) == 0
    assert cli.main(["analyze", "--store", str(store_dir), "--partition", "p2",
                     "--window", "30", "--sustained-sigma", "2.5"]) == 0
    tables = {name: (reports / name).read_bytes() for name in ("sessions.csv", "spikes.csv")}
    capsys.readouterr()
    assert cli.main(["report", "--store", str(store_dir)]) == 0
    assert capsys.readouterr().out.startswith("report ok sessions=2 failed=0 ")
    inventory = _spike_rows(reports / "spike_inventory.csv")
    assert inventory == p1_spikes + _spike_rows(reports / "spikes.csv")
    assert {r[0] for r in inventory} == {"p1", "p2"}
    assert tables == {name: (reports / name).read_bytes() for name in tables}


def test_report_without_analyze_writes_no_tables(tmp_path, capsys):
    cfg = make_config(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "transport": "simnet", "output_dir": cfg.output_dir,
        "scenario_dir": cfg.scenario_dir, "duration_s": 120}))
    assert cli.main(["measure", "--config", str(cfg_path), "--partition", "m"]) == 0
    assert cli.main(["report", "--store", cfg.output_dir]) == 0
    assert "report ok sessions=1 failed=0 " in capsys.readouterr().out
    reports = Path(cfg.output_dir) / "reports"
    assert (reports / "spike_inventory.csv").is_file()
    assert not (reports / "sessions.csv").exists()
    assert not (reports / "spikes.csv").exists()


class StubRawTransport:
    """Answers like the base scenario for any target, except silent ones."""

    instances: list["StubRawTransport"] = []
    SILENT = "100.64.9.99"

    probe_ticks = probe_each_tick

    def __init__(self, *, protocol="icmp", timeout_s=2.0):
        self.protocol = protocol
        self.exits = 0
        self.clock_ms = 0
        self.wrong_responders = {}
        StubRawTransport.instances.append(self)

    def now_ms(self):
        return self.clock_ms

    def sleep_until_ms(self, t_ms):
        self.clock_ms = max(self.clock_ms, t_ms)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.exits += 1

    def probe(self, target, ttl):
        if target == self.SILENT:
            return None
        hops = scenario_dict()["hops"]
        hops[-1]["address"] = target
        return respond_to_probe(build_scenario(scenario_dict(hops=hops)), target, ttl, 0,
                                protocol=self.protocol)


def test_cohort_opens_each_transport_on_the_config(tmp_path):
    scenario_dir = tmp_path / "scenarios"
    scenario_dir.mkdir()
    for address in ("100.64.9.2", "100.64.9.1"):
        obj = scenario_dict()
        obj["hops"][-1]["address"] = address
        (scenario_dir / f"{address}.json").write_text(json.dumps(obj))
    cfg = CampaignConfig(transport="simnet", output_dir=str(tmp_path / "s"),
                         scenario_dir=str(scenario_dir), protocol="udp", timeout_s=3.0)
    cohort, _ = cli._cohort(cfg)
    # one simulator per scenario, in sorted address order, each with its own clock
    assert [ep.address for ep, _ in cohort] == ["100.64.9.1", "100.64.9.2"]
    with cohort[0][1]() as first, cohort[1][1]() as second:
        assert (first.protocol, first.timeout_s) == ("udp", 3.0)
        assert (second.protocol, second.timeout_s) == ("udp", 3.0)
        first.probe("100.64.9.1", 3)
        assert first.now_ms() > 0
        assert second.now_ms() == 0
    cohort_csv = tmp_path / "cohort.csv"
    cohort_csv.write_text("address,pop_code\n100.64.9.1,sttlwax1\n")
    [(_, open_transport)], _ = cli._cohort(CampaignConfig(
        transport="raw", output_dir=str(tmp_path / "s"), endpoints_file=str(cohort_csv),
        protocol="tcp", timeout_s=3.0))
    with open_transport() as transport:  # opens no socket before its first probe
        assert isinstance(transport, rawnet.RawTransport)
        assert (transport.protocol, transport.timeout_s) == ("tcp", 3.0)


def test_trace_closes_raw_transport_per_endpoint(tmp_path, capsys, monkeypatch):
    cohort = tmp_path / "cohort.csv"
    cohort.write_text("address,pop_code\n100.64.9.1,sttlwax1\n"
                      f"{StubRawTransport.SILENT},sttlwax1\n100.64.9.2,sttlwax1\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"transport": "raw", "output_dir": str(tmp_path / "s"),
                                    "endpoints_file": str(cohort)}))
    monkeypatch.setattr(StubRawTransport, "instances", [])
    monkeypatch.setattr(rawnet, "RawTransport", StubRawTransport)
    code = cli.main(["trace", "--config", str(cfg_path), "--out", str(tmp_path / "paths.csv")])
    assert code == 1
    assert "trace error paths=2 failed=1" in capsys.readouterr().out
    # one transport per endpoint, each closed once, the failed one too
    assert [t.exits for t in StubRawTransport.instances] == [1, 1, 1]


def _raw_trace(tmp_path, capsys, monkeypatch, transport_class, addresses):
    """``trace`` over a raw cohort of ``addresses`` on ``transport_class``:
    its exit code, captured output and the rows of ``paths.csv``."""
    cohort = tmp_path / "cohort.csv"
    cohort.write_text("address,pop_code\n" + "".join(f"{a},sttlwax1\n" for a in addresses))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"transport": "raw", "output_dir": str(tmp_path / "s"),
                                    "endpoints_file": str(cohort), "concurrency": 2}))
    monkeypatch.setattr(StubRawTransport, "instances", [])
    monkeypatch.setattr(rawnet, "RawTransport", transport_class)
    out = tmp_path / "paths.csv"
    code = cli.main(["trace", "--config", str(cfg_path), "--out", str(out)])
    return code, capsys.readouterr(), read_report_csv(out)[2] if out.exists() else None


class NoSocketRawTransport(StubRawTransport):
    def probe(self, target, ttl, **kwargs):
        raise rawnet.TransportUnavailableError("raw ICMP socket needs root or CAP_NET_RAW")


class UnreachableRawTransport(StubRawTransport):
    UNREACHABLE = "100.64.9.2"

    def probe(self, target, ttl, **kwargs):
        if target == self.UNREACHABLE:
            raise OSError("Network is unreachable")
        return super().probe(target, ttl, **kwargs)


def test_trace_without_raw_sockets_fails_each_endpoint(tmp_path, capsys, monkeypatch):
    addresses = ["100.64.9.1", "100.64.9.2"]
    code, captured, rows = _raw_trace(tmp_path, capsys, monkeypatch,
                                      NoSocketRawTransport, addresses)
    assert code == 1
    assert captured.out.startswith("trace error paths=0 failed=2 ")
    assert captured.err.splitlines() == [
        f"trace error stage=transport endpoint={a} msg=raw ICMP socket needs root "
        "or CAP_NET_RAW" for a in addresses]
    assert rows == []
    assert [t.exits for t in StubRawTransport.instances] == [1, 1]


def test_trace_survives_an_unreachable_endpoint(tmp_path, capsys, monkeypatch):
    code, captured, rows = _raw_trace(tmp_path, capsys, monkeypatch, UnreachableRawTransport,
                                      ["100.64.9.1", "100.64.9.2", "100.64.9.3"])
    assert code == 1
    assert captured.out.startswith("trace error paths=2 failed=1 ")
    assert captured.err.splitlines() == [
        "trace error stage=transport endpoint=100.64.9.2 msg=Network is unreachable"]
    assert [r[0] for r in rows] == ["100.64.9.1", "100.64.9.3"]


def test_trace_writes_one_row_per_address(tmp_path, capsys, monkeypatch):
    code, captured, rows = _raw_trace(tmp_path, capsys, monkeypatch, StubRawTransport,
                                      ["100.64.9.1", "100.64.9.2", "100.64.9.1"])
    assert code == 1
    assert captured.out.startswith("trace error paths=2 failed=1 ")
    assert captured.err.splitlines() == [
        "trace error stage=store endpoint=100.64.9.1 msg=listed more than once in the cohort"]
    assert [r[0] for r in rows] == ["100.64.9.1", "100.64.9.2"]


def test_trace_paths_do_not_depend_on_concurrency(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "run_simulated_campaign",
        Path(__file__).resolve().parent.parent / "scripts" / "run_simulated_campaign.py")
    campaign = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(campaign)
    scen_dir = tmp_path / "scenarios"
    scen_dir.mkdir()
    rng = random.Random(20260814)
    for i in range(12):
        (scen_dir / f"endpoint_{i:02d}.json").write_text(
            json.dumps(campaign.make_scenario(rng, i, 600)))
    tables = {}
    for concurrency in (1, 8):
        cfg_path = tmp_path / f"cfg{concurrency}.json"
        cfg_path.write_text(json.dumps({"transport": "simnet", "output_dir": "unused",
                                        "scenario_dir": str(scen_dir),
                                        "concurrency": concurrency}))
        out = tmp_path / f"paths{concurrency}.csv"
        assert cli.main(["trace", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("trace ok paths=12 failed=0 ")
        # the provenance line holds the config hash, which leaves concurrency out
        provenance = out.read_bytes().split(b"\n", 1)[0]
        assert provenance == f"# config_hash={CampaignConfig.from_json(cfg_path).config_hash()}".encode()
        tables[concurrency] = out.read_bytes()
    assert tables[1] == tables[8]


def test_readme_transports_are_accepted(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    named = re.search(r"`transport` \(([^)]*)\)", readme)
    assert named, "README no longer lists the campaign transports"
    values = re.findall(r'"([^"]+)"', named.group(1))
    assert sorted(values) == sorted(TRANSPORTS)
    for value in values:
        CampaignConfig(transport=value, output_dir=str(tmp_path / "s"),
                       scenario_dir=str(tmp_path), endpoints_file=str(tmp_path / "c.csv"))


def test_measure_reports_duplicate_address_as_store_error(tmp_path, capsys, monkeypatch):
    cohort = tmp_path / "cohort.csv"
    cohort.write_text("address,pop_code\n100.64.9.1,sttlwax1\n100.64.9.1,sttlwax1\n")
    store_dir = tmp_path / "s"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"transport": "raw", "output_dir": str(store_dir),
                                    "endpoints_file": str(cohort), "duration_s": 5,
                                    "concurrency": 2}))
    monkeypatch.setattr(rawnet, "RawTransport", StubRawTransport)
    code = cli.main(["measure", "--config", str(cfg_path), "--partition", "p"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.startswith("measure error sessions=1 failed=1 ")
    assert len(MeasurementStore(store_dir).sessions("p")) == 1
    assert captured.err.count("stage=store") == 1
    assert "measure error stage=store endpoint=100.64.9.1 " in captured.err
    assert "Traceback" not in captured.err


def test_measure_reports_store_write_error_per_endpoint(tmp_path, capsys, monkeypatch):
    def refuse(self, partition, session, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(MeasurementStore, "write_session", refuse)
    cfg = make_config(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "transport": "simnet", "output_dir": cfg.output_dir,
        "scenario_dir": cfg.scenario_dir, "duration_s": 120}))
    assert cli.main(["measure", "--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("measure error sessions=0 failed=1 ")
    assert "measure error stage=store endpoint=100.64.9.1 msg=disk full" in captured.err


def test_simulate_names_itself_in_endpoint_errors(tmp_path, capsys, monkeypatch):
    def refuse(self, partition, session, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(MeasurementStore, "write_session", refuse)
    cfg = make_config(tmp_path)
    assert cli.main(["simulate", "--scenarios", cfg.scenario_dir, "--out", cfg.output_dir,
                     "--duration", "120"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("simulate error sessions=0 failed=1 ")
    assert captured.err.splitlines() == [
        "simulate error stage=store endpoint=100.64.9.1 msg=disk full"]


def test_measure_reports_a_repeated_address_before_probing(tmp_path, capsys, monkeypatch):
    silent = StubRawTransport.SILENT
    cohort = tmp_path / "cohort.csv"
    cohort.write_text(f"address,pop_code\n{silent},sttlwax1\n100.64.9.1,sttlwax1\n"
                      f"{silent},sttlwax1\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"transport": "raw", "output_dir": str(tmp_path / "s"),
                                    "endpoints_file": str(cohort), "duration_s": 5}))
    monkeypatch.setattr(rawnet, "RawTransport", StubRawTransport)
    assert cli.main(["measure", "--config", str(cfg_path), "--partition", "p"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("measure error sessions=1 failed=2 ")
    lines = captured.err.splitlines()
    assert len(lines) == 2
    assert lines[0] == (f"measure error stage=store endpoint={silent} "
                        "msg=listed more than once in the cohort")
    assert lines[1].startswith(f"measure error stage=probe endpoint={silent} ")


# ------------------------------------------------------------ bad user files

def _single_config_error(capsys, command, *parts):
    """The one stderr line of a ``stage=config`` exit, checked for ``parts``."""
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith(f"{command} error stage=config msg="), line
    for part in parts:
        assert part in line, line
    return captured


@pytest.mark.parametrize("cohort_text,where", [
    ("address,pop_code,cust_lat,cust_lon\n100.64.9.1,sttlwax1,47.6,-122.3\n"
     "100.64.9.2,sttlwax1,abc,-122.3\n", "line 3: could not convert string to float"),
    ("addr,pop_code\n100.64.9.1,sttlwax1\n", "line 1: no address column"),
    ("address,pop_code,cust_lat,cust_lon\n100.64.9.1,sttlwax1,500.0,-122.3\n",
     "line 2: customer_location: expected [latitude, longitude] or null, got (500.0, -122.3)"),
    ("address,pop_code,cust_lat,cust_lon\n100.64.9.1,sttlwax1,47.6,-722.3\n",
     "line 2: customer_location: expected [latitude, longitude] or null, got (47.6, -722.3)"),
], ids=["bad_value", "missing_column", "latitude_off_earth", "longitude_off_earth"])
@pytest.mark.parametrize("command", ["trace", "measure"])
def test_bad_cohort_csv_is_a_config_error(tmp_path, capsys, monkeypatch, command,
                                          cohort_text, where):
    cohort = tmp_path / "cohort.csv"
    cohort.write_text(cohort_text)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"transport": "raw", "output_dir": str(tmp_path / "s"),
                                    "endpoints_file": str(cohort)}))
    monkeypatch.setattr(StubRawTransport, "instances", [])
    monkeypatch.setattr(rawnet, "RawTransport", StubRawTransport)
    extra = {"trace": ["--out", str(tmp_path / "paths.csv")], "measure": []}[command]
    assert cli.main([command, "--config", str(cfg_path), *extra]) == 2
    _single_config_error(capsys, command, f"{cohort} {where}")
    assert StubRawTransport.instances == []
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("catalog_text,where", [
    ("pop_code,city,country,latitude,longitude\nsttlwax1,Seattle,US,47.6,-122.3\n"
     "lgosnga1,Lagos,NG,north,3.4\n", "line 3: could not convert string to float"),
    ("pop_code,city,country,lat,lon\nsttlwax1,Seattle,US,47.6,-122.3\n",
     "line 1: missing columns ['latitude', 'longitude']"),
    ("pop_code,city,country,latitude,longitude\nsttlwax1,Seattle,US,47.6,-122.3\n"
     "lgosnga1,Lagos,NG,6.5,-722.3\n",
     "line 3: longitude: expected a longitude within [-180, 180], got -722.3"),
], ids=["bad_value", "missing_column", "longitude_off_earth"])
@pytest.mark.parametrize("command", ["discover", "report"])
def test_bad_pop_catalog_is_a_config_error(tmp_path, capsys, command, catalog_text, where):
    catalog = tmp_path / "catalog.csv"
    catalog.write_text(catalog_text)
    store = MeasurementStore(tmp_path / "store")
    store.write_session(store.new_partition("p"), small_session(), config_hash="x")
    argv = {"discover": ["--scan", str(FIXTURES / "scan_small.jsonl"),
                         "--out", str(tmp_path / "cohort.csv")],
            "report": ["--store", str(store.root)]}[command]
    assert cli.main([command, *argv, "--pop-catalog", str(catalog)]) == 2
    _single_config_error(capsys, command, f"{catalog} {where}")
    assert not (tmp_path / "cohort.csv").exists()
    assert not (store.root / "reports").exists()


def _misspelt(path: tuple, key: str, value):
    """The base scenario with ``key`` added to the object at ``path``."""
    obj = scenario_dict(events=[{"at_s": 15, "kind": "isl_reroute", "delta_ms": 30.0,
                                 "duration_s": 15}],
                        endpoint={"pop_code": "sttlwax1"})
    target = obj
    for step in path:
        target = target[step]
    target[key] = value
    return obj


@pytest.mark.parametrize("text,where", [
    ("{not json", "Expecting property name enclosed in double quotes"),
    (json.dumps(scenario_dict(base_latencies_ms=["a", 1, 2])),
     "base_latencies_ms[0]: expected a finite number, got 'a'"),
    (json.dumps(scenario_dict(base_latencies_ms=[1, float("nan"), 2])),
     "base_latencies_ms[1]: expected a finite number, got nan"),
    (json.dumps(scenario_dict(events=[5])), "events[0]: expected an object, got 5"),
    (json.dumps(_misspelt(("hops", 2), "ecoh", True)), "hops[2]: unknown fields ['ecoh']"),
    (json.dumps(_misspelt(("events", 0), "delta_sm", 20.0)),
     "events[0]: unknown fields ['delta_sm']"),
    (json.dumps(_misspelt(("jitter",), "sigma", 0.5)), "jitter: unknown fields ['sigma']"),
    (json.dumps(_misspelt(("endpoint",), "lattitude", 47.6)),
     "endpoint: unknown fields ['lattitude']"),
    (json.dumps(_misspelt((), "loss_probabilty", 0.1)), "unknown fields ['loss_probabilty']"),
    (json.dumps(_misspelt((), "hop_flap", {"every_s": 25, "duration": 1})),
     "hop_flap: unknown fields ['duration']"),
    (json.dumps(scenario_dict(endpoint={"latitude": 500.0, "longitude": -722.3})),
     "endpoint.latitude: expected a latitude within [-90, 90], got 500.0"),
    (json.dumps(scenario_dict(endpoint={"latitude": 47.6, "longitude": -722.3})),
     "endpoint.longitude: expected a longitude within [-180, 180], got -722.3"),
], ids=["not_json", "latency_not_a_number", "latency_nan", "event_not_an_object",
        "misspelt_hop_echo", "misspelt_event_delta", "misspelt_jitter_sigma",
        "misspelt_endpoint_latitude", "misspelt_loss_probability", "misspelt_hop_flap_duration",
        "endpoint_latitude_off_earth", "endpoint_longitude_off_earth"])
def test_bad_scenario_file_is_a_config_error(tmp_path, capsys, text, where):
    scenario = tmp_path / "scenarios" / "bad.json"
    scenario.parent.mkdir()
    scenario.write_text(text)
    assert cli.main(["simulate", "--scenarios", str(scenario.parent),
                     "--out", str(tmp_path / "s")]) == 2
    _single_config_error(capsys, "simulate", f"{scenario}: {where}")
    assert not (tmp_path / "s").exists()


def _simnet_config(tmp_path, **fields):
    """A measure config over the bundled relay_split scenario, with ``fields`` set."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"transport": "simnet", "output_dir": str(tmp_path / "s"),
                                    "scenario_dir": str(SCENARIOS / "relay_split"), **fields}))
    return cfg_path


@pytest.mark.parametrize("field,value,wanted", [
    ("cadence_hz", 1.5, "an integer"),
    ("duration_s", 61.9, "an integer"),
    ("max_ttl", "8", "an integer"),
    ("duration_s", float("nan"), "an integer"),
    ("concurrency", True, "an integer"),
    ("timeout_s", "2", "a finite number"),
    ("jump_threshold_ms", float("inf"), "a finite number"),
    ("output_dir", 5, "a string"),
    ("partition_label", 7, "a string"),
    ("protocol", None, "a string"),
    ("scenario_dir", ["a"], "a string or null"),
    ("transport", None, "a string"),
], ids=["cadence_float", "duration_float", "max_ttl_string", "duration_nan",
        "concurrency_bool", "timeout_string", "jump_inf", "output_dir_number",
        "partition_label_number", "protocol_null", "scenario_dir_list", "transport_null"])
def test_config_field_of_the_wrong_type_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                         field, value, wanted):
    opened = []
    monkeypatch.setattr(cli, "SimnetTransport", lambda *args, **kwargs: opened.append(args))
    cfg_path = _simnet_config(tmp_path, **{field: value})
    assert cli.main(["measure", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"measure error stage=config msg={cfg_path}: {field}: expected {wanted}, got {value!r}"]
    assert opened == []
    assert not (tmp_path / "s").exists()


def test_config_values_are_not_coerced(tmp_path):
    cfg = CampaignConfig.from_json(_simnet_config(tmp_path, timeout_s=2, jump_threshold_ms=12))
    assert (type(cfg.timeout_s), type(cfg.jump_threshold_ms)) == (int, int)


@pytest.mark.parametrize("mutate,where", [
    (lambda o: o["endpoint"].update(latitude="north"),
     "endpoint.latitude: expected a finite number, got 'north'"),
    (lambda o: o["endpoint"].update(pop_code=None), "endpoint.pop_code: expected a string, got None"),
    (lambda o: o.update(endpoint=["lgosnga1"]), "endpoint: expected an object, got ['lgosnga1']"),
    (lambda o: o["hops"][0].update(echo="false"), "hops[0].echo: expected true or false, got 'false'"),
    (lambda o: o["hops"][2].update(ttl_expired=1), "hops[2].ttl_expired: expected true or false, got 1"),
    (lambda o: o["hops"][1].update(label=2), "hops[1].label: expected a string, got 2"),
    (lambda o: o["hops"][1].pop("address"), "hops[1].address: expected a string, got None"),
    (lambda o: o.update(seed="8"), "seed: expected an integer, got '8'"),
    (lambda o: o.update(duration_s=61.9), "duration_s: expected an integer, got 61.9"),
    (lambda o: o.update(satellite_segment=[2.0, 3]), "satellite_segment[0]: expected an integer"),
    (lambda o: o.update(hop_flap={"every_s": 25.5, "duration_s": 1}),
     "hop_flap.every_s: expected an integer, got 25.5"),
    (lambda o: o.update(hop_flap=[25, 1]), "hop_flap: expected an object, got [25, 1]"),
    (lambda o: o.update(events=[{"at_s": 15.0, "kind": "gs_switch", "delta_ms": 5.0,
                                 "duration_s": 30}]), "events[0].at_s: expected an integer"),
    (lambda o: o.update(events=[{"at_s": 15, "kind": "gs_switch", "delta_ms": "5",
                                 "duration_s": 30}]),
     "events[0].delta_ms: expected a finite number or null, got '5'"),
    (lambda o: o.update(jitter={"sigma_ms": True}), "jitter.sigma_ms: expected a finite number"),
    (lambda o: o.update(loss_probability=None), "loss_probability: expected a finite number"),
], ids=["endpoint_latitude", "endpoint_pop_code", "endpoint_list", "echo_string",
        "ttl_expired_number", "label_number", "address_missing", "seed_string",
        "duration_float", "segment_float", "flap_float", "flap_list", "event_at_float",
        "event_delta_string", "sigma_bool", "loss_null"])
def test_scenario_field_of_the_wrong_type_is_a_config_error(tmp_path, capsys, mutate, where):
    obj = scenario_dict(endpoint={"pop_code": "sttlwax1", "latitude": 47.6,
                                  "longitude": -122.3, "source": "starlink_ptr"})
    mutate(obj)
    scenario = tmp_path / "scenarios" / "bad.json"
    scenario.parent.mkdir()
    scenario.write_text(json.dumps(obj))
    assert cli.main(["simulate", "--scenarios", str(scenario.parent),
                     "--out", str(tmp_path / "s"), "--duration", "120"]) == 2
    captured = _single_config_error(capsys, "simulate", f"{scenario}: {where}")
    assert captured.out == ""
    assert not (tmp_path / "s").exists()


def _analyzed_reroute_day(tmp_path, field, value):
    """A reroute_day store analyzed by ``simulate``, then ``field`` of its
    meta.json set to ``value``; returns the store and the meta.json path."""
    store_dir = tmp_path / "store"
    assert cli.main(["simulate", "--scenarios", str(SCENARIOS / "reroute_day"),
                     "--out", str(store_dir), "--duration", "300", "--partition", "p"]) == 0
    assert (store_dir / "reports" / "sessions.csv").is_file()
    meta_path = store_dir / "p" / "98.97.48.115" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta[field] = value
    meta_path.write_text(json.dumps(meta))
    return store_dir, meta_path


@pytest.mark.parametrize("field,value,wanted", [
    ("customer_location", ["north", "west"], "[latitude, longitude] or null"),
    ("customer_location", [47.4, float("nan")], "[latitude, longitude] or null"),
    ("customer_location", [47.4], "[latitude, longitude] or null"),
    ("pop_code", 5, "a string"),
    ("source", ["x"], "a string"),
    ("address", None, "a string"),
    ("customer_location", [500.0, -722.3], "[latitude, longitude] or null"),
], ids=["location_strings", "location_nan", "location_short", "pop_code_number",
        "source_list", "address_null", "location_off_earth"])
def test_report_checks_the_endpoint_of_an_analyzed_session(tmp_path, capsys, field, value,
                                                           wanted):
    # report takes this session's statistics from analyze's tables, so only
    # the endpoint it builds from meta.json reads the bad field
    store_dir, meta_path = _analyzed_reroute_day(tmp_path, field, value)
    capsys.readouterr()
    assert cli.main(["report", "--store", str(store_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"report error stage=analysis endpoint=98.97.48.115 "
        f"msg={meta_path}: {field}: expected {wanted}, got {value!r}"]
    assert captured.out.startswith("report error no-sessions")


@pytest.mark.parametrize("cohort_text,where", [
    ("address,pop_code,cust_lat,cust_lon\n100.64.9.1,sttlwax1,nan,-122.3\n",
     "line 2: customer_location: expected [latitude, longitude] or null, got (nan, -122.3)"),
    ("address,pop_code,cust_lat,cust_lon\n100.64.9.1,sttlwax1,47.6,inf\n",
     "line 2: customer_location: expected [latitude, longitude] or null, got (47.6, inf)"),
    ("address,pop_code\n100.64.9.1,sttlwax1\n100.64.9.2\n",
     "line 3: pop_code: expected a string, got None"),
], ids=["latitude_nan", "longitude_inf", "short_row"])
def test_cohort_row_is_checked_by_the_endpoint_builder(tmp_path, capsys, monkeypatch,
                                                       cohort_text, where):
    cohort = tmp_path / "cohort.csv"
    cohort.write_text(cohort_text)
    monkeypatch.setattr(StubRawTransport, "instances", [])
    monkeypatch.setattr(rawnet, "RawTransport", StubRawTransport)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"transport": "raw", "output_dir": str(tmp_path / "s"),
                                    "endpoints_file": str(cohort)}))
    assert cli.main(["measure", "--config", str(cfg_path)]) == 2
    _single_config_error(capsys, "measure", f"{cohort} {where}")
    assert StubRawTransport.instances == []
    assert not (tmp_path / "s").exists()


def _bad_config_run(tmp_path):
    # at file descriptor 0 the exclusion list would be read from stdin
    return ["measure", "--config", str(_simnet_config(tmp_path, exclude_file=0))], 2, (
        "measure error stage=config msg=", ": exclude_file: expected a string or null, got 0")


def _bad_scenario_run(tmp_path):
    obj = json.loads((SCENARIOS / "reroute_day" / "seattle_reroute_day.json").read_text())
    obj["endpoint"]["latitude"] = "north"
    scenario = tmp_path / "scenarios" / "bad.json"
    scenario.parent.mkdir()
    scenario.write_text(json.dumps(obj))
    return ["simulate", "--scenarios", str(scenario.parent), "--out", str(tmp_path / "s")], 2, (
        f"simulate error stage=config msg={scenario}: ",
        "endpoint.latitude: expected a finite number, got 'north'")


def _off_earth_scenario_run(tmp_path):
    obj = json.loads((SCENARIOS / "reroute_day" / "seattle_reroute_day.json").read_text())
    obj["endpoint"]["latitude"] = 500.0
    scenario = tmp_path / "scenarios" / "bad.json"
    scenario.parent.mkdir()
    scenario.write_text(json.dumps(obj))
    return ["simulate", "--scenarios", str(scenario.parent), "--out", str(tmp_path / "s")], 2, (
        f"simulate error stage=config msg={scenario}: ",
        "endpoint.latitude: expected a latitude within [-90, 90], got 500.0")


def _bad_meta_run(tmp_path):
    store_dir, meta_path = _analyzed_reroute_day(tmp_path, "customer_location", ["north", "west"])
    return ["report", "--store", str(store_dir)], 1, (
        f"report error stage=analysis endpoint=98.97.48.115 msg={meta_path}: ",
        "customer_location: expected [latitude, longitude] or null, got ['north', 'west']")


@pytest.mark.parametrize("bad_run", [_bad_config_run, _bad_scenario_run,
                                     _off_earth_scenario_run, _bad_meta_run],
                         ids=["config", "scenario", "scenario_off_earth", "meta_json"])
def test_bad_input_ends_in_one_stage_line_without_a_traceback(tmp_path, capsys, bad_run):
    argv, code, (head, tail) = bad_run(tmp_path)
    capsys.readouterr()
    done = _run_cli(*argv)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith(head) and line.endswith(tail), line


# ------------------------------------------------------------- dependencies

def _located_session(address, lat, lon, n=120):
    """A flat 25 ms session of a located customer of the Lagos POP."""
    path = SatLinkPath(target=address, pre_sat_ttl=2, pre_sat_router="10.0.0.2",
                       post_sat_ttl=3, jump_ms=25.0)
    endpoint = Endpoint(address=address, pop_code="lgosnga1", pop_location=None,
                        customer_location=(lat, lon))
    sent_ms = np.arange(n, dtype=np.int64) * 1000
    return MeasurementSession(endpoint=endpoint, path=path, start_ms=0, duration_s=n,
                              cadence_hz=1, terrestrial_sent_ms=sent_ms,
                              terrestrial_rtt_us=np.full(n, 10_000.0),
                              endpoint_sent_ms=sent_ms,
                              endpoint_rtt_us=np.full(n, 35_000.0))


def _run_cli(*argv):
    """``python -m leolink.cli`` in a fresh interpreter, warnings shown as by default."""
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONWARNINGS": "default"}
    return subprocess.run([sys.executable, "-m", "leolink.cli", *argv], env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=120)


def test_constant_min_rtt_gives_nan_rho_without_warnings(tmp_path):
    store = MeasurementStore(tmp_path / "store")
    part = store.new_partition("2026-08-01")
    for i, (lat, lon) in enumerate([(6.5, 3.4), (7.4, 3.9), (9.1, 7.5)]):
        store.write_session(part, _located_session(f"100.64.9.{i + 1}", lat, lon),
                            config_hash="x")
    done = _run_cli("report", "--store", str(store.root))
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    summary = (store.root / "reports" / "summary.txt").read_text()
    assert "spearman(min RTT, POP distance) = nan over 3 endpoints" in summary


def test_no_leolink_module_imports_scipy():
    src = Path(cli.__file__).resolve().parent.parent
    code = ("import importlib, pkgutil, sys, leolink\n"
            "for m in pkgutil.walk_packages(leolink.__path__, 'leolink.'):\n"
            "    importlib.import_module(m.name)\n"
            "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))\n")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
