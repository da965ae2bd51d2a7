import contextlib
import csv
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leolink import cli, discovery, rawnet
from leolink import store as store_module
from leolink.discovery import Endpoint
from leolink.geo import haversine_km
from leolink.probe import MeasurementSession, SatLinkPath, probe_each_tick
from leolink.simnet import SimnetTransport, build_scenario
from leolink.store import (
    TRANSPORTS,
    CampaignConfig,
    ConfigError,
    MeasurementStore,
    SessionMeta,
    StoreError,
    params_hash,
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
    endpoint = Endpoint(address=address, pop_code="sttlwax1")
    sent_ms = np.arange(n, dtype=np.int64) * 1000
    endpoint_rtt_us = np.full(n, 35_000.0)
    endpoint_rtt_us[2] = np.nan
    return MeasurementSession(endpoint=endpoint, path=path, start_ms=0,
                              duration_s=n, cadence_hz=1, sent_ms=[sent_ms, sent_ms],
                              rtt_us=[np.full(n, 10_000.0), endpoint_rtt_us])


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
    # a partition is one plain directory under the root, other than the
    # tables' reports/, in a fresh store too
    for label in ("", ".", "..", "a\0b", "reports"):
        with pytest.raises(StoreError, match="bad partition name"):
            store.new_partition(label)
        with pytest.raises(StoreError, match="bad partition name"):
            MeasurementStore(tmp_path / "fresh").new_partition(label)
    for partition in ("", ".", "..", "../other/p", "a\0b", "reports"):
        with pytest.raises(StoreError, match="bad partition name"):
            store.sessions(partition)
    store.reports.mkdir()
    assert store.reports == store.root / "reports"
    assert store.partitions() == ["2026-08-14", "2026-08-14.1", "2026-08-14.2"]
    assert not (tmp_path / "fresh").exists()


def test_session_roundtrip(tmp_path):
    store = MeasurementStore(tmp_path / "store")
    part = store.new_partition("p")
    session = small_session()
    session = replace(session, endpoint=replace(session.endpoint,
                                                customer_location=(47.6062, -122.3321)))
    store.write_session(part, session, config_hash="cafe0123beef", transport="simnet")
    records = store.sessions()
    assert len(records) == 1
    rec = records[0]
    assert rec.address == "100.64.9.1"
    assert rec.partition == "p"
    loaded = store.read_session(rec)
    for name in ("sent_ms", "rtt_us"):
        assert np.array_equal(getattr(loaded, name), getattr(session, name), equal_nan=True)
        assert getattr(loaded, name).dtype == getattr(session, name).dtype
    assert loaded.path == session.path
    assert loaded.endpoint.pop_code == "sttlwax1"
    assert loaded.endpoint == session.endpoint  # a plain Endpoint, its location a tuple
    assert loaded.duration_s == 5 and loaded.cadence_hz == 1


def test_session_meta_fields(tmp_path):
    store = MeasurementStore(tmp_path / "store")
    part = store.new_partition("p")
    store.write_session(part, small_session(), config_hash="cafe0123beef")
    meta_path = next((store.root / "p").glob("*/meta.json"))
    meta = json.loads(meta_path.read_text())
    assert meta["schema_version"] == 2
    assert meta["config_hash"] == "cafe0123beef"
    assert meta["address"] == "100.64.9.1"
    assert meta["pre_sat_ttl"] == 2 and meta["post_sat_ttl"] == 3
    assert meta["duration_s"] == 5 and meta["cadence_hz"] == 1
    assert "n_terrestrial" not in meta and "n_endpoint" not in meta
    assert meta["terrestrial_loss_fraction"] == 0.0


def test_session_csv_columns_and_order(tmp_path):
    store = MeasurementStore(tmp_path / "store")
    part = store.new_partition("p")
    store.write_session(part, small_session(), config_hash="x")
    csv_path = next((store.root / "p").glob("*/session.csv"))
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["terrestrial_sent_ms", "terrestrial_rtt_us",
                       "endpoint_sent_ms", "endpoint_rtt_us"]
    # one row per tick, in tick order; a lost probe's RTT is nan
    assert rows[1:] == [[str(1000 * k), "10000.0", str(1000 * k), "nan" if k == 2 else "35000.0"]
                        for k in range(5)]


def test_store_is_append_only(tmp_path):
    store = MeasurementStore(tmp_path / "store")
    part = store.new_partition("p")
    store.write_session(part, small_session(), config_hash="x")
    with pytest.raises(StoreError, match="exists"):
        store.write_session(part, small_session(), config_hash="x")


@pytest.mark.parametrize("kept", [slice(1, None), slice(None, -1), slice(0, 0)],
                         ids=["first_tick_dropped", "last_tick_dropped", "header_only"])
def test_read_session_refuses_ticks_off_the_schedule(tmp_path, recwarn, kept):
    store = MeasurementStore(tmp_path / "store")
    store.write_session(store.new_partition("p"), small_session(), config_hash="x")
    csv_path = next((store.root / "p").glob("*/session.csv"))
    lines = csv_path.read_bytes().splitlines(keepends=True)
    csv_path.write_bytes(b"".join(lines[:1] + lines[1:][kept]))
    ticks = len(lines[1:][kept])
    with pytest.raises(StoreError, match=f"session.csv: {ticks} ticks, but 5 s at 1 Hz is 5$"):
        store.read_session(store.sessions()[0])
    assert not recwarn.list


@pytest.mark.parametrize("bad_row", [b"0,10000.0,0", b"0,fast,0,35000.0",
                                     b"0.5,10000.0,0,35000.0"],
                         ids=["too_few_columns", "rtt_not_a_number", "sent_ms_not_an_integer"])
def test_read_session_rejects_malformed_rows(tmp_path, bad_row):
    store = MeasurementStore(tmp_path / "store")
    store.write_session(store.new_partition("p"), small_session(), config_hash="x")
    csv_path = next((store.root / "p").glob("*/session.csv"))
    lines = csv_path.read_bytes().split(b"\r\n")
    csv_path.write_bytes(b"\r\n".join(lines[:1] + [bad_row] + lines[2:]))
    with pytest.raises(StoreError, match="line 2"):
        store.read_session(store.sessions()[0])


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
    assert store.read_session(store.sessions()[0]).rtt_us.shape == (2, 5)


def test_replaced_leaves_no_tmp_and_no_target_when_the_write_or_rename_fails(tmp_path,
                                                                             monkeypatch):
    target = tmp_path / "table.csv"
    with pytest.raises(OSError, match="disk full"):
        with store_module.replaced(target) as fh:
            fh.write("half a table")
            raise OSError("disk full")
    assert sorted(tmp_path.iterdir()) == []
    target.mkdir()  # a directory cannot be replaced by a file
    (target / "keep").write_text("")
    with pytest.raises(OSError):
        with store_module.replaced(target) as fh:
            fh.write("a whole table")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]
    # a write that is renamed into place leaves no tmp to remove
    unlinked = []
    monkeypatch.setattr(Path, "unlink", lambda path, **kwargs: unlinked.append(path))
    with store_module.replaced(tmp_path / "new.csv") as fh:
        fh.write("a whole table")
    assert (tmp_path / "new.csv").read_text() == "a whole table" and unlinked == []


def test_write_session_stores_the_greatest_exact_rtt(tmp_path):
    # 2**53 - 1 tenths, the greatest the file holds exactly, reads back
    session = replace(small_session(n=3),
                      rtt_us=[[10_000.0] * 3, [35_000.0, 900_719_925_474_099.1, np.nan]])
    store = MeasurementStore(tmp_path / "store")
    written = store.write_session(store.new_partition("p"), session, config_hash="x")
    assert b",900719925474099.1\r\n" in written.read_bytes()
    assert store.read_session(store.sessions()[0]).rtt_us[1, 1] == 900_719_925_474_099.1


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


def test_report_csv_is_written_whole_or_not_at_all(tmp_path):
    path = tmp_path / "sessions.csv"
    write_report_csv(path, ["a", "b"], [[1, "x"]], config_hash="beefbeefbeef")
    before = path.read_bytes()

    def rows():
        yield [2, "y"]
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        write_report_csv(path, ["a", "b"], rows(), config_hash="cafecafecafe")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["sessions.csv"]


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


def test_discover_writes_the_given_pop_catalog(tmp_path, capsys):
    default = (Path(cli.__file__).parent / "data" / "pop_catalog.csv").read_text()
    assert "sttlwax1,Seattle,Washington,47.6062,-122.3321\n" in default
    catalog = tmp_path / "catalog.csv"
    catalog.write_text(default.replace("sttlwax1,Seattle,Washington,47.6062,-122.3321",
                                       "sttlwax1,Tacoma,Washington,47.2529,-122.4443"))
    out = tmp_path / "cohort.csv"
    assert cli.main(["discover", "--scan", str(FIXTURES / "scan_small.jsonl"),
                     "--pop-catalog", str(catalog), "--out", str(out)]) == 0
    assert "kept=91" in capsys.readouterr().out
    with open(out, newline="") as fh:
        seattle = [r for r in csv.DictReader(fh) if r["pop_code"] == "sttlwax1"]
    assert seattle
    assert {(r["pop_city"], r["pop_lat"], r["pop_lon"]) for r in seattle} == {
        ("Tacoma", "47.2529", "-122.4443")}


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
        rows = list(csv.DictReader(fh))
    assert {r["address"] for r in rows} == {"185.118.1.1", "185.118.1.2"}
    # a OneWeb endpoint has no POP, so its pop_* columns stay blank
    assert {(r["pop_code"], r["pop_city"], r["pop_lat"], r["pop_lon"]) for r in rows} == {
        ("", "", "", "")}


def test_failed_discover_write_keeps_the_old_cohort(tmp_path, capsys, monkeypatch):
    out = tmp_path / "cohort.csv"
    out.write_bytes(b"address,pop_code\r\n100.64.9.1,sttlwax1\r\n")
    before = out.read_bytes()

    class FailingWriter:
        """Writes the header, then fails as a full disk would."""

        def __init__(self, fh, writer=csv.writer):
            self.writer, self.rows = writer(fh), 0

        def writerow(self, row):
            if self.rows == 1:
                raise OSError("No space left on device")
            self.rows += 1
            self.writer.writerow(row)

    monkeypatch.setattr(cli.csv, "writer", FailingWriter)
    assert cli.main(["discover", "--scan", str(FIXTURES / "scan_small.jsonl"),
                     "--out", str(out)]) == 2
    assert "discover error stage=io msg=No space left on device" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cohort.csv"]


def test_discover_missing_scan_is_exit_2(tmp_path, capsys):
    code = cli.main(["discover", "--scan", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "stage=parse" in capsys.readouterr().err


@pytest.mark.parametrize("scan, provider, summary, digest", [
    ("scan_fixture", "starlink", "records=2051 malformed=0 candidates=1790 pep_removed=161 "
     "kept=1629 unknown_pop=0 ambiguous=0",
     "1d1deff32db7bd66a4b2b0df95080ac3e22a999fdfd52b960e3d10326d55af8a"),
    ("scan_fixture", "oneweb", "records=2051 malformed=0 candidates=1951 pep_removed=0 "
     "kept=1951 unclassifiable=100",
     "e4c285fbb0a9e36c02817584c23a6d603738a0a5d9dba2de82b62b30548a8506"),
    ("scan_small", "starlink", "records=100 malformed=0 candidates=100 pep_removed=9 "
     "kept=91 unknown_pop=0 ambiguous=0",
     "1addced9314e26d81f9e8dc9467faba7cbfc35c41c8fdee9e259ca5d9b843438"),
    ("scan_small", "oneweb", "records=100 malformed=0 candidates=100 pep_removed=0 "
     "kept=100 unclassifiable=0",
     "ccd7bd7c508c0de2d3773bd610833b3276280ba81f1b024bf97fe5041bbdb04f"),
    ("oneweb_scan", "starlink", "records=6 malformed=0 candidates=0 pep_removed=0 "
     "kept=0 unknown_pop=0 ambiguous=0",
     "1f0fe514c1371a17f0c0b878c1aaf19060ecc75964aa0cec5d9856d9e0d436b6"),
    ("oneweb_scan", "oneweb", "records=6 malformed=0 candidates=2 pep_removed=0 "
     "kept=2 unclassifiable=1",
     "f247e6df49fb7e8a584d7e4a808395808190444ab9a4220f487c1f0a23e5f61f"),
])
def test_discovered_cohorts_are_pinned(tmp_path, capsys, monkeypatch, scan, provider,
                                       summary, digest):
    # The cohort file and the summary line of each bundled scan under each
    # provider, with the bundled geofeed: a change to the scan reader, the
    # funnel or the cohort writer that moves what discover selects fails here.
    monkeypatch.chdir(tmp_path)
    assert cli.main(["discover", "--provider", provider, "--scan", str(FIXTURES / f"{scan}.jsonl"),
                     "--geofeed", str(FIXTURES / "geofeed.csv"), "--out", "cohort.csv"]) == 0
    assert capsys.readouterr().out == f"discover ok {summary} out=cohort.csv\n"
    assert hashlib.sha256((tmp_path / "cohort.csv").read_bytes()).hexdigest() == digest


def test_discover_says_why_each_row_is_malformed(tmp_path, capsys):
    scan = tmp_path / "scan.jsonl"
    scan.write_text('{"address": "98.97.0.1"}\n[1, 2]\n{"address": "98.97.0.2", "asn": "x"}\n')
    assert cli.main(["discover", "--scan", str(scan), "--out", str(tmp_path / "c.csv")]) == 0
    out, err = capsys.readouterr()
    assert "malformed=2" in out
    assert err.splitlines() == [
        "discover error stage=parse msg=row 2: record: expected an object, got [1, 2]",
        "discover error stage=parse msg=row 3: asn: expected an integer, got 'x'"]


def test_discover_prints_at_most_the_kept_messages(tmp_path, capsys):
    scan = tmp_path / "scan.jsonl"
    scan.write_text('{"address": "98.97.0.1"}\n' + "[]\n" * (discovery.MAX_KEPT_ERRORS + 5))
    assert cli.main(["discover", "--scan", str(scan), "--out", str(tmp_path / "c.csv")]) == 0
    out, err = capsys.readouterr()
    assert f"malformed={discovery.MAX_KEPT_ERRORS + 5}" in out
    assert len(err.splitlines()) == discovery.MAX_KEPT_ERRORS


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


def test_simulate_analyzes_a_sixty_second_session(tmp_path, capsys):
    # 60 ticks at 1 Hz last 60 s: the last sample's tick counts toward the
    # 60 s a baseline needs, though the samples span only 59 s
    code = cli.main(["simulate", "--scenarios", str(SCENARIOS / "relay_split"),
                     "--out", str(tmp_path / "store"), "--duration", "60"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out.startswith("simulate ok sessions=1 failed=0 ")


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


def _scenario_at(address, **changes):
    """The reroute_day scenario with its customer at ``address`` and ``changes`` applied."""
    obj = json.loads((SCENARIOS / "reroute_day" / "seattle_reroute_day.json").read_text())
    obj["hops"][-1]["address"] = address
    obj.update(changes)
    return obj


def test_simulate_analyzes_each_session_once_and_as_analyze_would(tmp_path, capsys,
                                                                   monkeypatch):
    # Files in the opposite order of their addresses: two sessions whose
    # terrestrial hop flaps (stored, then refused by the analysis), one
    # clean session and one endpoint whose trace finds no satellite jump.
    flap = {"hop_flap": {"every_s": 25, "duration_s": 1}, "events": []}
    no_jump = {"base_latencies_ms": [0.8, 3.2, 1.5, 2.0],
               "jitter": {"dist": "gaussian", "sigma_ms": 0.5, "satellite_sigma_ms": 0.5}}
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    for name, obj in (("a", _scenario_at("98.97.48.117", **flap)),
                      ("b", _scenario_at("98.97.48.116", **flap)),
                      ("c", _scenario_at("98.97.48.115")),
                      ("d", _scenario_at("98.97.48.100", **no_jump))):
        (scenarios / f"{name}.json").write_text(json.dumps(obj))
    reads = []
    read_session = MeasurementStore.read_session
    monkeypatch.setattr(MeasurementStore, "read_session",
                        lambda self, record: reads.append(record) or read_session(self, record))
    store_dir = tmp_path / "store"
    code = cli.main(["simulate", "--scenarios", str(scenarios), "--out", str(store_dir),
                     "--duration", "600", "--partition", "p"])
    captured = capsys.readouterr()
    assert code == 1
    assert reads == []
    assert captured.out.startswith("simulate error sessions=3 failed=1 excluded=0 partition=p ")
    probe_line, *analysis_lines = captured.err.splitlines()
    assert probe_line.startswith("simulate error stage=probe endpoint=98.97.48.100 ")
    assert [line.split(" msg=")[0] for line in analysis_lines] == [
        f"simulate error stage=analysis endpoint=98.97.48.{n}" for n in (116, 117)]
    for n, line in zip((116, 117), analysis_lines):
        assert line.split(" msg=")[1].startswith(f"98.97.48.{n}: terrestrial loss ")
    assert len(MeasurementStore(store_dir).sessions("p")) == 3

    tables = {name: (store_dir / "reports" / name).read_bytes()
              for name in ("sessions.csv", "spikes.csv")}
    assert tables["sessions.csv"].count(b"\n") == 3  # the hash comment, header and one row
    assert cli.main(["analyze", "--store", str(store_dir)]) == 1
    assert len(reads) == 3
    assert capsys.readouterr().err.splitlines() == [
        line.replace("simulate", "analyze", 1) for line in analysis_lines]
    for name, simulated in tables.items():
        assert (store_dir / "reports" / name).read_bytes() == simulated, name


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
    assert captured.err.splitlines() == [
        f"analyze error stage=analysis endpoint=176.83.201.7 "
        f"msg={csv_path}: 299 ticks, but 300 s at 1 Hz is 300"]


def test_unpaired_ticks_fail_the_session(tmp_path, capsys):
    # Tick 3's two send times swapped: the tick count is right, but its
    # endpoint probe would leave before its terrestrial probe.
    store_dir = tmp_path / "store"
    assert cli.main(["simulate", "--scenarios", str(SCENARIOS / "relay_split"),
                     "--out", str(store_dir), "--duration", "300",
                     "--partition", "p"]) == 0
    csv_path = next((store_dir / "p").glob("*/session.csv"))
    lines = csv_path.read_bytes().split(b"\r\n")
    t_sent, t_rtt, e_sent, e_rtt = lines[4].split(b",")
    assert int(e_sent) > int(t_sent)
    lines[4] = b",".join([e_sent, t_rtt, t_sent, e_rtt])
    csv_path.write_bytes(b"\r\n".join(lines))
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


def test_analyze_fails_only_the_session_holding_an_rtt_that_is_not_a_measurement(tmp_path,
                                                                                  capsys):
    # Tick 3's endpoint RTT is inf and tick 5's terrestrial RTT negative.
    store_dir = _two_partition_store(tmp_path)
    csv_path = next((store_dir / "p2").glob("*/session.csv"))
    lines = csv_path.read_bytes().split(b"\r\n")
    for line_no, column, value in ((5, 3, b"inf"), (7, 1, b"-90000.0")):
        cells = lines[line_no - 1].split(b",")
        cells[column] = value
        lines[line_no - 1] = b",".join(cells)
    csv_path.write_bytes(b"\r\n".join(lines))
    store = MeasurementStore(store_dir)
    with pytest.raises(StoreError, match=re.escape(f"{csv_path}: the RTTs of tick 3, [")):
        store.read_session(store.sessions("p2")[0])
    capsys.readouterr()
    assert cli.main(["analyze", "--store", str(store_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("analyze error sessions=1 failed=1 ")
    [line] = captured.err.splitlines()
    assert line.startswith(f"analyze error stage=analysis endpoint=176.83.201.7 "
                           f"msg={csv_path}: the RTTs of tick 3, ")
    assert line.endswith(", inf], are not each nan (lost) or finite and positive")
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


@pytest.mark.parametrize("command,partition", [
    ("analyze", "p2"), ("report", "p1"), ("report", "p2")],
    ids=["analyze", "report_fresh", "report_from_tables"])
def test_unknown_meta_json_key_fails_only_its_session(tmp_path, capsys, command, partition):
    store_dir = _two_partition_store(tmp_path)
    meta_path = next((store_dir / partition).glob("*/meta.json"))
    meta = json.loads(meta_path.read_text())
    meta_path.write_text(json.dumps({**meta, "operator": "starlink"}))
    capsys.readouterr()
    assert cli.main([command, "--store", str(store_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith(f"{command} error sessions=1 failed=1 ")
    assert captured.err.splitlines() == [
        f"{command} error stage=analysis endpoint=176.83.201.7 "
        f"msg={meta_path}: unknown fields ['operator']"]


@pytest.mark.parametrize("command", ["analyze", "report"])
def test_version_1_meta_json_fails_only_its_session(tmp_path, capsys, command):
    # Version 1 stored one session.csv row per probe and counted each hop's
    # rows in meta.json; no reader for it is kept.
    store_dir = _two_partition_store(tmp_path)
    meta_path = next((store_dir / "p2").glob("*/meta.json"))
    meta = json.loads(meta_path.read_text())
    meta_path.write_text(json.dumps({**meta, "schema_version": 1,
                                     "n_terrestrial": 300, "n_endpoint": 300}))
    capsys.readouterr()
    assert cli.main([command, "--store", str(store_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith(f"{command} error sessions=1 failed=1 ")
    assert captured.err.splitlines() == [
        f"{command} error stage=analysis endpoint=176.83.201.7 "
        f"msg={meta_path}: schema_version: expected 2, got 1"]


WRONG_META_TYPE = pytest.mark.parametrize("field,value", [
    ("pre_sat_ttl", None), ("start_ms", [300]), ("customer_location", 5),
    ("duration_s", -120), ("cadence_hz", 0),  # integers outside CampaignConfig's ranges
    ("customer_location", [500.0, -722.3]),
], ids=["pre_sat_ttl_null", "start_ms_list", "customer_location_number",
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


@pytest.fixture(scope="module")
def three_session_store(tmp_path_factory):
    """A ``simulate`` store of three generated endpoints, 300 s each, in partition p."""
    root = tmp_path_factory.mktemp("three_sessions")
    scen_dir = _generated_scenarios(root / "scenarios", 3, seed=20261020, duration_s=300)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--scenarios", str(scen_dir), "--out", str(root / "store"),
                         "--duration", "300", "--partition", "p"]) == 0
    return root / "store"


def _mutated_meta(draw, text: str) -> str:
    """``meta.json``'s ``text`` with one drawn mutation."""
    meta = json.loads(text)
    required = [f.name for f in dataclasses.fields(SessionMeta)
                if f.default is f.default_factory is dataclasses.MISSING]
    integers = [key for key, value in meta.items() if type(value) is int]
    kind = draw(st.sampled_from(["drop", "unknown", "string", "nan", "true", "truncate"]))
    if kind == "truncate":  # every prefix before the closing brace is not JSON
        return text[:draw(st.integers(0, text.rindex("}") - 1))]
    if kind == "drop":
        del meta[draw(st.sampled_from(required))]
    elif kind == "unknown":
        meta[draw(st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1).filter(
            lambda key: key not in meta))] = 1
    else:
        key = draw(st.sampled_from(list(meta) if kind == "nan" else integers))
        meta[key] = {"string": str(meta[key]), "nan": math.nan, "true": True}[kind]
    return json.dumps(meta, indent=2)


def _mutated_session_csv(draw, data: bytes) -> bytes:
    """``session.csv``'s ``data`` with one drawn mutation."""
    header, *rows = data.split(b"\r\n")[:-1]
    kind = draw(st.sampled_from(["truncate", "letter", "short", "swap", "not_utf8"]))
    if kind == "truncate":  # before the last cell: a short last row or too few ticks
        return data[:draw(st.integers(len(header) + 2, data.rindex(b",") - 1))]
    if kind == "not_utf8":
        at = draw(st.integers(0, len(data)))
        return data[:at] + b"\xff" + data[at:]
    i = draw(st.integers(0, len(rows) - 1))
    if kind == "swap":
        j = draw(st.integers(0, len(rows) - 1).filter(lambda j: j != i))
        rows[i], rows[j] = rows[j], rows[i]
    elif kind == "short":
        rows[i] = rows[i].rsplit(b",", 1)[0]
    else:  # no cell spells a number with an x in it
        at = draw(st.integers(0, len(rows[i]) - 1).filter(lambda at: rows[i][at:at + 1] != b","))
        rows[i] = rows[i][:at] + b"x" + rows[i][at + 1:]
    return b"\r\n".join([header, *rows, b""])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_mutated_store_file_fails_only_its_session(three_session_store, data):
    # One drawn mutation of one session's meta.json or session.csv: analyze
    # names that file in the one line of that session and writes the others.
    with tempfile.TemporaryDirectory() as tmp:
        store_dir = Path(shutil.copytree(three_session_store, Path(tmp) / "store"))
        records = MeasurementStore(store_dir).sessions()
        record = data.draw(st.sampled_from(records))
        if data.draw(st.booleans(), label="meta.json"):
            path = record.path.parent / "meta.json"
            path.write_text(_mutated_meta(data.draw, path.read_text()))
        else:
            path = record.path
            path.write_bytes(_mutated_session_csv(data.draw, path.read_bytes()))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.main(["analyze", "--store", str(store_dir)]) == 1
        assert out.getvalue().startswith("analyze error sessions=2 failed=1 ")
        [line] = err.getvalue().splitlines()
        assert line.startswith(f"analyze error stage=analysis endpoint={record.address} "
                               f"msg={path}"), line
        _, _, rows = read_report_csv(store_dir / "reports" / "sessions.csv")
        assert [row[1] for row in rows] == [r.address for r in records if r != record]


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
    assert f"{command} error stage=config msg={exclude} line 2: 'not-a-network'" in err
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
    assert (f"{command} error stage=config msg={cohort} line 3: "
            f"address: expected an IP address, got 'host.example'") in err
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


@pytest.mark.parametrize("concurrency", [0, 65])
def test_simulate_still_checks_concurrency(tmp_path, capsys, concurrency):
    # unused by a simulated cohort, but a value out of range is still refused
    assert cli.main(["simulate", "--scenarios", str(SCENARIOS / "relay_split"),
                     "--out", str(tmp_path / "s"), "--concurrency", str(concurrency)]) == 2
    _single_config_error(capsys, "simulate", f"concurrency: expected an integer in 1..64, "
                                             f"got {concurrency}")
    assert not (tmp_path / "s").exists()


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


def _generated_scenarios(scen_dir: Path, n: int, seed: int, duration_s: int) -> Path:
    """``n`` scenario files of ``scripts/run_simulated_campaign.py``'s fleet in ``scen_dir``."""
    spec = importlib.util.spec_from_file_location(
        "run_simulated_campaign",
        Path(__file__).resolve().parent.parent / "scripts" / "run_simulated_campaign.py")
    campaign = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(campaign)
    scen_dir.mkdir()
    rng = random.Random(seed)
    for i in range(n):
        (scen_dir / f"endpoint_{i:02d}.json").write_text(
            json.dumps(campaign.make_scenario(rng, i, duration_s)))
    return scen_dir


def _tree(root: Path) -> dict:
    """Every file under ``root``, by its relative path, as bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_trace_paths_do_not_depend_on_concurrency(tmp_path, capsys):
    scen_dir = _generated_scenarios(tmp_path / "scenarios", 12, seed=20260814, duration_s=600)
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


def test_simulated_stores_do_not_depend_on_concurrency(tmp_path, capsys):
    # A simulated cohort runs one session at a time whatever --concurrency
    # says; the partition and the tables come out the same at either value.
    scen_dir = _generated_scenarios(tmp_path / "scenarios", 6, seed=7, duration_s=300)
    stores = {}
    for concurrency in (1, 4):
        store_dir = tmp_path / f"store{concurrency}"
        assert cli.main(["simulate", "--scenarios", str(scen_dir), "--out", str(store_dir),
                         "--duration", "300", "--partition", "p",
                         "--concurrency", str(concurrency)]) == 0
        assert capsys.readouterr().out.startswith("simulate ok sessions=6 failed=0 ")
        stores[concurrency] = _tree(store_dir)
    assert len(stores[1]) == 6 * 2 + 2  # each session's two files, and the two tables
    assert stores[1] == stores[4]


def test_simulated_cohort_is_probed_on_one_thread(tmp_path, capsys, monkeypatch):
    # The simulator waits on no network, so threads could only take turns
    # holding the GIL: --concurrency does not spread a simnet cohort.
    scen_dir = _generated_scenarios(tmp_path / "scenarios", 6, seed=7, duration_s=300)
    threads = []
    probe_ticks = SimnetTransport.probe_ticks

    def spy(self, *args, **kwargs):
        threads.append(threading.get_ident())
        time.sleep(0.01)  # time for a second worker, were there one, to take a session
        return probe_ticks(self, *args, **kwargs)

    monkeypatch.setattr(SimnetTransport, "probe_ticks", spy)
    assert cli.main(["simulate", "--scenarios", str(scen_dir), "--out", str(tmp_path / "s"),
                     "--duration", "300", "--concurrency", "4"]) == 0
    assert capsys.readouterr().out.startswith("simulate ok sessions=6 failed=0 ")
    assert len(threads) == 6 and len(set(threads)) == 1


def test_readme_names_the_session_columns():
    # the README's column list is the one store.SESSION_COLUMNS writes and reads
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    paragraph = readme[readme.index("**Session store**"):].split("\n\n", 1)[0]
    lists = re.findall(r"`(\w+(?:,\w+)+)`", paragraph)
    assert [names.split(",") for names in lists] == [store_module.SESSION_COLUMNS]


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
     "lgosnga1,Lagos,NG,north,3.4\n",
     "line 3: latitude: expected a finite number, got 'north'"),
    ("pop_code,city,country,lat,lon\nsttlwax1,Seattle,US,47.6,-122.3\n",
     "line 1: missing columns ['latitude', 'longitude']"),
    ("pop_code,city,country,latitude,longitude\nsttlwax1,Seattle,US,47.6,-122.3\n"
     "lgosnga1,Lagos,NG,6.5,-722.3\n",
     "line 3: longitude: expected a longitude within [-180, 180], got -722.3"),
    ("pop_code,city,country,latitude,longitude\nsttlwax1,Seattle,US,47.6,-122.3\n"
     "lgosnga1,Lagos,NG,6.5,3.4\nSTTLWAX1,Tacoma,US,47.3,-122.4\n",
     "line 4: pop_code: 'sttlwax1' repeated"),
    ("pop_code,city,country,latitude,longitude\nsttlwax1,Seattle,US,47.6,-122.3\n"
     " ,Lagos,NG,6.5,3.4\n", "line 3: pop_code: blank"),
], ids=["bad_value", "missing_column", "longitude_off_earth", "repeated_code", "blank_code"])
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


def _not_utf8(path: Path, text: str) -> Path:
    """``text`` written to ``path`` with each U+DCFF as the byte 0xff, which is not UTF-8."""
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return path


def _discover_with(tmp_path, *options):
    return ["discover", "--scan", str(FIXTURES / "scan_small.jsonl"),
            "--out", str(tmp_path / "cohort.csv"), *options]


def _raw_run(tmp_path, command, **files):
    """``command`` over a raw cohort of two addresses, with the config ``files`` given."""
    if "endpoints_file" not in files:
        files["endpoints_file"] = _not_utf8(tmp_path / "cohort.csv", "address,pop_code\n"
                                            "100.64.9.1,sttlwax1\n100.64.9.2,sttlwax1\n")
    (tmp_path / "cfg.json").write_text(json.dumps({
        "transport": "raw", "output_dir": str(tmp_path / "s"),
        **{key: str(path) for key, path in files.items()}}))
    return [command, "--config", str(tmp_path / "cfg.json"),
            *(["--out", str(tmp_path / "paths.csv")] if command == "trace" else [])]


def _scan_json_with_a_bad_byte(tmp_path):
    lines = (FIXTURES / "scan_small.jsonl").read_text().splitlines(keepends=True)
    lines[3] = lines[3].replace("customer.", "customer.\udcff")
    scan = _not_utf8(tmp_path / "scan.jsonl", "".join(lines))
    return (["discover", "--scan", str(scan), "--out", str(tmp_path / "cohort.csv")], 0,
            "discover error stage=parse msg=row 4: byte 0xff at character 40 is not UTF-8",
            " malformed=1 ")


def _scan_csv_with_a_bad_byte(tmp_path):
    scan = _not_utf8(tmp_path / "scan.csv", "address,ptr\n98.96.0.1,customer.sttlwax1.pop."
                     "starlinkisp.net\n98.96.0.2,customer.sttl\udcff.pop.starlinkisp.net\n")
    return (["discover", "--format", "csv", "--scan", str(scan), "--out",
             str(tmp_path / "cohort.csv")], 0,
            "discover error stage=parse msg=row 3: ptr: byte 0xff at character 14 is not UTF-8",
            " malformed=1 ")


def _pop_catalog_with_a_bad_byte(tmp_path):
    catalog = _not_utf8(tmp_path / "catalog.csv", "pop_code,city,country,latitude,longitude\n"
                        "sttlwax1,Seattle,US,47.6,-122.3\nlgosnga1,Lagos\udcff,NG,6.5,3.4\n")
    return (_discover_with(tmp_path, "--pop-catalog", str(catalog)), 2,
            f"discover error stage=config msg={catalog} line 3: byte 0xff at character 15 "
            f"is not UTF-8", "")


def _pep_blocklist_with_a_bad_byte(tmp_path):
    blocklist = _not_utf8(tmp_path / "peps.txt", "peplink\nprox\udcffy\n")
    return (_discover_with(tmp_path, "--pep-blocklist", str(blocklist)), 2,
            f"discover error stage=config msg={blocklist} line 2: byte 0xff at character 5 "
            f"is not UTF-8", "")


def _geofeed_with_a_bad_byte(tmp_path):
    # Read, the /24 row would be the longest prefix of every address of the scan.
    feed = _not_utf8(tmp_path / "geofeed.csv", "98.96.0.0/16,US,US-WA,Seattle,47.6062,"
                     "-122.3321\n98.96.0.0/24,US,US-CO,Denver\udcff,39.7392,-104.9903\n")
    return _discover_with(tmp_path, "--geofeed", str(feed)), 0, None, " kept=91 "


def _cohort_with_a_bad_byte(tmp_path, command):
    cohort = _not_utf8(tmp_path / "cohort.csv",
                       "address,pop_code\n100.64.9.1,sttlwax1\n100.64.9.2,sttl\udcffwax1\n")
    return (_raw_run(tmp_path, command, endpoints_file=cohort), 2,
            f"{command} error stage=config msg={cohort} line 3: byte 0xff at character 16 "
            f"is not UTF-8", "")


def _exclude_file_with_a_bad_byte(tmp_path, command):
    exclude = _not_utf8(tmp_path / "exclude.txt", "192.0.2.0/24\n# \udcff\n")
    return (_raw_run(tmp_path, command, exclude_file=exclude), 2,
            f"{command} error stage=config msg={exclude} line 2: byte 0xff at character 3 "
            f"is not UTF-8", "")


def _session_csv_with_a_bad_byte(tmp_path):
    store_dir = tmp_path / "store"
    assert cli.main(["simulate", "--scenarios", str(SCENARIOS / "relay_split"),
                     "--out", str(store_dir), "--duration", "120", "--partition", "p"]) == 0
    csv_path = next((store_dir / "p").glob("*/session.csv"))
    lines = csv_path.read_text().splitlines(keepends=True)
    lines[4] = "1\udcff" + lines[4]
    _not_utf8(csv_path, "".join(lines))
    return (["analyze", "--store", str(store_dir)], 1,
            f"analyze error stage=analysis endpoint=176.83.201.7 msg={csv_path} line 5: ",
            "analyze error sessions=0 failed=1 ")


@pytest.mark.parametrize("case", [
    _scan_json_with_a_bad_byte, _scan_csv_with_a_bad_byte, _pop_catalog_with_a_bad_byte,
    _pep_blocklist_with_a_bad_byte, _geofeed_with_a_bad_byte,
    partial(_cohort_with_a_bad_byte, command="trace"),
    partial(_cohort_with_a_bad_byte, command="measure"),
    partial(_exclude_file_with_a_bad_byte, command="trace"),
    partial(_exclude_file_with_a_bad_byte, command="measure"),
    _session_csv_with_a_bad_byte,
], ids=["scan_json", "scan_csv", "pop_catalog", "pep_blocklist", "geofeed", "cohort-trace",
        "cohort-measure", "exclude_file-trace", "exclude_file-measure", "session_csv"])
def test_a_byte_that_is_not_utf8_ends_as_each_reader_documents(tmp_path, capsys, monkeypatch,
                                                               case):
    # A reader that skips bad rows skips the one holding the byte; every
    # other reader fails with its error naming the file and the line.
    monkeypatch.setattr(StubRawTransport, "instances", [])
    monkeypatch.setattr(rawnet, "RawTransport", StubRawTransport)
    argv, code, err, out = case(tmp_path)
    capsys.readouterr()
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert (out in captured.out) if out else captured.out == "", captured.out
    if err is None:
        assert captured.err == ""
    else:
        [line] = captured.err.splitlines()
        assert line.startswith(err), line
    if argv[0] == "discover" and code == 0:  # the feed's bad row located no one
        with open(tmp_path / "cohort.csv", newline="") as fh:
            located = {row["cust_lat"] for row in csv.DictReader(fh)}
        assert located == ({"47.6062"} if "--geofeed" in argv else {""})
    assert StubRawTransport.instances == []


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
    (json.dumps(scenario_dict(jitter={"dist": "gaussian", "sigma_ms": 0.5,
                                      "satellite_sigma_ms": -1.0})),
     "jitter.satellite_sigma_ms: sigma must be non-negative"),
], ids=["not_json", "latency_not_a_number", "latency_nan", "event_not_an_object",
        "misspelt_hop_echo", "misspelt_event_delta", "misspelt_jitter_sigma",
        "misspelt_endpoint_latitude", "misspelt_loss_probability", "misspelt_hop_flap_duration",
        "endpoint_latitude_off_earth", "endpoint_longitude_off_earth",
        "negative_satellite_sigma"])
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
    (lambda o: o["hops"][1].pop("address"), "hops[1].address: expected an IP address, got None"),
    # the store names a directory after the target's address, so this one
    # would put a session outside its partition
    (lambda o: o["hops"][2].update(address="../escaped"),
     "hops[2].address: expected an IP address, got '../escaped'"),
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
    (lambda o: o["endpoint"].pop("longitude"),
     "endpoint.longitude: required with endpoint.latitude"),
    (lambda o: o["endpoint"].pop("latitude"),
     "endpoint.latitude: required with endpoint.longitude"),
], ids=["endpoint_latitude", "endpoint_pop_code", "endpoint_list", "echo_string",
        "ttl_expired_number", "label_number", "address_missing", "address_a_path",
        "seed_string",
        "duration_float", "segment_float", "flap_float", "flap_list", "event_at_float",
        "event_delta_string", "sigma_bool", "loss_null", "endpoint_latitude_only",
        "endpoint_longitude_only"])
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
    ("address", None, "an IP address"),
    ("customer_location", [500.0, -722.3], "[latitude, longitude] or null"),
    ("address", "192.0.2.7", "its directory's name '98.97.48.115'"),
], ids=["location_strings", "location_nan", "location_short", "pop_code_number",
        "source_list", "address_null", "location_off_earth", "address_not_its_directory"])
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


def test_analyze_refuses_a_meta_json_naming_another_address(tmp_path, capsys):
    store_dir, meta_path = _analyzed_reroute_day(tmp_path, "address", "192.0.2.7")
    capsys.readouterr()
    out = tmp_path / "reports"
    assert cli.main(["analyze", "--store", str(store_dir), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"analyze error stage=analysis endpoint=98.97.48.115 msg={meta_path}: "
        f"address: expected its directory's name '98.97.48.115', got '192.0.2.7'"]
    assert captured.out.startswith("analyze error sessions=0 failed=1 ")
    assert read_report_csv(out / "sessions.csv")[2] == []


@pytest.mark.parametrize("cohort_text,where", [
    ("address,pop_code,cust_lat,cust_lon\n100.64.9.1,sttlwax1,nan,-122.3\n",
     "line 2: customer_location: expected [latitude, longitude] or null, got (nan, -122.3)"),
    ("address,pop_code,cust_lat,cust_lon\n100.64.9.1,sttlwax1,47.6,inf\n",
     "line 2: customer_location: expected [latitude, longitude] or null, got (47.6, inf)"),
    ("address,pop_code\n100.64.9.1,sttlwax1\n100.64.9.2\n",
     "line 3: pop_code: expected a string, got None"),
    ("address,pop_code\n100.64.9.1,sttlwax1\n../x,sttlwax1\n",
     "line 3: address: expected an IP address, got '../x'"),
    ("address,pop_code,cust_lat,cust_lon\n100.64.9.1,sttlwax1,47.6,\n",
     "line 2: cust_lon: required with cust_lat"),
    ("address,pop_code,cust_lat,cust_lon\n100.64.9.1,sttlwax1,,\n100.64.9.2,sttlwax1,,-122.3\n",
     "line 3: cust_lat: required with cust_lon"),
    ("address,pop_code,cust_lat\n100.64.9.1,sttlwax1,47.6\n",
     "line 2: cust_lon: required with cust_lat"),
], ids=["latitude_nan", "longitude_inf", "short_row", "address_a_path", "latitude_only",
        "longitude_only", "no_longitude_column"])
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


def test_cohort_rows_are_read_as_endpoints(tmp_path):
    cohort = tmp_path / "cohort.csv"
    cohort.write_text("address,pop_code,pop_city,pop_lat,pop_lon,cust_lat,cust_lon,source\n"
                      "100.64.9.1,sttlwax1,Seattle,47.6062,-122.3321,,,starlink_ptr\n"
                      "100.64.9.2,lgosnga1,,,,6.5,3.4,starlink_ptr\n")
    # both coordinates blank is an unlocated customer; the pop_* columns are not read
    assert cli.load_endpoints_csv(cohort) == [
        Endpoint(address="100.64.9.1", pop_code="sttlwax1"),
        Endpoint(address="100.64.9.2", pop_code="lgosnga1", customer_location=(6.5, 3.4))]


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


def test_partition_label_with_a_nul_byte_is_a_store_error(tmp_path):
    cfg_path = _simnet_config(tmp_path, partition_label="a\u0000b")
    done = _run_cli("measure", "--config", str(cfg_path))
    assert done.returncode == 2, done.stderr
    assert done.stderr == "measure error stage=store msg=bad partition name: 'a\\x00b'\n"
    assert not (tmp_path / "s").exists()


def test_the_tables_directory_is_no_partition(tmp_path, capsys):
    # simulate writes no session among the tables, and analyze reads
    # neither them nor an empty --partition as a partition
    store_dir = tmp_path / "store"
    simulate = ["simulate", "--scenarios", str(SCENARIOS / "relay_split"),
                "--out", str(store_dir), "--duration", "120", "--partition"]
    assert cli.main([*simulate, "reports"]) == 2
    assert capsys.readouterr().err == "simulate error stage=store msg=bad partition name: 'reports'\n"
    assert not store_dir.exists()
    assert cli.main([*simulate, "p"]) == 0
    assert MeasurementStore(store_dir).partitions() == ["p"]
    for partition in ("reports", ""):
        capsys.readouterr()
        assert cli.main(["analyze", "--store", str(store_dir), "--partition", partition]) == 2
        assert capsys.readouterr().err == (
            f"analyze error stage=store msg=bad partition name: {partition!r}\n")


def test_simulate_keeps_the_table_rows_of_other_partitions(tmp_path):
    # Tables of simulate's parameters take the new partition's rows among
    # the others, as analyze would write them over the whole store.
    store_dir = tmp_path / "store"

    def simulate(scenarios, partition):
        assert cli.main(["simulate", "--scenarios", str(SCENARIOS / scenarios), "--out",
                         str(store_dir), "--duration", "300", "--partition", partition]) == 0

    def tables():
        return {name: (store_dir / "reports" / name).read_bytes()
                for name in ("sessions.csv", "spikes.csv")}

    simulate("relay_split", "p2")
    simulate("reroute_day", "p1")
    simulated = tables()
    assert [row[:2] for row in read_report_csv(store_dir / "reports" / "sessions.csv")[2]] == [
        ["p1", "98.97.48.115"], ["p2", "176.83.201.7"]]
    assert cli.main(["analyze", "--store", str(store_dir)]) == 0
    assert tables() == simulated
    # Tables of other parameters are left as they are; report analyzes p3 itself.
    assert cli.main(["analyze", "--store", str(store_dir), "--window", "30"]) == 0
    windowed = tables()
    simulate("relay_split", "p3")
    assert tables() == windowed != simulated


def test_analyze_of_one_partition_keeps_the_rows_of_the_others(tmp_path, capsys):
    # Tables of analyze's own parameters keep the partitions it did not read,
    # so they read as one analyze over the whole store, and report takes
    # every session from them.
    store_dir = tmp_path / "store"
    reports = store_dir / "reports"
    for scenarios, partition in (("reroute_day", "p1"), ("relay_split", "p2")):
        assert cli.main(["simulate", "--scenarios", str(SCENARIOS / scenarios), "--out",
                         str(store_dir), "--duration", "300", "--partition", partition]) == 0
    analyze = ["analyze", "--store", str(store_dir), "--window", "30"]
    assert cli.main(analyze) == 0
    whole = {name: (reports / name).read_bytes() for name in ("sessions.csv", "spikes.csv")}
    assert {row[0] for row in _spike_rows(reports / "spikes.csv")} == {"p1", "p2"}
    capsys.readouterr()
    assert cli.main([*analyze, "--partition", "p2"]) == 0
    assert capsys.readouterr().out.startswith("analyze ok sessions=1 failed=0 ")
    assert {name: (reports / name).read_bytes() for name in whole} == whole
    assert cli.main(["report", "--store", str(store_dir)]) == 0
    assert capsys.readouterr().out.startswith("report ok sessions=2 failed=0 ")
    report_hash = params_hash({"report": 1, "partitions": ["p1", "p2"],
                               "analysis": [cli._analysis_hash(window_s=30.0)]})
    assert (reports / "summary.txt").read_text().endswith(f"config_hash: {report_hash}\n")


# ------------------------------------------------------------- dependencies

def _located_session(address, lat, lon, n=120):
    """A flat 25 ms session of a located customer of the Lagos POP."""
    path = SatLinkPath(target=address, pre_sat_ttl=2, pre_sat_router="10.0.0.2",
                       post_sat_ttl=3, jump_ms=25.0)
    endpoint = Endpoint(address=address, pop_code="lgosnga1",
                        customer_location=(lat, lon))
    sent_ms = np.arange(n, dtype=np.int64) * 1000
    return MeasurementSession(endpoint=endpoint, path=path, start_ms=0, duration_s=n,
                              cadence_hz=1, sent_ms=[sent_ms, sent_ms],
                              rtt_us=[np.full(n, 10_000.0), np.full(n, 35_000.0)])


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


def test_report_prices_distances_from_the_given_pop_catalog(tmp_path, capsys):
    store = MeasurementStore(tmp_path / "store")
    part = store.new_partition("2026-08-01")
    located = [(6.5, 3.4), (7.4, 3.9), (9.1, 7.5)]
    for i, (lat, lon) in enumerate(located):
        store.write_session(part, _located_session(f"100.64.9.{i + 1}", lat, lon),
                            config_hash="x")
    catalog = tmp_path / "catalog.csv"
    catalog.write_text("pop_code,city,country,latitude,longitude\n"
                       "lgosnga1,Null Island,XX,0.0,0.0\n")
    assert cli.main(["report", "--store", str(store.root), "--pop-catalog", str(catalog)]) == 0
    _, header, rows = read_report_csv(store.root / "reports" / "min_rtt_distance.csv")
    assert header == ["address", "pop_distance_km", "min_rtt_ms"]
    assert [row[:2] for row in rows] == [
        [f"100.64.9.{i + 1}", f"{haversine_km(lat, lon, 0.0, 0.0):.1f}"]
        for i, (lat, lon) in enumerate(located)]


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
