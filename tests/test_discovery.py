import csv
import ipaddress
import json
import re
from dataclasses import fields
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leolink.discovery import (
    DatasetError,
    Endpoint,
    PepBlocklist,
    PopCatalog,
    ScanRecord,
    exclude_peps,
    filter_customer_endpoints,
    filter_oneweb_customers,
    geolocate_customer,
    load_geofeed,
    match_customer_ptr,
    parse_scan_dataset,
)
from tests.conftest import FIXTURES


def rec(address="98.97.0.1", ptr=None, soa=None, tls=(), asn=14593):
    return ScanRecord(address=address, ptr=ptr, soa=soa,
                      tls_names=tuple(tls), asn=asn)


# ------------------------------------------------------------- scan records

def test_scan_record_rejects_bad_address():
    with pytest.raises(ValueError):
        ScanRecord(address="not-an-ip")


def test_scan_record_rejects_bad_port():
    with pytest.raises(ValueError):
        ScanRecord(address="1.2.3.4", services=((0, "tcp"),))
    with pytest.raises(ValueError):
        ScanRecord(address="1.2.3.4", services=((70000, "tcp"),))


def test_parse_empty_file(tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("")
    records, report = parse_scan_dataset(p)
    assert records == []
    assert report.malformed == 0


def test_parse_counts_malformed_rows(tmp_path):
    # 10 rows, one with an invalid address: 9 records, 1 malformed.
    p = tmp_path / "scan.jsonl"
    rows = [{"address": f"10.0.0.{i}", "ptr": None} for i in range(1, 10)]
    rows.insert(4, {"address": "999.999.1.1", "ptr": None})
    p.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    records, report = parse_scan_dataset(p)
    assert len(records) == 9
    assert report.malformed == 1
    assert report.total_rows == 10


@pytest.mark.parametrize("fmt, text, message", [
    ("json_lines", '{"address": "10.0.0.1"}\n[1, 2]\n',
     "row 2: record: expected an object, got [1, 2]"),
    ("json_lines", '{"address": "10.0.0.1"}\n{"address": "10.0.0.2", "ptr": 5}\n',
     "row 2: ptr: expected a string or null, got 5"),
    ("json_lines", '{"address": "10.0.0.1"}\n{"address": "10.0.0.2", "soa": ["a"]}\n',
     "row 2: soa: expected a string or null, got ['a']"),
    ("json_lines", '{"address": "10.0.0.1"}\n{"address": "10.0.0.2", "tls_names": "peplink"}\n',
     "row 2: tls_names: expected a list, got 'peplink'"),
    ("csv", "ptr,address\n,10.0.0.1\ncustomer.sttlwax1.pop.starlinkisp.net\n",
     "row 3: address: expected a string, got None"),
], ids=["json_not_an_object", "json_ptr_number", "json_soa_list", "json_tls_names_string",
        "csv_short_row"])
def test_parse_counts_a_record_of_the_wrong_shape_as_malformed(tmp_path, fmt, text, message):
    # One good record and one whose shape is wrong: the bad one is a
    # malformed row, never a traceback and never a record read loosely.
    p = tmp_path / "scan"
    p.write_text(text)
    records, report = parse_scan_dataset(p, fmt=fmt)
    assert [r.address for r in records] == ["10.0.0.1"]
    assert (report.total_rows, report.malformed, report.errors) == (2, 1, [message])


@pytest.mark.parametrize("fmt, text, message", [
    ("json_lines", '{"address": "10.0.0.2", "asn": true}', "asn: expected an integer, got True"),
    ("json_lines", '{"address": "10.0.0.2", "tls_names": [5, {"a": 1}]}',
     "tls_names[0]: expected a string, got 5"),
    ("json_lines", '{"address": "10.0.0.2", "services": [["443", "tcp"]]}',
     "services[0]: expected [port 1..65535, \"tcp\" or \"udp\"], got ['443', 'tcp']"),
    ("json_lines", '{"address": "10.0.0.2", "country": "US"}',
     "record: unknown fields ['country']"),
    ("json_lines", '{"ptr": "customer.sttlwax1.pop.starlinkisp.net"}',
     "address: expected an IP address, got None"),
    ("csv", "10.0.0.2,,,US", "cells past the header: ['US']"),
    ("csv", "10.0.0.2,80/tcp;443,", "services[1]: expected [port 1..65535, \"tcp\" or \"udp\"], "
                                   "got [443]"),
    ("csv", "10.0.0.2,80/tcp,x", "asn: expected an integer, got 'x'"),
    ("csv", "10.0.0.2,80/tcp", "asn: expected a string, got None"),
], ids=["json_asn_bool", "json_tls_name_not_a_string", "json_port_string", "json_unknown_key",
        "json_no_address", "csv_long_row", "csv_service_without_protocol", "csv_asn_text",
        "csv_short_row_without_asn"])
def test_parse_refuses_a_field_it_would_have_to_convert(tmp_path, fmt, text, message):
    # A value of the wrong type is a malformed row, never coerced into a record.
    p = tmp_path / "scan"
    first = "address,services,asn\n10.0.0.1,," if fmt == "csv" else '{"address": "10.0.0.1"}'
    p.write_text(f"{first}\n{text}\n")
    records, report = parse_scan_dataset(p, fmt=fmt)
    assert [r.address for r in records] == ["10.0.0.1"]
    row = 3 if fmt == "csv" else 2
    assert (report.total_rows, report.malformed, report.errors) == (2, 1, [f"row {row}: {message}"])


def test_parse_names_a_csv_row_by_its_line(tmp_path):
    # a quoted cell may span lines: the row after it is on line 4, not the third row
    p = tmp_path / "scan.csv"
    p.write_text('address,ptr\n10.0.0.1,"a\nb"\n999.1.1.1,x\n')
    _, report = parse_scan_dataset(p, fmt="csv")
    assert report.errors == ["row 4: address: expected an IP address, got '999.1.1.1'"]


def test_parse_refuses_every_row_under_a_column_that_is_no_key(tmp_path):
    p = tmp_path / "scan.csv"
    p.write_text("address,country\n10.0.0.1,US\n10.0.0.2,\n")
    with pytest.raises(DatasetError, match=re.escape(
            "no well-formed rows among 2, the first at row 2: record: unknown fields ['country']")):
        parse_scan_dataset(p, fmt="csv")


def test_parse_preserves_ptr_verbatim(tmp_path):
    p = tmp_path / "scan.jsonl"
    p.write_text(json.dumps({"address": "98.97.0.1",
                             "ptr": "customer.atlagax1.pop.starlinkisp.net"}) + "\n")
    records, _ = parse_scan_dataset(p)
    assert records[0].ptr == "customer.atlagax1.pop.starlinkisp.net"


def test_parse_all_rows_malformed_raises(tmp_path):
    p = tmp_path / "scan.jsonl"
    p.write_text("this is not json\n{broken\n")
    with pytest.raises(DatasetError):
        parse_scan_dataset(p)


def test_parse_csv_format(tmp_path):
    p = tmp_path / "scan.csv"
    p.write_text("address,ptr,soa,tls_names,services,asn\n"
                 "98.97.0.1,customer.sttlwax1.pop.starlinkisp.net,starlinkisp.net,"
                 "a.example;b.example,443/tcp;80/tcp,14593\n")
    records, report = parse_scan_dataset(p, fmt="csv")
    assert report.malformed == 0
    assert records[0].tls_names == ("a.example", "b.example")
    assert records[0].services == ((443, "tcp"), (80, "tcp"))


# -------------------------------------------------------------- PTR pattern

@pytest.mark.parametrize("ptr,expected", [
    ("customer.atlagax1.pop.starlinkisp.net", "atlagax1"),
    ("customer.atlagax1.pop.starlinkisp.net.", "atlagax1"),  # trailing dot
    ("CUSTOMER.ATLAGAX1.POP.STARLINKISP.NET", "atlagax1"),   # case folded
    ("undefined.hostname.starlinkisp.net", None),
    ("customer.atlagax1.pop.otherisp.net", None),
    ("evil-customer.atlagax1.pop.starlinkisp.net.example.org", None),  # anchored
    (None, None),
    ("", None),
])
def test_match_customer_ptr(ptr, expected):
    assert match_customer_ptr(ptr) == expected


def test_pop_catalog_has_the_twenty_codes():
    catalog = PopCatalog.default()
    assert len(catalog) >= 20
    assert "sttlwax1" in catalog
    assert "tkyojpn1" in catalog
    seattle = catalog["sttlwax1"]
    assert seattle.city == "Seattle"
    with resources.files("leolink.data").joinpath("pop_catalog.csv").open(newline="") as fh:
        codes = [row["pop_code"] for row in csv.DictReader(fh)]
    for code in codes:
        loc = catalog[code]
        assert -90 <= loc.latitude <= 90
        assert -180 <= loc.longitude <= 180


def test_filter_maps_pop_location():
    endpoints, report = filter_customer_endpoints(
        [rec(ptr="customer.atlagax1.pop.starlinkisp.net")])
    assert len(endpoints) == 1
    assert endpoints[0].pop_code == "atlagax1"
    assert PopCatalog.default()[endpoints[0].pop_code].city == "Atlanta"
    assert not report.unknown_pop and not report.ambiguous


def test_filter_unknown_pop_reported_not_dropped_silently():
    endpoints, report = filter_customer_endpoints(
        [rec(ptr="customer.zzzzzzz9.pop.starlinkisp.net")])
    assert endpoints == []
    assert report.unknown_pop == [("98.97.0.1", "zzzzzzz9")]


def test_filter_conflicting_pops_is_ambiguous():
    records = [
        rec(address="98.97.0.1", ptr="customer.atlagax1.pop.starlinkisp.net"),
        rec(address="98.97.0.1", ptr="customer.sttlwax1.pop.starlinkisp.net"),
    ]
    endpoints, report = filter_customer_endpoints(records)
    assert endpoints == []
    assert report.ambiguous == ["98.97.0.1"]


def test_filter_dedupes_repeated_address():
    records = [rec(ptr="customer.atlagax1.pop.starlinkisp.net")] * 3
    endpoints, _ = filter_customer_endpoints(records)
    assert len(endpoints) == 1


# --------------------------------------------------------------------- PEP

def test_exclude_peps_removes_blocklisted_tls():
    records = [rec(ptr="customer.atlagax1.pop.starlinkisp.net",
                   tls=("device.PepLink.com",))]
    endpoints, _ = filter_customer_endpoints(records)
    kept, removed = exclude_peps(endpoints, records)
    assert kept == []
    assert removed == 1


def test_exclude_peps_empty_blocklist_is_identity():
    records = [rec(ptr="customer.atlagax1.pop.starlinkisp.net",
                   tls=("device.peplink.com",))]
    endpoints, _ = filter_customer_endpoints(records)
    kept, removed = exclude_peps(endpoints, records, PepBlocklist(()))
    assert kept == endpoints
    assert removed == 0


def test_exclude_peps_never_touches_endpoints_without_tls():
    records = [rec(ptr="customer.atlagax1.pop.starlinkisp.net", tls=())]
    endpoints, _ = filter_customer_endpoints(records)
    kept, removed = exclude_peps(endpoints, records)
    assert kept == endpoints and removed == 0


def test_pep_fixture_removes_nine_of_hundred():
    records, report = parse_scan_dataset(FIXTURES / "scan_small.jsonl")
    assert report.total_rows == 100 and report.malformed == 0
    endpoints, _ = filter_customer_endpoints(records)
    assert len(endpoints) == 100
    kept, removed = exclude_peps(endpoints, records)
    assert removed == 9
    assert len(kept) == 91


# ---------------------------------------------------------- bundled funnel

def test_full_fixture_funnel_counts():
    records, report = parse_scan_dataset(FIXTURES / "scan_fixture.jsonl")
    assert report.total_rows == 2051
    assert report.malformed == 0
    endpoints, filter_report = filter_customer_endpoints(records)
    assert len(endpoints) == 1790
    assert not filter_report.unknown_pop and not filter_report.ambiguous
    kept, removed = exclude_peps(endpoints, records)
    assert removed == 161
    assert len(kept) == 1629


# ------------------------------------------------------------ oneweb rules

def test_oneweb_blocklist_rules():
    records = [
        rec(address="185.118.0.1", ptr="gw1.network.oneweb.net"),
        rec(address="185.118.0.2", soa="ns.ripe.net"),
        rec(address="185.118.1.1", ptr="edge.alaskabusiness.example"),
        rec(address="185.118.2.1"),  # neither name: unclassifiable
    ]
    endpoints, unclassifiable = filter_oneweb_customers(records)
    assert [e.address for e in endpoints] == ["185.118.1.1"]
    assert endpoints[0].source == "oneweb_blocklist"
    assert endpoints[0].pop_code == ""
    assert unclassifiable == 1


def test_oneweb_fixture():
    records, _ = parse_scan_dataset(FIXTURES / "oneweb_scan.jsonl")
    endpoints, unclassifiable = filter_oneweb_customers(records)
    assert {e.address for e in endpoints} == {"185.118.1.1", "185.118.1.2"}
    assert unclassifiable == 1


# ----------------------------------------------------------------- geofeed

def brute_force_geofeed_match(address: str, feed_rows):
    """Longest-prefix oracle: scan every row, keep the most specific."""
    addr = ipaddress.ip_address(address)
    best = None
    best_len = -1
    for prefix, coords in feed_rows:
        net = ipaddress.ip_network(prefix, strict=False)
        if net.version == addr.version and addr in net and net.prefixlen > best_len:
            best_len = net.prefixlen
            best = coords
    return best


def test_geolocate_longest_prefix_wins(tmp_path):
    feed = tmp_path / "geofeed.csv"
    rows = [("98.97.0.0/16", (47.6062, -122.3321)),
            ("98.97.4.0/24", (6.4698, 3.5852))]
    feed.write_text("\n".join(
        f"{p},XX,,City,{c[0]},{c[1]}" for p, c in rows) + "\n")
    ep = Endpoint(address="98.97.4.10", pop_code="lgosnga1")
    located = geolocate_customer(ep, load_geofeed(feed))
    assert located.customer_location == brute_force_geofeed_match("98.97.4.10", rows)
    assert located.customer_location == (6.4698, 3.5852)


def test_geolocate_empty_feed_leaves_endpoint_unchanged(tmp_path):
    feed = tmp_path / "geofeed.csv"
    feed.write_text("")
    ep = Endpoint(address="98.97.4.10", pop_code="")
    assert geolocate_customer(ep, load_geofeed(feed)) == ep


def test_geolocate_skips_malformed_rows_and_missing_coords():
    # The bundled feed has a junk prefix row and a coordinate-less row.
    feed = load_geofeed(FIXTURES / "geofeed.csv")
    ep = Endpoint(address="2605:59c8:0:100::9", pop_code="")
    located = geolocate_customer(ep, feed)
    assert located.customer_location == (-12.0464, -77.0428)
    # Address matching only the coordinate-less /32 stays unlocated.
    bare = Endpoint(address="2605:59c8:9999::1", pop_code="")
    assert geolocate_customer(bare, feed).customer_location is None


def test_geofeed_non_finite_coordinates_count_as_none(tmp_path):
    feed = tmp_path / "geofeed.csv"
    feed.write_text("98.97.0.0/16,US,US-WA,Seattle,nan,-122.3321\n"
                    "98.97.4.0/24,NG,NG-LA,Ajah,6.4698,inf\n"
                    "98.97.5.0/24,NG,NG-LA,Ajah,6.4698,3.5852\n")
    assert [coords for _, coords in load_geofeed(feed)] == [None, None, (6.4698, 3.5852)]
    ep = Endpoint(address="98.97.4.10", pop_code="lgosnga1")
    assert geolocate_customer(ep, load_geofeed(feed)) == ep


def test_geofeed_coordinates_off_earth_count_as_none(tmp_path):
    feed = tmp_path / "geofeed.csv"
    feed.write_text("98.97.0.0/16,US,US-WA,Seattle,500.0,-122.3321\n"
                    "98.97.4.0/24,NG,NG-LA,Ajah,6.4698,-722.3\n"
                    "98.97.5.0/24,AQ,,Pole,-90.0,180.0\n")
    assert [coords for _, coords in load_geofeed(feed)] == [None, None, (-90.0, 180.0)]
    ep = Endpoint(address="98.97.4.10", pop_code="lgosnga1")
    assert geolocate_customer(ep, load_geofeed(feed)) == ep


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_pop_catalog_refuses_a_non_finite_coordinate(tmp_path, value):
    catalog = tmp_path / "catalog.csv"
    catalog.write_text("pop_code,city,country,latitude,longitude\n"
                       "sttlwax1,Seattle,US,47.6,-122.3\n"
                       f"lgosnga1,Lagos,NG,{value},3.4\n")
    with pytest.raises(DatasetError, match=re.escape(
            f"{catalog} line 3: latitude: expected a finite number, got {float(value)}")):
        PopCatalog.from_csv(catalog)


@pytest.mark.parametrize("row, message", [
    ("lgosnga1,Lagos,NG,,3.4", "latitude: expected a finite number, got ''"),
    ("lgosnga1,Lagos,NG,6.5,east", "longitude: expected a finite number, got 'east'"),
])
def test_pop_catalog_names_a_coordinate_that_is_not_a_number(tmp_path, row, message):
    catalog = tmp_path / "catalog.csv"
    catalog.write_text(f"pop_code,city,country,latitude,longitude\n{row}\n")
    with pytest.raises(DatasetError, match=re.escape(f"{catalog} line 2: {message}")):
        PopCatalog.from_csv(catalog)


# ------------------------------------------------------------- properties

pop_codes = st.sampled_from(["sttlwax1", "atlagax1", "lgosnga1", "tkyojpn1"])


@st.composite
def scan_records(draw):
    n = draw(st.integers(0, 40))
    records = []
    for i in range(n):
        style = draw(st.integers(0, 3))
        if style == 0:
            ptr = f"customer.{draw(pop_codes)}.pop.starlinkisp.net"
        elif style == 1:
            ptr = f"host-{i}.transit.example.net"
        elif style == 2:
            ptr = f"customer.unknown{i % 7}.pop.starlinkisp.net"
        else:
            ptr = None
        tls = ("device.peplink.com",) if draw(st.booleans()) else ()
        records.append(rec(address=f"98.97.{i // 250}.{i % 250 + 1}",
                           ptr=ptr, tls=tls))
    return records


@given(scan_records())
@settings(max_examples=60)
def test_filter_is_idempotent_and_subsets(records):
    endpoints, _ = filter_customer_endpoints(records)
    addresses = {e.address for e in endpoints}
    assert addresses <= {r.address for r in records}
    # Feeding the emitted endpoints back through as PTR-bearing records
    # reproduces the same endpoint set.
    again, _ = filter_customer_endpoints(
        [rec(address=e.address, ptr=f"customer.{e.pop_code}.pop.starlinkisp.net")
         for e in endpoints])
    assert {e.address for e in again} == addresses
    for e in endpoints:
        assert e.pop_code in PopCatalog.default()


@given(scan_records())
@settings(max_examples=60)
def test_exclude_peps_output_is_subset(records):
    endpoints, _ = filter_customer_endpoints(records)
    kept, removed = exclude_peps(endpoints, records)
    assert {e.address for e in kept} <= {e.address for e in endpoints}
    assert removed == len(endpoints) - len(kept)


# ------------------------------------------------- generated scan records

FIXTURE_LINES = (FIXTURES / "scan_fixture.jsonl").read_text().splitlines()
not_a_string = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
                         st.lists(st.integers(), max_size=2), st.just({"a": 1}))

def mutate(draw, obj: dict, mutation: str) -> str:
    """Apply ``mutation`` to the valid record ``obj``; the key its message names."""
    if mutation == "drop_address":
        del obj["address"]
        return "address"
    if mutation == "unknown_key":
        key = draw(st.text(min_size=1).filter(lambda k: k not in obj))
        obj[key] = draw(st.integers())
        return key
    if mutation == "bool_asn":
        obj["asn"] = draw(st.booleans())
        return "asn"
    if mutation == "tls_name_not_a_string":
        obj["tls_names"].insert(draw(st.integers(0, len(obj["tls_names"]))), draw(not_a_string))
        return "tls_names"
    port, proto = draw(st.integers(1, 65535)), draw(st.sampled_from(["tcp", "udp"]))
    if mutation == "string_port":
        obj["services"].append([str(port), proto])
    else:  # a service of the wrong length
        obj["services"].append(draw(st.lists(st.just(port), max_size=4).filter(
            lambda service: len(service) != 2)))
    return "services"


@given(data=st.data(), mutation=st.sampled_from([
    "drop_address", "unknown_key", "bool_asn", "tls_name_not_a_string", "string_port",
    "service_of_wrong_length"]),
       index=st.integers(0, len(FIXTURE_LINES) - 5), row=st.integers(0, 3))
@settings(max_examples=120, deadline=None)
def test_one_mutated_scan_record_is_one_malformed_row(tmp_path_factory, data, mutation, index, row):
    # Four valid fixture records around one mutated one: exactly that row is
    # malformed, its message names the key, and the other four are read.
    obj = json.loads(FIXTURE_LINES[index])
    key = mutate(data.draw, obj, mutation)
    lines = FIXTURE_LINES[index + 1:index + 5]
    lines.insert(row, json.dumps(obj))
    p = tmp_path_factory.mktemp("scan") / "scan.jsonl"
    p.write_text("\n".join(lines) + "\n")
    records, report = parse_scan_dataset(p)
    assert (report.total_rows, report.malformed, len(records)) == (5, 1, 4)
    [message] = report.errors
    assert message.startswith(f"row {row + 1}: ") and repr(key)[1:-1] in message


def csv_cell(value) -> str:
    if isinstance(value, list):
        return ";".join("/".join(map(str, item)) if isinstance(item, list) else item
                        for item in value)
    return "" if value is None else str(value)


hostnames = st.from_regex(r"[a-z0-9]([a-z0-9.-]{0,20}[a-z0-9])?", fullmatch=True)


@given(st.lists(st.fixed_dictionaries({
    "address": st.ip_addresses().map(str),
    "ptr": st.none() | hostnames,
    "soa": st.none() | hostnames,
    "tls_names": st.lists(hostnames, max_size=3),
    "services": st.lists(st.tuples(st.integers(1, 65535), st.sampled_from(["tcp", "udp"]))
                         .map(list), max_size=3),
    "asn": st.integers(),
}), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_a_scan_record_reads_equal_from_json_lines_and_csv(tmp_path_factory, objs):
    KEYS = [f.name for f in fields(ScanRecord)]
    d = tmp_path_factory.mktemp("scan")
    (d / "scan.jsonl").write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    with open(d / "scan.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(KEYS)
        writer.writerows([csv_cell(obj[key]) for key in KEYS] for obj in objs)
    from_json, json_report = parse_scan_dataset(d / "scan.jsonl")
    from_csv, csv_report = parse_scan_dataset(d / "scan.csv", fmt="csv")
    assert json_report.malformed == csv_report.malformed == 0
    assert from_json == from_csv == [ScanRecord(**obj) for obj in objs]
