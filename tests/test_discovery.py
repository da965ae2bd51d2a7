import ipaddress
import json
import re

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
    return ScanRecord(address=address, ptr_name=ptr, soa_name=soa,
                      tls_subject_names=tuple(tls), asn=asn)


# ------------------------------------------------------------- scan records

def test_scan_record_rejects_bad_address():
    with pytest.raises(ValueError):
        ScanRecord(address="not-an-ip")


def test_scan_record_rejects_bad_port():
    with pytest.raises(ValueError):
        ScanRecord(address="1.2.3.4", open_services=((0, "tcp"),))
    with pytest.raises(ValueError):
        ScanRecord(address="1.2.3.4", open_services=((70000, "tcp"),))


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


def test_parse_preserves_ptr_verbatim(tmp_path):
    p = tmp_path / "scan.jsonl"
    p.write_text(json.dumps({"address": "98.97.0.1",
                             "ptr": "customer.atlagax1.pop.starlinkisp.net"}) + "\n")
    records, _ = parse_scan_dataset(p)
    assert records[0].ptr_name == "customer.atlagax1.pop.starlinkisp.net"


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
    assert records[0].tls_subject_names == ("a.example", "b.example")
    assert records[0].open_services == ((443, "tcp"), (80, "tcp"))


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
    for code in catalog.codes():
        loc = catalog[code]
        assert -90 <= loc.latitude <= 90
        assert -180 <= loc.longitude <= 180


def test_filter_maps_pop_location():
    endpoints, report = filter_customer_endpoints(
        [rec(ptr="customer.atlagax1.pop.starlinkisp.net")])
    assert len(endpoints) == 1
    assert endpoints[0].pop_code == "atlagax1"
    assert endpoints[0].pop_location.city == "Atlanta"
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
    ep = Endpoint(address="98.97.4.10", pop_code="lgosnga1", pop_location=None)
    located = geolocate_customer(ep, load_geofeed(feed))
    assert located.customer_location == brute_force_geofeed_match("98.97.4.10", rows)
    assert located.customer_location == (6.4698, 3.5852)


def test_geolocate_empty_feed_leaves_endpoint_unchanged(tmp_path):
    feed = tmp_path / "geofeed.csv"
    feed.write_text("")
    ep = Endpoint(address="98.97.4.10", pop_code="", pop_location=None)
    assert geolocate_customer(ep, load_geofeed(feed)) == ep


def test_geolocate_skips_malformed_rows_and_missing_coords():
    # The bundled feed has a junk prefix row and a coordinate-less row.
    feed = load_geofeed(FIXTURES / "geofeed.csv")
    ep = Endpoint(address="2605:59c8:0:100::9", pop_code="", pop_location=None)
    located = geolocate_customer(ep, feed)
    assert located.customer_location == (-12.0464, -77.0428)
    # Address matching only the coordinate-less /32 stays unlocated.
    bare = Endpoint(address="2605:59c8:9999::1", pop_code="", pop_location=None)
    assert geolocate_customer(bare, feed).customer_location is None


def test_geofeed_non_finite_coordinates_count_as_none(tmp_path):
    feed = tmp_path / "geofeed.csv"
    feed.write_text("98.97.0.0/16,US,US-WA,Seattle,nan,-122.3321\n"
                    "98.97.4.0/24,NG,NG-LA,Ajah,6.4698,inf\n"
                    "98.97.5.0/24,NG,NG-LA,Ajah,6.4698,3.5852\n")
    assert [coords for _, coords in load_geofeed(feed)] == [None, None, (6.4698, 3.5852)]
    ep = Endpoint(address="98.97.4.10", pop_code="lgosnga1", pop_location=None)
    assert geolocate_customer(ep, load_geofeed(feed)) == ep


def test_geofeed_coordinates_off_earth_count_as_none(tmp_path):
    feed = tmp_path / "geofeed.csv"
    feed.write_text("98.97.0.0/16,US,US-WA,Seattle,500.0,-122.3321\n"
                    "98.97.4.0/24,NG,NG-LA,Ajah,6.4698,-722.3\n"
                    "98.97.5.0/24,AQ,,Pole,-90.0,180.0\n")
    assert [coords for _, coords in load_geofeed(feed)] == [None, None, (-90.0, 180.0)]
    ep = Endpoint(address="98.97.4.10", pop_code="lgosnga1", pop_location=None)
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
        assert e.pop_location is not None


@given(scan_records())
@settings(max_examples=60)
def test_exclude_peps_output_is_subset(records):
    endpoints, _ = filter_customer_endpoints(records)
    kept, removed = exclude_peps(endpoints, records)
    assert {e.address for e in kept} <= {e.address for e in endpoints}
    assert removed == len(endpoints) - len(kept)
