"""Discovery of satellite-routed customer endpoints in internet scan data.

The input is a scan dataset (one record per address: PTR/SOA names, TLS
certificate subject names, open services, origin ASN).  Output is a list
of customer endpoints annotated with the provider point of presence (POP)
that their reverse DNS names, plus optional customer geolocation from a
geofeed.  Two discovery paths exist:

* PTR pattern match against ``customer.<pop>.pop.starlinkisp.net``.
* A name blocklist for providers whose customer reverse zones are not
  labelled (records whose PTR/SOA name neither the provider domain nor
  a regional internet registry).

Performance-enhancing proxies (PEPs) terminate TCP and answer probes
themselves, so endpoints whose TLS certificates name a known PEP vendor
are excluded before measurement.
"""
from __future__ import annotations

import csv
import ipaddress
import json
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .checks import check

CUSTOMER_PTR_RE = re.compile(
    r"^customer\.(?P<pop>[a-z0-9]+)\.pop\.starlinkisp\.net\.?$", re.IGNORECASE
)

# Regional internet registries; reverse zones delegated to these indicate
# infrastructure rather than customer terminals.
RIR_DOMAINS = ("afrinic", "arin", "apnic", "lacnic", "ripe")

ONEWEB_DOMAIN = "oneweb"

DEFAULT_PEP_SUBSTRINGS = ("peplink",)
POP_CATALOG_COLUMNS = ("pop_code", "city", "country", "latitude", "longitude")
MAX_KEPT_ERRORS = 20  # malformed-row messages a ParseReport keeps; it counts all

SOURCE_STARLINK_PTR = "starlink_ptr"
SOURCE_ONEWEB_BLOCKLIST = "oneweb_blocklist"


class DatasetError(ValueError):
    """Raised when a scan dataset contains no usable rows."""


@dataclass(frozen=True)
class PopLocation:
    city: str
    country: str
    latitude: float
    longitude: float


@dataclass(frozen=True)
class ScanRecord:
    """One scanned address with its identifying metadata."""

    address: str
    ptr_name: Optional[str] = None
    soa_name: Optional[str] = None
    tls_subject_names: tuple[str, ...] = ()
    open_services: tuple[tuple[int, str], ...] = ()
    asn: int = 0

    def __post_init__(self) -> None:
        ipaddress.ip_address(self.address)  # raises ValueError on junk
        for port, proto in self.open_services:
            if not 0 < int(port) < 65536:
                raise ValueError(f"port out of range: {port}")
            if proto not in ("tcp", "udp"):
                raise ValueError(f"unknown protocol: {proto}")


@dataclass(frozen=True)
class Endpoint:
    """A measurable customer endpoint behind a satellite link."""

    address: str
    pop_code: str
    pop_location: Optional[PopLocation]
    customer_location: Optional[tuple[float, float]] = None
    source: str = SOURCE_STARLINK_PTR


class PopCatalog:
    """Mapping of POP subdomain codes to city-centre locations.

    Ships with the twenty known POP codes; a user-supplied CSV with the
    same columns (pop_code,city,country,latitude,longitude) overrides it;
    a missing column or a bad coordinate raises :class:`DatasetError`.
    Coordinates are city-centre approximations: the reverse DNS names
    only identify the metro area.
    """

    def __init__(self, entries: dict[str, PopLocation]):
        self._entries = dict(entries)

    @classmethod
    def from_csv(cls, path: str | Path) -> "PopCatalog":
        entries: dict[str, PopLocation] = {}
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh, restval="")
            missing = [c for c in POP_CATALOG_COLUMNS if c not in (reader.fieldnames or ())]
            if missing:
                raise DatasetError(f"{path} line 1: missing columns {missing}")
            for row in reader:
                try:
                    latitude = check(float(row["latitude"]), "latitude", "latitude",
                                     ValueError)
                    longitude = check(float(row["longitude"]), "longitude", "longitude",
                                      ValueError)
                    entries[row["pop_code"].strip().lower()] = PopLocation(
                        city=row["city"], country=row["country"],
                        latitude=latitude, longitude=longitude)
                except ValueError as exc:
                    raise DatasetError(f"{path} line {reader.line_num}: {exc}") from None
        return cls(entries)

    @classmethod
    def default(cls) -> "PopCatalog":
        ref = resources.files("leolink.data").joinpath("pop_catalog.csv")
        with resources.as_file(ref) as path:
            return cls.from_csv(path)

    def __contains__(self, code: str) -> bool:
        return code.lower() in self._entries

    def __getitem__(self, code: str) -> PopLocation:
        return self._entries[code.lower()]

    def __len__(self) -> int:
        return len(self._entries)

    def codes(self) -> list[str]:
        return sorted(self._entries)


@dataclass(frozen=True)
class PepBlocklist:
    """TLS subject-name substrings identifying performance-enhancing proxies."""

    tls_name_substrings: tuple[str, ...] = DEFAULT_PEP_SUBSTRINGS

    def matches(self, record: ScanRecord) -> bool:
        lowered = [name.lower() for name in record.tls_subject_names]
        return any(sub.lower() in name for name in lowered for sub in self.tls_name_substrings)


@dataclass
class ParseReport:
    total_rows: int = 0
    malformed: int = 0
    errors: list[str] = field(default_factory=list)

    def note_error(self, lineno: int, message: str) -> None:
        self.malformed += 1
        if len(self.errors) < MAX_KEPT_ERRORS:
            self.errors.append(f"row {lineno}: {message}")


@dataclass
class FilterReport:
    """Rows the PTR filter saw but could not turn into endpoints."""

    unknown_pop: list[tuple[str, str]] = field(default_factory=list)  # (address, pop_code)
    ambiguous: list[str] = field(default_factory=list)  # addresses with conflicting POPs


def _record_from_dict(obj: dict) -> ScanRecord:
    services = tuple((int(p), str(proto)) for p, proto in obj.get("services", []))
    tls_names = tuple(str(n) for n in obj.get("tls_names", []))
    return ScanRecord(
        address=str(obj["address"]),
        ptr_name=obj.get("ptr") or None,
        soa_name=obj.get("soa") or None,
        tls_subject_names=tls_names,
        open_services=services,
        asn=int(obj.get("asn", 0)),
    )


def _record_from_csv_row(row: dict) -> ScanRecord:
    services = []
    for item in (row.get("services") or "").split(";"):
        item = item.strip()
        if item:
            port, proto = item.split("/")
            services.append((int(port), proto))
    tls_names = tuple(n for n in (row.get("tls_names") or "").split(";") if n)
    return ScanRecord(
        address=row["address"].strip(),
        ptr_name=(row.get("ptr") or "").strip() or None,
        soa_name=(row.get("soa") or "").strip() or None,
        tls_subject_names=tls_names,
        open_services=tuple(services),
        asn=int(row.get("asn") or 0),
    )


def parse_scan_dataset(path: str | Path, fmt: str = "json_lines") -> tuple[list[ScanRecord], ParseReport]:
    """Parse a scan dataset file into records.

    Malformed rows are counted in the report and skipped.  A file that
    contains rows but yields no well-formed record raises DatasetError;
    a genuinely empty file parses to an empty list.
    """
    if fmt not in ("json_lines", "csv"):
        raise ValueError(f"unknown dataset format: {fmt}")
    records: list[ScanRecord] = []
    report = ParseReport()
    with open(path, newline="", encoding="utf-8") as fh:
        if fmt == "json_lines":
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                report.total_rows += 1
                try:
                    records.append(_record_from_dict(json.loads(line)))
                except (ValueError, KeyError, TypeError) as exc:
                    report.note_error(lineno, str(exc))
        else:
            reader = csv.DictReader(fh)
            for lineno, row in enumerate(reader, start=2):
                report.total_rows += 1
                try:
                    records.append(_record_from_csv_row(row))
                except (ValueError, KeyError, TypeError) as exc:
                    report.note_error(lineno, str(exc))
    if report.total_rows > 0 and not records:
        raise DatasetError(f"{path}: no well-formed rows among {report.total_rows}")
    return records, report


def match_customer_ptr(ptr_name: Optional[str]) -> Optional[str]:
    """Return the POP code if the PTR matches the customer pattern."""
    if not ptr_name:
        return None
    m = CUSTOMER_PTR_RE.match(ptr_name.strip())
    return m.group("pop").lower() if m else None


def filter_customer_endpoints(
    records: Iterable[ScanRecord],
    catalog: Optional[PopCatalog] = None,
) -> tuple[list[Endpoint], FilterReport]:
    """Keep records whose PTR matches the customer pattern, one endpoint
    per unique address.

    An address seen with two different POP codes is ambiguous and
    excluded.  Pattern matches whose POP code is missing from the
    catalog are reported, not silently dropped.
    """
    catalog = catalog or PopCatalog.default()
    report = FilterReport()
    by_address: dict[str, str] = {}
    excluded: set[str] = set()
    order: list[str] = []
    for rec in records:
        pop = match_customer_ptr(rec.ptr_name)
        if pop is None:
            continue
        seen = by_address.get(rec.address)
        if seen is None:
            by_address[rec.address] = pop
            order.append(rec.address)
        elif seen != pop:
            excluded.add(rec.address)
    endpoints: list[Endpoint] = []
    for address in order:
        pop = by_address[address]
        if address in excluded:
            report.ambiguous.append(address)
            continue
        if pop not in catalog:
            report.unknown_pop.append((address, pop))
            continue
        endpoints.append(Endpoint(
            address=address,
            pop_code=pop,
            pop_location=catalog[pop],
            source=SOURCE_STARLINK_PTR,
        ))
    return endpoints, report


def exclude_peps(
    endpoints: Sequence[Endpoint],
    records: Iterable[ScanRecord],
    blocklist: Optional[PepBlocklist] = None,
) -> tuple[list[Endpoint], int]:
    """Drop endpoints whose TLS certificates name a PEP vendor.

    Matching is case-insensitive substring search over the record's TLS
    subject names.  An endpoint without TLS names is never removed.  An
    empty blocklist removes nothing.  Returns (kept, removed_count).
    """
    blocklist = blocklist or PepBlocklist()
    if not blocklist.tls_name_substrings:
        return list(endpoints), 0
    flagged: set[str] = set()
    for rec in records:
        if rec.tls_subject_names and blocklist.matches(rec):
            flagged.add(rec.address)
    kept = [ep for ep in endpoints if ep.address not in flagged]
    return kept, len(endpoints) - len(kept)


def filter_oneweb_customers(records: Iterable[ScanRecord]) -> tuple[list[Endpoint], int]:
    """Blocklist-style discovery for providers without customer PTR labels.

    Keeps records whose PTR or SOA name contains neither the provider
    domain nor any RIR domain.  Records lacking both names cannot be
    classified and are excluded; their count is returned alongside.
    """
    blocked = (ONEWEB_DOMAIN, *RIR_DOMAINS)
    endpoints: list[Endpoint] = []
    unclassifiable = 0
    seen: set[str] = set()
    for rec in records:
        names = [n.lower() for n in (rec.ptr_name, rec.soa_name) if n]
        if not names:
            unclassifiable += 1
            continue
        if any(dom in name for name in names for dom in blocked):
            continue
        if rec.address in seen:
            continue
        seen.add(rec.address)
        endpoints.append(Endpoint(
            address=rec.address,
            pop_code="",
            pop_location=None,
            source=SOURCE_ONEWEB_BLOCKLIST,
        ))
    return endpoints, unclassifiable


def load_geofeed(path: str | Path) -> list[tuple[ipaddress._BaseNetwork, Optional[tuple[float, float]]]]:
    """Geofeed CSV: prefix,country,region,city[,latitude,longitude]."""
    rows: list[tuple[ipaddress._BaseNetwork, Optional[tuple[float, float]]]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            try:
                net = ipaddress.ip_network(row[0].strip(), strict=False)
            except ValueError:
                continue
            try:  # absent, blank, unparsable or non-finite coordinates count as none
                coords = check((float(row[4]), float(row[5])), "location", "coordinates",
                               ValueError)
            except (IndexError, ValueError):
                coords = None
            rows.append((net, coords))
    return rows


def geolocate_customer(endpoint: Endpoint, geofeed: Sequence[tuple]) -> Endpoint:
    """Attach customer coordinates from the longest matching prefix of the
    rows :func:`load_geofeed` read once; a linear scan is fine at cohort
    sizes.  If the best row carries no coordinates the endpoint is
    returned unchanged."""
    address = ipaddress.ip_address(endpoint.address)
    best_len = -1
    best_coords: Optional[tuple[float, float]] = None
    for net, coords in geofeed:
        if net.version == address.version and address in net and net.prefixlen > best_len:
            best_len = net.prefixlen
            best_coords = coords
    if best_len < 0 or best_coords is None:
        return endpoint
    return replace(endpoint, customer_location=best_coords)
