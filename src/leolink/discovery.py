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

from .checks import check, hints, text_lines, utf8

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


@dataclass(slots=True)
class ScanRecord:
    """One scanned address with its identifying metadata: the schema of a scan
    record, its fields the keys of a JSON-lines record and the columns of a
    CSV row.  Each field is checked and none is coerced.  Lists are held as
    tuples, which the garbage collector stops tracking: a scan has many records."""

    address: str
    ptr: Optional[str] = None
    soa: Optional[str] = None
    tls_names: tuple[str, ...] = ()
    services: tuple[tuple[int, str], ...] = ()  # (port, "tcp" or "udp") each
    asn: int = 0

    def __post_init__(self) -> None:
        check(self.address, "address", "address", ValueError)
        check(self.ptr, "string", "ptr", ValueError, optional=True)
        check(self.soa, "string", "soa", ValueError, optional=True)
        for i, name in enumerate(check(self.tls_names, "list", "tls_names", ValueError)):
            check(name, "string", f"tls_names[{i}]", ValueError)
        for i, service in enumerate(check(self.services, "list", "services", ValueError)):
            check(service, "service", f"services[{i}]", ValueError)
        check(self.asn, "integer", "asn", ValueError)
        self.tls_names, self.services = tuple(self.tls_names), tuple(map(tuple, self.services))


@dataclass(kw_only=True)
class Endpoint:
    """A measurable customer endpoint behind a satellite link, as every stage
    passes it on.  The fields are also the schema of a cohort row and of the
    endpoint in ``meta.json``.  Its POP is located by the catalog of the
    command that needs coordinates."""

    address: str = field(metadata={"kind": "address"})
    pop_code: str = ""
    source: str = SOURCE_STARLINK_PTR
    customer_location: Optional[tuple[float, float]] = field(
        default=None, metadata={"kind": "location"})


def _csv_number(text: str):
    """A CSV cell as a float, or as it is when it is not one, for a check to name."""
    try:
        return float(text)
    except ValueError:
        return text


class PopCatalog:
    """Mapping of POP subdomain codes to city-centre locations.

    Ships with the twenty known POP codes; a user-supplied CSV with the
    same columns (pop_code,city,country,latitude,longitude) overrides it;
    a missing column, a blank or repeated code or a bad coordinate raises
    :class:`DatasetError`.
    Coordinates are city-centre approximations: the reverse DNS names
    only identify the metro area.
    """

    def __init__(self, entries: dict[str, PopLocation]):
        self._entries = dict(entries)

    @classmethod
    def from_csv(cls, path: str | Path) -> "PopCatalog":
        entries: dict[str, PopLocation] = {}
        reader = csv.DictReader(text_lines(path, DatasetError), restval="")
        missing = [c for c in POP_CATALOG_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise DatasetError(f"{path} line 1: missing columns {missing}")
        for row in reader:
            try:
                code = row["pop_code"].strip().lower()
                if not code or code in entries:
                    raise ValueError(f"pop_code: {f'{code!r} repeated' if code else 'blank'}")
                latitude, longitude = (check(_csv_number(row[name]), name, name, ValueError)
                                       for name in ("latitude", "longitude"))
                entries[code] = PopLocation(city=row["city"], country=row["country"],
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


@dataclass(frozen=True)
class PepBlocklist:
    """TLS subject-name substrings identifying performance-enhancing proxies."""

    tls_name_substrings: tuple[str, ...] = DEFAULT_PEP_SUBSTRINGS

    def matches(self, record: ScanRecord) -> bool:
        lowered = [name.lower() for name in record.tls_names]
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


def _integer(text: str):
    """The integer ``text`` spells, else ``text``, for the record to refuse."""
    return int(text) if text.removeprefix("-").isdecimal() else text


def _items(text: str) -> list[str]:
    return [item for item in map(str.strip, text.split(";")) if item]


_CSV_VALUES = {  # a scan CSV column: the JSON value of its key, from a non-blank cell
    "tls_names": _items, "asn": _integer,
    "services": lambda text: [[_integer(port), *proto]
                              for port, *proto in (item.split("/") for item in _items(text))],
}


def _record_from_csv_row(row: dict) -> dict:
    """A scan CSV row as the JSON object of its record, column for key: a blank
    cell is absent, a list is split at ``;`` and a service ``port/proto`` is
    ``[port, proto]``.  A row shorter or longer than the header, or holding a
    byte that is not UTF-8, is refused, and a column that is no key is kept,
    for the record's reader to refuse."""
    if None in row:  # csv.DictReader's key for the cells past the header
        raise ValueError(f"cells past the header: {row[None]}")
    cells = {key: utf8(check(cell, "string", key, ValueError), key).strip()
             for key, cell in row.items()}  # a cell past a short row's end is None
    return {key: _CSV_VALUES.get(key, str)(text) for key, text in cells.items()
            if text or key not in hints(ScanRecord)}


def parse_scan_dataset(path: str | Path, fmt: str = "json_lines") -> tuple[list[ScanRecord], ParseReport]:
    """Parse a scan dataset file, JSON lines or CSV of the same keys, into records.

    Malformed rows, a row holding a byte that is not UTF-8 among them, are
    counted in the report and skipped.  A file that contains rows but yields
    no well-formed record raises DatasetError; a genuinely empty file parses
    to an empty list.
    """
    if fmt not in ("json_lines", "csv"):
        raise ValueError(f"unknown dataset format: {fmt}")
    records: list[ScanRecord] = []
    report = ParseReport()
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        if fmt == "json_lines":
            rows = ((lineno, line) for lineno, line in enumerate(fh, start=1) if line.strip())
            obj_of = lambda line: json.loads(utf8(line))
        else:  # numbered by a row's last line, as a quoted cell may span lines
            reader = csv.DictReader(fh)
            rows, obj_of = ((reader.line_num, row) for row in reader), _record_from_csv_row
        for lineno, row in rows:
            report.total_rows += 1
            try:
                obj = check(obj_of(row), "object", "record", ValueError)
                if unknown := obj.keys() - hints(ScanRecord).keys():
                    raise ValueError(f"record: unknown fields {sorted(unknown)}")
                records.append(ScanRecord(**{"address": None, **obj}))  # no address reads null
            except ValueError as exc:
                report.note_error(lineno, str(exc))
    if report.total_rows > 0 and not records:
        raise DatasetError(f"{path}: no well-formed rows among {report.total_rows}, "
                           f"the first at {report.errors[0]}")
    return records, report


def match_customer_ptr(ptr: Optional[str]) -> Optional[str]:
    """Return the POP code if the PTR matches the customer pattern."""
    if not ptr:
        return None
    m = CUSTOMER_PTR_RE.match(ptr.strip())
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
    pops: dict[str, set[str]] = {}  # address: the POP codes its PTRs name, first seen first
    for rec in records:
        if (pop := match_customer_ptr(rec.ptr)) is not None:
            pops.setdefault(rec.address, set()).add(pop)
    endpoints: list[Endpoint] = []
    for address, (pop, *others) in pops.items():
        if others:
            report.ambiguous.append(address)
        elif pop not in catalog:
            report.unknown_pop.append((address, pop))
        else:
            endpoints.append(Endpoint(address=address, pop_code=pop))
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
    flagged = {rec.address for rec in records if blocklist.matches(rec)}
    kept = [ep for ep in endpoints if ep.address not in flagged]
    return kept, len(endpoints) - len(kept)


def filter_oneweb_customers(records: Iterable[ScanRecord]) -> tuple[list[Endpoint], int]:
    """Blocklist-style discovery for providers without customer PTR labels.

    Keeps records whose PTR or SOA name contains neither the provider
    domain nor any RIR domain.  Records lacking both names cannot be
    classified and are excluded; their count is returned alongside.
    """
    blocked = (ONEWEB_DOMAIN, *RIR_DOMAINS)
    kept: dict[str, None] = {}  # addresses, first seen first
    unclassifiable = 0
    for rec in records:
        names = [n.lower() for n in (rec.ptr, rec.soa) if n]
        if not names:
            unclassifiable += 1
        elif not any(dom in name for name in names for dom in blocked):
            kept[rec.address] = None
    return [Endpoint(address=a, source=SOURCE_ONEWEB_BLOCKLIST) for a in kept], unclassifiable


def load_geofeed(path: str | Path) -> list[tuple[ipaddress._BaseNetwork, Optional[tuple[float, float]]]]:
    """Geofeed CSV: prefix,country,region,city[,latitude,longitude]."""
    rows: list[tuple[ipaddress._BaseNetwork, Optional[tuple[float, float]]]] = []
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            try:  # a row holding a byte that is not UTF-8 is skipped too
                utf8("".join(row))
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
