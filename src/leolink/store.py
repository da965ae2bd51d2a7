"""Campaign configuration and the append-only measurement store.

A campaign writes each endpoint's session under one partition directory
(normally the run date).  Session files are never rewritten: re-running
a campaign on the same date gets a fresh suffixed partition, and every
artifact records the hash of the configuration that produced it, so any
CSV in the store can be traced back to exact settings.

Layout::

    <root>/<partition>/<endpoint-address>/session.csv
    <root>/<partition>/<endpoint-address>/meta.json

Plain CSV plus a directory tree keeps the store greppable; the datasets
are small enough that a database would only get in the way.
"""
from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import probe
from .checks import Fields, hints, read, read_json
from .discovery import SOURCE_STARLINK_PTR, Endpoint, PopCatalog
from .probe import MeasurementSession, SatLinkPath

SCHEMA_VERSION = 1
SESSION_FILENAME = "session.csv"
META_FILENAME = "meta.json"
SESSION_COLUMNS = ["timestamp_ms", "target", "hop_ttl", "rtt_us", "lost"]
# The session.csv columns read back: timestamp_ms, hop_ttl, rtt_us.
_ROW_DTYPE = np.dtype([("sent_ms", np.int64), ("ttl", np.int64), ("rtt_us", np.float64)])
_WRITE_CHUNK_ROWS = 8192  # session.csv rows formatted at a time

TRANSPORTS = ("simnet", "raw")


class StoreError(RuntimeError):
    pass


class ConfigError(ValueError):
    pass


@dataclass
class CampaignConfig:
    """Everything a campaign run needs, loadable from one JSON file.

    Tunable ranges: probe.RANGES, timeout_s (0, 30], jump_threshold_ms > 0.
    """

    transport: str
    output_dir: str
    scenario_dir: Optional[str] = None
    endpoints_file: Optional[str] = None
    partition_label: str = ""
    cadence_hz: int = probe.DEFAULT_CADENCE_HZ
    duration_s: int = 600
    concurrency: int = 8
    jump_threshold_ms: float = probe.DEFAULT_JUMP_THRESHOLD_MS
    probes_per_hop: int = probe.DEFAULT_PROBES_PER_HOP
    max_ttl: int = probe.DEFAULT_MAX_TTL
    timeout_s: float = probe.DEFAULT_PROBE_TIMEOUT_S
    protocol: str = "icmp"
    exclude_file: Optional[str] = None

    def __post_init__(self) -> None:
        for name, hint in hints(CampaignConfig).items():
            read(getattr(self, name), hint, name, ConfigError)
        if self.transport not in TRANSPORTS:
            raise ConfigError(f"transport: must be one of {TRANSPORTS}")
        if self.transport == "simnet" and not self.scenario_dir:
            raise ConfigError("scenario_dir: required for the simnet transport")
        if self.transport == "raw" and not self.endpoints_file:
            raise ConfigError("endpoints_file: required for the raw transport")
        if not self.output_dir:
            raise ConfigError("output_dir: must be set")
        for name in probe.RANGES:
            probe.check_range(name, getattr(self, name), ConfigError)
        if not self.jump_threshold_ms > 0:
            raise ConfigError("jump_threshold_ms: must be positive")
        if not 0 < self.timeout_s <= 30:
            raise ConfigError("timeout_s: must be in (0, 30]")
        if self.protocol not in probe.PROTOCOLS:
            raise ConfigError(f"protocol: must be one of {probe.PROTOCOLS}")

    @classmethod
    def from_json(cls, path: str | Path) -> "CampaignConfig":
        try:
            return read_json(path, ConfigError, lambda config: config.make(cls))
        except OSError as exc:
            raise ConfigError(f"cannot load {path}: {exc}") from exc

    def config_hash(self) -> str:
        # Where the store lives and how many endpoints are probed at once
        # do not change what was measured, so two campaigns with the same
        # probing parameters hash identically.
        params = asdict(self)
        del params["output_dir"], params["concurrency"]
        return params_hash(params)


def params_hash(params: dict) -> str:
    """The 12-hex-digit provenance hash of a JSON-able dict, as artifacts record it."""
    blob = json.dumps(params, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass(frozen=True)
class SessionRecord:
    partition: str
    address: str
    path: Path

    @property
    def meta_path(self) -> Path:
        return self.path.parent / META_FILENAME

    @cached_property
    def meta(self) -> dict:
        """The session's ``meta.json``, ``{}`` if there is none; one that
        cannot be read as a JSON object raises :class:`StoreError` naming it."""
        if not self.meta_path.is_file():
            return {}
        try:
            return read_json(self.meta_path, StoreError, lambda meta: meta.obj)
        except OSError as exc:
            raise StoreError(f"{self.meta_path}: {exc}") from None


class MeasurementStore:
    def __init__(self, root: str | Path):
        self.root = Path(root)

    def new_partition(self, label: str) -> str:
        """Create a fresh partition directory, suffixing on collision.

        Daily runs on the same date land in ``label``, ``label.1``,
        ``label.2``, ... so no run ever writes into another's tree.
        """
        if not label or "/" in label:
            raise StoreError(f"bad partition label: {label!r}")
        name = label
        n = 0
        while (self.root / name).exists():
            n += 1
            name = f"{label}.{n}"
        (self.root / name).mkdir(parents=True)
        return name

    def partitions(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.iterdir() if p.is_dir())

    def write_session(
        self,
        partition: str,
        session: MeasurementSession,
        *,
        config_hash: str,
        extra_meta: Optional[dict] = None,
    ) -> Path:
        """Persist one session; refuses to touch an existing one.

        Both files are written under temporary names and renamed into
        place, ``session.csv`` last: ``sessions()`` lists a session once
        that name exists, so a failed write leaves no session behind and
        the same partition can be written again.
        """
        endpoint_dir = self.root / partition / session.endpoint.address
        endpoint_dir.mkdir(parents=True, exist_ok=True)
        session_path = endpoint_dir / SESSION_FILENAME
        if session_path.exists():
            raise StoreError(f"{session_path} already exists; store is append-only")

        ep = session.endpoint
        meta = {
            "schema_version": SCHEMA_VERSION,
            "config_hash": config_hash,
            "address": ep.address,
            "pop_code": ep.pop_code,
            "source": ep.source,
            "customer_location": list(ep.customer_location) if ep.customer_location else None,
            "pre_sat_ttl": session.path.pre_sat_ttl,
            "pre_sat_router": session.path.pre_sat_router,
            "post_sat_ttl": session.path.post_sat_ttl,
            "jump_ms": round(session.path.jump_ms, 3),
            "start_ms": session.start_ms,
            "duration_s": session.duration_s,
            "cadence_hz": session.cadence_hz,
            "n_terrestrial": session.sent_ms.shape[1],
            "n_endpoint": session.sent_ms.shape[1],
            "terrestrial_loss_fraction": round(session.terrestrial_loss_fraction, 6),
        }
        if extra_meta:
            meta.update(extra_meta)

        target = session.path.target
        if any(c in target for c in ',"\r\n'):  # quoted as csv.writer would
            target = '"' + target.replace('"', '""') + '"'
        # Rows in send order; at equal timestamps the terrestrial hop's
        # smaller TTL goes first, as it was probed first.
        sent_ms, rtt_us = session.sent_ms.ravel(), session.rtt_us.ravel()
        ttls = np.repeat([session.path.pre_sat_ttl, session.path.post_sat_ttl],
                         session.sent_ms.shape[1])
        order = np.lexsort((ttls, sent_ms))  # stable
        # meta.json's block ends first, so session.csv is renamed into place last
        with replaced(session_path) as fh:
            fh.write(",".join(SESSION_COLUMNS) + "\r\n")
            # in chunks, so a day-long session's rows are never all Python objects
            for lo in range(0, len(order), _WRITE_CHUNK_ROWS):
                rows = order[lo:lo + _WRITE_CHUNK_ROWS]
                fh.writelines(
                    f"{t},{target},{ttl},,true\r\n" if math.isnan(rtt)
                    else f"{t},{target},{ttl},{rtt:.1f},false\r\n"
                    for t, ttl, rtt in zip(sent_ms[rows].tolist(), ttls[rows].tolist(),
                                           rtt_us[rows].tolist()))
            with replaced(endpoint_dir / META_FILENAME) as meta_fh:
                json.dump(meta, meta_fh, indent=2, sort_keys=True)
                meta_fh.write("\n")
        return session_path

    def sessions(self, partition: Optional[str] = None) -> list[SessionRecord]:
        parts = [partition] if partition else self.partitions()
        out: list[SessionRecord] = []
        for part in parts:
            pdir = self.root / part
            if not pdir.is_dir():
                raise StoreError(f"no such partition: {part}")
            for epdir in sorted(p for p in pdir.iterdir() if p.is_dir()):
                spath = epdir / SESSION_FILENAME
                if spath.is_file():
                    out.append(SessionRecord(partition=part, address=epdir.name, path=spath))
        return out

    def read_session(self, record: SessionRecord) -> MeasurementSession:
        """Rebuild a MeasurementSession from one stored record: the k-th row
        of each hop is tick k, so the session's pairing rule checks the rows."""
        meta = record.meta
        if meta.get("schema_version") != SCHEMA_VERSION:
            raise StoreError(
                f"{record.path}: schema {meta.get('schema_version')!r}, "
                f"expected {SCHEMA_VERSION}")
        field = Fields(meta, StoreError, f"{record.meta_path}: ")
        endpoint = endpoint_from_meta(meta, where=field.where)
        path = SatLinkPath(target=endpoint.address, pre_sat_ttl=field("pre_sat_ttl", "integer"),
                           pre_sat_router=field("pre_sat_router", "string"),
                           post_sat_ttl=field("post_sat_ttl", "integer"),
                           jump_ms=float(field("jump_ms", "number")))
        counts = {hop: field(f"n_{hop}", "integer") for hop in ("terrestrial", "endpoint")}
        start_ms, duration_s, cadence_hz = (field(name, "integer")
                                            for name in ("start_ms", "duration_s", "cadence_hz"))
        for name, value in (("duration_s", duration_s), ("cadence_hz", cadence_hz)):
            probe.check_range(name, value, StoreError, field.where)
        with open(record.path, newline="", encoding="utf-8") as fh:
            if fh.readline().rstrip("\r\n").split(",") != SESSION_COLUMNS:
                raise StoreError(f"{record.path} line 1: columns are not {SESSION_COLUMNS}")
            try:
                with warnings.catch_warnings():  # no rows is the count check's to report
                    warnings.simplefilter("ignore", UserWarning)
                    rows = np.loadtxt(fh, dtype=_ROW_DTYPE, delimiter=",", quotechar='"',
                                      comments=None, usecols=(0, 2, 3), ndmin=1,
                                      converters={3: lambda rtt: float(rtt or "nan")})
            except ValueError as exc:
                raise StoreError(
                    f"{record.path} line {_first_bad_line(record.path)}: {exc}") from None
        ttl = rows["ttl"]
        alien = ttl[(ttl != path.pre_sat_ttl) & (ttl != path.post_sat_ttl)]
        if len(alien):
            raise StoreError(f"{record.path}: hop_ttl {alien[0]} matches "
                             f"neither side of the recorded path")
        terr, endp = rows[ttl == path.pre_sat_ttl], rows[ttl == path.post_sat_ttl]
        for hop, hop_rows in (("terrestrial", terr), ("endpoint", endp)):
            if len(hop_rows) != counts[hop]:
                raise StoreError(f"{record.path}: {len(hop_rows)} {hop} rows, "
                                 f"meta.json records {counts[hop]}")
        try:
            return MeasurementSession(
                endpoint=endpoint, path=path, start_ms=start_ms, duration_s=duration_s,
                cadence_hz=cadence_hz, sent_ms=[terr["sent_ms"], endp["sent_ms"]],
                rtt_us=[terr["rtt_us"], endp["rtt_us"]])
        except ValueError as exc:
            raise StoreError(f"{record.path}: {exc}") from None


def _first_bad_line(path: Path) -> int | str:
    """The line of the first unparsable row of ``session.csv``, for an error message."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for row in itertools.islice(reader, 1, None):
            try:
                int(row[0]), int(row[2]), float(row[3] or "nan")
            except (IndexError, ValueError):
                return reader.line_num
    return "?"


def endpoint_from_meta(meta: dict, catalog: Optional[PopCatalog] = None, *,
                       where: str = "") -> Endpoint:
    """The endpoint a ``meta.json``, cohort row or scenario describes, located by
    ``catalog``: the one checked way to build one from outside data.  A field of
    the wrong type raises :class:`StoreError` naming it after ``where``."""
    field = Fields(meta, StoreError, where)
    pop_code = field("pop_code", "string", "")
    loc = field("customer_location", "location", optional=True)
    return Endpoint(
        address=field("address", "string"),
        pop_code=pop_code,
        pop_location=catalog[pop_code] if catalog and pop_code in catalog else None,
        customer_location=tuple(loc) if loc else None,
        source=field("source", "string", SOURCE_STARLINK_PTR),
    )


@contextmanager
def replaced(path: Path) -> Iterator[IO[str]]:
    """A text file to write ``path``'s new content into: it is written under
    ``path.tmp`` and renamed over ``path`` only when the block ends without
    an error, so a reader sees the old file or the whole new one."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_report_csv(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    *,
    config_hash: str,
) -> None:
    """Report CSV with a provenance comment naming the config hash, written
    whole or not at all."""
    with replaced(Path(path)) as fh:
        fh.write(f"# config_hash={config_hash}\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def read_report_csv(path: str | Path) -> tuple[str, list[str], list[list[str]]]:
    """Returns (config_hash, header, rows) for a report written above."""
    with open(path, newline="", encoding="utf-8") as fh:
        first = fh.readline().strip()
        if not first.startswith("# config_hash="):
            raise StoreError(f"{path}: missing provenance comment")
        config_hash = first.split("=", 1)[1]
        reader = csv.reader(fh)
        header = next(reader, [])
        return config_hash, list(header), [list(r) for r in reader]
