"""Campaign configuration and the append-only measurement store.

A campaign writes each endpoint's session under one partition directory
(normally the run date).  Session files are never rewritten: re-running
a campaign on the same date gets a fresh suffixed partition, and every
artifact records the hash of the configuration that produced it, so any
CSV in the store can be traced back to exact settings.

Layout::

    <root>/<partition>/<endpoint-address>/session.csv
    <root>/<partition>/<endpoint-address>/meta.json
    <root>/reports/                 analysis and report tables, no partition

Plain CSV plus a directory tree keeps the store greppable; the datasets
are small enough that a database would only get in the way.
"""
from __future__ import annotations

import csv
import hashlib
import json
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
from .discovery import Endpoint
from .probe import MeasurementSession, SatLinkPath, _tenths

SCHEMA_VERSION = 2
SESSION_FILENAME = "session.csv"
META_FILENAME = "meta.json"
# One row per tick: each hop's send time (integer ms) and RTT (µs, nan if lost).
SESSION_COLUMNS = ["terrestrial_sent_ms", "terrestrial_rtt_us",
                   "endpoint_sent_ms", "endpoint_rtt_us"]
_PARSERS = (int, float, int, float)  # one per column
_ROW_DTYPE = np.dtype([(name, np.int64 if parse is int else np.float64)
                       for name, parse in zip(SESSION_COLUMNS, _PARSERS)])
_HEADER = (",".join(SESSION_COLUMNS) + "\r\n").encode()
_DIGIT_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), dtype=np.uint16)
_DIGIT_QUADS = np.column_stack((np.repeat(_DIGIT_PAIRS, 100),  # f"{i:04d}" as memory bytes
                                np.tile(_DIGIT_PAIRS, 100))).view(np.uint32).ravel()
REPORTS_DIRNAME = "reports"  # the tables' directory under the root; no partition

TRANSPORTS = ("simnet", "raw")


class StoreError(RuntimeError):
    pass


class ConfigError(ValueError):
    pass


@dataclass
class CampaignConfig:
    """Everything a campaign run needs, loadable from one JSON file.

    Tunable ranges: probe.RANGES, timeout_s (0, 30], jump_threshold_ms > 0.
    ``concurrency`` is how many endpoints a raw campaign probes at once; a
    simnet campaign, which waits on no network, runs one at a time.
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


@dataclass(kw_only=True)
class SessionMeta(Endpoint):
    """A session's ``meta.json``: its fields are the file's keys.  ``transport``,
    ``protocol`` and ``seed`` say how it was measured, when that is known."""

    schema_version: int
    config_hash: str
    pre_sat_ttl: int
    pre_sat_router: str
    post_sat_ttl: int
    jump_ms: float
    start_ms: int
    duration_s: int
    cadence_hz: int
    terrestrial_loss_fraction: float
    transport: Optional[str] = None
    protocol: Optional[str] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("duration_s", "cadence_hz"):
            probe.check_range(name, getattr(self, name), StoreError)


@dataclass(frozen=True)
class SessionRecord:
    partition: str
    address: str
    path: Path

    @cached_property
    def meta(self) -> SessionMeta:
        """The session's ``meta.json``; one that is missing, cannot be read as
        :class:`SessionMeta` or names an address other than its directory's
        raises :class:`StoreError` naming it."""
        path = self.path.parent / META_FILENAME

        def versioned(meta: Fields) -> SessionMeta:  # another version's keys are not ours
            if (version := meta.obj.get("schema_version")) != SCHEMA_VERSION:
                raise StoreError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
            return meta.make(SessionMeta)

        try:
            meta = read_json(path, StoreError, versioned)
        except OSError as exc:
            raise StoreError(f"{path}: {exc}") from None
        if meta.address != self.address:
            raise StoreError(f"{path}: address: expected its directory's name "
                             f"{self.address!r}, got {meta.address!r}")
        return meta


class MeasurementStore:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.reports = self.root / REPORTS_DIRNAME

    def new_partition(self, label: str) -> str:
        """Create a fresh partition directory, suffixing on collision.

        Daily runs on the same date land in ``label``, ``label.1``,
        ``label.2``, ... so no run ever writes into another's tree.
        """
        name = _partition_name(label)
        n = 0
        while (self.root / name).exists():
            n += 1
            name = f"{label}.{n}"
        (self.root / name).mkdir(parents=True)
        return name

    def partitions(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.iterdir() if p.is_dir() and p != self.reports)

    def write_session(self, partition: str, session: MeasurementSession, *, config_hash: str,
                      **campaign) -> Path:
        """Persist one session; refuses to touch an existing one.  ``campaign``
        gives the :class:`SessionMeta` fields of how it was measured.

        Both files are written under temporary names and renamed into
        place, ``session.csv`` last: ``sessions()`` lists a session once
        that name exists, so a failed write leaves no session behind and
        the same partition can be written again.
        """
        ep, path = session.endpoint, session.path
        meta = SessionMeta(
            schema_version=SCHEMA_VERSION, config_hash=config_hash, **asdict(ep),
            pre_sat_ttl=path.pre_sat_ttl, pre_sat_router=path.pre_sat_router,
            post_sat_ttl=path.post_sat_ttl, jump_ms=round(path.jump_ms, 3), start_ms=session.start_ms,
            duration_s=session.duration_s, cadence_hz=session.cadence_hz,
            terrestrial_loss_fraction=round(session.terrestrial_loss_fraction, 6), **campaign)
        endpoint_dir = self.root / partition / ep.address
        endpoint_dir.mkdir(parents=True, exist_ok=True)
        session_path = endpoint_dir / SESSION_FILENAME
        if session_path.exists():
            raise StoreError(f"{session_path} already exists; store is append-only")

        # meta.json's block ends first, so session.csv is renamed into place last
        with replaced(session_path) as fh:
            out = fh.buffer  # the rows are bytes already; the text layer stays empty
            out.write(_HEADER)
            for lo in range(0, session.sent_ms.shape[1], probe.PASS_TICKS):
                chunk = slice(lo, lo + probe.PASS_TICKS)
                tenths = _tenths(session.rtt_us[:, chunk], held=True)
                out.write(_encode_rows(session.sent_ms[:, chunk], tenths))
            with replaced(endpoint_dir / META_FILENAME) as meta_fh:
                json.dump(asdict(meta), meta_fh, indent=2, sort_keys=True)
                meta_fh.write("\n")
        return session_path

    def sessions(self, partition: Optional[str] = None) -> list[SessionRecord]:
        parts = self.partitions() if partition is None else [_partition_name(partition)]
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
        """One stored record as a MeasurementSession, whose own rules check the rows."""
        meta = record.meta
        # a byte that is not UTF-8 reads as U+FFFD, which no cell parses
        with open(record.path, newline="", encoding="utf-8", errors="replace") as fh:
            if fh.readline().rstrip("\r\n").split(",") != SESSION_COLUMNS:
                raise StoreError(f"{record.path} line 1: columns are not {SESSION_COLUMNS}")
            try:
                with warnings.catch_warnings():  # no rows is the tick count's to report
                    warnings.simplefilter("ignore", UserWarning)
                    rows = np.loadtxt(fh, dtype=_ROW_DTYPE, delimiter=",", comments=None,
                                      ndmin=1)
            except ValueError as exc:
                raise StoreError(
                    f"{record.path} line {_first_bad_line(record.path)}: {exc}") from None
        location = meta.customer_location and tuple(meta.customer_location)
        try:
            return MeasurementSession(
                endpoint=Endpoint(address=meta.address, pop_code=meta.pop_code,
                                  source=meta.source, customer_location=location),
                path=SatLinkPath(target=meta.address, pre_sat_ttl=meta.pre_sat_ttl,
                                 pre_sat_router=meta.pre_sat_router,
                                 post_sat_ttl=meta.post_sat_ttl, jump_ms=float(meta.jump_ms)),
                start_ms=meta.start_ms, duration_s=meta.duration_s, cadence_hz=meta.cadence_hz,
                sent_ms=[rows[name] for name in SESSION_COLUMNS[0::2]],
                rtt_us=[rows[name] for name in SESSION_COLUMNS[1::2]])
        except ValueError as exc:
            raise StoreError(f"{record.path}: {exc}") from None


def _partition_name(label: str) -> str:
    """``label`` if it names one plain directory under the store root, other
    than the tables' ``reports``, else StoreError."""
    if label in ("", ".", "..", REPORTS_DIRNAME) or "/" in label or "\0" in label:
        raise StoreError(f"bad partition name: {label!r}")
    return label


def _digits(out: np.ndarray, values: np.ndarray, keep: int) -> None:
    """Write uint64 ``values`` into ``out``, an (n, width) uint8 block wide
    enough for the largest, as right-aligned ASCII digits; leading zeros
    before the last ``keep`` columns become 0 bytes."""
    width = out.shape[1]
    # no value has a leading zero right of the least value's first digit
    head = out[:, :width - max(keep, len(str(values.min())))]
    quads = np.empty((len(values), (width + 3) // 4), dtype=np.uint32)
    for j in range(quads.shape[1] - 1, 0, -1):
        quotient = values // 10_000  # numpy divides by a scalar fast, but not in divmod
        quads[:, j] = _DIGIT_QUADS[values - quotient * 10_000]
        values = quotient
    quads[:, 0] = _DIGIT_QUADS[values]  # the width leaves at most four digits
    out[:] = quads.view(np.uint8)[:, -width:]
    head[np.logical_and.accumulate(head == ord("0"), axis=1)] = 0


def _encode_rows(sent_ms: np.ndarray, tenths: np.ndarray) -> bytes:
    """The ``session.csv`` rows of (2, n) ``sent_ms`` and ``tenths``, the ``_tenths``
    of (2, n) ``rtt_us``: tick k is
    ``f"{sent_ms[0, k]},{rtt_us[0, k]:.1f},{sent_ms[1, k]},{rtt_us[1, k]:.1f}\\r\\n"``.

    Every field is written right-aligned, four digits per table step, into
    one (n, width) uint8 matrix whose unused columns hold 0 bytes, which one
    pass then drops.  RTTs must be below 2**53 tenths of a µs.

    >>> rtt_us = np.array([[0.25, 12.5], [np.nan, 3e7]])
    >>> _encode_rows(np.array([[0, 1000], [2, 1041]]), _tenths(rtt_us))
    b'0,0.2,2,nan\\r\\n1000,12.5,1041,30000000.0\\r\\n'
    """
    lost = np.isnan(tenths)
    # a lost RTT's digits are overwritten by nan: the hop's greatest keeps
    # them from widening the leading zeros _digits must clear
    greatest = np.fmax.reduce(tenths, axis=1, initial=0.0)
    tenths = np.where(lost, greatest[:, None], tenths).astype(np.uint64)
    negative = sent_ms < 0
    magnitude = np.where(negative, -sent_ms.view(np.uint64), sent_ms.view(np.uint64))
    sent_widths = [len(str(m.max())) for m in magnitude]
    rtt_widths = [max(2, len(str(t.max()))) for t in tenths]
    # per hop: sign, send time, comma, RTT digits with the point before the last, end
    rows = np.empty((sent_ms.shape[1], sum(sent_widths) + sum(rtt_widths) + 9), dtype=np.uint8)
    col = 0
    for hop, end in enumerate((b",", b"\r\n")):
        rows[:, col] = np.where(negative[hop], ord("-"), 0)
        _digits(rows[:, col + 1:col + 1 + sent_widths[hop]], magnitude[hop], keep=1)
        col += 1 + sent_widths[hop]
        rows[:, col] = ord(",")
        rtt = rows[:, col + 1:col + 2 + rtt_widths[hop]]
        _digits(rtt[:, :-1], tenths[hop], keep=2)
        rtt[:, -1] = rtt[:, -2]
        rtt[:, -2] = ord(".")
        rtt[lost[hop]] = 0
        rtt[lost[hop], -3:] = np.frombuffer(b"nan", dtype=np.uint8)
        col += 2 + rtt_widths[hop]
        rows[:, col:col + len(end)] = np.frombuffer(end, dtype=np.uint8)
        col += len(end)
    return rows.tobytes().translate(None, b"\0")


def _first_bad_line(path: Path) -> int | str:
    """The line of the first unparsable row of ``session.csv``, for an error
    message: numpy counts rows from 0 in some messages and from 1 in others."""
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        reader = csv.reader(fh)
        next(reader, None)  # the header
        for row in reader:
            try:
                [parse(cell) for parse, cell in zip(_PARSERS, row, strict=True)]
            except ValueError:
                return reader.line_num
    return "?"


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
    except BaseException:  # after a good rename there is no tmp left to remove
        tmp.unlink(missing_ok=True)
        raise


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
