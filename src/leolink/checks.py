"""Type checks for the fields of outside input, shared by every reader.

A bad field raises the reader's own error class as ``<field>: expected
<what>, got <value!r>``; a good one comes back as it is, never coerced.
"""
from __future__ import annotations

import functools
import ipaddress
import json
import math
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from typing import Iterator


def _json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(value) -> bool:
    return _json_int(value) or isinstance(value, float) and math.isfinite(value)


def _within(bound: float):
    return lambda v: _finite(v) and -bound <= v <= bound


_latitude, _longitude = _within(90), _within(180)


def _ip_address(value) -> bool:
    try:
        return isinstance(value, str) and bool(ipaddress.ip_address(value))
    except ValueError:
        return False


KINDS = {  # kind: (test, what a message says is expected)
    "integer": (_json_int, "an integer"),
    "number": (_finite, "a finite number"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "flag": (lambda v: isinstance(v, bool), "true or false"),
    "object": (lambda v: isinstance(v, dict), "an object"),
    "list": (lambda v: isinstance(v, (list, tuple)), "a list"),
    "latitude": (_latitude, "a latitude within [-90, 90]"),
    "longitude": (_longitude, "a longitude within [-180, 180]"),
    "location": (lambda v: isinstance(v, (list, tuple)) and len(v) == 2
                 and _latitude(v[0]) and _longitude(v[1]), "[latitude, longitude]"),
    "address": (_ip_address, "an IP address"),
    "service": (lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and _json_int(v[0])
                and 0 < v[0] < 65536 and v[1] in ("tcp", "udp"), '[port 1..65535, "tcp" or "udp"]'),
}
_KIND_OF = {int: "integer", float: "number", str: "string", bool: "flag", dict: "object"}


def check(value, kind: str, name: str, error: type[Exception], *, optional: bool = False):
    """``value`` if it is of ``kind`` (or None if ``optional``), else ``error`` naming ``name``."""
    test, wanted = KINDS[kind]
    if test(value) or optional and value is None:
        return value
    if kind in ("latitude", "longitude") and not _finite(value):
        wanted = KINDS["number"][1]  # a coordinate is a number first
    raise error(f"{name}: expected {wanted}{' or null' if optional else ''}, got {value!r}")


def _unwrapped(hint) -> tuple[bool, object]:
    """Whether type ``hint`` is ``Optional``, and the hint it allows besides None."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        [inner] = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        return True, inner
    return False, hint


def read(value, hint, name: str, error: type[Exception]):
    """``value`` checked against type ``hint`` and named ``name``: a scalar as it is,
    a dataclass made from an object (fields ``name.key``), ``tuple[X, ...]`` from
    a list (items ``name[i]``), ``dict`` any object; None only if ``Optional``."""
    optional, hint = _unwrapped(hint)
    if optional and value is None:
        return None
    if is_dataclass(hint):
        return Fields(value, error, f"{name}.").make(hint)
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return tuple(read(v, item, f"{name}[{i}]", error)
                     for i, v in enumerate(check(value, "list", name, error, optional=optional)))
    return check(value, _KIND_OF[hint], name, error, optional=optional)


hints = functools.cache(typing.get_type_hints)  # a class's resolved annotations, once


@functools.cache
def _schema(cls) -> tuple[tuple[str, object, str | None, bool, bool], ...]:
    """(name, type hint, kind, whether Optional, whether required) of each field
    of dataclass ``cls``, worked out once, as a file read per session does no
    type-hint work.  ``kind`` is what a scalar field is checked as: the one its
    ``metadata["kind"]`` declares, else its type's; None for any other field."""
    schema = []
    for f in fields(cls):
        hint = hints(cls)[f.name]
        optional, inner = _unwrapped(hint)
        schema.append((f.name, hint, f.metadata.get("kind") or _KIND_OF.get(inner), optional,
                       f.default is MISSING and f.default_factory is MISSING))
    return tuple(schema)


class Fields:
    """Checked reads of one JSON object's fields, each named after ``where``:
    a file (``"cfg.json: "``) or the object's own field (``"hops[0]."``)."""

    def __init__(self, obj, error: type[Exception], where: str = ""):
        self.error, self.where = error, where
        self.obj = check(obj, "object", where[:-1] if where.endswith(".")
                         else where + "top level", error)

    def only(self, keys) -> "Fields":
        """These fields, if none is outside ``keys``; else ``error`` naming the rest."""
        if unknown := set(self.obj) - set(keys):
            where = self.where[:-1] + ": " if self.where.endswith(".") else self.where
            raise self.error(f"{where}unknown fields {sorted(unknown)}")
        return self

    def make(self, cls):
        """Dataclass ``cls`` of this object's fields, each read as its annotation
        says (see :func:`read`), or checked as the kind of :data:`KINDS` that its
        ``metadata["kind"]`` declares; a field with a default may be absent and
        then takes it, and a field that ``cls`` does not have is refused.  An
        ``error`` from ``cls``'s own checks is named after this object too."""
        self.only(hints(cls))
        values = {name: check(self.obj.get(name), kind, self.where + name, self.error,
                              optional=optional) if kind
                  else read(self.obj.get(name), hint, self.where + name, self.error)
                  for name, hint, kind, optional, required in _schema(cls)
                  if required or name in self.obj}
        try:
            return cls(**values)
        except self.error as exc:
            if self.where:
                raise self.error(f"{self.where}{exc}") from None
            raise


def read_json(path, error: type[Exception], build):
    """``build`` of the :class:`Fields` of the JSON object in file ``path``;
    a file that is not JSON, or a bad field, raises ``error`` naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return build(Fields(json.load(fh), error))
        except (ValueError, error) as exc:  # error, or the file is not JSON
            raise error(f"{path}: {exc}") from None


def utf8(text: str, name: str = "") -> str:
    """``text``, read with ``errors="surrogateescape"``, if each byte it was read
    from was UTF-8; else ValueError naming ``name`` and the first that was not."""
    try:
        text.encode()
    except UnicodeEncodeError as exc:
        raise ValueError(f"{name}{': ' if name else ''}byte {ord(text[exc.start]) - 0xDC00:#04x}"
                         f" at character {exc.start + 1} is not UTF-8") from None
    return text


def text_lines(path, error: type[Exception]) -> Iterator[str]:
    """The lines of text file ``path``, endings kept as ``newline=""`` keeps them;
    a line holding a byte that is not UTF-8 raises ``error`` naming file and line."""
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                yield utf8(line)
            except ValueError as exc:
                raise error(f"{path} line {lineno}: {exc}") from None
