"""The one schema rule: ``Fields.make`` reads a dataclass by its annotations."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import pytest

from leolink.checks import Fields


class BadInput(ValueError):
    pass


@dataclass(frozen=True)
class Point:
    x: float
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.x < 0:
            raise BadInput(f"x: {self.x!r} is negative")


@dataclass(frozen=True)
class Shape:
    points: tuple[Point, ...]
    centre: Point = None  # may be absent, but not null
    weight: float | None = 1.0
    tags: tuple[str, ...] = ()
    extra: dict = field(default_factory=dict)


def make(obj):
    return Fields(obj, BadInput).make(Shape)


def test_make_reads_nested_objects_lists_and_defaults():
    shape = make({"points": [{"x": 1}, {"x": 2.5, "label": None}], "tags": ["a"],
                  "extra": {"any": [1]}, "weight": None})
    assert shape == Shape(points=(Point(1), Point(2.5)), tags=("a",), extra={"any": [1]},
                          weight=None)
    assert make({"points": []}) == Shape(points=())


@pytest.mark.parametrize("obj,message", [
    ({}, "points: expected a list, got None"),
    ({"points": [{"x": 1}, {"x": True}]}, "points[1].x: expected a finite number, got True"),
    ({"points": [{"x": 1, "y": 2}]}, "points[0]: unknown fields ['y']"),
    ({"points": [7]}, "points[0]: expected an object, got 7"),
    ({"points": [], "centre": None}, "centre: expected an object, got None"),
    ({"points": [], "centre": {"x": "0"}}, "centre.x: expected a finite number, got '0'"),
    ({"points": [{"x": 0, "label": 3}]}, "points[0].label: expected a string or null, got 3"),
    ({"points": [], "weight": "1"}, "weight: expected a finite number or null, got '1'"),
    ({"points": [], "tags": "a"}, "tags: expected a list, got 'a'"),
    ({"points": [], "extra": []}, "extra: expected an object, got []"),
    ({"points": [], "colour": "red"}, "unknown fields ['colour']"),
    ({"points": [{"x": 1}, {"x": -1}]}, "points[1].x: -1 is negative"),
], ids=["required_absent", "nested_bool", "nested_unknown", "item_not_object",
        "null_not_optional", "nested_field", "optional_string", "union_form", "tuple_string",
        "dict_list", "unknown_key", "nested_post_init"])
def test_make_names_the_bad_field(obj, message):
    with pytest.raises(BadInput) as err:
        make(obj)
    assert str(err.value) == message
