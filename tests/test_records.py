"""The record classes keep the behaviour of frozen dataclasses: keyword and
positional fields with defaults, __post_init__ checks, field-wise equality
and hashing, frozen fields and the Name(field=value, ...) repr."""

import importlib
import math
import pathlib

import numpy as np
import pytest

from relhpe.camera import CameraPose
from relhpe.errors import DomainError, EmptyRange
from relhpe.geometry import EulerAngles
from relhpe.harness import MetricReport, QueryBatch
from relhpe.records import Record
from relhpe.rotation import Rotation
from relhpe.simulate import NoiseModel

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "relhpe"

ARRAY = np.arange(3.0)  # one object, so that fields holding it compare equal

# class name -> arguments for every field, in field order
EXAMPLES = {
    "AnchorPolicy": ("nearest_within", 10.0),
    "AnchorArrays": (ARRAY, ARRAY),
    "CameraPose": ((1.0, 2.0, 3.0), Rotation(1.0, 0.0, 0.0, 0.0), 1.0, 1.2),
    "Intrinsics": (500.0, 510.0, 320.0, 240.0, 640.0, 480.0),
    "CropSpec": (10.0, 20.0, 100.0, 64.0),
    "EulerAngles": (10.0, -20.0, 30.0, False),
    "SE3Pose": (Rotation(0.5, 0.5, 0.5, 0.5), (1.0, 2.0, 3.0), "rgb"),
    "PairSet": ("hard", (("a", "b", 1.5),), 7),
    "MetricReport": (1.0, 2.0, 3.0, 2.0, 4.0, 5, (0.1, 0.2, 0.3), 0.4),
    "SweepBin": (0.0, 5.0, {}, 3),
    "SweepReport": ("anchor_query_gap", 5.0, (), 10, 2),
    "QueryBatch": ("s", ["f1"], (ARRAY,), (ARRAY,), (ARRAY,), {}),
    "LossConfig": (1.0, 2.0, 0.5, 0.7, "geodesic"),
    "StagePrediction": (1, None, None),
    "StageBreakdown": (1, 0.5, 1.0, 2.0, 3.0),
    "Rotation": (0.5, 0.5, 0.5, 0.5),
    "NoiseModel": (1.0, 0.1, 2.0, 3),
    "PoseSampler": ((-1.0, 1.0), (-2.0, 2.0), (-3.0, 3.0), (-4.0, 4.0), 5, 2, 1),
}


def _records():
    """Every Record subclass defined in a module of the package."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"relhpe.{path.stem}")
        found += [value for value in vars(module).values()
                  if isinstance(value, type) and issubclass(value, Record)
                  and value is not Record and value.__module__ == module.__name__]
    return found


RECORDS = _records()


def _fields(cls):
    return list(cls.__annotations__)


def _values(record):
    return tuple(getattr(record, name) for name in _fields(type(record)))


def _outcome(thunk):
    """What thunk returns, or the type of the exception it raises."""
    try:
        return thunk()
    except Exception as exc:  # the outcome is compared, not raised
        return type(exc)


def test_every_record_has_an_example():
    assert sorted(cls.__name__ for cls in RECORDS) == sorted(EXAMPLES)


@pytest.fixture(params=RECORDS, ids=lambda cls: cls.__name__)
def record_class(request):
    return request.param


def test_positional_and_keyword_fields(record_class):
    args = EXAMPLES[record_class.__name__]
    by_position = record_class(*args)
    by_keyword = record_class(**dict(zip(_fields(record_class), args)))
    assert len(_fields(record_class)) == len(args)
    for a, b in zip(_values(by_position), _values(by_keyword)):
        assert a is b or np.array_equal(a, b)


def test_equal_fields_compare_and_hash_equal(record_class):
    """Records compare and hash as their field tuples do: an array field
    compares equal only to itself, and a list or dict field has no hash."""
    args = EXAMPLES[record_class.__name__]
    a, b = record_class(*args), record_class(*args)
    assert _outcome(lambda: a == b) == _outcome(lambda: _values(a) == _values(b))
    assert _outcome(lambda: hash(a)) == _outcome(lambda: hash(_values(a)))
    assert a == a
    assert a != args and a != object()


def test_fields_are_frozen(record_class):
    record = record_class(*EXAMPLES[record_class.__name__])
    before = _values(record)
    for name in _fields(record_class) + ["other"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert all(a is b for a, b in zip(_values(record), before))


def test_repr(record_class):
    record = record_class(*EXAMPLES[record_class.__name__])
    fields = ", ".join(f"{name}={getattr(record, name)!r}"
                       for name in _fields(record_class))
    assert repr(record) == f"{record_class.__name__}({fields})"


def test_missing_or_unknown_argument(record_class):
    args = EXAMPLES[record_class.__name__]
    first = _fields(record_class)[0]
    for call in (lambda: record_class(*args, bogus=1),
                 lambda: record_class(*args, args[-1]),
                 lambda: record_class(*args, **{first: args[0]}),
                 lambda: record_class(**{first: args[0], "bogus": 1})):
        with pytest.raises(TypeError):
            call()
    if not hasattr(record_class, first):  # the first field has no default
        with pytest.raises(TypeError):
            record_class()


def test_defaults_fill_the_missing_fields():
    assert EulerAngles(1.0, 2.0, 3.0).gimbal_lock is False
    assert MetricReport.empty() == MetricReport(0.0, 0.0, 0.0, 0.0, 0.0, 0, None, None)
    assert NoiseModel(seed=2) == NoiseModel(0.0, 0.0, 0.0, 2) != NoiseModel(seed=3)
    assert hash(NoiseModel(seed=2)) == hash((0.0, 0.0, 0.0, 2))
    first, second = (QueryBatch("s", [], (), (), ()) for _ in range(2))
    assert first.streams == {} and first.streams is not second.streams


@pytest.mark.parametrize("module, name, kwargs, error, match", [
    ("anchors", "AnchorPolicy", {"kind": "bogus"}, DomainError, "unknown policy"),
    ("anchors", "AnchorPolicy", {"kind": "nearest_within"}, DomainError,
     "threshold_deg"),
    ("anchors", "AnchorPolicy", {"kind": "nearest_within",
                                 "threshold_deg": math.inf}, DomainError,
     "finite threshold_deg"),
    ("simulate", "NoiseModel", {"seed": -1}, DomainError, "seed"),
    ("simulate", "NoiseModel", {"base_deg": math.nan}, DomainError, "finite"),
    ("sampling", "PoseSampler", {"yaw_range": (1.0, -1.0)}, EmptyRange, "yaw_range"),
    ("sampling", "PoseSampler", {"subjects": 1.5}, DomainError, "subjects"),
    ("losses", "LossConfig", {"gamma": 2.0}, DomainError, "gamma"),
    ("losses", "LossConfig", {"mode": "bogus"}, DomainError, "unknown mode"),
    ("camera", "Intrinsics", {"fx": -1.0, "fy": 1.0, "cx": 0.0, "cy": 0.0,
                              "width": 1.0, "height": 1.0}, DomainError, "focal"),
    ("camera", "CameraPose", {"t": (0.0, 0.0), "q": Rotation(1.0, 0.0, 0.0, 0.0),
                              "fov_h": 1.0, "fov_w": 1.0}, DomainError, "3 values"),
    ("rotation", "Rotation", {"w": 0.0, "x": 0.0, "y": 0.0, "z": 0.0}, DomainError,
     "norm"),
    ("geometry", "SE3Pose", {"rotation": Rotation(1.0, 0.0, 0.0, 0.0),
                             "translation": (math.inf, 0.0, 0.0)}, DomainError,
     "not finite"),
])
def test_post_init_checks_raise(module, name, kwargs, error, match):
    cls = getattr(importlib.import_module(f"relhpe.{module}"), name)
    with pytest.raises(error, match=match):
        cls(**kwargs)


def test_post_init_converts_fields():
    pose = CameraPose([1, 2, 3], Rotation(2.0, 0.0, 0.0, 0.0), 1.0, 1.0)
    assert pose.t == (1.0, 2.0, 3.0) and type(pose.t[0]) is float
    assert pose.q == Rotation(1.0, 0.0, 0.0, 0.0)


def test_class_definition_checks():
    with pytest.raises(TypeError, match="'b' without a default"):
        type("Bad", (Record,), {"__annotations__": {"a": "int", "b": "int"}, "a": 1})
    with pytest.raises(ValueError, match="mutable default"):
        type("Bad", (Record,), {"__annotations__": {"a": "list"}, "a": []})


def test_subclass_fields_follow_the_base_fields():
    base = type("Base", (Record,), {"__annotations__": {"a": "int"}})
    child = type("Child", (base,), {"__annotations__": {"b": "int"}, "b": 2})
    assert repr(child(1)) == "Child(a=1, b=2)"
    assert child(1) != base(1) and child(1, 2) == child(a=1)
