"""The value classes' contract: immutable, compared and hashed by their fields,
printed as ``Name(field=value, ...)``, and copied and pickled whole; a value derived
from the fields is a property, so it cannot contradict them."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from convfec.channel import NoiseConfig
from convfec.decoder import ActivityReport, StreamedFrame
from convfec.harness import BerPoint, PowerCompareResult, SweepConfig
from convfec.oracle import MlResult
from convfec.trellis import CodeSpec

SRC = Path(__file__).resolve().parents[1] / "src"

_K3 = CodeSpec(3, ((1, 1, 1), (1, 0, 1)), 5)
_K3_REPR = "CodeSpec(constraint_length=3, generators=((1, 1, 1), (1, 0, 1)), frame_stages=5)"

# (class, fields in order, the repr, the missing-argument message); a field left out
# of a class's list of fields takes its default
_CASES = [
    (CodeSpec, dict(constraint_length=3, generators=((1, 1, 1), (1, 0, 1)), frame_stages=5),
     "CodeSpec(constraint_length=3, generators=((1, 1, 1), (1, 0, 1)), frame_stages=5)",
     "missing 3 required positional arguments: 'constraint_length', 'generators', and "
     "'frame_stages'"),
    (NoiseConfig, dict(ebno_db=2.5, code_rate=0.5),
     "NoiseConfig(ebno_db=2.5, code_rate=0.5)",
     "missing 1 required positional argument: 'ebno_db'"),
    (SweepConfig, dict(ebno_points=(0.0, 2), min_info_bits=0, max_info_bits=340,
                       stop_at_errors=5, seed=9, spec=_K3),
     "SweepConfig(ebno_points=(0.0, 2), min_info_bits=0, max_info_bits=340, stop_at_errors=5, "
     f"seed=9, spec={_K3_REPR})",
     "missing 5 required positional arguments: 'ebno_points', 'min_info_bits', "
     "'max_info_bits', 'stop_at_errors', and 'seed'"),
    (BerPoint, dict(scheme="coded-viterbi", ebno_db=2.0, info_bits=340, bit_errors=3,
                    frame_errors=2, seed=9),
     "BerPoint(scheme='coded-viterbi', ebno_db=2.0, info_bits=340, bit_errors=3, "
     "frame_errors=2, seed=9)",
     "missing 6 required positional arguments: 'scheme', 'ebno_db', 'info_bits', "
     "'bit_errors', 'frame_errors', and 'seed'"),
    (ActivityReport, dict(spec=_K3, scheme="trace-back", frames=2),
     f"ActivityReport(spec={_K3_REPR}, scheme='trace-back', frames=2)",
     "missing 3 required positional arguments: 'spec', 'scheme', and 'frames'"),
    (PowerCompareResult, dict(spec=_K3, frames=2),
     f"PowerCompareResult(spec={_K3_REPR}, frames=2)",
     "missing 2 required positional arguments: 'spec' and 'frames'"),
    (StreamedFrame, dict(index=2, decoded=[1, 0, 1], final_metric=2),
     "StreamedFrame(index=2, decoded=[1, 0, 1], final_metric=2)",
     "missing 3 required positional arguments: 'index', 'decoded', and 'final_metric'"),
    (MlResult, dict(best_payload=(1, 0), best_distance=2, num_minimizers=1),
     "MlResult(best_payload=(1, 0), best_distance=2, num_minimizers=1)",
     "missing 3 required positional arguments: 'best_payload', 'best_distance', and "
     "'num_minimizers'"),
]
_IDS = [case[0].__name__ for case in _CASES]
_FIELDS = {case[0]: case[1] for case in _CASES}

# (class, a derived value, its formula over the stored fields, the value on the class's
# fields above, and inputs that move it); a derived value is a property, never a field
_DERIVED = [
    (BerPoint, "ber", lambda v: v.bit_errors / v.info_bits, 3 / 340, dict(bit_errors=17)),
    (StreamedFrame, "available_at_clock", lambda v: (v.index + 1) * len(v.decoded), 9,
     dict(index=4)),
    (StreamedFrame, "latency_clocks", lambda v: len(v.decoded), 3, dict(decoded=[0] * 5)),
    (MlResult, "minimizer_unique", lambda v: v.num_minimizers == 1, True,
     dict(num_minimizers=2)),
    # K=3, L=5: S * L = 20 per frame; register exchange copies t rows at stage t, S * 15
    (ActivityReport, "survivor_bit_writes",
     lambda v: v.spec.num_states * v.frames * (5 if v.scheme == "trace-back" else 15), 40,
     dict(scheme="register-exchange")),
    (ActivityReport, "metric_writes", lambda v: v.spec.num_states * 5 * v.frames, 40,
     dict(frames=3)),
    (ActivityReport, "traceback_reads", lambda v: 5 * v.frames * (v.scheme == "trace-back"), 10,
     dict(scheme="register-exchange")),
    (PowerCompareResult, "traceback", lambda v: ActivityReport(v.spec, "trace-back", v.frames),
     ActivityReport(_K3, "trace-back", 2), dict(frames=3)),
    (PowerCompareResult, "register_exchange",
     lambda v: ActivityReport(v.spec, "register-exchange", v.frames),
     ActivityReport(_K3, "register-exchange", 2), dict(frames=0)),
    # (L + 1) / 2 at any positive frame count; no frames, no ratio
    (PowerCompareResult, "survivor_write_ratio",
     lambda v: (v.register_exchange.survivor_bit_writes / v.traceback.survivor_bit_writes
                if v.frames else None), 3.0, dict(frames=0)),
]
_DERIVED_IDS = [name for _, name, *_ in _DERIVED]


@pytest.mark.parametrize("cls, fields, text, _", _CASES, ids=_IDS)
def test_repr_names_every_field_in_order(cls, fields, text, _):
    value = cls(*fields.values())
    assert repr(value) == text
    assert list(vars(value)) == list(fields)


@pytest.mark.parametrize("cls, fields, _, __", _CASES, ids=_IDS)
def test_fields_can_be_neither_assigned_nor_deleted(cls, fields, _, __):
    value = cls(**fields)
    name, old = next(iter(fields.items()))
    with pytest.raises(AttributeError, match=rf"^cannot assign to field '{name}'$"):
        setattr(value, name, old)
    with pytest.raises(AttributeError, match=r"^cannot assign to field 'extra'$"):
        value.extra = 1
    with pytest.raises(AttributeError, match=rf"^cannot delete field '{name}'$"):
        delattr(value, name)
    assert getattr(value, name) == old


@pytest.mark.parametrize("cls, fields, _, __", _CASES, ids=_IDS)
def test_equal_fields_give_equal_values_of_one_class(cls, fields, _, __):
    a, b = cls(**fields), cls(*fields.values())
    assert a == b and not a != b and a is not b
    lookalike = object.__new__(type("Lookalike", (cls,), {}))
    vars(lookalike).update(vars(a))
    assert a != lookalike and lookalike != a
    assert a != tuple(fields.values())
    try:
        expected = hash(tuple(fields.values()))
    except TypeError:  # a list field: unhashable, as the tuple of the fields is
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected


@pytest.mark.parametrize("cls, fields, _, __", _CASES, ids=_IDS)
def test_pickle_and_deepcopy_round_trip(cls, fields, _, __):
    value = cls(**fields)
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value and repr(twin) == repr(value)


@pytest.mark.parametrize("cls, name, formula, expected, moved", _DERIVED, ids=_DERIVED_IDS)
def test_derived_values_read_their_formula(cls, name, formula, expected, moved):
    value, other = cls(**_FIELDS[cls]), cls(**{**_FIELDS[cls], **moved})
    assert getattr(value, name) == formula(value) == expected
    assert getattr(other, name) == formula(other) != expected


@pytest.mark.parametrize("cls, name, _, expected, __", _DERIVED, ids=_DERIVED_IDS)
def test_derived_values_are_not_fields(cls, name, _, expected, __):
    fields = _FIELDS[cls]
    value = cls(**fields)
    assert name not in vars(value) and f"{name}=" not in repr(value)
    with pytest.raises(AttributeError, match=rf"^cannot assign to field '{name}'$"):
        setattr(value, name, expected)
    with pytest.raises(AttributeError, match=rf"^cannot delete field '{name}'$"):
        delattr(value, name)
    # ==, hash and copies go by vars(), which holds the stored inputs alone
    assert vars(value) == fields and value == cls(*fields.values())
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert vars(twin) == fields and getattr(twin, name) == expected


@pytest.mark.parametrize("cls, _, __, message", _CASES, ids=_IDS)
def test_missing_arguments_are_named(cls, _, __, message):
    with pytest.raises(TypeError) as err:
        cls()
    assert str(err.value) == f"{cls.__name__}.__init__() {message}"


def test_keyword_construction_takes_the_defaults():
    assert NoiseConfig(ebno_db=1.0) == NoiseConfig(1.0, 0.5)
    default = SweepConfig(ebno_points=(1.0,), min_info_bits=0, max_info_bits=34,
                          stop_at_errors=0, seed=0)
    assert default.spec == CodeSpec.from_octal("171,133", 7, 40)


def test_import_loads_no_dataclasses():
    script = "import sys, convfec, convfec.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    ).stdout
    assert out == "False\n"
