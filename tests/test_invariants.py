"""Invariants and boundary checks that must hold under ``python -O`` too."""

from __future__ import annotations

import ast
import functools
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import convfec
from convfec.channel import NoiseConfig, hard_quantize, inject_errors
from convfec.decoder import TRACEBACK, ActivityReport
from convfec.harness import SweepConfig, ber_sweep, format_ber_csv, power_compare
from convfec.trellis import DEFAULT_SPEC, CodeSpec, Trellis, free_distance

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_module_checks_an_invariant_with_assert():
    # python -O strips assert statements; an invariant must raise a real error
    found = [f"{path.name}:{node.lineno}" for path in sorted((SRC / "convfec").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_bytes(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_invariants_raise_under_optimize():
    script = textwrap.dedent(
        """
        import numpy as np
        from convfec.decoder import _check_terminal
        from convfec.encoder import encode_frames
        from convfec.trellis import DEFAULT_SPEC, CodeSpec, build_trellis

        assert False, "asserts must be stripped in this run"
        try:
            _check_terminal(np.array([999]), 40)
        except RuntimeError as exc:
            print("terminal:", exc)
        class Untailed(CodeSpec):  # a K=7 spec without a tail, so its last input cannot flush
            tail_length = 0
        try:
            encode_frames([[0] * 39 + [1]], build_trellis(Untailed(7, DEFAULT_SPEC.generators, 40)))
        except RuntimeError as exc:
            print("tail:", exc)
        """
    )
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True, timeout=60).stdout
    assert "terminal: path metric bound breached: 999 > 2 * 40 stages" in out
    assert "tail: zero tail left the encoder in state 1" in out


def test_sweep_config_rejects_empty_points():
    with pytest.raises(ValueError, match="at least one Eb/N0 point"):
        SweepConfig(ebno_points=(), min_info_bits=0, max_info_bits=34,
                    stop_at_errors=0, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hard_quantize_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        hard_quantize(np.array([0.5, bad, -0.5]))


_SPEC = CodeSpec.from_octal("7,5", constraint_length=3, frame_stages=8)
_TRELLIS, _CODED = Trellis(_SPEC), np.zeros((2, 16), np.uint8)
# one valid call of each public callable and classmethod, every parameter given, in order
_VALID_CALLS = {
    "ActivityReport": (_SPEC, TRACEBACK, 1), "BerPoint": ("s", 1.0, 1, 0, 0, 0),
    "CodeSpec": (3, _SPEC.generators, 8), "CodeSpec.from_octal": ("7,5", 3, 8),
    "MlResult": ((0,), 0, 1), "NoiseConfig": (1.0, 0.5),
    "PowerCompareResult": (_SPEC, 1), "StreamedFrame": (0, [0], 0), "Trellis": (_SPEC,),
    "SweepConfig": ((1.0,), 0, 6, 0, 0, _SPEC), "ber_sweep": (SweepConfig((1.0,), 0, 6, 0, 0),),
    "add_awgn": ([1.0], NoiseConfig(1.0), np.random.default_rng(0)), "bpsk_modulate": ([0],),
    "build_trellis": (_SPEC,), "decode_frames": (_CODED, _TRELLIS, TRACEBACK),
    "encode_frames": (_CODED[:, :6], _TRELLIS), "free_distance": (_SPEC, 10),
    "hard_quantize": ([1.0, -1.0],), "inject_errors": (_CODED, [0]),
    "ml_decode_frames": (_CODED, _SPEC), "power_compare": (4.0, 1, 0, _SPEC),
    "stream_decode": ([[0] * 16], _TRELLIS), "theoretical_uncoded_ber": (1.0,),
}
_PUBLIC = sorted([name for name in convfec.__all__ if callable(getattr(convfec, name))] + [
    f"{name}.{attr}" for name in convfec.__all__ if isinstance(getattr(convfec, name), type)
    for attr, v in vars(getattr(convfec, name)).items()
    if isinstance(v, classmethod) and not attr.startswith("_")])
_FNS = {name: functools.reduce(getattr, name.split("."), convfec) for name in _VALID_CALLS}
# the (callable, parameter) pairs that take any value, by reason
_UNCHECKED = {tuple(pair.rsplit(".", 1)): reason for reason, pairs in {
    "a result: the library fills it in": """BerPoint.scheme BerPoint.ebno_db BerPoint.bit_errors
        BerPoint.frame_errors BerPoint.seed MlResult.best_payload MlResult.best_distance
        MlResult.num_minimizers StreamedFrame.index StreamedFrame.decoded
        StreamedFrame.final_metric""",
    "an array that numpy converts as given":
        "bpsk_modulate.bits add_awgn.symbols hard_quantize.symbols",
    "a sequence of sequences, each checked by length; a non-iterable is Python's TypeError":
        "CodeSpec.generators stream_decode.frames",
}.items() for pair in pairs.split()}


def _args(name: str) -> dict:
    return dict(zip(inspect.signature(_FNS[name]).parameters, _VALID_CALLS[name]))


# the noun for a frame array or a checked sequence's items where it is not the parameter's
# name, and a value that is not a 0/1 bit by case id (complex and void arrays hold no bits)
_NOUNS = {"coded": "coded frames", "received": "received words", "positions": "error position"}
_NOT_BITS = {"int-2": 2, "int-3": 3, "int-256": 256, "int-300": 300, "uint8-2": np.uint8(2),
             "uint8-255": np.uint8(255), "uint16-256": np.uint16(256), "float-0.5": 0.5,
             "float-nan": np.nan, "str-x": "x", "complex-1": 1 + 0j, "void": np.void(b"\0")}


def _others(valid, param: str = "") -> dict:
    """The values of other kinds to pass where ``valid`` goes, by case id: 1.5 is a real, "x" a
    string; a sequence gets one-item sequences of its first item's others, and a frame array
    rows of a wrong shape (``bits`` have any width) or with a last bit from ``_NOT_BITS``."""
    if isinstance(valid, (list, tuple)):
        return {f"item-{label}": [value] for label, value in _others(valid[0]).items()}
    others = {str(value): value for value in ("x", None, ["x"], {}, 1.5, True)
              if not type(value) is type(valid) in (float, str)}
    if isinstance(valid, np.ndarray):
        if param != "bits":
            others.update(narrow=valid[:, 1:], wide=np.hstack([valid, valid[:, :1]]),
                          flat=valid[0], column=valid[0, :, None])
        others.update({label: np.append(np.zeros(valid.size - 1, np.asarray(bit).dtype), bit)
                       .reshape(valid.shape) for label, bit in _NOT_BITS.items()})
    return others


def _refusal(valid, noun: str, value) -> str | None:
    """The exception and text owed to ``value`` where ``valid`` goes, naming ``noun``, or
    ``None`` where no rule covers its kind."""
    kind = type(valid)
    if kind in (list, tuple):  # a sequence of one item: the item's refusal
        return _refusal(valid[0], noun, value[0])
    if kind is np.ndarray:  # a frame array: its shape first, then its bits
        shape, width = np.shape(value), valid.shape[1]
        wrong = (shape == () and f"must be a frame or rows of frames, got shape {shape}"
                 if noun == "bits" else  # one frame or rows of frames, of any width
                 shape[1:] != (width,) and f"must have shape (n, {width}), got {shape}")
        return f"ValueError: {noun} {wrong or 'must contain only 0/1 bits'}"
    rule = {int: "an integer", float: "a real number", str: "a string"}.get(kind)
    if kind.__module__.startswith(("convfec", "numpy.random")):  # spec, trellis, cfg, rng
        rule = f"a {kind.__name__}"
    return rule and f"TypeError: {noun} must be {rule}, got {value!r}"


def _unnamed(name: str, param: str, value) -> str | None:
    """``None`` when ``name`` refuses ``value`` for ``param`` as it is owed, else what it did."""
    args = _args(name)
    try:
        _FNS[name](**{**args, param: value})
    except (TypeError, ValueError) as exc:  # any other exception fails the test
        did = f"{type(exc).__name__}: {exc}"
        return None if did == _refusal(args[param], _NOUNS.get(param, param), value) else did
    return "returned"


# a case per callable, named as the callable, and a case per (callable, parameter, value)
_CASES = [pytest.param(name, None, None, id=name) for name in _PUBLIC] + [
    pytest.param(name, param, value, id=f"{name}-{param}-{label}")
    for name in _VALID_CALLS for param, valid in _args(name).items()
    if (name, param) not in _UNCHECKED for label, value in _others(valid, param).items()]


@pytest.mark.parametrize("name, param, value", _CASES)
def test_public_arguments_refuse_other_values_by_name(name, param, value):
    if param is not None:
        assert _unnamed(name, param, value) is None
        return
    # the callable's own case: the ids are unique (pytest suffixes a repeat silently), its valid
    # call binds every parameter and runs, and each listed pair takes some value unowed, or the
    # listing is stale
    assert sorted(_VALID_CALLS) == _PUBLIC and {n for n, _ in _UNCHECKED} <= set(_PUBLIC)
    assert len({case.id for case in _CASES}) == len(_CASES)
    fn = _FNS[name]
    args = inspect.signature(fn).bind(*_VALID_CALLS[name]).arguments
    assert list(args) == list(inspect.signature(fn).parameters)
    fn(**args)
    listed = [p for n, p in _UNCHECKED if n == name]
    assert set(listed) <= set(args) and all(
        any(_unnamed(name, p, value) for value in _others(args[p], p).values())
        for p in listed), listed


@pytest.mark.parametrize("case", ["sweep-budgets-float"])
def test_sequence_items_and_the_first_bad_field_are_refused_by_name(case):
    # the table passes one bad value to one parameter, not two at once
    with pytest.raises(TypeError, match=r"^min_info_bits must be an integer, got 1\.5$"):
        SweepConfig((1.0,), 1.5, 100.5, 0, 1)


def test_real_fields_take_numpy_scalars_unconverted():
    for value in (3, np.int64(3), np.float32(2.5), np.float64(2.5)):
        noise = NoiseConfig(value, code_rate=np.float32(0.5))
        assert noise.ebno_db is value and type(noise.code_rate) is np.float32
        assert SweepConfig((1.0, value), 0, 100, 0, 0).ebno_points == (1.0, value)


def test_sweep_points_given_as_a_list_are_stored_as_a_tuple():
    listed, tupled = SweepConfig([1.0, 2.5], 0, 34, 0, 0), SweepConfig((1.0, 2.5), 0, 34, 0, 0)
    assert listed == tupled and hash(listed) == hash(tupled)
    with pytest.raises(AttributeError):
        listed.ebno_points.append(float("nan"))


def test_ber_csv_writes_each_point_as_a_python_float():
    points = ber_sweep(SweepConfig((np.float64(2.0), np.float32(2.5), 3), 0, 34, 0, 0))
    rows = format_ber_csv(points).splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["2.0", "2.0", "2.5", "2.5", "3.0", "3.0"]
    assert [type(p.ebno_db) for p in points[::2]] == [np.float64, np.float32, int]


def test_integer_fields_take_numpy_integers():
    spec = CodeSpec(np.int64(7), DEFAULT_SPEC.generators, np.uint16(40))
    assert spec == DEFAULT_SPEC
    assert type(spec.constraint_length) is int and type(spec.frame_stages) is int
    assert type(power_compare(4.0, np.uint32(0), np.uint32(4)).frames) is int
    assert inject_errors(_CODED, [np.int64(7)])[:, 7].tolist() == [1, 1]
    assert CodeSpec.from_octal("171,133", constraint_length=np.uint8(7)) == DEFAULT_SPEC
    assert free_distance(DEFAULT_SPEC, np.int64(10)) == 10
    activity = ActivityReport(DEFAULT_SPEC, TRACEBACK, np.uint16(3))
    assert activity == ActivityReport(DEFAULT_SPEC, TRACEBACK, 3)
    assert type(activity.frames) is int and type(activity.survivor_bit_writes) is int
    plain = SweepConfig((2.0,), 0, 340, 5, seed=9)
    typed = SweepConfig((2.0,), np.int32(0), np.int64(340), np.uint8(5), seed=np.int64(9))
    assert typed == plain
    assert format_ber_csv(ber_sweep(typed)) == format_ber_csv(ber_sweep(plain))
