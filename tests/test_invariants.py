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


_FRAMES = np.zeros((2, 8), dtype=np.uint8)
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
    "a sequence: its items are checked by name; a non-iterable is Python's own TypeError":
        "CodeSpec.generators SweepConfig.ebno_points inject_errors.positions stream_decode.frames",
}.items() for pair in pairs.split()}


def _args(name: str) -> dict:
    return dict(zip(inspect.signature(_FNS[name]).parameters, _VALID_CALLS[name]))


def _others(valid) -> list:
    """The values of other kinds to pass where ``valid`` goes: 1.5 is a real, "x" a string."""
    return [value for value in ("x", None, ["x"], {}, 1.5, True)
            if not type(value) is type(valid) in (float, str)]


def _unnamed(name: str, param: str, value) -> str | None:
    """``None`` when ``name`` refuses ``value`` for ``param`` by name, else what it did instead."""
    args = _args(name)
    kind = type(args[param])
    rule = {int: "an integer", float: "a real number", str: "a string"}.get(kind)
    if kind.__module__.startswith(("convfec", "numpy.random")):  # spec, trellis, cfg, rng
        rule = f"a {kind.__name__}"
    try:
        _FNS[name](**{**args, param: value})
    except (TypeError, ValueError) as exc:  # any other exception fails the test
        named = (type(exc) is TypeError and str(exc) == f"{param} must be {rule}, got {value!r}"
                 if rule else param.rstrip("s") in str(exc))  # as "frame 0" names frames
        return None if named else f"{type(exc).__name__}: {exc}"
    return "returned"


# a case per callable, named as the callable, and a case per (callable, parameter, value)
@pytest.mark.parametrize("name, param, value", [pytest.param(name, None, None, id=name)
                                                for name in _PUBLIC] + [
    pytest.param(name, param, value, id=f"{name}-{param}-{value}")
    for name in _VALID_CALLS for param, valid in _args(name).items()
    if (name, param) not in _UNCHECKED for value in _others(valid)])
def test_public_arguments_refuse_other_values_by_name(name, param, value):
    if param is not None:
        assert _unnamed(name, param, value) is None
        return
    # the callable's own case: its valid call binds every parameter and runs, and each of its
    # listed pairs still takes a value without a named refusal, or the listing is stale
    assert sorted(_VALID_CALLS) == _PUBLIC and {n for n, _ in _UNCHECKED} <= set(_PUBLIC)
    fn = _FNS[name]
    args = inspect.signature(fn).bind(*_VALID_CALLS[name]).arguments
    assert list(args) == list(inspect.signature(fn).parameters)
    fn(**args)
    listed = [p for n, p in _UNCHECKED if n == name]
    assert set(listed) <= set(args) and all(
        any(_unnamed(name, p, value) for value in _others(args[p])) for p in listed), listed


@pytest.mark.parametrize("build, text", [
    (lambda: inject_errors(_FRAMES, [1.5]), "error position must be an integer, got 1.5"),
    (lambda: inject_errors(_FRAMES, [True]), "error position must be an integer, got True"),
    (lambda: SweepConfig(("1",), 0, 100, 0, 0), "ebno_points must be a real number, got '1'"),
    (lambda: SweepConfig((True,), 0, 100, 0, 0), "ebno_points must be a real number, got True"),
    (lambda: SweepConfig((1.0,), 1.5, 100.5, 0, 1), "min_info_bits must be an integer, got 1.5"),
], ids=["position-float", "position-bool", "sweep-point-str", "sweep-point-bool",
        "sweep-budgets-float"])
def test_sequence_items_and_the_first_bad_field_are_refused_by_name(build, text):
    # the table passes one bad value to one parameter: not to an item, nor two at once
    with pytest.raises(TypeError) as caught:
        build()
    assert str(caught.value) == text


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
    assert inject_errors(_FRAMES, [np.int64(7)])[:, 7].tolist() == [1, 1]
    assert CodeSpec.from_octal("171,133", constraint_length=np.uint8(7)) == DEFAULT_SPEC
    assert free_distance(DEFAULT_SPEC, np.int64(10)) == 10
    activity = ActivityReport(DEFAULT_SPEC, TRACEBACK, np.uint16(3))
    assert activity == ActivityReport(DEFAULT_SPEC, TRACEBACK, 3)
    assert type(activity.frames) is int and type(activity.survivor_bit_writes) is int
    plain = SweepConfig((2.0,), 0, 340, 5, seed=9)
    typed = SweepConfig((2.0,), np.int32(0), np.int64(340), np.uint8(5), seed=np.int64(9))
    assert typed == plain
    assert format_ber_csv(ber_sweep(typed)) == format_ber_csv(ber_sweep(plain))
