"""Invariants and boundary checks that must hold under ``python -O`` too."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from convfec.channel import hard_quantize
from convfec.cli import run
from convfec.harness import SweepConfig

SRC = Path(__file__).resolve().parents[1] / "src"


def test_invariants_raise_under_optimize():
    script = textwrap.dedent(
        """
        import types
        import numpy as np
        from convfec.decoder import _check_terminal
        from convfec.encoder import encode_frames
        from convfec.trellis import DEFAULT_SPEC, build_trellis

        assert False, "asserts must be stripped in this run"
        try:
            _check_terminal(np.array([999]), 40)
        except RuntimeError as exc:
            print("terminal:", exc)
        good = build_trellis(DEFAULT_SPEC)
        # a K=7 spec without a tail, so its last input cannot flush
        untailed = types.SimpleNamespace(
            constraint_length=7, num_states=64, payload_length=40, frame_stages=40)
        stuck = types.SimpleNamespace(
            spec=untailed, num_states=64, symbol_table=good.symbol_table)
        try:
            encode_frames([[0] * 39 + [1]], stuck)
        except RuntimeError as exc:
            print("tail:", exc)
        """
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    ).stdout
    assert "terminal: path metric bound breached: 999 > 2 * 40 stages" in out
    assert "tail: zero tail left the encoder in state 1" in out


def test_sweep_config_rejects_empty_points():
    with pytest.raises(ValueError, match="at least one Eb/N0 point"):
        SweepConfig(ebno_points=(), min_info_bits=0, max_info_bits=34,
                    stop_at_errors=0, seed=0)


def test_cli_empty_ebno_range_is_an_error(tmp_path, capsys):
    out = tmp_path / "ber.csv"
    assert run(["ber-sweep", "--ebno", "5:1:4", "--min-bits", "0", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "at least one Eb/N0 point" in err
    assert not out.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hard_quantize_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        hard_quantize(np.array([0.5, bad, -0.5]))
