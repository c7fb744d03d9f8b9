"""Golden outputs: CLI bytes for fixed seeds, pinned by SHA-256.

The hashes were recorded from the scalar-decoder implementation that
preceded the batched add-compare-select kernel, so any change in decoded
bits, tie handling, activity totals or CSV formatting shows up here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from convfec.channel import NoiseConfig, add_awgn, bpsk_modulate, hard_quantize
from convfec.cli import run
from convfec.encoder import encode_frames
from convfec.trellis import DEFAULT_SPEC, build_trellis

GOLDEN = {
    "ber-sweep": "3f2c3e1ec3521689f094c802818a8b645df7e5e9e36a57c05f3d3330e71fed65",
    "power-compare": "1f66cef0dcca73ed1c29d443d729ec74a93341353e8286a692ae254ae6586e1b",
    "decode-traceback": "b60a814a547bb58c94adc9f669cb67d0648a71ffd31ff9c8d40be795f455c3ca",
    "decode-traceback-activity": "89e0fb678ea983cd17eb27dd2d6c3414462d7b578e6597bca79f32153da24752",
    "decode-regex": "b60a814a547bb58c94adc9f669cb67d0648a71ffd31ff9c8d40be795f455c3ca",
    "decode-regex-activity": "0193ca297fdd2cdd6200fc3eeca46d7a62b01b084c56b22bb359ee1f58744836",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _noisy_file(path, frames=300, ebno_db=2.0, seed=11):
    """Coded frames of random payloads through BPSK, AWGN and a hard slicer."""
    trellis = build_trellis(DEFAULT_SPEC)
    rng = np.random.default_rng(seed)
    payloads = rng.integers(0, 2, size=(frames, DEFAULT_SPEC.payload_length), dtype=np.uint8)
    coded = encode_frames(payloads, trellis)
    symbols = add_awgn(bpsk_modulate(coded.ravel()), NoiseConfig(ebno_db), rng)
    received = hard_quantize(symbols).reshape(coded.shape)
    path.write_text("".join("".join(map(str, row)) + "\n" for row in received.tolist()))


def test_ber_sweep_csv_bytes(tmp_path):
    out = tmp_path / "ber.csv"
    assert run(["ber-sweep", "--ebno", "0:2:6", "--max-bits", "2e5", "--seed", "1",
                "-o", str(out)]) == 0
    assert _sha256(out) == GOLDEN["ber-sweep"]


def test_power_compare_csv_bytes(tmp_path):
    out = tmp_path / "power.csv"
    assert run(["power-compare", "--ebno", "4", "--frames", "400", "--seed", "1",
                "-o", str(out)]) == 0
    assert _sha256(out) == GOLDEN["power-compare"]


@pytest.mark.parametrize("scheme", ["traceback", "regex"])
def test_decode_output_bytes(tmp_path, scheme):
    noisy = tmp_path / "noisy.txt"
    _noisy_file(noisy)
    out, activity = tmp_path / "decoded.txt", tmp_path / "activity.csv"
    assert run(["decode", "--scheme", scheme, "-i", str(noisy), "-o", str(out),
                "--activity", str(activity)]) == 0
    assert _sha256(out) == GOLDEN[f"decode-{scheme}"]
    assert _sha256(activity) == GOLDEN[f"decode-{scheme}-activity"]
