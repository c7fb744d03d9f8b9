from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from convfec.encoder import encode_frames
from convfec.trellis import CodeSpec, build_trellis

from reference import reference_encode


def test_all_zero_payload_emits_zeros(default_trellis):
    assert encode_frames(np.zeros((1, 34)), default_trellis).tolist() == [[0] * 80]


def test_impulse_response_is_interleaved_taps(default_trellis):
    coded = encode_frames([[1] + [0] * 33], default_trellis)[0].tolist()
    assert coded[:14] == [1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 0, 1, 1, 1]
    assert coded[14:] == [0] * 66
    assert coded == reference_encode([1] + [0] * 33, default_trellis.spec)


def test_k3_hand_walk(k3_trellis):
    assert encode_frames([[1, 0, 1]], k3_trellis).tolist() == [[1, 1, 1, 0, 0, 0, 1, 0, 1, 1]]


def test_coded_length_is_twice_frame_stages(default_trellis):
    coded = encode_frames([[1, 0] * 17], default_trellis)
    assert coded.shape == (1, 2 * default_trellis.spec.frame_stages)


def test_matches_reference_convolution(default_trellis):
    rng = random.Random(101)
    payloads = [[rng.randrange(2) for _ in range(34)] for _ in range(200)]
    coded = encode_frames(payloads, default_trellis).tolist()
    for payload, row in zip(payloads, coded):
        assert row == reference_encode(payload, default_trellis.spec)


def test_linearity(default_trellis):
    rng = random.Random(7)
    pairs = np.array([[[rng.randrange(2) for _ in range(34)] for _ in range(2)] for _ in range(50)])
    a, b = pairs[:, 0], pairs[:, 1]
    ca, cb = encode_frames(a, default_trellis), encode_frames(b, default_trellis)
    assert np.array_equal(encode_frames(a ^ b, default_trellis), ca ^ cb)


def test_batch_empty(default_trellis):
    coded = encode_frames(np.zeros((0, 34), dtype=np.uint8), default_trellis)
    assert coded.shape == (0, 80)


def test_batch_is_elementwise(default_trellis):
    rng = random.Random(13)
    p1 = [rng.randrange(2) for _ in range(34)]
    p2 = [rng.randrange(2) for _ in range(34)]
    assert encode_frames(np.array([p1, p2]), default_trellis).tolist() == [
        encode_frames([p1], default_trellis)[0].tolist(),
        encode_frames([p2], default_trellis)[0].tolist(),
    ]


def test_batch_two_zero_frames(default_trellis):
    coded = encode_frames(np.zeros((2, 34), dtype=np.uint8), default_trellis)
    assert coded.tolist() == [[0] * 80, [0] * 80]


def test_batch_matches_scalar(default_trellis):
    rng = np.random.default_rng(3)
    payloads = rng.integers(0, 2, size=(64, 34), dtype=np.uint8)
    coded = encode_frames(payloads, default_trellis)
    assert coded.shape == (64, 80)
    for row_in, row_out in zip(payloads, coded):
        assert list(row_out) == reference_encode(list(row_in), default_trellis.spec)


@pytest.mark.parametrize("octal, k", [
    ("247,371", 8),  # 128 states, twice the default code's
    ("561,753", 9),  # 256 states
    ("104157,126235", 16),  # the longest code CodeSpec takes: taps reach 15 stages back
], ids=["k8", "k9", "k16"])
def test_long_codes_match_reference(octal, k):
    spec = CodeSpec.from_octal(octal, constraint_length=k, frame_stages=3 * k)
    trellis = build_trellis(spec)
    rng = np.random.default_rng(k)
    random_payloads = rng.integers(0, 2, (20, spec.payload_length), dtype=np.uint8)
    for payloads in (random_payloads, np.ones_like(random_payloads[:1])):
        coded = encode_frames(payloads, trellis).tolist()
        for payload, row in zip(payloads.tolist(), coded):
            assert row == reference_encode(payload, spec)


def test_encode_peaks_below_three_times_its_output(default_trellis):
    payloads = np.random.default_rng(5).integers(0, 2, (20_000, 34), dtype=np.uint8)
    tracemalloc.start()
    try:
        coded = encode_frames(payloads, default_trellis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * coded.nbytes, f"{peak / coded.nbytes:.2f}x the output"
