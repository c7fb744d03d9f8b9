from __future__ import annotations

import random

import numpy as np
import pytest

from convfec.encoder import encode_frames

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


def test_wrong_payload_length_rejected(default_trellis):
    with pytest.raises(ValueError, match=r"\(n, 34\)"):
        encode_frames([[0] * 33], default_trellis)
    # the message names the shape: a payload can hold 34 bits in the wrong shape
    with pytest.raises(ValueError, match=r"^payloads must have shape \(n, 34\), got \(34,\)$"):
        encode_frames(np.zeros(34), default_trellis)
    with pytest.raises(ValueError, match=r"^payloads must have shape \(n, 34\), got \(34, 1\)$"):
        encode_frames(np.zeros((34, 1)), default_trellis)


def test_non_bit_payload_rejected(default_trellis):
    with pytest.raises(ValueError, match="0/1"):
        encode_frames([[0] * 33 + [2]], default_trellis)


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


def test_batch_rejects_bad_shape(default_trellis):
    with pytest.raises(ValueError):
        encode_frames(np.zeros((4, 10), dtype=np.uint8), default_trellis)


def test_batch_rejects_non_bits(default_trellis):
    payloads = np.zeros((2, 34), dtype=np.int64)
    payloads[1, 3] = 256  # would wrap to 0 under a bare uint8 cast
    with pytest.raises(ValueError, match="0/1"):
        encode_frames(payloads, default_trellis)
