from __future__ import annotations

import numpy as np
import pytest

from convfec.decoder import decode_frames
from convfec.encoder import encode_frames
from convfec.oracle import MAX_PAYLOAD_BITS, ml_decode_frames
from convfec.trellis import DEFAULT_SPEC, CodeSpec, build_trellis

from reference import ml_enumerate


@pytest.fixture(scope="module")
def k5_spec():
    return CodeSpec.from_octal("23,35", constraint_length=5, frame_stages=14)


def test_clean_word_decodes_to_itself(k3_trellis):
    coded = encode_frames([[1, 0, 1]], k3_trellis)
    [result] = ml_decode_frames(coded, k3_trellis.spec)
    assert result.best_payload == (1, 0, 1)
    assert result.best_distance == 0
    assert result.minimizer_unique
    assert result.num_minimizers == 1


def test_single_flip_small_code(k3_trellis):
    coded = encode_frames([[1, 0, 1]], k3_trellis)[0].tolist()
    coded[0] ^= 1
    [result] = ml_decode_frames([coded], k3_trellis.spec)
    assert result.best_payload == (1, 0, 1)
    assert result.best_distance == 1
    # cross-check against the literal payload loop
    payload, distance, count = ml_enumerate(coded, k3_trellis.spec)
    assert (payload, distance, count) == (
        result.best_payload,
        result.best_distance,
        result.num_minimizers,
    )


def test_zero_word_with_one_flip(k3_spec, k5_spec):
    for spec in (k3_spec, k5_spec):
        received = [0] * (2 * spec.frame_stages)
        received[4] = 1
        [result] = ml_decode_frames([received], spec)
        assert result.best_payload == (0,) * spec.payload_length
        assert result.best_distance == 1
        assert result.minimizer_unique


def test_guard_rejects_large_payload_space():
    assert DEFAULT_SPEC.payload_length > MAX_PAYLOAD_BITS
    with pytest.raises(ValueError, match="guard"):
        ml_decode_frames([[0] * 80], DEFAULT_SPEC)


def test_received_word_validation(k3_spec):
    with pytest.raises(ValueError, match=r"\(n, 10\)"):
        ml_decode_frames([[0] * 9], k3_spec)
    with pytest.raises(ValueError, match="0/1"):
        ml_decode_frames([[0] * 9 + [2]], k3_spec)
    with pytest.raises(ValueError, match=r"\(n, 16\), got \(16,\)"):
        ml_decode_frames(np.zeros(16), CodeSpec.from_octal("7,5", 3, 8))


def test_matches_literal_enumeration_on_random_words(k3_spec):
    rng = np.random.default_rng(23)
    words = [list(rng.integers(0, 2, size=10)) for _ in range(60)]
    for received, result in zip(words, ml_decode_frames(words, k3_spec)):
        payload, distance, count = ml_enumerate(received, k3_spec)
        assert result.best_payload == payload
        assert result.best_distance == distance
        assert result.num_minimizers == count
        assert result.minimizer_unique == (count == 1)


def test_distance_agrees_with_viterbi(k5_spec):
    trellis = build_trellis(k5_spec)
    rng = np.random.default_rng(37)
    words = [list(rng.integers(0, 2, size=2 * k5_spec.frame_stages)) for _ in range(150)]
    decoded, metrics = decode_frames(words, trellis)
    for result, bits, metric in zip(ml_decode_frames(words, k5_spec), decoded.tolist(), metrics):
        assert metric == result.best_distance
        if result.minimizer_unique:
            assert tuple(bits[: k5_spec.payload_length]) == result.best_payload


def test_two_block_enumeration_agrees_with_viterbi():
    # p = 17 payload bits: the codebook runs in two blocks of 2^16 codewords
    spec = CodeSpec.from_octal("7,5", constraint_length=3, frame_stages=19)
    assert spec.payload_length == 17
    trellis = build_trellis(spec)
    rng = np.random.default_rng(43)
    payload = rng.integers(0, 2, size=17)
    payload[0] = 1  # the transmitted codeword lies in the second block
    clean = encode_frames(payload[np.newaxis], trellis)[0]
    flip_counts = (0, 1, 3, 6)
    words = np.tile(clean, (len(flip_counts), 1))
    for received, flips in zip(words, flip_counts):
        received[rng.choice(received.size, size=flips, replace=False)] ^= 1
    decoded, metrics = decode_frames(words, trellis)
    results = ml_decode_frames(words, spec)
    for result, bits, metric, flips in zip(results, decoded.tolist(), metrics, flip_counts):
        assert result.best_distance == metric <= flips
        assert result.num_minimizers >= 1
        if result.minimizer_unique:
            assert tuple(bits[:17]) == result.best_payload
    [exact] = ml_decode_frames(clean[np.newaxis], spec)
    assert exact.best_payload == tuple(payload.tolist())
    assert exact.minimizer_unique


def test_single_flip_moves_distance_by_at_most_one(k3_spec):
    rng = np.random.default_rng(41)
    words, flipped = [], []
    for _ in range(40):
        received = list(rng.integers(0, 2, size=10))
        words.append(list(received))
        pos = int(rng.integers(0, 10))
        received[pos] ^= 1
        flipped.append(received)
    for base, moved in zip(ml_decode_frames(words, k3_spec), ml_decode_frames(flipped, k3_spec)):
        assert abs(moved.best_distance - base.best_distance) <= 1
