"""Property tests: every decoder path agrees with the others and with the
independent references, over many code shapes.

Hypothesis runs derandomized with no example database, so the examples are
the same on every run and the suite stays deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from convfec.decoder import (
    REGISTER_EXCHANGE,
    TRACEBACK,
    _acs_kernel,
    decode_frames,
)
from convfec.encoder import encode_frames
from convfec.oracle import ml_decode_frames
from convfec.trellis import DEFAULT_SPEC, CodeSpec, build_trellis

from reference import ml_enumerate, reference_acs, reference_encode

PROPERTY_SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)


def _gf2_mod(a: int, b: int) -> int:
    while a and a.bit_length() >= b.bit_length():
        a ^= b << (a.bit_length() - b.bit_length())
    return a


def _gf2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _gf2_mod(a, b)
    return a


def _non_catastrophic(g1: int, g2: int) -> bool:
    """gcd(g1(D), g2(D)) is a power of D (Massey and Sain, 1968)."""
    g = _gf2_gcd(g1, g2)
    return g & (g - 1) == 0


def _spec(k: int, g1: int, g2: int, stages: int) -> CodeSpec:
    # bit j of a generator polynomial taps the input j steps ago
    taps = [tuple((g >> j) & 1 for j in range(k)) for g in (g1, g2)]
    return CodeSpec(k, (taps[0], taps[1]), stages)


@st.composite
def code_specs(draw) -> CodeSpec:
    k = draw(st.integers(2, 6))
    pair = st.tuples(st.integers(1, (1 << k) - 1), st.integers(1, (1 << k) - 1))
    g1, g2 = draw(pair.filter(lambda g: _non_catastrophic(*g)))
    return _spec(k, g1, g2, draw(st.integers(k, 16)))


@st.composite
def received_words(draw, spec: CodeSpec) -> np.ndarray:
    """Noisy codewords: random payloads, each coded bit flipped with rate p."""
    n = draw(st.integers(1, 9))
    p = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    payloads = rng.integers(0, 2, size=(n, spec.payload_length), dtype=np.uint8)
    coded = encode_frames(payloads, build_trellis(spec))
    return coded ^ (rng.random(coded.shape) < p).astype(np.uint8)


def _check_agreement(spec: CodeSpec, words: np.ndarray, oracle: bool = True) -> None:
    trellis = build_trellis(spec)
    tb_bits, tb_metrics = decode_frames(words, trellis)
    re_bits, re_metrics = decode_frames(words, trellis, REGISTER_EXCHANGE)
    assert np.array_equal(tb_bits, re_bits)
    assert np.array_equal(tb_metrics, re_metrics)
    truths = ml_decode_frames(words, spec) if oracle else [None] * len(words)
    for row, bits, metric, truth in zip(words, tb_bits.tolist(), tb_metrics.tolist(), truths):
        for scheme in (TRACEBACK, REGISTER_EXCHANGE):  # one frame alone decodes as in the batch
            single_bits, single_metrics = decode_frames(row[np.newaxis], trellis, scheme)
            assert single_bits.tolist() == [bits]
            assert single_metrics.tolist() == [metric]
        assert bits[spec.payload_length:] == [0] * spec.tail_length
        recoded = reference_encode(bits[: spec.payload_length], spec)
        assert sum(a != b for a, b in zip(recoded, row.tolist())) == metric
        if oracle:
            assert truth.best_distance == metric


def _check_stage_words(spec: CodeSpec, words: np.ndarray) -> np.dtype:
    """Kernel stage words on every state and stage, unreachable states included,
    and every final metric equal :func:`reference_acs`.  Returns the kernel's
    metric dtype."""
    trellis = build_trellis(spec)
    rsym = (words[:, 0::2] << 1 | words[:, 1::2]).T
    metric, stage_words = _acs_kernel(rsym, trellis)
    references: dict[tuple[int, ...], tuple[list[int], list[float]]] = {}
    for i, row in enumerate(words.tolist()):
        if tuple(row) not in references:  # repeated rows are checked against one run
            references[tuple(row)] = reference_acs(row, spec)
        ref_words, ref_metric = references[tuple(row)]
        for t, word in enumerate(ref_words):
            bits = (stage_words[t, :, i >> 3] >> (i & 7)) & 1
            assert bits.tolist() == [(word >> s) & 1 for s in range(spec.num_states)]
        assert metric[:, i].tolist() == ref_metric
    return metric.dtype


@PROPERTY_SETTINGS
@given(st.data())
def test_decoders_agree_with_each_other_and_the_references(data):
    spec = data.draw(code_specs())
    _check_agreement(spec, data.draw(received_words(spec)))


@PROPERTY_SETTINGS
@given(st.data())
def test_kernel_stage_words_equal_reference_acs_on_every_state(data):
    spec = data.draw(code_specs())
    _check_stage_words(spec, data.draw(received_words(spec)))


@pytest.mark.parametrize("n", [1, 13, 300])
@pytest.mark.parametrize("stages, dtype", [(62, np.int8), (63, np.int16)])
def test_kernel_metric_dtype_boundary_equals_reference_acs(stages, dtype, n):
    # 2L = 124 is the last metric bound under int8's sentinel 127 - 2; one
    # stage more needs int16.  All-0 and all-3 symbols are the extreme inputs.
    spec = CodeSpec.from_octal("23,35", constraint_length=5, frame_stages=stages)
    rng = np.random.default_rng(stages * 1000 + n)
    random_words = rng.integers(0, 2, size=(n, 2 * stages), dtype=np.uint8)
    for words in (random_words, np.zeros_like(random_words), np.ones_like(random_words)):
        assert _check_stage_words(spec, words) == dtype


@pytest.mark.parametrize("stages, dtype", [(16382, np.int16), (16383, np.int32)])
def test_kernel_int16_boundary_equals_reference_acs(stages, dtype):
    # one frame, called directly: 2L = 32764 is the last bound under 32767 - 2
    spec = CodeSpec.from_octal("5,7", constraint_length=3, frame_stages=stages)
    words = np.random.default_rng(stages).integers(0, 2, size=(1, 2 * stages), dtype=np.uint8)
    assert _check_stage_words(spec, words) == dtype


def _k9_words(n: int, seed: int, stages: int = 20) -> tuple[CodeSpec, np.ndarray]:
    # S = 256: a stage word is longer than any machine word
    spec = CodeSpec.from_octal("561,753", constraint_length=9, frame_stages=stages)
    rng = np.random.default_rng(seed)
    payloads = rng.integers(0, 2, size=(n, spec.payload_length), dtype=np.uint8)
    coded = encode_frames(payloads, build_trellis(spec))
    return spec, coded ^ (rng.random(coded.shape) < 0.15).astype(np.uint8)


def test_k9_decoders_agree():
    _check_agreement(*_k9_words(11, seed=90))


def test_k9_stage_words_equal_reference_acs():
    _check_stage_words(*_k9_words(3, seed=91))


@pytest.mark.parametrize("n", [1, 8, 9, 300])
def test_k9_register_exchange_equals_traceback(n):
    # register exchange on 256 states, with frame counts on both sides of a
    # packed byte; the one-frame decodes are left to test_k9_decoders_agree
    spec, words = _k9_words(n, seed=94 + n, stages=40)
    trellis = build_trellis(spec)
    tb_bits, tb_metrics = decode_frames(words, trellis)
    re_bits, re_metrics = decode_frames(words, trellis, REGISTER_EXCHANGE)
    assert np.array_equal(re_bits, tb_bits)
    assert np.array_equal(re_metrics, tb_metrics)
    for row, bits, metric in zip(words.tolist(), re_bits.tolist(), re_metrics.tolist()):
        recoded = reference_encode(bits[: spec.payload_length], spec)
        assert sum(a != b for a, b in zip(recoded, row)) == metric


def test_default_spec_agrees_at_high_noise():
    # 34 payload bits is beyond the oracle; the re-encode distance still binds
    rng = np.random.default_rng(92)
    trellis = build_trellis(DEFAULT_SPEC)
    payloads = rng.integers(0, 2, size=(40, DEFAULT_SPEC.payload_length), dtype=np.uint8)
    coded = encode_frames(payloads, trellis)
    noisy = coded ^ (rng.random(coded.shape) < 0.12).astype(np.uint8)
    _check_agreement(DEFAULT_SPEC, noisy, oracle=False)
    _check_stage_words(DEFAULT_SPEC, noisy[:9])


@pytest.mark.parametrize("octal, k, stages", [("7,5", 3, 11), ("23,35", 5, 13)])
def test_reference_acs_state_zero_metric_is_the_ml_distance(octal, k, stages):
    # the two independent references agree: the zero tail makes the final
    # state-0 metric the distance to the nearest codeword
    spec = CodeSpec.from_octal(octal, constraint_length=k, frame_stages=stages)
    rng = np.random.default_rng(93)
    for row in rng.integers(0, 2, size=(12, 2 * stages)).tolist():
        assert reference_acs(row, spec)[1][0] == ml_enumerate(row, spec)[1]


def test_catastrophic_filter():
    # octal 6,5 at K=3 is (1 + D, 1 + D^2) and 3,3 at K=2 is (1 + D, 1 + D):
    # both share the factor 1 + D
    assert not _non_catastrophic(0b011, 0b101)
    assert not _non_catastrophic(0b11, 0b11)
    assert _non_catastrophic(0b111, 0b101)  # octal 7,5
    assert _non_catastrophic(0b110, 0b100)  # common factor D is only a delay


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_code_spec_rejects_exactly_the_catastrophic_pairs(k):
    for g1 in range(1, 1 << k):
        for g2 in range(1, 1 << k):
            if _non_catastrophic(g1, g2):
                _spec(k, g1, g2, k)
            else:
                with pytest.raises(ValueError, match="catastrophic"):
                    _spec(k, g1, g2, k)
