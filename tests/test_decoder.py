from __future__ import annotations

import hashlib
import random
import re

import numpy as np
import pytest

import convfec
from convfec import decoder
from convfec.channel import NoiseConfig, add_awgn, bpsk_modulate, hard_quantize, inject_errors
from convfec.decoder import (
    REGISTER_EXCHANGE,
    TRACEBACK,
    ActivityReport,
    _acs_kernel,
    _check_terminal,
    _register_exchange,
    _sentinel,
    _traceback,
    decode_frames,
    stream_decode,
)
from convfec.encoder import encode_frames
from convfec.trellis import DEFAULT_SPEC, CodeSpec, build_trellis

from reference import codeword_distances


def _noisy_frames(trellis, n, ebno_db, seed):
    rng = np.random.default_rng(seed)
    spec = trellis.spec
    payloads = rng.integers(0, 2, size=(n, spec.payload_length), dtype=np.uint8)
    coded = encode_frames(payloads, trellis)
    cfg = NoiseConfig(ebno_db, code_rate=0.5)
    symbols = add_awgn(bpsk_modulate(coded.ravel()), cfg, rng)
    return payloads, hard_quantize(symbols).reshape(coded.shape)


def test_acs_first_stage_from_reset(default_trellis):
    metric, words = _acs_kernel(np.zeros((1, 2), dtype=np.uint8), default_trellis)
    reachable = metric[:, 0] < _sentinel(metric.dtype)
    assert list(np.flatnonzero(reachable)) == [0, 1]
    assert metric[0, 0] == 0
    assert metric[1, 0] == 2
    assert not words.any()  # both survivors arrived via the lower branch


def test_survivor_memory_write_contract(default_trellis):
    # each stage word is written once, at its own stage: a run over the
    # first t+1 symbols has already produced stage words 0..t exactly as the
    # full frame leaves them, and a frame holds exactly 40 words of 64 bits
    _, received = _noisy_frames(default_trellis, 19, ebno_db=0.0, seed=5)
    _, words = _acs_kernel(received, default_trellis)
    assert words.shape == (40, 64, 3)
    for t in (0, 5, 6, 20, 39):
        _, prefix = _acs_kernel(received[:, : 2 * (t + 1)], default_trellis)
        assert np.array_equal(prefix, words[: t + 1])
    writes = ActivityReport(default_trellis.spec, TRACEBACK, 1).survivor_bit_writes
    assert writes == words.shape[0] * words.shape[1] == 64 * 40


def test_traceback_upper_branch_rule(default_trellis):
    # from state 0: bit set at 0 leads to 0>>1 + 32 = 32, then lower to 16,
    # then bit set at 16 leads to 16>>1 + 32 = 40, then 20, 10, 5, 2, 1, 0:
    # the odd states 5 and 1 are the states after stages 33 and 31
    words = np.zeros((40, 64, 1), dtype=np.uint8)
    words[39, 0, 0] = words[37, 16, 0] = 1
    assert np.flatnonzero(_traceback(words, default_trellis, 1)[0]).tolist() == [31, 33]


def test_traceback_lower_branch_rule(default_trellis):
    # a clear bit at state 32 leads to 32>>1 = 16, then 8, 4, 2, 1 after stage 33
    words = np.zeros((40, 64, 1), dtype=np.uint8)
    words[39, 0, 0] = 1
    assert np.flatnonzero(_traceback(words, default_trellis, 1)[0]).tolist() == [33]


def test_traceback_all_zero_memory(default_trellis):
    words = np.zeros((40, 64, 1), dtype=np.uint8)
    assert _traceback(words, default_trellis, 1)[0].tolist() == [0] * 40


def test_traceback_reads_each_frames_own_bit(default_trellis):
    # frames share stage-word bytes, 8 to a byte: frame 9 is bit 1 of byte 1
    words = np.zeros((40, 64, 2), dtype=np.uint8)
    words[39, 0, 1] = 0b11  # frames 8 and 9
    words[37, 16, 1] = 1 << 1  # frame 9 only
    bits = _traceback(words, default_trellis, 10)
    assert bits.shape == (10, 40) and bits.dtype == np.uint8
    assert np.flatnonzero(bits[9]).tolist() == [31, 33]
    assert np.flatnonzero(bits[8]).tolist() == [33]
    assert np.flatnonzero(bits[7]).tolist() == []


def test_the_package_exports_exactly_its_public_api():
    # the survivor memories are internal: decode_frames picks one by its scheme name
    assert convfec.__all__ == [
        "ActivityReport", "BerPoint", "CodeSpec", "DEFAULT_SPEC", "MAX_PAYLOAD_BITS", "MlResult",
        "NoiseConfig", "PowerCompareResult", "REGISTER_EXCHANGE", "StreamedFrame", "SweepConfig",
        "TRACEBACK", "Trellis", "add_awgn", "ber_sweep", "bpsk_modulate", "build_trellis",
        "decode_frames", "encode_frames", "free_distance", "hard_quantize", "inject_errors",
        "ml_decode_frames", "power_compare", "stream_decode", "theoretical_uncoded_ber",
    ]
    assert convfec.__all__ == sorted(convfec.__all__)
    assert all(hasattr(convfec, name) for name in convfec.__all__)
    assert not hasattr(convfec, "traceback")


@pytest.mark.parametrize("spec", [
    CodeSpec.from_octal("7,5", constraint_length=3, frame_stages=5),
    CodeSpec.from_octal("23,35", constraint_length=5, frame_stages=14),
    DEFAULT_SPEC,
    CodeSpec.from_octal("561,753", constraint_length=9, frame_stages=20),
    CodeSpec.from_octal("171,133", constraint_length=7, frame_stages=41),
    CodeSpec.from_octal("3,1", constraint_length=2, frame_stages=2),
    CodeSpec.from_octal("3,1", constraint_length=2, frame_stages=3),
    CodeSpec.from_octal("23,35", constraint_length=5, frame_stages=5),
    CodeSpec.from_octal("23,35", constraint_length=5, frame_stages=6),
    CodeSpec.from_octal("171,133", constraint_length=7, frame_stages=7),
    CodeSpec.from_octal("171,133", constraint_length=7, frame_stages=12),
    CodeSpec.from_octal("561,753", constraint_length=9, frame_stages=9),
], ids=["k3", "k5", "default", "k9", "default-L41", "k2-L2", "k2-L3", "k5-L5", "k5-L6",
        "default-L7", "default-L12", "k9-L9"])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 300, 400, 2048])
def test_survivor_memories_agree_on_arbitrary_words(spec, n):
    # any stage words, not only the kernel's: both memories walk the same
    # survivor choices, and neither reads the padding bits of a last byte.
    # Register exchange swaps two buffers each stage, so frames of both
    # parities (L = 40 and 41, L = K and K+1) end in either buffer.  Its last
    # K-1 stages update only the states that still reach state 0; at L <= 2(K-1)
    # they meet or overlap the first K-1, the ACS warm-up (L = 7 and 12 at K = 7,
    # L = 9 at K = 9).
    trellis = build_trellis(spec)
    rng = np.random.default_rng(n * 31 + spec.constraint_length)
    words = rng.integers(0, 256, (spec.frame_stages, spec.num_states, -(-n // 8)), dtype=np.uint8)
    assert np.array_equal(_traceback(words, trellis, n), _register_exchange(words, trellis, n))


@pytest.mark.parametrize("spec", [
    CodeSpec.from_octal("4335,5723", constraint_length=12, frame_stages=13),
    CodeSpec.from_octal("104157,126235", constraint_length=16, frame_stages=17),
], ids=["k12", "k16"])
@pytest.mark.parametrize("n", [1, 9])
def test_survivor_memories_agree_on_arbitrary_words_at_the_k_cap(spec, n):
    # the sibling above at K = 12 and the cap K = 16, where S/2 reaches 16384 and
    # register exchange XORs 32768 registers in place; small n keeps K = 16's words small
    trellis = build_trellis(spec)
    rng = np.random.default_rng(n * 31 + spec.constraint_length)
    words = rng.integers(0, 256, (spec.frame_stages, spec.num_states, -(-n // 8)), dtype=np.uint8)
    assert np.array_equal(_traceback(words, trellis, n), _register_exchange(words, trellis, n))


def test_decode_clean_roundtrip(default_trellis):
    rng = random.Random(21)
    payloads = np.array([[rng.randrange(2) for _ in range(34)] for _ in range(25)])
    decoded, metrics = decode_frames(encode_frames(payloads, default_trellis), default_trellis)
    assert np.array_equal(decoded[:, :34], payloads) and not decoded[:, 34:].any()
    assert not metrics.any()


def test_decode_k3_frame(k3_trellis):
    decoded, metrics = decode_frames(np.array([[1, 1, 1, 0, 0, 0, 1, 0, 1, 1]]), k3_trellis)
    assert decoded.tolist() == [[1, 0, 1, 0, 0]]
    assert metrics.tolist() == [0]


def test_final_metric_is_distance_to_reencoded_decision(default_trellis):
    _, received = _noisy_frames(default_trellis, 60, ebno_db=2.0, seed=4)
    decoded, metrics = decode_frames(received, default_trellis)
    recoded = encode_frames(decoded[:, :34], default_trellis)
    assert np.array_equal(metrics, np.count_nonzero(recoded != received, axis=1))
    # the zero tail always decodes to zeros
    assert not decoded[:, 34:].any()


def test_metric_bound_holds_stage_by_stage(default_trellis):
    rng = random.Random(3)
    rows = np.array([[rng.randrange(2) for _ in range(80)]], dtype=np.uint8)
    for t in range(40):
        metric, _ = _acs_kernel(rows[:, : 2 * (t + 1)], default_trellis)
        reachable = metric[:, 0] < _sentinel(metric.dtype)
        assert int(metric[reachable, 0].max()) <= 2 * (t + 1)


def test_a_terminal_metric_one_past_the_bound_raises():
    _check_terminal(np.array([80]), 40)  # 2 per stage is the most a real path can cost
    with pytest.raises(RuntimeError, match=r"^path metric bound breached: 81 > 2 \* 40 stages$"):
        _check_terminal(np.array([81]), 40)


def test_register_exchange_matches_traceback(default_trellis):
    _, received = _noisy_frames(default_trellis, 80, ebno_db=1.0, seed=17)
    tb_bits, tb_metrics = decode_frames(received, default_trellis)
    re_bits, re_metrics = decode_frames(received, default_trellis, REGISTER_EXCHANGE)
    assert np.array_equal(re_bits, tb_bits)
    assert np.array_equal(re_metrics, tb_metrics)


_K3 = CodeSpec.from_octal("7,5", constraint_length=3, frame_stages=5)


# (spec, scheme, frames, the counts (survivor_bit_writes, metric_writes, traceback_reads)
# or the error that refuses the inputs)
@pytest.mark.parametrize("spec, scheme, frames, want", [
    # S * L survivor bits and metrics per frame; register exchange copies t rows at stage t,
    # S * L * (L + 1) / 2 bits: 64 * 40 = 2560 and 64 * 40 * 41 / 2 = 52480 at K = 7, L = 40
    pytest.param(DEFAULT_SPEC, TRACEBACK, 1, (2560, 2560, 40), id="default-trace-back"),
    pytest.param(DEFAULT_SPEC, REGISTER_EXCHANGE, 1, (52480, 2560, 0),
                 id="default-register-exchange"),
    # 4 * 5 and 4 * 15: register exchange writes (L + 1) / 2 = 3 times as many at L = 5
    pytest.param(_K3, TRACEBACK, 1, (20, 20, 5), id="k3-trace-back"),
    pytest.param(_K3, REGISTER_EXCHANGE, 1, (60, 20, 0), id="k3-register-exchange"),
    pytest.param(DEFAULT_SPEC, TRACEBACK, 3, (3 * 2560, 3 * 2560, 3 * 40),
                 id="default-trace-back-3-frames"),
    pytest.param(DEFAULT_SPEC, REGISTER_EXCHANGE, 0, (0, 0, 0),
                 id="default-register-exchange-0-frames"),
    pytest.param(DEFAULT_SPEC, "regex", 1, ValueError("unknown survivor scheme 'regex'"),
                 id="unknown-scheme"),
    pytest.param(DEFAULT_SPEC, TRACEBACK, -1, ValueError("frames must be nonnegative, got -1"),
                 id="negative-frames"),
])
def test_activity_closed_forms(spec, scheme, frames, want):
    if isinstance(want, Exception):
        with pytest.raises(type(want), match=f"^{re.escape(str(want))}$"):
            ActivityReport(spec, scheme, frames)
        return
    report = ActivityReport(spec, scheme, frames)
    assert (report.survivor_bit_writes, report.metric_writes, report.traceback_reads) == want


def test_stream_decode_single_frame(default_trellis):
    coded = encode_frames(np.ones((1, 34)), default_trellis)
    out = stream_decode(coded.tolist(), default_trellis)
    assert len(out) == 1
    assert out[0].index == 0
    assert out[0].available_at_clock == 40
    assert out[0].latency_clocks == 40
    assert out[0].decoded == decode_frames(coded, default_trellis)[0][0].tolist()


def test_stream_decode_ordering_and_latency(default_trellis):
    rng = random.Random(31)
    payloads = [[rng.randrange(2) for _ in range(34)] for _ in range(5)]
    frames = encode_frames(payloads, default_trellis).tolist()
    out = stream_decode(frames, default_trellis)
    assert [f.index for f in out] == [0, 1, 2, 3, 4]
    for i, f in enumerate(out):
        first_possible = i * 40
        assert f.available_at_clock - first_possible == 40
        assert f.latency_clocks == 40


def test_stream_decode_clocks_follow_the_frame_length(k3_trellis):
    # L = 5: the clocks come from each frame's own length, not from the default 40
    frames = encode_frames(np.eye(3, dtype=np.uint8), k3_trellis).tolist()
    out = stream_decode(frames, k3_trellis)
    assert [(f.index, f.available_at_clock, f.latency_clocks) for f in out] == [
        (i, 5 * (i + 1), 5) for i in range(3)]


def test_stream_decode_empty(default_trellis):
    assert stream_decode([], default_trellis) == []


def test_stream_decode_truncated_final_frame(default_trellis):
    good = encode_frames(np.zeros((1, 34)), default_trellis)[0].tolist()
    with pytest.raises(ValueError, match="truncated final frame"):
        stream_decode([good, good[:13]], default_trellis)


def test_stream_decode_bad_interior_frame(default_trellis):
    good = encode_frames(np.zeros((1, 34)), default_trellis)[0].tolist()
    with pytest.raises(ValueError, match="frame 0: expected 80"):
        stream_decode([good[:13], good], default_trellis)


@pytest.mark.parametrize("frames, got", [([0] * 80, "0"), (np.zeros(80, np.uint8), "np.uint8(0)")])
def test_stream_decode_names_a_frame_that_is_not_a_sequence(default_trellis, frames, got):
    with pytest.raises(TypeError) as caught:
        stream_decode(frames, default_trellis)
    assert str(caught.value) == f"frame 0 must be a sequence of coded bits, got {got}"


def test_seven_error_pattern_corrected(default_trellis):
    coded = encode_frames(np.zeros((1, 34)), default_trellis)
    noisy = inject_errors(coded, {3, 17, 30, 41, 55, 60, 76})
    decoded, metrics = decode_frames(noisy, default_trellis)
    assert decoded.tolist() == [[0] * 40]
    assert metrics.tolist() == [7]


def test_batch_decode_both_schemes(default_trellis):
    _, received = _noisy_frames(default_trellis, 100, ebno_db=0.5, seed=9)
    tb_bits, tb_metrics = decode_frames(received, default_trellis)
    re_bits, re_metrics = decode_frames(received, default_trellis, REGISTER_EXCHANGE)
    assert np.array_equal(tb_bits, re_bits)
    assert np.array_equal(tb_metrics, re_metrics)
    with pytest.raises(ValueError, match="unknown survivor scheme"):
        decode_frames(received, default_trellis, "regex")


def test_batch_decode_empty(default_trellis):
    for scheme in (TRACEBACK, REGISTER_EXCHANGE):
        decoded, metrics = decode_frames(np.zeros((0, 80), dtype=np.uint8), default_trellis, scheme)
        assert decoded.shape == (0, 40)
        assert metrics.shape == (0,)


@pytest.mark.parametrize("piece", [1, 13])  # a piece of 1 is the one-frame decode
@pytest.mark.parametrize("code", ["k3-arbitrary", "default-noisy"])
def test_batch_decode_is_independent_of_batch_size(code, piece, k3_trellis, default_trellis):
    if code == "k3-arbitrary":
        # more frames than one kernel block, and a count that is not a multiple of 8
        trellis = k3_trellis
        words = np.random.default_rng(40).integers(0, 2, size=(4100, 10), dtype=np.uint8)
    else:
        trellis = default_trellis
        words = _noisy_frames(default_trellis, 120, ebno_db=1.5, seed=8)[1]
    for scheme in (TRACEBACK, REGISTER_EXCHANGE):
        decoded, metrics = decode_frames(words, trellis, scheme)
        pieces = [decode_frames(words[lo:lo + piece], trellis, scheme)
                  for lo in range(0, len(words), piece)]
        assert np.array_equal(decoded, np.concatenate([p[0] for p in pieces]))
        assert np.array_equal(metrics, np.concatenate([p[1] for p in pieces]))


@pytest.mark.parametrize("spec, frames, widths", [
    (DEFAULT_SPEC, 4100, [2048, 2048, 4]),
    (CodeSpec.from_octal("561,753", constraint_length=9, frame_stages=12), 1100, [512, 512, 76]),
    (CodeSpec.from_octal("4335,5723", constraint_length=12, frame_stages=14), 600, [256, 256, 88]),
], ids=["k7", "k9", "k12"])
def test_decoder_blocks_are_sized_by_state_count(monkeypatch, spec, frames, widths):
    # 2048 frames of a 64-state code per kernel call, 2048 * 64 / S frames
    # above, at least 256; a batch decodes as its pieces do across a block boundary
    trellis = build_trellis(spec)
    received = np.random.default_rng(frames).integers(0, 2, (frames, 2 * spec.frame_stages),
                                                      dtype=np.uint8)
    seen = []
    kernel = decoder._acs_kernel

    def recording_kernel(rows, trellis):
        seen.append(rows.shape[0])
        return kernel(rows, trellis)

    monkeypatch.setattr(decoder, "_acs_kernel", recording_kernel)
    for scheme in (TRACEBACK, REGISTER_EXCHANGE):
        seen.clear()
        bits, metrics = decode_frames(received, trellis, scheme)
        assert seen == widths
        pieces = [decode_frames(received[lo:lo + 100], trellis, scheme)
                  for lo in range(0, frames, 100)]  # piece 200-300 holds the first boundary
        assert np.array_equal(bits, np.concatenate([p[0] for p in pieces]))
        assert np.array_equal(metrics, np.concatenate([p[1] for p in pieces]))


def test_register_exchange_spans_several_words():
    # 150 stages: each register is 150 rows of frame-packed bytes, longer
    # than any machine word
    spec = CodeSpec.from_octal("7,5", constraint_length=3, frame_stages=150)
    trellis = build_trellis(spec)
    rng = np.random.default_rng(41)
    payloads = rng.integers(0, 2, size=(9, spec.payload_length), dtype=np.uint8)
    received = encode_frames(payloads, trellis)
    received[:, ::17] ^= 1
    tb_bits, tb_metrics = decode_frames(received, trellis)
    re_bits, re_metrics = decode_frames(received, trellis, REGISTER_EXCHANGE)
    assert np.array_equal(tb_bits, re_bits)
    assert np.array_equal(tb_metrics, re_metrics)


# SHA-256 over decode_frames' bits, metrics and bit dtype for both schemes, five
# code shapes and eight batch sizes: odd and even K, L below and at a 64-bit
# word edge, and batches of 0, 1, word-edge and multi-block sizes
_EQUIVALENCE_DIGEST = "22b2273f373c3ece5f5815a2565430c07dca37331aeb1637b965121a87953a55"


def test_every_received_word_of_a_small_code_decodes_to_maximum_likelihood():
    # K=3 7,5 with L=8: all 2^16 received words against all 2^6 codewords
    spec = CodeSpec.from_octal("7,5", constraint_length=3, frame_stages=8)
    width = 2 * spec.frame_stages
    words = ((np.arange(1 << width)[:, None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)
    payloads, distances = codeword_distances(words, spec)
    decoded, metrics = decode_frames(words, build_trellis(spec))
    nearest = distances.min(axis=1)
    assert np.array_equal(metrics, nearest)
    unique = np.count_nonzero(distances == nearest[:, None], axis=1) == 1
    assert np.count_nonzero(unique) == 41_152
    best = payloads[distances.argmin(axis=1)]
    assert np.array_equal(decoded[unique, :spec.payload_length], best[unique])


def test_decode_frames_equivalence_digest():
    digest = hashlib.sha256()
    specs = [CodeSpec.from_octal("7,5", 3, 5), CodeSpec.from_octal("23,35", 5, 62),
             CodeSpec.from_octal("23,35", 5, 63), DEFAULT_SPEC,
             CodeSpec.from_octal("561,753", 9, 40)]
    for spec in specs:
        trellis = build_trellis(spec)
        k, stages = spec.constraint_length, spec.frame_stages
        for n in (0, 1, 7, 8, 9, 13, 300, 2049):
            coded = np.random.default_rng(n + k + stages).integers(
                0, 2, (n, 2 * stages), np.uint8)
            for scheme in (TRACEBACK, REGISTER_EXCHANGE):
                bits, metrics = decode_frames(coded, trellis, scheme)
                digest.update(bits.tobytes())
                digest.update(metrics.tobytes())
                digest.update(str(bits.dtype).encode())
    assert digest.hexdigest() == _EQUIVALENCE_DIGEST
