from __future__ import annotations

import random

import numpy as np
import pytest

from convfec.channel import NoiseConfig, add_awgn, bpsk_modulate, hard_quantize, inject_errors
from convfec.decoder import (
    REGISTER_EXCHANGE,
    TRACEBACK,
    ActivityReport,
    _acs_kernel,
    _register_exchange,
    _sentinel,
    decode_frames,
    stream_decode,
    traceback,
)
from convfec.encoder import encode_frames
from convfec.trellis import DEFAULT_SPEC, CodeSpec, build_trellis


def _noisy_frames(trellis, n, ebno_db, seed):
    rng = np.random.default_rng(seed)
    spec = trellis.spec
    payloads = rng.integers(0, 2, size=(n, spec.payload_length), dtype=np.uint8)
    coded = encode_frames(payloads, trellis)
    cfg = NoiseConfig(ebno_db, code_rate=0.5, seed=seed)
    symbols = add_awgn(bpsk_modulate(coded.ravel()), cfg, rng)
    return payloads, hard_quantize(symbols).reshape(coded.shape)


def test_acs_first_stage_from_reset(default_trellis):
    metric, words = _acs_kernel(np.zeros((1, 1), dtype=np.uint8), default_trellis)
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
    rsym = (received[:, 0::2] << 1 | received[:, 1::2]).T
    _, words = _acs_kernel(rsym, default_trellis)
    assert words.shape == (40, 64, 3)
    for t in (0, 5, 6, 20, 39):
        _, prefix = _acs_kernel(rsym[: t + 1], default_trellis)
        assert np.array_equal(prefix, words[: t + 1])
    writes = ActivityReport.for_frames(default_trellis.spec, TRACEBACK, 1).survivor_bit_writes
    assert writes == words.shape[0] * words.shape[1] == 64 * 40


def test_traceback_requires_complete_frame(default_trellis):
    words = np.zeros((1, 64, 1), dtype=np.uint8)
    with pytest.raises(ValueError, match="complete frame"):
        traceback(words, default_trellis, 1)


@pytest.mark.parametrize("shape, frames", [
    ((40, 32, 1), 1),  # 32-state words on the 64-state trellis
    ((40, 64, 1), 9),  # frame 8 would read the next state's byte
    ((39, 64, 1), 1),
])
def test_traceback_rejects_wrong_word_shape(default_trellis, shape, frames):
    with pytest.raises(ValueError, match="complete frame"):
        traceback(np.zeros(shape, dtype=np.uint8), default_trellis, frames)


def test_traceback_upper_branch_rule(default_trellis):
    # from state 0: bit set at 0 leads to 0>>1 + 32 = 32, then lower to 16,
    # then bit set at 16 leads to 16>>1 + 32 = 40, then 20, 10, 5, 2, 1, 0:
    # the odd states 5 and 1 are the states after stages 33 and 31
    words = np.zeros((40, 64, 1), dtype=np.uint8)
    words[39, 0, 0] = words[37, 16, 0] = 1
    assert np.flatnonzero(traceback(words, default_trellis, 1)[0]).tolist() == [31, 33]


def test_traceback_lower_branch_rule(default_trellis):
    # a clear bit at state 32 leads to 32>>1 = 16, then 8, 4, 2, 1 after stage 33
    words = np.zeros((40, 64, 1), dtype=np.uint8)
    words[39, 0, 0] = 1
    assert np.flatnonzero(traceback(words, default_trellis, 1)[0]).tolist() == [33]


def test_traceback_all_zero_memory(default_trellis):
    words = np.zeros((40, 64, 1), dtype=np.uint8)
    assert traceback(words, default_trellis, 1)[0].tolist() == [0] * 40


def test_traceback_reads_each_frames_own_bit(default_trellis):
    # frames share stage-word bytes, 8 to a byte: frame 9 is bit 1 of byte 1
    words = np.zeros((40, 64, 2), dtype=np.uint8)
    words[39, 0, 1] = 0b11  # frames 8 and 9
    words[37, 16, 1] = 1 << 1  # frame 9 only
    bits = traceback(words, default_trellis, 10)
    assert bits.shape == (10, 40) and bits.dtype == np.uint8
    assert np.flatnonzero(bits[9]).tolist() == [31, 33]
    assert np.flatnonzero(bits[8]).tolist() == [33]
    assert np.flatnonzero(bits[7]).tolist() == []


@pytest.mark.parametrize("spec", [
    CodeSpec.from_octal("7,5", constraint_length=3, frame_stages=5),
    CodeSpec.from_octal("23,35", constraint_length=5, frame_stages=14),
    DEFAULT_SPEC,
    CodeSpec.from_octal("561,753", constraint_length=9, frame_stages=20),
], ids=["k3", "k5", "default", "k9"])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 300])
def test_survivor_memories_agree_on_arbitrary_words(spec, n):
    # any stage words, not only the kernel's: both memories walk the same
    # survivor choices, and neither reads the padding bits of a last byte
    trellis = build_trellis(spec)
    rng = np.random.default_rng(n * 31 + spec.constraint_length)
    words = rng.integers(0, 256, (spec.frame_stages, spec.num_states, -(-n // 8)), dtype=np.uint8)
    assert np.array_equal(traceback(words, trellis, n), _register_exchange(words, trellis, n))


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


def test_decode_rejects_bad_frames(default_trellis):
    with pytest.raises(ValueError, match=r"\(n, 80\)"):
        decode_frames([[0] * 79], default_trellis)
    with pytest.raises(ValueError, match="0/1"):
        decode_frames([[0] * 79 + [3]], default_trellis)
    # values that an unchecked uint8 cast would silently wrap or truncate
    with pytest.raises(ValueError, match="0/1"):
        decode_frames([[0] * 79 + [256]], default_trellis)
    with pytest.raises(ValueError, match="0/1"):
        decode_frames([[0.5] * 80], default_trellis)
    # the message names the shape: a 1-D frame has 80 bits but the wrong shape
    with pytest.raises(ValueError, match=r"must have shape \(n, 80\), got \(80,\)$"):
        decode_frames(np.zeros(80), default_trellis)
    with pytest.raises(ValueError, match=r"must have shape \(n, 80\), got \(1, 81\)$"):
        decode_frames([[0] * 81], default_trellis)


def test_final_metric_is_distance_to_reencoded_decision(default_trellis):
    _, received = _noisy_frames(default_trellis, 60, ebno_db=2.0, seed=4)
    decoded, metrics = decode_frames(received, default_trellis)
    recoded = encode_frames(decoded[:, :34], default_trellis)
    assert np.array_equal(metrics, np.count_nonzero(recoded != received, axis=1))
    # the zero tail always decodes to zeros
    assert not decoded[:, 34:].any()


def test_metric_bound_holds_stage_by_stage(default_trellis):
    rng = random.Random(3)
    rsym = np.array([[rng.randrange(2) << 1 | rng.randrange(2)] for _ in range(40)],
                    dtype=np.uint8)
    for t in range(40):
        metric, _ = _acs_kernel(rsym[: t + 1], default_trellis)
        reachable = metric[:, 0] < _sentinel(metric.dtype)
        assert int(metric[reachable, 0].max()) <= 2 * (t + 1)


def test_register_exchange_matches_traceback(default_trellis):
    _, received = _noisy_frames(default_trellis, 80, ebno_db=1.0, seed=17)
    tb_bits, tb_metrics = decode_frames(received, default_trellis)
    re_bits, re_metrics = decode_frames(received, default_trellis, REGISTER_EXCHANGE)
    assert np.array_equal(re_bits, tb_bits)
    assert np.array_equal(re_metrics, tb_metrics)


def test_activity_closed_forms(default_trellis):
    tb = ActivityReport.for_frames(default_trellis.spec, TRACEBACK, 1)
    re = ActivityReport.for_frames(default_trellis.spec, REGISTER_EXCHANGE, 1)
    assert tb.survivor_bit_writes == 64 * 40 == 2560
    assert re.survivor_bit_writes == 64 * 40 * 41 // 2 == 52480
    assert tb.metric_writes == re.metric_writes == 64 * 40
    assert tb.traceback_reads == 40
    assert re.traceback_reads == 0


def test_activity_closed_forms_small_code(k3_trellis):
    tb = ActivityReport.for_frames(k3_trellis.spec, TRACEBACK, 1)
    re = ActivityReport.for_frames(k3_trellis.spec, REGISTER_EXCHANGE, 1)
    assert tb.survivor_bit_writes == 4 * 5
    assert re.survivor_bit_writes == 4 * 15
    assert re.survivor_bit_writes / tb.survivor_bit_writes == 3.0


def test_activity_report_rejects_negative_counts():
    with pytest.raises(ValueError):
        ActivityReport(TRACEBACK, -1, 0, 0)


def test_batch_decode_rejects_bad_shape(default_trellis):
    with pytest.raises(ValueError):
        decode_frames(np.zeros((3, 79), dtype=np.uint8), default_trellis)


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


def test_seven_error_pattern_corrected(default_trellis):
    coded = encode_frames(np.zeros((1, 34)), default_trellis)
    noisy = inject_errors(coded, {3, 17, 30, 41, 55, 60, 76})
    decoded, metrics = decode_frames(noisy, default_trellis)
    assert decoded.tolist() == [[0] * 40]
    assert metrics.tolist() == [7]


def test_activity_for_frames_scales_and_rejects_unknown_scheme(default_trellis):
    spec = default_trellis.spec
    assert ActivityReport.for_frames(spec, TRACEBACK, 3) == ActivityReport(
        TRACEBACK, 3 * 2560, 3 * 2560, 3 * 40
    )
    assert ActivityReport.for_frames(spec, REGISTER_EXCHANGE, 0) == ActivityReport(
        REGISTER_EXCHANGE, 0, 0, 0
    )
    with pytest.raises(ValueError, match="unknown survivor scheme"):
        ActivityReport.for_frames(spec, "regex", 1)


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
