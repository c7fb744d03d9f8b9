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
    _sentinel,
    decode_frame,
    decode_frame_register_exchange,
    decode_frames,
    output_map,
    stream_decode,
    traceback,
)
from convfec.encoder import encode_frame, encode_frames
from convfec.trellis import CodeSpec, build_trellis


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


def test_traceback_upper_branch_rule(default_trellis):
    # from state 0: bit set at 0 leads to 0>>1 + 32 = 32, then lower to 16,
    # then bit set at 16 leads to 16>>1 + 32 = 40
    words = np.zeros((40, 64, 1), dtype=np.uint8)
    words[39, 0, 0] = words[37, 16, 0] = 1
    assert traceback(words, default_trellis, 1)[0, :4].tolist() == [0, 32, 16, 40]


def test_traceback_lower_branch_rule(default_trellis):
    # a clear bit at state 32 leads to 32>>1 = 16
    words = np.zeros((40, 64, 1), dtype=np.uint8)
    words[39, 0, 0] = 1
    assert traceback(words, default_trellis, 1)[0, :3].tolist() == [0, 32, 16]


def test_traceback_all_zero_memory(default_trellis):
    words = np.zeros((40, 64, 1), dtype=np.uint8)
    assert traceback(words, default_trellis, 1)[0].tolist() == [0] * 41


def test_traceback_reads_each_frames_own_bit(default_trellis):
    # frames share stage-word bytes, 8 to a byte: frame 9 is bit 1 of byte 1
    words = np.zeros((40, 64, 2), dtype=np.uint8)
    words[39, 0, 1] = 0b11  # frames 8 and 9
    words[37, 16, 1] = 1 << 1  # frame 9 only
    paths = traceback(words, default_trellis, 10)
    assert paths[9, :4].tolist() == [0, 32, 16, 40]
    assert paths[8, :4].tolist() == [0, 32, 16, 8]
    assert paths[7, :4].tolist() == [0, 0, 0, 0]


def test_output_map_state_parity():
    # newest-first path: state 5 entered at stage 1 decodes bit 0 to 1,
    # state 6 entered at stage 2 decodes bit 1 to 0
    assert output_map([6, 5, 0]).tolist() == [1, 0]


def test_output_map_zero_path():
    assert output_map([0] * 41).tolist() == [0] * 40


def test_decode_clean_roundtrip(default_trellis):
    rng = random.Random(21)
    for _ in range(25):
        payload = [rng.randrange(2) for _ in range(34)]
        coded = encode_frame(payload, default_trellis)
        decoded, metric, activity = decode_frame(coded, default_trellis)
        assert decoded == payload + [0] * 6
        assert metric == 0
        assert activity.scheme == TRACEBACK


def test_decode_k3_frame(k3_trellis):
    decoded, metric, _ = decode_frame([1, 1, 1, 0, 0, 0, 1, 0, 1, 1], k3_trellis)
    assert decoded == [1, 0, 1, 0, 0]
    assert metric == 0


def test_decode_rejects_bad_frames(default_trellis):
    with pytest.raises(ValueError, match="80 bits"):
        decode_frame([0] * 79, default_trellis)
    with pytest.raises(ValueError, match="0/1"):
        decode_frame([0] * 79 + [3], default_trellis)
    # values that an unchecked uint8 cast would silently wrap or truncate
    with pytest.raises(ValueError, match="0/1"):
        decode_frame([0] * 79 + [256], default_trellis)
    with pytest.raises(ValueError, match="0/1"):
        decode_frame([0.5] * 80, default_trellis)
    # the message names the shape: a 2-D frame has 80 bits but the wrong shape
    with pytest.raises(ValueError, match=r"must be 80 bits, got shape \(1, 80\)$"):
        decode_frame(np.zeros((1, 80)), default_trellis)
    with pytest.raises(ValueError, match=r"must be 80 bits, got shape \(81,\)$"):
        decode_frame([0] * 81, default_trellis)


def test_final_metric_is_distance_to_reencoded_decision(default_trellis):
    _, received = _noisy_frames(default_trellis, 60, ebno_db=2.0, seed=4)
    for row in received:
        decoded, metric, _ = decode_frame(row, default_trellis)
        recoded = encode_frame(decoded[:34], default_trellis)
        assert metric == sum(a != b for a, b in zip(recoded, row))
        # the zero tail always decodes to zeros
        assert decoded[34:] == [0] * 6


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
    for row in received:
        tb = decode_frame(row, default_trellis)
        re = decode_frame_register_exchange(row, default_trellis)
        assert re.decoded == tb.decoded
        assert re.final_metric == tb.final_metric
        assert re.activity.scheme == REGISTER_EXCHANGE


def test_activity_closed_forms(default_trellis):
    coded = encode_frame([0] * 34, default_trellis)
    tb = decode_frame(coded, default_trellis).activity
    re = decode_frame_register_exchange(coded, default_trellis).activity
    assert tb.survivor_bit_writes == 64 * 40 == 2560
    assert re.survivor_bit_writes == 64 * 40 * 41 // 2 == 52480
    assert tb.metric_writes == re.metric_writes == 64 * 40
    assert tb.traceback_reads == 40
    assert re.traceback_reads == 0


def test_activity_closed_forms_small_code(k3_trellis):
    coded = encode_frame([1, 0, 1], k3_trellis)
    tb = decode_frame(coded, k3_trellis).activity
    re = decode_frame_register_exchange(coded, k3_trellis).activity
    assert tb.survivor_bit_writes == 4 * 5
    assert re.survivor_bit_writes == 4 * 15
    assert re.survivor_bit_writes / tb.survivor_bit_writes == 3.0


def test_activity_report_rejects_negative_counts():
    with pytest.raises(ValueError):
        ActivityReport(TRACEBACK, -1, 0, 0)


def test_batch_decode_matches_engine(default_trellis):
    _, received = _noisy_frames(default_trellis, 120, ebno_db=1.5, seed=8)
    decoded, metrics = decode_frames(received, default_trellis)
    for i, row in enumerate(received):
        single = decode_frame(row, default_trellis)
        assert single.decoded == list(decoded[i])
        assert single.final_metric == int(metrics[i])


def test_batch_decode_matches_engine_on_arbitrary_words(k3_trellis):
    rng = np.random.default_rng(12)
    words = rng.integers(0, 2, size=(500, 10), dtype=np.uint8)
    decoded, metrics = decode_frames(words, k3_trellis)
    for i, row in enumerate(words):
        single = decode_frame(row, k3_trellis)
        assert single.decoded == list(decoded[i])
        assert single.final_metric == int(metrics[i])


def test_batch_decode_rejects_bad_shape(default_trellis):
    with pytest.raises(ValueError):
        decode_frames(np.zeros((3, 79), dtype=np.uint8), default_trellis)


def test_stream_decode_single_frame(default_trellis):
    coded = encode_frame([1] * 34, default_trellis)
    out = stream_decode([coded], default_trellis)
    assert len(out) == 1
    assert out[0].index == 0
    assert out[0].available_at_clock == 40
    assert out[0].latency_clocks == 40
    assert out[0].decoded == decode_frame(coded, default_trellis).decoded


def test_stream_decode_ordering_and_latency(default_trellis):
    rng = random.Random(31)
    frames = [
        encode_frame([rng.randrange(2) for _ in range(34)], default_trellis)
        for _ in range(5)
    ]
    out = stream_decode(frames, default_trellis)
    assert [f.index for f in out] == [0, 1, 2, 3, 4]
    for i, f in enumerate(out):
        first_possible = i * 40
        assert f.available_at_clock - first_possible == 40
        assert f.latency_clocks == 40


def test_stream_decode_empty(default_trellis):
    assert stream_decode([], default_trellis) == []


def test_stream_decode_truncated_final_frame(default_trellis):
    good = encode_frame([0] * 34, default_trellis)
    with pytest.raises(ValueError, match="truncated final frame"):
        stream_decode([good, good[:13]], default_trellis)


def test_stream_decode_bad_interior_frame(default_trellis):
    good = encode_frame([0] * 34, default_trellis)
    with pytest.raises(ValueError, match="frame 0: expected 80"):
        stream_decode([good[:13], good], default_trellis)


def test_seven_error_pattern_corrected(default_trellis):
    coded = encode_frame([0] * 34, default_trellis)
    noisy = inject_errors(coded, {3, 17, 30, 41, 55, 60, 76})
    decoded, metric, _ = decode_frame(noisy, default_trellis)
    assert decoded == [0] * 40
    assert metric == 7


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


def test_batch_decode_is_independent_of_batch_size(k3_trellis):
    # more frames than one kernel block, and a count that is not a multiple of 8
    words = np.random.default_rng(40).integers(0, 2, size=(4100, 10), dtype=np.uint8)
    for scheme in (TRACEBACK, REGISTER_EXCHANGE):
        decoded, metrics = decode_frames(words, k3_trellis, scheme)
        pieces = [decode_frames(words[lo:lo + 13], k3_trellis, scheme) for lo in range(0, 4100, 13)]
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
