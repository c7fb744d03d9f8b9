"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The statistical criteria are deterministic: every
random draw comes from a fixed seed.
"""

from __future__ import annotations

import math
import time

import numpy as np

from convfec.channel import NoiseConfig, add_awgn, bpsk_modulate, hard_quantize, inject_errors
from convfec.decoder import (
    REGISTER_EXCHANGE,
    TRACEBACK,
    ActivityReport,
    decode_frames,
    stream_decode,
)
from convfec.encoder import encode_frames
from convfec.harness import SweepConfig, ber_sweep, power_compare, theoretical_uncoded_ber
from convfec.oracle import ml_decode_frames
from convfec.trellis import DEFAULT_SPEC, CodeSpec, build_trellis, free_distance

from reference import low_weight_codewords, min_codeword_weight_upto

SEVEN_ERROR_PATTERN = frozenset({3, 17, 30, 41, 55, 60, 76})


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _wrong_rows(decoded: np.ndarray, payloads: np.ndarray) -> np.ndarray:
    """Rows whose decoded bits are not the payload plus a zero tail."""
    tail = np.zeros((len(payloads), decoded.shape[1] - payloads.shape[1]), dtype=np.uint8)
    return (decoded != np.hstack([payloads, tail])).any(axis=1)


def test_criterion_01_clean_round_trip(default_trellis):
    rng = np.random.default_rng(1001)
    n = 10_000
    start = time.perf_counter()
    payloads = rng.integers(0, 2, size=(n, 34), dtype=np.uint8)
    decoded, metrics = decode_frames(encode_frames(payloads, default_trellis), default_trellis)
    failures = int(np.count_nonzero(_wrong_rows(decoded, payloads) | (metrics != 0)))
    elapsed = time.perf_counter() - start
    _report(
        1,
        failures == 0,
        f"{n} noiseless frames, exact recovery with metric 0 "
        f"({failures} failures, {elapsed:.1f}s)",
    )


def test_criterion_02_free_distance():
    searched = free_distance(DEFAULT_SPEC, 16)
    enumerated = min_codeword_weight_upto(DEFAULT_SPEC, 24)
    _report(
        2,
        searched == 10 and enumerated == 10,
        f"free distance 10: trellis search gives {searched}, exhaustive "
        f"enumeration of inputs up to length 24 gives {enumerated}",
    )


def test_criterion_03_guaranteed_correction(default_trellis):
    rng = np.random.default_rng(1003)
    n = 10_000
    payloads = np.empty((n, 34), dtype=np.uint8)
    errors = np.zeros((n, 80), dtype=np.uint8)
    for i in range(n):
        payloads[i] = rng.integers(0, 2, size=34)
        weight = int(rng.integers(1, 5))
        errors[i, rng.choice(80, size=weight, replace=False)] = 1
    received = encode_frames(payloads, default_trellis) ^ errors
    decoded, _ = decode_frames(received, default_trellis)
    failures = int(np.count_nonzero(_wrong_rows(decoded, payloads)))
    _report(
        3,
        failures == 0,
        f"{n} random error patterns of weight <= 4 all corrected exactly "
        f"({failures} failures)",
    )


def test_criterion_04_seven_error_pattern(default_trellis):
    pattern = set(SEVEN_ERROR_PATTERN)

    # Uniqueness pre-validation.  The received word is codeword + pattern, and
    # by linearity the distance from it to any other codeword is
    # w(c) + 7 - 2*|supp(c) & pattern| for a nonzero codeword c, which exceeds
    # 7 whenever w(c) > 14.  Enumerating every nonzero codeword of weight <= 14
    # therefore settles uniqueness for ANY transmitted frame.
    rivals = low_weight_codewords(DEFAULT_SPEC, 14)
    min_rival = min(w + 7 - 2 * len(pattern & set(sup)) for w, sup in rivals)
    unique = min_rival > 7

    zero_coded = encode_frames(np.zeros((1, 34), dtype=np.uint8), default_trellis)
    decoded, metric = decode_frames(inject_errors(zero_coded, pattern), default_trellis)
    zero_ok = decoded.tolist() == [[0] * 40] and metric.tolist() == [7]

    rng = np.random.default_rng(1004)
    payload = rng.integers(0, 2, size=34)[np.newaxis]
    coded = encode_frames(payload, default_trellis)
    decoded2, metric2 = decode_frames(inject_errors(coded, pattern), default_trellis)
    frame_ok = not _wrong_rows(decoded2, payload).any() and metric2.tolist() == [7]

    _report(
        4,
        unique and zero_ok and frame_ok,
        "7-error pattern {3,17,30,41,55,60,76}: unique minimizer "
        f"(closest rival codeword at distance {min_rival}, {len(rivals)} "
        f"low-weight codewords enumerated), decoded exactly with metric 7 "
        "on both the all-zero and a random frame",
    )


def test_criterion_05_oracle_equivalence():
    start = time.perf_counter()
    specs = [
        CodeSpec.from_octal("7,5", constraint_length=3, frame_stages=14),
        CodeSpec.from_octal("23,35", constraint_length=5, frame_stages=14),
    ]
    words_per_spec = 1_000
    metric_mismatches = 0
    payload_mismatches = 0
    for spec in specs:
        trellis = build_trellis(spec)
        rng = np.random.default_rng(1005 + spec.constraint_length)
        words = np.array([rng.integers(0, 2, size=2 * spec.frame_stages, dtype=np.uint8)
                          for _ in range(words_per_spec)])
        decoded, metrics = decode_frames(words, trellis)
        truths = ml_decode_frames(words, spec)
        for truth, bits, metric in zip(truths, decoded.tolist(), metrics.tolist()):
            if metric != truth.best_distance:
                metric_mismatches += 1
            if truth.minimizer_unique and (
                tuple(bits[: spec.payload_length]) != truth.best_payload
            ):
                payload_mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        5,
        metric_mismatches == 0 and payload_mismatches == 0,
        f"K=3 and K=5 instances, {words_per_spec} random words each: "
        f"{metric_mismatches} metric mismatches, {payload_mismatches} payload "
        f"mismatches on unique minimizers ({elapsed:.1f}s)",
    )


def test_criterion_06_uncoded_ber_anchor():
    details = []
    ok = True
    for ebno_db, stated in ((4.0, 1.2501e-2), (0.0, 7.865e-2)):
        cfg = SweepConfig(
            ebno_points=(ebno_db,),
            min_info_bits=1_200_000,
            max_info_bits=1_200_000,
            stop_at_errors=0,
            seed=1006,
        )
        uncoded = ber_sweep(cfg)[0]
        theory = theoretical_uncoded_ber(ebno_db)
        assert abs(theory - stated) < 1e-6  # the anchor constants are theory
        se = math.sqrt(stated * (1 - stated) / uncoded.info_bits)
        deviation = abs(uncoded.ber - stated) / se
        ok = ok and deviation <= 3.0 and uncoded.info_bits >= 1_000_000
        details.append(
            f"{ebno_db:g} dB: ber {uncoded.ber:.5g} vs {stated:.5g} "
            f"({deviation:.2f} standard errors, {uncoded.info_bits} bits)"
        )
    _report(6, ok, "; ".join(details))


def test_criterion_07_coding_gain_at_6db():
    start = time.perf_counter()
    cfg = SweepConfig(
        ebno_points=(6.0,),
        min_info_bits=1_000_000,
        max_info_bits=40_000_000,
        stop_at_errors=200,
        seed=1007,
    )
    uncoded, coded = ber_sweep(cfg)
    elapsed = time.perf_counter() - start
    enough = coded.bit_errors >= 200
    gain = coded.ber <= uncoded.ber / 10
    _report(
        7,
        enough and gain,
        f"6 dB: coded ber {coded.ber:.3g} ({coded.bit_errors} errors over "
        f"{coded.info_bits} bits) vs uncoded {uncoded.ber:.3g}; ratio "
        f"{uncoded.ber / coded.ber:.1f}x (need >= 10x, {elapsed:.0f}s)",
    )


def test_criterion_08_switching_activity(default_trellis):
    tb = ActivityReport.for_frames(default_trellis.spec, TRACEBACK, 1)
    re = ActivityReport.for_frames(default_trellis.spec, REGISTER_EXCHANGE, 1)
    per_frame_ok = tb.survivor_bit_writes == 2560 and re.survivor_bit_writes == 52480

    frames = 5
    cfg = SweepConfig(
        ebno_points=(4.0,),
        min_info_bits=frames * 34,
        max_info_bits=frames * 34,
        stop_at_errors=0,
        seed=1008,
    )
    result = power_compare(cfg)
    aggregate_ok = (
        result.traceback.survivor_bit_writes == 2560 * frames
        and result.register_exchange.survivor_bit_writes == 52480 * frames
        and result.survivor_write_ratio == 20.5
    )
    _report(
        8,
        per_frame_ok and aggregate_ok,
        f"survivor writes per frame: trace-back {tb.survivor_bit_writes} "
        f"(= 2560), register exchange {re.survivor_bit_writes} (= 52480), "
        f"ratio {result.survivor_write_ratio} (= 20.5)",
    )


def test_criterion_09_survivor_scheme_equivalence(default_trellis):
    rng = np.random.default_rng(1009)
    n = 10_000
    start = time.perf_counter()
    payloads = rng.integers(0, 2, size=(n, 34), dtype=np.uint8)
    coded = encode_frames(payloads, default_trellis)
    noise = NoiseConfig(3.0, code_rate=0.5, seed=1009)
    received = hard_quantize(
        add_awgn(bpsk_modulate(coded.ravel()), noise, rng)
    ).reshape(coded.shape)
    tb_bits, tb_metrics = decode_frames(received, default_trellis, TRACEBACK)
    re_bits, re_metrics = decode_frames(received, default_trellis, REGISTER_EXCHANGE)
    differ = (tb_bits != re_bits).any(axis=1) | (tb_metrics != re_metrics)
    mismatches = int(np.count_nonzero(differ))
    elapsed = time.perf_counter() - start
    _report(
        9,
        mismatches == 0,
        f"{n} noisy frames at 3 dB decoded bit-identically with identical "
        f"metrics under both schemes ({mismatches} mismatches, {elapsed:.0f}s)",
    )


def test_criterion_10_streaming_latency(default_trellis):
    rng = np.random.default_rng(1010)
    payloads = [rng.integers(0, 2, size=34) for _ in range(12)]
    frames = encode_frames(payloads, default_trellis).tolist()
    out = stream_decode(frames, default_trellis)
    ok = len(out) == len(frames)
    for i, item in enumerate(out):
        first_possible = i * 40
        ok = ok and item.index == i
        ok = ok and item.available_at_clock - first_possible == 40
        ok = ok and item.latency_clocks == 40
        ok = ok and item.decoded == decode_frames([frames[i]], default_trellis)[0][0].tolist()
    _report(
        10,
        ok,
        f"{len(frames)} streamed frames each available exactly 40 symbol "
        "clocks after their frame start, in order",
    )
