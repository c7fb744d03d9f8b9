from __future__ import annotations

import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from convfec import harness
from convfec.decoder import REGISTER_EXCHANGE, TRACEBACK
from convfec.harness import (
    CODED_VITERBI,
    UNCODED_BPSK,
    BerPoint,
    SweepConfig,
    ber_sweep,
    format_ber_csv,
    format_power_csv,
    power_compare,
    theoretical_uncoded_ber,
)
from convfec.trellis import DEFAULT_SPEC, CodeSpec

from reference import exact_ber, gaussian_tail


def test_theory_reference_points():
    assert theoretical_uncoded_ber(0.0) == pytest.approx(0.0786496, abs=5e-8)
    assert theoretical_uncoded_ber(4.0) == pytest.approx(0.0125008, abs=5e-8)


def test_theory_matches_quadrature_to_1e12():
    for ebno_db in (-2.0, 0.0, 1.5, 4.0, 6.0, 9.0, 12.0):
        q = gaussian_tail(math.sqrt(2.0 * 10.0 ** (ebno_db / 10.0)))
        assert abs(theoretical_uncoded_ber(ebno_db) - q) / q < 1e-12


def test_theory_monotone_decreasing():
    values = [theoretical_uncoded_ber(db) for db in range(0, 15)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-7


def test_theory_rejects_non_finite():
    for ebno_db in (math.inf, 4000.0, -4000.0):
        with pytest.raises(ValueError, match=f"Eb/N0 of {ebno_db!r} dB"):
            theoretical_uncoded_ber(ebno_db)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig((4.0,), min_info_bits=10, max_info_bits=5, stop_at_errors=0, seed=0)
    with pytest.raises(ValueError, match=r"^stop_at_errors must be nonnegative, got -2$"):
        SweepConfig((4.0,), min_info_bits=1, max_info_bits=5, stop_at_errors=-2, seed=0)
    with pytest.raises(ValueError, match="Eb/N0 of 4000.0 dB"):  # every point, at construction
        SweepConfig((4.0, 4000.0), min_info_bits=1, max_info_bits=5, stop_at_errors=0, seed=0)
    with pytest.raises(ValueError, match=r"^seed must be nonnegative, got -1$"):
        SweepConfig((4.0,), min_info_bits=1, max_info_bits=5, stop_at_errors=0, seed=-1)
    with pytest.raises(ValueError, match=r"^min_info_bits must be nonnegative, got -1$"):
        SweepConfig((4.0,), min_info_bits=-1, max_info_bits=5, stop_at_errors=0, seed=0)


def test_noiseless_run_has_zero_errors():
    # at 200 dB the noise sigma is about 1e-10: no sample crosses the slicer
    cfg = SweepConfig(
        ebno_points=(200.0,),
        min_info_bits=50_000,
        max_info_bits=50_000,
        stop_at_errors=0,
        seed=5,
    )
    for point in ber_sweep(cfg):
        assert point.bit_errors == 0
        assert point.frame_errors == 0
        assert point.ber == 0.0


_LAST = DEFAULT_SPEC.payload_length - 1  # the last bit of a frame
_BATCH = harness._BATCH_FRAMES


@pytest.mark.parametrize("flips, frame_errors", [
    ([(0, 0), (0, _LAST)], 1),  # both ends of one frame
    ([(5, _LAST), (6, 0)], 2),  # either side of a frame boundary
    ([(10, 1), (10, _LAST - 1)], 1),  # inside one frame
    ([(_BATCH - 1, 0), (_BATCH, _LAST)], 2),  # a batch's last frame, a short batch's only frame
])
def test_frame_errors_count_each_frame_segment_once(flips, frame_errors):
    # at 60 dB no sample crosses the slicer, so the errors are exactly the flipped
    # (frame, bit) positions, over a batch and one frame
    block, frames = DEFAULT_SPEC.payload_length, _BATCH + 1
    mask = np.zeros((frames, block), dtype=np.uint8)
    mask[tuple(zip(*flips))] = 1
    done = 0

    def receive(received):
        nonlocal done
        rows = mask[done:done + len(received)]
        done += len(received)
        return received ^ rows

    cfg = SweepConfig((60.0,), frames * block, frames * block, 0, 4)
    point = harness._run_point(cfg, UNCODED_BPSK, 60.0, 1.0, np.random.default_rng(4),
                               lambda bits: bits, receive)
    assert done == frames
    assert (point.info_bits, point.bit_errors, point.frame_errors) == (
        frames * block, len(flips), frame_errors)


def test_sweep_is_deterministic():
    cfg = SweepConfig(
        ebno_points=(2.0, 4.0),
        min_info_bits=30_000,
        max_info_bits=60_000,
        stop_at_errors=100,
        seed=99,
    )
    assert format_ber_csv(ber_sweep(cfg)) == format_ber_csv(ber_sweep(cfg))


def test_sweep_point_accounting():
    cfg = SweepConfig(
        ebno_points=(4.0,),
        min_info_bits=100_000,
        max_info_bits=100_000,
        stop_at_errors=0,
        seed=1,
    )
    uncoded, coded = ber_sweep(cfg)
    assert uncoded.scheme == UNCODED_BPSK
    assert coded.scheme == CODED_VITERBI
    for point in (uncoded, coded):
        assert point.info_bits >= cfg.min_info_bits
        assert point.ber == point.bit_errors / point.info_bits
        assert point.info_bits % DEFAULT_SPEC.payload_length == 0
        assert point.seed == 1
    # uncoded at 4 dB lands near theory even at this modest size
    p = theoretical_uncoded_ber(4.0)
    se = math.sqrt(p * (1 - p) / uncoded.info_bits)
    assert abs(uncoded.ber - p) <= 4 * se


def test_coded_beats_uncoded_at_moderate_snr():
    cfg = SweepConfig(
        ebno_points=(4.0,),
        min_info_bits=60_000,
        max_info_bits=400_000,
        stop_at_errors=150,
        seed=12,
    )
    uncoded, coded = ber_sweep(cfg)
    assert coded.ber < uncoded.ber


def test_stop_rule_limits_run_length():
    cfg = SweepConfig(
        ebno_points=(0.0,),
        min_info_bits=1_000,
        max_info_bits=10_000_000,
        stop_at_errors=50,
        seed=3,
    )
    uncoded, _ = ber_sweep(cfg)
    # 0 dB uncoded is error-dense: the stop rule must bite long before the cap
    assert uncoded.bit_errors >= 50
    assert uncoded.info_bits < 1_000_000


@pytest.mark.parametrize("cfg, info_bits", [
    # 60 dB makes no errors, so the first 2048-frame batch meets the target of 0 exactly
    pytest.param(SweepConfig((60.0,), 0, 10**6, 0, 1), 2048 * 34, id="error-target"),
    # ten 34-bit frames meet the 340-bit budget exactly
    pytest.param(SweepConfig((3.0,), 0, 340, 10**9, 1), 340, id="budget"),
    # a cell runs at least one frame, even on a budget that pays for none
    pytest.param(SweepConfig((4.0,), 0, 0, 0, 1), 34, id="one-frame-minimum"),
])
def test_a_cell_stops_on_the_batch_that_meets_its_stop_rule(cfg, info_bits):
    assert [point.info_bits for point in ber_sweep(cfg)] == [info_bits, info_bits]


def _spy_on_decode_frames(monkeypatch, flip_frame=None):
    """Count the frames each scheme decodes in ``power_compare``; with
    ``flip_frame``, register exchange returns that frame with bit 0 flipped."""
    seen = Counter()
    decode = harness.decode_frames

    def spy(received, trellis, scheme):
        bits, metrics = decode(received, trellis, scheme)
        row = -1 if flip_frame is None else flip_frame - seen[scheme]
        if scheme == REGISTER_EXCHANGE and 0 <= row < len(bits):
            bits = bits.copy()
            bits[row, 0] ^= 1
        seen[scheme] += len(received)
        return bits, metrics

    monkeypatch.setattr(harness, "decode_frames", spy)
    return seen


def test_power_compare_closed_forms():
    frames = 3
    result = power_compare(4.0, frames, 7)
    assert result.frames == frames
    assert result.traceback.survivor_bit_writes == 2560 * frames
    assert result.register_exchange.survivor_bit_writes == 52480 * frames
    assert result.survivor_write_ratio == 20.5


def test_power_compare_zero_frames(monkeypatch):
    seen = _spy_on_decode_frames(monkeypatch)
    result = power_compare(4.0, 0, 7)
    assert result.frames == 0
    assert result.traceback.survivor_bit_writes == 0
    assert result.register_exchange.survivor_bit_writes == 0
    assert result.survivor_write_ratio is None
    assert not seen  # nothing decoded


def test_power_compare_small_code_ratio():
    spec = CodeSpec.from_octal("7,5", constraint_length=3, frame_stages=5)
    assert power_compare(4.0, 10, 2, spec).survivor_write_ratio == 3.0


def test_power_compare_names_the_disagreeing_frame_across_batches(monkeypatch):
    # 2500 frames run as batches of 2048 and 452: frame 2100 is row 52 of the second
    seen = _spy_on_decode_frames(monkeypatch, flip_frame=2100)
    with pytest.raises(RuntimeError, match=r"^survivor schemes disagree on frame 2100: bit 0$"):
        power_compare(4.0, 2500, 3)
    # every frame goes through harness.decode_frames once per scheme. perfbench's traced
    # `power` check counts 2 * f frames there, so ROADMAP item 2 (one ACS run per batch)
    # must change this count and that check together
    assert seen == {TRACEBACK: 2500, REGISTER_EXCHANGE: 2500}


@pytest.mark.parametrize("ebno_db, frames, seed, message", [
    pytest.param(4.0, -1, 0, r"^frames must be nonnegative, got -1$", id="negative-frames"),
    pytest.param(4.0, 0, -1, r"^seed must be nonnegative, got -1$", id="negative-seed"),
    pytest.param(4000.0, 0, 0, r"^Eb/N0 of 4000\.0 dB is out of range", id="ebno-4000"),
])
def test_power_compare_refuses_bad_inputs_even_at_zero_frames(ebno_db, frames, seed, message):
    with pytest.raises(ValueError, match=message):
        power_compare(ebno_db, frames, seed)


def test_sweep_and_power_csv_digest():
    # CSV bytes only: three code shapes (K=9 included), both stop reasons, and
    # power runs of 400, 5000 (three batches) and 3 frames
    digest = hashlib.sha256()
    for cfg in (SweepConfig((0.0, 2.0, 4.0, 6.0), 100000, 200000, 200, 5),
                SweepConfig((-5.0, 12.0), 0, 50000, 200, 1),
                SweepConfig((0.0, 3.0, 6.0), 0, 20000, 100, 2, CodeSpec.from_octal("7,5", 3, 5)),
                SweepConfig((4.0,), 0, 30000, 0, 3, CodeSpec.from_octal("561,753", 9, 40))):
        digest.update(format_ber_csv(ber_sweep(cfg)).encode())
    for frames, seed in ((400, 1), (5000, 2), (3, 7)):
        digest.update(format_power_csv(power_compare(4.0, frames, seed)).encode())
    assert digest.hexdigest() == (
        "919e0f39303a868cf6b178f6802eef19321a918395ca76c6904f988114abf7cd")


def test_ber_csv_format():
    point = BerPoint(UNCODED_BPSK, 4.0, 100, 2, 1, 42)
    text = format_ber_csv([point])
    lines = text.splitlines()
    assert lines[0] == "scheme,ebno_db,info_bits,bit_errors,frame_errors,ber,seed"
    assert lines[1] == "uncoded-bpsk,4.0,100,2,1,0.02,42"


def test_ber_point_refuses_zero_info_bits():
    # zero bits have no BER
    with pytest.raises(ValueError, match=r"^info_bits must be at least 1 for a BER, got 0$"):
        BerPoint(UNCODED_BPSK, 4.0, 0, 0, 0, 42)


def test_ber_point_takes_one_info_bit():
    assert BerPoint(UNCODED_BPSK, 4.0, 1, 0, 0, 42).ber == 0.0


def test_power_csv_format():
    text = format_power_csv(power_compare(4.0, 1, 7))
    lines = text.splitlines()
    assert lines[0] == (
        "scheme,frames,survivor_bit_writes,metric_writes,traceback_reads,"
        "survivor_write_ratio"
    )
    assert lines[1] == "trace-back,1,2560,2560,40,20.5"
    assert lines[2] == "register-exchange,1,52480,2560,0,20.5"


def test_coded_ber_of_a_small_code_matches_its_exact_value():
    # K=3 7,5 with L=8: the exact BER enumerates every payload and error pattern, and
    # n frames of the sweep estimate it with standard deviation sqrt(variance / n) / p
    spec = CodeSpec.from_octal("7,5", constraint_length=3, frame_stages=8)
    bits, p = 2 * 10**6, spec.payload_length
    points = ber_sweep(SweepConfig((2.0, 4.0, 6.0), bits, bits, bits + 1, 5, spec))
    coded = [point for point in points if point.scheme == CODED_VITERBI]
    for point, want in zip(coded, (3.37657e-2, 6.17978e-3, 4.36508e-4), strict=True):
        mean, variance = exact_ber(spec, point.ebno_db)
        assert f"{mean / p:.5e}" == f"{want:.5e}"
        sigma = math.sqrt(variance / (point.info_bits // p)) / p
        assert abs(point.ber - mean / p) <= 5 * sigma, (point.ebno_db, point.ber, mean / p)
