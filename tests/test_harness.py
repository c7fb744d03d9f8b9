from __future__ import annotations

import math
from collections import Counter

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

from reference import gaussian_tail


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
    with pytest.raises(ValueError):
        SweepConfig((4.0,), min_info_bits=1, max_info_bits=5, stop_at_errors=-2, seed=0)
    with pytest.raises(ValueError, match="Eb/N0 of 4000.0 dB"):  # every point, at construction
        SweepConfig((4.0, 4000.0), min_info_bits=1, max_info_bits=5, stop_at_errors=0, seed=0)
    with pytest.raises(ValueError, match=r"^seed must be nonnegative, got -1$"):
        SweepConfig((4.0,), min_info_bits=1, max_info_bits=5, stop_at_errors=0, seed=-1)


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
    cfg = SweepConfig(
        ebno_points=(4.0,),
        min_info_bits=frames * 34,
        max_info_bits=frames * 34,
        stop_at_errors=0,
        seed=7,
    )
    result = power_compare(cfg)
    assert result.frames == frames
    assert result.traceback.survivor_bit_writes == 2560 * frames
    assert result.register_exchange.survivor_bit_writes == 52480 * frames
    assert result.survivor_write_ratio == 20.5


def test_power_compare_zero_frames(monkeypatch):
    seen = _spy_on_decode_frames(monkeypatch)
    cfg = SweepConfig(
        ebno_points=(4.0,),
        min_info_bits=0,
        max_info_bits=0,
        stop_at_errors=0,
        seed=7,
    )
    result = power_compare(cfg)
    assert result.frames == 0
    assert result.traceback.survivor_bit_writes == 0
    assert result.register_exchange.survivor_bit_writes == 0
    assert result.survivor_write_ratio is None
    assert not seen  # nothing decoded


def test_power_compare_small_code_ratio():
    spec = CodeSpec.from_octal("7,5", constraint_length=3, frame_stages=5)
    cfg = SweepConfig(
        ebno_points=(4.0,),
        min_info_bits=10 * spec.payload_length,
        max_info_bits=10 * spec.payload_length,
        stop_at_errors=0,
        seed=2,
        spec=spec,
    )
    assert power_compare(cfg).survivor_write_ratio == 3.0


def test_power_compare_names_the_disagreeing_frame_across_batches(monkeypatch):
    # 2500 frames run as batches of 2048 and 452: frame 2100 is row 52 of the second
    _spy_on_decode_frames(monkeypatch, flip_frame=2100)
    bits = 2500 * 34
    cfg = SweepConfig((4.0,), min_info_bits=bits, max_info_bits=bits, stop_at_errors=0, seed=3)
    with pytest.raises(RuntimeError, match=r"survivor schemes disagree on frame 2100: "):
        power_compare(cfg)


def test_power_compare_frame_count_ignores_the_stop_rule(monkeypatch):
    seen = _spy_on_decode_frames(monkeypatch)
    cfg = SweepConfig((4.0,), min_info_bits=0, max_info_bits=2500 * 34, stop_at_errors=0, seed=3)
    assert power_compare(cfg).frames == 2500
    assert seen == {TRACEBACK: 2500, REGISTER_EXCHANGE: 2500}


def test_ber_csv_format():
    point = BerPoint(UNCODED_BPSK, 4.0, 100, 2, 1, 0.02, 42)
    text = format_ber_csv([point])
    lines = text.splitlines()
    assert lines[0] == "scheme,ebno_db,info_bits,bit_errors,frame_errors,ber,seed"
    assert lines[1] == "uncoded-bpsk,4.0,100,2,1,0.02,42"


def test_power_csv_format():
    cfg = SweepConfig(
        ebno_points=(4.0,),
        min_info_bits=34,
        max_info_bits=34,
        stop_at_errors=0,
        seed=7,
    )
    text = format_power_csv(power_compare(cfg))
    lines = text.splitlines()
    assert lines[0] == (
        "scheme,frames,survivor_bit_writes,metric_writes,traceback_reads,"
        "survivor_write_ratio"
    )
    assert lines[1] == "trace-back,1,2560,2560,40,20.5"
    assert lines[2] == "register-exchange,1,52480,2560,0,20.5"
