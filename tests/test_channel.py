from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from convfec.channel import (
    NoiseConfig,
    _bpsk_awgn_hard,
    add_awgn,
    bpsk_modulate,
    hard_quantize,
    inject_errors,
)

from reference import gaussian_tail


def test_modulation_mapping():
    assert list(bpsk_modulate([0, 1, 0])) == [1.0, -1.0, 1.0]


def test_modulation_zero_frame():
    assert list(bpsk_modulate([0] * 80)) == [1.0] * 80


def test_quantize_signs_and_tie():
    assert list(hard_quantize([0.3, -2.1])) == [0, 1]
    assert list(hard_quantize([0.0])) == [0]


def test_modulate_quantize_roundtrip():
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, size=500, dtype=np.uint8)
    assert np.array_equal(hard_quantize(bpsk_modulate(bits)), bits)


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(math.inf, 0.5)
    with pytest.raises(ValueError):
        NoiseConfig(4.0, 0.0)
    with pytest.raises(ValueError):
        NoiseConfig(4.0, 1.5)
    # 10^(dB/10) overflows, underflows to 0, is subnormal (infinite variance), is NaN
    for ebno_db in (4000.0, -4000.0, -3200.0, math.nan):
        with pytest.raises(ValueError, match=f"Eb/N0 of {ebno_db!r} dB"):
            NoiseConfig(ebno_db, 0.5)
    # 10^(dB/10) is normal, but 2 * rate * 10^(dB/10) underflows to 0
    with pytest.raises(ValueError, match=r"^Eb/N0 of -3000\.0 dB is out of range: the noise "
                                         r"variance at code rate 1e-30 is not finite$"):
        NoiseConfig(-3000.0, code_rate=1e-30)


def test_noise_variance_formula():
    assert NoiseConfig(0.0, code_rate=1.0).noise_variance == pytest.approx(0.5)
    assert NoiseConfig(4.0, code_rate=0.5).noise_variance == pytest.approx(0.3981, abs=1e-4)


def test_awgn_deterministic_per_seed():
    symbols = bpsk_modulate(np.zeros(1000, dtype=np.uint8))
    cfg = NoiseConfig(3.0, 0.5)
    first = add_awgn(symbols, cfg, np.random.default_rng(42))
    assert np.array_equal(first, add_awgn(symbols, cfg, np.random.default_rng(42)))
    other = add_awgn(symbols, cfg, np.random.default_rng(43))
    assert not np.array_equal(first, other)


def test_awgn_empirical_variance():
    cfg = NoiseConfig(4.0, code_rate=0.5)
    noise = add_awgn(np.zeros(10**6), cfg, np.random.default_rng(11))
    target = cfg.noise_variance
    assert abs(float(noise.var()) - target) / target < 0.01


def test_hard_decision_flip_probability_matches_q():
    # crossover after quantization converges to Q(sqrt(2 r Eb/N0))
    ebno_db, rate, n = 2.0, 1.0, 2 * 10**6
    cfg = NoiseConfig(ebno_db, code_rate=rate)
    bits = np.zeros(n, dtype=np.uint8)
    flipped = hard_quantize(add_awgn(bpsk_modulate(bits), cfg, np.random.default_rng(77)))
    p_hat = float(np.count_nonzero(flipped)) / n
    p = gaussian_tail(math.sqrt(2 * rate * 10 ** (ebno_db / 10)))
    se = math.sqrt(p * (1 - p) / n)
    assert abs(p_hat - p) <= 3 * se


@pytest.mark.parametrize("rate", [0.5, 1.0])
@pytest.mark.parametrize("ebno_db", [-20.0, -6.0, 0.0, 2.5, 7.0, 20.0, 60.0])
def test_one_draw_channel_equals_three_call_chain(ebno_db, rate):
    cfg = NoiseConfig(ebno_db, code_rate=rate)
    for seed, shape in enumerate([(0, 80), (1, 34), (7, 80), (2048, 80), (1000,)]):
        bits = np.random.default_rng(100 + seed).integers(0, 2, size=shape, dtype=np.uint8)
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        fast = _bpsk_awgn_hard(bits, cfg, rng_a)
        chain = hard_quantize(add_awgn(bpsk_modulate(bits.ravel()), cfg, rng_b)).reshape(shape)
        assert fast.dtype == np.uint8 and fast.shape == shape
        assert np.array_equal(fast, chain)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state  # same draws


class _FixedNormal:
    """A generator stub whose ``standard_normal`` returns chosen samples."""

    def __init__(self, samples):
        self.samples = np.array(samples, dtype=np.float64)

    def standard_normal(self, shape):
        return self.samples.reshape(shape).copy()


def test_one_draw_channel_threshold_ties():
    below, above = np.nextafter(-1.0, -2.0), np.nextafter(1.0, 2.0)
    inside_low, inside_high = np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0)
    bits = np.array([0, 1, 0, 1, 0, 1], dtype=np.uint8)
    noise = [-1.0, 1.0, below, above, inside_low, inside_high]
    got = _bpsk_awgn_hard(bits, SimpleNamespace(noise_sigma=1.0), _FixedNormal(noise))
    # a sum of exactly 0.0 is bit 0 on either side; one ulp past the threshold flips
    assert got.tolist() == [0, 0, 1, 0, 0, 1]
    assert got.tolist() == hard_quantize(bpsk_modulate(bits) + np.array(noise)).tolist()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_one_draw_channel_rejects_non_finite_noise(bad):
    bits = np.zeros(3, dtype=np.uint8)
    stub = _FixedNormal([0.1, bad, -0.2])
    with pytest.raises(ValueError, match="hard_quantize needs finite samples"):
        _bpsk_awgn_hard(bits, SimpleNamespace(noise_sigma=1.0), stub)


def test_one_draw_channel_with_no_noise_sends_the_bits():
    # a variance that underflows to 0.0 is accepted, and the slicer then returns the sent bits
    cfg = NoiseConfig(3080.0, 1.0)
    assert cfg.noise_sigma == 0.0
    bits = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8)
    got = _bpsk_awgn_hard(bits, cfg, np.random.default_rng(3))
    assert got.dtype == np.uint8 and got.tolist() == bits.tolist()


def test_inject_empty_set_is_identity():
    frame = [0, 1, 1, 0]
    assert inject_errors(frame, set()).tolist() == frame


def test_inject_seven_error_pattern():
    positions = {3, 17, 30, 41, 55, 60, 76}
    frame = inject_errors([0] * 80, positions)
    assert frame.dtype == np.uint8
    assert sum(frame.tolist()) == 7
    assert {i for i, b in enumerate(frame.tolist()) if b} == positions


def test_inject_is_involution():
    rng = np.random.default_rng(9)
    frame = [int(b) for b in rng.integers(0, 2, size=80)]
    positions = {1, 5, 40, 79}
    assert inject_errors(inject_errors(frame, positions), positions).tolist() == frame


def test_inject_changes_distance_by_pattern_size():
    frame = [0] * 80
    out = inject_errors(frame, {2, 4, 6})
    assert sum(a != b for a, b in zip(frame, out.tolist())) == 3


def test_inject_flips_every_row_of_a_2d_array():
    rng = np.random.default_rng(10)
    frames = rng.integers(0, 2, size=(5, 80), dtype=np.uint8)
    before = frames.copy()
    out = inject_errors(frames, [0, 7, 79, 7])
    assert out.shape == (5, 80) and out.dtype == np.uint8
    assert (out ^ frames).tolist() == [[int(i in (0, 7, 79)) for i in range(80)]] * 5
    assert np.array_equal(frames, before)  # the input is not modified


def test_inject_rejects_out_of_range():
    with pytest.raises(ValueError, match="80"):
        inject_errors([0] * 80, {80})
    with pytest.raises(ValueError):
        inject_errors([0] * 80, {-1})
    with pytest.raises(ValueError, match="out of range"):
        inject_errors(np.zeros((0, 80), dtype=np.uint8), {80})
