"""BPSK over AWGN with hard 1-bit quantization, plus a deterministic
bit-flip injector for reproducing fixed error patterns.

Energy convention: Eb is per information bit, so the per-sample noise
variance is ``1 / (2 * code_rate * 10^(ebno_db/10))``.  Rate 1/2 for coded
streams, rate 1 for uncoded BPSK.  The Monte-Carlo runner draws the noise
once and compares it against the +-1 thresholds; ``bpsk_modulate``,
``add_awgn`` and ``hard_quantize`` are the reference for that step.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .trellis import _bits, _index, _real, _typed, _Value


def ebno_ratio(ebno_db: float) -> float:
    """Eb/N0 as a power ratio, ``10^(ebno_db/10)``; ``ValueError`` unless that
    is a finite positive float (NaN, infinities and beyond about +-3000 dB fail)."""
    try:
        ratio = 10.0 ** (ebno_db / 10.0)
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ValueError(f"Eb/N0 of {ebno_db!r} dB is out of range: "
                         "10^(dB/10) must be a finite positive number")
    return ratio


class NoiseConfig(_Value):
    """AWGN operating point: Eb/N0 in dB and the code rate that spreads Eb."""

    def __init__(self, ebno_db: float, code_rate: float = 0.5) -> None:
        self._set(ebno_db=_real(ebno_db, "ebno_db"), code_rate=_real(code_rate, "code_rate"))
        if not 0.0 < code_rate <= 1.0:
            raise ValueError(f"code_rate must be in (0, 1], got {code_rate!r}")
        try:  # ebno_ratio refuses the dB; 2 * rate * 10^(dB/10) may be subnormal, or 0
            finite = math.isfinite(self.noise_variance)
        except ZeroDivisionError:
            finite = False
        if not finite:
            raise ValueError(f"Eb/N0 of {ebno_db!r} dB is out of range: the noise "
                             f"variance at code rate {code_rate!r} is not finite")

    @property
    def noise_variance(self) -> float:
        return 1.0 / (2.0 * self.code_rate * ebno_ratio(self.ebno_db))

    @property
    def noise_sigma(self) -> float:
        return math.sqrt(self.noise_variance)


def bpsk_modulate(bits: Sequence[int]) -> np.ndarray:
    """Map bit 0 to +1.0 and bit 1 to -1.0 (unit symbol energy)."""
    arr = np.asarray(bits, dtype=np.float64)
    return 1.0 - 2.0 * arr


def add_awgn(symbols: np.ndarray, cfg: NoiseConfig, rng: np.random.Generator) -> np.ndarray:
    """Add white Gaussian noise at the operating point of ``cfg``, drawn from
    ``rng`` (one ``standard_normal`` sample per symbol)."""
    sigma = _typed(cfg, NoiseConfig, "cfg").noise_sigma
    arr = np.asarray(symbols, dtype=np.float64)
    return arr + sigma * _typed(rng, np.random.Generator, "rng").standard_normal(arr.shape)


def hard_quantize(symbols: np.ndarray) -> np.ndarray:
    """1-bit decision: amplitude > 0 maps to bit 0, < 0 to bit 1.

    An exact 0.0 maps to bit 0 (documented tie rule; probability zero under
    AWGN but pinned for reproducibility).  NaN or infinite samples carry no
    decision and raise ``ValueError``.
    """
    arr = np.asarray(symbols, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("hard_quantize needs finite samples, got NaN or infinity")
    return (arr < 0.0).astype(np.uint8)


def _bpsk_awgn_hard(bits: np.ndarray, cfg: NoiseConfig, rng: np.random.Generator) -> np.ndarray:
    """``hard_quantize(add_awgn(bpsk_modulate(bits.ravel()), cfg, rng))`` shaped
    like 0/1 uint8 ``bits``, from the same draws and with no float symbols:
    ``fl(+-1 + x) < 0`` exactly when ``x < -+1`` (rounding is monotone and a
    nonzero sum never rounds to 0), so an exact 0.0 sum still gives bit 0."""
    noise = rng.standard_normal(bits.shape)
    noise *= cfg.noise_sigma
    if not np.isfinite(noise).all():
        raise ValueError("hard_quantize needs finite samples, got NaN or infinity")
    return ((noise < 1.0) & ((noise < -1.0) | bits.view(bool))).view(np.uint8)


def inject_errors(bits: np.ndarray, positions: Iterable[int]) -> np.ndarray:
    """Flip exactly the listed positions along the last axis of ``bits``.

    Every frame (row) gets the same flips; returns a new uint8 array.  An
    involution for a fixed position set.
    """
    raw = np.asarray(bits)
    if not raw.ndim:
        raise ValueError(f"bits must be a frame or rows of frames, got shape {raw.shape}")
    out, width = np.array(_bits(raw, "bits")), raw.shape[-1]  # a copy: the flips are in place
    flips = sorted({_index(pos, "error position") for pos in positions})
    for pos in flips:
        if not 0 <= pos < width:
            raise ValueError(f"error position {pos} out of range for a {width}-bit frame")
    out[..., flips] ^= 1
    return out
