"""Monte-Carlo BER harness and survivor-activity comparison.

Sweeps run both schemes per Eb/N0 point: uncoded BPSK as the reference
curve and the convolutionally coded chain (encode, BPSK, AWGN, 1-bit
quantize, Viterbi).  ``power_compare`` is one more cell of the same runner:
the coded chain whose receive step decodes under both survivor schemes.
Results serialize to CSV; plotting stays external.

Reproducibility: each (point, scheme) cell draws from its own generator
spawned from the sweep seed, batches have a fixed size, and the stopping
rule is checked on batch boundaries only, so identical configs give
byte-identical CSV output.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from .channel import NoiseConfig, _bpsk_awgn_hard, ebno_ratio
from .decoder import REGISTER_EXCHANGE, TRACEBACK, ActivityReport, decode_frames
from .encoder import encode_frames
from .trellis import DEFAULT_SPEC, CodeSpec, _count, _index, _real, _typed, _Value, build_trellis

UNCODED_BPSK = "uncoded-bpsk"
CODED_VITERBI = "coded-viterbi"

BER_CSV_HEADER = "scheme,ebno_db,info_bits,bit_errors,frame_errors,ber,seed"
_ACTIVITY_CSV_HEADER = "scheme,frames,survivor_bit_writes,metric_writes,traceback_reads"
POWER_CSV_HEADER = f"{_ACTIVITY_CSV_HEADER},survivor_write_ratio"

# frames per Monte-Carlo batch; fixed so stopping decisions are reproducible
_BATCH_FRAMES = 2048

# a per-batch stage of a scheme: bit rows in, bit rows out
_Stage = Callable[[np.ndarray], np.ndarray]


class BerPoint(_Value):
    def __init__(self, scheme: str, ebno_db: float, info_bits: int, bit_errors: int,
                 frame_errors: int, seed: int) -> None:
        info_bits = _index(info_bits, "info_bits")
        if info_bits < 1:
            raise ValueError(f"info_bits must be at least 1 for a BER, got {info_bits!r}")
        self._set(scheme=scheme, ebno_db=ebno_db, info_bits=info_bits, bit_errors=bit_errors,
                  frame_errors=frame_errors, seed=seed)

    @property
    def ber(self) -> float:
        return self.bit_errors / self.info_bits


class SweepConfig(_Value):
    """One sweep: Eb/N0 points, a stopping rule, and the master seed.

    Each point accumulates at least ``min_info_bits`` information bits and
    stops at ``stop_at_errors`` bit errors or ``max_info_bits``, whichever
    comes first.  The rule is checked after each batch, so every point runs
    at least one frame, even at ``max_info_bits=0``.
    """

    def __init__(self, ebno_points: tuple[float, ...], min_info_bits: int, max_info_bits: int,
                 stop_at_errors: int, seed: int, spec: CodeSpec = DEFAULT_SPEC) -> None:
        _typed(spec, CodeSpec, "spec")
        ebno_points = tuple(ebno_points)
        if not ebno_points:
            raise ValueError("ebno_points must name at least one Eb/N0 point")
        for ebno_db in ebno_points:  # before any Monte-Carlo work; rate 1/2 is the noisier
            NoiseConfig(_real(ebno_db, "ebno_points"), code_rate=0.5)
        min_info_bits = _count(min_info_bits, "min_info_bits")
        max_info_bits = _index(max_info_bits, "max_info_bits")
        stop_at_errors = _count(stop_at_errors, "stop_at_errors")
        seed = _count(seed, "seed")
        if min_info_bits > max_info_bits:
            raise ValueError("min_info_bits must not exceed max_info_bits")
        self._set(ebno_points=ebno_points, min_info_bits=min_info_bits,
                  max_info_bits=max_info_bits, stop_at_errors=stop_at_errors, seed=seed, spec=spec)


def theoretical_uncoded_ber(ebno_db: float) -> float:
    """Uncoded coherent BPSK error rate, Q(sqrt(2 * Eb/N0))."""
    # Q(sqrt(2x)) == erfc(sqrt(x)) / 2
    return 0.5 * math.erfc(math.sqrt(ebno_ratio(_real(ebno_db, "ebno_db"))))


def _stop(cfg: SweepConfig, info_bits: int, bit_errors: int) -> bool:
    if info_bits < cfg.min_info_bits:
        return False
    return bit_errors >= cfg.stop_at_errors or info_bits >= cfg.max_info_bits


def _run_point(
    cfg: SweepConfig, scheme: str, ebno_db: float, code_rate: float,
    rng: np.random.Generator, transmit: _Stage, receive: _Stage,
) -> BerPoint:
    """One (point, scheme) cell: ``transmit`` maps payload rows to channel
    rows, ``receive`` maps hard decisions back to payload rows."""
    # every scheme runs payload-sized frames, so frame_errors compare
    block = cfg.spec.payload_length
    noise = NoiseConfig(ebno_db, code_rate=code_rate)
    info_bits = bit_errors = frame_errors = 0
    while True:
        remaining = -(-(cfg.max_info_bits - info_bits) // block)
        n = max(1, min(_BATCH_FRAMES, remaining))
        payloads = rng.integers(0, 2, size=(n, block), dtype=np.uint8)
        sent = transmit(payloads)
        received = _bpsk_awgn_hard(sent, noise, rng)
        wrong = receive(received) != payloads
        info_bits += n * block
        bit_errors += int(np.count_nonzero(wrong))
        # one max per frame segment of the flat rows: faster than a short-axis any(axis=1)
        hit = np.maximum.reduceat(wrong.view(np.uint8).ravel(), np.arange(0, wrong.size, block))
        frame_errors += int(np.count_nonzero(hit))
        if _stop(cfg, info_bits, bit_errors):
            break
    return BerPoint(scheme, ebno_db, info_bits, bit_errors, frame_errors, cfg.seed)


def ber_sweep(cfg: SweepConfig) -> list[BerPoint]:
    """Run the sweep; two :class:`BerPoint` rows per Eb/N0 value."""
    trellis = build_trellis(_typed(cfg, SweepConfig, "cfg").spec)
    payload_len = cfg.spec.payload_length
    # (scheme, code rate, transmit, receive); tail bits never count toward BER
    schemes = (
        (UNCODED_BPSK, 1.0, lambda bits: bits, lambda bits: bits),
        (CODED_VITERBI, 0.5, lambda payloads: encode_frames(payloads, trellis),
         lambda received: decode_frames(received, trellis)[0][:, :payload_len]),
    )
    children = iter(np.random.SeedSequence(cfg.seed).spawn(len(schemes) * len(cfg.ebno_points)))
    return [
        _run_point(cfg, scheme, ebno_db, rate, np.random.default_rng(next(children)),
                   transmit, receive)
        for ebno_db in cfg.ebno_points
        for scheme, rate, transmit, receive in schemes
    ]


class PowerCompareResult(_Value):
    """Activity of the same ``frames`` frames decoded under both survivor schemes."""

    def __init__(self, spec: CodeSpec, frames: int) -> None:
        self._set(spec=_typed(spec, CodeSpec, "spec"), frames=_count(frames, "frames"))

    @property
    def traceback(self) -> ActivityReport:
        return ActivityReport(self.spec, TRACEBACK, self.frames)

    @property
    def register_exchange(self) -> ActivityReport:
        return ActivityReport(self.spec, REGISTER_EXCHANGE, self.frames)

    @property
    def survivor_write_ratio(self) -> float | None:
        """Register-exchange writes over trace-back writes, exactly
        ``(frame_stages + 1) / 2``; ``None`` when no frames ran."""
        if not self.frames:
            return None
        return self.register_exchange.survivor_bit_writes / self.traceback.survivor_bit_writes


def power_compare(ebno_db: float, frames: int, seed: int,
                  spec: CodeSpec = DEFAULT_SPEC) -> PowerCompareResult:
    """Decode ``frames`` noisy frames at ``ebno_db`` under both survivor schemes
    and compare; the payloads and noise come from ``default_rng(seed)``.

    Any mismatch between the two schemes' outputs is an invariant breach and
    raises.
    """
    result = PowerCompareResult(spec, frames)  # refuses a bad spec or frame count first
    bits = result.frames * spec.payload_length
    # built even at 0 frames, so that a bad Eb/N0 or seed is refused there too
    exact = SweepConfig((_real(ebno_db, "ebno_db"),), bits, bits, 0, seed, spec)
    trellis = build_trellis(spec)
    done = 0  # frames decoded by earlier batches

    def receive(received: np.ndarray) -> np.ndarray:
        nonlocal done
        tb_bits, _ = decode_frames(received, trellis, TRACEBACK)
        re_bits, _ = decode_frames(received, trellis, REGISTER_EXCHANGE)
        differ = np.argwhere(tb_bits != re_bits)  # both metrics come from the one kernel
        if differ.size:
            frame, bit = differ[0]
            raise RuntimeError(f"survivor schemes disagree on frame {done + frame}: bit {bit}")
        done += len(received)
        return tb_bits[:, :spec.payload_length]

    if result.frames:  # the runner runs at least one batch; its budget here is exactly `frames`
        _run_point(exact, CODED_VITERBI, ebno_db, 0.5, np.random.default_rng(exact.seed),
                   lambda payloads: encode_frames(payloads, trellis), receive)
    return result


def format_ber_csv(points: Iterable[BerPoint]) -> str:
    lines = [BER_CSV_HEADER]
    for p in points:
        lines.append(
            f"{p.scheme},{float(p.ebno_db)!r},{p.info_bits},{p.bit_errors},"
            f"{p.frame_errors},{p.ber!r},{p.seed}"
        )
    return "\n".join(lines) + "\n"


def format_power_csv(result: PowerCompareResult) -> str:
    ratio = "" if result.survivor_write_ratio is None else repr(result.survivor_write_ratio)
    return _activity_csv((result.traceback, result.register_exchange), ratio)


def _activity_csv(reports: Iterable[ActivityReport], ratio: str | None = None) -> str:
    """Header and one row per report; a ``ratio`` adds the survivor_write_ratio column."""
    extra = "" if ratio is None else f",{ratio}"
    lines = [_ACTIVITY_CSV_HEADER if ratio is None else POWER_CSV_HEADER]
    lines += (f"{r.scheme},{r.frames},{r.survivor_bit_writes},{r.metric_writes},"
              f"{r.traceback_reads}{extra}" for r in reports)
    return "\n".join(lines) + "\n"
