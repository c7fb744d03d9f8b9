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
from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

from .channel import NoiseConfig, _bpsk_awgn_hard, ebno_ratio
from .decoder import REGISTER_EXCHANGE, TRACEBACK, ActivityReport, decode_frames
from .encoder import encode_frames
from .trellis import DEFAULT_SPEC, CodeSpec, build_trellis

UNCODED_BPSK = "uncoded-bpsk"
CODED_VITERBI = "coded-viterbi"

BER_CSV_HEADER = "scheme,ebno_db,info_bits,bit_errors,frame_errors,ber,seed"
_ACTIVITY_CSV_HEADER = "scheme,frames,survivor_bit_writes,metric_writes,traceback_reads"
POWER_CSV_HEADER = f"{_ACTIVITY_CSV_HEADER},survivor_write_ratio"

# frames per Monte-Carlo batch; fixed so stopping decisions are reproducible
_BATCH_FRAMES = 2048

# a per-batch stage of a scheme: bit rows in, bit rows out
_Stage = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class BerPoint:
    scheme: str
    ebno_db: float
    info_bits: int
    bit_errors: int
    frame_errors: int
    ber: float
    seed: int


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: Eb/N0 points, a stopping rule, and the master seed.

    Each point accumulates at least ``min_info_bits`` information bits and
    stops at ``stop_at_errors`` bit errors or ``max_info_bits``, whichever
    comes first.
    """

    ebno_points: tuple[float, ...]
    min_info_bits: int
    max_info_bits: int
    stop_at_errors: int
    seed: int
    spec: CodeSpec = DEFAULT_SPEC

    def __post_init__(self) -> None:
        if not self.ebno_points:
            raise ValueError("ebno_points must name at least one Eb/N0 point")
        for ebno_db in self.ebno_points:  # before any Monte-Carlo work; rate 1/2 is the noisier
            NoiseConfig(ebno_db, code_rate=0.5)
        if self.min_info_bits < 0:
            raise ValueError("min_info_bits must be nonnegative")
        if self.min_info_bits > self.max_info_bits:
            raise ValueError("min_info_bits must not exceed max_info_bits")
        if self.stop_at_errors < 0:
            raise ValueError("stop_at_errors must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def theoretical_uncoded_ber(ebno_db: float) -> float:
    """Uncoded coherent BPSK error rate, Q(sqrt(2 * Eb/N0))."""
    # Q(sqrt(2x)) == erfc(sqrt(x)) / 2
    return 0.5 * math.erfc(math.sqrt(ebno_ratio(ebno_db)))


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
        frame_errors += int(np.count_nonzero(wrong.any(axis=1)))
        if _stop(cfg, info_bits, bit_errors):
            break
    return BerPoint(
        scheme, ebno_db, info_bits, bit_errors, frame_errors,
        bit_errors / info_bits, cfg.seed,
    )


def ber_sweep(cfg: SweepConfig) -> list[BerPoint]:
    """Run the sweep; two :class:`BerPoint` rows per Eb/N0 value."""
    trellis = build_trellis(cfg.spec)
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


@dataclass(frozen=True)
class PowerCompareResult:
    """Aggregated activity for the same frames decoded under both schemes.

    ``survivor_write_ratio`` is register-exchange writes over trace-back
    writes, exactly ``(frame_stages + 1) / 2``; ``None`` when no frames ran.
    """

    traceback: ActivityReport
    register_exchange: ActivityReport
    frames: int
    survivor_write_ratio: float | None


def power_compare(cfg: SweepConfig) -> PowerCompareResult:
    """Decode one noisy frame set under both survivor schemes and compare.

    The frame count is ``max_info_bits // payload_length`` and the channel
    runs at ``ebno_points[0]``.  Any mismatch between the two schemes'
    outputs is an invariant breach and raises.
    """
    spec = cfg.spec
    trellis = build_trellis(spec)
    frames = cfg.max_info_bits // spec.payload_length
    done = 0  # frames decoded by earlier batches

    def receive(received: np.ndarray) -> np.ndarray:
        nonlocal done
        tb_bits, tb_metrics = decode_frames(received, trellis, TRACEBACK)
        re_bits, re_metrics = decode_frames(received, trellis, REGISTER_EXCHANGE)
        differ = np.flatnonzero((tb_bits != re_bits).any(axis=1) | (tb_metrics != re_metrics))
        if differ.size:
            i = int(differ[0])
            raise RuntimeError(
                f"survivor schemes disagree on frame {done + i}: "
                f"{tb_metrics[i]} vs {re_metrics[i]}"
            )
        done += len(received)
        return tb_bits[:, :spec.payload_length]

    if frames:  # the runner runs at least one batch; its budget here is exactly `frames`
        bits = frames * spec.payload_length
        exact = replace(cfg, min_info_bits=bits, max_info_bits=bits, stop_at_errors=0)
        _run_point(exact, CODED_VITERBI, cfg.ebno_points[0], 0.5, np.random.default_rng(cfg.seed),
                   lambda payloads: encode_frames(payloads, trellis), receive)

    traceback = ActivityReport.for_frames(spec, TRACEBACK, frames)
    register_exchange = ActivityReport.for_frames(spec, REGISTER_EXCHANGE, frames)
    ratio = register_exchange.survivor_bit_writes / traceback.survivor_bit_writes if frames else None
    return PowerCompareResult(traceback, register_exchange, frames, ratio)


def format_ber_csv(points: Iterable[BerPoint]) -> str:
    lines = [BER_CSV_HEADER]
    for p in points:
        lines.append(
            f"{p.scheme},{p.ebno_db!r},{p.info_bits},{p.bit_errors},"
            f"{p.frame_errors},{p.ber!r},{p.seed}"
        )
    return "\n".join(lines) + "\n"


def format_power_csv(result: PowerCompareResult) -> str:
    ratio = "" if result.survivor_write_ratio is None else repr(result.survivor_write_ratio)
    return _activity_csv(result.frames, (result.traceback, result.register_exchange), ratio)


def _activity_csv(frames: int, reports: Iterable[ActivityReport], ratio: str | None = None) -> str:
    """Header and one row per report; a ``ratio`` adds the survivor_write_ratio column."""
    extra = "" if ratio is None else f",{ratio}"
    lines = [_ACTIVITY_CSV_HEADER if ratio is None else POWER_CSV_HEADER]
    lines += (f"{r.scheme},{frames},{r.survivor_bit_writes},{r.metric_writes},"
              f"{r.traceback_reads}{extra}" for r in reports)
    return "\n".join(lines) + "\n"
