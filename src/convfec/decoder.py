"""Hard-decision Viterbi decoding: one add-compare-select (ACS) kernel, two survivor memories.

The kernel writes one stage word per stage and frame, once: bit ``s`` is 1 when
state ``s``'s survivor came via its upper branch (ties keep the lower one).  Trace-back
and register exchange both read the words; they differ only in activity cost."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .trellis import CodeSpec, Trellis, bit_rows

TRACEBACK = "trace-back"
REGISTER_EXCHANGE = "register-exchange"

# frames per kernel call: larger batches run in blocks that stay cache-sized
_BLOCK_FRAMES = 2048

_SYMBOL_HAMMING = np.array(  # Hamming distance between packed 2-bit symbols
    [[bin(a ^ b).count("1") for b in range(4)] for a in range(4)], dtype=np.uint8)


def _sentinel(dtype: np.dtype) -> int:  # unreachable: a sentinel plus one branch (at most 2) still fits
    return int(np.iinfo(dtype).max) - 2


@dataclass(frozen=True)
class ActivityReport:
    """Switching-activity counters used as a power proxy."""

    scheme: str
    survivor_bit_writes: int
    metric_writes: int
    traceback_reads: int

    def __post_init__(self) -> None:
        if min(self.survivor_bit_writes, self.metric_writes, self.traceback_reads) < 0:
            raise ValueError("activity counts must be nonnegative")

    @classmethod
    def for_frames(cls, spec: CodeSpec, scheme: str, frames: int) -> "ActivityReport":
        """Activity of ``frames`` frames; it never depends on the data."""
        s, l = spec.num_states, spec.frame_stages
        if scheme == TRACEBACK:
            return cls(scheme, s * l * frames, s * l * frames, l * frames)
        if scheme == REGISTER_EXCHANGE:
            return cls(scheme, s * l * (l + 1) // 2 * frames, s * l * frames, 0)
        raise ValueError(f"unknown survivor scheme {scheme!r}")


class DecodeResult(NamedTuple):
    decoded: list[int]
    final_metric: int
    activity: ActivityReport


def _acs_kernel(rsym: np.ndarray, trellis: Trellis) -> tuple[np.ndarray, np.ndarray]:
    """ACS from state 0 over ``(T, n)`` packed symbols.  Returns the final
    ``(S, n)`` metrics and ``(T, S, ceil(n / 8))`` stage words, frame ``i`` at
    bit ``i % 8``.  States ``j``, ``j + S/2`` feed ``2j``, ``2j + 1`` (one
    butterfly per stage); ties keep the lower predecessor."""
    stages, n = rsym.shape
    states, half = trellis.num_states, trellis.num_states >> 1
    # the narrowest type whose sentinel exceeds 2L, the largest reachable metric (int8 to L = 62)
    dtype = next(t for t in (np.int8, np.int16, np.int32) if 2 * stages < _sentinel(t))
    # d[t, e, i]: distance to symbol e, time-major so a stage gathers one contiguous block
    d = np.take(_SYMBOL_HAMMING.astype(dtype), rsym, axis=0).swapaxes(1, 2).copy()
    metric = np.full((states, n), _sentinel(dtype), dtype=dtype)
    metric[0] = 0
    clamp = np.full(n, _sentinel(dtype), dtype=dtype)  # a row broadcasts faster than a scalar
    words = np.empty((stages, states, -(-n // 8)), dtype=np.uint8)
    # only these stages have unreachable states: clamping their sums to the sentinel keeps
    # every sum at most max and makes unreachable predecessors tie, so their bits are defined
    warmup = trellis.spec.constraint_length - 1
    for t in range(stages):
        # cand[u, j, b]: the path into state 2j + b from predecessor j + u * S/2
        cand = metric.reshape(2, half, 1, n) + d[t][trellis.symbol_table].reshape(2, half, 2, n)
        if t < warmup:
            np.minimum(cand, clamp, out=cand)
        words[t] = np.packbits((cand[1] < cand[0]).reshape(states, n), axis=1, bitorder="little")
        metric = np.minimum(cand[0], cand[1]).reshape(states, n)
    return metric, words


def traceback(words: np.ndarray, trellis: Trellis, frames: int) -> np.ndarray:
    """Trace-back survivor memory: each frame's state path, newest first, from
    state 0, where the zero tail ends every frame.  Before state ``s`` comes
    ``s >> 1``, plus ``S/2`` when its survivor bit is 1."""
    stages = trellis.spec.frame_stages
    if words.shape[0] != stages:
        raise ValueError(f"traceback needs a complete frame: {words.shape[0]} of "
                         f"{stages} stage words written")
    half, nbytes = trellis.num_states >> 1, words.shape[2]
    byte, shift = np.arange(frames) >> 3, np.arange(frames) & 7  # intp, so upper * half cannot wrap
    flat = words.reshape(stages, -1)  # one 1-D take per stage, at state * nbytes + byte
    paths = np.empty((stages + 1, frames), dtype=np.int64)
    paths[0] = state = np.zeros(frames, dtype=np.int64)
    for k in range(1, stages + 1):
        upper = (flat[stages - k].take(state * nbytes + byte) >> shift) & 1
        paths[k] = state = (state >> 1) + upper * half
    return paths.T


def output_map(state_paths: np.ndarray) -> np.ndarray:
    """Decoded bits, oldest first, from newest-first state paths: the bit that
    enters a state is its LSB."""
    return (np.asarray(state_paths)[..., -2::-1] & 1).astype(np.uint8)


def _register_exchange(words: np.ndarray, trellis: Trellis, frames: int) -> np.ndarray:
    """Register-exchange survivor memory in the stage words' own layout: state
    ``s``'s register is ``L`` rows of frame-packed bytes.  At stage ``t`` every
    state copies its winner's ``t`` rows written so far, the stage word's bits
    selecting frame by frame, and sets row ``t`` to its LSB.  One unpack of
    state 0's register after the last stage gives the decoded bits."""
    stages, half = words.shape[0], trellis.num_states >> 1
    regs = np.zeros((2 * half, stages, words.shape[2]), dtype=np.uint8)
    for t in range(stages):
        lower = np.repeat(regs[:half, :t], 2, axis=0)  # states 2j, 2j+1 both follow j or j+S/2
        upper = np.repeat(regs[half:, :t], 2, axis=0)
        regs[:, :t] = lower ^ ((lower ^ upper) & words[t][:, np.newaxis])
        regs[1::2, t] = 0xFF
    return np.unpackbits(regs[0], axis=1, count=frames, bitorder="little").T


def _check_terminal(final: np.ndarray, stages: int) -> None:
    # at most 2 per stage; an unreachable state 0 holds the sentinel and fails too
    if final.size and int(final.max()) > 2 * stages:
        raise RuntimeError(f"path metric bound breached: {int(final.max())} > 2 * {stages} stages")


def decode_frames(coded: np.ndarray, trellis: Trellis,
                  scheme: str = TRACEBACK) -> tuple[np.ndarray, np.ndarray]:
    """Decode ``(n, 2 * L)`` coded frames to ``(decoded (n, L), final_metrics (n,))``.

    The zero tail pins trace-back to state 0.  A decoded frame is payload plus
    tail; its metric is the Hamming distance from the input to its re-encoding.
    """
    spec = trellis.spec
    arr = bit_rows(coded, 2 * spec.frame_stages, "coded frames")
    if scheme not in (TRACEBACK, REGISTER_EXCHANGE):
        raise ValueError(f"unknown survivor scheme {scheme!r}")
    rsym = ((arr[:, 0::2] << 1) | arr[:, 1::2]).T
    decoded = np.empty((len(arr), spec.frame_stages), dtype=np.uint8)
    final_metrics = np.empty(len(arr), dtype=np.int64)
    for lo in range(0, len(arr), _BLOCK_FRAMES):
        block = slice(lo, lo + _BLOCK_FRAMES)
        metric, words = _acs_kernel(rsym[:, block], trellis)
        final_metrics[block] = metric[0]
        n = metric.shape[1]
        decoded[block] = (output_map(traceback(words, trellis, n)) if scheme == TRACEBACK
                          else _register_exchange(words, trellis, n))
    _check_terminal(final_metrics, spec.frame_stages)
    return decoded, final_metrics


def _decode_one(coded: Sequence[int], trellis: Trellis, scheme: str) -> DecodeResult:
    raw, expect = np.asarray(coded), 2 * trellis.spec.frame_stages
    if raw.ndim != 1 or raw.size != expect:
        raise ValueError(f"coded frame must be {expect} bits, got shape {raw.shape}")
    decoded, metrics = decode_frames(raw[np.newaxis], trellis, scheme)
    return DecodeResult(decoded[0].tolist(), int(metrics[0]),
                        ActivityReport.for_frames(trellis.spec, scheme, 1))


def decode_frame(coded: Sequence[int], trellis: Trellis) -> DecodeResult:
    """Decode one frame with trace-back survivor storage."""
    return _decode_one(coded, trellis, TRACEBACK)


def decode_frame_register_exchange(coded: Sequence[int], trellis: Trellis) -> DecodeResult:
    """Decode one frame with register-exchange survivor storage."""
    return _decode_one(coded, trellis, REGISTER_EXCHANGE)


@dataclass(frozen=True)
class StreamedFrame:
    """One decoded frame plus its availability on the symbol clock."""

    index: int
    decoded: list[int]
    final_metric: int
    available_at_clock: int
    latency_clocks: int


def stream_decode(frames: Sequence[Sequence[int]], trellis: Trellis) -> list[StreamedFrame]:
    """Decode whole frames; frame ``i`` fills symbol clocks ``[i*L, (i+1)*L)`` and is
    available at ``(i+1)*L``, one frame of latency (recursion overlaps trace-back)."""
    stages = trellis.spec.frame_stages
    frame_list = list(frames)
    for i, frame in enumerate(frame_list):
        if len(frame) != 2 * stages:
            if i == len(frame_list) - 1 and len(frame) < 2 * stages:
                raise ValueError(f"frame {i}: truncated final frame "
                                 f"({len(frame)} of {2 * stages} coded bits)")
            raise ValueError(f"frame {i}: expected {2 * stages} coded bits, got {len(frame)}")
    decoded, metrics = decode_frames(np.reshape(frame_list, (-1, 2 * stages)), trellis)
    return [StreamedFrame(i, bits, metric, (i + 1) * stages, stages)
            for i, (bits, metric) in enumerate(zip(decoded.tolist(), metrics.tolist()))]
