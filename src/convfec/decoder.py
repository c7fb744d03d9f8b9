"""Hard-decision Viterbi decoding: one add-compare-select (ACS) kernel, two survivor memories.

The kernel writes one stage word per stage and frame, once: bit ``s`` is 1 when
state ``s``'s survivor came via its upper branch (ties keep the lower one).  Trace-back
and register exchange both map the words to decoded bits; they differ only in activity
cost.  Trace-back writes stage ``t``'s survivor bit as the input at ``t - (K-1)``.
:func:`decode_frames` is the one entry point; one frame is a ``(1, 2L)`` array."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .trellis import CodeSpec, Trellis, _count, _typed, _Value, bit_rows

TRACEBACK = "trace-back"
REGISTER_EXCHANGE = "register-exchange"

# state-frames per kernel call: 2048 frames of a 64-state code, so that a block's metrics,
# stage words and registers stay cache-sized; clamped to 256 ... 2048 frames
_BLOCK_STATE_FRAMES = 2048 * 64


def _sentinel(dtype: np.dtype) -> int:  # unreachable: a sentinel plus one branch (at most 2) still fits
    return int(np.iinfo(dtype).max) - 2


class ActivityReport(_Value):
    """Switching-activity counts of ``frames`` frames under ``scheme``, a power proxy; each
    is a closed form, since none depends on the data."""

    def __init__(self, spec: CodeSpec, scheme: str, frames: int) -> None:
        _survivor_memory(scheme)
        self._set(spec=_typed(spec, CodeSpec, "spec"), scheme=scheme,
                  frames=_count(frames, "frames"))

    @property
    def survivor_bit_writes(self) -> int:
        """S bits per stage for trace-back; register exchange copies ``t`` rows at stage ``t``."""
        l = self.spec.frame_stages
        per_frame = l if self.scheme == TRACEBACK else l * (l + 1) // 2
        return self.spec.num_states * per_frame * self.frames

    @property
    def metric_writes(self) -> int:
        return self.spec.num_states * self.spec.frame_stages * self.frames

    @property
    def traceback_reads(self) -> int:
        return self.spec.frame_stages * self.frames if self.scheme == TRACEBACK else 0


def _acs_kernel(rows: np.ndarray, trellis: Trellis) -> tuple[np.ndarray, np.ndarray]:
    """ACS from state 0 over ``(n, 2T)`` coded bit rows.  Returns the final
    ``(S, n)`` metrics and ``(T, S, ceil(n / 8))`` stage words, frame ``i`` at
    bit ``i % 8``.  States ``j``, ``j + S/2`` feed ``2j``, ``2j + 1`` (one
    butterfly per stage); ties keep the lower predecessor.

    The branch distances ``d[t, e, i]``, time-major so that a stage gathers one
    contiguous block, come from the first and second bit planes ``a``, ``b``:
    ``d00 = a + b``, ``d01 = a - b + 1``, ``d10 = 2 - d01``, ``d11 = 2 - d00``.

    Warm-up: before stage ``t < K-1`` only states ``s < 2^t`` are reachable,
    all in the lower half, so every state's survivor is its lower predecessor
    (an unreachable pair ties) and the word stays 0.  Only rows ``:2^(t+1)``
    change; the rest keep the sentinel.  From stage K-1 on every state is
    reachable and the full butterfly runs on buffers allocated once per call:
    candidates, survivor bits, and two metric arrays that swap each stage."""
    n, stages = rows.shape[0], rows.shape[1] // 2
    states, half = trellis.num_states, trellis.num_states >> 1
    # the narrowest type whose sentinel exceeds 2L, the largest reachable metric (int8 to L = 62)
    dtype = next(t for t in (np.int8, np.int16, np.int32) if 2 * stages < _sentinel(t))
    a, b = np.ascontiguousarray(rows.T, dtype=dtype).reshape(stages, 2, n).swapaxes(0, 1)
    d = np.empty((stages, 4, n), dtype=dtype)
    np.add(a, b, out=d[:, 0])
    np.subtract(a, b, out=d[:, 1])
    d[:, 1] += 1
    np.subtract(2, d[:, 1::-1], out=d[:, 2:])
    table = trellis.symbol_table.astype(np.intp)
    metric = np.full((states, n), _sentinel(dtype), dtype=dtype)
    metric[0] = 0
    words = np.zeros((stages, states, -(-n // 8)), dtype=np.uint8)
    warmup = min(trellis.spec.constraint_length - 1, stages)
    for t in range(warmup):  # state 2j + b <- j on the lower branch r = 2j + b
        live = 1 << t
        step = d[t].take(table[:2 * live], axis=0).reshape(live, 2, n)
        metric[:2 * live] = (metric[:live, np.newaxis] + step).reshape(2 * live, n)
    # cand[u, j, b]: the path into state 2j + b from predecessor j + u * S/2
    cand, upper = np.empty((2, half, 2, n), dtype=dtype), np.empty((half, 2, n), dtype=bool)
    # stage views built once: each metric buffer is read as (u, j, 1, n) and written as
    # (j, b, n); the i-th full stage reads bufs[i & 1] and writes the other
    via_lower, via_upper = cand
    flat, survivors = cand.reshape(2 * states, n), upper.reshape(states, n)
    bufs = [(m, m.reshape(2, half, 1, n), m.reshape(half, 2, n))
            for m in (metric, np.empty_like(metric))]
    for i, t in enumerate(range(warmup, stages)):  # "clip" indexes as "raise" but unbuffered
        np.take(d[t], table, axis=0, out=flat, mode="clip")
        cand += bufs[i & 1][1]
        np.less(via_upper, via_lower, out=upper)
        words[t] = np.packbits(survivors, axis=1, bitorder="little")
        np.minimum(via_lower, via_upper, out=bufs[~i & 1][2])
    return bufs[(stages - warmup) & 1][0], words


def _traceback(words: np.ndarray, trellis: Trellis, frames: int) -> np.ndarray:
    """Trace-back survivor memory: each frame's decoded bits, oldest first, walking
    back from state 0, where the zero tail ends every frame.  Before state ``s``
    comes ``s >> 1``, plus ``S/2`` when its survivor bit is 1.  That bit is the
    predecessor's MSB, the input ``K - 1`` stages back, so stage ``t`` writes bit
    ``t - (K-1)`` straight into its output row, and the state steps back in
    place; the last ``K - 1`` bits are the tail's zeros."""
    stages, states, nbytes = words.shape
    byte, shift = np.arange(frames) >> 3, (np.arange(frames) & 7).astype(np.uint8)
    flat = words.reshape(stages, -1)  # one 1-D take per stage, at state * nbytes + byte
    memory = trellis.spec.constraint_length - 1
    bits = np.zeros((stages, frames), dtype=np.uint8)  # bits L-(K-1) on are the zero tail
    state, top = np.zeros(frames, dtype=np.intp), np.intp(states >> 1)  # row * top stays intp
    for t in range(stages - 1, memory - 1, -1):
        row = bits[t - memory]  # the survivor bit, written in place
        np.right_shift(flat[t].take(state * nbytes + byte), shift, out=row)
        row &= 1
        state >>= 1
        state += row * top
    return bits.T


def _register_exchange(words: np.ndarray, trellis: Trellis, frames: int) -> np.ndarray:
    """Register-exchange survivor memory in the stage words' own layout: state
    ``s``'s register is ``L`` rows of frame-packed bytes.  At stage ``t`` every
    state copies its winner's ``t`` rows written so far, the stage word's bits
    selecting frame by frame, and sets row ``t`` to its LSB.  Two register
    buffers swap each stage: the copies go from one into the other.  One unpack
    of state 0's register after the last stage gives the decoded bits.

    In the last K-1 stages only the states that the zero tail still leads to
    state 0 are updated (Forney 1973): after stage ``t`` these are the even
    states ``k * S / 2^(L-1-t)``, read from their predecessors as strided views."""
    stages, states, nbytes = words.shape
    half, k = states >> 1, trellis.spec.constraint_length
    regs, spare = np.zeros((2, states, stages, nbytes), dtype=np.uint8)
    for t in range(stages):
        # states 2j, 2j+1 follow j or j+S/2: lower ^ (diff & word bit), the word copied
        # over the t rows of the output first, so that no mask array is allocated (an
        # AND with the word broadcast over the rows is slower than this copy and diff);
        # in the tail only the even state 2j of every step-th butterfly j reaches state 0
        step, width = max(1, half >> (stages - 1 - t)), 1 if stages - t < k else 2
        lower = regs[:half:step, np.newaxis, :t]
        succ = spare.reshape(half, 2, stages, nbytes)[::step]
        out = succ[:, :width, :t]
        out[...] = words[t].reshape(half, 2, 1, nbytes)[::step, :width]
        out &= lower ^ regs[half::step, np.newaxis, :t]
        out ^= lower
        succ[:, 1:width, t] = 0xFF  # row t of the even states is still 0: never written
        regs, spare = spare, regs
    return np.unpackbits(regs[0], axis=1, count=frames, bitorder="little").T


_SURVIVOR_MEMORIES = {TRACEBACK: _traceback, REGISTER_EXCHANGE: _register_exchange}


def _survivor_memory(scheme: str):
    """The survivor memory that ``scheme`` names; a scheme that names none is refused."""
    if not isinstance(scheme, str):  # a list or dict is unhashable: name it first
        raise TypeError(f"scheme must be a string, got {scheme!r}")
    if (memory := _SURVIVOR_MEMORIES.get(scheme)) is None:
        raise ValueError(f"unknown survivor scheme {scheme!r}")
    return memory


def _check_terminal(final: np.ndarray, stages: int) -> None:
    # at most 2 per stage; an unreachable state 0 holds the sentinel and fails too
    if final.size and int(final.max()) > 2 * stages:
        raise RuntimeError(f"path metric bound breached: {int(final.max())} > 2 * {stages} stages")


def decode_frames(coded: np.ndarray, trellis: Trellis,
                  scheme: str = TRACEBACK) -> tuple[np.ndarray, np.ndarray]:
    """Decode ``(n, 2 * L)`` coded frames to ``(decoded (n, L), final_metrics (n,))``.

    ``scheme`` picks the survivor memory; both give identical output.  The zero
    tail pins trace-back to state 0.  A decoded frame is payload plus tail; its
    metric is the Hamming distance from the input to its re-encoding.
    """
    spec = _typed(trellis, Trellis, "trellis").spec
    arr = bit_rows(coded, 2 * spec.frame_stages, "coded frames")
    memory = _survivor_memory(scheme)
    decoded = np.empty((len(arr), spec.frame_stages), dtype=np.uint8)
    final_metrics = np.empty(len(arr), dtype=np.int64)
    block_frames = min(2048, max(256, _BLOCK_STATE_FRAMES // spec.num_states))
    for lo in range(0, len(arr), block_frames):
        block = slice(lo, lo + block_frames)
        metric, words = _acs_kernel(arr[block], trellis)
        final_metrics[block] = metric[0]
        decoded[block] = memory(words, trellis, metric.shape[1])
    _check_terminal(final_metrics, spec.frame_stages)
    return decoded, final_metrics


class StreamedFrame(_Value):
    """One decoded frame plus its availability on the symbol clock: frame ``index``
    of ``L = len(decoded)`` stages fills clocks ``[index*L, (index+1)*L)``."""

    def __init__(self, index: int, decoded: list[int], final_metric: int) -> None:
        self._set(index=index, decoded=decoded, final_metric=final_metric)

    @property
    def available_at_clock(self) -> int:
        return (self.index + 1) * len(self.decoded)

    @property
    def latency_clocks(self) -> int:
        return len(self.decoded)


def stream_decode(frames: Sequence[Sequence[int]], trellis: Trellis) -> list[StreamedFrame]:
    """Decode whole frames; frame ``i`` fills symbol clocks ``[i*L, (i+1)*L)`` and is
    available at ``(i+1)*L``, one frame of latency (recursion overlaps trace-back)."""
    stages = _typed(trellis, Trellis, "trellis").spec.frame_stages
    frame_list = list(frames)
    for i, frame in enumerate(frame_list):
        if not np.iterable(frame) or isinstance(frame, (str, bytes)):
            raise TypeError(f"frame {i} must be a sequence of coded bits, got {frame!r}")
        if len(frame) != 2 * stages:
            if i == len(frame_list) - 1 and len(frame) < 2 * stages:
                raise ValueError(f"frame {i}: truncated final frame "
                                 f"({len(frame)} of {2 * stages} coded bits)")
            raise ValueError(f"frame {i}: expected {2 * stages} coded bits, got {len(frame)}")
    decoded, metrics = decode_frames(np.reshape(frame_list, (-1, 2 * stages)), trellis)
    return [StreamedFrame(i, bits, metric)
            for i, (bits, metric) in enumerate(zip(decoded.tolist(), metrics.tolist()))]
