"""Zero-tail rate-1/2 convolutional encoder.

Every frame appends K-1 zero tail bits, so the encoder starts and ends each
frame in state 0 and frames encode independently.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .trellis import Trellis


def _check_bits(bits: Sequence[int], what: str) -> None:
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"{what} must contain only 0/1 bits, found {b!r}")


def encode_frame(payload: Sequence[int], trellis: Trellis) -> list[int]:
    """Encode one payload into a coded frame of ``2 * frame_stages`` bits.

    The payload must be exactly ``payload_length`` bits; the K-1 zero tail
    is appended here.  Output bit order per stage: first generator's bit,
    then the second generator's bit.
    """
    spec = trellis.spec
    if len(payload) != spec.payload_length:
        raise ValueError(
            f"payload must be {spec.payload_length} bits, got {len(payload)}"
        )
    _check_bits(payload, "payload")

    next_table = trellis.next_state_table
    sym_table = trellis.symbol_table
    out: list[int] = []
    state = 0
    for b in list(payload) + [0] * spec.tail_length:
        idx = 2 * state + b
        packed = int(sym_table[idx])
        out.append(packed >> 1)
        out.append(packed & 1)
        state = int(next_table[idx])
    if state != 0:
        raise RuntimeError(f"zero tail left the encoder in state {state}, not 0")
    return out


def encode_stream(payloads: Iterable[Sequence[int]], trellis: Trellis) -> list[list[int]]:
    """Encode a sequence of payload frames; frame index is added to errors."""
    coded: list[list[int]] = []
    for i, payload in enumerate(payloads):
        try:
            coded.append(encode_frame(payload, trellis))
        except ValueError as exc:
            raise ValueError(f"frame {i}: {exc}") from exc
    return coded


def encode_frames(payloads: np.ndarray, trellis: Trellis) -> np.ndarray:
    """Vectorized :func:`encode_frame` over a ``(n, payload_length)`` array.

    Returns the coded frames as a ``(n, 2 * frame_stages)`` uint8 array.
    Used by the Monte-Carlo harness; agrees bit for bit with
    :func:`encode_frame`.
    """
    spec = trellis.spec
    raw = np.asarray(payloads)
    if raw.ndim != 2 or raw.shape[1] != spec.payload_length:
        raise ValueError(
            f"payloads must have shape (n, {spec.payload_length}), got {raw.shape}"
        )
    if np.any((raw != 0) & (raw != 1)):
        raise ValueError("payloads must contain only 0/1 bits")
    arr = np.ascontiguousarray(raw, dtype=np.uint8)
    n = arr.shape[0]
    stages = spec.frame_stages
    next_table = trellis.next_state_table
    sym_table = trellis.symbol_table

    state = np.zeros(n, dtype=np.int64)
    syms = np.empty((n, stages), dtype=np.uint8)
    for t in range(stages):
        if t < spec.payload_length:
            idx = 2 * state + arr[:, t]
        else:
            idx = 2 * state
        syms[:, t] = sym_table[idx]
        state = next_table[idx]

    coded = np.empty((n, 2 * stages), dtype=np.uint8)
    coded[:, 0::2] = syms >> 1
    coded[:, 1::2] = syms & 1
    return coded
