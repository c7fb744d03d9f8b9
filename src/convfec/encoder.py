"""Zero-tail rate-1/2 convolutional encoder.

Every frame appends K-1 zero tail bits, so the encoder starts and ends each
frame in state 0 and frames encode independently.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .trellis import Trellis


def encode_frame(payload: Sequence[int], trellis: Trellis) -> list[int]:
    """Encode one payload into a coded frame of ``2 * frame_stages`` bits.

    The payload must be exactly ``payload_length`` bits; the K-1 zero tail
    is appended here.  Output bit order per stage: first generator's bit,
    then the second generator's bit.  A one-frame :func:`encode_frames`.
    """
    spec = trellis.spec
    if len(payload) != spec.payload_length:
        raise ValueError(
            f"payload must be {spec.payload_length} bits, got {len(payload)}"
        )
    return encode_frames(np.asarray(payload)[np.newaxis], trellis)[0].tolist()


def encode_frames(payloads: np.ndarray, trellis: Trellis) -> np.ndarray:
    """Encode a ``(n, payload_length)`` array of payloads, one frame per row.

    Returns the coded frames as a ``(n, 2 * frame_stages)`` uint8 array.
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
    stuck = np.flatnonzero(state)
    if stuck.size:
        raise RuntimeError(
            f"zero tail left the encoder in state {int(state[stuck[0]])}, not 0"
        )

    coded = np.empty((n, 2 * stages), dtype=np.uint8)
    coded[:, 0::2] = syms >> 1
    coded[:, 1::2] = syms & 1
    return coded
