"""Zero-tail rate-1/2 convolutional encoder.

Every frame appends K-1 zero tail bits, so the encoder starts and ends each
frame in state 0 and frames encode independently.
"""

from __future__ import annotations

import numpy as np

from .trellis import Trellis, _typed, bit_rows


def encode_frames(payloads: np.ndarray, trellis: Trellis) -> np.ndarray:
    """Encode a ``(n, payload_length)`` array of payloads, one frame per row;
    one frame is a ``(1, payload_length)`` array.

    Returns the coded frames as a ``(n, 2 * frame_stages)`` uint8 array, the
    K-1 zero tail included.  Bit order per stage: first generator's bit, then
    the second generator's.
    Each generator's bits are a GF(2) convolution: the XOR of the input windows
    that its taps select, ``taps[j]`` weighting the input ``j`` stages back.
    """
    spec = _typed(trellis, Trellis, "trellis").spec
    bits = bit_rows(payloads, spec.payload_length, "payloads")
    n, k, stages = bits.shape[0], spec.constraint_length, spec.frame_stages
    # inputs in time order after K-1 reset zeros, the zero tail included
    inputs = np.zeros((n, k - 1 + stages), dtype=np.uint8)
    inputs[:, k - 1 : k - 1 + spec.payload_length] = bits
    tail = inputs[:, stages:]  # the last K-1 inputs are the end state, newest last
    if tail.any():
        state = int("".join(map(str, tail[tail.any(axis=1)][0])), 2)
        raise RuntimeError(f"zero tail left the encoder in state {state}, not 0")

    planes = [np.zeros((n, stages), dtype=np.uint8) for _ in spec.generators]
    for plane, taps in zip(planes, spec.generators):
        for j in np.flatnonzero(taps):
            plane ^= inputs[:, k - 1 - j : k - 1 - j + stages]
    return np.stack(planes, axis=2).reshape(n, 2 * stages)
