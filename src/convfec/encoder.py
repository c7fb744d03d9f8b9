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
    Every stage's K-bit register is built at once by ORing in K windows of the
    inputs times their weights ``2^j`` (numpy's uint ``*`` beats its ``<<``), and
    one gather from a bit-pair table gives every coded bit.
    """
    spec = _typed(trellis, Trellis, "trellis").spec
    bits = bit_rows(payloads, spec.payload_length, "payloads")
    n, k, stages = bits.shape[0], spec.constraint_length, spec.frame_stages
    dtype = np.min_scalar_type(2 * trellis.num_states - 1)  # uint8 while 2S <= 256
    # inputs in time order after K-1 reset zeros, the zero tail included
    inputs = np.zeros((n, k - 1 + stages), dtype=dtype)
    inputs[:, k - 1 : k - 1 + spec.payload_length] = bits
    reg = np.zeros((n, stages), dtype=dtype)  # reg[:, t] = 2 * state + input at stage t
    for j in range(k):  # bit j of a register is the input j stages back
        reg |= inputs[:, k - 1 - j : k - 1 - j + stages] * (1 << j)
    state = reg[:, -1] % trellis.num_states
    stuck = np.flatnonzero(state)
    if stuck.size:
        raise RuntimeError(
            f"zero tail left the encoder in state {int(state[stuck[0]])}, not 0"
        )

    table = trellis.symbol_table
    return np.stack([table >> 1, table & 1], axis=1).take(reg, axis=0).reshape(n, 2 * stages)
