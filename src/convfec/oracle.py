"""Exhaustive maximum-likelihood decoding for small code instances.

Plain enumeration of every payload, kept deliberately simple so it can act
as ground truth for the trellis decoder.  Guarded to 24 payload bits.
"""

from __future__ import annotations

import numpy as np

from .encoder import encode_frames
from .trellis import CodeSpec, _typed, _Value, bit_rows, build_trellis

MAX_PAYLOAD_BITS = 24

# codebooks are enumerated in blocks of up to 2^16 codewords, each once per call
_BLOCK_BITS = 16


class MlResult(_Value):
    """Outcome of exhaustive minimum-distance decoding.

    ``best_payload`` is the lexicographically smallest minimizer (payload
    bit 0 most significant), so ties resolve deterministically and
    ``minimizer_unique`` tells whether the tie rule mattered at all.
    """

    def __init__(self, best_payload: tuple[int, ...], best_distance: int,
                 num_minimizers: int) -> None:
        self._set(best_payload=best_payload, best_distance=best_distance,
                  num_minimizers=num_minimizers)

    @property
    def minimizer_unique(self) -> bool:
        return self.num_minimizers == 1


def _payload_matrix(spec: CodeSpec, start: int, count: int) -> np.ndarray:
    shifts = np.arange(spec.payload_length - 1, -1, -1, dtype=np.uint32)
    indices = np.arange(start, start + count, dtype=np.uint32)
    return ((indices[:, np.newaxis] >> shifts) & 1).astype(np.uint8)


def _codebook(spec: CodeSpec, start: int) -> np.ndarray:
    """Codewords of the payloads ``start, start + 1, ...``, up to 2^16 of them."""
    count = min(1 << _BLOCK_BITS, (1 << spec.payload_length) - start)
    return encode_frames(_payload_matrix(spec, start, count), build_trellis(spec))


def ml_decode_frames(received: np.ndarray, spec: CodeSpec) -> list[MlResult]:
    """Decode ``(n, 2 * L)`` received words by comparing each against every codeword.

    Enumerates all ``2^payload_length`` payloads once for the whole batch (one
    word is a ``(1, 2 * L)`` array) and returns, per word, the codeword at minimum
    Hamming distance.  Refuses payloads beyond :data:`MAX_PAYLOAD_BITS`, since the
    enumeration doubles per bit.
    """
    p = _typed(spec, CodeSpec, "spec").payload_length
    if p > MAX_PAYLOAD_BITS:
        raise ValueError(
            f"payload space 2^{p} exceeds the exhaustive-search guard "
            f"of {MAX_PAYLOAD_BITS} bits"
        )
    words = bit_rows(received, 2 * spec.frame_stages, "received words")
    n = len(words)
    best, best_index, count = [2 * spec.frame_stages + 1] * n, [-1] * n, [0] * n
    for start in range(0, 1 << p if n else 0, 1 << _BLOCK_BITS):
        book = _codebook(spec, start)
        for i, word in enumerate(words):
            distances = np.count_nonzero(book != word, axis=1)
            block_best = int(distances.min())
            if block_best < best[i]:  # first minimum = lexicographic winner
                best[i], best_index[i], count[i] = block_best, start + int(distances.argmin()), 0
            if block_best == best[i]:
                count[i] += int(np.count_nonzero(distances == best[i]))

    return [
        MlResult(tuple((index >> (p - 1 - j)) & 1 for j in range(p)), dist, c)
        for index, dist, c in zip(best_index, best, count)
    ]
