"""Rate-1/2 convolutional coding with hard-decision Viterbi decoding.

The package covers the full chain: code/trellis definition, zero-tail
encoding, a BPSK/AWGN channel with 1-bit quantization, Viterbi decoding
under trace-back and register-exchange survivor storage (with switching
activity counters as a power proxy), an exhaustive ML oracle for small
codes, and a Monte-Carlo BER harness.
"""

from .trellis import CodeSpec, Trellis, DEFAULT_SPEC, build_trellis, free_distance
from .encoder import encode_frames
from .channel import (
    NoiseConfig,
    add_awgn,
    bpsk_modulate,
    hard_quantize,
    inject_errors,
)
from .decoder import (
    REGISTER_EXCHANGE,
    TRACEBACK,
    ActivityReport,
    StreamedFrame,
    decode_frames,
    stream_decode,
)
from .oracle import MAX_PAYLOAD_BITS, MlResult, ml_decode_frames
from .harness import (
    BerPoint,
    PowerCompareResult,
    SweepConfig,
    ber_sweep,
    power_compare,
    theoretical_uncoded_ber,
)

__version__ = "0.1.0"

__all__ = [
    "ActivityReport",
    "BerPoint",
    "CodeSpec",
    "DEFAULT_SPEC",
    "MAX_PAYLOAD_BITS",
    "MlResult",
    "NoiseConfig",
    "PowerCompareResult",
    "REGISTER_EXCHANGE",
    "StreamedFrame",
    "SweepConfig",
    "TRACEBACK",
    "Trellis",
    "add_awgn",
    "ber_sweep",
    "bpsk_modulate",
    "build_trellis",
    "decode_frames",
    "encode_frames",
    "free_distance",
    "hard_quantize",
    "inject_errors",
    "ml_decode_frames",
    "power_compare",
    "stream_decode",
    "theoretical_uncoded_ber",
]
