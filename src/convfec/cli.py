"""Command-line front end.

Subcommands: encode, decode, oracle-decode, inject-errors, ber-sweep,
power-compare.  Bit frames travel as ASCII lines of '0'/'1', one frame per
line, which keeps fixtures diffable.  Code parameters are global flags and
must precede the subcommand, e.g.::

    convfec -K 3 --generators 7,5 -L 5 encode -i payloads.txt -o coded.txt
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from typing import Sequence

import numpy as np

from . import __version__
from .decoder import REGISTER_EXCHANGE, TRACEBACK, ActivityReport, decode_frames
from .encoder import encode_frames
from .channel import inject_errors
from .harness import (
    SweepConfig,
    _activity_csv,
    ber_sweep,
    format_ber_csv,
    format_power_csv,
    power_compare,
)
from .oracle import MAX_PAYLOAD_BITS, ml_decode_frames
from .trellis import CodeSpec, build_trellis

_MAX_EBNO_POINTS = 1000  # a longer --ebno range is a typo, not a sweep anyone can wait for
_NEWLINE = ord("\n")


class CliError(Exception):
    """A user-facing failure; rendered as a one-line diagnostic."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convfec",
        description=(
            "Rate-1/2 convolutional coding toolkit. Default code: K=7, "
            "generators 171/133 octal, 40-stage frames (34 payload bits "
            "plus a 6-bit zero tail)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "-K", "--constraint-length", type=int, default=7, metavar="K",
        help="constraint length (default 7)",
    )
    parser.add_argument(
        "-L", "--frame-stages", type=int, default=40, metavar="L",
        help="encoder inputs per frame including the zero tail (default 40)",
    )
    parser.add_argument(
        "--generators", default="171,133", metavar="OCT,OCT",
        help="octal generator pair (default 171,133)",
    )
    parser.add_argument(
        "--spec-dump", action="store_true",
        help="print the resolved code spec and exit",
    )

    sub = parser.add_subparsers(dest="command", metavar="command")

    encode = sub.add_parser("encode", help="encode payload frames")
    _add_io(encode)

    decode = sub.add_parser("decode", help="Viterbi-decode coded frames to payloads")
    _add_io(decode)
    decode.add_argument(
        "--scheme", choices=("traceback", "regex"), default="traceback",
        help="survivor storage: trace-back or register exchange (regex)",
    )
    decode.add_argument(
        "--activity", metavar="PATH",
        help="also write aggregated switching-activity CSV to PATH",
    )

    oracle = sub.add_parser(
        "oracle-decode", help="exhaustive ML decode (small codes only)"
    )
    _add_io(oracle)

    inject = sub.add_parser("inject-errors", help="flip fixed bit positions per frame")
    _add_io(inject)
    inject.add_argument(
        "--positions", required=True, metavar="N,N,...",
        help="comma-separated bit indices to flip in every frame",
    )

    ber = sub.add_parser("ber-sweep", help="Monte-Carlo BER sweep over Eb/N0")
    ber.add_argument(
        "--ebno", required=True, metavar="SPEC",
        help="Eb/N0 dB points: 'start:step:stop' or a comma list",
    )
    ber.add_argument("--min-bits", default="1e5", metavar="N",
                     help="minimum information bits per point (default 1e5)")
    ber.add_argument("--max-bits", default="1e7", metavar="N",
                     help="information-bit budget per point (default 1e7)")
    ber.add_argument("--stop-errors", type=int, default=200, metavar="N",
                     help="stop a point after this many bit errors (default 200)")
    ber.add_argument("--seed", type=int, default=0, help="sweep seed (default 0)")
    ber.add_argument("-o", "--out", default="-", metavar="PATH",
                     help="CSV output path ('-' for stdout)")

    power = sub.add_parser(
        "power-compare", help="survivor-activity comparison of both schemes"
    )
    power.add_argument("--frames", type=int, default=1000, metavar="N",
                       help="frames to decode under each scheme (default 1000)")
    power.add_argument("--ebno", type=float, default=4.0, metavar="DB",
                       help="channel Eb/N0 in dB (default 4)")
    power.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
    power.add_argument("-o", "--out", default="-", metavar="PATH",
                       help="CSV output path ('-' for stdout)")

    return parser


def _add_io(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-i", "--in", dest="input", default="-", metavar="PATH",
                        help="input frames, one per line ('-' for stdin)")
    parser.add_argument("-o", "--out", dest="output", default="-", metavar="PATH",
                        help="output path ('-' for stdout)")


def _resolve_spec(args: argparse.Namespace) -> CodeSpec:
    try:
        return CodeSpec.from_octal(
            args.generators,
            constraint_length=args.constraint_length,
            frame_stages=args.frame_stages,
        )
    except ValueError as exc:
        raise CliError(f"bad code parameters (-K/--generators/-L): {exc}") from exc


def _read_frames(path: str, expected_len: int, what: str) -> np.ndarray:
    """Read '0'/'1' lines into one ``(n, expected_len)`` uint8 array.  Stdin and files
    are read as raw bytes, so ``_parse_lines``'s line-end rule holds for both."""
    if path == "-":
        if sys.stdin is None:
            raise CliError("cannot read stdin: it is closed")
        return _parse_lines(sys.stdin.buffer.read(), expected_len, what)
    try:
        with open(path, "rb") as fp:
            data = fp.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from exc
    return _parse_lines(data, expected_len, what)


def _parse_lines(data: bytes, expected_len: int, what: str) -> np.ndarray:
    """Whole-buffer parse of '0'/'1' lines.  A line ends at '\\n', '\\r\\n' or
    a lone '\\r'; blank lines are skipped but still count in the line numbers."""
    if b"\r" in data:  # the test is far cheaper than the copies on a file without '\r'
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    raw = np.frombuffer(data, dtype=np.uint8)
    width = expected_len + 1
    if raw.size % width == 0:  # the common case: every line full, bare and terminated
        rows = raw.reshape(-1, width)
        bits = rows[:, :-1] - ord("0")  # uint8: anything but '0'/'1' wraps above 1
        if (rows[:, -1] == _NEWLINE).all() and bits.max(initial=0) <= 1:
            return bits
    sep = raw == _NEWLINE
    newlines = np.flatnonzero(sep)
    starts, ends = np.r_[0, newlines + 1], np.r_[newlines, raw.size]
    lengths = ends - starts
    invalid = ((raw - ord("0")) > 1) & ~sep
    offending = np.flatnonzero((lengths != expected_len) & (lengths > 0))[:1].tolist()
    if invalid.any():
        offending.append(int(np.searchsorted(newlines, invalid.argmax())))
    if offending:
        i = min(offending)
        line = data[starts[i]:ends[i]]
        bad = line.lstrip(b"01")
        if bad:  # surrogateescape names a non-ASCII byte, e.g. '\\udcff' for 0xff
            char = bad[:1].decode("ascii", "surrogateescape")
            raise CliError(f"line {i + 1}: invalid character {char!r} "
                           "(frames are lines of '0'/'1')")
        raise CliError(f"line {i + 1}: {what} frame must be {expected_len} bits, "
                       f"got {len(line)}")
    return (raw[~sep] - ord("0")).reshape(np.count_nonzero(lengths), expected_len)


def _format_frames(frames: Sequence[Sequence[int]]) -> bytes:
    if len(frames) == 0:
        return b""
    digits = np.asarray(frames, dtype=np.uint8) + ord("0")
    newline = np.full((digits.shape[0], 1), _NEWLINE, dtype=np.uint8)
    return np.hstack([digits, newline]).tobytes()


def _write(path: str, data: bytes) -> None:
    if path == "-":
        if sys.stdout is None:
            raise CliError("cannot write stdout: it is closed")
        sys.stdout.buffer.write(data)
        return
    target, tmp = os.path.abspath(path), None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".convfec-")
        with os.fdopen(fd, "wb") as fp:
            fp.write(data)
        os.replace(tmp, target)  # no partial output files
    except OSError as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        raise CliError(f"cannot write {path}: {exc.strerror}") from exc


def _spec_summary(spec: CodeSpec) -> str:
    return (
        f"constraint_length={spec.constraint_length} "
        f"generators_octal={spec.generators_octal} "
        f"frame_stages={spec.frame_stages} "
        f"payload_bits={spec.payload_length} "
        f"tail_bits={spec.tail_length} "
        f"states={spec.num_states}"
    )


def _cmd_encode(args: argparse.Namespace, spec: CodeSpec) -> int:
    trellis = build_trellis(spec)
    payloads = _read_frames(args.input, spec.payload_length, "payload")
    _write(args.output, _format_frames(encode_frames(payloads, trellis)))
    return 0


def _cmd_decode(args: argparse.Namespace, spec: CodeSpec) -> int:
    trellis = build_trellis(spec)
    frames = _read_frames(args.input, 2 * spec.frame_stages, "coded")
    scheme = TRACEBACK if args.scheme == "traceback" else REGISTER_EXCHANGE
    decoded, _ = decode_frames(frames, trellis, scheme)
    _write(args.output, _format_frames(decoded[:, : spec.payload_length]))
    if args.activity is not None:
        report = ActivityReport.for_frames(spec, scheme, len(frames))
        _write(args.activity, _activity_csv(len(frames), [report]).encode())
    return 0


def _cmd_oracle_decode(args: argparse.Namespace, spec: CodeSpec) -> int:
    if spec.payload_length > MAX_PAYLOAD_BITS:
        raise CliError(
            f"oracle-decode enumerates 2^{spec.payload_length} payloads; "
            f"the guard is {MAX_PAYLOAD_BITS} payload bits (use 'decode')"
        )
    frames = _read_frames(args.input, 2 * spec.frame_stages, "coded")
    payloads = [result.best_payload for result in ml_decode_frames(frames, spec)]
    _write(args.output, _format_frames(payloads))
    return 0


def _cmd_inject_errors(args: argparse.Namespace, spec: CodeSpec) -> int:
    try:
        positions = {int(p) for p in args.positions.split(",") if p.strip() != ""}
    except ValueError:
        raise CliError(f"--positions must be comma-separated integers, got {args.positions!r}")
    frames = _read_frames(args.input, 2 * spec.frame_stages, "coded")
    _write(args.output, _format_frames(inject_errors(frames, positions)))
    return 0


def _parse_ebno(text: str) -> tuple[float, ...]:
    is_range = ":" in text
    parts = text.split(":" if is_range else ",")
    if is_range and len(parts) != 3:
        raise CliError(f"--ebno range must be start:step:stop, got {text!r}")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise CliError(f"--ebno must be numeric, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise CliError(f"--ebno must be finite, got {text!r}")
    if not is_range:
        return values
    start, step, stop = values
    if step <= 0:
        raise CliError("--ebno range step must be positive")
    points = []
    value = start
    while value <= stop + 1e-9:
        if len(points) == _MAX_EBNO_POINTS:
            raise CliError(f"--ebno range names more than {_MAX_EBNO_POINTS} points, got {text!r}")
        points.append(round(value, 9))
        if value + step == value:
            raise CliError(f"--ebno range step {step!r} does not advance from {value!r}")
        value += step
    return tuple(points)


def _parse_bit_count(text: str, flag: str) -> int:
    try:
        value = int(float(text))
    except (ValueError, OverflowError):  # OverflowError: inf, or 1e400 read as inf
        raise CliError(f"{flag} must be a finite number, got {text!r}") from None
    if value < 0:
        raise CliError(f"{flag} must be nonnegative")
    return value


def _cmd_ber_sweep(args: argparse.Namespace, spec: CodeSpec) -> int:
    ebno = _parse_ebno(args.ebno)
    low = _parse_bit_count(args.min_bits, "--min-bits")
    high = _parse_bit_count(args.max_bits, "--max-bits")
    if low > high:
        raise CliError(f"--min-bits {low} exceeds --max-bits {high}")
    if args.stop_errors < 0:
        raise CliError(f"--stop-errors must be nonnegative, got {args.stop_errors}")
    cfg = SweepConfig(ebno_points=ebno, min_info_bits=low, max_info_bits=high,
                      stop_at_errors=args.stop_errors, seed=args.seed, spec=spec)
    _write(args.out, format_ber_csv(ber_sweep(cfg)).encode())
    return 0


def _cmd_power_compare(args: argparse.Namespace, spec: CodeSpec) -> int:
    if args.frames < 0:
        raise CliError("--frames must be nonnegative")
    bits = args.frames * spec.payload_length
    cfg = SweepConfig(
        ebno_points=(args.ebno,),
        min_info_bits=bits,
        max_info_bits=bits,
        stop_at_errors=0,
        seed=args.seed,
        spec=spec,
    )
    _write(args.out, format_power_csv(power_compare(cfg)).encode())
    return 0


_COMMANDS = {
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "oracle-decode": _cmd_oracle_decode,
    "inject-errors": _cmd_inject_errors,
    "ber-sweep": _cmd_ber_sweep,
    "power-compare": _cmd_power_compare,
}


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --version/--help or usage errors
        return int(exc.code or 0)
    try:
        spec = _resolve_spec(args)
        if args.spec_dump:
            print(_spec_summary(spec))
            return 0
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("convfec: error: a command is required", file=sys.stderr)
            return 2
        return _COMMANDS[args.command](args, spec)
    except (CliError, ValueError) as exc:
        print(f"convfec: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
