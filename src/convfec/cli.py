"""Command-line front end.

Subcommands: encode, decode, oracle-decode, inject-errors, ber-sweep,
power-compare.  Bit frames travel as ASCII lines of '0'/'1', one frame per
line, which keeps fixtures diffable.  Code parameters are global flags and
must precede the subcommand, e.g.::

    convfec -K 3 --generators 7,5 -L 5 encode -i payloads.txt -o coded.txt
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import stat
import sys
from typing import Callable, Sequence

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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command tree, built on the first call and shared by every later one.

    Each subcommand's parser is a :class:`_DeferredParser`: its name and help
    live in this parser, and its arguments are added the first time a command
    line selects it.  ``parse_args`` makes a fresh namespace and checks
    ``required`` and ``choices`` on each call, so :func:`run` can reuse the
    tree; callers must not mutate it."""
    parser = _Parser(
        prog="convfec",
        description=(
            "Rate-1/2 convolutional coding toolkit. Default code: K=7, "
            "generators 171/133 octal, 40-stage frames (34 payload bits "
            "plus a 6-bit zero tail)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "-K", "--constraint-length", default="7", metavar="K",
        help="constraint length (default 7)",
    )
    parser.add_argument(
        "-L", "--frame-stages", default="40", metavar="L",
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

    sub = parser.add_subparsers(dest="command", metavar="command",
                                parser_class=_DeferredParser)
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text, add_arguments=add_arguments)
    return parser


class _Parser(argparse.ArgumentParser):
    """Prints help and version text through :func:`_write_stdout`; argparse's
    own writer would drop a failed write and exit 0."""

    def _print_message(self, message: str, file=None) -> None:
        if message and file is sys.stdout:
            _write_stdout(message.encode())
        else:
            super()._print_message(message, file)


class _DeferredParser:
    """A subcommand's ``ArgumentParser``, built on the first attribute access.

    argparse makes one per ``add_parser`` call (the ``parser_class`` hook) and
    touches it only once that command is selected, through whichever method
    its Python version uses; every attribute is looked up on the built parser."""

    def __init__(self, *, add_arguments: Callable[[argparse.ArgumentParser], None],
                 **kwargs) -> None:
        self._add_arguments, self._kwargs = add_arguments, kwargs
        self._parser: argparse.ArgumentParser | None = None

    def __getattr__(self, name: str):  # reached only for names this object lacks
        if self._parser is None:
            self._parser = _Parser(**self._kwargs)
            self._add_arguments(self._parser)
        return getattr(self._parser, name)


def _io_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-i", "--in", dest="input", default="-", metavar="PATH",
                        help="input frames, one per line ('-' for stdin)")
    parser.add_argument("-o", "--out", dest="output", default="-", metavar="PATH",
                        help="output path ('-' for stdout)")


def _decode_arguments(parser: argparse.ArgumentParser) -> None:
    _io_arguments(parser)
    parser.add_argument(
        "--scheme", choices=("traceback", "regex"), default="traceback",
        help="survivor storage: trace-back or register exchange (regex)",
    )
    parser.add_argument(
        "--activity", metavar="PATH",
        help="also write aggregated switching-activity CSV to PATH",
    )


def _inject_errors_arguments(parser: argparse.ArgumentParser) -> None:
    _io_arguments(parser)
    parser.add_argument(
        "--positions", required=True, metavar="N,N,...",
        help="comma-separated bit indices to flip in every frame",
    )


def _ber_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ebno", required=True, metavar="SPEC",
        help="Eb/N0 dB points: 'start:step:stop' or a comma list",
    )
    parser.add_argument("--min-bits", default="1e5", metavar="N",
                        help="minimum information bits per point (default 1e5)")
    parser.add_argument("--max-bits", default="1e7", metavar="N",
                        help="information-bit budget per point (default 1e7)")
    parser.add_argument("--stop-errors", default="200", metavar="N",
                        help="stop a point after this many bit errors (default 200)")
    parser.add_argument("--seed", default="0", help="sweep seed (default 0)")
    parser.add_argument("-o", "--out", default="-", metavar="PATH",
                        help="CSV output path ('-' for stdout)")


def _power_compare_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--frames", default="1000", metavar="N",
                        help="frames to decode under each scheme (default 1000)")
    parser.add_argument("--ebno", default="4", metavar="DB",
                        help="channel Eb/N0 in dB (default 4)")
    parser.add_argument("--seed", default="0", help="run seed (default 0)")
    parser.add_argument("-o", "--out", default="-", metavar="PATH",
                        help="CSV output path ('-' for stdout)")


def _resolve_spec(args: argparse.Namespace) -> CodeSpec:
    try:
        return CodeSpec.from_octal(
            args.generators,
            constraint_length=_parse_count(args.constraint_length, "-K"),
            frame_stages=_parse_count(args.frame_stages, "-L"),
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
    raw = np.frombuffer(data, np.uint8)
    width = expected_len + 1
    if raw.size % width == 0:  # the common case: every line full, bare and terminated
        rows = raw.reshape(-1, width)
        bits = rows[:, :-1] - ord("0")  # uint8: anything but '0'/'1' wraps above 1
        if (rows[:, -1] == _NEWLINE).all() and bits.max(initial=0) <= 1:
            return bits
    lengths = np.diff(np.flatnonzero(raw == _NEWLINE), prepend=-1, append=raw.size) - 1
    bits = np.frombuffer(data.replace(b"\n", b""), np.uint8) - ord("0")
    if ((lengths != expected_len) & (lengths > 0)).any() or bits.max(initial=0) > 1:
        for number, line in enumerate(data.split(b"\n"), 1):  # name the first bad line
            if bad := line.lstrip(b"01"):
                char = bad[:1].decode("ascii", "surrogateescape")  # byte 0xff reads '\\udcff'
                raise CliError(f"line {number}: invalid character {char!r} "
                               "(frames are lines of '0'/'1')")
            if line and len(line) != expected_len:
                raise CliError(f"line {number}: {what} frame must be {expected_len} bits, "
                               f"got {len(line)}")
    return bits.reshape(-1, expected_len)


def _format_frames(frames: np.ndarray) -> bytes:
    text = np.full((frames.shape[0], frames.shape[1] + 1), _NEWLINE, np.uint8)
    np.add(frames, ord("0"), out=text[:, :-1])
    return text.tobytes()


def _write(*outputs: tuple[str, bytes]) -> None:
    """Write each ``(path, data)`` to stdout ('-') or to ``path``, through a symlink to its
    target.  A regular file is replaced whole by a rename, so no reader sees part of it, and
    every one is staged in its temp file before the first rename, so a failure writes none.
    It keeps an existing file's mode, else ``0o666`` less the umask.  Stdout, a FIFO or a
    device is written in place, after the staging."""
    if len(outputs) > 1:  # one file named twice would keep only its last write
        real = [os.path.realpath(path) for path, _ in outputs if path != "-"]
        files = [r for r in real if os.path.isfile(r) or not os.path.exists(r)]
        if len(set(files)) < len(files):
            raise CliError(f"outputs {' and '.join(p for p, _ in outputs)} name the same file")
    staged: list[tuple[str, str, str]] = []  # (path, temp file, target), in output order
    in_place: list[tuple[str, str, bytes]] = []  # (path, target, data)
    try:
        for path, data in outputs:
            target, tmp = path, None  # as given: abspath would collapse ".." across a symlink
            if path == "-":
                in_place.append((path, target, data))
                continue
            if os.path.islink(target):  # realpath alone would lstat every component of every path
                target = os.path.realpath(target)
            try:
                mode = os.stat(target).st_mode
            except FileNotFoundError:
                mode = None
            if mode is not None and not stat.S_ISREG(mode):
                in_place.append((path, target, data))
                continue
            while tmp is None:  # made 0o666, so the kernel applies the umask
                name = os.path.join(os.path.dirname(target), f".convfec-{os.urandom(8).hex()}")
                try:
                    fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC, 0o666)
                except FileExistsError:
                    continue
                tmp = name
            staged.append((path, tmp, target))
            with os.fdopen(fd, "wb") as fp:
                if mode is not None:
                    os.fchmod(fd, stat.S_IMODE(mode))
                fp.write(data)
        for path, target, data in in_place:
            if path == "-":
                _write_stdout(data)
            else:
                with open(target, "wb") as fp:
                    fp.write(data)
        for path, tmp, target in staged:
            os.replace(tmp, target)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}") from exc
    finally:  # a temp file that was renamed no longer exists
        for _, tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)


def _write_stdout(data: bytes) -> None:
    """Write and flush, so that a reader that went away is reported here, as
    one line, and not as a traceback or at exit."""
    if sys.stdout is None:
        raise CliError("cannot write stdout: it is closed")
    try:
        sys.stdout.buffer.write(data)
        sys.stdout.flush()
    except BrokenPipeError:
        # what is still buffered would fail again in the flush at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise CliError("cannot write stdout: broken pipe") from None


def _spec_summary(spec: CodeSpec) -> str:
    return (
        f"constraint_length={spec.constraint_length} "
        f"generators_octal={spec.generators_octal} "
        f"frame_stages={spec.frame_stages} "
        f"payload_bits={spec.payload_length} "
        f"tail_bits={spec.tail_length} "
        f"states={spec.num_states}"
    )


def _cmd_encode(args: argparse.Namespace, spec: CodeSpec) -> None:
    trellis = build_trellis(spec)
    payloads = _read_frames(args.input, spec.payload_length, "payload")
    _write((args.output, _format_frames(encode_frames(payloads, trellis))))


def _cmd_decode(args: argparse.Namespace, spec: CodeSpec) -> None:
    trellis = build_trellis(spec)
    frames = _read_frames(args.input, 2 * spec.frame_stages, "coded")
    scheme = TRACEBACK if args.scheme == "traceback" else REGISTER_EXCHANGE
    decoded, _ = decode_frames(frames, trellis, scheme)
    outputs = [(args.output, _format_frames(decoded[:, : spec.payload_length]))]
    if args.activity is not None:
        report = ActivityReport(spec, scheme, len(frames))
        outputs.append((args.activity, _activity_csv([report]).encode()))
    _write(*outputs)


def _cmd_oracle_decode(args: argparse.Namespace, spec: CodeSpec) -> None:
    if spec.payload_length > MAX_PAYLOAD_BITS:
        raise CliError(
            f"oracle-decode enumerates 2^{spec.payload_length} payloads; "
            f"the guard is {MAX_PAYLOAD_BITS} payload bits (use 'decode')"
        )
    frames = _read_frames(args.input, 2 * spec.frame_stages, "coded")
    payloads = np.array([r.best_payload for r in ml_decode_frames(frames, spec)], np.uint8)
    _write((args.output, _format_frames(payloads.reshape(-1, spec.payload_length))))


def _cmd_inject_errors(args: argparse.Namespace, spec: CodeSpec) -> None:
    positions = {_parse_count(p, "--positions") for p in args.positions.split(",") if p.strip()}
    frames = _read_frames(args.input, 2 * spec.frame_stages, "coded")
    _write((args.output, _format_frames(inject_errors(frames, positions))))


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
    if not points:
        raise CliError(f"--ebno range names no point, got {text!r}")
    return tuple(points)


def _parse_count(text: str, flag: str) -> int:
    try:  # an integer literal is read exactly, other notation (1e5) through float
        value = int(text) if text.strip().lstrip("+-").isdecimal() else float(text)
        count = int(value)  # ValueError: nan; OverflowError: inf, or 1e400 read as inf
    except (ValueError, OverflowError):
        raise CliError(f"{flag} must be a finite number, got {text!r}") from None
    if count != value:
        raise CliError(f"{flag} must be a whole number, got {text!r}")
    if count < 0:
        raise CliError(f"{flag} must be nonnegative, got {count}")
    return count


def _cmd_ber_sweep(args: argparse.Namespace, spec: CodeSpec) -> None:
    ebno = _parse_ebno(args.ebno)
    low = _parse_count(args.min_bits, "--min-bits")
    high = _parse_count(args.max_bits, "--max-bits")
    if high == 0:  # the runner decodes at least one whole frame per cell
        raise CliError("--max-bits must be positive, got 0")
    if low > high:
        raise CliError(f"--min-bits {low} exceeds --max-bits {high}")
    cfg = SweepConfig(ebno_points=ebno, min_info_bits=low, max_info_bits=high,
                      stop_at_errors=_parse_count(args.stop_errors, "--stop-errors"),
                      seed=_parse_count(args.seed, "--seed"), spec=spec)
    _write((args.out, format_ber_csv(ber_sweep(cfg)).encode()))


def _cmd_power_compare(args: argparse.Namespace, spec: CodeSpec) -> None:
    ebno = _parse_ebno(args.ebno)
    if len(ebno) != 1:
        raise CliError(f"--ebno must name one Eb/N0 point, got {args.ebno!r}")
    result = power_compare(ebno[0], _parse_count(args.frames, "--frames"),
                           _parse_count(args.seed, "--seed"), spec)
    _write((args.out, format_power_csv(result).encode()))


# each command's help line, argument adder and handler, in help order
_COMMANDS = {
    "encode": ("encode payload frames", _io_arguments, _cmd_encode),
    "decode": ("Viterbi-decode coded frames to payloads", _decode_arguments, _cmd_decode),
    "oracle-decode": ("exhaustive ML decode (small codes only)", _io_arguments,
                      _cmd_oracle_decode),
    "inject-errors": ("flip fixed bit positions per frame", _inject_errors_arguments,
                      _cmd_inject_errors),
    "ber-sweep": ("Monte-Carlo BER sweep over Eb/N0", _ber_sweep_arguments, _cmd_ber_sweep),
    "power-compare": ("survivor-activity comparison of both schemes",
                      _power_compare_arguments, _cmd_power_compare),
}


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        spec = _resolve_spec(args)
        if args.spec_dump:
            _write_stdout(f"{_spec_summary(spec)}\n".encode())
        elif args.command is None:
            parser.error("a command is required")
        else:
            _COMMANDS[args.command][2](args, spec)
    except SystemExit as exc:  # --help, --version and usage errors
        return int(exc.code or 0)
    except (CliError, ValueError) as exc:
        print(f"convfec: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())
