"""Command-line front end.

Subcommands: encode, decode, oracle-decode, inject-errors, ber-sweep,
power-compare.  Bit frames travel as ASCII lines of '0'/'1', one frame per
line, which keeps fixtures diffable.  Code parameters are global flags and
must precede the subcommand, e.g.::

    convfec -K 3 --generators 7,5 -L 5 encode -i payloads.txt -o coded.txt
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import stat
import sys
import textwrap
from types import SimpleNamespace
from typing import NoReturn, Sequence

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


def _resolve_spec(args: SimpleNamespace) -> CodeSpec:
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


def _cmd_encode(args: SimpleNamespace, spec: CodeSpec) -> None:
    trellis = build_trellis(spec)
    payloads = _read_frames(args.input, spec.payload_length, "payload")
    _write((args.output, _format_frames(encode_frames(payloads, trellis))))


def _cmd_decode(args: SimpleNamespace, spec: CodeSpec) -> None:
    trellis = build_trellis(spec)
    frames = _read_frames(args.input, 2 * spec.frame_stages, "coded")
    scheme = TRACEBACK if args.scheme == "traceback" else REGISTER_EXCHANGE
    decoded, _ = decode_frames(frames, trellis, scheme)
    outputs = [(args.output, _format_frames(decoded[:, : spec.payload_length]))]
    if args.activity is not None:
        report = ActivityReport(spec, scheme, len(frames))
        outputs.append((args.activity, _activity_csv([report]).encode()))
    _write(*outputs)


def _cmd_oracle_decode(args: SimpleNamespace, spec: CodeSpec) -> None:
    if spec.payload_length > MAX_PAYLOAD_BITS:
        raise CliError(
            f"oracle-decode enumerates 2^{spec.payload_length} payloads; "
            f"the guard is {MAX_PAYLOAD_BITS} payload bits (use 'decode')"
        )
    frames = _read_frames(args.input, 2 * spec.frame_stages, "coded")
    payloads = np.array([r.best_payload for r in ml_decode_frames(frames, spec)], np.uint8)
    _write((args.output, _format_frames(payloads.reshape(-1, spec.payload_length))))


def _cmd_inject_errors(args: SimpleNamespace, spec: CodeSpec) -> None:
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


def _cmd_ber_sweep(args: SimpleNamespace, spec: CodeSpec) -> None:
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


def _cmd_power_compare(args: SimpleNamespace, spec: CodeSpec) -> None:
    ebno = _parse_ebno(args.ebno)
    if len(ebno) != 1:
        raise CliError(f"--ebno must name one Eb/N0 point, got {args.ebno!r}")
    result = power_compare(ebno[0], _parse_count(args.frames, "--frames"),
                           _parse_count(args.seed, "--seed"), spec)
    _write((args.out, format_power_csv(result).encode()))


# One row per option: (flags, dest, metavar or None for a switch, default, help[, choices]).
# The reader, the usage line and the help text are all built from these rows.
_REQUIRED = ...  # the default of an option that must be given
_HELP = (("-h", "--help"), "help", None, None, "show this help message and exit")
_VERSION = (("--version",), "version", None, None, "show program's version number and exit")
_GLOBAL_OPTIONS = (
    (("-K", "--constraint-length"), "constraint_length", "K", "7",
     "constraint length (default 7)"),
    (("-L", "--frame-stages"), "frame_stages", "L", "40",
     "encoder inputs per frame including the zero tail (default 40)"),
    (("--generators",), "generators", "OCT,OCT", "171,133",
     "octal generator pair (default 171,133)"),
    (("--spec-dump",), "spec_dump", None, False, "print the resolved code spec and exit"),
)
_IO_OPTIONS = (
    (("-i", "--in"), "input", "PATH", "-", "input frames, one per line ('-' for stdin)"),
    (("-o", "--out"), "output", "PATH", "-", "output path ('-' for stdout)"),
)
_CSV_OUT = (("-o", "--out"), "out", "PATH", "-", "CSV output path ('-' for stdout)")
_DESCRIPTION = ("Rate-1/2 convolutional coding toolkit. Default code: K=7, generators 171/133 "
                "octal, 40-stage frames (34 payload bits plus a 6-bit zero tail).")

# each command's help line, options and handler, in help order
_COMMANDS = {
    "encode": ("encode payload frames", _IO_OPTIONS, _cmd_encode),
    "decode": ("Viterbi-decode coded frames to payloads", (
        *_IO_OPTIONS,
        (("--scheme",), "scheme", "{traceback,regex}", "traceback",
         "survivor storage: trace-back or register exchange (regex)", ("traceback", "regex")),
        (("--activity",), "activity", "PATH", None,
         "also write aggregated switching-activity CSV to PATH"),
    ), _cmd_decode),
    "oracle-decode": ("exhaustive ML decode (small codes only)", _IO_OPTIONS, _cmd_oracle_decode),
    "inject-errors": ("flip fixed bit positions per frame", (
        *_IO_OPTIONS,
        (("--positions",), "positions", "N,N,...", _REQUIRED,
         "comma-separated bit indices to flip in every frame"),
    ), _cmd_inject_errors),
    "ber-sweep": ("Monte-Carlo BER sweep over Eb/N0", (
        (("--ebno",), "ebno", "SPEC", _REQUIRED,
         "Eb/N0 dB points: 'start:step:stop' or a comma list"),
        (("--min-bits",), "min_bits", "N", "1e5",
         "minimum information bits per point (default 1e5)"),
        (("--max-bits",), "max_bits", "N", "1e7", "information-bit budget per point (default 1e7)"),
        (("--stop-errors",), "stop_errors", "N", "200",
         "stop a point after this many bit errors (default 200)"),
        (("--seed",), "seed", "SEED", "0", "sweep seed (default 0)"),
        _CSV_OUT,
    ), _cmd_ber_sweep),
    "power-compare": ("survivor-activity comparison of both schemes", (
        (("--frames",), "frames", "N", "1000", "frames to decode under each scheme (default 1000)"),
        (("--ebno",), "ebno", "DB", "4", "channel Eb/N0 in dB (default 4)"),
        (("--seed",), "seed", "SEED", "0", "run seed (default 0)"),
        _CSV_OUT,
    ), _cmd_power_compare),
}


def _is_value(token: str) -> bool:  # a word, '-' alone, or '-' and a digit or '.'
    return token[:1] != "-" or token[1:2] in "0123456789."  # "" is in every string


def _rows(command: str | None) -> tuple:
    """The rows in scope: the global options before the command, its own after it."""
    if command is None:
        return _HELP, _VERSION, *_GLOBAL_OPTIONS
    return _HELP, *_COMMANDS[command][1]


def _read_argv(argv: Sequence[str]) -> SimpleNamespace:
    """Read ``argv`` by the option tables and argparse's rules (README, "CLI").  Help or
    version text exits 0 where it is reached; a shape error prints the usage and exits 2."""
    command, rows, extras = None, _rows(None), []
    values = {row[1]: row[3] for row in _GLOBAL_OPTIONS} | {"command": None}
    for token in (tokens := iter(argv)):
        if _is_value(token):
            if command is not None:
                extras.append(token)
            elif token not in _COMMANDS:
                _usage_error(None, f"argument command: invalid choice: {token!r} "
                                   f"(choose from {', '.join(map(repr, _COMMANDS))})")
            else:
                command, rows = token, _rows(token)
                values |= {row[1]: row[3] for row in rows[1:]} | {"command": token}
            continue
        if token.startswith("--"):  # --long, --long=VALUE, or a unique prefix of --long
            flag, equals, value = token.partition("=")
            found = ([row for row in rows if flag in row[0]]
                     or [row for row in rows if flag != "--" and row[0][-1].startswith(flag)])
            value = value if equals else None
        else:  # -S, -SVALUE or -S=VALUE
            flag, value = token[:2], token[2:].removeprefix("=") if token[2:] else None
            found = [row for row in rows if flag in row[0]]
        if len(found) > 1:
            matches = ", ".join(row[0][-1] for row in found)
            _usage_error(command, f"ambiguous option: {token} could match {matches}")
        if not found:
            extras.append(token)
            continue
        flags, dest, metavar, *_ = row = found[0]
        name = "/".join(flags)
        if metavar is None and value is not None:
            _usage_error(command, f"argument {name}: ignored explicit argument {value!r}")
        if dest in ("help", "version"):
            text = _help(command) if dest == "help" else f"convfec {__version__}\n"
            _write_stdout(text.encode())
            raise SystemExit(0)
        if metavar is None:
            value = True
        elif value is None:
            value = next(tokens, None)
            if value is None or not _is_value(value):
                _usage_error(command, f"argument {name}: expected one argument")
        if row[5:] and value not in row[5]:
            _usage_error(command, f"argument {name}: invalid choice: {value!r} "
                                  f"(choose from {', '.join(map(repr, row[5]))})")
        values[dest] = value
    if missing := ["/".join(row[0]) for row in rows if values.get(row[1]) is _REQUIRED]:
        _usage_error(command, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _usage_error(None, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def _usage_error(command: str | None, message: str) -> NoReturn:
    prog = "convfec" if command is None else f"convfec {command}"
    with contextlib.suppress(AttributeError, OSError):  # a closed stderr still exits 2
        sys.stderr.write(f"{_usage(command)}{prog}: error: {message}\n")
    raise SystemExit(2)


def _usage(command: str | None) -> str:
    """argparse's usage text: wrapped at the terminal width less 2, with the command on a
    line of its own once it wraps."""
    width = shutil.get_terminal_size().columns - 2
    prog = "convfec" if command is None else f"convfec {command}"
    parts = [row[0][0] if row[2] is None else f"{row[0][0]} {row[2]}" for row in _rows(command)]
    parts = [p if row[3] is _REQUIRED else f"[{p}]" for p, row in zip(parts, _rows(command))]
    last = [] if command else ["command ..."]
    if len(line := " ".join(["usage:", prog, *parts, *last])) > width:
        indent, lines = " " * (len(prog) + 8), [f"usage: {prog}"]
        for part in parts:
            if len(lines[-1]) + 1 + len(part) > width:
                lines.append(indent + part)
            else:
                lines[-1] += f" {part}"
        line = "\n".join(lines + [indent + part for part in last])
    return line + "\n"


def _help(command: str | None) -> str:
    """argparse's help layout: each invocation, and its help from argparse's column on,
    wrapped at the terminal width less 2."""
    width = shutil.get_terminal_size().columns - 2
    text, sections = _usage(command), {"options:": [
        ("  " + ", ".join(f if row[2] is None else f"{f} {row[2]}" for f in row[0]), row[4])
        for row in _rows(command)]}
    if command is None:
        text += f"\n{textwrap.fill(_DESCRIPTION, max(width, 11))}\n"
        sections = {"positional arguments:": [("  command", ""), *(
            (f"    {name}", entry[0]) for name, entry in _COMMANDS.items())], **sections}
    column = min(max(len(head) for items in sections.values() for head, _ in items) + 2,
                 24, max(width - 20, 4))
    for title, items in sections.items():
        text += f"\n{title}\n"
        for head, help_text in items:
            wrapped = textwrap.wrap(help_text, max(width - column, 11))
            lines = [head, *(" " * column + line for line in wrapped)]
            if wrapped and len(head) + 2 <= column:  # the help starts on the same line
                lines[:2] = [head.ljust(column) + wrapped[0]]
            text += "\n".join(lines) + "\n"
    return text


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = _read_argv(sys.argv[1:] if argv is None else argv)
        spec = _resolve_spec(args)
        if args.spec_dump:
            _write_stdout(f"{_spec_summary(spec)}\n".encode())
        elif args.command is None:
            _usage_error(None, "a command is required")
        else:
            _COMMANDS[args.command][2](args, spec)
    except SystemExit as exc:  # --help, --version and usage errors
        return int(exc.code or 0)
    except (CliError, ValueError) as exc:
        with contextlib.suppress(AttributeError, OSError):  # stderr closed or None: exit 1
            sys.stderr.write(f"convfec: error: {exc}\n")
        return 1
    return 0


def main() -> None:
    sys.exit(run())
