from __future__ import annotations

import ast
import importlib.metadata
import shlex
import io
import os
import random
import re
import resource
import stat
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convfec.cli import CliError, _parse_ebno, _parse_lines, run
from convfec import __version__, cli, oracle
from convfec.decoder import REGISTER_EXCHANGE, TRACEBACK
from convfec.trellis import CodeSpec

from reference import reference_parse_lines, reference_parser

SRC = Path(__file__).resolve().parents[1] / "src"


def _bits(line: str) -> list[int]:
    return [int(c) for c in line]


def _write(path, frames):
    path.write_text("".join("".join(str(b) for b in f) + "\n" for f in frames))


def _read(path):
    return [_bits(line) for line in path.read_text().splitlines() if line]


@pytest.fixture()
def payload_file(tmp_path):
    rng = random.Random(55)
    frames = [[rng.randrange(2) for _ in range(34)] for _ in range(8)]
    path = tmp_path / "payloads.txt"
    _write(path, frames)
    return path, frames


def test_encode_decode_round_trip(tmp_path, payload_file):
    payloads, frames = payload_file
    coded = tmp_path / "coded.txt"
    decoded = tmp_path / "decoded.txt"
    assert run(["encode", "-i", str(payloads), "-o", str(coded)]) == 0
    assert all(len(line) == 80 for line in coded.read_text().splitlines())
    assert run(["decode", "-i", str(coded), "-o", str(decoded)]) == 0
    assert _read(decoded) == frames


def test_decode_schemes_agree(tmp_path, payload_file):
    payloads, _ = payload_file
    coded = tmp_path / "coded.txt"
    run(["encode", "-i", str(payloads), "-o", str(coded)])
    out_tb = tmp_path / "tb.txt"
    out_re = tmp_path / "re.txt"
    assert run(["decode", "--scheme", "traceback", "-i", str(coded), "-o", str(out_tb)]) == 0
    assert run(["decode", "--scheme", "regex", "-i", str(coded), "-o", str(out_re)]) == 0
    assert out_tb.read_text() == out_re.read_text()


def test_decode_activity_csv(tmp_path, payload_file):
    payloads, frames = payload_file
    coded = tmp_path / "coded.txt"
    run(["encode", "-i", str(payloads), "-o", str(coded)])
    activity = tmp_path / "activity.csv"
    assert run([
        "decode", "-i", str(coded), "-o", str(tmp_path / "dec.txt"),
        "--activity", str(activity),
    ]) == 0
    lines = activity.read_text().splitlines()
    assert lines[0] == "scheme,frames,survivor_bit_writes,metric_writes,traceback_reads"
    n = len(frames)
    assert lines[1] == f"trace-back,{n},{2560 * n},{2560 * n},{40 * n}"


_PAYLOAD, _CODED = b"0" * 34 + b"\n", b"0" * 80 + b"\n"
_CHARS = "(frames are lines of '0'/'1')"
_SPEC = "bad code parameters (-K/--generators/-L):"
_POSITION = "error position 99 out of range for a 80-bit frame"
_NO_DIR = "cannot write missing/out.txt: No such file or directory"
_SWEEP = ["ber-sweep", "--min-bits", "0", "--max-bits", "1000", "-o", "out.csv"]
_DECODE = ["decode", "-i", "coded.txt", "-o"]
_RANGE = "is out of range: 10^(dB/10) must be a finite positive number"
_VARIANCE = "is out of range: the noise variance at code rate 0.5 is not finite"


# every count option, from the option rows: (command or None for a global option, flag)
_COUNT_OPTIONS = [(command, row[0][0]) for command, rows in
                  [(None, cli._GLOBAL_OPTIONS), *((c, e[1]) for c, e in cli._COMMANDS.items())]
                  for row in rows if row[2] in ("K", "L", "N", "SEED", "N,N,...")]
# the rest of a run that would write out.txt; global options go before decode
_COUNT_RUNS = {None: ["decode", "-i", "in.txt"], "inject-errors": ["-i", "in.txt"],
               "ber-sweep": ["--ebno", "4"], "power-compare": []}
_COUNT_TEXTS = {"-1": "must be nonnegative, got -1", "1.5": "must be a whole number, got '1.5'"}
# each count option with each bad value; a bad --positions item follows a good one
_COUNT_CASES = [pytest.param(
    {"in.txt": _CODED}, [*([command] if command else []), flag,
                         f"3,{value}" if flag == "--positions" else value,
                         *_COUNT_RUNS[command], "-o", "out.txt"],
    f"{flag} {_COUNT_TEXTS.get(value, f'must be a finite number, got {value!r}')}",
    id=f"{command or 'global'}-{flag.lstrip('-')}-{value}")
    for command, flag in _COUNT_OPTIONS for value in ("x", "-1", "1.5", "nan", "inf", "1e400")]


@pytest.mark.parametrize("files, argv, message", [
    pytest.param({"bad.txt": _PAYLOAD + b"01x0\n"}, ["encode", "-i", "bad.txt", "-o", "out.txt"],
                 f"line 2: invalid character 'x' {_CHARS}", id="bad-char"),
    pytest.param({"bad.txt": _PAYLOAD * 2 + b"01 1\n"}, ["encode", "-i", "bad.txt"],
                 f"line 3: invalid character ' ' {_CHARS}", id="short-line-bad-char"),
    pytest.param({"bad.txt": b"0000\xc3\xa9" + b"0" * 28 + b"\n"},
                 ["encode", "-i", "bad.txt", "-o", "out.txt"],
                 f"line 1: invalid character '\\udcc3' {_CHARS}", id="non-ascii-byte"),
    pytest.param({"bad.txt": b"0101\n"}, ["encode", "-i", "bad.txt"],
                 "line 1: payload frame must be 34 bits, got 4", id="wrong-length-line"),
    pytest.param({}, ["encode", "-i", "nope", "-o", "out.txt"],
                 "cannot read nope: No such file or directory", id="missing-input"),
    pytest.param({"coded.txt": _CODED * 8}, ["inject-errors", "--positions", "99", "-i",
                                             "coded.txt"], _POSITION, id="position-out-of-range"),
    pytest.param({"empty.txt": b""}, ["inject-errors", "--positions", "99", "-i", "empty.txt",
                                      "-o", "out.txt"], _POSITION, id="position-on-empty-input"),
    pytest.param({"coded.txt": _CODED}, ["oracle-decode", "-i", "coded.txt"],
                 "oracle-decode enumerates 2^34 payloads; the guard is 24 payload bits "
                 "(use 'decode')", id="oracle-guard"),
    pytest.param({}, ["--generators", "171", "--spec-dump"],
                 f"{_SPEC} expected two comma-separated octal generators, got '171'",
                 id="one-generator"),
    # K = 40 would need 2^40-entry tables: the spec is refused before any is built
    pytest.param({}, ["-K", "40", "--generators", "1,3", "-L", "40", "encode", "-i", os.devnull],
                 f"{_SPEC} constraint length must be at most 16, got 40",
                 id="constraint-length-cap"),
    pytest.param({}, ["-K", "3", "--generators", "6,5", "-L", "5", "--spec-dump"],
                 f"{_SPEC} catastrophic generator pair 6,5: g1(D) and g2(D) share a factor "
                 "other than a power of D", id="catastrophic"),
    pytest.param({}, ["ber-sweep", "--ebno", "4:0:8"],
                 "--ebno range step must be positive", id="ebno-step-zero"),
    pytest.param({}, ["ber-sweep", "--ebno", "1:2", "-o", "ber.csv"],
                 "--ebno range must be start:step:stop, got '1:2'", id="ebno-range-two-parts"),
    pytest.param({}, ["ber-sweep", "--ebno", "0:1:2000", "-o", "ber.csv"],
                 "--ebno range names more than 1000 points, got '0:1:2000'",
                 id="ebno-range-too-long"),
    pytest.param({}, ["ber-sweep", "--ebno", "1e20:1:1e21", "-o", "ber.csv"],
                 "--ebno range step 1.0 does not advance from 1e+20", id="ebno-step-lost"),
    pytest.param({}, ["ber-sweep", "--ebno", "abc", "-o", "ber.csv"],
                 "--ebno must be numeric, got 'abc'", id="ebno-not-numeric"),
    pytest.param({}, ["ber-sweep", "--ebno", "5:1:4", "--min-bits", "0", "-o", "ber.csv"],
                 "--ebno range names no point, got '5:1:4'", id="empty-ebno-range"),
    pytest.param({}, ["ber-sweep", "--ebno", "6", "--max-bits", "5e4", "-o", "ber.csv"],
                 "--min-bits 100000 exceeds --max-bits 50000", id="min-bits-over-max-bits"),
    # the runner decodes at least one whole frame per cell, which a 0-bit budget cannot pay for
    pytest.param({}, ["ber-sweep", "--ebno", "6", "--min-bits", "0", "--max-bits", "0", "-o",
                      "ber.csv"], "--max-bits must be positive, got 0", id="zero-bit-budget"),
    # 10^(dB/10) overflows above about 3080 dB and is 0.0 below about -3240 dB;
    # at -3200 dB it is subnormal and the rate-1/2 noise variance is infinite
    pytest.param({}, [*_SWEEP, "--ebno=4000"], f"Eb/N0 of 4000.0 dB {_RANGE}",
                 id="sweep-ebno-4000"),
    pytest.param({}, [*_SWEEP, "--ebno=-4000"], f"Eb/N0 of -4000.0 dB {_RANGE}",
                 id="sweep-ebno-minus-4000"),
    pytest.param({}, [*_SWEEP, "--ebno=2,-4000"], f"Eb/N0 of -4000.0 dB {_RANGE}",
                 id="sweep-list-minus-4000"),
    pytest.param({}, [*_SWEEP, "--ebno", "0,-3200"], f"Eb/N0 of -3200.0 dB {_VARIANCE}",
                 id="sweep-list-minus-3200"),
    pytest.param({}, ["power-compare", "--ebno=4000", "-o", "out.csv"],
                 f"Eb/N0 of 4000.0 dB {_RANGE}", id="power-ebno-4000"),
    pytest.param({}, ["power-compare", "--ebno=-4000", "-o", "out.csv"],
                 f"Eb/N0 of -4000.0 dB {_RANGE}", id="power-ebno-minus-4000"),
    pytest.param({}, ["power-compare", "--ebno=-3200", "--frames", "10", "-o", "out.csv"],
                 f"Eb/N0 of -3200.0 dB {_VARIANCE}", id="power-ebno-minus-3200"),
    pytest.param({}, ["power-compare", "--ebno", "x", "-o", "out.csv"],
                 "--ebno must be numeric, got 'x'", id="power-ebno-not-numeric"),
    pytest.param({}, ["power-compare", "--ebno", "nan", "-o", "out.csv"],
                 "--ebno must be finite, got 'nan'", id="power-ebno-nan"),
    pytest.param({}, ["power-compare", "--ebno", "1,2", "-o", "out.csv"],
                 "--ebno must name one Eb/N0 point, got '1,2'", id="power-ebno-two-points"),
    pytest.param({}, ["power-compare", "--ebno", "5:1:4", "-o", "out.csv"],
                 "--ebno range names no point, got '5:1:4'", id="power-empty-ebno-range"),
    pytest.param({"payloads.txt": _PAYLOAD},
                 ["encode", "-i", "payloads.txt", "-o", "missing/out.txt"], _NO_DIR,
                 id="encode-missing-dir"),
    pytest.param({}, ["power-compare", "--frames", "1", "-o", "missing/out.txt"], _NO_DIR,
                 id="power-missing-dir"),
    # decode stages both outputs before renaming either, so neither failing write leaves one
    pytest.param({"coded.txt": _CODED}, ["decode", "-i", "coded.txt", "-o", "out.txt",
                                         "--activity", "missing/a.csv"],
                 "cannot write missing/a.csv: No such file or directory",
                 id="decode-activity-missing-dir"),
    pytest.param({"coded.txt": _CODED}, ["decode", "-i", "coded.txt", "-o", "missing/out.txt",
                                         "--activity", "a.csv"], _NO_DIR,
                 id="decode-output-missing-dir"),
    pytest.param({"coded.txt": _CODED}, ["decode", "-i", "coded.txt", "--activity",
                                         "missing/a.csv"],
                 "cannot write missing/a.csv: No such file or directory",
                 id="decode-stdout-activity-missing-dir"),
    # both would be staged to one file, and the second rename would drop the first output
    pytest.param({"coded.txt": _CODED}, [*_DECODE, "out.txt", "--activity", "out.txt"],
                 "outputs out.txt and out.txt name the same file", id="same-new-file"),
    pytest.param({"coded.txt": _CODED, "out.txt": b"old\n"},
                 [*_DECODE, "out.txt", "--activity", "./out.txt"],
                 "outputs out.txt and ./out.txt name the same file", id="same-file-dot-path"),
    pytest.param({"coded.txt": _CODED, "out.txt": b"old\n", "alias.txt": "out.txt"},
                 [*_DECODE, "alias.txt", "--activity", "out.txt"],
                 "outputs alias.txt and out.txt name the same file", id="same-file-symlink"),
    *_COUNT_CASES,
])
def test_bad_input_is_one_line_and_writes_nothing(tmp_path, monkeypatch, capsys,
                                                  files, argv, message):
    # a str value is a symlink's target, bytes a regular file's content
    for name, data in files.items():
        if isinstance(data, str):
            (tmp_path / name).symlink_to(data)
        else:
            (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"convfec: error: {message}\n")
    assert {p.name: os.readlink(p) if p.is_symlink() else p.read_bytes()
            for p in tmp_path.iterdir()} == files


def test_the_count_table_holds_every_flag_read_as_a_count():
    # a count option whose metavar the table misses would be read, and checked by no case
    calls = [node for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_parse_count"]
    assert {call.args[1].value for call in calls} == {flag for _, flag in _COUNT_OPTIONS}


def test_crlf_input_decodes_byte_identically(tmp_path, payload_file):
    payloads, _ = payload_file
    coded = tmp_path / "coded.txt"
    run(["encode", "-i", str(payloads), "-o", str(coded)])
    crlf = tmp_path / "coded_crlf.txt"
    crlf.write_bytes(coded.read_bytes().replace(b"\n", b"\r\n"))
    plain_out, crlf_out = tmp_path / "plain.txt", tmp_path / "crlf.txt"
    assert run(["decode", "-i", str(coded), "-o", str(plain_out)]) == 0
    assert run(["decode", "-i", str(crlf), "-o", str(crlf_out)]) == 0
    assert crlf_out.read_bytes() == plain_out.read_bytes()


def test_lone_carriage_return_in_a_file_is_a_line_break(tmp_path):
    # files are read with universal newlines: '\r' alone ends a line, as '\r\n' does
    payloads = tmp_path / "cr.txt"
    payloads.write_bytes(b"0" * 34 + b"\r" + b"1" * 34 + b"\r\n")
    out = tmp_path / "out.txt"
    assert run(["encode", "-i", str(payloads), "-o", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


_LINE_ATOMS = ("0", "1", " ", "x", "\u00e9", "\udcc3", "\r")
_BREAKS = ("\n", "\r\n", "\r\r\n", "\r")


@st.composite
def _frame_texts(draw):
    """A width and a text of lines that are valid, short, long, blank or
    hold invalid characters, with mixed line breaks and maybe no final one."""
    width = draw(st.integers(1, 5))
    line = st.one_of(st.text("01", min_size=width, max_size=width),
                     st.lists(st.sampled_from(_LINE_ATOMS), max_size=width + 2).map("".join))
    pairs = draw(st.lists(st.tuples(line, st.sampled_from(_BREAKS)), max_size=6))
    text = "".join(body + end for body, end in pairs)
    if draw(st.booleans()):
        text += draw(line)  # an unterminated last line
    return width, text


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(_frame_texts())
def test_parse_lines_equals_the_per_line_reference(case):
    # the reference reads the bytes as a text file: ASCII, universal newlines
    width, text = case
    data = text.encode("utf-8", "surrogateescape")
    reader = io.TextIOWrapper(io.BytesIO(data), encoding="ascii", errors="surrogateescape")

    def outcome(parse, source):
        try:
            return parse(source, width, "coded")
        except CliError as exc:
            return str(exc)

    got, want = outcome(_parse_lines, data), outcome(reference_parse_lines, reader)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert np.array_equal(got, want)


_LONG_TEXT = b"01" * 40 + b"\n" + b"10" * 40 + b"\n"  # two 80-bit lines


@pytest.mark.parametrize("last, message", [
    (b"0" * 79 + b"\xff\n", "line 1000: invalid character '\\udcff' (frames are lines of '0'/'1')"),
    (b"0" * 79 + b"\n", "line 1000: coded frame must be 80 bits, got 79"),
], ids=["bad-byte", "short"])
def test_the_last_line_of_a_1000_line_file_is_named(last, message):
    with pytest.raises(CliError) as exc:
        _parse_lines(_LONG_TEXT * 499 + b"0" * 80 + b"\n" + last, 80, "coded")
    assert str(exc.value) == message


@pytest.mark.parametrize("irregular", [
    lambda text: b"\n" + text,
    lambda text: text[:-1],
    lambda text: text.replace(b"\n", b"\r") + b"\r",
], ids=["leading-blank-line", "no-final-newline", "cr-ends-and-a-lone-cr"])
def test_irregular_valid_files_parse_to_the_regular_array(irregular):
    text = _LONG_TEXT * 500
    assert np.array_equal(_parse_lines(irregular(text), 80, "coded"),
                          _parse_lines(text, 80, "coded"))


def test_inject_errors_involution(tmp_path, payload_file):
    payloads, _ = payload_file
    coded = tmp_path / "coded.txt"
    once = tmp_path / "once.txt"
    twice = tmp_path / "twice.txt"
    run(["encode", "-i", str(payloads), "-o", str(coded)])
    args = ["inject-errors", "--positions", "3,17,30,41,55,60,76"]
    assert run(args + ["-i", str(coded), "-o", str(once)]) == 0
    assert run(args + ["-i", str(once), "-o", str(twice)]) == 0
    assert twice.read_text() == coded.read_text()
    flipped = sum(
        a != b
        for la, lb in zip(coded.read_text().splitlines(), once.read_text().splitlines())
        for a, b in zip(la, lb)
    )
    assert flipped == 7 * 8


def test_seven_error_pattern_end_to_end(tmp_path):
    payload = tmp_path / "p.txt"
    payload.write_text("0" * 34 + "\n")
    coded = tmp_path / "c.txt"
    noisy = tmp_path / "n.txt"
    decoded = tmp_path / "d.txt"
    run(["encode", "-i", str(payload), "-o", str(coded)])
    run(["inject-errors", "--positions", "3,17,30,41,55,60,76",
         "-i", str(coded), "-o", str(noisy)])
    assert run(["decode", "-i", str(noisy), "-o", str(decoded)]) == 0
    assert decoded.read_text() == "0" * 34 + "\n"


def test_oracle_decode_small_code(tmp_path):
    coded = tmp_path / "c.txt"
    coded.write_text("1110001011\n")
    out = tmp_path / "o.txt"
    assert run(["-K", "3", "--generators", "7,5", "-L", "5",
                "oracle-decode", "-i", str(coded), "-o", str(out)]) == 0
    assert out.read_text() == "101\n"


def test_oracle_decode_of_an_empty_input_writes_an_empty_output(tmp_path):
    empty, out = tmp_path / "empty.txt", tmp_path / "o.txt"
    empty.write_bytes(b"")
    assert run(["-K", "3", "--generators", "7,5", "-L", "5",
                "oracle-decode", "-i", str(empty), "-o", str(out)]) == 0
    assert out.read_bytes() == b""


def test_oracle_decode_enumerates_each_block_once(tmp_path, monkeypatch):
    # p = 19 payload bits: 8 blocks of 2^16 codewords, each built once for all 3 lines
    spec = CodeSpec.from_octal("7,5", constraint_length=3, frame_stages=21)
    words = np.random.default_rng(44).integers(0, 2, size=(3, 42), dtype=np.uint8)
    coded, out = tmp_path / "c.txt", tmp_path / "o.txt"
    _write(coded, words.tolist())
    built, codebook = [], oracle._codebook

    def counted(spec, start):
        built.append(start)
        return codebook(spec, start)

    monkeypatch.setattr(oracle, "_codebook", counted)
    assert run(["-K", "3", "--generators", "7,5", "-L", "21",
                "oracle-decode", "-i", str(coded), "-o", str(out)]) == 0
    assert len(built) == 8
    assert _read(out) == [list(r.best_payload) for r in oracle.ml_decode_frames(words, spec)]


def test_spec_dump(capsys):
    assert run(["--spec-dump"]) == 0
    out = capsys.readouterr().out
    assert "constraint_length=7" in out
    assert "generators_octal=171,133" in out
    assert "frame_stages=40" in out
    assert "payload_bits=34" in out


def test_spec_dump_custom(capsys):
    assert run(["-K", "3", "--generators", "7,5", "-L", "5", "--spec-dump"]) == 0
    assert "states=4" in capsys.readouterr().out


def test_version(capsys):
    assert run(["--version"]) == 0
    assert "convfec" in capsys.readouterr().out


def test_missing_command(capsys):
    assert run([]) == 2
    assert "command is required" in capsys.readouterr().err


def test_unknown_flag_exits_2(capsys):
    assert run(["--frobnicate"]) == 2


def test_ber_sweep_csv(tmp_path):
    out = tmp_path / "ber.csv"
    args = [
        "ber-sweep", "--ebno", "2:2:4", "--min-bits", "2000", "--max-bits", "4000",
        "--stop-errors", "1000000", "--seed", "5", "-o", str(out),
    ]
    assert run(args) == 0
    first = out.read_text()
    lines = first.splitlines()
    assert lines[0] == "scheme,ebno_db,info_bits,bit_errors,frame_errors,ber,seed"
    assert len(lines) == 5  # two points, two schemes each
    assert lines[1].startswith("uncoded-bpsk,2.0,")
    assert lines[2].startswith("coded-viterbi,2.0,")
    assert lines[3].startswith("uncoded-bpsk,4.0,")
    # byte-identical on rerun
    assert run(args) == 0
    assert out.read_text() == first


def test_ber_sweep_ebno_list(tmp_path):
    out = tmp_path / "ber.csv"
    assert run([
        "ber-sweep", "--ebno", "1.5,3", "--min-bits", "1000", "--max-bits", "1000",
        "--stop-errors", "0", "-o", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[1].startswith("uncoded-bpsk,1.5,")
    assert lines[3].startswith("uncoded-bpsk,3.0,")


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("ebno", ["1:1e-17:2", "0:1e-300:1"])
def test_ber_sweep_endless_ebno_range(ebno):
    # 1 + 1e-17 == 1, and 0:1e-300:1 names 1e300 points; both must fail at
    # once.  The subprocess's timeout and 1 GiB memory cap bound what an
    # endless range loop could cost the suite.
    result = subprocess.run(
        [sys.executable, "-m", "convfec", "ber-sweep", "--ebno", ebno],
        capture_output=True, text=True, timeout=30, preexec_fn=_limit_address_space,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert "--ebno range" in result.stderr


@pytest.mark.parametrize("text", ["0:1:inf", "0:nan:2", "-inf:1:2", "1,inf", "nan"])
def test_parse_ebno_rejects_non_finite(text):
    # called directly: a range that never ends must fail before its loop
    with pytest.raises(CliError, match="finite"):
        _parse_ebno(text)


def test_an_ebno_range_keeps_a_stop_that_the_float_steps_overshoot():
    # 0.1 + 0.1 + 0.1 > 0.3: the range's 1e-9 slack keeps the last point
    assert _parse_ebno("0:0.1:0.3") == (0.0, 0.1, 0.2, 0.3)


def test_output_files_get_the_umask_mode_or_keep_their_own(tmp_path, payload_file):
    payloads, _ = payload_file
    new, kept = tmp_path / "new.txt", tmp_path / "kept.txt"
    kept.write_bytes(b"")
    kept.chmod(0o604)
    old_umask = os.umask(0o027)
    try:
        assert run(["encode", "-i", str(payloads), "-o", str(new)]) == 0
        assert run(["encode", "-i", str(payloads), "-o", str(kept)]) == 0
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o640
    assert stat.S_IMODE(kept.stat().st_mode) == 0o604
    assert kept.read_bytes() == new.read_bytes() != b""


def test_writing_a_new_output_never_sets_the_umask(tmp_path, payload_file, monkeypatch):
    # setting it, even briefly, would change the mode of files other threads create meanwhile
    payloads, _ = payload_file
    calls, umask = [], os.umask
    monkeypatch.setattr(os, "umask", lambda mask: calls.append(mask) or umask(mask))
    assert run(["encode", "-i", str(payloads), "-o", str(tmp_path / "new.txt")]) == 0
    assert (tmp_path / "new.txt").read_bytes() != b""
    assert calls == []


def test_a_fifo_output_is_written_in_place(tmp_path, payload_file):
    payloads, _ = payload_file
    fifo, regular = tmp_path / "fifo", tmp_path / "regular.txt"
    os.mkfifo(fifo)
    # opened first and non-blocking, so that run's open for writing does not wait
    # and a FIFO replaced by a regular file reads as empty instead of hanging
    read_end = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run(["encode", "-i", str(payloads), "-o", str(fifo)]) == 0
        received = os.read(read_end, 1 << 16)
    finally:
        os.close(read_end)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert run(["encode", "-i", str(payloads), "-o", str(regular)]) == 0
    assert received == regular.read_bytes() != b""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "payloads.txt", "regular.txt"]


def test_a_symlinked_output_writes_its_target(tmp_path):
    payloads, link, real = tmp_path / "p.txt", tmp_path / "link.txt", tmp_path / "real.txt"
    payloads.write_text("1" * 34 + "\n")
    real.write_bytes(b"old\n")
    real.chmod(0o604)
    link.symlink_to(real.name)
    assert run(["encode", "-i", str(payloads), "-o", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == "real.txt"
    data = real.read_bytes()
    assert len(data) == 81 and data.endswith(b"\n") and set(data[:80]) <= set(b"01")
    assert stat.S_IMODE(real.stat().st_mode) == 0o604
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "p.txt", "real.txt"]


def test_an_output_path_through_a_symlinked_directory_is_resolved_as_the_os_does(tmp_path):
    # "dirlink/.." is the parent of dirlink's target, not tmp_path: ".." is not collapsed as text
    payloads, sub = tmp_path / "p.txt", tmp_path / "elsewhere" / "sub"
    payloads.write_text("1" * 34 + "\n")
    sub.mkdir(parents=True)
    (tmp_path / "dirlink").symlink_to(sub)
    out = os.path.join(tmp_path, "dirlink", "..", "out.txt")
    assert run(["encode", "-i", str(payloads), "-o", out]) == 0
    assert not (tmp_path / "out.txt").exists()
    data = (tmp_path / "elsewhere" / "out.txt").read_bytes()
    assert len(data) == 81 and set(data[:80]) <= set(b"01")
    with open(out, "rb") as fp:
        assert fp.read() == data
    assert sorted(p.name for p in (tmp_path / "elsewhere").iterdir()) == ["out.txt", "sub"]


def test_count_flags_are_read_exactly(tmp_path, monkeypatch):
    # 2^53 + 1 has no float64; an integer literal must not pass through float
    assert cli._parse_count("9007199254740993", "--seed") == 9007199254740993
    monkeypatch.chdir(tmp_path)
    assert run(["ber-sweep", "--ebno", "2", "--min-bits", "0", "--max-bits", "34",
                "--stop-errors", "1e3", "--seed", "9007199254740993", "-o", "ber.csv"]) == 0
    rows = (tmp_path / "ber.csv").read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["9007199254740993"] * 2
    assert run(["power-compare", "--frames", "1e1", "--seed", "9007199254740993",
                "-o", "power.csv"]) == 0
    rows = (tmp_path / "power.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["10", "10"]


def test_code_flags_and_positions_take_the_count_grammar(tmp_path, capsys):
    assert run(["-K", "3.0", "--generators", "7,5", "-L", "5", "--spec-dump"]) == 0
    assert capsys.readouterr().out.startswith("constraint_length=3 generators_octal=7,5 "
                                              "frame_stages=5 ")
    coded = tmp_path / "coded.txt"
    coded.write_bytes(_CODED)
    assert run(["inject-errors", "--positions", "1e1", "-i", str(coded)]) == 0
    assert capsys.readouterr().out == "0" * 10 + "1" + "0" * 69 + "\n"


@pytest.mark.parametrize("path", ["-", os.devnull])
def test_both_decode_outputs_may_go_to_stdout_or_a_device(tmp_path, capsys, path):
    coded = tmp_path / "coded.txt"
    coded.write_bytes(_CODED)
    assert run(["decode", "-i", str(coded), "-o", path, "--activity", path]) == 0
    assert capsys.readouterr().out == ("" if path == os.devnull else (
        "0" * 34 + "\nscheme,frames,survivor_bit_writes,metric_writes,traceback_reads\n"
        "trace-back,1,2560,2560,40\n"))


def test_power_compare_csv(tmp_path):
    out = tmp_path / "power.csv"
    assert run(["power-compare", "--frames", "2", "--ebno", "4", "--seed", "7",
                "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "trace-back,2,5120,5120,80,20.5"
    assert lines[2] == "register-exchange,2,104960,5120,0,20.5"


_SMALL_CODE = ["-K", "3", "--generators", "7,5"]
_BAD_BYTE = b"convfec: error: line 1: invalid character '\\udcff' (frames are lines of '0'/'1')\n"


@pytest.mark.parametrize("encoding", ["utf-8:strict", "latin-1"])
@pytest.mark.parametrize("data, argv, want", [
    (b"0\xff11110000\n", [*_SMALL_CODE, "-L", "5", "inject-errors", "--positions", "0"],
     (1, b"", _BAD_BYTE)),
    (b"10110\r01101\n", [*_SMALL_CODE, "-L", "7", "encode"],
     (0, b"11100001011100\n00110101001011\n", b"")),
    (b"10110\r\r\n011\n", [*_SMALL_CODE, "-L", "7", "encode"],
     (1, b"", b"convfec: error: line 3: payload frame must be 5 bits, got 3\n")),
], ids=["non-ascii", "lone-cr", "cr-crlf"])
def test_stdin_and_a_file_give_the_same_result(tmp_path, encoding, data, argv, want):
    # the same bytes, whatever the locale: one line-end rule, one line-numbered diagnostic
    path = tmp_path / "frames.txt"
    path.write_bytes(data)
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONIOENCODING": encoding}
    for extra, stdin in (([], data), (["-i", str(path)], b"")):
        result = subprocess.run([sys.executable, "-m", "convfec", *argv, *extra],
                                input=stdin, capture_output=True, env=env, timeout=60)
        assert (result.returncode, result.stdout, result.stderr) == want


def test_stdin_stdout_pipes(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"0" * 34 + b"\n")))
    assert run(["encode"]) == 0
    assert capsys.readouterr().out == "0" * 80 + "\n"


@pytest.mark.parametrize("stream, argv, message", [
    ("stdin", ["inject-errors", "--positions", "0"], "cannot read stdin: it is closed"),
    ("stdout", ["encode", "-i", "{payloads}"], "cannot write stdout: it is closed"),
    ("stdout", ["--help"], "cannot write stdout: it is closed"),
], ids=["stdin", "stdout", "stdout-help"])
def test_closed_stdio_is_one_line(capsys, monkeypatch, payload_file, stream, argv, message):
    # a process started with the stream closed ('<&-', '>&-') has it set to None;
    # capsys comes first so that monkeypatch restores its stream before capsys ends
    payloads, _ = payload_file
    monkeypatch.setattr(f"sys.{stream}", None)
    assert run([part.format(payloads=payloads) for part in argv]) == 1
    assert capsys.readouterr().err == f"convfec: error: {message}\n"


def test_a_usage_error_with_stderr_closed_still_exits_2():
    # '2>&-': writing the usage text fails, as argparse's writer did, and stdout stays empty
    result = subprocess.run([sys.executable, "-m", "convfec", "--frobnicate"],
                            stdout=subprocess.PIPE, preexec_fn=lambda: os.close(2),
                            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert (result.returncode, result.stdout) == (2, b"")


# '2>&-': stderr is None, or a stream whose writes fail with EBADF as on a closed descriptor
@pytest.mark.parametrize("stderr", [None, SimpleNamespace(write=lambda text: os.write(-1, b""))],
                         ids=["none", "write-fails"])
def test_a_diagnostic_with_stderr_closed_still_exits_1(capsys, monkeypatch, stderr):
    monkeypatch.setattr("sys.stderr", stderr)
    assert run(["-K", "x", "--spec-dump"]) == 1
    assert capsys.readouterr().out == ""


def test_decode_empty_input_still_reports_scheme(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    activity = tmp_path / "act.csv"
    out = tmp_path / "out.txt"
    assert run(["decode", "--scheme", "regex", "-i", str(empty), "-o", str(out),
                "--activity", str(activity)]) == 0
    assert out.read_text() == ""
    assert activity.read_text().splitlines()[1] == "register-exchange,0,0,0,0"


def test_shared_parser_forgets_decode_options(tmp_path, payload_file, monkeypatch):
    payloads, _ = payload_file
    coded = tmp_path / "coded.txt"
    assert run(["encode", "-i", str(payloads), "-o", str(coded)]) == 0
    schemes = []
    decode_frames = cli.decode_frames

    def spy(frames, trellis, scheme):
        schemes.append(scheme)
        return decode_frames(frames, trellis, scheme)

    monkeypatch.setattr(cli, "decode_frames", spy)
    activity = tmp_path / "activity.csv"
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    assert run(["decode", "--scheme", "regex", "--activity", str(activity),
                "-i", str(coded), "-o", str(first)]) == 0
    activity.unlink()
    assert run(["decode", "-i", str(coded), "-o", str(second)]) == 0
    assert schemes == [REGISTER_EXCHANGE, TRACEBACK]
    assert not activity.exists()
    assert second.read_bytes() == first.read_bytes()


def test_shared_parser_still_requires_positions(tmp_path, payload_file, capsys):
    payloads, _ = payload_file
    coded = tmp_path / "coded.txt"
    assert run(["encode", "-i", str(payloads), "-o", str(coded)]) == 0
    assert run(["inject-errors", "--positions", "3", "-i", str(coded),
                "-o", str(tmp_path / "noisy.txt")]) == 0
    capsys.readouterr()
    assert run(["inject-errors", "-i", str(coded), "-o", str(tmp_path / "again.txt")]) == 2
    assert "the following arguments are required: --positions" in capsys.readouterr().err
    assert not (tmp_path / "again.txt").exists()


def test_usage_error_then_a_valid_command(capsys):
    assert run(["--frobnicate"]) == 2
    capsys.readouterr()
    assert run(["--spec-dump"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("constraint_length=7 ")
    assert captured.err == ""


def test_version_then_spec_dump(capsys):
    assert run(["--version"]) == 0
    assert capsys.readouterr().out == f"convfec {__version__}\n"
    assert run(["--spec-dump"]) == 0
    assert capsys.readouterr().out == (
        "constraint_length=7 generators_octal=171,133 frame_stages=40 "
        "payload_bits=34 tail_bits=6 states=64\n")


# every command line reads the same under cli._read_argv and the reference argparse tree:
# the same namespace, or exit 0 from the same parser's help or version, or exit 2
_ARGV_CORPUS = [
    # global options: long, short, '=', attached and abbreviated forms; repeats; negatives
    "", "--spec-dump", "--spec", "--s", "-K 3 --spec-dump", "-K3 --spec-dump", "-K=3 --spec-dump",
    "--constraint-length 3 --spec-dump", "--constraint-length=3 --s", "--con 3 --s", "--c=3 --s",
    "-L 5 --s", "-L5 --s", "-L=5 --s", "--frame-stages 5 --s", "--frame=5 --s", "--f 5 --s",
    "--generators 7,5 --s", "--generators=7,5 --s", "--gen 7,5 --s", "--g=7,5 --s",
    "-K 3 -K 5 --spec-dump", "-K -3 --spec-dump", "-K -3.5 --s", "-K -.5 --s", "-K=-3 --s",
    "--spec-dump --spec-dump", "-K 3 --generators 7,5 -L 5 encode", "--help", "-h", "--he",
    "--version", "--vers", "--v", "--help encode", "--frob --help", "--version --help",
    "--help --version", "-K 3 --help",
    # each command's options
    "encode", "encode -i a -o b", "encode -ia -ob", "encode -i=a -o=b", "encode --in a --out b",
    "encode --in=a --out=b", "encode --i a --o b", "encode --i=a --ou=b", "encode -i - -o -",
    "encode -i a -i b", "encode -i -5", "encode -o -.5", "encode --help", "encode -h",
    "encode --h", "encode --frob --help", "encode -i a --help", "decode --scheme regex",
    "decode --scheme=traceback", "decode --sch regex", "decode --s regex", "decode --activity a",
    "decode --act=a", "decode --a a", "decode -i a --activity -",
    "decode --scheme regex --scheme traceback", "decode --activity a --activity b",
    "oracle-decode -i a -o b", "oracle-decode --in=a", "oracle-decode --help",
    "inject-errors --positions 1,2", "inject-errors --positions=1,2", "inject-errors --pos 3",
    "inject-errors --p 3", "inject-errors --positions -1", "inject-errors --positions 1 -i a",
    "inject-errors --positions 1 --positions 2", "inject-errors --help", "ber-sweep --ebno 4",
    "ber-sweep --ebno=-2:2:4", "ber-sweep --ebno -2", "ber-sweep --ebno -2.5",
    "ber-sweep --ebno -.5", "ber-sweep --eb 4", "ber-sweep --e 4 --min-bits 0",
    "ber-sweep --e 4 --min=0", "ber-sweep --e 4 --mi 0", "ber-sweep --e 4 --max-bits 1e3",
    "ber-sweep --e 4 --ma 5", "ber-sweep --e 4 --stop-errors 5", "ber-sweep --e 4 --st 5",
    "ber-sweep --e 4 --stop=5", "ber-sweep --e 4 --seed 3", "ber-sweep --e 4 --se 3",
    "ber-sweep --e 4 -o x", "ber-sweep --e 4 -ox", "ber-sweep --e 4 --out=x",
    "ber-sweep --e 4 --o x", "ber-sweep --ebno 1 --ebno 2", "ber-sweep --e 4 --seed -3",
    "ber-sweep --help", "power-compare", "power-compare --frames 10", "power-compare --fr 10",
    "power-compare --f 10", "power-compare --ebno 3", "power-compare --e 3",
    "power-compare --ebno -3", "power-compare --ebno=-3", "power-compare --seed 1 --seed 2",
    "power-compare -o x", "power-compare --out x", "power-compare --frames -1",
    "power-compare --help",
    # shape errors: unknown flag, command or extra argument
    "--frobnicate", "-x", "frob", "encode extra", "encode --frob", "encode -x", "encode -i a b",
    "--spec-dump encode --frob", "--frob encode", "encode --frob=1", "decode --scheme regex x",
    # a global option after the command
    "encode -K 3", "encode --spec-dump", "decode --generators 7,5", "encode --version",
    "ber-sweep --ebno 1 -L 5",
    # an option with no value, or a switch given one
    "-K", "--generators", "-K --spec-dump", "encode -i", "encode -o", "encode -i -x",
    "encode -o --in a", "decode --activity", "decode --scheme", "inject-errors --positions",
    "ber-sweep --ebno", "ber-sweep --ebno 1 --seed", "power-compare --frames", "-K 3 -K",
    "--spec-dump=1", "--spec=1", "encode --help=1",
    # a missing required option
    "inject-errors", "inject-errors -i a", "ber-sweep", "ber-sweep -o x", "ber-sweep --min-bits 0",
    # a bad --scheme
    "decode --scheme x", "decode --scheme=x", "decode --s x", "decode --scheme Regex",
    "decode --scheme x --help",
    # an ambiguous prefix
    "ber-sweep --m 5", "ber-sweep --ebno 1 --m 5", "ber-sweep --ebno 1 --s 5",
    "ber-sweep --ebno 1 --s=5",
    # odd tokens: '--', '-' and '' in each place, values attached after '=' or a dash
    "--", "encode --", "--spec-dump --", "-K 3 -- encode", "encode -i --", "-", "encode -", "''",
    "'' encode", "-K ''", "encode -i ''", "encode -i=", "--generators= --s", "---x", "encode ---i",
    "encode -i-", "-K-3 --s", "-Kx=3 --s", "-K==3 --s",
]

# argparse reads only -N and -N.N as numbers, so these fail there; the reader takes
# any token that starts with '-' and a digit or '.' as a value, as the '=' form does
_ARGPARSE_REFUSES = [
    ("ber-sweep --ebno -2:2:4", "ber-sweep --ebno=-2:2:4"),
    ("ber-sweep --ebno -2,0", "ber-sweep --ebno=-2,0"),
    ("inject-errors --positions -1,2", "inject-errors --positions=-1,2"),
    ("-K -1e3 --spec-dump", "-K=-1e3 --spec-dump"),
    ("power-compare --ebno -.5e1", "power-compare --ebno=-.5e1"),
]


def _outcome(read, argv, capsys):
    """The namespace read from ``argv``; or the exit status, the first words of stdout (the
    usage line of the help in scope, or the version) and the parser that named an error."""
    try:
        return vars(read(argv))
    except SystemExit as exc:
        out, err = capsys.readouterr()
        return exc.code, out.split()[:3], err.rpartition(": error: ")[0].rpartition("\n")[2]


@pytest.mark.parametrize("line", _ARGV_CORPUS)
def test_the_reader_reads_a_command_line_as_argparse_did(capsys, line):
    argv = shlex.split(line)
    want = _outcome(reference_parser(__version__).parse_args, argv, capsys)
    assert _outcome(cli._read_argv, argv, capsys) == want


@pytest.mark.parametrize("line, same", _ARGPARSE_REFUSES)
def test_a_dash_and_a_digit_start_a_value(capsys, line, same):
    reference = reference_parser(__version__).parse_args
    assert _outcome(reference, shlex.split(line), capsys)[0] == 2
    assert _outcome(cli._read_argv, shlex.split(line), capsys) == vars(
        reference(shlex.split(same)))


def test_a_negative_ebno_range_may_follow_its_flag(tmp_path):
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    sweep = ["ber-sweep", "--min-bits", "0", "--max-bits", "68"]
    assert run([*sweep, "--ebno", "-2:2:0", "-o", str(spaced)]) == 0
    assert run([*sweep, "--ebno=-2:2:0", "-o", str(joined)]) == 0
    assert len(spaced.read_text().splitlines()) == 5
    assert spaced.read_bytes() == joined.read_bytes()


def test_no_run_imports_argparse_gettext_or_locale():
    # what argparse cost a run: its import, gettext's, and locale's on its first message
    null, small = os.devnull, ["-K", "3", "--generators", "7,5", "-L", "5"]
    argvs = [["--spec-dump"], ["--version"], ["--help"], ["decode", "--help"], ["--frobnicate"],
             ["inject-errors"], ["encode", "-i", null, "-o", null],
             ["decode", "-i", null, "-o", null, "--activity", null],
             [*small, "oracle-decode", "-i", null, "-o", null],
             ["inject-errors", "--positions", "1", "-i", null, "-o", null],
             ["ber-sweep", "--ebno", "4", "--min-bits", "0", "--max-bits", "34", "-o", null],
             ["power-compare", "--frames", "1", "-o", null]]
    code = (
        "import sys\n"
        "import convfec.cli\n"
        "names = {'argparse', 'gettext', 'locale'}\n"
        "seen = [sorted(names & set(sys.modules))]\n"
        f"for argv in {argvs!r}:\n"
        "    seen.append((argv[0], convfec.cli.run(argv), sorted(names & set(sys.modules))))\n"
        "print(seen)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(SRC)}, check=True, timeout=60)
    codes = [0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 0, 0]
    assert result.stdout.splitlines()[-1] == repr(
        [[], *((argv[0], code, []) for argv, code in zip(argvs, codes))])


_COMMAND_HELP = {
    "encode": "encode payload frames",
    "decode": "Viterbi-decode coded frames to payloads",
    "oracle-decode": "exhaustive ML decode (small codes only)",
    "inject-errors": "flip fixed bit positions per frame",
    "ber-sweep": "Monte-Carlo BER sweep over Eb/N0",
    "power-compare": "survivor-activity comparison of both schemes",
}
_IO_OPTIONS = ["-i", "--in", "-o", "--out"]
_COMMAND_OPTIONS = {
    "encode": _IO_OPTIONS,
    "decode": [*_IO_OPTIONS, "--scheme", "--activity"],
    "oracle-decode": _IO_OPTIONS,
    "inject-errors": [*_IO_OPTIONS, "--positions"],
    "ber-sweep": ["--ebno", "--min-bits", "--max-bits", "--stop-errors", "--seed",
                  "-o", "--out"],
    "power-compare": ["--frames", "--ebno", "--seed", "-o", "--out"],
}


def test_top_level_help_lists_every_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    listed = re.findall(r"^    (\S+) +(.+)$", out, re.MULTILINE)
    assert listed == list(_COMMAND_HELP.items())


@pytest.mark.parametrize("columns", ["1", "2"])
def test_top_level_help_wraps_on_a_terminal_of_one_or_two_columns(capsys, monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)  # the description wraps at 11, argparse's floor
    assert run(["--help"]) == 0 and capsys.readouterr().out.startswith("usage: convfec")


@pytest.mark.parametrize("command", list(_COMMAND_OPTIONS))
def test_command_help_names_every_option(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert run([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: convfec {command} ")
    for option in ["-h", "--help", *_COMMAND_OPTIONS[command]]:
        assert re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", out), option


@pytest.mark.parametrize("argv, unbuffered", [
    (argv, unbuffered) for unbuffered in (False, True) for argv in (
        ["--spec-dump"],
        ["encode", "-i", "{payloads}", "-o", "-"],
        ["ber-sweep", "--ebno", "4", "--min-bits", "0", "--max-bits", "100"],
        ["--help"],
        ["--version"],
        ["decode", "--help"],
    )
], ids=lambda value: ("buffered", "unbuffered")[value] if isinstance(value, bool) else value[0])
def test_a_reader_that_went_away_is_one_line(tmp_path, argv, unbuffered):
    # a closed read end: each write to stdout fails with EPIPE, in the command's
    # own write or, for output still buffered, in the flush at exit
    payloads = tmp_path / "payloads.txt"
    payloads.write_bytes((b"0" * 34 + b"\n") * 2000)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "convfec", *[a.format(payloads=payloads) for a in argv]],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (
        1, b"convfec: error: cannot write stdout: broken pipe\n")


def test_every_console_script_resolves_to_a_callable():
    # the installed `convfec` command runs what [project.scripts] names
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(SRC.parent / "pyproject.toml", "rb") as fp:
        scripts = tomllib.load(fp)["project"]["scripts"]
    assert scripts == {"convfec": "convfec.cli:main"}
    for name, target in scripts.items():
        entry = importlib.metadata.EntryPoint(name=name, value=target, group="console_scripts")
        assert callable(entry.load()), name
