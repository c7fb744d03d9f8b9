from __future__ import annotations

import io
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convfec.cli import CliError, _parse_ebno, _parse_lines, run
from convfec import oracle
from convfec.trellis import CodeSpec

from reference import reference_parse_lines

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


def test_malformed_line_diagnostic(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0" * 34 + "\n01x0\n")
    code = run(["encode", "-i", str(bad), "-o", str(tmp_path / "out.txt")])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 2" in err
    assert "invalid character" in err
    assert not (tmp_path / "out.txt").exists()  # no partial output


def test_short_line_with_bad_character_reports_the_character(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0" * 34 + "\n" + "0" * 34 + "\n01 1\n")
    assert run(["encode", "-i", str(bad), "-o", "-"]) == 1
    err = capsys.readouterr().err
    assert "line 3: invalid character ' '" in err
    assert "34 bits" not in err


def test_non_ascii_file_is_a_line_numbered_diagnostic(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0000\xc3\xa9" + b"0" * 28 + b"\n")
    out = tmp_path / "out.txt"
    assert run(["encode", "-i", str(bad), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "line 1: invalid character" in err
    assert not out.exists()


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


def test_wrong_length_line_diagnostic(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0101\n")
    assert run(["encode", "-i", str(bad), "-o", "-"]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err
    assert "34 bits" in err


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


def test_inject_errors_range_diagnostic(tmp_path, payload_file, capsys):
    payloads, _ = payload_file
    coded = tmp_path / "coded.txt"
    run(["encode", "-i", str(payloads), "-o", str(coded)])
    assert run(["inject-errors", "--positions", "99", "-i", str(coded), "-o", "-"]) == 1
    assert "out of range" in capsys.readouterr().err


def test_inject_errors_range_checked_on_empty_input(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    out = tmp_path / "out.txt"
    assert run(["inject-errors", "--positions", "99", "-i", str(empty), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "out of range" in err
    assert not out.exists()


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


def test_oracle_decode_refuses_large_space(tmp_path, capsys):
    coded = tmp_path / "c.txt"
    coded.write_text("0" * 80 + "\n")
    assert run(["oracle-decode", "-i", str(coded), "-o", "-"]) == 1
    err = capsys.readouterr().err
    assert "guard" in err
    assert "decode" in err


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


def test_bad_spec_flags_diagnostic(capsys):
    assert run(["--generators", "171", "--spec-dump"]) == 1
    assert "--generators" in capsys.readouterr().err


def test_constraint_length_cap_diagnostic(capsys):
    # K = 40 would need 2^40-entry tables: the spec is refused before any is built
    assert run(["-K", "40", "--generators", "1,3", "-L", "40", "encode", "-i", os.devnull]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "at most 16" in captured.err


def test_catastrophic_generators_diagnostic(capsys):
    assert run(["-K", "3", "--generators", "6,5", "-L", "5", "--spec-dump"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "catastrophic" in captured.err


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


def test_ber_sweep_bad_ebno(capsys):
    assert run(["ber-sweep", "--ebno", "4:0:8"]) == 1
    assert "step" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--max-bits", "5e4"], "--min-bits 100000 exceeds --max-bits 50000"),
    (["--stop-errors", "-1"], "--stop-errors must be nonnegative, got -1"),
])
def test_ber_sweep_budget_diagnostics_name_the_flags(tmp_path, capsys, flags, message):
    out = tmp_path / "ber.csv"
    assert run(["ber-sweep", "--ebno", "6", *flags, "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"convfec: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["ber-sweep", "--ebno=4000", "--min-bits", "0", "--max-bits", "1000"],
    ["ber-sweep", "--ebno=-4000", "--min-bits", "0", "--max-bits", "1000"],
    ["ber-sweep", "--ebno=2,-4000", "--min-bits", "0", "--max-bits", "1000"],
    ["power-compare", "--ebno=4000"],
    ["power-compare", "--ebno=-4000"],
    ["power-compare", "--ebno=-3200", "--frames", "10"],
    ["ber-sweep", "--ebno", "0,-3200", "--min-bits", "0", "--max-bits", "1000"],
])
def test_extreme_ebno_is_one_line(tmp_path, capsys, argv):
    # 10^(dB/10) overflows above about 3080 dB and is 0.0 below about -3240 dB;
    # at -3200 dB it is subnormal and the rate-1/2 noise variance is infinite
    out = tmp_path / "out.csv"
    assert run([*argv, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("convfec: error: Eb/N0 of ")
    assert "4000.0 dB" in err or "-3200.0 dB" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["ber-sweep", "--ebno", "4", "--min-bits", "0", "--max-bits", "100", "--seed", "-1"],
    ["power-compare", "--frames", "2", "--seed", "-1"],
])
def test_negative_seed_is_one_line(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert run([*argv, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "seed" in err and "-1" in err
    assert not out.exists()


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


@pytest.mark.parametrize("flag,value", [("--max-bits", "inf"), ("--min-bits", "1e400"),
                                        ("--max-bits", "nan")])
def test_ber_sweep_non_finite_bit_count(tmp_path, capsys, flag, value):
    out = tmp_path / "ber.csv"
    assert run(["ber-sweep", "--ebno", "1", flag, value, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert flag in err and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("text", ["0:1:inf", "0:nan:2", "-inf:1:2", "1,inf", "nan"])
def test_parse_ebno_rejects_non_finite(text):
    # called directly: a range that never ends must fail before its loop
    with pytest.raises(CliError, match="finite"):
        _parse_ebno(text)


@pytest.mark.parametrize("command", [["encode", "-i", "{payloads}"],
                                     ["power-compare", "--frames", "1"]])
def test_missing_output_directory_is_one_line(tmp_path, payload_file, capsys, command):
    payloads, _ = payload_file
    target = tmp_path / "missing" / "out.txt"
    argv = [part.format(payloads=payloads) for part in command] + ["-o", str(target)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == f"convfec: error: cannot write {target}: No such file or directory\n"
    assert not (tmp_path / "missing").exists()


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
                                input=stdin, capture_output=True, env=env)
        assert (result.returncode, result.stdout, result.stderr) == want


def test_stdin_stdout_pipes(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"0" * 34 + b"\n")))
    assert run(["encode"]) == 0
    assert capsys.readouterr().out == "0" * 80 + "\n"


@pytest.mark.parametrize("stream, argv, message", [
    ("stdin", ["inject-errors", "--positions", "0"], "cannot read stdin: it is closed"),
    ("stdout", ["encode", "-i", "{payloads}"], "cannot write stdout: it is closed"),
], ids=["stdin", "stdout"])
def test_closed_stdio_is_one_line(capsys, monkeypatch, payload_file, stream, argv, message):
    # a process started with the stream closed ('<&-', '>&-') has it set to None;
    # capsys comes first so that monkeypatch restores its stream before capsys ends
    payloads, _ = payload_file
    monkeypatch.setattr(f"sys.{stream}", None)
    assert run([part.format(payloads=payloads) for part in argv]) == 1
    assert capsys.readouterr().err == f"convfec: error: {message}\n"


def test_decode_empty_input_still_reports_scheme(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    activity = tmp_path / "act.csv"
    out = tmp_path / "out.txt"
    assert run(["decode", "--scheme", "regex", "-i", str(empty), "-o", str(out),
                "--activity", str(activity)]) == 0
    assert out.read_text() == ""
    assert activity.read_text().splitlines()[1] == "register-exchange,0,0,0,0"
