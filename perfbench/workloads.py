"""The three workloads: their inputs, their CLI runs and their output checks.

Each workload makes its inputs from the seed alone, names the ``convfec``
command lines one repetition runs, and checks the files those write.  The
checks use only the standard library and closed forms, never the package,
so a bug in ``convfec`` cannot also hide in its own check.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

# The benchmark runs the CLI's default code: K=7, octal 171/133, 40 stages.
STATES = 64
STAGES = 40
PAYLOAD_BITS = 34
CODED_BITS = 2 * STAGES
GENERATORS = (0o171, 0o133)
#: Add-compare-select operations per decoded frame: one per state and stage.
ACS_PER_FRAME = STATES * STAGES


@dataclass
class Outcome:
    """What one repetition's outputs say, as the benchmark counts it."""

    attempted: int
    failed: int
    info_bits: int
    #: frames the decoder entry points must have seen, for the trace self-check
    decoder_frames: int
    problems: list[str]


def _read_rows(path: Path, header: str) -> list[dict] | None:
    try:
        text = path.read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError):
        return None
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return None
    return list(csv.DictReader(lines))


class Sweep:
    """``ber-sweep --ebno 0:2:6``: the Monte-Carlo user's path.

    With the default 200-error stop and a 2 * 10^5-bit budget, the 6 dB
    coded point stops on the budget (about 6 errors) and every other point
    on the error target, so both stop reasons run.
    """

    name = "sweep"
    points = (0.0, 2.0, 4.0, 6.0)
    min_bits = 10**5  # the CLI default
    max_bits = 2 * 10**5
    stop_errors = 200  # the CLI default
    header = "scheme,ebno_db,info_bits,bit_errors,frame_errors,ber,seed"
    #: uncoded errors may stray this many standard deviations from the mean
    z = 5.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def argvs(self, out: Path) -> list[list[str]]:
        return [["ber-sweep", "--ebno", "0:2:6", "--max-bits", str(self.max_bits),
                 "--seed", str(self.seed), "-o", str(out / "ber.csv")]]

    def outputs(self, out: Path) -> list[Path]:
        return [out / "ber.csv"]

    def check(self, out: Path, ok_exit: bool) -> Outcome:
        slots = [(s, p) for p in self.points for s in ("uncoded-bpsk", "coded-viterbi")]
        rows = _read_rows(out / "ber.csv", self.header) if ok_exit else None
        if rows is None or len(rows) != len(slots):
            return Outcome(len(slots), len(slots), 0, 0,
                           ["nonzero exit, or ber.csv missing or malformed"])
        problems, bad_rows, info_bits, coded_frames, ber = [], set(), 0, 0, {}
        for i, ((scheme, ebno), row) in enumerate(zip(slots, rows)):
            try:
                n, k = int(row["info_bits"]), int(row["bit_errors"])
                frame_errors, rate = int(row["frame_errors"]), float(row["ber"])
                same_slot = row["scheme"] == scheme and float(row["ebno_db"]) == ebno
                seed_ok = int(row["seed"]) == self.seed
            except (TypeError, ValueError):
                problems.append(f"{scheme}@{ebno}: unparsable row")
                bad_rows.add(i)
                continue
            info_bits += n
            ber[scheme, ebno] = rate
            if scheme == "coded-viterbi":
                coded_frames += n // PAYLOAD_BITS
            bad = []
            if not (same_slot and seed_ok):
                bad.append("wrong scheme, point or seed")
            if n % PAYLOAD_BITS or n < self.min_bits:
                bad.append(f"info_bits {n}")
            if k < self.stop_errors and n < self.max_bits:
                bad.append("stopped before the error target or the budget")
            if not 0 <= frame_errors <= min(k, n // PAYLOAD_BITS) or rate != k / n:
                bad.append("inconsistent error counts")
            if scheme == "uncoded-bpsk":
                # Q(sqrt(2 Eb/N0)) = erfc(sqrt(Eb/N0)) / 2
                p = 0.5 * math.erfc(math.sqrt(10.0 ** (ebno / 10.0)))
                if abs(k - n * p) > self.z * math.sqrt(n * p * (1 - p)) + 1:
                    bad.append(f"uncoded BER {rate:.3g} far from theory {p:.3g}")
            if bad:
                problems.append(f"{scheme}@{ebno}: " + "; ".join(bad))
                bad_rows.add(i)
        top = self.points[-1]
        coded, uncoded = ber.get(("coded-viterbi", top)), ber.get(("uncoded-bpsk", top))
        if coded is not None and uncoded is not None and coded > uncoded / 10:
            problems.append(f"coded-viterbi@{top}: BER {coded:.3g} is not 10x below {uncoded:.3g}")
            bad_rows.add(slots.index(("coded-viterbi", top)))
        return Outcome(len(slots), len(bad_rows), info_bits, coded_frames, problems)


class Power:
    """``power-compare --ebno 4``: the only run of register exchange.

    Every frame is decoded by both scalar decoders; the CSV totals have
    closed forms in the frame count whatever the noise.
    """

    name = "power"
    frames = 400
    header = ("scheme,frames,survivor_bit_writes,metric_writes,traceback_reads,"
              "survivor_write_ratio")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def argvs(self, out: Path) -> list[list[str]]:
        return [["power-compare", "--ebno", "4", "--frames", str(self.frames),
                 "--seed", str(self.seed), "-o", str(out / "power.csv")]]

    def outputs(self, out: Path) -> list[Path]:
        return [out / "power.csv"]

    def check(self, out: Path, ok_exit: bool) -> Outcome:
        f, s, l = self.frames, STATES, STAGES
        expected = [
            ("trace-back", f, s * l * f, s * l * f, l * f),
            ("register-exchange", f, s * l * (l + 1) // 2 * f, s * l * f, 0),
        ]
        rows = _read_rows(out / "power.csv", self.header) if ok_exit else None
        if rows is None or len(rows) != len(expected):
            return Outcome(2, 2, 0, 0, ["nonzero exit, or power.csv missing or malformed"])
        problems = []
        for want, row in zip(expected, rows):
            try:
                got = (row["scheme"], int(row["frames"]), int(row["survivor_bit_writes"]),
                       int(row["metric_writes"]), int(row["traceback_reads"]))
                ratio = float(row["survivor_write_ratio"])
            except (TypeError, ValueError):
                got, ratio = None, None
            if got != want or ratio != (l + 1) / 2:
                problems.append(f"{want[0]}: got {got} ratio {ratio}, "
                                f"want {want} ratio {(l + 1) / 2}")
        return Outcome(2, len(problems), f * PAYLOAD_BITS, 2 * f, problems)


# A generator's most significant bit taps the newest input: reversed, bit j
# taps the input j steps ago.
_TAPS = tuple(int(format(g, "07b")[::-1], 2) for g in GENERATORS)


def _reference_encode(payload: str) -> str:
    """Direct convolution of the zero-tailed payload with each generator."""
    reg, out = 0, []
    for ch in payload + "0" * (STAGES - PAYLOAD_BITS):
        reg = ((reg << 1) | (ch == "1")) & 0x7F  # bit j holds the input j steps ago
        for taps in _TAPS:
            out.append("01"[bin(reg & taps).count("1") & 1])
    return "".join(out)


class CliPipeline:
    """``encode``, ``inject-errors`` with 4 fixed positions, ``decode``.

    The file-processing user: three line shapes (34 to 80, 80 to 80 and
    80 to 34 bits) through CLI parse, format and atomic write.  Four
    errors are below d_free / 2 = 5, so every frame must decode exactly.
    """

    name = "cli-pipeline"
    frames = 1000

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.payloads = [format(rng.getrandbits(PAYLOAD_BITS), f"0{PAYLOAD_BITS}b")
                         for _ in range(self.frames)]
        self.positions = sorted(rng.sample(range(CODED_BITS), 4))
        self.payload_file = workdir / "payloads.txt"
        self.payload_file.write_text("".join(p + "\n" for p in self.payloads), encoding="ascii")

    def argvs(self, out: Path) -> list[list[str]]:
        coded, noisy = str(out / "coded.txt"), str(out / "noisy.txt")
        return [
            ["encode", "-i", str(self.payload_file), "-o", coded],
            ["inject-errors", "--positions", ",".join(map(str, self.positions)),
             "-i", coded, "-o", noisy],
            ["decode", "-i", noisy, "-o", str(out / "decoded.txt")],
        ]

    def outputs(self, out: Path) -> list[Path]:
        return [out / "coded.txt", out / "noisy.txt", out / "decoded.txt"]

    def check(self, out: Path, ok_exit: bool) -> Outcome:
        n = self.frames
        files = []
        for path in self.outputs(out):
            try:
                files.append(path.read_bytes().decode("ascii").split("\n"))
            except (OSError, UnicodeDecodeError):
                files.append([])
        if not ok_exit or any(len(lines) != n + 1 or lines[-1] != "" for lines in files):
            return Outcome(n, n, n * PAYLOAD_BITS, n,
                           ["nonzero exit, or output files missing or of wrong length"])
        coded, noisy, decoded = files
        failed = 0
        for i, payload in enumerate(self.payloads):
            want = _reference_encode(payload)
            flipped = list(want)
            for pos in self.positions:
                flipped[pos] = "10"[int(flipped[pos])]
            if coded[i] != want or noisy[i] != "".join(flipped) or decoded[i] != payload:
                failed += 1
        problems = [f"{failed} of {n} frames wrong"] if failed else []
        return Outcome(n, failed, n * PAYLOAD_BITS, n, problems)


WORKLOADS = {w.name: w for w in (Sweep, CliPipeline, Power)}
