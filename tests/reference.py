"""Independent reference implementations for deriving expected test values.

Everything here is deliberately naive and structurally different from the
package code: direct convolution instead of a trellis walk, carry-less
polynomial products instead of graph search, quadrature instead of erfc.
The point is to be obviously correct, not fast.
"""

from __future__ import annotations

import argparse
import math

import numpy as np

from convfec.cli import CliError
from convfec.decoder import decode_frames
from convfec.trellis import CodeSpec, build_trellis


def reference_encode(payload, spec: CodeSpec) -> list[int]:
    """Direct GF(2) convolution of the zero-padded input with each tap vector."""
    seq = list(payload) + [0] * spec.tail_length
    assert len(seq) == spec.frame_stages
    out = []
    for t in range(spec.frame_stages):
        for taps in spec.generators:
            acc = 0
            for j, tap in enumerate(taps):
                if tap and t - j >= 0:
                    acc ^= seq[t - j]
            out.append(acc)
    return out


# Trellis accessors for the one-table tests in test_trellis.py, which check
# them against the conventions and against tap parity.

def next_state(trellis, state: int, bit: int) -> int:
    """The state after ``state`` on input ``bit``."""
    return (2 * state + bit) % trellis.num_states


def branch_symbol(trellis, state: int, bit: int) -> tuple[int, int]:
    """Output symbol on the branch from ``state`` with input ``bit``, read
    from ``trellis.symbol_table``."""
    packed = int(trellis.symbol_table[2 * state + bit])
    return (packed >> 1, packed & 1)


def predecessors(trellis, state: int) -> tuple[int, int]:
    """``(lower, upper)`` predecessor pair of ``state``."""
    return (state >> 1, (state + trellis.num_states) >> 1)


def reference_acs(received, spec: CodeSpec) -> tuple[list[int], list[float]]:
    """Textbook Viterbi recursion from state 0, one state at a time.

    State bit j holds the input j + 1 steps ago, so state s is entered from
    s >> 1 (the lower predecessor) or s >> 1 plus 2^(K-2) (the upper one);
    each branch symbol is the tap parity of the input and that state.
    Unreachable states hold infinity.  On equal sums, including two
    unreachable predecessors, the survivor is the lower predecessor.

    Runs one stage per received bit pair, so a prefix of a frame gives the
    recursion's state after that many stages.  Returns the survivor word of
    every stage (bit s is 1 when state s's survivor came from its upper
    predecessor) and the final metric of every state.
    """
    states = 1 << (spec.constraint_length - 1)
    # (predecessor, branch symbol) of each state's lower and upper branch; the
    # symbol depends only on the state and its predecessor, so it is built once
    branches = []
    for s in range(states):
        pair = []
        for pred in (s >> 1, (s >> 1) + states // 2):
            inputs = [s & 1] + [(pred >> j) & 1 for j in range(spec.constraint_length - 1)]
            pair.append((pred, [sum(tap & x for tap, x in zip(taps, inputs)) % 2
                                for taps in spec.generators]))
        branches.append(pair)
    metric = [0.0] + [math.inf] * (states - 1)
    words = []
    for t in range(len(received) // 2):
        symbol = (received[2 * t], received[2 * t + 1])
        new_metric, word = [], 0
        for s, pair in enumerate(branches):
            sums = [metric[pred] + (out[0] != symbol[0]) + (out[1] != symbol[1])
                    for pred, out in pair]
            if sums[1] < sums[0]:
                word |= 1 << s
            new_metric.append(min(sums))
        metric = new_metric
        words.append(word)
    return words, metric


def ml_enumerate(received, spec: CodeSpec) -> tuple[tuple[int, ...], int, int]:
    """Literal minimum-distance search over every payload.

    Returns (best payload, best distance, number of minimizers); ties go to
    the smallest payload with bit 0 as the most significant position.
    Only usable for tiny payload spaces.
    """
    p = spec.payload_length
    best_payload = None
    best_distance = len(received) + 1
    count = 0
    for idx in range(1 << p):
        payload = tuple((idx >> (p - 1 - j)) & 1 for j in range(p))
        coded = reference_encode(payload, spec)
        dist = sum(a != b for a, b in zip(coded, received))
        if dist < best_distance:
            best_payload, best_distance, count = payload, dist, 1
        elif dist == best_distance:
            count += 1
    return best_payload, best_distance, count


def _codebook(spec: CodeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Every payload ``(2^p, p)``, in ``ml_enumerate``'s order, and its
    ``reference_encode`` codeword ``(2^p, 2L)``."""
    payloads = _all_words(spec.payload_length)
    return payloads, np.array([reference_encode(row, spec) for row in payloads.tolist()])


def _all_words(width: int) -> np.ndarray:
    """Every ``width``-bit 0/1 row, row i holding i's bits from the most significant."""
    return (np.arange(1 << width)[:, None] >> np.arange(width - 1, -1, -1)) & 1


def codeword_distances(received: np.ndarray, spec: CodeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Every payload ``(2^p, p)``, in ``ml_enumerate``'s order, and the Hamming
    distances ``(n, 2^p)`` from each ``(n, 2L)`` received 0/1 row to each
    payload's ``reference_encode`` codeword, as ``|r| + |c| - 2 r.c``."""
    payloads, codewords = _codebook(spec)
    rows = np.asarray(received, dtype=np.int64)
    inner = rows @ codewords.T
    return payloads, rows.sum(axis=1)[:, None] + codewords.sum(axis=1)[None, :] - 2 * inner


def exact_ber(spec: CodeSpec, ebno_db: float) -> tuple[float, float]:
    """Exact mean and variance of ``decode_frames``' payload bit errors per
    frame, over uniform payloads sent at code rate 1/2 through the
    hard-decision AWGN channel, where each coded bit flips independently with
    p = Q(sqrt(Eb/N0)).

    The decoder is the subject: it decodes each of the 2^(2L) received words
    once, and every (payload, error pattern e) pair is looked up at
    ``codeword ^ e``.  The tie rule makes the error count depend on the
    payload, not only on e, so all payloads are averaged.  Only usable for
    tiny frames.
    """
    width, p = 2 * spec.frame_stages, spec.payload_length
    words = _all_words(width)
    decoded = decode_frames(words.astype(np.uint8), build_trellis(spec))[0][:, :p]
    _, codewords = _codebook(spec)
    sent = codewords @ (1 << np.arange(width - 1, -1, -1))  # each codeword as its word's index
    guess = (decoded @ (1 << np.arange(p - 1, -1, -1))).astype(np.uint8)
    errors = np.bitwise_count(guess[sent[:, None] ^ np.arange(1 << width)]
                              ^ np.arange(1 << p, dtype=np.uint8)[:, None])  # (payload, e)
    flip = gaussian_tail(math.sqrt(10 ** (ebno_db / 10)))  # Q(sqrt(2 R Eb/N0)) at R = 1/2
    flips = words.sum(axis=1)
    chance = flip ** flips * (1 - flip) ** (width - flips)
    mean = float((errors @ chance).mean())
    return mean, float((errors * errors @ chance).mean()) - mean ** 2


def gaussian_tail(x: float, nodes: int = 800) -> float:
    """Q(x) by Gauss-Legendre quadrature of the normal density.

    Integrates over [x, x+12]; the remainder is below 1e-30 of the result
    for any x of interest here.  Accurate to well under 1e-12 relative.
    """
    k, w = np.polynomial.legendre.leggauss(nodes)
    a, b = x, x + 12.0
    t = 0.5 * (b - a) * k + 0.5 * (a + b)
    vals = np.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    return float(0.5 * (b - a) * np.dot(w, vals))


def min_codeword_weight_upto(spec: CodeSpec, max_input_len: int) -> int:
    """Exhaustive minimum codeword weight over nonzero inputs of bounded length.

    Codewords are the interleaved GF(2) products input(D) * g_i(D), so the
    weight is the popcount of two carry-less multiplies.  Time invariance
    lets the enumeration fix the first and last input bits to 1.
    """
    taps_ints = [sum(tap << j for j, tap in enumerate(taps)) for taps in spec.generators]
    assert max_input_len + spec.constraint_length <= 64
    best: int | None = None
    for m in range(1, max_input_len + 1):
        if m == 1:
            inputs = np.array([1], dtype=np.uint64)
        elif m == 2:
            inputs = np.array([3], dtype=np.uint64)
        else:
            mid = np.arange(1 << (m - 2), dtype=np.uint64)
            inputs = np.uint64(1) | (mid << np.uint64(1)) | (np.uint64(1) << np.uint64(m - 1))
        weight = np.zeros(len(inputs), dtype=np.uint64)
        for g in taps_ints:
            prod = np.zeros(len(inputs), dtype=np.uint64)
            for bit in range(g.bit_length()):
                if (g >> bit) & 1:
                    prod ^= inputs << np.uint64(bit)
            weight += np.bitwise_count(prod)
        m_best = int(weight.min())
        best = m_best if best is None else min(best, m_best)
    return best


def low_weight_codewords(spec: CodeSpec, max_weight: int) -> list[tuple[int, tuple[int, ...]]]:
    """Every nonzero codeword of the zero-terminated frame with weight
    <= max_weight, as (weight, coded support positions) pairs.

    Depth-first walk over input sequences with a weight budget; tail stages
    force zero inputs.  Feasible because low-weight codewords are sparse.
    """
    k = spec.constraint_length
    stages = spec.frame_stages
    mask = (1 << (k - 1)) - 1
    taps_ints = [sum(tap << j for j, tap in enumerate(taps)) for taps in spec.generators]

    def branch(state: int, bit: int) -> tuple[int, int]:
        full = (state << 1) | bit
        o1 = bin(full & taps_ints[0]).count("1") & 1
        o2 = bin(full & taps_ints[1]).count("1") & 1
        return o1, o2

    found: list[tuple[int, tuple[int, ...]]] = []
    support: list[int] = []

    def walk(t: int, state: int, weight: int, any_one: bool) -> None:
        if t == stages:
            if state == 0 and any_one:
                found.append((weight, tuple(support)))
            return
        if state != 0 and stages - t < k - 1:
            return  # cannot flush back to state 0 in time
        for bit in (0, 1):
            if bit == 1 and stages - t <= k - 1:
                continue  # tail stages are zero
            o1, o2 = branch(state, bit)
            w = weight + o1 + o2
            if w > max_weight:
                continue
            if o1:
                support.append(2 * t)
            if o2:
                support.append(2 * t + 1)
            walk(t + 1, (2 * state + bit) & mask, w, any_one or bit == 1)
            if o2:
                support.pop()
            if o1:
                support.pop()

    walk(0, 0, 0, False)
    return found


def reference_parse_lines(fp, expected_len: int, what: str) -> np.ndarray:
    """The CLI's frame-file parser as a per-line loop over the stream."""
    lines: list[str] = []
    for lineno, raw in enumerate(fp, 1):
        line = raw.rstrip("\r\n")
        if not line:
            continue
        bad = line.lstrip("01")
        if bad:
            raise CliError(
                f"line {lineno}: invalid character {bad[0]!r} "
                "(frames are lines of '0'/'1')"
            )
        if len(line) != expected_len:
            raise CliError(
                f"line {lineno}: {what} frame must be {expected_len} bits, "
                f"got {len(line)}"
            )
        lines.append(line)
    digits = np.frombuffer("".join(lines).encode("ascii"), dtype=np.uint8)
    return (digits - ord("0")).reshape(len(lines), expected_len)


def reference_parser(version: str) -> argparse.ArgumentParser:
    """The argparse tree that read the CLI's command line before ``cli._read_argv``."""
    parser = argparse.ArgumentParser(prog="convfec")
    parser.add_argument("--version", action="version", version=f"%(prog)s {version}")
    parser.add_argument("-K", "--constraint-length", default="7")
    parser.add_argument("-L", "--frame-stages", default="40")
    parser.add_argument("--generators", default="171,133")
    parser.add_argument("--spec-dump", action="store_true")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def io(command: argparse.ArgumentParser) -> argparse.ArgumentParser:
        command.add_argument("-i", "--in", dest="input", default="-")
        command.add_argument("-o", "--out", dest="output", default="-")
        return command

    io(sub.add_parser("encode"))
    decode = io(sub.add_parser("decode"))
    decode.add_argument("--scheme", choices=("traceback", "regex"), default="traceback")
    decode.add_argument("--activity")
    io(sub.add_parser("oracle-decode"))
    io(sub.add_parser("inject-errors")).add_argument("--positions", required=True)
    sweep = sub.add_parser("ber-sweep")
    sweep.add_argument("--ebno", required=True)
    sweep.add_argument("--min-bits", default="1e5")
    sweep.add_argument("--max-bits", default="1e7")
    sweep.add_argument("--stop-errors", default="200")
    sweep.add_argument("--seed", default="0")
    sweep.add_argument("-o", "--out", default="-")
    power = sub.add_parser("power-compare")
    power.add_argument("--frames", default="1000")
    power.add_argument("--ebno", default="4")
    power.add_argument("--seed", default="0")
    power.add_argument("-o", "--out", default="-")
    return parser
