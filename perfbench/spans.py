"""Span tracer for the per-layer run, and the per-layer metrics it yields.

The tracer wraps a layer's public function under the name its caller looks
it up by (``convfec.harness.decode_frames``, ``convfec.cli.decode_frame``):
the package's modules use ``from .x import y``, so wrapping only the
defining module would record nothing.  A span is
``[name, start, end, parent index, work count]``; spans stay in memory
until the run ends.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import importlib
import math
import statistics
from contextlib import contextmanager
from time import perf_counter


def _first_len(args, kwargs):
    return len(args[0]) if args else 0


#: Layer functions, by defining module, with the work count taken from the
#: first argument where the issue names one (frames for ``decode_frames``,
#: samples for ``bpsk_modulate``).
LAYER_FUNCTIONS = {
    "trellis": {"build_trellis": None},
    "encoder": {"encode_frames": None, "encode_stream": None},
    "channel": {
        "bpsk_modulate": _first_len,
        "add_awgn": None,
        "hard_quantize": None,
        "inject_errors": None,
    },
    "decoder": {
        "decode_frames": _first_len,
        "decode_frame": None,
        "decode_frame_register_exchange": None,
    },
    "harness": {"ber_sweep": None, "power_compare": None},
}

#: Modules whose global names are wrapped: the in-package callers.
CALLER_MODULES = ("convfec.cli", "convfec.harness")

#: One top-level span per CLI invocation, named after the subcommand.
CLI_COMMANDS = ("encode", "inject-errors", "decode", "ber-sweep", "power-compare")

DECODERS = tuple(f"decoder.{fn}" for fn in LAYER_FUNCTIONS["decoder"])


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            yield record
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, count):
        span = self.span

        def traced(*args, **kwargs):
            with span(name) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                record[4] = count(args, kwargs)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every layer function where a caller module imported it.

        Returns the ``module.function`` names that no caller imports, so a
        refactor that drops an import is visible rather than silent.
        """
        unwrapped = []
        for layer, functions in LAYER_FUNCTIONS.items():
            defining = importlib.import_module(f"convfec.{layer}")
            for fn_name, count in functions.items():
                original = getattr(defining, fn_name, None)
                hits = 0
                for caller_name in CALLER_MODULES:
                    caller = importlib.import_module(caller_name)
                    if original is not None and getattr(caller, fn_name, None) is original:
                        setattr(caller, fn_name, self._wrap(original, f"{layer}.{fn_name}", count))
                        hits += 1
                if hits == 0:
                    unwrapped.append(f"{layer}.{fn_name}")
        return unwrapped


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 when it is empty."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def span_totals(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, work count, durations.

    Self time is a span's duration minus the durations of its direct
    children.  Every traced name appears, with zero calls if never called.
    """
    names = [f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items() for fn in fns]
    names += [f"cli.{cmd}" for cmd in CLI_COMMANDS]
    totals = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0, "durations": []}
              for n in names}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, _, count) in enumerate(spans):
        entry = totals[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        entry["count"] += count
        entry["durations"].append(end - start)
    return totals


def decoder_frames(totals: dict[str, dict]) -> int:
    """Frames decoded through any of the three decoder entry points."""
    return (totals["decoder.decode_frames"]["count"] + totals["decoder.decode_frame"]["calls"]
            + totals["decoder.decode_frame_register_exchange"]["calls"])


def layer_metrics(per_rep: list[dict], traced_wall: list[float], untraced_wall: list[float],
                  acs_per_frame: int) -> dict[str, float]:
    """The per-layer metrics of a traced run.

    ``per_rep`` holds the :func:`span_totals` of each traced repetition and
    ``traced_wall`` its wall time.  Times are medians over repetitions;
    per-call percentiles pool the calls of all repetitions; counts are per
    repetition.
    """
    out: dict[str, float] = {}

    def med(fn):
        return statistics.median(fn(t) for t in per_rep)

    def count(fn):  # counts repeat exactly; keep them whole numbers
        return statistics.median_low(fn(t) for t in per_rep)

    for name in per_rep[0]:
        out[f"{name}.self_s"] = med(lambda t: t[name]["self_s"])
        out[f"{name}.calls"] = count(lambda t: t[name]["calls"])
    for name in ("decoder.decode_frame", "decoder.decode_frame_register_exchange"):
        pooled = sorted(d for t in per_rep for d in t[name]["durations"])
        out[f"{name}.p50_us"] = percentile(pooled, 0.50) * 1e6
        out[f"{name}.p99_us"] = percentile(pooled, 0.99) * 1e6
    out["decoder.decode_frames.frames"] = count(lambda t: t["decoder.decode_frames"]["count"])
    out["channel.samples"] = count(lambda t: t["channel.bpsk_modulate"]["count"])
    out["trellis.build_trellis.s"] = med(lambda t: t["trellis.build_trellis"]["total_s"])

    def decoder_self(t):
        return sum(t[name]["self_s"] for name in DECODERS)

    out["decoder.frames"] = count(decoder_frames)
    out["decoder.acs_ops"] = out["decoder.frames"] * acs_per_frame
    out["decoder.acs_ops_per_s"] = med(
        lambda t: decoder_frames(t) * acs_per_frame / decoder_self(t) if decoder_self(t) else 0.0
    )
    out["decoder.self_s"] = med(decoder_self)
    wall = statistics.median(traced_wall)
    out["decoder.self_frac"] = out["decoder.self_s"] / wall
    out["trace.wall_s"] = wall
    out["trace.overhead_frac"] = wall / statistics.median(untraced_wall) - 1.0
    return out
