"""convfec benchmark: one workload, one seed, a fixed measuring time.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Load model: closed loop, one client.  A run repeats the workload's fixed
work, each repetition in a fresh Python process that imports ``convfec``
from ``src/`` and calls the public CLI entry point ``convfec.cli.run``,
until the next repetition would overrun ``--seconds``.  Every repetition's
outputs are checked, and must be byte-identical to the first one's.

``--trace 0`` reports the end-to-end metrics as medians over repetitions.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see ``spans.py``).  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people.  Metric
names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import decoder_frames, layer_metrics, span_totals
from workloads import ACS_PER_FRAME, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
#: scratch space for inputs and outputs, removed when the run ends
WORK = ROOT / ".perfbench_work"
#: a repetition that runs longer than this counts as failed
CHILD_TIMEOUT_S = 120
#: Host speed on a shared machine drifts by 20-30% over minutes, and a
#: fixed kernel slows with it.  Calibration pieces run on the same core
#: just before and after every repetition; the repetition's times are
#: rescaled by their median to a host that runs one piece in CAL_NOMINAL_S
#: (a quiet core of a 2-core Xeon VM, Python 3.11, numpy 2.4).
CAL_PIECES = 4
CAL_ITERS = 1_500
CAL_PASSES = 16
CAL_NOMINAL_S = 0.012
#: no BLAS or OpenMP thread pools: one client, one core's worth of work
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(argvs: list[list[str]], trace: bool, rundir: Path, tag: str) -> dict | None:
    """Run one repetition in a fresh process; ``None`` if it crashed or hung."""
    job, result = rundir / f"{tag}.job.json", rundir / f"{tag}.result.json"
    job.write_text(json.dumps({"argvs": argvs, "trace": trace, "src": str(SRC),
                               "result": str(result)}))
    try:
        proc = subprocess.run([sys.executable, str(CHILD), str(job)], cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"repetition {tag} exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not result.exists():
        print(f"repetition {tag} exited with status {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(result.read_text())


def calibrate() -> list[float]:
    """Seconds of each of CAL_PIECES runs of a fixed kernel.

    Half a Python loop of numpy calls on 64-element arrays, the way the
    scalar decoders work; half numpy passes over a (2048, 64) array, the
    way batched ``decode_frames`` works.
    """
    times = []
    metric = np.zeros((2048, 64), dtype=np.int64)
    branch = np.arange(64, dtype=np.int64)
    for _ in range(CAL_PIECES):
        start = perf_counter()
        small = np.zeros(64, dtype=np.int64)
        for i in range(CAL_ITERS):
            upper = small + branch
            lower = small[::-1] + (i & 3)
            small = np.where(upper < lower, upper, lower) - 1
        for i in range(CAL_PASSES):
            upper = metric + branch
            lower = metric[:, ::-1] + (i & 3)
            metric = np.minimum(upper, lower) - i
        times.append(perf_counter() - start)
    return times


def machine_facts() -> dict[str, object]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fp:
            cpu = next((line.split(":", 1)[1].strip() for line in fp
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                commit = loose.read_text().strip()
            elif (ROOT / ".git" / "packed-refs").is_file():
                for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + name):
                        commit = line.split()[0]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "commit": commit,
    }


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1={q1:.6g} q3={q3:.6g} min={min(values):.6g} max={max(values):.6g} n={len(values)}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "convfec" / "__init__.py").is_file():
        print(f"no convfec sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]

    # Calibration and repetitions share one core, so they see the same host.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return measure(args, declared, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass


def measure(args: argparse.Namespace, declared: list[dict], rundir: Path) -> int:
    workload = WORKLOADS[args.workload](args.seed, rundir)
    # Set-up only, untimed: fills the page and bytecode caches and shows
    # that the package imports at all.
    if run_child([], False, rundir, "warmup") is None:
        print("convfec does not import; no result", file=sys.stderr)
        return 2

    reps: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    first_outputs = first_outcome = None
    min_reps = 4 if args.trace else 3
    start = perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        out = rundir / f"rep{len(reps)}"
        out.mkdir()
        before = calibrate()
        rep = run_child(workload.argvs(out), traced, rundir, out.name)
        pieces = before + calibrate()
        ok_exit = rep is not None and all(code == 0 for code in rep["exit_codes"])
        outputs = [p.read_bytes() if p.exists() else None for p in workload.outputs(out)]
        if first_outputs is None:
            first_outputs, first_outcome = outputs, workload.check(out, ok_exit)
            outcome = first_outcome
            problems += outcome.problems
        elif ok_exit and outputs == first_outputs:
            outcome = first_outcome
        else:
            outcome = workload.check(out, False)
            problems.append(f"{out.name}: nonzero exit, or outputs differ from the first "
                            "repetition's")
        shutil.rmtree(out)
        attempted += outcome.attempted
        failed += outcome.failed
        if rep is None:
            break
        rep.update(traced=traced, info_bits=outcome.info_bits,
                   decoder_frames=outcome.decoder_frames,
                   scale=CAL_NOMINAL_S / statistics.median(pieces))
        reps.append(rep)
        elapsed = perf_counter() - start
        # stop when one more repetition of average length would overrun
        if len(reps) >= min_reps and elapsed * (len(reps) + 1) / len(reps) > args.seconds:
            break

    print(f"machine {json.dumps(machine_facts())}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"repetitions {len(reps)} in {perf_counter() - start:.2f} s")
    for problem in problems:
        print(f"check failed: {problem}")
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    correct = failed == 0 and len(reps) >= min_reps

    if args.trace:
        values = trace_metrics(traced, plain)
        for rep in traced:
            seen = decoder_frames(rep["totals"])
            if seen != rep["decoder_frames"]:
                correct = False
                print(f"trace self-check failed: the decoder saw {seen} frames, "
                      f"the outputs need {rep['decoder_frames']}")
    else:
        values = end_to_end_metrics(plain)

    metrics = {}
    for m in declared:
        value = values.get(m["name"])
        if value is None and correct:
            print(f"benchmark bug: no value for {m['name']}", file=sys.stderr)
            return 2
        value = value or 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{m['name']} = {shown} {m['unit']}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} "
          "operations failed their output check)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def end_to_end_metrics(reps: list[dict]) -> dict[str, float]:
    """Medians over repetitions of calibrated times, and of peak memory."""
    if not reps:
        return {}
    walls = [r["wall_s"] * r["scale"] for r in reps]
    rates = [r["info_bits"] / wall for r, wall in zip(reps, walls)]
    setups = [r["setup_s"] * r["scale"] for r in reps]
    rss = [r["peak_rss_mib"] for r in reps]
    print(f"info_bits_per_s: {_spread(rates)}; base info_bits={reps[0]['info_bits']} per "
          f"repetition over calibrated wall_s median {statistics.median(walls):.6g} "
          f"({_spread(walls)})")
    print(f"uncalibrated medians: info_bits_per_s "
          f"{statistics.median(r['info_bits'] / r['wall_s'] for r in reps):.6g}, setup_s "
          f"{statistics.median(r['setup_s'] for r in reps):.6g}; calibration scale "
          f"{_spread([r['scale'] for r in reps])}")
    print(f"setup_s: {_spread(setups)}")
    print(f"peak_rss_mib: {_spread(rss)}")
    return {
        "info_bits_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(rss),
    }


def trace_metrics(traced: list[dict], plain: list[dict]) -> dict[str, float]:
    """Per-layer metrics, uncalibrated; prints each layer's share of the wall time."""
    if not traced or not plain:
        return {}
    for rep in traced:
        rep["totals"] = span_totals(rep.pop("spans"))
    per_rep = [r["totals"] for r in traced]
    walls = [r["wall_s"] for r in traced]
    values = layer_metrics(per_rep, walls, [r["wall_s"] for r in plain], ACS_PER_FRAME)
    values["workload.info_bits"] = traced[0]["info_bits"]
    values["workload.wall_s"] = statistics.median(r["wall_s"] for r in plain)
    print(f"decoder.acs_ops_per_s = {values['decoder.acs_ops_per_s']:.6g} 1/s; base "
          f"decoder.acs_ops={values['decoder.acs_ops']:.0f} "
          f"(decoder.frames={values['decoder.frames']:.0f} x {ACS_PER_FRAME}) over "
          f"decoder.self_s={values['decoder.self_s']:.6g} s")
    shares = {name: values[f"{name}.self_s"] / values["trace.wall_s"] for name in per_rep[0]}
    for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        if share > 0:
            print(f"self time share {name}: {100 * share:.1f}% of trace.wall_s")
    return values


if __name__ == "__main__":
    sys.exit(main())
