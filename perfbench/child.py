"""One repetition of a workload, in a fresh process.

Usage: ``python3 perfbench/child.py JOB.json``.  The job names the CLI
argument lists to run in order, whether to trace, and where to write the
result.  A fresh process per repetition makes the set-up cost and the
peak resident memory belong to this repetition alone.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def peak_rss_kib() -> float:
    """This process's own peak resident set, in KiB.

    ``ru_maxrss`` would also count the spawning parent's pages, which a
    child started by vfork inherits until exec; ``VmHWM`` does not.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fp:
            for line in fp:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)  # KiB on Linux


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    src = Path(job["src"]).resolve()

    start = perf_counter()
    import convfec
    from convfec.cli import run

    convfec.build_trellis(convfec.DEFAULT_SPEC)
    setup_s = perf_counter() - start

    if src not in Path(convfec.__file__).resolve().parents:
        print(f"convfec imported from {convfec.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if job["trace"]:
        from spans import Tracer  # perfbench/spans.py; the script directory is on sys.path

        tracer = Tracer()
        unwrapped = tracer.install()
        if unwrapped:
            print("untraced (no caller imports them): " + ", ".join(unwrapped), file=sys.stderr)

    codes = []
    start = perf_counter()
    for argv in job["argvs"]:
        if tracer is None:
            codes.append(run(argv))
        else:
            with tracer.span(f"cli.{argv[0]}"):
                codes.append(run(argv))
    wall_s = perf_counter() - start

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "exit_codes": codes,
        "peak_rss_mib": peak_rss_kib() / 1024.0,
        "spans": tracer.spans if tracer is not None else [],
    }
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
