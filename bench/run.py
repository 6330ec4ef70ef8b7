"""Run one benchmark workload of the uen pipeline and print its metrics.

    python3 bench/run.py --workload train-acceptance --seed 0 --seconds 10 --trace 0

Run it from the repository root; it imports the program from ./src. With
--trace 0 the last stdout line is the end-to-end result, with --trace 1 the
per-layer result of a traced run (see bench/README.md). End-to-end times are
in reference seconds, corrected for the host's speed (see hostspeed.py);
the wall times are printed beside them. --smoke runs toy sizes in seconds.
Lines before the result give the environment and every metric by name and
unit. Exit code 2 means the program could not be found.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

from tracing import Tracer, nearest_rank

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "bench" / "work"
WORKLOAD_NAMES = ("train-acceptance", "cold-serve", "cli-artifacts")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cap_blas_threads(limit: int) -> None:
    """Give BLAS one thread unless the caller set more, and never more than `limit`.

    The program multiplies small per-sample matrices, which a second thread
    does not speed up; it only lets load on another core slow the run down.
    Must run before numpy loads.
    """
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, 1))
        except ValueError:
            wanted = 1
        os.environ[var] = str(max(1, min(wanted, limit)))


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "seed": seed,
        "commit": git_commit(),
    }


def end_to_end(res, speed) -> tuple[dict, dict]:
    """The end-to-end metrics, and the derived and wall-clock figures printed beside them."""

    def seconds(pieces):
        return sum(speed.seconds(a, b) for a, b in pieces)

    setup = [seconds(p) for p in res.setup]
    work = [seconds(p) for p in res.work]
    latency = [seconds(p) for p in res.latency]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "work_s": (statistics.median(work) if work else math.nan, "s"),
        "latency_p50_ms": (nearest_rank(latency, 0.5) * 1e3, "ms"),
        "latency_p99_ms": (nearest_rank(latency, 0.99) * 1e3, "ms"),
        "accuracy": (res.accuracy, "ratio"),
        "zero_macro_f1": (res.zero_macro_f1, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "requests": (len(latency), "count"),
        "requests_per_s": (len(latency) / sum(work) if work else math.nan, "1/s"),
        "setup_wall_s": (statistics.median(sum(speed.wall(a, b) for a, b in p)
                                           for p in res.setup), "s"),
        "work_wall_s": (statistics.median(sum(speed.wall(a, b) for a, b in p)
                                          for p in res.work) if work else math.nan, "s"),
        "host_slowdown": (speed.mean_slowdown(), "ratio"),
    }
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, seconds per run")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "uen" / "__init__.py").is_file():
        print(f"error: the uen sources are not at {ROOT / 'src' / 'uen'}", file=sys.stderr)
        return 2
    cap_blas_threads(nproc())
    sys.path.insert(0, str(ROOT / "src"))

    import workloads
    from hostspeed import HostSpeed

    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    work_dir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    tracer = Tracer() if args.trace else None
    speed = HostSpeed()
    run = workloads.Run(seed=args.seed, seconds=args.seconds,
                        sizes=workloads.SMOKE if args.smoke else workloads.FULL,
                        work_dir=work_dir, tracer=tracer, speed=speed)
    work_dir.mkdir(parents=True)
    try:
        with speed:
            res = workloads.WORKLOADS[args.workload](run)
        if tracer is not None:
            tracer.write(WORK / f"trace-{args.workload}-s{args.seed}.jsonl")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics, extra = end_to_end(res, speed)
    shown = metrics if tracer is None else res.per_layer
    named = {**metrics, **extra}
    aliases = {alias: named[name] for alias, name in res.aliases.items()}
    for name, (value, unit) in {**shown, **aliases, **extra}.items():
        print(f"{name} = {value} {unit}")
    error_rate = res.failed / max(1, res.attempted)
    print(f"error_rate = {error_rate} ratio ({res.failed} of {res.attempted} operations)")
    finite = all(math.isfinite(v) for v, _ in shown.values())
    print(json.dumps({
        "correct": res.failed == 0 and res.attempted > 0 and finite,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
