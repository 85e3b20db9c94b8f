"""Run one workload of the repo benchmark and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tcp-unique-rows --seed 1 \
        --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it is the run's metadata (seed, commit,
host, versions, and the layer ledger of a traced run).  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Working space for the disk cache tier, inside the checkout.
WORK_DIR = os.path.join(ROOT, ".perfbench-work")


def _host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: the host's current CPU
    speed, so runs on a drifting or different host can be told apart."""
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        samples.append((time.perf_counter() - started) * 1e3)
    return sorted(samples)[len(samples) // 2]


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv: Optional[List[str]] = None, sizes: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)

    import numpy

    from inputs import FULL
    from stack import REQUEST_LINE_LIMIT
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    probe_ms = [_host_probe_ms()]
    try:
        run = workload.traced if args.trace else workload.run
        outcome = run(args.seed, args.seconds, sizes or FULL, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:  # another run is using it
            pass
    probe_ms.append(_host_probe_ms())

    meta: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "commit": _commit(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "host_probe_ms": probe_ms,
        "tcp.request_line_limit": REQUEST_LINE_LIMIT,
    }
    meta.update(outcome.meta)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
