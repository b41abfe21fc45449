"""metasep benchmark: outer-step time, peak memory, sweep throughput, traced layers.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. Each workload runs in its own
subprocess (``workload.py``), one at a time, with one BLAS thread, so its
``ru_maxrss`` is its own peak memory. The last line of standard output is the
JSON result of the (last) workload: ``correct``, ``attempted``, ``failed``
and ``metrics``, each metric with its value and unit. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 175.0
# Pinned so that timings do not depend on how many cores the BLAS finds.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> int:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, **SINGLE_THREAD)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"{name}: no result within {TIMEOUT_S:.0f}s", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"{name}: workload exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode
    lines = out.splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if set(result) != RESULT_KEYS:
        print(f"{name}: malformed result line {lines[-1:]!r}", file=sys.stderr)
        return 4
    if not trace:
        # only child of this process so far, so this is the workload's own peak
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["metrics"]["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}
        lines.insert(-1, f"{name:15s} {'peak_rss_mb':40s} {peak_kb / 1024.0:>16.6g} MB")
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = tuple(w["name"] for w in spec["workloads"])
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # workload.py knows every workload; "all" is the ones BENCHMARK.json names
    p.add_argument("--workload", default="all",
                   help=f"one of {', '.join(workloads)}, fomaml-default, or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=None,
                   help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "metasep" / "__init__.py").is_file():
        print(f"no metasep sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = workloads if args.workload == "all" else (args.workload,)
    if len(names) > 1:
        # RUSAGE_CHILDREN keeps the largest child, so each workload needs a
        # fresh parent for its own peak_rss_mb.
        codes = [subprocess.call([sys.executable, __file__, "--workload", n,
                                  "--seed", str(args.seed), "--seconds", str(seconds),
                                  "--trace", str(args.trace)]) for n in names]
        return max(codes)
    return run_workload(names[0], args.seed, seconds, args.trace,
                        time.monotonic() + TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
