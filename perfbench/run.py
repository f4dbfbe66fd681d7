"""levelcross benchmark: one workload per run, timed in CPU seconds.

    python3 perfbench/run.py --workload phase_plane --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout (the program is imported from
src/).  The timed work runs in a fresh worker process with BLAS and OpenMP
pinned to one thread; set-up is measured in that worker and in three more
fresh processes, and the median is reported.  With --trace 1 a traced
worker reports the per-layer metrics instead.  Wall time and the host's
steal share are printed for reference; neither is a metric.  The last line
of standard output is the result as one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("phase_plane", "stats_mix", "monte_carlo")
SETUP_PROBES = 3
END_TO_END = {"ops_per_s": "1/cpu_s", "op_p50_ms": "cpu_ms", "op_p90_ms": "cpu_ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
# A run gives up, with no result, rather than take longer than this.
RUN_LIMIT = 170.0


def _cpu_times() -> list[int]:
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def _worker(args, role: str, out_dir: str, deadline: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role, "--out-dir", out_dir]
    timeout = max(deadline - time.perf_counter(), 1.0)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{role} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "levelcross", "__init__.py")):
        sys.stderr.write(f"no program sources at {os.path.join(ROOT, 'src', 'levelcross')}\n")
        return 2
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)

    wall = time.perf_counter()
    deadline = wall + RUN_LIMIT
    before = _cpu_times()
    try:
        main_run = _worker(args, "main", out_dir, deadline)
        setups = [main_run["setup_s"]]
        if not args.trace:
            setups += [_worker(args, "setup", out_dir, deadline)["setup_s"]
                       for _ in range(SETUP_PROBES)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1
    after = _cpu_times()
    wall = time.perf_counter() - wall
    ticks = [b - a for a, b in zip(before, after)]
    steal = ticks[7] / sum(ticks) if len(ticks) > 7 and sum(ticks) else 0.0

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={main_run['rounds']} samples={main_run['attempted']} "
          f"failed={main_run['failed']} wall_s={wall:.1f} steal_share={steal:.4f} "
          f"wall_ops_per_s={main_run['wall_ops_per_s']:.4f}")
    for line in main_run["failures"]:
        print(f"failed: {line}")
    for line in main_run["problems"]:
        print(f"wrong: {line}")
    if "max_abs_z" in main_run:
        print(f"largest |z| of a Monte Carlo check: {main_run['max_abs_z']:.2f}")
    if args.trace:
        print(f"traced ops_per_s={main_run['traced_ops_per_s']:.4f}")
        for name in main_run["absent"]:
            print(f"absent: {name} (its metrics read 0)")
        metrics = main_run["per_layer"]
    else:
        print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
        main_run["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": main_run[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": main_run["correct"], "attempted": main_run["attempted"],
                      "failed": main_run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
