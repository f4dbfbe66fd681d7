"""One benchmark worker: set-up, the timed loop, then the checks.

run.py starts it in a fresh process with BLAS and OpenMP pinned to one
thread.  With ``--role setup`` it stops after set-up.  Its last line of
standard output is one JSON object.

Set-up is the worker's CPU time from just before ``import levelcross`` to
the first timed operation: the program's imports and one untimed warm-up
operation.  Making inputs and checking outputs are not counted.  Every
operation is timed in the process's CPU time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _timed_loop(work, seconds: float, tracer):
    """Whole rounds until `seconds` of wall time and work.min_ops have passed."""
    ops = []
    start = time.perf_counter()
    # A far slower program still ends well inside the run's time limit.
    cap = min(4.0 * seconds, 100.0)
    r = 0
    while True:
        for op in work.round(r):
            t_cpu, t_thread = time.process_time(), time.thread_time()
            try:
                if tracer is not None and hasattr(work, "traced"):
                    op.result = work.traced(op, tracer.clock, tracer.mc)
                else:
                    op.result = op.call()
            except Exception as exc:  # an operation that raises fails; the run goes on
                op.error = f"{type(exc).__name__}: {exc}"
            op.cpu = time.process_time() - t_cpu
            if tracer is not None:
                tracer.op_seconds += time.thread_time() - t_thread
            work.after(op)
            ops.append(op)
        r += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(ops) >= work.min_ops) or elapsed >= cap:
            return ops, r, elapsed


def _remove_output(work) -> None:
    """Delete the file a phase_plane worker's sweeps write to."""
    out = getattr(work, "out", None)
    if out is not None and os.path.exists(out):
        os.remove(out)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--role", choices=("main", "setup"), default="main")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    sys.path[:0] = [SRC, HERE]

    t0 = time.process_time()
    import levelcross  # noqa: F401  (the program's imports are part of set-up)
    import levelcross.cli  # noqa: F401
    import_cpu = time.process_time() - t0

    import workloads

    work = workloads.WORKLOADS[args.workload](args.seed, args.out_dir)
    # The warm-up operation's inputs belong to no round of the run.
    warm = work.round(-1)[0]
    t1 = time.process_time()
    warm.result = warm.call()
    setup = import_cpu + time.process_time() - t1
    if args.role == "setup":
        _remove_output(work)
        print(json.dumps({"setup_s": setup}))
        return 0

    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    ops, rounds, loop_wall = _timed_loop(work, args.seconds, tracer)
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    for op in ops:
        if not op.failed:
            problems += work.check(op)
    problems += work.check_run(ops)
    _remove_output(work)

    cpu = [op.cpu for op in ops]
    failed = [op for op in ops if op.failed]
    report = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "rounds": rounds,
        "problems": problems[:20],
        "failures": sorted({f"{op.kind}: {op.error or 'not converged'}" for op in failed})[:5],
        "setup_s": setup,
        "ops_per_s": len(ops) / sum(cpu),
        "wall_ops_per_s": len(ops) / loop_wall,
        "op_p50_ms": 1e3 * statistics.median(cpu),
        "op_p90_ms": 1e3 * statistics.quantiles(cpu, n=10, method="inclusive")[8],
        "peak_rss_mb": peak_rss_mb,
    }
    z = [abs(x) for op in ops for x in op.extra.get("z", ())]
    if z:
        report["max_abs_z"] = max(z)
    if tracer is not None:
        full = tracer.mc["full"] or tracer.op_seconds
        report["traced_ops_per_s"] = len(ops) / full
        values = tracer.metrics(len(ops), sweep=args.workload == "phase_plane")
        report["per_layer"] = {name: {"value": value, "unit": layertrace.PER_LAYER[name]}
                               for name, value in values.items()}
        report["absent"] = tracer.absent
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
