"""Benchmark of the coupled limit system.

    python3 benchmark/run.py --workload steady --seed 1 --seconds 33 --trace 0

runs whole rounds of one workload's operations for about --seconds seconds,
in this one process, and checks every output.  The last line of standard
output is a JSON object with correct, attempted, failed and metrics: the
end-to-end metrics (wall_s, setup_s, peak_rss_mib) with --trace 0, the
per-layer metrics of benchmark/spans.py with --trace 1.  --workload all runs
the four workloads one after the other, each in its own process.
See benchmark/README.md.
"""

import time

T_START = time.perf_counter()   # set-up time counts from here, before any import below

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREADS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("steady", "shock", "random", "ladder")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import bgkcoupling from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "bgkcoupling" / "__init__.py").is_file():
        sys.exit(f"benchmark: no bgkcoupling sources under {src}")
    sys.path.insert(0, str(src))
    import bgkcoupling

    if Path(bgkcoupling.__file__).resolve().parent != (src / "bgkcoupling").resolve():
        sys.exit(f"benchmark: imported bgkcoupling from {bgkcoupling.__file__}, not {src}")
    return bgkcoupling


def run_round(ops, tracer=None):
    """Run every operation once; return (wall seconds of the program calls, outcomes, spans)."""
    wall = 0.0
    outcomes = []
    for op in ops:
        start = time.perf_counter()
        try:
            output = op.run()
        except Exception as exc:   # a solver error is a failed operation, not a failed run
            wall += time.perf_counter() - start
            outcomes.append((op, [f"raised {type(exc).__name__}: {exc}"]))
            continue
        wall += time.perf_counter() - start
        outcomes.append((op, op.check(output)))
        del output
    spans = tracer.take() if tracer is not None else None
    return wall, outcomes, spans


def run_workload(args) -> int:
    package = import_package()
    import numpy as np
    import spans as spanlib
    import workloads

    tracer = None
    if args.trace:
        tracer = spanlib.Tracer(package)
        tracer.install()
    ops = workloads.WORKLOADS[args.workload]()
    setup_s = time.perf_counter() - T_START
    setup_spans = tracer.take() if tracer is not None else None

    print("# machine " + json.dumps({
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREADS},
        "workload": args.workload,
        "seed": args.seed,
        "ops": [op.name for op in ops],
    }), flush=True)

    walls, per_round, count_problems = [], [], []
    attempted = failed = 0
    correct = True
    measure_start = time.perf_counter()
    while True:
        wall, outcomes, spans = run_round(ops, tracer)
        walls.append(wall)
        for op, problems in outcomes:
            attempted += 1
            if problems:
                failed += 1
                correct &= op.known_fault is not None
                tag = op.known_fault or "UNEXPECTED"
                print(f"# round {len(walls)} FAILED [{tag}] {op.name}: {'; '.join(problems)}", flush=True)
        if spans is not None:
            per_round.append(spans)
            found = spanlib.count_problems(spans, sum(op.steps for op in ops))
            for problem in found:
                print(f"# round {len(walls)} COUNT CHECK FAILED: {problem}", flush=True)
            count_problems += found
        print(f"# round {len(walls)}: {wall:.3f} s, {len(ops)} ops", flush=True)
        elapsed = time.perf_counter() - measure_start
        if elapsed + wall > args.seconds:
            break

    if tracer is not None:
        tracer.uninstall()
        tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json", per_round)
        rounds = [spanlib.layer_metrics(s) for s in per_round]
        values = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
        values["experiments.random_coupled_state.s"] = spanlib.layer_metrics(setup_spans)[
            "experiments.random_coupled_state.s"
        ]
        values["trace.wall_s"] = statistics.median(walls)
        values["trace.spans"] = statistics.median(len(s) for s in per_round)
        metrics = {name: {"value": v, "unit": spanlib.unit_of(name)} for name, v in values.items()}
        correct &= not count_problems
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so memory and set-up stay apart."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        shown = ", ".join(f"{k} {m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items())
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}: {shown}")
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
