"""One round of the benchmark command, as BENCHMARK.json runs it, on three workloads.

The traced steady and shock rounds wrap every name in benchmark/spans.py's
TRACED and cross-check the coupled-step and sweep counts: on steady every
step is relaxation class and runs no sweep, on shock every step is shock
class and sweeps.  The random round calls coupling_params_of,
replace_inflow and run_coupled's keywords.  Failed counts are not asserted:
the known faults (benchmark/README.md) set them.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("args", [
    ["--workload", "steady", "--seconds", "0", "--trace", "1"],
    ["--workload", "random", "--seconds", "0"],
    ["--workload", "shock", "--seconds", "0", "--trace", "1"],
])
def test_one_benchmark_round_is_correct(args):
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] > 0
