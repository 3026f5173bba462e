"""tools/output_digest.py: one reproducible SHA-256 per benchmark operation.

No hash is pinned here: outputs move on purpose in some changes, and a digest
can differ between numpy versions.  The tests check that two runs agree and
that the digest sees what it claims to cover.
"""

import argparse
import dataclasses
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "output_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest_lines(workload):
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_two_steady_digests_agree():
    first, second = digest_lines("steady"), digest_lines("steady")
    assert first == second
    tool = load_tool()
    names = [op.name for op in tool.workloads.WORKLOADS["steady"]()]
    assert len(first) == len(names)
    for line, name in zip(first, names):
        assert re.fullmatch(rf"[0-9a-f]{{64}}  steady/{re.escape(name)}", line)


def test_digest_sees_a_signed_zero_a_record_field_and_the_deferred_layer():
    tool = load_tool()
    from bgkcoupling import coupling, experiments, milne

    config = experiments.ScenarioConfig(scenario="equilibrium", n_x=40, n_xi=8, layer_n_y=40, horizon=0.05)
    state, _ = experiments.run_limit_system(config)
    assert isinstance(state.layer, coupling._DeferredRelaxationLayer)
    base = tool.digest(state)
    assert tool.digest(state) == base

    zeros = np.flatnonzero(state.kinetic.values == 0.0)
    flipped = state.kinetic.values.copy()
    flipped.flat[zeros[0]] = -flipped.flat[zeros[0]]
    assert tool.digest(dataclasses.replace(state, kinetic=dataclasses.replace(state.kinetic, values=flipped))) != base

    log = list(state.trace_log)
    log[-1] = dataclasses.replace(log[-1], layer_residual=np.nextafter(log[-1].layer_residual, 1.0))
    assert tool.digest(dataclasses.replace(state, trace_log=log)) != base

    # the first digest marched the deferred layer, which hashes as that profile
    profile = state.layer._profile
    assert isinstance(profile, milne.LayerProfile)
    assert tool.digest(dataclasses.replace(state, layer=profile)) == base


def test_two_cli_digests_agree():
    # one command, the quickest to run twice; --cli digests all six the same way
    tool = load_tool()
    first, second = tool.digest_cli("coupled"), tool.digest_cli("coupled")
    assert first == second
    assert re.fullmatch(r"[0-9a-f]{64}", first)
    from bgkcoupling.cli import build_parser

    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert tool.CLI_COMMANDS == tuple(commands.choices)
