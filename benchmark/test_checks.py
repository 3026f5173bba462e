"""Each output check of the benchmark must reject a perturbed output.

    python3 -m pytest benchmark/test_checks.py
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmark"))

import bgkcoupling  # noqa: E402
from bgkcoupling import experiments  # noqa: E402
from bgkcoupling.coupling import Snapshot  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def short_march(scenario, horizon=0.05, **kw):
    config = experiments.ScenarioConfig(scenario=scenario, horizon=horizon, **kw)
    initial = experiments.build_coupled_initial(config)
    final, _ = experiments.run_limit_system(config)
    return config, initial, final


@pytest.fixture(scope="module")
def equilibrium_run():
    return short_march("equilibrium")


@pytest.fixture(scope="module")
def shock_run():
    return short_march("shock")


def test_steady_check_passes_then_rejects_added_mass(equilibrium_run):
    _, initial, final = equilibrium_run
    assert workloads.check_steady(initial, final, fixed_point=True) == []
    final.kinetic.values[100, 50] += 1e-6
    try:
        problems = workloads.check_steady(initial, final, fixed_point=False)
        assert any("mass ledger" in p for p in problems)
        problems = workloads.check_steady(initial, final, fixed_point=True)
        assert any("drifted" in p for p in problems)
    finally:
        final.kinetic.values[100, 50] -= 1e-6


def test_ledger_sees_a_changed_outer_cell(equilibrium_run):
    _, initial, final = equilibrium_run
    moved = final.fluid.copy()
    moved.values[-1] += 1e-9
    changed = SimpleNamespace(kinetic=final.kinetic, fluid=moved, far_left_inflow=final.far_left_inflow)
    assert not checks.outer_cells_unchanged(initial, changed)


def test_shock_check_passes_then_rejects_shifted_far_row(shock_run):
    config, initial, final = shock_run
    dy = config.layer_grid().dy
    assert workloads.check_shock(initial, final, dy) == []
    original = final.layer.values
    shifted = original.copy()
    shifted[-1, 0] -= 1e-3
    final.layer.values = shifted
    try:
        problems = workloads.check_shock(initial, final, dy)
    finally:
        final.layer.values = original
    assert any("far density" in p for p in problems)


def test_ladder_check_rejects_non_monotone_errors():
    good = SimpleNamespace(kinetic_errors=[3.0, 2.0, 1.0], fluid_errors=[0.3, 0.2, 0.1], negative_mass=[0.5, 0.4, 0.3])
    assert workloads.check_ladder(good) == []
    for field in ("kinetic_errors", "fluid_errors", "negative_mass"):
        bad = SimpleNamespace(**vars(good))
        setattr(bad, field, [3.0, 3.0, 1.0])
        assert len(workloads.check_ladder(bad)) == 1
    assert not checks.strictly_decreasing([1.0])
    assert not checks.strictly_decreasing([2.0, 1.0, 1.5])


def _snapshots(fluid_levels):
    kin = np.zeros((4, 2))
    return [Snapshot(0.1 * k, kin, np.full(3, u), 1.0, 1.0) for k, u in enumerate(fluid_levels)]


def test_contraction_check_rejects_a_growing_distance():
    base = _snapshots([0.0, 0.0, 0.0])
    shrinking = _snapshots([0.3, 0.2, 0.1])
    growing = _snapshots([0.1, 0.2, 0.1])
    assert workloads.check_contraction([(None, base), (None, shrinking)]) == []
    problems = workloads.check_contraction([(None, base), (None, growing)])
    assert any("L1 distance grew" in p for p in problems)


def test_far_field_check_rejects_a_far_row_off_its_class(shock_run, equilibrium_run):
    _, _, final = shock_run
    relaxed = equilibrium_run[2]
    assert workloads.check_far_fields([final, relaxed], 2) == []
    assert len(workloads.check_far_fields([final], 2)) == 1
    original = final.layer.values
    final.layer.values = original + np.where(final.layer.velocity.positive, 0.0, -1e-3)[None, :]
    try:
        problems = workloads.check_far_fields([final, final], 2)
    finally:
        final.layer.values = original
    assert len(problems) == 2


def test_count_checks_hold_then_reject_a_missing_call():
    tracer = spans.Tracer(bgkcoupling)
    tracer.install()
    try:
        config, _, _ = short_march("shock")
    finally:
        tracer.uninstall()
    recorded = tracer.take()
    n_steps = experiments.scenario_dt(config)[1]
    assert spans.count_problems(recorded, n_steps) == []
    assert len(spans.count_problems(recorded, n_steps + 1)) == 1
    first_sweep = next(i for i, s in enumerate(recorded) if s[0] == "milne.golse_iterate")
    dropped = recorded[:first_sweep] + recorded[first_sweep + 1:]
    assert any("golse_iterate" in p for p in spans.count_problems(dropped, n_steps))
    metrics = spans.layer_metrics(recorded)
    assert metrics["coupling.coupled_step.calls"] == n_steps
    assert metrics["milne.classify.shock"] == n_steps
    assert not hasattr(experiments.run_limit_system, "__wrapped__")
