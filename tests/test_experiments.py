"""Scenario configs, full-line runs, and the qualitative solution structure.

The slower ladder studies live in the acceptance suite; here the full-line
solver is exercised on coarse grids where the maximum-principle structure
(ordering, barriers, finite speed) can be checked exactly.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bgkcoupling

from bgkcoupling import ConfigError, InflowBoundary, KineticField
from bgkcoupling.kinetic import SpaceGrid, StiffnessProfile, run_with_history
from bgkcoupling.velocity import maxwellian_table
from bgkcoupling.experiments import (
    ScenarioConfig,
    build_coupled_initial,
    build_full_initial,
    config_to_dict,
    extract_rescaled_layer,
    random_coupled_state,
    replace_inflow,
    run_convergence_study,
    scenario_dt,
    solve_full_epsilon,
)
from bgkcoupling.milne import LayerGrid


def base(**kw):
    d = dict(n_xi=40, x_min=-1.0, x_max=1.0, n_x=100, horizon=0.4)
    d.update(kw)
    return ScenarioConfig(**d)


# -- validation ------------------------------------------------------------

@pytest.mark.parametrize(
    "kw",
    [
        {"scenario": "blast_wave"},
        {"u_plus": 1.5},
        {"u_plus": 0.0},
        {"scenario": "shock", "eta": 0.9},
        {"n_xi": 41},
        {"n_xi": 0},
        {"x_min": 0.5},
        {"n_x": 81},          # x = 0 falls inside a cell
        {"horizon": -1.0},
        {"cfl": 1.5},
        {"epsilons": (0.1, 0.2)},
        {"epsilons": (0.2, 0.2, 0.1)},
        {"epsilons": (0.2, -0.1)},
        {"relax_right": -0.9},
    ],
)
def test_validate_rejects(kw):
    with pytest.raises(ConfigError):
        base(**kw).validate()


def test_validate_collects_all_items():
    try:
        base(scenario="nope", cfl=2.0, n_xi=7).validate()
    except ConfigError as exc:
        text = str(exc)
        assert "scenario" in text and "cfl" in text and "n_xi" in text
    else:
        pytest.fail("expected ConfigError")


@pytest.mark.parametrize(
    "kw, keys",
    [
        # each half line needs a cell: the other one takes all n_x of them
        ({"x_max": 1e-300}, "x_min, x_max, n_x"),
        ({"x_max": 1e300}, "x_min, x_max, n_x"),
        # the grid constructors' own checks, named by the keys each grid reads
        ({"half_width": 0.0}, "half_width, n_xi"),
        ({"n_xi": 41}, "half_width, n_xi"),
        ({"n_xi": 0}, "half_width, n_xi"),
        ({"n_x": 0}, "x_min, x_max, n_x"),
        ({"x_min": 0.5}, "x_min, x_max, n_x"),
        ({"layer_n_y": 0}, "layer_y_max, layer_n_y"),
        ({"layer_y_max": 0.0}, "layer_y_max, layer_n_y"),
    ],
)
def test_config_checks_its_grids_when_built(kw, keys):
    with pytest.raises(ConfigError) as info:
        base(**kw)
    assert any(item.startswith(f"{keys}: ") for item in info.value.items), info.value.items


def test_config_keeps_the_stricter_split_test():
    # x = 0 sits 5e-8 of a cell off an edge: SpaceGrid allows 1e-9 * n_x = 1e-7
    # cells, the config only 1e-9
    x_max = 1.0 + 2e-9
    assert SpaceGrid(-1.0, x_max, 100).n_cells == 100
    with pytest.raises(ConfigError, match="n_x: x = 0 must land on a cell edge"):
        base(x_max=x_max)


def test_scenario_dt_marches_a_short_horizon_in_one_step():
    config = base(horizon=1e-300)
    assert scenario_dt(config) == (1e-300, 1)


def test_config_to_dict_round_trip():
    config = base(scenario="shock", eta=0.15)
    rebuilt = ScenarioConfig(**{**config_to_dict(config), "epsilons": tuple(config.epsilons)})
    assert rebuilt == config


# -- grids and data --------------------------------------------------------

def test_scenario_dt_lands_on_horizon():
    config = base()
    dt, n = scenario_dt(config)
    assert dt * n == pytest.approx(config.horizon, abs=1e-14)
    assert dt <= config.cfl * config.full_grid().dx / config.half_width + 1e-15


def test_scenario_dt_refines_with_scale():
    config = base()
    dt1, n1 = scenario_dt(config, scale=1)
    dt2, n2 = scenario_dt(config, scale=2)
    assert dt2 <= config.cfl * config.full_grid(2).dx / config.half_width + 1e-15
    assert dt2 < dt1
    assert dt2 * n2 == pytest.approx(config.horizon, abs=1e-14)


def test_full_initial_is_admissible_equilibrium():
    config = base(scenario="shock")
    field, bc = build_full_initial(config)
    sign = np.where(field.velocity.positive, 1.0, -1.0)
    signed = sign * field.values
    assert signed.min() >= 0.0 and signed.max() <= 1.0
    u = field.densities()
    left = config.u_plus - config.eta
    np.testing.assert_allclose(u[field.space.centers < 0], left, atol=1e-12)
    np.testing.assert_allclose(u[field.space.centers > 0], -config.u_plus, atol=1e-12)
    # ghosts carry only their incoming half
    assert not bc.left[~field.velocity.positive].any()
    assert not bc.right[field.velocity.positive].any()


def test_relax_right_override():
    config = base(scenario="relaxation", relax_right=0.1)
    assert config.right_density() == 0.1
    assert base(scenario="relaxation").right_density() == pytest.approx(0.3)


def test_extract_rescaled_layer_window_guard():
    config = base()
    field, _ = build_full_initial(config)
    with pytest.raises(ValueError):
        extract_rescaled_layer(field, 0.5, LayerGrid(20.0, 40))


def test_extract_rescaled_layer_samples_cells():
    config = base()
    field, _ = build_full_initial(config)
    marked = field.values.copy()
    marked[:, :] = np.arange(field.space.n_cells)[:, None]  # cell index as payload
    tagged = KineticField(field.space, field.velocity, marked)
    eps = 0.05
    lgrid = LayerGrid(10.0, 20)
    rows = extract_rescaled_layer(tagged, eps, lgrid)
    for k, y in enumerate(lgrid.nodes):
        x = eps * y if y > 0 else 1e-15 * field.space.dx
        assert rows[k, 0] == field.space.cell_of(min(x, field.space.x_max - 1e-12))


# -- solution structure on the full line -----------------------------------

def test_equilibrium_family_is_stationary():
    config = base(scenario="equilibrium", horizon=0.3)
    field, _ = build_full_initial(config)
    result = solve_full_epsilon(config, 0.2)
    np.testing.assert_array_equal(result.final.values, field.values)


def test_comparison_principle():
    config = base(scenario="relaxation")
    field, bc = build_full_initial(config)
    small = KineticField(field.space, field.velocity, 0.5 * field.values)
    bc_small = InflowBoundary(left=0.5 * bc.left, right=0.5 * bc.right)
    stiffness = StiffnessProfile.two_zone(field.space, 0.2)
    dt, n = scenario_dt(config)
    times = (0.1, 0.2, 0.4)
    big = run_with_history(field, bc, stiffness, dt, n, times)
    little = run_with_history(small, bc_small, stiffness, dt, n, times)
    for t in times:
        assert (little.snapshots[t] - big.snapshots[t]).max() <= 1e-12


def test_relaxation_family_lower_barrier():
    # the standing-shock profile is a stationary subsolution of every run
    # whose data dominates it
    config = base(scenario="relaxation")
    vgrid = config.velocity_grid()
    sgrid = config.full_grid()
    floor = maxwellian_table(
        np.where(sgrid.centers < 0, config.u_plus, -config.u_plus), vgrid
    )
    result = solve_full_epsilon(config, 0.2, snapshot_times=(0.1, 0.2, 0.4))
    for values in result.history.snapshots.values():
        assert (floor - values).max() <= 1e-12
    assert (floor - result.final.values).max() <= 1e-12


def test_steady_shock_transition_confined_to_eps_band():
    eps = 0.1
    config = base(scenario="steady_shock", n_x=200, horizon=0.5)
    result = solve_full_epsilon(config, eps)
    u = result.final.velocity.dxi * result.final.values.sum(axis=1)
    x = config.full_grid().centers
    outside = x > 5 * eps
    assert np.abs(u[outside] + config.u_plus).max() <= 1e-10


def test_shifted_standing_shock_holds_until_interaction():
    # data with the jump moved to x = delta > 0 stays put for t < delta/u_plus;
    # the deviation spreads from the jump at most at the characteristic speed
    eps, delta, t_star = 0.1, 0.5, 0.25
    config = base(scenario="steady_shock", n_x=200, horizon=0.5)
    vgrid = config.velocity_grid()
    sgrid = config.full_grid()
    values0 = maxwellian_table(np.where(sgrid.centers < delta, 0.6, -0.6), vgrid)
    _, bc = build_full_initial(config)
    field = KineticField(sgrid, vgrid, values0.copy())
    stiffness = StiffnessProfile.two_zone(sgrid, eps)
    dt, _ = scenario_dt(config)
    n = int(round(t_star / dt))
    history = run_with_history(field, bc, stiffness, dt, n, ())
    final = history.final.values
    x = sgrid.centers
    quiet = np.abs(x - delta) > 1.2 * t_star + 0.1
    np.testing.assert_array_equal(final[quiet], values0[quiet])
    u = vgrid.dxi * final.sum(axis=1)
    crossing = x[np.argmax(u < 0.0)]
    assert abs(crossing - delta) < 0.1


# -- random states and the study guard -------------------------------------

def test_random_coupled_state_deterministic_and_admissible():
    config = base()
    a = random_coupled_state(config, seed=7)
    b = random_coupled_state(config, seed=7)
    np.testing.assert_array_equal(a.kinetic.values, b.kinetic.values)
    np.testing.assert_array_equal(a.fluid.values, b.fluid.values)
    np.testing.assert_array_equal(a.far_left_inflow, b.far_left_inflow)
    c = random_coupled_state(config, seed=8)
    assert not np.array_equal(a.kinetic.values, c.kinetic.values)

    sign = np.where(a.kinetic.velocity.positive, 1.0, -1.0)
    signed = sign * a.kinetic.values
    assert signed.min() >= 0.0 and signed.max() <= 1.0
    assert np.abs(a.fluid.values).max() <= 0.85 * config.half_width + 1e-12
    assert not a.far_left_inflow[~a.kinetic.velocity.positive].any()


def test_replace_inflow_copies():
    config = base()
    state = random_coupled_state(config, seed=1)
    donor = random_coupled_state(config, seed=2)
    swapped = replace_inflow(state, donor.far_left_inflow)
    np.testing.assert_array_equal(swapped.far_left_inflow, donor.far_left_inflow)
    assert swapped.far_left_inflow is not donor.far_left_inflow
    assert replace_inflow(state, None).far_left_inflow is None


def test_convergence_study_needs_a_ladder():
    config = base(epsilons=(0.2, 0.1))
    with pytest.raises(ConfigError):
        run_convergence_study(config)


def test_convergence_study_workers_match_serial():
    # the process pool is imported only on this path
    config = base(scenario="relaxation", horizon=0.1)
    assert run_convergence_study(config, jobs=2).to_dict() == run_convergence_study(config).to_dict()


def test_steady_shock_ladder_errors_hold_their_recorded_values():
    # the eps ladder of criterion 8 on steady_shock (default eps 0.2, 0.1,
    # 0.05 at horizon 2).  A change of summation order in the kinetic
    # density moves these by about 2e-12 relative, so 1e-10 passes rounding
    # and catches any change in the numerics
    report = run_convergence_study(ScenarioConfig(scenario="steady_shock", horizon=2.0))
    recorded = {
        "kinetic_errors": [0.06984710664071307, 0.04878579299251299, 0.033023674070062035],
        "fluid_errors": [9.367342547469737e-05, 4.601426697748545e-05, 2.8245596580287468e-05],
        "negative_mass": [0.5258394424152829, 0.4621812708653119, 0.3376045379819119],
    }
    for name, values in recorded.items():
        np.testing.assert_allclose(getattr(report, name), values, rtol=1e-10, atol=0.0, err_msg=name)


def test_solve_full_epsilon_rejects_nonpositive_eps():
    with pytest.raises(ConfigError):
        solve_full_epsilon(base(), -0.1)


def test_build_coupled_initial_regions():
    config = base(scenario="steady_shock")
    state = build_coupled_initial(config)
    assert state.kinetic.space.x_max == 0.0
    assert state.fluid.grid.x_min == 0.0
    np.testing.assert_allclose(state.kinetic.densities(), config.u_plus, atol=1e-12)
    np.testing.assert_allclose(state.fluid.values, -config.u_plus, atol=1e-15)


def test_import_does_not_load_multiprocessing():
    # run_convergence_study imports its process pool only when jobs > 1
    src = str(Path(bgkcoupling.__file__).resolve().parents[1])
    code = "import sys, bgkcoupling; print('multiprocessing' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"
