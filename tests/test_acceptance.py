"""Acceptance checks, one test per criterion, each printing a PASS/FAIL line.

Settings mirror the experiments defaults; tolerances are stated inline next
to each check.  Run with -s to see the per-criterion lines directly.
"""

import hashlib

import numpy as np
import pytest

from bgkcoupling import (
    DiscreteDistribution,
    InflowBoundary,
    KineticField,
    LayerData,
    LayerGrid,
    SpaceGrid,
    VelocityGrid,
    confinement_norm,
    density_moment,
    entropy_defect_cumulative,
    flux_moment,
    l1_distance,
    maxwellian,
    maxwellian_values,
    outgoing_trace,
    solve_layer,
    state_distance,
)
from bgkcoupling.coupling import coupled_step, naive_coupled_step, run_coupled
from bgkcoupling.errors import AdmissibilityError, BlnError, CflError, ConeError, ConvergenceError
from bgkcoupling.experiments import (
    ScenarioConfig,
    build_coupled_initial,
    coupling_params_of,
    run_convergence_study,
    scenario_dt,
    stability_study,
)
from bgkcoupling.kinetic import StiffnessProfile, duhamel_trace_oracle, run_with_history
from bgkcoupling.milne import back_flux
from bgkcoupling.velocity import flux_of, indicator_cell_average, indicator_cell_flux, maxwellian_table

VG = VelocityGrid(1.0, 80)
LAYER_GRID = LayerGrid(20.0, 400)


def line(n, ok):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok


def slice_l1(values, reference, grid):
    return grid.dxi * np.abs(values - reference).sum(axis=-1)


def test_criterion_01_maxwellian_moments():
    rng = np.random.default_rng(11)
    ok = True
    for u in rng.uniform(-1.0, 1.0, 100):
        m = maxwellian(float(u), VG)
        ok &= abs(density_moment(m) - u) <= 1e-12
        ok &= abs(flux_moment(m) - 0.5 * u * u) <= 1e-12
    line(1, ok)


def test_criterion_02_entropy_defect():
    rng = np.random.default_rng(12)
    sign = np.where(VG.positive, 1.0, -1.0)
    ok = True
    for _ in range(1000):
        dist = DiscreteDistribution(VG, sign * rng.uniform(0.0, 1.0, VG.n_cells))
        h = entropy_defect_cumulative(dist)
        ok &= h.min() >= -1e-10
        ok &= abs(h[0]) <= 1e-10 and abs(h[-1]) <= 1e-10
    line(2, ok)


def test_criterion_03_exact_layer_solutions():
    relax = solve_layer(LayerData(0.18, maxwellian(0.6, VG)), LAYER_GRID)
    eq = maxwellian_values(0.6, VG)
    ok = relax.classification.value == "relaxation"
    ok &= float(slice_l1(relax.values, eq, VG).max()) <= 1e-8
    ok &= float(np.abs(relax.flux_profile() - 0.18).max()) <= 1e-6

    shock = solve_layer(
        LayerData(0.18, DiscreteDistribution(VG, np.zeros(VG.n_cells))), LAYER_GRID
    )
    ghost = maxwellian_values(-0.6, VG)
    ok &= shock.classification.value == "shock"
    ok &= float(slice_l1(shock.values, ghost, VG).max()) <= 1e-8
    ok &= float(np.abs(shock.flux_profile() - 0.18).max()) <= 1e-6
    line(3, ok)


def indicator_half_height():
    values = 0.5 * indicator_cell_average(0.0, 1.0, VG)
    exact_flux = 0.5 * float(indicator_cell_flux(0.0, 1.0, VG).sum())
    return DiscreteDistribution(VG, values, exact_flux - flux_of(values, VG))


def test_criterion_04_nontrivial_relaxation_layer():
    data = LayerData(0.25, indicator_half_height())
    profile = solve_layer(data, LAYER_GRID)
    ok = profile.classification.value == "relaxation"
    ok &= profile.min_increment >= -1e-12
    back = back_flux(profile)
    ok &= VG.dxi * float(np.abs(back.values).sum()) <= 1e-8
    far = DiscreteDistribution(VG, profile.values[-1])
    ok &= l1_distance(far, maxwellian(np.sqrt(0.5), VG)) <= 1e-3
    c_near = confinement_norm(profile)
    c_far = confinement_norm(solve_layer(data, LayerGrid(40.0, 800)))
    ok &= abs(c_far - c_near) <= 0.05 * max(c_near, 1e-300)
    line(4, ok)


def test_criterion_05_no_shock_profile_from_equilibrium_data():
    ok = True
    for u_plus in (0.3, 0.6, 0.9):
        profile = solve_layer(LayerData(0.5 * u_plus**2, maxwellian(u_plus, VG)), LAYER_GRID)
        far = DiscreteDistribution(VG, profile.values[-1])
        ok &= l1_distance(far, maxwellian(u_plus, VG)) <= 1e-3
        ok &= profile.classification.value == "relaxation"
    line(5, ok)


def test_criterion_06_coupled_steady_states():
    ok = True
    for scenario in ("equilibrium", "steady_shock"):
        config = ScenarioConfig(scenario=scenario)
        state = build_coupled_initial(config)
        params = coupling_params_of(config)
        dt, _ = scenario_dt(config)
        worst = 0.0
        for _ in range(1000):
            new = coupled_step(state, dt, params)
            worst = max(worst, state_distance(new, state))
            state = new
        ok &= worst <= 1e-12
    line(6, ok)


def test_criterion_07_l1_contraction():
    config = ScenarioConfig(scenario="relaxation", horizon=1.0)
    ok = True
    for pair_seed in range(5):
        report = stability_study(config, pair_seed=pair_seed, slack=0.05)
        ok &= report.ok
    line(7, ok)


def test_criterion_08_hydrodynamic_limit_ladder():
    # horizon 2.0 lets the slowest family reach its asymptotic regime on the
    # default domain; the ladder refines dx with eps (experiments._run_scale)
    ok = True
    for scenario in ("steady_shock", "shock"):
        report = run_convergence_study(ScenarioConfig(scenario=scenario, horizon=2.0))
        ok &= report.monotone["kinetic"] and report.monotone["fluid"]
        if scenario == "shock":
            ok &= report.monotone["layer"]
        else:
            ok &= report.monotone["negative_mass"]
    line(8, ok)


def test_criterion_09_coupling_mode_comparison():
    solver_errors = (ConvergenceError, ConeError, BlnError, CflError, AdmissibilityError)

    config = ScenarioConfig(scenario="relaxation", horizon=1.0)
    dt, n_steps = scenario_dt(config)
    tol_iface = 5.0 * (config.full_grid().dx + dt)
    params = coupling_params_of(config)
    limit, _ = run_coupled(build_coupled_initial(config), dt, n_steps, params, mode="limit")
    naive, _ = run_coupled(build_coupled_initial(config), dt, n_steps, params, mode="naive")
    ok = state_distance(limit, naive) <= 10.0 * tol_iface

    config_s = ScenarioConfig(scenario="steady_shock", horizon=1.0)
    dt_s, n_s = scenario_dt(config_s)
    limit_s, _ = run_coupled(
        build_coupled_initial(config_s), dt_s, n_s, coupling_params_of(config_s), mode="limit"
    )
    nav = build_coupled_initial(config_s)
    diverged = False
    try:
        for _ in range(n_s):
            nav = naive_coupled_step(nav, dt_s)
    except solver_errors:
        diverged = True  # finite-time breakdown counts as maximal divergence
    if not diverged:
        diverged = state_distance(limit_s, nav) > 10.0 * tol_iface
    ok &= diverged
    line(9, ok)


def duhamel_trace_and_oracle(n_x, dt, n_steps):
    sgrid = SpaceGrid(-2.0, 0.0, n_x)
    vgrid = VelocityGrid(1.0, 40)
    u0 = 0.4 + 0.2 * np.sin(np.pi * (sgrid.centers + 1.0))
    field = KineticField(sgrid, vgrid, 0.7 * maxwellian_table(u0, vgrid))
    left = np.where(vgrid.positive, maxwellian_values(0.5, vgrid), 0.0)
    bc = InflowBoundary(left=left, right=np.zeros(vgrid.n_cells))
    # the oracle reads the density of every step from its snapshot
    history = run_with_history(
        field, bc, StiffnessProfile.uniform(sgrid, 1.0), dt, n_steps, snapshot_times=dt * np.arange(n_steps + 1)
    )
    t = n_steps * dt
    trace = outgoing_trace(history.final)
    oracle = duhamel_trace_oracle(history, t, inflow_left=left)
    return trace, oracle


def duhamel_discrepancy(n_x, dt, n_steps):
    return l1_distance(*duhamel_trace_and_oracle(n_x, dt, n_steps))


def test_criterion_10_duhamel_refinement():
    coarse = duhamel_discrepancy(100, 0.005, 50)
    fine = duhamel_discrepancy(200, 0.0025, 100)
    ratio = fine / coarse
    ok = 0.4 <= ratio <= 0.6
    line(10, ok)


@pytest.mark.parametrize(
    "n_x, dt, n_steps, sha256, discrepancy",
    [
        (100, 0.005, 50, "e5a482484fbab7d91d913b4053b58fa242c0e53af0299ea024fb6dfbf6bb402d", 0.010055539365806228),
        (200, 0.0025, 100, "04d983c4126a7fefaf285d35e87a5cba25efe2c1039b607fe5c5c0f8416c989d", 0.004758744647400966),
    ],
)
def test_criterion_10_oracle_bits_pinned(n_x, dt, n_steps, sha256, discrepancy):
    # pinned from the oracle that read a per-step density array: reading the
    # densities from per-step snapshots must give the same bits.  The 200-cell
    # pin is from the kernel that sums each density over its velocity rows in
    # order.
    trace, oracle = duhamel_trace_and_oracle(n_x, dt, n_steps)
    assert hashlib.sha256(oracle.values.tobytes()).hexdigest() == sha256
    assert l1_distance(trace, oracle) == discrepancy
