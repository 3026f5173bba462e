"""Half-space layer solver: classification, exact profiles, monotone iteration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgkcoupling import (
    ConeError,
    DiscreteDistribution,
    LayerClass,
    LayerData,
    LayerGrid,
    VelocityGrid,
    back_flux,
    classify,
    confinement_norm,
    flux_moment,
    golse_iterate,
    maxwellian,
    maxwellian_values,
    relaxation_layer_profile,
    solve_layer,
    start_profile,
)
from bgkcoupling import coupling, milne
from bgkcoupling.experiments import (
    ScenarioConfig,
    build_coupled_initial,
    coupling_params_of,
    scenario_dt,
)
from bgkcoupling.milne import MAX_ITER, TOL_FIX, _weights

VG = VelocityGrid(1.0, 40)
GRID = LayerGrid(10.0, 200)


def half_range(values):
    return DiscreteDistribution(VG, np.where(VG.positive, values, 0.0))


def random_profile(rng, grid=GRID, vg=VG):
    raw = rng.uniform(0.0, 1.0, (grid.n_cells + 1, vg.n_cells))
    return np.where(vg.positive, raw, -raw)


def test_layer_data_validation():
    g = maxwellian(0.5, VG)
    with pytest.raises(ConeError):
        LayerData(0.7, g)  # above the largest flux the velocity interval carries
    with pytest.raises(ConeError):
        LayerData(-0.1, g)
    with pytest.raises(ConeError):
        LayerData(float("nan"), g)  # else classify would call it shock class
    bad = DiscreteDistribution(VG, maxwellian_values(-0.5, VG))
    with pytest.raises(ValueError):
        LayerData(0.1, bad)  # nonzero values on the incoming xi < 0 half


def test_classification_regimes():
    g = maxwellian(0.6, VG)
    v_in = flux_moment(g)
    assert classify(LayerData(v_in, g)) is LayerClass.RELAXATION
    assert classify(LayerData(v_in + 0.05, g)) is LayerClass.SHOCK
    with pytest.raises(ConeError):
        classify(LayerData(v_in - 0.05, g))


def test_golse_iterate_matches_sequential_recurrence():
    # oracle: the same exponential-integrator sweep written as an explicit
    # node-by-node loop
    rng = np.random.default_rng(0)
    data = LayerData(0.3, half_range(rng.uniform(0.0, 1.0, VG.n_cells)))
    values = random_profile(rng)
    out = golse_iterate(data, GRID, values)

    u = VG.dxi * values.sum(axis=1)
    src = np.array([maxwellian_values(float(ui), VG) for ui in u])
    dy = GRID.dy
    expect = np.empty_like(values)
    for j, xi in enumerate(VG.centers):
        h = dy / abs(xi)
        decay = np.exp(-h)
        a = -np.expm1(-h)
        w_far = 1.0 - a / h if xi > 0 else a / h - decay
        w_near = a - w_far
        if xi > 0:
            expect[0, j] = data.incoming.values[j]
            for k in range(GRID.n_cells):
                expect[k + 1, j] = decay * expect[k, j] + w_near * src[k, j] + w_far * src[k + 1, j]
        else:
            expect[-1, j] = src[-1, j]
            for k in range(GRID.n_cells - 1, -1, -1):
                expect[k, j] = decay * expect[k + 1, j] + w_near * src[k, j] + w_far * src[k + 1, j]
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_iterate_monotone_in_input():
    rng = np.random.default_rng(1)
    data = LayerData(0.3, half_range(rng.uniform(0.0, 0.9, VG.n_cells)))
    lo = random_profile(rng)
    hi = np.clip(lo + rng.uniform(0.0, 0.1, lo.shape), -1.0, 1.0)
    hi = np.where(VG.positive, np.clip(hi, 0.0, 1.0), np.clip(hi, -1.0, 0.0))
    lo = np.minimum(lo, hi)
    out_lo = golse_iterate(data, GRID, lo)
    out_hi = golse_iterate(data, GRID, hi)
    assert (out_hi - out_lo).min() >= -1e-12


def test_exact_relaxation_profile():
    g = maxwellian(0.6, VG)
    prof = solve_layer(LayerData(0.18, g), GRID)
    assert prof.classification is LayerClass.RELAXATION
    assert prof.u_infinity == pytest.approx(0.6, abs=1e-9)
    target = maxwellian_values(0.6, VG)
    worst = max(VG.dxi * np.abs(prof.values[k] - target).sum() for k in range(prof.values.shape[0]))
    assert worst < 1e-8
    assert prof.min_increment >= -1e-12


def test_exact_shock_profile():
    zero = DiscreteDistribution(VG, np.zeros(VG.n_cells))
    prof = solve_layer(LayerData(0.18, zero), GRID)
    assert prof.classification is LayerClass.SHOCK
    assert prof.u_infinity == pytest.approx(-0.6, abs=1e-12)
    target = maxwellian_values(-0.6, VG)
    worst = max(VG.dxi * np.abs(prof.values[k] - target).sum() for k in range(prof.values.shape[0]))
    assert worst < 1e-12  # the far equilibrium seed is already the solution


def test_flux_profile_constant():
    g = maxwellian(0.6, VG)
    prof = solve_layer(LayerData(0.18, g), GRID)
    dev = np.abs(prof.flux_profile() - 0.18).max()
    assert dev < 1e-6


def test_solver_independent_of_start():
    rng = np.random.default_rng(3)
    vals = np.zeros(VG.n_cells)
    vals[VG.positive] = 0.5
    data = LayerData(0.25, DiscreteDistribution(VG, vals))
    cold = solve_layer(data, GRID)
    warm = solve_layer(data, GRID, start=random_profile(rng))
    assert np.abs(cold.values - warm.values).max() < 1e-7


def test_solve_layer_never_writes_or_returns_the_start():
    # the solve reuses its own buffers across sweeps; the caller's warm-start
    # array must stay as it was and must not become the returned profile
    rng = np.random.default_rng(4)
    vals = np.zeros(VG.n_cells)
    vals[VG.positive] = 0.5
    data = LayerData(0.25, DiscreteDistribution(VG, vals))
    start = random_profile(rng)
    kept = start.copy()
    prof = solve_layer(data, GRID, start=start)
    assert prof.iterations > 2
    assert start.tobytes() == kept.tobytes()
    assert not np.shares_memory(prof.values, start)


def test_back_flux_halves():
    vals = np.zeros(VG.n_cells)
    vals[VG.positive] = 0.5
    relax = solve_layer(LayerData(0.25, DiscreteDistribution(VG, vals)), GRID)
    assert np.abs(back_flux(relax).values).max() == 0.0
    shock = solve_layer(LayerData(0.18, DiscreteDistribution(VG, np.zeros(VG.n_cells))), GRID)
    bf = back_flux(shock)
    assert np.all(bf.values[VG.positive] == 0.0)
    assert bf.values.min() < -0.9  # the returning stream carries the far state


def test_flux_defect_refines_with_dy():
    # the transport weights integrate a piecewise-linear-in-y source exactly,
    # so the flux constancy defect in the transition region should shrink at
    # roughly second order when the node spacing halves
    vals = np.zeros(VG.n_cells)
    vals[VG.positive] = 0.5
    data = LayerData(0.25, DiscreteDistribution(VG, vals))
    devs = []
    for n_y in (100, 200, 400):
        prof = solve_layer(data, LayerGrid(10.0, n_y))
        devs.append(np.abs(prof.flux_profile() - 0.25).max())
    assert devs[0] > devs[1] > devs[2]
    assert devs[0] / devs[1] > 2.5
    assert devs[1] / devs[2] > 2.5


def test_relaxation_march_matches_sweep():
    for u in (0.25, 0.6, 0.85):
        g = maxwellian(u, VG)
        data = LayerData(flux_moment(g), g)
        sweep = solve_layer(data, GRID)
        march = relaxation_layer_profile(data, GRID)
        assert march.classification is LayerClass.RELAXATION
        assert np.abs(sweep.values - march.values).max() < 1e-6
        assert np.all(march.values[:, ~VG.positive] == 0.0)


def test_march_equilibrium_is_the_positive_half_clip():
    # relaxation_layer_profile evaluates M(u) on xi > 0 through
    # maxwellian_values; that must be bitwise the elementwise clip the march
    # once computed by itself, so its profiles stay bitwise the same
    pos = VG.positive
    le_pos = VG.edges[:-1][pos]
    for u in np.concatenate((np.linspace(-0.1, 1.1, 241), VG.edges, [0.3 + 1e-15, 0.6 - 1e-16])):
        expected = np.clip((u - le_pos) / VG.dxi, 0.0, 1.0)
        assert maxwellian_values(u, VG)[pos].tobytes() == expected.tobytes()


def test_relaxation_march_rejects_shock_data():
    zero = DiscreteDistribution(VG, np.zeros(VG.n_cells))
    with pytest.raises(ValueError):
        relaxation_layer_profile(LayerData(0.18, zero), GRID)


def test_confinement_norm_decreases_with_distance():
    g = maxwellian(0.6, VG)
    prof = solve_layer(LayerData(0.18, g), GRID)
    # the exact equilibrium profile has essentially no excess mass anywhere
    assert confinement_norm(prof) < 1e-7


def test_start_profile_shapes():
    g = maxwellian(0.6, VG)
    relax_seed = start_profile(LayerData(0.18, g), LayerClass.RELAXATION, GRID)
    assert not relax_seed.any()
    shock_seed = start_profile(LayerData(0.18, g), LayerClass.SHOCK, GRID)
    np.testing.assert_array_equal(shock_seed[0], maxwellian_values(-0.6, VG))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    flux=st.floats(min_value=0.0, max_value=0.5),
)
def test_iterate_preserves_admissibility(seed, flux):
    rng = np.random.default_rng(seed)
    g = half_range(rng.uniform(0.0, 1.0, VG.n_cells))
    data = LayerData(max(flux, float(flux_moment(g))), g)
    out = golse_iterate(data, GRID, random_profile(rng))
    assert out[:, VG.positive].min() >= -1e-13
    assert out[:, VG.positive].max() <= 1.0 + 1e-13
    assert out[:, ~VG.positive].max() <= 1e-13
    assert out[:, ~VG.positive].min() >= -1.0 - 1e-13


def test_layer_weight_cache_is_bounded():
    limit = _weights.cache_info().maxsize
    data = LayerData(0.18, maxwellian(0.6, VG))
    for n in range(limit + 3):
        relaxation_layer_profile(data, LayerGrid(1.0, 10 + n))
    assert _weights.cache_info().currsize <= limit


def plain_sweep_reference(data, grid, tol_fix=TOL_FIX, start=None):
    """The plain monotone loop x <- G(x) that solve_layer runs unmixed.

    Returns (values, iterations, last_change, min_increment); min_increment
    is tracked from the cold seed only, as solve_layer does.
    """
    cold = start is None
    x = start_profile(data, classify(data), grid) if cold else np.array(start, dtype=float)
    min_increment = np.inf
    for iteration in range(1, MAX_ITER + 1):
        new = golse_iterate(data, grid, x)
        diff = new - x
        min_increment = min(min_increment, float(diff.min()))
        last_change = data.incoming.grid.dxi * float(np.abs(diff).sum(axis=1).max())
        x = new
        if last_change <= tol_fix:
            return x, iteration, last_change, min_increment if cold else float("nan")
    raise AssertionError("reference loop did not converge")


@pytest.fixture(scope="module")
def shock_warm_solve():
    """(data, start, grid) of the first warm layer solve of the shock scenario.

    Captured from coupling.coupled_step: step 0 solves cold, step 1 starts
    from step 0's profile, at a cone gap of about 0.055 (eta 0.1).
    """
    config = ScenarioConfig(scenario="shock", eta=0.1, horizon=0.5)
    params = coupling_params_of(config)
    dt, _ = scenario_dt(config)
    state = build_coupled_initial(config)
    captured = []

    def recording(data, **kwargs):
        captured.append((data, kwargs["start"]))
        return solve_layer(data, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coupling, "solve_layer", recording)
        for _ in range(2):
            state = coupling.coupled_step(state, dt, params)
    data, start = captured[1]
    assert classify(data) is LayerClass.SHOCK and start is not None
    return data, start, params


@pytest.mark.parametrize("u_in, flux", [(0.6, 0.18), (0.3, 0.18)])
def test_cold_solves_match_the_plain_loop_bitwise(u_in, flux):
    # M(0.6) carries flux 0.18 (relaxation class); M(0.3) carries 0.045, so
    # the same V makes a shock-class layer
    data = LayerData(flux, maxwellian(u_in, VG))
    prof = solve_layer(data, GRID)
    values, iterations, last_change, min_increment = plain_sweep_reference(data, GRID)
    assert prof.iterations == iterations > 1
    assert prof.values.tobytes() == values.tobytes()
    assert prof.last_change == last_change
    assert prof.min_increment == min_increment >= -1e-12


def test_warm_relaxation_solve_matches_the_plain_loop_bitwise():
    rng = np.random.default_rng(5)
    vals = np.zeros(VG.n_cells)
    vals[VG.positive] = 0.5
    data = LayerData(0.25, DiscreteDistribution(VG, vals))
    start = random_profile(rng)
    prof = solve_layer(data, GRID, start=start)
    values, iterations, last_change, _ = plain_sweep_reference(data, GRID, start=start)
    assert prof.iterations == iterations
    assert prof.values.tobytes() == values.tobytes()
    assert prof.last_change == last_change


def test_warm_shock_solve_is_mixed_and_as_accurate(shock_warm_solve):
    data, start, grid = shock_warm_solve
    # Sup error bound against a tight solve: the plain loop stopped at
    # tol_fix = 1e-8 lands within 3e-6 of it here, and the mixed solve must
    # meet the same 1e-5.
    bound = 1e-5
    tight = solve_layer(data, grid, tol_fix=1e-13).values
    plain, plain_iterations, _, _ = plain_sweep_reference(data, grid, start=start)
    mixed = solve_layer(data, grid, start=start)
    assert np.abs(plain - tight).max() <= bound
    assert np.abs(mixed.values - tight).max() <= bound
    assert mixed.iterations < plain_iterations / 3
    assert mixed.last_change <= TOL_FIX
    # the returned profile is a sweep output, so it is admissible to the
    # sweep's rounding (as in test_iterate_preserves_admissibility)
    pos = data.incoming.grid.positive
    assert mixed.values[:, pos].min() >= -1e-13 and mixed.values[:, pos].max() <= 1.0 + 1e-13
    assert mixed.values[:, ~pos].max() <= 1e-13 and mixed.values[:, ~pos].min() >= -1.0 - 1e-13


def test_iterations_count_sweep_calls(shock_warm_solve, monkeypatch):
    data, start, grid = shock_warm_solve
    calls = []
    sweep = milne.golse_iterate

    def counted(*args, **kwargs):
        calls.append(args[2].shape)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(milne, "golse_iterate", counted)
    for warm in (start, None):
        calls.clear()
        prof = solve_layer(data, grid, start=warm)
        assert len(calls) == prof.iterations
        assert set(calls) == {start.shape}


def test_mixed_solve_aliases_neither_start_nor_previous_profile(shock_warm_solve):
    data, start, grid = shock_warm_solve
    kept = start.copy()
    first = solve_layer(data, grid, start=start)
    second = solve_layer(data, grid, start=first.values)
    assert first.iterations > 2
    assert start.tobytes() == kept.tobytes()
    assert not np.shares_memory(first.values, start)
    assert not np.shares_memory(second.values, first.values)
    # the profile owns its array, so a kept layer holds none of the solve's buffers
    assert first.values.base is None and second.values.base is None
