"""Interface exchange: limit marcher, naive marcher, stability machinery."""

import numpy as np
import pytest

from bgkcoupling import (
    CflError,
    ConvergenceError,
    LayerClass,
    LayerData,
    ConeError,
    CoupledState,
    FluidField,
    KineticField,
    LayerGrid,
    SpaceGrid,
    VelocityGrid,
    contraction_check,
    coupled_step,
    l1_fluid_distance,
    maxwellian_values,
    naive_coupled_step,
    outgoing_trace,
    relaxation_layer_profile,
    run_coupled,
    solve_layer,
    state_distance,
)
from bgkcoupling import coupling, kinetic
from bgkcoupling.experiments import (
    ScenarioConfig,
    build_coupled_initial,
    coupling_params_of,
    scenario_dt,
)
from bgkcoupling.milne import TOL_FIX
from test_kinetic import count_transports
from test_milne import plain_sweep_reference
from bgkcoupling.velocity import maxwellian_table


def small_config(**kw):
    base = dict(
        n_xi=40,
        x_min=-1.0,
        x_max=1.0,
        n_x=80,
        horizon=0.2,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def march(config, n_steps, mode="limit"):
    state = build_coupled_initial(config)
    dt, _ = scenario_dt(config)
    return run_coupled(state, dt, n_steps, coupling_params_of(config), mode=mode)


def test_steady_shock_is_bitwise_fixed_point():
    config = small_config(scenario="steady_shock")
    start = build_coupled_initial(config)
    final, _ = march(config, 50)
    np.testing.assert_array_equal(final.kinetic.values, start.kinetic.values)
    np.testing.assert_array_equal(final.fluid.values, start.fluid.values)


def test_equilibrium_is_fixed_point():
    config = small_config(scenario="equilibrium")
    start = build_coupled_initial(config)
    final, _ = march(config, 50)
    np.testing.assert_array_equal(final.kinetic.values, start.kinetic.values)
    assert np.abs(final.fluid.values - start.fluid.values).max() < 1e-13


def test_relaxation_family_naive_agrees_with_limit():
    # while the fluid trace stays on the inflow branch the two couplings
    # exchange identical fluxes
    config = small_config(scenario="relaxation")
    dt, n_steps = scenario_dt(config)
    state = build_coupled_initial(config)
    params = coupling_params_of(config)
    limit, _ = run_coupled(state.copy(), dt, n_steps, params, mode="limit")
    naive, _ = run_coupled(state.copy(), dt, n_steps, params, mode="naive")
    assert state_distance(limit, naive) < 1e-12


def test_naive_steady_shock_blows_up():
    config = small_config(scenario="steady_shock")
    dt, _ = scenario_dt(config)
    state = build_coupled_initial(config)
    with pytest.raises(CflError):
        for _ in range(400):
            state = naive_coupled_step(state, dt)


def test_naive_failure_keeps_march_prefix():
    config = small_config(scenario="steady_shock")
    dt, _ = scenario_dt(config)
    params = coupling_params_of(config)
    with pytest.raises(CflError) as caught:
        run_coupled(build_coupled_initial(config), dt, 400, params, mode="naive", log_every=2)
    prefix = caught.value.march_prefix

    state = build_coupled_initial(config)
    snapshots = [state]
    for n in range(400):
        try:
            following = naive_coupled_step(state, dt)
        except CflError as exc:
            assert str(exc) == str(caught.value)
            break
        state = following
        if (n + 1) % 2 == 0:
            snapshots.append(state)
    assert prefix.failed_step == n
    assert prefix.failed_time == n * dt
    assert len(prefix.state.trace_log) == n
    np.testing.assert_array_equal(prefix.state.kinetic.values, state.kinetic.values)
    np.testing.assert_array_equal(prefix.state.fluid.values, state.fluid.values)
    assert len(prefix.snapshots) == len(snapshots)
    for snap, expected in zip(prefix.snapshots, snapshots):
        assert snap.time == expected.kinetic.time
        np.testing.assert_array_equal(snap.kinetic_values, expected.kinetic.values)
        np.testing.assert_array_equal(snap.fluid_values, expected.fluid.values)


def assert_same_state(a: CoupledState, b: CoupledState):
    assert a.kinetic.time == b.kinetic.time
    for x, y in (
        (a.kinetic.values, b.kinetic.values),
        (a.fluid.values, b.fluid.values),
        (a.far_left_inflow, b.far_left_inflow),
        (a.layer.values, b.layer.values),
        (a.previous_layer_values, b.previous_layer_values),
    ):
        assert x.tobytes() == y.tobytes()
    assert len(a.trace_log) == len(b.trace_log)
    for r, s in zip(a.trace_log, b.trace_log):
        assert r.back_flux_values.tobytes() == s.back_flux_values.tobytes()
        assert (r.time, r.u_trace, r.layer_flux, r.layer_iterations) == (s.time, s.u_trace, s.layer_flux, s.layer_iterations)


def test_limit_failure_keeps_march_prefix(monkeypatch):
    # every step of this march is shock class; the solve of step 3 raises,
    # after the kept kinetic kernel has taken three steps
    failing_step = 3
    config = small_config(scenario="shock")
    dt, _ = scenario_dt(config)
    params = coupling_params_of(config)
    solves = []

    def failing(data, **kwargs):
        solves.append(data)
        if len(solves) == failing_step + 1:
            raise ConvergenceError("stopped on purpose")
        return solve_layer(data, **kwargs)

    monkeypatch.setattr(coupling, "solve_layer", failing)
    with pytest.raises(ConvergenceError) as caught:
        run_coupled(build_coupled_initial(config), dt, 10, params, log_every=2)
    prefix = caught.value.march_prefix

    solves.clear()
    state = build_coupled_initial(config)
    snapshots = [state]
    for n in range(10):
        try:
            following = coupled_step(state, dt, params)
        except ConvergenceError:
            break
        state = following
        if (n + 1) % 2 == 0:
            snapshots.append(state)
    assert n == failing_step
    assert (prefix.failed_step, prefix.failed_time) == (n, n * dt)
    assert [r.layer_class for r in state.trace_log] == ["shock"] * n
    assert_same_state(prefix.state, state)
    assert len(prefix.snapshots) == len(snapshots) == 2
    for snap, expected in zip(prefix.snapshots, snapshots):
        assert snap.time == expected.kinetic.time
        assert snap.kinetic_values.tobytes() == expected.kinetic.values.tobytes()
        assert snap.fluid_values.tobytes() == expected.fluid.values.tobytes()


@pytest.mark.parametrize("mode", ["limit", "naive"])
def test_one_kinetic_kernel_set_up_per_march(mode, monkeypatch):
    set_ups = []
    set_up = kinetic._March.__init__

    def counted(self, field, *args):
        set_ups.append(field.time)
        set_up(self, field, *args)

    monkeypatch.setattr(kinetic._March, "__init__", counted)
    config = small_config(scenario="relaxation")
    dt, _ = scenario_dt(config)
    state = build_coupled_initial(config)
    final, _ = run_coupled(state, dt, 6, coupling_params_of(config), mode=mode, log_every=2)
    assert len(final.trace_log) == 6
    assert set_ups == [0.0]
    # a plain step sets up a kernel of its own
    coupled_step(final, dt, coupling_params_of(config)) if mode == "limit" else naive_coupled_step(final, dt)
    assert set_ups == [0.0, final.kinetic.time]


@pytest.mark.parametrize(
    "scenario, u_plus, static",
    [
        ("equilibrium", 0.6, True),
        ("relaxation", 0.6, True),
        ("steady_shock", 0.6, True),
        # off a velocity-cell edge the state drifts (ROADMAP item 1), so no step repeats
        ("equilibrium", 0.61, False),
    ],
)
def test_static_coupled_march_is_a_loop_of_single_steps(scenario, u_plus, static, monkeypatch):
    config = small_config(scenario=scenario, u_plus=u_plus)
    dt, _ = scenario_dt(config)
    params = coupling_params_of(config)
    n_steps = 30
    loop = [build_coupled_initial(config)]
    for _ in range(n_steps):
        loop.append(coupled_step(loop[-1], dt, params))
    calls = count_transports(monkeypatch)
    final, snapshots = run_coupled(build_coupled_initial(config), dt, n_steps, params, log_every=1)
    assert len(calls) < n_steps if static else len(calls) == n_steps
    assert len(snapshots) == len(loop)
    for snap, expected in zip(snapshots, loop):
        assert snap.time == expected.kinetic.time
        assert snap.kinetic_values.tobytes() == expected.kinetic.values.tobytes()
        assert snap.fluid_values.tobytes() == expected.fluid.values.tobytes()
    assert final.kinetic.time == loop[-1].kinetic.time
    assert final.kinetic.values.tobytes() == loop[-1].kinetic.values.tobytes()
    assert list(map(record_bits, final.trace_log)) == list(map(record_bits, loop[-1].trace_log))


def record_bits(record) -> list:
    """Every field of an InterfaceRecord, arrays as bytes and the rest by repr (so -0.0 is not 0.0)."""
    return [v.tobytes() if isinstance(v, np.ndarray) else repr(v) for v in vars(record).values()]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: the free far closure accepts a warm start from a "
    "relaxation-class profile as a shock-class fixed point",
)
def test_shock_steps_after_relaxation_steps_return_the_shock_structure():
    # The relaxation scenario with the fluid at -0.7 beyond its first cell:
    # steps 15-39 are shock class.  Today each of them stops after 1 sweep
    # with an all-zero returning slice and interface_defect up to 0.065, and
    # the final layer's far node density is +0.6 while u_infinity is -0.7.
    config = ScenarioConfig(scenario="relaxation")
    state = build_coupled_initial(config)
    state.fluid.values[1:] = -0.7
    dt, _ = scenario_dt(config)
    final, _ = run_coupled(state, dt, 40, coupling_params_of(config))
    shock_steps = [r for r in final.trace_log if r.layer_class == "shock"]
    layer = final.layer
    assert shock_steps and layer.classification is LayerClass.SHOCK
    # the paper's shock-class layer: the far state at u_infinity, and a
    # returning slice that is not zero
    assert abs(layer.velocity.dxi * layer.values[-1].sum() - layer.u_infinity) <= 1e-6
    for r in shock_steps:
        assert np.any(r.back_flux_values != 0.0)


def test_warm_start_matches_cold_start(monkeypatch):
    config = small_config(scenario="shock")
    dt, _ = scenario_dt(config)
    params = coupling_params_of(config)
    warm, _ = run_coupled(build_coupled_initial(config), dt, 20, params)
    cold_solves = []

    def cold(data, *, start, **kwargs):
        cold_solves.append(start is not None)
        return solve_layer(data, **kwargs)

    monkeypatch.setattr(coupling, "solve_layer", cold)
    cold_march, _ = run_coupled(build_coupled_initial(config), dt, 20, params)
    # the march offered a start to every solve but the first, and none was used
    assert cold_solves == [False] + [True] * 19
    assert state_distance(warm, cold_march) < 1e-7


def test_warm_start_leaves_the_previous_layer_unchanged():
    # the second step's solve starts from the first step's layer; its reused
    # sweep buffers must not write into that profile
    config = small_config(scenario="shock")
    dt, _ = scenario_dt(config)
    params = coupling_params_of(config)
    first, _ = run_coupled(build_coupled_initial(config), dt, 1, params)
    kept = first.layer.values.copy()
    second, _ = run_coupled(first, dt, 1, params)
    assert [r.layer_class for r in second.trace_log] == ["shock", "shock"]
    assert second.trace_log[-1].layer_iterations > 2
    assert first.layer.values.tobytes() == kept.tobytes()
    assert not np.shares_memory(second.layer.values, first.layer.values)


def record_solves(monkeypatch) -> list:
    """Record (data, a copy of start, returned profile) of every coupled_step layer solve."""
    solves = []

    def recording(data, **kwargs):
        start = kwargs["start"]
        profile = solve_layer(data, **kwargs)
        solves.append((data, None if start is None else start.copy(), profile))
        return profile

    monkeypatch.setattr(coupling, "solve_layer", recording)
    return solves


def extrapolated(state: CoupledState) -> np.ndarray:
    return 2.0 * state.layer.values - state.previous_layer_values


def held_layers(state: CoupledState) -> list:
    """The layer arrays a state keeps: its layer's values and the one before."""
    arrays = [] if state.layer is None else [state.layer.values]
    if state.previous_layer_values is not None:
        arrays.append(state.previous_layer_values)
    return arrays


def test_extrapolated_start_follows_two_shock_steps(monkeypatch):
    solves = record_solves(monkeypatch)
    config = small_config(scenario="shock")
    dt, _ = scenario_dt(config)
    params = coupling_params_of(config)
    state = build_coupled_initial(config)
    for n in range(5):
        before = state
        kept = [a.copy() for a in held_layers(before)]
        state = coupled_step(before, dt, params)
        start = solves[-1][1]
        if n == 0:
            assert start is None and state.previous_layer_values is None
        elif n == 1:
            # one shock step behind: the plain warm start
            assert start.tobytes() == before.layer.values.tobytes()
            assert state.previous_layer_values is before.layer.values
        else:
            assert start.tobytes() == extrapolated(before).tobytes()
            assert start.tobytes() != before.layer.values.tobytes()
            assert state.previous_layer_values is before.layer.values
        # the two previous layers are read, never written, and the new one owns its array
        assert [a.tobytes() for a in held_layers(before)] == [a.tobytes() for a in kept]
        assert not any(np.shares_memory(state.layer.values, a) for a in held_layers(before))
    assert [r.layer_class for r in state.trace_log] == ["shock"] * 5
    assert state.copy().previous_layer_values is state.previous_layer_values


def test_relaxation_step_resets_the_extrapolated_start(monkeypatch):
    solves = record_solves(monkeypatch)
    calls = count_marches(monkeypatch)
    config = small_config(scenario="shock")
    dt, _ = scenario_dt(config)
    params = coupling_params_of(config)
    state, _ = run_coupled(build_coupled_initial(config), dt, 3, params)
    assert state.previous_layer_values is not None
    # a resting fluid takes less than the kinetic outflux: V is projected
    # onto flux(g), and the step is relaxation class
    state.fluid = FluidField(state.fluid.grid, np.zeros_like(state.fluid.values))
    relaxed = coupled_step(state, dt, params)
    assert relaxed.trace_log[-1].layer_class == "relaxation"
    assert relaxed.previous_layer_values is None
    # a fluid flowing toward the interface makes the next steps shock class
    relaxed.fluid = FluidField(relaxed.fluid.grid, np.full_like(relaxed.fluid.values, -0.7))
    first = coupled_step(relaxed, dt, params)
    assert solves[-1][1].tobytes() == relaxed.layer.values.tobytes()
    assert first.previous_layer_values is None
    second = coupled_step(first, dt, params)
    assert solves[-1][1].tobytes() == first.layer.values.tobytes()
    third = coupled_step(second, dt, params)
    assert solves[-1][1].tobytes() == extrapolated(second).tobytes()
    assert [r.layer_class for r in third.trace_log[-3:]] == ["shock"] * 3
    assert len(calls) == 1   # the relaxation layer, read as the first warm start


@pytest.fixture(scope="module")
def shock_march_solves():
    """Every layer solve of the shock scenario at eta 0.1, horizon 0.5, and the final state."""
    config = ScenarioConfig(scenario="shock", eta=0.1, horizon=0.5)
    dt, n_steps = scenario_dt(config)
    params = coupling_params_of(config)
    with pytest.MonkeyPatch.context() as mp:
        solves = record_solves(mp)
        final, _ = run_coupled(build_coupled_initial(config), dt, n_steps, params)
    assert len(solves) == n_steps
    return solves, final, params


def test_extrapolated_shock_solves_are_as_accurate(shock_march_solves):
    # Sup error bound against a tight cold solve, as in
    # test_warm_shock_solve_is_mixed_and_as_accurate: the stop test bounds
    # the change of one sweep, not the error, so the bound is checked per start.
    solves, _, params = shock_march_solves
    for n, (data, start, profile) in enumerate(solves[:30]):
        assert (start is None) == (n == 0)
        tight, _, _, _ = plain_sweep_reference(data, params, tol_fix=1e-13)
        assert np.abs(profile.values - tight).max() <= 1e-5, f"step {n}"


def test_shock_march_ends_on_the_far_state(shock_march_solves):
    # the benchmark's shock check: V is constant, so the extrapolated far
    # rows stay exact (2a - a == a) and the last node holds -sqrt(2V)
    _, final, _ = shock_march_solves
    layer = final.layer
    flux = final.trace_log[-1].layer_flux
    assert layer.classification is LayerClass.SHOCK
    assert abs(layer.velocity.dxi * layer.values[-1].sum() + np.sqrt(2.0 * flux)) <= 1e-10


def test_shock_family_record_contents():
    config = small_config(scenario="shock")
    final, _ = march(config, 20)
    records = final.trace_log
    assert len(records) == 20
    assert all(r.layer_class == "shock" for r in records)
    for r in records:
        assert r.layer_flux >= r.flux_out - 1e-10
        assert r.layer_flux >= 0.5 * r.u_trace**2 - 1e-10
        assert r.cone_defect >= 0.0
        assert r.interface_defect < 5e-3
        assert r.layer_residual < TOL_FIX * 1.01
        assert r.back_flux_values is not None
        vgrid = final.kinetic.velocity
        back = r.back_flux_values
        assert np.all(back[vgrid.positive] == 0.0)
        # sign convention: 0 <= sign(xi) f <= 1, so the returning half is in [-1, 0]
        assert np.all(back[~vgrid.positive] <= 1e-15)
        assert np.all(back[~vgrid.positive] >= -1.0 - 1e-15)


def count_marches(monkeypatch) -> list:
    """Record every call coupled_step's layers make to the relaxation march."""
    calls = []

    def counted(*args):
        calls.append(args)
        return relaxation_layer_profile(*args)

    monkeypatch.setattr(coupling, "relaxation_layer_profile", counted)
    return calls


def test_relaxation_steps_do_not_march_the_layer(monkeypatch):
    calls = count_marches(monkeypatch)
    config = small_config(scenario="steady_shock")
    final, _ = march(config, 20)
    assert all(r.layer_class == "relaxation" for r in final.trace_log)
    assert all(r.layer_iterations == 0 and r.layer_residual == 0.0 for r in final.trace_log)
    assert all(np.all(r.back_flux_values == 0.0) for r in final.trace_log)
    final.copy()
    assert final.layer.classification is LayerClass.RELAXATION
    assert calls == []


def eager_relaxation_layer(before: CoupledState, after: CoupledState, layer_grid):
    """March the layer of the relaxation-class step from before to after."""
    data = LayerData(after.trace_log[-1].layer_flux, outgoing_trace(before.kinetic))
    return relaxation_layer_profile(data, layer_grid)


def test_deferred_relaxation_layer_matches_eager_march(monkeypatch):
    calls = count_marches(monkeypatch)
    config = small_config(scenario="relaxation")
    state = build_coupled_initial(config)
    dt, _ = scenario_dt(config)
    params = coupling_params_of(config)
    stepped = coupled_step(state, dt, params)
    eager = eager_relaxation_layer(state, stepped, params)
    assert stepped.layer.values.tobytes() == eager.values.tobytes()
    assert stepped.layer.u_infinity == eager.u_infinity
    stepped.copy().layer.values
    assert len(calls) == 1   # marched once, on the first read, and kept


def test_warm_start_after_relaxation_step_reads_the_same_profile(monkeypatch):
    # a relaxation-class step followed by a shock-class one: the warm start
    # of the shock solve reads the deferred profile
    calls = count_marches(monkeypatch)
    config = small_config(scenario="relaxation")
    dt, _ = scenario_dt(config)
    params = coupling_params_of(config)
    initial = build_coupled_initial(config)
    relaxed = coupled_step(initial, dt, params)
    assert relaxed.trace_log[-1].layer_class == "relaxation"
    # a fluid state flowing toward the interface lifts V above flux(g)
    relaxed.fluid = FluidField(relaxed.fluid.grid, np.full_like(relaxed.fluid.values, -0.7))
    eager = relaxed.copy()
    eager.layer = eager_relaxation_layer(initial, relaxed, params)

    deferred_next = coupled_step(relaxed, dt, params)
    eager_next = coupled_step(eager, dt, params)
    assert deferred_next.trace_log[-1].layer_class == "shock"
    assert len(calls) == 1
    for a, b in (
        (deferred_next.kinetic.values, eager_next.kinetic.values),
        (deferred_next.fluid.values, eager_next.fluid.values),
        (deferred_next.layer.values, eager_next.layer.values),
        (deferred_next.trace_log[-1].back_flux_values, eager_next.trace_log[-1].back_flux_values),
    ):
        assert a.tobytes() == b.tobytes()
    assert deferred_next.trace_log[-1].layer_iterations == eager_next.trace_log[-1].layer_iterations


def test_cone_projection_and_guard():
    # equilibrium at 0.8 facing a zero fluid state: the outgoing flux exceeds
    # what the first-cell trace can carry, so the layer flux is lifted onto
    # the cone; a fluid trace faster than the velocity interval carries a
    # flux beyond its largest, and the layer data rejects it
    vgrid = VelocityGrid(1.0, 40)
    kgrid = SpaceGrid(-1.0, 0.0, 40)
    fgrid = SpaceGrid(0.0, 1.0, 40)
    kin = KineticField(kgrid, vgrid, maxwellian_table(np.full(40, 0.8), vgrid))
    fluid = FluidField(fgrid, np.zeros(40))
    inflow = np.where(vgrid.positive, maxwellian_values(0.8, vgrid), 0.0)
    state = CoupledState(kin, fluid, far_left_inflow=inflow)

    stepped = coupled_step(state.copy(), 0.01, LayerGrid(10.0, 200))
    record = stepped.trace_log[-1]
    assert record.cone_defect > 0.1
    assert record.layer_flux == pytest.approx(record.flux_out, abs=1e-14)

    state.fluid = FluidField(fgrid, np.full(40, -1.2))
    with pytest.raises(ConeError):
        coupled_step(state, 0.01, LayerGrid(10.0, 200))


def test_snapshot_cadence():
    config = small_config(scenario="relaxation")
    state = build_coupled_initial(config)
    dt, _ = scenario_dt(config)
    params = coupling_params_of(config)
    _, snaps = run_coupled(state, dt, 12, params, log_every=5)
    times = [s.time for s in snaps]
    assert times == pytest.approx([0.0, 5 * dt, 10 * dt, 12 * dt], abs=1e-14)


def test_run_coupled_rejects_unknown_mode():
    config = small_config()
    state = build_coupled_initial(config)
    with pytest.raises(ValueError):
        run_coupled(state, 0.01, 1, coupling_params_of(config), mode="hybrid")


def test_state_distance_splits_by_region():
    config = small_config()
    a = build_coupled_initial(config)
    b = a.copy()
    assert state_distance(a, b) == 0.0
    b.fluid = FluidField(b.fluid.grid, b.fluid.values + 0.1)
    assert state_distance(a, b) == pytest.approx(l1_fluid_distance(a.fluid, b.fluid), abs=1e-15)


def test_contraction_check_identical_trajectories():
    config = small_config(scenario="relaxation")
    _, snaps = march(config, 10)
    # march records nothing without log_every
    assert snaps == []
    state = build_coupled_initial(config)
    dt, _ = scenario_dt(config)
    params = coupling_params_of(config)
    _, s1 = run_coupled(state.copy(), dt, 10, params, log_every=2)
    _, s2 = run_coupled(state.copy(), dt, 10, params, log_every=2)
    report = contraction_check(s1, s2)
    assert report.ok
    np.testing.assert_array_equal(report.distances, 0.0)


def test_contraction_check_validates_input():
    config = small_config(scenario="relaxation")
    state = build_coupled_initial(config)
    dt, _ = scenario_dt(config)
    params = coupling_params_of(config)
    _, s1 = run_coupled(state.copy(), dt, 10, params, log_every=2)
    _, s2 = run_coupled(state.copy(), dt, 10, params, log_every=5)
    with pytest.raises(ValueError):
        contraction_check(s1, s2)
    with pytest.raises(ValueError):
        contraction_check([], [])
    shifted = [type(s)(s.time + 0.5, s.kinetic_values, s.fluid_values, s.kinetic_measure, s.fluid_measure) for s in s1]
    with pytest.raises(ValueError):
        contraction_check(s1, shifted)
