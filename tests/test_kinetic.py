"""Kinetic solver: upwind transport, stiff relaxation, traces, bookkeeping."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgkcoupling import (
    AdmissibilityError,
    CflError,
    InflowBoundary,
    KineticField,
    SpaceGrid,
    StiffnessProfile,
    VelocityGrid,
    check_admissible,
    duhamel_trace_oracle,
    l1_distance,
    l1_field_distance,
    maxwellian_table,
    maxwellian_values,
    outgoing_trace,
    run_with_history,
    stable_dt,
    step,
)
from bgkcoupling import kinetic

SG = SpaceGrid(-1.0, 0.0, 50)
VG = VelocityGrid(1.0, 20)


def random_field(rng, sg=SG, vg=VG, time=0.0):
    raw = rng.uniform(0.0, 1.0, (sg.n_cells, vg.n_cells))
    return KineticField(sg, vg, np.where(vg.positive, raw, -raw), time)


def boundary_flux_balance(field, bc, dt):
    """Exact mass gained through both edges during one transport step."""
    vg = field.velocity
    xi = vg.centers
    pos = vg.positive
    g_left = bc.left_values(vg)
    g_right = bc.right_values(vg)
    gain_left = dt * vg.dxi * float(np.dot(xi[pos], g_left[pos] - field.values[-1, pos]))
    # left-moving particles enter at the right edge and leave at the left
    gain_right = dt * vg.dxi * float(
        np.dot(-xi[~pos], g_right[~pos] - field.values[0, ~pos])
    )
    return gain_left + gain_right


def test_space_grid_zero_edge():
    with pytest.raises(ValueError):
        SpaceGrid(-1.0, 1.0, 5)  # x = 0 falls inside a cell
    grid = SpaceGrid(-1.0, 1.0, 10)
    assert grid.cell_of(-1e-12) == 4


def test_transport_oracle_single_step():
    # pure transport (alpha = 0) against the hand-rolled donor-cell update
    rng = np.random.default_rng(0)
    fld = random_field(rng)
    g_left = np.where(VG.positive, 0.25, 0.0)
    g_right = np.where(VG.positive, 0.0, -0.5)
    bc = InflowBoundary(left=g_left, right=g_right)
    dt = stable_dt(SG, VG)
    out = step(fld, bc, StiffnessProfile.uniform(SG, 0.0), dt)

    nu = VG.centers * dt / SG.dx
    expect = np.empty_like(fld.values)
    for j, x in enumerate(VG.centers):
        col = fld.values[:, j]
        if x > 0:
            west = np.concatenate(([g_left[j]], col[:-1]))
            expect[:, j] = col - nu[j] * (col - west)
        else:
            east = np.concatenate((col[1:], [g_right[j]]))
            expect[:, j] = col - nu[j] * (east - col)
    np.testing.assert_allclose(out.values, expect, atol=1e-15)


def test_cfl_violation_raises():
    fld = random_field(np.random.default_rng(1))
    bc = InflowBoundary()
    with pytest.raises(CflError):
        step(fld, bc, StiffnessProfile.uniform(SG, 1.0), 1.5 * SG.dx)


def dt_case():
    """M(0.3) on a 10 x 8 grid; a step with dt = -0.05 used to leave a cell at 1.066."""
    vg = VelocityGrid(1.0, 8)
    sg = SpaceGrid(-1.0, 0.0, 10)
    fld = KineticField(sg, vg, np.tile(maxwellian_values(0.3, vg), (sg.n_cells, 1)))
    # an inadmissible inflow too: the dt check comes before every other
    bc = InflowBoundary(left=np.where(vg.positive, 1.5, 0.0))
    return fld, bc, StiffnessProfile.uniform(sg, 1.0)


@pytest.mark.parametrize("dt", [np.nan, -0.05, -np.inf], ids=["nan", "negative", "-inf"])
def test_step_rejects_a_nan_or_negative_dt(dt):
    # a NaN dt used to pass the CFL test and return an all-NaN field
    fld, bc, stiffness = dt_case()
    with pytest.raises(ValueError, match="dt must be a nonnegative number"):
        step(fld, bc, stiffness, dt)


@pytest.mark.parametrize("dt", [np.nan, -0.05], ids=["nan", "negative"])
def test_run_with_history_rejects_a_nan_or_negative_dt(dt):
    fld, bc, stiffness = dt_case()
    for n_steps in (0, 3):
        with pytest.raises(ValueError, match="dt must be a nonnegative number"):
            run_with_history(fld, bc, stiffness, dt, n_steps)


@pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf, -50.0], ids=["nan", "inf", "-inf", "negative"])
def test_stiffness_profile_rejects_a_nan_infinite_or_negative_rate(rate):
    # on dt_case's grid a NaN rate in one cell used to make that cell NaN,
    # and a rate of -50 grew max |f| to 4.1e9 in five steps
    fld, bc, _ = dt_case()
    alpha = np.ones(fld.space.n_cells)
    alpha[3] = rate
    with pytest.raises(ValueError, match="finite and nonnegative"):
        StiffnessProfile(alpha)


def test_two_zone_rejects_an_eps_whose_rate_is_not_finite():
    sg = SpaceGrid(-1.0, 1.0, 10)
    assert 1.0 / 5e-324 == np.inf
    with pytest.raises(ValueError, match="finite and nonnegative"):
        StiffnessProfile.two_zone(sg, 5e-324)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        StiffnessProfile.two_zone(sg, np.nan)
    with pytest.raises(ValueError, match="eps must be positive"):
        StiffnessProfile.two_zone(sg, 0.0)


def test_stiffness_profile_keeps_zero_rates_of_either_sign():
    # -0.0 is a valid rate; its weight -0.0 makes the kernel's band the full range
    profile = StiffnessProfile([0.0, -0.0, 2.0])
    assert profile.alpha.dtype == float
    assert np.signbit(profile.alpha).tolist() == [False, True, False]


def test_zero_dt_leaves_the_field_as_it_is():
    fld = random_field(np.random.default_rng(3))
    bc = InflowBoundary(left=np.where(VG.positive, 0.8, 0.0), right=np.where(VG.positive, 0.0, -0.3))
    stiffness = StiffnessProfile.uniform(SG, 5.0)
    out = step(fld, bc, stiffness, 0.0)
    np.testing.assert_array_equal(out.values, fld.values)
    assert out.time == fld.time
    hist = run_with_history(fld, bc, stiffness, 0.0, 4)
    np.testing.assert_array_equal(hist.final.values, fld.values)


@pytest.mark.parametrize("side", ["left", "right"])
def test_step_rejects_a_nan_inflow(side):
    # NaN bounds used to fail both admissibility tests and pass
    fld = random_field(np.random.default_rng(2))
    read = VG.positive if side == "left" else ~VG.positive
    values = np.where(read, 0.5 if side == "left" else -0.5, 0.0)
    values[np.flatnonzero(read)[2]] = np.nan
    with pytest.raises(AdmissibilityError):
        step(fld, InflowBoundary(**{side: values}), StiffnessProfile.uniform(SG), stable_dt(SG, VG))


def test_equilibrium_is_steady():
    # edge-aligned density, matching inflow on both sides
    u0 = 0.6
    row = maxwellian_values(u0, VG)
    fld = KineticField(SG, VG, np.tile(row, (SG.n_cells, 1)))
    bc = InflowBoundary(left=row, right=row)
    stiff = StiffnessProfile.uniform(SG, 1.0)
    out = fld
    for _ in range(20):
        out = step(out, bc, stiff, stable_dt(SG, VG))
    np.testing.assert_array_equal(out.values, fld.values)


def test_mass_bookkeeping():
    rng = np.random.default_rng(5)
    fld = random_field(rng)
    bc = InflowBoundary(
        left=np.where(VG.positive, 0.7, 0.0), right=np.where(VG.positive, 0.0, -0.3)
    )
    stiff = StiffnessProfile.uniform(SG, 2.5)
    dt = stable_dt(SG, VG)
    measure = SG.dx * VG.dxi
    total = measure * fld.values.sum()
    current = fld
    for _ in range(40):
        total += boundary_flux_balance(current, bc, dt)
        current = step(current, bc, stiff, dt)
    assert measure * current.values.sum() == pytest.approx(total, abs=1e-10)


def test_l1_contraction_with_boundary_terms():
    # two runs with identical inflow: interior distance plus everything that
    # flowed out must not exceed the initial distance
    rng = np.random.default_rng(9)
    f1, f2 = random_field(rng), random_field(rng)
    bc = InflowBoundary(left=np.where(VG.positive, 0.5, 0.0))
    stiff = StiffnessProfile.uniform(SG, 1.0)
    dt = stable_dt(SG, VG)
    d0 = l1_field_distance(f1, f2)
    shed = 0.0
    for _ in range(60):
        diff = np.abs(f1.values - f2.values)
        pos = VG.positive
        out_r = float(np.dot(VG.centers[pos], diff[-1, pos]))
        out_l = float(np.dot(-VG.centers[~pos], diff[0, ~pos]))
        shed += dt * VG.dxi * (out_r + out_l)
        f1 = step(f1, bc, stiff, dt)
        f2 = step(f2, bc, stiff, dt)
    assert l1_field_distance(f1, f2) + shed <= d0 + 1e-10


def test_admissibility_preserved_two_zone():
    rng = np.random.default_rng(13)
    sg = SpaceGrid(-1.0, 1.0, 50)
    fld = random_field(rng, sg=sg)
    bc = InflowBoundary(left=np.where(VG.positive, 1.0, 0.0))
    stiff = StiffnessProfile.two_zone(sg, 0.05)
    for _ in range(30):
        fld = step(fld, bc, stiff, stable_dt(sg, VG))
        check_admissible(fld.values, VG, tol=1e-12)


def full_slice_error(side, values):
    """The error check_admissible raises on the inflow's read half, the other half zero."""
    read = VG.positive if side == "left" else ~VG.positive
    try:
        check_admissible(np.where(read, values, 0.0), VG)
    except AdmissibilityError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("side", ["left", "right"])
def test_step_checks_only_the_read_half_of_each_inflow(side):
    # each inflow is checked on the half it feeds, with the bounds reported
    # as for the full slice; the other half is never read
    rng = np.random.default_rng(2)
    fld = random_field(rng)
    read = VG.positive if side == "left" else ~VG.positive
    sign = 1.0 if side == "left" else -1.0
    good = np.where(read, sign * rng.uniform(0.0, 1.0, VG.n_cells), 5.0)
    cases = [good]
    for j, bad in ((1, 1.5), (3, -0.25), (0, 1.0 + 1e-9)):
        values = good.copy()
        values[np.flatnonzero(read)[j]] = sign * bad
        cases.append(values)
    dt = stable_dt(SG, VG)
    for values in cases:
        expected = full_slice_error(side, values)
        bc = InflowBoundary(**{side: values})
        if expected is None:
            step(fld, bc, StiffnessProfile.uniform(SG), dt)
            continue
        with pytest.raises(AdmissibilityError) as caught:
            step(fld, bc, StiffnessProfile.uniform(SG), dt)
        assert str(caught.value) == expected


def test_outgoing_trace_masks():
    rng = np.random.default_rng(2)
    fld = random_field(rng)
    tr = outgoing_trace(fld)
    assert np.all(tr.values[~VG.positive] == 0)
    np.testing.assert_array_equal(tr.values[VG.positive], fld.values[-1, VG.positive])


def test_history_snapshots():
    fld = random_field(np.random.default_rng(4))
    bc = InflowBoundary()
    dt = stable_dt(SG, VG)
    hist = run_with_history(fld, bc, StiffnessProfile.uniform(SG, 1.0), dt, 10, snapshot_times=[5 * dt])
    assert len(hist.snapshots) == 1
    np.testing.assert_array_equal(hist.initial.values, fld.values)


def test_history_snapshot_at_start_is_the_start_field():
    fld = random_field(np.random.default_rng(4))
    bc = InflowBoundary()
    stiffness = StiffnessProfile.uniform(SG, 1.0)
    dt = stable_dt(SG, VG)
    hist = run_with_history(fld, bc, stiffness, dt, 3, snapshot_times=(0.0, dt, -dt))
    np.testing.assert_array_equal(hist.snapshots[0.0], fld.values)
    np.testing.assert_array_equal(hist.snapshots[-dt], fld.values)
    np.testing.assert_array_equal(hist.snapshots[dt], step(fld, bc, stiffness, dt).values)
    assert list(hist.snapshots) == [-dt, 0.0, dt]


def test_history_snapshot_past_the_end_raises():
    fld = random_field(np.random.default_rng(4))
    dt = stable_dt(SG, VG)
    stiffness = StiffnessProfile.uniform(SG, 1.0)
    with pytest.raises(ValueError, match="past the last step"):
        run_with_history(fld, InflowBoundary(), stiffness, dt, 3, snapshot_times=(dt, 3.6 * dt))
    # within dt/2 of the last step it is that step
    hist = run_with_history(fld, InflowBoundary(), stiffness, dt, 3, snapshot_times=(3.4 * dt,))
    np.testing.assert_array_equal(hist.snapshots[3.4 * dt], hist.final.values)


def history_start(start, vg, sg, rng):
    """A start field: a narrow band of equilibria, a random signed field, or a
    dipole whose densities cancel at first, so its band widens mid-march."""
    if start == "narrow":
        return KineticField(sg, vg, maxwellian_table(rng.uniform(-0.15, 0.25, sg.n_cells), vg))
    if start == "signed":
        return random_field(rng, sg, vg)
    values = np.zeros((sg.n_cells, vg.n_cells))
    values[8:12, vg.half] = 4.0
    values[8:12, vg.half - 1] = -4.0
    return KineticField(sg, vg, values)


def history_inflow(kind, vg, rng):
    """No inflow, a partial one (some read cells zero, signed zeros included) or a full one."""
    if kind == "none":
        return InflowBoundary()
    left = rng.uniform(0.0, 1.0, vg.n_cells)
    right = -rng.uniform(0.0, 1.0, vg.n_cells)
    if kind == "partial":
        left[vg.half + 1 :: 2] = -0.0
        right[: vg.half - 1] = 0.0
    return InflowBoundary(left=np.where(vg.positive, left, 0.0), right=np.where(vg.positive, 0.0, right))


@pytest.mark.parametrize("inflow", ["none", "partial", "full"])
@pytest.mark.parametrize("n_xi", [2, 6, 20, 80])
@pytest.mark.parametrize("start", ["narrow", "signed", "dipole"])
def test_history_final_is_a_plain_step_loop(start, n_xi, inflow):
    rng = np.random.default_rng(n_xi)
    vg = VelocityGrid(1.0, n_xi)
    sg = SpaceGrid(-1.0, 1.0, 20)
    fld = history_start(start, vg, sg, rng)
    bc = history_inflow(inflow, vg, rng)
    stiffness = StiffnessProfile.two_zone(sg, 0.05)
    dt = stable_dt(sg, vg)
    n_steps = 24
    hist = run_with_history(fld, bc, stiffness, dt, n_steps, snapshot_times=dt * np.arange(n_steps + 1))
    current = fld
    for n in range(1, n_steps + 1):
        current = step(current, bc, stiffness, dt)
        assert hist.snapshots[hist.times[n]].tobytes() == current.values.tobytes()
    assert hist.final.values.tobytes() == current.values.tobytes()
    assert hist.final.values.flags.c_contiguous
    assert hist.final.time == current.time
    assert hist.initial is fld


def test_dipole_band_widens_mid_march(monkeypatch):
    # the dipole's densities cancel at first, so the kernel starts on the two
    # rows next to xi = 0; transport pulls its halves apart and the band
    # widens once densities cross a cell edge, ten steps in
    bands = []
    upwind = kinetic._upwind

    def recording(f, t, lo, hi, *args):
        bands.append((lo, hi))
        upwind(f, t, lo, hi, *args)

    monkeypatch.setattr(kinetic, "_upwind", recording)
    vg = VelocityGrid(1.0, 20)
    sg = SpaceGrid(-1.0, 1.0, 20)
    fld = history_start("dipole", vg, sg, np.random.default_rng(0))
    run_with_history(fld, InflowBoundary(), StiffnessProfile.two_zone(sg, 0.05), stable_dt(sg, vg), 24)
    assert bands[0] == (9, 11)
    assert [n for n in range(1, len(bands)) if bands[n] != bands[n - 1]] == [10, 16]
    assert bands[-1] == (8, 12)


def test_history_memory_does_not_grow_with_steps():
    # the march keeps no per-step record: 4x the steps on one grid may not
    # raise the traced heap peak by as much as one field
    sg = SpaceGrid(-1.0, 0.0, 200)
    fld = random_field(np.random.default_rng(6), sg=sg)
    stiffness = StiffnessProfile.uniform(sg, 1.0)
    dt = stable_dt(sg, VG)

    def peak(n_steps):
        tracemalloc.start()
        try:
            run_with_history(fld, InflowBoundary(), stiffness, dt, n_steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(5)  # warm any first-call caches outside the measurement
    assert peak(200) - peak(50) < fld.values.nbytes


def test_march_peak_holds_only_the_two_field_buffers():
    # the march needs the field and its transport as (n_xi, n_x) buffers,
    # and the equilibrium's temporaries take under half a field more; a
    # third field-sized buffer, such as a row-major copy for the density,
    # crosses the bound.  The grid is large enough that the fixed-size
    # allocations are a few percent of a field.
    sg = SpaceGrid(-1.0, 0.0, 2000)
    fld = random_field(np.random.default_rng(6), sg=sg)
    stiffness = StiffnessProfile.uniform(sg, 1.0)
    dt = stable_dt(sg, VG)
    run_with_history(fld, InflowBoundary(), stiffness, dt, 2)  # warm first-call caches
    tracemalloc.start()
    try:
        run_with_history(fld, InflowBoundary(), stiffness, dt, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * fld.values.nbytes


def count_transports(monkeypatch) -> list:
    """Record each _upwind call, one per step a march computes rather than skips."""
    calls = []
    upwind = kinetic._upwind

    def counted(*args):
        calls.append(args[0].shape)
        upwind(*args)

    monkeypatch.setattr(kinetic, "_upwind", counted)
    return calls


def edge_equilibrium_march(u0=0.6):
    """M(u0) everywhere, fed M(u0) from the left and zero from the right."""
    row = maxwellian_values(u0, VG)
    fld = KineticField(SG, VG, np.tile(row, (SG.n_cells, 1)))
    return fld, np.where(VG.positive, row, 0.0), StiffnessProfile.uniform(SG, 1.0), stable_dt(SG, VG)


def step_loop(fld, left, stiffness, dt, rights) -> list:
    """The fields of a loop of step calls, one per right inflow, the start field first."""
    fields = [fld]
    for right in rights:
        fields.append(step(fields[-1], InflowBoundary(left=left, right=right), stiffness, dt))
    return fields


def assert_march_follows(march, loop, rights):
    """Advance march once per right inflow; after each step it must equal loop's field bit for bit."""
    for right, expected in zip(rights, loop[1:]):
        march.advance(right)
        assert march.values.tobytes() == expected.values.tobytes()
        assert march.time == expected.time


def test_march_stops_computing_at_a_bitwise_fixed_point(monkeypatch):
    # M(0.6) sits on a velocity-cell edge: the first step changes some bits,
    # and from the second on no step changes any
    n_steps = 30
    fld, left, stiffness, dt = edge_equilibrium_march(0.6)
    loop = step_loop(fld, left, stiffness, dt, [None] * n_steps)
    unchanged = [b.values.tobytes() == a.values.tobytes() for a, b in zip(loop, loop[1:])]
    first_fixed = unchanged.index(True) + 1
    assert all(unchanged[first_fixed - 1 :])
    calls = count_transports(monkeypatch)
    snapshot_times = dt * np.arange(n_steps + 1)
    hist = run_with_history(fld, InflowBoundary(left=left), stiffness, dt, n_steps, snapshot_times)
    # the fixed point shows once a step repeats the one before it: at step
    # first_fixed, or at the latest one step later
    assert first_fixed <= len(calls) <= first_fixed + 1 < n_steps
    for r, expected in zip(snapshot_times, loop):
        assert hist.snapshots[r].tobytes() == expected.values.tobytes()
    assert hist.final.values.tobytes() == loop[-1].values.tobytes()
    assert hist.final.time == loop[-1].time


@pytest.mark.parametrize("change", ["one ulp", "signed zero", "refilled in place"])
def test_static_march_resumes_on_a_new_read_half(change, monkeypatch):
    fld, left, stiffness, dt = edge_equilibrium_march(0.6)
    zero = np.zeros(VG.n_cells)
    j = VG.half - 3
    if change == "refilled in place":
        # the caller hands in one array and writes the next inflow into it
        buffer = zero.copy()
        rights = [buffer] * 14
        expected_rights = [zero] * 8 + [np.where(np.arange(VG.n_cells) == j, -0.25, 0.0)] * 6
    else:
        new = zero.copy()
        new[j] = -np.nextafter(0.0, 1.0) if change == "one ulp" else -0.0
        rights = expected_rights = [zero] * 8 + [new] * 6
    loop = step_loop(fld, left, stiffness, dt, expected_rights)
    calls = count_transports(monkeypatch)
    march = kinetic._March(fld, InflowBoundary(left=left, right=rights[0]), stiffness, dt)
    assert_march_follows(march, loop[:9], rights[:8])
    static_calls = len(calls)
    assert static_calls < 8
    if change == "refilled in place":
        buffer[j] = -0.25
    assert_march_follows(march, loop[8:], rights[8:])
    assert len(calls) > static_calls


def test_a_change_to_the_unread_half_keeps_the_march_static(monkeypatch):
    # the xi > 0 half of a right inflow is never read, so it is never
    # checked either, and changing it changes no step
    fld, left, stiffness, dt = edge_equilibrium_march(0.6)
    zero = np.zeros(VG.n_cells)
    unread = np.where(VG.positive, 2.0, 0.0)
    unread[VG.half + 1] = np.nan
    rights = [zero] * 8 + [unread] * 6
    loop = step_loop(fld, left, stiffness, dt, rights)
    calls = count_transports(monkeypatch)
    march = kinetic._March(fld, InflowBoundary(left=left), stiffness, dt)
    assert_march_follows(march, loop[:9], rights[:8])
    static_calls = len(calls)
    assert static_calls < 8
    assert_march_follows(march, loop[8:], rights[8:])
    assert len(calls) == static_calls


def test_march_keeps_relaxing_a_field_that_transport_leaves_unchanged(monkeypatch):
    # at dt 1e-20 the transport of a uniform field rounds away at the edges,
    # and the densities of steps 1 and 2 match bit for bit, but the stiff
    # relaxation (w about 0.095) still moves every step
    row = np.where(VG.positive, 0.5, 0.0)
    fld = KineticField(SG, VG, np.tile(row, (SG.n_cells, 1)))
    stiffness, dt, n_steps = StiffnessProfile.uniform(SG, 1e19), 1e-20, 12
    loop = step_loop(fld, row, stiffness, dt, [None] * n_steps)
    assert loop[1].densities().tobytes() == loop[2].densities().tobytes()
    calls = count_transports(monkeypatch)
    hist = run_with_history(fld, InflowBoundary(left=row), stiffness, dt, n_steps)
    assert len(calls) == n_steps
    assert hist.final.values.tobytes() == loop[-1].values.tobytes()


def test_march_keeps_transporting_a_pulse_the_densities_do_not_see(monkeypatch):
    # a 1e-20 pulse rides on a row of 0.5, so every density rounds to the
    # same bits while the pulse moves; without relaxation nothing else changes
    values = np.zeros((SG.n_cells, VG.n_cells))
    values[:, VG.half + 2] = 0.5
    values[3, VG.half + 5] = 1e-20
    fld = KineticField(SG, VG, values)
    left = np.where(np.arange(VG.n_cells) == VG.half + 2, 0.5, 0.0)
    stiffness, dt, n_steps = StiffnessProfile.uniform(SG, 0.0), stable_dt(SG, VG), 12
    loop = step_loop(fld, left, stiffness, dt, [None] * n_steps)
    assert len({f.densities().tobytes() for f in loop}) == 1
    calls = count_transports(monkeypatch)
    hist = run_with_history(fld, InflowBoundary(left=left), stiffness, dt, n_steps)
    assert len(calls) == n_steps
    assert hist.final.values.tobytes() == loop[-1].values.tobytes()


@pytest.mark.parametrize("start", ["off-edge M(0.61)", "random"])
def test_a_moving_march_computes_every_step(start, monkeypatch):
    n_steps = 30
    if start == "random":
        fld = random_field(np.random.default_rng(4))
        left, stiffness, dt = np.where(VG.positive, 0.3, 0.0), StiffnessProfile.uniform(SG, 1.0), stable_dt(SG, VG)
    else:
        fld, left, stiffness, dt = edge_equilibrium_march(0.61)
    loop = step_loop(fld, left, stiffness, dt, [None] * n_steps)
    calls = count_transports(monkeypatch)
    hist = run_with_history(fld, InflowBoundary(left=left), stiffness, dt, n_steps)
    assert len(calls) == n_steps
    assert hist.final.values.tobytes() == loop[-1].values.tobytes()


def test_nan_inflow_after_a_static_stretch_raises_as_step_does(monkeypatch):
    fld, left, stiffness, dt = edge_equilibrium_march(0.6)
    zero = np.zeros(VG.n_cells)
    bad = zero.copy()
    bad[2] = np.nan
    with pytest.raises(AdmissibilityError) as expected:
        step(fld, InflowBoundary(left=left, right=bad), stiffness, dt)
    calls = count_transports(monkeypatch)
    march = kinetic._March(fld, InflowBoundary(left=left), stiffness, dt)
    for _ in range(8):
        march.advance(zero)
    assert len(calls) < 8
    kept, time = march.values.tobytes(), march.time
    # a rejected inflow is not taken, so handing it in again raises again
    for _ in range(2):
        with pytest.raises(AdmissibilityError) as caught:
            march.advance(bad)
        assert str(caught.value) == str(expected.value)
    assert (march.values.tobytes(), march.time) == (kept, time)


def test_duhamel_oracle_equilibrium_exact():
    u0 = 0.6
    row = maxwellian_values(u0, VG)
    fld = KineticField(SG, VG, np.tile(row, (SG.n_cells, 1)))
    bc = InflowBoundary(left=row, right=row)
    dt = stable_dt(SG, VG)
    hist = run_with_history(
        fld, bc, StiffnessProfile.uniform(SG, 1.0), dt, 25, snapshot_times=dt * np.arange(26)
    )
    oracle = duhamel_trace_oracle(hist, 25 * dt, inflow_left=row)
    trace = outgoing_trace(hist.final)
    assert l1_distance(oracle, trace) < 1e-12


def test_duhamel_oracle_time_zero():
    fld = random_field(np.random.default_rng(8))
    hist = run_with_history(
        fld, InflowBoundary(), StiffnessProfile.uniform(SG, 1.0), 0.01, 3, snapshot_times=0.01 * np.arange(4)
    )
    oracle = duhamel_trace_oracle(hist, 0.0)
    np.testing.assert_array_equal(
        oracle.values[VG.positive], fld.values[-1, VG.positive]
    )


def test_duhamel_oracle_unrecorded_time():
    fld = random_field(np.random.default_rng(8))
    hist = run_with_history(
        fld, InflowBoundary(), StiffnessProfile.uniform(SG, 1.0), 0.01, 3, snapshot_times=0.01 * np.arange(4)
    )
    with pytest.raises(ValueError):
        duhamel_trace_oracle(hist, 0.0155)


def test_duhamel_oracle_needs_a_snapshot_at_every_step():
    fld = random_field(np.random.default_rng(8))
    stiffness = StiffnessProfile.uniform(SG, 1.0)
    bare = run_with_history(fld, InflowBoundary(), stiffness, 0.01, 3)
    with pytest.raises(ValueError, match="no snapshot"):
        duhamel_trace_oracle(bare, 0.0)
    gappy = run_with_history(fld, InflowBoundary(), stiffness, 0.01, 3, snapshot_times=(0.0, 0.01, 0.03))
    with pytest.raises(ValueError, match="no snapshot"):
        duhamel_trace_oracle(gappy, 0.03)
    # steps past t are not needed
    duhamel_trace_oracle(gappy, 0.01)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), alpha=st.floats(min_value=0.0, max_value=50.0))
def test_step_admissibility_property(seed, alpha):
    fld = random_field(np.random.default_rng(seed))
    bc = InflowBoundary(left=np.where(VG.positive, 0.8, 0.0))
    out = step(fld, bc, StiffnessProfile.uniform(SG, alpha), stable_dt(SG, VG))
    check_admissible(out.values, VG, tol=1e-12)
