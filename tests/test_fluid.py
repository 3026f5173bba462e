"""Godunov scheme, boundary admissibility, and the kinetic certificate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgkcoupling import (
    BlnError,
    CflError,
    FluidField,
    SpaceGrid,
    VelocityGrid,
    bln_admissible,
    boundary_trace,
    build_bln_certificate,
    fluid_step,
    fluid_step_with_boundary_flux,
    godunov_flux,
    l1_fluid_distance,
    maxwellian,
    riemann_interface_state,
)

GRID = SpaceGrid(0.0, 5.0, 100)
VG = VelocityGrid(1.0, 40)


def burgers(u):
    return 0.5 * u * u


def scan_flux(a, b, n=4001):
    """Brute-force Godunov flux: extremum of the flux between the two states."""
    ks = np.linspace(min(a, b), max(a, b), n)
    vals = burgers(ks)
    return float(vals.min()) if a <= b else float(vals.max())


SCAN_TOL = 1e-9  # flux units


def bln_scan(u, v, n=2001):
    """Admissibility by checking the inequality on a dense set of middle values."""
    ks = np.linspace(min(u, v), max(u, v), n)
    lhs = np.sign(u - v) * (burgers(u) - burgers(ks))
    return bool(np.all(lhs <= SCAN_TOL))


def test_godunov_flux_against_scan():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = rng.uniform(-1.0, 1.0, 2)
        assert godunov_flux(a, b) == pytest.approx(scan_flux(a, b), abs=2e-7)


def test_godunov_flux_vectorized():
    a = np.array([0.5, -0.5, 0.8])
    b = np.array([1.0, 0.5, -0.8])
    out = godunov_flux(a, b)
    np.testing.assert_allclose(out, [burgers(0.5), 0.0, burgers(0.8)], atol=1e-15)


def test_interface_state_consistent_with_flux():
    rng = np.random.default_rng(1)
    for _ in range(300):
        a, b = rng.uniform(-1.0, 1.0, 2)
        w = riemann_interface_state(a, b)
        assert burgers(w) == pytest.approx(godunov_flux(a, b), abs=1e-14)


def test_per_cell_entropy_inequality():
    # Kruzkov entropy |u - k| with the numerical entropy flux evaluated at the
    # interface states; the inequality must hold cell by cell
    rng = np.random.default_rng(2)
    values = rng.uniform(-1.0, 1.0, GRID.n_cells)
    field = FluidField(GRID, values)
    v_bdry = 0.4
    dt = 0.9 * GRID.dx / 1.0
    new = fluid_step(field, v_bdry, dt)

    def q(u, k):
        return np.sign(u - k) * (burgers(u) - burgers(k))

    states = np.concatenate(([v_bdry], values, [values[-1]]))
    w = np.array(
        [riemann_interface_state(states[i], states[i + 1]) for i in range(len(states) - 1)]
    )
    lam = dt / GRID.dx
    for k in np.linspace(-1.0, 1.0, 21):
        eta_new = np.abs(new.values - k)
        eta_old = np.abs(values - k)
        flux_out = q(w[1:], k) - q(w[:-1], k)
        assert np.all(eta_new <= eta_old - lam * flux_out + 1e-10)


def test_l1_contraction_same_boundary():
    # nonnegative data keeps the right edge outflowing; with signed states
    # there the zero-gradient ghost can feed distance back into the domain
    rng = np.random.default_rng(3)
    f1 = FluidField(GRID, rng.uniform(0.0, 1.0, GRID.n_cells))
    f2 = FluidField(GRID, rng.uniform(0.0, 1.0, GRID.n_cells))
    dt = 0.9 * GRID.dx
    d = l1_fluid_distance(f1, f2)
    for _ in range(50):
        f1 = fluid_step(f1, 0.3, dt)
        f2 = fluid_step(f2, 0.3, dt)
        d_new = l1_fluid_distance(f1, f2)
        assert d_new <= d + 1e-14
        d = d_new


def test_mass_conservation_compact_support():
    x = GRID.centers
    values = np.where(np.abs(x - 2.5) < 0.8, 0.5, 0.0)
    field = FluidField(GRID, values)
    total = values.sum() * GRID.dx
    dt = 0.9 * GRID.dx / 0.5
    for _ in range(20):
        field = fluid_step(field, 0.0, dt)
    assert field.values.sum() * GRID.dx == pytest.approx(total, abs=1e-13)


def test_prescribed_boundary_flux_bookkeeping():
    rng = np.random.default_rng(5)
    values = rng.uniform(-0.5, 0.5, GRID.n_cells)
    field = FluidField(GRID, values)
    dt = 0.9 * GRID.dx
    flux_in = 0.07
    out_flux = burgers(values[-1])
    new = fluid_step_with_boundary_flux(field, flux_in, dt)
    gained = (new.values.sum() - values.sum()) * GRID.dx
    assert gained == pytest.approx(dt * (flux_in - out_flux), abs=1e-13)


def test_shock_position_tracks_rankine_hugoniot():
    x = GRID.centers
    field = FluidField(GRID, np.where(x < 1.0, 0.8, 0.0))
    dt = 0.9 * GRID.dx / 0.8
    n = 60
    for _ in range(n):
        field = fluid_step(field, 0.8, dt)
    t = n * dt
    expected = 1.0 + 0.4 * t  # shock speed (0.8 + 0)/2
    crossing = x[np.argmax(field.values < 0.4)]
    assert abs(crossing - expected) < 4 * GRID.dx


def test_rarefaction_stays_monotone():
    x = GRID.centers
    field = FluidField(GRID, np.where(x < 2.5, -0.5, 0.5))
    dt = 0.9 * GRID.dx / 0.5
    for _ in range(40):
        field = fluid_step_with_boundary_flux(field, burgers(-0.5), dt)
    assert np.all(np.diff(field.values) >= -1e-12)
    # an entropy-violating standing jump would keep a -0.5 / 0.5 interface
    mid = field.values[np.argmin(np.abs(x - 2.5))]
    assert abs(mid) < 0.2


def test_steady_outflow_boundary_state():
    # datum 0.5 against a uniform -0.8 state: admissible (u <= -v), bitwise steady
    field = FluidField(GRID, np.full(GRID.n_cells, -0.8))
    dt = 0.9 * GRID.dx / 0.8
    new = fluid_step(field, 0.5, dt)
    np.testing.assert_array_equal(new.values, field.values)
    assert bln_admissible(-0.8, 0.5)


def test_matching_inflow_steady():
    field = FluidField(GRID, np.full(GRID.n_cells, 0.5))
    new = fluid_step(field, 0.5, 0.9 * GRID.dx / 0.5)
    np.testing.assert_array_equal(new.values, field.values)


def test_cfl_guard():
    field = FluidField(GRID, np.full(GRID.n_cells, 0.9))
    with pytest.raises(CflError):
        fluid_step(field, 0.0, 3.0 * GRID.dx)


def test_negative_datum_rejected():
    field = FluidField(GRID, np.zeros(GRID.n_cells))
    with pytest.raises(BlnError):
        fluid_step(field, -0.2, 0.01)
    with pytest.raises(BlnError):
        bln_admissible(0.3, -0.2)


def test_boundary_trace_is_first_cell():
    rng = np.random.default_rng(8)
    field = FluidField(GRID, rng.uniform(-1, 1, GRID.n_cells))
    assert boundary_trace(field) == field.values[0]


def test_bln_against_dense_scan():
    us = np.linspace(-1.0, 1.0, 81)
    vs = np.linspace(0.0, 1.0, 41)
    for u in us:
        for v in vs:
            assert bln_admissible(float(u), float(v)) == bln_scan(float(u), float(v)), (u, v)


def test_certificate_round_trip_dense():
    # the builder must succeed exactly on the admissible set and its witness
    # must be a nonnegative measure with no boundary mass
    us = np.linspace(-1.0, 1.0, 41)
    vs = np.linspace(0.0, 1.0, 21)
    for v in vs:
        g = maxwellian(float(v), VG)
        for u in us:
            if bln_admissible(float(u), float(v)):
                cert = build_bln_certificate(float(u), g)
                assert cert.v == pytest.approx(v, abs=1e-9)
                assert cert.min_value >= -1e-10
                assert cert.endpoint_defect <= 1e-10
            else:
                with pytest.raises(BlnError):
                    build_bln_certificate(float(u), g)


def test_certificate_equal_case_has_no_correction():
    cert = build_bln_certificate(0.5, maxwellian(0.5, VG))
    assert not cert.h_values.any()


@settings(max_examples=60)
@given(
    u=st.floats(min_value=-1.0, max_value=1.0),
    v=st.floats(min_value=0.0, max_value=1.0),
)
def test_bln_property(u, v):
    # the scan accepts every pair whose flux gap |u^2 - v^2| / 2 is within its
    # tolerance, so it cannot decide those pairs; skip them with a margin
    if abs(burgers(u) - burgers(v)) <= 2.0 * SCAN_TOL:
        return
    assert bln_admissible(u, v) == bln_scan(u, v)


@pytest.mark.parametrize("u, v", [(0.0, 2.73e-5), (2e-5, 0.0)])
def test_bln_rejects_pairs_inside_scan_tolerance(u, v):
    # flux gap below SCAN_TOL but states 2e-5 apart: neither u = v nor u <= -v
    assert bln_scan(u, v)
    assert not bln_admissible(u, v)
