"""Velocity-grid algebra: equilibrium projection, moments, relaxation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgkcoupling import (
    AdmissibilityError,
    DiscreteDistribution,
    GridMismatchError,
    VelocityGrid,
    check_admissible,
    density_moment,
    entropy_defect_cumulative,
    flux_moment,
    indicator_cell_average,
    indicator_cell_flux,
    l1_distance,
    maxwellian,
    maxwellian_moment,
    maxwellian_table,
    maxwellian_values,
    relax_toward_maxwellian,
)
from bgkcoupling.velocity import check_signed_admissible

GRID = VelocityGrid(1.0, 40)


def random_admissible(rng, grid=GRID):
    raw = rng.uniform(0.0, 1.0, grid.n_cells)
    return DiscreteDistribution(grid, np.where(grid.positive, raw, -raw))


def test_grid_layout():
    assert GRID.dxi == pytest.approx(0.05)
    assert GRID.edges[0] == -1.0 and GRID.edges[-1] == 1.0
    # zero must be an edge so the sign of each cell is unambiguous
    assert 0.0 in GRID.edges
    assert np.all(GRID.centers[GRID.positive] > 0)
    # so each half-range is one block of columns, split at half
    for grid in (GRID, VelocityGrid(2.5, 6)):
        np.testing.assert_array_equal(grid.positive, np.arange(grid.n_cells) >= grid.half)


def test_odd_cell_count_rejected():
    with pytest.raises(ValueError):
        VelocityGrid(1.0, 41)


@pytest.mark.parametrize("half_width", [float("nan"), float("inf")])
def test_nonfinite_half_width_rejected(half_width):
    # a NaN fails no comparison written as half_width <= 0
    with pytest.raises(ValueError, match="half_width must be positive and finite"):
        VelocityGrid(half_width, 8)


@pytest.mark.parametrize("half_width", [1e155, 1e300])
def test_half_width_with_an_overflowing_square_rejected(half_width):
    # the largest flux the interval carries is 0.5 * half_width^2
    with pytest.raises(ValueError, match="and so must its square"):
        VelocityGrid(half_width, 8)


def test_half_width_with_a_finite_square_accepted():
    assert VelocityGrid(1e154, 8).dxi == 2.5e153


def test_maxwellian_moments_closed_form():
    rng = np.random.default_rng(7)
    for u in rng.uniform(-1.0, 1.0, 100):
        m = maxwellian(float(u), GRID)
        assert density_moment(m) == pytest.approx(u, abs=1e-14)
        assert flux_moment(m) == pytest.approx(0.5 * u * u, abs=1e-14)


def test_maxwellian_out_of_range():
    with pytest.raises(ValueError):
        maxwellian(1.5, GRID)


def test_maxwellian_telescoping_cubic():
    # exact integral of xi^2 against M(u) is u^3/3 for any u, including
    # values that land strictly inside a cell
    for u in (0.3, -0.55, 0.777, 0.013, -1.0, 1.0):
        val = maxwellian_moment(u, GRID, lambda x: x**3 / 3.0)
        assert val == pytest.approx(u**3 / 3.0, abs=1e-15)


def test_maxwellian_matches_indicator_averages():
    u = 0.437
    np.testing.assert_allclose(
        maxwellian_values(u, GRID), indicator_cell_average(0.0, u, GRID), atol=1e-15
    )
    np.testing.assert_allclose(
        maxwellian_values(-u, GRID), -indicator_cell_average(-u, 0.0, GRID), atol=1e-15
    )


def test_maxwellian_table_rows():
    # cell edges, points inside cells, and both ends of the velocity interval
    us = np.array([-1.0, -0.8, -0.2, -0.013, 0.0, 0.33, 0.437, 1.0])
    table = maxwellian_table(us, GRID)
    for row, u in zip(table, us):
        np.testing.assert_array_equal(row, maxwellian_values(float(u), GRID))


def test_indicator_flux_closed_form():
    # integral of xi over (lo, hi) is (hi^2 - lo^2)/2 regardless of alignment
    lo, hi = 0.112, 0.713
    total = float(indicator_cell_flux(lo, hi, GRID).sum())
    assert total == pytest.approx(0.5 * (hi * hi - lo * lo), abs=1e-15)


def test_indicator_rejects_empty_interval():
    with pytest.raises(ValueError):
        indicator_cell_average(0.5, 0.2, GRID)


def test_check_admissible_catches_sign_violations():
    values = np.zeros(GRID.n_cells)
    values[0] = 0.5  # positive mass on a negative-velocity cell
    with pytest.raises(Exception):
        check_admissible(values, GRID)
    values = np.zeros(GRID.n_cells)
    values[-1] = 1.5  # above the invariant-region ceiling
    with pytest.raises(Exception):
        check_admissible(values, GRID)


@pytest.mark.parametrize("where", [0, 3, -1])
def test_signed_admissibility_rejects_nan(where):
    signed = np.full(8, 0.5)
    signed[where] = np.nan
    with pytest.raises(AdmissibilityError, match="nan"):
        check_signed_admissible(signed)
    with pytest.raises(AdmissibilityError):
        check_admissible(np.where(GRID.positive, signed[0], np.nan), GRID)


def test_relaxation_semigroup():
    # two short relaxation steps compose into one long one exactly
    rng = np.random.default_rng(3)
    f = random_admissible(rng)
    one = relax_toward_maxwellian(f, 0.7, 2.0)
    # the density is frozen along the relaxation flow, so composition is exact
    two = relax_toward_maxwellian(relax_toward_maxwellian(f, 0.3, 2.0), 0.4, 2.0)
    np.testing.assert_allclose(one.values, two.values, atol=1e-14)
    assert one.flux_correction == pytest.approx(two.flux_correction, abs=1e-14)


def test_relaxation_conserves_density():
    rng = np.random.default_rng(11)
    for _ in range(20):
        f = random_admissible(rng)
        g = relax_toward_maxwellian(f, rng.uniform(0, 5), rng.uniform(0, 10))
        assert density_moment(g) == pytest.approx(density_moment(f), abs=1e-13)


def test_equilibrium_is_bitwise_fixed_point():
    m = maxwellian(0.6, GRID)
    out = relax_toward_maxwellian(m, 0.5, 1.0)
    np.testing.assert_array_equal(out.values, m.values)
    assert out.flux_correction == m.flux_correction


def test_relaxation_drives_flux_to_equilibrium():
    # as alpha*dt grows, the flux approaches u^2/2 monotonically in the limit
    vals = np.zeros(GRID.n_cells)
    vals[GRID.positive] = 0.5
    f = DiscreteDistribution(GRID, vals)
    u = density_moment(f)
    g = relax_toward_maxwellian(f, 50.0, 1.0)
    assert flux_moment(g) == pytest.approx(0.5 * u * u, abs=1e-12)


def test_relaxation_rejects_negative_dt():
    with pytest.raises(ValueError):
        relax_toward_maxwellian(maxwellian(0.1, GRID), -1.0, 1.0)


def test_l1_distance_grid_mismatch():
    other = VelocityGrid(1.0, 20)
    with pytest.raises(GridMismatchError):
        l1_distance(maxwellian(0.1, GRID), maxwellian(0.1, other))


@given(u=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_maxwellian_moments_property(u):
    m = maxwellian(u, GRID)
    assert abs(density_moment(m) - u) < 1e-13
    assert abs(flux_moment(m) - 0.5 * u * u) < 1e-13
    check_admissible(m.values, GRID)


@settings(max_examples=50)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_entropy_defect_nonnegative(seed):
    f = random_admissible(np.random.default_rng(seed))
    h = entropy_defect_cumulative(f)
    assert h.min() >= -1e-10
    assert abs(h[0]) <= 1e-10 and abs(h[-1]) <= 1e-10


@settings(max_examples=50)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    dt=st.floats(min_value=0.0, max_value=10.0),
    alpha=st.floats(min_value=0.0, max_value=100.0),
)
def test_relaxation_preserves_admissibility(seed, dt, alpha):
    f = random_admissible(np.random.default_rng(seed))
    g = relax_toward_maxwellian(f, dt, alpha)
    check_admissible(g.values, GRID, tol=1e-12)
