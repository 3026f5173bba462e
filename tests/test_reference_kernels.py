"""The sliced kernels against their boolean-mask reference formulations.

The equilibrium table and the layer sweep read the two velocity half-ranges
as contiguous column blocks, and the kinetic step runs velocity-major on the
band of rows its data reach.  The references below are the same arithmetic
written with the positive mask, np.where and full-array neighbour copies.
The fluid step, one Godunov call over all its faces, is checked against
its three-call form.  Every comparison is bitwise: same dtype, same shape, same
bytes (so a signed zero counts too).
"""

from contextlib import suppress
from dataclasses import fields
from functools import partial

import numpy as np
import pytest

from bgkcoupling import (
    DiscreteDistribution,
    InflowBoundary,
    InterfaceRecord,
    KineticField,
    LayerData,
    LayerGrid,
    SpaceGrid,
    StiffnessProfile,
    VelocityGrid,
    coupled_step,
    flux_moment,
    golse_iterate,
    naive_coupled_step,
    run_coupled,
    stable_dt,
    step,
)
from bgkcoupling import fluid, kinetic, milne
from bgkcoupling.errors import SOLVER_ERRORS
from bgkcoupling.experiments import (
    ScenarioConfig,
    build_coupled_initial,
    coupling_params_of,
    random_coupled_state,
    scenario_dt,
    solve_full_epsilon,
)
from bgkcoupling.milne import _weights
from bgkcoupling.velocity import maxwellian_table, maxwellian_values

GRIDS = (VelocityGrid(1.0, 40), VelocityGrid(1.0, 80), VelocityGrid(2.5, 6))


def assert_bitwise_equal(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert actual.tobytes() == expected.tobytes()


# -- reference formulations ------------------------------------------------

def ref_equilibrium(u, grid):
    """Both clip branches over every column, one picked per cell by the mask."""
    dxi = grid.dxi
    return np.where(
        grid.positive,
        np.clip((u - grid.edges[:-1]) / dxi, 0.0, 1.0),
        -np.clip((grid.edges[1:] - u) / dxi, 0.0, 1.0),
    )


def ref_scan(c, d):
    y = c.copy()
    p = d.copy()
    step_ = 1
    while step_ < y.shape[0]:
        y[step_:] += p * y[:-step_]
        p = p * p
        step_ *= 2
    return y


def ref_golse_iterate(data, grid, values):
    """Mask-indexed sweep: fancy-index copies of each half, fresh arrays throughout."""
    vgrid = data.incoming.grid
    pos = vgrid.positive
    neg = ~pos
    h_pos = grid.dy / vgrid.centers[pos]
    h_neg = grid.dy / -vgrid.centers[neg]
    decay_pos, decay_neg = np.exp(-h_pos), np.exp(-h_neg)
    a_pos, a_neg = -np.expm1(-h_pos), -np.expm1(-h_neg)
    w_far_pos = 1.0 - a_pos / h_pos
    w_near_pos = a_pos - w_far_pos
    w_far_neg = a_neg / h_neg - decay_neg
    w_near_neg = a_neg - w_far_neg

    u = vgrid.dxi * values.sum(axis=1)
    source = ref_equilibrium(u[:, None], vgrid)
    out = np.empty_like(values)
    src_pos = source[:, pos]
    c_up = np.empty_like(src_pos)
    c_up[0] = data.incoming.values[pos]
    c_up[1:] = w_near_pos * src_pos[:-1] + w_far_pos * src_pos[1:]
    out[:, pos] = ref_scan(c_up, decay_pos)
    src_rev = source[::-1, neg]
    c_down = np.empty_like(src_rev)
    c_down[0] = src_rev[0]
    c_down[1:] = w_near_neg * src_rev[1:] + w_far_neg * src_rev[:-1]
    out[:, neg] = ref_scan(c_down, decay_neg)[::-1]
    return out


def ref_step(field, bc, stiffness, dt):
    """Upwind transport through full west/east neighbour arrays, then relaxation."""
    vgrid = field.velocity
    nu = vgrid.centers * dt / field.space.dx
    f = field.values
    west = np.empty_like(f)
    west[1:] = f[:-1]
    west[0] = bc.left_values(vgrid)
    east = np.empty_like(f)
    east[:-1] = f[1:]
    east[-1] = bc.right_values(vgrid)
    pos = vgrid.positive
    transported = f.copy()
    transported[:, pos] -= nu[pos] * (f[:, pos] - west[:, pos])
    transported[:, ~pos] -= nu[~pos] * (east[:, ~pos] - f[:, ~pos])
    # each cell's density adds its velocity entries one at a time, first to last
    total = np.zeros(field.space.n_cells)
    for j in range(vgrid.n_cells):
        total = total + transported[:, j]
    u = vgrid.dxi * total
    eq = ref_equilibrium(u[:, None], vgrid)
    w = -np.expm1(-stiffness.alpha * dt)
    return transported + w[:, None] * (eq - transported)


def ref_fluid_step(field, left_flux, dt):
    """Godunov step in three calls: the given left flux, the interior faces, the right ghost."""
    u = field.values
    interior = fluid.godunov_flux(u[:-1], u[1:])
    right_flux = fluid.godunov_flux(u[-1], u[-1])
    fluxes = np.concatenate(([left_flux], interior, [right_flux]))
    return u - (dt / field.grid.dx) * np.diff(fluxes)


# -- bitwise pins ----------------------------------------------------------

def equilibrium_points(grid, rng):
    """Every cell edge, both ends, zero, and random points inside cells."""
    inner = rng.uniform(-grid.half_width, grid.half_width, 64)
    return np.concatenate((grid.edges, [-grid.half_width, grid.half_width, 0.0, -0.0], inner))


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.half_width}x{g.n_cells}")
def test_equilibrium_matches_mask_reference_bitwise(grid):
    us = equilibrium_points(grid, np.random.default_rng(grid.n_cells))
    for u in us:
        assert_bitwise_equal(maxwellian_values(float(u), grid), ref_equilibrium(float(u), grid))
    assert_bitwise_equal(maxwellian_table(us, grid), ref_equilibrium(us[:, None], grid))


@pytest.mark.parametrize("gap", [0.0, 0.05], ids=["relaxation", "shock"])
def test_golse_iterate_matches_mask_reference_bitwise(gap):
    rng = np.random.default_rng(7)
    vg = VelocityGrid(1.0, 40)
    grid = LayerGrid(10.0, 200)
    incoming = DiscreteDistribution(vg, np.where(vg.positive, rng.uniform(0.0, 0.9, vg.n_cells), 0.0))
    data = LayerData(flux_moment(incoming) + gap, incoming)
    raw = rng.uniform(0.0, 1.0, (grid.n_cells + 1, vg.n_cells))
    values = np.where(vg.positive, raw, -raw)
    kept = values.copy()
    expected = ref_golse_iterate(data, grid, values)

    assert_bitwise_equal(golse_iterate(data, grid, values), expected)
    buffer = np.full_like(values, np.nan)
    assert golse_iterate(data, grid, values, out=buffer) is buffer
    assert_bitwise_equal(buffer, expected)
    assert_bitwise_equal(values, kept)


def test_kinetic_step_matches_mask_reference_bitwise():
    rng = np.random.default_rng(11)
    sg = SpaceGrid(-1.0, 0.0, 60)
    vg = VelocityGrid(1.0, 20)
    raw = rng.uniform(0.0, 1.0, (sg.n_cells, vg.n_cells))
    field = KineticField(sg, vg, np.where(vg.positive, raw, -raw))
    bc = InflowBoundary(
        left=np.where(vg.positive, rng.uniform(0.0, 1.0, vg.n_cells), 0.0),
        right=np.where(vg.positive, 0.0, -rng.uniform(0.0, 1.0, vg.n_cells)),
    )
    stiffness = StiffnessProfile(np.where(sg.centers > -0.5, 10.0, 1.0))
    dt = stable_dt(sg, vg)
    kept = field.values.copy()
    assert_bitwise_equal(step(field, bc, stiffness, dt).values, ref_step(field, bc, stiffness, dt))
    assert_bitwise_equal(field.values, kept)


def test_kinetic_step_on_a_narrow_band_matches_mask_reference_bitwise():
    # equilibria of densities in (-0.2, 0.3) with -0.0 beyond their support,
    # and inflows on a few cells next to xi = 0: the step updates the 19 of
    # the 80 velocity rows these reach and must give the rest the
    # reference's +0.0
    rng = np.random.default_rng(12)
    sg = SpaceGrid(-1.0, 1.0, 40)
    vg = VelocityGrid(1.0, 80)
    field = KineticField(sg, vg, maxwellian_table(rng.uniform(-0.2, 0.3, sg.n_cells), vg))
    left = np.zeros(vg.n_cells)
    left[vg.half : vg.half + 6] = rng.uniform(0.0, 1.0, 6)
    right = np.full(vg.n_cells, -0.0)
    right[vg.half - 4 : vg.half] = -rng.uniform(0.0, 1.0, 4)
    bc = InflowBoundary(left=left, right=right)
    stiffness = StiffnessProfile.two_zone(sg, 0.1)
    dt = stable_dt(sg, vg)
    expected = ref_step(field, bc, stiffness, dt)
    assert np.count_nonzero(np.abs(expected).sum(axis=0)) <= 22
    assert_bitwise_equal(step(field, bc, stiffness, dt).values, expected)


def record_bands(monkeypatch):
    """The band [lo, hi) that each kernel step starts from, appended as steps run."""
    bands = []
    upwind = kinetic._upwind

    def recording(f, t, lo, hi, *args):
        bands.append((lo, hi))
        upwind(f, t, lo, hi, *args)

    monkeypatch.setattr(kinetic, "_upwind", recording)
    return bands


def assert_steps_match_reference(field, bc, stiffness, n_steps):
    dt = stable_dt(field.space, field.velocity)
    for _ in range(n_steps):
        expected = ref_step(field, bc, stiffness, dt)
        field = step(field, bc, stiffness, dt)
        assert_bitwise_equal(field.values, expected)


def test_kinetic_steps_on_fewer_than_eight_rows_match_mask_reference_bitwise(monkeypatch):
    # densities in (-0.05, 0.07) on 80 velocity cells of width 0.025 and an
    # inflow on the two cells next to xi = 0 reach rows 38..42 only
    bands = record_bands(monkeypatch)
    rng = np.random.default_rng(13)
    sg = SpaceGrid(-1.0, 1.0, 30)
    vg = VelocityGrid(1.0, 80)
    field = KineticField(sg, vg, maxwellian_table(rng.uniform(-0.05, 0.07, sg.n_cells), vg))
    left = np.zeros(vg.n_cells)
    left[vg.half : vg.half + 2] = rng.uniform(0.0, 1.0, 2)
    assert_steps_match_reference(field, InflowBoundary(left=left), StiffnessProfile.two_zone(sg, 0.1), 8)
    assert set(bands) == {(38, 43)}


def test_kinetic_steps_on_one_space_cell_match_mask_reference_bitwise(monkeypatch):
    # n_x = 1 with all 80 velocity rows in the band: each density sums 80
    # entries in order, as it does on wider grids
    bands = record_bands(monkeypatch)
    rng = np.random.default_rng(14)
    sg = SpaceGrid(-1.0, 0.0, 1)
    vg = VelocityGrid(1.0, 80)
    raw = rng.uniform(0.0, 1.0, (1, vg.n_cells))
    field = KineticField(sg, vg, np.where(vg.positive, raw, -raw))
    bc = InflowBoundary(
        left=np.where(vg.positive, rng.uniform(0.0, 1.0, vg.n_cells), 0.0),
        right=np.where(vg.positive, 0.0, -rng.uniform(0.0, 1.0, vg.n_cells)),
    )
    assert_steps_match_reference(field, bc, StiffnessProfile.uniform(sg, 3.0), 10)
    assert set(bands) == {(0, vg.n_cells)}


def test_kinetic_step_at_a_negative_zero_rate_matches_mask_reference_bitwise():
    # the weight of a -0.0 rate is -0.0, which keeps a transported -0.0
    # outside the support at -0.0 rather than +0.0, so the kernel marches
    # the full range: xi > 0 entries beyond the support and the left inflow
    # are -0.0 here
    rng = np.random.default_rng(15)
    sg = SpaceGrid(-1.0, 1.0, 20)
    vg = VelocityGrid(1.0, 40)
    values = maxwellian_table(rng.uniform(-0.2, 0.3, sg.n_cells), vg)
    values[:, vg.half :][values[:, vg.half :] == 0.0] = -0.0
    field = KineticField(sg, vg, values)
    bc = InflowBoundary(left=np.full(vg.n_cells, -0.0))
    stiffness = StiffnessProfile(np.where(sg.centers > 0.0, -0.0, 1.0))
    expected = ref_step(field, bc, stiffness, stable_dt(sg, vg))
    assert np.count_nonzero((expected == 0.0) & np.signbit(expected)) > 0
    assert_steps_match_reference(field, bc, stiffness, 1)


def test_kinetic_march_bands_steady_shock(monkeypatch):
    # steady_shock at u_plus 0.6 on 80 velocity cells: M(0.6) and M(-0.6)
    # fill rows [16, 40) and [40, 64).  After the first step a density lies
    # one rounding below -0.6, the right edge of row 15, and the band widens.
    bands = []
    upwind = kinetic._upwind

    def recording(f, t, lo, hi, *args):
        bands.append((lo, hi))
        upwind(f, t, lo, hi, *args)

    monkeypatch.setattr(kinetic, "_upwind", recording)
    config = ScenarioConfig(scenario="steady_shock")
    run = solve_full_epsilon(config, 0.2)
    assert len(bands) == run.n_steps
    assert bands[0] == (16, 64)
    assert set(bands[1:]) == {(15, 64)}


# -- the one-block sweep on its edge cases ---------------------------------

def sweep_case(vg, grid, rng, gap=0.05):
    """Shock-class data and a random signed profile on the grid pair."""
    incoming = DiscreteDistribution(vg, np.where(vg.positive, rng.uniform(0.0, 0.9, vg.n_cells), 0.0))
    data = LayerData(min(flux_moment(incoming) + gap, 0.5 * vg.half_width**2), incoming)
    raw = rng.uniform(0.0, 1.0, (grid.n_cells + 1, vg.n_cells))
    return data, np.where(vg.positive, raw, -raw)


def test_golse_iterate_matches_mask_reference_bitwise_on_the_default_grids():
    # LayerGrid(20, 400) x VelocityGrid(1, 80), the pair every scenario uses
    vg = VelocityGrid(1.0, 80)
    grid = LayerGrid(20.0, 400)
    data, values = sweep_case(vg, grid, np.random.default_rng(3))
    assert_bitwise_equal(golse_iterate(data, grid, values), ref_golse_iterate(data, grid, values))


def node_density(row, vg):
    """The density golse_iterate reads from one profile row."""
    return vg.dxi * row[None, :].sum(axis=1)[0]


def row_with_density(target, vg):
    """A profile row whose node density is target, or the nearest double of its sign.

    Not every double is dxi times another, so a few targets are missed by an
    ulp.  A row of -0.0 sums to +0.0, so -0.0 comes from a tiny negative
    entry whose product with dxi underflows.
    """
    x = target / vg.dxi
    candidates = [x]
    up = down = x
    for _ in range(8):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        candidates += [up, down]
    rows = []
    for c in candidates:
        row = np.zeros(vg.n_cells)
        row[0] = c
        u = node_density(row, vg)
        rows.append(((np.signbit(u) != np.signbit(target), abs(u - target)), row))
    return min(rows, key=lambda keyed: keyed[0])[1]


@pytest.mark.parametrize("vg", GRIDS, ids=lambda g: f"{g.half_width}x{g.n_cells}")
def test_golse_iterate_is_bitwise_at_node_densities_on_cell_edges(vg):
    # every cell edge, +-0.0 and +-half_width as node densities, so the
    # source clips land exactly on 0 and 1 and signed zeros reach the scan
    targets = np.concatenate((vg.edges, [0.0, -0.0, vg.half_width, -vg.half_width]))
    grid = LayerGrid(5.0, 2 * targets.size - 1)
    data, values = sweep_case(vg, grid, np.random.default_rng(vg.n_cells))
    values[::2] = [row_with_density(t, vg) for t in targets]
    u = np.array([node_density(row, vg) for row in values[::2]])
    assert np.all(np.abs(u - targets) <= np.spacing(np.abs(targets)))
    assert np.array_equal(np.signbit(u), np.signbit(targets))
    assert np.count_nonzero(u == targets) >= 0.7 * targets.size
    assert_bitwise_equal(golse_iterate(data, grid, values), ref_golse_iterate(data, grid, values))


@pytest.mark.parametrize("n_cells", [1, 2, 22, 37])
def test_golse_iterate_matches_mask_reference_bitwise_off_power_of_two(n_cells):
    # node counts 2, 3, 23, 38: the doubling scan's last round covers part of the block
    vg = VelocityGrid(2.5, 6)
    grid = LayerGrid(3.0, n_cells)
    data, values = sweep_case(vg, grid, np.random.default_rng(n_cells))
    assert_bitwise_equal(golse_iterate(data, grid, values), ref_golse_iterate(data, grid, values))


def test_sweep_weight_cache_stays_bounded():
    limit = _weights.cache_info().maxsize
    vg = VelocityGrid(1.0, 40)
    data, _ = sweep_case(vg, LayerGrid(1.0, 10), np.random.default_rng(0))
    for n in range(limit + 3):
        grid = LayerGrid(1.0, 10 + n)
        golse_iterate(data, grid, np.zeros((grid.n_cells + 1, vg.n_cells)))
    assert _weights.cache_info().currsize <= limit


# -- the sweep band ----------------------------------------------------------
#
# golse_iterate builds and scans only the columns [lo, hi) that the node
# densities or the boundary datum reach, and fills the rest.  On
# VelocityGrid(1, 40) the xi < 0 columns 0..19 have right edges -0.95..0.0
# and the xi > 0 columns 20..39 left edges 0.0..0.95.

BAND_VG = VelocityGrid(1.0, 40)
BAND_GRID = LayerGrid(3.0, 12)
E = BAND_VG.edges

# (densities, {datum column: value}, expected band); densities repeat over the nodes
BAND_CASES = {
    "lower limit on -0.0": ([-0.0, 0.12, 0.33], {}, (19, 27)),
    "lower limit on +0.0": ([0.0, 0.12, 0.33], {}, (19, 27)),
    "upper limit on -0.0": ([-0.47, -0.23, -0.0], {}, (10, 21)),
    "upper limit on +0.0": ([-0.47, -0.23, 0.0], {}, (10, 21)),
    "lower limit on a cell edge": ([E[6], 0.12, 0.07], {22: 0.4}, (5, 23)),
    "upper limit on a cell edge": ([-0.23, E[27], 0.2], {}, (15, 28)),
    "datum beyond the source": ([-0.23, -0.1], {35: 0.3}, (15, 36)),
    "datum -0.0 beyond the band": ([-0.23, -0.1], {20: 0.5, 33: -0.0, 39: -0.0}, (15, 21)),
    "one xi > 0 column": ([0.01, 0.04, 0.02], {}, (20, 21)),
    "one xi < 0 column": ([-0.01, -0.04, -0.02], {}, (19, 20)),
    "all positive": ([0.3, 0.62, 0.05], {c: 1.0 for c in range(20, 30)}, (20, 33)),
    "all negative": ([-0.3, -0.62, -0.05], {}, (7, 20)),
}


def band_case(densities, datum, vg=BAND_VG, grid=BAND_GRID, seed=0):
    """Layer data with the given datum and a profile whose node densities cycle through densities."""
    values = np.zeros(vg.n_cells)
    for column, value in datum.items():
        values[column] = value
    incoming = DiscreteDistribution(vg, values)
    data = LayerData(flux_moment(incoming) + 0.01, incoming)
    targets = np.resize(np.array(densities, dtype=float), grid.n_cells + 1)
    np.random.default_rng(seed).shuffle(targets)
    return data, np.array([row_with_density(t, vg) for t in targets])


def assert_edge_densities_hit(values, densities, vg):
    # a density on a cell edge (+-0.0 included) limits the band only if it
    # sits there exactly, sign included
    u = np.array([node_density(row, vg) for row in values])
    for t in densities:
        if t in vg.edges:
            hit = (u == t) & (np.signbit(u) == np.signbit(t))
            assert hit.any(), f"no node density is exactly {t!r}"


@pytest.mark.parametrize("case", BAND_CASES, ids=str)
def test_golse_iterate_is_bitwise_on_band_edge_cases(case):
    densities, datum, _ = BAND_CASES[case]
    data, values = band_case(densities, datum)
    assert_edge_densities_hit(values, densities, BAND_VG)
    assert_bitwise_equal(golse_iterate(data, BAND_GRID, values), ref_golse_iterate(data, BAND_GRID, values))


@pytest.mark.parametrize("case", BAND_CASES, ids=str)
def test_golse_iterate_scans_only_the_band(case, monkeypatch):
    densities, datum, (lo, hi) = BAND_CASES[case]
    widths = []
    scan = milne._scan_lower

    def recording(block, powers, scratch):
        widths.append(block.shape)
        assert all(p.shape == (block.shape[1],) for p in powers)
        scan(block, powers, scratch)

    monkeypatch.setattr(milne, "_scan_lower", recording)
    data, values = band_case(densities, datum)
    golse_iterate(data, BAND_GRID, values)
    assert widths == [(BAND_GRID.n_cells + 1, hi - lo)]


@pytest.mark.parametrize("vg", GRIDS[:2], ids=lambda g: f"{g.half_width}x{g.n_cells}")
@pytest.mark.parametrize("side", ["lower", "upper"])
def test_golse_iterate_is_bitwise_with_the_band_limit_on_every_edge(vg, side):
    # the smallest density on each xi < 0 right edge, or the largest on each
    # xi > 0 left edge with a zero datum; +-0.0 included, every other
    # density strictly on the far side of the limit.  Only grids with
    # dxi < 1/2 are used, where a tiny negative row gives the density -0.0.
    h = vg.half
    rng = np.random.default_rng(h)
    limits = list(vg.edges[1 : h + 1] if side == "lower" else vg.edges[h:-1]) + [-0.0]
    hits = 0
    for n, limit in enumerate(limits):
        if side == "lower":
            others = rng.uniform(np.nextafter(limit, np.inf), vg.half_width, 6)
            datum = {c: rng.uniform(0.0, 1.0) for c in range(h, vg.n_cells)}
        else:
            others = rng.uniform(-vg.half_width, np.nextafter(limit, -np.inf), 6)
            datum = {}
        data, values = band_case([limit, *others], datum, vg, seed=n)
        u = np.array([node_density(row, vg) for row in values])
        extreme = u.min() if side == "lower" else u.max()
        hits += extreme == limit and np.signbit(extreme) == np.signbit(limit)
        assert_bitwise_equal(golse_iterate(data, BAND_GRID, values), ref_golse_iterate(data, BAND_GRID, values))
    assert hits >= 0.7 * len(limits)


def swept_by_reference(data, grid, values, *, out=None):
    expected = ref_golse_iterate(data, grid, values)
    if out is None:
        return expected
    out[...] = expected
    return out


def record_bytes(state):
    """Final layer and the layer fields of every interface record, as bytes."""
    records = [
        (r.layer_iterations, np.float64(r.layer_residual).tobytes(), r.back_flux_values.tobytes())
        for r in state.trace_log
    ]
    return state.layer.values.tobytes(), records


# (config, initial state, steps): the first 20 steps of shock at eta 0.1, and
# random state 0 of the relaxation family over its whole horizon
MARCHES = {
    "shock": (ScenarioConfig(scenario="shock", eta=0.1), build_coupled_initial, 20),
    "random": (ScenarioConfig(scenario="relaxation"), partial(random_coupled_state, seed=0), None),
}


@pytest.mark.parametrize("scenario", MARCHES)
def test_coupled_march_matches_the_reference_sweep_bytewise(scenario, monkeypatch):
    # every solve, sweep count and residual of the banded sweep is that of
    # the full-width reference
    config, initial, n_steps = MARCHES[scenario]
    dt, horizon_steps = scenario_dt(config)
    n_steps = n_steps or horizon_steps
    params = coupling_params_of(config)
    banded, _ = run_coupled(initial(config), dt, n_steps, params)
    monkeypatch.setattr(milne, "golse_iterate", swept_by_reference)
    reference, _ = run_coupled(initial(config), dt, n_steps, params)
    assert sum(r.layer_iterations for r in banded.trace_log) > n_steps
    assert record_bytes(banded) == record_bytes(reference)


# shock at eta 0.1 and random state 0 as above, and the first 50 steps of
# random state 1, whose limit march switches from relaxation to shock class
# at step 37 and back at step 44 (state 0's stays shock class).  In the
# naive marches, whose returning
# slice is M(u(0+)) on xi < 0, a later step's inflow reaches velocity rows
# that the field does not, on state 0 from step 2.  The naive marches of
# all three raise CflError after 2 to 20 steps, so their prefixes are
# compared too.
LOOP_MARCHES = {
    "shock": MARCHES["shock"],
    "random-0": MARCHES["random"],
    "random-1": (ScenarioConfig(scenario="relaxation"), partial(random_coupled_state, seed=1), 50),
}


def march_or_prefix(state, dt, n_steps, params, mode):
    """run_coupled with a snapshot every step: (final, snapshots, None), or its MarchPrefix and failure."""
    try:
        final, snapshots = run_coupled(state, dt, n_steps, params, mode=mode, log_every=1)
        return final, snapshots, None
    except SOLVER_ERRORS as exc:
        prefix = exc.march_prefix
        return prefix.state, prefix.snapshots, (prefix.failed_step, prefix.failed_time, repr(exc))


def step_loop(state, dt, n_steps, params, mode):
    """The same march as single steps: every state reached, and the failure."""
    states = [state]
    for n in range(n_steps):
        try:
            state = coupled_step(state, dt, params) if mode == "limit" else naive_coupled_step(state, dt)
        except SOLVER_ERRORS as exc:
            return states, (n, n * dt, repr(exc))
        states.append(state)
    return states, None


def record_fields(record):
    """Every InterfaceRecord field, floats and arrays as bytes so that NaN and -0.0 compare."""
    out = []
    for f in fields(InterfaceRecord):
        value = getattr(record, f.name)
        if isinstance(value, np.ndarray):
            value = (value.dtype, value.shape, value.tobytes())
        elif isinstance(value, float):
            value = np.float64(value).tobytes()
        out.append((f.name, value))
    return out


def returned_arrays(final, snapshots):
    arrays = [final.kinetic.values, final.fluid.values, final.far_left_inflow]
    arrays += [r.back_flux_values for r in final.trace_log]
    arrays += [a for s in snapshots for a in (s.kinetic_values, s.fluid_values)]
    if final.layer is not None:
        arrays.append(final.layer.values)
    return arrays


@pytest.mark.parametrize("mode", ["limit", "naive"])
@pytest.mark.parametrize("scenario", LOOP_MARCHES)
def test_coupled_march_is_bitwise_a_loop_of_single_steps(scenario, mode):
    config, initial, n_steps = LOOP_MARCHES[scenario]
    dt, horizon_steps = scenario_dt(config)
    n_steps = n_steps or horizon_steps
    params = coupling_params_of(config)
    final, snapshots, failure = march_or_prefix(initial(config), dt, n_steps, params, mode)
    states, loop_failure = step_loop(initial(config), dt, n_steps, params, mode)
    assert failure == loop_failure
    assert (failure is not None) == (mode == "naive")

    # the march against the loop: every snapshot, the final state, every record
    assert len(snapshots) == len(states) == len(final.trace_log) + 1
    for snapshot, state in zip(snapshots, states):
        assert snapshot.time == state.kinetic.time
        assert_bitwise_equal(snapshot.kinetic_values, state.kinetic.values)
        assert_bitwise_equal(snapshot.fluid_values, state.fluid.values)
    last = states[-1]
    assert type(final) is type(last) and type(final.kinetic) is type(last.kinetic)
    assert final.kinetic.values.flags.owndata
    assert final.kinetic.time == last.kinetic.time
    assert_bitwise_equal(final.kinetic.values, last.kinetic.values)
    assert_bitwise_equal(final.fluid.values, last.fluid.values)
    assert list(map(record_fields, final.trace_log)) == list(map(record_fields, last.trace_log))
    if mode == "limit":
        assert_bitwise_equal(final.layer.values, last.layer.values)
    if scenario == "random-1" and mode == "limit":
        assert {r.layer_class for r in final.trace_log} == {"relaxation", "shock"}

    # each step of the kept kernel against the row-major reference step
    space, velocity = final.kinetic.space, final.kinetic.velocity
    stiffness = StiffnessProfile.uniform(space, 1.0)
    h = velocity.half
    new_rows = []
    for n, (before, after, record) in enumerate(zip(snapshots, snapshots[1:], final.trace_log)):
        right = record.back_flux_values
        bc = InflowBoundary(left=final.far_left_inflow, right=right)
        expected = ref_step(KineticField(space, velocity, before.kinetic_values), bc, stiffness, dt)
        assert_bitwise_equal(after.kinetic_values, expected)
        inflow_rows = np.flatnonzero(right[:h] != 0.0)
        field_rows = np.flatnonzero((before.kinetic_values != 0.0).any(axis=0))
        if inflow_rows.size and inflow_rows[0] < field_rows[0]:
            new_rows.append(n)
    if scenario == "random-0" and mode == "naive":
        assert new_rows[0] == 2

    # stepping the returned state again writes to none of the returned arrays
    kept = [a.copy() for a in returned_arrays(final, snapshots)]
    with suppress(*SOLVER_ERRORS):
        coupled_step(final, dt, params) if mode == "limit" else naive_coupled_step(final, dt)
    with suppress(*SOLVER_ERRORS):
        run_coupled(final, dt, 3, params, mode=mode, log_every=1)
    for array, copy in zip(returned_arrays(final, snapshots), kept):
        assert_bitwise_equal(array, copy)


# -- the fluid step ----------------------------------------------------------

def fluid_case(n_cells, rng):
    """Random Burgers cells with signed zeros and sonic pairs, and a CFL-safe dt."""
    u = rng.uniform(-1.0, 1.0, n_cells)
    u[rng.random(n_cells) < 0.15] = 0.0
    u[rng.random(n_cells) < 0.15] = -0.0
    u[0] = -0.5                          # the boundary face sees a returning first cell
    if n_cells > 1:
        u[:2] = (-0.5, 0.5)              # sonic rarefaction at the first interior face
    if n_cells > 3:
        u[-2:] = (0.5, -0.5)             # transonic shock at the last interior face
    grid = kinetic.SpaceGrid(0.0, 1.0, n_cells)
    return fluid.FluidField(grid, u), 0.9 * grid.dx


@pytest.mark.parametrize("n_cells", [1, 2, 200])
@pytest.mark.parametrize("seed", range(4))
def test_fluid_steps_match_the_three_call_reference_bitwise(n_cells, seed):
    rng = np.random.default_rng(seed)
    field, dt = fluid_case(n_cells, rng)
    for v in (0.0, -0.0, 0.5, float(rng.uniform(0.0, 1.0))):
        left_flux = fluid.godunov_flux(v, field.values[0])
        assert_bitwise_equal(fluid.fluid_step(field, v, dt).values, ref_fluid_step(field, left_flux, dt))
    for boundary_flux in (0.0, -0.0, -0.125, float(rng.uniform(0.0, 0.5))):
        assert_bitwise_equal(
            fluid.fluid_step_with_boundary_flux(field, boundary_flux, dt).values,
            ref_fluid_step(field, boundary_flux, dt),
        )


@pytest.mark.parametrize("mode", ["limit", "naive"])
def test_one_godunov_flux_call_per_fluid_step(mode, monkeypatch):
    config = ScenarioConfig(scenario="relaxation", n_x=40, n_xi=8, layer_n_y=40)
    dt, _ = scenario_dt(config)
    calls = []
    flux = fluid.godunov_flux

    def counted(*args):
        calls.append(np.shape(args[0]))
        return flux(*args)

    monkeypatch.setattr(fluid, "godunov_flux", counted)
    state, _ = run_coupled(build_coupled_initial(config), dt, 5, coupling_params_of(config), mode=mode)
    assert len(state.trace_log) == 5
    assert calls == [(config.fluid_grid().n_cells + (mode == "limit"),)] * 5
