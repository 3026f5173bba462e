"""Finite-volume solver for the relaxation kinetic equation on an interval.

Solves  d_t f + xi d_x f = alpha(x) (M f - f)  with donor-cell upwind
transport, operator splitting, and the exact exponential relaxation update
from the velocity module.  alpha may jump in x (the stiff-right-half profile
used in the scale-limit experiments), and inflow values are prescribed on the
incoming half-range at each end.

KineticField holds f row-major, one row per space cell.  The solver itself
runs one kernel (_March) for step, run_with_history and the coupled march
(coupling.run_coupled): it holds f velocity-major, one contiguous row per
velocity cell, updates only the band of rows that the field, the inflows or
the equilibria reach, and sums each density over those rows in order.  A
march transposes the field in once and builds a KineticField only where one
is read; step is a march of one step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import CflError, GridMismatchError
from .velocity import (
    DiscreteDistribution,
    VelocityGrid,
    _covered_shares,
    _equilibrium_band,
    check_signed_admissible,
    maxwellian_values,
)

__all__ = [
    "SpaceGrid",
    "KineticField",
    "StiffnessProfile",
    "InflowBoundary",
    "stable_dt",
    "step",
    "outgoing_trace",
    "l1_field_distance",
    "KineticHistory",
    "run_with_history",
    "duhamel_trace_oracle",
]


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform cell-centered grid on (x_min, x_max).

    When the interval contains x = 0 it must fall on a cell edge, so that the
    two sides of an interface never share a cell.
    """

    x_min: float
    x_max: float
    n_cells: int
    edges: np.ndarray = field(init=False, repr=False, compare=False)
    centers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ValueError(f"need x_min < x_max, got ({self.x_min}, {self.x_max})")
        if self.n_cells <= 0:
            raise ValueError(f"n_cells must be positive, got {self.n_cells}")
        edges = np.linspace(self.x_min, self.x_max, self.n_cells + 1)
        if self.x_min < 0.0 < self.x_max:
            k = np.argmin(np.abs(edges))
            if abs(edges[k]) > 1e-9 * (self.x_max - self.x_min):
                raise ValueError("x = 0 must coincide with a cell edge when the grid crosses it")
            edges[k] = 0.0
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "centers", 0.5 * (edges[:-1] + edges[1:]))

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    def cell_of(self, x: float) -> int:
        """Index of the cell containing x (clipped to the domain)."""
        i = int(np.floor((x - self.x_min) / self.dx))
        return min(max(i, 0), self.n_cells - 1)


@dataclass
class KineticField:
    """Cell-averaged kinetic density f[i, j] on space cell i, velocity cell j."""

    space: SpaceGrid
    velocity: VelocityGrid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.space.n_cells, self.velocity.n_cells)
        if self.values.shape != expected:
            raise GridMismatchError(f"field shape {self.values.shape}, expected {expected}")

    def copy(self) -> "KineticField":
        return KineticField(self.space, self.velocity, self.values.copy(), self.time)

    def densities(self) -> np.ndarray:
        return self.velocity.dxi * self.values.sum(axis=1)


@dataclass(frozen=True)
class StiffnessProfile:
    """Relaxation rate alpha per space cell; a NaN, infinite or negative rate is a ValueError."""

    alpha: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        bad = np.flatnonzero(~(np.isfinite(alpha) & (alpha >= 0.0)))
        if bad.size:
            i = bad[0]
            raise ValueError(f"relaxation rates must be finite and nonnegative, got {alpha[i]} at cell {i}")
        object.__setattr__(self, "alpha", alpha)

    @staticmethod
    def uniform(grid: SpaceGrid, alpha: float = 1.0) -> "StiffnessProfile":
        return StiffnessProfile(np.full(grid.n_cells, float(alpha)))

    @staticmethod
    def two_zone(grid: SpaceGrid, eps: float) -> "StiffnessProfile":
        """alpha = 1 for x <= 0 and 1/eps for x > 0; the jump sits on a cell edge."""
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        return StiffnessProfile(np.where(grid.centers > 0.0, 1.0 / eps, 1.0))


@dataclass
class InflowBoundary:
    """Prescribed ghost values for the incoming half-ranges.

    left feeds cells for xi > 0, right feeds cells for xi < 0.  Arrays are
    full velocity slices; only the relevant half of each is ever read.
    None means zero inflow.
    """

    left: np.ndarray | None = None
    right: np.ndarray | None = None

    def left_values(self, grid: VelocityGrid) -> np.ndarray:
        return np.zeros(grid.n_cells) if self.left is None else np.asarray(self.left, dtype=float)

    def right_values(self, grid: VelocityGrid) -> np.ndarray:
        return np.zeros(grid.n_cells) if self.right is None else np.asarray(self.right, dtype=float)


def stable_dt(space: SpaceGrid, velocity: VelocityGrid, cfl: float = 0.9) -> float:
    """Largest time step at the given CFL number against the velocity bound."""
    return cfl * space.dx / velocity.half_width


def step(field: KineticField, bc: InflowBoundary, stiffness: StiffnessProfile, dt: float) -> KineticField:
    """Advance one time step: upwind transport, then exact relaxation.

    dt must be a nonnegative number (ValueError; dt = 0 leaves the values as
    they are), the inflow slices admissible on the half each one feeds, the
    stiffness profile one rate per space cell and dt within the CFL limit;
    each is checked in that order before any work.  The interior stays
    admissible automatically because both substeps are monotone convex
    updates.  Mass changes only through the boundary fluxes.

    The step is a one-step _March, the velocity-major kernel of
    run_with_history, with one transpose each way and the band taken from
    the given field.
    """
    march = _March(field, bc, stiffness, dt)
    march.advance()
    return march.finish()


def _check_dt(dt: float) -> None:
    if not dt >= 0.0:    # NaN fails it too
        raise ValueError(f"dt must be a nonnegative number, got {dt}")


class _March:
    """The velocity-major kernel of one march: its (n_xi, n_x) field buffer,
    its transport buffer, the band of rows [lo, hi), nu and the relaxation
    weights.

    Whoever builds a _March owns it and advances it in place: step for one
    step, run_with_history for its n_steps, and coupling.run_coupled for its
    whole march, where each coupled step hands in the layer's new right
    inflow.  No KineticField is built per step: finish() builds one, a copy,
    at the end.  Until then the march reads like one (space, velocity, time,
    values), and values is a live transposed view of the buffer, which the
    next step overwrites.

    The constructor runs every check step runs, in its order, before any
    work: dt, the left and the right inflow, the stiffness profile, the CFL
    limit.  Within a march only the right inflow may change, and advance
    checks each new one the same way.

    Transport, equilibrium and relaxation touch only the rows [lo, hi) that
    the field's nonzero entries, the nonzero read half of each inflow or the
    equilibria of a step's densities reach.  The band only grows, and it
    always holds the split xi = 0.  Outside the band the buffers hold +0.0,
    which is what a full-width step gives those rows, bit for bit: there the
    field and the inflows are zeros of either sign, so the transport t is a
    zero, the equilibrium share eq is a zero (see velocity._equilibrium_band),
    and t + w (eq - t) is +0.0 for any weight w >= +0.0.  A weight that is
    negative, -0.0 or not finite breaks this argument and makes the band the
    full range.

    Transport and relaxation are the row-major upwind step's arithmetic,
    cell by cell.  A cell's density is dxi times its transported entries
    added one velocity row at a time, in order, from +0.0, at every n_x; the
    zeros of the rows outside the band change no such sum, which is never
    -0.0.  A band wider than a fresh step's changes no bit, so a march is
    bitwise a loop of single steps, whatever inflows it is handed.
    """

    def __init__(self, field: KineticField, bc: InflowBoundary, stiffness: StiffnessProfile, dt: float):
        _check_dt(dt)
        space, vgrid = field.space, field.velocity
        h = vgrid.half
        left = bc.left_values(vgrid)
        right = bc.right_values(vgrid)
        if bc.left is not None:
            check_signed_admissible(left[h:])
        if bc.right is not None:
            check_signed_admissible(np.negative(right[:h]))
        if stiffness.alpha.shape != (space.n_cells,):
            raise GridMismatchError("stiffness profile does not match the space grid")
        nu = vgrid.centers * dt / space.dx
        if np.abs(nu).max() > 1.0 + 1e-12:
            raise CflError(f"dt = {dt} exceeds the CFL limit {space.dx / vgrid.half_width}")
        w = -np.expm1(-stiffness.alpha * dt)

        n_xi, n_x = vgrid.n_cells, space.n_cells
        reached = (field.values != 0.0).any(axis=0)
        reached[h:] |= left[h:] != 0.0
        columns = np.flatnonzero(reached)
        lo, hi = (min(h, int(columns[0])), max(h, int(columns[-1]) + 1)) if columns.size else (h, h)
        if np.signbit(w).any() or not np.isfinite(w).all():
            lo, hi = 0, n_xi
        # two buffers, +0.0 outside the band: the field, which each step's
        # equilibrium and result overwrite, and the transported field
        self.f = np.zeros((n_xi, n_x))
        self.f[lo:hi] = field.values[:, lo:hi].T
        self.t = np.zeros_like(self.f)
        self.space, self.velocity, self.time, self.dt = space, vgrid, field.time, dt
        self.lo, self.hi, self.nu, self.w, self.left = lo, hi, nu, w, left
        self._take_right(right)

    @property
    def values(self) -> np.ndarray:
        return self.f.T

    def finish(self) -> KineticField:
        """End the march: its field as a KineticField of its own.

        The transport buffer goes first, so the copy never sits beside both.
        """
        self.t = None
        return KineticField(self.space, self.velocity, self.f.T.copy(), self.time)

    def _take_right(self, right: np.ndarray) -> None:
        rows = np.flatnonzero(right[: self.velocity.half] != 0.0)
        if rows.size:
            self.lo = min(self.lo, int(rows[0]))
        self.right = right

    def advance(self, right: np.ndarray | None = None) -> None:
        """One step, from a new right inflow (a full velocity slice) when one is given."""
        vgrid = self.velocity
        h = vgrid.half
        if right is not None:
            check_signed_admissible(np.negative(right[:h]))
            self._take_right(right)
        f, t = self.f, self.t
        _upwind(f, t, self.lo, self.hi, h, self.nu, self.left, self.right)
        # np.add.reduce sums pairwise at n_x = 1, np.subtract.reduce never
        # pairs, and 0 - ((0 - t_lo) - ...) is the ordered sum exactly
        u = vgrid.dxi * (0.0 - np.subtract.reduce(t[self.lo : self.hi], axis=0, initial=0.0))
        reach_lo, reach_hi = _equilibrium_band(u, vgrid)
        self.lo, self.hi = lo, hi = min(self.lo, reach_lo), max(self.hi, reach_hi)
        # transported + w (eq - transported), in place in the band of f
        block = f[lo:hi]
        _covered_shares(u[:, None], u[:, None], vgrid, block.T, lo, hi)
        np.negative(block[: h - lo], out=block[: h - lo])
        block -= t[lo:hi]
        block *= self.w
        block += t[lo:hi]
        self.time += self.dt


def _upwind(
    f: np.ndarray, t: np.ndarray, lo: int, hi: int, h: int,
    nu: np.ndarray, left: np.ndarray, right: np.ndarray,
) -> None:
    """Donor-cell transport of the velocity rows [lo, hi) of f into t.

    Each half's rows are one flat run of cells, so the neighbour difference
    is one flat subtract; the differences it takes across a row end land in
    the boundary cells, which the ghost formulas write last.
    """
    nu_rows = nu[:, None]
    # xi > 0 rows take from the west neighbour, the left ghost feeding cell 0
    src, dst = f[h:hi], t[h:hi]
    np.subtract(src.reshape(-1)[1:], src.reshape(-1)[:-1], out=dst.reshape(-1)[1:])
    dst *= nu_rows[h:hi]
    np.subtract(src, dst, out=dst)
    dst[:, 0] = src[:, 0] - nu[h:hi] * (src[:, 0] - left[h:hi])
    # xi < 0 rows take from the east neighbour, the right ghost feeding the last cell
    src, dst = f[lo:h], t[lo:h]
    np.subtract(src.reshape(-1)[1:], src.reshape(-1)[:-1], out=dst.reshape(-1)[:-1])
    dst *= nu_rows[lo:h]
    np.subtract(src, dst, out=dst)
    dst[:, -1] = src[:, -1] - nu[lo:h] * (right[lo:h] - src[:, -1])


def outgoing_trace(field: KineticField) -> DiscreteDistribution:
    """What leaves through x_max: the last cell's xi > 0 slice, the xi < 0 half zeroed."""
    vgrid = field.velocity
    return DiscreteDistribution(vgrid, np.where(vgrid.positive, field.values[-1], 0.0))


def l1_field_distance(a: KineticField, b: KineticField) -> float:
    if a.space != b.space or a.velocity != b.velocity:
        raise GridMismatchError("cannot compare kinetic fields on different grids")
    return a.space.dx * a.velocity.dxi * float(np.abs(a.values - b.values).sum())


@dataclass
class KineticHistory:
    """A march's step times, its final field and the snapshots asked for.

    No per-step field or density is kept: a reader that needs a step's
    field asks for it in snapshot_times.  initial is the field the march
    started from, not a copy of it.
    """

    times: np.ndarray          # (n_steps + 1,)
    initial: KineticField
    final: KineticField
    snapshots: dict[float, np.ndarray]


def run_with_history(
    field: KineticField,
    bc: InflowBoundary,
    stiffness: StiffnessProfile,
    dt: float,
    n_steps: int,
    snapshot_times: Sequence[float] = (),
) -> KineticHistory:
    """March n_steps, keeping the final field and the requested snapshots.

    The march is bitwise a loop of step calls: both run the one
    velocity-major kernel (see _March), densities included.  It checks dt
    first, as step does, and the inflows, the stiffness profile and the CFL
    limit once; n_steps = 0 runs only the dt check.  A requested time r is
    stored from the first step whose time is at least r - dt/2, the start
    field included, so times[k] is stored as step k.  A time more than dt/2
    past the last step is a ValueError, raised before the march starts.
    """
    _check_dt(dt)
    times = field.time + dt * np.arange(n_steps + 1)
    due: dict[int, list[float]] = {}
    for r in sorted(snapshot_times):
        k = int(np.searchsorted(times, r - 0.5 * dt))
        if k > n_steps:
            raise ValueError(f"snapshot time {r} lies more than dt/2 past the last step, {times[-1]}")
        due.setdefault(k, []).append(r)
    snapshots = {r: field.values.copy() for r in due.get(0, ())}
    final = field
    if n_steps > 0:
        march = _March(field, bc, stiffness, dt)
        for n in range(1, n_steps + 1):
            march.advance()
            for r in due.get(n, ()):
                snapshots[r] = march.values.copy()
        final = march.finish()
    return KineticHistory(times, field, final, snapshots)


def _exp_weighted_segment(a: float, b: float, t: float, m_a: float, m_b: float) -> float:
    """Exact integral of e^(s-t) * (linear interpolant of m) over [a, b]."""
    # antiderivatives: int e^(s-t) ds and int (s-a) e^(s-t) ds
    ea = np.exp(a - t)
    eb = np.exp(b - t)
    i0 = eb - ea
    i1 = (b - a) * eb - i0
    slope = (m_b - m_a) / (b - a) if b > a else 0.0
    return m_a * i0 + slope * i1


def duhamel_trace_oracle(
    history: KineticHistory,
    t: float,
    initial_fn: Callable[[float, float], float] | None = None,
    inflow_left: np.ndarray | None = None,
) -> DiscreteDistribution:
    """Independent estimate of the outgoing trace at the right edge, alpha = 1.

    Integrates the mild form of the equation backward along characteristics
    reaching (x_right, xi) at time t: the initial datum decays by e^-t and the
    equilibrium source is accumulated with exact exponential weights between
    recorded steps.  Characteristics that exit through the left end pick up
    the prescribed inflow value instead of the initial datum.  The density
    of each step comes from the snapshot taken at that step's time.

    Parameters
    ----------
    history : recorded run (alpha must have been uniformly 1) with a snapshot
        at every step time up to t; a missing one is a ValueError.
    t : evaluation time; must match a recorded time up to roundoff.
    initial_fn : f0(x, xi) as a function; defaults to cell lookup in the
        recorded initial field.
    inflow_left : full velocity slice of the left inflow (constant in time).

    Returns the trace on the xi > 0 half-range, zeros elsewhere.
    """
    fld = history.initial
    sgrid, vgrid = fld.space, fld.velocity
    x_right = sgrid.x_max
    times = history.times
    k_end = int(np.argmin(np.abs(times - t)))
    if abs(times[k_end] - t) > 1e-9:
        raise ValueError(f"t = {t} is not a recorded time")
    u_steps = _step_densities(history, k_end)

    if initial_fn is None:
        def initial_fn(x, xi):  # noqa: F811 - deliberate default closure
            return fld.values[sgrid.cell_of(x), _cell_of_xi(vgrid, xi)]

    inflow = np.zeros(vgrid.n_cells) if inflow_left is None else np.asarray(inflow_left, float)

    def eq_at(s: float, x: float, j: int) -> float:
        # density at (s, x) by nearest recorded step and containing cell
        k = int(round((s - times[0]) / (times[1] - times[0]))) if len(times) > 1 else 0
        k = min(max(k, 0), k_end)
        u = u_steps[k][sgrid.cell_of(x)]
        return float(maxwellian_values(u, vgrid)[j])

    out = np.zeros(vgrid.n_cells)
    pos_idx = np.nonzero(vgrid.positive)[0]
    for j in pos_idx:
        xi = vgrid.centers[j]
        s_entry = t - (x_right - sgrid.x_min) / xi  # when the foot crosses x_min
        if s_entry <= times[0]:
            s_lo = times[0]
            base = initial_fn(x_right - (t - s_lo) * xi, xi) * np.exp(-(t - s_lo))
        else:
            s_lo = s_entry
            base = inflow[j] * np.exp(-(t - s_lo))
        acc = 0.0
        # integrate over recorded intervals clipped to [s_lo, t]
        for k in range(k_end):
            a, b = times[k], times[k + 1]
            if b <= s_lo:
                continue
            a = max(a, s_lo)
            if a >= b:
                continue
            m_a = eq_at(a, x_right - (t - a) * xi, j)
            m_b = eq_at(b, x_right - (t - b) * xi, j)
            acc += _exp_weighted_segment(a, b, t, m_a, m_b)
        out[j] = base + acc
    return DiscreteDistribution(vgrid, out)


def _step_densities(history: KineticHistory, k_end: int) -> list[np.ndarray]:
    """Density of each step 0..k_end, from the snapshot stored at its time."""
    times = history.times
    by_step: dict[int, np.ndarray] = {}
    for r, values in history.snapshots.items():
        k = int(np.argmin(np.abs(times - r)))
        if abs(times[k] - r) <= 1e-9:
            by_step[k] = values
    missing = [k for k in range(k_end + 1) if k not in by_step]
    if missing:
        raise ValueError(
            f"no snapshot at {len(missing)} step time(s) up to t, the first {times[missing[0]]}; "
            "run_with_history needs snapshot_times at every step"
        )
    dxi = history.initial.velocity.dxi
    return [dxi * by_step[k].sum(axis=1) for k in range(k_end + 1)]


def _cell_of_xi(grid: VelocityGrid, xi: float) -> int:
    j = int(np.floor((xi + grid.half_width) / grid.dxi))
    return min(max(j, 0), grid.n_cells - 1)

