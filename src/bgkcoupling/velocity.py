"""Velocity-space grid, equilibrium profiles, and moment operations.

The kinetic model transports a density f(x, xi) whose equilibrium at fluid
density u is the signed indicator

    M(u, xi) = sign(u) * 1{ 0 < xi * sign(u) < |u| },

so that integrating M over xi returns u and integrating xi*M returns u**2/2.
Everything here works with cell averages on a uniform grid over (-L, L) with
xi = 0 on a cell edge.  Partial cells at the support endpoint are integrated
exactly, which keeps both moments of a projected equilibrium at machine
precision and makes the discrete entropy identities below hold to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import AdmissibilityError, GridMismatchError

__all__ = [
    "VelocityGrid",
    "DiscreteDistribution",
    "maxwellian",
    "maxwellian_values",
    "maxwellian_table",
    "maxwellian_cell_flux",
    "maxwellian_moment",
    "density_moment",
    "flux_moment",
    "density_of",
    "flux_of",
    "relax_toward_maxwellian",
    "entropy_defect_cumulative",
    "l1_distance",
    "check_admissible",
    "check_signed_admissible",
    "indicator_cell_average",
    "indicator_cell_flux",
]


@dataclass(frozen=True)
class VelocityGrid:
    """Uniform cell-centered grid on (-half_width, half_width).

    n_cells must be even so that xi = 0 is a cell edge; cells never straddle
    the sign change, which the moment and entropy formulas rely on.  The
    velocity half-ranges are therefore contiguous: columns [:half] hold the
    cells with xi < 0 and columns [half:] those with xi > 0, so kernels read
    each half as a slice (a view) rather than through the positive mask.
    """

    half_width: float
    n_cells: int
    edges: np.ndarray = field(init=False, repr=False, compare=False)
    centers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # NaN fails it too; a product, since a float's ** raises on overflow
        if not (0 < self.half_width and self.half_width * self.half_width < np.inf):
            raise ValueError(f"half_width must be positive and finite, and so must its square, got {self.half_width}")
        if self.n_cells <= 0 or self.n_cells % 2 != 0:
            raise ValueError(f"n_cells must be a positive even integer, got {self.n_cells}")
        edges = np.linspace(-self.half_width, self.half_width, self.n_cells + 1)
        # force the middle edge to exactly zero
        edges[self.n_cells // 2] = 0.0
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "centers", 0.5 * (edges[:-1] + edges[1:]))

    @property
    def dxi(self) -> float:
        return 2.0 * self.half_width / self.n_cells

    @property
    def half(self) -> int:
        """Column of the first xi > 0 cell; the middle edge xi = 0 sits before it."""
        return self.n_cells // 2

    @property
    def positive(self) -> np.ndarray:
        """Boolean mask of cells with xi > 0."""
        return self.centers > 0


def _same_grid(a: VelocityGrid, b: VelocityGrid) -> bool:
    return a.half_width == b.half_width and a.n_cells == b.n_cells


@dataclass
class DiscreteDistribution:
    """Cell-averaged velocity profile at a single point in space.

    flux_correction carries the difference between the exact first moment and
    the midpoint quadrature for profiles built by exact projection (partial
    support cells make the midpoint rule inexact there).  It combines linearly
    under the relaxation update and defaults to zero for generic data.
    """

    grid: VelocityGrid
    values: np.ndarray
    flux_correction: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_cells,):
            raise GridMismatchError(
                f"values shape {self.values.shape} does not match grid with {self.grid.n_cells} cells"
            )

    def copy(self) -> "DiscreteDistribution":
        return DiscreteDistribution(self.grid, self.values.copy(), self.flux_correction)


def check_admissible(values: np.ndarray, grid: VelocityGrid, tol: float = 1e-12) -> None:
    """Raise unless 0 <= sign(xi) * f <= 1 up to tol, cellwise."""
    check_signed_admissible(np.where(grid.positive, values, -values), tol)


def check_signed_admissible(signed: np.ndarray, tol: float = 1e-12) -> None:
    """Raise unless 0 <= signed <= 1 up to tol, where signed holds sign(xi) * f.

    Takes any set of cells, such as one half-range alone; the error reports
    the same bounds as check_admissible would on the full slice with the
    other cells zero.
    """
    # + 0.0 drops the sign of a zero bound, which depends on the reduction order
    low = float(signed.min(initial=0.0)) + 0.0
    high = float(signed.max(initial=0.0)) + 0.0
    if not (low >= -tol and high <= 1.0 + tol):    # a NaN cell makes both NaN and fails it
        raise AdmissibilityError(
            f"distribution outside admissible bounds: sign(xi)*f in [{low:.3e}, {high:.3e}]"
        )


def _clipped_support(u: float, grid: VelocityGrid):
    """Per-cell intersection endpoint of (0, u) (or (u, 0)) with each cell."""
    return np.clip(u, grid.edges[:-1], grid.edges[1:])


def _covered_shares(
    u_pos, u_neg, grid: VelocityGrid, out: np.ndarray, lo: int = 0, hi: int | None = None
) -> np.ndarray:
    """Magnitudes |M| of the equilibrium's cell averages, written into out.

    Columns [half:] take the covered share of (0, u_pos) in each xi > 0
    cell, clip((u_pos - left edge) / dxi, 0, 1), and columns [:half] the
    covered share of (u_neg, 0) in each xi < 0 cell, clip((right edge -
    u_neg) / dxi, 0, 1); M itself is minus that share there.  One subtract
    per half, then one divide and one clip over the whole block.  u_pos and
    u_neg are scalars or columns; the sweep passes the same densities in two
    row orders.

    out may hold only the grid columns [lo, hi), a range that contains the
    split (lo <= half <= hi); its columns [:half - lo] are then the xi < 0
    cells lo.. and the rest the xi > 0 cells ..hi - 1.  The layer sweep
    builds its source on the band of columns that the densities reach this
    way; every share outside that band is exactly +0.0.
    """
    h = grid.half
    if hi is None:
        hi = grid.n_cells
    m = h - lo
    np.subtract(u_pos, grid.edges[h:hi], out=out[..., m:])
    np.subtract(grid.edges[lo + 1 : h + 1], u_neg, out=out[..., :m])
    out /= grid.dxi
    np.clip(out, 0.0, 1.0, out=out)
    return out


def _equilibrium_band(u: np.ndarray, grid: VelocityGrid) -> tuple[int, int]:
    """Columns [lo, hi) that the equilibria M(u) of the densities u reach.

    A xi < 0 column lies below the band when its right edge is strictly
    below every density, and a xi > 0 column above it when its left edge is
    strictly above every density.  Edges increase with the column, so both
    runs are contiguous and lo <= half <= hi: the band always holds at least
    one column next to xi = 0.  A density exactly on an edge keeps that
    column in the band, and a NaN density keeps every column.

    Outside the band every covered share clips a strictly negative quotient
    (edge distance / dxi) and is +0.0.  The quotient cannot underflow to
    -0.0 when, as in the layer sweep and the kinetic step, each density is
    dxi times the sum of one node's or one cell's velocity entries: the
    distances are to O(1) edges, or, at the edge xi = 0, to such a density.
    """
    h = grid.half
    edges = grid.edges
    lo = int(np.count_nonzero(edges[1 : h + 1] < u.min()))
    hi = grid.n_cells - int(np.count_nonzero(edges[h:-1] > u.max()))
    return lo, hi


def _indicator_equilibrium(u, grid: VelocityGrid) -> np.ndarray:
    """Cell averages of M(u) for a scalar u, or one row per entry of a column u.

    xi > 0 cells hold the covered share of (0, u) and xi < 0 cells minus the
    covered share of (u, 0) (see _covered_shares).
    """
    h = grid.half
    out = _covered_shares(u, u, grid, np.empty(np.shape(u)[:-1] + (grid.n_cells,)))
    np.negative(out[..., :h], out=out[..., :h])
    return out


def maxwellian_values(u: float, grid: VelocityGrid) -> np.ndarray:
    """Exact cell averages of the equilibrium indicator at density u."""
    return _indicator_equilibrium(u, grid)


def maxwellian_table(u: np.ndarray, grid: VelocityGrid) -> np.ndarray:
    """Vectorized maxwellian_values: rows are equilibria for each entry of u."""
    return _indicator_equilibrium(np.asarray(u, dtype=float)[:, None], grid)


def maxwellian_cell_flux(u: float, grid: VelocityGrid) -> np.ndarray:
    """Exact per-cell integral of xi * M(u, xi); sums to u**2/2 exactly."""
    le = grid.edges[:-1]
    re = grid.edges[1:]
    cut = _clipped_support(u, grid)
    return np.where(grid.positive, 0.5 * (cut**2 - le**2), 0.5 * (cut**2 - re**2))


def maxwellian_moment(u: float, grid: VelocityGrid, antiderivative: Callable[[np.ndarray], np.ndarray]) -> float:
    """Exact integral of phi'(xi) M(u, xi) given an antiderivative of phi'.

    Each cell contributes the exact integral of phi' over its intersection
    with the support, so the telescoping sum returns phi(u) - phi(0) to
    rounding regardless of where u falls inside a cell.
    """
    le = grid.edges[:-1]
    re = grid.edges[1:]
    cut = _clipped_support(u, grid)
    phi_cut = antiderivative(cut)
    per_cell = np.where(grid.positive, phi_cut - antiderivative(le), phi_cut - antiderivative(re))
    return float(per_cell.sum())


def maxwellian(u: float, grid: VelocityGrid) -> DiscreteDistribution:
    """Project the equilibrium at density u onto the grid.

    The returned profile has exact density u; its flux_correction makes
    flux_moment return u**2/2 at machine precision as well.
    """
    if abs(u) > grid.half_width:
        raise ValueError(f"|u| = {abs(u)} exceeds the velocity bound {grid.half_width}")
    values = maxwellian_values(u, grid)
    exact_flux = float(maxwellian_cell_flux(u, grid).sum())
    midpoint_flux = grid.dxi * float(np.dot(grid.centers, values))
    return DiscreteDistribution(grid, values, flux_correction=exact_flux - midpoint_flux)


def density_of(values: np.ndarray, grid: VelocityGrid) -> float:
    return grid.dxi * float(values.sum())


def flux_of(values: np.ndarray, grid: VelocityGrid) -> float:
    return grid.dxi * float(np.dot(grid.centers, values))


def density_moment(dist: DiscreteDistribution) -> float:
    """Zeroth moment, midpoint quadrature (exact for projected equilibria)."""
    return density_of(dist.values, dist.grid)


def flux_moment(dist: DiscreteDistribution) -> float:
    """First moment: midpoint quadrature plus the stored partial-cell correction."""
    return flux_of(dist.values, dist.grid) + dist.flux_correction


def relax_toward_maxwellian(dist: DiscreteDistribution, dt: float, alpha: float) -> DiscreteDistribution:
    """Exact relaxation update over dt at rate alpha with frozen density.

    Returns M(u) * (1 - exp(-alpha dt)) + f * exp(-alpha dt) where u is the
    density of f.  Density is conserved exactly and admissibility is preserved
    because the result is a convex combination.  Unconditionally stable in
    alpha * dt, which is what makes the stiff regime affordable.
    """
    if dt < 0 or alpha < 0:
        raise ValueError("dt and alpha must be nonnegative")
    u = density_moment(dist)
    eq = maxwellian(u, dist.grid)
    w = -np.expm1(-alpha * dt)  # 1 - exp(-alpha dt), accurate for small arguments
    # written as f + w*(M - f) so an exact equilibrium is a bitwise fixed point
    values = dist.values + w * (eq.values - dist.values)
    correction = dist.flux_correction + w * (eq.flux_correction - dist.flux_correction)
    return DiscreteDistribution(dist.grid, values, correction)


def entropy_defect_cumulative(dist: DiscreteDistribution) -> np.ndarray:
    """Cumulative integral of (M f - f) from -L, evaluated at all cell edges.

    For admissible f this is nonnegative everywhere and vanishes at both
    endpoints (the discrete form of the entropy defect being a nonnegative
    measure with no boundary mass).
    """
    eq_values = maxwellian_values(density_moment(dist), dist.grid)
    h = np.empty(dist.grid.n_cells + 1)
    h[0] = 0.0
    np.cumsum((eq_values - dist.values) * dist.grid.dxi, out=h[1:])
    return h


def l1_distance(a: DiscreteDistribution, b: DiscreteDistribution) -> float:
    if not _same_grid(a.grid, b.grid):
        raise GridMismatchError("cannot compare distributions on different velocity grids")
    return a.grid.dxi * float(np.abs(a.values - b.values).sum())


def indicator_cell_average(lo: float, hi: float, grid: VelocityGrid) -> np.ndarray:
    """Exact cell averages of the indicator of (lo, hi)."""
    if hi < lo:
        raise ValueError(f"empty interval ({lo}, {hi})")
    le = grid.edges[:-1]
    re = grid.edges[1:]
    overlap = np.clip(hi, le, re) - np.clip(lo, le, re)
    return overlap / grid.dxi


def indicator_cell_flux(lo: float, hi: float, grid: VelocityGrid) -> np.ndarray:
    """Exact per-cell integral of xi over the intersection with (lo, hi)."""
    if hi < lo:
        raise ValueError(f"empty interval ({lo}, {hi})")
    le = grid.edges[:-1]
    re = grid.edges[1:]
    a = np.clip(lo, le, re)
    b = np.clip(hi, le, re)
    return 0.5 * (b**2 - a**2)
