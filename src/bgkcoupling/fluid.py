"""Godunov solver for the inviscid Burgers equation on (0, x_max).

The left end carries a Dirichlet datum imposed weakly through the Godunov
flux, which realizes the scalar boundary admissibility condition: with an
external value v >= 0 the actual trace u either takes the value v or
satisfies u <= -v.  The certificate builder turns an admissible pair into a
discrete nonnegative-measure identity on the velocity grid, the kinetic
counterpart of that admissibility statement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlnError, CflError, GridMismatchError
from .kinetic import SpaceGrid
from .velocity import (
    DiscreteDistribution,
    flux_moment,
    indicator_cell_average,
    indicator_cell_flux,
    maxwellian_cell_flux,
)

__all__ = [
    "FluidField",
    "BlnCertificate",
    "godunov_flux",
    "riemann_interface_state",
    "bln_admissible",
    "build_bln_certificate",
    "fluid_step",
    "fluid_step_with_boundary_flux",
    "boundary_trace",
    "l1_fluid_distance",
]

TOL_BLN = 1e-10


@dataclass
class FluidField:
    """Cell averages of the conserved scalar on a space grid."""

    grid: SpaceGrid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_cells,):
            raise GridMismatchError(
                f"values shape {self.values.shape} does not match grid with {self.grid.n_cells} cells"
            )

    def copy(self) -> "FluidField":
        return FluidField(self.grid, self.values.copy(), self.time)


def godunov_flux(u_left, u_right):
    """Exact-Riemann flux for f(u) = u^2/2; accepts scalars or arrays.

    min of the flux over [u_left, u_right] when u_left <= u_right (zero across
    a sonic fan), max of the endpoint fluxes otherwise.
    """
    ul = np.asarray(u_left, dtype=float)
    ur = np.asarray(u_right, dtype=float)
    fl = 0.5 * ul**2
    fr = 0.5 * ur**2
    rarefaction = np.where((ul <= 0.0) & (ur >= 0.0), 0.0, np.minimum(fl, fr))
    out = np.where(ul <= ur, rarefaction, np.maximum(fl, fr))
    return float(out) if out.ndim == 0 else out


def riemann_interface_state(u_left: float, u_right: float) -> float:
    """State the Riemann solution takes at the interface (flux argmin/argmax).

    Used to evaluate entropy fluxes consistently with godunov_flux; for a
    standing jump the left state is returned (either side yields a valid
    cell entropy inequality).
    """
    if u_left <= u_right:
        if u_left >= 0.0:
            return u_left
        if u_right <= 0.0:
            return u_right
        return 0.0
    return u_left if abs(u_left) >= abs(u_right) else u_right


def bln_admissible(u: float, v: float, tol: float = TOL_BLN) -> bool:
    """Scalar boundary admissibility for the quadratic flux with datum v >= 0.

    Equivalent to the classical inequality family over all values between u
    and v: the trace is admissible iff u = v or u <= -v.
    """
    if v < -tol:
        raise BlnError(f"boundary datum must be nonnegative, got {v}")
    return bool(abs(u - v) <= tol or u <= -v + tol)


@dataclass
class BlnCertificate:
    """Discrete witness that (u, g) is an admissible kinetic boundary pair.

    m_edges holds the cumulative integral of xi * (M(u) - g - h) at velocity
    cell edges, with h the correction indicator (zero in the u = v case,
    -1 on (-sqrt(u^2 - v^2), 0) in the u <= -v case).  Admissibility is
    witnessed by m >= 0 with both endpoint values zero.
    """

    u: float
    v: float
    h_values: np.ndarray
    m_edges: np.ndarray

    @property
    def min_value(self) -> float:
        return float(self.m_edges.min())

    @property
    def endpoint_defect(self) -> float:
        return float(max(abs(self.m_edges[0]), abs(self.m_edges[-1])))


def build_bln_certificate(u: float, g: DiscreteDistribution, tol: float = TOL_BLN) -> BlnCertificate:
    """Construct the nonnegative cumulative certificate for the pair (u, g).

    The datum v is recovered from the incoming flux: v = sqrt(2 flux(g)).
    Raises when the pair fails the scalar admissibility test.  Equilibrium
    contributions are integrated exactly per cell so both endpoints of the
    cumulative vanish to rounding, not just to quadrature order.
    """
    grid = g.grid
    v = float(np.sqrt(max(2.0 * flux_moment(g), 0.0)))
    if not bln_admissible(u, v, tol):
        raise BlnError(f"trace u = {u} inadmissible against datum v = {v}")
    h = np.zeros(grid.n_cells)
    h_flux = np.zeros(grid.n_cells)
    if not abs(u - v) <= tol:
        # u <= -v branch: remove the band the returning equilibrium occupies
        width = float(np.sqrt(max(u * u - v * v, 0.0)))
        if width > 0.0:
            h = -indicator_cell_average(-width, 0.0, grid)
            h_flux = -indicator_cell_flux(-width, 0.0, grid)
    eq_flux = maxwellian_cell_flux(u, grid)
    cell_flux = eq_flux - grid.dxi * grid.centers * g.values - h_flux
    m = np.empty(grid.n_cells + 1)
    m[0] = 0.0
    np.cumsum(cell_flux, out=m[1:])
    return BlnCertificate(u=u, v=v, h_values=h, m_edges=m)


def _check_cfl(field: FluidField, dt: float, v_boundary: float = 0.0):
    speed = max(float(np.abs(field.values).max(initial=0.0)), abs(v_boundary))
    if speed > 0 and dt * speed / field.grid.dx > 1.0 + 1e-12:
        raise CflError(f"dt = {dt} exceeds the CFL limit {field.grid.dx / speed}")


def fluid_step(field: FluidField, v_boundary: float, dt: float) -> FluidField:
    """One Godunov step with external state v_boundary on the left.

    The right end is outflow: a zero-gradient ghost cell, which emits no wave.
    """
    if v_boundary < 0:
        raise BlnError(f"boundary datum must be nonnegative, got {v_boundary}")
    _check_cfl(field, dt, v_boundary)
    u = field.values
    # the n + 1 faces at once: v left of the first cell, the ghost u[-1] right of the last
    return _advance(field, godunov_flux(np.concatenate(([v_boundary], u)), np.append(u, u[-1])), dt)


def fluid_step_with_boundary_flux(field: FluidField, boundary_flux: float, dt: float) -> FluidField:
    """One Godunov step with the left-edge flux prescribed directly.

    Used by the flux-identification coupling mode, which bypasses the
    admissibility mechanism and imposes the incoming flux as-is.
    """
    _check_cfl(field, dt)
    u = field.values
    # the n faces right of each cell, the ghost u[-1] right of the last
    return _advance(field, np.append(boundary_flux, godunov_flux(u, np.append(u[1:], u[-1]))), dt)


def _advance(field: FluidField, fluxes: np.ndarray, dt: float) -> FluidField:
    """Conservative update from the n + 1 face fluxes, the boundary face x = 0 first.

    Every face flux comes from one godunov_flux call per step, so each face
    gets the same elementwise arithmetic; the right face is the zero-gradient
    ghost's flux f(u[-1]) and emits no wave.
    """
    values = field.values - (dt / field.grid.dx) * np.diff(fluxes)
    return FluidField(field.grid, values, field.time + dt)


def boundary_trace(field: FluidField) -> float:
    """First-cell average, the discrete stand-in for the boundary trace u(0+)."""
    return float(field.values[0])


def l1_fluid_distance(a: FluidField, b: FluidField) -> float:
    if a.grid != b.grid:
        raise GridMismatchError("cannot compare fluid fields on different grids")
    return a.grid.dx * float(np.abs(a.values - b.values).sum())
