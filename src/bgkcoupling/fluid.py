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
    a sonic fan), max of the endpoint fluxes otherwise.  For the convex flux
    with its minimum at 0 both cases are one closed form,

        0.5 * max(max(u_left, 0)^2, min(u_right, 0)^2),

    bit for bit: each square is a square of the data or +0.0, and rounding
    the product by 0.5 is monotone, so it commutes with the max.
    """
    ul = np.asarray(u_left, dtype=float)
    ur = np.asarray(u_right, dtype=float)
    out = 0.5 * np.maximum(np.square(np.maximum(ul, 0.0)), np.square(np.minimum(ur, 0.0)))
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
    states = _face_states(v_boundary, field.values)
    return _advance(field, godunov_flux(states[:-1], states[1:]), dt)


def fluid_step_with_boundary_flux(field: FluidField, boundary_flux: float, dt: float) -> FluidField:
    """One Godunov step with the left-edge flux prescribed directly.

    Used by the flux-identification coupling mode, which bypasses the
    admissibility mechanism and imposes the incoming flux as-is.
    """
    _check_cfl(field, dt)
    buf = _face_states(boundary_flux, field.values)
    # the n Riemann fluxes right of the cells overwrite them, after the prescribed flux at x = 0
    buf[1:-1] = godunov_flux(buf[1:-1], buf[2:])
    return _advance(field, buf[:-1], dt)


def _face_states(first: float, u: np.ndarray) -> np.ndarray:
    """One array of n + 2 values: first, the n cells, the zero-gradient ghost u[-1].

    Its neighbour pairs are the states at the n + 1 faces, x = 0 first.  The
    ghost's face flux is f(u[-1]) and emits no wave.  One godunov_flux call
    per step gives every face the same elementwise arithmetic.
    """
    states = np.empty(u.size + 2)
    states[0] = first
    states[1:-1] = u
    states[-1] = u[-1]
    return states


def _advance(field: FluidField, fluxes: np.ndarray, dt: float) -> FluidField:
    """Conservative update from the n + 1 face fluxes, the boundary face x = 0 first."""
    values = field.values - (dt / field.grid.dx) * np.subtract(fluxes[1:], fluxes[:-1])
    return FluidField(field.grid, values, field.time + dt)


def boundary_trace(field: FluidField) -> float:
    """First-cell average, the discrete stand-in for the boundary trace u(0+)."""
    return float(field.values[0])


def l1_fluid_distance(a: FluidField, b: FluidField) -> float:
    if a.grid != b.grid:
        raise GridMismatchError("cannot compare fluid fields on different grids")
    return a.grid.dx * float(np.abs(a.values - b.values).sum())
