"""Output checks of the benchmark, computed from the returned fields alone.

Every function here reads arrays (cell values, grid spacings, times) and does
its own arithmetic; none calls back into the package's diagnostics, so a
defect in those cannot hide a defect in the solution.
"""

from __future__ import annotations

import numpy as np


def total_mass(state) -> float:
    """Kinetic mass on x < 0 plus fluid mass on x > 0."""
    kin, fluid = state.kinetic, state.fluid
    return (
        kin.space.dx * kin.velocity.dxi * float(kin.values.sum())
        + fluid.grid.dx * float(fluid.values.sum())
    )


def outer_fluxes(state) -> tuple[float, float]:
    """Exact (inflow at x_min, outflow at x_max) of equilibrium outer data.

    At x_min the far-left ghost enters on xi > 0 and the first cell leaves on
    xi < 0.  Each half of an equilibrium is an indicator, whose exact first
    moment is rho^2 / 2 for half-range density rho; the midpoint rule the
    upwind scheme uses agrees with it only when the density sits on a
    velocity-cell edge.  At x_max the zero-gradient ghost makes the Godunov
    flux u^2 / 2 of the last fluid cell.
    """
    kin = state.kinetic
    vgrid = kin.velocity
    pos = vgrid.centers > 0
    ghost = np.zeros(vgrid.n_cells) if state.far_left_inflow is None else state.far_left_inflow
    rho_in = vgrid.dxi * float(ghost[pos].sum())
    rho_out = vgrid.dxi * float(kin.values[0, ~pos].sum())
    u_last = float(state.fluid.values[-1])
    return 0.5 * (rho_in * rho_in + rho_out * rho_out), 0.5 * u_last * u_last


def outer_cells_unchanged(initial, final, tol: float = 1e-12) -> bool:
    """The cells next to x_min and x_max, whose values set the outer fluxes."""
    return bool(
        np.abs(initial.kinetic.values[0] - final.kinetic.values[0]).max() <= tol
        and abs(initial.fluid.values[-1] - final.fluid.values[-1]) <= tol
    )


def ledger_residual(initial, final) -> float:
    """|M(T) - M(0) - T (F_in - F_out)| with the exact outer fluxes of the initial data.

    Exact while the outer cells stay unchanged (see outer_cells_unchanged);
    whatever is left is mass created or lost inside, at the interface.
    """
    flux_in, flux_out = outer_fluxes(initial)
    horizon = final.kinetic.time - initial.kinetic.time
    return abs(total_mass(final) - total_mass(initial) - horizon * (flux_in - flux_out))


def state_l1(a, b) -> float:
    """L1 distance of two coupled states: kinetic (x, xi) plus fluid x."""
    kin = a.kinetic
    return (
        kin.space.dx * kin.velocity.dxi * float(np.abs(a.kinetic.values - b.kinetic.values).sum())
        + a.fluid.grid.dx * float(np.abs(a.fluid.values - b.fluid.values).sum())
    )


def far_density_error(values: np.ndarray, dxi: float, flux: float) -> float:
    """Distance of a shock-class layer's last-node density from -sqrt(2V)."""
    return abs(dxi * float(values[-1].sum()) + np.sqrt(2.0 * flux))


def strictly_decreasing(seq) -> bool:
    return len(seq) >= 2 and all(b < a for a, b in zip(seq, seq[1:]))


def snapshot_distances(first, second) -> np.ndarray:
    """Combined L1 distance of two snapshot trajectories, time by time."""
    if len(first) != len(second) or not first:
        raise ValueError("trajectories must be nonempty and equally long")
    out = np.empty(len(first))
    for k, (a, b) in enumerate(zip(first, second)):
        if abs(a.time - b.time) > 1e-12:
            raise ValueError("trajectories were not logged at the same times")
        out[k] = (
            a.kinetic_measure * float(np.abs(a.kinetic_values - b.kinetic_values).sum())
            + a.fluid_measure * float(np.abs(a.fluid_values - b.fluid_values).sum())
        )
    return out


def contracts(first, second, slack: float) -> bool:
    """No logged distance exceeds the initial one by more than the relative slack."""
    dist = snapshot_distances(first, second)
    return bool(np.all(dist <= dist[0] * (1.0 + slack) + 1e-14))
