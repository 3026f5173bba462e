"""Time marching for the coupled limit system and the naive flux coupling.

The limit system keeps the kinetic description on x < 0 and the scalar
conservation law on x > 0, glued through three interface ingredients per
step, all evaluated on the data available at the step boundary:

1. the kinetic outgoing trace g at x = 0- defines the fluid boundary datum
   v = sqrt(2 flux(g)), imposed weakly through the Godunov flux;
2. the updated fluid trace u(0+) fixes the layer flux V = u^2/2, which
   classifies the half-space layer problem for (V, g); a shock-class layer
   is solved, while a relaxation-class layer has an identically zero
   returning half-range, so its profile is marched only when something
   reads it (a later warm start, a diagnostic);
3. the layer's returning slice F(0, xi < 0) feeds the kinetic domain as its
   right-edge inflow.

A shock-class solve starts from the previous step's layer L_n, or, when
the two previous steps were both shock class, from its linear extrapolation
in time 2 L_n - L_(n-1); only the first step's solve starts cold.  The
state keeps L_(n-1)'s values for that, and drops them on any other step.
Where the far rows of the two layers agree (V constant), the extrapolation
keeps them exactly.

The naive variant skips the admissibility mechanism entirely: it imposes the
kinetic outflux directly as the positive part of the fluid boundary flux and
reflects the fluid trace back as an equilibrium inflow.  The two variants
agree while the fluid trace stays on the inflow branch and separate as soon
as a standing transition sits at the interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import SOLVER_ERRORS
from .fluid import (
    FluidField,
    boundary_trace,
    fluid_step,
    fluid_step_with_boundary_flux,
    l1_fluid_distance,
)
from .kinetic import (
    InflowBoundary,
    KineticField,
    StiffnessProfile,
    l1_field_distance,
    outgoing_trace,
    step as kinetic_step,
)
from .milne import (
    LayerClass,
    LayerGrid,
    LayerData,
    LayerProfile,
    back_flux,
    classify,
    relaxation_layer_profile,
    solve_layer,
)
from .velocity import flux_moment, maxwellian_values

__all__ = [
    "InterfaceRecord",
    "CoupledState",
    "coupled_step",
    "naive_coupled_step",
    "run_coupled",
    "MarchPrefix",
    "Snapshot",
    "snapshot_distance",
    "ContractionReport",
    "contraction_check",
]


@dataclass
class InterfaceRecord:
    """Per-step log of everything exchanged across x = 0."""

    time: float
    flux_out: float            # first moment of the outgoing kinetic trace
    v: float                   # fluid boundary datum sqrt(2 flux_out)
    u_trace: float             # fluid first-cell trace after the step
    layer_flux: float          # V actually fed to the layer (cone-projected)
    cone_defect: float         # max(0, flux_out - u_trace^2/2) before projection
    layer_class: str | None
    back_flux_values: np.ndarray | None
    interface_defect: float    # |flux(g) + flux(back) - V|, the trace flux balance
    layer_iterations: int      # sweeps of the shock-class solve; 0 when no solver ran
    layer_residual: float      # its last sweep change; 0.0 when no solver ran


class _DeferredRelaxationLayer:
    """Relaxation-class layer whose profile is marched on first read.

    classification is known without the march.  Every other LayerProfile
    attribute comes from relaxation_layer_profile(data, grid), marched once
    and kept.
    """

    classification = LayerClass.RELAXATION

    def __init__(self, data: LayerData, grid: LayerGrid):
        self._args = (data, grid)
        self._profile: LayerProfile | None = None

    def __getattr__(self, name: str):
        # reached only for names not set above, i.e. the LayerProfile fields
        if name.startswith("_"):
            raise AttributeError(name)
        if self._profile is None:
            self._profile = relaxation_layer_profile(*self._args)
        return getattr(self._profile, name)


@dataclass
class CoupledState:
    """Kinetic field on x < 0, fluid field on x > 0, and the interface log."""

    kinetic: KineticField
    fluid: FluidField
    far_left_inflow: np.ndarray | None = None
    layer: LayerProfile | _DeferredRelaxationLayer | None = None
    trace_log: list[InterfaceRecord] = dc_field(default_factory=list)
    # values of the shock-class layer before layer, when layer is shock class
    # too; None after a relaxation-class or naive step
    previous_layer_values: np.ndarray | None = None

    def copy(self) -> "CoupledState":
        return CoupledState(
            kinetic=self.kinetic.copy(),
            fluid=self.fluid.copy(),
            far_left_inflow=None if self.far_left_inflow is None else self.far_left_inflow.copy(),
            layer=self.layer,
            trace_log=list(self.trace_log),
            previous_layer_values=self.previous_layer_values,
        )


def _negative_flux(values: np.ndarray, grid) -> float:
    """First moment restricted to xi < 0 (nonnegative for admissible data)."""
    neg = ~grid.positive
    return grid.dxi * float(np.dot(grid.centers[neg], values[neg]))


def coupled_step(state: CoupledState, dt: float, layer_grid: LayerGrid) -> CoupledState:
    """Advance the limit system by one step (see the module docstring).

    layer_grid is the grid of the layer solve, whose tolerances are the
    layer solver's own (milne.TOL_FIX, MAX_ITER and TOL_CLASS).

    The flux V handed to the layer is projected onto the admissible cone
    when the first-cell trace transiently undershoots the incoming flux
    (an O(dx) effect while a boundary wave crosses the first cell); the raw
    defect is logged.  A V beyond the largest flux the velocity interval
    carries raises ConeError in LayerData.
    """
    kin, fluid = state.kinetic, state.fluid
    g = outgoing_trace(kin)
    flux_out = flux_moment(g)
    v = float(np.sqrt(max(2.0 * flux_out, 0.0)))

    new_fluid = fluid_step(fluid, v, dt)
    u0 = boundary_trace(new_fluid)

    v_raw = 0.5 * u0 * u0
    cone_defect = max(0.0, flux_out - v_raw)
    layer_flux = max(v_raw, flux_out)

    data = LayerData(layer_flux, g)
    if classify(data) is LayerClass.RELAXATION:
        # The returning half-range is identically zero in this class, so the
        # kinetic inflow needs no layer solve and no solver runs this step.
        layer = _DeferredRelaxationLayer(data, layer_grid)
        returning = np.zeros(kin.velocity.n_cells)
        iterations, residual = 0, 0.0
        previous = None
    else:
        # classification is read first, so a deferred relaxation layer is
        # never marched to be kept as L_(n-1)
        after_shock = state.layer is not None and state.layer.classification is LayerClass.SHOCK
        previous = state.layer.values if after_shock else None
        warm = None if state.layer is None else state.layer.values
        if after_shock and state.previous_layer_values is not None:
            # the two steps before were shock class: 2 L_n - L_(n-1)
            warm = np.multiply(warm, 2.0)
            warm -= state.previous_layer_values
        layer = solve_layer(data, grid=layer_grid, start=warm)
        returning = back_flux(layer).values
        iterations, residual = layer.iterations, layer.last_change

    bc = InflowBoundary(left=state.far_left_inflow, right=returning)
    new_kin = kinetic_step(kin, bc, StiffnessProfile.uniform(kin.space, 1.0), dt)

    record = InterfaceRecord(
        time=new_kin.time,
        flux_out=flux_out,
        v=v,
        u_trace=u0,
        layer_flux=layer_flux,
        cone_defect=cone_defect,
        layer_class=layer.classification.value,
        back_flux_values=returning.copy(),
        interface_defect=abs(
            flux_out + _negative_flux(returning, kin.velocity) - layer_flux
        ),
        layer_iterations=iterations,
        layer_residual=residual,
    )
    log = state.trace_log + [record]
    return CoupledState(new_kin, new_fluid, state.far_left_inflow, layer, log, previous)


def naive_coupled_step(state: CoupledState, dt: float) -> CoupledState:
    """Advance the flux-identification coupling by one step.

    The fluid boundary flux is the kinetic outflux plus the negative
    semi-flux of the first cell (the upwind split of the boundary flux), and
    the kinetic domain receives the equilibrium of the updated fluid trace on
    its returning half-range.  No layer problem is solved.
    """
    kin, fluid = state.kinetic, state.fluid
    vgrid = kin.velocity
    g = outgoing_trace(kin)
    flux_out = flux_moment(g)

    u_first = fluid.values[0]
    negative_semi_flux = -0.5 * min(u_first, 0.0) ** 2
    new_fluid = fluid_step_with_boundary_flux(fluid, flux_out + negative_semi_flux, dt)
    u0 = boundary_trace(new_fluid)

    eq = maxwellian_values(u0, vgrid)
    returning = np.where(vgrid.positive, 0.0, eq)
    bc = InflowBoundary(left=state.far_left_inflow, right=returning)
    new_kin = kinetic_step(kin, bc, StiffnessProfile.uniform(kin.space, 1.0), dt)

    record = InterfaceRecord(
        time=new_kin.time,
        flux_out=flux_out,
        v=float(np.sqrt(max(2.0 * flux_out, 0.0))),
        u_trace=u0,
        layer_flux=float("nan"),
        cone_defect=float("nan"),
        layer_class=None,
        back_flux_values=returning.copy(),
        interface_defect=float("nan"),
        layer_iterations=0,
        layer_residual=float("nan"),
    )
    log = state.trace_log + [record]
    return CoupledState(new_kin, new_fluid, state.far_left_inflow, None, log)


@dataclass
class Snapshot:
    time: float
    kinetic_values: np.ndarray
    fluid_values: np.ndarray
    kinetic_measure: float     # dx * dxi of the kinetic grid
    fluid_measure: float       # dx of the fluid grid


@dataclass
class MarchPrefix:
    """What a run_coupled march had reached when one of its steps raised."""

    state: CoupledState        # last good state, with its interface log
    snapshots: list[Snapshot]
    failed_step: int           # index of the step that raised, counted from 0
    failed_time: float         # start time of that step, failed_step * dt


def run_coupled(
    state: CoupledState,
    dt: float,
    n_steps: int,
    layer_grid: LayerGrid,
    mode: str = "limit",
    log_every: int = 0,
) -> tuple[CoupledState, list[Snapshot]]:
    """March n_steps in the requested mode, optionally recording snapshots.

    A solver error raised by a step propagates unchanged, carrying the march
    up to that step as its march_prefix attribute (a MarchPrefix).
    """
    if mode not in ("limit", "naive"):
        raise ValueError(f"mode must be 'limit' or 'naive', got {mode!r}")
    snapshots: list[Snapshot] = []

    def record(s: CoupledState):
        snapshots.append(
            Snapshot(
                s.kinetic.time,
                s.kinetic.values.copy(),
                s.fluid.values.copy(),
                s.kinetic.space.dx * s.kinetic.velocity.dxi,
                s.fluid.grid.dx,
            )
        )

    if log_every:
        record(state)
    for n in range(n_steps):
        try:
            state = coupled_step(state, dt, layer_grid) if mode == "limit" else naive_coupled_step(state, dt)
        except SOLVER_ERRORS as exc:
            exc.march_prefix = MarchPrefix(state, snapshots, n, n * dt)
            raise
        if log_every and ((n + 1) % log_every == 0 or n + 1 == n_steps):
            record(state)
    return state, snapshots


def state_distance(a: CoupledState, b: CoupledState) -> float:
    """L1 distance of the pair: kinetic (x, xi) norm plus fluid x norm."""
    return l1_field_distance(a.kinetic, b.kinetic) + l1_fluid_distance(a.fluid, b.fluid)


def snapshot_distance(a: Snapshot, b: Snapshot) -> float:
    """Combined L1 distance of two snapshots on common grids: kinetic (x, xi) plus fluid x."""
    dk = float(np.abs(a.kinetic_values - b.kinetic_values).sum()) * a.kinetic_measure
    df = float(np.abs(a.fluid_values - b.fluid_values).sum()) * a.fluid_measure
    return dk + df


@dataclass
class ContractionReport:
    times: np.ndarray
    distances: np.ndarray
    slack: float
    ok: bool

    @property
    def initial(self) -> float:
        return float(self.distances[0])

    @property
    def peak_ratio(self) -> float:
        d0 = self.distances[0]
        return float(self.distances.max() / d0) if d0 > 0 else float("inf")


def contraction_check(
    first: list[Snapshot], second: list[Snapshot], slack: float = 0.05
) -> ContractionReport:
    """Compare two snapshot trajectories on common grids.

    The continuous system contracts the combined L1 distance; the discrete
    check allows a relative slack for first-order boundary wiggle.  Snapshots
    must have been taken at the same times on the same grids.
    """
    if len(first) != len(second) or not first:
        raise ValueError("trajectories must be nonempty and equally long")
    times = np.array([s.time for s in first])
    if not np.allclose(times, [s.time for s in second], atol=1e-12):
        raise ValueError("trajectories were not logged at the same times")
    dist = np.empty(len(first))
    for k, (a, b) in enumerate(zip(first, second)):
        if a.kinetic_values.shape != b.kinetic_values.shape or a.fluid_values.shape != b.fluid_values.shape:
            raise ValueError("snapshot shapes differ between the trajectories")
        dist[k] = snapshot_distance(a, b)
    ok = bool(np.all(dist <= dist[0] * (1.0 + slack) + 1e-14))
    return ContractionReport(times=times, distances=dist, slack=slack, ok=ok)
