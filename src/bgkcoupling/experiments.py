"""Scenario definitions and the scale-limit experiment harness.

A scenario fixes initial data, far-field inflows, grids, and a horizon.  The
same configuration can then be run three ways: as the full kinetic problem
with relaxation rate 1/eps on x > 0 (for a ladder of eps values), as the
coupled limit system, or as the naive flux coupling.  The convergence study
compares the full runs against the limit run region by region: in (x, xi)
norm on the kinetic side, in x norm on the fluid side away from an O(eps)
interface neighborhood, and, where a standing transition is expected, in
rescaled layer variables y = x / eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, field as dc_field, fields

import numpy as np

from .coupling import (
    ContractionReport,
    CoupledState,
    Snapshot,
    contraction_check,
    run_coupled,
)
from .errors import ConfigError
from .fluid import FluidField
from .kinetic import (
    InflowBoundary,
    KineticField,
    KineticHistory,
    SpaceGrid,
    StiffnessProfile,
    run_with_history,
)
from .milne import LayerGrid
from .velocity import VelocityGrid, maxwellian_table, maxwellian_values

__all__ = [
    "ScenarioConfig",
    "FullRunResult",
    "ConvergenceReport",
    "build_full_initial",
    "build_coupled_initial",
    "coupling_params_of",
    "scenario_dt",
    "solve_full_epsilon",
    "extract_rescaled_layer",
    "run_limit_system",
    "run_convergence_study",
    "stability_study",
    "random_coupled_state",
]

FAMILIES = ("equilibrium", "relaxation", "shock", "steady_shock")
COMPARE_Y_MAX = 8.0     # layer-region comparison window in y (shock family)
SWEEP_WINDOW_Y = 0.5    # negative-mass window in y (steady shock family)


def _is_number(value, kinds=(int, float, np.integer, np.floating)) -> bool:
    """An int or float that converts to a finite float; bool is not a number here."""
    if not isinstance(value, kinds) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:    # an int beyond the float range
        return False


# ScenarioConfig field annotation -> (accepts the value, what it must be)
_FIELD_TYPES = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "int": (lambda v: _is_number(v, (int, np.integer)), "an integer"),
    "float": (_is_number, "a finite number"),
    "float | None": (lambda v: v is None or _is_number(v), "a finite number or null"),
    "tuple[float, ...]": (lambda v: isinstance(v, (tuple, list)) and all(map(_is_number, v)), "a list of finite numbers"),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce a run.  Defaults are the desk-scale setup.

    A config checks itself once, when it is built, so every one that exists is valid.
    """

    scenario: str = "steady_shock"
    u_plus: float = 0.6
    eta: float = 0.2                  # support margin of the shock-family data
    relax_right: float | None = None  # right-side density of the relaxation family
    half_width: float = 1.0
    n_xi: int = 80
    x_min: float = -2.0
    x_max: float = 2.0
    n_x: int = 400
    horizon: float = 1.0
    cfl: float = 0.9
    epsilons: tuple[float, ...] = (0.2, 0.1, 0.05)
    layer_y_max: float = 20.0
    layer_n_y: int = 400
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """ConfigError listing every rule this config breaks; __post_init__ calls it.

        Each grid is built; its ValueError becomes an item that names the keys it read.
        """
        items: list[str] = []
        for f in fields(self):
            accepts, what = _FIELD_TYPES[f.type]
            value = getattr(self, f.name)
            if not accepts(value):
                items.append(f"{f.name}: must be {what}, got {value!r}")
        if items:
            # the range checks below would fail on a value of the wrong type
            raise ConfigError(items)

        def built(keys: str, grid) -> bool:
            try:
                grid()
            except ValueError as exc:
                items.append(f"{keys}: {exc}")
                return False
            return True

        if self.scenario not in FAMILIES:
            items.append(f"scenario: must be one of {FAMILIES}, got {self.scenario!r}")
        built("half_width, n_xi", self.velocity_grid)
        if not 0 < self.u_plus < self.half_width:
            items.append(f"u_plus: must lie in (0, {self.half_width}), got {self.u_plus}")
        if self.scenario == "shock" and not 0 < self.eta < self.u_plus:
            items.append(f"eta: must lie in (0, u_plus), got {self.eta}")
        if self.relax_right is not None and not -self.u_plus <= self.relax_right <= self.half_width:
            items.append(f"relax_right: must lie in [-u_plus, {self.half_width}], got {self.relax_right}")
        space = "x_min, x_max, n_x"
        if (
            built(space, self.full_grid)
            and built(f"{space}: the x < 0 half line", self.kinetic_grid)
            and built(f"{space}: the x > 0 half line", self.fluid_grid)
        ):
            # stricter than SpaceGrid's own test, which allows 1e-9 * n_x cells
            if abs(self.n_x * -self.x_min / (self.x_max - self.x_min) - self.n_x_left) > 1e-9:
                items.append("n_x: x = 0 must land on a cell edge of the full-line grid")
        if self.horizon <= 0:
            items.append(f"horizon: must be positive, got {self.horizon}")
        if not 0 < self.cfl <= 1:
            items.append(f"cfl: must lie in (0, 1], got {self.cfl}")
        if any(e <= 0 for e in self.epsilons):
            items.append(f"epsilons: must be positive, got {self.epsilons}")
        elif list(self.epsilons) != sorted(self.epsilons, reverse=True) or len(set(self.epsilons)) != len(self.epsilons):
            items.append(f"epsilons: must be strictly decreasing, got {self.epsilons}")
        built("layer_y_max, layer_n_y", self.layer_grid)
        if self.seed < 0:
            items.append(f"seed: must be at least 0, got {self.seed}")
        if items:
            raise ConfigError(items)

    # -- derived grids -----------------------------------------------------

    @property
    def n_x_left(self) -> int:
        return int(round(self.n_x * (-self.x_min) / (self.x_max - self.x_min)))

    def velocity_grid(self) -> VelocityGrid:
        return VelocityGrid(self.half_width, self.n_xi)

    def full_grid(self, scale: int = 1) -> SpaceGrid:
        return SpaceGrid(self.x_min, self.x_max, self.n_x * scale)

    def kinetic_grid(self) -> SpaceGrid:
        return SpaceGrid(self.x_min, 0.0, self.n_x_left)

    def fluid_grid(self) -> SpaceGrid:
        return SpaceGrid(0.0, self.x_max, self.n_x - self.n_x_left)

    def layer_grid(self) -> LayerGrid:
        return LayerGrid(self.layer_y_max, self.layer_n_y)

    # -- family data -------------------------------------------------------

    def left_density(self) -> float:
        return self.u_plus - self.eta if self.scenario == "shock" else self.u_plus

    def right_density(self) -> float:
        if self.scenario == "equilibrium":
            return self.u_plus
        if self.scenario == "relaxation":
            return self.u_plus / 2.0 if self.relax_right is None else self.relax_right
        return -self.u_plus


def scenario_dt(config: ScenarioConfig, scale: int = 1) -> tuple[float, int]:
    """Time step meeting the CFL target and landing exactly on the horizon."""
    dx = config.full_grid(scale).dx
    dt_max = config.cfl * dx / config.half_width
    n_steps = max(1, int(np.ceil(config.horizon / dt_max - 1e-12)))  # one step at least, however short the horizon
    return config.horizon / n_steps, n_steps


def _density_profile(config: ScenarioConfig, centers: np.ndarray) -> np.ndarray:
    return np.where(centers < 0, config.left_density(), config.right_density())


def build_full_initial(
    config: ScenarioConfig, scale: int = 1
) -> tuple[KineticField, InflowBoundary]:
    """Initial kinetic field on the whole line plus matching far-field inflows."""
    vgrid = config.velocity_grid()
    sgrid = config.full_grid(scale)
    u0 = _density_profile(config, sgrid.centers)
    values = maxwellian_table(u0, vgrid)
    left_ghost = maxwellian_values(config.left_density(), vgrid)
    right_ghost = maxwellian_values(config.right_density(), vgrid)
    bc = InflowBoundary(
        left=np.where(vgrid.positive, left_ghost, 0.0),
        right=np.where(vgrid.positive, 0.0, right_ghost),
    )
    return KineticField(sgrid, vgrid, values), bc


def build_coupled_initial(config: ScenarioConfig) -> CoupledState:
    """Initial coupled state: kinetic field on x < 0, fluid field on x > 0."""
    vgrid = config.velocity_grid()
    kgrid = config.kinetic_grid()
    u0 = np.full(kgrid.n_cells, config.left_density())
    kin = KineticField(kgrid, vgrid, maxwellian_table(u0, vgrid))
    fgrid = config.fluid_grid()
    fluid = FluidField(fgrid, np.full(fgrid.n_cells, config.right_density()))
    left_ghost = maxwellian_values(config.left_density(), vgrid)
    return CoupledState(
        kinetic=kin,
        fluid=fluid,
        far_left_inflow=np.where(vgrid.positive, left_ghost, 0.0),
    )


def coupling_params_of(config: ScenarioConfig) -> LayerGrid:
    """The coupled march's one run-level setting, its layer grid.

    run_coupled takes it after n_steps.  The layer solver's tolerances are
    the milne constants TOL_FIX, MAX_ITER and TOL_CLASS, not settings.
    """
    return config.layer_grid()


@dataclass
class FullRunResult:
    eps: float
    dt: float
    n_steps: int
    history: KineticHistory

    @property
    def final(self) -> KineticField:
        return self.history.final


def solve_full_epsilon(
    config: ScenarioConfig,
    eps: float,
    snapshot_times: tuple[float, ...] = (),
    scale: int = 1,
) -> FullRunResult:
    """Run the full kinetic problem with the two-zone relaxation rate.

    scale refines the space grid (and the time step with it) by an integer
    factor; the study uses it to keep dx proportional to eps, so the interface
    structure stays equally resolved along the ladder.
    """
    if eps <= 0:
        raise ConfigError([f"eps: must be positive, got {eps}"])
    field, bc = build_full_initial(config, scale)
    stiffness = StiffnessProfile.two_zone(field.space, eps)
    dt, n_steps = scenario_dt(config, scale)
    history = run_with_history(field, bc, stiffness, dt, n_steps, snapshot_times)
    return FullRunResult(eps=eps, dt=dt, n_steps=n_steps, history=history)


def extract_rescaled_layer(
    field: KineticField, eps: float, layer_grid: LayerGrid
) -> np.ndarray:
    """Sample F_eps(y, xi) = f(eps * y, xi) on the layer nodes by cell lookup."""
    if eps * layer_grid.y_max > field.space.x_max + 1e-12:
        raise ValueError(
            f"rescaled window eps*y_max = {eps * layer_grid.y_max} exceeds the domain extent {field.space.x_max}"
        )
    rows = np.empty((layer_grid.n_cells + 1, field.velocity.n_cells))
    for k, y in enumerate(layer_grid.nodes):
        x = min(eps * y, field.space.x_max - 1e-12)
        rows[k] = field.values[field.space.cell_of(x if y > 0 else 1e-15 * field.space.dx)]
    return rows


def run_limit_system(
    config: ScenarioConfig, log_every: int = 0
) -> tuple[CoupledState, list[Snapshot]]:
    state = build_coupled_initial(config)
    layer_grid = config.layer_grid()
    dt, n_steps = scenario_dt(config)
    return run_coupled(state, dt, n_steps, layer_grid, mode="limit", log_every=log_every)


@dataclass
class ConvergenceReport:
    """Region-wise errors of the full runs against the limit run, per eps."""

    scenario: str
    epsilons: list[float]
    kinetic_errors: list[float]
    fluid_errors: list[float]
    layer_errors: list[float] | None
    negative_mass: list[float] | None
    monotone: dict[str, bool] = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _strictly_decreasing(seq: list[float]) -> bool:
    return all(b < a for a, b in zip(seq, seq[1:]))


def _run_scale(config: ScenarioConfig, eps: float) -> int:
    """Refinement factor keeping dx/eps at its value for the largest eps."""
    return max(1, int(np.ceil(max(config.epsilons) / eps - 1e-9)))


def _full_run_final_worker(config: ScenarioConfig, eps: float) -> np.ndarray:
    return solve_full_epsilon(config, eps, scale=_run_scale(config, eps)).final.values


def _restrict(values: np.ndarray, scale: int) -> np.ndarray:
    """Conservative block average of a refined field onto the base grid."""
    if scale == 1:
        return values
    n_fine, n_xi = values.shape
    return values.reshape(n_fine // scale, scale, n_xi).mean(axis=1)


def _window_grid(config: ScenarioConfig, y_window: float) -> LayerGrid:
    """Grid on [0, y_window] with the layer grid's dy, to the nearest whole cell.

    A ConfigError when the layer grid is so fine that no such grid exists:
    dy rounds to zero, the cell count overflows, or numpy cannot size it.
    """
    try:
        return LayerGrid(y_window, max(1, int(round(y_window / config.layer_grid().dy))))
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(
            [f"layer_y_max, layer_n_y: no grid on the y window [0, {y_window}] has their dy ({exc})"]
        ) from None


def run_convergence_study(config: ScenarioConfig, jobs: int = 1) -> ConvergenceReport:
    """Compare the eps ladder against the limit system, region by region.

    Full runs refine dx with eps (see solve_full_epsilon) and are restricted
    back to the limit grid by block averaging before the kinetic- and
    fluid-region errors are taken.  Fluid-side errors exclude x <= 3 eps,
    where the genuine layer lives; the layer-region comparison (shock
    family) and the returning-mass diagnostic (steady shock family) are
    evaluated in rescaled variables on fixed windows, so shrinking eps
    probes the same structure at later inner times.
    """
    if len(config.epsilons) < 3:
        raise ConfigError(["epsilons: a convergence study needs at least three ladder values"])
    compare_grid = _window_grid(config, COMPARE_Y_MAX)
    sweep_grid = _window_grid(config, SWEEP_WINDOW_Y)
    limit_state, _ = run_limit_system(config)
    vgrid = config.velocity_grid()
    fullgrid = config.full_grid()
    n_left = config.n_x_left
    dx, dxi = fullgrid.dx, vgrid.dxi
    scales = [_run_scale(config, eps) for eps in config.epsilons]

    if jobs > 1:
        # imported here: loading multiprocessing costs every other caller memory and time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            finals = list(pool.map(_full_run_final_worker, [config] * len(config.epsilons), config.epsilons))
    else:
        finals = [_full_run_final_worker(config, eps) for eps in config.epsilons]

    kin_errors: list[float] = []
    fluid_errors: list[float] = []
    layer_errors: list[float] | None = [] if config.scenario == "shock" else None
    negative_mass: list[float] | None = [] if config.scenario == "steady_shock" else None

    limit_kin = limit_state.kinetic.values
    limit_u = limit_state.fluid.values
    right_centers = fullgrid.centers[n_left:]

    for eps, scale, fine_values in zip(config.epsilons, scales, finals):
        values = _restrict(fine_values, scale)
        kin_errors.append(dx * dxi * float(np.abs(values[:n_left] - limit_kin).sum()))
        u_eps = dxi * values[n_left:].sum(axis=1)
        mask = right_centers > 3.0 * eps
        fluid_errors.append(dx * float(np.abs(u_eps - limit_u)[mask].sum()))
        fine_field = KineticField(config.full_grid(scale), vgrid, fine_values, config.horizon)
        if layer_errors is not None:
            sampled = extract_rescaled_layer(fine_field, eps, compare_grid)
            lim_layer = limit_state.layer
            if lim_layer is None:
                raise RuntimeError("limit run produced no layer profile")
            n_nodes = sampled.shape[0]
            ref = lim_layer.values[:n_nodes]
            layer_errors.append(compare_grid.dy * dxi * float(np.abs(sampled - ref).sum()))
        if negative_mass is not None:
            sampled = extract_rescaled_layer(fine_field, eps, sweep_grid)
            neg = ~vgrid.positive
            per_node = dxi * np.abs(sampled[:, neg]).sum(axis=1)
            negative_mass.append(float(per_node.max()))

    monotone = {
        "kinetic": _strictly_decreasing(kin_errors),
        "fluid": _strictly_decreasing(fluid_errors),
    }
    if layer_errors is not None:
        monotone["layer"] = _strictly_decreasing(layer_errors)
    if negative_mass is not None:
        monotone["negative_mass"] = _strictly_decreasing(negative_mass)

    return ConvergenceReport(
        scenario=config.scenario,
        epsilons=list(config.epsilons),
        kinetic_errors=kin_errors,
        fluid_errors=fluid_errors,
        layer_errors=layer_errors,
        negative_mass=negative_mass,
        monotone=monotone,
    )


# -- stability / contraction ----------------------------------------------

def _smooth_profile(rng: np.random.Generator, x: np.ndarray, scale: float) -> np.ndarray:
    """Random low-frequency profile bounded by scale in absolute value."""
    span = x[-1] - x[0]
    out = np.zeros_like(x)
    for k in range(1, 4):
        phase = rng.uniform(0, 2 * np.pi)
        out += rng.normal() * np.sin(2 * np.pi * k * (x - x[0]) / span + phase) / k
    peak = np.abs(out).max()
    if peak > 0:
        out *= scale / peak * rng.uniform(0.3, 1.0)
    return out


def random_coupled_state(config: ScenarioConfig, seed: int) -> CoupledState:
    """Seeded admissible coupled data: equilibrium mixtures plus a smooth fluid."""
    rng = np.random.default_rng(seed)
    vgrid = config.velocity_grid()
    kgrid = config.kinetic_grid()
    bound = 0.85 * config.half_width
    u_a = _smooth_profile(rng, kgrid.centers, bound)
    u_b = _smooth_profile(rng, kgrid.centers, bound)
    mix = rng.uniform(0.0, 1.0)
    values = mix * maxwellian_table(u_a, vgrid) + (1.0 - mix) * maxwellian_table(u_b, vgrid)
    kin = KineticField(kgrid, vgrid, values)
    fgrid = config.fluid_grid()
    fluid = FluidField(fgrid, _smooth_profile(rng, fgrid.centers, bound))
    inflow_u = rng.uniform(0.0, bound)
    left_ghost = maxwellian_values(inflow_u, vgrid)
    return CoupledState(
        kinetic=kin,
        fluid=fluid,
        far_left_inflow=np.where(vgrid.positive, left_ghost, 0.0),
    )


def stability_study(
    config: ScenarioConfig,
    pair_seed: int = 0,
    slack: float = 0.05,
    log_every: int = 10,
) -> ContractionReport:
    """Evolve two seeded admissible states and check the L1 distance decays.

    Both trajectories see the same far-field inflow (taken from the first
    draw), the setting in which the combined distance is contractive.
    """
    first = random_coupled_state(config, 2 * pair_seed + config.seed)
    second = random_coupled_state(config, 2 * pair_seed + config.seed + 1)
    second = replace_inflow(second, first.far_left_inflow)
    layer_grid = config.layer_grid()
    dt, n_steps = scenario_dt(config)
    _, snaps_a = run_coupled(first, dt, n_steps, layer_grid, mode="limit", log_every=log_every)
    _, snaps_b = run_coupled(second, dt, n_steps, layer_grid, mode="limit", log_every=log_every)
    return contraction_check(snaps_a, snaps_b, slack=slack)


def replace_inflow(state: CoupledState, inflow: np.ndarray | None) -> CoupledState:
    out = state.copy()
    out.far_left_inflow = None if inflow is None else inflow.copy()
    return out


def config_to_dict(config: ScenarioConfig) -> dict:
    d = asdict(config)
    d["epsilons"] = list(config.epsilons)
    return d
