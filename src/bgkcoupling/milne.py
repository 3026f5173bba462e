"""Steady half-space relaxation layer: classification and monotone solve.

The layer problem on y > 0 is

    xi dF/dy = M F - F,   F(0, xi) = g(xi) for xi > 0,   flux(F) = V,

with g an admissible incoming half-range profile and V the prescribed first
moment.  Data is admissible when V lies between the flux carried by g and the
largest flux the velocity interval supports.  Two regimes exist:

* V equals the flux of g: pure relaxation, F(y, xi < 0) = 0 and F tends to
  the equilibrium at +sqrt(2V);
* V exceeds it: the layer carries a standing transition and F tends to the
  equilibrium at -sqrt(2V), returning mass on the negative half-range.

The solver iterates the mild (integral) form of the equation.  Seeded below
the solution (zero, or the far-field equilibrium in the transition case) the
sweep is pointwise nondecreasing, which is the discrete counterpart of the
monotone existence argument for this problem.  All exponential weights are
exact for piecewise-linear source data, so constant equilibria are exact
fixed points of the sweep.  A sweep works on one (node, velocity) block: the
xi > 0 columns in node order and the magnitudes of the xi < 0 columns with
the nodes reversed, so that both half-ranges integrate in row order through
a single scan; the xi < 0 half is negated on the way out, which is exact.
The equilibrium source vanishes in every velocity cell beyond the range of
the node densities, so the sweep builds and scans only the band of columns
that the source or the boundary datum reaches and fills the others with the
signed zeros (and datum row) that the full scan would give them.

Warm-started shock-class solves, the ones the coupled march repeats step
after step, mix the last few sweep outputs (Anderson acceleration) and take
far fewer sweeps.  Cold solves keep the plain sweep: the monotone run from
the seed is the existence certificate, and mixing from the cold seed can
settle on the wrong far field.  Relaxation-class solves keep it too; they
are off the coupled step path, and mixing would move them away from the
cold solution by more than the solver's own agreement between starts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConeError, ConvergenceError, GridMismatchError
from .velocity import (
    DiscreteDistribution,
    VelocityGrid,
    _covered_shares,
    check_admissible,
    flux_moment,
    maxwellian_values,
)

__all__ = [
    "LayerClass",
    "LayerGrid",
    "LayerData",
    "LayerProfile",
    "classify",
    "start_profile",
    "golse_iterate",
    "solve_layer",
    "relaxation_layer_profile",
    "back_flux",
    "confinement_norm",
]

TOL_CLASS = 1e-8
TOL_FIX = 1e-8
MAX_ITER = 10000
_ANDERSON_DEPTH = 2     # sweep outputs mixed beyond the newest, warm shock-class solves only
_GRAM_FLOOR = 1e-12     # relative Gram determinant below which a mix falls back to the plain step


class LayerClass(enum.Enum):
    RELAXATION = "relaxation"
    SHOCK = "shock"


@dataclass(frozen=True)
class LayerGrid:
    """Node-based grid on [0, y_max]: n_cells intervals, n_cells + 1 nodes."""

    y_max: float
    n_cells: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.y_max <= 0 or self.n_cells <= 0:
            raise ValueError("y_max and n_cells must be positive")
        object.__setattr__(self, "nodes", np.linspace(0.0, self.y_max, self.n_cells + 1))

    @property
    def dy(self) -> float:
        return self.y_max / self.n_cells


@dataclass
class LayerData:
    """Incoming half-range profile and prescribed flux.

    incoming must vanish on xi < 0 (the solver owns that half).
    """

    flux: float
    incoming: DiscreteDistribution

    def __post_init__(self):
        grid = self.incoming.grid
        check_admissible(self.incoming.values, grid)
        if np.any(self.incoming.values[~grid.positive] != 0.0):
            raise ValueError("incoming profile must be zero on the xi < 0 half-range")
        max_flux = 0.5 * grid.half_width**2
        if not -1e-12 <= self.flux <= max_flux + 1e-12:    # NaN fails it too
            raise ConeError(f"flux {self.flux} outside [0, {max_flux}]")


@dataclass
class LayerProfile:
    """Converged layer profile F on (node, velocity cell) with diagnostics."""

    grid: LayerGrid
    velocity: VelocityGrid
    values: np.ndarray                    # (n_nodes, n_xi)
    classification: LayerClass
    u_infinity: float
    iterations: int = 0
    last_change: float = float("nan")
    min_increment: float = float("nan")   # most negative pointwise step over the monotone run

    def flux_profile(self) -> np.ndarray:
        """Midpoint first moment at every node; constant in y up to quadrature."""
        return self.velocity.dxi * self.values @ self.velocity.centers


def classify(data: LayerData) -> LayerClass:
    """Decide the layer regime from the flux balance.

    The margin TOL_CLASS * max(V, 1) separates the regimes; data with V
    below the incoming flux beyond that margin is rejected as outside the
    admissible cone.
    """
    incoming_flux = flux_moment(data.incoming)
    margin = TOL_CLASS * max(data.flux, 1.0)
    gap = data.flux - incoming_flux
    if gap < -margin:
        raise ConeError(
            f"prescribed flux {data.flux} is below the incoming flux {incoming_flux}"
        )
    if gap <= margin:
        return LayerClass.RELAXATION
    return LayerClass.SHOCK


def start_profile(data: LayerData, classification: LayerClass, grid: LayerGrid) -> np.ndarray:
    """Monotone seed: zero for relaxation, the far equilibrium for the transition case."""
    vgrid = data.incoming.grid
    n_nodes = grid.n_cells + 1
    if classification is LayerClass.RELAXATION:
        return np.zeros((n_nodes, vgrid.n_cells))
    u_inf = -np.sqrt(2.0 * data.flux)
    row = maxwellian_values(u_inf, vgrid)
    return np.tile(row, (n_nodes, 1))


class _SweepWeights:
    """Exact exponential-integrator weights for one (layer, velocity) grid pair.

    Arrays ending in _pos act on the xi > 0 columns [half:], those ending in
    _neg on the xi < 0 columns [:half].  The relaxation march reads only the
    _pos arrays.  The sweep's own tables, sweep_tables, follow its one-block
    column order and are built on the first sweep, so a grid pair that only
    ever marches relaxation-class layers never pays for them.
    """

    def __init__(self, grid: LayerGrid, vgrid: VelocityGrid):
        h = vgrid.half
        xi_pos = vgrid.centers[h:]
        xi_neg = -vgrid.centers[:h]
        h_pos = grid.dy / xi_pos
        h_neg = grid.dy / xi_neg
        self.n_nodes = grid.n_cells + 1
        self.decay_pos = np.exp(-h_pos)
        self.decay_neg = np.exp(-h_neg)
        a_pos = -np.expm1(-h_pos)          # 1 - e^-h
        a_neg = -np.expm1(-h_neg)
        self.w_far_pos = 1.0 - a_pos / h_pos      # weight of the downstream node source
        self.w_near_pos = a_pos - self.w_far_pos
        self.w_far_neg = a_neg / h_neg - self.decay_neg
        self.w_near_neg = a_neg - self.w_far_neg

    @cached_property
    def sweep_tables(self) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
        """(wa, wb, powers) over the block columns [xi < 0 | xi > 0].

        In the block, row k of the xi < 0 columns is node n - 1 - k, so both
        halves integrate downward in row order: wa weighs the source of the
        row above (the far node for xi < 0, the near node for xi > 0), wb
        that of the row itself, and powers are the doubling scan's
        decay^(2^r) per round.
        """
        wa = np.concatenate((self.w_far_neg, self.w_near_pos))
        wb = np.concatenate((self.w_near_neg, self.w_far_pos))
        decay = np.concatenate((self.decay_neg, self.decay_pos))
        return wa, wb, _doubling_powers(decay, self.n_nodes)


def _doubling_powers(d: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """d, d^2, d^4, ...: the factor of each round of a doubling scan over n rows."""
    powers = []
    p = d
    step = 1
    while step < n:
        powers.append(p)
        p = p * p
        step *= 2
    return tuple(powers)


@lru_cache(maxsize=8)
def _weights(grid: LayerGrid, vgrid: VelocityGrid) -> _SweepWeights:
    # both grids hash on their defining numbers, not on their arrays
    return _SweepWeights(grid, vgrid)


def _scan_lower(y: np.ndarray, powers: tuple[np.ndarray, ...], scratch: np.ndarray) -> None:
    """Solve y[k] = d * y[k-1] + c[k] with y[0] = c[0] along axis 0, in place.

    y holds c on entry and the solution on return; scratch has y's shape.
    The coefficient is constant in k (one value per column), so the usual
    doubling scan applies: after round r each entry holds its trailing
    window of length 2^r, and gluing windows multiplies by powers[r] =
    d^(2^r).  Each round reads the previous round's values whole, through
    scratch, before it updates y.  Columns never mix, so the sweep scans
    both half-ranges of its block in one call.
    """
    n = y.shape[0]
    step = 1
    for p in powers:
        shifted = scratch[: n - step]
        np.multiply(p, y[: n - step], out=shifted)
        y[step:] += shifted
        step *= 2


def _sweep_band(u: np.ndarray, datum: np.ndarray, vgrid: VelocityGrid) -> tuple[int, int]:
    """Block columns [lo, hi) that the source or the boundary datum reaches.

    A xi < 0 column lies below the band when its right edge is strictly
    below every node density u, and a xi > 0 column above it when its left
    edge is strictly above every u and its datum is zero.  Edges increase
    with the column, so both runs are contiguous and the band always holds
    at least one column next to xi = 0.  A density exactly on an edge keeps
    that column in the band, and a NaN density keeps every column.

    Outside the band every covered share clips a strictly negative quotient
    (edge distance / dxi) and is +0.0.  The quotient cannot underflow to
    -0.0: the distances are to O(1) edges, or, at the edge xi = 0, to a
    density that is itself dxi times a row sum.
    """
    h = vgrid.half
    edges = vgrid.edges
    lo = int(np.count_nonzero(edges[1 : h + 1] < u.min()))
    hi = vgrid.n_cells - int(np.count_nonzero(edges[h:-1] > u.max()))
    reached = np.flatnonzero(datum[hi:])
    if reached.size:
        hi += int(reached[-1]) + 1
    return lo, hi


def golse_iterate(
    data: LayerData, grid: LayerGrid, values: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """One full sweep of the mild-form fixed-point map.

    Rebuilds the equilibrium source from the current iterate, then integrates
    upward from the boundary datum for xi > 0 and downward from the far end
    for xi < 0, closing the tail integral with the source frozen at y_max.
    The map is monotone: larger input profiles give larger output profiles.
    The new profile is written to out when given, else to a new array, and
    returned.

    Both half-ranges run in one (n_nodes, n_xi) block.  Columns [half:] hold
    the xi > 0 half in node order; columns [:half] hold the magnitudes of the
    xi < 0 half with the rows reversed, far end first, so both integrate in
    row order and one scan covers the block.  The xi < 0 half is written
    back negated.  Negation commutes exactly with round-to-nearest products
    and sums, and every term of that half shares one sign, so no sum can
    flip a zero: the result is bitwise the sweep done half by half on the
    signed values.

    Only the band of columns [lo, hi) that the source or the datum reaches
    is built and scanned (see _sweep_band); the scan's columns never mix.
    Outside the band the source is +0.0 in every row, and so is each
    right-hand side, a sum of such zeros times the positive weights.  A
    xi < 0 column beyond it therefore scans to +0.0 throughout and is
    written as -0.0; a xi > 0 column has a zero datum and scans to +0.0
    below row 0, and row 0 keeps the datum itself, a -0.0 included.  The
    fill is what the full-width scan gives, bit for bit.
    """
    vgrid = data.incoming.grid
    n_nodes = grid.n_cells + 1
    if values.shape != (n_nodes, vgrid.n_cells):
        raise GridMismatchError(f"profile shape {values.shape} does not match the grids")
    if out is None:
        out = np.empty_like(values)
    wa, wb, powers = _weights(grid, vgrid).sweep_tables
    h = vgrid.half
    datum = data.incoming.values
    u = vgrid.dxi * values.sum(axis=1)
    lo, hi = _sweep_band(u, datum, vgrid)
    m = h - lo                      # block columns [:m] hold the xi < 0 cells lo..h - 1
    # block holds the band's source, then the scan's right-hand side and
    # solution; out's memory is scratch until the last lines write the
    # profile into it, so the sweep allocates one band-sized array
    block = _covered_shares(u[:, None], u[::-1, None], vgrid, np.empty((n_nodes, hi - lo)), lo, hi)
    scratch = out.reshape(-1)[: block.size].reshape(block.shape)
    np.multiply(wa[lo:hi], block[:-1], out=scratch[1:])
    block[1:] *= wb[lo:hi]
    block[1:] += scratch[1:]
    # row 0: the boundary datum for xi > 0; for xi < 0 the far source itself,
    # the exact tail of a source constant beyond y_max
    block[0, m:] = datum[h:hi]
    _scan_lower(block, tuple(p[lo:hi] for p in powers), scratch)
    out[:, :lo] = -0.0
    np.negative(block[::-1, :m], out=out[:, lo:h])
    out[:, h:hi] = block[:, m:]
    out[1:, hi:] = 0.0
    out[0, hi:] = datum[hi:]
    return out


def _anderson_mix(
    ring: np.ndarray, residuals: np.ndarray, newest: int, filled: int, out: np.ndarray
) -> None:
    """Write the Anderson mix of the last `filled` sweep outputs into out.

    ring[i] holds a sweep output G(x_i) and residuals[i] the node sums of
    G(x_i) - x_i; the newest entry sits at index newest and older ones
    before it, cyclically.  The sweep reads its input only through the node
    densities, so these sums carry the whole state of the map.  The weights
    alpha, summing to one, minimize |sum alpha_i residuals[i]|, in the
    difference form of Walker & Ni (2011): a 1x1 or 2x2 normal system solved
    in closed form.  A degenerate system gives the plain step out = G(x_k).
    The mix itself is one matrix-vector product over the stacked ring;
    slots not yet filled hold zeros and get weight zero.
    """
    n = ring.shape[0]
    f = residuals[newest]
    older = [(newest - j) % n for j in range(1, filled)]
    gammas: tuple[float, ...] = ()
    if len(older) == 1:
        d1 = f - residuals[older[0]]
        a = float(d1 @ d1)
        if a > 0.0:
            gammas = (float(d1 @ f) / a,)
    elif len(older) == 2:
        d1 = f - residuals[older[0]]
        d2 = f - residuals[older[1]]
        a, b, c = float(d1 @ d1), float(d1 @ d2), float(d2 @ d2)
        e1, e2 = float(d1 @ f), float(d2 @ f)
        det = a * c - b * b
        if det > _GRAM_FLOOR * a * c:
            gammas = ((c * e1 - b * e2) / det, (a * e2 - b * e1) / det)
    alpha = np.zeros(n)
    alpha[newest] = 1.0 - sum(gammas)
    for gamma, i in zip(gammas, older):
        alpha[i] = gamma
    np.dot(alpha, ring.reshape(n, -1), out=out.reshape(-1))


def solve_layer(
    data: LayerData,
    grid: LayerGrid,
    tol_fix: float = TOL_FIX,
    start: np.ndarray | None = None,
) -> LayerProfile:
    """Iterate the sweep to a fixed point.

    Parameters
    ----------
    data : flux and incoming half-range profile; must lie in the admissible cone.
    grid : layer grid on [0, y_max].
    tol_fix : stop when the sup-over-nodes L1 slice change drops below this;
        ConvergenceError after MAX_ITER sweeps.
    start : optional warm-start profile, read but never written; when
        omitted the monotone seed for the detected regime is used and
        monotonicity is tracked.

    A warm start of shock-class data mixes each new sweep output with the
    previous two (Anderson, depth 2); every other solve is the plain sweep
    x <- G(x), which from the cold seed rises monotonically to the fixed
    point.  Either way the stop test is the change of one sweep, the
    returned profile is a sweep output G(x), and iterations counts sweeps.

    Returns the profile with its classification, far state, and diagnostics.
    """
    classification = classify(data)
    vgrid = data.incoming.grid
    cold = start is None
    depth = 0 if cold or classification is LayerClass.RELAXATION else _ANDERSON_DEPTH
    # values holds the iterate x, owned by this solve (start is copied, never
    # written).  Once the sweep has read x it takes the change G(x) - x, and
    # then the next iterate.  Sweep outputs G(x) go to a ring of depth + 1
    # profiles; with depth 0 the one slot trades places with values instead.
    if cold:
        values = start_profile(data, classification, grid)
    else:
        values = np.array(start, dtype=float, order="C")
    ring = np.zeros((depth + 1,) + values.shape)
    slots = list(ring)
    residuals = np.zeros((depth + 1, values.shape[0]))
    ones = np.ones(values.shape[1])
    min_increment = np.inf if cold else np.nan
    dxi = vgrid.dxi
    last_change = np.inf
    for iteration in range(1, MAX_ITER + 1):
        slot = iteration % (depth + 1)
        swept = slots[slot]
        golse_iterate(data, grid, values, out=swept)
        change = np.subtract(swept, values, out=values)
        if cold:
            min_increment = min(min_increment, float(change.min()))
        if depth:
            np.dot(change, ones, out=residuals[slot])
        np.abs(change, out=change)
        last_change = dxi * float(change.sum(axis=1).max())
        if last_change <= tol_fix:
            values = swept.copy()   # a slot is a view; the profile keeps none of the ring
            break
        if depth:
            _anderson_mix(ring, residuals, slot, min(iteration, depth + 1), values)
        else:
            values, slots[0] = swept, values
    else:
        raise ConvergenceError(
            f"layer iteration did not reach {tol_fix} in {MAX_ITER} sweeps", residual=last_change
        )
    u_inf = float(np.sqrt(2.0 * max(data.flux, 0.0)))
    if classification is LayerClass.SHOCK:
        u_inf = -u_inf
    return LayerProfile(
        grid=grid,
        velocity=vgrid,
        values=values,
        classification=classification,
        u_infinity=u_inf,
        iterations=iteration,
        last_change=last_change,
        min_increment=float(min_increment) if cold else float("nan"),
    )


def relaxation_layer_profile(data: LayerData, grid: LayerGrid) -> LayerProfile:
    """Relaxation-class profile by a single causal march in y.

    With the returning half-range identically zero, the mild form becomes
    lower triangular in y: each node's positive half follows from the node
    below once its own density is known, and that density solves a scalar
    contraction (the downstream source weight of the one partial cell stays
    below one).  The march lands on the same fixed point as the sweep
    iteration at a fraction of the cost.  The coupled marcher needs no
    profile for its relaxation-class steps, whose returning half is zero,
    and calls this only when the profile is read.  Raises when the data does
    not classify as relaxation.
    """
    classification = classify(data)
    if classification is not LayerClass.RELAXATION:
        raise ValueError("causal march applies to relaxation-class data only")
    vgrid = data.incoming.grid
    w = _weights(grid, vgrid)
    h = vgrid.half
    le_pos = vgrid.edges[h:-1]
    dxi = vgrid.dxi
    n_pos = le_pos.size
    edges_pos = np.append(le_pos, le_pos[-1] + dxi)
    far_cum = dxi * np.concatenate(((0.0,), np.cumsum(w.w_far_pos)))
    n_nodes = grid.n_cells + 1
    values = np.zeros((n_nodes, vgrid.n_cells))
    values[0, h:] = data.incoming.values[h:]

    u = dxi * float(values[0, h:].sum())
    eq = maxwellian_values(u, vgrid)[h:]      # equilibrium at the node below
    residual = 0.0
    row = values[0, h:]
    for k in range(grid.n_cells):
        base = w.decay_pos * row + w.w_near_pos * eq
        base_sum = dxi * float(base.sum())
        # The node equation u = base_sum + dxi * sum_j w_far_j * M_j(u) is
        # piecewise linear and increasing in u, with slope w_far < 1 in the
        # one partially filled cell; the edge values of u - rhs(u) locate
        # that cell directly and the linear piece gives the root in closed
        # form.  A couple of fixed-point polish passes absorb the rounding
        # of the bracket selection.
        g_edges = edges_pos - base_sum - far_cum
        p = int(np.searchsorted(g_edges, 0.0, side="right")) - 1
        if p < 0:
            p = 0
        if p >= n_pos:
            u = base_sum + far_cum[-1]
        else:
            u = (base_sum + far_cum[p] - w.w_far_pos[p] * le_pos[p]) / (1.0 - w.w_far_pos[p])
        for _ in range(8):
            u_next = base_sum + dxi * float(np.dot(w.w_far_pos, maxwellian_values(u, vgrid)[h:]))
            done = abs(u_next - u) <= 5e-15 * max(1.0, abs(u_next))
            u = u_next
            if done:
                break
        eq = maxwellian_values(u, vgrid)[h:]
        residual = max(residual, abs(u - (base_sum + dxi * float(np.dot(w.w_far_pos, eq)))))
        row = base + w.w_far_pos * eq
        values[k + 1, h:] = row
    if residual > 1e-9:
        raise ConvergenceError("node density solve inconsistent in the causal march", residual=residual)
    u_inf = float(np.sqrt(2.0 * max(data.flux, 0.0)))
    return LayerProfile(
        grid=grid,
        velocity=vgrid,
        values=values,
        classification=LayerClass.RELAXATION,
        u_infinity=u_inf,
        iterations=1,
        last_change=residual,
        min_increment=float("nan"),
    )


def back_flux(profile: LayerProfile) -> DiscreteDistribution:
    """Boundary slice on the returning half-range: F(0, xi) for xi < 0, zero elsewhere."""
    vgrid = profile.velocity
    return DiscreteDistribution(
        vgrid, np.where(vgrid.positive, 0.0, profile.values[0])
    )


def confinement_norm(profile: LayerProfile) -> float:
    """Node-sum L1 distance to the far field, dy-weighted over the whole layer.

    Finite (and stable under extending y_max) exactly because the profile
    approaches its far equilibrium exponentially.
    """
    far = maxwellian_values(profile.u_infinity, profile.velocity)
    per_node = np.abs(profile.values - far[None, :]).sum(axis=1) * profile.velocity.dxi
    return float(profile.grid.dy * per_node.sum())
