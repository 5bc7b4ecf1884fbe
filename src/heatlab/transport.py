"""Optimal transport on discretized 1-D spaces.

Quadratic-cost couplings between discrete measures are computed by monotone
(quantile) rearrangement, which is optimal on the line; the circular variant
searches the cyclic shift of the quantile alignment over its cumulative-mass
breakpoints.  A small-instance linear program serves as the independent
oracle.  On top of the couplings sit the distortion coefficients,
displacement interpolation, the entropy-convexity check, and the
transport-side replay of the two-time comparison bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import optimize as _optimize

from .calculus import ScalarField, _same_space
from .errors import (
    DimensionMismatchError,
    DomainError,
    InvalidParameterError,
    NumericalError,
    PreconditionError,
)
from .heat import SpectralSolver, heat_apply
from .reports import InequalityReport, make_report
from .space import CurvatureDimension, ModelSpace
from .stable import expm1_ratio

_LP_SUPPORT_LIMIT = 400


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Probability measure supported on the nodes of a model space."""

    masses: np.ndarray
    space: ModelSpace

    def __post_init__(self):
        masses = np.asarray(self.masses, dtype=float)
        masses.setflags(write=False)
        object.__setattr__(self, "masses", masses)
        if masses.shape != (self.space.n_nodes,):
            raise DimensionMismatchError(
                f"measure has {masses.shape} masses for a space with {self.space.n_nodes} nodes"
            )
        if np.any(masses < 0):
            raise InvalidParameterError("measure masses must be nonnegative")
        total = float(masses.sum())
        if abs(total - 1.0) > 1e-13:
            raise InvalidParameterError(f"measure masses must sum to 1, got {total!r}")

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.masses > 0)

    def density(self) -> np.ndarray:
        """Density w.r.t. the reference measure m."""
        return self.masses / self.space.measure


def measure_from_masses(space: ModelSpace, masses) -> DiscreteMeasure:
    masses = np.asarray(masses, dtype=float)
    if np.any(masses < 0) or masses.sum() <= 0:
        raise InvalidParameterError("masses must be nonnegative with positive total")
    masses = masses / masses.sum()
    masses = masses / masses.sum()
    return DiscreteMeasure(masses, space)


def measure_from_density(space: ModelSpace, density) -> DiscreteMeasure:
    """Normalize rho >= 0 against the reference measure: mu_i = rho_i m_i / Z."""
    density = np.asarray(density, dtype=float)
    return measure_from_masses(space, density * space.measure)


def reference_measure(space: ModelSpace) -> DiscreteMeasure:
    return measure_from_masses(space, space.measure)


def point_mass(space: ModelSpace, index: int) -> DiscreteMeasure:
    masses = np.zeros(space.n_nodes)
    masses[int(index)] = 1.0
    return DiscreteMeasure(masses, space)


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Sparse coupling of two discrete measures with squared-distance cost."""

    source: DiscreteMeasure
    target: DiscreteMeasure
    rows: np.ndarray
    cols: np.ndarray
    masses: np.ndarray
    cost: float

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=int)
        cols = np.asarray(self.cols, dtype=int)
        masses = np.asarray(self.masses, dtype=float)
        for arr in (rows, cols, masses):
            arr.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "masses", masses)
        if not (rows.shape == cols.shape == masses.shape):
            raise InvalidParameterError("plan triplet arrays must have equal shape")
        if np.any(masses < 0):
            raise InvalidParameterError("plan masses must be nonnegative")

    def marginal_defect(self) -> float:
        """Largest deviation of the plan's marginals from the coupled measures."""
        n = self.source.space.n_nodes
        row_sum = np.bincount(self.rows, weights=self.masses, minlength=n)
        col_sum = np.bincount(self.cols, weights=self.masses, minlength=n)
        return float(
            max(
                np.max(np.abs(row_sum - self.source.masses)),
                np.max(np.abs(col_sum - self.target.masses)),
            )
        )

    def to_dense(self) -> np.ndarray:
        n = self.source.space.n_nodes
        dense = np.zeros((n, n))
        np.add.at(dense, (self.rows, self.cols), self.masses)
        return dense


def sigma_coefficient(t: float, theta: float, K: float, N: float) -> float:
    """Distortion coefficient with exact four-branch selection.

    Returns +inf on the vacuous branch (K theta^2 >= N pi^2); otherwise the
    sin-ratio, the linear value t, or the sinh-ratio according to the sign of
    K theta^2.  Continuous across K = 0.
    """
    if not 0.0 <= t <= 1.0:
        raise InvalidParameterError(f"distortion coefficient needs t in [0, 1], got {t}")
    if theta < 0:
        raise InvalidParameterError(f"distortion coefficient needs theta >= 0, got {theta}")
    if N < 1:
        raise InvalidParameterError(f"distortion coefficient needs N >= 1, got {N}")
    kt2 = K * theta * theta
    if kt2 >= N * math.pi**2:
        return math.inf
    if kt2 > 0:
        a = theta * math.sqrt(K / N)
        return math.sin(t * a) / math.sin(a)
    if kt2 == 0.0:
        return float(t)
    a = theta * math.sqrt(-K / N)
    return math.sinh(t * a) / math.sinh(a)


def _support(mu: DiscreteMeasure):
    idx = mu.support
    return idx, mu.masses[idx]


def _monotone_cells(idx0, w0, idx1, w1):
    """Quantile (monotone) coupling of two atom lists given in transport order.

    Two-pointer merge; ``min`` leaves an exact zero on at least one side per
    step, so the loop terminates with marginals reproduced to roundoff.
    """
    rows, cols, masses = [], [], []
    a = np.array(w0, dtype=float)
    b = np.array(w1, dtype=float)
    i = j = 0
    while i < len(a) and j < len(b):
        take = min(a[i], b[j])
        if take > 0:
            rows.append(idx0[i])
            cols.append(idx1[j])
            masses.append(take)
        a[i] -= take
        b[j] -= take
        if a[i] == 0.0:
            i += 1
        if j < len(b) and b[j] == 0.0:
            j += 1
    return np.array(rows, dtype=int), np.array(cols, dtype=int), np.array(masses)


def _plan_cost(space: ModelSpace, rows, cols, masses) -> float:
    if len(rows) == 0:
        return 0.0
    k = np.abs(rows - cols)
    if space.is_circle:
        k = np.minimum(k, space.n_nodes - k)
    d = k * space.spacing
    return float(masses @ (d * d))


def _circle_arc_sq(space: ModelSpace, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    k = np.abs(src - tgt)
    k = np.minimum(k, space.n_nodes - k)
    d = k * space.spacing
    return d * d


def _circle_segments(cum0, cum1, theta):
    """Level-space segmentation of the shift-theta quantile alignment.

    Returns (source atom index per segment, target atom index, segment mass):
    source atom i covers levels (cum0[i-1], cum0[i]], target atom j covers
    levels shifted by theta modulo 1.
    """
    lv1 = (cum1 + theta) % 1.0
    bounds = np.unique(np.concatenate([[0.0, 1.0], cum0[:-1], lv1]))
    masses = np.diff(bounds)
    keep = masses > 0
    mids = 0.5 * (bounds[1:] + bounds[:-1])[keep]
    masses = masses[keep]
    src = np.searchsorted(cum0, mids, side="left")
    tgt = np.searchsorted(cum1, (mids - theta) % 1.0, side="left")
    return src, np.minimum(tgt, len(cum1) - 1), masses


def w2_quantile(space: ModelSpace, mu0: DiscreteMeasure, mu1: DiscreteMeasure) -> TransportPlan:
    """Optimal quadratic-cost coupling by monotone (quantile) rearrangement.

    On the circle the quantile alignment carries a cyclic shift; the cost is
    piecewise linear in the shift, so the optimum sits at one of the
    cumulative-mass breakpoints, which are enumerated exhaustively.  Cell
    costs always use the arc distance, which is independent of how the
    alignment winds.
    """
    _check_measures(space, mu0, mu1)
    idx0, w0 = _support(mu0)
    idx1, w1 = _support(mu1)
    if not space.is_circle:
        rows, cols, masses = _monotone_cells(idx0, w0, idx1, w1)
        cost = _plan_cost(space, rows, cols, masses)
        return TransportPlan(mu0, mu1, rows, cols, masses, cost)

    cum0 = np.cumsum(w0)
    cum1 = np.cumsum(w1)
    cum0[-1] = cum1[-1] = 1.0
    thetas = np.unique((cum0[:, None] - cum1[None, :]).ravel() % 1.0)
    best = None
    for theta in thetas:
        src, tgt, masses = _circle_segments(cum0, cum1, theta)
        cost = float(masses @ _circle_arc_sq(space, idx0[src], idx1[tgt]))
        if best is None or cost < best[0] - 1e-18:
            best = (cost, src, tgt, masses)
    cost, src, tgt, masses = best
    # Merge duplicate (source, target) cells produced by the segmentation.
    pair_key = src.astype(np.int64) * len(idx1) + tgt
    uniq, inverse = np.unique(pair_key, return_inverse=True)
    merged = np.bincount(inverse, weights=masses, minlength=len(uniq))
    rows = idx0[(uniq // len(idx1)).astype(int)]
    cols = idx1[(uniq % len(idx1)).astype(int)]
    return TransportPlan(mu0, mu1, rows, cols, merged,
                         _plan_cost(space, rows, cols, merged))


def w2_lp(space: ModelSpace, mu0: DiscreteMeasure, mu1: DiscreteMeasure) -> TransportPlan:
    """Exact small-instance optimal coupling via linear programming.

    Desk-scale oracle: refuses instances with total support above
    400 atoms (use w2_quantile for those).
    """
    _check_measures(space, mu0, mu1)
    idx0, w0 = _support(mu0)
    idx1, w1 = _support(mu1)
    p, q = len(idx0), len(idx1)
    if p + q > _LP_SUPPORT_LIMIT:
        raise InvalidParameterError(
            f"w2_lp is a small-instance oracle (support {p}+{q} > {_LP_SUPPORT_LIMIT}); "
            "use w2_quantile for large inputs"
        )
    dist = space.distance_matrix()[np.ix_(idx0, idx1)]
    cost_vec = (dist * dist).ravel()
    # One column constraint is redundant (masses sum to 1 on both sides);
    # dropping it keeps the system consistent under rounding dust.
    a_eq = np.zeros((p + q - 1, p * q))
    for i in range(p):
        a_eq[i, i * q:(i + 1) * q] = 1.0
    for j in range(q - 1):
        a_eq[p + j, j::q] = 1.0
    b_eq = np.concatenate([w0, w1[:-1]])
    res = _optimize.linprog(cost_vec, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:  # pragma: no cover - transport polytopes are always feasible
        raise NumericalError(f"transport LP failed: {res.message}")
    coupling = res.x.reshape(p, q)
    keep = coupling > 1e-15
    rows_local, cols_local = np.nonzero(keep)
    rows = idx0[rows_local]
    cols = idx1[cols_local]
    masses = coupling[keep]
    return TransportPlan(mu0, mu1, rows, cols, masses, _plan_cost(space, rows, cols, masses))


@dataclass(frozen=True, eq=False)
class InterpolationPath:
    """Displacement interpolation slices generated by a coupling."""

    times: tuple
    measures: tuple
    plan: TransportPlan


def _geodesic_positions(space: ModelSpace, rows, cols, t: float) -> np.ndarray:
    x = space.nodes
    if not space.is_circle:
        return x[rows] + t * (x[cols] - x[rows])
    n = space.n_nodes
    steps = (cols - rows) % n
    steps = np.where(steps > n - steps, steps - n, steps)  # shorter arc; ties go forward
    return np.mod(x[rows] + t * steps * space.spacing, space.length)


def _deposit(space: ModelSpace, positions, masses) -> np.ndarray:
    """Linear mass splitting onto the two grid nodes bracketing each position."""
    n = space.n_nodes
    out = np.zeros(n)
    u = (positions - space.nodes[0]) / space.spacing
    if space.is_circle:
        i0 = np.floor(u).astype(int) % n
        frac = np.clip(u - np.floor(u), 0.0, 1.0)
        i1 = (i0 + 1) % n
    else:
        i0 = np.clip(np.floor(u).astype(int), 0, n - 2)
        frac = np.clip(u - i0, 0.0, 1.0)
        i1 = i0 + 1
    np.add.at(out, i0, masses * (1.0 - frac))
    np.add.at(out, i1, masses * frac)
    return out


def displacement_interpolation(
    space: ModelSpace,
    mu0: DiscreteMeasure,
    mu1: DiscreteMeasure,
    times: Sequence[float],
) -> InterpolationPath:
    """Constant-speed quantile interpolation between two measures.

    Every coupled mass element travels along the grid geodesic of its plan
    cell; off-node positions split linearly onto the bracketing nodes, and
    the t = 0, 1 slices reproduce the endpoints exactly.
    """
    _check_measures(space, mu0, mu1)
    times = tuple(float(t) for t in times)
    if any(t < 0 or t > 1 for t in times):
        raise InvalidParameterError(f"interpolation times must lie in [0, 1], got {times}")
    plan = w2_quantile(space, mu0, mu1)
    slices = []
    for t in times:
        if t == 0.0:
            slices.append(mu0)
            continue
        if t == 1.0:
            slices.append(mu1)
            continue
        pos = _geodesic_positions(space, plan.rows, plan.cols, t)
        masses = _deposit(space, pos, plan.masses)
        slices.append(measure_from_masses(space, masses))
    return InterpolationPath(times=times, measures=tuple(slices), plan=plan)


def plan_action(path: InterpolationPath) -> float:
    """Action of the constant-speed lift: sum of coupled mass times squared length.

    For constant-speed geodesics this equals the generating plan's cost.
    """
    return float(path.plan.cost)


def compression_bound(path: InterpolationPath) -> float:
    """Largest density (w.r.t. m) over all slices and nodes of the path."""
    return max(float(np.max(mu.density())) for mu in path.measures)


def cd_star_check(
    space: ModelSpace,
    mu0: DiscreteMeasure,
    mu1: DiscreteMeasure,
    t: float,
    cd: CurvatureDimension,
    n_prime: float,
) -> float:
    """Entropy-convexity defect (RHS - LHS) along the quantile interpolation:

        -int rho_t^{1-1/N'} dm
            <= -int [sigma^{(1-t)}(theta) rho_0^{-1/N'} + sigma^{(t)}(theta) rho_1^{-1/N'}] dpi

    Nonnegative (up to the O(h) interpolation tolerance) means the convexity
    inequality holds with the quantile plan as the candidate coupling.
    Returns +inf when a plan cell hits the vacuous distortion branch
    (nothing to check there; report as vacuous-pass).
    """
    if not 0.0 <= t <= 1.0:
        raise InvalidParameterError(f"cd_star_check needs t in [0, 1], got {t}")
    if n_prime < cd.N:
        raise InvalidParameterError(f"cd_star_check needs N' >= N, got N'={n_prime} < N={cd.N}")
    path = displacement_interpolation(space, mu0, mu1, (t,))
    mu_t = path.measures[0]
    plan = path.plan

    k = np.abs(plan.rows - plan.cols)
    if space.is_circle:
        k = np.minimum(k, space.n_nodes - k)
    theta = k * space.spacing
    sig0 = np.array([sigma_coefficient(1.0 - t, th, cd.K, n_prime) for th in theta])
    sig1 = np.array([sigma_coefficient(t, th, cd.K, n_prime) for th in theta])
    if np.any(np.isinf(sig0)) or np.any(np.isinf(sig1)):
        return math.inf

    expo = 1.0 - 1.0 / n_prime
    rho_t = mu_t.density()
    positive = rho_t > 0
    lhs = -float(np.sum(rho_t[positive] ** expo * space.measure[positive]))
    rho0 = mu0.density()[plan.rows]
    rho1 = mu1.density()[plan.cols]
    rhs = -float(plan.masses @ (sig0 * rho0 ** (-1.0 / n_prime) + sig1 * rho1 ** (-1.0 / n_prime)))
    return rhs - lhs


def _ball_indices(space: ModelSpace, center: int, radius: float) -> np.ndarray:
    dists = np.array([space.distance(center, j) for j in range(space.n_nodes)])
    return np.flatnonzero(dists <= radius * (1.0 + 1e-12))


def harnack_transport_check(
    solver: SpectralSolver,
    f: ScalarField,
    x: int,
    y: int,
    s: float,
    t: float,
    cd: CurvatureDimension,
    r: float,
    tolerance: float = 1e-6,
) -> InequalityReport:
    """Transport-side replay of the Harnack bound between balls around y and x.

    Couples the m-uniform measures on B_r(y) and B_r(x) by the quantile plan
    and checks

        int log(u(gamma_1, s) / u(gamma_0, t)) dpi
            <= action / (4 (t - s) e^{2Ks/3}) + (N/2) log((1 - e^{2Kt/3}) / (1 - e^{2Ks/3}))

    with the e^{2Kt/3} denominator when K < 0.  The log arguments carry the
    standard epsilon offset; as r -> 0 this contracts to the pointwise
    Harnack inequality.
    """
    space = solver.space
    _same_space(space, f)
    if not 0 < s < t:
        raise DomainError(f"harnack_transport_check needs 0 < s < t, got s={s}, t={t}")
    if np.any(f.values < 0):
        raise PreconditionError("harnack_transport_check needs f >= 0")
    if r <= 0:
        raise InvalidParameterError(f"ball radius must be positive, got {r}")
    x, y = space.node_index(x), space.node_index(y)
    ball_y = _ball_indices(space, y, r)
    ball_x = _ball_indices(space, x, r)
    if ball_y.size == 0 or ball_x.size == 0:
        raise InvalidParameterError("balls around x and y must contain at least one node")

    m = space.measure
    mu0_masses = np.zeros(space.n_nodes)
    mu0_masses[ball_y] = m[ball_y] / m[ball_y].sum()
    mu1_masses = np.zeros(space.n_nodes)
    mu1_masses[ball_x] = m[ball_x] / m[ball_x].sum()
    mu0 = DiscreteMeasure(mu0_masses, space)
    mu1 = DiscreteMeasure(mu1_masses, space)
    plan = w2_quantile(space, mu0, mu1)

    eps = 1e-12 * max(float(np.max(f.values)), 1.0)
    u_t = heat_apply(solver, f, t).values + eps
    u_s = heat_apply(solver, f, s).values + eps
    lhs = float(plan.masses @ np.log(u_s[plan.cols] / u_t[plan.rows]))

    K, N = cd.K, cd.N
    denom_exp = math.exp(2.0 * K * (s if K >= 0 else t) / 3.0)
    log_ratio = math.log((t * expm1_ratio(2.0 * K * t / 3.0)) / (s * expm1_ratio(2.0 * K * s / 3.0)))
    rhs = plan.cost / (4.0 * (t - s) * denom_exp) + 0.5 * N * log_ratio
    margin = rhs - lhs
    return make_report(
        name="harnack-transport",
        params={"x": x, "y": y, "s": s, "t": t, "K": K, "N": N, "r": r,
                "model": space.model_id},
        min_margin=margin,
        tolerance=tolerance,
        notes=f"action={plan.cost:.6e}, |B_r(y)|={ball_y.size}, |B_r(x)|={ball_x.size}; "
              "margin evaluated for the epsilon-regularized field",
    )


def _check_measures(space: ModelSpace, *measures: DiscreteMeasure) -> None:
    for mu in measures:
        s = mu.space
        if s is space:
            continue
        if (
            s.topology != space.topology
            or s.n_nodes != space.n_nodes
            or not np.array_equal(s.nodes, space.nodes)
        ):
            raise DimensionMismatchError("measure does not live on the given space")
