"""Optimal transport on discretized 1-D spaces.

Quadratic-cost couplings between discrete measures are computed by monotone
(quantile) rearrangement, which is optimal on the line: one stable merge of
the source's cumulative-mass grid with the target's, lifted to the line
winding by winding, segments the mass levels in linear time, and running
counts along the merge name each segment's atoms.  The circular variant finds
the cyclic shift of the quantile alignment by bisection over its
cumulative-mass breakpoints, on the cost lifted to the line, which is convex
in the shift.  A small-instance linear program serves as the independent
oracle.  On top of the couplings sit the distortion coefficients,
displacement interpolation, the entropy-convexity check, and the
transport-side replay of the two-time comparison bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .calculus import ScalarField, _same_space
from .errors import (
    DimensionMismatchError,
    DomainError,
    InvalidParameterError,
    NumericalError,
)
from .heat import SpectralSolver, heat_apply
from .inequalities import _base_params, _epsilon_for, _harnack_constants, _require_nonnegative
from .reports import InequalityReport, make_report
from .space import CurvatureDimension, ModelSpace, _freeze_arrays

_LP_SUPPORT_LIMIT = 400


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Probability measure supported on the nodes of a model space."""

    masses: np.ndarray
    space: ModelSpace

    def __post_init__(self):
        (masses,) = _freeze_arrays(self, masses=float)
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
    masses[space.node_index(index)] = 1.0
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
        rows, cols, masses = _freeze_arrays(self, rows=int, cols=int, masses=float)
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


def _sigma_coefficients(t: float, theta, K: float, N: float) -> np.ndarray:
    """Array form of ``sigma_coefficient`` over theta; arguments are not validated."""
    theta = np.asarray(theta, dtype=float)
    kt2 = K * theta * theta
    sigma = np.full(theta.shape, float(t))
    rate = math.sqrt(abs(K) / N)
    for branch, ratio in (((kt2 > 0) & (kt2 < N * math.pi**2), np.sin), (kt2 < 0, np.sinh)):
        a = theta[branch] * rate
        sigma[branch] = ratio(t * a) / ratio(a)
    sigma[kt2 >= N * math.pi**2] = math.inf
    return sigma


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
    return float(_sigma_coefficients(t, [theta], K, N)[0])


def _support(mu: DiscreteMeasure):
    idx = mu.support
    return idx, mu.masses[idx]


def _plan_cost(space: ModelSpace, rows, cols, masses) -> float:
    d = space.distances(rows, cols)
    return float(masses @ (d * d))


def _cumulative(w: np.ndarray) -> np.ndarray:
    """Cumulative masses, monotone and ending at exactly 1 despite rounding."""
    cum = np.minimum(np.cumsum(w), 1.0)
    cum[-1] = 1.0
    return cum


def _segments(cum0, cum1, theta, top=1.0):
    """Level-space segmentation of the quantile alignment shifted by theta.

    Level u in (0, top] couples source atom F0^{-1}(u) with target atom
    F1^{-1}((u - theta) mod 1) on winding floor(u - theta) of the lifted
    target.  Target atom j ends at level cum1[j] + theta + v on winding v, so
    the target breakpoints in [0, top] form one ascending run per winding,
    and cum0 is another; one stable merge of these runs gives the segment
    bounds.  The source breakpoints at or below a segment's lower bound count
    off its source atom, and the target breakpoints there, taken in winding
    order, its target atom and winding.  Returns (source atom, target atom,
    winding, mass).
    """
    q = len(cum1)
    lifted = cum1 + theta
    # Every target breakpoint in [0, top] lies on winding -w or 1 - w (but for
    # rounding within an ulp of level 1); lo + lo1 of theirs lie below level 0.
    w = math.floor(lifted[-1])
    lo, hi, lo1, hi1 = lifted.searchsorted((w, w + top, w - 1, w - 1 + top)).tolist()
    n0 = cum0.searchsorted(top)
    bounds = np.concatenate((cum0[:n0], lifted[lo:hi] - w, lifted[lo1:hi1] - (w - 1), (0.0, top)))
    order = bounds.argsort(kind="stable")
    bounds = bounds[order]
    widths = bounds[1:] - bounds[:-1]
    # A segment opens at the last k of each run of equal bounds; bounds 0..k are
    # the 0.0 sentinel, src source breakpoints and k - src target breakpoints,
    # so its target atom is number lo + lo1 + k - src from atom 0 of winding -w.
    starts = (widths > 0).nonzero()[0]
    src = (order < n0).cumsum()[starts]
    winding, tgt = np.divmod(starts - src + (lo + lo1 - w * q), q)
    return src, tgt, winding, widths[starts]


def _optimal_shift(n: int, idx0, cum0, idx1, cum1) -> float:
    """Cyclic shift of the quantile alignment on an n-node circle.

    With the target lifted to the line (winding w puts atom j at x1[j] + w L),
    the squared cost of the shift-theta alignment is convex and piecewise
    linear in theta, with kinks at {cum0_i - cum1_j} mod 1 (Delon, Salomon &
    Sobolevski 2010; Rabin, Delon & Gousseau 2011); the arc-priced cost is not
    unimodal.  No optimal cell moves farther than L/2, so the optimum lies in
    [-1, 2), where a bisection over the sorted kinks finds it.
    """
    kinks = np.unique((cum0[:, None] - cum1[None, :]).ravel() % 1.0)
    thetas = np.concatenate([kinks - 1.0, kinks, kinks + 1.0])
    # Kinks equal in exact arithmetic differ by cumsum rounding, a few (p + q)
    # ulps; a bisection step across such a pair compares rounding noise.
    resolution = 4 * (len(cum0) + len(cum1)) * np.finfo(float).eps
    thetas = thetas[np.concatenate([[True], np.diff(thetas) > resolution])]

    def lifted_cost(k: int) -> float:
        src, tgt, winding, masses = _segments(cum0, cum1, thetas[k])
        steps = idx1[tgt] + winding * n - idx0[src]
        return float(masses @ (steps * steps))

    lo, hi = 0, len(thetas) - 1
    while hi - lo > 2:
        mid = (lo + hi) // 2
        if lifted_cost(mid) <= lifted_cost(mid + 1):
            hi = mid
        else:
            lo = mid + 1
    return float(thetas[min(range(lo, hi + 1), key=lifted_cost)])


def w2_quantile(space: ModelSpace, mu0: DiscreteMeasure, mu1: DiscreteMeasure) -> TransportPlan:
    """Optimal quadratic-cost coupling by monotone (quantile) rearrangement.

    On the interval the quantile alignment itself is optimal.  On the circle
    the alignment carries a cyclic shift, found by bisection on the convex
    lifted cost (see ``_optimal_shift``).  The plan's cost is priced by arc
    distance, which equals the lifted cost at the optimal shift.
    """
    _same_space(space, mu0, mu1)
    idx0, w0 = _support(mu0)
    idx1, w1 = _support(mu1)
    cum0, cum1 = _cumulative(w0), _cumulative(w1)
    theta = _optimal_shift(space.n_nodes, idx0, cum0, idx1, cum1) if space.is_circle else 0.0
    # Levels above 1/2 are segmented from the top (reversed atoms, shift -theta):
    # near 1 a cumsum cannot resolve atoms below its ulp, and a 1e-16 cell on a
    # 1e-34 atom distorts density-weighted integrals such as cd_star's.
    low_src, low_tgt, _, low_mass = _segments(cum0, cum1, theta, top=0.5)
    high_src, high_tgt, _, high_mass = _segments(
        _cumulative(w0[::-1]), _cumulative(w1[::-1]), -theta, top=0.5)
    # Merge duplicate (source, target) cells: the atoms at level 1/2 appear in
    # both halves, and on the circle one atom pair can meet at both ends.  Cell
    # (i, j) has key i q + j, and the top half's cell (p - 1 - i, q - 1 - j) has
    # key p q - 1 - (i q + j); the keys form a few sorted runs, which a stable
    # sort merges, and their order is the plan's (row, col) order.
    p, q = len(idx0), len(idx1)
    key = np.concatenate((low_src * q + low_tgt, (p * q - 1) - (high_src * q + high_tgt)))
    order = key.argsort(kind="stable")
    key = key[order]
    first = np.concatenate(([True], key[1:] != key[:-1])).nonzero()[0]
    merged = np.add.reduceat(np.concatenate((low_mass, high_mass))[order], first)
    rows, cols = np.divmod(key[first], q)
    rows, cols = idx0[rows], idx1[cols]
    return TransportPlan(mu0, mu1, rows, cols, merged, _plan_cost(space, rows, cols, merged))


def w2_lp(space: ModelSpace, mu0: DiscreteMeasure, mu1: DiscreteMeasure) -> TransportPlan:
    """Exact small-instance optimal coupling via linear programming.

    Desk-scale oracle: refuses instances with total support above
    400 atoms (use w2_quantile for those).
    """
    from scipy import optimize
    _same_space(space, mu0, mu1)
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
    # HiGHS's default feasibility tolerance (1e-7) admits entries of -1e-7 that
    # undercut the optimal cost by 1e-10; an oracle needs its tightest one.
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = optimize.linprog(cost_vec, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                            options=tight)
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
    _same_space(space, mu0, mu1)
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

    theta = space.distances(plan.rows, plan.cols)
    sig0 = _sigma_coefficients(1.0 - t, theta, cd.K, n_prime)
    sig1 = _sigma_coefficients(t, theta, cd.K, n_prime)
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


def cd_star_report(space: ModelSpace, rho0: ScalarField, rho1: ScalarField, t: float,
                   cd: CurvatureDimension, n_prime: float, tolerance: float) -> InequalityReport:
    """cd_star_check between the measures with densities rho0 and rho1 as a report;
    the vacuous distortion branch is a vacuous-pass with margin 0."""
    mu0 = measure_from_density(space, rho0.values)
    mu1 = measure_from_density(space, rho1.values)
    defect = cd_star_check(space, mu0, mu1, t, cd, n_prime)
    vacuous = math.isinf(defect)
    return make_report("cd-star", _base_params(space, cd, n_prime=n_prime, t=t),
                       0.0 if vacuous else defect, tolerance, vacuous=vacuous,
                       notes="vacuous distortion branch (infinite coefficient)" if vacuous else "")


def _ball_indices(space: ModelSpace, center: int, radius: float) -> np.ndarray:
    return np.flatnonzero(space.distances(center, np.arange(space.n_nodes)) <= radius * (1 + 1e-12))


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
    _require_nonnegative(f, "harnack_transport_check")
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

    eps = _epsilon_for(f.values)
    u_t = heat_apply(solver, f, t).values + eps
    u_s = heat_apply(solver, f, s).values + eps
    lhs = float(plan.masses @ np.log(u_s[plan.cols] / u_t[plan.rows]))

    K, N = cd.K, cd.N
    denom_exp, s_term, t_term = _harnack_constants(s, t, K)
    rhs = plan.cost / (4.0 * (t - s) * denom_exp) + 0.5 * N * math.log(t_term / s_term)
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

