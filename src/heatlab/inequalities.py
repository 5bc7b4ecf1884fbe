"""Verifiers for the heat-flow inequalities and their proof machinery.

Every verifier evaluates a pointwise margin field (bound side minus estimate
side), asserts its minimum over interior nodes (two grid steps away from any
boundary; circles have no boundary) against a tolerance, and returns an
InequalityReport.  Fields that are only required nonnegative get the standard
epsilon offset 1e-12 * max(sup|f|, 1) before the semigroup is applied; the
tooling for positive lower bounds (the Phi machinery) instead requires
min f >= 1e-6 * sup|f| outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate as _integrate

from .calculus import (
    ScalarField,
    _laplacian_values,
    _same_space,
    carre_du_champ,
    gamma2,
    log_field,
)
from .errors import DomainError, InvalidParameterError, InvalidProfileError, PreconditionError
from .heat import SpectralSolver, gaussian_kernel_oracle, heat_apply, heat_kernel, time_resolution_floor
from .reports import InequalityReport, amend, make_report
from .space import CurvatureDimension, ModelSpace
from .stable import expm1_ratio, inv_one_minus_exp_neg

INTERIOR_STEPS = 2
PHI_FLOOR_FACTOR = 1e-6


# ---------------------------------------------------------------------------
# shared plumbing


def _epsilon_for(values: np.ndarray) -> float:
    return 1e-12 * max(float(np.max(np.abs(values))), 1.0)


def _require_nonnegative(f: ScalarField, who: str) -> None:
    if float(np.min(f.values)) < 0.0:
        raise PreconditionError(f"{who} needs a nonnegative field f")


def _require_phi_floor(f: ScalarField, who: str) -> None:
    floor = PHI_FLOOR_FACTOR * float(np.max(np.abs(f.values)))
    if float(np.min(f.values)) < max(floor, 0.0) or float(np.min(f.values)) <= 0.0:
        raise PreconditionError(
            f"{who} needs min f >= {PHI_FLOOR_FACTOR:g} * sup|f| > 0 "
            f"(got min {float(np.min(f.values)):.3e})"
        )


def _regularized(f: ScalarField) -> ScalarField:
    eps = _epsilon_for(f.values)
    return ScalarField(f.values + eps, f.space)


def _interior_min(space: ModelSpace, values: np.ndarray) -> float:
    return float(values[space.interior_mask(INTERIOR_STEPS)].min())


def _boundary_min(space: ModelSpace, values: np.ndarray) -> float | None:
    mask = ~space.interior_mask(INTERIOR_STEPS)
    if not mask.any():
        return None
    return float(values[mask].min())


def _base_params(space: ModelSpace, cd: CurvatureDimension | None = None, **extra) -> dict:
    params = {"model": space.model_id, "n": space.n_nodes, "h": space.spacing}
    if cd is not None:
        params["K"] = cd.K
        params["N"] = cd.N
    params.update(extra)
    return params


# ---------------------------------------------------------------------------
# theorem-level verifiers


def li_yau_oracle_margin(N: float, t: float, r: float) -> float:
    """Margin of the parabolic gradient bound on the analytic Euclidean kernel.

    The kernel saturates the bound, so the returned value is zero to
    roundoff for every admissible (N, t, r): the equality witness.
    """
    vals = gaussian_kernel_oracle(N, t, r)
    return N / (2.0 * t) - (vals.grad_log_sq - vals.dt_log)


def li_yau_check(
    solver: SpectralSolver,
    f: ScalarField,
    T: float,
    N: float,
    tolerance: float = 1e-6,
) -> InequalityReport:
    """Parabolic gradient bound at time T on a zero-curvature model:

        Gamma(H_T f) - (L H_T f)(H_T f) <= (N / 2T) (H_T f)^2.

    The margin field is the pointwise slack; the log form
    Gamma(H_T f)/(H_T f)^2 - (L H_T f)/(H_T f) <= N/(2T) is recorded in the
    extras.
    """
    _same_space(solver.space, f)
    _require_nonnegative(f, "li_yau_check")
    if T <= 0:
        raise DomainError(f"li_yau_check needs T > 0, got {T}")
    space = solver.space
    u = heat_apply(solver, _regularized(f), T).values
    lap_u = _laplacian_values(space, u)
    gamma_u = carre_du_champ(space, ScalarField(u, space)).values
    margin = (N / (2.0 * T)) * u * u + lap_u * u - gamma_u
    log_margin = N / (2.0 * T) + lap_u / u - gamma_u / (u * u)
    return make_report(
        name="li-yau",
        params=_base_params(space, T=T, N=N),
        min_margin=_interior_min(space, margin),
        tolerance=tolerance,
        margin_field=ScalarField(margin, space),
        notes=_boundary_note(space, margin),
        extras={
            "bound_constant": N / (2.0 * T),
            "log_form_min_margin": _interior_min(space, log_margin),
        },
    )


def bakry_qian_check(
    solver: SpectralSolver,
    f: ScalarField,
    T: float,
    cd: CurvatureDimension,
    tolerance: float = 1e-5,
) -> InequalityReport:
    """Laplacian upper bound under positive curvature:  L H_T f <= (N K / 4) H_T f.

    The proof establishes the bound for T >= 2/K; below that the margin is
    recorded but not asserted (vacuous-pass verdict with a regime note).
    """
    _same_space(solver.space, f)
    if cd.K <= 0:
        raise InvalidParameterError(f"bakry_qian_check needs K > 0, got {cd.K}")
    _require_nonnegative(f, "bakry_qian_check")
    if T <= 0:
        raise DomainError(f"bakry_qian_check needs T > 0, got {T}")
    space = solver.space
    u = heat_apply(solver, _regularized(f), T).values
    lap_u = _laplacian_values(space, u)
    margin = (cd.N * cd.K / 4.0) * u - lap_u
    in_regime = T >= 2.0 / cd.K
    notes = "T >= 2/K: inside proof regime" if in_regime else (
        "outside proof regime (T < 2/K): margins recorded, not asserted"
    )
    bnote = _boundary_note(space, margin)
    if bnote:
        notes = f"{notes}; {bnote}"
    return make_report(
        name="bakry-qian",
        params=_base_params(space, cd, T=T),
        min_margin=_interior_min(space, margin),
        tolerance=tolerance,
        margin_field=ScalarField(margin, space),
        notes=notes,
        vacuous=not in_regime,
        extras={"bound_coefficient": cd.N * cd.K / 4.0, "proof_regime_T": 2.0 / cd.K},
    )


def bg_bound(T: float, cd: CurvatureDimension) -> tuple[float, float]:
    """Coefficients (c1, c2) of the curvature-corrected gradient bound:

        Gamma(H_T f) <= c1 (L H_T f)(H_T f) + c2 (H_T f)^2,
        c1 = e^{-2KT/3},  c2 = (NK/3) e^{-4KT/3} / (1 - e^{-2KT/3}).

    The K -> 0 limit (1, N/2T) is evaluated by series below |K| T ~ 1e-4,
    avoiding the cancellation in the c2 denominator.
    """
    if T <= 0:
        raise DomainError(f"bg_bound needs T > 0, got {T}")
    K, N = cd.K, cd.N
    c1 = math.exp(-2.0 * K * T / 3.0)
    u = 2.0 * K * T / 3.0
    c2 = (N / (2.0 * T)) * math.exp(-4.0 * K * T / 3.0) * inv_one_minus_exp_neg(u)
    return c1, c2


def baudoin_garofalo_check(
    solver: SpectralSolver,
    f: ScalarField,
    T: float,
    cd: CurvatureDimension,
    tolerance: float = 1e-5,
) -> InequalityReport:
    """Curvature-corrected gradient bound at any K:

        Gamma(H_T f) <= c1 (L H_T f)(H_T f) + c2 (H_T f)^2

    with (c1, c2) from bg_bound.  At K = 0 this is exactly the li_yau_check
    inequality.
    """
    _same_space(solver.space, f)
    _require_nonnegative(f, "baudoin_garofalo_check")
    if T <= 0:
        raise DomainError(f"baudoin_garofalo_check needs T > 0, got {T}")
    space = solver.space
    c1, c2 = bg_bound(T, cd)
    u = heat_apply(solver, _regularized(f), T).values
    lap_u = _laplacian_values(space, u)
    gamma_u = carre_du_champ(space, ScalarField(u, space)).values
    margin = c1 * lap_u * u + c2 * u * u - gamma_u
    log_margin = c1 * lap_u / u + c2 - gamma_u / (u * u)
    return make_report(
        name="baudoin-garofalo",
        params=_base_params(space, cd, T=T),
        min_margin=_interior_min(space, margin),
        tolerance=tolerance,
        margin_field=ScalarField(margin, space),
        notes=_boundary_note(space, margin),
        extras={
            "c1": c1,
            "c2": c2,
            "log_form_min_margin": _interior_min(space, log_margin),
        },
    )


def harnack_prefactor(s: float, t: float, cd: CurvatureDimension) -> float:
    """((1 - e^{2Ks/3}) / (1 - e^{2Kt/3}))^{N/2}, K -> 0 limit (s/t)^{N/2}."""
    ratio = (s * expm1_ratio(2.0 * cd.K * s / 3.0)) / (t * expm1_ratio(2.0 * cd.K * t / 3.0))
    return ratio ** (cd.N / 2.0)


def harnack_check(
    solver: SpectralSolver,
    f: ScalarField,
    x: int,
    y: int,
    s: float,
    t: float,
    cd: CurvatureDimension,
    tolerance: float = 1e-6,
) -> InequalityReport:
    """Pointwise two-time comparison of the heat flow:

        (H_t f)(y) >= (H_s f)(x) exp(-d(x,y)^2 / (4 (t-s) e^{2Ks/3})) * prefactor

    with the e^{2Kt/3} denominator when K < 0 and the (s/t)^{N/2} limit
    prefactor at K = 0.  The margin is LHS - RHS at the given node pair.
    """
    _same_space(solver.space, f)
    _require_nonnegative(f, "harnack_check")
    if not 0 < s < t:
        raise DomainError(f"harnack_check needs 0 < s < t, got s={s}, t={t}")
    space = solver.space
    x, y = space.node_index(x), space.node_index(y)
    fe = _regularized(f)
    u_s = heat_apply(solver, fe, s).values
    u_t = heat_apply(solver, fe, t).values
    d = space.distance(x, y)
    denom_exp = math.exp(2.0 * cd.K * (s if cd.K >= 0 else t) / 3.0)
    rhs = u_s[x] * math.exp(-d * d / (4.0 * (t - s) * denom_exp)) * harnack_prefactor(s, t, cd)
    margin = float(u_t[y] - rhs)
    return make_report(
        name="harnack",
        params=_base_params(space, cd, x=x, y=y, s=s, t=t),
        min_margin=margin,
        tolerance=tolerance,
        extras={"distance": d, "prefactor": harnack_prefactor(s, t, cd)},
    )


def harnack_scan(
    solver: SpectralSolver,
    f: ScalarField,
    xs: Sequence[int],
    ys: Sequence[int],
    time_pairs: Sequence[tuple[float, float]],
    cd: CurvatureDimension,
    tolerance: float = 1e-6,
) -> InequalityReport:
    """Scanning variant: minimum harnack_check margin over a node/time grid."""
    for label, values in (("xs", xs), ("ys", ys), ("time_pairs", time_pairs)):
        if len(values) == 0:
            raise InvalidParameterError(f"harnack_scan needs a non-empty {label}")
    worst = math.inf
    worst_at = None
    count = 0
    for x in xs:
        for y in ys:
            for s, t in time_pairs:
                rep = harnack_check(solver, f, x, y, s, t, cd, tolerance=tolerance)
                count += 1
                if rep.min_margin < worst:
                    worst = rep.min_margin
                    worst_at = rep.params
    return make_report(
        name="harnack-scan",
        params=_base_params(solver.space, cd, instances=count),
        min_margin=worst,
        tolerance=tolerance,
        notes=f"worst instance: x={worst_at['x']}, y={worst_at['y']}, "
              f"s={worst_at['s']}, t={worst_at['t']}",
        extras={"instances": count},
    )


def be_flow_check(
    solver: SpectralSolver,
    f: ScalarField,
    t: float,
    cd: CurvatureDimension,
    tolerance: float = 1e-6,
) -> InequalityReport:
    """Semigroup gradient commutation bound:  Gamma(H_t f) <= e^{-2Kt} H_t(Gamma(f))."""
    _same_space(solver.space, f)
    if t <= 0:
        raise DomainError(f"be_flow_check needs t > 0, got {t}")
    space = solver.space
    gamma_f = carre_du_champ(space, f)
    flowed = heat_apply(solver, gamma_f, t).values
    u = heat_apply(solver, f, t)
    gamma_u = carre_du_champ(space, u).values
    margin = math.exp(-2.0 * cd.K * t) * flowed - gamma_u
    return make_report(
        name="be-flow",
        params=_base_params(space, cd, t=t),
        min_margin=_interior_min(space, margin),
        tolerance=tolerance,
        margin_field=ScalarField(margin, space),
        notes=_boundary_note(space, margin),
    )


def eks_coefficient(t: float, cd: CurvatureDimension) -> float:
    """4Kt^2 / (N (e^{2Kt} - 1)); continuous K -> 0 limit 2t/N."""
    return 2.0 * t / (cd.N * expm1_ratio(2.0 * cd.K * t))


def eks_check(
    solver: SpectralSolver,
    f: ScalarField,
    t: float,
    cd: CurvatureDimension,
    tolerance: float = 1e-6,
) -> InequalityReport:
    """Dimensional sharpening of be_flow_check:

        Gamma(H_t f) + (4Kt^2 / (N(e^{2Kt}-1))) (L H_t f)^2 <= e^{-2Kt} H_t(Gamma(f)).
    """
    _same_space(solver.space, f)
    if t <= 0:
        raise DomainError(f"eks_check needs t > 0, got {t}")
    space = solver.space
    gamma_f = carre_du_champ(space, f)
    flowed = heat_apply(solver, gamma_f, t).values
    u = heat_apply(solver, f, t)
    gamma_u = carre_du_champ(space, u).values
    lap_u = _laplacian_values(space, u.values)
    coeff = eks_coefficient(t, cd)
    margin = math.exp(-2.0 * cd.K * t) * flowed - gamma_u - coeff * lap_u * lap_u
    return make_report(
        name="eks",
        params=_base_params(space, cd, t=t),
        min_margin=_interior_min(space, margin),
        tolerance=tolerance,
        margin_field=ScalarField(margin, space),
        notes=_boundary_note(space, margin),
        extras={"laplacian_coefficient": coeff},
    )


# ---------------------------------------------------------------------------
# Phi machinery


def phi(solver: SpectralSolver, f: ScalarField, T: float, t: float) -> ScalarField:
    """Flowed gradient-of-log observable

        Phi(t) = H_t( (H_{T-t} f) Gamma(log H_{T-t} f) ),

    defined for fields bounded below by a positive multiple of their sup norm.
    Phi(0) equals (H_T f) Gamma(log H_T f); every value is nonnegative up to
    reconstruction roundoff.
    """
    _same_space(solver.space, f)
    _require_phi_floor(f, "phi")
    if T <= 0:
        raise DomainError(f"phi needs T > 0, got {T}")
    if not 0.0 <= t < T:
        raise DomainError(f"phi needs 0 <= t < T, got t={t}")
    space = solver.space
    u = heat_apply(solver, f, T - t)
    gamma_log = carre_du_champ(space, log_field(u)).values
    integrand = ScalarField(u.values * gamma_log, space)
    return heat_apply(solver, integrand, t)


def _phi_pairing(solver: SpectralSolver, f: ScalarField, T: float, t: float,
                 phi_test: ScalarField) -> float:
    return float(phi(solver, f, T, t).values @ (phi_test.values * solver.space.measure))


def phi_derivative_check(
    solver: SpectralSolver,
    f: ScalarField,
    T: float,
    t: float,
    phi_test: ScalarField,
    dt: float,
) -> float:
    """Defect of the derivative identity for the Phi pairing:

        | d/dt int Phi(t) phi dm  -  2 int (H_{T-t} f)(H_t phi) gamma2(log H_{T-t} f) dm |

    with the left side by central difference.  Contract: O(dt^2) + O(h^2).
    """
    _same_space(solver.space, f, phi_test)
    if np.any(phi_test.values < 0):
        raise PreconditionError("phi_derivative_check needs a nonnegative test field")
    if not (0.0 < t - dt and t + dt < T):
        raise DomainError(
            f"central-difference stencil [t-dt, t+dt] must stay inside (0, T); "
            f"got t={t}, dt={dt}, T={T}"
        )
    space = solver.space
    lhs = (
        _phi_pairing(solver, f, T, t + dt, phi_test)
        - _phi_pairing(solver, f, T, t - dt, phi_test)
    ) / (2.0 * dt)
    u = heat_apply(solver, f, T - t)
    g2_log = _gamma2_values(space, np.log(u.values))
    flowed_test = heat_apply(solver, phi_test, t).values
    rhs = 2.0 * float((u.values * flowed_test * g2_log) @ space.measure)
    return abs(lhs - rhs)


def _gamma2_values(space: ModelSpace, values: np.ndarray) -> np.ndarray:
    return gamma2(space, ScalarField(values, space)).values


def quadratic_decay_profile(T: float):
    """The canonical pair a(t) = (1 - t/T)^2, a'(t) = -2(1 - t/T)/T."""

    def a(t: float) -> float:
        return (1.0 - t / T) ** 2

    def a_prime(t: float) -> float:
        return -2.0 * (1.0 - t / T) / T

    return a, a_prime


def gamma_for_profile(a: Callable, a_prime: Callable, cd: CurvatureDimension):
    """gamma(t) = (N/4) (a'(t)/a(t) + 2K): zeroes the Phi coefficient bracket."""

    def gamma(t: float) -> float:
        return 0.25 * cd.N * (a_prime(t) / a(t) + 2.0 * cd.K)

    return gamma


def prop2_check(
    solver: SpectralSolver,
    f: ScalarField,
    T: float,
    a: Callable[[float], float],
    a_prime: Callable[[float], float],
    gamma_profile: Callable[[float], float],
    phi_test: ScalarField,
    time_grid: Sequence[float],
    cd: CurvatureDimension,
    dt: float = 1e-3,
    tolerance: float = 1e-4,
) -> InequalityReport:
    """Differential inequality for the weighted Phi pairing: at each grid time,

        d/dt int Phi(t) a(t) phi dm
            >= int [ (a' - 4 a g / N + 2 K a) Phi(t)
                     + (4 a g / N) L H_T f - (2 a g^2 / N) H_T f ] phi dm

    with g = gamma_profile(t); the left side by central difference.  The
    margin per time is LHS - RHS and the report asserts the minimum.
    """
    _same_space(solver.space, f, phi_test)
    _require_phi_floor(f, "prop2_check")
    if np.any(phi_test.values < 0):
        raise PreconditionError("prop2_check needs a nonnegative test field")
    space = solver.space
    u_T = heat_apply(solver, f, T).values
    lap_u_T = _laplacian_values(space, u_T)
    m = space.measure
    margins = []
    for t in time_grid:
        if not (0.0 < t - dt and t + dt < T):
            raise DomainError(f"time grid entry {t} +- {dt} leaves (0, {T})")
        g_plus = a(t + dt) * _phi_pairing(solver, f, T, t + dt, phi_test)
        g_minus = a(t - dt) * _phi_pairing(solver, f, T, t - dt, phi_test)
        lhs = (g_plus - g_minus) / (2.0 * dt)
        at, apt, gt = a(t), a_prime(t), gamma_profile(t)
        phi_t = phi(solver, f, T, t).values
        bracket = (apt - 4.0 * at * gt / cd.N + 2.0 * cd.K * at) * phi_t
        bracket = bracket + (4.0 * at * gt / cd.N) * lap_u_T
        bracket = bracket - (2.0 * at * gt * gt / cd.N) * u_T
        rhs = float((bracket * phi_test.values) @ m)
        margins.append(lhs - rhs)
    margins = np.asarray(margins)
    return make_report(
        name="prop2",
        params=_base_params(space, cd, T=T, dt=dt, times=list(time_grid)),
        min_margin=float(margins.min()),
        tolerance=tolerance,
        extras={"margins_per_time": margins.tolist()},
    )


# ---------------------------------------------------------------------------
# V-profiles and the integrated pre-bound


@dataclass(frozen=True, eq=False)
class VProfile:
    """C^1 decay profile on [0, T] with V(0) = 1, V(T) = 0, V >= 0."""

    name: str
    T: float
    v: Callable[[float], float]
    v_prime: Callable[[float], float]

    def __post_init__(self):
        if self.T <= 0:
            raise InvalidProfileError(f"profile horizon must be positive, got {self.T}")
        if abs(self.v(0.0) - 1.0) > 1e-9 or abs(self.v(self.T)) > 1e-9:
            raise InvalidProfileError(
                f"profile {self.name!r} must satisfy V(0)=1 and V(T)=0, got "
                f"V(0)={self.v(0.0)!r}, V(T)={self.v(self.T)!r}"
            )
        sample = np.linspace(0.0, self.T, 65)
        if min(self.v(float(t)) for t in sample) < -1e-12:
            raise InvalidProfileError(f"profile {self.name!r} must be nonnegative on [0, T]")

    def integrals(self) -> tuple[float, float]:
        """(int_0^T V^2, int_0^T V'^2) by adaptive quadrature (abs tol 1e-10)."""
        iv2, _ = _integrate.quad(lambda t: self.v(t) ** 2, 0.0, self.T,
                                 epsabs=1e-12, epsrel=1e-12, limit=200)
        ivp2, _ = _integrate.quad(lambda t: self.v_prime(t) ** 2, 0.0, self.T,
                                  epsabs=1e-12, epsrel=1e-12, limit=200)
        return float(iv2), float(ivp2)


def v_linear(T: float) -> VProfile:
    """V(t) = 1 - t/T: minimizes int V'^2 among admissible profiles."""
    return VProfile(name="v_linear", T=T, v=lambda t: 1.0 - t / T, v_prime=lambda t: -1.0 / T)


def v_bg(T: float, K: float) -> VProfile:
    """Exponentially tilted profile

        V(t) = e^{-Kt/3} (e^{-2Kt/3} - e^{-2KT/3}) / (1 - e^{-2KT/3}),

    whose coefficients reproduce the curvature-corrected gradient bound; it
    degenerates to v_linear as K -> 0.
    """
    if K == 0.0:
        return VProfile(name="v_bg", T=T, v=lambda t: 1.0 - t / T, v_prime=lambda t: -1.0 / T)
    b = math.exp(-2.0 * K * T / 3.0)
    c = -math.expm1(-2.0 * K * T / 3.0)  # 1 - b, computed without cancellation

    def v(t: float) -> float:
        return math.exp(-K * t) * (-math.expm1(-2.0 * K * (T - t) / 3.0)) / c

    def v_prime(t: float) -> float:
        return (K / c) * (-math.exp(-K * t) + (b / 3.0) * math.exp(-K * t / 3.0))

    return VProfile(name="v_bg", T=T, v=v, v_prime=v_prime)


V_PROFILES = {"v_linear": lambda T, cd: v_linear(T), "v_bg": lambda T, cd: v_bg(T, cd.K)}


def pre_li_yau_coefficients(profile: VProfile, cd: CurvatureDimension) -> tuple[float, float]:
    """Coefficient pair of the integrated pre-bound for a given profile:

        (1 - 2K int V^2,  (N/2)(int V'^2 - K + K^2 int V^2)).
    """
    iv2, ivp2 = profile.integrals()
    return 1.0 - 2.0 * cd.K * iv2, 0.5 * cd.N * (ivp2 - cd.K + cd.K * cd.K * iv2)


def pre_li_yau_check(
    solver: SpectralSolver,
    f: ScalarField,
    T: float,
    profile: VProfile,
    cd: CurvatureDimension,
    tolerance: float = 1e-5,
) -> InequalityReport:
    """Integrated pre-bound in profile form:

        Gamma(log H_T f) + (2K int V^2 - 1) (L H_T f)/(H_T f)
            <= (N/2)(int V'^2 - K + K^2 int V^2).

    With v_linear at K = 0 the coefficients reduce to the li_yau_check bound
    (int V'^2 = 1/T); with v_bg they reproduce baudoin_garofalo_check.
    """
    _same_space(solver.space, f)
    _require_phi_floor(f, "pre_li_yau_check")
    if T <= 0:
        raise DomainError(f"pre_li_yau_check needs T > 0, got {T}")
    if abs(profile.T - T) > 1e-12:
        raise InvalidProfileError(
            f"profile horizon {profile.T} does not match check horizon {T}"
        )
    space = solver.space
    coef_delta, rhs_const = pre_li_yau_coefficients(profile, cd)
    u = heat_apply(solver, _regularized(f), T)
    gamma_log = carre_du_champ(space, log_field(u)).values
    lap_u = _laplacian_values(space, u.values)
    margin = rhs_const - gamma_log + coef_delta * lap_u / u.values
    return make_report(
        name="pre-li-yau",
        params=_base_params(space, cd, T=T, profile=profile.name),
        min_margin=_interior_min(space, margin),
        tolerance=tolerance,
        margin_field=ScalarField(margin, space),
        notes=_boundary_note(space, margin),
        extras={"laplacian_coefficient": coef_delta, "rhs_constant": rhs_const},
    )


# ---------------------------------------------------------------------------
# heat-kernel corollary


def kernel_corollary_suite(
    solver: SpectralSolver,
    x: int,
    cd: CurvatureDimension,
    times: Sequence[float],
    tolerance: float = 1e-5,
) -> list[InequalityReport]:
    """Run the kernel versions of the four estimates with f = warm heat kernel.

    The discrete Dirac mass is warmed up for t0 = 5 h^2 so its spectral
    truncation is resolvable; the semigroup law makes the remaining flow
    exact.  Items: (i) the gradient bound at K = 0, (ii) the Laplacian bound
    at K > 0, (iii) the curvature-corrected gradient bound, (iv) the two-time
    comparison scanned over a coarse node grid with s = t/2.
    """
    space = solver.space
    t0 = 5.0 * space.spacing**2
    floor = time_resolution_floor(space) + t0
    for t in times:
        if t <= floor:
            raise DomainError(f"kernel corollary needs times > {floor:g}, got {t}")
        if t / 2.0 <= t0:
            raise DomainError(f"kernel corollary item (iv) needs t/2 > warm-up {t0:g}")
    kernel = heat_kernel(solver, x, t0)
    # Spectral truncation can leave ~1e-9 negative dust at the warm-up time.
    f = ScalarField(np.clip(kernel.values, 0.0, None), space)
    reports: list[InequalityReport] = []
    scan_nodes = [int(i) for i in np.linspace(0, space.n_nodes - 1, 8, dtype=int)]
    for t in times:
        T = t - t0
        if cd.K == 0:
            rep = li_yau_check(solver, f, T, cd.N, tolerance=tolerance)
            reports.append(amend(rep, "kernel-li-yau-i", base=x, t=t))
        if cd.K > 0:
            rep = bakry_qian_check(solver, f, T, cd, tolerance=tolerance)
            reports.append(amend(rep, "kernel-bakry-qian-ii", base=x, t=t))
        rep = baudoin_garofalo_check(solver, f, T, cd, tolerance=tolerance)
        reports.append(amend(rep, "kernel-baudoin-garofalo-iii", base=x, t=t))
        rep = harnack_scan(
            solver, f, scan_nodes, scan_nodes, [(t / 2.0 - t0, T)], cd, tolerance=tolerance
        )
        reports.append(amend(rep, "kernel-harnack-iv", base=x, t=t))
    return reports


def _boundary_note(space: ModelSpace, margin: np.ndarray) -> str:
    bmin = _boundary_min(space, margin)
    if bmin is None:
        return ""
    return f"boundary rows reported, not asserted: min {bmin:.6e}"
