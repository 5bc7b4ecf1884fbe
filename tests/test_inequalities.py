import math

import numpy as np
import pytest

from heatlab import (
    CurvatureDimension,
    bakry_qian_check,
    baudoin_garofalo_check,
    be_flow_check,
    bg_bound,
    build_interval,
    build_solver,
    carre_du_champ,
    eks_check,
    field,
    harnack_check,
    harnack_scan,
    heat_apply,
    kernel_corollary_suite,
    li_yau_check,
    phi,
    phi_derivative_check,
    pre_li_yau_check,
    prop2_check,
    v_bg,
    v_linear,
)
from heatlab.calculus import log_field
from heatlab.errors import (
    DomainError,
    InvalidParameterError,
    InvalidProfileError,
    PreconditionError,
)
from heatlab.inequalities import (
    VProfile,
    _field_report,
    eks_coefficient,
    gamma_for_profile,
    harnack_prefactor,
    li_yau_oracle_margin,
    oracle_error_check,
    pre_li_yau_coefficients,
    quadratic_decay_profile,
)

from conftest import smooth_random_values

TWO_PI = 2 * math.pi
CD_FLAT = CurvatureDimension(0.0, 1.0)
CD_SPHERE = CurvatureDimension(1.0, 2.0)
CD_HYPERBOLIC = CurvatureDimension(-1.0, 2.0)


# -- the parabolic gradient bound ---------------------------------------------


def test_li_yau_constant_field(circle200, solvers):
    c, N, T = 3.0, 1.0, 0.5
    rep = li_yau_check(solvers["circle200"], field(circle200, np.full(200, c)), T, N)
    expected = N / (2 * T) * c * c
    assert rep.verdict == "pass"
    assert np.allclose(rep.margin_field.values, expected, atol=1e-9)


def test_li_yau_gaussian_oracle_equality_case():
    for N in (1.0, 2.0, 3.5):
        for t in (0.1, 0.5, 2.0):
            for r in (0.0, 0.7, 2.0):
                assert abs(li_yau_oracle_margin(N, t, r)) <= 1e-12


def test_li_yau_flat_interval_smooth_fields(interval200, solvers):
    rng = np.random.default_rng(31)
    solver = solvers["interval200"]
    for _ in range(3):
        f = field(interval200, smooth_random_values(interval200, rng))
        rep = li_yau_check(solver, f, 0.5, 1.0)
        assert rep.min_margin >= -1e-6
        assert rep.verdict == "pass"
        assert rep.extras["log_form_min_margin"] >= -1e-6


def test_li_yau_rejects_negative_field(circle200, solvers):
    with pytest.raises(PreconditionError):
        li_yau_check(solvers["circle200"], field(circle200, -np.ones(200)), 0.5, 1.0)
    with pytest.raises(DomainError):
        li_yau_check(solvers["circle200"], field(circle200, np.ones(200)), 0.0, 1.0)


def test_li_yau_bound_constant_decreases_in_T(circle200, solvers):
    solver = solvers["circle200"]
    f = field(circle200, 2.0 + np.cos(circle200.nodes))
    constants = [
        li_yau_check(solver, f, T, 1.0).extras["bound_constant"]
        for T in (0.25, 0.5, 1.0, 2.0)
    ]
    assert all(a > b for a, b in zip(constants, constants[1:]))


def test_li_yau_margin_scales_quadratically(circle200, solvers):
    solver = solvers["circle200"]
    f_values = 2.0 + np.cos(circle200.nodes)
    rep1 = li_yau_check(solver, field(circle200, f_values), 0.5, 1.0)
    rep3 = li_yau_check(solver, field(circle200, 3.0 * f_values), 0.5, 1.0)
    assert rep3.verdict == rep1.verdict
    assert np.allclose(rep3.margin_field.values, 9.0 * rep1.margin_field.values, rtol=1e-6)


# -- the Laplacian bound under positive curvature ------------------------------


def test_bakry_qian_constant_field(sphere400, solvers):
    c = 2.0
    rep = bakry_qian_check(solvers["sphere400"], field(sphere400, np.full(400, c)), 2.5, CD_SPHERE)
    assert rep.verdict == "pass"
    assert rep.extras["bound_coefficient"] == pytest.approx(0.5)  # N K / 4 at (1, 2)
    assert np.allclose(rep.margin_field.values, 0.5 * c, atol=1e-9)


def test_bakry_qian_sphere_smooth_field(sphere400, solvers):
    rng = np.random.default_rng(13)
    f = field(sphere400, smooth_random_values(sphere400, rng))
    rep = bakry_qian_check(solvers["sphere400"], f, 2.5, CD_SPHERE)
    assert rep.verdict == "pass"
    assert rep.min_margin >= -1e-6


def test_bakry_qian_small_time_not_asserted(sphere400, solvers):
    f = field(sphere400, 1.5 + np.cos(sphere400.nodes))
    rep = bakry_qian_check(solvers["sphere400"], f, 1.0, CD_SPHERE)
    assert rep.verdict == "vacuous-pass"
    assert "outside proof regime" in rep.notes
    assert math.isfinite(rep.min_margin)


def test_bakry_qian_rejects_nonpositive_curvature(circle200, solvers):
    with pytest.raises(InvalidParameterError):
        bakry_qian_check(solvers["circle200"], field(circle200, np.ones(200)), 1.0, CD_FLAT)


# -- coefficient algebra -------------------------------------------------------


def test_bg_bound_series_limit():
    c1, c2 = bg_bound(1.0, CurvatureDimension(1e-9, 3.0))
    assert c2 == pytest.approx(1.5, abs=1e-6)
    assert c1 == pytest.approx(1.0, abs=1e-9)


def test_bg_bound_zero_curvature_is_li_yau():
    assert bg_bound(0.5, CurvatureDimension(0.0, 1.0)) == pytest.approx((1.0, 1.0))


def test_bg_bound_structure_identity():
    K, N, T = 2.0, 4.0, 1.0
    c1, c2 = bg_bound(T, CurvatureDimension(K, N))
    lhs = c2 * (1.0 - math.exp(-2.0 * K * T / 3.0))
    rhs = (N * K / 3.0) * math.exp(-4.0 * K * T / 3.0)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert c1 == pytest.approx(math.exp(-2.0 * K * T / 3.0), rel=1e-15)


def test_limit_coherence_for_small_curvature():
    # The leading deviation of c2 is |K| (N/2T), so stay strictly inside the
    # |K| <= 1e-6 envelope where all four limits match within 1e-6.
    for K in (9.9e-7, -9.9e-7, 1e-8, -1e-8):
        cd = CurvatureDimension(K, 2.0)
        c1, c2 = bg_bound(1.0, cd)
        assert abs(c1 - 1.0) <= 1e-6          # -> 1
        assert abs(c2 - 1.0) <= 1e-6          # -> N/(2T)
        assert abs(harnack_prefactor(0.5, 1.0, cd) - 0.5) <= 1e-6  # -> (s/t)^{N/2}
        assert abs(eks_coefficient(1.0, cd) - 1.0) <= 1e-6         # -> 2t/N


# -- the curvature-corrected gradient bound ------------------------------------


def test_baudoin_garofalo_constant_field(sphere400, solvers):
    c, T = 2.0, 1.0
    rep = baudoin_garofalo_check(solvers["sphere400"], field(sphere400, np.full(400, c)), T, CD_SPHERE)
    _, c2 = bg_bound(T, CD_SPHERE)
    assert rep.verdict == "pass"
    assert np.allclose(rep.margin_field.values, c2 * c * c, atol=1e-9)


def test_baudoin_garofalo_reduces_to_li_yau_at_zero_curvature(circle200, solvers):
    solver = solvers["circle200"]
    f = field(circle200, 2.0 + np.cos(circle200.nodes))
    rep_bg = baudoin_garofalo_check(solver, f, 0.5, CurvatureDimension(0.0, 1.0))
    rep_ly = li_yau_check(solver, f, 0.5, 1.0)
    assert rep_bg.verdict == rep_ly.verdict
    assert np.max(np.abs(rep_bg.margin_field.values - rep_ly.margin_field.values)) <= 1e-10


def test_baudoin_garofalo_on_curved_models(sphere400, hyperbolic400, solvers):
    rng = np.random.default_rng(41)
    f = field(sphere400, smooth_random_values(sphere400, rng))
    rep = baudoin_garofalo_check(solvers["sphere400"], f, 1.0, CD_SPHERE)
    assert rep.min_margin >= -1e-5

    g = field(hyperbolic400, smooth_random_values(hyperbolic400, rng))
    rep = baudoin_garofalo_check(solvers["hyperbolic400"], g, 1.0, CD_HYPERBOLIC)
    assert rep.min_margin >= -1e-5


# -- two-time comparison --------------------------------------------------------


def test_harnack_constant_field(circle200, solvers):
    rep = harnack_check(
        solvers["circle200"], field(circle200, np.full(200, 2.0)), 10, 100, 0.5, 1.0, CD_FLAT
    )
    assert rep.verdict == "pass"
    assert rep.min_margin >= 0.0


def test_harnack_prefactor_limit_case():
    assert harnack_prefactor(0.5, 1.0, CurvatureDimension(0.0, 1.0)) == pytest.approx(
        math.sqrt(0.5), abs=1e-9
    )


def test_harnack_scan_flat_circle(circle200, solvers):
    solver = solvers["circle200"]
    f = field(circle200, 2.0 + np.cos(circle200.nodes) + 0.3 * np.sin(3 * circle200.nodes))
    nodes = [0, 50, 100, 150]
    rep = harnack_scan(
        solver, f, nodes, nodes, [(0.25, 0.75), (0.25, 1.0), (0.5, 0.75), (0.5, 1.0)], CD_FLAT
    )
    assert rep.extras["instances"] == 64
    assert rep.min_margin >= -1e-6
    assert rep.verdict == "pass"


@pytest.mark.parametrize("xs, ys, pairs", [
    ([], [0, 50], [(0.25, 0.75)]),
    ([0, 50], [], [(0.25, 0.75)]),
    ([0, 50], [0, 50], []),
])
def test_harnack_scan_rejects_empty_grids(circle200, solvers, xs, ys, pairs):
    f = field(circle200, np.ones(200))
    with pytest.raises(InvalidParameterError):
        harnack_scan(solvers["circle200"], f, xs, ys, pairs, CD_FLAT)


def test_harnack_rejects_bad_times(circle200, solvers):
    f = field(circle200, np.ones(200))
    with pytest.raises(DomainError):
        harnack_check(solvers["circle200"], f, 0, 1, 1.0, 0.5, CD_FLAT)
    with pytest.raises(DomainError):
        harnack_check(solvers["circle200"], f, 0, 1, 0.0, 0.5, CD_FLAT)


@pytest.mark.parametrize("x, y", [(-1, 5), (5, -1), (40, 5), (5, 400)])
def test_harnack_rejects_out_of_range_nodes(x, y):
    # A negative index must not wrap to node n-1, and x >= n must not escape as IndexError.
    space = build_interval(40, 1.0)
    with pytest.raises(DomainError):
        harnack_check(build_solver(space), field(space, np.ones(40)), x, y, 0.5, 1.0, CD_FLAT)


@pytest.mark.parametrize("grid", ["flat_circle", "kernel_corollary"])
@pytest.mark.parametrize("name, cd", [
    ("circle200", CD_FLAT), ("sphere400", CD_SPHERE), ("hyperbolic400", CD_HYPERBOLIC),
])
def test_harnack_scan_is_the_minimum_of_a_harnack_check_loop(name, cd, grid, solvers):
    space = solvers[name].space
    if grid == "flat_circle":  # the shipped flat_circle scan's grid
        nodes, pairs = [0, 50, 100, 150], [(0.25, 0.75), (0.5, 1.0)]
    else:  # kernel_corollary_suite's 8 nodes, with its (t/2 - t0, t - t0) pairs
        t0 = 5.0 * space.spacing**2
        nodes = [int(i) for i in np.linspace(0, space.n_nodes - 1, 8, dtype=int)]
        pairs = [(t / 2.0 - t0, t - t0) for t in (0.5, 2.5)]
    f = field(space, smooth_random_values(space, np.random.default_rng(17)))
    rep = harnack_scan(build_solver(space), f, nodes, nodes, pairs, cd)
    solver = build_solver(space)
    worst, at = math.inf, None
    for x in nodes:
        for y in nodes:
            for s, t in pairs:
                check = harnack_check(solver, f, x, y, s, t, cd)
                if check.min_margin < worst:
                    worst, at = check.min_margin, check.params
    assert rep.min_margin.hex() == worst.hex()
    assert rep.notes == f"worst instance: x={at['x']}, y={at['y']}, s={at['s']}, t={at['t']}"
    assert rep.extras["instances"] == len(nodes) ** 2 * len(pairs)


@pytest.mark.parametrize("xs, ys, pairs", [
    ([0, 50, 200], [0, 50], [(0.25, 0.75)]),  # x past the last node
    ([0, 50], [0, -1], [(0.25, 0.75)]),  # a negative y must not wrap to node n-1
    ([0, 50], [0, 50], [(0.25, 0.75), (1.0, 0.5)]),  # s > t
    ([0, 50], [0, 50], [(0.25, 0.75), (0.0, 0.5)]),  # s = 0
])
def test_harnack_scan_rejects_a_bad_instance_anywhere(circle200, solvers, xs, ys, pairs):
    solver, f = solvers["circle200"], field(circle200, np.ones(200))
    with pytest.raises(DomainError):
        harnack_check(solver, f, xs[-1], ys[-1], *pairs[-1], CD_FLAT)
    with pytest.raises(DomainError):
        harnack_scan(solver, f, xs, ys, pairs, CD_FLAT)


# -- semigroup gradient bounds ---------------------------------------------------


def _circle_mode_eigenvalue(space, k: int) -> float:
    return -(2.0 / space.spacing**2) * (1.0 - math.cos(k * space.spacing))


def test_be_flow_constant_field(circle200, solvers):
    rep = be_flow_check(solvers["circle200"], field(circle200, np.full(200, 1.0)), 0.5, CD_FLAT)
    assert rep.verdict == "pass"
    assert np.allclose(rep.margin_field.values, 0.0, atol=1e-13)


def test_be_flow_fourier_oracle_on_circle(circle200, solvers):
    """On the flat circle the grid cosine is an exact eigenvector, so the
    margin field has a closed form in the discrete Fourier data."""
    solver = solvers["circle200"]
    t = 0.5
    x = circle200.nodes
    h = circle200.spacing
    f = field(circle200, np.cos(x))
    rep = be_flow_check(solver, f, t, CD_FLAT)

    lam1 = _circle_mode_eigenvalue(circle200, 1)
    lam2 = _circle_mode_eigenvalue(circle200, 2)
    kappa = math.sin(h / 2.0) / (h / 2.0)
    gamma_f = kappa**2 * (0.5 - 0.5 * math.cos(h) * np.cos(2 * x))
    flowed = kappa**2 * (0.5 - 0.5 * math.cos(h) * math.exp(lam2 * t) * np.cos(2 * x))
    expected = flowed - math.exp(2 * lam1 * t) * gamma_f
    assert np.max(np.abs(rep.margin_field.values - expected)) <= 1e-10
    assert rep.min_margin >= -1e-12

    # Continuum comparison: Gamma(H_t f) = e^{-2t} sin^2 x up to O(h^2).
    gamma_flowed = carre_du_champ(circle200, heat_apply(solver, f, t)).values
    assert np.max(np.abs(gamma_flowed - math.exp(-2 * t) * np.sin(x) ** 2)) <= 5 * h**2


def test_be_flow_on_curved_models(sphere200, solvers):
    rng = np.random.default_rng(3)
    f = field(sphere200, smooth_random_values(sphere200, rng))
    rep = be_flow_check(solvers["sphere200"], f, 0.5, CD_SPHERE)
    assert rep.min_margin >= -1.0 * sphere200.spacing**2


def test_eks_coefficient_zero_curvature_limit():
    assert eks_coefficient(1.0, CurvatureDimension(0.0, 2.0)) == pytest.approx(1.0, abs=1e-15)


def test_eks_constant_field(circle200, solvers):
    rep = eks_check(solvers["circle200"], field(circle200, np.full(200, 2.0)), 1.0, CD_FLAT)
    assert rep.verdict == "pass"


def test_eks_fourier_oracle_on_circle(circle200, solvers):
    solver = solvers["circle200"]
    t, N = 0.5, 1.0
    x = circle200.nodes
    h = circle200.spacing
    f = field(circle200, np.cos(x))
    rep = eks_check(solver, f, t, CD_FLAT)

    lam1 = _circle_mode_eigenvalue(circle200, 1)
    lam2 = _circle_mode_eigenvalue(circle200, 2)
    kappa = math.sin(h / 2.0) / (h / 2.0)
    gamma_f = kappa**2 * (0.5 - 0.5 * math.cos(h) * np.cos(2 * x))
    flowed = kappa**2 * (0.5 - 0.5 * math.cos(h) * math.exp(lam2 * t) * np.cos(2 * x))
    lap_flowed_sq = (lam1 * math.exp(lam1 * t)) ** 2 * np.cos(x) ** 2
    expected = flowed - math.exp(2 * lam1 * t) * gamma_f - (2 * t / N) * lap_flowed_sq
    assert np.max(np.abs(rep.margin_field.values - expected)) <= 1e-10
    assert rep.min_margin >= -2.0 * h**2


def test_eks_on_all_models(sphere200, hyperbolic200, solvers):
    rng = np.random.default_rng(19)
    for name, cd in [("sphere200", CD_SPHERE), ("hyperbolic200", CD_HYPERBOLIC)]:
        space = solvers[name].space
        f = field(space, smooth_random_values(space, rng))
        rep = eks_check(solvers[name], f, 0.5, cd)
        assert rep.min_margin >= -1.0 * space.spacing**2


# -- Phi machinery ----------------------------------------------------------------


def test_phi_constant_field(circle200, solvers):
    out = phi(solvers["circle200"], field(circle200, np.full(200, 2.0)), 1.0, 0.5)
    assert np.max(np.abs(out.values)) <= 1e-14


def test_phi_at_zero_matches_unflowed_observable(circle200, solvers):
    solver = solvers["circle200"]
    f = field(circle200, 2.0 + np.cos(circle200.nodes))
    T = 1.0
    lhs = phi(solver, f, T, 0.0).values
    u = heat_apply(solver, f, T)
    rhs = u.values * carre_du_champ(circle200, log_field(u)).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_phi_nonnegative(circle200, solvers):
    rng = np.random.default_rng(25)
    f = field(circle200, smooth_random_values(circle200, rng, floor=0.5))
    out = phi(solvers["circle200"], f, 1.0, 0.5)
    assert out.values.min() >= -1e-12


def test_phi_preconditions(circle200, solvers):
    solver = solvers["circle200"]
    with pytest.raises(PreconditionError):
        phi(solver, field(circle200, np.zeros(200)), 1.0, 0.5)
    tiny_floor = np.full(200, 1.0)
    tiny_floor[3] = 1e-9  # below the 1e-6 * sup|f| floor
    with pytest.raises(PreconditionError):
        phi(solver, field(circle200, tiny_floor), 1.0, 0.5)
    with pytest.raises(DomainError):
        phi(solver, field(circle200, np.ones(200)), 1.0, 1.0)


def test_phi_derivative_identity_constant_field(circle200, solvers):
    solver = solvers["circle200"]
    ones = field(circle200, np.ones(200))
    defect = phi_derivative_check(solver, field(circle200, np.full(200, 3.0)), 1.0, 0.5, ones, 1e-3)
    assert defect <= 1e-14


def test_phi_derivative_identity_on_circle(circle200, solvers):
    solver = solvers["circle200"]
    f = field(circle200, 2.0 + np.cos(circle200.nodes))
    ones = field(circle200, np.ones(200))
    defect = phi_derivative_check(solver, f, 1.0, 0.5, ones, 1e-3)
    assert defect <= 1e-4


def test_phi_derivative_second_order_in_dt(circle200, solvers):
    solver = solvers["circle200"]
    f = field(circle200, 2.0 + np.cos(circle200.nodes))
    ones = field(circle200, np.ones(200))
    floor = phi_derivative_check(solver, f, 1.0, 0.5, ones, 1e-3)
    d1 = phi_derivative_check(solver, f, 1.0, 0.5, ones, 0.1)
    d2 = phi_derivative_check(solver, f, 1.0, 0.5, ones, 0.05)
    assert d1 / d2 >= 3.5
    assert d2 > 10 * floor  # still above the h^2 floor where the ratio is clean


def test_phi_derivative_stencil_domain_error(circle200, solvers):
    solver = solvers["circle200"]
    f = field(circle200, np.full(200, 1.0))
    ones = field(circle200, np.ones(200))
    with pytest.raises(DomainError):
        phi_derivative_check(solver, f, 1.0, 0.9995, ones, 1e-3)


# -- the differential inequality and its integrated form ---------------------------


def test_prop2_canonical_profile_bracket_vanishes():
    T = 1.0
    a, a_prime = quadratic_decay_profile(T)
    gamma = gamma_for_profile(a, a_prime, CD_SPHERE)
    for t in (0.1, 0.4, 0.8):
        bracket = a_prime(t) - 4.0 * a(t) * gamma(t) / CD_SPHERE.N + 2.0 * CD_SPHERE.K * a(t)
        assert abs(bracket) <= 1e-12


def test_prop2_flat_circle(circle200, solvers):
    solver = solvers["circle200"]
    f = field(circle200, 2.0 + np.cos(circle200.nodes))
    ones = field(circle200, np.ones(200))
    T = 1.0
    a, a_prime = quadratic_decay_profile(T)
    gamma = gamma_for_profile(a, a_prime, CD_FLAT)
    rep = prop2_check(
        solver, f, T, a, a_prime, gamma, ones, [0.2, 0.4, 0.6, 0.8], CD_FLAT,
        dt=1e-3, tolerance=1e-4,
    )
    assert rep.verdict == "pass"


def test_prop2_zero_gamma_reduces_to_monotonicity(circle200, solvers):
    solver = solvers["circle200"]
    f = field(circle200, 2.0 + 0.5 * np.cos(circle200.nodes))
    ones = field(circle200, np.ones(200))
    rep = prop2_check(
        solver, f, 1.0,
        lambda t: 1.0, lambda t: 0.0, lambda t: 0.0,
        ones, [0.3, 0.6], CD_FLAT, dt=1e-3, tolerance=1e-4,
    )
    assert rep.verdict == "pass"


def test_v_profiles_validate_endpoints():
    prof = v_linear(2.0)
    assert prof.v(0.0) == 1.0
    assert prof.v(2.0) == 0.0
    with pytest.raises(InvalidProfileError):
        VProfile(name="bad", T=1.0, v=lambda t: 0.5, v_prime=lambda t: 0.0, iv2=0.25, ivp2=0.0)


def test_v_bg_profile_matches_bound_coefficients():
    cd = CurvatureDimension(1.0, 2.0)
    T = 1.0
    coef_delta, rhs_const = pre_li_yau_coefficients(v_bg(T, cd.K), cd)
    c1, c2 = bg_bound(T, cd)
    assert coef_delta == pytest.approx(c1, rel=1e-10)
    assert rhs_const == pytest.approx(c2, rel=1e-10)


def test_v_linear_coefficients_reduce_to_li_yau():
    cd = CurvatureDimension(0.0, 1.0)
    T = 0.5
    coef_delta, rhs_const = pre_li_yau_coefficients(v_linear(T), cd)
    assert coef_delta == pytest.approx(1.0, abs=1e-12)
    assert rhs_const == pytest.approx(1.0 / (2.0 * T) * cd.N, rel=1e-10)


def test_v_bg_degenerates_to_v_linear():
    T = 1.0
    cd = CurvatureDimension(1e-9, 2.0)
    bg_coeffs = pre_li_yau_coefficients(v_bg(T, cd.K), cd)
    lin_coeffs = pre_li_yau_coefficients(v_linear(T), cd)
    assert bg_coeffs[0] == pytest.approx(lin_coeffs[0], abs=1e-8)
    assert bg_coeffs[1] == pytest.approx(lin_coeffs[1], abs=1e-8)


def test_pre_li_yau_matches_li_yau_verdicts(circle200, interval200, solvers):
    # Passing instances on the flat models.
    for name, space in [("circle200", circle200), ("interval200", interval200)]:
        solver = solvers[name]
        rng = np.random.default_rng(37)
        for _ in range(3):
            f = field(space, smooth_random_values(space, rng, floor=0.5))
            T = 0.5
            rep_ly = li_yau_check(solver, f, T, 1.0)
            rep_ply = pre_li_yau_check(solver, f, T, v_linear(T), CD_FLAT)
            assert rep_ly.verdict == "pass"
            assert rep_ply.verdict == rep_ly.verdict


def test_pre_li_yau_matches_li_yau_on_genuine_failures():
    # The flat-space bound fails on a negatively curved model; both
    # formulations must agree on the failure.
    from heatlab import build_hyperbolic_model, build_solver

    space = build_hyperbolic_model(300, 2.0, 3.0)
    solver = build_solver(space)
    f = field(space, 0.01 + np.exp(-(((space.nodes - 1.5) / 0.3) ** 2)))
    for T in (0.1, 0.2, 0.4):
        rep_ly = li_yau_check(solver, f, T, 1.0)
        rep_ply = pre_li_yau_check(solver, f, T, v_linear(T), CD_FLAT)
        assert rep_ly.verdict == "fail"
        assert rep_ply.verdict == rep_ly.verdict


def test_pre_li_yau_sphere_bg_profile(sphere400, solvers):
    f = field(sphere400, 1.5 + np.cos(sphere400.nodes))
    rep = pre_li_yau_check(solvers["sphere400"], f, 1.0, v_bg(1.0, 1.0), CD_SPHERE)
    assert rep.min_margin >= -1e-5
    assert rep.verdict == "pass"


def test_pre_li_yau_rejects_horizon_mismatch(circle200, solvers):
    f = field(circle200, np.full(200, 1.0))
    with pytest.raises(InvalidProfileError):
        pre_li_yau_check(solvers["circle200"], f, 0.5, v_linear(1.0), CD_FLAT)


# -- kernel corollary -----------------------------------------------------------


def test_kernel_corollary_flat_circle(circle200, solvers):
    reports = kernel_corollary_suite(solvers["circle200"], 40, CD_FLAT, [0.5])
    names = {r.name for r in reports}
    assert names == {"kernel-li-yau-i", "kernel-baudoin-garofalo-iii", "kernel-harnack-iv"}
    for r in reports:
        assert r.verdict == "pass", (r.name, r.min_margin)


def test_kernel_corollary_sphere(sphere400, solvers):
    reports = kernel_corollary_suite(solvers["sphere400"], 200, CD_SPHERE, [2.5])
    names = {r.name for r in reports}
    assert names == {
        "kernel-bakry-qian-ii",
        "kernel-baudoin-garofalo-iii",
        "kernel-harnack-iv",
    }
    for r in reports:
        assert r.verdict in ("pass", "vacuous-pass"), (r.name, r.min_margin)


def test_kernel_corollary_rejects_unresolvable_times(circle200, solvers):
    with pytest.raises(DomainError):
        kernel_corollary_suite(solvers["circle200"], 0, CD_FLAT, [1e-6])


def test_kernel_corollary_rejects_empty_times(circle200, solvers):
    with pytest.raises(InvalidParameterError):
        kernel_corollary_suite(solvers["circle200"], 0, CD_FLAT, [])


# -- report helpers -------------------------------------------------------------


def test_field_report_appends_boundary_note(interval200):
    margin = np.linspace(-1.0, 1.0, interval200.n_nodes)
    rep = _field_report(interval200, "demo", {}, margin, 1e-6, notes="regime")
    assert rep.min_margin == margin[2]
    assert rep.notes == f"regime; boundary rows reported, not asserted: min {-1.0:.6e}"
    assert _field_report(interval200, "demo", {}, margin, 1e-6).notes.startswith("boundary")


def test_field_report_on_circle_has_no_boundary_note(circle200):
    margin = np.cos(circle200.nodes)
    rep = _field_report(circle200, "demo", {}, margin, 1e-6, notes="regime", vacuous=True)
    assert (rep.notes, rep.verdict, rep.min_margin) == ("regime", "vacuous-pass", margin.min())


def test_oracle_error_check_rejects_unknown_operator(circle200):
    with pytest.raises(InvalidParameterError):
        oracle_error_check(circle200, "divergence", 0.1)
