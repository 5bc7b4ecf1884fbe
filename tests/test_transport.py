import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatlab import (
    CurvatureDimension,
    build_circle,
    build_interval,
    build_solver,
    build_sphere_model,
    cd_star_check,
    compression_bound,
    displacement_interpolation,
    field,
    harnack_check,
    harnack_transport_check,
    measure_from_density,
    measure_from_masses,
    plan_action,
    point_mass,
    sigma_coefficient,
    w2_lp,
    w2_quantile,
)
from heatlab.errors import DomainError, InvalidParameterError, PreconditionError
from heatlab.transport import reference_measure

TWO_PI = 2 * math.pi


def random_measure(space, rng, max_atoms=15):
    k = int(rng.integers(2, max_atoms + 1))
    idx = rng.choice(space.n_nodes, size=k, replace=False)
    masses = np.zeros(space.n_nodes)
    masses[idx] = rng.random(k)
    return measure_from_masses(space, masses)


# -- distortion coefficients -------------------------------------------------


def test_sigma_branch_table():
    # Linear branch when K theta^2 = 0.
    assert sigma_coefficient(0.3, 2.0, 0.0, 5.0) == 0.3
    assert sigma_coefficient(0.7, 0.0, 3.0, 2.0) == 0.7
    # Vacuous branch: K theta^2 >= N pi^2.
    assert sigma_coefficient(0.5, math.pi, 4.0, 2.0) == math.inf
    # Negative-curvature branch.
    assert sigma_coefficient(0.5, 1.0, -1.0, 1.0) == pytest.approx(
        math.sinh(0.5) / math.sinh(1.0), abs=1e-7
    )
    assert sigma_coefficient(0.5, 1.0, -1.0, 1.0) == pytest.approx(0.4434094, abs=1e-7)
    # Positive-curvature branch below the vacuous threshold.
    a = 1.5 * math.sqrt(2.0 / 3.0)
    assert sigma_coefficient(0.25, 1.5, 2.0, 3.0) == pytest.approx(
        math.sin(0.25 * a) / math.sin(a), rel=1e-14
    )


def test_sigma_endpoints_and_monotonicity():
    for K, N, theta in [(2.0, 3.0, 1.0), (-1.5, 2.0, 2.0), (0.0, 1.0, 1.0)]:
        assert sigma_coefficient(0.0, theta, K, N) == 0.0
        assert sigma_coefficient(1.0, theta, K, N) == pytest.approx(1.0, abs=1e-15)
        ts = np.linspace(0, 1, 21)
        vals = [sigma_coefficient(t, theta, K, N) for t in ts]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))


def test_sigma_continuity_at_zero_curvature():
    for K in (1e-6, -1e-6, 1e-8, -1e-8):
        for t in (0.25, 0.5, 0.9):
            theta = 2.0
            sigma = sigma_coefficient(t, theta, K, 4.0)
            assert abs(sigma - t) <= 1.0 * abs(K) * theta**2


def test_sigma_rejects_bad_arguments():
    with pytest.raises(InvalidParameterError):
        sigma_coefficient(-0.1, 1.0, 0.0, 2.0)
    with pytest.raises(InvalidParameterError):
        sigma_coefficient(0.5, -1.0, 0.0, 2.0)
    with pytest.raises(InvalidParameterError):
        sigma_coefficient(0.5, 1.0, 0.0, 0.5)


# -- couplings ---------------------------------------------------------------


def test_quantile_identical_measures():
    space = build_interval(30, 1.0)
    rng = np.random.default_rng(0)
    mu = random_measure(space, rng)
    plan = w2_quantile(space, mu, mu)
    assert plan.cost == 0.0
    assert np.array_equal(plan.rows, plan.cols)


def test_quantile_point_masses():
    space = build_interval(11, 1.0)
    plan = w2_quantile(space, point_mass(space, 1), point_mass(space, 8))
    assert len(plan.masses) == 1
    assert plan.cost == pytest.approx(space.distance(1, 8) ** 2, rel=1e-14)


def test_lp_two_point_example():
    space = build_interval(3, 1.0)
    mu0 = measure_from_masses(space, [0.5, 0.0, 0.5])
    mu1 = point_mass(space, 1)
    plan = w2_lp(space, mu0, mu1)
    # The only feasible plan sends each half to the middle: cost 2 * 0.5 * 0.25.
    assert plan.cost == pytest.approx(0.25, abs=1e-12)


def test_lp_refuses_oversized_instances():
    space = build_interval(500, 1.0)
    mu = reference_measure(space)
    with pytest.raises(InvalidParameterError, match="w2_quantile"):
        w2_lp(space, mu, mu)


@pytest.mark.parametrize("topology", ["interval", "circle"])
def test_quantile_matches_lp(topology):
    rng = np.random.default_rng(17)
    space = (
        build_interval(40, 2.0) if topology == "interval" else build_circle(40, TWO_PI)
    )
    for _ in range(10):
        mu0 = random_measure(space, rng)
        mu1 = random_measure(space, rng)
        pq = w2_quantile(space, mu0, mu1)
        pl = w2_lp(space, mu0, mu1)
        assert pq.cost == pytest.approx(pl.cost, abs=1e-8)
        assert pq.marginal_defect() <= 1e-12
        assert pl.marginal_defect() <= 1e-12


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_quantile_optimality_property(data):
    n = 13
    space = build_circle(n, 1.0)
    raw0 = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    raw1 = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    m0 = np.array(raw0) + 1e-9
    m1 = np.array(raw1) + 1e-9
    mu0 = measure_from_masses(space, m0)
    mu1 = measure_from_masses(space, m1)
    pq = w2_quantile(space, mu0, mu1)
    pl = w2_lp(space, mu0, mu1)
    # 1e-8 agreement: near-degenerate masses push the LP to its tolerance floor.
    assert pq.cost == pytest.approx(pl.cost, abs=1e-8)


def test_w2_triangle_inequality():
    rng = np.random.default_rng(23)
    space = build_circle(30, TWO_PI)
    for _ in range(5):
        mus = [random_measure(space, rng, max_atoms=8) for _ in range(3)]
        d01 = math.sqrt(w2_quantile(space, mus[0], mus[1]).cost)
        d12 = math.sqrt(w2_quantile(space, mus[1], mus[2]).cost)
        d02 = math.sqrt(w2_quantile(space, mus[0], mus[2]).cost)
        assert d02 <= d01 + d12 + 1e-8


# -- interpolation -----------------------------------------------------------


def test_interpolation_constant_path_for_equal_measures():
    space = build_interval(40, 1.0)
    rng = np.random.default_rng(5)
    mu = random_measure(space, rng)
    path = displacement_interpolation(space, mu, mu, (0.0, 0.3, 0.7, 1.0))
    for slice_mu in path.measures:
        assert np.max(np.abs(slice_mu.masses - mu.masses)) <= 1e-12


def test_interpolation_midpoint_of_point_masses():
    space = build_interval(11, 1.0)  # nodes at multiples of 0.1
    path = displacement_interpolation(
        space, point_mass(space, 0), point_mass(space, 10), (0.5,)
    )
    masses = path.measures[0].masses
    assert masses[5] == pytest.approx(1.0, abs=1e-12)

    # Midpoint between adjacent nodes splits half-and-half.
    path = displacement_interpolation(
        space, point_mass(space, 0), point_mass(space, 1), (0.5,)
    )
    masses = path.measures[0].masses
    assert masses[0] == pytest.approx(0.5, abs=1e-12)
    assert masses[1] == pytest.approx(0.5, abs=1e-12)


def test_interpolation_endpoints_exact():
    space = build_circle(60, TWO_PI)
    rng = np.random.default_rng(2)
    mu0, mu1 = random_measure(space, rng), random_measure(space, rng)
    path = displacement_interpolation(space, mu0, mu1, (0.0, 1.0))
    assert np.max(np.abs(path.measures[0].masses - mu0.masses)) <= 1e-12
    assert np.max(np.abs(path.measures[1].masses - mu1.masses)) <= 1e-12


def test_interpolation_constant_speed():
    space = build_interval(200, 1.0)
    mu0 = measure_from_density(space, np.exp(-(((space.nodes - 0.3) / 0.1) ** 2)))
    mu1 = measure_from_density(space, np.exp(-(((space.nodes - 0.7) / 0.15) ** 2)))
    w2 = math.sqrt(w2_quantile(space, mu0, mu1).cost)
    for t in (0.25, 0.5, 0.75):
        path = displacement_interpolation(space, mu0, mu1, (t,))
        wt = math.sqrt(w2_quantile(space, mu0, path.measures[0]).cost)
        assert abs(wt - t * w2) <= 2.0 * space.spacing


def test_interpolation_rejects_bad_times():
    space = build_interval(10, 1.0)
    mu = reference_measure(space)
    with pytest.raises(InvalidParameterError):
        displacement_interpolation(space, mu, mu, (0.0, 1.2))


# -- action and compression --------------------------------------------------


def test_plan_action_examples():
    space = build_interval(21, 1.0)
    mu = reference_measure(space)
    path = displacement_interpolation(space, mu, mu, (0.0, 1.0))
    assert plan_action(path) == 0.0

    path = displacement_interpolation(
        space, point_mass(space, 2), point_mass(space, 17), (0.0, 0.5, 1.0)
    )
    assert plan_action(path) == pytest.approx(space.distance(2, 17) ** 2, rel=1e-14)
    assert plan_action(path) == pytest.approx(path.plan.cost, abs=1e-12)


def test_compression_bound_examples():
    space = build_sphere_model(60, 2.0)
    uniform = reference_measure(space)
    path = displacement_interpolation(space, uniform, uniform, (0.0, 0.5, 1.0))
    assert compression_bound(path) == pytest.approx(1.0, abs=1e-12)

    x = 30
    delta = point_mass(space, x)
    path = displacement_interpolation(space, delta, delta, (0.0,))
    assert compression_bound(path) == pytest.approx(1.0 / space.measure[x], rel=1e-12)


def test_compression_bound_smooth_densities_recorded():
    space = build_sphere_model(200, 2.0)
    mu0 = measure_from_density(space, np.exp(-(((space.nodes - 1.2) / 0.3) ** 2)))
    mu1 = measure_from_density(space, np.exp(-(((space.nodes - 1.9) / 0.3) ** 2)))
    path = displacement_interpolation(space, mu0, mu1, tuple(np.linspace(0, 1, 9)))
    bound = compression_bound(path)
    endpoint = max(mu0.density().max(), mu1.density().max())
    # Recorded, not asserted against the comparison-theorem constant: the
    # quantile path stays within a modest multiple of the endpoint densities.
    assert bound <= 10.0 * endpoint


# -- entropy convexity -------------------------------------------------------


def test_cd_star_equal_measures_defect_vanishes():
    space = build_interval(50, 1.0)
    mu = measure_from_density(space, 1.0 + 0.3 * np.cos(np.pi * space.nodes))
    defect = cd_star_check(space, mu, mu, 0.5, CurvatureDimension(0.0, 1.0), 2.0)
    assert abs(defect) <= 1e-10


def test_cd_star_flat_interval_and_sphere():
    space = build_interval(200, 1.0)
    mu0 = measure_from_density(space, np.exp(-(((space.nodes - 0.35) / 0.12) ** 2)))
    mu1 = measure_from_density(space, np.exp(-(((space.nodes - 0.65) / 0.1) ** 2)))
    for t in (0.25, 0.5, 0.75):
        defect = cd_star_check(space, mu0, mu1, t, CurvatureDimension(0.0, 1.0), 2.0)
        assert defect >= -1.0 * space.spacing

    sphere = build_sphere_model(200, 2.0)
    mu0 = measure_from_density(sphere, np.exp(-(((sphere.nodes - 1.2) / 0.25) ** 2)))
    mu1 = measure_from_density(sphere, np.exp(-(((sphere.nodes - 1.9) / 0.3) ** 2)))
    defect = cd_star_check(sphere, mu0, mu1, 0.5, CurvatureDimension(1.0, 2.0), 2.0)
    assert defect >= -1.0 * sphere.spacing


def test_cd_star_vacuous_branch_flagged():
    # Antipodal mass on a long circle with a large curvature claim forces the
    # infinite distortion branch: nothing to check, reported as +inf.
    space = build_circle(40, 2 * TWO_PI)
    defect = cd_star_check(
        space, point_mass(space, 0), point_mass(space, 20), 0.5,
        CurvatureDimension(4.0, 1.0), 1.0,
    )
    assert math.isinf(defect)


def test_cd_star_rejects_bad_parameters():
    space = build_interval(20, 1.0)
    mu = reference_measure(space)
    with pytest.raises(InvalidParameterError):
        cd_star_check(space, mu, mu, 1.5, CurvatureDimension(0.0, 1.0), 1.0)
    with pytest.raises(InvalidParameterError):
        cd_star_check(space, mu, mu, 0.5, CurvatureDimension(0.0, 2.0), 1.0)


# -- transport-side Harnack --------------------------------------------------


def test_harnack_transport_constant_field(circle200, solvers):
    solver = solvers["circle200"]
    f = field(circle200, np.full(200, 2.0))
    rep = harnack_transport_check(
        solver, f, 10, 10, 0.5, 1.0, CurvatureDimension(0.0, 1.0), r=2 * circle200.spacing
    )
    assert rep.verdict == "pass"
    assert rep.min_margin >= 0.0


def test_harnack_transport_k_zero_log_term():
    # The curvature term of the bound reduces to (N/2) log(t/s) at K = 0.
    from heatlab.stable import expm1_ratio

    s, t, N = 0.5, 1.25, 3.0
    ratio = (t * expm1_ratio(0.0)) / (s * expm1_ratio(0.0))
    assert 0.5 * N * math.log(ratio) == pytest.approx(0.5 * N * math.log(t / s), abs=1e-14)


def test_harnack_transport_agrees_with_direct(circle200, solvers):
    solver = solvers["circle200"]
    f = field(circle200, 2.0 + np.cos(circle200.nodes) + 0.5 * np.sin(2 * circle200.nodes))
    cd = CurvatureDimension(0.0, 1.0)
    for x, y in [(30, 120), (0, 100), (50, 55)]:
        rep_t = harnack_transport_check(solver, f, x, y, 0.5, 1.0, cd, r=2 * circle200.spacing)
        rep_d = harnack_check(solver, f, x, y, 0.5, 1.0, cd)
        assert rep_t.min_margin >= -1e-6
        assert rep_t.verdict == rep_d.verdict


def test_harnack_transport_rejects_bad_arguments(circle200, solvers):
    solver = solvers["circle200"]
    f = field(circle200, np.full(200, 1.0))
    cd = CurvatureDimension(0.0, 1.0)
    with pytest.raises(DomainError):
        harnack_transport_check(solver, f, 0, 5, 1.0, 0.5, cd, r=0.1)
    with pytest.raises(InvalidParameterError):
        harnack_transport_check(solver, f, 0, 5, 0.5, 1.0, cd, r=0.0)
    with pytest.raises(PreconditionError):
        harnack_transport_check(
            solver, field(circle200, -np.ones(200)), 0, 5, 0.5, 1.0, cd, r=0.1
        )


@pytest.mark.parametrize("x, y", [(-3, 5), (5, -3), (40, 5), (5, 400)])
def test_harnack_transport_rejects_out_of_range_nodes(x, y):
    # Without the check, x = -3 or x = 40 builds a ball around a node that does not exist.
    space = build_interval(40, 1.0)
    with pytest.raises(DomainError):
        harnack_transport_check(
            build_solver(space), field(space, np.ones(40)), x, y, 0.5, 1.0,
            CurvatureDimension(0.0, 1.0), r=0.1,
        )


# -- measures ----------------------------------------------------------------


def test_measure_validation():
    space = build_interval(10, 1.0)
    with pytest.raises(InvalidParameterError):
        measure_from_masses(space, -np.ones(10))
    mu = measure_from_masses(space, np.ones(10))
    assert abs(mu.masses.sum() - 1.0) <= 1e-14
    assert np.array_equal(mu.support, np.arange(10))
