import dataclasses
import functools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from heatlab import (
    build_circle,
    build_hyperbolic_model,
    build_interval,
    build_solver,
    build_sphere_model,
    cheeger_energy,
    field,
    gaussian_kernel_oracle,
    heat_apply,
    heat_kernel,
    heat_time_derivative,
    laplacian,
)
import heatlab.cli as cli
from heatlab.calculus import _stiffness_matrix, laplacian_matrix
from heatlab.errors import DomainError, InvalidGeometryError
from heatlab.heat import (
    ResolutionWarning,
    SpectralSolver,
    _kept,
    laplacian_consistency_error,
    spectral_laplacian,
    time_resolution_floor,
)
from heatlab.inequalities import harnack_scan, kernel_corollary_suite
from heatlab.serialize import spectrum_to_csv
from heatlab.space import CurvatureDimension

from conftest import smooth_random_values

TWO_PI = 2 * math.pi


# -- solver construction -----------------------------------------------------


def test_circle_spectrum_matches_circulant_formula():
    space = build_circle(64, TWO_PI)
    solver = build_solver(space)
    h = space.spacing
    k = np.arange(64)
    analytic = -(2.0 / h**2) * (1.0 - np.cos(TWO_PI * k / 64))
    assert np.max(np.abs(np.sort(solver.eigenvalues) - np.sort(analytic))) <= 1e-10


def test_interval_constant_mode(interval200, solvers):
    solver = solvers["interval200"]
    assert solver.eigenvalues[0] == 0.0
    assert np.all(solver.eigenvalues[1:] < 0.0)
    assert np.array_equal(solver.eigenfields[:, 0], np.ones(200))


def test_sphere_second_eigenvalue(sphere200, solvers):
    # First non-constant radial mode of the round 2-sphere has eigenvalue -2.
    assert solvers["sphere200"].eigenvalues[1] == pytest.approx(-2.0, abs=1e-2)


@pytest.mark.parametrize(
    "name", ["circle200", "interval200", "sphere200", "hyperbolic200"]
)
def test_solver_type_invariants(name, solvers):
    solver = solvers[name]
    space = solver.space
    gram = solver.eigenfields.T @ (space.measure[:, None] * solver.eigenfields)
    assert np.max(np.abs(gram - np.eye(space.n_nodes))) <= 1e-12
    rng = np.random.default_rng(2)
    f = field(space, smooth_random_values(space, rng))
    assert laplacian_consistency_error(solver, f) <= 1e-10


def test_solver_is_deterministic(circle200):
    a = build_solver(circle200)
    b = build_solver(circle200)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenfields, b.eigenfields)


def _loop_assembled_stiffness(space):
    """Frozen reference: the per-edge loop assembly of S (L = diag(m)^{-1} S)
    that build_solver used for every topology before the tridiagonal path."""
    n = space.n_nodes
    cond = space.edge_weights / space.spacing
    s = np.zeros((n, n))
    for e in range(space.n_edges):
        i, j = e, (e + 1) % n
        s[i, i] -= cond[e]
        s[j, j] -= cond[e]
        s[i, j] += cond[e]
        s[j, i] += cond[e]
    return s


@pytest.mark.parametrize("space", [build_circle(200, TWO_PI), build_circle(57, 3.0)])
def test_circle_stiffness_is_bit_identical_to_loop_assembly(space):
    # laplacian_matrix, the dense oracle below, is built on this assembly.
    assert np.array_equal(_stiffness_matrix(space), _loop_assembled_stiffness(space))


def _dense_oracle(space):
    """np.linalg.eigh of the symmetrized laplacian_matrix: eigenvalues ascending,
    m-orthonormal eigenfields."""
    lap = laplacian_matrix(space)
    sqrt_m = np.sqrt(space.measure)
    sym = sqrt_m[:, None] * lap / sqrt_m[None, :]
    vals, vecs = np.linalg.eigh(0.5 * (sym + sym.T))
    return lap, vals, vecs / sqrt_m[:, None]


def _assert_modes_match(solver, lap, oracle_vals, radius):
    """The held modes against the oracle's leading ones: eigenvalues to 1e-13 x
    the spectral radius, m-weighted residual and orthonormality <= 1e-12, an
    exact constant mode."""
    m = solver.space.measure
    vals, fields = solver.eigenvalues, solver.eigenfields
    assert np.max(np.abs(vals - oracle_vals[::-1][: vals.size])) <= 1e-13 * radius
    residual = lap @ fields - fields * vals[None, :]
    assert np.sqrt(np.max(m @ residual**2)) / radius <= 1e-12
    gram = fields.T @ (m[:, None] * fields)
    assert np.max(np.abs(gram - np.eye(vals.size))) <= 1e-12
    assert vals[0] == 0.0
    assert np.array_equal(fields[:, 0], np.ones(solver.space.n_nodes))


def _assert_matches_dense_oracle(space, apply_tol):
    """build_solver against the dense oracle: its held modes, and every mode once
    it is asked for all of them (``_assert_modes_match``); heat_apply to ``apply_tol``."""
    n, m = space.n_nodes, space.measure
    lap, oracle_vals, oracle_fields = _dense_oracle(space)
    radius = float(np.max(np.abs(oracle_vals)))
    solver = build_solver(space)
    assert solver.eigenvalues.size == (n if n <= 256 else 32)
    _assert_modes_match(solver, lap, oracle_vals, radius)

    # L 1 = 0 exactly; eigh only finds the top eigenvalue to ~eps * radius,
    # which at t = 1 would shift the oracle flow by that much times sup f.
    oracle_vals = np.concatenate((oracle_vals[:-1], [0.0]))
    rng = np.random.default_rng(n)
    f = field(space, smooth_random_values(space, rng))
    for t in (1e-3, 0.1, 1.0):
        expected = oracle_fields @ (np.exp(oracle_vals * t) * (oracle_fields.T @ (m * f.values)))
        assert np.max(np.abs(heat_apply(solver, f, t).values - expected)) <= apply_tol

    solver.hold(n)
    assert solver.eigenvalues.size == n
    _assert_modes_match(solver, lap, oracle_vals, radius)


INTERVAL_MODELS = {
    "interval": lambda n: build_interval(n, 1.0),
    "sphere": lambda n: build_sphere_model(n, 2.0),
    "hyperbolic": lambda n: build_hyperbolic_model(n, 2.0, 1.0),
}
MODELS = dict(INTERVAL_MODELS, circle=lambda n: build_circle(n, TWO_PI))


@functools.cache
def _model(name, n):
    return MODELS[name](n)


@pytest.mark.parametrize("n", [50, 400, 1000])
@pytest.mark.parametrize("model", sorted(INTERVAL_MODELS))
def test_tridiagonal_solver_matches_dense_oracle(model, n):
    _assert_matches_dense_oracle(_model(model, n), apply_tol=1e-10)


@pytest.mark.parametrize("n", [50, 57, 400, 401, 1000])
def test_circle_solver_matches_dense_oracle(n):
    # The oracle's eigenvalues are only good to ~eps x the spectral radius: at
    # n = 1000 and t = 1 its flow is 1.3e-12 off an extended-precision flow of
    # the circulant, against 4e-16 for the closed form, so 1e-11 here; the
    # exactness test below holds the closed form to 1e-14.
    _assert_matches_dense_oracle(_model("circle", n), apply_tol=1e-11)


@pytest.mark.parametrize("n", [50, 57, 400, 1000, 1400])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_flows_match_dense_oracle(model, n):
    # A fresh solver per time, so that each time meets the held floor of modes
    # and the re-solve, if it needs one, on its own.
    space = _model(model, n)
    m = space.measure
    _, oracle_vals, oracle_fields = _dense_oracle(space)
    oracle_vals = np.concatenate((oracle_vals[:-1], [0.0]))
    f = field(space, smooth_random_values(space, np.random.default_rng(n + 1)))
    coef = oracle_fields.T @ (m * f.values)
    for t in (1e-3, 0.2, 1.0, 2.5):
        expected = oracle_fields @ (np.exp(oracle_vals * t) * coef)
        assert np.max(np.abs(heat_apply(build_solver(space), f, t).values - expected)) <= 1e-11


@pytest.mark.parametrize("n", [200, 1000, 1400])
def test_circle_closed_form_is_exact_to_roundoff(n):
    space = build_circle(n, TWO_PI)
    solver = build_solver(space)
    rate = space.edge_weights[0] / space.spacing / space.measure[0]
    radius = 4.0 * rate * math.sin(math.pi * (n // 2) / n) ** 2

    def stencil_defect():
        # Every eigenpair solves the circle stencil to roundoff (about 1e-15 x the
        # spectral radius); angles 2 pi j k / n taken in floats instead of from
        # j k mod n lose about eps j k, which reads 6e-13 at n = 1400.
        fields, vals = solver.eigenfields, solver.eigenvalues
        stencil = rate * (np.roll(fields, -1, axis=0) - 2.0 * fields + np.roll(fields, 1, axis=0))
        return np.max(np.abs(stencil - fields * vals))

    assert stencil_defect() <= 1e-14 * radius  # the held modes
    solver.hold(n)
    assert solver.eigenvalues.size == n
    assert np.max(np.abs(solver.eigenvalues)) == pytest.approx(radius, rel=1e-15)
    assert stencil_defect() <= 1e-14 * radius  # every mode
    # cos(2 pi k j / n) is an eigenfield with lambda_k = -4 (c/m) sin^2(pi k / n),
    # so 2 + cos flows to 2 + e^{lambda_k t} cos exactly; a dense eigh of the
    # circulant misses this by up to 6e-12 at n = 1400.
    j = np.arange(n)
    solver = build_solver(space)
    for k in (1, 3, 17):
        wave = np.cos(2 * np.pi * ((k * j) % n) / n)
        lam = -4.0 * rate * math.sin(math.pi * k / n) ** 2
        for t in (0.25, 0.5, 1.0):
            out = heat_apply(solver, field(space, 2.0 + wave), t).values
            assert np.max(np.abs(out - (2.0 + math.exp(lam * t) * wave))) <= 1e-14


@pytest.mark.parametrize("attr", ["measure", "edge_weights"])
def test_nonuniform_circle_is_rejected(attr):
    space = build_circle(60, TWO_PI)
    values = getattr(space, attr).copy()
    values[7] *= 1.0 + 1e-9
    if attr == "measure":
        values /= values.sum()
    with pytest.raises(InvalidGeometryError):
        build_solver(dataclasses.replace(space, **{attr: values}))


def test_no_builder_needs_a_dense_eigensolver(monkeypatch):
    def dense_eigh(*args, **kwargs):
        raise AssertionError("dense eigh called")

    monkeypatch.setattr(np.linalg, "eigh", dense_eigh)
    monkeypatch.setattr(scipy.linalg, "eigh", dense_eigh)
    for space in (build_circle(64, TWO_PI), build_interval(64, 1.0),
                  build_sphere_model(64, 2.0), build_hyperbolic_model(64, 2.0, 1.0)):
        assert build_solver(space).eigenvalues[0] == 0.0


# -- semigroup ---------------------------------------------------------------


def test_heat_of_constant_is_exact(circle200, solvers):
    solver = solvers["circle200"]
    const = field(circle200, np.full(200, 2.5))
    for t in (0.0, 0.3, 5.0):
        out = heat_apply(solver, const, t).values
        assert np.max(np.abs(out - 2.5)) <= 1e-13


def test_heat_circle_cosine_decay(circle200, solvers):
    solver = solvers["circle200"]
    f = field(circle200, np.cos(circle200.nodes))
    out = heat_apply(solver, f, 1.0).values
    # Exact law of the discrete system: the grid cosine is an eigenvector.
    lam = -(2.0 / circle200.spacing**2) * (1.0 - math.cos(circle200.spacing))
    assert np.max(np.abs(out - math.exp(lam) * np.cos(circle200.nodes))) <= 1e-12
    # Continuum comparison at O(h^2).
    assert np.max(np.abs(out - math.exp(-1.0) * np.cos(circle200.nodes))) <= 1.0 * circle200.spacing**2


def test_semigroup_law(sphere200, solvers):
    solver = solvers["sphere200"]
    rng = np.random.default_rng(8)
    f = field(sphere200, smooth_random_values(sphere200, rng))
    one_shot = heat_apply(solver, f, 0.9).values
    two_step = heat_apply(solver, heat_apply(solver, f, 0.4), 0.5).values
    assert np.max(np.abs(one_shot - two_step)) <= 1e-12


def test_semigroup_law_on_ill_conditioned_measure():
    # The node measure spans about 3e-29 to 6e-2 here, so the semigroup law
    # holds only to ~1e-8 pointwise, for the dense solver as for the tridiagonal one.
    space = build_hyperbolic_model(800, 5.0, 12.0)
    solver = build_solver(space)
    rel = (space.nodes - space.nodes[0]) / (space.nodes[-1] - space.nodes[0])
    f = field(space, 1.5 + np.cos(np.pi * rel))
    one_shot = heat_apply(solver, f, 0.3).values
    two_step = heat_apply(solver, heat_apply(solver, f, 0.1), 0.2).values
    assert np.max(np.abs(one_shot - two_step)) <= 2e-8


def test_heat_mass_and_extremes(hyperbolic200, solvers):
    solver = solvers["hyperbolic200"]
    rng = np.random.default_rng(4)
    f = field(hyperbolic200, smooth_random_values(hyperbolic200, rng))
    out = heat_apply(solver, f, 0.7)
    m = hyperbolic200.measure
    assert abs(float(out.values @ m) - float(f.values @ m)) <= 1e-12
    assert out.values.max() <= f.values.max() + 1e-12
    assert out.values.min() >= f.values.min() - 1e-12


def test_heat_positivity_preservation(circle200, solvers):
    solver = solvers["circle200"]
    rng = np.random.default_rng(12)
    f_values = np.clip(rng.standard_normal(200), 0.0, None)
    out = heat_apply(solver, field(circle200, f_values), 0.05).values
    assert out.min() >= -1e-12 * max(1.0, f_values.max())


def test_heat_rejects_negative_time(circle200, solvers):
    with pytest.raises(DomainError):
        heat_apply(solvers["circle200"], field(circle200, np.zeros(200)), -0.1)


def test_energy_dissipation(interval200, solvers):
    solver = solvers["interval200"]
    rng = np.random.default_rng(6)
    f = field(interval200, smooth_random_values(interval200, rng))
    energies = [
        cheeger_energy(interval200, heat_apply(solver, f, t))
        for t in (0.0, 0.05, 0.1, 0.2, 0.5, 1.0)
    ]
    assert all(a >= b - 1e-13 for a, b in zip(energies, energies[1:]))


# -- heat kernel -------------------------------------------------------------


def test_kernel_invariants(sphere200, solvers):
    solver = solvers["sphere200"]
    m = sphere200.measure
    for x in (0, 57, 140):
        p = heat_kernel(solver, x, 0.2)
        assert abs(float(p.values @ m) - 1.0) <= 1e-12
        assert p.values.min() >= -1e-12
    # Symmetry: p(t, x, y) = p(t, y, x).
    px = heat_kernel(solver, 20, 0.3).values
    py = heat_kernel(solver, 90, 0.3).values
    assert px[90] == pytest.approx(py[20], abs=1e-12)


def test_kernel_long_time_flattens(circle200, solvers):
    solver = solvers["circle200"]
    t = 8.0
    p = heat_kernel(solver, 13, t).values
    tail = math.exp(solver.eigenvalues[1] * t)
    assert np.max(np.abs(p - 1.0)) <= 10.0 * tail + 1e-12


def test_kernel_rejects_bad_time(circle200, solvers):
    solver = solvers["circle200"]
    with pytest.raises(DomainError):
        heat_kernel(solver, 0, 0.0)
    with pytest.raises(DomainError):
        heat_kernel(solver, 0, -1.0)


def test_kernel_positivity_holds_even_below_resolution(circle200, solvers):
    # The generator is an M-matrix, so the discrete semigroup stays positive
    # (up to roundoff) at every time, including below the h^2 floor.
    solver = solvers["circle200"]
    p = heat_kernel(solver, 0, 0.01 * time_resolution_floor(circle200))
    assert p.values.min() >= -1e-12


def test_kernel_resolution_warning_mechanism():
    # A hand-built non-Markov eigensystem produces genuine negative density,
    # which must warn rather than fail.
    fake = _fake_three_mode_solver()
    with pytest.warns(ResolutionWarning):
        p = heat_kernel(fake, 0, 0.1)
    assert p.values.min() < -1e-12


def _fake_three_mode_solver():
    space = build_interval(3, 1.0)
    basis = np.column_stack([
        np.ones(3),
        math.sqrt(1.5) * np.array([1.0, -1.0, 0.0]),
        math.sqrt(0.5) * np.array([1.0, 1.0, -2.0]),
    ])
    return SpectralSolver(space=space, eigenvalues=np.array([0.0, -1.0, -5.0]), eigenfields=basis)


def test_hand_built_three_mode_solver_flows():
    fake = _fake_three_mode_solver()
    values = np.array([1.0, 2.0, 4.0])
    basis, m = fake.eigenfields, fake.space.measure
    expected = basis @ (np.exp(fake.eigenvalues * 0.3) * (basis.T @ (m * values)))
    out = heat_apply(fake, field(fake.space, values), 0.3).values
    assert np.max(np.abs(out - expected)) <= 1e-15
    assert fake.eigenvalues.size == 3


# -- held modes ----------------------------------------------------------------


SCENARIO_MODELS = ("sphere", "hyperbolic", "circle")


@pytest.mark.parametrize("model", SCENARIO_MODELS)
def test_first_dropped_mode_flows_below_the_tail_bound(model):
    space = _model(model, 1400)
    solver = build_solver(space)
    scale = space.n_nodes * (1.0 + solver._rho) / math.sqrt(space.measure.min())
    for power in (0, 1):  # heat_apply, heat_time_derivative
        for t in (0.05, 0.2, 1.0, 2.5):
            k = _kept(solver, t, power)
            assert 0 < k < solver.eigenvalues.size  # the held modes reach past the cut
            # The cut bounds the extra |lambda| of the derivative by rho.
            lam, factor = solver.eigenvalues[k], solver._rho**power
            assert factor * math.exp(lam * t) * scale <= 2.0**-60
            weight = abs(lam) ** power * math.exp(lam * t)
            # A unit coefficient on mode k flows, even through a stencil, to a
            # sup norm below 2^-60 of its data's sup norm.
            mode = solver.eigenfields[:, k]
            assert weight * (1.0 + solver._rho) * np.max(np.abs(mode)) <= 2.0**-60 * np.max(np.abs(mode))
            lam_kept = solver.eigenvalues[k - 1]
            assert factor * math.exp(lam_kept * t) * scale > 2.0**-60
            # heat_apply drops the mode: 1 + e_k flows to 1 up to projection roundoff.
            flowed = heat_apply(solver, field(space, 1.0 + mode), t).values
            assert np.max(np.abs(flowed - 1.0)) <= 1e-13


@pytest.mark.parametrize("n", [400, 1000, 1400])
@pytest.mark.parametrize("model", SCENARIO_MODELS)
def test_stencil_kernel_matches_the_full_spectral_kernel(model, n):
    space = _model(model, n)
    partial, full = build_solver(space), build_solver(space)
    full.hold(n)
    t0 = 5.0 * space.spacing**2  # kernel_corollary_suite's warm-up
    for x in (0, n // 3, n - 1):
        warm = heat_kernel(partial, x, t0).values
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            spectral = heat_kernel(full, x, t0).values
        assert np.max(np.abs(warm - spectral)) <= 1e-12 * np.max(np.abs(spectral))
        assert warm.min() >= 0.0
    assert partial.eigenvalues.size == 32  # the kernel never re-solves


def test_heat_apply_at_time_zero_is_the_field_itself(computed_flows):
    space = _model("sphere", 1000)
    solver = build_solver(space)
    f = field(space, smooth_random_values(space, np.random.default_rng(3)))
    assert heat_apply(solver, f, 0.0) is f
    assert not computed_flows
    assert solver.eigenvalues.size == 32


@pytest.mark.parametrize("model", SCENARIO_MODELS)
def test_time_derivative_on_held_modes_matches_the_full_basis(model):
    space = _model(model, 1000)
    partial, full = build_solver(space), build_solver(space)
    full.hold(space.n_nodes)
    f = field(space, smooth_random_values(space, np.random.default_rng(9)))
    for t in (0.05, 0.2, 1.0):
        held = heat_time_derivative(partial, f, t).values
        expected = heat_time_derivative(full, f, t).values
        assert np.max(np.abs(held - expected)) <= 1e-11
    assert partial.eigenvalues.size < space.n_nodes


def test_full_spectrum_consumers_ask_for_every_mode(tmp_path):
    space = _model("hyperbolic", 1000)
    f = field(space, smooth_random_values(space, np.random.default_rng(1)))
    for consume in (
        lambda solver: spectral_laplacian(solver, f),
        lambda solver: laplacian_consistency_error(solver, f),
        lambda solver: spectrum_to_csv(solver, tmp_path / "spectrum.csv"),
    ):
        solver = build_solver(space)
        assert solver.eigenvalues.size == 32
        consume(solver)
        assert solver.eigenvalues.size == space.n_nodes
    assert len((tmp_path / "spectrum.csv").read_text().splitlines()) == space.n_nodes + 1
    assert laplacian_consistency_error(build_solver(space), f) <= 1e-10


# -- time derivative ---------------------------------------------------------


def test_time_derivative_examples(circle200, solvers):
    solver = solvers["circle200"]
    const = field(circle200, np.full(200, 3.0))
    assert np.max(np.abs(heat_time_derivative(solver, const, 1.0).values)) <= 1e-12

    f = field(circle200, np.cos(circle200.nodes))
    out = heat_time_derivative(solver, f, 1.0).values
    expected = -math.exp(-1.0) * np.cos(circle200.nodes)
    assert np.max(np.abs(out - expected)) <= 2.0 * circle200.spacing**2

    via_laplacian = laplacian(circle200, heat_apply(solver, f, 1.0)).values
    assert np.max(np.abs(out - via_laplacian)) <= 1e-11


def test_time_derivative_matches_difference_quotient(interval200, solvers):
    solver = solvers["interval200"]
    rng = np.random.default_rng(10)
    f = field(interval200, smooth_random_values(interval200, rng))
    t, dt = 0.5, 1e-4
    central = (
        heat_apply(solver, f, t + dt).values - heat_apply(solver, f, t - dt).values
    ) / (2 * dt)
    out = heat_time_derivative(solver, f, t).values
    assert np.max(np.abs(out - central)) <= 1e-5


def test_time_derivative_rejects_nonpositive_time(circle200, solvers):
    with pytest.raises(DomainError):
        heat_time_derivative(solvers["circle200"], field(circle200, np.zeros(200)), 0.0)


# -- flow counts ----------------------------------------------------------------


@pytest.fixture
def computed_flows(monkeypatch):
    """Counts flows actually computed: every computed flow projects once."""
    calls = []
    project = SpectralSolver.project

    def counting(self, values):
        calls.append(1)
        return project(self, values)

    monkeypatch.setattr(SpectralSolver, "project", counting)
    return calls


def test_harnack_scan_flows_each_time_once(circle200, computed_flows):
    solver = build_solver(circle200)
    f = field(circle200, 2.0 + np.cos(circle200.nodes))
    nodes = [0, 50, 100, 150]
    harnack_scan(solver, f, nodes, nodes, [(0.25, 0.75), (0.5, 1.0)], CurvatureDimension(0.0, 1.0))
    assert len(computed_flows) == 6  # 4 times, then harnack_check's 2 at the worst instance


def test_kernel_corollary_flows_twice(circle200, computed_flows):
    # li_yau and baudoin_garofalo flow the kernel once each, and its harnack scan
    # flows each of its two times once, then twice more at the worst instance.
    solver = build_solver(circle200)
    kernel_corollary_suite(solver, 40, CurvatureDimension(0.0, 1.0), [0.5])
    assert len(computed_flows) == 6


def test_repeated_flow_is_bitwise_a_fresh_solvers_flow(circle200, computed_flows):
    solver = build_solver(circle200)
    f = field(circle200, 2.0 + np.sin(3.0 * circle200.nodes))
    first = heat_apply(solver, f, 0.3)
    again = heat_apply(solver, f, 0.3)
    assert len(computed_flows) == 2  # no memo: every call computes its flow
    fresh = heat_apply(build_solver(circle200), f, 0.3)
    assert again.values.tobytes() == first.values.tobytes() == fresh.values.tobytes()
    assert not again.values.flags.writeable
    with pytest.raises(ValueError):
        again.values[0] = 0.0


# Computed flows of an in-process `heatlab run` of each shipped scenario.  A
# change that flows per scan instance again, or caches flows, moves them.
SHIPPED_RUN_FLOWS = {"convergence": 6, "flat_circle": 60, "hyperbolic": 50, "sphere": 36}


@pytest.mark.parametrize("scenario", sorted(SHIPPED_RUN_FLOWS))
def test_shipped_runs_compute_pinned_flow_counts(scenario, tmp_path, capsys, computed_flows):
    path = Path(__file__).resolve().parents[1] / "scenarios" / f"{scenario}.json"
    assert cli.main(["run", str(path), "--out-dir", str(tmp_path)]) == 0
    assert len(computed_flows) == SHIPPED_RUN_FLOWS[scenario]


# -- analytic kernel oracle --------------------------------------------------


def test_gaussian_oracle_identity():
    vals = gaussian_kernel_oracle(3.0, 0.5, 0.0)
    assert vals.grad_log_sq - vals.dt_log == pytest.approx(3.0, abs=1e-14)


def test_gaussian_oracle_values():
    assert gaussian_kernel_oracle(1.0, 1.0, 2.0).grad_log_sq == pytest.approx(1.0, abs=1e-15)
    assert gaussian_kernel_oracle(2.0, 1.0, 0.0).density == pytest.approx(
        1.0 / (4.0 * math.pi), abs=1e-15
    )


def test_gaussian_oracle_domain_errors():
    with pytest.raises(DomainError):
        gaussian_kernel_oracle(2.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        gaussian_kernel_oracle(0.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        gaussian_kernel_oracle(2.0, 1.0, -1.0)
