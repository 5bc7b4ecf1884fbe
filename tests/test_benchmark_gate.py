"""The benchmark's solver gate holds on the basis the flows use.

``perfbench.oracle.solver_defects`` checks a fresh ``build_solver`` for the
first job of each class.  It divides the eigen-residual by the largest |lambda|
the solver holds, so a partial basis that holds too few modes fails it; this
test meets that failure here instead of in a benchmark run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import heatlab.heat
from heatlab import build_solver, field, heat_apply, heat_kernel
from heatlab.space import MODEL_BUILDERS

from conftest import smooth_random_values

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import jobs  # noqa: E402
from perfbench.oracle import SOLVER_ORTHO_TOL, SOLVER_RESIDUAL_TOL, solver_defects  # noqa: E402


def _scenario_space(scenario, n):
    model = jobs.scenario_document({"scenario": scenario, "n": n})["model"]
    return MODEL_BUILDERS[model["name"]](**model["params"])


@pytest.mark.parametrize("n", [600, 1000, 1400])
@pytest.mark.parametrize("scenario", ["sphere", "hyperbolic", "flat_circle"])
def test_fresh_solver_passes_the_benchmark_solver_gate(scenario, n):
    assert SOLVER_RESIDUAL_TOL <= 1e-12 and SOLVER_ORTHO_TOL <= 1e-12
    space = _scenario_space(scenario, n)
    solver = build_solver(space)
    assert solver.eigenvalues.size < n  # the gate sees a partial basis
    residual, ortho = solver_defects(space, solver)
    assert residual <= 1e-12
    assert ortho <= 1e-12


@pytest.mark.parametrize("scenario", ["sphere", "hyperbolic"])
def test_flows_past_the_resolution_floor_never_take_a_full_solve(scenario, monkeypatch):
    calls = []
    solve = heatlab.heat.eigh_tridiagonal

    def recording(*args, **kwargs):
        calls.append(kwargs.get("select", "a"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(heatlab.heat, "eigh_tridiagonal", recording)
    space = _scenario_space(scenario, 1400)
    solver = build_solver(space)
    f = field(space, smooth_random_values(space, np.random.default_rng(5)))
    for t in (0.2, 0.5, 1.0, 2.5):
        heat_apply(solver, f, t)
    heat_kernel(solver, 700, 5.0 * space.spacing**2)  # kernel_corollary_suite's warm-up
    assert calls and "a" not in calls
    assert solver.eigenvalues.size == 32
