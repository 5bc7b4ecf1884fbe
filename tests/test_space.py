import dataclasses
import math

import numpy as np
import pytest

from heatlab import (
    CurvatureDimension,
    DiscreteMeasure,
    EdgeField,
    ScalarField,
    SpectralSolver,
    TransportPlan,
    build_circle,
    build_hyperbolic_model,
    build_interval,
    build_sphere_model,
)
from heatlab.errors import InvalidGeometryError, InvalidParameterError
from heatlab.transport import point_mass

ALL_BUILDERS = [
    lambda n: build_interval(n, 1.0),
    lambda n: build_circle(n, 2 * math.pi),
    lambda n: build_sphere_model(n, 2.0),
    lambda n: build_hyperbolic_model(n, 2.0, 1.0),
]


def test_interval_trapezoid_measure():
    space = build_interval(5, 1.0)
    # Flat density, trapezoid end-correction: half weight at the endpoints.
    assert np.allclose(space.measure, [0.125, 0.25, 0.25, 0.25, 0.125], atol=1e-15)
    assert space.measure.sum() == pytest.approx(1.0, abs=1e-15)


def test_interval_three_nodes():
    space = build_interval(3, math.pi)
    assert np.allclose(space.nodes, [0.0, math.pi / 2, math.pi])
    assert space.spacing == pytest.approx(math.pi / 2)


def test_interval_rejects_bad_geometry():
    with pytest.raises(InvalidGeometryError):
        build_interval(2, 1.0)
    with pytest.raises(InvalidGeometryError):
        build_interval(10, 0.0)
    with pytest.raises(InvalidGeometryError):
        build_interval(10, -2.0)


def test_circle_arc_distances():
    space = build_circle(4, 2 * math.pi)
    assert space.distance(0, 2) == pytest.approx(math.pi)
    assert space.distance(0, 3) == pytest.approx(math.pi / 2)
    with pytest.raises(InvalidGeometryError):
        build_circle(2, 1.0)


def test_sphere_measure_properties():
    space = build_sphere_model(101, 2.0)
    assert space.measure.sum() == pytest.approx(1.0, abs=1e-14)
    # sin is symmetric about pi/2, so the measure is too.
    assert np.allclose(space.measure, space.measure[::-1], atol=1e-15)
    mean = float(space.measure @ space.nodes)
    assert mean == pytest.approx(math.pi / 2, abs=1e-3)


def test_sphere_mode_at_equator():
    space = build_sphere_model(101, 3.0)
    assert abs(space.nodes[np.argmax(space.measure)] - math.pi / 2) <= space.spacing / 2


def test_sphere_rejects_bad_dimension():
    with pytest.raises(InvalidParameterError):
        build_sphere_model(50, 1.0)
    with pytest.raises(InvalidGeometryError):
        build_sphere_model(2, 2.0)


def test_hyperbolic_interior_weights_increase():
    space = build_hyperbolic_model(51, 2.0, 1.0)
    interior = space.measure[1:-1]
    assert np.all(np.diff(interior) > 0)
    assert space.measure.sum() == pytest.approx(1.0, abs=1e-14)


def test_hyperbolic_expected_cd():
    space = build_hyperbolic_model(51, 1.5, 2.0)
    assert space.expected_cd == CurvatureDimension(-0.5, 1.5)
    with pytest.raises(InvalidParameterError):
        build_hyperbolic_model(51, 0.9, 1.0)
    with pytest.raises(InvalidParameterError):
        build_hyperbolic_model(51, 2.0, -1.0)


def test_hyperbolic_grid_starts_one_step_in():
    space = build_hyperbolic_model(40, 2.0, 1.0)
    assert space.nodes[0] == pytest.approx(space.spacing)
    assert space.nodes[-1] == pytest.approx(1.0)


@pytest.mark.parametrize("build", ALL_BUILDERS)
def test_constructor_invariants(build):
    space = build(101)
    assert abs(space.measure.sum() - 1.0) <= 1e-14
    assert np.all(space.measure > 0)
    assert np.all(np.diff(space.nodes) > 0)
    assert np.all(space.edge_weights > 0)


@pytest.mark.parametrize("build", ALL_BUILDERS)
def test_distance_matrix_is_a_metric(build):
    space = build(23)
    d = space.distance_matrix()
    assert np.all(np.diag(d) == 0.0)
    assert np.array_equal(d, d.T)
    # Triangle inequality on all triples; 1e-12 slack absorbs float rounding.
    lhs = d[:, None, :]
    rhs = d[:, :, None] + d[None, :, :]
    assert np.all(lhs <= rhs + 1e-12 * space.length)


@pytest.mark.parametrize(
    "coarse,fine",
    [
        (lambda: build_sphere_model(51, 2.0), lambda: build_sphere_model(101, 2.0)),
        (lambda: build_interval(51, 1.0), lambda: build_interval(101, 1.0)),
    ],
)
def test_refinement_reproduces_measure_profile(coarse, fine):
    """Doubling n and sampling the fine density at coarse nodes agrees to O(h^2)."""
    cs, fs = coarse(), fine()
    coarse_density = cs.measure / (cs.spacing * np.where(
        np.arange(cs.n_nodes) % (cs.n_nodes - 1) == 0, 0.5, 1.0))
    fine_density = fs.measure / (fs.spacing * np.where(
        np.arange(fs.n_nodes) % (fs.n_nodes - 1) == 0, 0.5, 1.0))
    shared = fine_density[::2]
    err = np.max(np.abs(shared[1:-1] - coarse_density[1:-1]))
    assert err <= 5.0 * cs.spacing**2


def test_model_hash_is_stable():
    a = build_circle(32, 1.0)
    b = build_circle(32, 1.0)
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != build_circle(33, 1.0).content_hash()


def test_interior_mask():
    space = build_interval(10, 1.0)
    mask = space.interior_mask(2)
    assert list(np.flatnonzero(mask)) == list(range(2, 8))
    circle = build_circle(10, 1.0)
    assert circle.interior_mask(2).all()



SPACE10 = build_interval(10, 1.0)


def _plan(rows=(0,), masses=(1.0,)):
    mass = point_mass(SPACE10, 0)
    return TransportPlan(mass, mass, rows, (0,), masses, cost=0.0)


# name -> (constructor from one array, the attribute it lands in, valid data)
VALUE_OBJECTS = {
    "ScalarField": (lambda a: ScalarField(a, SPACE10), "values", np.ones(10)),
    "EdgeField": (lambda a: EdgeField(a, SPACE10), "values", np.ones(9)),
    "ModelSpace": (lambda a: dataclasses.replace(SPACE10, nodes=a), "nodes", SPACE10.nodes),
    "DiscreteMeasure": (lambda a: DiscreteMeasure(a, SPACE10), "masses", np.full(10, 0.1)),
    "TransportPlan.masses": (lambda a: _plan(masses=a), "masses", np.ones(1)),
    "TransportPlan.rows": (lambda a: _plan(rows=a), "rows", np.zeros(1, dtype=int)),
    "SpectralSolver": (lambda a: SpectralSolver(SPACE10, [0.0], a), "eigenfields", np.ones((10, 1))),
}


@pytest.mark.parametrize("name", sorted(VALUE_OBJECTS))
def test_value_objects_copy_the_callers_array(name):
    build, attr, template = VALUE_OBJECTS[name]
    data = template.copy()
    obj = build(data)
    assert data.flags.writeable  # the caller's array is not frozen
    data += 1
    assert np.array_equal(getattr(obj, attr), template)
    assert not getattr(obj, attr).flags.writeable
    # Nor does a write through a slice's base reach the object.
    base = np.concatenate((template, template))
    obj = build(base[: len(template)])
    base += 1
    assert np.array_equal(getattr(obj, attr), template)
