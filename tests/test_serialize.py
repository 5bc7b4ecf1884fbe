import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatlab import (
    build_circle,
    build_solver,
    displacement_interpolation,
    field,
    li_yau_check,
    measure_from_masses,
    w2_quantile,
)
from heatlab.reports import make_report
from heatlab.space import TOPOLOGY_INTERVAL, ModelSpace
from heatlab.serialize import (
    field_to_csv,
    interpolation_to_csv,
    margins_to_csv,
    plan_to_csv,
    spectrum_to_csv,
)


def test_field_and_margin_csv(tmp_path, circle200, solvers):
    f = field(circle200, 2.0 + np.cos(circle200.nodes))
    out = tmp_path / "field.csv"
    field_to_csv(f, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 201
    x0, v0 = lines[1].split(",")
    assert float(x0) == circle200.nodes[0]
    assert float(v0) == f.values[0]

    rep = li_yau_check(solvers["circle200"], f, 0.5, 1.0)
    margins_to_csv(rep, tmp_path / "margins.csv")
    header = (tmp_path / "margins.csv").read_text().splitlines()[0]
    assert header == "x,margin"


_EDGE_VALUES = [-0.0, 5e-324, 1e-300, 0.1 + 0.2, -1.5, 1.7976931348623157e308]


def _old_rows(xs, vs, prefix=""):
    return [f"{prefix}{float(x)!r},{float(v)!r}" for x, v in zip(xs, vs)]


def test_node_indexed_csvs_pin_repr_bytes(tmp_path):
    space = build_circle(6, 2 * math.pi)
    assert space.nodes[0] == 0.0
    f = field(space, _EDGE_VALUES)
    expected = _old_rows(space.nodes, f.values)
    field_to_csv(f, tmp_path / "field.csv")
    assert (tmp_path / "field.csv").read_bytes() == "\n".join(["x,value", *expected]).encode() + b"\n"
    assert expected[0] == "0.0,-0.0" and expected[1].endswith(",5e-324")

    rep = make_report("li-yau", {}, 0.0, 1e-6, margin_field=f)
    margins_to_csv(rep, tmp_path / "margins.csv")
    assert (tmp_path / "margins.csv").read_bytes() == "\n".join(["x,margin", *expected]).encode() + b"\n"

    mu0 = measure_from_masses(space, [0.1, 0.0, 0.3, 0.1, 0.0, 0.5])
    mu1 = measure_from_masses(space, [0.0, 0.2, 0.2, 0.0, 0.6, 0.0])
    path = displacement_interpolation(space, mu0, mu1, (0.0, 0.1 + 0.2, 1.0))
    interpolation_to_csv(path, tmp_path / "slices.csv")
    rows = [row for t, mu in zip(path.times, path.measures)
            for row in _old_rows(space.nodes, mu.density(), f"{float(t)!r},")]
    assert (tmp_path / "slices.csv").read_bytes() == "\n".join(["t,x,density", *rows]).encode() + b"\n"


def _with_neighbours(*values):
    return [w for v in values for s in (v, -v)
            for w in (float(np.nextafter(s, -math.inf)), s, float(np.nextafter(s, math.inf)))]


# Where orjson's spelling leaves repr's: the decade [1e-5, 1e-4), the exponent
# threshold 1e16, subnormals, signed zeros, and positional numbers whose fraction
# reads .0000 (repr keeps 1000000.00001 positional).
_DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(_with_neighbours(1e-5, 1e-4, 1e16, 5e-324, 2.2250738585072014e-308, 0.0)),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.floats(min_value=1e-6, max_value=1e-3).flatmap(lambda v: st.sampled_from([v, -v])),
    st.builds(lambda i, d: float(f"{i}.{d:09d}"), st.integers(10**6, 10**15), st.integers(1, 99999)),
)


def _drawn_space(nodes):
    nodes = np.sort(nodes)
    return ModelSpace(nodes, 1.0, np.full(nodes.size, 1.0 / nodes.size), np.ones(nodes.size - 1),
                      TOPOLOGY_INTERVAL, "drawn", 1.0)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), nodes=st.lists(_DOUBLES, min_size=3, max_size=30, unique=True),
       times=st.lists(_DOUBLES, max_size=4))
def test_float_csvs_match_repr_rows_on_any_finite_doubles(tmp_path_factory, data, nodes, times):
    space = _drawn_space(nodes)
    n = space.n_nodes
    values = data.draw(st.lists(_DOUBLES, min_size=n, max_size=n))
    out = tmp_path_factory.mktemp("csv")
    expected = _old_rows(space.nodes, values)

    field_to_csv(field(space, values), out / "field.csv")
    assert (out / "field.csv").read_bytes() == "\n".join(["x,value", *expected]).encode() + b"\n"
    margins_to_csv(make_report("li-yau", {}, 0.0, 1e-6, margin_field=field(space, values)),
                   out / "margins.csv")
    assert (out / "margins.csv").read_bytes() == "\n".join(["x,margin", *expected]).encode() + b"\n"

    slices = [data.draw(st.lists(_DOUBLES, min_size=n, max_size=n)) for _ in times]
    path = SimpleNamespace(
        times=tuple(times), plan=SimpleNamespace(source=SimpleNamespace(space=space)),
        measures=tuple(SimpleNamespace(density=lambda d=d: np.array(d)) for d in slices))
    interpolation_to_csv(path, out / "slices.csv")
    rows = [row for t, d in zip(times, slices) for row in _old_rows(space.nodes, d, f"{t!r},")]
    assert (out / "slices.csv").read_bytes() == "\n".join(["t,x,density", *rows]).encode() + b"\n"


def test_non_finite_values_keep_their_repr_rows(tmp_path):
    # ScalarField refuses non-finite values, so the margin field is a stand-in;
    # orjson would write each of them as null.
    space = build_circle(6, 2 * math.pi)
    values = np.array([math.nan, math.inf, -math.inf, 1e-05, 1e16, -0.0])
    margins_to_csv(make_report("li-yau", {}, 0.0, 1e-6,
                               margin_field=SimpleNamespace(space=space, values=values)),
                   tmp_path / "margins.csv")
    lines = (tmp_path / "margins.csv").read_bytes().split(b"\n")
    assert lines == [b"x,margin", *(row.encode() for row in _old_rows(space.nodes, values)), b""]
    assert [line.split(b",")[1] for line in lines[1:4]] == [b"nan", b"inf", b"-inf"]


def test_plan_and_interpolation_csv(tmp_path):
    space = build_circle(24, 2 * math.pi)
    rng = np.random.default_rng(1)
    masses = np.zeros(24)
    masses[rng.choice(24, size=5, replace=False)] = rng.random(5)
    mu0 = measure_from_masses(space, masses)
    masses = np.zeros(24)
    masses[rng.choice(24, size=4, replace=False)] = rng.random(4)
    mu1 = measure_from_masses(space, masses)

    plan = w2_quantile(space, mu0, mu1)
    plan_to_csv(plan, tmp_path / "plan.csv")
    lines = (tmp_path / "plan.csv").read_text().splitlines()
    assert lines[0] == "i,j,mass"
    total = sum(float(row.split(",")[2]) for row in lines[1:])
    assert abs(total - 1.0) <= 1e-12

    path = displacement_interpolation(space, mu0, mu1, (0.0, 0.5, 1.0))
    interpolation_to_csv(path, tmp_path / "slices.csv")
    lines = (tmp_path / "slices.csv").read_text().splitlines()
    assert lines[0] == "t,x,density"
    assert len(lines) == 1 + 3 * 24


def test_spectrum_csv(tmp_path, solvers):
    spectrum_to_csv(solvers["circle200"], tmp_path / "spec.csv")
    lines = (tmp_path / "spec.csv").read_text().splitlines()
    assert lines[0] == "k,eigenvalue"
    assert lines[1] == "0,0.0"
    assert len(lines) == 201


@pytest.mark.parametrize("margin", [math.inf, -math.inf, math.nan])
def test_report_dict_is_strict_json_for_non_finite_margins(margin):
    rep = make_report("cd-star", {"t": 0.5}, margin, 1e-6, vacuous=True)
    text = json.dumps(rep.to_dict(), allow_nan=False)
    assert json.loads(text)["min_margin"] is None
    assert rep.verdict == "error"
