"""Discrete Dirichlet-form calculus on model spaces.

The Laplacian is the Sturm-Liouville three-point operator assembled from edge
conductances ``edge_weights[e] / h``; written as a flux divergence it is
self-adjoint with respect to the node measure and conserves mass exactly (up
to roundoff), not just to discretization order.  The squared-gradient form
(carre du champ) lives primarily on edges, where the integration-by-parts
pairing with the Laplacian is an algebraic identity; node values are measure
weighted averages of the adjacent edge values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    InvalidPathError,
    PreconditionError,
)
from .space import CurvatureDimension, ModelSpace, _freeze_arrays


@dataclass(frozen=True, eq=False)
class ScalarField:
    """One real value per node of a model space."""

    values: np.ndarray
    space: ModelSpace

    def __post_init__(self):
        (values,) = _freeze_arrays(self, values=float)
        if values.shape != (self.space.n_nodes,):
            raise DimensionMismatchError(
                f"field has {values.shape} values for a space with {self.space.n_nodes} nodes"
            )
        if not np.all(np.isfinite(values)):
            raise DimensionMismatchError("field values must all be finite")

    def integral(self) -> float:
        """Integral against the space's probability measure."""
        return float(self.values @ self.space.measure)


@dataclass(frozen=True, eq=False)
class EdgeField:
    """One real value per edge (adjacent node pair) of a model space."""

    values: np.ndarray
    space: ModelSpace

    def __post_init__(self):
        (values,) = _freeze_arrays(self, values=float)
        if values.shape != (self.space.n_edges,):
            raise DimensionMismatchError(
                f"edge field has {values.shape} values for a space with {self.space.n_edges} edges"
            )
        if not np.all(np.isfinite(values)):
            raise DimensionMismatchError("edge field values must all be finite")


def field(space: ModelSpace, values) -> ScalarField:
    """Shorthand constructor used throughout the package and tests."""
    return ScalarField(np.asarray(values, dtype=float), space)


def _same_space(space: ModelSpace, *fields) -> None:
    for f in fields:
        s = f.space
        if s is space:
            continue
        if (
            s.topology != space.topology
            or s.n_nodes != space.n_nodes
            or s.spacing != space.spacing
            or not np.array_equal(s.nodes, space.nodes)
            or not np.array_equal(s.measure, space.measure)
        ):
            raise DimensionMismatchError("field or measure does not live on the given space")


def _edge_diffs(space: ModelSpace, values: np.ndarray) -> np.ndarray:
    """f_{i+1} - f_i per edge; the last circle edge wraps to node 0."""
    if space.is_circle:
        return np.roll(values, -1) - values
    return np.diff(values)


def _edge_masses(space: ModelSpace) -> np.ndarray:
    return space.edge_weights * space.spacing


def _laplacian_values(space: ModelSpace, values: np.ndarray) -> np.ndarray:
    """(1/m_i) sum_e (c_e/h) (f_j - f_i); Neumann closure drops the outer flux."""
    flux = (space.edge_weights / space.spacing) * _edge_diffs(space, values)
    acc = np.zeros_like(values)
    if space.is_circle:
        acc += flux
        acc -= np.roll(flux, 1)
    else:
        acc[:-1] += flux
        acc[1:] -= flux
    return acc / space.measure


def laplacian(space: ModelSpace, f: ScalarField) -> ScalarField:
    """Sturm-Liouville Laplacian, self-adjoint w.r.t. the node measure.

    Satisfies exactly (to roundoff): sum_i (Lf)_i m_i = 0 and
    <Lf, g>_m = <f, Lg>_m for all fields f, g.
    """
    _same_space(space, f)
    return ScalarField(_laplacian_values(space, f.values), space)


def _stiffness_bands(space: ModelSpace) -> tuple[np.ndarray, np.ndarray]:
    """Bands of the symmetric S with L = diag(m)^{-1} S: S[i, i] = d[i] = -(c[i-1] + c[i])
    and S[i, i+1 mod n] = c[i] = edge_weights[i] / h, with c[n-1] = 0 on intervals."""
    c = np.zeros(space.n_nodes)
    c[: space.n_edges] = space.edge_weights / space.spacing
    return -(np.roll(c, 1) + c), c


def _stiffness_matrix(space: ModelSpace) -> np.ndarray:
    d, c = _stiffness_bands(space)
    s = np.diag(d) + np.diag(c[:-1], 1) + np.diag(c[:-1], -1)
    s[0, -1] = s[-1, 0] = c[-1]
    return s


def laplacian_matrix(space: ModelSpace) -> np.ndarray:
    """Dense matrix of the Laplacian; rows scale by 1/m_i, so it is
    self-adjoint w.r.t. the m-weighted inner product but not symmetric."""
    return _stiffness_matrix(space) / space.measure[:, None]


def carre_du_champ_edge(space: ModelSpace, f: ScalarField, g: ScalarField | None = None) -> EdgeField:
    """Edge-based squared-gradient form: ((f_{i+1}-f_i)/h) * ((g_{i+1}-g_i)/h)."""
    _same_space(space, f)
    if g is None:
        g = f
    else:
        _same_space(space, g)
    df = _edge_diffs(space, f.values) / space.spacing
    dg = df if g is f else _edge_diffs(space, g.values) / space.spacing
    return EdgeField(df * dg, space)


def _gamma_node_values(space: ModelSpace, edge_values: np.ndarray) -> np.ndarray:
    """Average adjacent edge values to nodes, weighted by edge masses.

    The averaging weights sum to one at every node, so constant edge fields
    average to the same constant; boundary nodes take their single edge value.
    """
    nu = _edge_masses(space)
    weighted = nu * edge_values
    if space.is_circle:
        return (np.roll(weighted, 1) + weighted) / (np.roll(nu, 1) + nu)
    out = np.empty(space.n_nodes)
    out[0] = edge_values[0]
    out[-1] = edge_values[-1]
    out[1:-1] = (weighted[:-1] + weighted[1:]) / (nu[:-1] + nu[1:])
    return out


def carre_du_champ(space: ModelSpace, f: ScalarField, g: ScalarField | None = None) -> ScalarField:
    """Node-centered Gamma(f, g): measure-weighted average of adjacent edge values.

    Gamma(f) := Gamma(f, f) is pointwise nonnegative, and the Cauchy-Schwarz
    bound Gamma(f, g)^2 <= Gamma(f) Gamma(g) holds pointwise because each node
    value is a convex combination of edge products.
    """
    edge = carre_du_champ_edge(space, f, g)
    return ScalarField(_gamma_node_values(space, edge.values), space)


def cheeger_energy(space: ModelSpace, f: ScalarField) -> float:
    """Half the edge-form Dirichlet energy: (1/2) sum_e nu_e |df/h|^2.

    Nonnegative; zero exactly when f is constant.  Equals -<Lf, f>_m / 2 to
    roundoff by the summation-by-parts identity.
    """
    edge = carre_du_champ_edge(space, f)
    return 0.5 * float(_edge_masses(space) @ edge.values)


def integration_by_parts_defect(space: ModelSpace, f: ScalarField, g: ScalarField) -> float:
    """Edge-form pairing defect: int Gamma(f,g) dm + int f Lg dm.

    Zero up to roundoff for every pair of fields; the contract is
    |defect| <= 1e-13 * scale(f, g).
    """
    edge = carre_du_champ_edge(space, f, g)
    lap_g = _laplacian_values(space, g.values)
    return float(_edge_masses(space) @ edge.values + (f.values * lap_g) @ space.measure)


def gamma2(space: ModelSpace, f: ScalarField) -> ScalarField:
    """Iterated squared-gradient operator: (1/2) L Gamma(f) - Gamma(f, Lf).

    On a smooth model it approximates the continuum value within O(h^2) at
    interior nodes; boundary rows are polluted by the Neumann closure.
    """
    _same_space(space, f)
    gamma_f = carre_du_champ(space, f)
    lap_f = laplacian(space, f)
    half_lap_gamma = 0.5 * _laplacian_values(space, gamma_f.values)
    cross = carre_du_champ(space, f, lap_f)
    return ScalarField(half_lap_gamma - cross.values, space)


def weighted_gradient_log(space: ModelSpace, f: ScalarField) -> ScalarField:
    """sqrt(Gamma(f)) / f: the gradient modulus of log f w.r.t. the f-weighted measure."""
    _same_space(space, f)
    if np.any(f.values <= 0):
        raise DomainError("weighted_gradient_log needs a strictly positive field")
    gamma_f = carre_du_champ(space, f)
    return ScalarField(np.sqrt(gamma_f.values) / f.values, space)


def be_check(space: ModelSpace, f: ScalarField, phi: ScalarField, cd: CurvatureDimension) -> float:
    """Integrated Bochner inequality defect (LHS - RHS, nonnegative means pass):

        int (1/2) L(phi) Gamma(f) dm - int phi Gamma(f, Lf) dm
            - K int phi Gamma(f) dm - (1/N) int phi (Lf)^2 dm
    """
    _same_space(space, f, phi)
    if np.any(phi.values < 0):
        raise PreconditionError("be_check needs a nonnegative test field phi")
    m = space.measure
    lap_phi = _laplacian_values(space, phi.values)
    gamma_f = carre_du_champ(space, f).values
    lap_f = laplacian(space, f)
    cross = carre_du_champ(space, f, lap_f).values
    lhs = 0.5 * (lap_phi * gamma_f) @ m - (phi.values * cross) @ m
    rhs = cd.K * (phi.values * gamma_f) @ m + (phi.values * lap_f.values**2) @ m / cd.N
    return float(lhs - rhs)


def bochner_margin(space: ModelSpace, f: ScalarField, cd: CurvatureDimension) -> ScalarField:
    """Pointwise Bochner margin gamma2(f) - K Gamma(f) - (Lf)^2 / N."""
    _same_space(space, f)
    g2 = gamma2(space, f).values
    gamma_f = carre_du_champ(space, f).values
    lap_f = _laplacian_values(space, f.values)
    return ScalarField(g2 - cd.K * gamma_f - lap_f**2 / cd.N, space)


def upper_gradient_check(space: ModelSpace, f: ScalarField, path) -> float:
    """Upper-gradient defect along a discrete path with G = sqrt(Gamma(f)):

        int G(gamma_s) |gamma'_s| ds  -  |f(gamma_1) - f(gamma_0)|

    Consecutive path nodes must coincide or be grid neighbors.  The integral
    is a trapezoid sum per step, so the result is >= -O(h) for monotone paths.
    """
    _same_space(space, f)
    nodes = np.array([int(k) for k in path], dtype=int)
    if nodes.size < 2:
        raise InvalidPathError("a path needs at least two nodes")
    outside = nodes[(nodes < 0) | (nodes >= space.n_nodes)]
    if outside.size:
        raise InvalidPathError(f"path node {outside[0]} out of range [0, {space.n_nodes})")
    a, b = nodes[:-1], nodes[1:]
    steps = space.distances(a, b)
    if np.any(steps > space.spacing):
        k = int(np.argmax(steps > space.spacing))
        raise InvalidPathError(f"non-adjacent consecutive path nodes ({a[k]}, {b[k]})")
    g = np.sqrt(carre_du_champ(space, f).values)
    increment = abs(f.values[nodes[-1]] - f.values[nodes[0]])
    return float((0.5 * (g[a] + g[b])) @ steps - increment)


def log_field(f: ScalarField) -> ScalarField:
    """Pointwise logarithm; requires a strictly positive field."""
    if np.any(f.values <= 0):
        raise DomainError("log of a field requires strictly positive values")
    return ScalarField(np.log(f.values), f.space)


def interior_min(space: ModelSpace, values: np.ndarray, margin_steps: int = 2) -> float:
    """Minimum over interior nodes (>= margin_steps grid steps from a boundary)."""
    mask = space.interior_mask(margin_steps)
    return float(values[mask].min())
