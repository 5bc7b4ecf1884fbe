"""Finite discretizations of 1-D model metric measure spaces.

A model space is a uniform grid carrying a probability measure obtained from a
named weight density (flat, sin^{N-1}, sinh^{N-1}) by trapezoid quadrature and
global normalization.  All other modules (calculus, heat, transport,
inequalities) operate on these objects; they are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, InvalidGeometryError, InvalidParameterError

TOPOLOGY_INTERVAL = "interval-neumann"
TOPOLOGY_CIRCLE = "circle"


def _freeze_arrays(obj, **dtypes) -> tuple[np.ndarray, ...]:
    """Set each named array attribute of ``obj`` to a read-only copy of the given
    dtype, and return the copies.  Copying leaves the caller's array writable, and
    no later write to it (or to the base of a slice it was) reaches the object."""
    for name, dtype in dtypes.items():
        arr = np.array(getattr(obj, name), dtype=dtype)
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)
    return tuple(getattr(obj, name) for name in dtypes)


@dataclass(frozen=True)
class CurvatureDimension:
    """Curvature-dimension pair (K, N): K a curvature lower bound, N >= 1 a dimension upper bound."""

    K: float
    N: float

    def __post_init__(self):
        if not math.isfinite(self.K):
            raise InvalidParameterError(f"curvature bound K must be finite, got {self.K}")
        if not (math.isfinite(self.N) and self.N >= 1.0):
            raise InvalidParameterError(f"dimension bound N must satisfy N >= 1, got {self.N}")


@dataclass(frozen=True, eq=False)
class ModelSpace:
    """Uniform-grid discretization of a weighted 1-D metric measure space.

    Attributes
    ----------
    nodes : ndarray
        Strictly increasing node coordinates.
    spacing : float
        Uniform grid step h.
    measure : ndarray
        Per-node probability weights m_i (sum exactly normalized to 1).
    edge_weights : ndarray
        Normalized weight density at edge midpoints; the Sturm-Liouville
        conductance of edge e is ``edge_weights[e] / spacing``.  Length
        n-1 on intervals, n on circles (last entry is the wrap edge).
    topology : str
        ``"interval-neumann"`` or ``"circle"``.
    weight_profile : str
        Name of the density the measure was built from.
    length : float
        Interval length, or circle circumference.
    expected_cd : CurvatureDimension or None
        The (K, N) the model is designed to realize, recorded as metadata.
    """

    nodes: np.ndarray
    spacing: float
    measure: np.ndarray
    edge_weights: np.ndarray
    topology: str
    weight_profile: str
    length: float
    expected_cd: Optional[CurvatureDimension] = None
    # Analytic log-derivative w'/w of the weight density and its derivative,
    # used by closed-form oracles; None for profiles without one.
    weight_log_derivative: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, repr=False, compare=False
    )
    weight_log_derivative_prime: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        nodes, measure, edge_weights = _freeze_arrays(self, nodes=float, measure=float, edge_weights=float)
        if self.topology not in (TOPOLOGY_INTERVAL, TOPOLOGY_CIRCLE):
            raise InvalidGeometryError(f"unknown topology {self.topology!r}")
        if nodes.ndim != 1 or nodes.size < 3:
            raise InvalidGeometryError("a model space needs at least 3 nodes")
        if not np.all(np.diff(nodes) > 0):
            raise InvalidGeometryError("nodes must be strictly increasing")
        if not self.spacing > 0:
            raise InvalidGeometryError(f"spacing must be positive, got {self.spacing}")
        if measure.shape != nodes.shape:
            raise InvalidGeometryError("measure and nodes must have equal length")
        if np.any(measure <= 0):
            raise InvalidGeometryError("all measure weights must be strictly positive")
        if edge_weights.shape != (self.n_edges,):
            raise InvalidGeometryError(
                f"expected {self.n_edges} edge weights, got {edge_weights.shape}"
            )
        if np.any(edge_weights <= 0):
            raise InvalidGeometryError("all edge weights must be strictly positive")

    # -- basic geometry -------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @property
    def n_edges(self) -> int:
        return self.n_nodes if self.is_circle else self.n_nodes - 1

    @property
    def is_circle(self) -> bool:
        return self.topology == TOPOLOGY_CIRCLE

    def node_index(self, x) -> int:
        """``x`` as a node index; raises DomainError unless 0 <= x < n_nodes (no wraparound)."""
        if not 0 <= int(x) < self.n_nodes:
            raise DomainError(f"node index {x} out of range [0, {self.n_nodes})")
        return int(x)

    def distances(self, i, j) -> np.ndarray:
        """Metric distances between node index arrays i and j, broadcast (arc distance on circles)."""
        # Uniform grid: work with index offsets so distances are exact
        # multiples of h up to a single rounding.
        k = np.abs(np.subtract(i, j))
        if self.is_circle:
            k = np.minimum(k, self.n_nodes - k)
        return k * self.spacing

    def distance(self, i: int, j: int) -> float:
        """Metric distance between nodes i and j (arc distance on circles)."""
        return float(self.distances(int(i), int(j)))

    def distance_matrix(self) -> np.ndarray:
        idx = np.arange(self.n_nodes)
        return self.distances(idx[:, None], idx[None, :])

    def interior_mask(self, margin_steps: int = 2) -> np.ndarray:
        """Boolean mask of nodes at least ``margin_steps`` grid steps from a boundary.

        Circles have no boundary, so every node is interior.
        """
        mask = np.ones(self.n_nodes, dtype=bool)
        if not self.is_circle:
            mask[:margin_steps] = False
            mask[self.n_nodes - margin_steps:] = False
        return mask

    # -- bookkeeping -----------------------------------------------------

    @property
    def model_id(self) -> str:
        cd = self.expected_cd
        cd_txt = f"K={cd.K:g},N={cd.N:g}" if cd is not None else "K=?,N=?"
        return f"{self.weight_profile}:{self.topology}:n={self.n_nodes}:h={self.spacing:.6g}:{cd_txt}"

    def content_hash(self) -> str:
        """Hash of the discretization data; fingerprints reports."""
        digest = hashlib.sha256()
        digest.update(self.topology.encode())
        digest.update(self.nodes.tobytes())
        digest.update(self.measure.tobytes())
        digest.update(self.edge_weights.tobytes())
        return digest.hexdigest()[:16]


def _edge_midpoints(nodes: np.ndarray, spacing: float, circle: bool) -> np.ndarray:
    mids = nodes[:-1] + 0.5 * spacing
    if circle:
        mids = np.append(mids, nodes[-1] + 0.5 * spacing)
    return mids


def _assemble(
    nodes: np.ndarray,
    spacing: float,
    weight: Callable[[np.ndarray], np.ndarray],
    topology: str,
    profile_name: str,
    length: float,
    expected_cd: CurvatureDimension,
    clamp_endpoints: bool = False,
    log_deriv: Optional[Callable] = None,
    log_deriv_prime: Optional[Callable] = None,
) -> ModelSpace:
    """Turn a weight density into normalized node/edge weights.

    Node weights use w(x_i) * h with trapezoid end-correction (half weight at
    interval endpoints); ``clamp_endpoints`` replaces a vanishing endpoint
    density by its value one half-step inward so every m_i stays positive.
    The same normalization constant divides node and edge weights, which keeps
    the discrete Laplacian independent of it.
    """
    circle = topology == TOPOLOGY_CIRCLE
    w_nodes = np.asarray(weight(nodes), dtype=float).copy()
    if clamp_endpoints:
        w_nodes[0] = float(weight(nodes[0] + 0.5 * spacing))
        w_nodes[-1] = float(weight(nodes[-1] - 0.5 * spacing))
    if np.any(w_nodes <= 0):
        raise InvalidGeometryError("weight density must be positive at (clamped) nodes")
    trapezoid = np.ones_like(w_nodes)
    if not circle:
        trapezoid[0] = trapezoid[-1] = 0.5
    raw = w_nodes * spacing * trapezoid
    total = raw.sum()
    measure = raw / total
    # Renormalize once more so the sum is exactly 1 in floating point.
    measure = measure / measure.sum()
    edge_w = np.asarray(weight(_edge_midpoints(nodes, spacing, circle)), dtype=float) / total
    return ModelSpace(
        nodes=nodes,
        spacing=spacing,
        measure=measure,
        edge_weights=edge_w,
        topology=topology,
        weight_profile=profile_name,
        length=length,
        expected_cd=expected_cd,
        weight_log_derivative=log_deriv,
        weight_log_derivative_prime=log_deriv_prime,
    )


def build_interval(n: int, length: float, cd: Optional[CurvatureDimension] = None) -> ModelSpace:
    """Flat interval [0, length] with Neumann-closed boundary; realizes (K, N) = (0, 1).

    ``cd`` overrides the recorded curvature-dimension metadata (the geometry
    itself always realizes (0, 1)).
    """
    if n < 3:
        raise InvalidGeometryError(f"interval needs n >= 3 nodes, got {n}")
    if not length > 0:
        raise InvalidGeometryError(f"interval length must be positive, got {length}")
    h = length / (n - 1)
    nodes = np.linspace(0.0, length, n)
    return _assemble(
        nodes, h, lambda x: np.ones_like(x), TOPOLOGY_INTERVAL, "flat", length,
        cd or CurvatureDimension(0.0, 1.0),
        log_deriv=lambda x: np.zeros_like(x),
        log_deriv_prime=lambda x: np.zeros_like(x),
    )


def build_circle(n: int, circumference: float, cd: Optional[CurvatureDimension] = None) -> ModelSpace:
    """Flat circle of given circumference with arc-distance metric; realizes (0, 1)."""
    if n < 3:
        raise InvalidGeometryError(f"circle needs n >= 3 nodes, got {n}")
    if not circumference > 0:
        raise InvalidGeometryError(f"circumference must be positive, got {circumference}")
    h = circumference / n
    nodes = np.arange(n) * h
    return _assemble(
        nodes, h, lambda x: np.ones_like(x), TOPOLOGY_CIRCLE, "flat", circumference,
        cd or CurvatureDimension(0.0, 1.0),
        log_deriv=lambda x: np.zeros_like(x),
        log_deriv_prime=lambda x: np.zeros_like(x),
    )


def build_sphere_model(n: int, N: float) -> ModelSpace:
    """Radial part of the round N-sphere: ([0, pi], sin^{N-1}(x) dx); realizes (N-1, N).

    The density vanishes at the poles; endpoint node weights are clamped to the
    value one half-step inward so the measure stays strictly positive and the
    Sturm-Liouville operator remains well defined.
    """
    if n < 3:
        raise InvalidGeometryError(f"sphere model needs n >= 3 nodes, got {n}")
    if not N > 1:
        raise InvalidParameterError(f"sphere model needs dimension N > 1, got {N}")
    h = math.pi / (n - 1)
    nodes = np.linspace(0.0, math.pi, n)
    power = N - 1.0

    def weight(x):
        return np.sin(x) ** power

    return _assemble(
        nodes, h, weight, TOPOLOGY_INTERVAL, "sin^{N-1}", math.pi,
        CurvatureDimension(N - 1.0, float(N)), clamp_endpoints=True,
        log_deriv=lambda x: power / np.tan(x),
        log_deriv_prime=lambda x: -power / np.sin(x) ** 2,
    )


def build_hyperbolic_model(n: int, N: float, radius: float) -> ModelSpace:
    """Radial hyperbolic model: ([delta, R], sinh^{N-1}(x) dx); realizes (-(N-1), N).

    The grid starts at delta = R/n (= one grid step) to avoid the sinh^{N-1}
    degeneracy at the origin.
    """
    if n < 3:
        raise InvalidGeometryError(f"hyperbolic model needs n >= 3 nodes, got {n}")
    if not N > 1:
        raise InvalidParameterError(f"hyperbolic model needs dimension N > 1, got {N}")
    if not radius > 0:
        raise InvalidParameterError(f"hyperbolic model needs radius R > 0, got {radius}")
    delta = radius / n
    h = (radius - delta) / (n - 1)  # equals delta: uniform grid [R/n, R]
    nodes = delta + np.arange(n) * h
    power = N - 1.0

    def weight(x):
        return np.sinh(x) ** power

    return _assemble(
        nodes, h, weight, TOPOLOGY_INTERVAL, "sinh^{N-1}", radius - delta,
        CurvatureDimension(-(N - 1.0), float(N)),
        log_deriv=lambda x: power / np.tanh(x),
        log_deriv_prime=lambda x: -power / np.sinh(x) ** 2,
    )


#: Constructors addressable by name from scenario files.
MODEL_BUILDERS: dict[str, Callable[..., ModelSpace]] = {
    "interval": build_interval,
    "circle": build_circle,
    "sphere_model": build_sphere_model,
    "hyperbolic_model": build_hyperbolic_model,
}

#: Expected curvature-dimension metadata per constructor, as display strings.
MODEL_CATALOG = {
    "interval": "(0, 1)",
    "circle": "(0, 1)",
    "sphere_model": "(N-1, N)",
    "hyperbolic_model": "(-(N-1), N)",
}
