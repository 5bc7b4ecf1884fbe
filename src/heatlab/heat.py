"""Heat semigroup evaluation via spectral decomposition.

The generator is m-self-adjoint, so the similarity transform
D^{1/2} L D^{-1/2} (D = diag(m)) is symmetric: tridiagonal on intervals, and
circulant on circles, whose Fourier eigenbasis is known in closed form.  One
eigendecomposition gives the semigroup at arbitrary times with no
time-stepping error: the semigroup law, mass conservation and the maximum
principle then hold to roundoff.  Intended for desk scale (n up to ~2000).

Each solver memoizes the flows ``heat_apply`` computes, keyed by
``(float(t), f.values.tobytes())``: checks that flow the same field to the
same time (the Harnack scans, the kernel corollaries, checks sharing a
suite) compute it once.  A hit returns the read-only field the first call
computed, so results are bit-identical with or without the memo.  The memo
holds at most ``max(1, n // 2)`` flows and drops the oldest first, so it
never holds more bytes than the n x n eigenbasis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .calculus import ScalarField, _laplacian_values, _same_space, _stiffness_bands
from .errors import DomainError, InvalidGeometryError, NumericalError
from .space import ModelSpace


class ResolutionWarning(UserWarning):
    """The requested time is below the grid's diffusive resolution."""


@dataclass(frozen=True, eq=False)
class SpectralSolver:
    """Eigendecomposition of the generator of a model space.

    ``eigenvalues`` are nonincreasing with eigenvalues[0] = 0 exactly and the
    corresponding eigenfield identically 1; columns of ``eigenfields`` are
    orthonormal w.r.t. the m-weighted inner product.
    """

    space: ModelSpace
    eigenvalues: np.ndarray
    eigenfields: np.ndarray
    _flows: dict = dc_field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for name in ("eigenvalues", "eigenfields"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def project(self, values: np.ndarray) -> np.ndarray:
        """Coefficients <f, e_k>_m of a node field in the eigenbasis."""
        return self.eigenfields.T @ (self.space.measure * values)

    def reconstruct(self, coefficients: np.ndarray) -> np.ndarray:
        return self.eigenfields @ coefficients

    @property
    def spectral_gap(self) -> float:
        return float(-self.eigenvalues[1])


@dataclass(frozen=True, eq=False)
class HeatKernelField:
    """Density p(t, x, .) of the heat flow started from a Dirac mass at node x."""

    base_index: int
    time: float
    values: np.ndarray
    space: ModelSpace

    def as_field(self) -> ScalarField:
        return ScalarField(self.values, self.space)


def time_resolution_floor(space: ModelSpace) -> float:
    """Smallest time at which the discrete kernel of this grid is trustworthy (h^2)."""
    return space.spacing**2


def _circulant_eigh(space: ModelSpace) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenpairs of a circle's circulant symmetrized generator (Davis,
    *Circulant Matrices*, 1979), lambda_k = -4 (c/m) sin^2(pi k / n), in unit columns:
    constant, sqrt(2) cos/sin pairs for k = 1 .. (n-1)//2, and (-1)^j if n is even."""
    n, m, c = space.n_nodes, space.measure, space.edge_weights / space.spacing
    if np.any(m != m[0]) or np.any(c != c[0]):
        raise InvalidGeometryError(f"{space.model_id}: a circle needs uniform measure and edge weights")
    pairs = np.arange(1, (n + 1) // 2)
    # Angles 2 pi ((j k) mod n) / n, with j k mod n in exact integer arithmetic.
    phase = np.outer(np.arange(n), pairs) % n
    angle = 2.0 * math.pi * np.arange(n) / n
    vecs = np.ones((n, n))
    vecs[:, 1 : 2 * pairs.size : 2] = math.sqrt(2.0) * np.cos(angle)[phase]
    vecs[:, 2 : 2 * pairs.size + 1 : 2] = math.sqrt(2.0) * np.sin(angle)[phase]
    if n % 2 == 0:
        vecs[:, -1] = (-1.0) ** np.arange(n)
    k = np.concatenate(([0], np.repeat(pairs, 2), [n // 2] * (1 - n % 2)))
    return -4.0 * (c[0] / m[0]) * np.sin(math.pi * k / n) ** 2, vecs / math.sqrt(n)


def build_solver(space: ModelSpace) -> SpectralSolver:
    """Symmetric eigendecomposition of the generator: closed-form circulant
    basis on circles, tridiagonal eigensolver on intervals.

    Deterministic for a fixed space: eigenvalues sorted nonincreasing, each
    eigenfield's largest-magnitude entry made positive, and the constant mode
    pinned exactly to (0, 1).  A non-uniform (hand-built) circle is rejected.
    """
    n = space.n_nodes
    inv_sqrt_m = 1.0 / np.sqrt(space.measure)
    try:
        if space.is_circle:
            vals, vecs = _circulant_eigh(space)
        else:
            d, c = _stiffness_bands(space)
            off = c[:-1] * inv_sqrt_m[:-1] * inv_sqrt_m[1:]
            vals, vecs = eigh_tridiagonal(d / space.measure, off)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - tridiagonal eigensolvers are robust
        raise NumericalError(f"eigendecomposition failed on {space.model_id}: {exc}") from exc
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    fields = vecs[:, order] * inv_sqrt_m[:, None]
    # Deterministic sign convention, then pin the constant mode exactly and
    # re-orthogonalize the rest against it (removes the eigensolver's dust on
    # the constant direction, which mass conservation depends on).
    flip = fields[np.argmax(np.abs(fields), axis=0), np.arange(n)] < 0
    fields[:, flip] = -fields[:, flip]
    vals[0] = 0.0
    fields[:, 0] = 1.0
    overlap = space.measure @ fields[:, 1:]
    fields[:, 1:] -= overlap[None, :]
    return SpectralSolver(space=space, eigenvalues=vals, eigenfields=fields)


def heat_apply(solver: SpectralSolver, f: ScalarField, t: float) -> ScalarField:
    """H_t f = sum_k e^{lambda_k t} <f, e_k>_m e_k for t >= 0.

    Memoized per solver on ``(float(t), f.values.tobytes())``, at most
    ``max(1, n // 2)`` flows, oldest dropped first; a hit returns the same
    read-only field, bit for bit, that computing the flow again would.
    """
    if t < 0:
        raise DomainError(f"heat flow time must be nonnegative, got {t}")
    _same_space(solver.space, f)
    key = (float(t), f.values.tobytes())
    flows = solver._flows
    hit = flows.get(key)
    if hit is not None:
        return hit
    coef = solver.project(f.values)
    decayed = np.exp(solver.eigenvalues * t) * coef
    flowed = ScalarField(solver.reconstruct(decayed), solver.space)
    if len(flows) >= max(1, solver.space.n_nodes // 2):
        flows.pop(next(iter(flows)), None)
    flows[key] = flowed
    return flowed


def heat_time_derivative(solver: SpectralSolver, f: ScalarField, t: float) -> ScalarField:
    """d/dt H_t f = L H_t f, evaluated spectrally; requires t > 0."""
    if t <= 0:
        raise DomainError(f"heat flow derivative needs t > 0, got {t}")
    _same_space(solver.space, f)
    coef = solver.project(f.values)
    decayed = solver.eigenvalues * np.exp(solver.eigenvalues * t) * coef
    return ScalarField(solver.reconstruct(decayed), solver.space)


def heat_kernel(solver: SpectralSolver, x: int, t: float) -> HeatKernelField:
    """p(t, x, .) = sum_k e^{lambda_k t} e_k(x) e_k(.), the density of H_t(delta_x) w.r.t. m.

    Below the grid's diffusive scale the spectral truncation of the Dirac
    mass oscillates; values below -1e-12 trigger a ResolutionWarning but the
    kernel is still returned.
    """
    if t <= 0:
        raise DomainError(f"heat kernel needs t > 0, got {t}")
    x = solver.space.node_index(x)
    weights = np.exp(solver.eigenvalues * t) * solver.eigenfields[x, :]
    values = solver.eigenfields @ weights
    low = float(values.min())
    if low < -1e-12:
        warnings.warn(
            f"heat kernel at t={t:g} dips to {low:.3e} < -1e-12; "
            f"grid resolves times >= {time_resolution_floor(solver.space):g}",
            ResolutionWarning,
            stacklevel=2,
        )
    return HeatKernelField(base_index=x, time=float(t), values=values, space=solver.space)


def spectral_laplacian(solver: SpectralSolver, f: ScalarField) -> ScalarField:
    """Reconstruct L f from the eigendecomposition (consistency companion to `laplacian`)."""
    _same_space(solver.space, f)
    coef = solver.project(f.values)
    return ScalarField(solver.reconstruct(solver.eigenvalues * coef), solver.space)


def laplacian_consistency_error(solver: SpectralSolver, f: ScalarField) -> float:
    """Relative sup distance between spectral and stencil Laplacians of f,
    normalized by the spectral radius and the field's sup norm."""
    spectral = spectral_laplacian(solver, f).values
    direct = _laplacian_values(solver.space, f.values)
    scale = float(np.max(np.abs(solver.eigenvalues))) * max(float(np.max(np.abs(f.values))), 1e-300)
    return float(np.max(np.abs(spectral - direct))) / scale


class GaussianKernelValues(NamedTuple):
    density: float
    grad_log_sq: float
    dt_log: float


def gaussian_kernel_oracle(N: float, t: float, r: float) -> GaussianKernelValues:
    """Closed-form Euclidean heat kernel data at dimension N, time t, radius r.

    Returns (p, |grad log p|^2, d/dt log p) with
    p = (4 pi t)^{-N/2} e^{-r^2/4t}; the combination
    grad_log_sq - dt_log equals N/(2t) identically (the equality case of the
    parabolic gradient bound).
    """
    if t <= 0:
        raise DomainError(f"kernel oracle needs t > 0, got {t}")
    if N < 1:
        raise DomainError(f"kernel oracle needs N >= 1, got {N}")
    if r < 0:
        raise DomainError(f"kernel oracle needs r >= 0, got {r}")
    density = (4.0 * math.pi * t) ** (-N / 2.0) * math.exp(-r * r / (4.0 * t))
    grad_log_sq = r * r / (4.0 * t * t)
    dt_log = grad_log_sq - N / (2.0 * t)
    return GaussianKernelValues(density, grad_log_sq, dt_log)
