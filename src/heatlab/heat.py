"""Heat semigroup evaluation via spectral decomposition.

The generator is m-self-adjoint, so the similarity transform
D^{1/2} L D^{-1/2} (D = diag(m)) is symmetric: tridiagonal on intervals, and
circulant on circles, whose Fourier eigenbasis is known in closed form.  One
eigendecomposition gives the semigroup at arbitrary times with no
time-stepping error: the semigroup law, mass conservation and the maximum
principle then hold to roundoff.  Intended for desk scale (n up to ~2000).

A solver holds only the leading modes a flow can see: K = min(n, 32) when
fresh, all n where 8 K >= n (a subset solve then costs about a full one).  A
flow to time t keeps the K(t) modes above the tail cut, dropping mode k once
e^{lambda_k t} n (1 + rho) / sqrt(min m) <= 2^-60 (rho = max_i 2 |L_ii|, a
Gershgorin bound), and re-solves once if it keeps every held mode.  Past the
held modes ``heat_kernel`` takes a Taylor action on the stencil instead.

A solver keeps no per-call state: every ``heat_apply`` call computes its flow.
Callers that compare many node pairs at a few times, such as the Harnack scan,
flow each time once themselves.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .calculus import ScalarField, _laplacian_values, _same_space, _stiffness_bands
from .errors import DomainError, InvalidGeometryError, NumericalError
from .space import ModelSpace, _freeze_arrays


def eigh_tridiagonal(*args, **kwargs):
    """``scipy.linalg.eigh_tridiagonal``, imported on first call: only interval
    spaces solve a tridiagonal problem, so a circle run never loads scipy."""
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(*args, **kwargs)


class ResolutionWarning(UserWarning):
    """The requested time is below the grid's diffusive resolution."""


@dataclass(eq=False)
class SpectralSolver:
    """The leading K <= n eigenpairs of the generator of a model space.

    ``eigenvalues`` are nonincreasing with eigenvalues[0] = 0 exactly and the
    corresponding eigenfield identically 1; columns of ``eigenfields`` are
    orthonormal w.r.t. the m-weighted inner product.  Both are read-only;
    ``hold`` replaces them when a flow needs more modes.
    """

    space: ModelSpace
    eigenvalues: np.ndarray
    eigenfields: np.ndarray
    _rho: float = dc_field(init=False, repr=False)
    _tail: float = dc_field(init=False, repr=False)  # log(2^60 n (1 + rho) / sqrt(min m))

    def __post_init__(self):
        _freeze_arrays(self, eigenvalues=float, eigenfields=float)
        m = self.space.measure
        self._rho = float(np.max(-2.0 * _stiffness_bands(self.space)[0] / m))
        self._tail = math.log(2.0**60 * m.size * (1.0 + self._rho) / math.sqrt(m.min()))

    def hold(self, count: int) -> None:
        """Re-solve in place if the solver holds fewer than min(count, n) modes."""
        if self.eigenvalues.size < min(count, self.space.n_nodes):
            self.eigenvalues, self.eigenfields = _eigenpairs(self.space, count)
            self.eigenvalues.setflags(write=False)
            self.eigenfields.setflags(write=False)

    def project(self, values: np.ndarray) -> np.ndarray:
        """Coefficients <f, e_k>_m of a node field on the held modes."""
        return self.eigenfields.T @ (self.space.measure * values)

    def reconstruct(self, coefficients: np.ndarray) -> np.ndarray:
        return self.eigenfields[:, : coefficients.size] @ coefficients


def time_resolution_floor(space: ModelSpace) -> float:
    """Smallest time at which the discrete kernel of this grid is trustworthy (h^2)."""
    return space.spacing**2


def _circulant_eigh(space: ModelSpace, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenpairs of a circle's circulant symmetrized generator (Davis,
    *Circulant Matrices*, 1979), lambda_k = -4 (c/m) sin^2(pi k / n): all n eigenvalues,
    and the first ``count`` of the unit columns constant, sqrt(2) cos/sin pairs for
    k = 1 .. (n-1)//2, and (-1)^j if n is even."""
    n, m, c = space.n_nodes, space.measure, space.edge_weights / space.spacing
    if np.any(m != m[0]) or np.any(c != c[0]):
        raise InvalidGeometryError(f"{space.model_id}: a circle needs uniform measure and edge weights")
    pairs = np.arange(1, min((n + 1) // 2, count // 2 + 1))
    # Angles 2 pi ((j k) mod n) / n, with j k mod n in exact integer arithmetic.
    phase = np.outer(np.arange(n), pairs) % n
    angle = 2.0 * math.pi * np.arange(n) / n
    vecs = np.ones((n, count))
    vecs[:, 1 : 2 * pairs.size : 2] = math.sqrt(2.0) * np.cos(angle)[phase]
    vecs[:, 2 : 2 * pairs.size + 1 : 2] = math.sqrt(2.0) * np.sin(angle)[phase[:, : (count - 1) // 2]]
    if n % 2 == 0 and count == n:
        vecs[:, -1] = (-1.0) ** np.arange(n)
    k = np.concatenate(([0], np.repeat(np.arange(1, (n + 1) // 2), 2), [n // 2] * (1 - n % 2)))
    return -4.0 * (c[0] / m[0]) * np.sin(math.pi * k / n) ** 2, vecs / math.sqrt(n)


def _tridiagonal(space: ModelSpace) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of D^{1/2} L D^{-1/2} on an interval."""
    d, c = _stiffness_bands(space)
    inv_sqrt_m = 1.0 / np.sqrt(space.measure)
    return d / space.measure, c[:-1] * inv_sqrt_m[:-1] * inv_sqrt_m[1:]


def _eigenpairs(space: ModelSpace, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The leading ``count`` eigenpairs (all n once 8 count >= n), deterministic:
    eigenvalues nonincreasing, each eigenfield's largest-magnitude entry made
    positive, and the constant mode pinned exactly to (0, 1)."""
    n = space.n_nodes
    count = n if 8 * count >= n else count
    try:
        if space.is_circle:  # the closed-form columns come nonincreasing
            vals, vecs = _circulant_eigh(space, count)
            vals = vals[:count]
        else:  # ascending, so reversed
            subset = {} if count == n else {"select": "i", "select_range": (n - count, n - 1),
                                            "lapack_driver": "stemr"}
            vals, vecs = eigh_tridiagonal(*_tridiagonal(space), **subset)
            vals, vecs = vals[::-1], vecs[:, ::-1]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - tridiagonal eigensolvers are robust
        raise NumericalError(f"eigendecomposition failed on {space.model_id}: {exc}") from exc
    # Column-major, so that the leading columns a flow reads are contiguous.
    fields = np.multiply(vecs, (1.0 / np.sqrt(space.measure))[:, None], order="F")
    # Deterministic sign convention, then pin the constant mode exactly and
    # re-orthogonalize the rest against it (removes the eigensolver's dust on
    # the constant direction, which mass conservation depends on).
    flip = fields[np.argmax(np.abs(fields), axis=0), np.arange(count)] < 0
    fields[:, flip] = -fields[:, flip]
    vals[0] = 0.0
    fields[:, 0] = 1.0
    overlap = space.measure @ fields[:, 1:]
    fields[:, 1:] -= overlap[None, :]
    return vals, fields


def build_solver(space: ModelSpace) -> SpectralSolver:
    """A solver holding the leading min(n, 32) modes (all n if n <= 256): closed-form
    columns on circles, an MRRR subset solve on intervals.  A non-uniform
    (hand-built) circle is rejected."""
    return SpectralSolver(space, *_eigenpairs(space, min(space.n_nodes, 32)))


def _unheld_above(solver: SpectralSolver, cut: float) -> bool:
    """Whether modes the solver does not hold may lie above ``cut``."""
    return solver.eigenvalues[-1] > cut and solver.eigenvalues.size < solver.space.n_nodes


def _kept(solver: SpectralSolver, t: float, power: int = 0) -> int:
    """K(t), the held modes above the tail cut (with ``power`` more factors
    |lambda| <= rho), after one re-solve if unheld modes may lie above it."""
    cut = -(solver._tail + power * math.log(solver._rho)) / t
    space, held = solver.space, solver.eigenvalues
    if _unheld_above(solver, cut):
        if space.is_circle:
            above = int(np.count_nonzero(_circulant_eigh(space, 0)[0] > cut))
        else:  # stebz counts by Sturm sequences; tol = rho stops its bisection at once
            above = eigh_tridiagonal(*_tridiagonal(space), eigvals_only=True, select="v",
                                     select_range=(cut, solver._rho), lapack_driver="stebz",
                                     tol=solver._rho).size
        solver.hold(max(above, held.size) + 1)
    return int(np.count_nonzero(solver.eigenvalues > cut))


def _spectral_flow(solver: SpectralSolver, f: ScalarField, t: float, power: int) -> ScalarField:
    """sum_k lambda_k^power e^{lambda_k t} <f, e_k>_m e_k over the K(t) modes above
    the tail cut for that power."""
    k = _kept(solver, t, power)  # may re-solve, so the eigenvalues are read after it
    vals = solver.eigenvalues[:k]
    decayed = vals**power * np.exp(vals * t) * solver.project(f.values)[:k]
    return ScalarField(solver.reconstruct(decayed), solver.space)


def heat_apply(solver: SpectralSolver, f: ScalarField, t: float) -> ScalarField:
    """H_t f = sum_k e^{lambda_k t} <f, e_k>_m e_k for t >= 0, over the K(t)
    modes above the tail cut; H_0 f is f itself.  Every call computes its flow."""
    if t < 0:
        raise DomainError(f"heat flow time must be nonnegative, got {t}")
    _same_space(solver.space, f)
    return f if t == 0 else _spectral_flow(solver, f, t, 0)


def heat_time_derivative(solver: SpectralSolver, f: ScalarField, t: float) -> ScalarField:
    """d/dt H_t f = L H_t f, evaluated spectrally over the modes above a tail
    cut with one more factor |lambda|; requires t > 0."""
    if t <= 0:
        raise DomainError(f"heat flow derivative needs t > 0, got {t}")
    _same_space(solver.space, f)
    return _spectral_flow(solver, f, t, 1)


def _stencil_kernel(solver: SpectralSolver, x: int, t: float) -> np.ndarray:
    """e^{tL}(delta_x / m_x) in ceil(t rho) substeps s, each a Taylor series
    cut after (sL)^19 / 19!: ||sL||_inf <= 1, so a step drops less than 1/20! < 2^-61."""
    space = solver.space
    steps = math.ceil(t * solver._rho)
    # sL v = a v + up v_{i+1} + down v_{i-1}, indices mod n (0 across an interval's ends).
    d, c = _stiffness_bands(space)
    scale = t / steps / space.measure
    a, up, down = scale * d, scale * c, scale * np.roll(c, 1)
    values = np.zeros(space.n_nodes)
    values[x] = 1.0 / space.measure[x]
    for _ in range(steps):
        term = values
        for j in range(1, 20):
            wrapped = np.concatenate((term[-1:], term, term[:1]))
            term = (a * term + up * wrapped[2:] + down * wrapped[:-2]) / j
            values = values + term
    return values


def heat_kernel(solver: SpectralSolver, x: int, t: float) -> ScalarField:
    """p(t, x, .) = sum_k e^{lambda_k t} e_k(x) e_k(.), the density of H_t(delta_x) w.r.t. m,
    over the held modes; when t needs more modes than a partial basis holds,
    e^{tL}(delta_x / m_x) by a Taylor action on the stencil.

    Below the grid's diffusive scale the spectral truncation of the Dirac
    mass oscillates; values below -1e-12 trigger a ResolutionWarning but the
    kernel is still returned.
    """
    if t <= 0:
        raise DomainError(f"heat kernel needs t > 0, got {t}")
    x = solver.space.node_index(x)
    if _unheld_above(solver, -solver._tail / t):
        values = _stencil_kernel(solver, x, t)
    else:
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
    return ScalarField(values, solver.space)


def spectral_laplacian(solver: SpectralSolver, f: ScalarField) -> ScalarField:
    """Reconstruct L f from the full eigendecomposition (consistency companion to `laplacian`)."""
    _same_space(solver.space, f)
    solver.hold(solver.space.n_nodes)
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
