"""Named analytic field profiles used by scenarios and test suites."""

from __future__ import annotations

import numpy as np

from .calculus import ScalarField
from .errors import InvalidParameterError
from .space import ModelSpace


def constant_profile(space: ModelSpace, value: float = 1.0) -> ScalarField:
    return ScalarField(np.full(space.n_nodes, float(value)), space)


def cosine_profile(
    space: ModelSpace,
    amplitude: float = 1.0,
    frequency: float = 1.0,
    phase: float = 0.0,
    offset: float = 0.0,
) -> ScalarField:
    values = offset + amplitude * np.cos(frequency * space.nodes + phase)
    return ScalarField(values, space)


def gaussian_bump_profile(
    space: ModelSpace,
    center: float,
    width: float,
    amplitude: float = 1.0,
    offset: float = 0.0,
) -> ScalarField:
    """exp bump in metric distance from ``center``; periodic on circles."""
    if width <= 0:
        raise InvalidParameterError(f"bump width must be positive, got {width}")
    delta = np.abs(space.nodes - center)
    if space.is_circle:
        delta = np.minimum(delta, space.length - delta)
    values = offset + amplitude * np.exp(-((delta / width) ** 2))
    return ScalarField(values, space)


def tabulated_profile(space: ModelSpace, values: list[float]) -> ScalarField:
    return ScalarField(np.asarray(values, dtype=float), space)


def _neumann_modes(space: ModelSpace, k: int) -> np.ndarray:
    """k-th smooth mode compatible with the space's boundary rule."""
    if space.is_circle:
        return np.cos(2.0 * np.pi * k * space.nodes / space.length)
    rel = (space.nodes - space.nodes[0]) / (space.nodes[-1] - space.nodes[0])
    return np.cos(np.pi * k * rel)


def smooth_nonnegative_suite(
    space: ModelSpace,
    count: int,
    seed: int,
    modes: int = 3,
    min_value: float = 0.2,
    amplitude: float = 1.0,
) -> list[ScalarField]:
    """Seeded family of smooth nonnegative fields built from low boundary-compatible modes.

    Each field is an order-``modes`` combination with 1/k^2 spectral decay
    (circles also get sine modes), rescaled so its minimum is ``min_value``
    and its range is ``amplitude``.
    """
    if count < 1:
        raise InvalidParameterError(f"suite needs count >= 1, got {count}")
    if min_value < 0:
        raise InvalidParameterError(f"suite needs min_value >= 0, got {min_value}")
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(count):
        values = np.zeros(space.n_nodes)
        for k in range(1, modes + 1):
            values += rng.normal() / k**2 * _neumann_modes(space, k)
            if space.is_circle:
                values += rng.normal() / k**2 * np.sin(
                    2.0 * np.pi * k * space.nodes / space.length
                )
        span = float(values.max() - values.min())
        if span < 1e-12:
            values = np.zeros(space.n_nodes)
            span = 1.0
        values = min_value + amplitude * (values - values.min()) / span
        fields.append(ScalarField(values, space))
    return fields


#: Profiles addressable by name from scenario files; their arguments after ``space`` are params.
FIELD_PROFILES = {
    "constant": constant_profile,
    "cosine": cosine_profile,
    "gaussian_bump": gaussian_bump_profile,
    "tabulated": tabulated_profile,
    "smooth_suite": smooth_nonnegative_suite,
}


def build_fields(space: ModelSpace, profile: str, params: dict, seed: int) -> list[ScalarField]:
    """Instantiate a named profile; suites expand to several fields, seeded by
    ``seed`` unless ``params`` sets one."""
    if profile not in FIELD_PROFILES:
        raise InvalidParameterError(f"unknown field profile {profile!r}")
    if profile == "smooth_suite":
        return smooth_nonnegative_suite(space, **{"seed": seed, **params})
    return [FIELD_PROFILES[profile](space, **params)]
