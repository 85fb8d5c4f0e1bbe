"""Benchmark target functions.

Every target is given as a semi-invariant g(token, rest) where ``rest``
enters only through its row sum, and lifted to an equivariant
sequence-to-sequence function row by row.  ``cubic_coupling`` is the
primary benchmark; the other four are synthetic stand-ins, three for
coverage of the polynomial / non-polynomial split and ``constant`` as a
training sanity target.

Each g takes stacks, (..., d) tokens with (..., n-1, d) rests: it reduces
the rest over axis -2 and takes no ``float()`` of a per-sequence value.
So the lift of an (S, n, d) stack is n calls of g, and each slice has the
bits of its sequence lifted alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .equivariance import lift
from .errors import ConfigError


@dataclass(frozen=True)
class TargetFunction:
    """Named semi-invariant target with its equivariant lift."""

    name: str
    kind: str  # "polynomial" or "non-polynomial"
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def lifted(self) -> Callable[[np.ndarray], np.ndarray]:
        return lift(self.g)


def _cubic_coupling(x: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """x + 7 x^2 + 3 x (sum rest)^3, componentwise."""
    s = rest.sum(axis=-2)
    return x + 7.0 * x**2 + 3.0 * x * s**3


def _quadratic_sum(x: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """x + (sum rest)^2, componentwise."""
    s = rest.sum(axis=-2)
    return x + s**2


def _sine_gauss(x: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """sin(pi x) * exp(-|sum rest|^2), componentwise in x."""
    s = rest.sum(axis=-2)
    return np.sin(np.pi * x) * np.exp(-np.matmul(s[..., None, :], s[..., :, None])[..., 0])


def _softplus(z):
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)


def _softplus_mix(x: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """Mixture of softplus ramps steered by the largest component of sum rest."""
    s = rest.sum(axis=-2)
    peak = np.max(s, axis=-1, keepdims=True)
    return 0.5 * _softplus(2.0 * x - peak) + 0.5 * _softplus(peak - x)


def _constant(x: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """Constant 0.5 in every component (training sanity target)."""
    return np.full_like(x, 0.5)


TARGETS = {
    t.name: t
    for t in (
        TargetFunction("cubic_coupling", "polynomial", _cubic_coupling),
        TargetFunction("quadratic_sum", "polynomial", _quadratic_sum),
        TargetFunction("sine_gauss", "non-polynomial", _sine_gauss),
        TargetFunction("softplus_mix", "non-polynomial", _softplus_mix),
        TargetFunction("constant", "polynomial", _constant),
    )
}


def get_target(name: str) -> TargetFunction:
    try:
        return TARGETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown target {name!r}; available: {', '.join(sorted(TARGETS))}"
        ) from None
