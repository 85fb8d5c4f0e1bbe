"""The semi-invariant-to-equivariant lift and the equivariance check driver.

A sequence-to-sequence map f is equivariant when f(permuted X) equals
the same permutation of f(X).  A sequence-to-point map g(x1, rest) is
semi-invariant when it ignores the order of ``rest``.  ``lift`` converts
a semi-invariant g into the equivariant map whose row i applies g with
token i in front.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as _all_perms
from typing import Callable

import numpy as np

from .errors import ShapeError
from .linalg import require_rows, require_size

# g(token, other_tokens) -> output vector; other_tokens is an (n-1) x d matrix
# whose row order must not matter.  A g that ``lift`` may hand stacks takes
# (..., d) tokens with (..., n-1, d) rests: it reduces the rest over axis -2
# and takes no ``float()`` of a per-sequence value.
SemiInvariantFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def lift(g: SemiInvariantFn) -> Callable[[np.ndarray], np.ndarray]:
    """Equivariant sequence map whose row i is g(x_i, all other rows).

    It takes an (n, d) sequence or an (S, n, d) stack and calls
    ``g(x[..., i, :], np.delete(x, i, axis=-2))`` once per token position,
    so on a stack g must reduce the rest over axis -2 and take no
    ``float()`` of a per-sequence value.
    """

    def lifted(x: np.ndarray) -> np.ndarray:
        n = require_rows(x, "X").shape[-2]
        if n < 1:
            raise ShapeError("lift needs at least one token per sequence")
        out = None
        for i in range(n):
            row = np.reshape(g(x[..., i, :], np.delete(x, i, axis=-2)), x.shape[:-2] + (-1,))
            if out is None:
                out = np.empty(x.shape[:-2] + (n, row.shape[-1]))
            out[..., i, :] = row
        return out

    return lifted


@dataclass
class CheckReport:
    """Result of a sampled invariance check."""

    max_violation: float
    witness_input: np.ndarray | None
    witness_permutation: np.ndarray | None


def worse(residual: float, worst: float) -> bool:
    """Whether ``residual`` replaces ``worst`` as the worst case.  NaN is worse
    than every number, so a check whose cases come out NaN fails rather than
    passing with residual 0."""
    return residual > worst or (np.isnan(residual) and not np.isnan(worst))


def first_worse(residuals: np.ndarray, worst: float) -> int | None:
    """Index of the residual that a scan in order with ``worse`` would end on
    (the first maximum, or the first NaN), if it replaces ``worst``."""
    first = int(np.argmax(residuals))
    return first if worse(float(residuals[first]), worst) else None


def _permutations_for(n: int, rng: np.random.Generator):
    """All permutations for n <= 6, a single random draw otherwise."""
    if n <= 6:
        for p in _all_perms(range(n)):
            yield np.array(p)
    else:
        yield rng.permutation(n)


def check_equivariance(
    f: Callable[[np.ndarray], np.ndarray],
    n: int,
    d: int,
    trials: int = 100,
    seed: int = 0,
) -> CheckReport:
    """Max over sampled (X, pi) of ||f(pi X) - pi f(X)||_inf.

    Each trial draws one X uniform in [0,1]^{n x d}; for n <= 6 all n!
    permutations are checked per draw, otherwise one random permutation.
    ``f`` is a stacked map: it takes an (S, n, d) stack to one output per
    sequence, such as ``lambda xs: sumformer_forward(model, xs)`` or a
    construction's ``forward``.
    It is called once per draw, on the stack [X, p_1 X, ..., p_P X].  The
    witness is the first worst (X, pi), a NaN violation counting as worst.
    """
    n, d, trials = require_size("n", n), require_size("d", d), require_size("trials", trials, 0)
    rng = np.random.default_rng(seed)
    worst = 0.0
    witness_x = witness_p = None
    for _ in range(trials):
        x = rng.uniform(size=(n, d))
        perms = np.array(list(_permutations_for(n, rng)))
        out = f(np.concatenate([x[np.newaxis], x[perms]]))
        violations = np.max(np.abs(out[1:] - out[0][perms]).reshape(len(perms), -1), axis=1)
        first = first_worse(violations, worst)
        if first is not None:
            worst, witness_x, witness_p = float(violations[first]), x, perms[first]
    return CheckReport(worst, witness_x, witness_p)
