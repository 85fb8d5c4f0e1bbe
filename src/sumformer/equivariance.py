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


# The equivariance check hands its map groups of consecutive draws, each
# group one stack of at most this many tokens; a draw wider than this goes
# alone.  On a default verify (n = 4, so 5 draws a group), smaller groups
# ran slower, and larger ones no faster with more peak memory (BENCH_22.json).
GROUP_TOKENS = 512


def _violations(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """||f(pi X) - pi f(X)||_inf of each (X, pi), from one call of f: X runs
    over the (G, n, d) stack x and pi over row t of the (G, P, n, 1) indices
    p for X_t, in that order.  The arrays of a group die when it returns, so
    they are not alive during the next group's call."""
    groups, count, n = p.shape[:3]
    permuted = np.take_along_axis(x[:, np.newaxis], p, axis=2)
    out = f(np.concatenate([x[:, np.newaxis], permuted], axis=1).reshape(-1, n, x.shape[-1]))
    out = out.reshape(groups, 1 + count, n, -1)
    diff = out[:, 1:] - np.take_along_axis(out[:, :1], p, axis=2)
    return np.max(np.abs(diff, out=diff).reshape(groups * count, -1), axis=1)


def check_equivariance(
    f: Callable[[np.ndarray], np.ndarray],
    n: int,
    d: int,
    trials: int = 100,
    seed: int = 0,
) -> CheckReport:
    """Max over sampled (X, pi) of ||f(pi X) - pi f(X)||_inf.

    Each trial draws one X uniform in [0,1]^{n x d}; for n <= 6 all n!
    permutations are checked per draw, otherwise one random permutation,
    drawn right after its X.
    ``f`` is a stacked map: it takes an (S, n, d) stack to one output per
    sequence, such as ``lambda xs: sumformer_forward(model, xs)`` or a
    construction's ``forward``, and must give each sequence of a stack the
    output it gets alone.  It is called once per group of consecutive
    draws, on the stack [X_t, p_1 X_t, ..., p_P X_t] of each draw t of the
    group, with at most GROUP_TOKENS tokens per call unless one draw alone
    is wider.  The witness is the first worst (X, pi) in draw order, a NaN
    violation counting as worst.
    """
    n, d, trials = require_size("n", n), require_size("d", d), require_size("trials", trials, 0)
    rng = np.random.default_rng(require_size("seed", seed, 0))
    table = np.array(list(_all_perms(range(n)))) if n <= 6 else None
    count = 1 if table is None else len(table)
    group = max(1, GROUP_TOKENS // ((1 + count) * n))
    worst = 0.0
    witness_x = witness_p = None
    for start in range(0, trials, group):
        xs, perms = [], []
        for _ in range(min(group, trials - start)):
            xs.append(rng.uniform(size=(n, d)))
            perms.append(table if table is not None else rng.permutation(n)[np.newaxis])
        p = np.stack(perms)[..., np.newaxis]
        violations = _violations(f, np.stack(xs), p)
        first = first_worse(violations, worst)
        if first is not None:
            t, k = divmod(first, count)
            worst, witness_x, witness_p = float(violations[first]), xs[t], p[t, k, :, 0]
    return CheckReport(worst, witness_x, witness_p)
