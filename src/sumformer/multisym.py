"""Multidegree enumeration, monomial features, and multisymmetric power sums.

A multidegree is an exponent vector alpha in N_0^d with 1 <= |alpha|.
The feature map stacks the monomials x1^a1 * ... * xd^ad for every
multidegree with |alpha| <= n_max; summing it over the rows of a
sequence yields the corresponding vector of power sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Callable

import numpy as np

from .errors import BudgetError, ContractError, CountOverflowError, InvarianceViolationError
from .linalg import BUILD_BUDGET, require_rows, require_size, require_within_budget

MultiDegree = tuple[int, ...]

_MAX_COUNT = 2**63 - 1


@dataclass(frozen=True)
class DegreeBasis:
    """All multidegrees with 1 <= |alpha| <= n_max in graded-lex order.

    Within one total degree, ordering is lexicographically descending,
    e.g. for d=2: (1,0), (0,1), (2,0), (1,1), (0,2).  The order is the
    canonical layout of every latent vector in this package.
    """

    d: int
    n_max: int
    degrees: tuple[MultiDegree, ...]
    exponents: np.ndarray = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.degrees)


def basis_size(d: int, n_max: int) -> int:
    """C(n_max + d, d) - 1, the number of multidegrees with 1 <= |alpha| <= n_max."""
    d, n_max = require_size("d", d, 0), require_size("n_max", n_max, 0)
    return math.comb(n_max + d, d) - 1


def _compositions(total: int, parts: int):
    """All nonnegative integer vectors of given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_multidegrees(d: int, n_max: int) -> DegreeBasis:
    """Enumerate the degree basis for token dimension d up to order n_max:
    more than ``linalg.BUILD_BUDGET`` degrees is a BudgetError, and a count past 64 bits
    a CountOverflowError.  C(n_max + d, low) >= 2**low for low = min(d, n_max),
    so a low above 64 is past 64 bits without computing the binomial."""
    d, n_max = require_size("d", d), require_size("n_max", n_max)
    if min(d, n_max) > 64 or (count := basis_size(d, n_max)) > _MAX_COUNT:
        raise CountOverflowError(f"degree count C({n_max + d},{d})-1 exceeds 64-bit range")
    if count > BUILD_BUDGET:
        raise BudgetError(f"degree count C({n_max + d},{d})-1 = {count} exceeds the budget of {BUILD_BUDGET}")
    degrees: list[MultiDegree] = []
    for total in range(1, n_max + 1):
        degrees.extend(_compositions(total, d))
    assert len(degrees) == count
    exponents = np.array(degrees, dtype=np.int64)
    return DegreeBasis(d=d, n_max=n_max, degrees=tuple(degrees), exponents=exponents)


def monomial_feature_matrix(x_rows: np.ndarray, basis: DegreeBasis) -> np.ndarray:
    """Every basis monomial at every row of an n x d matrix or an (S, n, d) stack.

    0**0 == 1 under numpy float power, as required for absent variables.
    """
    return np.prod(require_rows(x_rows, "rows", basis.d)[..., np.newaxis, :] ** basis.exponents, axis=-1)


def _canonical_row_order(x: np.ndarray) -> np.ndarray:
    """Indices sorting the rows of each sequence lexicographically (first
    column outermost): (n,) for one sequence, (S, n) for a stack."""
    return np.lexsort(np.moveaxis(x, -1, 0)[::-1], axis=-1)


def _canonical_rows(x: np.ndarray) -> np.ndarray:
    """Each sequence's rows in canonical order."""
    return np.take_along_axis(x, _canonical_row_order(x)[..., np.newaxis], axis=-2)


def power_sum(x: np.ndarray, alpha: MultiDegree) -> float | np.ndarray:
    """Sum over tokens of x^alpha: a float for one n x d sequence, an array
    of S sums for an (S, n, d) stack.

    Tokens are sorted lexicographically before the reduction, so the
    value is bitwise identical for any row permutation of x, and each
    sum of a stack is bitwise that of its sequence alone.
    """
    exps = np.asarray(alpha, dtype=np.int64)
    sums = np.sum(np.prod(_canonical_rows(require_rows(x, "x", len(alpha))) ** exps, axis=-1), axis=-1)
    return float(sums) if x.ndim == 2 else sums


def power_sum_vector(x: np.ndarray, basis: DegreeBasis) -> np.ndarray:
    """All power sums of the basis at once; equals monomial features summed
    over tokens.  (d',) for one sequence, (S, d') for an (S, n, d) stack.

    Uses the same canonical token order as power_sum, so row permutations
    of x do not change the result, and each row of a stack's result is
    bitwise that of its sequence alone.  Its entries agree with power_sum
    to rounding, not bitwise: numpy's power may round a monomial differently
    in the two functions' array layouts (seen at d = 1).
    """
    return np.sum(monomial_feature_matrix(_canonical_rows(require_rows(x, "x", basis.d)), basis), axis=-2)


@dataclass(frozen=True)
class FitReport:
    """Least-squares fit of a target over products of power sums."""

    residual: float
    terms: tuple[tuple[MultiDegree, ...], ...]
    coefficients: np.ndarray


def product_terms(d: int, n: int) -> list[tuple[MultiDegree, ...]]:
    """Multisets of generator multidegrees with total degree <= 2n: the terms
    ``generation_oracle`` fits over.

    Generators are the power sums with 1 <= |alpha| <= n; the empty
    product (constant term) is included.
    """
    generators = enumerate_multidegrees(d, n).degrees
    terms: list[tuple[MultiDegree, ...]] = [()]
    for count in range(1, 2 * n + 1):  # every generator has degree >= 1
        for combo in combinations_with_replacement(generators, count):
            if sum(sum(a) for a in combo) <= 2 * n:
                terms.append(tuple(sorted(combo)))
    return terms


def generation_bytes(d: int, n: int, sample_count: int) -> int:
    """Estimated peak bytes of ``generation_oracle`` over ``sample_count``
    draws: its design matrix, lstsq's copy of it and the draws."""
    return 8 * sample_count * (2 * len(product_terms(d, n)) + 3 * n * d + 1)


def generation_oracle(
    target: Callable[[np.ndarray], float],
    d: int,
    n: int,
    sample_count: int = 500,
    seed: int = 0,
) -> FitReport:
    """Check numerically that a multisymmetric target is generated by power sums.

    Fits the target by least squares over all products of power sums up
    to total product degree 2n, on uniform samples in [0,1]^{n x d},
    and reports the max absolute residual.  The target must be invariant
    under row permutations; this is verified on 10 random permutations
    before fitting.  Before any draw, no more draws than terms (a fit that
    any target passes) is a ContractError, and a fit whose
    ``generation_bytes`` exceed ``linalg.MEMORY_BUDGET_BYTES`` a BudgetError.
    """
    terms = product_terms(d, n)  # first, to refuse a d or n that is not a size
    rng = np.random.default_rng(require_size("seed", seed, 0))
    if require_size("sample_count", sample_count) <= len(terms):
        raise ContractError(f"{sample_count} draws cannot test a fit over {len(terms)} terms")
    require_within_budget(generation_bytes(d, n, sample_count), f"{sample_count} oracle draws")
    probe = rng.uniform(size=(n, d))
    reference = target(probe)
    for _ in range(10):
        perm = rng.permutation(n)
        permuted = target(probe[perm])
        if abs(permuted - reference) > 1e-9:
            raise InvarianceViolationError(
                f"target is not permutation-invariant: |{permuted} - {reference}| "
                f"> 1e-9 under permutation {perm.tolist()}",
                permutation=perm,
            )

    samples = rng.uniform(size=(sample_count, n, d))
    sums = {alpha: power_sum(samples, alpha) for alpha in enumerate_multidegrees(d, n).degrees}
    design = np.ones((sample_count, len(terms)))
    for j, term in enumerate(terms):
        for alpha in term:
            design[:, j] *= sums[alpha]
    values = np.array([target(x) for x in samples], dtype=np.float64)
    coeffs, *_ = np.linalg.lstsq(design, values, rcond=None)
    residual = float(np.max(np.abs(design @ coeffs - values)))
    return FitReport(residual=residual, terms=tuple(terms), coefficients=coeffs)
