"""The argument contract every module uses: arrays, sizes, finiteness, budgets.

A "matrix" throughout the package is a 2-D C-contiguous float64 numpy
array (rows x cols, row-major); a stack is an (S, rows, cols) array of
S such matrices.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import BudgetError, ContractError, DomainError, ShapeError

# The memory a run or a construction may need: ``train``, ``sweep`` and
# ``verify`` refuse a configuration whose estimate (``train.training_bytes``,
# for a sweep its largest cell; ``verify.verify_bytes``) exceeds it, and
# ``build_sum_extraction`` a construction whose weights would.
MEMORY_BUDGET_BYTES = 2 * 2**30
# The most degrees ``enumerate_multidegrees`` lists, and the most grid-table
# cells ``build_discrete_sumformer`` fills.
BUILD_BUDGET = 10**6


def require_rows(m: np.ndarray, name: str, width: int | None = None) -> np.ndarray:
    """``m`` if it is a matrix or a stack of matrices, with ``width`` columns
    when given; anything else, array-likes included, is a ShapeError.  An
    array of other than bools, integers or floats is a DomainError."""
    if not isinstance(m, np.ndarray) or m.ndim not in (2, 3) or width not in (None, m.shape[-1]):
        got = f"shape {m.shape}" if isinstance(m, np.ndarray) else type(m).__name__
        columns = "" if width is None else f" of width {width}"
        raise ShapeError(f"{name} must be a 2-D array or a 3-D stack{columns}, got {got}")
    if m.dtype.kind not in "biuf":
        raise DomainError(f"{name} must hold real numbers, got dtype {m.dtype}")
    return m


def require_size(name: str, value, low: int = 1) -> int:
    """``value`` as a Python int if it is an integer (numpy's included, a bool
    not) of at least ``low``; anything else is a ContractError."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            if (size := operator.index(value)) >= low:
                return size
        except TypeError:
            pass
    raise ContractError(f"{name} must be an integer >= {low}, got {value!r}")


def require_finite(m: np.ndarray, name: str) -> np.ndarray:
    if not np.isfinite(m).all():
        raise DomainError(f"{name} contains non-finite entries")
    return m


def require_within_budget(need: int, what: str) -> None:
    """A BudgetError if ``need``, the bytes ``what`` need, exceeds MEMORY_BUDGET_BYTES."""
    if need > MEMORY_BUDGET_BYTES:
        # A float holds the size up to about 2**1024 bytes.
        size = f"about {need / 2**30:.3g} GiB" if need < 2**1000 else "over 2**1000 bytes"
        raise BudgetError(f"{what} need {size}, over the {MEMORY_BUDGET_BYTES / 2**30:g} GiB budget")
