"""Dense float64 matrix helpers.

A "matrix" throughout the package is a 2-D C-contiguous float64 numpy
array (rows x cols, row-major).  Reductions delegate to numpy, whose
kernels are deterministic for a fixed platform and array shape, so every
run of the same program produces bitwise identical results.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError


def require_matrix(m: np.ndarray, name: str) -> np.ndarray:
    if not isinstance(m, np.ndarray) or m.ndim != 2:
        raise ShapeError(f"{name} must be a 2-D array")
    return m


def require_finite(m: np.ndarray, name: str) -> np.ndarray:
    if not np.isfinite(m).all():
        raise DomainError(f"{name} contains non-finite entries")
    return m


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction for stability.

    Each output row is nonnegative and sums to 1 (within float rounding);
    adding a constant to an input row leaves its output row unchanged.
    The input is not modified; the exp and the normalisation run in place
    on the one shifted copy.
    """
    require_matrix(m, "m")
    require_finite(m, "softmax input")
    e = m - m.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e
