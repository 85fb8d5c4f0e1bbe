"""Dense float64 matrix helpers.

A "matrix" throughout the package is a 2-D C-contiguous float64 numpy
array (rows x cols, row-major); a stack is an (S, rows, cols) array of
S such matrices.  Reductions delegate to numpy, whose
kernels are deterministic for a fixed platform and array shape, so every
run of the same program produces bitwise identical results.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import ContractError, DomainError, ShapeError


def require_rows(m: np.ndarray, name: str, width: int | None = None) -> np.ndarray:
    """``m`` if it is a matrix or a stack of matrices, with ``width`` columns
    when given; anything else, array-likes included, is a ShapeError."""
    if not isinstance(m, np.ndarray) or m.ndim not in (2, 3) or width not in (None, m.shape[-1]):
        got = f"shape {m.shape}" if isinstance(m, np.ndarray) else type(m).__name__
        columns = "" if width is None else f" of width {width}"
        raise ShapeError(f"{name} must be a 2-D array or a 3-D stack{columns}, got {got}")
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


def softmax_rows(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax exp(m - row max) / row sums of a matrix or stack.

    The result goes into ``out`` (which may be ``m`` itself) when given, else
    into one new array; both give the same bits.  ``m`` and ``out`` must be
    float64 of one shape and ``m`` finite, checked before anything is written.
    Each row sums to 1 within rounding; adding a constant to an input row
    changes nothing.
    """
    require_rows(m, "m")
    for name, a in (("m", m), ("out", m if out is None else out)):
        if not isinstance(a, np.ndarray) or a.shape != m.shape or a.dtype != np.float64:
            raise ShapeError(f"{name} must be a float64 array of shape {m.shape}")
    require_finite(m, "softmax input")
    e = np.subtract(m, m.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e
