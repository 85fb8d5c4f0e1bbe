"""Plain per-vector references and small helpers that only the tests use."""

import numpy as np

from sumformer.errors import ShapeError
from sumformer.mlp import MlpParams, MlpSpec
from sumformer.multisym import DegreeBasis, FitReport, MultiDegree


def invert(p: np.ndarray) -> np.ndarray:
    """The permutation q with permute(permute(x, p), q) == x."""
    inv = np.empty_like(p)
    inv[p] = np.arange(len(p))
    return inv


def zero_mlp_params(spec: MlpSpec) -> MlpParams:
    return [
        (np.zeros((fi, fo)), np.zeros((1, fo)))
        for fi, fo in zip(spec.layer_widths, spec.layer_widths[1:])
    ]


def coefficient_of(report: FitReport, *alphas: MultiDegree) -> float:
    """The fitted coefficient of the product of the power sums ``alphas``."""
    key = tuple(sorted(alphas))
    for term, coeff in zip(report.terms, report.coefficients):
        if term == key:
            return float(coeff)
    raise KeyError(f"term {key} not in fit")


def performer_features(x: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """(1/sqrt(k)) exp(-|x|^2 / 2) [exp(w_1.x), ..., exp(w_k.x)] for one vector x."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if omegas.ndim != 2 or omegas.shape[1] != x.shape[0]:
        raise ShapeError(f"omegas shape {omegas.shape} vs vector length {x.shape[0]}")
    return np.exp(omegas @ x - 0.5 * float(x @ x)) / np.sqrt(omegas.shape[0])


def monomial_features(x: np.ndarray, basis: DegreeBasis) -> np.ndarray:
    """Every basis monomial at a single token x (length-d vector)."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != basis.d:
        raise ShapeError(f"token has dimension {x.shape[0]}, basis expects {basis.d}")
    # 0**0 == 1 under numpy float power, as required for absent variables.
    return np.prod(x[np.newaxis, :] ** basis.exponents, axis=1)
