"""Plain per-vector references and small helpers that only the tests use."""

import math
from typing import Callable

import numpy as np

from sumformer.attention import ROW_BLOCK
from sumformer.equivariance import CheckReport, SemiInvariantFn, _permutations_for, lift, worse
from sumformer.errors import ShapeError
from sumformer.mlp import MlpParams, MlpSpec
from sumformer.multisym import DegreeBasis, FitReport, MultiDegree


def invert(p: np.ndarray) -> np.ndarray:
    """The permutation q with permute(permute(x, p), q) == x."""
    inv = np.empty_like(p)
    inv[p] = np.arange(len(p))
    return inv


def per_sequence(fn: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """The stack map that applies the sequence map ``fn`` to each sequence of
    an (S, n, d) stack in turn."""

    def stacked(xs: np.ndarray) -> np.ndarray:
        return np.stack([fn(x) for x in xs])

    return stacked


def polynomial_psi(combiner, x_rows: np.ndarray, phi_rows: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``PolynomialCombiner.apply`` on the rows of one sequence, one token at
    a time: each term adds x_i^alpha * sigma_alpha(Sigma - phi(x_i)) to row i."""
    n = x_rows.shape[0]
    out = np.zeros((n, combiner.out_width))
    others = np.reshape(sigma, (1, -1)) - phi_rows
    for alpha, latent_poly in combiner.terms:
        mono = np.prod(x_rows ** np.asarray(alpha), axis=1)
        for i in range(n):
            value = np.zeros_like(latent_poly.terms[0][0])
            for coeff, exps in latent_poly.terms:
                value = value + coeff * np.prod(others[i] ** np.asarray(exps))
            out[i] += mono[i] * value
    return out


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


def allocating_head_forward(x: np.ndarray, spec) -> np.ndarray:
    """A softmax head's forward taken ROW_BLOCK query rows at a time, each block
    in fresh arrays: the scores, their shifted copy and the block's output."""
    key_rows, value_rows = spec.sources(x, None)
    q = x @ spec.w_q
    k_t = (key_rows @ spec.w_k).swapaxes(-1, -2)
    v = value_rows @ spec.w_v
    out = np.empty((*q.shape[:-1], v.shape[-1]))
    for start in range(0, q.shape[-2], ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        scores = q[..., rows, :] @ k_t
        scores /= math.sqrt(q.shape[-1])
        e = scores - scores.max(axis=-1, keepdims=True)
        np.exp(e, out=e)
        e /= e.sum(axis=-1, keepdims=True)
        out[..., rows, :] = e @ v
    return out


def sup_error(
    model_fn: Callable[[np.ndarray], np.ndarray],
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    n: int,
    d: int,
    sample_count: int = 1000,
    seed: int = 0,
) -> float:
    """Monte-Carlo estimate of sup ||f(X) - model(X)||_inf over [0,1)^{n x d}.

    f is the equivariant lift of g.  Sampling gives a lower bound of the
    true supremum; it is reported as such.
    """
    if sample_count < 1:
        raise ShapeError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    f = lift(g)
    worst = 0.0
    for _ in range(sample_count):
        x = rng.uniform(size=(n, d))
        worst = max(worst, float(np.max(np.abs(f(x) - model_fn(x)))))
    return worst


def check_semi_invariance(
    g: SemiInvariantFn,
    n: int,
    d: int,
    trials: int = 100,
    seed: int = 0,
) -> CheckReport:
    """Like check_equivariance but permutes only the ``rest`` argument of g."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    witness_x = witness_p = None
    for _ in range(trials):
        x = rng.uniform(size=(n, d))
        first, rest = x[0], x[1:]
        reference = np.asarray(g(first, rest), dtype=np.float64)
        for p in _permutations_for(n - 1, rng):
            violation = float(np.max(np.abs(np.asarray(g(first, rest[p])) - reference)))
            if worse(violation, worst):
                worst, witness_x, witness_p = violation, x, p
    return CheckReport(worst, witness_x, witness_p)


def central_difference_loop(
    f: Callable[[list[np.ndarray]], float],
    values: list[np.ndarray],
    step: float = 1e-5,
) -> list[np.ndarray]:
    """Central finite-difference gradient of a scalar function, one entry at
    a time.

    ``f`` maps a list of arrays to a float; the result has one gradient
    array per input, filled entry by entry with (f(x+h) - f(x-h)) / 2h.
    """
    grads = []
    work = [v.copy() for v in values]
    for v in work:
        g = np.zeros_like(v)
        flat_v = v.reshape(-1)
        flat_g = g.reshape(-1)
        for j in range(flat_v.size):
            orig = flat_v[j]
            flat_v[j] = orig + step
            up = f(work)
            flat_v[j] = orig - step
            down = f(work)
            flat_v[j] = orig
            flat_g[j] = (up - down) / (2.0 * step)
        grads.append(g)
    return grads
