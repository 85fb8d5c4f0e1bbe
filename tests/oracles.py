"""Plain per-vector references and small helpers that only the tests use."""

import math
from dataclasses import replace
from itertools import permutations
from typing import Callable

import numpy as np

from sumformer.attention import SCORE_BOUND, SCORE_FLOATS
from sumformer.equivariance import CheckReport, SemiInvariantFn, lift, worse
from sumformer.errors import DomainError, ShapeError
from sumformer.mlp import MlpParams, MlpSpec
from sumformer.model import build_discrete_sumformer, sumformer_forward
from sumformer.multisym import DegreeBasis, FitReport, MultiDegree
from sumformer.targets import get_target


def per_sequence(fn: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """The stack map that applies the sequence map ``fn`` to each sequence of
    an (S, n, d) stack in turn."""

    def stacked(xs: np.ndarray) -> np.ndarray:
        return np.stack([fn(x) for x in xs])

    return stacked


def polynomial_psi(combiner, x_rows: np.ndarray, phi_rows: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``PolynomialCombiner.apply`` on the rows of one sequence, one token at
    a time: each term row t in turn adds c_t * (x_i^(a_t) * (Sigma - phi(x_i))^(e_t))
    to row i."""
    others = np.reshape(sigma, (1, -1)) - phi_rows
    out = np.zeros((x_rows.shape[0], combiner.out_width))
    for i in range(x_rows.shape[0]):
        for a, e, c in zip(combiner.x_exponents, combiner.latent_exponents, combiner.coefficients):
            out[i] = out[i] + c * (np.prod(x_rows[i] ** a) * np.prod(others[i] ** e))
    return out


def scale_n_head(head, n: int):
    """A low-rank sum-extraction head with value scale n in place of k: the
    literal reading of the averaging, which overshoots Sigma by n/k."""
    return replace(head, w_v=np.where(head.w_v != 0.0, float(n), 0.0))


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


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax exp(m - row max) / row sums of a matrix or stack."""
    e = np.exp(m - m.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def attention_reference(x: np.ndarray, spec) -> np.ndarray:
    """A softmax head's A: ``softmax_rows`` of its whole score matrix
    (X W_Q / sqrt(m)) (key rows W_K)^T."""
    q = x @ spec.w_q / math.sqrt(x.shape[-1])
    k = spec.sources(x, None)[0] @ spec.w_k
    return softmax_rows(q @ k.swapaxes(-1, -2))


def widened_operands(x: np.ndarray, spec):
    """A softmax head's Q / sqrt(m), K^T and V, each widened by one column:
    -c_i, 1 and 1, with c_i = |q_i| max_j |k_j| (0 for a row whose c_i is above
    SCORE_BOUND or not finite), and which query rows are loose that way."""
    key_rows, value_rows = spec.sources(x, None)
    q = x @ spec.w_q / math.sqrt(x.shape[-1])
    k = key_rows @ spec.w_k
    v = value_rows @ spec.w_v
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.sqrt(np.einsum("...ij,...ij->...i", q, q)
                        * np.einsum("...ij,...ij->...i", k, k).max(axis=-1, keepdims=True))
    loose = ~(bound <= SCORE_BOUND)
    q = np.concatenate([q, np.where(loose, 0.0, -bound)[..., np.newaxis]], axis=-1)
    k, v = (np.concatenate([a, np.ones((*a.shape[:-1], 1))], axis=-1) for a in (k, v))
    return q, k.swapaxes(-1, -2), v, loose


def deferred_product(scores: np.ndarray, v: np.ndarray, loose: np.ndarray) -> np.ndarray:
    """exp of the scores (minus the row max on the loose rows) times the widened
    V, its last column dividing the others."""
    if not np.isfinite(scores).all():
        raise DomainError("softmax input contains non-finite entries")
    scores = np.where(loose[..., np.newaxis], scores - scores.max(axis=-1, keepdims=True), scores)
    total = np.exp(scores) @ v
    return total[..., :-1] / total[..., -1:]


def allocating_head_forward(x: np.ndarray, spec) -> np.ndarray:
    """A softmax head's forward taken SCORE_FLOATS // (key count) query rows at
    a time, each block in fresh arrays: the widened operands' scores, then
    their ``deferred_product``."""
    q, k_t, v, loose = widened_operands(x, spec)
    step = max(1, min(q.shape[-2], SCORE_FLOATS // k_t.shape[-1]))
    out = np.empty((*q.shape[:-1], v.shape[-1] - 1))
    for start in range(0, q.shape[-2], step):
        rows = slice(start, start + step)
        out[..., rows, :] = deferred_product(q[..., rows, :] @ k_t, v, loose[..., rows])
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


def permutations_for(n: int, rng: np.random.Generator):
    """All permutations of n for n <= 6, else one drawn from ``rng``."""
    if n <= 6:
        for p in permutations(range(n)):
            yield np.array(p)
    else:
        yield rng.permutation(n)


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
        for p in permutations_for(n - 1, rng):
            violation = float(np.max(np.abs(np.asarray(g(first, rest[p])) - reference)))
            if worse(violation, worst):
                worst, witness_x, witness_p = violation, x, p
    return CheckReport(worst, witness_x, witness_p)


def sequential_equivariance(fn: Callable[[np.ndarray], np.ndarray], n: int, d: int,
                            trials: int, seed: int) -> CheckReport:
    """``check_equivariance`` with one call of ``fn`` per (n, d) sequence,
    one draw and one permutation at a time, in draw order."""
    rng = np.random.default_rng(seed)
    worst, witness_x, witness_p = 0.0, None, None
    for _ in range(trials):
        x = rng.uniform(size=(n, d))
        fx = fn(x)
        for p in list(permutations_for(n, rng)):
            violation = float(np.max(np.abs(fn(x[p]) - fx[p])))
            if worse(violation, worst):
                worst, witness_x, witness_p = violation, x, p
    return CheckReport(worst, witness_x, witness_p)


def discrete_exactness_per_sample(samples: int, delta: int) -> tuple[float, np.ndarray | None]:
    """The worst residual and its x of ``verify.check_discrete_exactness``,
    one sample and one forward per input at a time."""
    target = get_target("quadratic_sum")
    n, d = 2, 1
    model = build_discrete_sumformer(target.g, delta, n, d)
    f = target.lifted()
    rng = np.random.default_rng(5)
    worst, witness = 0.0, None
    for _ in range(samples):
        anchors = rng.integers(0, delta, size=(n, d)) / delta
        x = rng.uniform(size=(n, d))
        cells = model.phi.cells(x)
        low, high = model.phi.edges[cells], model.phi.edges[cells + 1]
        same_cell = np.minimum(low + (high - low) * rng.uniform(0, 1, size=x.shape),
                               np.nextafter(high, low))
        perm = rng.permutation(n)
        out_x = sumformer_forward(model, x)
        residual = float(np.max([
            np.max(np.abs(sumformer_forward(model, anchors) - f(anchors))),
            np.max(np.abs(out_x - sumformer_forward(model, same_cell))),
            np.max(np.abs(sumformer_forward(model, x[perm]) - out_x[perm])),
        ]))
        if worse(residual, worst):
            worst, witness = residual, x
    return worst, witness


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
