"""Property suites behind the ``verify`` command.

Each check returns one record {name, status, max_residual, cases}, built
by one outcome rule (``_outcome``) from its cases' residuals; a failed
record also carries its ``witness``, the input at its first worst
residual, where the check keeps inputs.  This module only computes: the
CLI writes the report, the timing file and one file per witness.  A check
that ran no case (the low-rank checks when every n is 1) reports ``skip``
and ``cases=0`` rather than ``pass``.  Tolerances are per check but can be
overridden globally (setting them to 0 demonstrates that they are
load-bearing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .attention import HEADS, attention_matrix, build_sum_extraction, draws_features
from .equivariance import GROUP_TOKENS, check_equivariance, first_worse
from .mlp import param_views
from .model import (
    MlpCombiner,
    MlpFeatureMap,
    SumformerModel,
    batch_forward,
    build_discrete_sumformer,
    build_mlp_sumformer,
    build_polynomial_sumformer,
    sumformer_forward,
)
from .multisym import (enumerate_multidegrees, generation_bytes, generation_oracle, power_sum_vector,
                       product_terms)
from .parallel import run_in_processes
from .targets import get_target
from .train import WorkBuffer, flatten_params, loss_and_gradient

# The Sigma checks evaluate their samples as stacks of at most this many
# lifted floats (sequences x n x m), so their memory does not grow with the
# sample count; a sequence wider than this is evaluated alone.
STACK_FLOATS = 2**20


@dataclass
class CheckRecord:
    name: str
    status: str
    max_residual: float
    cases: int = 0  # cases the check ran; 0 for a skip
    witness: np.ndarray | None = None  # a failed check's input at its worst residual; not part of the report
    seconds: float = 0.0  # wall time of the check; not part of the report
    worker: int = 0  # the worker process that ran the check; not part of the report


@dataclass
class VerifyConfig:
    n_list: list[int] = field(default_factory=lambda: [2, 3, 4])
    d_list: list[int] = field(default_factory=lambda: [1, 2])
    samples: int = 20
    trials: int = 20
    omega_seeds: int = 3
    gradient_seeds: int = 20
    tol: float | None = None
    delta: int = 4


def _outcome(name: str, config: VerifyConfig, default_tol: float, groups) -> CheckRecord:
    """The record of a check whose cases come as (residuals, inputs) groups,
    in case order: its first worst residual (a NaN counting as worst), its
    case count, ``skip`` when no case ran, else ``pass`` or ``fail`` against
    the tolerance, and on ``fail`` the input at that residual, if kept."""
    worst, witness, cases = 0.0, None, 0
    for residuals, inputs in groups:
        cases += len(residuals)
        if len(residuals) and (first := first_worse(np.asarray(residuals), worst)) is not None:
            worst, witness = float(residuals[first]), None if inputs is None else inputs[first]
    tol = default_tol if config.tol is None else config.tol
    status = "skip" if cases == 0 else "pass" if worst <= tol else "fail"
    return CheckRecord(name, status, worst, cases, witness if status == "fail" else None)


def _stacks(rng: np.random.Generator, count: int, n: int, d: int, m: int):
    """``count`` uniform n x d sequences in stacks of at most STACK_FLOATS
    lifted floats: the same numbers as ``count`` draws of one sequence."""
    size = max(1, STACK_FLOATS // (n * m))
    for start in range(0, count, size):
        yield rng.uniform(size=(min(size, count - start), n, d))


def _construction(variant: str, n: int, d: int, basis, seed: int = 0):
    """The variant's sum-extraction construction that verify samples: k = n - 1
    where its head takes a k, ``seed`` only where it draws features, and none
    where its head takes a k and n < 2 leaves no key to keep."""
    needs_k = HEADS[variant].needs_k
    if needs_k and n < 2:
        return None
    return build_sum_extraction(variant, n, d, basis, k=n - 1 if needs_k else None,
                                seed=seed if draws_features(variant) else None)


def _sigma_cases(variant: str, config: VerifyConfig, seeds=(0,)):
    """The Sigma block against the power sums, one case per sampled sequence."""
    for n in config.n_list:
        for d in config.d_list:
            basis = enumerate_multidegrees(d, n)
            for seed in seeds:
                if (con := _construction(variant, n, d, basis, seed)) is None:
                    continue
                rng = np.random.default_rng(1000 + seed)
                for xs in _stacks(rng, config.samples, n, d, con.model_dim):
                    sigma = con.forward(xs)[..., -con.d_latent:]
                    errors = np.abs(sigma - power_sum_vector(xs, basis)[:, np.newaxis])
                    yield np.max(errors.reshape(len(xs), -1), axis=1), xs


def check_sigma_standard(config: VerifyConfig) -> CheckRecord:
    return _outcome("sigma_recovery_standard", config, 1e-10, _sigma_cases("standard", config))


def check_sigma_linformer(config: VerifyConfig) -> CheckRecord:
    return _outcome("sigma_recovery_linformer", config, 1e-10, _sigma_cases("linformer", config))


def check_sigma_performer(config: VerifyConfig) -> CheckRecord:
    return _outcome("sigma_recovery_performer", config, 1e-8,
                    _sigma_cases("performer", config, seeds=range(config.omega_seeds)))


AVERAGING_N = {2, 3, 5, 64}  # sequence lengths the averaging check adds to n_list


def check_averaging_attention(config: VerifyConfig) -> CheckRecord:
    """The constant-query construction must produce exactly uniform weights."""
    basis = enumerate_multidegrees(1, 2)
    rng = np.random.default_rng(7)

    def groups():
        for n in sorted(set(config.n_list) | AVERAGING_N):
            con = build_sum_extraction("standard", n, 1, basis)
            x = rng.uniform(size=(n, 1))
            yield [float(np.max(np.abs(attention_matrix(con.lift(x), con.head) - 1.0 / n)))], [x]

    return _outcome("averaging_attention", config, 1e-12, groups())


def equivariance_maps(n: int, d: int) -> list[Callable[[np.ndarray], np.ndarray]]:
    """The stacked maps the equivariance check samples at n tokens of width
    d: the MLP and polynomial sumformers, then each ``HEADS`` construction."""
    basis = enumerate_multidegrees(d, n)
    mlp_model = build_mlp_sumformer(d, 6, seed=0)
    poly_model = build_polynomial_sumformer(n, d, seed=0)
    cons = (_construction(variant, n, d, basis) for variant in HEADS)
    return [lambda xs: sumformer_forward(mlp_model, xs), lambda xs: sumformer_forward(poly_model, xs),
            *(con.forward for con in cons if con is not None)]


def check_equivariance_models(config: VerifyConfig) -> CheckRecord:
    n, d = 4, 2
    trials = max(config.trials, 0)

    def groups():  # a map's trials all count; the first stands for its worst, at its witness
        for fn in equivariance_maps(n, d):
            report = check_equivariance(fn, n, d, trials=trials, seed=11)
            yield np.full(trials, report.max_violation), [report.witness_input] * trials

    return _outcome("equivariance_models", config, 1e-10, groups())


def check_discrete_exactness(config: VerifyConfig) -> CheckRecord:
    """Anchors reproduce g exactly; points drawn in the model's own cells give
    the same outputs; permuted inputs give exactly permuted outputs.  The
    samples run in groups of at most GROUP_TOKENS tokens: one stacked forward
    of each sample's four inputs and one lifted-target call on the anchors
    per group."""
    target = get_target("quadratic_sum")
    n, d, delta = 2, 1, config.delta
    model = build_discrete_sumformer(target.g, delta, n, d)
    rng = np.random.default_rng(5)
    f = target.lifted()
    samples = max(config.samples, 0)
    group = max(1, GROUP_TOKENS // (4 * n))

    def groups():
        for start in range(0, samples, group):
            # anchors, x, same-cell fractions, permutation: each sample's draws in turn
            draws = [(rng.integers(0, delta, size=(n, d)) / delta, rng.uniform(size=(n, d)),
                      rng.uniform(0, 1, size=(n, d)), rng.permutation(n)[:, np.newaxis])
                     for _ in range(min(group, samples - start))]
            anchors, x, fractions, perm = (np.stack(arrays) for arrays in zip(*draws))
            cells = model.phi.cells(x)
            low, high = model.phi.edges[cells], model.phi.edges[cells + 1]
            same_cell = np.minimum(low + (high - low) * fractions,
                                   np.nextafter(high, low))  # keeps a point that rounds up in the cell
            inputs = np.stack([anchors, x, same_cell, np.take_along_axis(x, perm, axis=1)], axis=1)
            out = sumformer_forward(model, inputs.reshape(-1, n, d)).reshape(len(draws), 4, n, -1)
            errors = np.stack([out[:, 0] - f(anchors), out[:, 1] - out[:, 2],
                               out[:, 3] - np.take_along_axis(out[:, 1], perm, axis=1)], axis=1)
            yield np.max(np.abs(errors).reshape(len(draws), -1), axis=1), x  # np.max keeps a NaN

    return _outcome("discrete_exactness", config, 0.0, groups())


def _pairwise_product(x):
    n = x.shape[0]
    return sum(float(x[i, 0] * x[j, 0]) for i in range(n) for j in range(i + 1, n))


def _first_power_sum(x):
    return float(np.sum(x[:, 0]))


def _mixed_elementary(x):
    return float(x[0, 0] * x[1, 1] + x[1, 0] * x[0, 1])


# (target, d, n) of each generation-oracle case; each fits samples * 25 draws.
GENERATION_CASES = [(_pairwise_product, 1, 2), (_first_power_sum, 1, 3), (_mixed_elementary, 2, 2)]
GENERATION_DRAWS_PER_SAMPLE = 25


def check_generation_oracle(config: VerifyConfig) -> CheckRecord:
    """A case with no more draws than terms, which any target would pass, is
    left out and counts no case."""
    draws = config.samples * GENERATION_DRAWS_PER_SAMPLE
    return _outcome("generation_oracle", config, 1e-8, [([
        generation_oracle(target_fn, d, n, sample_count=draws, seed=3).residual
        for target_fn, d, n in GENERATION_CASES if draws > len(product_terms(d, n))], None)])


GRADIENT_SEQS = 2  # sequences per gradient-check batch
FD_STEP = 1e-5  # central-difference step


def central_difference(losses: Callable[[np.ndarray], np.ndarray], flat: np.ndarray) -> np.ndarray:
    """Central finite-difference gradient of a scalar loss of the flat
    parameter vector ``flat``.

    ``losses`` maps a (K, P) stack of parameter vectors to their K losses.
    It is called once, on the 2P vectors ``flat + FD_STEP e_j`` and then
    ``flat - FD_STEP e_j``; entry j of the result is (up - down) / 2 FD_STEP.
    """
    size = flat.size
    stack = np.tile(flat, (2, size, 1))
    diagonal = np.arange(size)
    stack[0, diagonal, diagonal] = flat + FD_STEP
    stack[1, diagonal, diagonal] = flat - FD_STEP
    values = losses(stack.reshape(2 * size, size))
    return (values[:size] - values[size:]) / (2.0 * FD_STEP)


def _min_margin(model: SumformerModel, x_seqs: np.ndarray, work: WorkBuffer) -> float:
    """The smallest |pre-activation| of any hidden unit of phi or psi."""
    outs = work.views(len(x_seqs), step=True)[0]
    batch_forward(model, x_seqs, outs)
    return min(float(np.min(np.abs(h @ w + b)))
               for net, inputs in zip((model.phi, model.psi), outs.layer_inputs(x_seqs))
               for h, (w, b) in zip(inputs, net.params[:-1]))


def _stacked_mse(model: SumformerModel, x_seqs: np.ndarray, y_seqs: np.ndarray):
    """The batch MSE of an MLP sumformer shaped like ``model`` at each row of
    a (K, P) stack of flat parameter vectors, from one ``batch_forward``."""

    def losses(stack: np.ndarray) -> np.ndarray:
        phi, psi = param_views(stack, model.trainable_params())
        trial = SumformerModel(MlpFeatureMap(model.phi.spec, phi), MlpCombiner(model.psi.spec, psi))
        diff = batch_forward(trial, x_seqs) - y_seqs
        return np.mean((diff * diff).reshape(len(stack), -1), axis=1)

    return losses


def gradient_check_once(seed: int) -> float:
    """Max relative error between the training step's gradient
    (``loss_and_gradient``) and central differences of the ``batch_forward``
    MSE, for one random small MLP sumformer over a batch of sequences,
    with inputs resampled away from the ReLU kinks of phi and psi."""
    rng = np.random.default_rng(seed)
    d, d_latent, hidden, n = (int(rng.integers(lo, hi))
                              for lo, hi in ((1, 4), (1, 6), (2, 9), (2, 4)))
    model = build_mlp_sumformer(d, d_latent, seed, hidden=(hidden,))
    y = rng.uniform(-1, 1, size=(GRADIENT_SEQS, n, d))
    work = WorkBuffer(model, n, GRADIENT_SEQS)
    for _ in range(200):
        x = rng.uniform(-1, 1, size=(GRADIENT_SEQS, n, d))
        if _min_margin(model, x, work) >= 1e-3:
            break
    else:
        raise RuntimeError("could not sample inputs away from ReLU kinks")

    flat = flatten_params(model)
    grad = np.full_like(flat, np.nan)  # stays NaN, so fails, if the loss is not finite
    loss_and_gradient(model, x, y, param_views(grad, model.trainable_params()), work)

    fd = central_difference(_stacked_mse(model, x, y), flat)
    return float(np.max(np.abs(grad - fd) / np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-6)))


def check_gradients(config: VerifyConfig) -> CheckRecord:
    return _outcome("gradient_check", config, 1e-5, [(
        [gradient_check_once(seed) for seed in range(max(config.gradient_seeds, 0))], None)])


ALL_CHECKS = [
    check_sigma_standard,
    check_sigma_linformer,
    check_sigma_performer,
    check_averaging_attention,
    check_equivariance_models,
    check_discrete_exactness,
    check_generation_oracle,
    check_gradients,
]


# A construction wider than this counts as this wide plus one in verify_bytes.
_WIDTH_CAP = 2**40


def _lifted_width(n: int, d: int) -> int:
    """A construction's model dim m = 1 + d + 2 (C(n + d, d) - 1), capped at
    _WIDTH_CAP + 1.  C(n + d, low) >= 2**low for low = min(n, d), so a low
    above 64 is past the cap without computing the binomial."""
    low = min(n, d)
    if low > 64:
        return _WIDTH_CAP + 1
    return min(1 + d + 2 * (math.comb(n + d, low) - 1), _WIDTH_CAP + 1)


def verify_bytes(config: VerifyConfig) -> int:
    """Estimated peak bytes of a verify run.

    The larger of: the widest sum-extraction construction (its four m x m
    weights and a stack's lifted arrays; the averaging check builds d = 1
    at AVERAGING_N too) and the generation-oracle fit (the design matrix over
    samples * 25 draws, lstsq's copy of it and the draws).
    """
    shapes = {(n, d) for n in config.n_list for d in config.d_list}
    shapes |= {(n, 1) for n in AVERAGING_N | set(config.n_list)}
    widest = 0
    for n, d in shapes:
        m = _lifted_width(n, d)
        widest = max(widest, 8 * (4 * m * m + 10 * max(n * m, STACK_FLOATS)))
    draws = config.samples * GENERATION_DRAWS_PER_SAMPLE
    oracle = max(generation_bytes(d, n, draws) for _, d, n in GENERATION_CASES)
    return max(widest, oracle)


def run_verification(config: VerifyConfig) -> list[CheckRecord]:
    """The records of ALL_CHECKS, in list order, with the wall seconds and
    the worker of each.  The checks run on ``parallel.process_count(len(ALL_CHECKS))``
    worker processes; each check runs the same code on the same seeds in
    any worker, so the records are the same at any worker count."""
    return [replace(record, seconds=seconds, worker=worker) for record, worker, seconds
            in run_in_processes(lambda check: check(config), [(check,) for check in ALL_CHECKS])]
