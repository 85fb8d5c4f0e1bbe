"""Property suites behind the ``verify`` command.

Each check returns a record {name, status, max_residual, cases} and the
input at its worst residual, if it keeps one; ``run_verification`` puts
that input on the record of a failed check as its ``witness``.  This
module only computes: the CLI writes the report, the timing file and one
file per witness.  A check that ran no case (the low-rank checks when
every n is 1) reports ``skip`` and ``cases=0`` rather than ``pass``.
Tolerances are per check but can be overridden globally (setting them to
0 demonstrates that they are load-bearing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .attention import HEADS, attention_matrix, build_sum_extraction, draws_features
from .equivariance import GROUP_TOKENS, check_equivariance, first_worse, worse
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
from .multisym import enumerate_multidegrees, generation_oracle, power_sum_vector, product_terms
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
    witness: np.ndarray | None = None  # the input that failed a failed check; not part of the report
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


def _record(name: str, config: VerifyConfig, default_tol: float, worst: float, cases: int) -> CheckRecord:
    """``skip`` when no case ran, else ``pass`` or ``fail`` against the tolerance."""
    tol = default_tol if config.tol is None else config.tol
    status = "skip" if cases == 0 else "pass" if worst <= tol else "fail"
    return CheckRecord(name, status, worst, cases)


def _stacks(rng: np.random.Generator, count: int, n: int, d: int, m: int):
    """``count`` uniform n x d sequences in stacks of at most STACK_FLOATS
    lifted floats: the same numbers as ``count`` draws of one sequence."""
    size = max(1, STACK_FLOATS // (n * m))
    for start in range(0, count, size):
        yield rng.uniform(size=(min(size, count - start), n, d))


def _sigma_recovery(variant: str, config: VerifyConfig, tol: float, seeds=(0,)):
    """Sigma block against the power sums; k = n - 1 where the variant takes k."""
    needs_k, seeded = HEADS[variant].needs_k, draws_features(variant)
    worst, witness, cases = 0.0, None, 0
    for n in config.n_list:
        if needs_k and n < 2:
            continue
        for d in config.d_list:
            basis = enumerate_multidegrees(d, n)
            for seed in seeds:
                con = build_sum_extraction(variant, n, d, basis, k=n - 1 if needs_k else None,
                                           seed=seed if seeded else None)
                rng = np.random.default_rng(1000 + seed)
                for xs in _stacks(rng, config.samples, n, d, con.model_dim):
                    sigma = con.forward(xs)[..., -con.d_latent:]
                    errors = np.abs(sigma - power_sum_vector(xs, basis)[:, np.newaxis])
                    residuals = np.max(errors.reshape(len(xs), -1), axis=1)
                    first = first_worse(residuals, worst)
                    cases += len(xs)
                    if first is not None:
                        worst, witness = float(residuals[first]), xs[first]
    return _record(f"sigma_recovery_{variant}", config, tol, worst, cases), witness


def check_sigma_standard(config: VerifyConfig) -> tuple[CheckRecord, np.ndarray | None]:
    return _sigma_recovery("standard", config, 1e-10)


def check_sigma_linformer(config: VerifyConfig) -> tuple[CheckRecord, np.ndarray | None]:
    return _sigma_recovery("linformer", config, 1e-10)


def check_sigma_performer(config: VerifyConfig) -> tuple[CheckRecord, np.ndarray | None]:
    return _sigma_recovery("performer", config, 1e-8, seeds=range(config.omega_seeds))


AVERAGING_N = {2, 3, 5, 64}  # sequence lengths the averaging check adds to n_list


def check_averaging_attention(config: VerifyConfig) -> tuple[CheckRecord, np.ndarray | None]:
    """The constant-query construction must produce exactly uniform weights."""
    worst = 0.0
    witness = None
    basis = enumerate_multidegrees(1, 2)
    rng = np.random.default_rng(7)
    n_values = sorted(set(config.n_list) | AVERAGING_N)
    for n in n_values:
        con = build_sum_extraction("standard", n, 1, basis)
        x = rng.uniform(size=(n, 1))
        a = attention_matrix(con.lift(x), con.head)
        residual = float(np.max(np.abs(a - 1.0 / n)))
        if worse(residual, worst):
            worst, witness = residual, x
    return _record("averaging_attention", config, 1e-12, worst, len(n_values)), witness


def equivariance_maps(n: int, d: int) -> list[Callable[[np.ndarray], np.ndarray]]:
    """The stacked maps the equivariance check samples at n tokens of width
    d: the MLP and polynomial sumformers, then each ``HEADS`` construction."""
    basis = enumerate_multidegrees(d, n)
    mlp_model = build_mlp_sumformer(d, 6, seed=0)
    poly_model = build_polynomial_sumformer(n, d, seed=0)
    maps = [lambda xs: sumformer_forward(mlp_model, xs),
            lambda xs: sumformer_forward(poly_model, xs)]
    for variant, head in HEADS.items():
        k = n - 1 if head.needs_k else None
        seed = 0 if draws_features(variant) else None
        maps.append(build_sum_extraction(variant, n, d, basis, k=k, seed=seed).forward)
    return maps


def check_equivariance_models(config: VerifyConfig) -> tuple[CheckRecord, np.ndarray | None]:
    n, d = 4, 2
    models = equivariance_maps(n, d)
    trials = max(config.trials, 0)
    worst = 0.0
    witness = None
    for fn in models:
        report = check_equivariance(fn, n, d, trials=trials, seed=11)
        if worse(report.max_violation, worst):
            worst, witness = report.max_violation, report.witness_input
    return _record("equivariance_models", config, 1e-10, worst, trials * len(models)), witness


def check_discrete_exactness(config: VerifyConfig) -> tuple[CheckRecord, np.ndarray | None]:
    """Anchors reproduce g exactly; points drawn in the model's own cells give
    the same outputs; permuted inputs give exactly permuted outputs.  The
    samples run in groups of at most GROUP_TOKENS tokens: one stacked forward
    of each sample's four inputs and one lifted-target call on the anchors
    per group."""
    target = get_target("quadratic_sum")
    n, d, delta = 2, 1, config.delta
    model = build_discrete_sumformer(target.g, delta, n, d)
    worst = 0.0
    witness = None
    rng = np.random.default_rng(5)
    f = target.lifted()
    samples = max(config.samples, 0)
    group = max(1, GROUP_TOKENS // (4 * n))
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
        residuals = np.max(np.abs(errors).reshape(len(draws), -1), axis=1)  # keeps a NaN
        first = first_worse(residuals, worst)
        if first is not None:
            worst, witness = float(residuals[first]), draws[first][1]
    return _record("discrete_exactness", config, 0.0, worst, samples), witness


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


def check_generation_oracle(config: VerifyConfig) -> tuple[CheckRecord, np.ndarray | None]:
    draws = config.samples * GENERATION_DRAWS_PER_SAMPLE
    worst = float(np.max([  # np.max, unlike max, keeps a NaN
        generation_oracle(target_fn, d, n, sample_count=draws, seed=3).residual
        for target_fn, d, n in GENERATION_CASES
    ], initial=0.0))
    return _record("generation_oracle", config, 1e-8, worst, len(GENERATION_CASES)), None


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
        trial = SumformerModel(model.d, MlpFeatureMap(model.phi.spec, phi),
                               MlpCombiner(model.psi.spec, psi))
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


def check_gradients(config: VerifyConfig) -> tuple[CheckRecord, np.ndarray | None]:
    seeds = max(config.gradient_seeds, 0)
    worst = float(np.max([gradient_check_once(seed) for seed in range(seeds)], initial=0.0))
    return _record("gradient_check", config, 1e-5, worst, seeds), None


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
    oracle = max(8 * draws * (2 * len(product_terms(d, n, 2 * n)) + 3 * n * d + 1)
                 for _, d, n in GENERATION_CASES)
    return max(widest, oracle)


def run_verification(config: VerifyConfig) -> list[CheckRecord]:
    """The records of ALL_CHECKS, in list order, each failed one with its
    witness.  The checks run on ``parallel.process_count(len(ALL_CHECKS))``
    worker processes; each check runs the same code on the same seeds in
    any worker, so the records are the same at any worker count."""
    records = []
    for (record, witness), worker, seconds in run_in_processes(
            lambda check: check(config), [(check,) for check in ALL_CHECKS]):
        record.seconds, record.worker = seconds, worker
        if record.status == "fail":
            record.witness = witness
        records.append(record)
    return records
