"""Property suites behind the ``verify`` command.

Each check returns a record {name, status, max_residual, witness_path};
the driver writes the report and any witness inputs to the output
directory.  A check that ran no case (the low-rank checks when every n
is 1) reports ``skip`` rather than ``pass``.  Tolerances are per check
but can be overridden globally (setting them to 0 demonstrates that
they are load-bearing).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .attention import HEADS, attention_matrix, build_sum_extraction
from .autodiff import Tape, central_difference, gradient
from .equivariance import check_equivariance, worse
from .mlp import MlpSpec, init_mlp_params, mlp_forward, mlp_param_nodes, mlp_taped
from .model import (
    build_discrete_sumformer,
    build_mlp_sumformer,
    build_polynomial_sumformer,
    discrete_forward,
    sumformer_forward,
)
from .multisym import enumerate_multidegrees, generation_oracle, power_sum_vector
from .targets import get_target


@dataclass
class CheckRecord:
    name: str
    status: str
    max_residual: float
    witness_path: str = ""


@dataclass
class VerifyConfig:
    n_list: list[int] = field(default_factory=lambda: [2, 3, 4])
    d_list: list[int] = field(default_factory=lambda: [1, 2])
    samples: int = 20
    trials: int = 20
    omega_seeds: int = 3
    gradient_seeds: int = 20
    tol: float | None = None
    linformer_wv_scale: str = "k"
    delta: int = 4


def _record(name: str, config: VerifyConfig, default_tol: float, worst: float, cases: int) -> CheckRecord:
    """``skip`` when no case ran, else ``pass`` or ``fail`` against the tolerance."""
    tol = default_tol if config.tol is None else config.tol
    status = "skip" if cases == 0 else "pass" if worst <= tol else "fail"
    return CheckRecord(name, status, worst)


def _sigma_recovery(variant: str, config: VerifyConfig, tol: float, seeds=(0,), wv_scale="k"):
    """Sigma block against the power sums; k = n - 1 where the variant takes k."""
    needs_k = HEADS[variant].needs_k
    worst, witness, cases = 0.0, None, 0
    for n in config.n_list:
        if needs_k and n < 2:
            continue
        for d in config.d_list:
            basis = enumerate_multidegrees(d, n)
            for seed in seeds:
                con = build_sum_extraction(variant, n, d, basis, k=n - 1 if needs_k else None,
                                           seed=seed, wv_scale=wv_scale)
                rng = np.random.default_rng(1000 + seed)
                for _ in range(config.samples):
                    x = rng.uniform(size=(n, d))
                    sigma = con.forward(x)[:, -con.d_latent:]
                    residual = float(np.max(np.abs(sigma - power_sum_vector(x, basis))))
                    cases += 1
                    if worse(residual, worst):
                        worst, witness = residual, x
    return _record(f"sigma_recovery_{variant}", config, tol, worst, cases), witness


def check_sigma_standard(config: VerifyConfig) -> tuple[CheckRecord, np.ndarray | None]:
    return _sigma_recovery("standard", config, 1e-10)


def check_sigma_linformer(config: VerifyConfig) -> tuple[CheckRecord, np.ndarray | None]:
    return _sigma_recovery("linformer", config, 1e-10, wv_scale=config.linformer_wv_scale)


def check_sigma_performer(config: VerifyConfig) -> tuple[CheckRecord, np.ndarray | None]:
    return _sigma_recovery("performer", config, 1e-8, seeds=range(config.omega_seeds))


def check_averaging_attention(config: VerifyConfig) -> tuple[CheckRecord, np.ndarray | None]:
    """The constant-query construction must produce exactly uniform weights."""
    worst = 0.0
    witness = None
    basis = enumerate_multidegrees(1, 2)
    rng = np.random.default_rng(7)
    n_values = sorted(set(config.n_list) | {2, 3, 5, 64})
    for n in n_values:
        con = build_sum_extraction("standard", n, 1, basis)
        x = rng.uniform(size=(n, 1))
        a = attention_matrix(con.lift(x), con.head)
        residual = float(np.max(np.abs(a - 1.0 / n)))
        if worse(residual, worst):
            worst, witness = residual, x
    return _record("averaging_attention", config, 1e-12, worst, len(n_values)), witness


def check_equivariance_models(config: VerifyConfig) -> tuple[CheckRecord, np.ndarray | None]:
    n, d = 4, 2
    basis = enumerate_multidegrees(d, n)
    mlp_model = build_mlp_sumformer(d, 6, seed=0)
    poly_model = build_polynomial_sumformer(n, d, seed=0)
    models = [lambda x: sumformer_forward(mlp_model, x), lambda x: sumformer_forward(poly_model, x)]
    for variant, head in HEADS.items():
        k = n - 1 if head.needs_k else None
        models.append(build_sum_extraction(variant, n, d, basis, k=k, seed=0).forward)
    trials = max(config.trials, 0)
    worst = 0.0
    witness = None
    for fn in models:
        report = check_equivariance(fn, n, d, trials=trials, seed=11)
        if worse(report.max_violation, worst):
            worst, witness = report.max_violation, report.witness_input
    return _record("equivariance_models", config, 1e-10, worst, trials * len(models)), witness


def check_discrete_exactness(config: VerifyConfig) -> tuple[CheckRecord, np.ndarray | None]:
    """Anchors reproduce g exactly; within-cell outputs are constant;
    permuted inputs give exactly permuted outputs."""
    target = get_target("quadratic_sum")
    n, d, delta = 2, 1, config.delta
    ds = build_discrete_sumformer(target.g, delta, n, d)
    worst = 0.0
    witness = None
    rng = np.random.default_rng(5)
    f = target.lifted()
    samples = max(config.samples, 0)
    for _ in range(samples):
        anchors = rng.integers(0, delta, size=(n, d)) / delta
        x = rng.uniform(size=(n, d))
        cells = np.floor(x * delta)
        same_cell = (cells + rng.uniform(0, 1, size=x.shape)) / delta
        perm = rng.permutation(n)
        residual = float(np.max([  # np.max, unlike max, keeps a NaN
            np.max(np.abs(discrete_forward(ds, anchors) - f(anchors))),
            np.max(np.abs(discrete_forward(ds, x) - discrete_forward(ds, same_cell))),
            np.max(np.abs(discrete_forward(ds, x[perm]) - discrete_forward(ds, x)[perm])),
        ]))
        if worse(residual, worst):
            worst, witness = residual, x
    return _record("discrete_exactness", config, 0.0, worst, samples), witness


def check_generation_oracle(config: VerifyConfig) -> tuple[CheckRecord, np.ndarray | None]:
    def pairwise_product(x):
        n = x.shape[0]
        return sum(float(x[i, 0] * x[j, 0]) for i in range(n) for j in range(i + 1, n))

    def first_power_sum(x):
        return float(np.sum(x[:, 0]))

    def mixed_elementary(x):
        return float(x[0, 0] * x[1, 1] + x[1, 0] * x[0, 1])

    cases = [
        (pairwise_product, 1, 2),
        (first_power_sum, 1, 3),
        (mixed_elementary, 2, 2),
    ]
    worst = float(np.max([  # np.max, unlike max, keeps a NaN
        generation_oracle(target_fn, d, n, sample_count=config.samples * 25, seed=3).residual
        for target_fn, d, n in cases
    ], initial=0.0))
    return _record("generation_oracle", config, 1e-8, worst, len(cases)), None


def gradient_check_once(seed: int, step: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences
    for one random small MLP regression loss, resampled away from kinks."""
    rng = np.random.default_rng(seed)
    widths = (int(rng.integers(2, 6)), int(rng.integers(2, 17)), int(rng.integers(1, 5)))
    spec = MlpSpec(widths)
    params = init_mlp_params(spec, rng)
    y = rng.uniform(-1, 1, size=(3, widths[-1]))
    for _ in range(200):
        x = rng.uniform(-1, 1, size=(3, widths[0]))
        h = x
        margins = []
        for i, (w, b) in enumerate(params[:-1]):
            h = h @ w + b
            margins.append(float(np.min(np.abs(h))))
            h = np.where(h > 0, h, 0.0)
        if min(margins) >= 1e-3:
            break
    else:
        raise RuntimeError("could not sample inputs away from ReLU kinks")

    tape = Tape()
    nodes = mlp_param_nodes(tape, params)
    pred = mlp_taped(tape, spec, nodes, tape.constant(x))
    loss = tape.mean(tape.square(tape.sub(pred, tape.constant(y))))
    grads = gradient(tape, loss)
    flat_ad = [grads[p] for p in tape.parameters]

    flat_values = [a for pair in params for a in pair]

    def loss_fn(values):
        rebuilt = [(values[2 * i], values[2 * i + 1]) for i in range(spec.n_layers)]
        out = mlp_forward(spec, rebuilt, x)
        return float(np.mean((out - y) ** 2))

    flat_fd = central_difference(loss_fn, flat_values, step)
    return float(np.max([
        np.max(np.abs(ad - fd) / np.maximum(np.maximum(np.abs(ad), np.abs(fd)), 1e-6))
        for ad, fd in zip(flat_ad, flat_fd)
    ]))


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


def run_verification(config: VerifyConfig, out_dir: str | None = None) -> list[CheckRecord]:
    records = []
    for check in ALL_CHECKS:
        record, witness = check(config)
        if record.status == "fail" and witness is not None and out_dir is not None:
            path = os.path.join(out_dir, f"witness_{record.name}.txt")
            np.savetxt(path, np.atleast_2d(witness))
            record.witness_path = path
        records.append(record)
    return records


def write_report(path: str, records: list[CheckRecord]):
    lines = []
    for r in records:
        lines.append(
            f"name={r.name} status={r.status} max_residual={r.max_residual!r} "
            f"witness_path={r.witness_path or '-'}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
