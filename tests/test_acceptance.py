"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here and are not calibration knobs.
"""

import math
import time
from dataclasses import replace

import numpy as np

from sumformer.attention import (
    attention_matrix,
    audited_mac_count,
    build_sum_extraction,
    mac_count,
)
from sumformer.equivariance import check_equivariance
from sumformer.model import (
    build_discrete_sumformer,
    build_mlp_sumformer,
    build_polynomial_sumformer,
    sumformer_forward,
)
from sumformer.multisym import enumerate_multidegrees, generation_oracle, power_sum_vector
from sumformer.targets import get_target
from sumformer.train import OptimizerConfig, latent_sweep
from sumformer.verify import gradient_check_once

from oracles import scale_n_head, sup_error


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _sigma_residual(con, x):
    out = con.forward(x)
    return float(np.max(np.abs(out[:, -con.d_latent:] - power_sum_vector(x, con.phi.basis))))


CONFIGS = [(n, d) for n in range(2, 7) for d in (1, 2, 3)]


def test_criterion_01_sigma_recovery_standard():
    start = time.time()
    worst = 0.0
    for n, d in CONFIGS:
        basis = enumerate_multidegrees(d, n)
        con = build_sum_extraction("standard", n, d, basis)
        rng = np.random.default_rng(100 * n + d)
        for _ in range(100):
            worst = max(worst, _sigma_residual(con, rng.uniform(size=(n, d))))
    elapsed = time.time() - start
    _report(1, "sigma-recovery-standard", worst <= 1e-10 and elapsed < 10.0,
            f"(max residual {worst:.3e}, {elapsed:.1f}s)")


def test_criterion_02_sigma_recovery_linformer():
    worst = 0.0
    for n, d in CONFIGS:
        basis = enumerate_multidegrees(d, n)
        for k in range(1, n):
            con = build_sum_extraction("linformer", n, d, basis, k=k)
            rng = np.random.default_rng(200 * n + 10 * d + k)
            for _ in range(100):
                worst = max(worst, _sigma_residual(con, rng.uniform(size=(n, d))))
    # regression pin: the literal value-scale reading overshoots by n/k
    literal_min = math.inf
    for n, d in CONFIGS:
        basis = enumerate_multidegrees(d, n)
        for k in range(1, n):
            con = build_sum_extraction("linformer", n, d, basis, k=k)
            con = replace(con, head=scale_n_head(con.head, n))
            rng = np.random.default_rng(300 * n + 10 * d + k)
            residual = max(_sigma_residual(con, rng.uniform(size=(n, d))) for _ in range(10))
            literal_min = min(literal_min, residual)
    _report(2, "sigma-recovery-linformer", worst <= 1e-10 and literal_min >= 1e-2,
            f"(max residual {worst:.3e}, literal-n min residual {literal_min:.3e})")


def test_criterion_03_sigma_recovery_performer():
    worst = 0.0
    for n, d in CONFIGS:
        basis = enumerate_multidegrees(d, n)
        for omega_seed in range(10):
            con = build_sum_extraction("performer", n, d, basis, k=n - 1, seed=omega_seed)
            rng = np.random.default_rng(400 * n + 10 * d + omega_seed)
            for _ in range(100):
                worst = max(worst, _sigma_residual(con, rng.uniform(size=(n, d))))
    _report(3, "sigma-recovery-performer", worst <= 1e-8, f"(max residual {worst:.3e})")


def test_criterion_04_averaging_attention():
    worst = 0.0
    basis = enumerate_multidegrees(1, 2)
    rng = np.random.default_rng(4)
    for n in range(2, 65):
        con = build_sum_extraction("standard", n, 1, basis)
        head = con.head
        for _ in range(3):
            a = attention_matrix(con.lift(rng.uniform(size=(n, 1))), head)
            worst = max(worst, float(np.max(np.abs(a - 1.0 / n))))
    _report(4, "averaging-attention", worst <= 1e-12, f"(max residual {worst:.3e})")


def test_criterion_05_equivariance():
    n, d = 4, 2
    basis = enumerate_multidegrees(d, n)
    mlp_model = build_mlp_sumformer(d, 8, seed=0)
    poly_model = build_polynomial_sumformer(n, d, seed=1)
    functions = {
        "mlp-model": lambda xs: sumformer_forward(mlp_model, xs),
        "poly-model": lambda xs: sumformer_forward(poly_model, xs),
        "standard-net": build_sum_extraction("standard", n, d, basis).forward,
        "linformer-net": build_sum_extraction("linformer", n, d, basis, k=2).forward,
        "performer-net": build_sum_extraction("performer", n, d, basis, k=2, seed=2).forward,
    }
    worst = 0.0
    for name, fn in functions.items():
        report = check_equivariance(fn, n, d, trials=100, seed=50)
        worst = max(worst, report.max_violation)

    target = get_target("quadratic_sum")
    grid = build_discrete_sumformer(target.g, delta_cells=4, n=3, d=1)
    rng = np.random.default_rng(51)
    discrete_worst = 0.0
    for _ in range(100):
        x = rng.uniform(size=(3, 1))
        perm = rng.permutation(3)
        diff = sumformer_forward(grid, x[perm]) - sumformer_forward(grid, x)[perm]
        discrete_worst = max(discrete_worst, float(np.max(np.abs(diff))))
    _report(5, "equivariance", worst <= 1e-10 and discrete_worst == 0.0,
            f"(models {worst:.3e}, discrete {discrete_worst:.1e})")


def test_criterion_06_latent_dimension_formula():
    ok = True
    for d in range(1, 7):
        for n in range(1, 9):
            ok = ok and enumerate_multidegrees(d, n).size == math.comb(n + d, d) - 1
    spot = enumerate_multidegrees(4, 5).size
    _report(6, "latent-dimension-formula", ok and spot == 125, f"(spot d=4,n=5 -> {spot})")


def test_criterion_07_generation_oracle():
    def pairwise(x):
        n = x.shape[0]
        return sum(float(x[i, 0] * x[j, 0]) for i in range(n) for j in range(i + 1, n))

    def p1(x):
        return float(np.sum(x[:, 0]))

    def mixed(x):
        return float(x[0, 0] * x[1, 1] + x[1, 0] * x[0, 1])

    residuals = [
        generation_oracle(pairwise, d=1, n=2, sample_count=500, seed=7).residual,
        generation_oracle(p1, d=1, n=3, sample_count=500, seed=8).residual,
        generation_oracle(mixed, d=2, n=2, sample_count=500, seed=9).residual,
    ]
    worst = max(residuals)
    _report(7, "generation-oracle", worst <= 1e-8, f"(max residual {worst:.3e})")


def test_criterion_08_discrete_construction():
    def g(x, rest):
        return x + rest.sum(axis=0) ** 2

    lipschitz = math.sqrt(5.0)  # sup of ||(1, 2 x2)||_2 on [0,1)
    n, d = 2, 1
    errors = {}
    ok = True
    for delta in (4, 8, 16):
        grid = build_discrete_sumformer(g, delta_cells=delta, n=n, d=d)
        err = sup_error(lambda x: sumformer_forward(grid, x), g, n, d, sample_count=1000, seed=delta)
        errors[delta] = err
        ok = ok and err <= lipschitz * (1.0 / delta) * math.sqrt(n * d)
    ok = ok and errors[8] <= 0.8 * errors[4]
    _report(8, "discrete-construction", ok,
            f"(errors {errors[4]:.3f}/{errors[8]:.3f}/{errors[16]:.3f})")


def test_criterion_09_gradient_correctness():
    worst = 0.0
    for seed in range(100):
        worst = max(worst, gradient_check_once(seed))
    _report(9, "gradient-correctness", worst <= 1e-5, f"(max rel err {worst:.3e})")


def test_criterion_10_training_surrogate():
    start = time.time()
    target = get_target("cubic_coupling")
    config = OptimizerConfig()
    trained = latent_sweep(target, 3, [2], [32], 200, 2000, list(range(10)), config)
    passing = sum(1 for r in trained if r.best_val_err <= 0.1)

    # Latent sweep on the d=4 desk-scale slice.  The benchmark's dependence
    # on the other tokens flows through their d-vector sum, so only for
    # d > 2 is a width-2 latent a real bottleneck and the capacity trend
    # visible above the optimization floor.
    rows = latent_sweep(target, 3, [4], [2, 8, 32, 128], epochs=200, points=2000,
                        seeds=[0, 1, 2], config=config)
    means = []
    for dprime in (2, 8, 32, 128):
        cells = [r.best_val_err for r in rows if r.d_prime == dprime]
        means.append(sum(cells) / len(cells))
    inversions = sum(1 for a, b in zip(means, means[1:]) if b > a)
    elapsed = time.time() - start
    _report(10, "training-surrogate", passing >= 8 and inversions <= 1 and elapsed < 900.0,
            f"({passing}/10 seeds <= 0.1, sweep means {['%.3f' % m for m in means]}, "
            f"{inversions} inversions, {elapsed:.0f}s)")


def test_criterion_11_complexity():
    ns = [32, 64, 128, 256]
    m, k = 4, 4
    ok = True
    std = [mac_count("standard", n, m) for n in ns]
    for a, b in zip(std, std[1:]):
        ok = ok and 3.6 <= b / a <= 4.4
    for variant in ("linformer", "performer"):
        counts = [mac_count(variant, n, m, k) for n in ns]
        for a, b in zip(counts, counts[1:]):
            ok = ok and 1.8 <= b / a <= 2.2
    # the closed forms must agree with instrumented execution
    for variant, kk in (("standard", None), ("linformer", 3), ("performer", 3)):
        ok = ok and mac_count(variant, 16, 5, kk) == audited_mac_count(variant, 16, 5, kk)
    _report(11, "complexity", ok)
