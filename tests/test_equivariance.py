import itertools

import numpy as np
import pytest

from sumformer.equivariance import check_equivariance, lift
from sumformer.errors import ShapeError

from oracles import check_semi_invariance, per_sequence


def test_lift_of_projection_is_identity():
    f = lift(lambda x, rest: x)
    x = np.random.default_rng(3).uniform(size=(4, 3))
    assert np.array_equal(f(x), x)


def test_lift_of_total_sum():
    f = lift(lambda x, rest: x + rest.sum(axis=0))
    out = f(np.array([[1.0], [2.0], [3.0]]))
    assert np.array_equal(out, np.full((3, 1), 6.0))


def test_lift_refuses_sequences_without_tokens():
    f = lift(lambda x, rest: x)
    for shape in ((0, 2), (4, 0, 2)):
        with pytest.raises(ShapeError):
            f(np.zeros(shape))


def test_lift_of_cubic_coupling_hand_values():
    # x + 7 x^2 + 3 x (sum rest)^3 at X = [[0], [1], [1]]
    from sumformer.targets import get_target

    f = get_target("cubic_coupling").lifted()
    out = f(np.array([[0.0], [1.0], [1.0]]))
    assert np.array_equal(out, np.array([[0.0], [11.0], [11.0]]))


def test_check_equivariance_identity_has_zero_violation():
    report = check_equivariance(lambda x: x, n=4, d=2, trials=10, seed=0)
    assert report.max_violation == 0.0


def test_nan_output_is_the_worst_violation():
    equivariance = check_equivariance(lambda x: np.full_like(x, np.nan), n=3, d=1, trials=2)
    semi_invariance = check_semi_invariance(lambda x, rest: np.full_like(x, np.nan), n=3, d=1, trials=2)
    for report in (equivariance, semi_invariance):
        assert np.isnan(report.max_violation)
        assert report.witness_input is not None


def test_check_equivariance_flags_broken_function():
    def broken(x):
        return np.tile(x[0], (x.shape[0], 1))  # every row copies row 1

    report = check_equivariance(per_sequence(broken), n=3, d=2, trials=10, seed=1)
    assert report.max_violation > 0.0
    assert report.witness_input is not None
    assert report.witness_permutation is not None


def test_check_equivariance_of_sumformer_model():
    from sumformer.model import build_mlp_sumformer, sumformer_forward

    model = build_mlp_sumformer(d=2, d_latent=5, seed=0)
    report = check_equivariance(lambda xs: sumformer_forward(model, xs),
                                n=4, d=2, trials=25, seed=2)
    assert report.max_violation <= 1e-10


def test_check_semi_invariance_first_token_only():
    report = check_semi_invariance(lambda x, rest: x, n=4, d=2, trials=10, seed=3)
    assert report.max_violation == 0.0


def test_check_semi_invariance_flags_order_sensitive():
    def g(x, rest):
        return x * (rest[0] - rest[1])

    report = check_semi_invariance(g, n=3, d=1, trials=10, seed=4)
    assert report.max_violation > 0.0


def test_check_semi_invariance_of_cubic_coupling():
    from sumformer.targets import get_target

    g = get_target("cubic_coupling").g
    report = check_semi_invariance(g, n=3, d=1, trials=50, seed=5)
    assert report.max_violation <= 1e-12


def test_lifted_targets_are_equivariant():
    from sumformer.targets import TARGETS

    for target in TARGETS.values():
        semi = check_semi_invariance(target.g, n=4, d=2, trials=20, seed=6)
        assert semi.max_violation <= 1e-12, target.name
        equi = check_equivariance(target.lifted(), n=4, d=2, trials=20, seed=7)
        assert equi.max_violation <= 1e-10, target.name


def _sequential_check(fn, n, d, trials, seed):
    """check_equivariance as one call of ``fn`` per sequence, in draw order."""
    from sumformer.equivariance import worse

    rng = np.random.default_rng(seed)
    worst, witness_x, witness_p = 0.0, None, None
    for _ in range(trials):
        x = rng.uniform(size=(n, d))
        fx = fn(x)
        perms = [np.array(p) for p in itertools.permutations(range(n))] if n <= 6 else [rng.permutation(n)]
        for p in perms:
            violation = float(np.max(np.abs(fn(x[p]) - fx[p])))
            if worse(violation, worst):
                worst, witness_x, witness_p = violation, x, p
    return worst, witness_x, witness_p


@pytest.mark.parametrize("n", [3, 4, 7])
def test_check_equivariance_keeps_the_first_worst_witness(n):
    def weighted(x):  # row i scaled by i + 1: not equivariant, by amounts that tie
        return x * np.arange(1.0, x.shape[0] + 1.0)[:, np.newaxis]

    report = check_equivariance(per_sequence(weighted), n=n, d=2, trials=6, seed=8)
    worst, witness_x, witness_p = _sequential_check(weighted, n, 2, 6, 8)
    assert report.max_violation == worst > 0.0
    assert np.array_equal(report.witness_input, witness_x)
    assert np.array_equal(report.witness_permutation, witness_p)


def test_check_equivariance_calls_the_map_once_per_draw():
    calls = []

    def identity(xs):
        calls.append(xs.shape)
        return xs

    check_equivariance(identity, n=4, d=2, trials=5, seed=9)
    assert calls == [(1 + 24, 4, 2)] * 5


def test_first_nan_violation_is_the_witness():
    def nan_after_first_draw(xs):
        out = xs.copy()
        if nan_after_first_draw.calls:
            out[3, 0, 0] = np.nan  # the third permutation of every later draw
        nan_after_first_draw.calls += 1
        return out

    nan_after_first_draw.calls = 0
    report = check_equivariance(nan_after_first_draw, n=3, d=1, trials=3, seed=10)
    assert np.isnan(report.max_violation)
    rng = np.random.default_rng(10)
    rng.uniform(size=(3, 1))
    assert np.array_equal(report.witness_input, rng.uniform(size=(3, 1)))
    assert np.array_equal(report.witness_permutation, list(itertools.permutations(range(3)))[2])


def test_verify_calls_each_sumformer_once_per_draw(monkeypatch):
    from sumformer import verify

    shapes = []
    forward = verify.sumformer_forward

    def counting(model, xs):
        shapes.append(xs.shape)
        return forward(model, xs)

    monkeypatch.setattr(verify, "sumformer_forward", counting)
    record, _ = verify.check_equivariance_models(verify.VerifyConfig(trials=3))
    assert record.status == "pass"
    # Two sumformers, each called on one stack [X, p_1 X, ..., p_24 X] per draw.
    assert shapes == [(1 + 24, 4, 2)] * (2 * 3)
