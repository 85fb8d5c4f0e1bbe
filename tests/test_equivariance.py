import itertools
import math

import numpy as np
import pytest

from sumformer.attention import HEADS
from sumformer.equivariance import GROUP_TOKENS, check_equivariance, lift
from sumformer.errors import ShapeError

from oracles import check_semi_invariance, per_sequence, sequential_equivariance


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


@pytest.mark.parametrize("n", [3, 4, 7])
def test_check_equivariance_keeps_the_first_worst_witness(n):
    def weighted(x):  # row i scaled by i + 1: not equivariant, by amounts that tie
        return x * np.arange(1.0, x.shape[0] + 1.0)[:, np.newaxis]

    report = check_equivariance(per_sequence(weighted), n=n, d=2, trials=6, seed=8)
    reference = sequential_equivariance(weighted, n, 2, trials=6, seed=8)
    assert report.max_violation == reference.max_violation > 0.0
    assert np.array_equal(report.witness_input, reference.witness_input)
    assert np.array_equal(report.witness_permutation, reference.witness_permutation)


def _group(n):
    """Draws per call of the map: a draw is 1 + n! sequences for n <= 6, else 2."""
    return max(1, GROUP_TOKENS // ((1 + (math.factorial(n) if n <= 6 else 1)) * n))


def test_check_equivariance_calls_the_map_once_per_group():
    calls = []

    def identity(xs):
        calls.append(xs.shape)
        return xs

    group = _group(4)
    check_equivariance(identity, n=4, d=2, trials=2 * group + 2, seed=9)
    assert calls == [(group * (1 + 24), 4, 2)] * 2 + [(2 * (1 + 24), 4, 2)]
    assert group * (1 + 24) * 4 <= GROUP_TOKENS


def test_a_draw_wider_than_a_group_goes_alone():
    calls = []

    def identity(xs):
        calls.append(xs.shape)
        return xs

    n = GROUP_TOKENS // 2 + 1  # one draw of [X, p X] holds more than GROUP_TOKENS tokens
    check_equivariance(identity, n=n, d=1, trials=3, seed=9)
    assert calls == [(2, n, 1)] * 3


def test_first_nan_violation_is_the_witness():
    # At n = 3 each draw is 1 + 6 sequences and all three draws go in one
    # stack; stack position 7 t + 3 is the third permutation of draw t.
    def nan_after_first_draw(xs):
        out = xs.copy()
        out[[7 * 1 + 3, 7 * 2 + 3], 0, 0] = np.nan  # the third permutation of every later draw
        return out

    assert _group(3) >= 3
    report = check_equivariance(nan_after_first_draw, n=3, d=1, trials=3, seed=10)
    assert np.isnan(report.max_violation)
    rng = np.random.default_rng(10)
    rng.uniform(size=(3, 1))
    assert np.array_equal(report.witness_input, rng.uniform(size=(3, 1)))
    assert np.array_equal(report.witness_permutation, list(itertools.permutations(range(3)))[2])


def test_verify_calls_each_sumformer_once_per_group(monkeypatch):
    from sumformer import verify

    shapes = []
    forward = verify.sumformer_forward

    def counting(model, xs):
        shapes.append(xs.shape)
        return forward(model, xs)

    group = _group(4)
    monkeypatch.setattr(verify, "sumformer_forward", counting)
    record = verify.check_equivariance_models(verify.VerifyConfig(trials=group + 2))
    assert record.status == "pass"
    # Two sumformers, each called on one stack of [X, p_1 X, ..., p_24 X] per draw of a group.
    assert shapes == [(group * (1 + 24), 4, 2), (2 * (1 + 24), 4, 2)] * 2


def _draws(n, d, trials, seed):
    """Each X that check_equivariance draws, in the same generator order."""
    rng = np.random.default_rng(seed)
    xs = []
    for _ in range(trials):
        xs.append(rng.uniform(size=(n, d)))
        if n > 6:
            rng.permutation(n)
    return xs


def _broken_on(fn, bad):
    """``fn`` with row i of its output raised by 1e-3 i on every row
    permutation of the sequence ``bad``: not equivariant on that draw alone."""
    key = np.sort(bad, axis=0)

    def broken(xs):
        out = np.array(fn(xs))
        for x, o in zip(xs.reshape(-1, *xs.shape[-2:]), out.reshape(-1, *out.shape[-2:])):
            if np.array_equal(np.sort(x, axis=0), key):
                o += 1e-3 * np.arange(len(o))[:, np.newaxis]
        return out

    return broken


MAP_NAMES = ["mlp_sumformer", "polynomial_sumformer", *HEADS]


@pytest.mark.parametrize("n", [3, 4, 7])
@pytest.mark.parametrize("index", range(len(MAP_NAMES)), ids=MAP_NAMES)
def test_grouped_check_is_the_sequential_check_bitwise(n, index):
    """Each map ``check_equivariance_models`` samples, over three groups of
    draws, with a fault in the last draw of the middle group only."""
    from sumformer.verify import equivariance_maps

    group = _group(n)
    trials, bad = 3 * group, 2 * group - 1
    fn = equivariance_maps(n, 2)[index]
    faulty = _broken_on(fn, _draws(n, 2, trials, seed=11)[bad])
    for f, faulted in ((fn, False), (faulty, True)):
        report = check_equivariance(f, n, 2, trials=trials, seed=11)
        reference = sequential_equivariance(f, n, 2, trials=trials, seed=11)
        assert report.max_violation == reference.max_violation
        assert np.array_equal(report.witness_input, reference.witness_input)
        assert np.array_equal(report.witness_permutation, reference.witness_permutation)
        assert (report.max_violation > 1e-4) == faulted
    assert np.array_equal(report.witness_input, _draws(n, 2, trials, seed=11)[bad])
