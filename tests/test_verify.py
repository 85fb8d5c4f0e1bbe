"""The outcome rule every check's record comes from.  The gradient check:
stacked central differences against the per-entry loop, and a loss callable
that survives being wrapped.  The grid-table check against its per-sample
oracle, and the stack sizes of the grouped checks."""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from sumformer import verify
from sumformer.attention import HEADS, construction_bytes
from sumformer.equivariance import GROUP_TOKENS
from sumformer.mlp import param_views
from sumformer.model import (
    MlpCombiner,
    MlpFeatureMap,
    SumformerModel,
    TableCombiner,
    batch_forward,
    build_mlp_sumformer,
)
from sumformer.multisym import basis_size
from sumformer.train import flatten_params
from sumformer.verify import (
    GRADIENT_SEQS,
    CheckRecord,
    VerifyConfig,
    _outcome,
    _stacked_mse,
    central_difference,
    check_gradients,
    verify_bytes,
)

from oracles import central_difference_loop, discrete_exactness_per_sample


def test_the_outcome_is_the_first_worst_case_a_nan_counting_as_worst():
    inputs = [np.full((1, 1), float(i)) for i in range(6)]
    groups = [([1.0, 3.0], inputs[:2]), ([], []), ([3.0, np.nan, np.nan, 2.0], inputs[2:])]
    record = _outcome("c", VerifyConfig(), 1.0, groups)
    assert (record.status, record.cases) == ("fail", 6) and np.isnan(record.max_residual)
    assert record.witness is inputs[3]
    record = _outcome("c", VerifyConfig(), 1.0, groups[:1])
    assert (record.status, record.max_residual, record.witness) == ("fail", 3.0, inputs[1])
    assert _outcome("c", VerifyConfig(tol=3.0), 1.0, groups[:1]).witness is None  # tol overrides


@pytest.mark.parametrize("groups", [[], [([], None)], [([], [])] * 3], ids=["none", "empty", "empties"])
def test_a_check_that_runs_no_case_is_a_skip_at_zero(groups):
    record = _outcome("c", VerifyConfig(tol=-1.0), 1.0, groups)
    assert (record.status, record.max_residual, record.cases, record.witness) == ("skip", 0.0, 0, None)


def test_every_check_returns_one_record_and_a_passing_one_no_witness():
    config = VerifyConfig(n_list=[1, 2], d_list=[1], samples=3, trials=2, omega_seeds=1, gradient_seeds=2)
    for check in verify.ALL_CHECKS:
        record = check(config)
        assert isinstance(record, CheckRecord) and record.status in ("pass", "skip"), record
        assert record.witness is None, record.name


def _unstacked_mse(model, vector, x, y):
    """The batch MSE of ``model`` with its parameters set to the flat ``vector``."""
    phi, psi = param_views(vector, model.trainable_params())
    trial = SumformerModel(MlpFeatureMap(model.phi.spec, phi), MlpCombiner(model.psi.spec, psi))
    return float(np.mean((batch_forward(trial, x) - y) ** 2))


@pytest.mark.parametrize("seed,n", [(0, 2), (1, 3), (2, 2), (3, 1)])
def test_stacked_central_difference_is_the_per_entry_loop(seed, n):
    rng = np.random.default_rng(seed)
    d, d_latent, hidden = seed % 3 + 1, seed + 2, 2 * seed + 3
    model = build_mlp_sumformer(d, d_latent, seed, hidden=(hidden,))
    x = rng.uniform(-1, 1, size=(GRADIENT_SEQS, n, d))
    y = rng.uniform(-1, 1, size=(GRADIENT_SEQS, n, d))
    flat = flatten_params(model)
    before = flat.copy()

    stacked = central_difference(_stacked_mse(model, x, y), flat)
    loop = central_difference_loop(lambda values: _unstacked_mse(model, values[0], x, y), [flat])
    assert np.array_equal(stacked, loop[0])
    assert np.array_equal(flat, before)


def test_gradient_check_survives_a_counting_wrapper_on_its_loss(monkeypatch):
    # A traced benchmark run replaces the first positional argument of
    # verify.central_difference with a functools.wraps counting function.
    calls = []
    original = verify.central_difference

    def traced(*args, **kwargs):
        fn = args[0]

        @functools.wraps(fn)
        def counted(*a, **k):
            calls.append(1)
            return fn(*a, **k)

        return original(counted, *args[1:], **kwargs)

    monkeypatch.setattr(verify, "central_difference", traced)
    config = VerifyConfig()
    record = check_gradients(config)
    assert record.status == "pass"
    assert len(calls) == config.gradient_seeds == record.cases


def test_discrete_exactness_passes_at_every_admitted_delta():
    """The within-cell points come from the model's own cells, so no delta that
    ``verify --delta`` admits puts a point in a neighbouring cell."""
    for delta in range(1, 101):
        record = verify.check_discrete_exactness(VerifyConfig(delta=delta, samples=3))
        assert (record.status, record.max_residual, record.cases) == ("pass", 0.0, 3), delta


def _discrete_x(samples, delta):
    """The x of each sample ``check_discrete_exactness`` draws, in the same
    generator order: anchors, x, same-cell fractions, permutation."""
    rng = np.random.default_rng(5)
    xs = []
    for _ in range(samples):
        rng.integers(0, delta, size=(2, 1))
        xs.append(rng.uniform(size=(2, 1)))
        rng.uniform(0, 1, size=(2, 1))
        rng.permutation(2)
    return xs


@pytest.mark.parametrize("delta", [1, 4, 22])
def test_grouped_discrete_exactness_is_the_per_sample_oracle(monkeypatch, delta):
    """Over three groups of samples, with a table fault on the x of the last
    sample of the middle group only."""
    group = GROUP_TOKENS // (4 * 2)
    samples, bad = 3 * group, 2 * group - 1
    record = verify.check_discrete_exactness(VerifyConfig(samples=samples, delta=delta))
    assert (record.max_residual, record.witness) == discrete_exactness_per_sample(samples, delta) == (0.0, None)

    key = np.sort(_discrete_x(samples, delta)[bad], axis=0)  # x in the forward's canonical order
    apply = TableCombiner.apply

    def faulty(self, x_rows, *args, **kwargs):
        out = apply(self, x_rows, *args, **kwargs)
        for x, o in zip(x_rows.reshape(-1, 2, 1), out.reshape(-1, 2, 1)):
            o += 1e-3 * np.array_equal(x, key)
        return out

    monkeypatch.setattr(TableCombiner, "apply", faulty)
    record = verify.check_discrete_exactness(VerifyConfig(samples=samples, delta=delta))
    worst, expected = discrete_exactness_per_sample(samples, delta)
    assert record.status == "fail" and record.max_residual == worst > 1e-4
    assert np.array_equal(record.witness, expected)
    assert np.array_equal(record.witness, _discrete_x(samples, delta)[bad])


def test_discrete_exactness_nan_is_the_worst_residual(monkeypatch):
    monkeypatch.setattr(TableCombiner, "apply", lambda self, x_rows, *args, **kwargs:
                        np.full(x_rows.shape, np.nan))
    record = verify.check_discrete_exactness(VerifyConfig(samples=5))
    assert np.isnan(record.max_residual) and record.status == "fail"
    assert np.array_equal(record.witness, _discrete_x(5, 4)[0])


def _largest_stack(monkeypatch, check, config):
    """The largest stack, in tokens, that a passing ``check`` hands a map
    (each map ``check_equivariance`` samples, or ``sumformer_forward``),
    after checking that ``verify_bytes`` bounds its traced peak memory."""
    largest = 0

    def note(xs):
        nonlocal largest
        largest = max(largest, xs.shape[0] * xs.shape[1])
        return xs

    sample, forward = verify.check_equivariance, verify.sumformer_forward
    with monkeypatch.context() as patch:
        patch.setattr(verify, "check_equivariance", lambda f, *a, **k: sample(lambda xs: f(note(xs)), *a, **k))
        patch.setattr(verify, "sumformer_forward", lambda model, xs: forward(model, note(xs)))
        tracemalloc.start()
        try:
            record = check(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert record.status == "pass"
    assert peak <= verify_bytes(config)
    return largest


def test_trials_and_samples_cost_time_only(monkeypatch):
    """The stacks a check hands its maps stay at one group however many
    trials or samples it runs, and ``verify_bytes`` bounds the traced peak."""
    trials = [_largest_stack(monkeypatch, verify.check_equivariance_models, VerifyConfig(trials=t))
              for t in (20, 2000)]
    assert trials[0] == trials[1] <= GROUP_TOKENS
    # 20 samples of four 2-token inputs fill 160 tokens; a full group fills GROUP_TOKENS.
    group = GROUP_TOKENS // (4 * 2)
    samples = [_largest_stack(monkeypatch, verify.check_discrete_exactness, VerifyConfig(samples=s))
               for s in (20, group, 2000)]
    assert samples == [4 * 2 * 20, GROUP_TOKENS, GROUP_TOKENS]


def test_the_construction_guard_admits_every_construction_verify_admits():
    """``verify_bytes`` counts each construction's four m x m weights and
    10 max(n m, STACK_FLOATS) floats beside them, and a head's extra matrices
    hold fewer than 2 n m entries, so a run the CLI admits never meets the
    memory guard of ``build_sum_extraction``.  Estimates only: nothing is built."""
    for n, d in itertools.product(range(1, 65), (1, 2, 3)):
        need = verify_bytes(VerifyConfig(n_list=[n], d_list=[d]))
        m = 1 + d + 2 * basis_size(d, n)
        for variant, head in HEADS.items():
            if head.needs_k and n < 2:  # verify builds no such construction
                continue
            k = n - 1 if head.needs_k else None
            assert construction_bytes(variant, n, m, k) <= need, (variant, n, d)
