"""The gradient check: stacked central differences against the per-entry
loop, and a loss callable that survives being wrapped."""

import functools

import numpy as np
import pytest

from sumformer import verify
from sumformer.mlp import param_views
from sumformer.model import (
    MlpCombiner,
    MlpFeatureMap,
    SumformerModel,
    batch_forward,
    build_mlp_sumformer,
)
from sumformer.train import flatten_params
from sumformer.verify import (
    GRADIENT_SEQS,
    VerifyConfig,
    _stacked_mse,
    central_difference,
    check_gradients,
)

from oracles import central_difference_loop


def _unstacked_mse(model, vector, x, y):
    """The batch MSE of ``model`` with its parameters set to the flat ``vector``."""
    phi, psi = param_views(vector, model.trainable_params())
    trial = SumformerModel(model.d, model.d_latent, MlpFeatureMap(model.phi.spec, phi),
                           MlpCombiner(model.psi.spec, psi))
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
    record, _ = check_gradients(config)
    assert record.status == "pass"
    assert len(calls) == config.gradient_seeds == record.cases


def test_discrete_exactness_passes_at_every_admitted_delta():
    """The within-cell points come from the model's own cells, so no delta that
    ``verify --delta`` admits puts a point in a neighbouring cell."""
    for delta in range(1, 101):
        record, _ = verify.check_discrete_exactness(VerifyConfig(delta=delta, samples=3))
        assert (record.status, record.max_residual, record.cases) == ("pass", 0.0, 3), delta
