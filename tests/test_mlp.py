import numpy as np
import pytest

from sumformer.errors import ContractError, ShapeError
from sumformer.mlp import MlpSpec, init_mlp_params, mlp_forward, relu

from oracles import zero_mlp_params


def test_zero_net_maps_everything_to_zero():
    spec = MlpSpec((3, 4, 2))
    x = np.random.default_rng(0).uniform(size=(5, 3))
    assert np.array_equal(mlp_forward(spec, zero_mlp_params(spec), x), np.zeros((5, 2)))


def test_single_identity_layer():
    spec = MlpSpec((3, 3))
    params = [(np.eye(3), np.zeros((1, 3)))]
    x = np.random.default_rng(1).uniform(size=(4, 3))
    assert np.array_equal(mlp_forward(spec, params, x), x)


def test_relu_net_computes_max_zero_x():
    spec = MlpSpec((1, 1, 1))
    params = [(np.array([[1.0]]), np.zeros((1, 1))), (np.array([[1.0]]), np.zeros((1, 1)))]
    assert mlp_forward(spec, params, np.array([[-1.0]]))[0, 0] == 0.0
    assert mlp_forward(spec, params, np.array([[2.0]]))[0, 0] == 2.0


def test_relu_is_bitwise_the_where_form():
    # Every sign of zero, infinity and quiet NaN, the subnormals and the
    # extremes, then random bit patterns of either sign.  Whether fmax
    # keeps the sign of a -0.0 depends on the array length (vector or
    # scalar loop), so -0.0 is tried at every length up to 40.
    negative_zeros = [np.full((1, n), -0.0) for n in range(1, 41)]
    finfo = np.finfo(np.float64)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                        finfo.tiny, -finfo.tiny, finfo.max, -finfo.max, 1.0, -1.0])
    bits = np.random.default_rng(3).integers(0, 2**63, size=10000, dtype=np.int64)
    with np.errstate(invalid="ignore"):
        noise = bits.view(np.float64) + 0.0  # quiets any signaling NaN
    noise[::2] *= -1.0
    for h in (special.reshape(2, 7), noise.reshape(100, 100), *negative_zeros):
        reference = np.where(h > 0.0, h, 0.0)
        assert np.array_equal(relu(h).view(np.int64), reference.view(np.int64))
        in_place = h.copy()  # as mlp_forward applies it, to the layer's own output
        assert relu(in_place, out=in_place) is in_place
        assert np.array_equal(in_place.view(np.int64), reference.view(np.int64))


def test_forward_is_token_wise():
    rng = np.random.default_rng(2)
    spec = MlpSpec((2, 6, 3))
    params = init_mlp_params(spec, rng)
    x = rng.uniform(size=(5, 2))
    full = mlp_forward(spec, params, x)
    for i in range(5):
        # batched and single-row paths may differ by BLAS kernel rounding
        row = mlp_forward(spec, params, x[i:i + 1])
        assert np.allclose(full[i:i + 1], row, rtol=0, atol=1e-14)


def test_width_mismatch_raises():
    spec = MlpSpec((3, 2))
    params = zero_mlp_params(spec)
    with pytest.raises(ShapeError):
        mlp_forward(spec, params, np.ones((2, 4)))


def test_spec_validation():
    with pytest.raises(ShapeError):
        MlpSpec((3,))
    with pytest.raises(ContractError):
        MlpSpec((3, 0, 1))


def test_init_bounds_and_determinism():
    spec = MlpSpec((4, 5, 2))
    a = init_mlp_params(spec, np.random.default_rng(7))
    b = init_mlp_params(spec, np.random.default_rng(7))
    for (wa, ba), (wb, bb) in zip(a, b):
        assert np.array_equal(wa, wb) and np.array_equal(ba, bb)
    bound0 = np.sqrt(1.0 / 4.0)
    assert np.max(np.abs(a[0][0])) <= bound0
    assert np.max(np.abs(a[0][1])) <= bound0
