import numpy as np
import pytest

from sumformer.errors import ContractError
from sumformer.mlp import MlpSpec, init_mlp_params, mlp_forward
from sumformer.verify import gradient_check_once

from oracles import central_difference_loop
from tape_oracle import Tape, gradient, mlp_param_nodes, mlp_taped


def test_gradient_of_square():
    tape = Tape()
    p = tape.parameter([[3.0]])
    loss = tape.square(p)
    grads = gradient(tape, loss)
    assert grads[p] == pytest.approx(6.0)


def test_gradient_of_constant_loss_is_zero():
    tape = Tape()
    p = tape.parameter([[3.0, -1.0]])
    loss = tape.mean(tape.constant([[5.0]]))
    grads = gradient(tape, loss)
    assert np.array_equal(grads[p], np.zeros((1, 2)))


def test_gradient_requires_scalar_loss():
    tape = Tape()
    p = tape.parameter([[1.0, 2.0]])
    with pytest.raises(ContractError):
        gradient(tape, tape.square(p))


def test_matmul_gradient_matches_hand_computed():
    # loss = mean(A @ B), dA = ones/size @ B^T
    tape = Tape()
    a = tape.parameter([[1.0, 2.0], [3.0, 4.0]])
    b = tape.parameter([[5.0], [6.0]])
    loss = tape.mean(tape.matmul(a, b))
    grads = gradient(tape, loss)
    assert np.allclose(grads[a], np.array([[5.0, 6.0], [5.0, 6.0]]) / 2.0)
    assert np.allclose(grads[b], np.array([[4.0], [6.0]]) / 2.0)


def test_group_sum_and_repeat_rows_are_adjoint_shapes():
    tape = Tape()
    x = tape.parameter(np.arange(12.0).reshape(6, 2))
    summed = tape.group_sum(x, 3)
    assert summed.value.shape == (2, 2)
    assert np.array_equal(summed.value[0], [0.0 + 2.0 + 4.0, 1.0 + 3.0 + 5.0])
    back = tape.repeat_rows(summed, 3)
    loss = tape.mean(back)
    grads = gradient(tape, loss)
    assert grads[x].shape == (6, 2)
    # each entry's group sum shows up 3 times among the 12 output entries
    assert np.allclose(grads[x], 3.0 / 12.0)


def test_two_layer_mlp_gradient_against_finite_differences():
    # random 2-layer MLP, random input: rel. err <= 1e-5 per the contract
    rng = np.random.default_rng(42)
    spec = MlpSpec((3, 8, 2))
    params = init_mlp_params(spec, rng)
    x = rng.uniform(-1, 1, size=(4, 3))
    y = rng.uniform(-1, 1, size=(4, 2))

    tape = Tape()
    nodes = mlp_param_nodes(tape, params)
    loss = tape.mean(tape.square(tape.sub(mlp_taped(tape, spec, nodes, tape.constant(x)), tape.constant(y))))
    grads = gradient(tape, loss)

    flat = [a for pair in params for a in pair]

    def f(values):
        rebuilt = [(values[0], values[1]), (values[2], values[3])]
        return float(np.mean((mlp_forward(spec, rebuilt, x) - y) ** 2))

    fd = central_difference_loop(f, flat, step=1e-5)
    for node, fd_grad in zip(tape.parameters, fd):
        ad = grads[node]
        denom = np.maximum(np.maximum(np.abs(ad), np.abs(fd_grad)), 1e-6)
        assert np.max(np.abs(ad - fd_grad) / denom) <= 1e-5


def test_gradient_check_suite_sample():
    # full 100-seed run lives in the acceptance suite; spot-check here
    for seed in range(5):
        assert gradient_check_once(seed) <= 1e-5


def test_gradient_accumulates_over_shared_parameter():
    tape = Tape()
    p = tape.parameter([[2.0]])
    loss = tape.mean(tape.add(tape.square(p), tape.scale(p, 3.0)))
    grads = gradient(tape, loss)
    assert grads[p] == pytest.approx(2.0 * 2.0 + 3.0)
