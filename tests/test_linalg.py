import numpy as np
import pytest

from sumformer.errors import DomainError, ShapeError
from sumformer.linalg import matmul, matrix, softmax_rows


def test_matmul_identity():
    a = matrix([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(np.eye(2), a), a)


def test_matmul_permutation():
    p = matrix([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(matmul(np.eye(2), p), p)
    assert np.array_equal(matmul(p, p), np.eye(2))


def test_matmul_all_ones_contraction():
    a = np.ones((2, 3))
    b = np.ones((3, 2))
    assert np.array_equal(matmul(a, b), 3.0 * np.ones((2, 2)))


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        matmul(np.ones((2, 3)), np.ones((2, 3)))


def test_matmul_associativity_bounded_entries():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.uniform(-1e3, 1e3, size=(4, 5))
        b = rng.uniform(-1e3, 1e3, size=(5, 3))
        c = rng.uniform(-1e3, 1e3, size=(3, 6))
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        scale = np.maximum(np.abs(left), 1.0)
        assert np.max(np.abs(left - right) / scale) <= 1e-10


def test_matrix_rejects_nan():
    with pytest.raises(DomainError):
        matrix([[np.nan, 0.0]])


def test_softmax_symmetry():
    out = softmax_rows(np.array([[0.0, 0.0]]))
    assert np.allclose(out, [[0.5, 0.5]], atol=1e-15)


def test_softmax_constant_row_is_uniform():
    for n in (1, 2, 3, 7):
        for c in (-5.0, 0.0, 3.25):
            out = softmax_rows(np.full((1, n), c))
            assert np.max(np.abs(out - 1.0 / n)) <= 1e-12


def test_softmax_closed_form():
    out = softmax_rows(np.log(np.array([[1.0, 2.0]])))
    assert np.allclose(out, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-15)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(1)
    m = rng.normal(scale=10.0, size=(6, 9))
    out = softmax_rows(m)
    assert np.all(out >= 0.0)
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-12
    shifted = softmax_rows(m + rng.normal(size=(6, 1)))
    assert np.max(np.abs(shifted - out)) <= 1e-12
