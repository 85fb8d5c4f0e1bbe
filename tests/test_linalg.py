import numpy as np
import pytest

from sumformer.errors import DomainError
from sumformer.linalg import require_finite, softmax_rows


def test_require_finite_rejects_nan():
    with pytest.raises(DomainError):
        require_finite(np.array([[np.nan, 0.0]]), "m")


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


def test_softmax_leaves_its_input_unchanged():
    m = np.random.default_rng(2).normal(size=(5, 7))
    before = m.copy()
    softmax_rows(m)
    assert np.array_equal(m, before)
