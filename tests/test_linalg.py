import numpy as np
import pytest

from sumformer.errors import DomainError, ShapeError
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


def test_softmax_in_place_is_bitwise_the_allocating_call():
    rng = np.random.default_rng(3)
    for shape in ((1, 1), (5, 7), (33, 130), (3, 4, 9)):
        m = rng.normal(scale=5.0, size=shape)
        expected = softmax_rows(m)
        assert softmax_rows(m, out=m) is m
        assert np.array_equal(m, expected)
    m = rng.normal(size=(4, 6))
    out = np.empty_like(m)
    assert softmax_rows(m, out) is out
    assert np.array_equal(out, softmax_rows(m))


def test_softmax_out_of_the_wrong_shape_or_dtype_is_refused_before_writing():
    m = np.random.default_rng(4).normal(size=(3, 5))
    for bad in (np.zeros((3, 4)), np.zeros((1, 3, 5)), np.zeros((3, 5), dtype=np.float32),
                np.zeros((3, 5), dtype=np.int64), [[0.0] * 5] * 3):
        before = np.array(bad, copy=True)
        with pytest.raises(ShapeError):
            softmax_rows(m, out=bad)
        assert np.array_equal(np.asarray(bad), before)


def test_softmax_of_a_non_float64_input_is_refused():
    for bad in (np.arange(6).reshape(2, 3), np.ones((2, 3), dtype=np.float32),
                np.ones((2, 3), dtype=bool)):
        with pytest.raises(ShapeError):
            softmax_rows(bad)


def test_softmax_is_the_shifted_exp_over_its_row_sums():
    m = np.random.default_rng(6).normal(size=(2, 4, 5))
    e = np.exp(m - m.max(axis=-1, keepdims=True))
    assert np.array_equal(softmax_rows(m), e / e.sum(axis=-1, keepdims=True))
    inplace = m.copy()
    assert softmax_rows(inplace, out=inplace) is inplace
    assert np.array_equal(inplace, softmax_rows(m))


def test_softmax_in_place_refuses_non_finite_scores_before_writing():
    for bad_value in (np.nan, np.inf, -np.inf):
        m = np.random.default_rng(5).normal(size=(4, 6))
        m[-1, -1] = bad_value
        before = m.copy()
        with pytest.raises(DomainError):
            softmax_rows(m, out=m)
        assert np.array_equal(m, before, equal_nan=True)
