import math

import numpy as np
import pytest

from sumformer.errors import BudgetError, ContractError, InvarianceViolationError, ShapeError
from sumformer.linalg import MEMORY_BUDGET_BYTES
from sumformer.multisym import (
    basis_size,
    enumerate_multidegrees,
    generation_bytes,
    generation_oracle,
    product_terms,
    power_sum,
    power_sum_vector,
)

from oracles import coefficient_of, monomial_features


def test_enumerate_d1():
    basis = enumerate_multidegrees(1, 2)
    assert basis.degrees == ((1,), (2,))


def test_enumerate_d2_order1():
    basis = enumerate_multidegrees(2, 1)
    assert basis.degrees == ((1, 0), (0, 1))


def test_enumerate_d2_order2_graded_lex():
    basis = enumerate_multidegrees(2, 2)
    assert basis.degrees == ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def test_count_formula_spot_value():
    assert enumerate_multidegrees(4, 5).size == 125
    assert basis_size(4, 5) == math.comb(9, 4) - 1 == 125


def test_count_formula_refuses_negative_arguments():
    for d, n_max in ((-1, 3), (2, -1)):
        with pytest.raises(ContractError):
            basis_size(d, n_max)


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("n_max", range(1, 9))
def test_count_formula_exhaustive(d, n_max):
    basis = enumerate_multidegrees(d, n_max)
    assert basis.size == math.comb(n_max + d, d) - 1
    assert len(set(basis.degrees)) == basis.size
    assert all(1 <= sum(a) <= n_max for a in basis.degrees)


def test_invalid_dims_rejected():
    with pytest.raises(ContractError):
        enumerate_multidegrees(0, 3)


def test_count_overflow_guard():
    from sumformer.errors import CountOverflowError

    with pytest.raises(CountOverflowError):
        enumerate_multidegrees(60, 60)  # C(120,60)-1 far exceeds 64-bit range


def test_degree_budget_guard():
    from sumformer.errors import BudgetError
    from sumformer.linalg import BUILD_BUDGET

    assert basis_size(2, 1412) <= BUILD_BUDGET < basis_size(2, 1413)
    assert enumerate_multidegrees(2, 1412).size == basis_size(2, 1412)
    with pytest.raises(BudgetError, match="C\\(1415,2\\)-1 = 1000404 exceeds"):
        enumerate_multidegrees(2, 1413)


def test_monomial_features_zero_vector():
    basis = enumerate_multidegrees(3, 2)
    assert np.array_equal(monomial_features(np.zeros(3), basis), np.zeros(basis.size))


def test_monomial_features_ones_vector():
    basis = enumerate_multidegrees(3, 2)
    assert np.array_equal(monomial_features(np.ones(3), basis), np.ones(basis.size))


def test_monomial_features_hand_values():
    basis = enumerate_multidegrees(2, 2)
    feats = monomial_features(np.array([2.0, 3.0]), basis)
    assert np.array_equal(feats, [2.0, 3.0, 4.0, 6.0, 9.0])


def test_monomial_features_vanish_with_zero_coordinate():
    basis = enumerate_multidegrees(2, 3)
    feats = monomial_features(np.array([0.0, 2.0]), basis)
    for value, alpha in zip(feats, basis.degrees):
        if alpha[0] > 0:
            assert value == 0.0


def test_power_sum_examples():
    assert power_sum(np.array([[1.0], [2.0], [3.0]]), (2,)) == 14.0
    assert power_sum(np.array([[1.0, 2.0], [3.0, 4.0]]), (1, 1)) == 14.0


def test_power_sum_permutation_invariant_bitwise():
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(5, 2))
    for _ in range(10):
        perm = rng.permutation(5)
        assert power_sum(x[perm], (2, 1)) == power_sum(x, (2, 1))


def test_power_sum_vector_matches_entries_exactly():
    rng = np.random.default_rng(4)
    basis = enumerate_multidegrees(2, 3)
    x = rng.uniform(size=(4, 2))
    vec = power_sum_vector(x, basis)
    for j, alpha in enumerate(basis.degrees):
        assert vec[j] == power_sum(x, alpha)


def test_power_sum_vector_zero_matrix():
    basis = enumerate_multidegrees(2, 2)
    assert np.array_equal(power_sum_vector(np.zeros((3, 2)), basis), np.zeros(5))


def test_power_sum_vector_single_token():
    basis = enumerate_multidegrees(2, 2)
    x = np.array([[0.3, 0.7]])
    assert np.array_equal(power_sum_vector(x, basis), monomial_features(x[0], basis))


def test_power_sum_vector_permutation_bitwise():
    rng = np.random.default_rng(5)
    basis = enumerate_multidegrees(3, 3)
    x = rng.uniform(size=(6, 3))
    for _ in range(10):
        perm = rng.permutation(6)
        assert np.array_equal(power_sum_vector(x[perm], basis), power_sum_vector(x, basis))


def test_generation_oracle_pairwise_product():
    def target(x):
        n = x.shape[0]
        return sum(float(x[i, 0] * x[j, 0]) for i in range(n) for j in range(i + 1, n))

    report = generation_oracle(target, d=1, n=2, sample_count=400, seed=0)
    assert report.residual <= 1e-9
    # e2 = (p1^2 - p2) / 2
    assert coefficient_of(report, (1,), (1,)) == pytest.approx(0.5, abs=1e-8)
    assert coefficient_of(report, (2,)) == pytest.approx(-0.5, abs=1e-8)


def test_generation_oracle_power_sum_itself():
    def target(x):
        return float(np.sum(x[:, 0]))

    report = generation_oracle(target, d=1, n=3, sample_count=300, seed=1)
    assert report.residual <= 1e-10
    assert coefficient_of(report, (1,)) == pytest.approx(1.0, abs=1e-9)


def test_generation_oracle_mixed_elementary():
    def target(x):
        return float(x[0, 0] * x[1, 1] + x[1, 0] * x[0, 1])

    report = generation_oracle(target, d=2, n=2, sample_count=500, seed=2)
    assert report.residual <= 1e-8


def test_generation_oracle_rejects_non_invariant_target():
    def target(x):
        return float(x[0, 0])  # depends on row order

    with pytest.raises(InvarianceViolationError) as exc_info:
        generation_oracle(target, d=1, n=3, sample_count=50, seed=3)
    assert exc_info.value.permutation is not None


def _not_polynomial(x):
    return float(np.sum(np.sin(20 * x)))


def test_more_draws_than_terms_are_needed_to_test_a_fit():
    """At d = 2, n = 2 the fit has 39 terms: 25 draws would fit any target
    to rounding, and 50 draws show that this one is no such polynomial."""
    assert len(product_terms(2, 2)) == 39
    assert generation_oracle(_not_polynomial, 2, 2, sample_count=50, seed=0).residual > 1e-3


@pytest.mark.parametrize("d, n, draws, error", [
    (2, 2, 25, ContractError),
    (2, 2, 39, ContractError),
    (1, 3, 23, ContractError),   # 23 terms at d = 1, n = 3
    (1, 2, 10**9, BudgetError),  # about 186 GiB of design matrix and draws
])
def test_generation_oracle_refuses_before_any_draw(d, n, draws, error):
    calls = []
    with pytest.raises(error, match=f"{draws}"):
        generation_oracle(lambda x: calls.append(x) or 0.0, d, n, sample_count=draws)
    assert calls == []


def test_generation_oracle_admits_what_its_estimate_admits():
    assert generation_bytes(1, 2, 10**9) > MEMORY_BUDGET_BYTES
    draws = MEMORY_BUDGET_BYTES // generation_bytes(1, 2, 1)
    assert generation_bytes(1, 2, draws) <= MEMORY_BUDGET_BYTES < generation_bytes(1, 2, draws + 1)
    with pytest.raises(BudgetError):
        generation_oracle(_not_polynomial, 1, 2, sample_count=draws + 1)


def test_power_sum_vector_matches_entries_to_rounding_at_d1():
    # At d = 1 the two functions' power kernels can round a monomial
    # differently, so an entry may differ from power_sum in its last bits.
    eps = np.finfo(np.float64).eps
    for n in (2, 3):
        basis = enumerate_multidegrees(1, n)
        rng = np.random.default_rng(n)
        for _ in range(200):
            x = rng.uniform(size=(n, 1))
            vec = power_sum_vector(x, basis)
            for j, alpha in enumerate(basis.degrees):
                expected = power_sum(x, alpha)
                assert abs(vec[j] - expected) <= n * eps * expected


def test_stacked_power_sums_are_bitwise_each_sequence_alone():
    rng = np.random.default_rng(6)
    for d in (1, 2, 3):
        for n in range(1, 7):
            basis = enumerate_multidegrees(d, n)
            xs = rng.uniform(size=(9, n, d))
            xs[:3, :, 0] = 0.5  # ties in the first column sort by the next
            vectors = power_sum_vector(xs, basis)
            sums = {alpha: power_sum(xs, alpha) for alpha in basis.degrees}
            for i, x in enumerate(xs):
                assert np.array_equal(vectors[i], power_sum_vector(x, basis))
                for alpha, values in sums.items():
                    assert values[i] == power_sum(x, alpha)
