import dataclasses
import itertools

import numpy as np
import pytest

from sumformer.attention import HEADS, build_sum_extraction, draws_features
from sumformer.equivariance import check_equivariance, lift
from sumformer.errors import BudgetError, DomainError, ShapeError
from sumformer.mlp import MlpSpec, param_views
from sumformer.model import (
    CellFeatureMap,
    MlpCombiner,
    MlpFeatureMap,
    PolynomialCombiner,
    PolynomialFeatureMap,
    SumformerModel,
    TableCombiner,
    batch_forward,
    build_continuous_sumformer,
    build_discrete_sumformer,
    build_mlp_sumformer,
    build_polynomial_sumformer,
    sumformer_forward,
)
from sumformer.multisym import enumerate_multidegrees
from sumformer.train import trainable_arrays

from oracles import polynomial_psi, sup_error, zero_mlp_params


def _pairwise_terms():
    """The term rows of psi(x, s) = s1^2/2 - s2/2 + x over the other tokens'
    power sums s at n = 3, d = 1."""
    return (np.array([[0], [0], [1]]), np.array([[2, 0, 0], [0, 1, 0], [0, 0, 0]]),
            np.array([[0.5], [-0.5], [1.0]]))


def test_zero_psi_gives_zero_output():
    basis = enumerate_multidegrees(1, 2)
    spec = MlpSpec((3, 1))
    model = SumformerModel(
        phi=PolynomialFeatureMap(basis),
        psi=MlpCombiner(spec, zero_mlp_params(spec)),
    )
    x = np.random.default_rng(0).uniform(size=(4, 1))
    assert np.array_equal(sumformer_forward(model, x), np.zeros((4, 1)))


def test_projection_psi_gives_identity():
    basis = enumerate_multidegrees(2, 2)
    spec = MlpSpec((2 + basis.size, 2))
    params = zero_mlp_params(spec)
    params[0][0][:2, :] = np.eye(2)  # psi(x, sigma) = x
    model = SumformerModel(
        phi=PolynomialFeatureMap(basis),
        psi=MlpCombiner(spec, params),
    )
    x = np.random.default_rng(1).uniform(size=(5, 2))
    assert np.allclose(sumformer_forward(model, x), x, atol=1e-15)


def test_hand_built_pairwise_target():
    # psi(x, sigma) = (s1^2 - s2)/2 + x with s the other-token power sums
    # realizes q(x1, {x2, x3}) = x1 + x2 * x3
    model = build_continuous_sumformer(3, 1, *_pairwise_terms())
    out = sumformer_forward(model, np.array([[1.0], [2.0], [3.0]]))
    assert np.allclose(out, [[7.0], [5.0], [5.0]], atol=1e-12)


def test_empty_term_list_is_zero_function():
    model = build_continuous_sumformer(2, 1, np.zeros((0, 1), int), np.zeros((0, 2), int), np.zeros((0, 1)))
    x = np.random.default_rng(2).uniform(size=(2, 1))
    assert np.array_equal(sumformer_forward(model, x), np.zeros((2, 1)))


def test_constant_term_reproduces_other_token_sum():
    # psi = s_1 realizes f_i = p1(X) - x_i
    model = build_continuous_sumformer(2, 1, np.array([[0]]), np.array([[1, 0]]), np.array([[1.0]]))
    out = sumformer_forward(model, np.array([[1.0], [4.0]]))
    assert np.allclose(out, [[4.0], [1.0]], atol=1e-12)


def test_continuous_model_matches_pairwise_oracle():
    # e2(X) as a lift: row i = (s1^2 - s2)/2 + x_i * s1 over the other tokens
    x_exponents, latent_exponents, coefficients = _pairwise_terms()
    latent_exponents[2] = (1, 0, 0)
    model = build_continuous_sumformer(3, 1, x_exponents, latent_exponents, coefficients)

    def brute_e2(x):
        n = x.shape[0]
        return sum(x[i, 0] * x[j, 0] for i in range(n) for j in range(i + 1, n))

    rng = np.random.default_rng(3)
    for _ in range(25):
        x = rng.uniform(size=(3, 1))
        out = sumformer_forward(model, x)
        assert np.max(np.abs(out - brute_e2(x))) <= 1e-9


def test_continuous_model_equals_sum_extraction_bridge():
    # the fixed-weight attention network followed by the same psi agrees
    # with the direct forward
    basis = enumerate_multidegrees(1, 3)
    model = build_continuous_sumformer(3, 1, *_pairwise_terms())
    con = build_sum_extraction("standard", 3, 1, basis)
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = rng.uniform(size=(3, 1))
        z = con.forward(x)
        x_cols = z[:, 1:2]
        phi_cols = z[:, 2:2 + basis.size]
        sigma = z[0, -basis.size:]
        via_network = model.psi.apply(x_cols, phi_cols, sigma)
        assert np.max(np.abs(via_network - sumformer_forward(model, x))) <= 1e-8


def test_all_model_kinds_are_equivariant():
    n, d = 4, 2
    models = [
        build_mlp_sumformer(d, 6, seed=0),
        build_polynomial_sumformer(n, d, seed=1),
    ]
    for model in models:
        report = check_equivariance(
            lambda xs: sumformer_forward(model, xs), n, d, trials=25, seed=5
        )
        assert report.max_violation <= 1e-10


def test_sumformer_forward_is_bitwise_equivariant():
    # Row-permuted matrix products need not agree bitwise; evaluating the
    # tokens in canonical order makes every permutation see one computation.
    for n, d in [(3, 2), (4, 1), (6, 3), (8, 2)]:
        for seed in range(50):
            rng = np.random.default_rng(seed)
            x = rng.uniform(size=(n, d))
            perm = rng.permutation(n)
            for model in (build_mlp_sumformer(d, 6, seed), build_polynomial_sumformer(n, d, seed)):
                assert np.array_equal(sumformer_forward(model, x[perm]), sumformer_forward(model, x)[perm])


def _random_continuous_sumformer(n, d, rng):
    """Three random latent rows beside each of the first three degrees and
    the zero x-exponent."""
    basis = enumerate_multidegrees(d, n)
    alphas = np.array([*basis.degrees[:3], (0,) * d])
    rows = 3 * len(alphas)
    return build_continuous_sumformer(n, d, np.repeat(alphas, 3, axis=0),
                                      rng.integers(0, 3, size=(rows, basis.size)), rng.normal(size=(rows, d)))


@pytest.mark.parametrize("n, d", [(1, 1), (1, 2), (3, 1), (4, 2), (2, 3)])
def test_stacked_forward_equals_each_sequence_alone(n, d):
    rng = np.random.default_rng(10 * n + d)
    models = (build_mlp_sumformer(d, 6, seed=n), build_polynomial_sumformer(n, d, seed=d),
              _random_continuous_sumformer(n, d, rng))
    for s_count in (1, 2, 25):
        xs = rng.uniform(size=(s_count, n, d))
        for model in models:
            out = sumformer_forward(model, xs)
            assert out.shape == (s_count, n, model.psi.out_width)
            for x, row in zip(xs, out):
                assert np.array_equal(row, sumformer_forward(model, x))


def test_stack_of_permuted_copies_is_bitwise_permuted():
    n, d = 4, 2
    rng = np.random.default_rng(12)
    x = rng.uniform(size=(n, d))
    models = (build_mlp_sumformer(d, 6, seed=0), build_polynomial_sumformer(n, d, seed=1),
              _random_continuous_sumformer(n, d, rng))
    for p in itertools.permutations(range(n)):
        p = np.array(p)
        for model in models:
            out = sumformer_forward(model, np.stack([x, x[p]]))
            assert np.array_equal(out[1], out[0][p])


def _stacked_model(models):
    """One model whose MLP parameters stack those of ``models`` on a leading axis."""
    flats = np.stack([np.concatenate([a.ravel() for a in trainable_arrays(m)]) for m in models])
    phi, psi = param_views(flats, models[0].trainable_params())
    first = models[0]
    return SumformerModel(MlpFeatureMap(first.phi.spec, phi), MlpCombiner(first.psi.spec, psi))


@pytest.mark.parametrize("count", [1, 4])
@pytest.mark.parametrize("d, d_latent, hidden", [(2, 4, (6, 5)), (1, 1, (2,)), (3, 5, (8,))])
def test_batch_forward_of_stacked_parameter_sets_is_each_set_alone(count, d, d_latent, hidden):
    n = 3
    models = [build_mlp_sumformer(d, d_latent, seed=s, hidden=hidden) for s in range(count)]
    xs = np.random.default_rng(count).uniform(-1, 1, size=(5, n, d))
    out = batch_forward(_stacked_model(models), xs)
    assert out.shape == (count, 5, n, d)
    for model, alone in zip(models, out):
        assert np.array_equal(alone, batch_forward(model, xs))


@pytest.mark.parametrize("layer, which, shape", [
    (0, 0, (3, 2, 7)), (0, 1, (3, 2, 6)), (1, 0, (3, 5, 4)), (1, 1, (3, 4)),
])
def test_stacked_parameters_of_the_wrong_trailing_shape_are_refused(layer, which, shape):
    models = [build_mlp_sumformer(2, 4, seed=s, hidden=(6,)) for s in range(3)]
    stacked = _stacked_model(models)
    pair = list(stacked.psi.params[layer])
    pair[which] = np.zeros(shape)
    stacked.psi.params[layer] = tuple(pair)
    with pytest.raises(ShapeError):
        batch_forward(stacked, np.zeros((2, 3, 2)))


@pytest.mark.parametrize("shape", [(4, 3), (2, 4, 3), (2, 2, 4, 2), (2,)])
def test_sumformer_forward_rejects_bad_shapes(shape):
    model = build_mlp_sumformer(2, 6, seed=0)
    with pytest.raises(ShapeError):
        sumformer_forward(model, np.zeros(shape))


@pytest.mark.parametrize("n, d", [(3, 1), (3, 2), (4, 2), (2, 3)])
def test_polynomial_psi_equals_the_per_token_loop(n, d):
    rng = np.random.default_rng(20 * n + d)
    model = _random_continuous_sumformer(n, d, rng)
    for s_count in (1, 7):
        xs = rng.uniform(size=(s_count, n, d))
        phi = model.phi.rows(xs)
        sigma = phi.sum(axis=1)
        loop = np.stack([polynomial_psi(model.psi, x, f, s) for x, f, s in zip(xs, phi, sigma)])
        # The stack and its rows, as the model's forwards pass them.
        assert np.array_equal(model.psi.apply(xs, phi, sigma), loop)
        rows = model.psi.apply(xs.reshape(-1, d), phi.reshape(s_count * n, -1), sigma)
        assert np.array_equal(rows.reshape(loop.shape), loop)


def test_mlp_phi_sigma_matches_manual_sum():
    model = build_mlp_sumformer(2, 4, seed=2)
    x = np.random.default_rng(6).uniform(size=(3, 2))
    phi_rows = model.phi.rows(x)
    out = sumformer_forward(model, x)
    stacked = np.hstack([x, np.tile(phi_rows.sum(axis=0), (3, 1))])
    from sumformer.mlp import mlp_forward

    expected = mlp_forward(model.psi.spec, model.psi.params, stacked)
    assert np.max(np.abs(out - expected)) <= 1e-12


# ---------------------------------------------------------------------------
# Discrete (grid) realization
# ---------------------------------------------------------------------------

def test_discrete_two_cells_first_token():
    model = build_discrete_sumformer(lambda x, rest: x, delta_cells=2, n=2, d=1)
    out = sumformer_forward(model, np.array([[0.6], [0.1]]))
    assert np.array_equal(out, [[0.5], [0.0]])


def test_discrete_constant_target_any_resolution():
    for delta in (1, 2, 5):
        model = build_discrete_sumformer(
            lambda x, rest: np.full_like(x, 0.25), delta_cells=delta, n=3, d=1
        )
        x = np.random.default_rng(delta).uniform(size=(3, 1))
        assert np.array_equal(sumformer_forward(model, x), np.full((3, 1), 0.25))


# Beyond 4, c * (1/delta) differs from the anchor c/delta for some c, and at
# 22, 49 and 100 floor(c/delta * delta) is c - 1 for some c.
GRID_DELTAS = [4, 5, 10, 22, 49, 100]


@pytest.mark.parametrize("delta", GRID_DELTAS)
def test_discrete_exact_at_anchors(delta):
    def g(x, rest):
        return x + rest.sum(axis=0) ** 2

    model = build_discrete_sumformer(g, delta_cells=delta, n=2, d=1)
    f = lift(g)
    rng = np.random.default_rng(7)
    for _ in range(20):
        anchors = rng.integers(0, delta, size=(2, 1)) / delta
        assert np.array_equal(sumformer_forward(model, anchors), f(anchors))


def _same_cell_points(phi: CellFeatureMap, x: np.ndarray, rng) -> np.ndarray:
    """A uniform point in the cell of each entry of x, by the map's own edges."""
    cells = phi.cells(x)
    low, high = phi.edges[cells], phi.edges[cells + 1]
    return np.minimum(low + (high - low) * rng.uniform(size=x.shape), np.nextafter(high, low))


@pytest.mark.parametrize("delta", GRID_DELTAS)
def test_discrete_piecewise_constant_within_cells(delta):
    def g(x, rest):
        return x * 2.0 + rest.sum(axis=0)

    model = build_discrete_sumformer(g, delta_cells=delta, n=2, d=1)
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.uniform(size=(2, 1))
        same_cell = _same_cell_points(model.phi, x, rng)
        assert np.array_equal(model.phi.cells(same_cell), model.phi.cells(x))
        assert np.array_equal(sumformer_forward(model, x), sumformer_forward(model, same_cell))


def test_discrete_permutation_exact():
    def g(x, rest):
        return x + rest.sum(axis=0) ** 2

    model = build_discrete_sumformer(g, delta_cells=3, n=3, d=1)
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.uniform(size=(3, 1))
        perm = rng.permutation(3)
        assert np.array_equal(sumformer_forward(model, x[perm]), sumformer_forward(model, x)[perm])


def test_discrete_lipschitz_bound():
    # g(x1, {x2}) = x1 + x2^2 has Euclidean gradient norm at most sqrt(5)
    def g(x, rest):
        return x + rest.sum(axis=0) ** 2

    lipschitz = np.sqrt(5.0)
    n, d = 2, 1
    errors = {}
    for delta in (4, 8):
        model = build_discrete_sumformer(g, delta_cells=delta, n=n, d=d)
        err = sup_error(lambda x: sumformer_forward(model, x), g, n, d, sample_count=1000, seed=10)
        assert err <= lipschitz * (1.0 / delta) * np.sqrt(n * d)
        errors[delta] = err
    assert 0.3 <= errors[8] / errors[4] <= 0.8


def test_discrete_domain_error():
    model = build_discrete_sumformer(lambda x, rest: x, delta_cells=2, n=2, d=1)
    for bad in (1.0, -0.25, np.nan):
        x = np.array([[bad], [0.5]])
        with pytest.raises(DomainError):
            sumformer_forward(model, x)
        with pytest.raises(DomainError):  # the cell map's own check, as batch_forward meets it
            model.phi.rows(x)


def test_discrete_keys_put_each_anchor_in_its_own_cell():
    """Every anchor row c/delta falls in cell c, and its key holds that cell
    beside a histogram of the other rows, at every delta verify admits (d=1)
    and up to 31 at d=2."""
    for d, deltas in ((1, range(1, 101)), (2, range(1, 32))):
        for delta in deltas:
            cells = list(itertools.product(range(delta), repeat=d))
            phi = CellFeatureMap(delta, d)
            anchors = np.array(cells) / delta
            assert np.array_equal(phi.cells(anchors), cells)
            one_hot = phi.rows(anchors)
            keys = TableCombiner({}, d).keys(one_hot, one_hot.sum(axis=0))
            # Cells in product order are flat indices 0, 1, ...: each row's
            # histogram counts every cell but its own once.
            assert [own for own, _ in keys] == list(range(len(cells)))
            assert np.array_equal([hist for _, hist in keys], 1 - np.eye(len(cells)))


def test_table_keys_refuse_a_histogram_off_the_integers():
    phi = CellFeatureMap(4, 1)
    one_hot = phi.rows(np.array([[0.1], [0.6]]))
    combiner = TableCombiner({}, 1)
    assert combiner.keys(one_hot, one_hot.sum(axis=0) + 1e-9)[0] == (0, (0, 0, 1, 0))
    for sigma in (one_hot.sum(axis=0) + 1e-6, np.full(4, np.nan)):
        with pytest.raises(DomainError):
            combiner.keys(one_hot, sigma)


def test_discrete_budget_guard():
    with pytest.raises(BudgetError):
        build_discrete_sumformer(lambda x, rest: x, delta_cells=10, n=7, d=1)


def test_discrete_budget_counts_stored_histograms():
    """verify's delta bound is the largest table the budget admits at n=2, d=1:
    delta**2 keys, each holding a delta-long histogram."""
    from sumformer.cli import SCHEMA
    from sumformer.linalg import BUILD_BUDGET

    bound = SCHEMA["verify"]["delta"].high
    assert bound**3 <= BUILD_BUDGET < (bound + 1) ** 3
    model = build_discrete_sumformer(lambda x, rest: x, delta_cells=bound, n=2, d=1)
    assert len(model.psi.table) == bound**2
    with pytest.raises(BudgetError):
        build_discrete_sumformer(lambda x, rest: x, delta_cells=bound + 1, n=2, d=1)


def test_discrete_multidimensional_tokens():
    def g(x, rest):
        return x + rest.sum(axis=0)

    model = build_discrete_sumformer(g, delta_cells=2, n=2, d=2)
    f = lift(g)
    anchors = np.array([[0.5, 0.0], [0.0, 0.5]])
    assert np.array_equal(sumformer_forward(model, anchors), f(anchors))


def test_discrete_model_refuses_another_token_count():
    model = build_discrete_sumformer(lambda x, rest: x + rest.sum(axis=0), delta_cells=4, n=2, d=1)
    with pytest.raises(ShapeError, match="token count"):
        sumformer_forward(model, np.array([[0.1], [0.2], [0.3]]))


def test_discrete_stack_is_bitwise_each_sequence_and_each_permutation():
    def g(x, rest):
        return x + rest.sum(axis=0) ** 2

    model = build_discrete_sumformer(g, delta_cells=5, n=3, d=2)
    xs = np.random.default_rng(13).uniform(size=(8, 3, 2))
    out = sumformer_forward(model, xs)
    for x, row in zip(xs, out):
        assert np.array_equal(sumformer_forward(model, x), row)
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(sumformer_forward(model, xs[:, perm]), out[:, perm])


def test_discrete_model_is_not_trainable():
    from sumformer.errors import ContractError
    from sumformer.targets import get_target
    from sumformer.train import generate_dataset, train

    target = get_target("quadratic_sum")
    model = build_discrete_sumformer(target.g, delta_cells=4, n=2, d=1)
    with pytest.raises(ContractError):
        train(model, generate_dataset(target, 2, 1, 10), epochs=1)


@pytest.mark.parametrize("variant", list(HEADS))
@pytest.mark.parametrize("delta,n,d", [(4, 2, 1), (4, 3, 1), (4, 2, 2), (22, 2, 1)])
def test_discrete_model_through_each_head_is_bitwise_its_forward(variant, delta, n, d):
    """psi on the construction's (x, phi, Sigma) columns is the table's own
    forward: each histogram Sigma - phi(x) lies within 1e-8 of its integer."""
    def g(x, rest):
        return x + rest.sum(axis=0) ** 2

    model = build_discrete_sumformer(g, delta_cells=delta, n=n, d=d)
    con = build_sum_extraction(variant, n, d, enumerate_multidegrees(d, n), phi=model.phi,
                               k=n - 1 if HEADS[variant].needs_k else None,
                               seed=0 if draws_features(variant) else None)
    assert con.d_latent == delta**d
    xs = np.random.default_rng(delta + n + d).uniform(size=(50, n, d))
    out = con.forward(xs)
    width = model.d_latent
    through_head = model.psi.apply(out[..., 1:1 + d], out[..., 1 + d:1 + d + width],
                                   out[:, 0, -width:])
    assert np.array_equal(through_head, sumformer_forward(model, xs))


def test_sup_error_examples():
    def g(x, rest):
        return x + rest.sum(axis=0)

    f = lift(g)
    assert sup_error(f, g, 3, 1, sample_count=50, seed=11) == 0.0
    shifted = lambda x: f(x) + 0.75
    assert sup_error(shifted, g, 3, 1, sample_count=50, seed=12) == pytest.approx(0.75)


def test_forward_refuses_an_array_like_with_shape_error():
    model = build_mlp_sumformer(2, 4, seed=0, hidden=(3,))
    with pytest.raises(ShapeError):
        sumformer_forward(model, [[0.1, 0.2], [0.3, 0.4]])


def test_forward_refuses_a_non_finite_token():
    # fmax in the ReLU zeroes a NaN, so nothing downstream would notice it.
    model = build_mlp_sumformer(2, 4, seed=0, hidden=(3,))
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            sumformer_forward(model, np.array([[bad, 0.2], [0.3, 0.4]]))


def test_model_width_validation():
    basis = enumerate_multidegrees(1, 2)
    spec = MlpSpec((5, 1))  # wrong: needs d + d_latent = 3
    with pytest.raises(ShapeError):
        SumformerModel(phi=PolynomialFeatureMap(basis),
                       psi=MlpCombiner(spec, zero_mlp_params(spec)))


def test_a_model_reads_its_latent_width_from_phi():
    """d is the width phi reads and d' its output width by definition, so a
    model holds no other record of either."""
    assert [f.name for f in dataclasses.fields(SumformerModel)] == ["phi", "psi"]
    models = [
        build_mlp_sumformer(2, 5, seed=0, hidden=(3,)),
        build_polynomial_sumformer(3, 2, seed=0, hidden=(3,)),
        build_continuous_sumformer(3, 1, np.zeros((0, 1), int), np.zeros((0, 3), int), np.zeros((0, 1))),
        build_discrete_sumformer(lambda x, rest: x, 3, 2, 1),
    ]
    assert [(model.d, model.d_latent) for model in models] == [(2, 5), (2, 9), (1, 3), (1, 3)]
    assert all((model.d, model.d_latent) == (model.phi.d, model.phi.out_width) for model in models)


# Faults in the polynomial psi's arrays at n = 2, d = 1 (d' = 2), each refused
# when the model is built: (x_exponents, latent_exponents, coefficients), the
# error class, and whether the psi alone refuses them or only the model, which
# checks the exponents' widths.
_GOOD_PSI = (np.array([[0], [1]]), np.array([[1, 0], [0, 0]]), np.array([[1.0], [2.0]]))
PSI_FAULTS = {
    "x_exponents_wider_than_d": ((np.array([[0, 0], [1, 0]]), *_GOOD_PSI[1:]), ShapeError, "model"),
    "latent_exponents_narrower_than_d_latent": ((_GOOD_PSI[0], np.array([[1], [0]]), _GOOD_PSI[2]),
                                                ShapeError, "model"),
    "negative_x_exponent": ((np.array([[0], [-1]]), *_GOOD_PSI[1:]), DomainError, "psi"),
    "negative_latent_exponent": ((_GOOD_PSI[0], np.array([[1, 0], [0, -2]]), _GOOD_PSI[2]),
                                 DomainError, "psi"),
    "fractional_exponent": ((_GOOD_PSI[0], np.array([[1.0, 0.0], [0.5, 0.0]]), _GOOD_PSI[2]),
                            DomainError, "psi"),
    "unsigned_exponent_past_int64": ((np.array([[0], [2**64 - 1]], dtype=np.uint64), *_GOOD_PSI[1:]),
                                     DomainError, "psi"),
    "nan_coefficient": ((*_GOOD_PSI[:2], np.array([[1.0], [np.nan]])), DomainError, "psi"),
    "fewer_coefficient_rows_than_terms": ((*_GOOD_PSI[:2], np.array([[1.0]])), ShapeError, "psi"),
    "fewer_x_exponent_rows_than_terms": ((np.array([[0]]), *_GOOD_PSI[1:]), ShapeError, "psi"),
    "exponents_as_a_list": (([[0], [1]], *_GOOD_PSI[1:]), ShapeError, "psi"),
    "coefficients_as_one_row": ((*_GOOD_PSI[:2], np.array([1.0, 2.0])), ShapeError, "psi"),
}


@pytest.mark.parametrize("case", list(PSI_FAULTS))
def test_a_faulty_polynomial_psi_is_refused_when_built(case):
    arrays, error, refused_by = PSI_FAULTS[case]
    with pytest.raises(error):
        build_continuous_sumformer(2, 1, *arrays)
    if refused_by == "psi":
        with pytest.raises(error):
            PolynomialCombiner(*arrays)
    else:
        psi = PolynomialCombiner(*arrays)
        with pytest.raises(error):
            SumformerModel(PolynomialFeatureMap(enumerate_multidegrees(1, 2)), psi)


def test_a_polynomial_psi_holds_only_its_three_arrays():
    assert [f.name for f in dataclasses.fields(PolynomialCombiner)] == [
        "x_exponents", "latent_exponents", "coefficients"]
    psi = build_continuous_sumformer(2, 1, *_GOOD_PSI).psi
    assert psi.x_exponents.dtype == psi.latent_exponents.dtype == np.int64
    assert psi.coefficients.dtype == np.float64 and psi.out_width == 1
