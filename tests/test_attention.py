import math
import sys
import threading
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from sumformer import attention, parallel
from sumformer.attention import (
    HEADS,
    SCORE_FLOATS,
    LinformerHeadSpec,
    MacCounter,
    PerformerHeadSpec,
    StandardHeadSpec,
    attention_matrix,
    audited_mac_count,
    build_sum_extraction,
    draws_features,
    head_forward,
    mac_count,
)
from sumformer.errors import ContractError, DomainError, ShapeError, UnsupportedInspectionError
from sumformer.mlp import MlpSpec, init_mlp_params, mlp_forward
from sumformer.model import CellFeatureMap, MlpFeatureMap
from sumformer.multisym import enumerate_multidegrees, power_sum_vector
from sumformer.serialize import dump_construction, load_construction

from oracles import (
    allocating_head_forward,
    attention_reference,
    deferred_product,
    performer_features,
    scale_n_head,
    softmax_rows,
    widened_operands,
)

# A numpy warning on the way to an error, or anywhere else here, fails the test.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(params=[1, 2, 3], ids=lambda w: f"workers{w}")
def workers(request, monkeypatch):
    """The softmax heads' forward at 1, 2 and 3 workers, whatever the machine."""
    monkeypatch.setattr(parallel, "WORKERS", request.param)
    return request.param


def _random_spec(m, rng):
    return StandardHeadSpec(
        rng.uniform(-1, 1, size=(m, m)),
        rng.uniform(-1, 1, size=(m, m)),
        rng.uniform(-1, 1, size=(m, m)),
    )


def test_standard_head_zero_values():
    rng = np.random.default_rng(0)
    spec = StandardHeadSpec(
        rng.uniform(size=(3, 3)), rng.uniform(size=(3, 3)), np.zeros((3, 3))
    )
    x = rng.uniform(size=(4, 3))
    assert np.array_equal(head_forward(x, spec), np.zeros((4, 3)))


def test_standard_head_single_row():
    rng = np.random.default_rng(1)
    spec = _random_spec(3, rng)
    x = rng.uniform(size=(1, 3))
    assert np.allclose(head_forward(x, spec), x @ spec.w_v, atol=1e-14)


def test_constant_query_construction_gives_uniform_attention():
    basis = enumerate_multidegrees(1, 2)
    for n in (2, 3, 5, 17, 64):
        con = build_sum_extraction("standard", n, 1, basis)
        x = np.random.default_rng(n).uniform(size=(n, 1))
        a = attention_matrix(con.lift(x), con.head)
        assert np.max(np.abs(a - 1.0 / n)) <= 1e-12



def _seed(variant, seed):
    """``seed`` for a construction that draws random features; the others take none."""
    return seed if draws_features(variant) else None


@pytest.mark.parametrize("variant", list(HEADS))
def test_construction_at_another_token_count(variant):
    """The averaging constructions refuse a token count other than their n;
    the random-feature one sums over the tokens and stays exact at any n."""
    n, d = 3, 2
    basis = enumerate_multidegrees(d, n)
    con = build_sum_extraction(variant, n, d, basis, k=2 if HEADS[variant].needs_k else None,
                               seed=_seed(variant, 0))
    xs = np.random.default_rng(5).uniform(size=(4, 5, d))
    if not HEADS[variant].construction_any_n:
        for x in (xs, xs[0]):
            with pytest.raises(ShapeError, match="n=3"):
                con.forward(x)
        return
    sigma = con.forward(xs)[..., -con.d_latent:]
    assert np.max(np.abs(sigma - power_sum_vector(xs, basis)[:, np.newaxis])) <= 1e-8


def test_attention_matrix_single_row():
    rng = np.random.default_rng(2)
    spec = _random_spec(3, rng)
    a = attention_matrix(rng.uniform(size=(1, 3)), spec)
    assert np.array_equal(a, [[1.0]])


def test_attention_matrix_linformer_uniform():
    basis = enumerate_multidegrees(1, 2)
    n, k = 5, 3
    con = build_sum_extraction("linformer", n, 1, basis, k=k)
    x = np.random.default_rng(3).uniform(size=(n, 1))
    a = attention_matrix(con.lift(x), con.head)
    assert a.shape == (n, k)
    assert np.max(np.abs(a - 1.0 / k)) <= 1e-12


def test_attention_matrix_unsupported_for_performer():
    rng = np.random.default_rng(4)
    spec = PerformerHeadSpec(
        rng.uniform(size=(3, 3)), rng.uniform(size=(3, 3)), rng.uniform(size=(3, 3)),
        omegas=rng.standard_normal((2, 3)),
    )
    with pytest.raises(UnsupportedInspectionError):
        attention_matrix(rng.uniform(size=(4, 3)), spec)


def test_materialized_attention_is_row_stochastic():
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(6, 4))
    std = _random_spec(4, rng)
    assert np.max(np.abs(attention_matrix(x, std).sum(axis=1) - 1.0)) <= 1e-12
    lin = LinformerHeadSpec(
        std.w_q, std.w_k, std.w_v,
        e=rng.uniform(size=(3, 6)), f=rng.uniform(size=(3, 6)),
    )
    assert np.max(np.abs(attention_matrix(x, lin).sum(axis=1) - 1.0)) <= 1e-12


def test_linformer_head_zero_values():
    rng = np.random.default_rng(6)
    spec = LinformerHeadSpec(
        rng.uniform(size=(3, 3)), rng.uniform(size=(3, 3)), np.zeros((3, 3)),
        e=rng.uniform(size=(2, 5)), f=rng.uniform(size=(2, 5)),
    )
    assert np.array_equal(head_forward(rng.uniform(size=(5, 3)), spec), np.zeros((5, 3)))


def test_linformer_head_uniform_projections_give_token_mean():
    # k=1, E=F=(1/n)1, zero queries/keys, identity values -> mean token per row
    n, m = 4, 3
    rng = np.random.default_rng(7)
    x = rng.uniform(size=(n, m))
    spec = LinformerHeadSpec(
        np.zeros((m, m)), np.zeros((m, m)), np.eye(m),
        e=np.full((1, n), 1.0 / n), f=np.full((1, n), 1.0 / n),
    )
    out = head_forward(x, spec)
    assert np.max(np.abs(out - x.mean(axis=0))) <= 1e-14


def test_linformer_construction_attention_output_is_sum_block():
    n, d = 4, 1
    basis = enumerate_multidegrees(d, 2)
    con = build_sum_extraction("linformer", n, d, basis, k=2)
    x = np.random.default_rng(8).uniform(size=(n, d))
    head_out = head_forward(con.lift(x), con.head)
    expected = np.zeros((n, con.model_dim))
    expected[:, -basis.size:] = power_sum_vector(x, basis)
    assert np.max(np.abs(head_out - expected)) <= 1e-12


def test_linformer_rejects_k_not_less_than_n():
    rng = np.random.default_rng(9)
    spec = LinformerHeadSpec(
        rng.uniform(size=(2, 2)), rng.uniform(size=(2, 2)), rng.uniform(size=(2, 2)),
        e=rng.uniform(size=(3, 3)), f=rng.uniform(size=(3, 3)),
    )
    with pytest.raises(ContractError):
        head_forward(rng.uniform(size=(3, 2)), spec)


def test_performer_features_values():
    assert np.allclose(performer_features(np.zeros(1), np.zeros((1, 1))), [1.0])
    feats = performer_features(np.zeros(2), np.random.default_rng(0).normal(size=(4, 2)))
    assert np.allclose(feats, 0.5)
    e1 = np.array([1.0])
    assert performer_features(e1, np.array([[1.0]]))[0] == pytest.approx(np.exp(0.5))
    assert np.all(performer_features(np.array([0.3, -2.0]), np.ones((3, 2))) > 0.0)


def test_performer_head_zero_values():
    rng = np.random.default_rng(10)
    spec = PerformerHeadSpec(
        rng.uniform(size=(3, 3)), rng.uniform(size=(3, 3)), np.zeros((3, 3)),
        omegas=rng.standard_normal((2, 3)),
    )
    assert np.array_equal(head_forward(rng.uniform(size=(5, 3)), spec), np.zeros((5, 3)))


def test_performer_head_single_row_scalar_structure():
    rng = np.random.default_rng(11)
    m = 3
    spec = PerformerHeadSpec(
        rng.uniform(size=(m, m)), rng.uniform(size=(m, m)), rng.uniform(size=(m, m)),
        omegas=rng.standard_normal((2, m)),
    )
    x = rng.uniform(size=(1, m))
    q_feat = performer_features((x @ spec.w_q)[0], spec.omegas)
    k_feat = performer_features((x @ spec.w_k)[0], spec.omegas)
    lam = float(q_feat @ k_feat)
    assert np.allclose(head_forward(x, spec), lam * (x @ spec.w_v), atol=1e-12)


def test_performer_construction_gram_is_constant():
    n, d = 5, 1
    basis = enumerate_multidegrees(d, 2)
    con = build_sum_extraction("performer", n, d, basis, k=3, seed=12)
    head = con.head
    x = np.random.default_rng(13).uniform(size=(n, d))
    lifted = con.lift(x)
    q = np.vstack([performer_features(row, head.omegas) for row in lifted @ head.w_q])
    k = np.vstack([performer_features(row, head.omegas) for row in lifted @ head.w_k])
    gram = q @ k.T
    lam = np.exp(-1.0) * np.mean(np.exp(2.0 * head.omegas[:, 0]))
    assert np.max(np.abs(gram - lam)) <= 1e-12
    assert con.lambda_value == pytest.approx(lam, rel=1e-12)


def test_performer_lambda_closed_form_k1_zero_omega():
    # a(q) = e^{-1/2} when omega = 0, so the gram value is e^{-1}
    q = performer_features(np.array([1.0, 0.0]), np.zeros((1, 2)))
    assert float(q @ q) == pytest.approx(np.exp(-1.0))


def test_standard_construction_layout_n3_d1():
    # output columns are [1, x, x, x^2, p1, p2] per row
    n, d = 3, 1
    basis = enumerate_multidegrees(d, 2)
    con = build_sum_extraction("standard", n, d, basis)
    x = np.random.default_rng(17).uniform(size=(n, d))
    out = con.forward(x)
    ps = power_sum_vector(x, basis)
    expected = np.hstack([np.ones((n, 1)), x, x, x**2, np.tile(ps, (n, 1))])
    assert np.max(np.abs(out - expected)) <= 1e-10


# Per-variant construction arguments and Sigma tolerance; every HEADS entry needs one.
VARIANT_CASES = {
    "standard": ({}, 1e-10),
    "linformer": ({"k": 2}, 1e-10),
    "performer": ({"k": 2, "seed": 0}, 1e-8),
}


@pytest.mark.parametrize("variant,kwargs,tol", [(v, *VARIANT_CASES[v]) for v in HEADS])
def test_sum_recovery_all_variants(variant, kwargs, tol):
    """Each HEADS entry: its MAC formula matches an instrumented run, its
    construction recovers Sigma, and the construction round-trips bitwise."""
    for n, m in [(8, 4), (16, 5)]:
        k = 3 if HEADS[variant].needs_k else None
        assert mac_count(variant, n, m, k) == audited_mac_count(variant, n, m, k)
    n, d = 4, 2
    basis = enumerate_multidegrees(d, n)
    con = build_sum_extraction(variant, n, d, basis, **kwargs)
    loaded = load_construction(dump_construction(con))
    rng = np.random.default_rng(18)
    for _ in range(20):
        x = rng.uniform(size=(n, d))
        out = con.forward(x)
        assert np.max(np.abs(out[:, -basis.size:] - power_sum_vector(x, basis))) <= tol
        assert np.array_equal(loaded.forward(x), out)
    assert (loaded.variant, loaded.k, loaded.lambda_value) == (variant, con.k, con.lambda_value)


@pytest.mark.parametrize("variant", list(HEADS))
def test_construction_mac_count_is_head_plus_token_wise_layer(variant):
    """The construction's counted MACs are the head's closed form plus the
    n x m x m token-wise matmul."""
    kwargs = VARIANT_CASES[variant][0]
    for n, d in [(3, 1), (4, 2)]:
        con = build_sum_extraction(variant, n, d, enumerate_multidegrees(d, n), **kwargs)
        counter = MacCounter()
        con.forward(np.random.default_rng(n).uniform(size=(n, d)), counter)
        m = con.model_dim
        assert counter.total == mac_count(variant, n, m, kwargs.get("k")) + n * m * m


def test_literal_n_scaling_overshoots():
    n, d, k = 4, 1, 2
    basis = enumerate_multidegrees(d, n)
    con = build_sum_extraction("linformer", n, d, basis, k=k)
    con = replace(con, head=scale_n_head(con.head, n))
    x = np.random.default_rng(19).uniform(size=(n, d))
    out = con.forward(x)
    ps = power_sum_vector(x, basis)
    residual = np.max(np.abs(out[:, -basis.size:] - ps))
    assert residual >= 1e-2
    # the overshoot factor is exactly n/k
    assert np.allclose(out[:, -basis.size:], (n / k) * ps, atol=1e-10)


def test_construction_with_mlp_phi():
    n, d = 3, 2
    basis = enumerate_multidegrees(d, 2)
    rng = np.random.default_rng(20)
    spec = MlpSpec((d, 8, basis.size))
    params = init_mlp_params(spec, rng)
    con = build_sum_extraction("standard", n, d, basis, phi=MlpFeatureMap(spec, params))
    x = rng.uniform(size=(n, d))
    out = con.forward(x)
    expected = mlp_forward(spec, params, x).sum(axis=0)
    assert np.max(np.abs(out[:, -basis.size:] - expected)) <= 1e-10


def test_heads_are_permutation_equivariant():
    n, d = 5, 2
    basis = enumerate_multidegrees(d, 3)
    rng = np.random.default_rng(21)
    for variant, kwargs in [
        ("standard", {}),
        ("linformer", {"k": 3}),
        ("performer", {"k": 3, "seed": 4}),
    ]:
        con = build_sum_extraction(variant, n, d, basis, **kwargs)
        head = con.head
        lifted = con.lift(rng.uniform(size=(n, d)))
        perm = rng.permutation(n)
        direct = head_forward(lifted[perm], head)
        permuted = head_forward(lifted, head)[perm]
        assert np.max(np.abs(direct - permuted)) <= 1e-10, variant


@pytest.mark.parametrize("variant", list(HEADS))
def test_construction_refuses_an_array_like_with_shape_error(variant):
    con = build_sum_extraction(variant, 3, 2, enumerate_multidegrees(2, 3),
                               k=2 if HEADS[variant].needs_k else None, seed=_seed(variant, 0))
    rows = np.random.default_rng(3).uniform(size=(3, 2)).tolist()
    with pytest.raises(ShapeError):
        con.forward(rows)
    with pytest.raises(ShapeError):
        con.lift(rows)


def test_construction_takes_its_width_from_phi():
    """A phi of any width builds: the default train model's d' = 32 at d = 2."""
    n, d = 3, 2
    spec = MlpSpec((d, 16, 32))
    params = init_mlp_params(spec, np.random.default_rng(5))
    xs = np.random.default_rng(6).uniform(size=(4, n, d))
    expected = mlp_forward(spec, params, xs).sum(axis=-2)
    for variant, (kwargs, tol) in VARIANT_CASES.items():
        con = build_sum_extraction(variant, n, d, enumerate_multidegrees(d, n),
                                   phi=MlpFeatureMap(spec, params), **kwargs)
        assert con.d_latent == 32 and con.model_dim == 1 + d + 64
        sigma = con.forward(xs)[..., -32:]
        assert np.max(np.abs(sigma - expected[:, np.newaxis])) <= tol
    # The phi's token width must still be d.
    for phi in (MlpFeatureMap(spec, params), CellFeatureMap(4, d)):
        with pytest.raises(ShapeError):
            build_sum_extraction("standard", n, 3, enumerate_multidegrees(3, n), phi=phi)


def test_building_a_construction_runs_no_phi_forward():
    """The build compares phi's token width with d and never calls phi."""
    spec = MlpSpec((2, 4, 3))
    phi = MlpFeatureMap(spec, init_mlp_params(spec, np.random.default_rng(7)))

    def refuse(*args, **kwargs):
        raise AssertionError("phi ran while the construction was built")

    phi.rows = refuse
    for variant, (kwargs, _) in VARIANT_CASES.items():
        assert build_sum_extraction(variant, 3, 2, enumerate_multidegrees(2, 3), phi=phi, **kwargs).phi is phi
    with pytest.raises(ShapeError, match="phi reads tokens of width 2, construction wants d=3"):
        build_sum_extraction("standard", 3, 3, enumerate_multidegrees(3, 3), phi=phi)


def test_construction_requires_matching_basis():
    with pytest.raises(ShapeError, match="basis built for d=1"):
        build_sum_extraction("standard", 3, 2, enumerate_multidegrees(1, 2))


def test_construction_reads_its_token_width_from_its_basis():
    con = build_sum_extraction("standard", 3, 2, enumerate_multidegrees(2, 3))
    assert "d" not in {f.name for f in fields(con)}
    assert con.d == con.basis.d == 2


def test_construction_k_bounds():
    basis = enumerate_multidegrees(1, 2)
    with pytest.raises(ContractError):
        build_sum_extraction("linformer", 3, 1, basis, k=3)
    with pytest.raises(ContractError):
        build_sum_extraction("performer", 3, 1, basis, k=0, seed=0)
    # The random-feature head runs with k >= n; its construction refuses it.
    with pytest.raises(ContractError):
        build_sum_extraction("performer", 3, 1, basis, k=3, seed=0)
    with pytest.raises(ContractError):
        build_sum_extraction("softmax", 3, 1, basis)


def test_construction_k_is_its_heads_k():
    """Given feature vectors must be a (k, m) array, so the construction's k,
    the head's k and the k < n rule all speak of one number."""
    n, d = 4, 1
    basis = enumerate_multidegrees(d, n)
    m = 1 + d + 2 * basis.size
    rng = np.random.default_rng(22)
    for variant, kwargs in [("standard", {}), ("linformer", {"k": 2}), ("performer", {"k": 2, "seed": 0}),
                            ("performer", {"k": 3, "omegas": rng.standard_normal((3, m))})]:
        con = build_sum_extraction(variant, n, d, basis, **kwargs)
        assert con.k == con.head.k == kwargs.get("k")
    # 3 rows for k = 2; 5 rows for k = 3, which would give a head with k = 5 >= n.
    for k, shape in [(2, (3, m)), (3, (5, m)), (2, (2, m + 1)), (2, (1, 2, m))]:
        with pytest.raises(ShapeError, match="omegas"):
            build_sum_extraction("performer", n, d, basis, k=k, omegas=rng.standard_normal(shape))
    with pytest.raises(ShapeError, match="omegas"):
        build_sum_extraction("performer", n, d, basis, k=2, omegas=rng.standard_normal((2, m)).tolist())


@pytest.mark.parametrize("args", [
    ("standard", 2.5, 4),
    ("standard", "3", 4),
    ("standard", 3, 4.0),
    ("linformer", 8, 4, 2.0),
    ("standard", True, 4),
    ("standard", 8, np.True_),
    ("linformer", 8, 4, True),
])
def test_mac_count_refuses_a_size_that_is_not_an_integer(args):
    with pytest.raises(ContractError, match="must be an integer"):
        mac_count(*args)


def test_mac_count_takes_numpy_integers():
    for variant, k in (("standard", None), ("linformer", 3), ("performer", 3)):
        count = mac_count(variant, np.int64(8), np.int32(4), None if k is None else np.int16(k))
        assert type(count) is int and count == mac_count(variant, 8, 4, k)


def test_mac_count_scaling_ratios():
    ns = [32, 64, 128, 256]
    m, k = 4, 4
    std = [mac_count("standard", n, m) for n in ns]
    for a, b in zip(std, std[1:]):
        assert 3.6 <= b / a <= 4.4
    for variant in ("linformer", "performer"):
        counts = [mac_count(variant, n, m, k) for n in ns]
        for a, b in zip(counts, counts[1:]):
            assert 1.8 <= b / a <= 2.2


# ---------------------------------------------------------------------------
# Row-blocked forward of the softmax heads
# ---------------------------------------------------------------------------

SOFTMAX_VARIANTS = ("standard", "linformer")


def _softmax_head(variant, n, m=16, seed=0):
    """Random input and head; the low-rank head projects to k = min(8, n - 1)."""
    rng = np.random.default_rng(seed)
    k = min(8, n - 1)
    w = [rng.uniform(-1, 1, size=(m, m)) for _ in range(3)]
    extras = {name: rng.uniform(size=shape) for name, shape in HEADS[variant].extra_shapes(n, m, k).items()}
    return rng.uniform(-1, 1, size=(n, m)), HEADS[variant](*w, **extras), k


def _unblocked(x, spec):
    return attention_reference(x, spec) @ (spec.sources(x, None)[1] @ spec.w_v)


def test_softmax_oracle_symmetry():
    out = softmax_rows(np.array([[0.0, 0.0]]))
    assert np.allclose(out, [[0.5, 0.5]], atol=1e-15)


def test_softmax_oracle_constant_row_is_uniform():
    for n in (1, 2, 3, 7):
        for c in (-5.0, 0.0, 3.25):
            out = softmax_rows(np.full((1, n), c))
            assert np.max(np.abs(out - 1.0 / n)) <= 1e-12


def test_softmax_oracle_closed_form():
    out = softmax_rows(np.log(np.array([[1.0, 2.0]])))
    assert np.allclose(out, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-15)


def test_softmax_oracle_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(1)
    m = rng.normal(scale=10.0, size=(6, 9))
    out = softmax_rows(m)
    assert np.all(out >= 0.0)
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-12
    shifted = softmax_rows(m + rng.normal(size=(6, 1)))
    assert np.max(np.abs(shifted - out)) <= 1e-12


def test_softmax_oracle_leaves_its_input_unchanged():
    m = np.random.default_rng(2).normal(size=(5, 7))
    before = m.copy()
    softmax_rows(m)
    assert np.array_equal(m, before)


A_SIZES = [(variant, n) for variant in SOFTMAX_VARIANTS for n in (1, 17, 600, 2048)
           if n >= 2 or not HEADS[variant].k_below_n]  # the low-rank head needs k < n


@pytest.mark.parametrize("variant, n", A_SIZES)
def test_attention_matrix_is_within_rounding_of_the_oracle(variant, n):
    """A from the forward's score blocks, each row shifted by its score bound,
    is within 1e-13 of its largest entry of the oracle softmax of the whole
    score matrix, each row shifted by its max.  The gap is largest, 8.9e-15,
    for the low-rank head at n = 2048: its scores reach 227, and 75 of its
    rows have bounds above SCORE_BOUND and take the exact shift."""
    x, spec, _ = _softmax_head(variant, n, seed=n)
    a, reference = attention_matrix(x, spec), attention_reference(x, spec)
    assert a.shape == reference.shape
    assert np.max(np.abs(a - reference)) <= 1e-13 * np.max(reference)


@pytest.mark.parametrize("variant", SOFTMAX_VARIANTS)
def test_stacked_attention_matrix_is_bitwise_each_slice_alone(variant):
    n = 600  # standard-head blocks of 218, 218 and 164 rows
    _, spec, _ = _softmax_head(variant, n, seed=19)
    xs = np.random.default_rng(20).uniform(-1, 1, size=(3, n, 16))
    stacked = attention_matrix(xs, spec)
    for i, x in enumerate(xs):
        assert np.array_equal(attention_matrix(x, spec), stacked[i])


@pytest.mark.parametrize("variant", SOFTMAX_VARIANTS)
def test_attention_matrix_has_the_same_bits_at_one_and_two_workers(variant, monkeypatch):
    x, spec, _ = _softmax_head(variant, 2048, seed=21)  # 32 standard-head blocks
    matrices = []
    for count in (1, 2):
        monkeypatch.setattr(parallel, "WORKERS", count)
        matrices.append(attention_matrix(x, spec))
    assert np.array_equal(matrices[0], matrices[1])


@pytest.mark.parametrize("variant", SOFTMAX_VARIANTS)
@pytest.mark.parametrize("token", [1e200, 1e155])
def test_attention_matrix_of_a_huge_token_is_a_domain_error(variant, token):
    """The huge row's scores leave the float range: a DomainError, with no
    overflow warning on the way."""
    x, spec, _ = _softmax_head(variant, 40)
    x[-1] = token
    with pytest.raises(DomainError):
        attention_matrix(x, spec)


@pytest.mark.parametrize("variant", SOFTMAX_VARIANTS)
@pytest.mark.parametrize("n", [1, 128, 512])
def test_blocked_forward_is_bitwise_the_unblocked_product(variant, n):
    """Bitwise the deferred product of the whole bound-shifted exp E of the
    widened operands, [E V, E 1] with its last column dividing the others,
    and within rounding of the normalised A @ V."""
    # The low-rank head needs k < n, so it starts at n = 2.
    x, spec, _ = _softmax_head(variant, max(n, 2) if variant == "linformer" else n)
    out = head_forward(x, spec)
    q, k_t, v, loose = widened_operands(x, spec)
    assert not loose.any()
    assert np.array_equal(out, deferred_product(q @ k_t, v, loose))
    reference = _unblocked(x, spec)
    assert np.max(np.abs(out - reference)) <= 1e-13 * np.max(np.abs(reference))


@pytest.mark.parametrize("variant", SOFTMAX_VARIANTS)
@pytest.mark.parametrize("n", [129, 383])  # standard head at 383: blocks of 342 and 41 rows
def test_blocked_forward_with_a_ragged_last_block(variant, n, workers):
    x, spec, k = _softmax_head(variant, n, seed=n)
    out, reference = head_forward(x, spec), _unblocked(x, spec)
    assert np.max(np.abs(out - reference)) <= 1e-13 * np.max(np.abs(reference))
    counter = MacCounter()
    head_forward(x, spec, counter)
    assert counter.total == mac_count(variant, n, x.shape[1], k)


def test_blocked_forward_never_holds_the_score_matrix():
    n = 2048
    x, spec, _ = _softmax_head("standard", n)
    tracemalloc.start()
    try:
        head_forward(x, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4, peak


def test_warm_forward_peak_is_one_score_block_and_the_operands(monkeypatch):
    """One reused score buffer: the peak stays below two SCORE_FLOATS blocks
    plus the four n x m operands (Q, K, V and the output), at one worker."""
    monkeypatch.setattr(parallel, "WORKERS", 1)
    n, m = 2048, 16
    x, spec, _ = _softmax_head("standard", n, m=m)
    head_forward(x, spec)
    tracemalloc.start()
    try:
        head_forward(x, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * SCORE_FLOATS * 8 + 4 * n * m * 8, peak


def test_warm_forward_peak_at_two_workers_is_a_score_block_per_worker(monkeypatch):
    """Each worker has its own score buffer, allocated by the calling thread:
    the peak stays below (workers + 1) SCORE_FLOATS blocks plus the operands."""
    n, m, workers = 2048, 16, 2
    monkeypatch.setattr(parallel, "WORKERS", workers)
    x, spec, _ = _softmax_head("standard", n, m=m)
    head_forward(x, spec)
    tracemalloc.start()
    try:
        head_forward(x, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (workers + 1) * SCORE_FLOATS * 8 + 4 * n * m * 8, peak


@pytest.mark.parametrize("variant, n", [
    (variant, n) for variant in SOFTMAX_VARIANTS
    for n in (1, 2, 5, 127, 128, 129, 255, 383, 385, 1029)
    if n >= 2 or not HEADS[variant].k_below_n  # the low-rank head needs k < n
])
def test_forward_is_bitwise_the_allocating_block_oracle(variant, n, workers):
    x, spec, k = _softmax_head(variant, n, seed=n)
    counter = MacCounter()
    assert np.array_equal(head_forward(x, spec, counter), allocating_head_forward(x, spec))
    assert counter.total == mac_count(variant, n, x.shape[1], k)


@pytest.mark.parametrize("variant", SOFTMAX_VARIANTS)
def test_stacked_forward_is_bitwise_the_allocating_block_oracle(variant, workers):
    n, m = 259, 16
    x, spec, k = _softmax_head(variant, n, m=m, seed=3)
    xs = np.random.default_rng(4).uniform(-1, 1, size=(3, n, m))
    counter = MacCounter()
    assert np.array_equal(head_forward(xs, spec, counter), allocating_head_forward(xs, spec))
    assert counter.total == 3 * mac_count(variant, n, m, k)


def test_stacked_forward_over_several_blocks_is_each_sequence_alone(workers):
    n = 517  # blocks of 253, 253 and 11 query rows
    _, spec, _ = _softmax_head("standard", n, seed=6)
    xs = np.random.default_rng(7).uniform(-1, 1, size=(3, n, 16))
    stacked = head_forward(xs, spec)
    assert np.array_equal(stacked, allocating_head_forward(xs, spec))
    for i, x in enumerate(xs):
        assert np.array_equal(head_forward(x, spec), stacked[i])


@pytest.mark.parametrize("variant", SOFTMAX_VARIANTS)
def test_score_overflow_in_the_last_softmax_slice_raises(variant, monkeypatch, workers):
    n = 133
    # Standard-head blocks of 4 rows, low-rank blocks of 66: the last block is ragged.
    monkeypatch.setattr(attention, "SCORE_FLOATS", 4 * n)
    x, spec, _ = _softmax_head(variant, n)
    x[-1] = 1e200
    with pytest.raises(DomainError):
        head_forward(x, spec)


@pytest.mark.parametrize("variant", SOFTMAX_VARIANTS)
def test_score_overflow_in_the_last_block_raises(variant, workers):
    n = 517  # standard-head blocks of 253, 253 and 11 rows
    x, spec, _ = _softmax_head(variant, n)
    x[-1] = 1e200  # only the last query row's scores leave the float range
    with pytest.raises(DomainError):
        head_forward(x, spec)


def test_of_several_failing_blocks_the_first_one_raises(monkeypatch, workers):
    """Blocks 1 and 2 of three overflow; whichever worker reaches them, the
    error is block 1's (253 rows), the one the serial loop raises."""
    def naming_the_block(m, name):
        if name == "softmax input" and not np.isfinite(m).all():
            raise DomainError(f"block of {m.shape[-2]} rows")
        return m

    n = 517  # standard-head blocks of 253, 253 and 11 rows
    x, spec, _ = _softmax_head("standard", n)
    x[[300, -1]] = 1e200
    monkeypatch.setattr(attention, "require_finite", naming_the_block)
    with pytest.raises(DomainError, match="block of 253 rows"):
        head_forward(x, spec)


@pytest.mark.parametrize("variant", list(HEADS))
@pytest.mark.parametrize("token, checked", [(1e308, "values"), (1e307, "head output")])
def test_values_that_overflow_are_a_domain_error(variant, token, checked):
    """W_Q = W_K = 0 and W_V = 10 I on five huge tokens: at 1e308 V itself
    overflows; at 1e307 V is finite and the sum over the keys overflows."""
    n, m, k = 5, 4, 2
    zero = np.zeros((m, m))
    extras = {"linformer": {"e": np.full((k, n), 1.0 / n), "f": np.full((k, n), 1.0 / n)},
              "performer": {"omegas": np.random.default_rng(14).standard_normal((k, m))}}
    spec = HEADS[variant](zero, zero, 10.0 * np.eye(m), **extras.get(variant, {}))
    with pytest.raises(DomainError, match=checked):
        head_forward(np.full((n, m), token), spec)


def test_a_multi_block_forward_leaves_no_thread_running(monkeypatch):
    """At two workers the blocks run on two threads, and both are joined
    before the forward returns."""
    threads = set()
    blocks = attention._softmax_blocks

    def recording(*args):
        threads.add(threading.get_ident())
        blocks(*args)

    x, spec, _ = _softmax_head("standard", 1029)  # nine blocks
    monkeypatch.setattr(parallel, "WORKERS", 2)
    monkeypatch.setattr(attention, "_softmax_blocks", recording)
    before = threading.active_count()
    head_forward(x, spec)
    assert threading.active_count() == before
    assert len(threads) == 2 and threading.get_ident() in threads


@pytest.mark.parametrize("variant", SOFTMAX_VARIANTS)
def test_a_forward_has_the_same_bits_at_any_worker_count(variant, monkeypatch):
    x, spec, _ = _softmax_head(variant, 1029, seed=15)
    xs = np.random.default_rng(16).uniform(-1, 1, size=(3, 1029, 16))
    outputs = []
    for count in (1, 2, 3):
        monkeypatch.setattr(parallel, "WORKERS", count)
        outputs.append((head_forward(x, spec), head_forward(xs, spec)))
    for single, stacked in outputs[1:]:
        assert np.array_equal(single, outputs[0][0])
        assert np.array_equal(stacked, outputs[0][1])


def test_more_workers_than_cpus_at_a_short_switch_interval(monkeypatch):
    """Five workers on nine blocks, switching threads every microsecond: the
    output rows and the MAC tallies of the workers stay their own."""
    x, spec, _ = _softmax_head("standard", 1029, seed=18)
    expected = allocating_head_forward(x, spec)
    monkeypatch.setattr(parallel, "WORKERS", 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            counter = MacCounter()
            assert np.array_equal(head_forward(x, spec, counter), expected)
            assert counter.total == mac_count("standard", 1029, 16)
    finally:
        sys.setswitchinterval(interval)


def test_random_features_are_bitwise_the_allocating_expression():
    rng = np.random.default_rng(17)
    omegas = rng.standard_normal((16, 8))
    for rows in (rng.uniform(-1, 1, size=(300, 8)), rng.uniform(-1, 1, size=(3, 50, 8))):
        norms = (rows * rows).sum(axis=-1, keepdims=True)
        expected = np.exp(rows @ omegas.T - 0.5 * norms) / math.sqrt(16)
        assert np.array_equal(attention._performer_features_rows(rows, omegas, None), expected)


def test_a_block_of_bounded_and_loose_rows_is_within_rounding_of_a_v(workers):
    """Rows scaled up to 10x have score bounds above SCORE_BOUND and take the
    exact row-max shift; the others keep the bound shift, in the same blocks."""
    n = 383  # blocks of 342 and 41 rows
    x, spec, _ = _softmax_head("standard", n, seed=n)
    x *= np.linspace(0.1, 10.0, n)[:, np.newaxis]
    loose = widened_operands(x, spec)[3]
    assert 0 < loose[:342].sum() < 342 and loose[342:].all()
    out, reference = head_forward(x, spec), _unblocked(x, spec)
    assert np.max(np.abs(out - reference)) <= 1e-13 * np.max(np.abs(reference))
    assert np.array_equal(out, allocating_head_forward(x, spec))


@pytest.mark.parametrize("variant", SOFTMAX_VARIANTS)
def test_a_stack_with_one_loose_slice_is_bitwise_each_slice_alone(variant, workers):
    n = 259
    _, spec, _ = _softmax_head(variant, n, seed=8)
    xs = np.random.default_rng(9).uniform(-1, 1, size=(3, n, 16))
    xs[1] *= 30.0
    loose = widened_operands(xs, spec)[3]
    assert loose[1].all() and not loose[[0, 2]].any()
    stacked = head_forward(xs, spec)
    assert np.array_equal(stacked, allocating_head_forward(xs, spec))
    for i, x in enumerate(xs):
        assert np.array_equal(head_forward(x, spec), stacked[i])


@pytest.mark.parametrize("variant", SOFTMAX_VARIANTS)
def test_bounded_rows_never_take_the_exact_shift(variant, monkeypatch):
    """With every score bound at most SCORE_BOUND, nothing but the checks of
    X, V and the output calls ``require_finite``: no block is scanned or
    shifted by its row max."""
    def only_the_input(m, name):
        if name not in ("X", "values", "head output"):
            raise AssertionError(f"require_finite({name!r}) on a bounded input")
        return m

    _, spec, _ = _softmax_head(variant, 517, seed=10)
    xs = np.random.default_rng(11).uniform(-1, 1, size=(2, 517, 16))
    assert not widened_operands(xs, spec)[3].any()
    expected = head_forward(xs, spec)
    monkeypatch.setattr(attention, "require_finite", only_the_input)
    assert np.array_equal(head_forward(xs, spec), expected)


@pytest.mark.parametrize("variant", SOFTMAX_VARIANTS)
@pytest.mark.parametrize("weight", ["w_q", "w_k"])
def test_a_nan_weight_is_a_domain_error(variant, weight):
    x, spec, _ = _softmax_head(variant, 40, seed=12)
    getattr(spec, weight)[3, 5] = np.nan
    with pytest.raises(DomainError):
        head_forward(x, spec)


WEIGHTS = [(variant, name) for variant, head in HEADS.items()
           for name in ("w_q", "w_k", "w_v", *head.extra_shapes(5, 4, 2))]


def _weights(variant):
    """Every weight of a random head at n = 5, m = 4, k = 2, by field name."""
    spec = _random_head(variant, 5)
    return {name: getattr(spec, name) for name in ("w_q", "w_k", "w_v", *spec.extra_shapes(5, 4, 2))}


@pytest.mark.parametrize("variant, weight", WEIGHTS)
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_weight_is_refused_when_the_spec_is_built(variant, weight, value):
    """Checked once, at build: a NaN in W_V or E never reaches a score bound."""
    weights = _weights(variant)
    weights[weight] = weights[weight].copy()
    weights[weight][1, 1] = value
    with pytest.raises(DomainError, match=weight):
        HEADS[variant](**weights)


@pytest.mark.parametrize("variant, weight", WEIGHTS)
@pytest.mark.parametrize("bad", [np.ndarray.tolist, lambda w: w[0], lambda w: w[np.newaxis]],
                         ids=["list", "vector", "stack"])
def test_a_weight_that_is_not_a_matrix_is_refused_when_the_spec_is_built(variant, weight, bad):
    weights = _weights(variant)
    weights[weight] = bad(weights[weight])
    with pytest.raises(ShapeError, match=weight):
        HEADS[variant](**weights)


@pytest.mark.parametrize("variant", list(HEADS))
@pytest.mark.parametrize("weight", ["w_q", "w_k", "w_v"])
def test_a_projection_weight_that_is_not_square_is_refused_when_the_spec_is_built(variant, weight):
    weights = _weights(variant)
    weights[weight] = weights[weight][:, :-1]
    with pytest.raises(ShapeError, match=weight):
        HEADS[variant](**weights)


@pytest.mark.parametrize("token, key_scale", [(1e200, 1e-210), (1e100, 1e-40)])
def test_the_score_bound_of_a_huge_token_warns_nothing(token, key_scale):
    """Row 0's bound leaves the float range (|q_0|^2 at 1e200, |q_0|^2 |k_0|^2
    at 1e100), so the row takes the exact shift; with small key weights
    every score stays finite, so no step of the forward may overflow."""
    rng = np.random.default_rng(13)
    m = 16
    x = rng.uniform(-1, 1, size=(8, m))
    x[0] = token
    w_q, w_k, w_v = (rng.uniform(-1, 1, size=(m, m)) for _ in range(3))
    spec = StandardHeadSpec(w_q, w_k * key_scale, w_v)
    assert widened_operands(x, spec)[3][0]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        out = head_forward(x, spec)
    reference = _unblocked(x, spec)
    assert np.max(np.abs(out - reference)) <= 1e-13 * np.max(np.abs(reference))


def test_random_features_refuse_underflow_and_overflow():
    m = 3
    eye = np.eye(m)
    x = np.random.default_rng(30).uniform(size=(4, m))
    big = x * (1e3 / np.linalg.norm(x, axis=1, keepdims=True))
    spec = PerformerHeadSpec(eye, eye, eye, omegas=np.random.default_rng(31).standard_normal((2, m)))
    with pytest.raises(DomainError, match="underflow"):
        head_forward(big, spec)
    wide = PerformerHeadSpec(eye, eye, eye, omegas=np.array([[60.0, 0.0, 0.0]]))
    with pytest.raises(DomainError, match="non-finite"):
        head_forward(np.array([[60.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), wide)


def _random_head(variant, n, m=4, k=2, seed=0):
    """A head of random weights at sequence length n (k = min(k, n - 1) where k < n)."""
    rng = np.random.default_rng(seed)
    if HEADS[variant].k_below_n:
        k = min(k, n - 1)
    w = [rng.uniform(-1, 1, size=(m, m)) for _ in range(3)]
    shapes = HEADS[variant].extra_shapes(n, m, k)
    extras = {name: rng.standard_normal(shape) if name == "omegas" else rng.uniform(size=shape)
              for name, shape in shapes.items()}
    return HEADS[variant](*w, **extras)


@pytest.mark.parametrize("variant", list(HEADS))
def test_stacked_forwards_are_bitwise_each_sequence_alone(variant):
    """A stack of S sequences gives, slice by slice, the bits of S separate
    forwards: for the construction, its lift and head, and for random heads."""
    needs_k = HEADS[variant].needs_k
    rng = np.random.default_rng(40)
    for n in range(1, 7):
        if needs_k and n < 2:
            continue
        for d in (1, 2, 3):
            con = build_sum_extraction(variant, n, d, enumerate_multidegrees(d, n),
                                       k=n - 1 if needs_k else None, seed=_seed(variant, n + d))
            xs = rng.uniform(size=(5, n, d))
            lifted = con.lift(xs)
            out, head_out = con.forward(xs), con.head.forward(lifted)
            for i, x in enumerate(xs):
                assert np.array_equal(con.lift(x), lifted[i])
                assert np.array_equal(con.forward(x), out[i])
                assert np.array_equal(head_forward(lifted[i], con.head), head_out[i])
        if HEADS[variant].k_below_n and n < 2:
            continue
        spec = _random_head(variant, n, seed=n)
        xs = rng.uniform(-1, 1, size=(4, n, 4))
        stacked = head_forward(xs, spec)
        for i, x in enumerate(xs):
            assert np.array_equal(head_forward(x, spec), stacked[i])


def test_stacked_mlp_phi_construction_is_bitwise_each_sequence_alone():
    n, d = 4, 2
    basis = enumerate_multidegrees(d, n)
    spec = MlpSpec((d, 8, basis.size))
    con = build_sum_extraction("standard", n, d, basis,
                               phi=MlpFeatureMap(spec, init_mlp_params(spec, np.random.default_rng(41))))
    xs = np.random.default_rng(42).uniform(size=(6, n, d))
    out = con.forward(xs)
    for i, x in enumerate(xs):
        assert np.array_equal(con.forward(x), out[i])


@pytest.mark.parametrize("variant", list(HEADS))
def test_stack_mac_count_is_the_sequence_count_times_one_forward(variant, workers):
    k = 3 if HEADS[variant].needs_k else None
    n, d, stack = 4, 2, 7
    con = build_sum_extraction(variant, n, d, enumerate_multidegrees(d, n), k=k, seed=_seed(variant, 0))
    xs = np.random.default_rng(43).uniform(size=(stack, n, d))
    one, many = MacCounter(), MacCounter()
    con.forward(xs[0], one)
    con.forward(xs, many)
    assert many.total == stack * one.total > 0
    spec = _random_head(variant, 259, k=3)
    x = np.random.default_rng(44).uniform(-1, 1, size=(3, 259, 4))
    one, many = MacCounter(), MacCounter()
    head_forward(x[0], spec, one)
    head_forward(x, spec, many)
    assert one.total == mac_count(variant, x.shape[1], 4, k)
    assert many.total == 3 * one.total


def test_heads_reject_inputs_that_are_not_matrices_or_stacks():
    spec = _random_head("standard", 3)
    for bad in (np.zeros(4), np.zeros((2, 2, 3, 4))):
        with pytest.raises(ShapeError):
            head_forward(bad, spec)
