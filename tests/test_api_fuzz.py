"""Malformed arrays and sizes given to the exported API raise only the
package's own error classes, never a raw Python or numpy error.

An array of the wrong layout (a list, a scalar, 1-D or 4-D, the wrong width)
is a ShapeError; a size that is not an integer at or above its bound (a bool,
a str, a float, a negative or a zero) is a ContractError.  A NaN or inf entry
in an array of the right layout is a DomainError where the callable checks
finiteness, and passes through where it does not (the MLP forward, which
runs on every training step, the power sums, the lift and the relative
error).  A seed is a size at or above 0 (``build_sum_extraction`` also takes
None, so its seed is in the probe table, not drawn).
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import sumformer as sf  # noqa: E402
from sumformer.attention import HEADS, draws_features  # noqa: E402
from sumformer.errors import BudgetError, ContractError, DomainError, ShapeError  # noqa: E402
from sumformer.model import CellFeatureMap, batch_forward  # noqa: E402

RNG = np.random.default_rng(0)
BASIS = sf.enumerate_multidegrees(2, 2)
MODEL = sf.build_mlp_sumformer(2, 3, hidden=(4,))
MLP = sf.MlpSpec((2, 4, 1))
PARAMS = sf.init_mlp_params(MLP, RNG)
TARGET = sf.get_target("quadratic_sum")
NO_TERMS = (np.zeros((0, 2), int), np.zeros((0, 5), int), np.zeros((0, 2)))  # no psi terms at d = 2, n = 2


def _head(variant, n=5, m=4, k=2):
    w = [RNG.uniform(-1, 1, size=(m, m)) for _ in range(3)]
    return HEADS[variant](*w, **{name: RNG.uniform(size=shape)
                                 for name, shape in HEADS[variant].extra_shapes(n, m, k).items()})


def _construction(variant):
    return sf.build_sum_extraction(variant, 3, 2, BASIS, k=2 if HEADS[variant].needs_k else None,
                                   seed=0 if draws_features(variant) else None)


def _train_on(x):
    """``train`` on a dataset whose inputs and targets are both ``x``."""
    data = sf.Dataset(x, x, np.arange(1), np.arange(1, 2))
    return sf.train(sf.build_mlp_sumformer(2, 3, hidden=(4,)), data, 1)


# Callables that take token arrays, and the width they need (None: any).
ARRAY_CALLS = {
    "sumformer_forward": (lambda x: sf.sumformer_forward(MODEL, x), 2),
    "batch_forward": (lambda x: batch_forward(MODEL, x), 2),
    "mlp_forward": (lambda x: sf.mlp_forward(MLP, PARAMS, x), 2),
    "power_sum": (lambda x: sf.power_sum(x, (1, 1)), 2),
    "power_sum_vector": (lambda x: sf.power_sum_vector(x, BASIS), 2),
    "PolynomialFeatureMap.rows": (sf.PolynomialFeatureMap(BASIS).rows, 2),
    "lift": (sf.lift(lambda x, rest: x + rest.sum(axis=-2)), None),
    "relative_l2_error": (lambda x: sf.relative_l2_error(x, x), None),
    "train": (_train_on, 2),
    **{f"{variant}.construction": (_construction(variant).forward, 2) for variant in HEADS},
    **{f"{variant}.lift": (_construction(variant).lift, 2) for variant in HEADS},
    **{f"{variant}.head_forward": (lambda x, spec=_head(variant): sf.head_forward(x, spec), 4)
       for variant in HEADS},
    **{f"{variant}.attention_matrix": (lambda x, spec=_head(variant): sf.attention_matrix(x, spec), 4)
       for variant in ("standard", "linformer")},
}

# Callables that take sizes, by the name of the size, and its lower bound.
SIZE_CALLS = {
    "basis_size.d": (lambda s: sf.basis_size(s, 2), 0),
    "basis_size.n_max": (lambda s: sf.basis_size(2, s), 0),
    "enumerate_multidegrees.d": (lambda s: sf.enumerate_multidegrees(s, 2), 1),
    "enumerate_multidegrees.n_max": (lambda s: sf.enumerate_multidegrees(2, s), 1),
    "build_sum_extraction.n": (lambda s: sf.build_sum_extraction("standard", s, 2, BASIS), 1),
    "build_sum_extraction.d": (lambda s: sf.build_sum_extraction("standard", 3, s, BASIS), 1),
    "build_sum_extraction.k.linformer":
        (lambda s: sf.build_sum_extraction("linformer", 3, 2, BASIS, k=s), 1),
    "build_sum_extraction.k.performer":
        (lambda s: sf.build_sum_extraction("performer", 3, 2, BASIS, k=s, seed=0), 1),
    "MlpSpec": (lambda s: sf.MlpSpec((2, s, 1)), 1),
    "build_mlp_sumformer.d": (lambda s: sf.build_mlp_sumformer(s, 3), 1),
    "build_mlp_sumformer.d_latent": (lambda s: sf.build_mlp_sumformer(2, s), 1),
    "build_polynomial_sumformer.n": (lambda s: sf.build_polynomial_sumformer(s, 2), 1),
    "build_continuous_sumformer.d": (lambda s: sf.build_continuous_sumformer(2, s, *NO_TERMS), 1),
    "build_discrete_sumformer.delta_cells":
        (lambda s: sf.build_discrete_sumformer(lambda x, rest: x, s, 2, 1), 1),
    "build_discrete_sumformer.n": (lambda s: sf.build_discrete_sumformer(lambda x, rest: x, 2, s, 1), 1),
    "build_discrete_sumformer.d": (lambda s: sf.build_discrete_sumformer(lambda x, rest: x, 2, 2, s), 1),
    "generate_dataset.n": (lambda s: sf.generate_dataset(TARGET, s, 2, 4), 1),
    "generate_dataset.d": (lambda s: sf.generate_dataset(TARGET, 2, s, 4), 1),
    "generate_dataset.count": (lambda s: sf.generate_dataset(TARGET, 2, 2, s), 2),
    "check_equivariance.n": (lambda s: sf.check_equivariance(lambda xs: xs, s, 2, trials=1), 1),
    "check_equivariance.d": (lambda s: sf.check_equivariance(lambda xs: xs, 2, s, trials=1), 1),
    "check_equivariance.trials": (lambda s: sf.check_equivariance(lambda xs: xs, 2, 2, trials=s), 0),
    "mac_count.n": (lambda s: sf.mac_count("standard", s, 4), 1),
    "mac_count.d_model": (lambda s: sf.mac_count("performer", 8, s, 2), 1),
    "mac_count.k": (lambda s: sf.mac_count("linformer", 8, 4, s), 1),
    "generation_oracle.d": (lambda s: sf.generation_oracle(lambda x: x.sum(), s, 2, 4), 1),
    "generation_oracle.n": (lambda s: sf.generation_oracle(lambda x: x.sum(), 1, s, 4), 1),
    "generation_oracle.sample_count": (lambda s: sf.generation_oracle(lambda x: x.sum(), 1, 1, s), 1),
    "train.epochs": (lambda s: sf.train(sf.build_mlp_sumformer(2, 3, hidden=(4,)),
                                        sf.generate_dataset(TARGET, 2, 2, 4), s), 0),
    "train.batch_size": (lambda s: sf.train(sf.build_mlp_sumformer(2, 3, hidden=(4,)),
                                            sf.generate_dataset(TARGET, 2, 2, 4), 1,
                                            sf.OptimizerConfig(batch_size=s)), 1),
    "latent_sweep.points": (lambda s: sf.latent_sweep(TARGET, 2, [1], [2], 1, s, [0]), 2),
    "generate_dataset.seed": (lambda s: sf.generate_dataset(TARGET, 2, 2, 4, seed=s), 0),
    "train.seed": (lambda s: sf.train(sf.build_mlp_sumformer(2, 3, hidden=(4,)),
                                      sf.generate_dataset(TARGET, 2, 2, 4), 1, seed=s), 0),
    "latent_sweep.seeds": (lambda s: sf.latent_sweep(TARGET, 2, [1], [2], 1, 4, [0, s]), 0),
    "build_mlp_sumformer.seed": (lambda s: sf.build_mlp_sumformer(2, 3, seed=s), 0),
    "build_polynomial_sumformer.seed": (lambda s: sf.build_polynomial_sumformer(2, 2, seed=s), 0),
    "generation_oracle.seed": (lambda s: sf.generation_oracle(lambda x: x.sum(), 1, 1, 4, seed=s), 0),
    "check_equivariance.seed":
        (lambda s: sf.check_equivariance(lambda xs: xs, 2, 2, trials=1, seed=s), 0),
}


@st.composite
def bad_arrays(draw, width):
    """(array, layout fault) for a callable that needs ``width`` columns: a
    list, a scalar, a 1-D or 4-D array, the wrong width, or (no layout
    fault) a right-shaped array with a NaN or inf entry."""
    kinds = ["list", "scalar", "1-D", "4-D", "non-finite"] + ([] if width is None else ["width"])
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    cols = width or draw(st.integers(1, 4))
    stack = draw(st.sampled_from([(), (2,)]))
    if kind == "1-D":
        return rng.uniform(size=draw(st.integers(0, 6))), True
    if kind == "4-D":
        return rng.uniform(size=(1, 2, 3, cols)), True
    if kind == "scalar":
        return draw(st.sampled_from([1.5, 0, None, "x"])), True
    if kind == "width":
        cols = draw(st.integers(0, 6).filter(lambda w: w != width))
    x = rng.uniform(size=(*stack, 3, cols))
    if kind == "list":
        return x.tolist(), True
    if kind == "width":
        return x, True
    x[..., draw(st.integers(0, 2)), draw(st.integers(0, cols - 1))] = draw(
        st.sampled_from([np.nan, np.inf, -np.inf]))
    return x, False


def _escapes(call, arg):
    """The exception the call raises, or None.  A NaN that a forward passes
    through may warn on its way; that is not what is checked here."""
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            call(arg)
    except Exception as exc:  # noqa: BLE001 - the class is what is checked
        return exc
    return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(ARRAY_CALLS)).flatmap(
    lambda name: st.tuples(st.just(name), bad_arrays(ARRAY_CALLS[name][1]))))
def test_a_malformed_array_raises_only_package_errors(case):
    name, (x, layout_fault) = case
    exc = _escapes(ARRAY_CALLS[name][0], x)
    if layout_fault:
        assert isinstance(exc, ShapeError), (name, x, exc)
    else:
        assert exc is None or type(exc).__module__ == "sumformer.errors", (name, x, repr(exc))


def bad_sizes(low):
    """Values that are not an integer at or above ``low``."""
    return st.one_of(
        st.booleans(),
        st.sampled_from([np.True_, np.False_, None, "3", "", 2.0, 2.5, np.float64(3.0), np.nan, np.inf]),
        st.floats(allow_nan=True),
        st.integers(max_value=low - 1),
        st.integers(-3, low - 1).map(np.int64),
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(SIZE_CALLS)).flatmap(
    lambda name: st.tuples(st.just(name), bad_sizes(SIZE_CALLS[name][1]))))
def test_a_malformed_size_is_a_contract_error(case):
    name, size = case
    exc = _escapes(SIZE_CALLS[name][0], size)
    assert isinstance(exc, ContractError), (name, size, repr(exc))


def _discrete(*sizes):
    sf.build_discrete_sumformer(lambda x, rest: x, *sizes)


def _performer_seed(seed):
    return sf.build_sum_extraction("performer", 3, 2, BASIS, k=2, seed=seed)


def _train_at(lr):
    return sf.train(sf.build_mlp_sumformer(2, 3, hidden=(4,)), sf.generate_dataset(TARGET, 2, 2, 4),
                    2, sf.OptimizerConfig(lr=lr))


def _continuous(x_exponents, latent_exponents, coefficients):
    return sf.build_continuous_sumformer(2, 2, x_exponents, latent_exponents, coefficients)


# The psi array arguments of build_continuous_sumformer at n = 2, d = 2
# (d' = 5): one row each, one of them faulty.  The term tuples they replace
# took negative and fractional exponents and non-finite coefficients.
_ROW = (np.zeros((1, 2), int), np.zeros((1, 5), int), np.ones((1, 2)))
CONTINUOUS_ARRAYS = [
    *[(ShapeError, _ROW[:i] + (bad,) + _ROW[i + 1:]) for i in range(3)
      for bad in (_ROW[i].tolist(), _ROW[i][0], _ROW[i][np.newaxis], None, np.repeat(_ROW[i], 2, axis=0))],
    (ShapeError, (np.zeros((1, 3), int), *_ROW[1:])),
    (ShapeError, (_ROW[0], np.zeros((1, 4), int), _ROW[2])),
    *[(DomainError, _ROW[:i] + (bad,) + _ROW[i + 1:]) for i in range(2)
      for bad in (_ROW[i] - 1, _ROW[i] + 0.5, _ROW[i].astype(bool), _ROW[i].astype(str))],
    *[(DomainError, (*_ROW[:2], _ROW[2] * bad)) for bad in (np.nan, np.inf, -np.inf)],
    (DomainError, (*_ROW[:2], _ROW[2].astype(str))),
]


# Regression table: calls that once ended in a raw Python or numpy error, or
# were accepted; the comment names what each gave.
PROBE = [
    (ShapeError, lambda: sf.mlp_forward(MLP, PARAMS, [[0.1, 0.2]])),             # AttributeError
    (ShapeError, lambda: sf.mlp_forward(MLP, PARAMS, 1.5)),                      # AttributeError
    (ShapeError, lambda: sf.power_sum([[0.1, 0.2]], (1, 0))),                    # AttributeError
    (ShapeError, lambda: sf.power_sum(None, (1, 0))),                            # AttributeError
    (ShapeError, lambda: sf.power_sum_vector([[0.1, 0.2]], BASIS)),              # AttributeError
    (ShapeError, lambda: sf.power_sum_vector(np.zeros(2), BASIS)),               # AxisError
    (ShapeError, lambda: sf.PolynomialFeatureMap(BASIS).rows([[0.1, 0.2]])),     # AttributeError
    (ShapeError, lambda: sf.lift(lambda x, rest: x)([[0.1, 0.2]])),              # AttributeError
    (ShapeError, lambda: sf.lift(lambda x, rest: x)(np.zeros(2))),               # IndexError
    (ShapeError, lambda: batch_forward(MODEL, [[[0.1, 0.2]]])),                  # AttributeError
    (ShapeError, lambda: batch_forward(MODEL, np.zeros(2))),                     # ValueError
    (ShapeError, lambda: batch_forward(MODEL, np.zeros((1, 1, 3, 2)))),          # ValueError
    (ShapeError, lambda: batch_forward(MODEL, np.zeros((3, 2)))),                # ValueError
    (ShapeError, lambda: sf.relative_l2_error([[0.1, 0.2]], np.ones((1, 2)))),   # accepted
    (ShapeError, lambda: sf.relative_l2_error(np.ones((2, 1)), np.ones((1, 2)))),  # ContractError
    (ContractError, lambda: sf.basis_size("3", 2)),                              # TypeError
    (ContractError, lambda: sf.enumerate_multidegrees(2, 2.5)),                  # TypeError
    (ContractError, lambda: sf.build_sum_extraction("linformer", 3, 2, BASIS, k=True)),  # TypeError
    (ContractError, lambda: sf.MlpSpec((2, "3", 1))),                            # TypeError
    (ContractError, lambda: sf.build_mlp_sumformer(2, True)),                    # TypeError
    (ContractError, lambda: _discrete(2.5, 2, 2)),                               # TypeError
    (ContractError, lambda: sf.generate_dataset(TARGET, True, 2, 4)),            # TypeError
    (ContractError, lambda: sf.check_equivariance(lambda xs: xs, 0, 2, trials=1)),  # IndexError
    (ContractError, lambda: sf.build_sum_extraction("standard", 2.5, 2, BASIS)),  # accepted
    (ContractError, lambda: sf.MlpSpec((2, 2.5, 1))),                            # accepted
    (ContractError, lambda: _performer_seed(-1)),                                # ValueError
    (ContractError, lambda: _performer_seed(2.5)),                               # TypeError
    (ContractError, lambda: _performer_seed("3")),                               # TypeError
    (ContractError, lambda: sf.build_sum_extraction("standard", 3, 2, BASIS, seed=-1)),  # accepted
    (ContractError, lambda: sf.build_sum_extraction("standard", 3, 2, BASIS, seed=5)),   # accepted
    (ContractError, lambda: sf.build_sum_extraction("linformer", 3, 2, BASIS, k=2, seed=0)),  # accepted
    (ContractError, lambda: sf.build_sum_extraction("linformer", 3, 2, BASIS, k=2,
                                                    omegas=np.ones((2, 13)))),   # accepted
    (ContractError, lambda: _train_at(np.nan)),                                  # TrainingDivergedError
    (ContractError, lambda: _train_at(np.inf)),                                  # TrainingDivergedError
    (ContractError, lambda: _train_at("0.1")),                                   # UFuncTypeError
    (ContractError, lambda: _train_at(None)),                                    # UFuncTypeError
    (ContractError, lambda: _train_at(True)),                                    # accepted
    (ContractError, lambda: _train_at(10**400)),                                 # OverflowError
    *[(error, lambda arrays=arrays: _continuous(*arrays)) for error, arrays in CONTINUOUS_ARRAYS],  # accepted
    (ContractError, lambda: sf.generation_oracle(lambda x: x.sum(), 2, 2, 39)),  # accepted: 39 terms
    (BudgetError, lambda: sf.generation_oracle(lambda x: x.sum(), 1, 2, 10**9)),  # MemoryError
    (ContractError, lambda: CellFeatureMap(0, 1)),                               # accepted: ValueError at forward
    (ContractError, lambda: CellFeatureMap(True, 1)),                            # accepted: one cell
    (ContractError, lambda: CellFeatureMap(2, 0)),                               # accepted
    (ShapeError, lambda: sf.MlpFeatureMap(MLP, PARAMS[:1])),                      # accepted: ShapeError at forward
    (ShapeError, lambda: sf.MlpCombiner(MLP, [(w.T, b) for w, b in PARAMS])),     # accepted: ShapeError at forward
]


@pytest.mark.parametrize("error, call", PROBE)
def test_a_probed_call_raises_the_class_that_names_its_fault(error, call):
    with pytest.raises(error):
        call()


def test_a_construction_without_a_seed_is_built():
    assert _performer_seed(None).seed is None
    assert _performer_seed(np.int64(3)).seed == 3
