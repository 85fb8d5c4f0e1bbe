from pathlib import Path

import numpy as np
import pytest

from sumformer.attention import HEADS, build_sum_extraction
from sumformer.errors import ConfigError, ContractError
from sumformer.model import (
    LatentPolynomial,
    MlpFeatureMap,
    build_continuous_sumformer,
    build_discrete_sumformer,
    build_mlp_sumformer,
    build_polynomial_sumformer,
    sumformer_forward,
)
from sumformer.multisym import enumerate_multidegrees
from sumformer.serialize import (
    _load,
    dump_construction,
    dump_model,
    load_construction,
    load_model,
)
from test_attention import VARIANT_CASES

DATA = Path(__file__).parent / "data"


def _network_matrix(con, name):
    """The matrix of ``con`` that files of the earlier form store as ``name``:
    their one-head W_O is the identity and their token-wise bias is zero."""
    m = con.model_dim
    fixed = {"W_O": np.eye(m), "fc.W0": con.w_fc, "fc.b0": np.zeros((1, m))}
    return fixed[name] if name in fixed else getattr(con.head, name.lower())


@pytest.mark.parametrize("variant,kwargs", [(v, VARIANT_CASES[v][0]) for v in HEADS])
def test_construction_round_trip_same_forward(variant, kwargs):
    """New files hold the build parameters and no matrix; files of the
    earlier form hold every matrix and load to a network with exactly those
    matrices, whose forward survives a round trip through the new form."""
    con = build_sum_extraction(variant, 4, 2, enumerate_multidegrees(2, 2), **kwargs)
    assert "matrix" not in dump_construction(con)
    x = np.random.default_rng(3).uniform(size=(4, 2))
    paths = sorted(DATA.glob(f"legacy_sum_extraction_{variant}*.txt"))
    assert paths
    for path in paths:
        text = path.read_text()
        legacy = load_construction(text)
        _, fields, stored = _load(text)
        for name, mat in stored.items():
            assert np.array_equal(_network_matrix(legacy, name), mat), (path.name, name)
        assert (legacy.variant, legacy.k, legacy.seed) == (variant, fields["k"], fields["seed"])
        assert legacy.lambda_value == fields["lambda"]
        again = load_construction(dump_construction(legacy))
        assert np.array_equal(again.forward(x), legacy.forward(x))


def test_construction_files_reproduce_random_features():
    basis = enumerate_multidegrees(2, 2)
    con = build_sum_extraction("performer", 4, 2, basis, k=2, seed=9)
    text = dump_construction(con).replace(repr(con.lambda_value), repr(2.0 * con.lambda_value))
    with pytest.raises(ConfigError):
        load_construction(text)
    # Without a seed the feature vectors themselves are written.
    seedless = build_sum_extraction("performer", 4, 2, basis, k=2)
    loaded = load_construction(dump_construction(seedless))
    x = np.random.default_rng(4).uniform(size=(4, 2))
    assert np.array_equal(loaded.forward(x), seedless.forward(x))
    assert loaded.lambda_value == seedless.lambda_value


@pytest.mark.parametrize("variant,kwargs", [("standard", {}), ("linformer", {"k": 2})])
def test_the_seed_line_of_a_construction_without_random_features_is_ignored(variant, kwargs):
    """Earlier files of the averaging constructions could name a seed that
    nothing drew from; they load, and a rewrite names none."""
    con = build_sum_extraction(variant, 4, 2, enumerate_multidegrees(2, 2), **kwargs)
    text = dump_construction(con)
    assert "field seed none -\n" in text
    loaded = load_construction(text.replace("field seed none -", "field seed int 5"))
    assert loaded.seed is None and dump_construction(loaded) == text
    x = np.random.default_rng(6).uniform(size=(4, 2))
    assert np.array_equal(loaded.forward(x), con.forward(x))


def test_a_non_finite_random_feature_in_a_file_is_a_config_error():
    """An inf feature entry can still leave the Gram constant finite; the head refuses it."""
    seedless = build_sum_extraction("performer", 4, 2, enumerate_multidegrees(2, 2), k=2)
    entry = repr(float(seedless.head.omegas[0, -1]))
    text = dump_construction(seedless)
    assert entry in text
    with pytest.raises(ConfigError, match="omegas"):
        load_construction(text.replace(entry, "-inf"))


def test_a_file_whose_k_disagrees_with_its_random_features_is_a_config_error():
    """The feature vectors' row count is the head's k; a file's k field must
    name the same number, or the head's k would slip past k < n."""
    basis = enumerate_multidegrees(2, 2)
    three_rows = dump_construction(build_sum_extraction("performer", 4, 2, basis, k=3))
    five_rows = dump_construction(build_sum_extraction("performer", 6, 2, basis, k=5))
    for text in (three_rows.replace("field k int 3", "field k int 2"),
                 five_rows.replace("field n int 6", "field n int 4").replace("field k int 5", "field k int 3")):
        with pytest.raises(ConfigError, match="omegas must be a") as info:
            load_construction(text)
        assert "\n" not in str(info.value)


# A low-rank construction file in the form written while the value scale was
# a switch: it names the scale.
SCALE_NAMING_FILE = """format sumformer/1
object sum_extraction
field variant str linformer
field n int 4
field d int 2
field n_max int 2
field k int 2
field seed none -
field lambda none -
field wv_scale str k
field phi_kind str monomial
end
"""


def test_a_file_that_names_the_value_scale_loads_only_at_scale_k():
    loaded = load_construction(SCALE_NAMING_FILE)
    con = build_sum_extraction("linformer", 4, 2, enumerate_multidegrees(2, 2), k=2)
    x = np.random.default_rng(5).uniform(size=(4, 2))
    assert np.array_equal(loaded.forward(x), con.forward(x))
    assert dump_construction(loaded) == SCALE_NAMING_FILE.replace("field wv_scale str k\n", "")
    with pytest.raises(ConfigError, match="field wv_scale must be k, got 'n'") as info:
        load_construction(SCALE_NAMING_FILE.replace("wv_scale str k", "wv_scale str n"))
    assert "\n" not in str(info.value)


def test_construction_with_mlp_phi_round_trip():
    from sumformer.mlp import MlpSpec, init_mlp_params

    basis = enumerate_multidegrees(1, 2)
    rng = np.random.default_rng(4)
    spec = MlpSpec((1, 5, basis.size))
    con = build_sum_extraction("standard", 3, 1, basis, phi=MlpFeatureMap(spec, init_mlp_params(spec, rng)))
    loaded = load_construction(dump_construction(con))
    x = rng.uniform(size=(3, 1))
    assert np.array_equal(loaded.forward(x), con.forward(x))


def test_construction_with_a_wide_mlp_phi_round_trips_bitwise():
    """d' = 32 at n = 3, d = 2, as the default train model; not basis.size (9)."""
    from sumformer.mlp import MlpSpec, init_mlp_params

    spec = MlpSpec((2, 16, 32))
    phi = MlpFeatureMap(spec, init_mlp_params(spec, np.random.default_rng(8)))
    xs = np.random.default_rng(9).uniform(size=(5, 3, 2))
    for variant, (kwargs, _) in VARIANT_CASES.items():
        con = build_sum_extraction(variant, 3, 2, enumerate_multidegrees(2, 3), phi=phi, **kwargs)
        loaded = load_construction(dump_construction(con))
        assert loaded.d_latent == 32
        assert np.array_equal(loaded.forward(xs), con.forward(xs))


def test_grid_table_has_no_file_form():
    model = build_discrete_sumformer(lambda x, rest: x + rest.sum(axis=0), delta_cells=3, n=2, d=1)
    with pytest.raises(ContractError):
        dump_model(model)
    con = build_sum_extraction("standard", 2, 1, enumerate_multidegrees(1, 2), phi=model.phi)
    with pytest.raises(ContractError):
        dump_construction(con)


def test_mlp_model_round_trip_same_forward():
    model = build_mlp_sumformer(2, 5, seed=5)
    loaded = load_model(dump_model(model))
    x = np.random.default_rng(6).uniform(size=(3, 2))
    assert np.array_equal(sumformer_forward(loaded, x), sumformer_forward(model, x))


def test_polynomial_phi_model_round_trip():
    model = build_polynomial_sumformer(3, 2, seed=7)
    loaded = load_model(dump_model(model))
    x = np.random.default_rng(8).uniform(size=(3, 2))
    assert np.array_equal(sumformer_forward(loaded, x), sumformer_forward(model, x))


def _continuous_model():
    sigma0 = LatentPolynomial((
        (np.array([0.5]), (2, 0, 0)),
        (np.array([-0.5]), (0, 1, 0)),
    ))
    sigma1 = LatentPolynomial(((np.array([1.0]), (0, 0, 0)),))
    return build_continuous_sumformer(3, 1, [((0,), sigma0), ((1,), sigma1)])


def test_continuous_model_round_trip():
    model = _continuous_model()
    loaded = load_model(dump_model(model))
    x = np.array([[1.0], [2.0], [3.0]])
    assert np.array_equal(sumformer_forward(loaded, x), sumformer_forward(model, x))


def test_load_rejects_bad_header():
    with pytest.raises(ConfigError):
        load_model("not a header\nobject sumformer_model\nend\n")


def test_load_rejects_wrong_kind():
    model = build_mlp_sumformer(1, 2, seed=0)
    with pytest.raises(ConfigError):
        load_construction(dump_model(model))


def _drop_first_row(text, matrix):
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(f"matrix {matrix} "))
    return "\n".join(lines[:i + 1] + lines[i + 2:]) + "\n"


# Each damages a valid file with d = 1: (damage, words the error must name,
# the files it applies to).
MLP_FILES = ("mlp_model", "construction")
POLYNOMIAL_PSI = ("polynomial_psi_model",)
DAMAGED_FILES = {
    "header_only": (lambda text: text.splitlines()[0] + "\n", "object line", MLP_FILES),
    "missing_field": (lambda text: text.replace("field d int 1\n", ""), "field 'd'", MLP_FILES),
    "field_not_an_int": (lambda text: text.replace("field d int 1", "field d int one"), "field d int one",
                         MLP_FILES),
    "matrix_short_of_rows": (lambda text: _drop_first_row(text, "phi.W0"), "rows declared", MLP_FILES),
    "field_of_the_wrong_type": (lambda text: text.replace("field d int 1", "field d str one"),
                                "field d must be int", MLP_FILES),
    "field_out_of_range": (lambda text: text.replace("field d int 1", "field d int -1"),
                           "field d must be int >= 1", MLP_FILES),
    "field_bool_for_int": (lambda text: text.replace("field d int 1", "field d bool 1"), "field d must be int",
                           MLP_FILES),
    "widths_not_integers": (lambda text: text.replace("field phi.widths str 1,", "field phi.widths str x,"),
                            "field phi.widths must list integers", MLP_FILES),
    "alpha_without_rows": (lambda text: text.replace("imatrix psi.term0.alpha 1 1\n0\n",
                                                     "imatrix psi.term0.alpha 0 1\n"),
                           "psi.term0.alpha must have 1 row", POLYNOMIAL_PSI),
    "exps_short_of_coeffs": (lambda text: text.replace("imatrix psi.term0.exps 2 3\n2 0 0\n",
                                                       "imatrix psi.term0.exps 1 3\n"),
                             "psi.term0.exps has 1 rows, psi.term0.coeffs 2", POLYNOMIAL_PSI),
    # The MLP phi outputs 2 latent columns; the model is rebuilt from phi and refused.
    "d_latent_disagrees_with_phi": (lambda text: text.replace("field d_latent int 2", "field d_latent int 3"),
                                    "field d_latent is 3, but phi outputs 2", ("mlp_model",)),
    # The MLP phi reads tokens of width 1; the construction would feed it width 2.
    "phi_of_another_token_width": (lambda text: text.replace("field d int 1", "field d int 2"),
                                   "cannot rebuild construction", ("construction",)),
}


@pytest.mark.parametrize("case", list(DAMAGED_FILES))
def test_damaged_files_raise_config_error_naming_the_fault(case):
    from sumformer.mlp import MlpSpec, init_mlp_params

    damage, named, applies_to = DAMAGED_FILES[case]
    basis = enumerate_multidegrees(1, 2)
    spec = MlpSpec((1, 5, basis.size))
    con = build_sum_extraction("standard", 3, 1, basis,
                               phi=MlpFeatureMap(spec, init_mlp_params(spec, np.random.default_rng(0))))
    files = {
        "mlp_model": (load_model, dump_model(build_mlp_sumformer(1, 2, seed=0))),
        "construction": (load_construction, dump_construction(con)),
        "polynomial_psi_model": (load_model, dump_model(_continuous_model())),
    }
    for load, text in (files[name] for name in applies_to):
        assert damage(text) != text
        with pytest.raises(ConfigError) as exc_info:
            load(damage(text))
        message = str(exc_info.value)
        assert named in message and "\n" not in message, (load.__name__, message)


# Fields only a construction file holds: (old line, damaged line, words the error must name).
DAMAGED_CONSTRUCTION_FIELDS = [
    ("field n int 3", "field n str x", "field n must be int"),
    ("field n int 3", "field n int 0", "field n must be int >= 1"),
    ("field seed none -", "field seed int -1", "field seed must be int >= 0 or none"),
    ("field phi_kind str monomial", "field phi_kind str spline", "field phi_kind must be mlp or monomial"),
]


@pytest.mark.parametrize("old, new, named", DAMAGED_CONSTRUCTION_FIELDS)
def test_damaged_construction_fields_raise_config_error(old, new, named):
    text = dump_construction(build_sum_extraction("standard", 3, 1, enumerate_multidegrees(1, 2)))
    assert old in text
    with pytest.raises(ConfigError, match=named):
        load_construction(text.replace(old, new))
