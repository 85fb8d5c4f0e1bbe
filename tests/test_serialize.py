import time
from pathlib import Path

import numpy as np
import pytest

from sumformer.attention import HEADS, build_sum_extraction
from sumformer.errors import ConfigError, ContractError
from sumformer.model import (
    MlpFeatureMap,
    SumformerModel,
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
    con = build_sum_extraction("standard", 3, 1, phi=MlpFeatureMap(spec, init_mlp_params(spec, rng)))
    loaded = load_construction(dump_construction(con))
    x = rng.uniform(size=(3, 1))
    assert np.array_equal(loaded.forward(x), con.forward(x))


def test_an_earlier_mlp_phi_construction_file_loads_to_its_forward_bits():
    """Files of MLP-phi constructions once held an n_max that no forward
    read; such a file loads to the forward it was written beside, and is
    rewritten without that line alone."""
    text = (DATA / "mlp_phi_construction_with_n_max.txt").read_text()
    _, _, check = _load((DATA / "mlp_phi_construction_with_n_max.forward.txt").read_text())
    con = load_construction(text)
    assert np.array_equal(con.forward(check["x"]), check["forward"])
    assert dump_construction(con) == text.replace("field n_max int 2\n", "")
    assert "n_max" not in dump_construction(con)


def test_construction_with_a_wide_mlp_phi_round_trips_bitwise():
    """d' = 32 at n = 3, d = 2, as the default train model; not basis.size (9)."""
    from sumformer.mlp import MlpSpec, init_mlp_params

    spec = MlpSpec((2, 16, 32))
    phi = MlpFeatureMap(spec, init_mlp_params(spec, np.random.default_rng(8)))
    xs = np.random.default_rng(9).uniform(size=(5, 3, 2))
    for variant, (kwargs, _) in VARIANT_CASES.items():
        con = build_sum_extraction(variant, 3, 2, phi=phi, **kwargs)
        loaded = load_construction(dump_construction(con))
        assert loaded.d_latent == 32
        assert np.array_equal(loaded.forward(xs), con.forward(xs))


def test_construction_with_a_narrower_monomial_phi_round_trips_bitwise():
    """The file holds the n_max of the phi the forward reads (2, d' = 5), below
    the construction's n = 3."""
    phi = enumerate_multidegrees(2, 2)
    xs = np.random.default_rng(10).uniform(size=(4, 3, 2))
    for variant, (kwargs, _) in VARIANT_CASES.items():
        con = build_sum_extraction(variant, 3, 2, phi=phi, **kwargs)
        loaded = load_construction(dump_construction(con))
        assert (loaded.d_latent, loaded.model_dim) == (con.d_latent, con.model_dim) == (5, 13)
        assert np.array_equal(loaded.forward(xs), con.forward(xs))


def test_grid_table_has_no_file_form():
    model = build_discrete_sumformer(lambda x, rest: x + rest.sum(axis=0), delta_cells=3, n=2, d=1)
    with pytest.raises(ContractError):
        dump_model(model)
    con = build_sum_extraction("standard", 2, 1, phi=model.phi)
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
    """psi(x, s) = s1^2/2 - s2/2 + x over the other tokens' power sums s."""
    latent_exponents = np.array([[2, 0, 0], [0, 1, 0], [0, 0, 0]])
    return build_continuous_sumformer(3, 1, np.array([[0], [0], [1]]), latent_exponents,
                                      np.array([[0.5], [-0.5], [1.0]]))


# The file of _continuous_model: rows 0 and 1 share the x-exponent 0, so they
# are one psi.term group.
CONTINUOUS_MODEL_FILE = """format sumformer/1
object sumformer_model
field d int 1
field d_latent int 3
field phi_kind str polynomial
field phi_n_max int 3
field psi_kind str polynomial
field psi_terms int 2
field psi_out_width int 1
imatrix psi.term0.alpha 1 1
0
matrix psi.term0.coeffs 2 1
0.5
-0.5
imatrix psi.term0.exps 2 3
2 0 0
0 1 0
imatrix psi.term1.alpha 1 1
1
matrix psi.term1.coeffs 1 1
1.0
imatrix psi.term1.exps 1 3
0 0 0
end
"""


def test_continuous_model_file_is_pinned():
    assert dump_model(_continuous_model()) == CONTINUOUS_MODEL_FILE
    loaded = load_model(CONTINUOUS_MODEL_FILE).psi
    for name in ("x_exponents", "latent_exponents", "coefficients"):
        assert np.array_equal(getattr(loaded, name), getattr(_continuous_model().psi, name))


def test_rows_that_share_an_x_exponent_apart_are_separate_groups():
    """Only consecutive rows with one x-exponent form a group, so a reload
    keeps the row order, and with it each output's bits."""
    model = build_continuous_sumformer(2, 1, np.array([[1], [0], [1]]), np.array([[1, 0], [0, 2], [0, 1]]),
                                       np.array([[0.3], [-1.5], [2.0]]))
    text = dump_model(model)
    assert "field psi_terms int 3\n" in text
    loaded = load_model(text)
    x = np.random.default_rng(9).uniform(size=(4, 2, 1))
    assert np.array_equal(sumformer_forward(loaded, x), sumformer_forward(model, x))


def test_continuous_model_round_trip():
    model = _continuous_model()
    loaded = load_model(dump_model(model))
    x = np.array([[1.0], [2.0], [3.0]])
    assert np.array_equal(sumformer_forward(loaded, x), sumformer_forward(model, x))


def test_load_rejects_bad_header():
    with pytest.raises(ConfigError):
        load_model("not a header\nobject sumformer_model\nend\n")


def test_a_model_of_stacked_parameter_sets_has_no_file_form():
    """K parameter sets stacked on a leading axis run K models at once; a file
    holds one model, so its dump refuses the 3-D weights as a caller's fault."""
    model = build_mlp_sumformer(1, 2, seed=0)
    stacked = SumformerModel(*(type(part)(part.spec, [(np.stack([w, w]), np.stack([b, b])) for w, b in part.params])
                               for part in (model.phi, model.psi)))
    with pytest.raises(ContractError, match="matrix phi.W0 must be 2-D"):
        dump_model(stacked)


def test_a_model_built_from_numpy_sizes_writes_the_same_file():
    """The MLP widths are kept as Python ints, so every field is written as an int."""
    assert dump_model(build_mlp_sumformer(np.int64(1), np.int32(2), seed=0)) == dump_model(
        build_mlp_sumformer(1, 2, seed=0))


def test_load_rejects_wrong_kind():
    model = build_mlp_sumformer(1, 2, seed=0)
    with pytest.raises(ConfigError):
        load_construction(dump_model(model))


def _drop_first_row(text, matrix):
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(f"matrix {matrix} "))
    return "\n".join(lines[:i + 1] + lines[i + 2:]) + "\n"


def _repeat_first_row(text, matrix):
    """The matrix ``matrix`` with its first row twice, its header saying so."""
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(f"matrix {matrix} "))
    _, name, rows, cols = lines[i].split()
    return "\n".join(lines[:i] + [f"matrix {name} {int(rows) + 1} {cols}", lines[i + 1]] + lines[i + 1:]) + "\n"


def _nan_first_entry(text, matrix):
    """The matrix ``matrix`` with its first entry NaN."""
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(f"matrix {matrix} ")) + 1
    lines[i] = " ".join(["nan", *lines[i].split()[1:]])
    return "\n".join(lines) + "\n"


def _replacing(*pairs):
    """The damage that makes each (old, new) replacement in turn."""

    def damage(text):
        for old, new in pairs:
            text = text.replace(old, new)
        return text

    return damage


# Each damages a valid file with d = 1: (damage, words the error must name,
# the files it applies to).
MLP_FILES = ("mlp_model", "construction")
POLYNOMIAL_PSI = ("polynomial_psi_model",)
DAMAGED_FILES = {
    "header_only": (lambda text: text.splitlines()[0] + "\n", "object line", MLP_FILES),
    "unexpected_line": (lambda text: text.replace("\nend\n", "\nweights follow\nend\n"),
                        "unexpected line: 'weights follow'", MLP_FILES),
    "missing_end_line": (lambda text: text.removesuffix("end\n"), "missing end line", MLP_FILES),
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
    # The MLP phi reads tokens of width 1, and psi's widths agree with d = 2.
    "d_disagrees_with_an_mlp_phi": (
        _replacing(("field d int 1", "field d int 2"), ("field psi.widths str 3,", "field psi.widths str 4,")),
        "field d is 2, but phi reads 1", ("mlp_model",)),
    # An MLP part's weight of another shape than its widths, refused when the part is built.
    "phi_W0_disagrees_with_its_widths": (lambda text: _repeat_first_row(text, "phi.W0"),
                                         "layer 0: weight (2, ", MLP_FILES),
    "psi_W0_disagrees_with_its_widths": (lambda text: _repeat_first_row(text, "psi.W0"),
                                         "layer 0: weight (4, 50) / bias (1, 50) vs widths 3->50",
                                         ("mlp_model",)),
    # The MLP phi reads tokens of width 1; the construction would feed it width 2.
    "phi_of_another_token_width": (lambda text: text.replace("field d int 1", "field d int 2"),
                                   "cannot rebuild construction", ("construction",)),
    # A degree basis of C(200, 100) - 1 degrees, past 64 bits.
    "degree_count_past_64_bits": (lambda text: text.replace("field d int 1\n", "field d int 100\n")
                                  .replace("field phi_n_max int 3", "field phi_n_max int 100")
                                  .replace("field n_max int 2", "field n_max int 100"),
                                  "degree count C(200,100)-1 exceeds 64-bit range",
                                  ("polynomial_psi_model", "monomial_construction")),
    # The ReLU's fmax would turn the NaN units to 0 and the forward stay finite.
    "nan_in_phi_W0": (lambda text: _nan_first_entry(text, "phi.W0"),
                      "layer 0: weight or bias holds non-finite entries", MLP_FILES),
    # Faults of the polynomial psi: the groups' rows are stacked into its
    # arrays, which PolynomialCombiner and the model refuse.
    "alpha_wider_than_d": (
        _replacing(("alpha 1 1\n0\n", "alpha 1 2\n0 0\n"), ("alpha 1 1\n1\n", "alpha 1 2\n1 0\n")),
        "x and latent exponents are 2 and 3 wide, need d = 1 and d' = 3", POLYNOMIAL_PSI),
    "exps_narrower_than_d_latent": (
        _replacing(("exps 2 3\n2 0 0\n0 1 0\n", "exps 2 2\n2 0\n0 1\n"),
                   ("exps 1 3\n0 0 0\n", "exps 1 2\n0 0\n")),
        "x and latent exponents are 1 and 2 wide", POLYNOMIAL_PSI),
    "one_group_wider_than_the_other": (
        _replacing(("alpha 1 1\n0\n", "alpha 1 2\n0 0\n")),
        "the psi.term<t> groups' matrices differ in width", POLYNOMIAL_PSI),
    "negative_exponent": (
        _replacing(("exps 2 3\n2 0 0\n", "exps 2 3\n-2 0 0\n")),
        "latent_exponents must hold integers >= 0", POLYNOMIAL_PSI),
    "coeffs_wider_than_psi_out_width": (
        _replacing(("coeffs 2 1\n0.5\n-0.5\n", "coeffs 2 2\n0.5 0.0\n-0.5 0.0\n"),
                   ("coeffs 1 1\n1.0\n", "coeffs 1 2\n1.0 0.0\n")),
        "field psi_out_width is 1, but the coeffs are 2 wide", POLYNOMIAL_PSI),
    "psi_terms_short_of_the_groups": (
        _replacing(("field psi_terms int 2", "field psi_terms int 1")),
        "field psi_terms is 1, but the file holds 2 psi.term groups", POLYNOMIAL_PSI),
    "psi_terms_zero_over_two_groups": (
        _replacing(("field psi_terms int 2", "field psi_terms int 0")),
        "field psi_terms is 0, but the file holds 2 psi.term groups", POLYNOMIAL_PSI),
    "imatrix_entry_past_64_bits": (
        _replacing(("alpha 1 1\n1\n", "alpha 1 1\n99999999999999999999\n")),
        "malformed line: 'imatrix psi.term1.alpha 1 1'", POLYNOMIAL_PSI),
    # A header that alone would size a 800 GB matrix.
    "row_narrower_than_its_header": (lambda text: text.replace("imatrix psi.term0.alpha 1 1\n",
                                                               "imatrix psi.term0.alpha 1 99999999999\n"),
                                     "row 0 has 1 values, want 99999999999", POLYNOMIAL_PSI),
}


@pytest.mark.parametrize("case", list(DAMAGED_FILES))
def test_damaged_files_raise_config_error_naming_the_fault(case):
    from sumformer.mlp import MlpSpec, init_mlp_params

    damage, named, applies_to = DAMAGED_FILES[case]
    basis = enumerate_multidegrees(1, 2)
    spec = MlpSpec((1, 5, basis.size))
    con = build_sum_extraction("standard", 3, 1,
                               phi=MlpFeatureMap(spec, init_mlp_params(spec, np.random.default_rng(0))))
    files = {
        "mlp_model": (load_model, dump_model(build_mlp_sumformer(1, 2, seed=0))),
        "construction": (load_construction, dump_construction(con)),
        "monomial_construction": (load_construction,
                                  dump_construction(build_sum_extraction("standard", 3, 1, basis))),
        "polynomial_psi_model": (load_model, dump_model(_continuous_model())),
    }
    for load, text in (files[name] for name in applies_to):
        assert damage(text) != text
        with pytest.raises(ConfigError) as exc_info:
            load(damage(text))
        message = str(exc_info.value)
        assert named in message and "\n" not in message, (load.__name__, message)


@pytest.mark.parametrize("d, n_max", [(2, 99_999_999), (1_000_000, 1_000_000)])
def test_a_degree_basis_out_of_reach_is_refused_at_once(d, n_max):
    """About 5e15 degrees at d = 2 would take hours to list, and the binomial
    C(2e6, 1e6) alone takes 30 s; both files are refused within a second."""
    files = [(load_model, dump_model(build_polynomial_sumformer(3, 2, seed=0)), "phi_n_max"),
             (load_construction, dump_construction(
                 build_sum_extraction("standard", 3, 2, enumerate_multidegrees(2, 3))), "n_max")]
    for load, text, order in files:
        damaged = text.replace("field d int 2\n", f"field d int {d}\n").replace(
            f"field {order} int 3\n", f"field {order} int {n_max}\n")
        assert f"field d int {d}\n" in damaged and f"field {order} int {n_max}\n" in damaged
        start = time.perf_counter()
        with pytest.raises(ConfigError, match=f"degree count C\\({n_max + d},{d}\\)-1") as exc_info:
            load(damaged)
        assert time.perf_counter() - start < 1.0
        assert "\n" not in str(exc_info.value)


# Construction files whose weights no machine holds: the variant built at
# n = 3, d = 1, n_max = 3, its build arguments, and the fields the damage
# sets.  E alone would take 6.94 EiB, the feature draw 28.4 PiB, and one
# m x m weight (m = 353,704) 932 GiB.
WEIGHTS_BEYOND_MEMORY = {
    "linformer_n_1e9_k_1e9-1": ("linformer", {"k": 2}, {"n": 10**9, "k": 10**9 - 1}),
    "performer_n_1e16_k_1e15": ("performer", {"k": 2, "seed": 0}, {"n": 10**16, "k": 10**15}),
    "standard_d_3_n_max_100": ("standard", {}, {"d": 3, "n_max": 100}),
}


@pytest.mark.parametrize("variant, kwargs, damage", WEIGHTS_BEYOND_MEMORY.values(),
                         ids=list(WEIGHTS_BEYOND_MEMORY))
def test_weights_beyond_the_memory_budget_are_refused_before_allocation(variant, kwargs, damage):
    """Building any of these would raise MemoryError at its first weight; the
    construction's memory guard refuses the file within a second instead."""
    text = dump_construction(build_sum_extraction(variant, 3, 1, enumerate_multidegrees(1, 3), **kwargs))
    for name, value in damage.items():
        old = next(line for line in text.splitlines() if line.startswith(f"field {name} int "))
        text = text.replace(old + "\n", f"field {name} int {value}\n")
    start = time.perf_counter()
    with pytest.raises(ConfigError, match=f"the {variant} construction's weights need about "
                                          "[0-9.e+]+ GiB, over the 2 GiB budget") as exc_info:
        load_construction(text)
    assert time.perf_counter() - start < 1.0
    assert "\n" not in str(exc_info.value)


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
