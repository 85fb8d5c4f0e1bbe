"""Versioned structured-text serialization.

Grammar (line oriented, whitespace separated):

    format sumformer/1
    object <kind>
    field <name> <int|float|str|bool|none> <value...>
    matrix <name> <rows> <cols>       # followed by rows lines of floats
    imatrix <name> <rows> <cols>      # followed by rows lines of ints
    end

Floats are written with repr(), which round-trips float64 exactly, so
dump/load is bitwise faithful.  One file holds one object; nested
structure is flattened into indexed names (e.g. ``psi.W0``, or the
``psi.term<t>`` groups of a polynomial psi's rows, see ``dump_model``).
"""

from __future__ import annotations

import numpy as np

from .attention import build_sum_extraction, draws_features
from .errors import BudgetError, ConfigError, ContractError, CountOverflowError, DomainError, ShapeError
from .mlp import MlpParams, MlpSpec
from .model import CellFeatureMap, MlpCombiner, MlpFeatureMap, PolynomialCombiner, SumformerModel, TableCombiner
from .multisym import DegreeBasis, enumerate_multidegrees

FORMAT_LINE = "format sumformer/1"


# ---------------------------------------------------------------------------
# Generic writer / reader
# ---------------------------------------------------------------------------

# A field's type tag and value text, by the value's type.
_FIELD_TEXT = {type(None): lambda v: ("none", "-"), bool: lambda v: ("bool", int(v)), int: lambda v: ("int", v),
               float: lambda v: ("float", repr(v)), str: lambda v: ("str", v)}


def _dump(kind: str, fields: dict, matrices: list[tuple[str, np.ndarray]]) -> str:
    lines = [FORMAT_LINE, f"object {kind}"]
    lines += ["field {} {} {}".format(name, *_FIELD_TEXT[type(value)](value)) for name, value in fields.items()]
    for name, mat in matrices:
        if mat.ndim != 2:
            raise ContractError(f"matrix {name} must be 2-D")
        integer = np.issubdtype(mat.dtype, np.integer)
        lines.append(f"{'imatrix' if integer else 'matrix'} {name} {mat.shape[0]} {mat.shape[1]}")
        lines += [" ".join(str(v) if integer else repr(float(v)) for v in row) for row in mat.tolist()]
    lines.append("end")
    return "\n".join(lines) + "\n"


class _Entries(dict):
    """The fields or the matrices of one file; asking for a missing one is
    a ConfigError that names it."""

    def __init__(self, what: str):
        super().__init__()
        self.what = what

    def __missing__(self, name):
        raise ConfigError(f"missing {self.what} {name!r}")


def _field(fields: dict, name: str, kind: type, low=None, choices=None, nullable=False):
    """The field ``name``, checked to be a ``kind`` (bool is not an int) of at
    least ``low`` and among ``choices``; ``nullable`` also admits none."""
    value = fields[name]
    if value is None and nullable:
        return value
    if type(value) is not kind or (low is not None and value < low) or (
        choices is not None and value not in choices
    ):
        want = " or ".join(choices) if choices else kind.__name__
        want += f" >= {low}" if low is not None else ""
        raise ConfigError(f"field {name} must be {want}{' or none' if nullable else ''}, got {value!r}")
    return value


_KEYWORDS = ("format", "object", "field", "matrix", "imatrix", "end")
# A field's value from its text, by its type; any other type is a str.
_FIELD_TYPES = {"none": lambda raw: None, "bool": lambda raw: bool(int(raw)), "int": int, "float": float}


def _load(text: str) -> tuple[str, dict, dict]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != FORMAT_LINE:
        raise ConfigError("missing or unsupported format header")
    if len(lines) < 2 or not lines[1].startswith("object "):
        raise ConfigError("missing object line")
    kind = lines[1].split(None, 1)[1]
    fields = _Entries("field")
    matrices = _Entries("matrix")
    i = 2
    while i < len(lines):
        parts = lines[i].split()
        try:
            if parts[0] == "end":
                break
            if parts[0] == "field":
                name, ftype = parts[1], parts[2]
                fields[name] = _FIELD_TYPES.get(ftype, str)(lines[i].split(None, 3)[3])
                i += 1
            elif parts[0] in ("matrix", "imatrix"):
                name, rows, cols = parts[1], int(parts[2]), int(parts[3])
                body = [ln.split() for ln in lines[i + 1:i + 1 + rows]]
                given = next((r for r, row in enumerate(body) if row[0] in _KEYWORDS), len(body))
                if given < rows:
                    raise ConfigError(f"matrix {name}: {rows} rows declared, {given} given")
                for r, row in enumerate(body):  # before allocating, so the header cannot size it alone
                    if len(row) != cols:
                        raise ConfigError(f"matrix {name}: row {r} has {len(row)} values, want {cols}")
                dtype = np.int64 if parts[0] == "imatrix" else np.float64
                matrices[name] = np.array([list(map(dtype, row)) for row in body], dtype).reshape(rows, cols)
                i += 1 + rows
            else:
                raise ConfigError(f"unexpected line: {lines[i]!r}")
        except ConfigError:
            raise
        except (ValueError, IndexError, OverflowError):  # OverflowError: an int past 64 bits
            raise ConfigError(f"malformed line: {lines[i]!r}") from None
    else:
        raise ConfigError("missing end line")
    return kind, fields, matrices


# ---------------------------------------------------------------------------
# Sum-extraction constructions
# ---------------------------------------------------------------------------

def _mlp_entries(prefix: str, spec: MlpSpec, params: MlpParams):
    fields = {f"{prefix}widths": ",".join(str(w) for w in spec.layer_widths)}
    return fields, [(f"{prefix}{kind}{i}", m) for i, pair in enumerate(params) for kind, m in zip("Wb", pair)]


def _mlp_from_entries(prefix: str, fields: dict, matrices: dict) -> tuple[MlpSpec, MlpParams]:
    text = _field(fields, f"{prefix}widths", str)
    try:
        widths = tuple(int(w) for w in text.split(","))
    except ValueError:
        raise ConfigError(f"field {prefix}widths must list integers, got {text!r}") from None
    spec = MlpSpec(widths)
    return spec, [(matrices[f"{prefix}W{i}"], matrices[f"{prefix}b{i}"]) for i in range(spec.n_layers)]


def dump_construction(con) -> str:
    """Write the build parameters, plus phi's weights when phi is an MLP and
    the random features when no seed can redraw them."""
    if not isinstance(con.phi, (MlpFeatureMap, DegreeBasis)):
        raise ContractError(f"cannot write a construction whose phi is a {type(con.phi).__name__}")
    mlp_phi = isinstance(con.phi, MlpFeatureMap)
    fields = {
        "variant": con.variant,
        "n": con.n,
        "d": con.d,
        **({} if mlp_phi else {"n_max": con.phi.n_max}),
        "k": con.k,
        "seed": con.seed,
        "lambda": con.lambda_value,
        "phi_kind": "mlp" if mlp_phi else "monomial",
    }
    mats = []
    if con.lambda_value is not None and con.seed is None:
        mats.append(("omegas", con.head.omegas))
    if mlp_phi:
        phi_fields, phi_mats = _mlp_entries("phi.", con.phi.spec, con.phi.params)
        fields.update(phi_fields)
        mats += phi_mats
    return _dump("sum_extraction", fields, mats)


def load_construction(text: str):
    """Rebuild a construction from its build parameters.

    Files that also hold the weight matrices load the same way; of those
    only the random-feature vectors of a file without a seed are read.  A
    seeded file's vectors are redrawn from its seed, so a stored Gram
    constant that the redraw does not reproduce is an error.  The seed of a
    variant that draws no features, and the n_max of an MLP phi, are
    ignored: earlier files may hold them.
    """
    kind, fields, mats = _load(text)
    if kind != "sum_extraction":
        raise ConfigError(f"expected sum_extraction, got {kind}")
    if "wv_scale" in fields:  # files from when the value scale was a choice; it is k
        _field(fields, "wv_scale", str, choices=("k",))
    phi_kind = _field(fields, "phi_kind", str, choices=("mlp", "monomial"))
    variant, d = _field(fields, "variant", str), _field(fields, "d", int, 1)
    seed = _field(fields, "seed", int, 0, nullable=True)
    try:
        phi = (MlpFeatureMap(*_mlp_from_entries("phi.", fields, mats)) if phi_kind == "mlp"
               else enumerate_multidegrees(d, _field(fields, "n_max", int, 1)))
        seed = seed if draws_features(variant) else None
        con = build_sum_extraction(
            variant, _field(fields, "n", int, 1), d, phi=phi, k=_field(fields, "k", int, 1, nullable=True),
            seed=seed, omegas=mats.get("omegas") if seed is None else None,
        )
    except (BudgetError, ContractError, CountOverflowError, DomainError, ShapeError) as exc:
        raise ConfigError(f"cannot rebuild construction: {exc}") from exc
    if con.lambda_value != _field(fields, "lambda", float, nullable=True):
        raise ConfigError(
            f"rebuilt gram constant {con.lambda_value!r} differs from stored {fields['lambda']!r}"
        )
    return con


# ---------------------------------------------------------------------------
# Sumformer models
# ---------------------------------------------------------------------------

def dump_model(model: SumformerModel) -> str:
    """A grid cell phi or a table psi has no file form.  A polynomial psi is
    one ``psi.term<t>`` group per run of consecutive rows that share an
    x-exponent: that exponent once (``alpha``), then the run's coefficients
    (``coeffs``) and latent exponents (``exps``)."""
    if isinstance(model.phi, CellFeatureMap) or isinstance(model.psi, TableCombiner):
        raise ContractError("cannot write a grid-table model; rebuild it with build_discrete_sumformer")
    fields: dict = {"d": model.d, "d_latent": model.d_latent}
    mats: list[tuple[str, np.ndarray]] = []
    if isinstance(model.phi, DegreeBasis):
        fields.update(phi_kind="polynomial", phi_n_max=model.phi.n_max)
    else:
        fields["phi_kind"] = "mlp"
        f, m = _mlp_entries("phi.", model.phi.spec, model.phi.params)
        fields.update(f)
        mats += m
    if isinstance(model.psi, MlpCombiner):
        fields["psi_kind"] = "mlp"
        f, m = _mlp_entries("psi.", model.psi.spec, model.psi.params)
        fields.update(f)
        mats += m
    else:
        psi = model.psi
        starts = np.flatnonzero(np.any(np.diff(psi.x_exponents, axis=0, prepend=-1) != 0, axis=1))
        fields.update(psi_kind="polynomial", psi_terms=len(starts), psi_out_width=psi.out_width)
        for t, (lo, hi) in enumerate(zip(starts, [*starts[1:], len(psi.x_exponents)])):
            mats += [(f"psi.term{t}.alpha", psi.x_exponents[lo:lo + 1]), (f"psi.term{t}.coeffs",
                     psi.coefficients[lo:hi]), (f"psi.term{t}.exps", psi.latent_exponents[lo:hi])]
    return _dump("sumformer_model", fields, mats)


def load_model(text: str) -> SumformerModel:
    """The model of a ``dump_model`` file; a damaged file, arrays that a
    part or the model refuses among them, is a one-line ConfigError."""
    kind, fields, mats = _load(text)
    if kind != "sumformer_model":
        raise ConfigError(f"expected sumformer_model, got {kind}")
    d = _field(fields, "d", int, 1)
    d_latent = _field(fields, "d_latent", int, 1)
    kinds = ("polynomial", "mlp")
    try:
        if _field(fields, "phi_kind", str, choices=kinds) == "polynomial":
            phi = enumerate_multidegrees(d, _field(fields, "phi_n_max", int, 1))
        else:
            phi = MlpFeatureMap(*_mlp_from_entries("phi.", fields, mats))
        if phi.d != d:  # the model reads d and d' from phi alone
            raise ConfigError(f"field d is {d}, but phi reads {phi.d}")
        if phi.out_width != d_latent:
            raise ConfigError(f"field d_latent is {d_latent}, but phi outputs {phi.out_width}")
        if _field(fields, "psi_kind", str, choices=kinds) == "mlp":
            psi = MlpCombiner(*_mlp_from_entries("psi.", fields, mats))
        else:
            psi = _polynomial_psi(fields, mats, d, d_latent)
        return SumformerModel(phi, psi)
    except (BudgetError, ContractError, CountOverflowError, DomainError, ShapeError) as exc:
        raise ConfigError(f"cannot rebuild model: {exc}") from exc


def _polynomial_psi(fields: dict, mats: dict, d: int, d_latent: int) -> PolynomialCombiner:
    """The psi.term<t> groups' rows stacked in group order, each group's one
    alpha row repeated for each of its rows; the psi and the model check them."""
    count, out_width = _field(fields, "psi_terms", int, 0), _field(fields, "psi_out_width", int, 1)
    if (found := len({name.split(".")[1] for name in mats if name.startswith("psi.term")})) != count:
        raise ConfigError(f"field psi_terms is {count}, but the file holds {found} psi.term groups")
    groups = [[mats[f"psi.term{t}.{part}"] for part in ("alpha", "exps", "coeffs")] for t in range(count)]
    for t, (a, e, c) in enumerate(groups):
        if len(a) != 1:
            raise ConfigError(f"matrix psi.term{t}.alpha must have 1 row, got {len(a)}")
        if len(e) != len(c):
            raise ConfigError(f"matrix psi.term{t}.exps has {len(e)} rows, psi.term{t}.coeffs {len(c)}")
        groups[t][0] = np.repeat(a, len(c), axis=0)
    try:
        stacked = ([np.concatenate(blocks) for blocks in zip(*groups)]
                   or [np.zeros((0, width), np.int64) for width in (d, d_latent, out_width)])
    except ValueError:
        raise ConfigError("the psi.term<t> groups' matrices differ in width") from None
    if (psi := PolynomialCombiner(*stacked)).out_width != out_width:
        raise ConfigError(f"field psi_out_width is {out_width}, but the coeffs are {psi.out_width} wide")
    return psi
