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
structure is flattened into indexed names (e.g. ``psi.W0``).
"""

from __future__ import annotations

import numpy as np

from .attention import build_sum_extraction, draws_features
from .errors import BudgetError, ConfigError, ContractError, CountOverflowError, DomainError, ShapeError
from .mlp import MlpParams, MlpSpec
from .model import (
    CellFeatureMap,
    LatentPolynomial,
    MlpCombiner,
    MlpFeatureMap,
    PolynomialCombiner,
    PolynomialFeatureMap,
    SumformerModel,
    TableCombiner,
)
from .multisym import enumerate_multidegrees

FORMAT_LINE = "format sumformer/1"


# ---------------------------------------------------------------------------
# Generic writer / reader
# ---------------------------------------------------------------------------

def _dump(kind: str, fields: dict, matrices: list[tuple[str, np.ndarray]]) -> str:
    lines = [FORMAT_LINE, f"object {kind}"]
    for name, value in fields.items():
        if isinstance(value, np.integer):
            value = int(value)
        elif isinstance(value, np.floating):
            value = float(value)
        if value is None:
            lines.append(f"field {name} none -")
        elif isinstance(value, bool):
            lines.append(f"field {name} bool {int(value)}")
        elif isinstance(value, int):
            lines.append(f"field {name} int {value}")
        elif isinstance(value, float):
            lines.append(f"field {name} float {float(value)!r}")
        else:
            lines.append(f"field {name} str {value}")
    for name, mat in matrices:
        mat = np.asarray(mat)
        if mat.ndim != 2:
            raise ConfigError(f"matrix {name} must be 2-D")
        tag = "imatrix" if np.issubdtype(mat.dtype, np.integer) else "matrix"
        lines.append(f"{tag} {name} {mat.shape[0]} {mat.shape[1]}")
        for row in mat:
            if tag == "imatrix":
                lines.append(" ".join(str(int(v)) for v in row))
            else:
                lines.append(" ".join(repr(float(v)) for v in row))
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
                raw = lines[i].split(None, 3)[3]
                if ftype == "none":
                    fields[name] = None
                elif ftype == "bool":
                    fields[name] = bool(int(raw))
                elif ftype == "int":
                    fields[name] = int(raw)
                elif ftype == "float":
                    fields[name] = float(raw)
                else:
                    fields[name] = raw
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
                data = np.empty((rows, cols), dtype=dtype)
                for r, row in enumerate(body):
                    data[r] = [dtype(v) for v in row]
                matrices[name] = data
                i += 1 + rows
            else:
                raise ConfigError(f"unexpected line: {lines[i]!r}")
        except ConfigError:
            raise
        except (ValueError, IndexError):
            raise ConfigError(f"malformed line: {lines[i]!r}") from None
    else:
        raise ConfigError("missing end line")
    return kind, fields, matrices


# ---------------------------------------------------------------------------
# Sum-extraction constructions
# ---------------------------------------------------------------------------

def _mlp_entries(prefix: str, spec: MlpSpec, params: MlpParams):
    fields = {f"{prefix}widths": ",".join(str(w) for w in spec.layer_widths)}
    mats = []
    for i, (w, b) in enumerate(params):
        mats.append((f"{prefix}W{i}", w))
        mats.append((f"{prefix}b{i}", b))
    return fields, mats


def _mlp_from_entries(prefix: str, fields: dict, matrices: dict) -> tuple[MlpSpec, MlpParams]:
    text = _field(fields, f"{prefix}widths", str)
    try:
        widths = tuple(int(w) for w in text.split(","))
    except ValueError:
        raise ConfigError(f"field {prefix}widths must list integers, got {text!r}") from None
    spec = MlpSpec(widths)
    params = [
        (matrices[f"{prefix}W{i}"], matrices[f"{prefix}b{i}"])
        for i in range(spec.n_layers)
    ]
    return spec, params


def dump_construction(con) -> str:
    """Write the build parameters, plus phi's weights when phi is an MLP and
    the random features when no seed can redraw them."""
    if not isinstance(con.phi, (MlpFeatureMap, PolynomialFeatureMap)):
        raise ContractError(f"cannot write a construction whose phi is a {type(con.phi).__name__}")
    fields = {
        "variant": con.variant,
        "n": con.n,
        "d": con.d,
        "n_max": con.basis.n_max,
        "k": con.k,
        "seed": con.seed,
        "lambda": con.lambda_value,
        "phi_kind": "mlp" if isinstance(con.phi, MlpFeatureMap) else "monomial",
    }
    mats = []
    if con.lambda_value is not None and con.seed is None:
        mats.append(("omegas", con.head.omegas))
    if isinstance(con.phi, MlpFeatureMap):
        phi_fields, phi_mats = _mlp_entries("phi.", con.phi.spec, con.phi.params)
        fields.update(phi_fields)
        mats += phi_mats
    return _dump("sum_extraction", fields, mats)


def load_construction(text: str):
    """Rebuild a construction from its build parameters.

    Files that also hold the weight matrices load the same way; of those
    only the random-feature vectors are read.  Without them the vectors
    are redrawn from the seed, so a stored Gram constant that the redraw
    does not reproduce is an error.  The seed of a variant that draws no
    features is ignored: earlier files may hold one.
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
        phi = MlpFeatureMap(*_mlp_from_entries("phi.", fields, mats)) if phi_kind == "mlp" else None
        con = build_sum_extraction(
            variant, _field(fields, "n", int, 1), d,
            enumerate_multidegrees(d, _field(fields, "n_max", int, 1)),
            phi=phi, k=_field(fields, "k", int, 1, nullable=True),
            seed=seed if draws_features(variant) else None, omegas=mats.get("omegas"),
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
    """A grid cell phi or a table psi has no file form."""
    if isinstance(model.phi, CellFeatureMap) or isinstance(model.psi, TableCombiner):
        raise ContractError("cannot write a grid-table model; rebuild it with build_discrete_sumformer")
    fields: dict = {"d": model.d, "d_latent": model.d_latent}
    mats: list[tuple[str, np.ndarray]] = []
    if isinstance(model.phi, PolynomialFeatureMap):
        fields["phi_kind"] = "polynomial"
        fields["phi_n_max"] = model.phi.basis.n_max
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
        fields["psi_kind"] = "polynomial"
        fields["psi_terms"] = len(model.psi.terms)
        fields["psi_out_width"] = model.psi.out_width
        for t, (alpha, latent_poly) in enumerate(model.psi.terms):
            mats.append((f"psi.term{t}.alpha", np.array([alpha], dtype=np.int64)))
            coeffs = np.vstack([c for c, _ in latent_poly.terms])
            exps = np.array([e for _, e in latent_poly.terms], dtype=np.int64)
            mats.append((f"psi.term{t}.coeffs", coeffs))
            mats.append((f"psi.term{t}.exps", exps))
    return _dump("sumformer_model", fields, mats)


def load_model(text: str) -> SumformerModel:
    kind, fields, mats = _load(text)
    if kind != "sumformer_model":
        raise ConfigError(f"expected sumformer_model, got {kind}")
    d = _field(fields, "d", int, 1)
    d_latent = _field(fields, "d_latent", int, 1)
    kinds = ("polynomial", "mlp")
    try:
        if _field(fields, "phi_kind", str, choices=kinds) == "polynomial":
            phi = PolynomialFeatureMap(enumerate_multidegrees(d, _field(fields, "phi_n_max", int, 1)))
        else:
            phi = MlpFeatureMap(*_mlp_from_entries("phi.", fields, mats))
        if phi.out_width != d_latent:  # the model reads d' from phi alone
            raise ConfigError(f"field d_latent is {d_latent}, but phi outputs {phi.out_width}")
        if _field(fields, "psi_kind", str, choices=kinds) == "mlp":
            psi = MlpCombiner(*_mlp_from_entries("psi.", fields, mats))
        else:
            psi = _polynomial_psi(fields, mats)
        return SumformerModel(d=d, phi=phi, psi=psi)
    except (BudgetError, ContractError, CountOverflowError, ShapeError) as exc:
        raise ConfigError(f"cannot rebuild model: {exc}") from exc


def _polynomial_psi(fields: dict, mats: dict) -> PolynomialCombiner:
    terms = []
    for t in range(_field(fields, "psi_terms", int, 0)):
        name = f"psi.term{t}"
        alpha, coeffs, exps = (mats[f"{name}.{part}"] for part in ("alpha", "coeffs", "exps"))
        if alpha.shape[0] != 1:
            raise ConfigError(f"matrix {name}.alpha must have 1 row, got {alpha.shape[0]}")
        if exps.shape[0] != coeffs.shape[0]:
            raise ConfigError(
                f"matrix {name}.exps has {exps.shape[0]} rows, {name}.coeffs {coeffs.shape[0]}"
            )
        alpha = tuple(int(v) for v in alpha[0])
        latent_poly = LatentPolynomial(tuple(
            (coeffs[r], tuple(int(v) for v in exps[r])) for r in range(coeffs.shape[0])
        ))
        terms.append((alpha, latent_poly))
    return PolynomialCombiner(tuple(terms), _field(fields, "psi_out_width", int, 1))
