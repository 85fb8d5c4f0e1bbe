"""The sum-aggregation sequence model and its exact constructions.

A model computes Sigma = sum_k phi(x_k) once per sequence and then maps
each token through psi(x_i, Sigma).  phi is the exact monomial feature
map over a degree basis, a trainable MLP or the one-hot of each token's
grid cell; psi is a trainable MLP, fixed polynomial arithmetic (the exact
continuous construction) or a table keyed by (own cell, histogram of the
other tokens' cells) over the cell one-hot (the piecewise-constant
realization).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import combinations_with_replacement, product
from typing import Callable, Union

import numpy as np

from .errors import BudgetError, DomainError, ShapeError
from .linalg import BUILD_BUDGET, require_finite, require_rows, require_size
from .mlp import MlpParams, MlpSpec, _check_params, init_mlp_params, mlp_forward
from .multisym import DegreeBasis, _canonical_row_order, enumerate_multidegrees, monomial_feature_matrix

DEFAULT_HIDDEN = (50, 50, 50, 50, 50)


# ---------------------------------------------------------------------------
# phi / psi variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolynomialFeatureMap:
    """Exact monomial features over a degree basis (no trainable state)."""

    basis: DegreeBasis

    @property
    def d(self) -> int:
        return self.basis.d

    @property
    def out_width(self) -> int:
        return self.basis.size

    def rows(self, x: np.ndarray, outs: list | None = None) -> np.ndarray:
        """Features of each token of rows or of a stack; ``outs`` is unused."""
        return monomial_feature_matrix(x, self.basis)


@dataclass
class MlpPart:
    """A trainable MLP phi or psi: its layer widths and its parameters,
    checked against each other when built (a ShapeError if they disagree)."""

    spec: MlpSpec
    params: MlpParams

    def __post_init__(self):
        _check_params(self.spec, self.params)

    @property
    def out_width(self) -> int:
        return self.spec.out_width


class MlpFeatureMap(MlpPart):
    @property
    def d(self) -> int:
        return self.spec.in_width

    def rows(self, x: np.ndarray, outs: list | None = None) -> np.ndarray:
        return mlp_forward(self.spec, self.params, x, outs)


@dataclass(frozen=True)
class CellFeatureMap:
    """The one-hot, of width delta^d, of each token's grid cell.  Cell c of
    an axis is [c/delta, (c+1)/delta) with the float edges c/delta, so each
    anchor c/delta lies in its own cell at every delta; the flat cell index
    reads the per-axis cells as base-delta digits, the first axis leading."""

    delta_cells: int
    d: int

    def __post_init__(self):
        require_size("delta_cells", self.delta_cells)
        require_size("d", self.d)

    @property
    def out_width(self) -> int:
        return self.delta_cells**self.d

    @cached_property
    def edges(self) -> np.ndarray:
        return np.arange(self.delta_cells + 1) / self.delta_cells

    def cells(self, x: np.ndarray) -> np.ndarray:
        """The cell of each token along each axis, of x's shape."""
        require_rows(x, "tokens", self.d)
        inside = (0.0 <= x) & (x < 1.0)  # False for NaN
        if not inside.all():
            raise DomainError(f"token entry {float(x[~inside][0])} outside [0,1)")
        return np.searchsorted(self.edges, x, side="right") - 1

    def rows(self, x: np.ndarray, outs: list | None = None) -> np.ndarray:
        flat = self.cells(x) @ self.delta_cells ** np.arange(self.d - 1, -1, -1)
        return (flat[..., np.newaxis] == np.arange(self.out_width)).astype(np.float64)


def _others(phi_rows: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Sigma - phi(x), the other tokens' features, of each token of rows or a stack."""
    per_seq = np.reshape(sigma, (-1, 1, phi_rows.shape[-1]))
    return (per_seq - phi_rows.reshape(per_seq.shape[0], -1, phi_rows.shape[-1])).reshape(phi_rows.shape)


def _exponents(name: str, rows: np.ndarray) -> np.ndarray:
    """``rows`` as int64: a ShapeError unless a 2-D ndarray, a DomainError unless
    integers >= 0 (an unsigned entry past int64 turns negative in the cast)."""
    if not isinstance(rows, np.ndarray) or rows.ndim != 2:
        raise ShapeError(f"{name} must be a 2-D array with one row per term")
    if rows.dtype.kind not in "iu" or np.any((rows := rows.astype(np.int64)) < 0):
        raise DomainError(f"{name} must hold integers >= 0")
    return rows


def _monomial(values: np.ndarray, exponents: np.ndarray) -> Callable[..., np.ndarray]:
    """The map from an exponent row e to prod_j values[..., j] ** e_j, first column
    first, from a table of the powers that ``exponents`` use.  Each power takes an
    exponent array, so a token gets its bits in any layout; a factor 1 is left out."""
    table, ones = {}, np.ones(values.shape[:-1])
    for j, column in enumerate(exponents.T):
        ks = np.unique(column[column > 0])
        table.update(zip([(j, k) for k in ks.tolist()], values[..., j] ** ks.reshape(-1, *[1] * ones.ndim)))
    return lambda row: reduce(np.multiply, [table[j, k] for j, k in enumerate(row) if k] or [ones])


@dataclass(eq=False)
class PolynomialCombiner:
    """psi(x, Sigma) = sum_t c_t * x^(a_t) * (Sigma - phi(x))^(e_t) over the rows t
    of ``x_exponents`` (T x d), ``latent_exponents`` (T x d') and ``coefficients``
    (T x out); by the generation property of power sums, the other tokens' power
    sums Sigma - phi(x) express any multisymmetric dependence on them.  Arrays not
    2-D with one row per term, exponents not integers >= 0 and coefficients not
    finite are refused here; the model checks the exponents' widths."""

    x_exponents: np.ndarray
    latent_exponents: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        self.x_exponents = _exponents("x_exponents", self.x_exponents)
        self.latent_exponents = _exponents("latent_exponents", self.latent_exponents)
        c = self.coefficients
        if not isinstance(c, np.ndarray) or c.ndim != 2 or not (
                len(self.x_exponents) == len(self.latent_exponents) == len(c)):
            raise ShapeError("x_exponents, latent_exponents and coefficients must be 2-D, one row per term")
        if c.dtype.kind not in "iuf" or not np.isfinite(c).all():
            raise DomainError("coefficients must be finite numbers")
        self.coefficients = c.astype(np.float64)

    @property
    def out_width(self) -> int:
        return self.coefficients.shape[1]

    def apply(self, x_rows: np.ndarray, phi_rows: np.ndarray, sigma: np.ndarray,
              outs: ForwardOuts | None = None) -> np.ndarray:
        """``sigma`` holds one Sigma per sequence, (S, d'), for tokens that
        are the rows of S sequences in turn or an (S, n, ·) stack (a single
        d'-vector is one sequence of all tokens); ``outs`` is unused, as nothing
        here is trained.  The terms add c_t * (x^(a_t) * (Sigma - phi(x))^(e_t))
        in row order, each distinct x^(a_t) made once, all by elementwise
        products; so each token's output is the one it gets alone."""
        x_monomial = cache(_monomial(x_rows, self.x_exponents))
        latent_monomial = _monomial(_others(phi_rows, sigma), self.latent_exponents)
        out = np.zeros((self.out_width, *x_rows.shape[:-1]))  # output column first: adds run over tokens
        terms = zip(map(tuple, self.x_exponents.tolist()), self.latent_exponents.tolist(),
                    self.coefficients.reshape(*self.coefficients.shape, *[1] * (x_rows.ndim - 1)))
        for a, e, c in terms:
            out += c * (x_monomial(a) * latent_monomial(e))
        return np.moveaxis(out, 0, -1).copy()


class MlpCombiner(MlpPart):
    def apply(self, x_rows: np.ndarray, phi_rows: np.ndarray, sigma: np.ndarray,
              outs: ForwardOuts | None = None) -> np.ndarray:
        """psi on each token beside its sequence's Sigma; the tokens and
        ``sigma`` are as for ``PolynomialCombiner.apply``.  With K stacked
        parameter sets, ``phi_rows`` and ``sigma`` lead with (K,) and so does
        the output.  The stacked input goes into ``outs.psi_in`` and the layer
        outputs into ``outs.psi`` when given."""
        d = x_rows.shape[-1]
        stacked = (np.empty((*phi_rows.shape[:-1], self.spec.in_width)) if outs is None
                   else outs.psi_in)
        stacked[..., :d] = x_rows
        stacked.reshape(*np.shape(sigma)[:-1], -1, self.spec.in_width)[..., d:] = \
            np.expand_dims(sigma, -2)
        return mlp_forward(self.spec, self.params, stacked, None if outs is None else outs.psi)


@dataclass(frozen=True)
class TableCombiner:
    """psi over a ``CellFeatureMap`` phi: a table keyed by (own flat cell, integer
    histogram Sigma - phi(x) of the other tokens' cells), built and read through
    ``keys`` alone, so a stored key and a looked-up key cannot disagree."""

    table: dict
    out_width: int

    def keys(self, phi_rows: np.ndarray, sigma: np.ndarray) -> list[tuple[int, tuple[int, ...]]]:
        """(own cell, histogram of the other tokens) of each token.  A histogram
        entry more than 1e-8 from an integer is never rounded to a key."""
        others = _others(phi_rows, sigma).reshape(-1, phi_rows.shape[-1])
        hists = np.rint(others)
        if not np.max(np.abs(others - hists), initial=0.0) <= 1e-8:  # NaN fails too
            raise DomainError("a cell histogram Sigma - phi(x) is more than 1e-8 from an integer")
        own = np.argmax(phi_rows.reshape(others.shape), axis=-1)
        return list(zip(own.tolist(), map(tuple, hists.astype(np.int64).tolist())))

    def apply(self, x_rows: np.ndarray, phi_rows: np.ndarray, sigma: np.ndarray,
              outs: ForwardOuts | None = None) -> np.ndarray:
        """The value under each token's key; ``outs`` is unused."""
        try:
            values = [self.table[key] for key in self.keys(phi_rows, sigma)]
        except KeyError as exc:
            raise ShapeError(f"no table entry for {exc.args[0]}: built for another token count") from None
        return np.array(values).reshape(*x_rows.shape[:-1], self.out_width)


Phi = Union[PolynomialFeatureMap, MlpFeatureMap, CellFeatureMap]
Psi = Union[PolynomialCombiner, MlpCombiner, TableCombiner]


@dataclass
class SumformerModel:
    phi: Phi
    psi: Psi

    @property
    def d(self) -> int:
        """The token width d: the width phi reads."""
        return self.phi.d

    @property
    def d_latent(self) -> int:
        """The latent width d', that of Sigma: phi's output width."""
        return self.phi.out_width

    def __post_init__(self):
        if isinstance(self.psi, MlpCombiner) and self.psi.spec.in_width != self.d + self.d_latent:
            raise ShapeError(
                f"psi expects width {self.psi.spec.in_width}, need {self.d + self.d_latent}"
            )
        if isinstance(self.psi, PolynomialCombiner):
            widths = (self.psi.x_exponents.shape[1], self.psi.latent_exponents.shape[1])
            if widths != (self.d, self.d_latent):
                raise ShapeError(f"psi's x and latent exponents are {widths[0]} and {widths[1]} wide, "
                                 f"need d = {self.d} and d' = {self.d_latent}")

    def trainable_params(self) -> list[MlpParams]:
        """Parameter lists of the MLP parts, in a fixed order (phi first)."""
        return [part.params for part in (self.phi, self.psi) if isinstance(part, MlpPart)]


@dataclass
class ForwardOuts:
    """Arrays that one ``batch_forward`` over S sequences of n tokens writes
    into instead of allocating: each MLP layer's output has S*n rows."""

    phi: list[np.ndarray]  # phi's layer outputs (unused for a polynomial phi)
    sigma: np.ndarray      # (S, d'), one Sigma per sequence
    psi_in: np.ndarray     # (S*n, d + d'), each token beside its Sigma
    psi: list[np.ndarray]  # psi's layer outputs

    def layer_inputs(self, seqs: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Each MLP layer's input, of phi and of psi, after a ``batch_forward``
        of ``seqs`` into these arrays (each ReLU runs in place)."""
        return [seqs.reshape(-1, seqs.shape[-1]), *self.phi[:-1]], [self.psi_in, *self.psi[:-1]]


def _forward(
    model: SumformerModel,
    tokens: np.ndarray,
    s_count: int,
    outs: ForwardOuts | None = None,
) -> np.ndarray:
    """phi on every token, Sigma summed per sequence, psi on every token
    beside its sequence's Sigma; the output has the tokens' layout.

    ``tokens`` are S = ``s_count`` sequences of n tokens, either as their
    (S*n, d) rows, which each MLP layer multiplies in one gemm, or as the
    (S, n, d) stack, which it multiplies in one gemm per sequence.  MLP
    parameters with a leading (K,) axis evaluate K models on the rows at
    once, one gemm per model, and lead the output with (K,).
    """
    phi_out = model.phi.rows(tokens, None if outs is None else outs.phi)
    stack = phi_out.shape[:phi_out.ndim - tokens.ndim]  # (K,) for K parameter sets
    sigma = np.sum(phi_out.reshape(*stack, s_count, -1, model.d_latent), axis=-2,
                   out=None if outs is None else outs.sigma)
    return model.psi.apply(tokens, phi_out, sigma, outs)


def batch_forward(
    model: SumformerModel,
    seqs: np.ndarray,
    outs: ForwardOuts | None = None,
) -> np.ndarray:
    """Forward over a stack of sequences (S, n, d) -> (S, n, out_width).

    phi and psi run on all S*n token rows at once, one gemm per layer.
    MLP parameters with a leading (K,) axis give (K, S, n, out_width), slice
    k bitwise the output of parameter set k alone.
    With ``outs`` every array the forward makes is written there instead
    of being allocated.  Those arrays are then the MLP layer inputs that the
    training step's backward reads, so the recorded losses and the
    evaluation metrics come from this one forward.
    """
    if require_rows(seqs, "seqs", model.d).ndim == 2:
        raise ShapeError(f"seqs must be an (S, n, {model.d}) stack, got shape {seqs.shape}")
    s_count, n, d = seqs.shape
    out = _forward(model, seqs.reshape(s_count * n, d), s_count, outs)
    return out.reshape(*out.shape[:-2], s_count, n, -1)


def sumformer_forward(model: SumformerModel, x: np.ndarray) -> np.ndarray:
    """Compute Sigma once per sequence, then apply psi token-wise, for one
    (n, d) sequence or an (S, n, d) stack.

    The tokens of each sequence are evaluated in canonical (lexicographic)
    order and the output rows scattered back, so permuting the input rows
    permutes the output bitwise.  A stack runs each MLP layer as one gemm
    per sequence, so each of its sequences gets bitwise the output it gets
    alone.
    """
    require_finite(require_rows(x, "X", model.d), "X")
    order = _canonical_row_order(x)[..., np.newaxis]
    s_count = 1 if x.ndim == 2 else x.shape[0]
    canonical = _forward(model, np.take_along_axis(x, order, axis=-2), s_count)
    out = np.empty_like(canonical)
    np.put_along_axis(out, order, canonical, axis=-2)
    return out


def mlp_sumformer_specs(
    d: int, d_latent: int, hidden: tuple[int, ...] = DEFAULT_HIDDEN
) -> tuple[MlpSpec, MlpSpec]:
    """The phi and psi layer widths of ``build_mlp_sumformer``."""
    return MlpSpec((d, *hidden, d_latent)), MlpSpec((d + d_latent, *hidden, d))


def build_mlp_sumformer(
    d: int,
    d_latent: int,
    seed: int = 0,
    hidden: tuple[int, ...] = DEFAULT_HIDDEN,
) -> SumformerModel:
    """Both phi and psi are MLPs (the fully trainable realization)."""
    rng = np.random.default_rng(require_size("seed", seed, 0))
    phi_spec, psi_spec = mlp_sumformer_specs(d, d_latent, hidden)
    return SumformerModel(
        phi=MlpFeatureMap(phi_spec, init_mlp_params(phi_spec, rng)),
        psi=MlpCombiner(psi_spec, init_mlp_params(psi_spec, rng)),
    )


def build_polynomial_sumformer(
    n: int,
    d: int,
    seed: int = 0,
    hidden: tuple[int, ...] = DEFAULT_HIDDEN,
) -> SumformerModel:
    """Exact monomial phi (frozen) with a trainable MLP psi."""
    basis = enumerate_multidegrees(d, n)
    rng = np.random.default_rng(require_size("seed", seed, 0))
    psi_spec = MlpSpec((d + basis.size, *hidden, d))
    return SumformerModel(
        phi=PolynomialFeatureMap(basis),
        psi=MlpCombiner(psi_spec, init_mlp_params(psi_spec, rng)),
    )


def build_continuous_sumformer(
    n: int,
    d: int,
    x_exponents: np.ndarray,
    latent_exponents: np.ndarray,
    coefficients: np.ndarray,
) -> SumformerModel:
    """Fully fixed model: the monomial phi over ``enumerate_multidegrees(d, n)``
    and the polynomial psi of the given term rows, as wide as the coefficients."""
    return SumformerModel(
        phi=PolynomialFeatureMap(enumerate_multidegrees(d, n)),
        psi=PolynomialCombiner(x_exponents, latent_exponents, coefficients),
    )


def build_discrete_sumformer(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    delta_cells: int,
    n: int,
    d: int,
) -> SumformerModel:
    """Cell one-hot phi; psi tabulates g at the anchor rows c/delta of each own
    cell beside each multiset of the others, keyed by ``TableCombiner.keys``.
    A table whose keys times histogram length exceed ``linalg.BUILD_BUDGET``
    is a BudgetError."""
    delta_cells, n, d = require_size("delta_cells", delta_cells), require_size("n", n), require_size("d", d)
    # Up to delta^(n d) keys, each holding a delta^d-long histogram.
    if delta_cells ** ((n + 1) * d) > BUILD_BUDGET:
        raise BudgetError(
            f"table of {delta_cells}^{n * d} keys with {delta_cells}^{d}-long histograms "
            f"exceeds the budget of {BUILD_BUDGET}"
        )
    phi, psi = CellFeatureMap(delta_cells, d), TableCombiner({}, d)
    anchors = np.array(list(product(range(delta_cells), repeat=d))) / delta_cells
    anchor_rows = phi.rows(anchors)
    rests = np.array(list(combinations_with_replacement(range(len(anchors)), n - 1)), dtype=np.intp)
    # Each rest's integer histogram over the cells phi puts its anchors in.
    flat = np.arange(len(rests))[:, np.newaxis] * phi.out_width + anchor_rows.argmax(axis=-1)[rests]
    hists = np.bincount(flat.ravel(), minlength=len(rests) * phi.out_width).reshape(len(rests), -1)
    rest_rows = anchors[rests]  # (rests, n - 1, d)
    for own, own_row in enumerate(anchor_rows):
        keys = psi.keys(np.broadcast_to(own_row, hists.shape), hists + own_row)
        for rest, key in zip(rest_rows, keys):
            value = np.asarray(g(anchors[own], rest), dtype=np.float64).reshape(-1)
            if value.shape[0] != d:
                raise ShapeError(f"g returned {value.shape[0]} components, want {d}")
            psi.table[key] = value
    return SumformerModel(phi, psi)
