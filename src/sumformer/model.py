"""The sum-aggregation sequence model and its exact constructions.

A model computes Sigma = sum_k phi(x_k) once per sequence and then maps
each token through psi(x_i, Sigma).  phi is either the exact monomial
feature map over a degree basis or a trainable MLP; psi is either a
trainable MLP or fixed polynomial arithmetic (used by the exact
continuous construction).  A separate piecewise-constant realization
quantizes tokens to a grid and looks up outputs from a table keyed by
(own cell, histogram of the other cells).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import Callable, Union

import numpy as np

from .errors import BudgetError, DomainError, ShapeError
from .mlp import MlpParams, MlpSpec, init_mlp_params, mlp_forward
from .multisym import (
    DegreeBasis,
    MultiDegree,
    _canonical_row_order,
    enumerate_multidegrees,
    monomial_feature_matrix,
)

DEFAULT_HIDDEN = (50, 50, 50, 50, 50)


# ---------------------------------------------------------------------------
# phi / psi variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolynomialFeatureMap:
    """Exact monomial features over a degree basis (no trainable state)."""

    basis: DegreeBasis

    @property
    def out_width(self) -> int:
        return self.basis.size

    def rows(self, x: np.ndarray, acts: list | None = None, outs: list | None = None) -> np.ndarray:
        """Features of each token of rows or of a stack; ``acts`` and ``outs``
        are unused, as nothing here is trained."""
        return monomial_feature_matrix(x, self.basis)


@dataclass
class MlpFeatureMap:
    spec: MlpSpec
    params: MlpParams

    @property
    def out_width(self) -> int:
        return self.spec.out_width

    def rows(self, x: np.ndarray, acts: list | None = None, outs: list | None = None) -> np.ndarray:
        return mlp_forward(self.spec, self.params, x, acts, outs)


@dataclass(frozen=True)
class LatentPolynomial:
    """Vector-valued polynomial in the d' latent coordinates.

    ``terms`` pairs a coefficient vector (length = model output dim) with
    an exponent tuple over the latent coordinates; the value at s is
    sum_t coeff_t * prod_j s_j^(e_t_j).  ``s`` is one d'-vector or any
    array of them along its last axis; each gets the value it gets alone.
    """

    terms: tuple[tuple[np.ndarray, tuple[int, ...]], ...]

    def __call__(self, s: np.ndarray) -> np.ndarray:
        if not self.terms:
            raise ShapeError("empty latent polynomial")
        first = self.terms[0][0]
        out = np.zeros_like(first, shape=(*np.shape(s)[:-1], *np.shape(first)))
        for coeff, exps in self.terms:
            out = out + coeff * np.prod(s ** np.asarray(exps), axis=-1)[..., np.newaxis]
        return out


@dataclass(frozen=True)
class PolynomialCombiner:
    """psi(x, Sigma) = sum_alpha x^alpha * sigma_alpha(Sigma - phi(x)).

    Subtracting the token's own features from Sigma hands each
    sigma_alpha the power sums of the *other* tokens, which by the
    generation property of power sums suffices to express any
    multisymmetric dependence on them.
    """

    terms: tuple[tuple[MultiDegree, LatentPolynomial], ...]
    out_width: int

    def apply(
        self,
        x_rows: np.ndarray,
        phi_rows: np.ndarray,
        sigma: np.ndarray,
        acts: list | None = None,
        outs: ForwardOuts | None = None,
    ) -> np.ndarray:
        """``sigma`` holds one Sigma per sequence, (S, d'), for tokens that
        are the rows of S sequences in turn or an (S, n, ·) stack (a single
        d'-vector is one sequence of all tokens); ``acts`` and ``outs`` are
        unused, as nothing here is trained.  Each token's output is the one
        it gets alone."""
        per_seq = np.reshape(sigma, (-1, 1, phi_rows.shape[-1]))
        others = per_seq - phi_rows.reshape(per_seq.shape[0], -1, phi_rows.shape[-1])
        others = others.reshape(phi_rows.shape)
        out = np.zeros((*x_rows.shape[:-1], self.out_width))
        for alpha, latent_poly in self.terms:
            mono = np.prod(x_rows ** np.asarray(alpha), axis=-1)
            out += mono[..., np.newaxis] * latent_poly(others)
        return out


@dataclass
class MlpCombiner:
    spec: MlpSpec
    params: MlpParams

    @property
    def out_width(self) -> int:
        return self.spec.out_width

    def apply(
        self,
        x_rows: np.ndarray,
        phi_rows: np.ndarray,
        sigma: np.ndarray,
        acts: list | None = None,
        outs: ForwardOuts | None = None,
    ) -> np.ndarray:
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
        return mlp_forward(self.spec, self.params, stacked, acts, None if outs is None else outs.psi)


Phi = Union[PolynomialFeatureMap, MlpFeatureMap]
Psi = Union[PolynomialCombiner, MlpCombiner]


@dataclass
class SumformerModel:
    d: int
    d_latent: int
    phi: Phi
    psi: Psi

    def __post_init__(self):
        if self.phi.out_width != self.d_latent:
            raise ShapeError(
                f"phi outputs {self.phi.out_width}, model declares d_latent={self.d_latent}"
            )
        if isinstance(self.psi, MlpCombiner) and self.psi.spec.in_width != self.d + self.d_latent:
            raise ShapeError(
                f"psi expects width {self.psi.spec.in_width}, need {self.d + self.d_latent}"
            )

    def trainable_params(self) -> list[MlpParams]:
        """Parameter lists of the MLP parts, in a fixed order (phi first)."""
        out = []
        if isinstance(self.phi, MlpFeatureMap):
            out.append(self.phi.params)
        if isinstance(self.psi, MlpCombiner):
            out.append(self.psi.params)
        return out


@dataclass
class ForwardOuts:
    """Arrays that one ``batch_forward`` over S sequences of n tokens writes
    into instead of allocating: each MLP layer's output has S*n rows."""

    phi: list[np.ndarray]  # phi's layer outputs (unused for a polynomial phi)
    sigma: np.ndarray      # (S, d'), one Sigma per sequence
    psi_in: np.ndarray     # (S*n, d + d'), each token beside its Sigma
    psi: list[np.ndarray]  # psi's layer outputs


def _forward(
    model: SumformerModel,
    tokens: np.ndarray,
    s_count: int,
    acts: tuple[list, list] | None = None,
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
    phi_acts, psi_acts = acts if acts is not None else (None, None)
    phi_out = model.phi.rows(tokens, phi_acts, None if outs is None else outs.phi)
    stack = phi_out.shape[:phi_out.ndim - tokens.ndim]  # (K,) for K parameter sets
    sigma = np.sum(phi_out.reshape(*stack, s_count, -1, model.d_latent), axis=-2,
                   out=None if outs is None else outs.sigma)
    return model.psi.apply(tokens, phi_out, sigma, psi_acts, outs)


def batch_forward(
    model: SumformerModel,
    seqs: np.ndarray,
    acts: tuple[list, list] | None = None,
    outs: ForwardOuts | None = None,
) -> np.ndarray:
    """Forward over a stack of sequences (S, n, d) -> (S, n, out_width).

    phi and psi run on all S*n token rows at once, one gemm per layer.
    MLP parameters with a leading (K,) axis give (K, S, n, out_width), slice
    k bitwise the output of parameter set k alone.
    With ``acts = (phi_acts, psi_acts)`` the MLP layer inputs are recorded
    for the training step's backward, so the recorded losses and the
    evaluation metrics come from this one forward.  With ``outs`` every
    array the forward makes is written there instead of being allocated.
    """
    s_count, n, d = seqs.shape
    out = _forward(model, seqs.reshape(s_count * n, d), s_count, acts, outs)
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
    if x.ndim not in (2, 3) or x.shape[-1] != model.d:
        raise ShapeError(f"input shape {x.shape}, model expects n x {model.d} or S x n x {model.d}")
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
    rng = np.random.default_rng(seed)
    phi_spec, psi_spec = mlp_sumformer_specs(d, d_latent, hidden)
    return SumformerModel(
        d=d,
        d_latent=d_latent,
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
    rng = np.random.default_rng(seed)
    psi_spec = MlpSpec((d + basis.size, *hidden, d))
    return SumformerModel(
        d=d,
        d_latent=basis.size,
        phi=PolynomialFeatureMap(basis),
        psi=MlpCombiner(psi_spec, init_mlp_params(psi_spec, rng)),
    )


def build_continuous_sumformer(
    n: int,
    d: int,
    psi_terms: list[tuple[MultiDegree, LatentPolynomial]],
    out_width: int | None = None,
) -> SumformerModel:
    """Fully fixed model: monomial phi and polynomial psi given term by term."""
    basis = enumerate_multidegrees(d, n)
    for alpha, latent_poly in psi_terms:
        if len(alpha) != d:
            raise ShapeError(f"term exponent {alpha} has length {len(alpha)}, want {d}")
        for _, exps in latent_poly.terms:
            if len(exps) != basis.size:
                raise ShapeError(
                    f"latent exponent tuple has arity {len(exps)}, want {basis.size}"
                )
    if out_width is None:
        out_width = d
    return SumformerModel(
        d=d,
        d_latent=basis.size,
        phi=PolynomialFeatureMap(basis),
        psi=PolynomialCombiner(tuple(psi_terms), out_width),
    )


# ---------------------------------------------------------------------------
# Piecewise-constant realization on a grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteSumformer:
    """Table lookup over grid cells: quantize the own token, histogram the rest.

    The grid splits [0,1) into delta_cells half-open intervals per axis.
    Cell histograms are integer vectors (sums of one-hot cell encodings),
    so equality of keys is exact and the model is exactly equivariant.
    """

    delta_cells: int
    n: int
    d: int
    table: dict

    @property
    def cell_width(self) -> float:
        return 1.0 / self.delta_cells

    @property
    def num_cells(self) -> int:
        return self.delta_cells**self.d

    def quantize(self, token: np.ndarray) -> tuple[int, ...]:
        """Cell coordinate of one token; entries must lie in [0, 1)."""
        token = np.asarray(token, dtype=np.float64).reshape(-1)
        if np.any(token < 0.0) or np.any(token >= 1.0):
            raise DomainError(f"token {token} outside [0,1)")
        return tuple(np.floor(token * self.delta_cells).astype(int))

    def cell_index(self, cell: tuple[int, ...]) -> int:
        idx = 0
        for c in cell:
            idx = idx * self.delta_cells + c
        return idx

    def cell_one_hot(self, cell: tuple[int, ...]) -> np.ndarray:
        """Unit-vector encoding of one cell; summing these gives a histogram."""
        v = np.zeros(self.num_cells, dtype=np.int64)
        v[self.cell_index(cell)] = 1
        return v

    def anchor(self, cell: tuple[int, ...]) -> np.ndarray:
        """Lower-left corner of the cell's cube."""
        return np.asarray(cell, dtype=np.float64) * self.cell_width


def build_discrete_sumformer(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    delta_cells: int,
    n: int,
    d: int,
) -> DiscreteSumformer:
    """Tabulate g at all grid anchors, keyed by (own cell, histogram of rest)."""
    if delta_cells < 1 or n < 1 or d < 1:
        raise ShapeError("delta_cells, n, d must all be >= 1")
    # Up to delta^(n d) keys, each holding a delta^d-long histogram.
    if delta_cells ** ((n + 1) * d) > 10**6:
        raise BudgetError(
            f"table of {delta_cells}^{n * d} keys with {delta_cells}^{d}-long histograms "
            "exceeds the 1e6 budget"
        )
    ds = DiscreteSumformer(delta_cells=delta_cells, n=n, d=d, table={})
    cells = list(product(range(delta_cells), repeat=d))
    for own in cells:
        own_anchor = ds.anchor(own)
        for rest in combinations_with_replacement(cells, n - 1):
            hist = np.zeros(ds.num_cells, dtype=np.int64)
            for cell in rest:
                hist += ds.cell_one_hot(cell)
            rest_anchors = (
                np.vstack([ds.anchor(c) for c in rest]) if rest else np.zeros((0, d))
            )
            value = np.asarray(g(own_anchor, rest_anchors), dtype=np.float64).reshape(-1)
            if value.shape[0] != d:
                raise ShapeError(f"g returned {value.shape[0]} components, want {d}")
            ds.table[(own, tuple(hist))] = value
    return ds


def discrete_forward(ds: DiscreteSumformer, x: np.ndarray) -> np.ndarray:
    """Quantize, histogram, look up.  Exact on cells: any two inputs with the
    same quantized rows produce identical output."""
    if x.ndim != 2 or x.shape != (ds.n, ds.d):
        raise ShapeError(f"input shape {x.shape}, table built for {ds.n} x {ds.d}")
    cells = [ds.quantize(row) for row in x]
    total_hist = np.zeros(ds.num_cells, dtype=np.int64)
    one_hots = []
    for cell in cells:
        oh = ds.cell_one_hot(cell)
        one_hots.append(oh)
        total_hist += oh
    rows = []
    for cell, oh in zip(cells, one_hots):
        key = (cell, tuple(total_hist - oh))
        rows.append(ds.table[key])
    return np.vstack(rows)
