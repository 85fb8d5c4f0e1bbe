"""Attention heads (standard, low-rank projected, random-feature) and the
fixed-weight constructions that write the feature sum into dedicated
output columns.

The sum-extraction construction lifts each token x to
[1, x, phi(x), 0_{d'}] (model dim m = 1 + d + 2d'), runs one attention
head whose queries and keys read only the constant leading 1 (so the
attention averages uniformly over tokens), and whose value matrix routes
scaled phi-features into the trailing d' columns.  One linear token-wise
layer plus two residual connections then produce rows
[1, x_i, phi(x_i), Sigma] with Sigma = sum_i phi(x_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import parallel
from .errors import (
    ConditioningError,
    ContractError,
    DomainError,
    ShapeError,
    UnsupportedInspectionError,
)
from .linalg import require_finite, require_rows, require_size, require_within_budget
from .model import Phi, PolynomialFeatureMap
from .multisym import DegreeBasis
from .parallel import run_in_threads


class MacCounter:
    """Tally of multiply-accumulate operations, for complexity audits."""

    def __init__(self):
        self.total = 0

    def dots(self, count: int, length: int):
        self.total += count * length


def _mm(a: np.ndarray, b: np.ndarray, counter: MacCounter | None,
        out: np.ndarray | None = None) -> np.ndarray:
    """a @ b for matrices or (S, p, q) stacks, written into ``out`` when given;
    the counter counts every slice."""
    out = np.matmul(a, b, out=out)
    if counter is not None:
        counter.dots(out.size, a.shape[-1])
    return out


# Score floats per block of the softmax heads' forward: 2^17 floats (1 MiB)
# stay in a 2 MiB L2 cache from the score gemm to the value gemm.  A block is
# SCORE_FLOATS // (key count) query rows, 32 for the standard head at n = 4096,
# whatever the stack size, so each slice of a stack keeps its bits.
SCORE_FLOATS = 1 << 17

# Largest score bound c_i of a query row that the softmax heads' forward
# subtracts in place of the row max.  The row's largest exp is then at least
# e^(-2 SCORE_BOUND) ~ 1e-261, and 2^-53 of it is still a normal double, so
# the row sum keeps its full precision.
SCORE_BOUND = 300.0


class HeadSpec:
    """What a head variant knows about itself; each spec class is one entry of HEADS.

    The default forward is row-softmax attention softmax(Q K^T / sqrt(m)) V
    whose keys and values read the rows ``sources`` returns.  Every forward
    takes one n x m matrix or an (S, n, m) stack of sequences; each slice of
    a stack goes through the same matmuls as that sequence alone, so its
    output is bitwise the same.
    """

    k = None            # projection rank / feature count, for variants that have one
    needs_k = False     # the variant takes k
    k_below_n = False   # the variant refuses k >= n
    construction_any_n = False  # the construction is exact at every token count

    @staticmethod
    def extra_shapes(n: int, m: int, k: int | None) -> dict[str, tuple[int, int]]:
        """Name and shape of each matrix the variant holds besides W_Q, W_K, W_V."""
        return {}

    def __post_init__(self):
        """Every weight is a finite matrix, W_Q, W_K and W_V of one m x m shape:
        checked once, here; each forward checks the shapes that depend on n."""
        for field in fields(self):  # w_q first, so the others may read its shape
            w = require_rows(getattr(self, field.name), field.name)
            want = self.w_q.shape[:1] * 2 if field.name.startswith("w_") else w.shape[-2:]
            if w.shape != want:
                raise ShapeError(f"{field.name} must be a matrix of shape {want}, got {w.shape}")
            require_finite(w, field.name)

    @classmethod
    def require_k(cls, n: int, k) -> int | None:
        """k as an int for a variant that takes one; the others ignore it."""
        k = require_size("k", k) if cls.needs_k else None
        if cls.k_below_n and k >= n:
            raise ContractError(f"{cls.variant} needs 1 <= k < n={n}, got k={k}")
        return k

    @classmethod
    def construction(cls, n, d, d_latent, k=None, seed=None, omegas=None):
        """This variant's sum-extraction head (its k, if it has one, is the
        given k), its token-wise scale and its Gram constant lambda.  By
        default A = (1/n) 1_{n x n}, which scale n in the value matrix cancels."""
        return cls(*_construction_weights(d, d_latent, float(n))), 1.0, None

    def sources(self, x: np.ndarray, counter: MacCounter | None):
        """Rows the keys and the values are computed from."""
        return x, x

    def _queries_and_keys(self, x: np.ndarray, counter: MacCounter | None):
        """Q = X W_Q / sqrt(m), K = (key rows) W_K, each with one free column
        after its m, and the rows the values read."""
        _check_head_input(x, self)
        key_rows, value_rows = self.sources(x, counter)
        m = self.w_q.shape[0]
        q = _project(x, self.w_q, counter)
        q[..., :m] /= math.sqrt(m)
        return q, _project(key_rows, self.w_k, counter), value_rows

    def attention(self, x: np.ndarray) -> np.ndarray:
        """The row-stochastic matrix A: the forward's score blocks with only the
        ones column as the values, so each block writes E / (E 1) as A's rows."""
        q, k, _ = self._queries_and_keys(x, None)
        return _softmax(q, k, None, None)

    def forward(self, x: np.ndarray, counter: MacCounter | None = None) -> np.ndarray:
        """softmax(Q K^T / sqrt(m)) V through ``_softmax``, with V one column
        wider: its last column is 1, so the value gemm also gives the row sums."""
        q, k, value_rows = self._queries_and_keys(x, counter)
        with np.errstate(over="ignore", invalid="ignore"):  # V is checked
            v = _project(value_rows, self.w_v, counter)
        v[..., -1] = 1.0
        require_finite(v, "values")
        return require_finite(_softmax(q, k, v, counter), "head output")


@dataclass(frozen=True)
class StandardHeadSpec(HeadSpec):
    """softmax((X Wq)(X Wk)^T / sqrt(m)) X Wv with row-wise softmax."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray

    variant = "standard"

    @staticmethod
    def mac_count(n: int, m: int, k: int | None) -> int:
        # Q, K and V; the score and value gemms, one column wider; the row norms.
        return 3 * n * m * m + 2 * n * n * (m + 1) + 2 * n * m


@dataclass(frozen=True)
class LinformerHeadSpec(HeadSpec):
    """softmax((X Wq)(E X Wk)^T / sqrt(m)) F X Wv with k x n projections E, F."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    e: np.ndarray
    f: np.ndarray

    variant = "linformer"
    needs_k = True
    k_below_n = True

    @property
    def k(self) -> int:
        return self.e.shape[0]

    @staticmethod
    def extra_shapes(n, m, k):
        return {"e": (k, n), "f": (k, n)}

    @staticmethod
    def mac_count(n: int, m: int, k: int | None) -> int:
        # Q; E X, F X, K and V; the two gemms, one column wider; the row norms.
        return n * m * m + 2 * n * k * m + 2 * k * m * m + 2 * n * k * (m + 1) + (n + k) * m

    @classmethod
    def construction(cls, n, d, d_latent, k=None, seed=None, omegas=None):
        """E = (1/n) 1_{k x n} and F = (1/k) 1_{k x n}: the value rows the
        attention sees are already summed over all n tokens, so the
        cancelling scale is k, not n (which would overshoot by n/k)."""
        head = cls(*_construction_weights(d, d_latent, float(k)),
                   e=np.full((k, n), 1.0 / n), f=np.full((k, n), 1.0 / k))
        return head, 1.0, None

    def sources(self, x, counter):
        # (E X) W_k and (F X) W_v keep every intermediate at k or n rows; no
        # n x n matrix is ever formed.
        return _mm(self.e, x, counter), _mm(self.f, x, counter)


@dataclass(frozen=True)
class PerformerHeadSpec(HeadSpec):
    """a(X Wq) (a(X Wk)^T (X Wv)) with the positive random-feature map a."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    omegas: np.ndarray  # k x m, one feature vector per row

    variant = "performer"
    needs_k = True
    construction_any_n = True  # the head sums over the tokens instead of averaging

    @property
    def k(self) -> int:
        return self.omegas.shape[0]

    @staticmethod
    def extra_shapes(n, m, k):
        return {"omegas": (k, m)}

    @staticmethod
    def mac_count(n: int, m: int, k: int | None) -> int:
        return 3 * n * m * m + 2 * n * m + 4 * n * k * m

    @classmethod
    def construction(cls, n, d, d_latent, k=None, seed=None, omegas=None):
        """With fixed feature vectors the query/key Gram matrix is
        lambda * 1_{n x n}, lambda = (1/k) e^{-1} sum_j exp(2 w_{j,1}); scale
        n in the value matrix and 1/(lambda n) in the token-wise layer undo
        it.  The k x m feature vectors are ``omegas`` when given, else drawn
        from ``seed``."""
        m = 1 + d + 2 * d_latent
        if omegas is None:
            omegas = np.random.default_rng(seed).standard_normal((k, m))
        elif require_rows(omegas, "omegas").shape != (k, m):
            raise ShapeError(f"omegas must be a ({k}, {m}) array, got shape {omegas.shape}")
        # All query and key rows equal e_1, so the Gram value is analytic.
        lambda_value = float(np.exp(-1.0) * np.mean(np.exp(2.0 * omegas[:, 0])))
        if not (1e-300 < abs(lambda_value) < 1e300):
            raise ConditioningError(
                f"gram constant {lambda_value} out of safe range; resample omegas"
            )
        head = cls(*_construction_weights(d, d_latent, float(n)), omegas)
        return head, 1.0 / (lambda_value * n), lambda_value

    def attention(self, x):
        """The random-feature variant never materializes an attention matrix,
        so asking for one is an error rather than an approximation."""
        raise UnsupportedInspectionError(
            "random-feature attention has no softmax matrix to inspect"
        )

    def forward(self, x, counter=None):
        _check_head_input(x, self)
        with np.errstate(over="ignore", invalid="ignore"):  # features, V and output are checked
            q = _performer_features_rows(_mm(x, self.w_q, counter), self.omegas, counter)
            k = _performer_features_rows(_mm(x, self.w_k, counter), self.omegas, counter)
            v = require_finite(_mm(x, self.w_v, counter), "values")
            # Right-associated product: the k x m intermediate comes first.
            out = _mm(q, _mm(k.swapaxes(-1, -2), v, counter), counter)
        return require_finite(out, "head output")


HEADS: dict[str, type[HeadSpec]] = {
    head.variant: head for head in (StandardHeadSpec, LinformerHeadSpec, PerformerHeadSpec)
}


def head_class(variant: str) -> type[HeadSpec]:
    if variant not in HEADS:
        raise ContractError(f"unknown variant {variant!r}")
    return HEADS[variant]


def draws_features(variant: str) -> bool:
    """Whether the variant's construction draws random features: holds omegas, at any sizes."""
    return "omegas" in head_class(variant).extra_shapes(1, 1, 1)


def _check_head_input(x: np.ndarray, spec: HeadSpec):
    n, m = require_finite(require_rows(x, "X", spec.w_q.shape[0]), "X").shape[-2:]
    for name, shape in spec.extra_shapes(n, m, spec.k).items():
        if getattr(spec, name).shape != shape:
            raise ShapeError(f"{name} must be {shape}, got {getattr(spec, name).shape}")
    spec.require_k(n, spec.k)


def _project(rows: np.ndarray, w: np.ndarray, counter: MacCounter | None) -> np.ndarray:
    """rows @ w in the first columns of a new array one column wider."""
    out = np.empty((*rows.shape[:-1], w.shape[-1] + 1))
    _mm(rows, w, counter, out[..., :w.shape[-1]])
    return out


def _score_bounds(q: np.ndarray, k: np.ndarray, counter: MacCounter | None) -> np.ndarray:
    """c_i = |q_i| max_j |k_j| of each query row, per sequence: the
    Cauchy-Schwarz bound on |q_i . k_j|.  A non-finite entry, or a square
    beyond the float range, gives an infinite or NaN bound without a warning."""
    if counter is not None:
        counter.dots(q.size // q.shape[-1] + k.size // k.shape[-1], q.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        k_square = np.einsum("...ij,...ij->...i", k, k).max(axis=-1, keepdims=True)
        return np.sqrt(np.einsum("...ij,...ij->...i", q, q) * k_square)


def _softmax(q: np.ndarray, k: np.ndarray, v: np.ndarray | None, counter: MacCounter | None) -> np.ndarray:
    """Row-softmax attention of Q and K over V, SCORE_FLOATS // (key count)
    query rows at a time.  Q and K carry one free column after their m, set
    here to -c_i and 1, where c_i = |q_i| max_j |k_j| bounds row i's scores;
    V's last column is 1.  So the score gemm writes s_ij - c_i <= 0, its exp E
    is taken in place, and the value gemm gives [E V, E 1]: each output row is
    E V over the row sum E 1.  With V None the values are the ones column
    alone, and each row is E itself over E 1: the rows of A.  A row whose c_i
    is above SCORE_BOUND, or not finite, is shifted by its exact row max
    instead, after a finiteness check of its block.

    The blocks go to min(parallel.WORKERS, block count) threads, each a
    contiguous run of them in one score buffer of its own; the calling thread
    is worker 0.  One block is one gemm of the same shape at any worker count,
    so the output has the same bits."""
    m = q.shape[-1] - 1
    k[..., m] = 1.0
    bound = _score_bounds(q[..., :m], k[..., :m], counter)
    loose = ~(bound <= SCORE_BOUND)  # NaN bounds are loose too
    q[..., m] = np.where(loose, 0.0, -bound)
    n, key_count = q.shape[-2], k.shape[-2]
    out = np.empty((*q.shape[:-1], key_count if v is None else v.shape[-1] - 1))
    if v is None:
        v = np.ones((key_count, 1))
    step = max(1, min(n, SCORE_FLOATS // max(1, key_count)))
    starts = range(0, n, step)
    workers = min(parallel.WORKERS, len(starts))
    scores = np.empty((workers, *q.shape[:-2], step, key_count))
    products = np.empty((workers, *q.shape[:-2], step, v.shape[-1]))
    operands = q, k.swapaxes(-1, -2), v, loose if loose.any() else None, out
    tallies = [None if counter is None else MacCounter() for _ in range(workers)]
    run_in_threads(_softmax_blocks, [
        (starts[w * len(starts) // workers:(w + 1) * len(starts) // workers],
         *operands, scores[w], products[w], tallies[w])
        for w in range(workers)])
    if counter is not None:
        counter.total += sum(tally.total for tally in tallies)
    return out


def _softmax_blocks(starts, q, k_t, v, loose, out, scores, products, counter):
    """The output rows of the blocks that begin at ``starts``, in this thread's
    score and product buffers.  ``loose`` is None when no row is loose; an
    output as wide as V holds the rows of A."""
    n, step = q.shape[-2], scores.shape[-2]
    with np.errstate(over="ignore", invalid="ignore"):  # a loose block is checked
        for start in starts:
            rows, count = slice(start, start + step), min(step, n - start)
            block = _mm(q[..., rows, :], k_t, counter, scores[..., :count, :])
            if loose is not None and loose[..., rows].any():
                require_finite(block, "softmax input")
                np.subtract(block, block.max(axis=-1, keepdims=True), out=block,
                            where=loose[..., rows, np.newaxis])
            np.exp(block, out=block)
            product = _mm(block, v, counter, products[..., :count, :])
            numerator = product[..., :-1] if out.shape[-1] < v.shape[-1] else block
            np.divide(numerator, product[..., -1:], out=out[..., rows, :])


def _performer_features_rows(rows: np.ndarray, omegas: np.ndarray, counter: MacCounter | None) -> np.ndarray:
    """(1/sqrt(k)) exp(-|x|^2 / 2) [exp(w_1.x), ..., exp(w_k.x)] for every row x."""
    k = omegas.shape[0]
    if counter is not None:
        row_count = rows.size // rows.shape[-1]
        counter.dots(row_count, rows.shape[-1])        # squared norms
        counter.dots(row_count * k, rows.shape[-1])    # k projections per row
    norms = (rows * rows).sum(axis=-1, keepdims=True)
    features = rows @ omegas.T  # every later step is in place, with the same bits
    features -= 0.5 * norms
    np.exp(features, out=features)
    features /= math.sqrt(k)
    # Features are >= 0, so a row sum is 0 only when the whole row underflowed.
    # The sums are a matrix-vector product: a row-wise numpy reduction over
    # k = 16 columns takes ten times as long at n = 4096.
    if not (np.isfinite(features).all() and 0.0 < (features @ np.ones(k)).min()):
        raise DomainError("random features are non-finite or underflow to zero for a whole row")
    return features


def head_forward(x: np.ndarray, spec: HeadSpec, counter: MacCounter | None = None) -> np.ndarray:
    return spec.forward(x, counter)


def attention_matrix(x: np.ndarray, spec: HeadSpec) -> np.ndarray:
    """The row-stochastic matrix A (n x n standard, n x k projected)."""
    return spec.attention(x)


# ---------------------------------------------------------------------------
# Sum-extraction construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SumExtractionConstruction:
    """Fixed-weight network mapping raw X to rows [1, x_i, phi(x_i), Sigma]:
    X + (X + head(X)) @ w_fc on the lifted rows X."""

    n: int
    basis: DegreeBasis
    head: HeadSpec
    w_fc: np.ndarray  # m x m token-wise weight
    phi: Phi
    seed: int | None = None
    lambda_value: float | None = None

    @property
    def variant(self) -> str:
        return self.head.variant

    @property
    def d(self) -> int:
        return self.basis.d

    @property
    def k(self) -> int | None:
        return self.head.k

    @property
    def model_dim(self) -> int:
        return self.w_fc.shape[0]

    @property
    def d_latent(self) -> int:
        return self.phi.out_width

    def lift(self, x: np.ndarray) -> np.ndarray:
        """Token-wise lift of raw n x d input, or an (S, n, d) stack, to the
        1 + d + 2d' layout.  A head that averages takes only the built n."""
        if require_rows(x, "X", self.d).shape[-2] != self.n and not self.head.construction_any_n:
            raise ShapeError(f"the {self.variant} construction is built for n={self.n}, "
                             f"got {x.shape[-2]} tokens")
        rows = x.shape[:-1]
        return np.concatenate(
            [np.ones((*rows, 1)), x, self.phi.rows(x), np.zeros((*rows, self.d_latent))], axis=-1)

    def forward(self, x: np.ndarray, counter: MacCounter | None = None) -> np.ndarray:
        """Rows [1, x_i, phi(x_i), Sigma] of one sequence or of each sequence of
        a stack, bitwise as if each were given alone."""
        lifted = self.lift(x)
        out = lifted + _mm(lifted + self.head.forward(lifted, counter), self.w_fc, counter)
        return require_finite(out, "block output")


def _construction_weights(d: int, d_latent: int, scale: float) -> tuple[np.ndarray, ...]:
    """W_Q = W_K = e_1 e_1^T, so queries and keys read only the constant 1;
    W_V routes the phi-columns into the trailing d' columns, scaled."""
    m = 1 + d + 2 * d_latent
    w_q = np.zeros((m, m))
    w_q[0, 0] = 1.0
    w_v = np.zeros((m, m))
    w_v[1 + d:1 + d + d_latent, -d_latent:] = scale * np.eye(d_latent)
    return w_q, w_q.copy(), w_v


def construction_bytes(variant: str, n: int, m: int, k: int | None) -> int:
    """Bytes of a construction's weights: W_Q, W_K, W_V and the token-wise
    layer, each m x m, and the head's extra matrices."""
    extra = head_class(variant).extra_shapes(n, m, k).values()
    return 8 * (4 * m * m + sum(rows * cols for rows, cols in extra))


def build_sum_extraction(
    variant: str,
    n: int,
    d: int,
    basis: DegreeBasis,
    phi: Phi | None = None,
    k: int | None = None,
    seed: int | None = None,
    omegas: np.ndarray | None = None,
) -> SumExtractionConstruction:
    """Build the fixed-weight sum-extraction network for one head variant.

    The head's queries and keys depend only on the constant leading 1 of
    the lifted layout, so every attention weight is uniform.  The value
    matrix and the token-wise layer carry scales that exactly cancel the
    averaging; each variant's ``construction`` says which.  phi is the
    monomial map over ``basis`` unless given, and reads tokens of width d;
    d' is its output width.  Only a variant that draws random features
    takes ``seed`` or ``omegas``.  Weights past ``linalg.MEMORY_BUDGET_BYTES``
    are a BudgetError, raised before any is allocated.

    The token-wise layer selects the trailing d' columns of
    (X + head(X)); with the outer residual this leaves rows
    [1, x_i, phi(x_i), Sigma].
    """
    n, d = require_size("n", n), require_size("d", d)
    seed = None if seed is None else require_size("seed", seed, 0)
    if basis.d != d:
        raise ShapeError(f"basis built for d={basis.d}, construction wants d={d}")
    if phi is None:
        phi = PolynomialFeatureMap(basis)
    elif phi.d != d:
        raise ShapeError(f"phi reads tokens of width {phi.d}, construction wants d={d}")
    d_latent = phi.out_width
    m = 1 + d + 2 * d_latent
    head_type = head_class(variant)
    k = head_type.require_k(n, k)
    if k is not None and k >= n:  # both constructions are built for the low-rank case
        raise ContractError(f"the {variant} construction needs 1 <= k < n={n}, got k={k}")
    if (seed is not None or omegas is not None) and not draws_features(variant):
        raise ContractError(f"the {variant} construction takes no seed or omegas")
    require_within_budget(construction_bytes(variant, n, m, k), f"the {variant} construction's weights")
    head, fc_scale, lambda_value = head_type.construction(n, d, d_latent, k=k, seed=seed, omegas=omegas)
    w_fc = np.zeros((m, m))  # keeps only the trailing d' columns, scaled
    w_fc[-d_latent:, -d_latent:] = fc_scale * np.eye(d_latent)
    return SumExtractionConstruction(
        n=n, basis=basis, head=head, w_fc=w_fc, phi=phi, seed=seed, lambda_value=lambda_value,
    )


def mac_count(variant: str, n: int, d_model: int, k: int | None = None) -> int:
    """Exact multiply-accumulate count of one head forward pass.

    Mirrors the algorithms above: matmul p x q @ q x r costs p*q*r, a row
    norm one dot per row, and the random-feature map one squared norm plus k
    projections per row.
    A head the library refuses to run (k >= n for the low-rank variant)
    has no count, and neither has a size that is not an integer (numpy's
    are, a bool is not).  A variant that takes no k ignores it.
    """
    n, d_model = require_size("n", n), require_size("d_model", d_model)
    head = head_class(variant)
    return head.mac_count(n, d_model, head.require_k(n, k))


def audited_mac_count(variant: str, n: int, d_model: int, k: int | None = None, seed: int = 0) -> int:
    """Run the head on random data with a counter and report observed MACs."""
    head = head_class(variant)
    head.require_k(n, k)
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, d_model))
    w = [rng.uniform(-1, 1, size=(d_model, d_model)) for _ in range(3)]
    extras = {name: rng.uniform(size=shape) for name, shape in head.extra_shapes(n, d_model, k).items()}
    counter = MacCounter()
    head(*w, **extras).forward(x, counter)
    return counter.total
