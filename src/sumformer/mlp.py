"""Token-wise multi-layer perceptrons: ReLU hidden layers, linear output."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .linalg import require_rows, require_size

MlpParams = list[tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths, input first and output last; hidden layers use ReLU."""

    layer_widths: tuple[int, ...]

    def __post_init__(self):
        if len(self.layer_widths) < 2:
            raise ShapeError("an MLP needs at least input and output widths")
        object.__setattr__(self, "layer_widths", tuple(require_size("layer width", w) for w in self.layer_widths))

    @property
    def in_width(self) -> int:
        return self.layer_widths[0]

    @property
    def out_width(self) -> int:
        return self.layer_widths[-1]

    @property
    def n_layers(self) -> int:
        return len(self.layer_widths) - 1


def init_mlp_params(spec: MlpSpec, rng: np.random.Generator) -> MlpParams:
    """Seeded uniform init in [-sqrt(1/fan_in), +sqrt(1/fan_in)] per layer."""
    params: MlpParams = []
    for fan_in, fan_out in zip(spec.layer_widths, spec.layer_widths[1:]):
        bound = np.sqrt(1.0 / fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        b = rng.uniform(-bound, bound, size=(1, fan_out))
        params.append((w, b))
    return params


def _check_params(spec: MlpSpec, params: MlpParams):
    """Each layer's weight ends in (fan_in, fan_out) and its bias in
    (1, fan_out); leading axes stack parameter sets."""
    if len(params) != spec.n_layers:
        raise ShapeError(f"expected {spec.n_layers} layers of params, got {len(params)}")
    for i, ((w, b), fi, fo) in enumerate(
        zip(params, spec.layer_widths, spec.layer_widths[1:])
    ):
        if w.shape[-2:] != (fi, fo) or b.shape[-2:] != (1, fo):
            raise ShapeError(f"layer {i}: weight {w.shape} / bias {b.shape} vs widths {fi}->{fo}")


def mlp_forward(
    spec: MlpSpec,
    params: MlpParams,
    x: np.ndarray,
    outs: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Apply the network row-wise (each row of x is one token).  An (S, n, w)
    stack runs each sequence's n rows through the same matmuls as that
    sequence alone.  Parameters with a leading (K,) axis are K parameter
    sets: the rows of x run through each set, one gemm per set and layer,
    into (K, rows, ·), and slice k is bitwise set k's output alone.

    With ``outs`` given, layer i writes its output (x's rows by the layer's
    width) into ``outs[i]``, which must not share memory with that layer's
    input; without it each layer allocates one.  The ReLU runs in place, so
    layer i's input is then x for i = 0 and ``outs[i-1]`` after that: the
    arrays ``mlp_backward`` reads.
    """
    _check_params(spec, params)
    h = require_rows(x, "x", spec.in_width)
    last = spec.n_layers - 1
    for i, (w, b) in enumerate(params):
        h = np.matmul(h, w, out=None if outs is None else outs[i])
        h += b
        if i != last:
            relu(h, out=h)
    return h


def relu(h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Bitwise ``np.where(h > 0.0, h, 0.0)``, which branches per entry.

    ``fmax`` maps negatives and NaN to 0.0 and adding 0.0 turns a -0.0
    into +0.0.  Only a signaling NaN would come out differently (quieted
    instead of zeroed), and no sum such as ``h @ w + b`` produces one.
    ``out`` may be ``h`` itself.
    """
    out = np.fmax(h, 0.0, out=out)
    out += 0.0
    return out


def leading(flat: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The first entries of the 1-D ``flat``, viewed as ``shape``."""
    return flat[:math.prod(shape)].reshape(shape)


def mlp_backward(
    params: MlpParams,
    inputs: list[np.ndarray],
    g: np.ndarray,
    grads: MlpParams,
    scratch: tuple[np.ndarray, np.ndarray, np.ndarray],
    input_grad: bool = True,
) -> np.ndarray | None:
    """Reverse of ``mlp_forward`` from its layer inputs ``inputs``.

    ``g`` is d(loss)/d(output).  Each layer's weight and bias gradients
    are written into the matching ``grads`` pair; the result is
    d(loss)/d(x), or None when ``input_grad`` is false.  The expressions
    are those of the matmul, row-add and ReLU rules of the reverse-mode
    tape in ``tests/tape_oracle.py``, so the gradients equal its bitwise.
    A ReLU was active exactly where the next layer's input is positive.

    ``scratch = (a, b, mask)`` holds two 1-D float64 arrays and a 1-D bool
    array, each at least as long as the largest layer input.  The layers'
    input gradients go in turn to the leading entries of ``a`` and ``b``
    (so ``g`` must not lie in ``a``), and each ReLU mask to those of
    ``mask``; the result is a view into ``a`` or ``b``.
    """
    a, b, mask = scratch
    for i in reversed(range(len(params))):
        h = inputs[i]
        gw, gb = grads[i]
        np.matmul(h.T, g, out=gw)
        g.sum(axis=0, keepdims=True, out=gb)
        if i == 0 and not input_grad:
            return None
        g = np.matmul(g, params[i][0].T, out=leading(a, h.shape))
        a, b = b, a
        if i != 0:
            np.multiply(g, np.greater(h, 0.0, out=leading(mask, h.shape)), out=g)
    return g


def param_views(buffer: np.ndarray, shaped_like: list[MlpParams]) -> list[MlpParams]:
    """(W, b) views into consecutive slices of the last axis of ``buffer``,
    shaped and ordered like the parameter lists in ``shaped_like``.  The
    leading axes of a stack of flat vectors lead each view."""
    out: list[MlpParams] = []
    offset = 0
    for params in shaped_like:
        views = []
        for pair in params:
            view = []
            for a in pair:
                view.append(buffer[..., offset:offset + a.size].reshape(*buffer.shape[:-1], *a.shape))
                offset += a.size
            views.append(tuple(view))
        out.append(views)
    return out
