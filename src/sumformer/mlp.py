"""Token-wise multi-layer perceptrons: ReLU hidden layers, linear output."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Node, Tape
from .errors import ShapeError

MlpParams = list[tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths, input first and output last; hidden layers use ReLU."""

    layer_widths: tuple[int, ...]

    def __post_init__(self):
        if len(self.layer_widths) < 2:
            raise ShapeError("an MLP needs at least input and output widths")
        if any(w < 1 for w in self.layer_widths):
            raise ShapeError(f"widths must be positive, got {self.layer_widths}")

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
    if len(params) != spec.n_layers:
        raise ShapeError(f"expected {spec.n_layers} layers of params, got {len(params)}")
    for i, ((w, b), fi, fo) in enumerate(
        zip(params, spec.layer_widths, spec.layer_widths[1:])
    ):
        if w.shape != (fi, fo) or b.shape != (1, fo):
            raise ShapeError(f"layer {i}: weight {w.shape} / bias {b.shape} vs widths {fi}->{fo}")


def mlp_forward(
    spec: MlpSpec,
    params: MlpParams,
    x: np.ndarray,
    acts: list | None = None,
    outs: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Apply the network row-wise (each row of x is one token).  An (S, n, w)
    stack runs each sequence's n rows through the same matmuls as that
    sequence alone.

    With ``acts`` given, each layer's input is appended to it: what
    ``mlp_backward`` reads.  With ``outs`` given, layer i writes its output
    (x's rows by the layer's width) into ``outs[i]``, which must not share
    memory with that layer's input; without it each layer allocates one.
    """
    _check_params(spec, params)
    if x.ndim not in (2, 3) or x.shape[-1] != spec.in_width:
        raise ShapeError(f"input shape {x.shape} vs expected width {spec.in_width}")
    h = x
    last = spec.n_layers - 1
    for i, (w, b) in enumerate(params):
        if acts is not None:
            acts.append(h)
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
    acts: list,
    g: np.ndarray,
    grads: MlpParams,
    scratch: tuple[np.ndarray, np.ndarray, np.ndarray],
    input_grad: bool = True,
) -> np.ndarray | None:
    """Reverse of ``mlp_forward`` from the layer inputs it recorded.

    ``g`` is d(loss)/d(output).  Each layer's weight and bias gradients
    are written into the matching ``grads`` pair; the result is
    d(loss)/d(x), or None when ``input_grad`` is false.  The expressions
    are those of the tape's matmul, row-add and ReLU rules, so the
    gradients equal the tape's bitwise.  A ReLU was active exactly where
    the next layer's input is positive.

    ``scratch = (a, b, mask)`` holds two 1-D float64 arrays and a 1-D bool
    array, each at least as long as the largest layer input.  The layers'
    input gradients go in turn to the leading entries of ``a`` and ``b``
    (so ``g`` must not lie in ``a``), and each ReLU mask to those of
    ``mask``; the result is a view into ``a`` or ``b``.
    """
    a, b, mask = scratch
    for i in reversed(range(len(params))):
        h = acts[i]
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
    """(W, b) views into consecutive slices of a flat ``buffer``, shaped and
    ordered like the parameter lists in ``shaped_like``."""
    out: list[MlpParams] = []
    offset = 0
    for params in shaped_like:
        views = []
        for pair in params:
            view = []
            for a in pair:
                view.append(buffer[offset:offset + a.size].reshape(a.shape))
                offset += a.size
            views.append(tuple(view))
        out.append(views)
    return out


def mlp_taped(tape: Tape, spec: MlpSpec, param_nodes: list[tuple[Node, Node]], x: Node) -> Node:
    """Same forward as mlp_forward, recorded on a tape."""
    h = x
    last = spec.n_layers - 1
    for i, (w, b) in enumerate(param_nodes):
        h = tape.add_row(tape.matmul(h, w), b)
        if i != last:
            h = tape.relu(h)
    return h


def mlp_param_nodes(tape: Tape, params: MlpParams, prefix: str = "") -> list[tuple[Node, Node]]:
    return [
        (tape.parameter(w, f"{prefix}W{i}"), tape.parameter(b, f"{prefix}b{i}"))
        for i, (w, b) in enumerate(params)
    ]
