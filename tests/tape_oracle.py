"""Minimal reverse-mode differentiation over 2-D float64 arrays: the oracle
that the training step's hand-written backward is checked against.

Design notes:
- A ``Tape`` records nodes in creation order.  ``gradient`` walks that
  list backwards once, accumulating vector-Jacobian products into each
  parent.  Node order is fixed at record time, so accumulation order
  (and therefore the float result) is deterministic for a given program.
- Primitives cover exactly what the sumformer models need:
  matmul, elementwise add/sub, row-broadcast bias add, ReLU, column
  concatenation, fixed-size row-group sum/repeat, scalar scale, square
  and full mean.  No general broadcasting.
- Values are immutable once recorded; parameter updates happen outside
  the tape (the trainer owns them) and a fresh tape is built per step.
"""

from __future__ import annotations

import numpy as np

from sumformer.errors import ContractError, ShapeError
from sumformer.mlp import MlpParams, MlpSpec


class Node:
    """One recorded value plus the local backward rules that produced it."""

    __slots__ = ("value", "grad", "parents", "vjps", "is_param", "name")

    def __init__(self, value, parents=(), vjps=(), is_param=False, name=""):
        self.value = value
        self.grad = None
        self.parents = parents
        self.vjps = vjps
        self.is_param = is_param
        self.name = name

    def __repr__(self):
        kind = "param" if self.is_param else "node"
        return f"<{kind} {self.name or id(self)} shape={self.value.shape}>"


def _as2d(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"tape values must be 2-D, got shape {arr.shape}")
    return arr


class Tape:
    """Ordered record of primitive operations for one forward pass."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.parameters: list[Node] = []

    def _record(self, node: Node) -> Node:
        self.nodes.append(node)
        return node

    def parameter(self, value, name="") -> Node:
        node = self._record(Node(_as2d(value), is_param=True, name=name))
        self.parameters.append(node)
        return node

    def constant(self, value, name="") -> Node:
        return self._record(Node(_as2d(value), name=name))

    def matmul(self, a: Node, b: Node) -> Node:
        if a.value.shape[1] != b.value.shape[0]:
            raise ShapeError(
                f"matmul: {a.value.shape} @ {b.value.shape} mismatched inner dim"
            )
        out = a.value @ b.value
        return self._record(Node(
            out, (a, b),
            (lambda g: g @ b.value.T, lambda g: a.value.T @ g),
        ))

    def add(self, a: Node, b: Node) -> Node:
        if a.value.shape != b.value.shape:
            raise ShapeError(f"add: {a.value.shape} vs {b.value.shape}")
        return self._record(Node(
            a.value + b.value, (a, b), (lambda g: g, lambda g: g),
        ))

    def sub(self, a: Node, b: Node) -> Node:
        if a.value.shape != b.value.shape:
            raise ShapeError(f"sub: {a.value.shape} vs {b.value.shape}")
        return self._record(Node(
            a.value - b.value, (a, b), (lambda g: g, lambda g: -g),
        ))

    def add_row(self, a: Node, row: Node) -> Node:
        """Add a 1 x c row vector to every row of an r x c matrix."""
        if row.value.shape != (1, a.value.shape[1]):
            raise ShapeError(
                f"add_row: bias shape {row.value.shape} for matrix {a.value.shape}"
            )
        return self._record(Node(
            a.value + row.value, (a, row),
            (lambda g: g, lambda g: g.sum(axis=0, keepdims=True)),
        ))

    def relu(self, a: Node) -> Node:
        # Subgradient at exactly 0 is taken as 0 (mask uses strict >).
        mask = a.value > 0.0
        return self._record(Node(
            np.where(mask, a.value, 0.0), (a,), (lambda g: g * mask,),
        ))

    def concat_cols(self, a: Node, b: Node) -> Node:
        if a.value.shape[0] != b.value.shape[0]:
            raise ShapeError(f"concat_cols: {a.value.shape} vs {b.value.shape}")
        ca = a.value.shape[1]
        return self._record(Node(
            np.hstack([a.value, b.value]), (a, b),
            (lambda g: g[:, :ca], lambda g: g[:, ca:]),
        ))

    def group_sum(self, a: Node, group_rows: int) -> Node:
        """Sum consecutive blocks of ``group_rows`` rows into one row each."""
        r, c = a.value.shape
        if group_rows < 1 or r % group_rows != 0:
            raise ShapeError(f"group_sum: {r} rows not divisible into {group_rows}")
        out = a.value.reshape(r // group_rows, group_rows, c).sum(axis=1)
        return self._record(Node(
            out, (a,), (lambda g: np.repeat(g, group_rows, axis=0),),
        ))

    def repeat_rows(self, a: Node, times: int) -> Node:
        """Repeat each row ``times`` times (inverse layout of group_sum)."""
        r, c = a.value.shape
        return self._record(Node(
            np.repeat(a.value, times, axis=0), (a,),
            (lambda g: g.reshape(r, times, c).sum(axis=1),),
        ))

    def scale(self, a: Node, factor: float) -> Node:
        return self._record(Node(
            a.value * factor, (a,), (lambda g: g * factor,),
        ))

    def square(self, a: Node) -> Node:
        return self._record(Node(
            a.value * a.value, (a,), (lambda g: g * (2.0 * a.value),),
        ))

    def mean(self, a: Node) -> Node:
        """Mean over all entries, returned as a 1 x 1 node."""
        size = a.value.size
        out = np.array([[a.value.mean()]])
        return self._record(Node(
            out, (a,),
            (lambda g: np.full(a.value.shape, g[0, 0] / size),),
        ))


def gradient(tape: Tape, loss: Node) -> dict[Node, np.ndarray]:
    """Reverse-accumulate d(loss)/d(p) for every parameter p on the tape.

    Unused parameters get a zero gradient of matching shape.
    """
    if loss.value.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.value.shape}")
    for node in tape.nodes:
        node.grad = None
    loss.grad = np.ones_like(loss.value)
    for node in reversed(tape.nodes):
        if node.grad is None:
            continue
        for parent, vjp in zip(node.parents, node.vjps):
            # Aliasing the upstream grad is safe: grads are never mutated
            # in place, accumulation always allocates a fresh array.
            contribution = vjp(node.grad)
            parent.grad = contribution if parent.grad is None else parent.grad + contribution
    return {
        p: (p.grad if p.grad is not None else np.zeros_like(p.value))
        for p in tape.parameters
    }


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
