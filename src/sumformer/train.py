"""Dataset generation, Adam training of sum-aggregation models, and sweeps.

Equivariant targets are sampled on uniform inputs in [0,1]^{n x d}.
Batches stack all token rows of the batch sequences into one matrix, so
the per-sequence feature sums reduce to fixed-size row-group sums.  A
training step is ``model.batch_forward`` into a work buffer, then one
hand-written backward through the fixed graph that reads its MLP layer
inputs from that buffer.  All trainable arrays live in one flat buffer, so
Adam updates a single vector.  Every array a step or a validation forward
writes is a view into one work buffer, allocated once per ``train`` call.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DivisionGuardError, ShapeError, TrainingDivergedError
from .linalg import require_finite, require_rows, require_size
from .mlp import MlpParams, leading, mlp_backward, param_views
from .model import (
    ForwardOuts,
    MlpCombiner,
    MlpFeatureMap,
    SumformerModel,
    batch_forward,
    build_mlp_sumformer,
    mlp_sumformer_specs,
)
from .model import batch_forward as step_forward
from .multisym import basis_size
from .targets import TargetFunction


# Adam's moment decays and the term that keeps its denominator off zero.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
SPLIT_FRACTION = 0.8  # the training share of generate_dataset's default, a train run and a sweep cell


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam settings; batch_size None means full-batch steps."""

    lr: float = 1e-3
    batch_size: int | None = 100


@dataclass
class Dataset:
    inputs: np.ndarray   # (count, n, d)
    targets: np.ndarray  # (count, n, d), exactly f(inputs) at generation time
    train_idx: np.ndarray
    val_idx: np.ndarray

    @property
    def n(self) -> int:
        return self.inputs.shape[1]

    @property
    def d(self) -> int:
        return self.inputs.shape[2]


def generate_dataset(
    target: TargetFunction,
    n: int,
    d: int,
    count: int,
    split_fraction: float = SPLIT_FRACTION,
    seed: int = 0,
) -> Dataset:
    """Uniform inputs, exact targets, deterministic split (first rows train)."""
    n, d, count = require_size("n", n), require_size("d", d), require_size("count", count, 2)
    seed = require_size("seed", seed, 0)
    if not (0.0 < split_fraction < 1.0):
        raise ContractError("split_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(size=(count, n, d))
    targets = target.lifted()(inputs)
    n_train = split_sizes(count, split_fraction)[0]
    return Dataset(
        inputs=inputs,
        targets=targets,
        train_idx=np.arange(n_train),
        val_idx=np.arange(n_train, count),
    )


def split_sizes(count: int, split_fraction: float) -> tuple[int, int]:
    """Training and validation sequence counts of ``generate_dataset``."""
    n_train = min(max(int(count * split_fraction), 1), count - 1)
    return n_train, count - n_train


def relative_l2_error(pred: np.ndarray, truth: np.ndarray) -> float:
    """||pred - truth||_2 / ||truth||_2 over all entries of two matrices or
    stacks of one shape; any other pair is a ShapeError."""
    require_rows(pred, "pred")
    require_rows(truth, "truth")
    if pred.shape != truth.shape:
        raise ShapeError(f"pred has shape {pred.shape}, truth {truth.shape}")
    p, t = pred.reshape(-1), truth.reshape(-1)
    denom = float(np.linalg.norm(t))
    if denom == 0.0:
        raise DivisionGuardError("reference set has zero norm")
    return float(np.linalg.norm(p - t)) / denom


class Adam:
    """Per-array first/second moment state with bias correction, at
    learning rate ``lr`` and the moment decays BETA1 and BETA2.

    A step writes every intermediate into two work arrays per parameter
    array, allocated here, so it allocates nothing of the parameters' size.
    """

    def __init__(self, arrays: list[np.ndarray], lr: float):
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.work = [(np.empty_like(a), np.empty_like(a)) for a in arrays]

    def step(self, arrays: list[np.ndarray], grads: list[np.ndarray]):
        self.t += 1
        b1t = 1.0 - BETA1**self.t
        b2t = 1.0 - BETA2**self.t
        for a, g, m, v, (num, den) in zip(arrays, grads, self.m, self.v, self.work):
            m *= BETA1
            m += np.multiply(1.0 - BETA1, g, out=num)
            v *= BETA2
            v += np.multiply(1.0 - BETA2, np.multiply(g, g, out=num), out=num)
            if self.lr != 0.0:
                # a -= lr * (m / b1t) / (sqrt(v / b2t) + eps)
                np.multiply(self.lr, np.divide(m, b1t, out=num), out=num)
                np.sqrt(np.divide(v, b2t, out=den), out=den)
                den += EPS
                a -= np.divide(num, den, out=num)


def trainable_arrays(model: SumformerModel) -> list[np.ndarray]:
    """Flat list of parameter arrays in a fixed order (phi layers, then psi)."""
    arrays: list[np.ndarray] = []
    for params in model.trainable_params():
        for w, b in params:
            arrays.extend([w, b])
    return arrays


@dataclass
class TrainReport:
    """Validation curve (every 5 epochs) and per-epoch train losses."""

    val_errors: list[tuple[int, float]] = field(default_factory=list)
    train_losses: list[float] = field(default_factory=list)
    best_validation_error: float = math.inf


VALIDATION_EVERY = 5


def flatten_params(model: SumformerModel) -> np.ndarray:
    """Move every trainable array into one float64 buffer and return it.

    The model's (W, b) pairs are replaced by views into the buffer, so an
    update of the buffer is an update of the model.
    """
    params = model.trainable_params()
    flat = np.concatenate([a.ravel() for a in trainable_arrays(model)], dtype=np.float64)
    for held, views in zip(params, param_views(flat, params)):
        held[:] = views
    return flat


# The layer widths of phi (empty for a polynomial phi) and of psi.
Widths = tuple[tuple[int, ...], tuple[int, ...]]


def _layout(widths: Widths, seqs: int, n: int, step: bool) -> dict[str, list[tuple[int, ...]]]:
    """Shapes of the arrays that one step (``step``) or one validation
    forward over ``seqs`` sequences of n tokens writes, by role, in buffer
    order.

    A step keeps every layer's output, as its backward reads them, plus two
    1-D slots for the backward's layer gradients; a validation forward
    alternates its layers between two 1-D slots.
    """
    phi, psi = widths
    rows = seqs * n
    d_latent = psi[0] - psi[-1]
    shapes = {"sigma": [(seqs, d_latent)], "psi_in": [(rows, psi[0])]}
    if step:
        shapes["phi"] = [(rows, w) for w in phi[1:]]
        shapes["psi"] = [(rows, w) for w in psi[1:]]
        shapes["g_sigma"] = [(seqs, d_latent)]
        shapes["grad"] = [(rows * max(phi[:-1] + psi[:-1]),)] * 2
    else:
        shapes["slots"] = [(rows * max(phi[1:] + psi[1:]),)] * 2
    return shapes


def work_buffer_sizes(widths: Widths, n: int, batch_seqs: int, val_seqs: int) -> tuple[int, int]:
    """Entries of the float64 work buffer and of the bool ReLU-mask buffer for
    steps of up to ``batch_seqs`` sequences and validation over ``val_seqs``."""
    step = _layout(widths, batch_seqs, n, step=True)
    validation = _layout(widths, val_seqs, n, step=False)
    floats = max(
        sum(math.prod(shape) for shapes in layout.values() for shape in shapes)
        for layout in (step, validation)
    )
    return floats, step["grad"][0][0]


class WorkBuffer:
    """The arrays a training step and a validation forward write, as views
    into one float64 buffer and one bool buffer (the ReLU masks), both
    allocated here.

    Every layout is cut from the start of the buffer, once per sequence
    count, so a smaller last minibatch and the validation forward reuse
    the memory of the full minibatch.
    """

    def __init__(self, model: SumformerModel, n: int, batch_seqs: int, val_seqs: int = 0):
        self.mlp_phi = isinstance(model.phi, MlpFeatureMap)
        phi = model.phi.spec.layer_widths if self.mlp_phi else ()
        self.widths, self.n = (phi, model.psi.spec.layer_widths), n
        self.batch_seqs, self.val_seqs = batch_seqs, val_seqs
        floats, bools = work_buffer_sizes(self.widths, n, batch_seqs, val_seqs)
        self.flat = np.empty(floats)
        self.mask = np.empty(bools, dtype=bool)
        self._views: dict = {}

    def views(self, seqs: int, step: bool) -> tuple[ForwardOuts, dict[str, list[np.ndarray]]]:
        """The forward's outputs, and every view by role, for one step
        (``step``) or one validation forward over ``seqs`` sequences."""
        if (seqs, step) not in self._views:
            limit = self.batch_seqs if step else self.val_seqs
            if seqs > limit:
                raise ContractError(f"work buffer holds {limit} sequences, got {seqs}")
            cut, offset = {}, 0
            for role, shapes in _layout(self.widths, seqs, self.n, step).items():
                cut[role] = []
                for shape in shapes:
                    cut[role].append(leading(self.flat[offset:], shape))
                    offset += math.prod(shape)
            if not step:  # layer i of either MLP writes into slot i % 2
                rows = seqs * self.n
                for role, widths in zip(("phi", "psi"), self.widths):
                    cut[role] = [leading(cut["slots"][i % 2], (rows, w))
                                 for i, w in enumerate(widths[1:])]
            outs = ForwardOuts(cut["phi"], cut["sigma"][0], cut["psi_in"][0], cut["psi"])
            self._views[seqs, step] = outs, cut
        return self._views[seqs, step]


def training_bytes(
    n: int,
    d: int,
    d_latent: int,
    points: int,
    split_fraction: float,
    batch_size: int | None,
) -> int:
    """Bytes that ``train`` of ``build_mlp_sumformer(d, d_latent)`` on
    ``generate_dataset(..., n, d, points, split_fraction)`` holds at once.

    That is the dataset's inputs and targets, the copy of their validation
    split, the work buffer and mask buffer of ``WorkBuffer``,
    and six arrays the size of the parameters: the parameters, their
    gradient, Adam's two moments and its two work arrays.  The epoch count
    costs time, not memory, so it does not enter.
    """
    phi, psi = (spec.layer_widths for spec in mlp_sumformer_specs(d, d_latent))
    n_train, n_val = split_sizes(points, split_fraction)
    batch = n_train if batch_size is None else min(batch_size, n_train)
    floats, bools = work_buffer_sizes((phi, psi), n, batch, n_val)
    params = sum((fan_in + 1) * fan_out for w in (phi, psi) for fan_in, fan_out in zip(w, w[1:]))
    return 8 * (2 * (points + n_val) * n * d + floats + 6 * params) + bools


def loss_and_gradient(
    model: SumformerModel,
    x_seqs: np.ndarray,
    y_seqs: np.ndarray,
    grads: list[MlpParams],
    work: WorkBuffer,
) -> float:
    """MSE over a batch of sequences, and its gradient written into ``grads``.

    ``grads`` is shaped like ``model.trainable_params()``.  The forward is
    ``batch_forward`` into ``work``; the backward, which reads the MLP layer
    inputs there, runs MSE, psi, the repeat and per-sequence sum of Sigma
    and phi in reverse, with the expressions of the reverse-mode tape in
    ``tests/tape_oracle.py``, so loss and gradients equal its bitwise.  No
    gradient is formed for the inputs or targets.  A loss that is not
    finite is returned with ``grads`` left untouched.  Every intermediate
    is a view into ``work``, which must be built for ``model`` and hold
    batches of at least S sequences.

    The forward is called by the name ``step_forward``, so the name
    ``train.batch_forward`` is the validation forward's alone: perfbench's
    ``train.batch_forward`` span, which wraps that name, then times
    validation only, and ``verify``'s gradient check, which calls this step
    outside ``train()``, opens no training span.
    """
    s_count, n, d = x_seqs.shape
    outs, cut = work.views(s_count, step=True)
    grad_a, grad_b = cut["grad"]
    scratch = (grad_a, grad_b, work.mask)
    pred = step_forward(model, x_seqs, outs)
    phi_inputs, psi_inputs = outs.layer_inputs(x_seqs)
    diff = np.subtract(pred, y_seqs, out=pred).reshape(s_count * n, -1)
    loss = float(np.multiply(diff, diff, out=leading(grad_a, diff.shape)).mean())
    if not math.isfinite(loss):
        return loss
    # The tape's (1/size) * (2 diff), in b: mlp_backward writes into a first.
    g = np.multiply(2.0, diff, out=leading(grad_b, diff.shape))
    g *= 1.0 / diff.size
    g = mlp_backward(model.psi.params, psi_inputs, g, grads[-1], scratch, input_grad=work.mlp_phi)
    if work.mlp_phi:
        g_sigma = np.sum(g[:, d:].reshape(s_count, n, model.d_latent), axis=1,
                         out=cut["g_sigma"][0])
        # g is not read again, so the repeat may overwrite it; b, as above.
        repeated = leading(grad_b, (s_count, n, model.d_latent))
        repeated[...] = g_sigma[:, np.newaxis]
        mlp_backward(model.phi.params, phi_inputs, repeated.reshape(s_count * n, -1), grads[0],
                     scratch, input_grad=False)
    return loss


def train(
    model: SumformerModel,
    data: Dataset,
    epochs: int,
    config: OptimizerConfig | None = None,
    seed: int = 0,
) -> TrainReport:
    """Minimize MSE with Adam; record validation relative-L2 every 5 epochs.

    Raises TrainingDivergedError (carrying the report so far), and no numpy
    overflow warning, if the loss leaves the finite range; an lr that is not
    a finite number is a ContractError, and a psi that does not output d
    columns a ShapeError.
    """
    epochs, seed = require_size("epochs", epochs, 0), require_size("seed", seed, 0)
    if config is None:
        config = OptimizerConfig()
    batch_size = None if config.batch_size is None else require_size("batch_size", config.batch_size)
    lr = config.lr  # the largest float bounds abs(lr): that rejects nan, inf and ints past it
    if (isinstance(lr, bool) or not isinstance(lr, (int, float, np.integer, np.floating))
            or not abs(lr) <= sys.float_info.max):
        raise ContractError(f"lr must be a finite number, got {lr!r}")
    if not isinstance(model.psi, MlpCombiner):
        raise ContractError("training needs an MLP psi")
    if model.psi.out_width != model.d:  # the work buffer sizes Sigma as psi's input less its output
        raise ShapeError(f"training fits {model.d} outputs per token, but psi outputs {model.psi.out_width}")
    for name in ("inputs", "targets"):  # checked once, here: relu would zero a NaN token
        a = require_rows(getattr(data, name), f"dataset {name}", model.d)
        if a.ndim == 2 or a.shape != data.inputs.shape or a.dtype.kind != "f":
            raise ShapeError(f"dataset {name} must be a float (count, n, {model.d}) stack of the "
                             f"inputs' shape, got {a.dtype} {a.shape}")
        require_finite(a, f"dataset {name}")
    flat = flatten_params(model)
    grad_flat = np.zeros_like(flat)
    grads = param_views(grad_flat, model.trainable_params())
    adam = Adam([flat], lr)
    rng = np.random.default_rng(seed)
    x_val = data.inputs[data.val_idx]
    y_val = data.targets[data.val_idx]
    n_train = len(data.train_idx)
    batch = n_train if batch_size is None else min(batch_size, n_train)
    work = WorkBuffer(model, data.n, batch, x_val.shape[0])

    report = TrainReport()

    def record_validation(epoch: int):
        pred = batch_forward(model, x_val, outs=work.views(x_val.shape[0], step=False)[0])
        err = relative_l2_error(pred, y_val)
        report.val_errors.append((epoch, err))
        report.best_validation_error = min(report.best_validation_error, err)

    with np.errstate(over="ignore", invalid="ignore"):  # a loss that is not finite is raised
        record_validation(0)
        for epoch in range(1, epochs + 1):
            order = np.arange(n_train) if batch_size is None else rng.permutation(n_train)
            sq_sum = 0.0
            for start in range(0, n_train, batch):
                idx = data.train_idx[order[start:start + batch]]
                loss_value = loss_and_gradient(model, data.inputs[idx], data.targets[idx], grads, work)
                if not math.isfinite(loss_value):
                    raise TrainingDivergedError(
                        f"loss became {loss_value} at epoch {epoch}", report=report
                    )
                adam.step([flat], [grad_flat])
                sq_sum += loss_value * (idx.size * data.n * data.d)
            report.train_losses.append(sq_sum / (n_train * data.n * data.d))
            if epoch % VALIDATION_EVERY == 0:
                record_validation(epoch)
    return report


def train_cell(target: TargetFunction, n: int, d: int, d_latent: int, epochs: int, points: int,
               split_fraction: float, seed: int, config: OptimizerConfig | None = None) -> TrainReport:
    """``train`` of ``build_mlp_sumformer(d, d_latent)`` on ``generate_dataset``
    of ``points`` sequences, all three on ``seed``.

    Only the report outlives the call, so a caller that trains cell after
    cell holds one dataset at a time.
    """
    data = generate_dataset(target, n, d, points, split_fraction, seed)
    return train(build_mlp_sumformer(d, d_latent, seed), data, epochs, config, seed)


@dataclass(frozen=True)
class SweepRow:
    d: int
    d_prime: int
    seed: int
    best_val_err: float
    dprime_formula: int


def latent_sweep(
    target: TargetFunction,
    n: int,
    d_list: list[int],
    dprime_list: list[int],
    epochs: int,
    points: int,
    seeds: list[int],
    config: OptimizerConfig | None = None,
) -> list[SweepRow]:
    """Best validation error per (d, d', seed), one ``train_cell`` each, so
    every d' trains on the same bits of its (d, seed) dataset.

    The formula column records C(n+d, d) - 1, the latent width at which
    the exact monomial feature map exists for this n and d.
    """
    if not d_list or not dprime_list or not seeds:
        raise ContractError("d_list, dprime_list, seeds must be nonempty")
    seeds = [require_size("seed", seed, 0) for seed in seeds]
    rows = []
    for d, d_prime, seed in itertools.product(d_list, dprime_list, seeds):
        report = train_cell(target, n, d, d_prime, epochs, points, SPLIT_FRACTION, seed, config)
        rows.append(SweepRow(d, d_prime, seed, report.best_validation_error, basis_size(d, n)))
    return rows

