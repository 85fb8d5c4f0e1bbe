import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest

from sumformer.errors import (
    ContractError,
    DivisionGuardError,
    DomainError,
    ShapeError,
    TrainingDivergedError,
)
from sumformer.mlp import param_views
from sumformer.model import (
    MlpFeatureMap,
    batch_forward,
    build_mlp_sumformer,
    build_polynomial_sumformer,
)
from sumformer.serialize import dump_model, load_model
from sumformer.targets import TargetFunction, get_target
from sumformer.train import (
    Dataset,
    OptimizerConfig,
    WorkBuffer,
    generate_dataset,
    latent_sweep,
    loss_and_gradient,
    relative_l2_error,
    train,
    trainable_arrays,
    training_bytes,
)

from tape_oracle import Tape, gradient, mlp_param_nodes, mlp_taped

FAST = OptimizerConfig(batch_size=50)


@pytest.mark.parametrize("batch_size", [0, -3, 2.5, "3", True])
def test_train_refuses_a_batch_size_below_one(batch_size):
    """Or one that is not an integer: a batch size is a size like any other."""
    data = generate_dataset(get_target("quadratic_sum"), 3, 1, 10, 0.8, seed=0)
    model = build_mlp_sumformer(1, 4, seed=0)
    with pytest.raises(ContractError, match="batch_size"):
        train(model, data, epochs=1, config=OptimizerConfig(batch_size=batch_size))


def test_optimizer_config_sets_only_the_learning_rate_and_batch_size():
    assert [f.name for f in dataclasses.fields(OptimizerConfig)] == ["lr", "batch_size"]
    with pytest.raises(TypeError):
        OptimizerConfig(beta1=0.5)


@pytest.mark.parametrize("field", ["inputs", "targets"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_train_refuses_a_non_finite_dataset_entry_before_the_first_step(field, value, monkeypatch):
    """One NaN input token would otherwise train to a finite loss: relu zeroes it."""
    data = generate_dataset(get_target("quadratic_sum"), 3, 2, 20, 0.8, seed=0)
    getattr(data, field)[4, 1, 0] = value
    model = build_mlp_sumformer(2, 4, seed=0)
    monkeypatch.setattr(sys.modules[train.__module__], "loss_and_gradient", None)  # no step may run
    with pytest.raises(DomainError, match=field):
        train(model, data, epochs=5, config=FAST)


@pytest.mark.parametrize("field, bad", [
    ("inputs", lambda a: a[..., :1]),
    ("targets", lambda a: a[:, :2]),
    ("targets", lambda a: a[:-1]),
    ("inputs", lambda a: a[0]),
    ("targets", lambda a: a.astype(np.int64)),
    ("inputs", np.ndarray.tolist),
], ids=["token width", "token count", "sequence count", "no stack", "integers", "list"])
def test_train_refuses_a_dataset_of_the_wrong_layout(field, bad):
    data = generate_dataset(get_target("quadratic_sum"), 3, 2, 20, 0.8, seed=0)
    setattr(data, field, bad(getattr(data, field)))
    with pytest.raises(ShapeError, match=field):
        train(build_mlp_sumformer(2, 4, seed=0), data, epochs=1, config=FAST)


def test_dataset_split_sizes():
    data = generate_dataset(get_target("quadratic_sum"), 3, 1, 10, 0.8, seed=0)
    assert len(data.train_idx) == 8
    assert len(data.val_idx) == 2
    assert not set(data.train_idx) & set(data.val_idx)


def test_dataset_determinism_bitwise():
    a = generate_dataset(get_target("quadratic_sum"), 3, 2, 20, 0.8, seed=5)
    b = generate_dataset(get_target("quadratic_sum"), 3, 2, 20, 0.8, seed=5)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)


def test_dataset_targets_recompute_exactly():
    target = get_target("cubic_coupling")
    data = generate_dataset(target, 3, 2, 15, 0.8, seed=1)
    f = target.lifted()
    for x, y in zip(data.inputs, data.targets):
        assert np.array_equal(f(x), y)


@pytest.mark.parametrize("n, d", [(0, 2), (-1, 2), (3, 0), (3, -1)])
def test_dataset_refuses_empty_sequences_and_tokens(n, d):
    with pytest.raises(ContractError):
        generate_dataset(get_target("quadratic_sum"), n, d, 10, 0.8, seed=0)


def test_dataset_calls_the_target_once_per_token_position():
    calls = []

    def g(x, rest):
        calls.append(x.shape)
        return x + rest.sum(axis=-2)

    counted = TargetFunction("counted", g)
    generate_dataset(counted, 3, 2, 50, 0.8, seed=0)
    assert calls == [(50, 2)] * 3


def test_dataset_generation_peak_memory():
    # Six dataset-sized arrays: the inputs and targets and a few rests and
    # temporaries of the lift at once.  A per-sequence lift peaks above it.
    count, n, d = 2000, 3, 2
    generate_dataset(get_target("cubic_coupling"), n, d, 10, 0.8, seed=0)
    tracemalloc.start()
    try:
        generate_dataset(get_target("cubic_coupling"), n, d, count, 0.8, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * count * n * d * 8


def test_dataset_inputs_in_unit_cube():
    data = generate_dataset(get_target("quadratic_sum"), 4, 3, 50, 0.5, seed=2)
    assert np.all(data.inputs >= 0.0) and np.all(data.inputs < 1.0)


def test_relative_l2_basic_values():
    truth = np.random.default_rng(3).uniform(1, 2, size=(4, 3, 2))
    assert relative_l2_error(truth, truth) == 0.0
    assert relative_l2_error(2.0 * truth, truth) == pytest.approx(1.0)
    assert relative_l2_error(np.zeros_like(truth), truth) == pytest.approx(1.0)


def test_relative_l2_zero_truth_guard():
    with pytest.raises(DivisionGuardError):
        relative_l2_error(np.ones((3, 1)), np.zeros((3, 1)))


@pytest.mark.parametrize("pred, truth", [
    (np.ones((3, 1)), np.ones((1, 3))),         # once a ContractError
    (np.ones((2, 3, 1)), np.ones((3, 2))),
    ([[1.0]], np.ones((1, 1))),                 # once converted
    (np.ones((1, 1)), 1.0),
    (np.ones(3), np.ones(3)),                   # once flattened
])
def test_relative_l2_refuses_anything_but_two_arrays_of_one_layout(pred, truth):
    with pytest.raises(ShapeError):
        relative_l2_error(pred, truth)


def test_zero_epochs_records_only_initial_error():
    data = generate_dataset(get_target("quadratic_sum"), 3, 1, 20, 0.8, seed=4)
    model = build_mlp_sumformer(1, 4, seed=0)
    report = train(model, data, epochs=0, config=FAST, seed=0)
    assert [e for e, _ in report.val_errors] == [0]
    assert report.train_losses == []
    assert report.best_validation_error == report.val_errors[0][1]


def test_validation_cadence_every_five_epochs():
    data = generate_dataset(get_target("quadratic_sum"), 3, 1, 20, 0.8, seed=5)
    model = build_mlp_sumformer(1, 4, seed=0)
    report = train(model, data, epochs=12, config=FAST, seed=0)
    assert [e for e, _ in report.val_errors] == [0, 5, 10]
    assert len(report.train_losses) == 12
    assert report.best_validation_error == min(v for _, v in report.val_errors)


def test_training_is_bitwise_reproducible():
    data = generate_dataset(get_target("quadratic_sum"), 3, 1, 30, 0.8, seed=6)
    reports = []
    for _ in range(2):
        model = build_mlp_sumformer(1, 4, seed=3)
        reports.append(train(model, data, epochs=10, config=FAST, seed=3))
    assert reports[0].val_errors == reports[1].val_errors
    assert reports[0].train_losses == reports[1].train_losses


def test_zero_learning_rate_leaves_params_bitwise_unchanged():
    data = generate_dataset(get_target("quadratic_sum"), 3, 1, 20, 0.8, seed=7)
    model = build_mlp_sumformer(1, 4, seed=1)
    before = [a.copy() for a in trainable_arrays(model)]
    train(model, data, epochs=1, config=OptimizerConfig(lr=0.0, batch_size=None), seed=0)
    after = trainable_arrays(model)
    for b, a in zip(before, after):
        assert np.array_equal(b, a)


def test_constant_target_sanity_run():
    data = generate_dataset(get_target("constant"), 3, 1, 200, 0.8, seed=8)
    model = build_mlp_sumformer(1, 4, seed=2)
    report = train(model, data, epochs=200, config=FAST, seed=2)
    assert report.best_validation_error <= 1e-2


def test_training_loss_soft_monotonicity():
    data = generate_dataset(get_target("constant"), 3, 1, 200, 0.8, seed=9)
    model = build_mlp_sumformer(1, 4, seed=3)
    report = train(model, data, epochs=100, config=FAST, seed=3)
    losses = report.train_losses
    windows = [(i, i + 20) for i in range(len(losses) - 20)]
    good = sum(1 for i, j in windows if losses[j] <= losses[i])
    assert good >= 0.9 * len(windows)


def test_train_gathers_each_minibatch_through_the_split_indices():
    """The sequences of a shuffled copy of a dataset, reached through its
    moved indices, train to the same bits."""
    data = generate_dataset(get_target("quadratic_sum"), 3, 2, 30, 0.8, seed=14)
    perm = np.random.default_rng(15).permutation(30)
    moved = np.argsort(perm)  # the row of the shuffled copy that holds each row
    shuffled = Dataset(data.inputs[perm], data.targets[perm], moved[data.train_idx], moved[data.val_idx])
    reports = [train(build_mlp_sumformer(2, 4, seed=2), d, epochs=5, config=OptimizerConfig(batch_size=7),
                     seed=3) for d in (data, shuffled)]
    assert reports[0] == reports[1]


def test_polynomial_phi_model_trains_psi_only():
    target = get_target("quadratic_sum")
    data = generate_dataset(target, 3, 1, 40, 0.8, seed=10)
    model = build_polynomial_sumformer(3, 1, seed=4)
    assert len(model.trainable_params()) == 1  # psi only; phi is frozen
    report = train(model, data, epochs=5, config=FAST, seed=4)
    assert len(report.train_losses) == 5


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergence_aborts_with_report():
    """With no numpy overflow warning on the way: train() silences them itself."""
    data = generate_dataset(get_target("quadratic_sum"), 3, 1, 20, 0.8, seed=11)
    model = build_mlp_sumformer(1, 4, seed=5)
    with pytest.raises(TrainingDivergedError) as exc_info:
        train(model, data, epochs=50, config=OptimizerConfig(lr=1e18, batch_size=None), seed=5)
    assert exc_info.value.report is not None
    assert exc_info.value.report.val_errors[0][0] == 0


def test_untrainable_model_rejected():
    from sumformer.model import PolynomialCombiner, SumformerModel, build_continuous_sumformer

    data = generate_dataset(get_target("quadratic_sum"), 2, 1, 10, 0.8, seed=12)
    no_terms = (np.zeros((0, 1), int), np.zeros((0, 2), int), np.zeros((0, 1)))
    fixed = build_continuous_sumformer(2, 1, *no_terms)
    # A trainable phi is not enough: the training step needs an MLP psi.
    mlp_phi = build_mlp_sumformer(1, 2, seed=0).phi
    no_mlp_psi = SumformerModel(mlp_phi, PolynomialCombiner(*no_terms))
    for model in (fixed, no_mlp_psi):
        with pytest.raises(ContractError):
            train(model, data, epochs=1, config=FAST, seed=0)


@pytest.mark.parametrize("psi_out", [1, 3])
def test_train_refuses_a_psi_that_does_not_output_d_columns(psi_out):
    """The work buffer sizes Sigma from psi's widths; a psi not d wide is
    refused, naming both widths, before any array is built."""
    from sumformer.mlp import MlpSpec, init_mlp_params
    from sumformer.model import MlpCombiner, SumformerModel

    rng = np.random.default_rng(0)
    phi_spec, psi_spec = MlpSpec((2, 4, 3)), MlpSpec((5, 4, psi_out))
    model = SumformerModel(MlpFeatureMap(phi_spec, init_mlp_params(phi_spec, rng)),
                           MlpCombiner(psi_spec, init_mlp_params(psi_spec, rng)))
    data = generate_dataset(get_target("cubic_coupling"), 3, 2, 20)
    with pytest.raises(ShapeError, match=f"2 outputs per token, but psi outputs {psi_out}"):
        train(model, data, epochs=1)


def test_latent_sweep_single_cell_matches_train():
    """Each row is a standalone cell bitwise: rebuilding a (d, seed) dataset
    for every d' gives the same data."""
    target = get_target("quadratic_sum")
    rows = latent_sweep(target, 3, [1], [4, 6], epochs=5, points=30, seeds=[7, 8], config=FAST)
    assert [(r.d_prime, r.seed) for r in rows] == [(4, 7), (4, 8), (6, 7), (6, 8)]
    for row in rows:
        data = generate_dataset(target, 3, 1, 30, 0.8, seed=row.seed)
        model = build_mlp_sumformer(1, row.d_prime, seed=row.seed)
        report = train(model, data, epochs=5, config=FAST, seed=row.seed)
        assert row.best_val_err == report.best_validation_error
        assert row.dprime_formula == 3  # C(3+1,1) - 1


def test_a_sweep_holds_one_cell_at_a_time():
    """A sweep frees each cell's dataset before the next, so under tracemalloc
    it peaks within the band of ``test_training_bytes_matches_what_train_allocates``
    around its largest cell's estimate."""
    tracemalloc.start()
    try:
        latent_sweep(get_target("cubic_coupling"), 3, [1, 2], [2], epochs=1, points=20_000,
                     seeds=[0, 1, 2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * max(training_bytes(3, d, 2, 20_000, 0.8, 100) for d in (1, 2))


def test_latent_sweep_grid_shape_and_formula():
    target = get_target("quadratic_sum")
    rows = latent_sweep(target, 3, [1, 2], [2, 4], epochs=2, points=20, seeds=[0, 1], config=FAST)
    assert len(rows) == 8
    formulas = {r.d: r.dprime_formula for r in rows}
    assert formulas == {1: 3, 2: 9}


def _taped_loss_and_gradient(model, x_seqs, y_seqs):
    """Loss and parameter gradients of one batch, recorded on a Tape."""
    s_count, n, d = x_seqs.shape
    rows = x_seqs.reshape(s_count * n, d)
    tape = Tape()
    x_node = tape.constant(rows)
    if isinstance(model.phi, MlpFeatureMap):
        phi_nodes = mlp_param_nodes(tape, model.phi.params, "phi.")
        phi_out = mlp_taped(tape, model.phi.spec, phi_nodes, x_node)
        sig_rows = tape.repeat_rows(tape.group_sum(phi_out, n), n)
        psi_in = tape.concat_cols(x_node, sig_rows)
    else:
        sig = model.phi.rows(rows).reshape(s_count, n, model.d_latent).sum(axis=1)
        psi_in = tape.constant(np.hstack([rows, np.repeat(sig, n, axis=0)]))
    psi_nodes = mlp_param_nodes(tape, model.psi.params, "psi.")
    pred = mlp_taped(tape, model.psi.spec, psi_nodes, psi_in)
    diff = tape.sub(pred, tape.constant(y_seqs.reshape(s_count * n, d)))
    loss = tape.mean(tape.square(diff))
    grads = gradient(tape, loss)
    return float(loss.value[0, 0]), [grads[p] for p in tape.parameters]


def _nan_gradient(model):
    """Gradient views shaped like the model's parameters, filled with NaN."""
    size = sum(a.size for a in trainable_arrays(model))
    return param_views(np.full(size, np.nan), model.trainable_params())


def _fused_loss_and_gradient(model, x_seqs, y_seqs, work):
    """The training step's loss and gradients, in trainable_arrays order.

    The gradient buffer and the step's work buffer start as NaN, so an
    entry the step does not write, or reads before writing, shows up as
    a mismatch.
    """
    grads = _nan_gradient(model)
    work.flat.fill(np.nan)
    loss = loss_and_gradient(model, x_seqs, y_seqs, grads, work)
    return loss, [g for params in grads for pair in params for g in pair]


# (model constructor, n, d, dataset size, batch size): every split leaves a
# final minibatch smaller than the rest.
ORACLE_CASES = {
    "mlp_phi": (lambda: build_mlp_sumformer(2, 4, seed=3, hidden=(6, 5)), 3, 2, 13, 4),
    "polynomial_phi": (lambda: build_polynomial_sumformer(3, 2, seed=4, hidden=(7,)), 3, 2, 13, 4),
    "mlp_phi_d4": (lambda: build_mlp_sumformer(4, 8, seed=5), 3, 4, 30, 9),
}


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_fused_step_matches_tape_oracle(case):
    build, n, d, count, batch = ORACLE_CASES[case]
    data = generate_dataset(get_target("cubic_coupling"), n, d, count, 0.8, seed=13)
    model = build()
    # A few steps first, so the ReLU masks are not those of the initial weights.
    train(model, data, epochs=2, config=OptimizerConfig(lr=1e-2, batch_size=batch), seed=1)
    x_train, y_train = data.inputs[data.train_idx], data.targets[data.train_idx]
    work = WorkBuffer(model, n, batch)  # shared by every minibatch, as in train()
    sizes = []
    for start in range(0, len(x_train), batch):
        x, y = x_train[start:start + batch], y_train[start:start + batch]
        sizes.append(x.shape[0])
        tape_loss, tape_grads = _taped_loss_and_gradient(model, x, y)
        loss, grads = _fused_loss_and_gradient(model, x, y, work)
        assert abs(loss - tape_loss) <= 1e-12 * abs(tape_loss)
        assert loss == tape_loss
        assert len(grads) == len(tape_grads) == len(trainable_arrays(model))
        for g, tg in zip(grads, tape_grads):
            assert g.shape == tg.shape
            assert np.max(np.abs(g - tg)) <= 1e-12 * max(np.max(np.abs(tg)), 1e-300)
            assert np.array_equal(g, tg)
    assert sizes[0] > 1 and sizes[-1] < sizes[0]


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_step_loss_is_the_batch_forward_mse(case):
    build, n, d, count, _ = ORACLE_CASES[case]
    data = generate_dataset(get_target("cubic_coupling"), n, d, count, 0.8, seed=14)
    model = build()
    work = WorkBuffer(model, n, 5)
    for x, y in ((data.inputs[:5], data.targets[:5]), (data.inputs[5:8], data.targets[5:8])):
        loss, _ = _fused_loss_and_gradient(model, x, y, work)
        assert loss == np.mean((batch_forward(model, x) - y) ** 2)


def test_train_keeps_parameters_in_one_flat_buffer():
    data = generate_dataset(get_target("quadratic_sum"), 3, 2, 30, 0.8, seed=15)
    model = build_mlp_sumformer(2, 4, seed=6)
    for _ in range(2):  # a second call on the same model re-flattens it
        report = train(model, data, epochs=3, config=FAST, seed=0)
        assert all(np.isfinite(report.train_losses))
        assert np.isfinite(report.best_validation_error)
        arrays = trainable_arrays(model)
        buffer = arrays[0].base
        assert buffer is not None and buffer.ndim == 1
        assert buffer.size == sum(a.size for a in arrays)
        assert all(a.base is buffer for a in arrays)
    reloaded = load_model(dump_model(model))
    x = data.inputs[data.val_idx]
    assert np.array_equal(batch_forward(reloaded, x), batch_forward(model, x))


def test_work_buffer_refuses_more_sequences_than_it_holds():
    data = generate_dataset(get_target("cubic_coupling"), 3, 2, 20, 0.8, seed=19)
    model = build_mlp_sumformer(2, 4, seed=0, hidden=(6,))
    grads = _nan_gradient(model)
    work = WorkBuffer(model, 3, 4, val_seqs=2)
    with pytest.raises(ContractError):
        loss_and_gradient(model, data.inputs[:5], data.targets[:5], grads, work)
    with pytest.raises(ContractError):
        work.views(3, step=False)


def test_warm_step_allocates_less_than_one_layer():
    # The default shape: 100 sequences of 3 tokens (300 rows), 50-wide layers.
    data = generate_dataset(get_target("cubic_coupling"), 3, 2, 200, 0.8, seed=16)
    model = build_mlp_sumformer(2, 32, seed=0)
    x, y = data.inputs[:100], data.targets[:100]
    grads = _nan_gradient(model)
    work = WorkBuffer(model, 3, 100)
    loss_and_gradient(model, x, y, grads, work)
    tracemalloc.start()
    try:
        loss_and_gradient(model, x, y, grads, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * 50 * 8


def test_validation_errors_are_the_allocating_forward_errors():
    data = generate_dataset(get_target("cubic_coupling"), 3, 2, 57, 0.8, seed=17)
    x_val, y_val = data.inputs[data.val_idx], data.targets[data.val_idx]
    model = build_mlp_sumformer(2, 6, seed=7, hidden=(9, 8))
    initial = build_mlp_sumformer(2, 6, seed=7, hidden=(9, 8))
    report = train(model, data, epochs=5, config=OptimizerConfig(lr=1e-2, batch_size=20), seed=2)
    (epoch0, err0), (epoch5, err5) = report.val_errors
    assert (epoch0, epoch5) == (0, 5)
    assert err0 == relative_l2_error(batch_forward(initial, x_val), y_val)
    assert err5 == relative_l2_error(batch_forward(model, x_val), y_val)
    assert err5 != err0


def test_training_bytes_matches_what_train_allocates():
    # The dataset exists before train() starts; its validation copy and the
    # rest of what train() holds are traced.  numpy's 64 KiB iterator buffer for
    # a broadcast bias add is left out of the estimate.
    n, d, d_latent, points = 3, 2, 8, 300
    data = generate_dataset(get_target("cubic_coupling"), n, d, points, 0.8, seed=18)
    model = build_mlp_sumformer(d, d_latent, seed=0)
    tracemalloc.start()
    try:
        train(model, data, epochs=1, config=OptimizerConfig(batch_size=64), seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = peak + data.inputs.nbytes + data.targets.nbytes
    estimate = training_bytes(n, d, d_latent, points, 0.8, 64)
    assert 0.9 * estimate <= held <= 1.1 * estimate


def test_train_holds_no_copy_of_its_training_split():
    """A training split of 1.82 MB against a model a few hundred bytes big:
    train() gathers each minibatch from the dataset, so it peaks near 0.5 MB,
    where a copy of the split made up front would take the split's bytes."""
    data = generate_dataset(get_target("cubic_coupling"), 3, 2, 20_000, 0.95, seed=0)
    model = build_mlp_sumformer(2, 2, hidden=(2,))
    split = (data.inputs[0].nbytes + data.targets[0].nbytes) * len(data.train_idx)
    tracemalloc.start()
    try:
        train(model, data, epochs=1, config=OptimizerConfig(batch_size=100), seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < split
