"""Each row plants one fault in the library, by monkeypatch, and shows that the
verify check it names catches it: the check reports ``fail``, ``sumformer
verify`` exits 3 and writes the check's witness file, if the check has
witnesses.  A row whose witness is known also pins the file's contents.
``src/`` itself is never changed."""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from sumformer import attention, multisym, verify
from sumformer.cli import EXIT_VERIFY_FAILED, main
from sumformer.model import MlpFeatureMap, TableCombiner

from oracles import scale_n_head

# check_equivariance_models samples n = 4, d = 2 sequences from seed 11.
EQUIVARIANCE_N, EQUIVARIANCE_D, EQUIVARIANCE_SEED = 4, 2, 11
LATE_DRAW = 17  # of the 20 default trials


def _late_draw() -> np.ndarray:
    rng = np.random.default_rng(EQUIVARIANCE_SEED)
    return [rng.uniform(size=(EQUIVARIANCE_N, EQUIVARIANCE_D)) for _ in range(LATE_DRAW + 1)][-1]


def _break_equivariance_on_a_late_draw(monkeypatch) -> np.ndarray:
    """Every map the equivariance check samples raises row i of its output
    by 1e-3 i on the row permutations of one late draw, and nowhere else."""
    bad = _late_draw()
    key = np.sort(bad, axis=0)
    sample = verify.check_equivariance

    def broken(fn):
        def stacked(xs):
            out = np.array(fn(xs))
            for x, o in zip(xs, out):
                if np.array_equal(np.sort(x, axis=0), key):
                    o += 1e-3 * np.arange(len(o))[:, np.newaxis]
            return out
        return stacked

    monkeypatch.setattr(verify, "check_equivariance", lambda f, *a, **k: sample(broken(f), *a, **k))
    return bad


def _shift_the_table(monkeypatch) -> None:
    apply = TableCombiner.apply
    monkeypatch.setattr(TableCombiner, "apply", lambda self, *args, **kwargs: apply(self, *args, **kwargs) + 1e-3)


def _scale_the_ones_column(monkeypatch) -> None:
    """The softmax heads' score blocks divide by 1 + 1e-9 times the row sums:
    the forward's outputs and A's rows both shrink by that factor."""
    blocks = attention._softmax_blocks

    def scaled(starts, q, k_t, v, *rest):
        v = v.copy()
        v[..., -1] *= 1 + 1e-9
        blocks(starts, q, k_t, v, *rest)

    monkeypatch.setattr(attention, "_softmax_blocks", scaled)


def _scale_the_random_features(monkeypatch) -> None:
    features = attention._performer_features_rows
    monkeypatch.setattr(attention, "_performer_features_rows", lambda *args: features(*args) * (1 + 1e-6))


def _scale_the_low_rank_values_by_n(monkeypatch) -> None:
    """The low-rank construction's value scale is n instead of k, so its
    Sigma overshoots by n/k."""
    construction = attention.LinformerHeadSpec.construction

    def literal_n(cls, n, *args, **kwargs):
        head, fc_scale, lambda_value = construction(n, *args, **kwargs)
        return scale_n_head(head, n), fc_scale, lambda_value

    monkeypatch.setattr(attention.LinformerHeadSpec, "construction", classmethod(literal_n))


def _raise_the_first_exponent_of_power_sums(monkeypatch) -> None:
    power_sum = multisym.power_sum
    monkeypatch.setattr(multisym, "power_sum", lambda x, alpha: power_sum(x, (alpha[0] + 1, *alpha[1:])))


def _scale_the_mlp_phi(monkeypatch) -> None:
    """phi's forward x 1.001 where the model is evaluated, but not in the
    training step, whose gradient then disagrees with the model's loss."""
    rows = MlpFeatureMap.rows
    monkeypatch.setattr(MlpFeatureMap, "rows", lambda self, *args, **kwargs: rows(self, *args, **kwargs) * 1.001)


@dataclass(frozen=True)
class Mutant:
    check: Callable  # the check in verify.ALL_CHECKS that must catch the fault
    name: str        # its report name
    plant: Callable  # plants the fault; returns the expected witness, or None if not pinned
    witness: bool = True  # the check reports a witness input
    label: str = ""       # the test id, when the check has another row already


MUTANTS = [
    Mutant(verify.check_equivariance_models, "equivariance_models", _break_equivariance_on_a_late_draw),
    Mutant(verify.check_discrete_exactness, "discrete_exactness", _shift_the_table),
    Mutant(verify.check_averaging_attention, "averaging_attention", _scale_the_ones_column),
    Mutant(verify.check_sigma_standard, "sigma_recovery_standard", _scale_the_ones_column),
    Mutant(verify.check_sigma_linformer, "sigma_recovery_linformer", _scale_the_ones_column),
    Mutant(verify.check_sigma_linformer, "sigma_recovery_linformer", _scale_the_low_rank_values_by_n,
           label="sigma_recovery_linformer_at_scale_n"),
    Mutant(verify.check_sigma_performer, "sigma_recovery_performer", _scale_the_random_features),
    Mutant(verify.check_generation_oracle, "generation_oracle", _raise_the_first_exponent_of_power_sums,
           witness=False),
    Mutant(verify.check_gradients, "gradient_check", _scale_the_mlp_phi, witness=False),
]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.label or m.name for m in MUTANTS])
def test_the_check_catches_its_mutant(tmp_path, monkeypatch, mutant):
    expected = mutant.plant(monkeypatch)
    record = mutant.check(verify.VerifyConfig())
    assert (record.name, record.status) == (mutant.name, "fail")
    assert (record.witness is not None) == mutant.witness

    assert main(["verify", "--out", str(tmp_path)]) == EXIT_VERIFY_FAILED
    lines = (tmp_path / "verify_report.txt").read_text().splitlines()
    line = next(ln for ln in lines if ln.startswith(f"name={mutant.name} "))
    path = tmp_path / f"witness_{mutant.name}.txt"
    assert "status=fail" in line and f"witness_path={path if mutant.witness else '-'}" in line
    assert path.exists() == mutant.witness
    if expected is not None:
        assert np.array_equal(np.loadtxt(path).reshape(expected.shape), expected)


def test_every_mutant_names_a_check_of_verify():
    assert all(m.check in verify.ALL_CHECKS for m in MUTANTS)


def test_every_check_of_verify_has_a_mutant():
    assert {m.check for m in MUTANTS} == set(verify.ALL_CHECKS)
