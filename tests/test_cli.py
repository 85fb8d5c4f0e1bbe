import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from sumformer import parallel
from sumformer.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    SCHEMA,
    main,
    read_config_file,
)
from sumformer.linalg import MEMORY_BUDGET_BYTES
from sumformer.train import SPLIT_FRACTION, OptimizerConfig, loss_and_gradient
from sumformer.verify import (
    VerifyConfig,
    check_discrete_exactness,
    check_equivariance_models,
    check_generation_oracle,
    check_gradients,
    gradient_check_once,
    verify_bytes,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

FAST_VERIFY = [
    "--n", "2,3", "--d", "1",
]


def _read(path):
    with open(path) as fh:
        return fh.read()


def test_bench_writes_scaling_csv(tmp_path):
    out = str(tmp_path / "bench")
    assert main(["bench", "--out", out]) == EXIT_OK
    lines = _read(os.path.join(out, "bench.csv")).strip().splitlines()
    assert lines[0] == "variant,n,d_model,k,macs"
    rows = [ln.split(",") for ln in lines[1:]]
    by_variant = {}
    for variant, n, _, _, macs in rows:
        by_variant.setdefault(variant, []).append(int(macs))
    for a, b in zip(by_variant["standard"], by_variant["standard"][1:]):
        assert 3.6 <= b / a <= 4.4
    for variant in ("linformer", "performer"):
        for a, b in zip(by_variant[variant], by_variant[variant][1:]):
            assert 1.8 <= b / a <= 2.2


def test_bench_rejects_unrunnable_heads_before_output(tmp_path, capsys):
    # n=8 with k=8 is a low-rank head the library refuses to run.
    for args in (["--n", "8,16", "--k", "8"], ["--k", "0"], ["--n", "0"]):
        out = tmp_path / "bench"
        assert main(["bench", "--out", str(out)] + args) == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


# Each of these is checked before any output: exit 2, one line, no directory.
# (--epochs 0 keeps a run short should a value slip through.)
BAD_VALUES = {
    "sweep_points_1": (["sweep", "--epochs", "0", "--points", "1"], None),
    "sweep_n_list": (["sweep", "--epochs", "0", "--n", "2,3"], None),
    "train_n_0": (["train", "--epochs", "0", "--n", "0"], None),
    "train_d_latent_0": (["train", "--epochs", "0", "--d-latent", "0"], None),
    "train_points_1": (["train", "--epochs", "0", "--points", "1"], None),
    "train_seed_negative": (["train", "--epochs", "0", "--seed", "-1"], None),
    "bench_k_list_in_config": (["bench"], "k = 1,2\n"),
    "verify_tol_none_in_config": (["verify"], "tol = none\n"),
    "verify_samples_abc_in_config": (["verify"], "samples = abc\n"),
    "verify_trials_fraction_in_config": (["verify"], "trials = 1.5\n"),
    "verify_n_0": (["verify", "--n", "0"], None),
    "verify_d_0": (["verify", "--d", "0"], None),
    "verify_delta_0": (["verify", "--delta", "0"], None),
    # delta**2 keys of delta-long histograms would exceed the discrete table's BUILD_BUDGET.
    "verify_delta_over_budget": (["verify", "--delta", "1001"], None),
    "verify_delta_just_over_budget": (["verify", "--delta", "101"], None),
    "train_seed_list": (["train", "--epochs", "0", "--seed", "1,2"], None),
    "train_epochs_abc": (["train", "--epochs", "abc"], None),
    "train_lr_nan_in_config": (["train", "--epochs", "0"], "lr = nan\n"),
    "train_lr_beyond_float_in_config": (["train", "--epochs", "0"], "lr = 1" + "0" * 400 + "\n"),
    "train_split_fraction_1": (["train", "--epochs", "0", "--split-fraction", "1"], None),
    # A points value past the float range; the split would overflow converting it.
    "train_points_400_digits": (["train", "--epochs", "0", "--points", "1" + "0" * 399], None),
    "sweep_points_400_digits": (["sweep", "--epochs", "0", "--points", "1" + "0" * 399], None),
    # Beyond the memory budget (linalg.MEMORY_BUDGET_BYTES), by train.training_bytes.
    # Each is also far beyond any machine's memory, so a run that got past the
    # check would fail at its first large allocation instead of filling memory.
    "train_n_beyond_memory": (["train", "--epochs", "0", "--points", "2",
                               "--n", "100000000000000000000"], None),
    "train_points_beyond_memory": (["train", "--epochs", "0", "--points", "1000000000"], None),
    "train_d_latent_beyond_memory": (["train", "--epochs", "0", "--d-latent", "1000000000"], None),
    "train_d_beyond_memory_in_config": (["train", "--epochs", "0"], "d = 1000000000\n"),
    "sweep_largest_cell_beyond_memory": (["sweep", "--epochs", "0", "--d", "1",
                                          "--d-latent", "2,1000000000"], None),
    # By verify.verify_bytes: four m x m weights at m = 24,684, or the
    # generation oracle's design matrix over samples * 25 draws.
    "verify_construction_beyond_memory": (["verify", "--n", "40", "--d", "3"], None),
    "verify_samples_beyond_memory": (["verify", "--samples", "1000000000000"], None),
    "verify_huge_n_and_d_in_config": (["verify"], "n = 2,10000000000000000000000\n"
                                                  "d = 10000000000000000000000\n"),
    "verify_samples_beyond_any_float": (["verify", "--samples", "1" + "0" * 400], None),
}


def test_memory_budget_admits_the_defaults_and_a_large_batch_size(tmp_path):
    from sumformer.train import training_bytes

    assert training_bytes(3, 2, 32, 2000, 0.8, 100) < MEMORY_BUDGET_BYTES / 100
    # A batch larger than the training split is clamped to it, not refused.
    out = str(tmp_path / "big_batch")
    assert main(["train", "--epochs", "1", "--points", "20", "--d-latent", "4",
                 "--batch-size", "100000000000000000000", "--out", out]) == EXIT_OK


@pytest.mark.parametrize("case", list(BAD_VALUES))
def test_bad_values_rejected_before_output(tmp_path, capsys, case):
    args, config_text = BAD_VALUES[case]
    if config_text is not None:
        config = tmp_path / "bad.cfg"
        config.write_text(config_text)
        args = args + ["--config", str(config)]
    out = tmp_path / "never"
    assert main(args + ["--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "bench"])
def test_seed_flag_exists_only_where_it_sets_a_seed(tmp_path, command):
    out = tmp_path / "never"
    with pytest.raises(SystemExit) as exc_info:
        main([command, "--seed", "7", "--out", str(out)])
    assert exc_info.value.code == EXIT_CONFIG
    assert not out.exists()


def _library_defaults() -> dict:
    """Per command, the defaults of its keys that the library states."""
    verify = dataclasses.asdict(VerifyConfig())
    verify["n"], verify["d"] = verify.pop("n_list"), verify.pop("d_list")
    training = dataclasses.asdict(OptimizerConfig())
    return {"verify": verify, "train": {**training, "split_fraction": SPLIT_FRACTION},
            "sweep": training, "bench": {}}


def test_help_lists_every_key_with_its_default(capsys):
    """``sumformer --help`` names the four commands, and each command's --help
    exits 0 and lists every key of its table with its default: the
    library's, where the library states one."""
    with pytest.raises(SystemExit) as exc_info:
        main(["--help"])
    assert exc_info.value.code == 0
    assert "{verify,train,sweep,bench}" in capsys.readouterr().out
    library = _library_defaults()
    for command, keys in SCHEMA.items():
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--help"])
        assert exc_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # argparse wraps at the terminal width
        assert set(library[command]) < set(keys)
        for key, spec in keys.items():
            default = library[command].get(key, spec.default)
            shown = ",".join(map(str, default if isinstance(default, list) else [default]))
            entry = rf"--{key.replace('_', '-')} {key.upper()} (?:(?! --).)*\(default {re.escape(shown)}\)"
            assert re.search(entry, text), (command, key, shown)


def test_verify_checks_that_run_no_case_report_skip():
    config = VerifyConfig(samples=-1, trials=-1, gradient_seeds=-1)
    for check in (check_discrete_exactness, check_equivariance_models, check_gradients):
        record = check(config)
        assert record.status == "skip", record.name


def test_train_zero_epochs_single_row(tmp_path):
    out = str(tmp_path / "t0")
    code = main([
        "train", "--out", out, "--epochs", "0", "--points", "20",
        "--d-latent", "4", "--target", "quadratic_sum",
    ])
    assert code == EXIT_OK
    lines = _read(os.path.join(out, "curve.csv")).strip().splitlines()
    assert lines[0] == "epoch,split,metric,value"
    assert len(lines) == 2
    assert lines[1].startswith("0,val,rel_l2,")


def test_default_train_manifest_echoes_every_setting(tmp_path):
    """Adam's betas and eps are constants of the library, and still echoed."""
    out = str(tmp_path / "manifest")
    assert main(["train", "--out", out, "--epochs", "0"]) == EXIT_OK
    assert _read(os.path.join(out, "manifest.txt")).splitlines() == [
        "batch_size = 100", "beta1 = 0.9", "beta2 = 0.999", "d = 2", "d_latent = 32", "epochs = 0",
        "eps = 1e-08", "lr = 0.001", "n = 3", "points = 2000", "seed = 0", "split_fraction = 0.8",
        "target = 'cubic_coupling'",
    ]


def test_train_manifests_of_different_runs_differ(tmp_path):
    """Every setting that shapes the run is in the manifest, so two runs that
    differ only in n, d and d' write different manifests."""
    manifests = []
    for name, args in (("a", ["--d", "1", "--points", "40"]), ("b", ["--d", "2", "--d-latent", "4", "--n", "2"])):
        out = str(tmp_path / name)
        assert main(["train", "--epochs", "0", "--out", out] + args) == EXIT_OK
        manifests.append(_read(os.path.join(out, "manifest.txt")))
    assert manifests[0] != manifests[1]


def test_sweep_manifest_holds_the_run_settings_and_no_output_path(tmp_path):
    """Two identical sweeps into different directories write the same manifest."""
    args = ["sweep", "--epochs", "1", "--points", "20"]
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--out", out_a]) == EXIT_OK
    assert main(args + ["--out", out_b]) == EXIT_OK
    manifest = _read(os.path.join(out_a, "manifest.txt"))
    assert manifest == _read(os.path.join(out_b, "manifest.txt"))
    assert manifest.splitlines() == [
        "batch_size = 100", "beta1 = 0.9", "beta2 = 0.999", "d = [1, 2]", "d_latent = [2, 8, 32]",
        "epochs = 1", "eps = 1e-08", "lr = 0.001", "n = 3", "points = 20", "seed = [0, 1, 2]",
        "target = 'cubic_coupling'",
    ]


def test_full_batch_sweep_manifest_holds_the_settings_as_the_run_used_them(tmp_path):
    out = str(tmp_path / "full")
    assert main(["sweep", "--out", out, "--epochs", "0", "--points", "20", "--d", "1",
                 "--d-latent", "2", "--seed", "0", "--batch-size", "full", "--lr", "1"]) == EXIT_OK
    lines = _read(os.path.join(out, "manifest.txt")).splitlines()
    assert "batch_size = None" in lines and "lr = 1.0" in lines


def test_train_reruns_are_byte_identical(tmp_path):
    args = ["train", "--epochs", "5", "--points", "30", "--d-latent", "4",
            "--target", "quadratic_sum", "--seed", "3"]
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--out", out_a]) == EXIT_OK
    assert main(args + ["--out", out_b]) == EXIT_OK
    assert _read(os.path.join(out_a, "curve.csv")) == _read(os.path.join(out_b, "curve.csv"))
    assert _read(os.path.join(out_a, "manifest.txt")) == _read(os.path.join(out_b, "manifest.txt"))


def test_train_curve_has_expected_cadence(tmp_path):
    out = str(tmp_path / "cadence")
    assert main([
        "train", "--out", out, "--epochs", "20", "--points", "30",
        "--d-latent", "4", "--target", "quadratic_sum",
    ]) == EXIT_OK
    lines = _read(os.path.join(out, "curve.csv")).strip().splitlines()[1:]
    val_epochs = [int(ln.split(",")[0]) for ln in lines if ",val," in ln]
    assert val_epochs == [0, 5, 10, 15, 20]


def test_train_200_epoch_curve_has_at_least_40_points(tmp_path):
    out = str(tmp_path / "long")
    assert main([
        "train", "--out", out, "--epochs", "200", "--points", "40",
        "--d-latent", "2", "--target", "quadratic_sum",
    ]) == EXIT_OK
    lines = _read(os.path.join(out, "curve.csv")).strip().splitlines()[1:]
    val_rows = [ln for ln in lines if ",val," in ln]
    assert len(val_rows) >= 40


def test_sweep_single_cell(tmp_path):
    out = str(tmp_path / "s1")
    code = main([
        "sweep", "--out", out, "--epochs", "2", "--points", "20",
        "--d", "1", "--d-latent", "4", "--seed", "0", "--target", "quadratic_sum",
    ])
    assert code == EXIT_OK
    lines = _read(os.path.join(out, "sweep.csv")).strip().splitlines()
    assert lines[0] == "d,d_prime,seed,best_val_err,dprime_formula"
    assert len(lines) == 2


def test_sweep_grid_and_formula_column(tmp_path):
    out = str(tmp_path / "s2")
    code = main([
        "sweep", "--out", out, "--epochs", "1", "--points", "20",
        "--d", "1,2", "--d-latent", "2,4,8", "--seed", "0,1", "--target", "quadratic_sum",
    ])
    assert code == EXIT_OK
    lines = _read(os.path.join(out, "sweep.csv")).strip().splitlines()[1:]
    assert len(lines) == 12  # 2 d x 3 d' x 2 seeds
    formulas = {(int(r[0]), int(r[4])) for r in (ln.split(",") for ln in lines)}
    assert formulas == {(1, 3), (2, 9)}


OUT_COMMANDS = {
    "verify": ["verify", "--samples", "1", "--trials", "0"],
    "train": ["train", "--epochs", "0", "--points", "20"],
    "sweep": ["sweep", "--epochs", "0", "--points", "20"],
    "bench": ["bench"],
}


@pytest.mark.parametrize("below", [False, True], ids=["a_file", "below_a_file"])
@pytest.mark.parametrize("command", list(OUT_COMMANDS))
def test_an_out_that_cannot_be_a_directory_is_a_config_error(tmp_path, capsys, command, below):
    """An existing file, or a path below one, is refused with one line and
    no output written, not with a traceback."""
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    out = blocker / "run" if below else blocker
    assert main(OUT_COMMANDS[command] + ["--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot make output directory") and len(err.splitlines()) == 1
    assert str(blocker) in err
    assert os.listdir(tmp_path) == ["taken"] and blocker.read_text() == "kept\n"


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_a_diverging_run_says_so_in_one_line_beside_its_manifest(tmp_path, command):
    """No numpy overflow warning comes before the one stderr line, and the
    manifest, written before training, records the settings that diverged."""
    out = tmp_path / "diverged"
    run = _python_m_sumformer([command, "--lr", "1e300", "--epochs", "2", "--points", "20",
                               "--out", str(out)], tmp_path)
    assert run.returncode == EXIT_DIVERGED, run.stderr
    assert run.stderr.startswith("training diverged:") and len(run.stderr.splitlines()) == 1, run.stderr
    assert "lr = 1e+300" in _read(out / "manifest.txt").splitlines()
    assert (out / "curve.csv").exists() == (command == "train")


def test_unknown_config_key_rejected_before_output(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("bogus_key = 1\n")
    out = str(tmp_path / "never")
    code = main(["train", "--config", str(config), "--out", out])
    assert code == EXIT_CONFIG
    assert not os.path.exists(out)


def test_unknown_target_rejected(tmp_path):
    out = str(tmp_path / "never2")
    code = main(["train", "--target", "nope", "--out", out, "--epochs", "1", "--points", "10"])
    assert code == EXIT_CONFIG
    assert not os.path.exists(out)


def test_config_file_and_flag_precedence(tmp_path):
    config = tmp_path / "cfg"
    config.write_text("epochs = 1\npoints = 20\ntarget = quadratic_sum\nd_latent = 4\n")
    out = str(tmp_path / "prec")
    assert main(["train", "--config", str(config), "--out", out, "--epochs", "0"]) == EXIT_OK
    lines = _read(os.path.join(out, "curve.csv")).strip().splitlines()
    assert len(lines) == 2  # flag epochs=0 wins over file epochs=1


def test_read_config_file_parses_types(tmp_path):
    config = tmp_path / "types.cfg"
    config.write_text("# comment\nn = 3\nlr = 0.5\ntarget = cubic_coupling\nd = 1,2\n")
    values = read_config_file(str(config))
    assert values == {"n": 3, "lr": 0.5, "target": "cubic_coupling", "d": [1, 2]}


def test_verify_passes_with_small_config(tmp_path):
    out = str(tmp_path / "verify")
    code = main(["verify", "--out", out] + FAST_VERIFY)
    assert code == EXIT_OK
    report = _read(os.path.join(out, "verify_report.txt"))
    assert "status=fail" not in report
    assert report.count("name=") == 8
    *timing, total = [line.split() for line in _read(os.path.join(out, "verify_timing.txt")).splitlines()]
    names = [line.split()[0] for line in report.splitlines()]
    assert [fields[0] for fields in timing] == names
    assert all(float(fields[1].removeprefix("seconds=")) >= 0.0 for fields in timing)
    workers = int(total[0].removeprefix("workers="))
    assert all(int(fields[2].removeprefix("worker=")) in range(workers) for fields in timing)
    assert float(total[1].removeprefix("wall_seconds=")) >= 0.0


def test_verify_counts_one_check_in_flight_per_worker(tmp_path, capsys, monkeypatch):
    """100,000 samples need about 1.7 GiB: one check at a time fits the
    budget, two at once do not."""
    need = verify_bytes(VerifyConfig(samples=100_000))
    assert need <= MEMORY_BUDGET_BYTES < 2 * need
    monkeypatch.setattr(parallel, "WORKERS", 2)
    out = tmp_path / "never"
    assert main(["verify", "--samples", "100000", "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.strip().splitlines()) == 1
    assert "on 2 workers" in err


@pytest.mark.parametrize("args", [[], ["--tol", "0"] + FAST_VERIFY], ids=["defaults", "failing"])
def test_verify_writes_the_same_bytes_at_any_worker_count(tmp_path, monkeypatch, args):
    """The report and the witness files, on 1, 2 and 3 worker processes."""
    out = tmp_path / "verify"
    outputs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(parallel, "WORKERS", workers)
        main(["verify", "--out", str(out)] + args)
        timing = _read(out / "verify_timing.txt").splitlines()
        assert timing[-1].startswith(f"workers={workers} wall_seconds="), timing[-1]
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())
                        if path.name != "verify_timing.txt"})
        for path in out.iterdir():
            path.unlink()
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0]) > (1 if args else 0)  # the failing run writes witnesses


# Cases each check runs at the verify defaults: n in {2, 3, 4}, d in {1, 2},
# 20 samples, 20 trials, 3 omega seeds and 20 gradient seeds.
DEFAULT_CASES = {
    "sigma_recovery_standard": 120,
    "sigma_recovery_linformer": 120,
    "sigma_recovery_performer": 360,
    "averaging_attention": 5,       # n in {2, 3, 4, 5, 64}
    "equivariance_models": 100,     # 20 trials of 5 models
    "discrete_exactness": 20,
    "generation_oracle": 3,
    "gradient_check": 20,
}


def test_verify_report_counts_the_cases_of_each_check(tmp_path):
    reports = []
    for run in ("a", "b"):
        out = str(tmp_path / run)
        assert main(["verify", "--out", out]) == EXIT_OK
        reports.append(_read(os.path.join(out, "verify_report.txt")))
    assert reports[0] == reports[1]
    records = [dict(part.split("=", 1) for part in ln.split()) for ln in reports[0].splitlines()]
    assert {r["name"]: int(r["cases"]) for r in records} == DEFAULT_CASES


def test_verify_leaves_out_a_generation_case_with_no_more_draws_than_terms(tmp_path):
    """One sample is 25 draws: enough for the 9 and 23 terms of the d = 1
    cases, not for the 39 of d = 2, n = 2, which any target would pass."""
    out = str(tmp_path / "verify_s1")
    assert main(["verify", "--out", out, "--samples", "1"]) == EXIT_OK
    records = {r["name"]: r for r in (dict(part.split("=", 1) for part in ln.split())
                                      for ln in _read(os.path.join(out, "verify_report.txt")).splitlines())}
    assert (records["generation_oracle"]["status"], records["generation_oracle"]["cases"]) == ("pass", "2")
    none = check_generation_oracle(VerifyConfig(samples=0))
    assert (none.status, none.cases) == ("skip", 0)


def test_verify_reports_skip_for_checks_without_cases(tmp_path):
    # The low-rank checks need n >= 2, so with n = 1 they run no case.
    out = str(tmp_path / "verify_n1")
    assert main(["verify", "--out", out, "--n", "1", "--d", "1"]) == EXIT_OK
    records = [dict(part.split("=", 1) for part in ln.split())
               for ln in _read(os.path.join(out, "verify_report.txt")).splitlines()]
    status = {r["name"]: r["status"] for r in records}
    assert status.pop("sigma_recovery_linformer") == status.pop("sigma_recovery_performer") == "skip"
    assert set(status.values()) == {"pass"}
    assert all((r["cases"] == "0") == (r["status"] == "skip") for r in records)
    assert main(["verify", "--out", out, "--n", "1", "--d", "1", "--tol", "0"]) == EXIT_VERIFY_FAILED


def test_verify_discrete_exactness_passes_at_delta_22(tmp_path):
    # At delta = 22, flooring x * delta would put some anchors c/22 in cell c - 1.
    out = str(tmp_path / "verify_delta")
    assert main(["verify", "--out", out, "--delta", "22"] + FAST_VERIFY) == EXIT_OK
    assert "name=discrete_exactness status=pass" in _read(os.path.join(out, "verify_report.txt"))


SIGMA_CHECKS = {f"sigma_recovery_{v}" for v in ("standard", "linformer", "performer")}


@pytest.mark.parametrize("name,nan_result,failing", [
    ("power_sum_vector", lambda x, basis: np.full((*x.shape[:-2], basis.size), np.nan),
     SIGMA_CHECKS),
    ("gradient_check_once", lambda seed: float("nan"), {"gradient_check"}),
], ids=["power_sum_vector", "gradient_check_once"])
def test_verify_nan_residual_fails(tmp_path, monkeypatch, name, nan_result, failing):
    monkeypatch.setattr(f"sumformer.verify.{name}", nan_result)
    out = str(tmp_path / "verify_nan")
    assert main(["verify", "--out", out] + FAST_VERIFY) == EXIT_VERIFY_FAILED
    records = [dict(part.split("=", 1) for part in ln.split())
               for ln in _read(os.path.join(out, "verify_report.txt")).splitlines()]
    assert {r["name"] for r in records if r["status"] == "fail"} == failing
    assert all(r["max_residual"] == "nan" for r in records if r["name"] in failing)


def _mean_over_tokens(model, x_seqs, y_seqs, grads, work):
    """``loss_and_gradient`` whose backward takes the mean of psi's Sigma
    gradient over a sequence's tokens instead of their sum.  phi's backward
    is linear in that gradient, so this is phi's true gradient over n."""
    loss = loss_and_gradient(model, x_seqs, y_seqs, grads, work)
    for gw, gb in grads[0]:
        gw /= x_seqs.shape[1]
        gb /= x_seqs.shape[1]
    return loss


def test_verify_fails_when_the_training_gradient_averages_over_tokens(tmp_path, monkeypatch):
    monkeypatch.setattr("sumformer.verify.loss_and_gradient", _mean_over_tokens)
    assert gradient_check_once(0) > 1e-5
    out = str(tmp_path / "verify_mean")
    assert main(["verify", "--out", out] + FAST_VERIFY) == EXIT_VERIFY_FAILED
    records = [dict(part.split("=", 1) for part in ln.split())
               for ln in _read(os.path.join(out, "verify_report.txt")).splitlines()]
    assert {r["name"] for r in records if r["status"] == "fail"} == {"gradient_check"}


def test_verify_zero_tolerance_fails(tmp_path):
    out = str(tmp_path / "verify_t0")
    code = main(["verify", "--out", out, "--tol", "0"] + FAST_VERIFY)
    assert code == EXIT_VERIFY_FAILED


def test_verify_has_no_value_scale_flag(tmp_path):
    out = tmp_path / "never"
    with pytest.raises(SystemExit) as exc_info:
        main(["verify", "--out", str(out), "--linformer-wv-scale", "n"])
    assert exc_info.value.code == EXIT_CONFIG
    assert not out.exists()


def test_verify_refuses_a_value_scale_config_key_before_output(tmp_path, capsys):
    config = tmp_path / "old.cfg"
    config.write_text("linformer_wv_scale = k\n")
    out = tmp_path / "never"
    assert main(["verify", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert capsys.readouterr().err == "config error: unknown config file key 'linformer_wv_scale'\n"


def _python_m_sumformer(args, cwd):
    return subprocess.run([sys.executable, "-m", "sumformer", *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
                          timeout=600)


def test_python_m_sumformer_runs_the_cli_and_exits_with_its_code(tmp_path):
    ok = _python_m_sumformer(["verify", "--out", str(tmp_path / "ok")], tmp_path)
    assert ok.returncode == EXIT_OK, ok.stderr
    assert _read(tmp_path / "ok" / "verify_report.txt").count("status=pass") == 8
    bad = _python_m_sumformer(["verify", "--out", str(tmp_path / "bad"), "--samples", "0"], tmp_path)
    assert bad.returncode == EXIT_CONFIG
    assert bad.stderr.startswith("config error:") and len(bad.stderr.strip().splitlines()) == 1
    assert not (tmp_path / "bad").exists()
