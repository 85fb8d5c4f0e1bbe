"""Command-line interface: verify | train | sweep | bench.

Each command's keys form one table, ``SCHEMA[command]``.  It gives every
key its default, its kind, its bounds, whether it takes a comma list and
which strings it allows.  The table makes the flags (``--d-latent`` sets
``d_latent``), and it checks every value given in a ``key = value`` file
(--config) or as a flag.  Values merge as defaults < file < flags.  An
unknown key or a bad value is rejected before any output is written.
Exit codes: 0 success, 2 config error, 3 verification failure, 4
training divergence.

This module writes every run artifact, each through ``_write_lines``; the
library modules only compute the numbers that go into them.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import NamedTuple

import numpy as np

from .attention import HEADS, head_class, mac_count
from .errors import BudgetError, ConfigError, ContractError, TrainingDivergedError
from .linalg import BUILD_BUDGET, require_within_budget
from .targets import TARGETS, get_target
from .train import SPLIT_FRACTION, OptimizerConfig
from .verify import VerifyConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY_FAILED = 3
EXIT_DIVERGED = 4


def _parse_value(raw: str):
    raw = raw.strip()
    if "," in raw:
        return [_parse_value(part) for part in raw.split(",")]
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def read_config_file(path: str) -> dict:
    values: dict = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = stripped.split("=", 1)
        values[key.strip()] = _parse_value(raw)
    return values


class Key(NamedTuple):
    """One config key.

    ``kind`` is int, float (a finite number) or str.  Integer bounds are
    inclusive and number bounds exclusive.  ``many`` admits a comma list.
    A string in ``choices`` is accepted whatever the kind; a str key
    without choices takes any single value.
    """

    default: object
    kind: type = int
    low: float = -math.inf
    high: float = math.inf
    many: bool = False
    choices: tuple = ()


OUT = Key("out", str)
_OPT, _VERIFY = OptimizerConfig(), VerifyConfig()
TRAINING = {
    "target": Key("cubic_coupling", str, choices=tuple(TARGETS)),
    "n": Key(3, low=1),
    "epochs": Key(200, low=0),
    "points": Key(2000, low=2),
    "lr": Key(_OPT.lr, float),
    "batch_size": Key(_OPT.batch_size, low=1, choices=("full",)),
}
SCHEMA = {
    "verify": {
        "n": Key(_VERIFY.n_list, low=1, many=True),
        "d": Key(_VERIFY.d_list, low=1, many=True),
        "samples": Key(_VERIFY.samples, low=1),
        "trials": Key(_VERIFY.trials, low=0),
        "omega_seeds": Key(_VERIFY.omega_seeds, low=0),
        "gradient_seeds": Key(_VERIFY.gradient_seeds, low=0),
        "tol": Key(_VERIFY.tol, float),
        # The discrete check tabulates n=2, d=1: delta**2 keys, each holding a
        # delta-long histogram, within build_discrete_sumformer's BUILD_BUDGET.
        "delta": Key(_VERIFY.delta, low=1, high=round(BUILD_BUDGET ** (1 / 3))),
        "out": OUT,
    },
    "train": {
        **TRAINING,
        "d": Key(2, low=1),
        "d_latent": Key(32, low=1),
        "seed": Key(0, low=0),
        "split_fraction": Key(SPLIT_FRACTION, float, low=0.0, high=1.0),
        "out": OUT,
    },
    "sweep": {
        **TRAINING,
        "d": Key([1, 2], low=1, many=True),
        "d_latent": Key([2, 8, 32], low=1, many=True),
        "seed": Key([0, 1, 2], low=0, many=True),
        "out": OUT,
    },
    "bench": {
        "n": Key([32, 64, 128, 256], low=1, many=True),
        "d_model": Key(4, low=1),
        "k": Key(4, low=1),
        "variant": Key(list(HEADS), str, many=True, choices=tuple(HEADS)),
        "out": OUT,
    },
}


def _listed(value) -> list:
    return value if isinstance(value, list) else [value]


def _describe(spec: Key) -> str:
    """What ``spec`` admits, in words (flag help and error messages)."""
    if spec.kind is str:
        text = "one of " + ", ".join(spec.choices) if spec.choices else "a string"
    else:
        text = "an integer" if spec.kind is int else "a finite number"
        if spec.high < math.inf:
            ends = "[]" if spec.kind is int else "()"
            text += f" in {ends[0]}{spec.low}, {spec.high}{ends[1]}"
        elif spec.low > -math.inf:
            text += f" {'>=' if spec.kind is int else '>'} {spec.low}"
        text += "".join(f" or {choice}" for choice in spec.choices)
    return text + (", or a comma list of these" if spec.many else "")


def _admits(spec: Key, v) -> bool:
    if isinstance(v, list):
        return False
    if v in spec.choices or (spec.kind is str and not spec.choices):
        return True
    if spec.kind is int:
        return isinstance(v, int) and spec.low <= v <= spec.high
    # The largest float bounds abs(v): that rejects nan, +-inf and integers beyond any float.
    return (spec.kind is float and isinstance(v, (int, float))
            and abs(v) <= sys.float_info.max and spec.low < v < spec.high)


def _check(key: str, spec: Key, value):
    """``value``, a scalar or a comma list as read, if ``spec`` admits it."""
    if not all(_admits(spec, v) for v in (_listed(value) if spec.many else [value])):
        raise ConfigError(f"{key} must be {_describe(spec)}, got {value!r}")
    return value


def resolve(command: str, file_values: dict, flag_values: dict) -> dict:
    """Defaults < file < flags; every given value is checked against the table."""
    keys = SCHEMA[command]
    config = {key: spec.default for key, spec in keys.items()}
    for source, values in (("config file", file_values), ("flag", flag_values)):
        for key, value in values.items():
            if key not in keys:
                raise ConfigError(f"unknown {source} key {key!r}")
            config[key] = _check(key, keys[key], value)
    return config


def _write_lines(path: str, lines) -> None:
    """Write ``path`` as ``lines``, each ended by a newline."""
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in lines)


def _ensure_out(config: dict) -> str:
    out = str(config["out"])
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out!r}: {exc.strerror}") from exc
    return out


def _refuse_over_budget(need: int, keys: str):
    try:
        require_within_budget(need, keys)
    except BudgetError as exc:
        raise ConfigError(str(exc)) from exc


def _check_memory(config: dict, batch_size: int | None):
    """Refuse a train or sweep config whose largest cell would not fit the budget."""
    from .train import training_bytes

    # The dataset alone, in integers: training_bytes takes a float fraction
    # of points, which overflows for a points value past the float range.
    dataset = max(4 * config["points"] * config["n"] * d * 8 for d in _listed(config["d"]))
    _refuse_over_budget(dataset, "n, d and points")
    need = max(
        training_bytes(config["n"], d, d_latent, config["points"],
                       config.get("split_fraction", SPLIT_FRACTION), batch_size)
        for d in _listed(config["d"]) for d_latent in _listed(config["d_latent"])
    )
    _refuse_over_budget(need, "n, d, d_latent and points")


def cmd_verify(config: dict) -> int:
    """Run the oracle and invariant suites."""
    from .parallel import process_count
    from .verify import ALL_CHECKS, run_verification, verify_bytes

    vconfig = VerifyConfig(
        n_list=_listed(config["n"]),
        d_list=_listed(config["d"]),
        **{key: value for key, value in config.items() if key not in ("n", "d", "out")},
    )
    workers = process_count(len(ALL_CHECKS))  # each worker runs one check at a time
    _refuse_over_budget(verify_bytes(vconfig) * workers,
                        "n, d and samples" if workers == 1 else f"n, d and samples on {workers} workers")
    out = _ensure_out(config)
    start = time.perf_counter()
    records = run_verification(vconfig)
    wall_seconds = time.perf_counter() - start
    report_lines = []
    for r in records:
        witness_path = "-"
        if r.witness is not None:  # one row of np.savetxt's default format per witness row
            witness_path = os.path.join(out, f"witness_{r.name}.txt")
            _write_lines(witness_path, (" ".join(f"{v:.18e}" for v in row)
                                        for row in np.atleast_2d(r.witness)))
        report_lines.append(f"name={r.name} status={r.status} max_residual={r.max_residual!r} "
                      f"cases={r.cases} witness_path={witness_path}")
    _write_lines(os.path.join(out, "verify_report.txt"), report_lines)
    # Wall seconds, measured in the worker that ran each check, are kept
    # apart from the report, which is byte-identical across reruns and
    # worker counts.
    _write_lines(os.path.join(out, "verify_timing.txt"), [
        *(f"name={r.name} seconds={r.seconds:.6f} worker={r.worker}" for r in records),
        f"workers={workers} wall_seconds={wall_seconds:.6f}",
    ])
    for r in records:
        print(f"{r.name}: {r.status} (max residual {r.max_residual:.3e})")
    return EXIT_VERIFY_FAILED if any(r.status == "fail" for r in records) else EXIT_OK


def _start_training(config: dict):
    """The output directory and Adam settings of a train or sweep run within
    the memory budget, after writing its ``manifest.txt``: every key but
    ``out``, with ``lr`` and ``batch_size`` as the run uses them, and Adam's
    betas and eps, one sorted key per line (no paths or times)."""
    from .train import BETA1, BETA2, EPS

    batch_size = config["batch_size"]
    opt = OptimizerConfig(lr=float(config["lr"]), batch_size=None if batch_size == "full" else batch_size)
    _check_memory(config, opt.batch_size)
    out = _ensure_out(config)
    settings = {**{key: value for key, value in config.items() if key != "out"},
                "lr": opt.lr, "batch_size": opt.batch_size, "beta1": BETA1, "beta2": BETA2, "eps": EPS}
    _write_lines(os.path.join(out, "manifest.txt"),
                 [f"{key} = {settings[key]!r}" for key in sorted(settings)])
    return out, opt


def _curve_lines(report) -> list[str]:
    """Columns epoch,split,metric,value: validation rel-L2 per record, then train MSE per epoch."""
    return ["epoch,split,metric,value",
            *(f"{epoch},val,rel_l2,{err!r}" for epoch, err in report.val_errors),
            *(f"{epoch},train,mse,{loss!r}" for epoch, loss in enumerate(report.train_losses, start=1))]


def cmd_train(config: dict) -> int:
    """Train one model, write the curve CSV."""
    from .train import train_cell

    out, opt = _start_training(config)
    try:
        report = train_cell(
            get_target(config["target"]), config["n"], config["d"], config["d_latent"],
            config["epochs"], config["points"], config["split_fraction"], config["seed"], opt,
        )
    except TrainingDivergedError as exc:
        if exc.report is not None:
            _write_lines(os.path.join(out, "curve.csv"), _curve_lines(exc.report))
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    _write_lines(os.path.join(out, "curve.csv"), _curve_lines(report))
    print(f"best validation rel_l2 = {report.best_validation_error!r}")
    return EXIT_OK


def cmd_sweep(config: dict) -> int:
    """Latent-dimension sweep, write the sweep CSV."""
    from .train import latent_sweep

    out, opt = _start_training(config)
    try:
        rows = latent_sweep(
            get_target(config["target"]), config["n"], _listed(config["d"]),
            _listed(config["d_latent"]), config["epochs"], config["points"],
            _listed(config["seed"]), opt,
        )
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    _write_lines(os.path.join(out, "sweep.csv"), [
        "d,d_prime,seed,best_val_err,dprime_formula",
        *(f"{r.d},{r.d_prime},{r.seed},{r.best_val_err!r},{r.dprime_formula}" for r in rows),
    ])
    print(f"wrote {len(rows)} sweep rows")
    return EXIT_OK


def cmd_bench(config: dict) -> int:
    """Multiply-accumulate scaling CSV."""
    d_model = config["d_model"]
    lines = ["variant,n,d_model,k,macs"]
    try:
        for variant in _listed(config["variant"]):
            k = config["k"] if head_class(variant).needs_k else None
            for n in _listed(config["n"]):
                macs = mac_count(variant, n, d_model, k)
                lines.append(f"{variant},{n},{d_model},{'' if k is None else k},{macs}")
    except ContractError as exc:
        raise ConfigError(str(exc)) from exc
    path = os.path.join(_ensure_out(config), "bench.csv")
    _write_lines(path, lines)
    print(f"wrote {path}")
    return EXIT_OK


COMMANDS = {
    "verify": cmd_verify,
    "train": cmd_train,
    "sweep": cmd_sweep,
    "bench": cmd_bench,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sumformer")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, keys in SCHEMA.items():
        p = sub.add_parser(command, help=COMMANDS[command].__doc__)
        p.add_argument("--config", help="key = value config file")
        for key, spec in keys.items():
            default = ",".join(map(str, _listed(spec.default)))
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           help=f"{_describe(spec)} (default {default})")
    return parser


def main(argv=None) -> int:
    flags = vars(build_parser().parse_args(argv))
    command, config_path = flags.pop("command"), flags.pop("config")
    try:
        file_values = read_config_file(config_path) if config_path else {}
        flag_values = {key: _parse_value(raw) for key, raw in flags.items() if raw is not None}
        return COMMANDS[command](resolve(command, file_values, flag_values))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
