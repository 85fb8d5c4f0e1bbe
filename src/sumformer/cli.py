"""Command-line interface: verify | train | sweep | bench.

Configuration comes from defaults, overridden by a ``key = value`` file
(--config), overridden by flags.  Unknown config keys are rejected
before any output is written.  Exit codes: 0 success, 2 config error,
3 verification failure, 4 training divergence.
"""

from __future__ import annotations

import argparse
import os
import sys

from .attention import HEADS, head_class, mac_count
from .errors import ConfigError, ContractError, TrainingDivergedError

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


def _as_list(value) -> list:
    return value if isinstance(value, list) else [value]


def _as_int_list(value, key: str) -> list[int]:
    out = []
    for v in _as_list(value):
        if not isinstance(v, int):
            raise ConfigError(f"{key} must be an integer or list of integers")
        out.append(v)
    return out


def _ints(config: dict, key: str, low: int) -> list[int]:
    """config[key] as a list of integers, each at least ``low``."""
    values = _as_int_list(config[key], key)
    if any(v < low for v in values):
        raise ConfigError(f"{key} must be >= {low}, got {config[key]!r}")
    return values


def _int(config: dict, key: str, low: int) -> int:
    """config[key] as one integer, at least ``low``."""
    if isinstance(config[key], list):
        raise ConfigError(f"{key} must be a single integer, got {config[key]!r}")
    return _ints(config, key, low)[0]


def _number(config: dict, key: str) -> float:
    value = config[key]
    if not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _optimizer_config(config: dict):
    from .train import OptimizerConfig

    full = config["batch_size"] in (None, "full")
    return OptimizerConfig(
        lr=_number(config, "lr"),
        batch_size=None if full else _int(config, "batch_size", 1),
    )


def merge_config(defaults: dict, file_values: dict, flag_values: dict) -> dict:
    config = dict(defaults)
    for source, values in (("config file", file_values), ("flag", flag_values)):
        for key, value in values.items():
            if value is None:
                continue
            if key not in defaults:
                raise ConfigError(f"unknown {source} key {key!r}")
            config[key] = value
    return config


def _add_common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", default=None, help="key = value config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", default=None, help="seed or comma list of seeds")


DEFAULTS = {
    "verify": {
        "n": [2, 3, 4],
        "d": [1, 2],
        "samples": 20,
        "trials": 20,
        "omega_seeds": 3,
        "gradient_seeds": 20,
        "tol": None,
        "linformer_wv_scale": "k",
        "delta": 4,
        "out": "out",
    },
    "train": {
        "target": "cubic_coupling",
        "n": 3,
        "d": 2,
        "d_latent": 32,
        "epochs": 200,
        "points": 2000,
        "seed": 0,
        "lr": 1e-3,
        "batch_size": 100,
        "split_fraction": 0.8,
        "out": "out",
    },
    "sweep": {
        "target": "cubic_coupling",
        "n": 3,
        "d": [1, 2],
        "d_latent": [2, 8, 32],
        "epochs": 200,
        "points": 2000,
        "seed": [0, 1, 2],
        "lr": 1e-3,
        "batch_size": 100,
        "out": "out",
    },
    "bench": {
        "n": [32, 64, 128, 256],
        "d_model": 4,
        "k": 4,
        "variant": list(HEADS),
        "out": "out",
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sumformer")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the oracle and invariant suites")
    _add_common_flags(p_verify)
    p_verify.add_argument("--n", default=None)
    p_verify.add_argument("--d", default=None)
    p_verify.add_argument("--delta", type=int, default=None)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--linformer-wv-scale", dest="linformer_wv_scale", default=None)

    p_train = sub.add_parser("train", help="train one model, write the curve CSV")
    _add_common_flags(p_train)
    p_train.add_argument("--target", default=None)
    p_train.add_argument("--n", default=None)
    p_train.add_argument("--d", default=None)
    p_train.add_argument("--d-latent", dest="d_latent", default=None)
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.add_argument("--points", type=int, default=None)

    p_sweep = sub.add_parser("sweep", help="latent-dimension sweep, write the sweep CSV")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--target", default=None)
    p_sweep.add_argument("--n", default=None)
    p_sweep.add_argument("--d", default=None)
    p_sweep.add_argument("--d-latent", dest="d_latent", default=None)
    p_sweep.add_argument("--epochs", type=int, default=None)
    p_sweep.add_argument("--points", type=int, default=None)

    p_bench = sub.add_parser("bench", help="multiply-accumulate scaling CSV")
    _add_common_flags(p_bench)
    p_bench.add_argument("--n", default=None)
    p_bench.add_argument("--k", type=int, default=None)
    p_bench.add_argument("--d-model", dest="d_model", type=int, default=None)
    p_bench.add_argument("--variant", default=None, choices=list(HEADS))

    return parser


def _resolve(args: argparse.Namespace, command: str) -> dict:
    flag_values = {}
    for key in DEFAULTS[command]:
        if hasattr(args, key):
            value = getattr(args, key)
            if isinstance(value, str):
                value = _parse_value(value)
            flag_values[key] = value
    file_values = read_config_file(args.config) if args.config else {}
    return merge_config(DEFAULTS[command], file_values, flag_values)


def _ensure_out(config: dict) -> str:
    out = str(config["out"])
    os.makedirs(out, exist_ok=True)
    return out


def cmd_verify(config: dict) -> int:
    from .verify import VerifyConfig, run_verification, write_report

    vconfig = VerifyConfig(
        n_list=_as_int_list(config["n"], "n"),
        d_list=_as_int_list(config["d"], "d"),
        samples=int(config["samples"]),
        trials=int(config["trials"]),
        omega_seeds=int(config["omega_seeds"]),
        gradient_seeds=int(config["gradient_seeds"]),
        tol=None if config["tol"] is None else float(config["tol"]),
        linformer_wv_scale=str(config["linformer_wv_scale"]),
        delta=int(config["delta"]),
    )
    if vconfig.linformer_wv_scale not in ("k", "n"):
        raise ConfigError("linformer_wv_scale must be 'k' or 'n'")
    out = _ensure_out(config)
    records = run_verification(vconfig, out)
    write_report(os.path.join(out, "verify_report.txt"), records)
    for r in records:
        print(f"{r.name}: {r.status} (max residual {r.max_residual:.3e})")
    return EXIT_VERIFY_FAILED if any(r.status == "fail" for r in records) else EXIT_OK


def cmd_train(config: dict) -> int:
    from .model import build_mlp_sumformer
    from .targets import get_target
    from .train import generate_dataset, train, write_curve_csv, write_manifest

    target = get_target(str(config["target"]))
    d = _int(config, "d", 1)
    d_latent = _int(config, "d_latent", 1)
    epochs = _int(config, "epochs", 0)
    seed = _ints(config, "seed", 0)[0]
    split_fraction = _number(config, "split_fraction")
    if not 0.0 < split_fraction < 1.0:
        raise ConfigError(f"split_fraction must be in (0, 1), got {split_fraction!r}")
    opt = _optimizer_config(config)
    data = generate_dataset(
        target, _int(config, "n", 1), d, _int(config, "points", 2), split_fraction, seed,
    )
    model = build_mlp_sumformer(d, d_latent, seed)
    out = _ensure_out(config)
    try:
        report = train(model, data, epochs, opt, seed)
    except TrainingDivergedError as exc:
        if exc.report is not None:
            write_curve_csv(os.path.join(out, "curve.csv"), exc.report)
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    write_curve_csv(os.path.join(out, "curve.csv"), report)
    write_manifest(os.path.join(out, "manifest.txt"), report.config)
    print(f"best validation rel_l2 = {report.best_validation_error!r}")
    return EXIT_OK


def cmd_sweep(config: dict) -> int:
    from .targets import get_target
    from .train import latent_sweep, write_manifest, write_sweep_csv

    target = get_target(str(config["target"]))
    opt = _optimizer_config(config)
    n = _int(config, "n", 1)
    d_list = _ints(config, "d", 1)
    dprime_list = _ints(config, "d_latent", 1)
    epochs = _int(config, "epochs", 0)
    points = _int(config, "points", 2)
    seeds = _ints(config, "seed", 0)
    out = _ensure_out(config)
    try:
        rows = latent_sweep(target, n, d_list, dprime_list, epochs, points, seeds, opt)
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    write_sweep_csv(os.path.join(out, "sweep.csv"), rows)
    manifest = dict(config)
    write_manifest(os.path.join(out, "manifest.txt"), manifest)
    print(f"wrote {len(rows)} sweep rows")
    return EXIT_OK


def cmd_bench(config: dict) -> int:
    variants = _as_list(config["variant"])
    n_list = _ints(config, "n", 1)
    d_model = _int(config, "d_model", 1)
    k_value = _int(config, "k", 1)
    lines = ["variant,n,d_model,k,macs"]
    try:
        for variant in variants:
            k = k_value if head_class(variant).needs_k else None
            for n in n_list:
                macs = mac_count(variant, n, d_model, k)
                lines.append(f"{variant},{n},{d_model},{'' if k is None else k},{macs}")
    except ContractError as exc:
        raise ConfigError(str(exc)) from exc
    path = os.path.join(_ensure_out(config), "bench.csv")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


COMMANDS = {
    "verify": cmd_verify,
    "train": cmd_train,
    "sweep": cmd_sweep,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve(args, args.command)
        return COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
