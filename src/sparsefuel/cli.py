"""Command-line front end.

Subcommands: run (one arm, write the metrics CSV), sweep (repeat run over a
list of sparsity levels, suffixing the CSV name), calibrate-tau (print the
recommended similarity threshold), inspect-model (describe a serialized model
checkpoint).  Exit codes: 0 success, 1 config/input error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .compression import (
    SerializationError,
    from_bytes,
    nonzero_macs,
    payload_size,
    serialized_size,
    tensor_shapes,
)
from .harness import (
    ConfigError,
    calibrate_tau,
    load_config,
    run_experiment_result,
    save_checkpoints,
    write_metrics_csv,
)
from .protocol import ARMS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsefuel",
        description="Deterministic simulator for proximity-based self-federated learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment arm and write the metrics CSV")
    run_p.add_argument("--config", required=True, help="path to the experiment config")
    run_p.add_argument("--arm", default="sparsefuel", choices=ARMS)
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help="override the CSV output path")

    sweep_p = sub.add_parser("sweep", help="run the same config across sparsity levels")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--arm", default="sparsefuel", choices=ARMS)
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument(
        "--psi",
        default="0,0.3,0.5,0.7,0.9",
        help="comma-separated sparsity levels (default 0,0.3,0.5,0.7,0.9)",
    )

    cal_p = sub.add_parser("calibrate-tau", help="print the recommended similarity threshold")
    cal_p.add_argument("--config", required=True)
    cal_p.add_argument("--seed", type=int, default=None)
    cal_p.add_argument("--warmup", type=int, default=3, help="local-only rounds before measuring")

    ins_p = sub.add_parser("inspect-model", help="describe a serialized model file")
    ins_p.add_argument("path", help="path to a .spfl checkpoint")
    return parser


def _check_csv_path(path: str) -> None:
    """Refuse an output CSV path that cannot be written as a file, before
    any experiment runs."""
    if os.path.isdir(path):
        raise ConfigError(f"output path {path} is a directory")
    parent = os.path.dirname(path)
    if parent and not os.path.isdir(parent):
        raise ConfigError(f"output directory {parent} does not exist")


def _check_checkpoint_dir(path: str) -> None:
    """Refuse a checkpoint directory that exists as something else, or
    under a path that does, before any experiment runs."""
    existing = path
    while existing and not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        raise ConfigError(f"checkpoint_dir {path}: {existing} is not a directory")


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out = args.out if args.out is not None else cfg.output.csv
    _check_csv_path(out)
    if cfg.output.checkpoint_dir:
        _check_checkpoint_dir(cfg.output.checkpoint_dir)
    result = run_experiment_result(cfg, arm=args.arm, seed=args.seed)
    write_metrics_csv(result.records, out)
    if cfg.output.checkpoint_dir:
        for path in save_checkpoints(result, cfg.output.checkpoint_dir):
            print(f"wrote checkpoint {path}")
    final = result.records[-1]
    print(
        f"wrote {out}: {len(result.records)} rounds, arm={args.arm}, "
        f"final federations={final.federation_count}, objective={final.objective:.6g}"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    try:
        psis = [float(p) for p in args.psi.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse --psi list: {args.psi!r}") from None
    if not psis:
        raise ConfigError("--psi list is empty")
    for psi in psis:
        if not 0.0 <= psi <= 1.0:
            raise ConfigError(f"psi must be in [0, 1], got {psi}")
    base, ext = os.path.splitext(cfg.output.csv)
    outs = [f"{base}_psi{psi:g}{ext or '.csv'}" for psi in psis]
    for k, out in enumerate(outs):
        if out in outs[:k]:
            raise ConfigError(f"--psi list writes {out} more than once")
        _check_csv_path(out)
    for psi, out in zip(psis, outs):
        swept = dataclasses.replace(
            cfg, protocol=dataclasses.replace(cfg.protocol, psi=psi)
        )
        result = run_experiment_result(swept, arm=args.arm, seed=args.seed)
        write_metrics_csv(result.records, out)
        final = result.records[-1]
        print(
            f"psi={psi:g}: wrote {out} "
            f"(final federations={final.federation_count}, objective={final.objective:.6g})"
        )
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.warmup < 0:
        raise ConfigError("--warmup must be >= 0")
    result = calibrate_tau(cfg, seed=args.seed, warmup_rounds=args.warmup)
    print(
        f"intra-region median ds = {result.intra_median:.6g} over {result.intra_edges} edges"
    )
    print(
        f"inter-region median ds = {result.inter_median:.6g} over {result.inter_edges} edges"
    )
    print(f"recommended tau = {result.tau:.6g}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    if not os.path.isfile(args.path):
        raise ConfigError(f"model file not found: {args.path}")
    with open(args.path, "rb") as f:
        blob = f.read()
    try:
        model = from_bytes(blob)
    except SerializationError as exc:
        raise ConfigError(f"{args.path}: {exc}") from None
    shapes = tensor_shapes(model)
    labels = [f"{rows}x{cols}" if cols else f"{rows}" for rows, cols in shapes]
    print(f"kind: {model.kind}")
    print(f"tensors: {len(labels)} ({', '.join(labels)})")
    print(f"parameters: {sum(rows * (cols or 1) for rows, cols in shapes)}")
    print(f"serialized bytes: {serialized_size(model)} (file: {len(blob)})")
    print(f"payload bytes: {payload_size(model)}")
    print(f"nonzero macs: {nonzero_macs(model)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "calibrate-tau": _cmd_calibrate,
        "inspect-model": _cmd_inspect,
    }
    try:
        # a failure is one line below, not numpy's warnings first (lanes copy this context)
        with np.errstate(all="ignore"):
            return handlers[args.command](args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to exit code 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
