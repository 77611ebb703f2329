"""Command-line entry points: run experiments, inspect dataset stats, sweep a parameter.

Exit codes: 0 on success, 2 on configuration errors (a config file that
cannot be read among them) and on output that cannot be written, 3 on data
validation failures (a manifest, edge or feature file that cannot be read
among them).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .data import DatasetManifest, DataValidationError, load_dataset
from .experiment import (
    _CONFIG_KEYS,
    ConfigError,
    _read_setting,
    emit_results,
    parse_config,
    run_experiment,
)
from .fairness import alpha_diagnostics
from .graph import degree_stats


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairwipe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment described by a config file")
    run.add_argument("--config", required=True, help="key = value config file")
    run.add_argument("--out", default=None, help="write results to this path")
    run.add_argument("--format", choices=("csv", "json"), default="csv")

    stats = sub.add_parser("stats", help="load a dataset and print its statistics")
    stats.add_argument("--manifest", required=True, help="dataset manifest (JSON)")

    sweep = sub.add_parser("sweep", help="re-run an experiment across values of one setting")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--param", required=True, help="config key to vary (e.g. hops)")
    sweep.add_argument("--values", required=True, help="comma-separated values")
    sweep.add_argument("--out", default=None, help="base output path; one file per value")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _cmd_run(args) -> int:
    config = parse_config(args.config)
    rows = run_experiment(config)
    if not rows:
        raise ConfigError("every seed failed; no result rows to emit")
    text = emit_results(rows, format=args.format, path=args.out)
    if args.out:
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_stats(args) -> int:
    manifest = DatasetManifest.from_json(args.manifest)
    dataset = load_dataset(manifest)
    stats = degree_stats(dataset)
    try:
        alpha1, alpha2 = alpha_diagnostics(dataset)
        alphas = (f"{alpha1:.4f}", f"{alpha2:.4f}")
    except ValueError as exc:
        alphas = ("undefined", f"undefined ({exc})")
    print(f"dataset:      {manifest.name}")
    print(f"nodes:        {dataset.n_nodes}")
    print(f"edges:        {dataset.n_edges}")
    print(f"features:     {dataset.n_features}")
    print(f"group sizes:  |S0|={stats.group_sizes[0]}  |S1|={stats.group_sizes[1]}")
    print(f"boundary:     |S0x|={stats.boundary_sizes[0]}  |S1x|={stats.boundary_sizes[1]}")
    print(f"inter edges:  {stats.inter_edges}")
    print(f"intra edges:  {stats.intra_edges}")
    print(f"alpha1:       {alphas[0]}")
    print(f"alpha2:       {alphas[1]}")
    return 0


def _cmd_sweep(args) -> int:
    config = parse_config(args.config)
    if args.param not in _CONFIG_KEYS or args.param in ("manifest", "seeds"):
        raise ConfigError(f"cannot sweep over {args.param!r}")
    field = _CONFIG_KEYS[args.param].name
    # The manifest cannot be swept: its files are parsed and validated once.
    dataset = name = None
    if config.manifest is not None:
        manifest = DatasetManifest.from_json(config.manifest)
        dataset, name = load_dataset(manifest), manifest.name
    for raw in args.values.split(","):
        raw = raw.strip()
        try:
            variant = replace(config, **{field: _read_setting(args.param, raw)})
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad sweep value {raw!r} for {args.param}: {exc}")
        rows = run_experiment(variant, dataset, name)
        if not rows:
            raise ConfigError(f"every seed failed for {field}={raw}; no result rows to emit")
        out = None
        if args.out:
            base = Path(args.out)
            out = base.with_name(f"{base.stem}.{field}-{raw}{base.suffix}")
        emit_results(rows, format=args.format, path=out)
        summary = [r for r in rows if r.aggregate == "mean"]
        for row in summary:
            print(
                f"{field}={raw} arm={row.arm}: accuracy={row.accuracy:.4f} "
                f"delta_sp={row.delta_sp:.4f} delta_eo={row.delta_eo:.4f}"
            )
        if out:
            print(f"{field}={raw}: wrote {len(rows)} rows to {out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "stats": _cmd_stats, "sweep": _cmd_sweep}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataValidationError as exc:
        print(f"data validation error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
