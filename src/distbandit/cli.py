"""Command-line experiment runner.

Parses a config file (or the bundled figure-1 preset), runs the Monte Carlo
simulation for every strategy on common random numbers (the strategies as one
batch, see engine.run_strategies), and writes one CSV per strategy plus a
combined long-format CSV for log-x plotting. Exit codes:
0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .analysis import (
    BOUND_ONESHOT,
    BOUND_SPARSE,
    _write_csv,
    bound_report,
    compare,
    format_comparison,
)
from .config import ConfigError, ExperimentConfig, experiment_runs, figure1_preset, parse_config
from .engine import RunAggregate, RunConfig, run_strategies
from .policies import DKLUCB
from .schedule import EXPLICIT, ONESHOT

_STRATEGY_HEADER = ["t", "arm", "mean_pulls", "stderr", "regret"]


def _aggregate_rows(name: str | None, cfg: RunConfig, agg: RunAggregate):
    """CSV rows for one strategy: per checkpoint, one row per arm (1-based),
    each carrying that checkpoint's regret."""
    for j, t in enumerate(agg.checkpoints):
        for a in range(cfg.arm_model.k):
            row = [
                t,
                a + 1,
                repr(float(agg.mean_counts[j, a])),
                repr(float(agg.stderr[j, a])),
                repr(float(agg.regret[j])),
            ]
            yield row if name is None else [name] + row


def _print_bounds(name: str, cfg: RunConfig, agg: RunAggregate) -> None:
    schedule = cfg.schedule
    if schedule.kind == EXPLICIT:
        print(f"[{name}] bounds: n/a (finite set)")
        return
    if schedule.kind == ONESHOT:
        kind, alpha = BOUND_ONESHOT, 1.0
    elif cfg.policy.rule == DKLUCB:
        kind, alpha = BOUND_SPARSE, cfg.policy.alpha
    else:
        kind, alpha = BOUND_SPARSE, schedule.density()
    try:
        report = bound_report(cfg.arm_model, kind, cfg.players, alpha, cfg.checkpoints)
    except ValueError as exc:
        print(f"[{name}] bounds: n/a ({exc})")
        return
    print(f"[{name}]")
    print(format_comparison(report, compare(agg, report)))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distbandit",
        description="Simulate multi-player bandit experiments with scheduled "
        "communication rounds and write plot-ready CSV summaries.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", metavar="PATH", help="experiment config file")
    source.add_argument(
        "--preset", choices=["figure1"], help="run a bundled experiment preset"
    )
    parser.add_argument(
        "--replications", type=int, metavar="N", help="override the replication count"
    )
    parser.add_argument("--seed", type=int, metavar="S", help="override the base seed")
    parser.add_argument(
        "--out", metavar="DIR", help="output directory (default: config `out` or '.')"
    )
    parser.add_argument(
        "--bounds",
        action="store_true",
        help="print empirical-vs-theoretical comparison tables",
    )
    return parser


def _load_config(args) -> ExperimentConfig:
    if args.preset:
        cfg = figure1_preset()
    else:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError([f"cannot read config {args.config!r}: {exc}"]) from exc
        cfg = parse_config(text)
    overrides = {}
    if args.replications is not None:
        overrides["replications"] = args.replications
    if args.seed is not None:
        overrides["seed"] = args.seed
    return replace(
        cfg,
        runs=tuple((name, replace(run, **overrides)) for name, run in cfg.runs),
        bounds=cfg.bounds or args.bounds,
        out=cfg.out if args.out is None else args.out,
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        runs = experiment_runs(cfg)
    except ValueError as exc:
        for line in exc.errors if isinstance(exc, ConfigError) else [str(exc)]:
            print(f"config error: {line}", file=sys.stderr)
        return 2

    out_dir = cfg.out or "."
    where = ""  # the strategies being run or reported, for error messages
    try:
        os.makedirs(out_dir, exist_ok=True)
        names = [name for name, _ in runs]
        try:
            aggs = run_strategies([run_cfg for _, run_cfg in runs])
        except Exception as exc:
            failed = getattr(exc, "strategy", None)
            failed = [failed] if failed is not None else getattr(exc, "strategies", ())
            if failed:
                where = "[" + ",".join(names[i] for i in failed) + "] "
            raise
        results = [(name, run_cfg, agg) for (name, run_cfg), agg in zip(runs, aggs)]
        for name, run_cfg, agg in results:
            where = f"[{name}] "
            path = os.path.join(out_dir, f"{name}.csv")
            _write_csv(path, _STRATEGY_HEADER, _aggregate_rows(None, run_cfg, agg))
            print(f"wrote {path}")
        where = ""
        combined = os.path.join(out_dir, "combined.csv")
        _write_csv(
            combined,
            ["strategy"] + _STRATEGY_HEADER,
            (
                row
                for name, run_cfg, agg in results
                for row in _aggregate_rows(name, run_cfg, agg)
            ),
        )
        print(f"wrote {combined}")
        if cfg.bounds:
            for name, run_cfg, agg in results:
                where = f"[{name}] "
                _print_bounds(name, run_cfg, agg)
    except OSError as exc:
        target = getattr(exc, "filename", None) or out_dir
        print(f"error writing {target}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # simulation failures (invariants, memory, ...)
        # imported only here: at module level it adds about 0.5 MB of
        # resident memory to every run, failed or not
        import logging

        logging.getLogger(__name__).debug("%srun failed", where, exc_info=True)
        print(f"error: {where}{exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
