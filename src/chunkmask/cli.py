"""Command-line entry point.

Subcommands: train, analyze, allocate, sweep-budget, verify.
Exit codes: 0 success, 1 invalid input, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .allocation import (PhaseStats, estimator_variance, integerize, min_variance,
                         neyman_allocation, speedup_ratio)
from .analysis import analyze, sweep_budget
from .phases import PHASES, phase_dict
from .toyworld import ToyTaskSpec
from .traces import TraceFormatError, read_traces
from .trainer import TrainConfig, final_success, run_seeds, write_metrics_csv
from .verify import run_checks

_CLI_MODES = {"pcm": "pcm", "vanilla": "vanilla",
              "random-mask": "random_mask", "full-mask": "full_mask"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chunkmask",
        description="Variance-aware gradient budgeting for chunked "
                    "group-relative policy optimization.")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run the toy training loop")
    train.add_argument("--mode", choices=sorted(_CLI_MODES), default="pcm")
    train.add_argument("--budget", type=int, default=12)
    train.add_argument("--group-size", type=int, default=10)
    train.add_argument("--refresh", type=int, default=5)
    train.add_argument("--pmin", type=float, default=0.1)
    train.add_argument("--lr", type=float, default=2e-3)
    train.add_argument("--steps", type=int, default=300)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--seeds", type=int, default=1,
                       help="number of seeds to average (seed, seed+1, ...)")
    train.add_argument("--chunks-per-traj", type=int, default=16)
    train.add_argument("--out", default="metrics.csv")

    for name, help_text in (("analyze", "score externally supplied traces"),
                            ("sweep-budget", "cumulative score-mass curve and knee")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("traces", help="line-delimited trace file")
        if name == "analyze":
            cmd.add_argument("--budget", type=int, default=12)
            cmd.add_argument("--pmin", type=float, default=0.1)
            cmd.add_argument("--seed", type=int, default=0)

    alloc = sub.add_parser("allocate",
                           help="variance-minimizing budget split for given "
                                "phase statistics")
    alloc.add_argument("--counts", required=True,
                       help="comma-separated expected chunk counts per phase")
    alloc.add_argument("--variances", required=True,
                       help="comma-separated per-chunk gradient variances")
    alloc.add_argument("--budget", type=int, required=True)
    alloc.add_argument("--integer", action="store_true",
                       help="also report a largest-remainder integer split")

    ver = sub.add_parser("verify", help="run the theory-verification suite")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--budget", type=int, default=12)
    ver.add_argument("--fast", action="store_true",
                     help="smaller Monte Carlo sizes for a quick smoke run")
    return parser


def _cmd_train(args) -> int:
    config = TrainConfig(
        mode=_CLI_MODES[args.mode], group_size=args.group_size,
        budget=args.budget, refresh_window=args.refresh, p_min=args.pmin,
        learning_rate=args.lr, steps=args.steps, seed=args.seed)
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    spec = ToyTaskSpec(chunks_per_traj=args.chunks_per_traj)
    seeds = range(args.seed, args.seed + args.seeds)
    runs = run_seeds(config, seeds, spec)
    write_metrics_csv(args.out, runs)
    finals = [final_success(run) for run in runs]
    print(f"mode={args.mode} seeds={args.seeds} steps={args.steps} "
          f"final_success={np.mean(finals):.4f}")
    print(f"metrics written to {args.out}")
    return 0


def _read_traces_lenient(path):
    errors = []
    records = read_traces(path, on_error=errors.append)
    for err in errors:
        print(f"warning: skipped malformed record ({err})", file=sys.stderr)
    return records


def _cmd_analyze(args) -> int:
    records = _read_traces_lenient(args.traces)
    result = analyze(records, budget=args.budget, p_min=args.pmin,
                     seed=args.seed)
    report = {
        "keep_probs": {c.value: result.keep_probs[c] for c in PHASES},
        "groups": [],
    }
    for g in result.groups:
        entry = {"task_id": g.task_id, "trajectories": g.num_trajectories}
        if g.skipped_reason:
            entry["skipped"] = g.skipped_reason
        else:
            entry["scores"] = {c.value: v for c, v in phase_dict(g.report).items()}
            entry["masks"] = [list(map(int, m.indices)) for m in g.masks]
        report["groups"].append(entry)
    json.dump(report, sys.stdout, indent=2)
    print()
    return 0


def _cmd_allocate(args) -> int:
    counts = [float(x) for x in args.counts.split(",")]
    variances = [float(x) for x in args.variances.split(",")]
    stats = PhaseStats(counts=np.asarray(counts),
                       variances=np.asarray(variances), budget=args.budget)
    budgets = neyman_allocation(stats)
    report = {
        "budgets": [round(b, 6) for b in budgets],
        "total_variance": estimator_variance(stats, budgets),
        "min_variance": min_variance(stats),
        "speedup": speedup_ratio(stats),
    }
    if args.integer:
        report["integer_budgets"] = [int(b) for b in integerize(budgets, args.budget)]
    json.dump(report, sys.stdout, indent=2)
    print()
    return 0


def _cmd_sweep_budget(args) -> int:
    records = _read_traces_lenient(args.traces)
    sweep = sweep_budget(records)
    for reason in sweep.skipped:
        print(f"warning: skipped group ({reason})", file=sys.stderr)
    report = {
        "knee_fraction": sweep.knee_fraction,
        "knee_captured": sweep.knee_captured,
        "knee_defined": sweep.knee_defined,
        "curve": [
            {"fraction": round(float(f), 6), "captured": round(float(c), 6)}
            for f, c in zip(sweep.fractions, sweep.captured)
        ],
    }
    json.dump(report, sys.stdout, indent=2)
    print()
    return 0


def _cmd_verify(args) -> int:
    results = run_checks(seed=args.seed, budget=args.budget, fast=args.fast)
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
        failed = failed or not r.passed
    return 2 if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "train": _cmd_train,
        "analyze": _cmd_analyze,
        "allocate": _cmd_allocate,
        "sweep-budget": _cmd_sweep_budget,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, TraceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
