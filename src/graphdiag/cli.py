"""Command-line interface.

Subcommands:
  analyze  <config.json>   preprocessing stats, communities, alignment score
  ablate   <config.json>   full model-vs-rebuilt-graph study -> report files
  perturb  <config.json>   position-swap sweep -> sweep.csv
  verdict  <config.json>   two-step applicability decision (harness.run_verdict)

Common flags: --out DIR, --seed N, --jobs N, --keep-top-k-components K.

A config, data or file error prints one line, "graphdiag: error: ...", to
stderr and exits with status 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import io as gio
from .graphs import Dataset
from .harness import (AnalysisResult, Decision, StudyConfig, Thresholds, Verdict,
                      analyze_prepared, cell_samples, emit_report, load_config,
                      prepare_study, run_ablation_study, run_perturbation_sweep,
                      run_verdict, write_json, write_sweep_csv)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("config", help="path to a study config JSON file")
    sub.add_argument("--out", default="graphdiag-out", help="output directory")
    sub.add_argument("--seed", type=int, default=None, help="override the master seed")
    sub.add_argument("--jobs", type=_positive_int, default=1, help="parallel worker count")
    sub.add_argument("--keep-top-k-components", type=int, default=None,
                     help="admit the k largest components instead of just one")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _fraction_list(text: str) -> tuple[float, ...]:
    try:
        fractions = tuple(float(x) for x in text.split(",") if x != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None
    if not fractions:
        raise argparse.ArgumentTypeError(f"expected at least one number, got {text!r}")
    return fractions


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphdiag",
        description="Diagnose whether graph structure is worth using for "
                    "semi-supervised node classification on a labeled graph.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("analyze", "dataset statistics, communities, and the alignment score"),
        ("ablate", "run the full model comparison across rebuilt graphs"),
        ("perturb", "run the position-swap perturbation sweep"),
        ("verdict", "print the two-step applicability decision"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        _add_common(cmd)
        if name == "perturb":
            cmd.add_argument("--fractions", type=_fraction_list, default=None,
                             help="comma-separated swap fractions, e.g. 0,0.1,0.2")
    return parser


def _load(args, features: bool) -> tuple[Dataset, StudyConfig]:
    """Load the config and its dataset; a flag named after a config key
    overrides it when given. The feature file is read only when
    ``features`` is set: only ablate and perturb train."""
    overrides = {f.name: getattr(args, f.name) for f in fields(StudyConfig)
                 if getattr(args, f.name, None) is not None}
    config = replace(load_config(args.config), **overrides)
    missing = [key for key in ("edges", "features", "labels") if not getattr(config, key)]
    if missing:
        raise ValueError(f"config must set the dataset paths; missing: {', '.join(missing)}")
    dataset = gio.load_dataset(config.edges, config.features if features else None,
                               config.labels)
    return dataset, config


def _print_analysis(result: AnalysisResult) -> None:
    rows = [
        ("nodes", result.num_nodes),
        ("edges", result.num_edges),
        ("edge density", f"{result.edge_density:.6f}"),
        ("label classes", result.num_labels),
        ("label rate", f"{result.label_rate:.4f}"),
        ("communities", result.num_communities),
        ("modularity", f"{result.modularity:.4f}"),
        ("U(L|C)", f"{result.u_mean:.4f} +/- {result.u_std:.4f}"),
    ]
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"  {key:<{width}}  {value}")


def _justification(verdict: Verdict, thresholds: Thresholds) -> str:
    low, high = thresholds.low, thresholds.high
    u = verdict.u_original
    if verdict.decision is Decision.FEATURE_ONLY:
        return (f"U(L|C) = {u:.3f} < {low}: communities say almost nothing about "
                f"labels; prefer a feature-only model.")
    if verdict.decision is Decision.GNN_APPLICABLE:
        return (f"U(L|C) = {u:.3f} > {high}: communities are informative about "
                f"labels; graph propagation should help.")
    if verdict.decision is Decision.GNN_APPLICABLE_AFTER_SWEEP:
        return (f"U(L|C) = {u:.3f} is in the middle band, but it declines under "
                f"position swaps (slope {verdict.sweep_slope:.3f}); real structure "
                f"is present, so graph models are applicable.")
    if verdict.decision is Decision.FEATURE_ONLY_AFTER_SWEEP:
        return (f"U(L|C) = {u:.3f} is in the middle band and stays flat under "
                f"position swaps (slope {verdict.sweep_slope:.3f}); the alignment "
                f"is already at its noise floor, so prefer feature-only models.")
    return (f"U(L|C) = {u:.3f} lies between {low} and {high}; run the perturbation "
            f"sweep to decide.")


def cmd_analyze(args) -> int:
    prep = prepare_study(*_load(args, features=False))
    result = analyze_prepared(prep)
    _print_analysis(result)
    out = Path(args.out)
    path = write_json(result, out / "analyze.json")
    gio.write_partition(out / "partition.tsv", prep.base_partition,
                        prep.dataset.node_tokens)
    print(f"wrote {path}")
    print(f"wrote {out / 'partition.tsv'}")
    return 0


def cmd_ablate(args) -> int:
    report = run_ablation_study(prepare_study(*_load(args, features=True)),
                                jobs=args.jobs)
    written = emit_report(report, args.out)
    print("median accuracy per (model, variant):")
    for (model, variant), accs in sorted(cell_samples(report.records).items()):
        print(f"  {model:<7} {variant:<9} {np.median(accs):.4f}  ({len(accs)} runs)")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_perturb(args) -> int:
    sweep = run_perturbation_sweep(prepare_study(*_load(args, features=True)),
                                   jobs=args.jobs)
    print("fraction  U(L|C) mean+/-std   accuracy mean+/-std")
    for row in sweep.rows:
        print(f"  {row.fraction:>6.3f}  {row.u_mean:.4f} +/- {row.u_std:.4f}   "
              f"{row.accuracy_mean:.4f} +/- {row.accuracy_std:.4f}")
    path = write_sweep_csv(sweep.rows, Path(args.out) / "sweep.csv")
    print(f"wrote {path}")
    return 0


def cmd_verdict(args) -> int:
    """Print and write ``run_verdict``'s decision. No features are loaded:
    the middle-band sweep measures U only and trains nothing."""
    prep = prepare_study(*_load(args, features=False))
    result = run_verdict(prep, jobs=args.jobs)
    _print_analysis(result.analysis)
    if result.sweep is not None:
        print("alignment score is in the middle band; running the swap sweep...")
    print(f"verdict: {result.verdict.decision.value}")
    print(_justification(result.verdict, prep.config.thresholds))
    path = write_json(result, Path(args.out) / "verdict.json")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"analyze": cmd_analyze, "ablate": cmd_ablate,
                "perturb": cmd_perturb, "verdict": cmd_verdict}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        # bad configs, data files and paths; a failed study cell is a
        # RuntimeError and keeps its traceback
        print(f"graphdiag: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
