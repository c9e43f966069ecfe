"""Command-line interface.

Subcommands:
  analyze  <config.json>   preprocessing stats, communities, alignment score
  ablate   <config.json>   full model-vs-rebuilt-graph study -> report files
  perturb  <config.json>   position-swap sweep -> sweep.csv
  verdict  <config.json>   two-step applicability decision

Common flags: --out DIR, --seed N, --jobs N, --keep-top-k-components K.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import io as gio
from .harness import (AnalysisResult, Decision, PreparedStudy, Verdict,
                      analyze_prepared, emit_report, guideline_verdict, load_config,
                      prepare_study, run_ablation_study, run_perturbation_sweep,
                      write_sweep_csv, _jsonable)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("config", help="path to a study config JSON file")
    sub.add_argument("--out", default="graphdiag-out", help="output directory")
    sub.add_argument("--seed", type=int, default=None, help="override the master seed")
    sub.add_argument("--jobs", type=int, default=1, help="parallel worker count")
    sub.add_argument("--keep-top-k-components", type=int, default=None,
                     help="admit the k largest components instead of just one")


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
            cmd.add_argument("--fractions", default=None,
                             help="comma-separated swap fractions, e.g. 0,0.1,0.2")
    return parser


def _prepare(args, **overrides) -> PreparedStudy:
    """Load the config (with command-line overrides) and its dataset, and
    prepare the study every stage of the command shares."""
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.keep_top_k_components is not None:
        overrides["keep_top_k_components"] = args.keep_top_k_components
    config = replace(load_config(args.config), **overrides)
    if not (config.edges and config.features and config.labels):
        raise SystemExit("config must set the edges/features/labels paths")
    dataset = gio.load_dataset(config.edges, config.features, config.labels)
    return prepare_study(dataset, config)


def _write_json(out_dir: str, name: str, payload) -> Path:
    out = gio.ensure_dir(out_dir)
    path = out / name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2)
        fh.write("\n")
    return path


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


def _justification(verdict: Verdict, thresholds: tuple[float, float]) -> str:
    low, high = thresholds
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
    prep = _prepare(args)
    result = analyze_prepared(prep)
    _print_analysis(result)
    out = gio.ensure_dir(args.out)
    gio.write_partition(out / "partition.tsv", prep.base_partition,
                        prep.dataset.node_tokens)
    path = _write_json(args.out, "analyze.json", result)
    print(f"wrote {path}")
    print(f"wrote {out / 'partition.tsv'}")
    return 0


def cmd_ablate(args) -> int:
    report = run_ablation_study(_prepare(args), jobs=args.jobs)
    written = emit_report(report, args.out)
    medians: dict[tuple[str, str], list[float]] = {}
    for r in report.records:
        medians.setdefault((r.model, r.variant), []).append(r.accuracy)
    print("median accuracy per (model, variant):")
    for (model, variant), accs in sorted(medians.items()):
        mid = sorted(accs)[len(accs) // 2]
        print(f"  {model:<7} {variant:<9} {mid:.4f}  ({len(accs)} runs)")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_perturb(args) -> int:
    overrides = {}
    if args.fractions:
        overrides["fractions"] = tuple(float(x) for x in args.fractions.split(",")
                                       if x != "")
    sweep = run_perturbation_sweep(_prepare(args, **overrides), jobs=args.jobs)
    print("fraction  U(L|C) mean+/-std   accuracy mean+/-std")
    for row in sweep.rows:
        print(f"  {row.fraction:>6.3f}  {row.u_mean:.4f} +/- {row.u_std:.4f}   "
              f"{row.accuracy_mean:.4f} +/- {row.accuracy_std:.4f}")
    path = write_sweep_csv(sweep.rows, Path(args.out) / "sweep.csv")
    print(f"wrote {path}")
    return 0


def cmd_verdict(args) -> int:
    prep = _prepare(args)
    config = prep.config
    analysis = analyze_prepared(prep)
    _print_analysis(analysis)
    low, high = config.thresholds
    sweep = None
    if low <= analysis.u_mean <= high:
        print("alignment score is in the middle band; running the swap sweep...")
        sweep = run_perturbation_sweep(prep, jobs=args.jobs)
    verdict = guideline_verdict(analysis.u_mean, sweep, config.thresholds)
    print(f"verdict: {verdict.decision.value}")
    print(_justification(verdict, config.thresholds))
    payload = {"verdict": verdict, "analysis": analysis,
               "sweep": list(sweep.rows) if sweep else None}
    path = _write_json(args.out, "verdict.json", payload)
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"analyze": cmd_analyze, "ablate": cmd_ablate,
                "perturb": cmd_perturb, "verdict": cmd_verdict}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
