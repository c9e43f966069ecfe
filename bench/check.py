"""Output checks for each benchmark workload.

A run passes when the command exited 0, wrote the files its subcommand
promises, holds exactly the expected record and row counts, keeps every
accuracy and U(L|C) value in [0, 1], and reproduces the study's summary
figures: per-cell median accuracy and per-variant U mean (``ablate``),
per-fraction U and accuracy means (``perturb``), and node/edge counts,
modularity and U mean (``analyze``).

Summary figures are compared with ``reference.json``, recorded at the
seed commit for a range of workload seeds. A seed outside that range is
checked against the band the recorded seeds span. The tolerances admit
last-ulp drift in training and a modularity search that settles on an
equally good partition; they do not admit a study that computes something
else. The report's sha256 is recorded as information only.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import LARGE_BLOCKS, Workload

REFERENCE_PATH = Path(__file__).with_name("reference.json")
VARIANTS = ("original", "sbm", "cm", "random")
MODELS = ("logreg", "sgc", "gcn")
FRACTIONS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
ANALYZE_SPLITS = 10  # the default n_splits, which analyze-large keeps
# absolute tolerance by summary-key prefix; counts must match exactly
TOLERANCE = {"acc": 0.03, "u": 0.03, "modularity": 0.02, "nodes": 0, "edges": 0}
# a seed without recorded values may also sit this far (relative) outside
# the band of the recorded seeds, since its features, and with them its
# accuracies, differ from all of theirs
BAND_SLACK = 0.02


class CheckError(Exception):
    """An output does not match what the workload must produce."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _unit(value, what: str) -> float:
    value = float(value)
    _require(math.isfinite(value) and 0.0 <= value <= 1.0, f"{what} = {value} not in [0, 1]")
    return value


def _read_json(path: Path):
    _require(path.is_file(), f"missing {path.name}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise CheckError(f"{path.name} is not valid JSON: {exc}") from None


def _read_csv(path: Path, header: list[str]) -> list[list[str]]:
    _require(path.is_file(), f"missing {path.name}")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    _require(bool(rows) and rows[0] == header, f"{path.name} has a wrong header")
    _require(all(len(r) == len(header) for r in rows[1:]), f"{path.name} has a short row")
    return rows[1:]


def _median(values: list[float]) -> float:
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])


def _summarize_ablate(workload: Workload, out: Path) -> dict[str, float]:
    cfg = workload.config
    report = _read_json(out / "report.json")
    rows = _read_csv(out / "accuracies.csv",
                     ["model", "variant", "graph_seed", "split", "init", "accuracy"])
    _require(len(rows) == workload.records,
             f"accuracies.csv has {len(rows)} rows, expected {workload.records}")
    _require(len(report["records"]) == workload.records,
             f"report.json has {len(report['records'])} records")
    cells: dict[str, list[float]] = {}
    for model, variant, _g, _s, _i, acc in rows:
        cells.setdefault(f"acc.{model}.{variant}", []).append(_unit(acc, "accuracy"))
    for r in report["records"]:
        _unit(r["accuracy"], "report accuracy")
    expected = {f"acc.{m}.{v}" for m in MODELS for v in VARIANTS}
    _require(set(cells) == expected, f"accuracy cells {sorted(cells)}")
    summary = {key: _median(vals) for key, vals in sorted(cells.items())}
    unc = report["uncertainty"]
    _require(list(unc) == list(VARIANTS), f"uncertainty variants {list(unc)}")
    for variant in VARIANTS:
        graphs = 1 if variant == "original" else cfg["n_graph_seeds"]
        _require(unc[variant]["n_samples"] == graphs * cfg["n_splits"],
                 f"U({variant}) has {unc[variant]['n_samples']} samples")
        summary[f"u.{variant}"] = _unit(unc[variant]["mean"], f"U({variant})")
    _require(len(report["significance"]) == len(expected) - 1,
             f"{len(report['significance'])} significance rows")
    for sig in report["significance"]:
        _unit(sig["p_value"], "p_value")
        _unit(sig["p_adjusted"], "p_adjusted")
    verdict = report["verdict"]
    _require(verdict["decision"] in ("gnn_applicable", "feature_only", "inconclusive"),
             f"verdict {verdict['decision']!r}")
    _require(verdict["u_original"] == unc["original"]["mean"], "verdict U differs")
    return summary


def _summarize_sweep(workload: Workload, out: Path) -> dict[str, float]:
    rows = _read_csv(out / "sweep.csv",
                     ["fraction", "u_mean", "u_std", "accuracy_mean", "accuracy_std"])
    _require(len(rows) == len(FRACTIONS), f"sweep.csv has {len(rows)} rows")
    summary = {}
    for row, fraction in zip(rows, FRACTIONS):
        _require(float(row[0]) == fraction, f"sweep fraction {row[0]}")
        key = f"{fraction:.1f}"
        summary[f"u.{key}"] = _unit(row[1], f"U mean at {key}")
        summary[f"acc.{key}"] = _unit(row[3], f"accuracy mean at {key}")
        _unit(row[2], "U std")
        _unit(row[4], "accuracy std")
    return summary


def _summarize_analyze(workload: Workload, out: Path) -> dict[str, float]:
    result = _read_json(out / "analyze.json")
    partition = (out / "partition.tsv")
    _require(partition.is_file(), "missing partition.tsv")
    lines = partition.read_text(encoding="utf-8").splitlines()
    _require(len(lines) == result["num_nodes"],
             f"partition.tsv has {len(lines)} rows for {result['num_nodes']} nodes")
    communities = {line.split("\t")[1] for line in lines}
    _require(len(communities) == result["num_communities"], "community count differs")
    u_values = [_unit(u, "U(L|C)") for u in result["u_values"]]
    _require(len(u_values) == ANALYZE_SPLITS, f"{len(u_values)} U values")
    # the rare class falls below the default quota and must be dropped
    _require(result["num_labels"] == LARGE_BLOCKS,
             f"{result['num_labels']} label classes kept")
    modularity = float(result["modularity"])
    _require(-0.5 <= modularity < 1.0, f"modularity {modularity}")
    return {"nodes": result["num_nodes"], "edges": result["num_edges"],
            "modularity": modularity, "u.mean": _unit(result["u_mean"], "U mean")}


SUMMARIZE = {"ablate": _summarize_ablate, "perturb": _summarize_sweep,
             "analyze": _summarize_analyze}
OUTPUT_FILES = {"ablate": "report.json", "perturb": "sweep.csv", "analyze": "analyze.json"}


def summarize(workload: Workload, out: Path) -> dict[str, float]:
    """Validate the output's structure and reduce it to summary figures."""
    try:
        return SUMMARIZE[workload.command](workload, out)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckError(f"malformed output: {exc!r}") from None


def records_in_output(workload: Workload, out: Path) -> int:
    """Output records of a checked run: accuracy records for the training
    workloads, partition rows (one per kept node) for ``analyze``."""
    if workload.command == "analyze":
        return len((out / "partition.tsv").read_text(encoding="utf-8").splitlines())
    return workload.records


def output_digest(workload: Workload, out: Path) -> str:
    """sha256 of the main output file, for information only."""
    return hashlib.sha256((out / OUTPUT_FILES[workload.command]).read_bytes()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _tolerance(key: str) -> float:
    return TOLERANCE[key.split(".", 1)[0]]


def compare(summary: dict[str, float], workload: Workload, seed: int,
            reference: dict) -> None:
    """Raise CheckError when a summary figure leaves its reference range."""
    recorded = reference.get(workload.name, {})
    _require(bool(recorded), f"no reference values for {workload.name}")
    exact = recorded.get(str(seed))
    for key, value in summary.items():
        if exact is not None:
            lo = hi = exact[key]
            lo_tol = hi_tol = _tolerance(key)
        else:
            lo = min(r[key] for r in recorded.values())
            hi = max(r[key] for r in recorded.values())
            lo_tol = _tolerance(key) + BAND_SLACK * abs(lo)
            hi_tol = _tolerance(key) + BAND_SLACK * abs(hi)
        _require(lo - lo_tol <= value <= hi + hi_tol,
                 f"{key} = {value} outside [{lo}, {hi}]"
                 + ("" if exact is not None else " (band over recorded seeds)"))


def check_run(workload: Workload, out: Path, seed: int, reference: dict) -> dict[str, float]:
    """Full check of one run's output; returns its summary figures."""
    summary = summarize(workload, out)
    compare(summary, workload, seed, reference)
    return summary
