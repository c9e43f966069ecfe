"""Study orchestration: labeled splits, the graph-rebuild comparison study,
the position-swap sweep, and the applicability verdict.

Every random choice is derived from one master seed through per-role
seed-sequence keys over (variant, graph index, split, init), so results
are identical regardless of execution order or worker count.
"""

from __future__ import annotations

import enum
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .community import BlockMatrix, Partition, block_density_matrix, louvain, modularity
from .graphs import Dataset, GraphError, edge_density, remove_rare_labels, select_components
from .infotheory import joint_counts, uncertainty_coefficient
from .models import (TrainConfig, accuracy, gcn_forward, logreg_forward,
                     normalized_adjacency, sgc_propagate, train_gcn, train_logreg)
from .nullmodels import (GraphVariant, generate_erdos_renyi, generate_sbm,
                         rewire_configuration_model, swap_perturbation)
from .stats import bonferroni, mann_whitney_u

SCHEMA_VERSION = "1"
MODEL_NAMES = ("logreg", "sgc", "gcn")
ABLATION_VARIANTS = (GraphVariant.SBM, GraphVariant.CM, GraphVariant.RANDOM)
VARIANT_ORDER = (GraphVariant.ORIGINAL,) + ABLATION_VARIANTS
_VARIANT_INDEX = {v.value: i for i, v in enumerate(VARIANT_ORDER)}

# roles for hierarchical seed derivation
_ROLE_SPLITS, _ROLE_GRAPH, _ROLE_LOUVAIN, _ROLE_INIT, _ROLE_SWAP = range(5)

# a middle-band sweep counts as "declining" only below this slope
SLOPE_EPSILON = 0.02


def derive_seed(master: int, *key: int) -> int:
    """Stable child seed for (master, key...) via a counter-based sequence."""
    seq = np.random.SeedSequence((int(master),) + tuple(int(k) for k in key))
    return int(seq.generate_state(1)[0])


@dataclass(frozen=True)
class SplitSet:
    """Disjoint train/validation/test node index sets."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def labeled(self) -> np.ndarray:
        """Nodes whose labels the study may look at (train plus validation)."""
        return np.concatenate([self.train, self.val])


def make_splits(labels, quotas: tuple[int, int], n_splits: int,
                seed: int) -> list[SplitSet]:
    """Per-class random splits: quota[0] train and quota[1] validation nodes
    per class, the rest test. Deterministic given the seed."""
    train_q, val_q = quotas
    if train_q < 1 or val_q < 1 or n_splits < 1:
        raise ValueError("quotas and n_splits must be positive")
    counts = labels.class_counts()
    for c, count in enumerate(counts):
        if count <= train_q + val_q:
            raise ValueError(
                f"class {c} has {count} nodes; needs more than {train_q + val_q}")
    rng = np.random.default_rng(seed)
    n = len(labels)
    members = [np.flatnonzero(labels.labels == c) for c in range(labels.num_labels)]
    splits = []
    for _ in range(n_splits):
        train_parts, val_parts = [], []
        for memb in members:
            perm = rng.permutation(memb)
            train_parts.append(perm[:train_q])
            val_parts.append(perm[train_q:train_q + val_q])
        train = np.sort(np.concatenate(train_parts))
        val = np.sort(np.concatenate(val_parts))
        labeled = np.concatenate([train, val])
        test = np.setdiff1d(np.arange(n), labeled)
        splits.append(SplitSet(train=train, val=val, test=test))
    return splits


@dataclass(frozen=True)
class StudyConfig:
    edges: str | None = None
    features: str | None = None
    labels: str | None = None
    train_per_class: int = 20
    val_per_class: int = 30
    n_splits: int = 10
    n_inits: int = 3
    n_graph_seeds: int = 5
    models: tuple[str, ...] = MODEL_NAMES
    seed: int = 0
    keep_top_k_components: int = 1
    min_label_count: int | None = None  # None: train + val quota + 1
    # past ~0.5 a two-community graph inverts rather than scrambles (the
    # coefficient is symmetric to label flips), so the default sweep stops there
    fractions: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    thresholds: tuple[float, float] = (0.3, 0.7)
    train: TrainConfig = TrainConfig()

    def __post_init__(self) -> None:
        if min(self.n_splits, self.n_inits, self.n_graph_seeds) < 1:
            raise ValueError("n_splits, n_inits, n_graph_seeds must be >= 1")
        if not self.models or any(m not in MODEL_NAMES for m in self.models):
            raise ValueError(f"models must be a non-empty subset of {MODEL_NAMES}")
        low, high = self.thresholds
        if not (0.0 <= low < high <= 1.0):
            raise ValueError("thresholds must satisfy 0 <= low < high <= 1")
        fr = self.fractions
        if any(not 0.0 <= f <= 1.0 for f in fr) or list(fr) != sorted(fr):
            raise ValueError("fractions must be ascending values in [0, 1]")
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "fractions", tuple(float(f) for f in fr))
        object.__setattr__(self, "thresholds", (float(low), float(high)))

    @property
    def effective_min_label_count(self) -> int:
        if self.min_label_count is not None:
            return self.min_label_count
        # make_splits needs at least one test node per class
        return self.train_per_class + self.val_per_class + 1

    @classmethod
    def from_dict(cls, raw: dict) -> "StudyConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        data = dict(raw)
        if "train" in data:
            train_known = set(TrainConfig.__dataclass_fields__)
            train_unknown = set(data["train"]) - train_known
            if train_unknown:
                raise ValueError(f"unknown train config keys: {sorted(train_unknown)}")
            data["train"] = TrainConfig(**data["train"])
        if "thresholds" in data:
            th = data["thresholds"]
            if isinstance(th, dict):
                extra = set(th) - {"low", "high"}
                if extra:
                    raise ValueError(f"unknown threshold keys: {sorted(extra)}")
                th = (th["low"], th["high"])
            data["thresholds"] = tuple(th)
        if "models" in data:
            data["models"] = tuple(data["models"])
        if "fractions" in data:
            data["fractions"] = tuple(data["fractions"])
        return cls(**data)

    def to_dict(self) -> dict:
        out = {k: list(v) if isinstance(v, tuple) else v
               for k, v in asdict(self).items()}
        out["thresholds"] = {"low": self.thresholds[0], "high": self.thresholds[1]}
        return out


def load_config(path) -> StudyConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return StudyConfig.from_dict(json.load(fh))


class Decision(str, enum.Enum):
    GNN_APPLICABLE = "gnn_applicable"
    FEATURE_ONLY = "feature_only"
    INCONCLUSIVE = "inconclusive"
    GNN_APPLICABLE_AFTER_SWEEP = "gnn_applicable_after_sweep"
    FEATURE_ONLY_AFTER_SWEEP = "feature_only_after_sweep"


@dataclass(frozen=True)
class Verdict:
    decision: Decision
    u_original: float
    sweep_slope: float | None = None


@dataclass(frozen=True)
class RunRecord:
    model: str
    variant: str
    graph_seed: int
    split: int
    init: int
    accuracy: float


@dataclass(frozen=True)
class SignificanceRecord:
    model: str
    variant: str
    u_statistic: float
    p_value: float
    p_adjusted: float
    method: str
    n_model: int
    n_baseline: int
    model_median: float
    baseline_median: float


@dataclass(frozen=True)
class SweepRow:
    fraction: float
    u_mean: float
    u_std: float
    accuracy_mean: float
    accuracy_std: float


@dataclass(frozen=True)
class SweepCell:
    """Per-(fraction, generated graph) detail behind a sweep row."""

    fraction: float
    graph_seed: int
    u_values: tuple[float, ...]        # one per split
    accuracies: tuple[float, ...]      # one per split x init


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    cells: tuple[SweepCell, ...]


@dataclass
class StudyReport:
    schema_version: str
    config: dict
    dataset_summary: dict
    records: list[RunRecord]
    uncertainty: dict
    significance: list[SignificanceRecord]
    verdict: Verdict | None = None
    sweep: list[SweepRow] | None = None


@dataclass(frozen=True)
class PreparedStudy:
    """A study's config, its preprocessed dataset, and everything shared
    across study cells; the one input of every study stage."""

    config: StudyConfig
    dataset: Dataset
    splits: tuple[SplitSet, ...]
    base_partition: Partition
    blocks: BlockMatrix


def preprocess_dataset(dataset: Dataset, config: StudyConfig) -> Dataset:
    ds = remove_rare_labels(dataset, config.effective_min_label_count)
    return select_components(ds, config.keep_top_k_components)


def prepare_study(dataset: Dataset, config: StudyConfig) -> PreparedStudy:
    ds = preprocess_dataset(dataset, config)
    if ds.labels.num_labels < 2:
        raise GraphError("need at least two label classes after preprocessing")
    splits = make_splits(ds.labels, (config.train_per_class, config.val_per_class),
                         config.n_splits, derive_seed(config.seed, _ROLE_SPLITS))
    base_partition = louvain(
        ds.graph, derive_seed(config.seed, _ROLE_LOUVAIN,
                              _VARIANT_INDEX["original"], 0))
    blocks = block_density_matrix(ds.graph, base_partition)
    return PreparedStudy(config=config, dataset=ds, splits=tuple(splits),
                         base_partition=base_partition, blocks=blocks)


def dataset_summary(prep: PreparedStudy) -> dict:
    dataset = prep.dataset
    n = dataset.n
    return {
        "num_nodes": n,
        "num_edges": dataset.graph.m,
        "edge_density": edge_density(dataset.graph),
        "num_labels": dataset.labels.num_labels,
        "label_rate": prep.config.train_per_class * dataset.labels.num_labels / n,
    }


def _variant_graph(prep: PreparedStudy, variant_value: str, g: int):
    if variant_value == GraphVariant.ORIGINAL.value:
        return prep.dataset.graph
    seed = derive_seed(prep.config.seed, _ROLE_GRAPH, _VARIANT_INDEX[variant_value], g)
    if variant_value == GraphVariant.SBM.value:
        return generate_sbm(prep.blocks, prep.base_partition, seed)
    if variant_value == GraphVariant.CM.value:
        return rewire_configuration_model(prep.dataset.graph, seed)
    if variant_value == GraphVariant.RANDOM.value:
        return generate_erdos_renyi(prep.dataset.n, prep.dataset.graph.m, seed)
    raise ValueError(f"unknown variant {variant_value!r}")


def _evaluate_models(prep: PreparedStudy, graph, variant_value: str, g: int,
                     models: Sequence[str]) -> list[RunRecord]:
    """Accuracy records per (model, split, init) on one graph.

    Logreg is SGC with K=0. Both linear models start from zero weights, so
    each is fit once per split and its record repeats for every init; only
    the GCN draws a fresh initialization per init.
    """
    config = prep.config
    features = prep.dataset.features
    labels = prep.dataset.labels
    adj = normalized_adjacency(graph)
    vi = _VARIANT_INDEX[variant_value]
    records = []
    for model in models:
        mi = MODEL_NAMES.index(model)
        if model != "gcn":
            k = config.train.sgc_k if model == "sgc" else 0
            inputs = sgc_propagate(adj, features, k)
        for s, split in enumerate(prep.splits):
            for i in range(config.n_inits):
                if model == "gcn" or i == 0:
                    try:
                        if model == "gcn":
                            seed = derive_seed(config.seed, _ROLE_INIT, vi, g, s, i, mi)
                            fitted = train_gcn(adj, features, labels, split,
                                               config.train, seed)
                            probs = gcn_forward(fitted, adj, features)
                        else:
                            fitted = train_logreg(inputs, labels, split, config.train)
                            probs = logreg_forward(fitted, inputs)
                    except Exception as exc:
                        raise RuntimeError(
                            f"study cell failed: variant={variant_value} graph_seed={g} "
                            f"split={s} init={i} model={model}") from exc
                    acc = accuracy(probs, labels, split.test)
                records.append(RunRecord(model=model, variant=variant_value,
                                         graph_seed=g, split=s, init=i,
                                         accuracy=acc))
    return records


def _uncertainty_values(prep: PreparedStudy, partition: Partition) -> list[float]:
    labels = prep.dataset.labels
    return [uncertainty_coefficient(joint_counts(labels, partition, split.labeled()))
            for split in prep.splits]


# worker-process state for the task pool (populated by fork or initializer)
_TASK_STATE: PreparedStudy | None = None


def _set_task_state(prep: PreparedStudy) -> None:
    global _TASK_STATE
    _TASK_STATE = prep


def _ablation_cell(task: tuple[str, int]):
    prep = _TASK_STATE
    config = prep.config
    variant_value, g = task
    original = variant_value == GraphVariant.ORIGINAL.value
    graph = _variant_graph(prep, variant_value, g)
    # the original graph's communities were detected once, in prepare_study
    partition = prep.base_partition if original else louvain(
        graph, derive_seed(config.seed, _ROLE_LOUVAIN, _VARIANT_INDEX[variant_value], g))
    u_values = _uncertainty_values(prep, partition)
    # the feature-only baseline ignores the graph: run_ablation_study copies
    # the original graph's logreg records to every rebuilt one
    models = [m for m in config.models if m != "logreg" or original]
    records = _evaluate_models(prep, graph, variant_value, g, models)
    return variant_value, g, records, u_values


def _sweep_cell(task: tuple[int, int]):
    prep = _TASK_STATE
    config = prep.config
    fraction_index, g = task
    fraction = config.fractions[fraction_index]
    sbm_index = _VARIANT_INDEX[GraphVariant.SBM.value]
    base = generate_sbm(prep.blocks, prep.base_partition,
                        derive_seed(config.seed, _ROLE_GRAPH, sbm_index, g))
    perturbed = swap_perturbation(base, prep.base_partition, fraction,
                                  derive_seed(config.seed, _ROLE_SWAP, g,
                                              fraction_index))
    partition = louvain(perturbed, derive_seed(config.seed, _ROLE_LOUVAIN,
                                               sbm_index, g))
    u_values = _uncertainty_values(prep, partition)
    records = _evaluate_models(prep, perturbed, GraphVariant.SBM.value, g,
                               models=("gcn",))
    accs = tuple(r.accuracy for r in records)
    return SweepCell(fraction=fraction, graph_seed=g,
                     u_values=tuple(u_values), accuracies=accs)


def _map_tasks(cell_fn, tasks, prep: PreparedStudy, jobs: int) -> list:
    if jobs <= 1:
        _set_task_state(prep)
        return [cell_fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs, initializer=_set_task_state,
                             initargs=(prep,)) as pool:
        return list(pool.map(cell_fn, tasks))


def run_ablation_study(prep: PreparedStudy, jobs: int = 1) -> StudyReport:
    """Evaluate every configured model on the original graph and on each
    rebuilt variant, measure per-graph label/community alignment, and test
    each cell against the feature-only baseline."""
    config = prep.config
    tasks = [(GraphVariant.ORIGINAL.value, 0)]
    tasks += [(v.value, g) for v in ABLATION_VARIANTS
              for g in range(config.n_graph_seeds)]
    results = _map_tasks(_ablation_cell, tasks, prep, jobs)

    records: list[RunRecord] = []
    u_by_variant: dict[str, list[float]] = {}
    for variant_value, g, recs, u_values in results:
        records.extend(recs)
        u_by_variant.setdefault(variant_value, []).extend(u_values)
    baseline = [r for r in records if r.model == "logreg"]
    records += [replace(r, variant=v, graph_seed=g)
                for v, g in tasks[1:] for r in baseline]
    records.sort(key=lambda r: (config.models.index(r.model),
                                _VARIANT_INDEX[r.variant],
                                r.graph_seed, r.split, r.init))

    uncertainty = {
        variant: {"mean": float(np.mean(vals)), "std": float(np.std(vals)),
                  "n_samples": len(vals)}
        for variant, vals in sorted(u_by_variant.items(),
                                    key=lambda kv: _VARIANT_INDEX[kv[0]])
    }

    significance = _baseline_tests(records, config)
    verdict = guideline_verdict(uncertainty["original"]["mean"], None,
                                config.thresholds)
    return StudyReport(
        schema_version=SCHEMA_VERSION,
        config=config.to_dict(),
        dataset_summary=dataset_summary(prep),
        records=records,
        uncertainty=uncertainty,
        significance=significance,
        verdict=verdict,
    )


def _baseline_tests(records: list[RunRecord],
                    config: StudyConfig) -> list[SignificanceRecord]:
    """Rank-test every (model, variant) accuracy sample against the
    feature-only baseline on the original graph."""
    if "logreg" not in config.models:
        return []
    baseline = [r.accuracy for r in records
                if r.model == "logreg" and r.variant == "original"]
    cells: dict[tuple[str, str], list[float]] = {}
    for r in records:
        if (r.model, r.variant) == ("logreg", "original"):
            continue
        cells.setdefault((r.model, r.variant), []).append(r.accuracy)
    keys = sorted(cells, key=lambda k: (config.models.index(k[0]),
                                        _VARIANT_INDEX[k[1]]))
    tests = [mann_whitney_u(cells[k], baseline) for k in keys]
    adjusted = bonferroni([t.p_value for t in tests])
    out = []
    for key, test, p_adj in zip(keys, tests, adjusted):
        out.append(SignificanceRecord(
            model=key[0], variant=key[1],
            u_statistic=test.u_statistic, p_value=test.p_value,
            p_adjusted=float(p_adj), method=test.method,
            n_model=test.n_a, n_baseline=test.n_b,
            model_median=float(np.median(cells[key])),
            baseline_median=float(np.median(baseline))))
    return out


def run_perturbation_sweep(prep: PreparedStudy, jobs: int = 1) -> SweepResult:
    """Swap-perturb the rebuilt block-model graphs at increasing fractions,
    re-detect communities, and track alignment against GCN accuracy.

    The fraction-0 column reproduces the block-model variant of the
    ablation study exactly (same derived seeds)."""
    config = prep.config
    tasks = [(fi, g) for fi in range(len(config.fractions))
             for g in range(config.n_graph_seeds)]
    cells = _map_tasks(_sweep_cell, tasks, prep, jobs)
    rows = []
    for fi, fraction in enumerate(config.fractions):
        group = [c for c in cells if c.fraction == fraction]
        u_all = np.concatenate([c.u_values for c in group])
        acc_all = np.concatenate([c.accuracies for c in group])
        rows.append(SweepRow(fraction=float(fraction),
                             u_mean=float(u_all.mean()), u_std=float(u_all.std()),
                             accuracy_mean=float(acc_all.mean()),
                             accuracy_std=float(acc_all.std())))
    return SweepResult(rows=tuple(rows), cells=tuple(cells))


def guideline_verdict(u_original: float, sweep=None,
                      thresholds: tuple[float, float] = (0.3, 0.7)) -> Verdict:
    """Two-step applicability rule.

    Below the low threshold: use a feature-only model. Above the high
    threshold: graph propagation should help. In between, a perturbation
    sweep decides: a declining alignment curve (least-squares slope below
    -SLOPE_EPSILON) indicates exploitable structure; a flat one does not.
    Without a sweep, the middle band is inconclusive.
    """
    if not 0.0 <= u_original <= 1.0:
        raise ValueError("u_original must lie in [0, 1]")
    low, high = thresholds
    if u_original < low:
        return Verdict(decision=Decision.FEATURE_ONLY, u_original=u_original)
    if u_original > high:
        return Verdict(decision=Decision.GNN_APPLICABLE, u_original=u_original)
    rows = list(sweep.rows) if isinstance(sweep, SweepResult) else (
        list(sweep) if sweep is not None else [])
    if len(rows) < 2:
        return Verdict(decision=Decision.INCONCLUSIVE, u_original=u_original)
    xs = np.array([r.fraction for r in rows])
    ys = np.array([r.u_mean for r in rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    if slope < -SLOPE_EPSILON:
        return Verdict(decision=Decision.GNN_APPLICABLE_AFTER_SWEEP,
                       u_original=u_original, sweep_slope=slope)
    return Verdict(decision=Decision.FEATURE_ONLY_AFTER_SWEEP,
                   u_original=u_original, sweep_slope=slope)


def _jsonable(value):
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return {k: _jsonable(getattr(value, k)) for k in value.__dataclass_fields__}
    return value


def emit_report(report: StudyReport, out_dir) -> list[Path]:
    """Write report.json and accuracies.csv (plus sweep.csv when the report
    carries sweep rows). Floats are written with full round-trip precision,
    so identical studies produce byte-identical files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "report.json"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(report), fh, indent=2)
        fh.write("\n")
    csv_path = out / "accuracies.csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("model,variant,graph_seed,split,init,accuracy\n")
        for r in report.records:
            fh.write(f"{r.model},{r.variant},{r.graph_seed},{r.split},"
                     f"{r.init},{r.accuracy!r}\n")
    written = [json_path, csv_path]
    if report.sweep:
        written.append(write_sweep_csv(report.sweep, out / "sweep.csv"))
    return written


def write_sweep_csv(rows: Sequence[SweepRow], path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("fraction,u_mean,u_std,accuracy_mean,accuracy_std\n")
        for r in rows:
            fh.write(f"{r.fraction!r},{r.u_mean!r},{r.u_std!r},"
                     f"{r.accuracy_mean!r},{r.accuracy_std!r}\n")
    return path


@dataclass(frozen=True)
class AnalysisResult:
    num_nodes: int
    num_edges: int
    edge_density: float
    num_labels: int
    label_rate: float
    num_communities: int
    modularity: float
    u_mean: float
    u_std: float
    u_values: tuple[float, ...]


def analyze_prepared(prep: PreparedStudy) -> AnalysisResult:
    """Summarize the prepared dataset, its communities, and label/community
    alignment over the study's labeled masks."""
    u_values = _uncertainty_values(prep, prep.base_partition)
    summary = dataset_summary(prep)
    return AnalysisResult(
        num_nodes=summary["num_nodes"],
        num_edges=summary["num_edges"],
        edge_density=summary["edge_density"],
        num_labels=summary["num_labels"],
        label_rate=summary["label_rate"],
        num_communities=prep.base_partition.num_communities,
        modularity=modularity(prep.dataset.graph, prep.base_partition),
        u_mean=float(np.mean(u_values)),
        u_std=float(np.std(u_values)),
        u_values=tuple(u_values),
    )
