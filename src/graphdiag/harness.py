"""Study orchestration: labeled splits, the graph-rebuild comparison study,
the position-swap sweep, and the applicability verdict, which ``run_verdict``
decides in one stage.

Every random choice is derived from one master seed through per-role
seed-sequence keys over (variant, graph index, split, init), so results
are identical regardless of execution order or worker count.

Each study setting states its type and bound once, at its dataclass field
(``models.setting``); the dataclass checks them, and ``_from_json`` loads
nested settings objects by one rule. Each CSV's columns are its record
dataclass's fields.
"""

from __future__ import annotations

import enum
import json
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .community import Partition, block_density_matrix, louvain, modularity
from .graphs import (Dataset, GraphError, LabeledGraph, edge_density, induced_subdataset,
                     induced_subgraph, remove_rare_labels, select_components)
from .infotheory import joint_counts, uncertainty_coefficient
from .models import (TrainConfig, accuracy, check_number, check_settings, gcn_forward,
                     logreg_forward, normalized_adjacency, setting, train_gcn,
                     train_logreg)
from .nullmodels import (generate_erdos_renyi, generate_sbm, rewire_configuration_model,
                         swap_count, swap_perturbation)
from .stats import bonferroni, mann_whitney_u

SCHEMA_VERSION = "1"
MODEL_NAMES = ("logreg", "sgc", "gcn")
# the input graph, then its block-model, configuration-model and uniform
# random rebuilds; a variant's index keys its seeds and orders the report
VARIANTS = ("original", "sbm", "cm", "random")

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

    def __post_init__(self) -> None:
        if len(self.train) == 0 or len(self.val) == 0:
            raise ValueError("train and validation sets must be non-empty")

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
    for token, count in zip(labels.tokens, labels.class_counts()):
        if count <= train_q + val_q:
            raise ValueError(
                f"class {token} has {count} nodes; needs more than {train_q + val_q}")
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
        unlabeled = np.ones(n, dtype=bool)
        unlabeled[train] = unlabeled[val] = False
        splits.append(SplitSet(train=train, val=val, test=np.flatnonzero(unlabeled)))
    return splits


@dataclass(frozen=True)
class Thresholds:
    """Verdict bands: U(L|C) below ``low`` favours a feature-only model,
    above ``high`` graph propagation; in between the sweep decides."""

    # no defaults: a config that sets the bands sets both
    low: float = setting(MISSING, ">= 0")
    high: float = setting(MISSING, "<= 1")

    def __post_init__(self) -> None:
        check_settings(self, "thresholds.")
        if not self.low < self.high:
            raise ValueError("thresholds must satisfy 0 <= low < high <= 1")


@dataclass(frozen=True)
class StudyConfig:
    edges: str | None = None
    features: str | None = None
    labels: str | None = None
    train_per_class: int = setting(20, ">= 1")
    val_per_class: int = setting(30, ">= 1")
    n_splits: int = setting(10, ">= 1")
    n_inits: int = setting(3, ">= 1")
    n_graph_seeds: int = setting(5, ">= 1")
    models: tuple[str, ...] = MODEL_NAMES
    seed: int = setting(0, ">= 0")
    keep_top_k_components: int = setting(1, ">= 1")
    min_label_count: int | None = setting(None, ">= 1")  # None: train + val quota + 1
    # past ~0.5 a two-community graph inverts rather than scrambles (the
    # coefficient is symmetric to label flips), so the default sweep stops there
    fractions: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    thresholds: Thresholds = Thresholds(0.3, 0.7)
    train: TrainConfig = TrainConfig()

    def __post_init__(self) -> None:
        check_settings(self)
        if (not isinstance(self.models, (list, tuple)) or not self.models
                or any(m not in MODEL_NAMES for m in self.models)
                or len(set(self.models)) < len(self.models)):
            raise ValueError(f"models must be a non-empty subset of {MODEL_NAMES} "
                             "with no repeats")
        fr = self.fractions
        if not isinstance(fr, (list, tuple, np.ndarray)):
            raise ValueError(f"fractions must be a list of numbers, got {fr!r}")
        for i, f in enumerate(fr):
            check_number(f"fractions[{i}]", f)
        if (not len(fr) or any(not 0.0 <= f <= 1.0 for f in fr)
                or any(a >= b for a, b in zip(fr, fr[1:]))):
            raise ValueError(
                f"fractions must be non-empty, strictly ascending values in [0, 1], got {fr!r}")
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "fractions", tuple(float(f) for f in fr))

    @property
    def effective_min_label_count(self) -> int:
        if self.min_label_count is not None:
            return self.min_label_count
        # make_splits needs at least one test node per class
        return self.train_per_class + self.val_per_class + 1

    @classmethod
    def from_dict(cls, raw: dict) -> "StudyConfig":
        return _from_json(cls, raw)


def _from_json(cls, raw, key: str | None = None):
    """Build the settings dataclass ``cls`` from the JSON object ``raw``.
    A field whose default is a settings object is built from its own JSON
    object, named by ``key`` if it is unknown or leaves a field without a
    default unset; its other fields keep their defaults."""
    if not isinstance(raw, dict):
        raise ValueError(f"{key} must be a JSON object, got {raw!r}" if key else
                         f"a config must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - set(cls.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown {key + ' ' if key else ''}config keys: {sorted(unknown)}")
    unset = [f.name for f in fields(cls) if f.default is MISSING and f.name not in raw]
    if unset:
        raise ValueError(f"{key} must set {' and '.join(unset)}, got {sorted(raw)}")
    data = dict(raw)
    for f in fields(cls):
        if f.name in data and is_dataclass(f.default):
            data[f.name] = _from_json(type(f.default), data[f.name], f.name)
    return cls(**data)


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
    accuracy_mean: float | None  # None when the sweep trained no model
    accuracy_std: float | None


@dataclass(frozen=True)
class SweepCell:
    """Per-(fraction, generated graph) detail behind a sweep row."""

    fraction: float
    graph_seed: int
    u_values: tuple[float, ...]        # one per split
    accuracies: tuple[float, ...]      # one per split x init; () without features


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    cells: tuple[SweepCell, ...]


@dataclass
class StudyReport:
    schema_version: str
    config: StudyConfig
    dataset_summary: dict
    records: list[RunRecord]
    uncertainty: dict
    significance: list[SignificanceRecord]
    verdict: Verdict | None = None
    sweep: list[SweepRow] | None = None


@dataclass(frozen=True)
class PreparedStudy:
    """A study's config, preprocessed dataset, splits and base communities: the
    one input of every study stage. ``_map_tasks`` builds what only cells read."""

    config: StudyConfig
    dataset: Dataset
    splits: tuple[SplitSet, ...]
    base_partition: Partition


def preprocess_dataset(dataset: Dataset, config: StudyConfig) -> Dataset:
    """Drop the rare classes and keep the largest components, repeating both
    until neither removes a node, so ``min_label_count`` holds on the
    returned dataset, which is built once from the kept node ids."""
    labels = dataset.labels.labels
    nodes = remove_rare_labels(labels, config.effective_min_label_count)
    while True:
        nodes = nodes[select_components(induced_subgraph(dataset.graph, nodes),
                                        config.keep_top_k_components)]
        kept = remove_rare_labels(labels[nodes], config.effective_min_label_count)
        if len(kept) == len(nodes):
            return induced_subdataset(dataset, nodes)
        nodes = nodes[kept]


def prepare_study(dataset: Dataset, config: StudyConfig) -> PreparedStudy:
    """Preprocess, split and detect communities; ``_map_tasks`` checks the rest."""
    ds = preprocess_dataset(dataset, config)
    if ds.labels.num_labels < 2:
        raise GraphError("need at least two label classes after preprocessing")
    splits = make_splits(ds.labels, (config.train_per_class, config.val_per_class),
                         config.n_splits, derive_seed(config.seed, _ROLE_SPLITS))
    base_partition = louvain(
        ds.graph, derive_seed(config.seed, _ROLE_LOUVAIN, VARIANTS.index("original"), 0))
    return PreparedStudy(config=config, dataset=ds, splits=tuple(splits),
                         base_partition=base_partition)


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


def _variant_graph(prep: PreparedStudy, variant: str, g: int, densities=None):
    if variant == "original":
        return prep.dataset.graph
    seed = derive_seed(prep.config.seed, _ROLE_GRAPH, VARIANTS.index(variant), g)
    if variant == "sbm":
        return generate_sbm(densities, prep.base_partition, seed)
    if variant == "cm":
        return rewire_configuration_model(prep.dataset.graph, seed)
    if variant == "random":
        return generate_erdos_renyi(prep.dataset.n, prep.dataset.graph.m, seed)
    raise ValueError(f"unknown variant {variant!r}")


def _evaluate_models(prep: PreparedStudy, graph, variant: str, g: int,
                     models: Sequence[str]) -> dict[tuple[str, int, int], float]:
    """Test accuracy of every fit on one graph, keyed by (model, split, init).

    Logreg is SGC with K=0: both linear models are fit and predicted from
    the raw X, A_hat and their K. They start from zero weights, so each is
    fit once per split, under init 0; only the GCN draws a fresh
    initialization for each of the config's inits, and one ``train_gcn``
    call fits them all.
    """
    if not models:
        return {}
    config = prep.config
    labels = prep.dataset.labels
    features = prep.dataset.features
    # in X's dtype, so no sparse product upcasts float32 features
    adj = normalized_adjacency(graph).astype(features.values.dtype, copy=False)
    vi = VARIANTS.index(variant)
    accs = {}
    for model in models:
        mi = MODEL_NAMES.index(model)
        k = config.train.sgc_k if model == "sgc" else 0
        for s, split in enumerate(prep.splits):
            try:
                if model == "gcn":
                    seeds = [derive_seed(config.seed, _ROLE_INIT, vi, g, s, i, mi)
                             for i in range(config.n_inits)]
                    probs = [gcn_forward(fitted, adj, features) for fitted in
                             train_gcn(adj, features, labels, split, config.train, seeds)]
                else:
                    fitted = train_logreg(features, labels, split, config.train, adj, k)
                    probs = [logreg_forward(fitted, features, adj, k)]
            except Exception as exc:
                raise RuntimeError(
                    f"study cell failed: variant={variant} graph_seed={g} "
                    f"split={s} model={model}") from exc
            for i, p in enumerate(probs):
                accs[model, s, i] = accuracy(p, labels, split.test)
    return accs


def _uncertainty_values(prep: PreparedStudy, partition: Partition) -> list[float]:
    labels = prep.dataset.labels
    return [uncertainty_coefficient(joint_counts(labels, partition, split.labeled()))
            for split in prep.splits]


# worker-process state for the task pool (populated by fork or initializer):
# the study and its block-model graphs by graph seed
_TASK_STATE: tuple[PreparedStudy, dict[int, LabeledGraph]] | None = None


def _set_task_state(prep: PreparedStudy, sbm_graphs: dict[int, LabeledGraph]) -> None:
    global _TASK_STATE
    _TASK_STATE = prep, sbm_graphs


def _study_cell(task: tuple[str, int, int | None, tuple[str, ...]]):
    """One measurement on one graph: detect its communities, score
    U(L|C) on every split and train the task's models.

    The graph is the variant's graph for ``graph_seed``, swap-perturbed
    when the task carries a fraction index, so a sweep cell at fraction 0
    is the ablation's cell for the same variant and graph seed.
    """
    prep, sbm_graphs = _TASK_STATE
    config = prep.config
    variant, g, fraction_index, models = task
    graph = sbm_graphs[g] if variant == "sbm" else _variant_graph(prep, variant, g)
    if fraction_index is not None:
        graph = swap_perturbation(graph, prep.base_partition, config.fractions[fraction_index],
                                  derive_seed(config.seed, _ROLE_SWAP, g, fraction_index))
    # the original graph's communities were detected once, in prepare_study
    partition = prep.base_partition if graph is prep.dataset.graph else louvain(
        graph, derive_seed(config.seed, _ROLE_LOUVAIN, VARIANTS.index(variant), g))
    return (_uncertainty_values(prep, partition),
            _evaluate_models(prep, graph, variant, g, models))


def _map_tasks(tasks, prep: PreparedStudy, jobs: int) -> list:
    """Run the cells ``tasks``, after the one pre-flight of every study. It
    refuses, before any cell runs and in this order: missing features, too
    few edges to rewire, a swap fraction that cannot run, an edgeless sbm graph."""
    trains = any(models for *_, models in tasks)
    if trains and prep.dataset.features is None:
        raise ValueError("the study's dataset was loaded without features; training needs them")
    m = prep.dataset.graph.m
    if m < 2 and any(variant == "cm" for variant, *_ in tasks):
        raise GraphError(f"the cm variant rewires the kept graph, which has {m} "
                         f"edge{'' if m == 1 else 's'}; rewiring needs at least two")
    for fi in sorted({fi for _, _, fi, _ in tasks if fi is not None}):
        swap_count(prep.config.fractions[fi], prep.dataset.n,
                   prep.base_partition.num_communities)
    # each block-model graph is drawn once, here, from one map of block-pair
    # densities, and shared by every cell of its graph seed. Only it can draw
    # no edge: swaps and the cm and random rebuilds keep the edge count
    sbm_seeds = sorted({g for variant, g, _, _ in tasks if variant == "sbm"})
    if sbm_seeds:
        densities = block_density_matrix(prep.dataset.graph, prep.base_partition)
    sbm_graphs = {}
    for g in sbm_seeds:
        sbm_graphs[g] = _variant_graph(prep, "sbm", g, densities)
        if sbm_graphs[g].m == 0:
            raise GraphError(f"the sbm graph for graph seed {g} came out with no edges, "
                             "so it has no communities to detect")
    # a forked pool starts all of its workers at the first submit, so it
    # gets no more workers than there are tasks
    workers = min(jobs, len(tasks))
    if workers <= 1:
        _set_task_state(prep, sbm_graphs)
        return [_study_cell(t) for t in tasks]
    # imported here: a serial study skips the 20-30 ms it adds to start-up
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers, initializer=_set_task_state,
                             initargs=(prep, sbm_graphs)) as pool:
        return list(pool.map(_study_cell, tasks))


def run_ablation_study(prep: PreparedStudy, jobs: int = 1) -> StudyReport:
    """Evaluate every configured model on the original graph and on each
    rebuilt variant, measure per-graph label/community alignment, and test
    each cell against the feature-only baseline."""
    config = prep.config
    # the feature-only baseline ignores the graph: it is fit on the original
    # graph only, and its records repeat for every rebuilt one
    rebuilt_models = tuple(m for m in config.models if m != "logreg")
    cells = [("original", 0)] + [(v, g) for v in VARIANTS[1:]
                                 for g in range(config.n_graph_seeds)]
    tasks = [(v, g, None, config.models if v == "original" else rebuilt_models)
             for v, g in cells]
    u_by_variant: dict[str, list[float]] = {}
    accs = {}
    for cell, (u_values, fits) in zip(cells, _map_tasks(tasks, prep, jobs)):
        u_by_variant.setdefault(cell[0], []).extend(u_values)
        accs[cell] = fits
    # the linear models are fit under init 0 only, so their records repeat
    # for every init
    records = [RunRecord(model=model, variant=v, graph_seed=g, split=s, init=i,
                         accuracy=accs[("original", 0) if model == "logreg" else (v, g)]
                                      [model, s, i if model == "gcn" else 0])
               for model in config.models for v, g in cells
               for s in range(config.n_splits) for i in range(config.n_inits)]

    uncertainty = {
        variant: {"mean": float(np.mean(vals)), "std": float(np.std(vals)),
                  "n_samples": len(vals)}
        for variant, vals in u_by_variant.items()
    }

    significance = _baseline_tests(records)
    verdict = guideline_verdict(uncertainty["original"]["mean"], None,
                                config.thresholds)
    return StudyReport(
        schema_version=SCHEMA_VERSION,
        config=config,
        dataset_summary=dataset_summary(prep),
        records=records,
        uncertainty=uncertainty,
        significance=significance,
        verdict=verdict,
    )


def cell_samples(records: Sequence[RunRecord]) -> dict[tuple[str, str], list[float]]:
    """Accuracies grouped by (model, variant), in report order."""
    cells: dict[tuple[str, str], list[float]] = {}
    for r in records:
        cells.setdefault((r.model, r.variant), []).append(r.accuracy)
    return cells


def _baseline_tests(records: list[RunRecord]) -> list[SignificanceRecord]:
    """Rank-test every (model, variant) accuracy sample against the
    feature-only baseline on the original graph."""
    cells = cell_samples(records)
    baseline = cells.pop(("logreg", "original"), None)
    if baseline is None:
        return []
    tests = [mann_whitney_u(accs, baseline) for accs in cells.values()]
    adjusted = bonferroni([t.p_value for t in tests])
    out = []
    for key, test, p_adj in zip(cells, tests, adjusted):
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

    Each cell is the ablation's block-model cell with a swap fraction, so
    the fraction-0 column is the block-model variant of the ablation. A
    study without features trains nothing: the same U values, no accuracies."""
    config = prep.config
    trains = prep.dataset.features is not None
    tasks = [("sbm", g, fi, ("gcn",) if trains else ())
             for fi in range(len(config.fractions))
             for g in range(config.n_graph_seeds)]
    results = _map_tasks(tasks, prep, jobs)
    cells = [SweepCell(fraction=config.fractions[fi], graph_seed=g,
                       u_values=tuple(u_values),
                       accuracies=tuple(accs.values()))
             for (_, g, fi, _), (u_values, accs) in zip(tasks, results)]
    rows = []
    for fraction in config.fractions:
        group = [c for c in cells if c.fraction == fraction]
        u_all = np.concatenate([c.u_values for c in group])
        acc_all = np.concatenate([c.accuracies for c in group])
        rows.append(SweepRow(fraction=float(fraction),
                             u_mean=float(u_all.mean()), u_std=float(u_all.std()),
                             accuracy_mean=float(acc_all.mean()) if trains else None,
                             accuracy_std=float(acc_all.std()) if trains else None))
    return SweepResult(rows=tuple(rows), cells=tuple(cells))


def guideline_verdict(u_original: float, sweep_rows: Sequence[SweepRow] | None = None,
                      thresholds: Thresholds = StudyConfig.thresholds) -> Verdict:
    """Two-step applicability rule.

    Below the low threshold: use a feature-only model. Above the high
    threshold: graph propagation should help. In between, a perturbation
    sweep decides: a declining alignment curve (least-squares slope below
    -SLOPE_EPSILON) indicates exploitable structure; a flat one does not.
    Without a sweep, the middle band is inconclusive.
    """
    if not 0.0 <= u_original <= 1.0:
        raise ValueError("u_original must lie in [0, 1]")
    if u_original < thresholds.low:
        return Verdict(decision=Decision.FEATURE_ONLY, u_original=u_original)
    if u_original > thresholds.high:
        return Verdict(decision=Decision.GNN_APPLICABLE, u_original=u_original)
    if sweep_rows is None or len(sweep_rows) < 2:
        return Verdict(decision=Decision.INCONCLUSIVE, u_original=u_original)
    xs = np.array([r.fraction for r in sweep_rows])
    ys = np.array([r.u_mean for r in sweep_rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    if slope < -SLOPE_EPSILON:
        return Verdict(decision=Decision.GNN_APPLICABLE_AFTER_SWEEP,
                       u_original=u_original, sweep_slope=slope)
    return Verdict(decision=Decision.FEATURE_ONLY_AFTER_SWEEP,
                   u_original=u_original, sweep_slope=slope)


def _json_default(value):
    """json.dump hook: dataclasses as field dicts."""
    if is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    raise TypeError(f"cannot write {type(value).__name__} as JSON")


def write_json(payload, path) -> Path:
    """Write ``payload`` as indented JSON. Floats keep full round-trip
    precision, so identical payloads give byte-identical files."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, default=_json_default)
        fh.write("\n")
    return path


def _write_csv(cls, rows: Sequence, path) -> Path:
    """Write the dataclass ``rows`` of type ``cls`` as CSV: a header of its
    field names, then ``str()`` of each field. str of a float is its
    round-trip repr, so identical rows give byte-identical files."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    names = [f.name for f in fields(cls)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join(str(getattr(row, name)) for name in names) + "\n")
    return path


def emit_report(report: StudyReport, out_dir) -> list[Path]:
    """Write report.json and accuracies.csv (plus sweep.csv when the report
    carries sweep rows). Floats are written with full round-trip precision,
    so identical studies produce byte-identical files."""
    out = Path(out_dir)
    written = [write_json(report, out / "report.json"),
               _write_csv(RunRecord, report.records, out / "accuracies.csv")]
    if report.sweep:
        written.append(write_sweep_csv(report.sweep, out / "sweep.csv"))
    return written


def write_sweep_csv(rows: Sequence[SweepRow], path) -> Path:
    return _write_csv(SweepRow, rows, path)


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
    return AnalysisResult(
        **dataset_summary(prep),
        num_communities=prep.base_partition.num_communities,
        modularity=modularity(prep.dataset.graph, prep.base_partition),
        u_mean=float(np.mean(u_values)),
        u_std=float(np.std(u_values)),
        u_values=tuple(u_values),
    )


@dataclass(frozen=True)
class VerdictReport:
    """The applicability decision, the analysis it reads U(L|C) from, and
    the rows of the swap sweep when the middle band ran one."""

    verdict: Verdict
    analysis: AnalysisResult
    sweep: tuple[SweepRow, ...] | None


def run_verdict(prep: PreparedStudy, jobs: int = 1) -> VerdictReport:
    """Apply the two-step rule: decide from U(L|C), and in the middle band
    from how U falls along the swap sweep, which fits a slope and so is
    refused, before any cell runs, with fewer than two fractions.

    The sweep measures U only: it runs without the dataset's features, so
    the stage trains nothing and gives the same report whether or not the
    features were loaded."""
    config = prep.config
    analysis = analyze_prepared(prep)
    verdict = guideline_verdict(analysis.u_mean, None, config.thresholds)
    if verdict.decision is not Decision.INCONCLUSIVE:
        return VerdictReport(verdict=verdict, analysis=analysis, sweep=None)
    if len(config.fractions) < 2:
        raise ValueError(f"the middle-band sweep fits a slope, so it needs at least two "
                         f"fractions; got {len(config.fractions)}: {list(config.fractions)}")
    untrained = replace(prep, dataset=replace(prep.dataset, features=None))
    rows = run_perturbation_sweep(untrained, jobs=jobs).rows
    return VerdictReport(verdict=guideline_verdict(analysis.u_mean, rows, config.thresholds),
                         analysis=analysis, sweep=rows)
