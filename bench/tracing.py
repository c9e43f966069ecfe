"""In-memory span tracing around graphdiag's public functions.

Callers bind many of these functions by name at import (``harness`` does
``from .community import louvain``; ``train_gcn``'s closure looks up
``gcn_loss_grad`` as a module global), so each wrapper replaces the
original in every ``graphdiag.*`` namespace that binds it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time

LAYERS = {
    "io": ("load_dataset", "load_labels", "load_features", "load_edges"),
    "graphs": ("to_undirected", "remove_rare_labels", "select_components",
               "connected_components", "induced_subdataset"),
    "community": ("louvain", "modularity", "block_density_matrix"),
    "nullmodels": ("generate_sbm", "rewire_configuration_model",
                   "generate_erdos_renyi", "swap_perturbation"),
    "models": ("normalized_adjacency", "sgc_propagate", "train_logreg", "train_gcn",
               "logreg_loss_grad", "gcn_loss_grad", "logreg_forward", "gcn_forward",
               "accuracy"),
    "infotheory": ("joint_counts", "uncertainty_coefficient"),
    "stats": ("mann_whitney_u", "bonferroni"),
    "harness": ("prepare_study", "make_splits", "run_ablation_study",
                "run_perturbation_sweep", "analyze_prepared", "emit_report",
                "write_sweep_csv"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns)
EXTRA_METRICS = {
    "models.train_logreg.distinct_ratio": "ratio",
    "nullmodels.rewire_stall_warnings": "count",
    "trace.overhead_frac": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


def _logreg_digest(model) -> str:
    return hashlib.sha256(model.W.tobytes() + model.b.tobytes()).hexdigest()


class Tracer:
    """Records one span per wrapped call: name, start, end and parent span.

    Self time (span duration minus time covered by child spans) and call
    counts are accumulated as spans close; ``train_logreg`` results are
    digested so duplicate training shows as a ratio.
    """

    def __init__(self) -> None:
        self.spans: list = []          # (name, start, end, parent index)
        self._open: list[int] = []     # indices of open spans, innermost last
        self._child_s: list[float] = []
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.logreg_digests: set[str] = set()

    def _wrap(self, name: str, fn):
        observe = _logreg_digest if name == "models.train_logreg" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(None)
            self._open.append(index)
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                child = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += end - start
                self.spans[index] = (name, start, end, parent)
                self.calls[name] += 1
                self.self_s[name] += end - start - child
            if observe is not None:
                self.logreg_digests.add(observe(result))
            return result

        return traced

    def install(self) -> None:
        """Replace every listed function in every loaded graphdiag module."""
        importlib.import_module("graphdiag.cli")
        modules = [m for key, m in sys.modules.items()
                   if key == "graphdiag" or key.startswith("graphdiag.")]
        for name in SPAN_NAMES:
            module_name, fn_name = name.rsplit(".", 1)
            original = getattr(sys.modules[f"graphdiag.{module_name}"], fn_name)
            wrapped = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def metrics(self, stall_warnings: int) -> dict[str, float]:
        """Per-layer metrics of this process; the overhead is added by the
        caller, which sees both traced and untraced runs."""
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        logreg_calls = self.calls["models.train_logreg"]
        out["models.train_logreg.distinct_ratio"] = (
            len(self.logreg_digests) / logreg_calls if logreg_calls else 0.0)
        out["nullmodels.rewire_stall_warnings"] = stall_warnings
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
