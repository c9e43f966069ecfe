"""The benchmark's per-layer tracer wraps graphdiag functions by name; every
name it lists must stay a module-level function of the package."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import graphdiag
from graphdiag.synthetic import aligned_benchmark

from conftest import write_dataset

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_layer_is_a_module_function():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, names in tracing.LAYERS.items():
        module = importlib.import_module(f"graphdiag.{module_name}")
        for name in names:
            if not inspect.isfunction(getattr(module, name, None)):
                missing.append(f"{module_name}.{name}")
    assert missing == []


def test_train_gcn_calls_the_module_loss_once_per_evaluation(monkeypatch):
    # the tracer wraps graphdiag.models.gcn_loss_grad by name, so its
    # self_s measures the GCN epochs only while train_gcn looks the loss up
    # as a module global, once per loss evaluation (epochs plus retries)
    import numpy as np

    from graphdiag import (FeatureMatrix, LabelVector, TrainConfig, models,
                           normalized_adjacency)
    from graphdiag.harness import SplitSet
    from graphdiag.synthetic import planted_partition_graph

    graph, part = planted_partition_graph(30, 2, 0.3, 0.02, seed=1)
    rng = np.random.default_rng(0)
    features = FeatureMatrix(rng.standard_normal((graph.n, 4)))
    labels = LabelVector(part.assignment.copy(), 2)
    perm = rng.permutation(graph.n)
    split = SplitSet(train=np.sort(perm[:10]), val=np.sort(perm[10:25]),
                     test=np.sort(perm[25:]))
    loss_grad, descend = models.gcn_loss_grad, models._descend
    counts = {"calls": 0, "evaluations": 0}

    def counting_loss_grad(*args):
        counts["calls"] += 1
        return loss_grad(*args)

    def counting_descend(params, evaluate, y_val, config):
        def counted(p):
            counts["evaluations"] += 1
            return evaluate(p)
        return descend(params, counted, y_val, config)

    monkeypatch.setattr(models, "gcn_loss_grad", counting_loss_grad)
    monkeypatch.setattr(models, "_descend", counting_descend)
    models.train_gcn(normalized_adjacency(graph), features, labels, split,
                     TrainConfig(max_epochs=40), [1])
    assert counts["calls"] == counts["evaluations"] > 1


def test_every_span_is_called_by_analyze_ablate_and_perturb(tmp_path):
    # a span that no study command calls measures nothing. Tracer.install
    # rewrites module globals, so the commands run in a fresh interpreter
    write_dataset(tmp_path, aligned_benchmark(seed=2))
    config = {
        "edges": "edges.txt", "features": "features.csv", "labels": "labels.tsv",
        "train_per_class": 10, "val_per_class": 15,
        "n_splits": 1, "n_inits": 1, "n_graph_seeds": 1, "seed": 11,
        "fractions": [0, 0.25],
        "train": {"max_epochs": 20, "patience": 5, "hidden_dim": 8},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    script = (
        "import importlib.util, json\n"
        f"spec = importlib.util.spec_from_file_location('bench_tracing', {str(TRACING)!r})\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracing)\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "import graphdiag.cli\n"
        "for command in ('analyze', 'ablate', 'perturb'):\n"
        "    assert graphdiag.cli.main([command, 'config.json', '--out', command]) == 0\n"
        "print(json.dumps([n for n in tracing.SPAN_NAMES if not tracer.calls[n]]))\n")
    src = str(Path(graphdiag.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            cwd=tmp_path, timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []
