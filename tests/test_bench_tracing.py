"""The benchmark's per-layer tracer wraps graphdiag functions by name; every
name it lists must stay a module-level function of the package."""

import importlib
import importlib.util
import inspect
from pathlib import Path

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
                     TrainConfig(max_epochs=40), init_seed=1)
    assert counts["calls"] == counts["evaluations"] > 1
