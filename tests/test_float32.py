"""The float32 path: feature files load as float32, and every fit and
forward pass runs in the dtype of its feature matrix."""

import json

import numpy as np
import pytest

from graphdiag import (FeatureMatrix, TrainConfig, gcn_forward, logreg_forward, make_splits,
                       normalized_adjacency, train_gcn, train_logreg)
from graphdiag import models
from graphdiag.cli import main
from graphdiag.models import gcn_loss_grad, gcn_row_block, glorot_uniform, logreg_loss_grad
from graphdiag.synthetic import planted_dataset

from conftest import write_dataset

CONFIG = TrainConfig(max_epochs=40, patience=40, hidden_dim=6)


def _planted(dtype):
    """A small planted dataset's A_hat, X, labels and split, with A_hat and
    X in ``dtype``; the float32 values are the float64 ones rounded, and
    the float64 set holds those rounded values exactly."""
    ds = planted_dataset(n_per_block=30, num_blocks=3, feature_dim=5, feature_shift=1.0,
                         seed=4)
    values = ds.features.values.astype(np.float32).astype(dtype)
    adj = normalized_adjacency(ds.graph).astype(np.float32).astype(dtype)
    split = make_splits(ds.labels, (5, 5), n_splits=1, seed=0)[0]
    return adj, FeatureMatrix(values), ds.labels, split


def test_feature_matrix_keeps_float32_and_stores_the_rest_as_float64():
    assert FeatureMatrix(np.zeros((2, 2), dtype=np.float32)).values.dtype == np.float32
    for values in (np.zeros((2, 2), dtype=np.float16), np.zeros((2, 2), dtype=np.int64),
                   [[0, 1]]):
        assert FeatureMatrix(values).values.dtype == np.float64


@pytest.mark.parametrize("model, k", [("logreg", 0), ("sgc", 2), ("gcn", 1)])
def test_a_float32_fit_returns_float32_weights_and_probabilities(model, k):
    adj, X, labels, split = _planted(np.float32)
    if model == "gcn":
        [fitted] = train_gcn(adj, X, labels, split, CONFIG, [7])
        weights, probs = [fitted.W0, fitted.W1], gcn_forward(fitted, adj, X)
    else:
        fitted = train_logreg(X, labels, split, CONFIG, adj, k)
        weights, probs = [fitted.W, fitted.b], logreg_forward(fitted, X, adj, k)
    assert [w.dtype for w in weights] == [np.float32, np.float32]
    assert probs.dtype == np.float32


def _first_loss_grad(model, dtype):
    """(loss, gradients, probabilities) of the first ``loss_grad`` call of
    ``model`` on the planted set in ``dtype``."""
    adj, X, labels, split = _planted(dtype)
    rows = split.labeled()
    y = labels.labels[rows][:len(split.train)]
    if model == "logreg":
        return logreg_loss_grad([np.zeros((3, X.d), dtype), np.zeros(3, dtype)],
                                X.values[rows], y, CONFIG.weight_decay)
    rng = np.random.default_rng(7)
    params = [glorot_uniform(shape, rng).astype(dtype) for shape in ((X.d, 6), (6, 3))]
    return gcn_loss_grad(params, *gcn_row_block(adj, X, split.train, split.val), y,
                         CONFIG.weight_decay)


@pytest.mark.parametrize("model", ["logreg", "gcn"])
def test_float32_loss_grads_stay_float32_and_agree_with_float64(model):
    loss32, grads32, probs32 = _first_loss_grad(model, np.float32)
    loss64, grads64, probs64 = _first_loss_grad(model, np.float64)
    assert [g.dtype for g in grads32] == [np.float32, np.float32]
    assert probs32.dtype == np.float32
    assert [g.dtype for g in grads64] == [np.float64, np.float64]
    assert loss32 == pytest.approx(loss64, rel=1e-5)
    # relative to the largest gradient entry: from zero weights the logreg
    # bias gradient sums balanced classes to 0 (1e-17 in float64, 1e-8 in
    # float32), and no relative bound holds for a cancellation
    scale = max(np.abs(g).max() for g in grads64)
    for g32, g64 in zip(grads32, grads64):
        np.testing.assert_allclose(g32, g64, rtol=1e-5, atol=1e-5 * scale)
    np.testing.assert_allclose(probs32, probs64, rtol=1e-5)


def test_the_cross_entropy_floor_holds_in_float32():
    # 1e-300 would underflow to 0 in float32, and log(0) is -inf
    probs32 = np.array([[0.0, 1.0]], dtype=np.float32)
    loss = models._cross_entropy(probs32, np.array([0]))
    assert loss == pytest.approx(-np.log(np.finfo(np.float32).tiny))
    assert models._cross_entropy(probs32.astype(np.float64), np.array([0])) == -np.log(1e-300)


def test_the_cli_refuses_a_feature_beyond_float32(tmp_path, capsys):
    ds = planted_dataset(n_per_block=20, feature_dim=3, seed=1)
    write_dataset(tmp_path, ds)
    path = tmp_path / "features.csv"
    lines = path.read_text().splitlines(keepends=True)
    token, *values = lines[6].rstrip("\n").split(",")
    lines[6] = ",".join([token, "1e39", *values[1:]]) + "\n"
    path.write_text("".join(lines))
    config = {name: str(tmp_path / f"{name}.{ext}") for name, ext in
              (("edges", "txt"), ("features", "csv"), ("labels", "tsv"))}
    (tmp_path / "config.json").write_text(json.dumps(config))
    argv = ["ablate", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err.strip() == (
        f"graphdiag: error: {path}:7: feature value out of float32 range")
