"""Classifiers: feature-only logistic regression, k-step propagation
features, and a two-layer graph convolution network.

Propagation uses the symmetric-normalized adjacency with self-connections,
A_hat = D^(-1/2) (A + I) D^(-1/2). The GCN is
softmax(A_hat . relu(A_hat X W0) . W1); its backward pass is written out
by hand so training stays dependency-free and exactly reproducible.

Optimization is full-batch gradient descent with a halve-on-increase
learning-rate backoff: a step that would raise the training loss is
retried at half the rate, so the recorded loss sequence never increases.
Model selection keeps the epoch with the best validation accuracy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .graphs import FeatureMatrix, LabeledGraph, LabelVector

MIN_LEARNING_RATE = 1e-12


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; carries the offending epoch index."""

    def __init__(self, epoch: int):
        super().__init__(f"training loss became non-finite at epoch {epoch}")
        self.epoch = epoch


def check_number(key: str, value, integer: bool = False) -> None:
    """Raise a ValueError naming ``key`` unless ``value`` is a finite real
    number, or an integer when ``integer`` is set; a bool is neither."""
    # an infinite learning rate would never be halved below MIN_LEARNING_RATE
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if integer else numbers.Real) or (
            not integer and not math.isfinite(value)):
        raise ValueError(
            f"{key} must be {'an integer' if integer else 'a finite number'}, got {value!r}")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters shared by every training run of a study."""

    # full-batch plain GD wants a large base step; the backoff halves it
    # whenever a step would overshoot
    learning_rate: float = 2.0
    max_epochs: int = 300
    weight_decay: float = 5e-4
    patience: int = 30
    hidden_dim: int = 16
    sgc_k: int = 2

    def __post_init__(self) -> None:
        for field in fields(self):
            check_number(f"train.{field.name}", getattr(self, field.name),
                         integer=field.type == "int")
        rules = (("learning_rate", "> 0", self.learning_rate > 0),
                 ("max_epochs", ">= 1", self.max_epochs >= 1),
                 ("weight_decay", ">= 0", self.weight_decay >= 0),
                 ("patience", ">= 1", self.patience >= 1),
                 ("hidden_dim", ">= 1", self.hidden_dim >= 1),
                 ("sgc_k", ">= 0", self.sgc_k >= 0))
        for key, rule, ok in rules:
            if not ok:
                raise ValueError(
                    f"train.{key} must be {rule}, got {getattr(self, key)!r}")
        # stored as floats, so equal configs (a rate of 2 or 2.0) write equal bytes
        for field in fields(self):
            if field.type == "float":
                object.__setattr__(self, field.name, float(getattr(self, field.name)))


@dataclass
class LogRegModel:
    W: np.ndarray  # (num_labels, d)
    b: np.ndarray  # (num_labels,)


@dataclass
class GcnModel:
    W0: np.ndarray  # (d, hidden)
    W1: np.ndarray  # (hidden, num_labels)


def normalized_adjacency(graph: LabeledGraph) -> sp.csr_matrix:
    """Build A_hat = D^(-1/2) (A + I) D^(-1/2) in CSR form; isolated nodes
    get weight 1. It is symmetric with spectral radius <= 1."""
    deg = graph.degrees() + 1.0
    inv_sqrt = 1.0 / np.sqrt(deg)
    src = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees())
    rows = np.concatenate([src, np.arange(graph.n, dtype=np.int64)])
    cols = np.concatenate([graph.neighbors, np.arange(graph.n, dtype=np.int64)])
    data = inv_sqrt[rows] * inv_sqrt[cols]
    return sp.coo_matrix((data, (rows, cols)), shape=(graph.n, graph.n)).tocsr()


def sgc_propagate(adj: sp.csr_matrix, features: FeatureMatrix,
                  k: int) -> FeatureMatrix:
    """Apply the propagation operator k times; k = 0 is the identity."""
    if k < 0:
        raise ValueError("k must be >= 0")
    out = features.values
    for _ in range(k):
        out = adj @ out
    return FeatureMatrix(out)


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _cross_entropy(probs: np.ndarray, y: np.ndarray) -> float:
    return float(-np.mean(np.log(np.maximum(probs[np.arange(len(y)), y], 1e-300))))


def accuracy(predictions: np.ndarray, labels: LabelVector, mask: np.ndarray) -> float:
    """Fraction of mask nodes whose argmax prediction matches the label.

    Argmax ties resolve to the lowest class id.
    """
    mask = np.asarray(mask, dtype=np.int64)
    if len(mask) == 0:
        raise ValueError("mask must be non-empty")
    pred = np.argmax(predictions[mask], axis=1)
    return float(np.mean(pred == labels.labels[mask]))


def _descend(params: list[np.ndarray],
             loss_grad: Callable[[list[np.ndarray]], tuple[float, list[np.ndarray], np.ndarray]],
             val_acc: Callable[[np.ndarray], float],
             config: TrainConfig) -> tuple[list[np.ndarray], list[float]]:
    """Shared training loop; returns (best-validation params, loss history)."""
    lr = config.learning_rate
    loss, grads, probs = loss_grad(params)
    if not np.isfinite(loss):
        raise TrainingDivergedError(0)
    best_params = [p.copy() for p in params]
    best_acc = val_acc(probs)
    losses = [loss]
    stale = 0
    for epoch in range(1, config.max_epochs + 1):
        cand = [p - lr * g for p, g in zip(params, grads)]
        cand_loss, cand_grads, cand_probs = loss_grad(cand)
        while (not np.isfinite(cand_loss) or cand_loss > loss) and lr > MIN_LEARNING_RATE:
            lr *= 0.5
            cand = [p - lr * g for p, g in zip(params, grads)]
            cand_loss, cand_grads, cand_probs = loss_grad(cand)
        if not np.isfinite(cand_loss):
            raise TrainingDivergedError(epoch)
        if cand_loss > loss:
            break  # stationary up to numerical precision
        params, loss, grads = cand, cand_loss, cand_grads
        losses.append(loss)
        acc = val_acc(cand_probs)
        if acc > best_acc:
            best_acc = acc
            best_params = [p.copy() for p in params]
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    return best_params, losses


def logreg_loss_grad(params: list[np.ndarray], X: np.ndarray, y: np.ndarray,
                     train_idx: np.ndarray, weight_decay: float):
    """Loss, parameter gradients, and the probabilities of every row of X
    for softmax regression: mean train cross-entropy + (weight_decay / 2)
    ||W||^2."""
    W, b = params
    probs = _softmax(X @ W.T + b)
    pt = probs[train_idx]
    onehot = np.eye(W.shape[0])[y[train_idx]]
    loss = (_cross_entropy(pt, y[train_idx])
            + 0.5 * weight_decay * float(np.sum(W * W)))
    dlogits = (pt - onehot) / len(train_idx)
    dW = dlogits.T @ X[train_idx] + weight_decay * W
    db = dlogits.sum(axis=0)
    return loss, [dW, db], probs


def train_logreg(features: FeatureMatrix, labels: LabelVector, split,
                 config: TrainConfig) -> LogRegModel:
    """Softmax regression on raw features by full-batch gradient descent.

    Weights start at zero, so the fit needs no seed. Only the train rows
    (loss) and validation rows (early stopping) are read, so the descent
    runs on those rows alone. Returns the parameters of the
    best-validation epoch.
    """
    train, val = np.asarray(split.train), np.asarray(split.val)
    if len(train) == 0 or len(val) == 0:
        raise ValueError("train and validation sets must be non-empty")
    rows = split.labeled()
    X = features.values[rows]
    fit_labels = LabelVector(labels.labels[rows], labels.num_labels)
    fit_train = np.arange(len(train))
    fit_val = np.arange(len(train), len(rows))

    def loss_grad(params):
        return logreg_loss_grad(params, X, fit_labels.labels, fit_train,
                                config.weight_decay)

    def val_acc(probs):
        return accuracy(probs, fit_labels, fit_val)

    params0 = [np.zeros((labels.num_labels, features.d)), np.zeros(labels.num_labels)]
    (W, b), _ = _descend(params0, loss_grad, val_acc, config)
    return LogRegModel(W=W, b=b)


def logreg_forward(model: LogRegModel, features: FeatureMatrix) -> np.ndarray:
    return _softmax(features.values @ model.W.T + model.b)


def glorot_uniform(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    bound = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-bound, bound, size=shape)


def gcn_forward(model: GcnModel, adj: sp.csr_matrix,
                propagated: FeatureMatrix) -> np.ndarray:
    """Per-node class probabilities from the propagated input A_hat X;
    every row sums to one."""
    hidden = np.maximum(propagated.values @ model.W0, 0.0)
    return _softmax(adj @ hidden @ model.W1)


def gcn_loss_grad(params: list[np.ndarray], adj: sp.csr_matrix,
                  AX: np.ndarray, y: np.ndarray, train_idx: np.ndarray,
                  weight_decay: float):
    """Loss, hand-derived gradients, and probabilities for the two-layer GCN.

    ``AX`` is the propagated input A_hat X (constant across epochs). The
    backward pass runs cross-entropy -> softmax -> sparse propagation ->
    relu -> sparse propagation, exploiting A_hat's symmetry.
    """
    W0, W1 = params
    pre = AX @ W0
    hidden = np.maximum(pre, 0.0)
    probs = _softmax(adj @ hidden @ W1)
    onehot = np.eye(W1.shape[1])[y[train_idx]]
    loss = (_cross_entropy(probs[train_idx], y[train_idx])
            + 0.5 * weight_decay * float(np.sum(W0 * W0) + np.sum(W1 * W1)))
    dlogits = np.zeros_like(probs)
    dlogits[train_idx] = (probs[train_idx] - onehot) / len(train_idx)
    d_ah = adj @ dlogits  # A_hat is symmetric
    dW1 = hidden.T @ d_ah + weight_decay * W1
    dhidden = d_ah @ W1.T
    dpre = np.where(pre > 0, dhidden, 0.0)
    dW0 = AX.T @ dpre + weight_decay * W0
    return loss, [dW0, dW1], probs


def train_gcn(adj: sp.csr_matrix, propagated: FeatureMatrix, labels: LabelVector,
              split, config: TrainConfig, init_seed: int = 0) -> GcnModel:
    """Two-layer GCN trained with hand-derived gradients.

    ``adj`` is the graph's A_hat (``normalized_adjacency``) and
    ``propagated`` its first power applied to the features, A_hat X; the
    caller builds both once and shares them with every run on that graph.
    Forward: P = softmax(A_hat relu(A_hat X W0) W1), loss = mean
    cross-entropy on the train rows plus (weight_decay / 2) ||W||^2 over
    both weight matrices. Weights are Glorot-uniform from ``init_seed``;
    early stopping watches validation accuracy.
    """
    y = labels.labels
    train, val = np.asarray(split.train), np.asarray(split.val)
    if len(train) == 0 or len(val) == 0:
        raise ValueError("train and validation sets must be non-empty")

    def loss_grad(params):
        return gcn_loss_grad(params, adj, propagated.values, y, train,
                             config.weight_decay)

    def val_acc(probs):
        return accuracy(probs, labels, val)

    rng = np.random.default_rng(init_seed)
    params0 = [glorot_uniform((propagated.d, config.hidden_dim), rng),
               glorot_uniform((config.hidden_dim, labels.num_labels), rng)]
    (W0, W1), _ = _descend(params0, loss_grad, val_acc, config)
    return GcnModel(W0=W0, W1=W1)
