"""Classifiers: feature-only logistic regression, SGC (softmax regression
on A_hat^K X), and a two-layer graph convolution network.

Propagation uses the symmetric-normalized adjacency with self-connections,
A_hat = D^(-1/2) (A + I) D^(-1/2). The GCN is
softmax(A_hat . relu(A_hat X W0) . W1); its backward pass is written out
by hand so training stays dependency-free and exactly reproducible.

A_hat is a ``Csr``, numpy's arrays in compressed sparse row form, each of
its rows with columns ascending. Every product ``A @ Z`` has one exact
summation order: output element (i, j) starts from +0.0 and adds
A[i, c] * Z[c, j] for the stored entries c of row i in stored order, each
product rounded once and each sum rounded once, in the dtype both
operands cast to. That is the order of scipy's ``csr_matvecs``, so the
products equal scipy's bit for bit, and a row or column slice keeps each
row's stored order.

Logreg is SGC with K = 0, and both share one fit and one forward, which
read the same (X, A_hat, K). The fit propagates only the split's labeled
rows of A_hat^K X, working backwards over each power's support
(``sgc_propagate``); a CSR row slice keeps each row's summation order, so
every row equals the full product's bit for bit. ``logreg_forward``
predicts every node through A_hat^K (X W^T), a product over
n x num_labels, so no n x d power of A_hat X is built.

A GCN epoch reads predictions on the train and validation rows only, so
training runs on a row block: the rows of A_hat X within one hop of a
labeled node, and the train nodes' one-hop set for the backward pass;
``train_gcn`` builds it once per split, for all of its inits. The labeled
rows' probabilities and the loss equal the full-graph ones bit for bit;
the gradients, summed over fewer rows, may differ in the last bit.
Prediction over every node takes A_hat (X W0), so no n x d product is
built and X is read only through ``@``.

Every array of a fit or a forward pass takes the dtype of the features
X, so numpy picks its kernels from X: files load as float32, the precision
the paper's PyTorch models train in, and float64 X (generated data, the
test oracles) runs in float64. A_hat is passed in X's dtype (the harness
casts it once per graph), or its products would upcast X.

Optimization is full-batch gradient descent with a halve-on-increase
learning-rate backoff: a step that would raise the training loss is
retried at half the rate, so the recorded loss sequence never increases.
Every loss returns its probabilities with the train rows first and the
validation rows last; model selection keeps the epoch whose validation
rows score the best accuracy.

A study setting states its type and bound once, at its dataclass field
(``setting``); ``check_settings`` holds every settings dataclass to them.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, Sequence

import numpy as np

from .graphs import FeatureMatrix, LabeledGraph, LabelVector, frozen_array

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


_BOUNDS = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


def setting(default, rule: str):
    """A number field of a settings dataclass, with its default (``MISSING``
    for none) and the bound ``check_settings`` holds it to, e.g. ``">= 1"``."""
    return field(default=default, metadata={"rule": rule})


def check_settings(config, prefix: str = "") -> None:
    """Check each field of the settings dataclass ``config`` in order by its
    annotated type, naming it ``prefix`` + its name: a ``str`` is a path
    string, an ``int`` or ``float`` is a ``setting`` within its bound (a
    bool is no number), a field whose default is a settings object holds
    one of its class, and a ``| None`` field may be None. Floats are
    stored as floats, so equal configs (2 or 2.0) write equal bytes."""
    for f in fields(config):
        key, value = prefix + f.name, getattr(config, f.name)
        kind, _, optional = f.type.partition(" | ")
        if value is None and optional == "None":
            continue
        if is_dataclass(f.default) and not isinstance(value, type(f.default)):
            raise ValueError(f"{key} must be a {type(f.default).__name__}, "
                             f"got {type(value).__name__}")
        if kind == "str" and not isinstance(value, str):
            raise ValueError(f"{key} must be a path string, got {value!r}")
        if kind in ("int", "float"):
            check_number(key, value, integer=kind == "int")
            op, bound = f.metadata["rule"].split()
            if not _BOUNDS[op](value, float(bound)):
                raise ValueError(f"{key} must be {f.metadata['rule']}, got {value!r}")
        if kind == "float":
            object.__setattr__(config, f.name, float(value))


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters shared by every training run of a study."""

    # full-batch plain GD wants a large base step; the backoff halves it
    # whenever a step would overshoot
    learning_rate: float = setting(2.0, "> 0")
    max_epochs: int = setting(300, ">= 1")
    weight_decay: float = setting(5e-4, ">= 0")
    patience: int = setting(30, ">= 1")
    hidden_dim: int = setting(16, ">= 1")
    sgc_k: int = setting(2, ">= 0")

    def __post_init__(self) -> None:
        check_settings(self, "train.")


@dataclass
class LogRegModel:
    W: np.ndarray  # (num_labels, d)
    b: np.ndarray  # (num_labels,)


@dataclass
class GcnModel:
    W0: np.ndarray  # (d, hidden)
    W1: np.ndarray  # (hidden, num_labels)


# elements of Z one step of ``Csr @ Z`` gathers (256 KiB in float32); each
# temporary of a product holds at most this many, beside the output (and a
# cast copy of Z when the two dtypes differ)
_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class Csr:
    """A sparse matrix in compressed sparse row form: row i holds the values
    ``data[indptr[i]:indptr[i + 1]]`` at the columns ``indices[...]``, in
    stored order. It takes the spellings of scipy's ``csr_matrix`` that the
    models use, and each result equals scipy's bit for bit:

    - ``A[rows]``, for an integer array, keeps each row's stored order;
    - ``A[:, cols]``, for distinct integer columns, renumbers each kept
      entry by its column's place in ``cols`` and keeps the stored order;
    - ``A @ Z``, for Z of one or two dimensions, sums in the order the
      module docstring states. Where two nans meet, the sum keeps one of
      them, and which one is not part of that order: scipy's own loops
      keep the running sum's for a vector and the product's otherwise.

    The arrays are stored by ``frozen_array``, so the product schedules
    cached on the matrix stay valid.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        frozen_array(self, "data", None)
        frozen_array(self, "indices", np.int64)
        frozen_array(self, "indptr", np.int64)
        object.__setattr__(self, "_schedules", {})

    def astype(self, dtype, copy: bool = True) -> Csr:
        if not copy and self.data.dtype == dtype:
            return self
        return Csr(self.data.astype(dtype), self.indices, self.indptr, self.shape)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        out[np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)), self.indices] = self.data
        return out

    def __getitem__(self, key) -> Csr:
        if not isinstance(key, tuple):
            return self._rows(np.asarray(key, dtype=np.int64))
        if len(key) == 2 and isinstance(key[0], slice) and key[0] == slice(None):
            return self._columns(np.asarray(key[1], dtype=np.int64))
        raise IndexError("a Csr takes A[rows] or A[:, cols], with integer arrays")

    def _rows(self, rows: np.ndarray) -> Csr:
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        entries = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], counts)
        return Csr(self.data[entries], self.indices[entries], indptr,
                   (len(rows), self.shape[1]))

    def _columns(self, cols: np.ndarray) -> Csr:
        place = np.full(self.shape[1], -1, dtype=np.int64)
        place[cols] = np.arange(len(cols))
        if not np.array_equal(place[cols], np.arange(len(cols))):
            raise IndexError("column indices must be distinct")
        renumbered = place[self.indices]
        kept = renumbered >= 0
        before = np.zeros(len(kept) + 1, dtype=np.int64)
        np.cumsum(kept, out=before[1:])
        return Csr(self.data[kept], renumbered[kept], before[self.indptr],
                   (self.shape[0], len(cols)))

    def _schedule(self, k: int) -> list:
        """How ``A @ Z`` runs for Z of ``k`` columns: in blocks of
        ``_CHUNK // k`` rows, gathering at most as many rows of Z at once.

        A block's rows are sorted by entry count, longest first, so the rows
        holding a p-th entry lead the order. Position by position, one add
        brings those rows' p-th products into their running sums; the
        positions of one batch share one gather and one multiply. A block
        costs one add per entry of its longest row.
        """
        step = max(1, _CHUNK // max(k, 1))
        schedule = []
        for first in range(0, self.shape[0], step):
            counts = np.diff(self.indptr[first:first + step + 1])
            order = np.argsort(-counts, kind="stable")
            counts, starts = counts[order], self.indptr[first:first + step][order]
            # active[p]: how many rows hold a p-th entry
            active = len(counts) - np.searchsorted(counts[::-1], np.arange(counts[0]),
                                                   side="right")
            ends = np.cumsum(active)
            # the block's entries, position by position
            held = np.arange(ends[-1] if len(ends) else 0)
            entries = (starts[held - np.repeat(ends - active, active)]
                       + np.repeat(np.arange(len(active)), active))
            # cut them into batches of at most ``step``, between positions
            batches, low, cuts = [], 0, []
            for end in ends.tolist():
                if end - low > step:
                    batches.append((low, cuts[-1], [c - low for c in cuts]))
                    low, cuts = cuts[-1], []
                cuts.append(end)
            if cuts:
                batches.append((low, cuts[-1], [c - low for c in cuts]))
            schedule.append((first, np.argsort(order), self.indices[entries],
                             self.data[entries, None], batches))
        return schedule

    def __matmul__(self, Z) -> np.ndarray:
        Z = np.asarray(Z)
        if Z.ndim not in (1, 2) or len(Z) != self.shape[1]:
            raise ValueError(f"cannot multiply a {self.shape} matrix by one of shape {Z.shape}")
        dtype = np.result_type(self.data, Z)
        Z2 = (Z[:, None] if Z.ndim == 1 else Z).astype(dtype, copy=False)
        k = Z2.shape[1]
        step = max(1, _CHUNK // max(k, 1))
        schedule = self._schedules.get(k)
        if schedule is None:
            schedule = self._schedules[k] = self._schedule(k)
        out = np.empty((self.shape[0], k), dtype=dtype)
        buf = np.empty((min(step, len(self.data)), k), dtype=dtype)
        # inf and nan pass through a product without warnings, as through a compiled loop
        with np.errstate(all="ignore"):
            for first, inverse, cols, vals, batches in schedule:
                acc = np.zeros((len(inverse), k), dtype=dtype)
                for low, high, ends in batches:
                    prod = buf[:high - low]
                    # mode="clip" takes into ``prod`` without a copy; every column is in range
                    np.take(Z2, cols[low:high], axis=0, out=prod, mode="clip")
                    np.multiply(vals[low:high], prod, out=prod)
                    start = 0
                    for end in ends:
                        rows = acc[:end - start]
                        np.add(rows, prod[start:end], out=rows)
                        start = end
                np.take(acc, inverse, axis=0, out=out[first:first + len(inverse)], mode="clip")
        return out[:, 0] if Z.ndim == 1 else out


def normalized_adjacency(graph: LabeledGraph) -> Csr:
    """Build A_hat = D^(-1/2) (A + I) D^(-1/2), each row's columns
    ascending; isolated nodes get weight 1. It is symmetric with spectral
    radius <= 1."""
    n, deg = graph.n, graph.degrees()
    nodes = np.arange(n, dtype=np.int64)
    # the entries' codes row * n + col, self-loops included: one sort puts
    # them in row order with each row's columns ascending
    codes = np.concatenate([np.repeat(nodes, deg) * n + graph.neighbors, nodes * (n + 1)])
    rows, indices = np.divmod(np.sort(codes), n)
    inv_sqrt = 1.0 / np.sqrt(deg + 1.0)
    data = inv_sqrt[rows] * inv_sqrt[indices]
    return Csr(data, indices, graph.offsets + np.arange(n + 1), (n, n))


def _touched(adj: Csr, rows: np.ndarray) -> np.ndarray:
    """The mask over A_hat's columns of those that the rows ``rows`` hold an
    entry in. Its ``np.flatnonzero`` is their sorted set: a plain np.unique
    pays a hash set-up on its first call in a process."""
    mask = np.zeros(adj.shape[1], dtype=bool)
    mask[adj[rows].indices] = True
    return mask


def _power_rows(adj: Csr, X: np.ndarray, k: int, rows=None) -> np.ndarray:
    """The rows ``rows`` of A_hat^k X, or all of it when ``rows`` is None.

    For given rows the product runs backwards over the support of each
    power: S_k = rows, and S_(j-1) = the columns of adj[S_j]. The innermost
    step is adj[S_1] @ X, which reads X whole and gathers none of its rows.
    Row and column slices keep each row's nonzeros in node order, so each
    row sums in the order of the full product and equals its row exactly.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if rows is None:
        for _ in range(k):
            X = adj @ X
        return X
    if k == 0:
        return X[rows]
    supports = [rows]  # S_k, S_(k-1), ..., S_1
    for _ in range(k - 1):
        supports.append(np.flatnonzero(_touched(adj, supports[-1])))
    out = adj[supports[-1]] @ X  # rows S_1 of A_hat X
    for j in range(k - 2, -1, -1):  # rows S_(k-j) of A_hat^(k-j) X
        out = adj[supports[j]][:, supports[j + 1]] @ out
    return out


def sgc_propagate(adj: Csr, features: FeatureMatrix, k: int,
                  rows=None) -> FeatureMatrix:
    """The rows ``rows`` of A_hat^k X, in that order, or every row when
    ``rows`` is None; k = 0 is the identity. Each row equals the same row
    of the full product bit for bit."""
    return FeatureMatrix(_power_rows(adj, features.values, k, rows))


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _cross_entropy(probs: np.ndarray, y: np.ndarray) -> float:
    # 1e-300 underflows to 0 in float32; float64 keeps it
    floor = max(1e-300, float(np.finfo(probs.dtype).tiny))
    return float(-np.mean(np.log(np.maximum(probs[np.arange(len(y)), y], floor))))


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
             y_val: np.ndarray,
             config: TrainConfig) -> tuple[list[np.ndarray], list[float]]:
    """Shared training loop; returns (best-validation params, loss history).

    Early stopping scores the last ``len(y_val)`` rows of the probabilities
    that ``loss_grad`` returns against the validation labels ``y_val``.
    No step modifies an array in place, so the best params are kept by
    reference.
    """
    def val_acc(probs):
        return float(np.mean(np.argmax(probs[-len(y_val):], axis=1) == y_val))

    lr = config.learning_rate
    loss, grads, probs = loss_grad(params)
    if not np.isfinite(loss):
        raise TrainingDivergedError(0)
    best_params = params
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
            best_params = params
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    return best_params, losses


def logreg_loss_grad(params: list[np.ndarray], X: np.ndarray, y_train: np.ndarray,
                     weight_decay: float):
    """Loss, parameter gradients, and the probabilities of every row of X
    for softmax regression: mean train cross-entropy + (weight_decay / 2)
    ||W||^2. The train rows are the leading ``len(y_train)`` rows of X."""
    W, b = params
    n_train = len(y_train)
    probs = _softmax(X @ W.T + b)
    pt = probs[:n_train]
    onehot = np.eye(W.shape[0], dtype=probs.dtype)[y_train]
    loss = (_cross_entropy(pt, y_train)
            + 0.5 * weight_decay * float(np.sum(W * W)))
    dlogits = (pt - onehot) / n_train
    dW = dlogits.T @ X[:n_train] + weight_decay * W
    db = dlogits.sum(axis=0)
    return loss, [dW, db], probs


def train_logreg(features: FeatureMatrix, labels: LabelVector, split,
                 config: TrainConfig, adj: Csr | None = None,
                 k: int = 0) -> LogRegModel:
    """Softmax regression by full-batch gradient descent on the rows of
    ``split.labeled()`` (train, then validation) of A_hat^k X, from the raw
    X in ``features``; it propagates only those rows (``sgc_propagate``).
    At k = 0 (logreg) ``adj`` is not read.

    Weights start at zero, in the dtype of the propagated rows, so the fit
    needs no seed. The train rows drive the loss and the validation rows
    early stopping. Returns the parameters of the best-validation epoch.
    """
    if features.n != len(labels):
        raise ValueError(f"features hold {features.n} rows; labels hold {len(labels)}")
    rows = split.labeled()
    X = sgc_propagate(adj, features, k, rows).values
    n_train = len(split.train)
    y = labels.labels[rows]

    def loss_grad(params):
        return logreg_loss_grad(params, X, y[:n_train], config.weight_decay)

    params0 = [np.zeros((labels.num_labels, features.d), dtype=X.dtype),
               np.zeros(labels.num_labels, dtype=X.dtype)]
    (W, b), _ = _descend(params0, loss_grad, y[n_train:], config)
    return LogRegModel(W=W, b=b)


def logreg_forward(model: LogRegModel, features: FeatureMatrix,
                   adj: Csr | None = None, k: int = 0) -> np.ndarray:
    """Per-node class probabilities softmax(A_hat^k (X W^T) + b) of a model
    fit on rows of A_hat^k X: one GEMM, then k sparse products over
    n x num_labels, so no n x d power is built. At k = 0 (logreg) ``adj``
    is not read."""
    return _softmax(_power_rows(adj, features.values @ model.W.T, k) + model.b)


def glorot_uniform(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    bound = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-bound, bound, size=shape)


def gcn_forward(model: GcnModel, adj: Csr,
                features: FeatureMatrix) -> np.ndarray:
    """Per-node class probabilities softmax(A_hat relu(A_hat X W0) W1)
    from the raw features X; every row sums to one.

    The first layer is taken as A_hat (X W0): one GEMM, then a sparse
    product over n x hidden, so no n x d intermediate is built.
    """
    hidden = np.maximum(adj @ (features.values @ model.W0), 0.0)
    return _softmax(adj @ hidden @ model.W1)


def gcn_loss_grad(params: list[np.ndarray], AX: np.ndarray, up: Csr,
                  down: Csr, y: np.ndarray, weight_decay: float):
    """Loss, hand-derived gradients, and the labeled rows' probabilities
    for the two-layer GCN, computed on the row block the loss reads.

    ``AX`` holds the block's rows of A_hat X (constant across epochs): every
    node within one hop of a labeled node, led by the train nodes' one-hop
    set. ``up`` is A_hat from the labeled nodes (train first, then
    validation) to the block, so ``up @ relu(AX W0)`` gives their rows of
    A_hat relu(A_hat X W0). ``down`` is A_hat from the block's leading rows
    to the train nodes, whose labels ``y`` holds; only those rows carry a
    gradient. The backward pass runs cross-entropy -> softmax -> sparse
    propagation -> relu -> sparse propagation, exploiting A_hat's symmetry.
    """
    W0, W1 = params
    n_back, n_train = down.shape
    pre = AX @ W0
    hidden = np.maximum(pre, 0.0)
    probs = _softmax(up @ hidden @ W1)
    onehot = np.eye(W1.shape[1], dtype=probs.dtype)[y]
    loss = (_cross_entropy(probs[:n_train], y)
            + 0.5 * weight_decay * float(np.sum(W0 * W0) + np.sum(W1 * W1)))
    dlogits = (probs[:n_train] - onehot) / n_train
    d_ah = down @ dlogits  # A_hat is symmetric
    dW1 = hidden[:n_back].T @ d_ah + weight_decay * W1
    dhidden = d_ah @ W1.T
    dpre = np.where(pre[:n_back] > 0, dhidden, 0.0)
    dW0 = AX[:n_back].T @ dpre + weight_decay * W0
    return loss, [dW0, dW1], probs


def gcn_row_block(adj: Csr, features: FeatureMatrix, train: np.ndarray,
                  val: np.ndarray) -> tuple[np.ndarray, Csr, Csr]:
    """The inputs of ``gcn_loss_grad`` for one split: the rows of A_hat X
    for every node within one hop of a train or validation node (A_hat's
    self-loops count), led by the train nodes' one-hop set, plus A_hat from
    the labeled nodes to those rows and from the leading rows to the train
    nodes.

    Row slices of A_hat X equal the same rows of the full product bit for
    bit, and both blocks keep each row's nonzeros in node order, so each
    row sums in the order the full-graph product does.
    """
    in_back = _touched(adj, train)
    back = np.flatnonzero(in_back)
    rows = np.concatenate([back, np.flatnonzero(_touched(adj, val) & ~in_back)])
    AX = _power_rows(adj, features.values, 1, rows)
    return AX, adj[np.concatenate([train, val])][:, rows], adj[back][:, train]


def train_gcn(adj: Csr, features: FeatureMatrix, labels: LabelVector,
              split, config: TrainConfig, init_seeds: Sequence[int]) -> list[GcnModel]:
    """Two-layer GCNs trained with hand-derived gradients, one per seed of
    ``init_seeds``, in order.

    ``adj`` is the graph's A_hat (``normalized_adjacency``), which the
    caller builds once and shares with every run on that graph, and
    ``features`` the raw X. Forward: P = softmax(A_hat relu(A_hat X W0) W1),
    loss = mean cross-entropy on the train rows plus (weight_decay / 2)
    ||W||^2 over both weight matrices. Weights are Glorot-uniform from the
    seed, drawn in float64 and cast to the dtype of X, so float32 and
    float64 runs start from the same draws; every array of the fit keeps
    that dtype, given ``adj`` in it too. Early stopping watches validation
    accuracy.

    An epoch reads predictions on the labeled nodes only, so every run
    trains on the split's ``gcn_row_block``, built once for all seeds and
    released when the call returns. The labeled rows' probabilities and
    the loss equal those of the full-graph product bit for bit. The
    gradients sum over fewer rows, so they may differ in the last bit.
    """
    train, val = np.asarray(split.train), np.asarray(split.val)
    AX, up, down = gcn_row_block(adj, features, train, val)
    y = labels.labels[split.labeled()]

    def loss_grad(params):
        return gcn_loss_grad(params, AX, up, down, y[:len(train)], config.weight_decay)

    fitted = []
    for rng in map(np.random.default_rng, init_seeds):
        params0 = [glorot_uniform(shape, rng).astype(AX.dtype, copy=False) for shape in
                   ((features.d, config.hidden_dim), (config.hidden_dim, labels.num_labels))]
        (W0, W1), _ = _descend(params0, loss_grad, y[len(train):], config)
        fitted.append(GcnModel(W0=W0, W1=W1))
    return fitted
