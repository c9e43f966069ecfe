import inspect

import numpy as np
import pytest

from graphdiag import (FeatureMatrix, LabelVector, TrainConfig, accuracy,
                       gcn_forward, logreg_forward, normalized_adjacency, sgc_propagate,
                       to_undirected, train_gcn, train_logreg)
from graphdiag.graphs import connected_components
from graphdiag.harness import SplitSet
from graphdiag.nullmodels import generate_erdos_renyi
from graphdiag import models
from graphdiag.models import (GcnModel, TrainingDivergedError, _descend, gcn_loss_grad,
                              gcn_row_block, glorot_uniform, logreg_loss_grad)
from graphdiag.synthetic import planted_partition_graph

from conftest import random_simple_graph


def split_thirds(n):
    idx = np.arange(n)
    return SplitSet(train=idx[:n // 3], val=idx[n // 3:2 * n // 3],
                    test=idx[2 * n // 3:])


class TestNormalizedAdjacency:
    def test_isolated_node(self):
        adj = normalized_adjacency(to_undirected([], n=1))
        assert adj.toarray().tolist() == [[1.0]]

    def test_single_edge(self):
        adj = normalized_adjacency(to_undirected([(0, 1)], n=2))
        assert np.allclose(adj.toarray(), [[0.5, 0.5], [0.5, 0.5]])

    def test_row_sums_on_single_edge(self):
        adj = normalized_adjacency(to_undirected([(0, 1)], n=2))
        assert np.allclose(adj @ np.ones(2), [1.0, 1.0])

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(0)
        g = random_simple_graph(rng, n=15, p=0.3)
        A = normalized_adjacency(g).toarray()
        assert np.allclose(A, A.T)
        eigs = np.linalg.eigvalsh(A)
        assert eigs.max() <= 1 + 1e-9


class TestSgcPropagate:
    def test_k0_identity(self):
        adj = normalized_adjacency(to_undirected([(0, 1)], n=2))
        X = FeatureMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.array_equal(sgc_propagate(adj, X, 0).values, X.values)

    def test_k1_single_edge_mean(self):
        adj = normalized_adjacency(to_undirected([(0, 1)], n=2))
        X = FeatureMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = sgc_propagate(adj, X, 1).values
        assert np.allclose(out, [[0.5, 0.5], [0.5, 0.5]])

    def test_k2_is_twice_k1(self):
        rng = np.random.default_rng(1)
        g = random_simple_graph(rng, n=10, p=0.3)
        adj = normalized_adjacency(g)
        X = FeatureMatrix(rng.standard_normal((10, 3)))
        once_twice = sgc_propagate(adj, sgc_propagate(adj, X, 1), 1).values
        assert np.allclose(sgc_propagate(adj, X, 2).values, once_twice)

    def test_negative_k_rejected(self):
        adj = normalized_adjacency(to_undirected([(0, 1)], n=2))
        with pytest.raises(ValueError):
            sgc_propagate(adj, FeatureMatrix(np.zeros((2, 1))), -1)


class TestTrainLogreg:
    def test_linearly_separable(self):
        X = FeatureMatrix(np.array([[-1.0], [1.0], [-1.0], [1.0], [-1.0], [1.0]]))
        y = LabelVector(np.array([0, 1, 0, 1, 0, 1]), 2)
        split = SplitSet(train=np.array([0, 1]), val=np.array([2, 3]),
                         test=np.array([4, 5]))
        model = train_logreg(X, y, split, TrainConfig())
        assert accuracy(logreg_forward(model, X), y, split.train) == 1.0

    def test_zero_features_majority_rate(self):
        X = FeatureMatrix(np.zeros((9, 3)))
        y = LabelVector(np.array([1, 1, 1, 0, 1, 1, 0, 1, 0]), 2)
        split = SplitSet(train=np.arange(0, 3), val=np.arange(3, 6),
                         test=np.arange(6, 9))
        model = train_logreg(X, y, split, TrainConfig())
        # train labels are all class 1 -> predicts 1 everywhere
        preds = logreg_forward(model, X)
        test_rate = np.mean(y.labels[split.test] == 1)
        assert accuracy(preds, y, split.test) == pytest.approx(test_rate)

    def test_strong_weight_decay_shrinks_weights(self):
        rng = np.random.default_rng(2)
        X = FeatureMatrix(rng.standard_normal((30, 4)))
        y = LabelVector(rng.integers(0, 2, 30), 2)
        split = split_thirds(30)
        free = train_logreg(X, y, split, TrainConfig(max_epochs=40, weight_decay=0.0))
        decayed = train_logreg(X, y, split,
                               TrainConfig(max_epochs=40, weight_decay=1e3))
        assert np.linalg.norm(decayed.W) < np.linalg.norm(free.W)

    def test_seed_independence(self):
        rng = np.random.default_rng(3)
        X = FeatureMatrix(rng.standard_normal((12, 3)))
        y = LabelVector(rng.integers(0, 2, 12), 2)
        split = split_thirds(12)
        # weights start at zero: the fit takes no seed and ignores the
        # global generator
        params = inspect.signature(train_logreg).parameters
        assert not any("seed" in name for name in params)
        np.random.seed(0)
        a = train_logreg(X, y, split, TrainConfig())
        np.random.seed(999)
        b = train_logreg(X, y, split, TrainConfig())
        assert np.array_equal(a.W, b.W) and np.array_equal(a.b, b.b)


def gcn_forward_on(model, graph, X):
    """GCN probabilities on a graph from raw features."""
    return gcn_forward(model, normalized_adjacency(graph), FeatureMatrix(X))


class TestGcnForward:
    def test_zero_weights_uniform(self):
        g = to_undirected([(0, 1), (1, 2)], n=3)
        model = GcnModel(W0=np.zeros((2, 4)), W1=np.zeros((4, 3)))
        probs = gcn_forward_on(model, g, np.ones((3, 2)))
        assert np.allclose(probs, 1.0 / 3.0)

    def test_edgeless_reduces_to_mlp(self):
        rng = np.random.default_rng(4)
        g = to_undirected([], n=5)
        X = rng.standard_normal((5, 3))
        W0, W1 = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        probs = gcn_forward_on(GcnModel(W0, W1), g, X)
        hidden = np.maximum(X @ W0, 0.0)
        logits = hidden @ W1
        expect = np.exp(logits - logits.max(1, keepdims=True))
        expect /= expect.sum(1, keepdims=True)
        assert np.allclose(probs, expect)

    def test_two_node_scalar_hand_computation(self):
        # A_hat = [[.5,.5],[.5,.5]], x = [2, 0], w0 = 1, w1 = [1, -1]:
        # hidden = relu(A_hat x) = [1, 1]; logits = A_hat hidden [1, -1]
        # = [[1, -1], [1, -1]]; softmax row = [e/(e + 1/e), ...]
        g = to_undirected([(0, 1)], n=2)
        model = GcnModel(W0=np.array([[1.0]]), W1=np.array([[1.0, -1.0]]))
        probs = gcn_forward_on(model, g, np.array([[2.0], [0.0]]))
        p1 = np.e / (np.e + 1.0 / np.e)
        assert np.allclose(probs, [[p1, 1 - p1], [p1, 1 - p1]], atol=1e-12)

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(5)
        g = random_simple_graph(rng, n=12, p=0.3)
        model = GcnModel(W0=rng.standard_normal((4, 6)) * 10,
                         W1=rng.standard_normal((6, 3)) * 10)
        probs = gcn_forward_on(model, g, rng.standard_normal((12, 4)))
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_first_layer_propagates_the_raw_input(self):
        # both layers apply A_hat: the first to the caller's raw X
        rng = np.random.default_rng(11)
        g = random_simple_graph(rng, n=9, p=0.4)
        adj = normalized_adjacency(g).toarray()
        X = rng.standard_normal((9, 3))
        model = GcnModel(rng.standard_normal((3, 4)), rng.standard_normal((4, 2)))
        probs = gcn_forward(model, normalized_adjacency(g), FeatureMatrix(X))
        logits = adj @ np.maximum(adj @ X @ model.W0, 0.0) @ model.W1
        expect = np.exp(logits - logits.max(1, keepdims=True))
        expect /= expect.sum(1, keepdims=True)
        assert np.allclose(probs, expect, atol=1e-12)

    def test_permutation_equivariance_exact_on_dyadic_instance(self):
        # cube graph: 3-regular (degree+1 = 4, a power of two); one-hot
        # features and dyadic weights keep every sum exact, so the
        # equivariance holds bitwise
        cube = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
                (0, 4), (1, 5), (2, 6), (3, 7)]
        g = to_undirected(cube, n=8)
        X = np.eye(8)
        W0 = np.array([[0.25], [-0.5], [0.75], [0.125], [-0.25], [0.5],
                       [-0.125], [1.0]])
        W1 = np.array([[0.5, -0.25]])
        model = GcnModel(W0, W1)
        probs = gcn_forward_on(model, g, X)
        perm = np.array([2, 0, 3, 1, 6, 4, 7, 5])
        g_p = to_undirected(perm[g.edge_array()], n=8)
        X_p = np.empty_like(X)
        X_p[perm] = X
        probs_p = gcn_forward_on(model, g_p, X_p)
        assert np.array_equal(probs_p[perm], probs)

    def test_permutation_equivariance_random(self):
        rng = np.random.default_rng(6)
        g = random_simple_graph(rng, n=10, p=0.35)
        X = rng.standard_normal((10, 3))
        model = GcnModel(rng.standard_normal((3, 5)), rng.standard_normal((5, 2)))
        perm = rng.permutation(10)
        g_p = to_undirected(perm[g.edge_array()], n=10)
        X_p = np.empty_like(X)
        X_p[perm] = X
        probs = gcn_forward_on(model, g, X)
        probs_p = gcn_forward_on(model, g_p, X_p)
        assert np.allclose(probs_p[perm], probs, atol=1e-12)


class TestGradients:
    def test_logreg_matches_finite_differences(self):
        max_err = _max_grad_error_logreg(n_instances=5)
        assert max_err < 1e-4

    def test_gcn_matches_finite_differences(self):
        max_err = _max_grad_error_gcn(n_instances=5)
        assert max_err < 1e-4


def _rel_err(a, b):
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def _max_grad_error_logreg(n_instances, eps=1e-4, seed0=500):
    worst = 0.0
    for i in range(n_instances):
        rng = np.random.default_rng(seed0 + i)
        X = rng.standard_normal((9, 4))
        y_train = rng.integers(0, 3, 9)[:6]  # the leading six rows train
        params = [rng.standard_normal((3, 4)) * 0.5, rng.standard_normal(3) * 0.5]
        _, grads, _ = logreg_loss_grad(params, X, y_train, 5e-4)
        for pi, p in enumerate(params):
            fd = np.zeros_like(p)
            for idx in np.ndindex(p.shape):
                for sign, store in ((1, 0), (-1, 1)):
                    shifted = [q.copy() for q in params]
                    shifted[pi][idx] += sign * eps
                    loss, _, _ = logreg_loss_grad(shifted, X, y_train, 5e-4)
                    fd[idx] += sign * loss / (2 * eps)
            worst = max(worst, _rel_err(grads[pi], fd).max())
    return worst


def _max_grad_error_gcn(n_instances, eps=1e-4, seed0=900):
    worst = 0.0
    for i in range(n_instances):
        rng = np.random.default_rng(seed0 + i)
        g = random_simple_graph(rng, n=8, p=0.4)
        adj = normalized_adjacency(g)
        X = FeatureMatrix(rng.standard_normal((8, 5)))
        y = rng.integers(0, 3, 8)
        train, val = np.arange(5), np.arange(5, 7)
        block = gcn_row_block(adj, X, train, val)
        params = [glorot_uniform((5, 4), rng), glorot_uniform((4, 3), rng)]
        _, grads, _ = gcn_loss_grad(params, *block, y[train], 5e-4)
        for pi, p in enumerate(params):
            fd = np.zeros_like(p)
            for idx in np.ndindex(p.shape):
                for sign in (1, -1):
                    shifted = [q.copy() for q in params]
                    shifted[pi][idx] += sign * eps
                    loss, _, _ = gcn_loss_grad(shifted, *block, y[train], 5e-4)
                    fd[idx] += sign * loss / (2 * eps)
            worst = max(worst, _rel_err(grads[pi], fd).max())
    return worst


class TestTrainGcn:
    def test_planted_blocks_high_accuracy(self):
        # labels follow the blocks; even pure-noise features suffice because
        # within-block smoothing produces block-specific signatures
        rng = np.random.default_rng(7)
        g, part = planted_partition_graph(60, 2, 0.25, 0.02, seed=11)
        labels = LabelVector(part.assignment.copy(), 2)
        X = FeatureMatrix(rng.standard_normal((120, 8)))
        perm = rng.permutation(120)
        split = SplitSet(train=np.sort(perm[:20]), val=np.sort(perm[20:50]),
                         test=np.sort(perm[50:]))
        adj = normalized_adjacency(g)
        [model] = train_gcn(adj, X, labels, split, TrainConfig(), [3])
        probs = gcn_forward(model, adj, X)
        assert accuracy(probs, labels, split.test) >= 0.9

    def test_edgeless_graph_close_to_logreg(self):
        # without edges the GCN is a plain (bias-free) MLP; on symmetric
        # well-separated features its accuracy matches the logistic baseline
        from graphdiag import make_splits, mann_whitney_u
        rng = np.random.default_rng(8)
        n = 150
        y = LabelVector(np.repeat([0, 1], n // 2), 2)
        signs = np.where(y.labels[:, None] == 0, -1.0, 1.0)
        X = FeatureMatrix(signs + rng.standard_normal((n, 3)))
        g = to_undirected([], n=n)
        adj = normalized_adjacency(g)
        splits = make_splits(y, (20, 20), n_splits=6, seed=0)
        acc_lr, acc_gcn = [], []
        for i, split in enumerate(splits):
            base = train_logreg(X, y, split, TrainConfig())
            acc_lr.append(accuracy(logreg_forward(base, X), y, split.test))
            [model] = train_gcn(adj, X, y, split, TrainConfig(hidden_dim=8), [i])
            acc_gcn.append(accuracy(gcn_forward(model, adj, X), y, split.test))
        assert abs(np.median(acc_gcn) - np.median(acc_lr)) <= 0.05
        assert mann_whitney_u(acc_gcn, acc_lr).p_value > 0.01

    def test_loss_history_non_increasing(self):
        rng = np.random.default_rng(9)
        g = random_simple_graph(rng, n=20, p=0.2)
        adj = normalized_adjacency(g)
        X = FeatureMatrix(rng.standard_normal((20, 4)))
        y = rng.integers(0, 2, 20)
        train, val = np.arange(10), np.arange(10, 15)
        block = gcn_row_block(adj, X, train, val)
        cfg = TrainConfig(max_epochs=80, patience=80)
        params0 = [glorot_uniform((4, 6), np.random.default_rng(1)),
                   glorot_uniform((6, 2), np.random.default_rng(2))]
        _, losses = _descend(
            params0,
            lambda p: gcn_loss_grad(p, *block, y[train], cfg.weight_decay),
            y[val], cfg)
        assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_a_shared_row_block_trains_the_same_models(self):
        # one call builds the split's row block once and trains every seed
        # on it; sharing it must not change a weight's bits
        rng = np.random.default_rng(5)
        g, part = planted_partition_graph(30, 2, 0.3, 0.05, seed=2)
        labels = LabelVector(part.assignment.copy(), 2)
        X = FeatureMatrix(rng.standard_normal((60, 5)))
        perm = rng.permutation(60)
        split = SplitSet(train=np.sort(perm[:10]), val=np.sort(perm[10:20]),
                         test=np.sort(perm[20:]))
        adj = normalized_adjacency(g)
        config = TrainConfig(max_epochs=40, patience=40, hidden_dim=6)
        shared = train_gcn(adj, X, labels, split, config, [0, 1, 2])
        assert len(shared) == 3
        for seed, model in enumerate(shared):
            [own] = train_gcn(adj, X, labels, split, config, [seed])
            assert own.W0.tobytes() == model.W0.tobytes()
            assert own.W1.tobytes() == model.W1.tobytes()

    def test_divergence_is_reported(self):
        def bad_loss(params):
            return float("nan"), [np.zeros(1)], np.zeros((1, 1))

        with pytest.raises(TrainingDivergedError) as err:
            _descend([np.zeros(1)], bad_loss, np.zeros(1, dtype=int), TrainConfig())
        assert err.value.epoch == 0


# reference oracle: the full-graph loss the row-block loss must match. It
# propagates every node and zero-pads the gradient outside the train rows.
def _full_graph_gcn_loss_grad(params, adj, AX, y, train_idx, weight_decay):
    W0, W1 = params
    pre = AX @ W0
    hidden = np.maximum(pre, 0.0)
    probs = models._softmax(adj @ hidden @ W1)
    onehot = np.eye(W1.shape[1])[y[train_idx]]
    loss = (models._cross_entropy(probs[train_idx], y[train_idx])
            + 0.5 * weight_decay * float(np.sum(W0 * W0) + np.sum(W1 * W1)))
    dlogits = np.zeros_like(probs)
    dlogits[train_idx] = (probs[train_idx] - onehot) / len(train_idx)
    d_ah = adj @ dlogits  # A_hat is symmetric
    dW1 = hidden.T @ d_ah + weight_decay * W1
    dhidden = d_ah @ W1.T
    dpre = np.where(pre > 0, dhidden, 0.0)
    dW0 = AX.T @ dpre + weight_decay * W0
    return loss, [dW0, dW1], probs


def _two_blocks():
    g, _ = planted_partition_graph(40, 2, 0.2, 0.0, seed=5)
    return g


def _isolated_train_node(graph, split):
    return bool(np.any(graph.degrees()[split.train] == 0))


def _val_node_without_train_neighbour(graph, split):
    adj = normalized_adjacency(graph)
    touches_train = np.diff(adj[split.val][:, split.train].indptr) > 0
    return not touches_train.all()


# (graph, the property the case must show); the random variant's sparse
# graphs leave nodes isolated, and a node may sit in a labeled set
ROW_BLOCK_CASES = {
    "isolated_train_node": (lambda: generate_erdos_renyi(120, 90, seed=4),
                            _isolated_train_node),
    "val_without_train_neighbour": (lambda: random_simple_graph(
        np.random.default_rng(6), n=90, p=0.04), _val_node_without_train_neighbour),
    "edgeless": (lambda: to_undirected([], n=50), lambda g, s: g.m == 0),
    "disconnected": (_two_blocks, lambda g, s: len(connected_components(g)) == 2),
    # rows of about 15 terms, where a change of summation order shows
    "dense": (lambda: random_simple_graph(np.random.default_rng(7), n=150, p=0.1),
              lambda g, s: True),
}


def _row_block_case(name, n_train=20, n_val=25, d=6, classes=3):
    make_graph, shows = ROW_BLOCK_CASES[name]
    graph = make_graph()
    rng = np.random.default_rng(len(name))
    perm = rng.permutation(graph.n)
    split = SplitSet(train=np.sort(perm[:n_train]),
                     val=np.sort(perm[n_train:n_train + n_val]),
                     test=np.sort(perm[n_train + n_val:]))
    assert shows(graph, split), name
    X = FeatureMatrix(rng.standard_normal((graph.n, d)))
    labels = LabelVector(rng.integers(0, classes, graph.n), classes)
    return normalized_adjacency(graph), X, labels, split, rng


@pytest.mark.parametrize("name", sorted(ROW_BLOCK_CASES))
class TestRowBlockMatchesFullGraph:
    def test_loss_and_labeled_probabilities_are_bitwise_equal(self, name):
        adj, X, labels, split, rng = _row_block_case(name)
        y, train = labels.labels, split.train
        block = gcn_row_block(adj, X, train, split.val)
        AX = adj @ X.values
        for _ in range(5):
            params = [3 * glorot_uniform((X.d, 8), rng),
                      3 * glorot_uniform((8, labels.num_labels), rng)]
            ref_loss, ref_grads, ref_probs = _full_graph_gcn_loss_grad(
                params, adj, AX, y, train, 5e-4)
            loss, grads, probs = gcn_loss_grad(params, *block, y[train], 5e-4)
            assert loss == ref_loss
            assert np.array_equal(probs, ref_probs[split.labeled()])
            # the gradients sum over fewer rows, so only the last bits may move
            for grad, ref in zip(grads, ref_grads):
                assert np.max(np.abs(grad - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_training_run_matches_the_full_graph_run(self, name, monkeypatch):
        # same loss evaluations, same validation accuracy at each, so the
        # same best epoch; then the same test accuracy
        adj, X, labels, split, _ = _row_block_case(name)
        config = TrainConfig(max_epochs=120, patience=25, hidden_dim=8)
        y, train, n_train = labels.labels, split.train, len(split.train)
        loss_grad, seen = models.gcn_loss_grad, []

        def recording(params, *args):
            loss, grads, probs = loss_grad(params, *args)
            seen.append((loss, np.argmax(probs[n_train:], axis=1).tolist()))
            return loss, grads, probs

        monkeypatch.setattr(models, "gcn_loss_grad", recording)
        [model] = train_gcn(adj, X, labels, split, config, [2])

        AX, expected = adj @ X.values, []

        def reference(params):
            loss, grads, probs = _full_graph_gcn_loss_grad(
                params, adj, AX, y, train, config.weight_decay)
            expected.append((loss, np.argmax(probs[split.val], axis=1).tolist()))
            return loss, grads, probs[split.labeled()]

        rng = np.random.default_rng(2)
        params0 = [glorot_uniform((X.d, config.hidden_dim), rng),
                   glorot_uniform((config.hidden_dim, labels.num_labels), rng)]
        (W0, W1), _ = _descend(params0, reference, y[split.val], config)
        assert len(seen) == len(expected) > 1
        assert [v for _, v in seen] == [v for _, v in expected]
        assert np.allclose([l for l, _ in seen], [l for l, _ in expected],
                           rtol=1e-12, atol=0)
        assert np.allclose(model.W0, W0, rtol=1e-9, atol=1e-12)
        assert np.allclose(model.W1, W1, rtol=1e-9, atol=1e-12)
        ref_probs = models._softmax(adj @ np.maximum(AX @ W0, 0.0) @ W1)
        assert (accuracy(gcn_forward(model, adj, X), labels, split.test)
                == accuracy(ref_probs, labels, split.test))


# reference set-up for the shared training loop: the logreg loss reads its
# train rows through an index array, and early stopping is accuracy() over
# the labels relabelled to the labeled rows (train first, then validation),
# passed to a copy of the loop that takes such a scorer
def _reference_logreg_loss_grad(params, X, y, train_idx, weight_decay):
    W, b = params
    probs = models._softmax(X @ W.T + b)
    pt = probs[train_idx]
    onehot = np.eye(W.shape[0])[y[train_idx]]
    loss = (models._cross_entropy(pt, y[train_idx])
            + 0.5 * weight_decay * float(np.sum(W * W)))
    dlogits = (pt - onehot) / len(train_idx)
    dW = dlogits.T @ X[train_idx] + weight_decay * W
    db = dlogits.sum(axis=0)
    return loss, [dW, db], probs


def _reference_descend(params, loss_grad, val_acc, config):
    lr = config.learning_rate
    loss, grads, probs = loss_grad(params)
    best_params = [p.copy() for p in params]
    best_acc = val_acc(probs)
    stale = 0
    for _ in range(config.max_epochs):
        cand = [p - lr * g for p, g in zip(params, grads)]
        cand_loss, cand_grads, cand_probs = loss_grad(cand)
        while ((not np.isfinite(cand_loss) or cand_loss > loss)
               and lr > models.MIN_LEARNING_RATE):
            lr *= 0.5
            cand = [p - lr * g for p, g in zip(params, grads)]
            cand_loss, cand_grads, cand_probs = loss_grad(cand)
        if cand_loss > loss:
            break
        params, loss, grads = cand, cand_loss, cand_grads
        acc = val_acc(cand_probs)
        if acc > best_acc:
            best_acc = acc
            best_params = [p.copy() for p in params]
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    return best_params


def _reference_fit(model, adj, features, labels, split, config, init_seed):
    """Best weights and loss-evaluation count of the reference set-up."""
    train, labeled = split.train, split.labeled()
    fit_labels = LabelVector(labels.labels[labeled], labels.num_labels)
    fit_train = np.arange(len(train))
    fit_val = np.arange(len(train), len(labeled))
    if model == "logreg":
        loss = _reference_logreg_loss_grad
        args = (features.values[labeled], fit_labels.labels, fit_train)
        params0 = [np.zeros((labels.num_labels, features.d)), np.zeros(labels.num_labels)]
    else:
        loss = gcn_loss_grad
        args = (*gcn_row_block(adj, features, train, split.val),
                fit_labels.labels[fit_train])
        rng = np.random.default_rng(init_seed)
        params0 = [glorot_uniform((features.d, config.hidden_dim), rng),
                   glorot_uniform((config.hidden_dim, labels.num_labels), rng)]
    evaluations = []

    def counted(params):
        evaluations.append(1)
        return loss(params, *args, config.weight_decay)

    best = _reference_descend(params0, counted,
                              lambda probs: accuracy(probs, fit_labels, fit_val), config)
    return best, len(evaluations)


def _scaffold_split(name, y):
    """(train, val) for each case; node 0 has no edge and classes interleave
    in node order."""
    others = np.random.default_rng(13).permutation(np.arange(1, len(y)))
    if name == "interleaved_classes":
        return np.sort(others[:15]), np.sort(others[15:35])
    if name == "single_class_val":
        val = np.sort(others[y[others] == 2][:10])
        return np.sort(np.setdiff1d(others, val)[:15]), val
    return np.sort(np.append(others[:14], 0)), np.sort(others[14:34])


@pytest.mark.parametrize("case", ["interleaved_classes", "single_class_val",
                                  "isolated_train_node"])
@pytest.mark.parametrize("model", ["logreg", "gcn"])
def test_fit_matches_the_reference_set_up(model, case, monkeypatch):
    # the loop scores the last len(y_val) rows of each loss's probabilities;
    # the reference scores the validation rows by index
    n = 60
    rng = np.random.default_rng(21)
    edges = [e for e in random_simple_graph(rng, n=n, p=0.08).edge_array() if 0 not in e]
    graph = to_undirected(edges, n=n)
    assert graph.degrees()[0] == 0
    y = np.arange(n) % 3
    labels = LabelVector(y, 3)
    features = FeatureMatrix(0.4 * np.eye(4)[y] + rng.standard_normal((n, 4)))
    train, val = _scaffold_split(case, y)
    split = SplitSet(train=train, val=val,
                     test=np.setdiff1d(np.arange(n), np.append(train, val)))
    assert (len(set(y[val])) == 1) == (case == "single_class_val")
    assert (0 in train) == (case == "isolated_train_node")
    adj = normalized_adjacency(graph)
    config = TrainConfig(max_epochs=60, patience=8, hidden_dim=6)
    name = f"{model}_loss_grad"
    loss_grad, evaluations = getattr(models, name), []

    def counting(*args):
        evaluations.append(1)
        return loss_grad(*args)

    monkeypatch.setattr(models, name, counting)
    if model == "logreg":
        fitted = train_logreg(features, labels, split, config)
        weights = [fitted.W, fitted.b]
    else:
        [fitted] = train_gcn(adj, features, labels, split, config, [4])
        weights = [fitted.W0, fitted.W1]
    expected, expected_evaluations = _reference_fit(model, adj, features, labels, split,
                                                    config, init_seed=4)
    assert len(evaluations) == expected_evaluations > 1
    for got, want in zip(weights, expected):
        assert np.array_equal(got, want)


class TestSgcStructure:
    def test_edgeless_sgc_equals_logreg_exactly(self):
        rng = np.random.default_rng(10)
        n = 24
        X = FeatureMatrix(rng.standard_normal((n, 3)))
        y = LabelVector(rng.integers(0, 2, n), 2)
        g = to_undirected([], n=n)
        split = split_thirds(n)
        propagated = sgc_propagate(normalized_adjacency(g), X, 2)
        a = train_logreg(X, y, split, TrainConfig())
        b = train_logreg(propagated, y, split, TrainConfig())
        assert np.array_equal(logreg_forward(a, X), logreg_forward(b, propagated))


def _two_components_and_isolated_nodes(rng):
    """A_hat, X, labels and a split on 30 nodes: components 0-13 and 14-25,
    isolated nodes 26-29, with labeled nodes in each part. Each part has
    its own label, which shifts three of X's five columns, so propagation
    keeps the signal and a fit has something to learn."""
    edges = [(i, j) for lo, hi in ((0, 14), (14, 26)) for i in range(lo, hi)
             for j in range(i + 1, hi) if rng.random() < 0.3]
    adj = normalized_adjacency(to_undirected(edges, n=30))
    labels = np.repeat([1, 2, 0], [14, 12, 4])
    X = FeatureMatrix(rng.standard_normal((30, 5)) + 2 * np.eye(3, 5)[labels])
    y = LabelVector(labels, 3)
    train = np.array([0, 3, 7, 15, 20, 26, 27])
    val = np.array([1, 9, 14, 22, 25, 28])
    test = np.setdiff1d(np.arange(30), np.concatenate([train, val]))
    return adj, X, y, SplitSet(train=train, val=val, test=test)


class TestSgcOnLabeledRows:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_rows_and_fit_equal_the_full_graph_ones(self, k):
        adj, X, y, split = _two_components_and_isolated_nodes(np.random.default_rng(20 + k))
        rows = split.labeled()  # train, then validation: not in node order
        block, full = sgc_propagate(adj, X, k, rows), sgc_propagate(adj, X, k)
        assert np.array_equal(block.values, full.values[rows])
        fitted = train_logreg(X, y, split, TrainConfig(), adj, k)
        expected = train_logreg(full, y, split, TrainConfig())
        assert np.any(fitted.W)
        assert np.array_equal(fitted.W, expected.W)
        assert np.array_equal(fitted.b, expected.b)
        # A_hat^k (X W^T) + b sums in another order than (A_hat^k X) W^T + b
        assert np.allclose(logreg_forward(fitted, X, adj, k), logreg_forward(expected, full),
                           rtol=0, atol=1e-12)

    def test_labeled_rows_must_match_the_split(self):
        adj, X, y, split = _two_components_and_isolated_nodes(np.random.default_rng(6))
        # the fit propagates the split's rows itself, so pre-gathered rows fail
        with pytest.raises(ValueError, match="features hold 13 rows; labels hold 30"):
            train_logreg(FeatureMatrix(X.values[split.labeled()]), y, split, TrainConfig())


class TestAccuracy:
    def test_perfect_one_hot(self):
        y = LabelVector(np.array([0, 1, 1]), 2)
        preds = np.eye(2)[y.labels]
        assert accuracy(preds, y, np.arange(3)) == 1.0

    def test_tie_goes_to_lowest_class(self):
        uniform = np.full((4, 2), 0.5)
        zeros = LabelVector(np.zeros(4, dtype=int), 2)
        ones = LabelVector(np.ones(4, dtype=int), 2)
        assert accuracy(uniform, zeros, np.arange(4)) == 1.0
        assert accuracy(uniform, ones, np.arange(4)) == 0.0

    def test_three_of_four(self):
        y = LabelVector(np.array([0, 0, 1, 1]), 2)
        preds = np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7], [0.6, 0.4]])
        assert accuracy(preds, y, np.arange(4)) == 0.75

    def test_empty_mask(self):
        y = LabelVector(np.array([0, 1]), 2)
        with pytest.raises(ValueError):
            accuracy(np.eye(2), y, np.array([], dtype=int))
