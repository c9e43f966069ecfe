import inspect

import numpy as np
import pytest

from graphdiag import (FeatureMatrix, LabelVector, TrainConfig, accuracy,
                       gcn_forward, logreg_forward, normalized_adjacency,
                       sgc_propagate, to_undirected, train_gcn, train_logreg)
from graphdiag.harness import SplitSet
from graphdiag.models import (GcnModel, TrainingDivergedError,
                              _descend, gcn_loss_grad, glorot_uniform,
                              logreg_loss_grad)
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
    """GCN probabilities on a graph, propagating the features first."""
    adj = normalized_adjacency(graph)
    return gcn_forward(model, adj, sgc_propagate(adj, FeatureMatrix(X), 1))


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

    def test_input_is_read_as_already_propagated(self):
        # the first layer reads A_hat X from the caller and applies no A_hat
        # of its own; only the second layer propagates
        rng = np.random.default_rng(11)
        g = random_simple_graph(rng, n=9, p=0.4)
        adj = normalized_adjacency(g).toarray()
        P = rng.standard_normal((9, 3))
        model = GcnModel(rng.standard_normal((3, 4)), rng.standard_normal((4, 2)))
        probs = gcn_forward(model, normalized_adjacency(g), FeatureMatrix(P))
        logits = adj @ np.maximum(P @ model.W0, 0.0) @ model.W1
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
        y = rng.integers(0, 3, 9)
        train = np.arange(6)
        params = [rng.standard_normal((3, 4)) * 0.5, rng.standard_normal(3) * 0.5]
        _, grads, _ = logreg_loss_grad(params, X, y, train, 5e-4)
        for pi, p in enumerate(params):
            fd = np.zeros_like(p)
            for idx in np.ndindex(p.shape):
                for sign, store in ((1, 0), (-1, 1)):
                    shifted = [q.copy() for q in params]
                    shifted[pi][idx] += sign * eps
                    loss, _, _ = logreg_loss_grad(shifted, X, y, train, 5e-4)
                    fd[idx] += sign * loss / (2 * eps)
            worst = max(worst, _rel_err(grads[pi], fd).max())
    return worst


def _max_grad_error_gcn(n_instances, eps=1e-4, seed0=900):
    worst = 0.0
    for i in range(n_instances):
        rng = np.random.default_rng(seed0 + i)
        g = random_simple_graph(rng, n=8, p=0.4)
        adj = normalized_adjacency(g)
        X = rng.standard_normal((8, 5))
        AX = adj @ X
        y = rng.integers(0, 3, 8)
        train = np.arange(5)
        params = [glorot_uniform((5, 4), rng), glorot_uniform((4, 3), rng)]
        _, grads, _ = gcn_loss_grad(params, adj, AX, y, train, 5e-4)
        for pi, p in enumerate(params):
            fd = np.zeros_like(p)
            for idx in np.ndindex(p.shape):
                for sign in (1, -1):
                    shifted = [q.copy() for q in params]
                    shifted[pi][idx] += sign * eps
                    loss, _, _ = gcn_loss_grad(shifted, adj, AX, y, train, 5e-4)
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
        AX = sgc_propagate(adj, X, 1)
        model = train_gcn(adj, AX, labels, split, TrainConfig(), init_seed=3)
        probs = gcn_forward(model, adj, AX)
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
        AX = sgc_propagate(adj, X, 1)
        splits = make_splits(y, (20, 20), n_splits=6, seed=0)
        acc_lr, acc_gcn = [], []
        for i, split in enumerate(splits):
            base = train_logreg(X, y, split, TrainConfig())
            acc_lr.append(accuracy(logreg_forward(base, X), y, split.test))
            model = train_gcn(adj, AX, y, split, TrainConfig(hidden_dim=8),
                              init_seed=i)
            acc_gcn.append(accuracy(gcn_forward(model, adj, AX), y, split.test))
        assert abs(np.median(acc_gcn) - np.median(acc_lr)) <= 0.05
        assert mann_whitney_u(acc_gcn, acc_lr).p_value > 0.01

    def test_loss_history_non_increasing(self):
        rng = np.random.default_rng(9)
        g = random_simple_graph(rng, n=20, p=0.2)
        adj = normalized_adjacency(g)
        X = rng.standard_normal((20, 4))
        AX = adj @ X
        y = rng.integers(0, 2, 20)
        train, val = np.arange(10), np.arange(10, 15)
        labels = LabelVector(y, 2)
        cfg = TrainConfig(max_epochs=80, patience=80)
        params0 = [glorot_uniform((4, 6), np.random.default_rng(1)),
                   glorot_uniform((6, 2), np.random.default_rng(2))]
        _, losses = _descend(
            params0,
            lambda p: gcn_loss_grad(p, adj, AX, y, train, cfg.weight_decay),
            lambda probs: accuracy(probs, labels, val),
            cfg)
        assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_divergence_is_reported(self):
        def bad_loss(params):
            return float("nan"), [np.zeros(1)], np.zeros((1, 1))

        with pytest.raises(TrainingDivergedError) as err:
            _descend([np.zeros(1)], bad_loss, lambda p: 0.0, TrainConfig())
        assert err.value.epoch == 0


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
