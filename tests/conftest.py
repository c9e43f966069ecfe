from pathlib import Path

import numpy as np
import pytest

from graphdiag import Dataset, FeatureMatrix, LabelVector, to_undirected
from graphdiag.synthetic import planted_dataset


def write_dataset(root, ds):
    """Write ``ds`` under ``root`` as edges.txt, labels.tsv and features.csv."""
    tokens = ds.node_tokens
    files = {
        "edges.txt": (f"{tokens[u]} {tokens[v]}" for u, v in ds.graph.edge_array()),
        "labels.tsv": (f"{t}\t{y}" for t, y in zip(tokens, ds.labels.labels)),
        "features.csv": (",".join([t, *map(repr, row)])
                         for t, row in zip(tokens, ds.features.values.tolist())),
    }
    for name, lines in files.items():
        (Path(root) / name).write_text("".join(f"{line}\n" for line in lines),
                                       encoding="utf-8")


def make_dataset(edges, n, labels, features=None, num_labels=None, tokens=None):
    """Small helper to assemble a Dataset from plain Python pieces."""
    labels = np.asarray(labels)
    num = num_labels if num_labels is not None else int(labels.max()) + 1
    if features is None:
        features = np.zeros((n, 2))
    return Dataset(graph=to_undirected(edges, n),
                   features=FeatureMatrix(np.asarray(features, dtype=float)),
                   labels=LabelVector(labels, num),
                   node_tokens=tuple(tokens) if tokens else ())


def planted_plus_isolated(n_isolated, seed=1, **planted):
    """``planted_dataset(seed=seed, **planted)`` plus ``n_isolated`` nodes with
    no edge, labelled in turn and with Gaussian features. A study keeps them
    all when ``keep_top_k_components`` is at least the node count, and then
    each is a community of its own."""
    ds = planted_dataset(seed=seed, **planted)
    rng = np.random.default_rng(seed)
    return make_dataset(
        ds.graph.edge_array(), ds.n + n_isolated,
        np.concatenate([ds.labels.labels, np.arange(n_isolated) % ds.labels.num_labels]),
        np.vstack([ds.features.values, rng.standard_normal((n_isolated, ds.features.d))]),
        num_labels=ds.labels.num_labels)


@pytest.fixture
def path3():
    """Path graph 0-1-2."""
    return to_undirected([(0, 1), (1, 2)], n=3)


@pytest.fixture
def triangle():
    return to_undirected([(0, 1), (0, 2), (1, 2)], n=3)


@pytest.fixture
def bridged_triangles():
    """Two triangles {0,1,2} and {3,4,5} joined by the edge 2-3."""
    return to_undirected(
        [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)], n=6)


@pytest.fixture
def disjoint_triangles():
    return to_undirected([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)], n=6)


def random_simple_graph(rng, n=None, p=0.3):
    """Random graph guaranteed to have at least one edge."""
    if n is None:
        n = int(rng.integers(4, 12))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    if not edges:
        edges = [(0, 1)]
    return to_undirected(edges, n=n)
