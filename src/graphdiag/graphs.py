"""Compressed sparse row graphs, dataset bundles, and preprocessing steps."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


class GraphError(ValueError):
    """Raised for structurally invalid graphs or datasets."""


@dataclass(frozen=True)
class LabeledGraph:
    """Undirected simple graph stored in compressed sparse row form.

    Each undirected edge {u, v} appears twice in ``neighbors`` (once per
    endpoint); ``m`` counts it once. ``n`` and ``m`` are read off the
    arrays. Neighbor lists are sorted ascending with no self-loops or
    duplicates. The arrays are frozen after construction, so instances can
    be shared freely across workers.
    """

    offsets: np.ndarray
    neighbors: np.ndarray
    n: int = field(init=False)
    m: int = field(init=False)

    def __post_init__(self) -> None:
        offsets = np.asarray(self.offsets, dtype=np.int64)
        neighbors = np.asarray(self.neighbors, dtype=np.int64)
        if offsets.ndim != 1 or len(offsets) == 0:
            raise GraphError("offsets must be a non-empty 1-D array")
        n = len(offsets) - 1
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "neighbors", neighbors)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", len(neighbors) // 2)
        if len(neighbors) and (neighbors.min() < 0 or neighbors.max() >= n):
            raise GraphError("neighbor index out of range")
        if offsets[0] != 0 or offsets[-1] != len(neighbors):
            raise GraphError("offsets do not span the neighbor array")
        if np.any(np.diff(offsets) < 0):
            raise GraphError("offsets must be non-decreasing")
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        if np.any(src == neighbors):
            raise GraphError("self-loops are not allowed")
        # sorted strictly ascending within each row (=> no duplicates)
        interior = np.ones(len(neighbors), dtype=bool)
        interior[offsets[:-1][np.diff(offsets) > 0]] = False
        if np.any(np.diff(neighbors)[interior[1:]] <= 0):
            raise GraphError("neighbor lists must be sorted and duplicate-free")
        # symmetry: the directed-edge code multiset is invariant under reversal
        fwd = np.sort(src * n + neighbors)
        rev = np.sort(neighbors * n + src)
        if not np.array_equal(fwd, rev):
            raise GraphError("adjacency must be symmetric")
        offsets.setflags(write=False)
        neighbors.setflags(write=False)

    def neighbors_of(self, u: int) -> np.ndarray:
        return self.neighbors[self.offsets[u]:self.offsets[u + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def edge_array(self) -> np.ndarray:
        """Return an (m, 2) array of endpoints with u < v, sorted lexicographically."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())
        keep = src < self.neighbors
        return np.column_stack([src[keep], self.neighbors[keep]])


def to_undirected(edges: Iterable[Sequence[int]] | np.ndarray, n: int) -> LabeledGraph:
    """Build a simple undirected graph from a (possibly directed) edge list.

    Self-loops are dropped; duplicate pairs and reversed duplicates collapse
    into a single undirected edge.
    """
    e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                   dtype=np.int64).reshape(-1, 2)
    if len(e) and (e.min() < 0 or e.max() >= n):
        raise GraphError("edge endpoint out of range")
    e = e[e[:, 0] != e[:, 1]]
    lo = np.minimum(e[:, 0], e[:, 1])
    hi = np.maximum(e[:, 0], e[:, 1])
    codes = np.unique(lo * n + hi)
    lo, hi = codes // n, codes % n
    both = np.concatenate([lo * n + hi, hi * n + lo])
    both.sort()
    src, dst = both // n, both % n
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return LabeledGraph(offsets, dst)


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense n-by-d feature matrix; row i belongs to node i."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise GraphError("feature matrix must be 2-D")
        if not np.all(np.isfinite(values)):
            raise GraphError("feature values must be finite")
        object.__setattr__(self, "values", values)
        values.setflags(write=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LabelVector:
    """Per-node class ids in [0, num_labels)."""

    labels: np.ndarray
    num_labels: int

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1:
            raise GraphError("labels must be 1-D")
        if self.num_labels < 1:
            raise GraphError("need at least one label class")
        if len(labels) and (labels.min() < 0 or labels.max() >= self.num_labels):
            raise GraphError("label id out of range")
        labels.setflags(write=False)

    def __len__(self) -> int:
        return len(self.labels)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_labels)


@dataclass(frozen=True)
class Dataset:
    """A graph with aligned node features (None if not loaded), labels, and
    original node tokens."""

    graph: LabeledGraph
    features: FeatureMatrix | None
    labels: LabelVector
    node_tokens: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.node_tokens:
            object.__setattr__(
                self, "node_tokens", tuple(str(i) for i in range(self.graph.n)))
        if not (self.graph.n == len(self.labels) == len(self.node_tokens)
                and (self.features is None or self.features.n == self.graph.n)):
            raise GraphError("graph, features, labels, and tokens disagree on n")

    @property
    def n(self) -> int:
        return self.graph.n


def edge_density(graph: LabeledGraph) -> float:
    """Existing undirected edges divided by the n-choose-2 maximum."""
    if graph.n < 2:
        raise GraphError("edge density needs at least two nodes")
    return 2.0 * graph.m / (graph.n * (graph.n - 1))


def connected_components(graph: LabeledGraph) -> list[np.ndarray]:
    """Connected components, largest first; ties broken by smallest member id.

    Each component is returned as a sorted array of node ids.
    """
    if graph.n == 0:
        return []
    # hook and shortcut: every node points at a smaller or equal id. Each
    # round hooks the larger root of every edge between two trees onto the
    # smaller one, then compresses paths; each tree's root ends up as its
    # component's smallest id
    root = np.arange(graph.n)
    src = np.repeat(np.arange(graph.n), graph.degrees())
    while True:
        a, b = root[src], root[graph.neighbors]
        cross = a != b
        if not cross.any():
            break
        np.minimum.at(root, np.maximum(a, b)[cross], np.minimum(a, b)[cross])
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    # a stable sort by root keeps each component's ids ascending
    order = np.argsort(root, kind="stable")
    _, sizes = np.unique(root, return_counts=True)
    components = np.split(order, np.cumsum(sizes)[:-1])
    components.sort(key=lambda c: (-len(c), c[0]))
    return components


def _compact_labels(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """Remap label ids onto 0..K-1 preserving the original id order."""
    present = np.unique(labels)
    remap = np.full(present.max() + 1 if len(present) else 1, -1, dtype=np.int64)
    remap[present] = np.arange(len(present))
    return remap[labels], len(present)


def induced_subgraph(graph: LabeledGraph, nodes: np.ndarray) -> LabeledGraph:
    """Induced subgraph on ``nodes`` (ascending ids), renumbered 0..k-1."""
    nodes = np.asarray(nodes, dtype=np.int64)
    new_id = np.full(graph.n, -1, dtype=np.int64)
    new_id[nodes] = np.arange(len(nodes))
    edges = graph.edge_array()
    keep = (new_id[edges[:, 0]] >= 0) & (new_id[edges[:, 1]] >= 0)
    return to_undirected(new_id[edges[keep]], n=len(nodes))


def induced_subdataset(dataset: Dataset, nodes: np.ndarray) -> Dataset:
    """Induced subgraph on ``nodes`` (ascending ids), labels re-compacted."""
    nodes = np.asarray(nodes, dtype=np.int64)
    if len(nodes) == 0:
        raise GraphError("cannot induce an empty dataset")
    labels, num = _compact_labels(dataset.labels.labels[nodes])
    return Dataset(
        graph=induced_subgraph(dataset.graph, nodes),
        features=(None if dataset.features is None
                  else FeatureMatrix(dataset.features.values[nodes])),
        labels=LabelVector(labels, num),
        node_tokens=tuple(dataset.node_tokens[i] for i in nodes),
    )


def select_components(graph: LabeledGraph, keep_top_k: int = 1) -> np.ndarray:
    """Ascending ids of the nodes in the graph's k largest components."""
    if keep_top_k < 1:
        raise GraphError("keep_top_k must be >= 1")
    if graph.n == 0:
        raise GraphError("empty graph has no components")
    comps = connected_components(graph)
    return np.sort(np.concatenate(comps[:keep_top_k]))


def remove_rare_labels(labels: np.ndarray, min_count: int) -> np.ndarray:
    """Ascending ids of the nodes whose class has at least ``min_count``
    members among the per-node class ids ``labels``.

    Raises if nothing survives.
    """
    if min_count < 1:
        raise GraphError("min_count must be >= 1")
    counts = np.bincount(labels)
    keep_nodes = np.flatnonzero(counts[labels] >= min_count)
    if len(keep_nodes) == 0:
        raise GraphError(f"no class reaches min_label_count={min_count} (largest has "
                         f"{counts.max(initial=0)} nodes); lower train_per_class/val_per_class")
    return keep_nodes
