"""Modularity, greedy two-phase community detection, and block densities.

The detector is the classic two-phase scheme: repeated single-node moves
that greedily improve modularity, followed by aggregation of communities
into super-nodes, until an aggregation pass produces no merge. Each level
is a CSR graph (offsets, neighbors, weights) plus each node's degree, which
also counts the edges inside a super-node; level 0 is the input graph's own
arrays with unit weights. Weights and degrees are integer-valued floats far
below 2**53, so every sum is exact in any order. Node visit order is
reshuffled every pass from a seeded generator and gain ties go to the
lowest community id. These two rules fix the search path, and with it the
partitions that the benchmark reference pins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import GraphError, LabeledGraph

# A single-node move must improve modularity by more than this to count.
GAIN_EPS = 1e-9


@dataclass(frozen=True)
class Partition:
    """Node-to-community assignment with compacted community ids."""

    assignment: np.ndarray
    num_communities: int

    def __post_init__(self) -> None:
        assignment = np.asarray(self.assignment, dtype=np.int64)
        object.__setattr__(self, "assignment", assignment)
        if assignment.ndim != 1:
            raise ValueError("assignment must be 1-D")
        present = np.unique(assignment)
        if not np.array_equal(present, np.arange(self.num_communities)):
            raise ValueError("community ids must be exactly 0..K-1, all non-empty")
        assignment.setflags(write=False)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.num_communities)


@dataclass(frozen=True)
class BlockMatrix:
    """Within/between-community edge densities plus the raw edge counts.

    ``densities[a, a]`` is internal edges over size_a-choose-2 (0 for
    singleton communities); ``densities[a, b]`` is cross edges over
    size_a * size_b. ``edge_counts`` keeps the integer numerators so exact
    reconstructions need no float round-trip.
    """

    sizes: np.ndarray
    densities: np.ndarray
    edge_counts: np.ndarray

    @property
    def num_communities(self) -> int:
        return len(self.sizes)


def modularity(graph: LabeledGraph, partition: Partition) -> float:
    """Newman-Girvan modularity Q of a partition.

    Q = sum_c [ e_c / m - (d_c / 2m)^2 ] with e_c the community's internal
    edge count and d_c its total degree. Lies in [-0.5, 1).
    """
    if graph.m == 0:
        raise GraphError("modularity is undefined on an edgeless graph")
    if len(partition.assignment) != graph.n:
        raise ValueError("partition does not cover this graph")
    comm = partition.assignment
    edges = graph.edge_array()
    internal = np.bincount(comm[edges[:, 0]][comm[edges[:, 0]] == comm[edges[:, 1]]],
                           minlength=partition.num_communities)
    comm_degree = np.bincount(comm, weights=graph.degrees(),
                              minlength=partition.num_communities)
    m = float(graph.m)
    return float(np.sum(internal / m - (comm_degree / (2.0 * m)) ** 2))


def block_density_matrix(graph: LabeledGraph, partition: Partition) -> BlockMatrix:
    """Edge densities within and between communities, as exact count ratios."""
    comm = partition.assignment
    k = partition.num_communities
    sizes = partition.sizes()
    edges = graph.edge_array()
    a, b = comm[edges[:, 0]], comm[edges[:, 1]]
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (a, b), 1)
    cross = a != b
    np.add.at(counts, (b[cross], a[cross]), 1)
    pairs = np.outer(sizes, sizes).astype(np.float64)
    np.fill_diagonal(pairs, sizes * (sizes - 1) / 2.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        densities = np.where(pairs > 0, counts / np.where(pairs > 0, pairs, 1.0), 0.0)
    return BlockMatrix(sizes=sizes, densities=densities, edge_counts=counts)


def _local_moves(offsets: np.ndarray, neighbors: np.ndarray, weights: np.ndarray,
                 degree: np.ndarray, two_m: float, rng: np.random.Generator) -> np.ndarray:
    """One move phase on a CSR level; returns the (uncompacted) community of
    each node. The loop reads Python lists: numpy scalar indexing and
    arithmetic would cost most of its time, and Python floats round alike."""
    n = len(degree)
    offsets, neighbors, weights = offsets.tolist(), neighbors.tolist(), weights.tolist()
    degree = degree.tolist()
    comm = list(range(n))
    comm_total = list(degree)
    # gains are tracked in units of m * dQ; rescale the threshold to match
    eps = GAIN_EPS * (two_m / 2.0)
    moved = True
    while moved:
        moved = False
        for u in rng.permutation(n).tolist():
            cu, du = comm[u], degree[u]
            links: dict[int, float] = {}
            lo, hi = offsets[u], offsets[u + 1]
            for v, w in zip(neighbors[lo:hi], weights[lo:hi]):
                cv = comm[v]
                links[cv] = links.get(cv, 0.0) + w
            comm_total[cu] -= du
            stay = links.get(cu, 0.0) - du * comm_total[cu] / two_m
            best_c, best_gain = cu, stay
            for c in sorted(links):
                if c == cu:
                    continue
                gain = links[c] - du * comm_total[c] / two_m
                if gain > best_gain and gain - stay > eps:
                    best_c, best_gain = c, gain
            comm_total[best_c] += du
            if best_c != cu:
                comm[u] = best_c
                moved = True
    return np.array(comm, dtype=np.int64)


def louvain(graph: LabeledGraph, seed: int) -> Partition:
    """Greedy modularity maximization; deterministic for a given seed.

    The seed only drives the per-pass node visit shuffle. Community ids in
    the returned partition are numbered by their smallest member node.
    """
    if graph.m == 0:
        raise GraphError("community detection needs at least one edge")
    rng = np.random.default_rng(seed)
    offsets, neighbors = graph.offsets, graph.neighbors
    weights = np.ones(len(neighbors))
    degree = graph.degrees().astype(np.float64)
    two_m = 2.0 * graph.m
    node_to_super = np.arange(graph.n)
    while True:
        comm = _local_moves(offsets, neighbors, weights, degree, two_m, rng)
        _, relabel = np.unique(comm, return_inverse=True)
        k = int(relabel.max()) + 1
        if k == len(degree):
            break
        # collapse each community into a super-node with its members' total
        # degree; edges inside it leave the CSR (its degree keeps them) and
        # edges between the same two super-nodes merge into one
        src = relabel[np.repeat(np.arange(len(degree)), np.diff(offsets))]
        dst = relabel[neighbors]
        cross = src != dst
        codes, group = np.unique(src[cross] * k + dst[cross], return_inverse=True)
        weights = np.bincount(group, weights=weights[cross], minlength=len(codes))
        neighbors = codes % k
        offsets = np.concatenate([[0], np.cumsum(np.bincount(codes // k, minlength=k))])
        degree = np.bincount(relabel, weights=degree, minlength=k)
        node_to_super = relabel[node_to_super]
    # number communities by smallest member node id
    _, first, raw = np.unique(node_to_super, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return Partition(assignment=rank[raw], num_communities=len(first))
