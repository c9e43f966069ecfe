"""Modularity, greedy two-phase community detection, and block densities.

The detector is the classic two-phase scheme: repeated single-node moves
that greedily improve modularity, followed by aggregation of communities
into super-nodes, until an aggregation pass produces no merge. Node visit
order is reshuffled every pass from a seeded generator, and gain ties are
broken toward the lowest community id, so results are reproducible.
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


def _local_moves(adj: list[dict[int, float]], self_weight: np.ndarray,
                 two_m: float, resolution: float,
                 rng: np.random.Generator) -> np.ndarray:
    """One move phase; returns the (uncompacted) community of each node."""
    n = len(adj)
    degree = np.array([2.0 * self_weight[u] + sum(adj[u].values()) for u in range(n)])
    comm = np.arange(n)
    comm_total = degree.copy()
    # gains are tracked in units of m * dQ; rescale the threshold to match
    eps = GAIN_EPS * (two_m / 2.0)
    moved = True
    while moved:
        moved = False
        for u in rng.permutation(n):
            cu = comm[u]
            links: dict[int, float] = {}
            for v, w in adj[u].items():
                cv = comm[v]
                links[cv] = links.get(cv, 0.0) + w
            comm_total[cu] -= degree[u]
            stay = links.get(cu, 0.0) - resolution * degree[u] * comm_total[cu] / two_m
            best_c, best_gain = cu, stay
            for c in sorted(links):
                if c == cu:
                    continue
                gain = links[c] - resolution * degree[u] * comm_total[c] / two_m
                if gain > best_gain and gain - stay > eps:
                    best_c, best_gain = c, gain
            comm_total[best_c] += degree[u]
            if best_c != cu:
                comm[u] = best_c
                moved = True
    return comm


def _aggregate(adj: list[dict[int, float]], self_weight: np.ndarray,
               comm: np.ndarray) -> tuple[list[dict[int, float]], np.ndarray, np.ndarray]:
    """Collapse communities into super-nodes; returns (adj, self_weight, relabel)."""
    _, relabel = np.unique(comm, return_inverse=True)
    k = relabel.max() + 1
    new_self = np.zeros(k)
    new_adj: list[dict[int, float]] = [dict() for _ in range(k)]
    for u, row in enumerate(adj):
        cu = relabel[u]
        new_self[cu] += self_weight[u]
        for v, w in row.items():
            cv = relabel[v]
            if cu == cv:
                if u < v:
                    new_self[cu] += w
            else:
                new_adj[cu][cv] = new_adj[cu].get(cv, 0.0) + w
    return new_adj, new_self, relabel


def louvain(graph: LabeledGraph, seed: int, resolution: float = 1.0) -> Partition:
    """Greedy modularity maximization; deterministic for a given seed.

    The seed only drives the per-pass node visit shuffle. Community ids in
    the returned partition are numbered by their smallest member node.
    """
    if graph.m == 0:
        raise GraphError("community detection needs at least one edge")
    rng = np.random.default_rng(seed)
    adj: list[dict[int, float]] = [
        {int(v): 1.0 for v in graph.neighbors_of(u)} for u in range(graph.n)
    ]
    self_weight = np.zeros(graph.n)
    two_m = 2.0 * graph.m
    node_to_super = np.arange(graph.n)
    while True:
        comm = _local_moves(adj, self_weight, two_m, resolution, rng)
        if len(np.unique(comm)) == len(adj):
            break
        adj, self_weight, relabel = _aggregate(adj, self_weight, comm)
        node_to_super = relabel[node_to_super]
    # number communities by smallest member node id
    raw = node_to_super
    order: dict[int, int] = {}
    assignment = np.empty(graph.n, dtype=np.int64)
    for u in range(graph.n):
        assignment[u] = order.setdefault(int(raw[u]), len(order))
    return Partition(assignment=assignment, num_communities=len(order))
