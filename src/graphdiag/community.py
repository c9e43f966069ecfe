"""Modularity, greedy two-phase community detection, and block densities.

The detector is the classic two-phase scheme: repeated single-node moves
that greedily improve modularity, followed by aggregation of communities
into super-nodes, until an aggregation pass produces no merge. Each level
is a CSR graph (offsets, neighbors, weights) plus each node's degree, which
also counts the edges inside a super-node; level 0 is the input graph's own
arrays with unit weights. No row holds a duplicate or a self-loop. Weights
and degrees are integer-valued and far below 2**53, so every sum is exact
in any order. Node visit order is reshuffled every pass from a seeded
generator and gain ties go to the lowest community id. These two rules fix
the search path, and with it the partitions that the benchmark reference
pins.

A move decision reads only the node's community and degree, its summed
weight to each neighbouring community, and the total degree of each of
those communities. Each node keeps those summed weights in a dict that is
updated in place when a neighbour moves. A node that stays sleeps until a
move into or out of its own or a neighbouring community wakes it, and a
visit to a sleeping node costs one flag read. A sleeping node's inputs
are unchanged, so it would stay again: the visit order, the RNG stream
and the partitions are the same as when every node is evaluated on every
pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import GraphError, LabeledGraph, frozen_array

# A single-node move must improve modularity by more than this to count.
GAIN_EPS = 1e-9


@dataclass(frozen=True)
class Partition:
    """Node-to-community assignment with compacted community ids; the
    community count is read off the assignment."""

    assignment: np.ndarray
    num_communities: int = field(init=False)

    def __post_init__(self) -> None:
        assignment = frozen_array(self, "assignment", np.int64)
        if assignment.ndim != 1:
            raise ValueError("assignment must be 1-D")
        # not np.unique: its first call in a process pays a hash set-up
        n = len(assignment)
        counts = (np.bincount(assignment)
                  if n == 0 or (assignment.min() >= 0 and assignment.max() < n) else None)
        if counts is None or not counts.all():
            raise ValueError("community ids must be exactly 0..K-1, all non-empty")
        object.__setattr__(self, "num_communities", len(counts))

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.num_communities)


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


def block_density_matrix(graph: LabeledGraph, partition: Partition) -> dict[tuple[int, int], float]:
    """Edge densities of the block pairs a <= b that hold an edge, as exact count ratios.

    Maps (a, b), in ascending order, to internal edges over size_a-choose-2
    if a == b, else to cross edges over size_a * size_b: O(m + K) entries.
    """
    if len(partition.assignment) != graph.n:
        raise ValueError("partition does not cover this graph")
    comm = partition.assignment
    k = partition.num_communities
    sizes = partition.sizes()
    edges = graph.edge_array()
    a, b = comm[edges[:, 0]], comm[edges[:, 1]]
    codes, counts = np.unique(np.minimum(a, b) * k + np.maximum(a, b), return_counts=True)
    a, b = np.divmod(codes, k)
    pairs = np.where(a == b, sizes[a] * (sizes[a] - 1) // 2, sizes[a] * sizes[b])
    return dict(zip(zip(a.tolist(), b.tolist()), (counts / pairs).tolist()))


def _local_moves(offsets: np.ndarray, neighbors: np.ndarray, weights: np.ndarray,
                 degree: np.ndarray, two_m: float, rng: np.random.Generator) -> np.ndarray:
    """One move phase on a CSR level; returns the (uncompacted) community of
    each node.

    What each node keeps: ``links[u]`` maps each community holding a
    neighbour of u (its own included) to u's summed edge weight into it.
    It starts as the row itself, since every node starts alone and rows
    hold no duplicate. When u moves, each neighbour's dict moves u's
    weight from the old community to the new one, so an evaluation reads
    the dict instead of rebuilding it from the row.

    When a node is woken: a node that stays goes to sleep and registers
    as a watcher of its own community and of every community in its
    dict. A move stamps its old and its new community with the count of
    moves before it, wakes every watcher of the two and empties their
    lists. A node that moved stays awake, and a visit to a sleeping node
    is skipped. A node re-registers only on the communities stamped since
    its last registration. Any other community in its dict was already
    there and watched then, because a community enters a dict only by a
    move into it, and no stamp has emptied its list since. So each live
    entry is unique, and there are at most nnz + n of them.

    Why the evaluated set is the unpruned loop's: a sleeping node is
    woken by the first stamp on its own community or on a neighbour's.
    Until some neighbour moves, those are exactly the communities it
    watches; the first neighbour move stamps the community it leaves,
    which the node watches. This is the rule of evaluating a node only if
    one of those communities was stamped since its last evaluation. A
    skipped node's inputs are unchanged and its sums exact, so it would
    stay again. Every pass still draws its permutation, and a pass with no
    move still ends the phase, so the RNG stream, the visit order and the
    partitions are those of evaluating every node.

    The loop reads Python lists and dicts: numpy scalar indexing and
    arithmetic would cost most of its time. Links are Python ints, which
    the in-place updates keep exact. A link is integer-valued and below
    2**53, so it converts to the equal float exactly, and each gain rounds
    as it would from the float sum of the row."""
    n = len(degree)
    weights = weights.astype(np.int64, copy=False)
    offsets = offsets.tolist()
    degree = degree.tolist()
    comm = list(range(n))
    comm_total = list(degree)
    # dict keys share comm's int objects rather than holding nnz fresh ones
    links = [dict(zip(map(comm.__getitem__, neighbors[lo:hi].tolist()),
                      weights[lo:hi].tolist()))
             for lo, hi in zip(offsets, offsets[1:])]
    awake = bytearray(b"\x01") * n
    watchers: list[list[int]] = [[] for _ in range(n)]
    stamped_at = [-1] * n
    registered_at = [-1] * n
    moves = 0
    # gains are tracked in units of m * dQ; rescale the threshold to match
    eps = GAIN_EPS * (two_m / 2.0)
    moved = True
    while moved:
        moved = False
        for u in rng.permutation(n).tolist():
            if not awake[u]:
                continue
            cu, du, lu = comm[u], degree[u], links[u]
            comm_total[cu] -= du
            stay = lu.get(cu, 0) - du * comm_total[cu] / two_m
            # the best gain over stay + eps; equal gains go to the lowest id
            best_c, best_gain = cu, stay
            for c, link in lu.items():
                if c == cu:
                    continue
                gain = link - du * comm_total[c] / two_m
                if gain - stay > eps and (gain > best_gain
                                          or (gain == best_gain and c < best_c)):
                    best_c, best_gain = c, gain
            comm_total[best_c] += du
            if best_c == cu:
                awake[u] = 0
                since, registered_at[u] = registered_at[u], moves
                if stamped_at[cu] >= since and cu not in lu:
                    watchers[cu].append(u)
                for c in lu:
                    if stamped_at[c] >= since:
                        watchers[c].append(u)
                continue
            comm[u] = best_c
            moved = True
            stamped_at[cu] = stamped_at[best_c] = moves
            moves += 1
            for watching in (watchers[cu], watchers[best_c]):
                for v in watching:
                    awake[v] = 1
                watching.clear()
            lo, hi = offsets[u], offsets[u + 1]
            for v, w in zip(neighbors[lo:hi].tolist(), weights[lo:hi].tolist()):
                lv = links[v]
                left = lv[cu] - w
                if left:
                    lv[cu] = left
                else:
                    del lv[cu]
                lv[best_c] = lv.get(best_c, 0) + w
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
    weights = np.ones(len(neighbors), dtype=np.int64)  # the move phase reads int64 uncopied
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
        weights = np.bincount(group, weights=weights[cross],
                              minlength=len(codes)).astype(np.int64)
        neighbors = codes % k
        offsets = np.concatenate([[0], np.cumsum(np.bincount(codes // k, minlength=k))])
        degree = np.bincount(relabel, weights=degree, minlength=k)
        node_to_super = relabel[node_to_super]
    # number communities by smallest member node id
    _, first, raw = np.unique(node_to_super, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return Partition(assignment=rank[raw])
