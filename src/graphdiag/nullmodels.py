"""Null-model graph generators and the cross-community position swap.

Three rebuild strategies isolate which structural property drives a
classifier: block-model regeneration keeps communities but binomializes
degrees, degree-preserving rewiring keeps degrees but destroys
communities, and uniform-random regeneration keeps neither. The position
swap exchanges the adjacency of node pairs from different communities
while features and labels stay with the node, degrading community/label
alignment without touching positional degrees.

All generators are deterministic given (inputs, seed).
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .community import Partition
from .graphs import GraphError, LabeledGraph, to_undirected


# accepted double-edge swaps per edge in degree-preserving rewiring
SWAPS_PER_EDGE = 10.0


class RewireStallWarning(UserWarning):
    """Degree-preserving rewiring could not reach its swap budget."""


def _sample_distinct(n_total: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k distinct integers from [0, n_total), sorted; rejection-sampled so
    huge index spaces never materialize."""
    if k < 0 or k > n_total:
        raise ValueError("sample size out of range")
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if k > n_total // 2:
        drop = _sample_distinct(n_total, n_total - k, rng)
        return np.setdiff1d(np.arange(n_total, dtype=np.int64), drop)
    chosen: set[int] = set()
    while len(chosen) < k:
        batch = rng.integers(0, n_total, size=(k - len(chosen)) + 16)
        for x in batch:
            if len(chosen) == k:
                break
            chosen.add(int(x))
    return np.array(sorted(chosen), dtype=np.int64)


def _decode_pairs(indices: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Map linear indices over the s-choose-2 pairs of ``members`` to edges."""
    s = len(members)
    # before[i] = number of pairs whose first endpoint precedes member i
    before = np.concatenate([[0], np.cumsum(np.arange(s - 1, 0, -1))])
    first = np.searchsorted(before, indices, side="right") - 1
    second = indices - before[first] + first + 1
    return np.column_stack([members[first], members[second]])


def generate_sbm(densities: np.ndarray, partition: Partition,
                 seed: int) -> LabeledGraph:
    """Sample a graph where each node pair carries an edge independently
    with the density of its community pair, ``densities[a, b]`` for a <= b.
    Node identities (and hence features and labels) are untouched."""
    k = partition.num_communities
    if np.shape(densities) != (k, k):
        raise ValueError(f"densities must be {k}x{k} for a partition into {k} "
                         f"communities, got shape {np.shape(densities)}")
    rng = np.random.default_rng(seed)
    n = len(partition.assignment)
    members = [np.flatnonzero(partition.assignment == c) for c in range(k)]
    pieces = []
    for a in range(k):
        for b in range(a, k):
            p = float(densities[a, b])
            if p <= 0.0:
                continue
            if a == b:
                s = len(members[a])
                n_pairs = s * (s - 1) // 2
                count = int(rng.binomial(n_pairs, p)) if p < 1.0 else n_pairs
                if count:
                    idx = _sample_distinct(n_pairs, count, rng)
                    pieces.append(_decode_pairs(idx, members[a]))
            else:
                n_pairs = len(members[a]) * len(members[b])
                count = int(rng.binomial(n_pairs, p)) if p < 1.0 else n_pairs
                if count:
                    idx = _sample_distinct(n_pairs, count, rng)
                    i, j = np.divmod(idx, len(members[b]))
                    pieces.append(np.column_stack([members[a][i], members[b][j]]))
    edges = np.concatenate(pieces) if pieces else np.empty((0, 2), dtype=np.int64)
    return to_undirected(edges, n=n)


def rewire_configuration_model(graph: LabeledGraph, seed: int) -> LabeledGraph:
    """Randomize wiring by repeated double-edge swaps.

    Two edges (a,b), (c,d) are rewired to (a,d), (b,c) only when that
    creates no self-loop and no duplicate, so every node keeps its exact
    degree and the graph stays simple. The walk runs until
    ceil(SWAPS_PER_EDGE * m) swaps are accepted; a graph that cannot swap
    at all (e.g. a star) is returned unchanged with a warning.
    """
    if graph.m < 2:
        raise GraphError("rewiring needs at least two edges")
    rng = np.random.default_rng(seed)
    n = graph.n
    edges = graph.edge_array().copy()
    edge_set = {int(u) * n + int(v) for u, v in edges}
    target = math.ceil(SWAPS_PER_EDGE * graph.m)
    attempt_cap = max(100 * target, 1000)
    successes = 0
    attempts = 0
    while successes < target and attempts < attempt_cap:
        attempts += 1
        e1, e2 = rng.integers(0, graph.m, size=2)
        if e1 == e2:
            continue
        a, b = edges[e1]
        c, d = edges[e2]
        if rng.random() < 0.5:
            c, d = d, c
        if a == d or b == c:
            continue
        new1 = int(min(a, d)) * n + int(max(a, d))
        new2 = int(min(b, c)) * n + int(max(b, c))
        if new1 == new2 or new1 in edge_set or new2 in edge_set:
            continue
        edge_set.remove(int(min(a, b)) * n + int(max(a, b)))
        edge_set.remove(int(min(c, d)) * n + int(max(c, d)))
        edge_set.add(new1)
        edge_set.add(new2)
        edges[e1] = (min(a, d), max(a, d))
        edges[e2] = (min(b, c), max(b, c))
        successes += 1
    if successes == 0:
        warnings.warn("graph admits no degree-preserving swap; returning it unchanged",
                      RewireStallWarning)
        return graph
    if successes < target:
        warnings.warn(
            f"rewiring stalled after {successes}/{target} swaps; mixing may be partial",
            RewireStallWarning)
    return to_undirected(edges, n=n)


def generate_erdos_renyi(n: int, m_target: int, seed: int) -> LabeledGraph:
    """Uniform simple graph with exactly ``m_target`` edges on ``n`` nodes."""
    max_edges = n * (n - 1) // 2
    if not 0 <= m_target <= max_edges:
        raise GraphError(f"m_target must lie in [0, {max_edges}]")
    rng = np.random.default_rng(seed)
    idx = _sample_distinct(max_edges, m_target, rng)
    edges = _decode_pairs(idx, np.arange(n, dtype=np.int64))
    return to_undirected(edges, n=n)


def swap_perturbation(graph: LabeledGraph, partition: Partition, fraction: float,
                      seed: int) -> LabeledGraph:
    """Exchange the graph positions of randomly paired cross-community nodes.

    floor(fraction * n) nodes are selected uniformly and paired at random;
    pairs falling inside one community are re-drawn (capped at 100 per
    pair). Each pair (u, v) trades adjacency: u adopts v's neighbors and
    vice versa, while features and labels stay attached to the node id.
    The degree of every *position* is preserved.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    if fraction == 0.0:
        return graph
    n = graph.n
    n_selected = int(math.floor(fraction * n))
    if n_selected < 2:
        raise GraphError("fraction selects fewer than two nodes")
    if partition.num_communities < 2:
        raise GraphError("swapping needs at least two communities")
    rng = np.random.default_rng(seed)
    selected = rng.permutation(n)[:n_selected]
    pool = list(selected)
    comm = partition.assignment
    # pool nodes per community, and how many communities still have one
    left = np.bincount(comm[selected], minlength=partition.num_communities)
    non_empty = int(np.count_nonzero(left))
    pairs: list[tuple[int, int]] = []
    retries = 0
    retry_cap = 100 * (n_selected // 2)
    while len(pool) >= 2:
        if non_empty < 2:
            break  # only one community left; no further cross pair exists
        i = int(rng.integers(len(pool)))
        j = int(rng.integers(len(pool) - 1))
        if j >= i:
            j += 1
        u, v = pool[i], pool[j]
        if comm[u] == comm[v]:
            retries += 1
            if retries > retry_cap:
                raise GraphError("could not pair selected nodes across communities")
            continue
        for k in sorted((i, j), reverse=True):
            pool.pop(k)
        for w in (u, v):
            left[comm[w]] -= 1
            non_empty -= int(left[comm[w]] == 0)
        pairs.append((int(u), int(v)))
    sigma = np.arange(n, dtype=np.int64)
    for u, v in pairs:
        sigma[u], sigma[v] = sigma[v], sigma[u]
    return to_undirected(sigma[graph.edge_array()], n=n)
