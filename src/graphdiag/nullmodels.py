"""Null-model graph generators and the cross-community position swap.

Three rebuild strategies isolate which structural property drives a
classifier: block-model regeneration keeps communities but binomializes
degrees, degree-preserving rewiring keeps degrees but destroys
communities, and uniform-random regeneration keeps neither. The position
swap exchanges the adjacency of node pairs from different communities
while features and labels stay with the node, degrading community/label
alignment without touching positional degrees.

All generators are deterministic given (inputs, seed).

Degree-preserving rewiring draws the generator's raw 64-bit words in
blocks and decodes them in plain Python ints. The decoder repeats numpy's
own arithmetic on the same words in the same order, so it yields exactly
the values ``Generator.integers`` and ``Generator.random`` would. That
arithmetic is numpy's 32-bit bounded-integer path, which numpy takes for
bounds below 2**32, so rewiring accepts graphs with fewer than 2**32 edges.
"""

from __future__ import annotations

import math
import warnings
from itertools import chain

import numpy as np

from .community import Partition
from .graphs import GraphError, LabeledGraph, to_undirected


# accepted double-edge swaps per edge in degree-preserving rewiring
SWAPS_PER_EDGE = 10.0
# raw 64-bit words drawn per generator call while rewiring
_WORD_BLOCK = 1 << 14
_LOW32 = 2**32 - 1


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
        keep = np.ones(n_total, dtype=bool)
        keep[_sample_distinct(n_total, n_total - k, rng)] = False
        return np.flatnonzero(keep)
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


def generate_sbm(densities: dict[tuple[int, int], float], partition: Partition,
                 seed: int) -> LabeledGraph:
    """Sample a graph where each node pair carries an edge independently
    with the density of its community pair, ``densities[a, b]`` for a <= b
    (0 if left out). Node identities (and hence features and labels) are untouched.

    A key that is not a pair a <= b of community ids below K, or a density
    outside [0, 1], NaN included, is refused before any draw, naming its
    block pair. Only the block pairs of density above 0 draw, in (a, b) order.
    """
    k = partition.num_communities
    blocks = sorted(densities.items())
    for (a, b), p in blocks:
        if not 0 <= a <= b < k:
            raise ValueError(f"densities[{a}, {b}] names no block pair a <= b "
                             f"of community ids 0..{k - 1}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"densities[{a}, {b}] is {p}; "
                             "a block density must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    n = len(partition.assignment)
    members = np.split(np.argsort(partition.assignment, kind="stable"),
                       np.cumsum(partition.sizes())[:-1])
    pieces = []
    for (a, b), p in blocks:
        if p == 0.0:
            continue
        s, t = len(members[a]), len(members[b])
        n_pairs = s * (s - 1) // 2 if a == b else s * t
        count = int(rng.binomial(n_pairs, p)) if p < 1.0 else n_pairs
        if count:
            idx = _sample_distinct(n_pairs, count, rng)
            if a == b:
                pieces.append(_decode_pairs(idx, members[a]))
            else:
                i, j = np.divmod(idx, t)
                pieces.append(np.column_stack([members[a][i], members[b][j]]))
    edges = np.concatenate(pieces) if pieces else np.empty((0, 2), dtype=np.int64)
    return to_undirected(edges, n=n)


def _index_and_word_stream(rng: np.random.Generator, m: int):
    """Read ``rng``'s stream as ``rng.integers(0, m)`` and ``rng.random()`` do.

    Returns ``(index, word)``. ``index()`` gives the next element that
    ``rng.integers(0, m, size=...)`` would, and ``word()`` the 64-bit word
    behind the next ``rng.random()``, so ``word() < 2**63`` is exactly
    ``rng.random() < 0.5``. Interleaved calls consume the stream as the
    same interleaving of numpy calls would, so both give the same values.

    numpy draws an integer below ``m < 2**32`` by Lemire's method on 32-bit
    values: x * m is kept as x * m >> 32 unless its low 32 bits fall below
    (2**32 - m) % m, when x is redrawn. ``default_rng``'s PCG64 serves a
    32-bit value as the low half of a fresh 64-bit word, keeping the high
    half for the next 32-bit request; ``random()`` takes a whole fresh word
    (its top 53 bits over 2**53) and leaves a kept half in place. Raw words
    are drawn ``_WORD_BLOCK`` at a time with ``random_raw`` and decoded as
    Python ints, so up to one block more than needed is drawn from ``rng``.
    """
    words = chain.from_iterable(
        iter(lambda: rng.bit_generator.random_raw(_WORD_BLOCK).tolist(), None))
    # a kept high half waits inside the suspended generator, so word(),
    # which reads the shared iterator directly, leaves it in place
    halves = (half for w in words for half in (w & _LOW32, w >> 32))
    threshold = (2**32 - m) % m
    indices = (p >> 32 for p in (x * m for x in halves) if p & _LOW32 >= threshold)
    return indices.__next__, words.__next__


def rewire_configuration_model(graph: LabeledGraph, seed: int) -> LabeledGraph:
    """Randomize wiring by repeated double-edge swaps.

    Two edges (a,b), (c,d) are rewired to (a,d), (b,c) only when that
    creates no self-loop and no duplicate, so every node keeps its exact
    degree and the graph stays simple. The walk runs until
    ceil(SWAPS_PER_EDGE * m) swaps are accepted; a graph that cannot swap
    at all (e.g. a star) is returned unchanged with a warning.

    Each attempt picks two edge indices as ``rng.integers(0, m, size=2)``
    and, when they differ, orients the second edge by ``rng.random() <
    0.5``, with ``rng = np.random.default_rng(seed)``. Both are decoded
    from the generator's raw words (``_index_and_word_stream``) with the
    arithmetic numpy applies to them, so the stream, and with it every
    swap, equals that of those numpy calls. numpy uses that arithmetic for
    bounds below 2**32, so a graph with m >= 2**32 edges is refused.
    """
    m = graph.m
    if m < 2:
        raise GraphError("rewiring needs at least two edges")
    if m >= 2**32:
        raise GraphError(f"rewiring draws edge indices below 2**32; the graph has m={m} edges")
    index, word = _index_and_word_stream(np.random.default_rng(seed), m)
    n = graph.n
    # edge i is (us[i], vs[i]) with us[i] < vs[i]; edge_set holds u * n + v
    edges = graph.edge_array()
    us, vs = edges[:, 0].tolist(), edges[:, 1].tolist()
    edge_set = {u * n + v for u, v in zip(us, vs)}
    target = math.ceil(SWAPS_PER_EDGE * m)
    attempt_cap = max(100 * target, 1000)
    successes = 0
    attempts = 0
    while successes < target and attempts < attempt_cap:
        attempts += 1
        e1 = index()
        e2 = index()
        if e1 == e2:
            continue
        a, b, c, d = us[e1], vs[e1], us[e2], vs[e2]
        if word() < 2**63:
            c, d = d, c
        if a == d or b == c:
            continue
        new1 = a * n + d if a < d else d * n + a
        new2 = b * n + c if b < c else c * n + b
        if new1 == new2 or new1 in edge_set or new2 in edge_set:
            continue
        edge_set.remove(a * n + b)
        edge_set.remove(c * n + d if c < d else d * n + c)
        edge_set.add(new1)
        edge_set.add(new2)
        us[e1], vs[e1] = (a, d) if a < d else (d, a)
        us[e2], vs[e2] = (b, c) if b < c else (c, b)
        successes += 1
    if successes == 0:
        warnings.warn("graph admits no degree-preserving swap; returning it unchanged",
                      RewireStallWarning)
        return graph
    if successes < target:
        warnings.warn(
            f"rewiring stalled after {successes}/{target} swaps; mixing may be partial",
            RewireStallWarning)
    return to_undirected(np.column_stack((us, vs)), n=n)


def generate_erdos_renyi(n: int, m_target: int, seed: int) -> LabeledGraph:
    """Uniform simple graph with exactly ``m_target`` edges on ``n`` nodes."""
    max_edges = n * (n - 1) // 2
    if not 0 <= m_target <= max_edges:
        raise GraphError(f"m_target must lie in [0, {max_edges}]")
    rng = np.random.default_rng(seed)
    idx = _sample_distinct(max_edges, m_target, rng)
    edges = _decode_pairs(idx, np.arange(n, dtype=np.int64))
    return to_undirected(edges, n=n)


def swap_count(fraction: float, n: int, num_communities: int) -> int:
    """Nodes a swap at ``fraction`` selects among ``n`` nodes split into
    ``num_communities`` communities: none at fraction 0, else
    floor(fraction * n). Raises a GraphError unless that swap can run."""
    if fraction == 0.0:
        return 0
    n_selected = int(math.floor(fraction * n))
    if n_selected < 2:
        raise GraphError(f"fraction {fraction} selects {n_selected} of {n} nodes; "
                         "a swap needs at least two")
    if num_communities < 2:
        raise GraphError("swapping needs at least two communities")
    return n_selected


def swap_perturbation(graph: LabeledGraph, partition: Partition, fraction: float,
                      seed: int) -> LabeledGraph:
    """Exchange the graph positions of randomly paired cross-community nodes.

    floor(fraction * n) nodes are selected uniformly and paired at random;
    pairs falling inside one community are re-drawn, at most 100 times the
    number of pairs over the whole swap. Each pair (u, v) trades adjacency:
    u adopts v's neighbors and vice versa, while features and labels stay
    attached to the node id.
    The degree of every *position* is preserved.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    n = graph.n
    n_selected = swap_count(fraction, n, partition.num_communities)
    if n_selected == 0:
        return graph
    rng = np.random.default_rng(seed)
    selected = rng.permutation(n)[:n_selected]
    pool = list(selected)
    comm = partition.assignment
    # pool nodes per community, and how many communities still have one
    left = np.bincount(comm[selected], minlength=partition.num_communities)
    non_empty = int(np.count_nonzero(left))
    sigma = np.arange(n, dtype=np.int64)
    retries = 0
    retry_cap = 100 * (n_selected // 2)
    while non_empty >= 2:  # with one community left, no cross pair exists
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
        sigma[u], sigma[v] = sigma[v], sigma[u]
    return to_undirected(sigma[graph.edge_array()], n=n)
