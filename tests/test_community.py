from itertools import combinations

import numpy as np
import pytest

from graphdiag import (GraphError, Partition, block_density_matrix,
                       edge_density, louvain, modularity,
                       normalized_mutual_information, to_undirected)
from graphdiag.synthetic import planted_partition_graph

from conftest import random_simple_graph

# ---------------------------------------------------------------------------
# brute-force oracle: maximize Q over every set partition of the nodes
# ---------------------------------------------------------------------------

def set_partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[head] + sub[i]] + sub[i + 1:]
        yield [[head]] + sub


def brute_force_best_partition(graph):
    best_q, best = -np.inf, None
    for blocks in set_partitions(list(range(graph.n))):
        assignment = np.empty(graph.n, dtype=int)
        order = sorted(blocks, key=min)
        for cid, block in enumerate(order):
            assignment[block] = cid
        q = modularity(graph, Partition(assignment, len(order)))
        if q > best_q:
            best_q, best = q, assignment
    return best_q, best


class TestModularity:
    def test_bridged_triangles_value(self, bridged_triangles):
        part = Partition(np.array([0, 0, 0, 1, 1, 1]), 2)
        assert modularity(bridged_triangles, part) == pytest.approx(0.357143, abs=1e-6)

    def test_single_community_is_exactly_zero(self, bridged_triangles, triangle):
        for g in (bridged_triangles, triangle):
            q = modularity(g, Partition(np.zeros(g.n, dtype=int), 1))
            assert q == 0.0

    def test_singleton_partition_negative(self, triangle):
        q = modularity(triangle, Partition(np.arange(3), 3))
        assert q < 0

    def test_edgeless_rejected(self):
        g = to_undirected([], n=3)
        with pytest.raises(GraphError):
            modularity(g, Partition(np.zeros(3, dtype=int), 1))

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_simple_graph(rng)
            assignment = rng.integers(0, 3, g.n)
            _, assignment = np.unique(assignment, return_inverse=True)
            q = modularity(g, Partition(assignment, assignment.max() + 1))
            assert -0.5 <= q < 1.0


class TestLouvain:
    def test_two_cliques_with_bridge(self):
        clique = lambda nodes: list(combinations(nodes, 2))
        g = to_undirected(clique(range(4)) + clique(range(4, 8)) + [(3, 4)], n=8)
        best_q, best = brute_force_best_partition(g)
        part = louvain(g, seed=0)
        assert part.num_communities == 2
        assert np.array_equal(part.assignment, best)
        assert modularity(g, part) == pytest.approx(best_q, abs=1e-12)

    def test_disjoint_triangles_brute_force(self, disjoint_triangles):
        best_q, best = brute_force_best_partition(disjoint_triangles)
        part = louvain(disjoint_triangles, seed=3)
        assert np.array_equal(part.assignment, best)
        assert modularity(disjoint_triangles, part) == pytest.approx(best_q, abs=1e-12)

    def test_bridged_triangles_brute_force(self, bridged_triangles):
        best_q, _ = brute_force_best_partition(bridged_triangles)
        part = louvain(bridged_triangles, seed=1)
        assert modularity(bridged_triangles, part) == pytest.approx(best_q, abs=1e-12)
        assert best_q == pytest.approx(0.357143, abs=1e-6)

    def test_complete_graph_single_community(self):
        g = to_undirected(list(combinations(range(5), 2)), n=5)
        part = louvain(g, seed=0)
        assert part.num_communities == 1

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        g = random_simple_graph(rng, n=20, p=0.2)
        a = louvain(g, seed=123)
        b = louvain(g, seed=123)
        assert np.array_equal(a.assignment, b.assignment)

    def test_final_q_at_least_singleton(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            g = random_simple_graph(rng)
            part = louvain(g, seed=0)
            q_single = modularity(g, Partition(np.arange(g.n), g.n))
            assert modularity(g, part) >= q_single - 1e-12

    def test_community_ids_ordered_by_smallest_member(self):
        rng = np.random.default_rng(23)
        g = random_simple_graph(rng, n=15, p=0.25)
        part = louvain(g, seed=9)
        firsts = [np.flatnonzero(part.assignment == c)[0]
                  for c in range(part.num_communities)]
        assert firsts == sorted(firsts)

    def test_edgeless_rejected(self):
        with pytest.raises(GraphError):
            louvain(to_undirected([], n=4), seed=0)

    def test_resolution_controls_granularity(self, bridged_triangles):
        coarse = louvain(bridged_triangles, seed=0, resolution=0.1)
        default = louvain(bridged_triangles, seed=0)
        fine = louvain(bridged_triangles, seed=0, resolution=3.0)
        assert coarse.num_communities <= default.num_communities \
            <= fine.num_communities
        assert default.num_communities == 2

    def test_planted_partition_recovery(self):
        hits = 0
        for s in range(5):
            g, planted = planted_partition_graph(50, 2, 0.3, 0.01, seed=60 + s)
            detected = louvain(g, seed=s)
            nmi = normalized_mutual_information(detected.assignment,
                                                planted.assignment)
            hits += nmi >= 0.95
        assert hits >= 4


class TestBlockDensityMatrix:
    def test_two_cliques_no_cross(self, disjoint_triangles):
        part = Partition(np.array([0, 0, 0, 1, 1, 1]), 2)
        blocks = block_density_matrix(disjoint_triangles, part)
        assert np.allclose(np.diag(blocks.densities), 1.0)
        assert blocks.densities[0, 1] == 0.0

    def test_two_pairs_with_cross(self):
        g = to_undirected([(0, 1), (2, 3), (1, 2)], n=4)
        part = Partition(np.array([0, 0, 1, 1]), 2)
        blocks = block_density_matrix(g, part)
        assert np.allclose(np.diag(blocks.densities), 1.0)
        assert blocks.densities[0, 1] == pytest.approx(0.25)
        assert blocks.edge_counts[0, 1] == 1

    def test_single_community_reduces_to_density(self, bridged_triangles):
        part = Partition(np.zeros(6, dtype=int), 1)
        blocks = block_density_matrix(bridged_triangles, part)
        assert blocks.densities.shape == (1, 1)
        assert blocks.densities[0, 0] == pytest.approx(
            edge_density(bridged_triangles))

    def test_singleton_community_diagonal_zero(self):
        g = to_undirected([(0, 1), (1, 2)], n=3)
        part = Partition(np.array([0, 0, 1]), 2)
        blocks = block_density_matrix(g, part)
        assert blocks.densities[1, 1] == 0.0

    def test_counts_match_per_edge_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            g = random_simple_graph(rng, n=int(rng.integers(4, 30)), p=0.2)
            k = int(rng.integers(1, g.n + 1))
            assignment = np.concatenate([np.arange(k),
                                         rng.integers(0, k, size=g.n - k)])
            part = Partition(rng.permutation(assignment), k)
            expected = np.zeros((k, k), dtype=np.int64)
            for u, v in g.edge_array():
                a, b = part.assignment[u], part.assignment[v]
                expected[a, b] += 1
                if a != b:
                    expected[b, a] += 1
            counts = block_density_matrix(g, part).edge_counts
            assert counts.dtype == np.int64 and np.array_equal(counts, expected)

    def test_reconstruction_equals_edge_count(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            g = random_simple_graph(rng)
            part = louvain(g, seed=2)
            blocks = block_density_matrix(g, part)
            k = blocks.num_communities
            # exact via integer counts
            total = int(np.triu(blocks.edge_counts).sum())
            assert total == g.m
            # density form agrees to float precision
            sizes = blocks.sizes.astype(float)
            pairs = np.outer(sizes, sizes)
            np.fill_diagonal(pairs, sizes * (sizes - 1) / 2.0)
            recon = (np.triu(blocks.densities * pairs, 1).sum()
                     + np.diag(blocks.densities * pairs).sum())
            assert recon == pytest.approx(g.m, rel=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(37)
        g = random_simple_graph(rng, n=14, p=0.3)
        part = louvain(g, seed=5)
        blocks = block_density_matrix(g, part)
        assert np.array_equal(blocks.densities, blocks.densities.T)
        assert np.array_equal(blocks.edge_counts, blocks.edge_counts.T)


class TestPartitionValidation:
    def test_non_compact_ids_rejected(self):
        with pytest.raises(ValueError):
            Partition(np.array([0, 2, 2]), 3)

    def test_valid(self):
        part = Partition(np.array([1, 0, 1]), 2)
        assert list(part.sizes()) == [1, 2]
