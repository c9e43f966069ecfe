from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdiag import (GraphError, LabelVector, Partition, block_density_matrix,
                       edge_density, joint_counts, louvain, modularity,
                       normalized_mutual_information, rewire_configuration_model,
                       to_undirected, uncertainty_coefficient)
from graphdiag.community import GAIN_EPS
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


# ---------------------------------------------------------------------------
# reference oracle: the dict-of-dicts detector the CSR one must match exactly
# ---------------------------------------------------------------------------

def _reference_local_moves(adj, self_weight, two_m, rng):
    n = len(adj)
    degree = np.array([2.0 * self_weight[u] + sum(adj[u].values()) for u in range(n)])
    comm = np.arange(n)
    comm_total = degree.copy()
    eps = GAIN_EPS * (two_m / 2.0)
    moved = True
    while moved:
        moved = False
        for u in rng.permutation(n):
            cu = comm[u]
            links = {}
            for v, w in adj[u].items():
                cv = comm[v]
                links[cv] = links.get(cv, 0.0) + w
            comm_total[cu] -= degree[u]
            stay = links.get(cu, 0.0) - degree[u] * comm_total[cu] / two_m
            best_c, best_gain = cu, stay
            for c in sorted(links):
                if c == cu:
                    continue
                gain = links[c] - degree[u] * comm_total[c] / two_m
                if gain > best_gain and gain - stay > eps:
                    best_c, best_gain = c, gain
            comm_total[best_c] += degree[u]
            if best_c != cu:
                comm[u] = best_c
                moved = True
    return comm


def _reference_aggregate(adj, self_weight, comm):
    _, relabel = np.unique(comm, return_inverse=True)
    k = relabel.max() + 1
    new_self = np.zeros(k)
    new_adj = [dict() for _ in range(k)]
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


def _reference_louvain(graph, seed):
    rng = np.random.default_rng(seed)
    adj = [{int(v): 1.0 for v in graph.neighbors_of(u)} for u in range(graph.n)]
    self_weight = np.zeros(graph.n)
    two_m = 2.0 * graph.m
    node_to_super = np.arange(graph.n)
    while True:
        comm = _reference_local_moves(adj, self_weight, two_m, rng)
        if len(np.unique(comm)) == len(adj):
            break
        adj, self_weight, relabel = _reference_aggregate(adj, self_weight, comm)
        node_to_super = relabel[node_to_super]
    order = {}
    assignment = np.empty(graph.n, dtype=np.int64)
    for u in range(graph.n):
        assignment[u] = order.setdefault(int(node_to_super[u]), len(order))
    return Partition(assignment=assignment, num_communities=len(order))


def assert_matches_reference(graph, seed):
    part, ref = louvain(graph, seed), _reference_louvain(graph, seed)
    assert part.num_communities == ref.num_communities
    assert np.array_equal(part.assignment, ref.assignment)


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

    def test_planted_partition_recovery(self):
        hits = 0
        for s in range(5):
            g, planted = planted_partition_graph(50, 2, 0.3, 0.01, seed=60 + s)
            detected = louvain(g, seed=s)
            nmi = normalized_mutual_information(detected.assignment,
                                                planted.assignment)
            hits += nmi >= 0.95
        assert hits >= 4


class TestLouvainMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 60), st.floats(0.02, 0.5), st.integers(0, 2**32 - 1),
           st.integers(0, 2**32 - 1))
    def test_random_graphs(self, n, p, graph_seed, seed):
        # isolated nodes and several components are allowed
        rng = np.random.default_rng(graph_seed)
        edges = np.argwhere(np.triu(rng.random((n, n)) < p, 1))
        if len(edges) == 0:
            edges = np.array([[0, 1]])
        assert_matches_reference(to_undirected(edges, n), seed)

    def test_multi_level_planted_graph(self):
        g, _ = planted_partition_graph(60, 5, 0.2, 0.01, seed=4)
        for seed in range(3):
            assert_matches_reference(g, seed)

    def test_cora_scale_planted_graph_and_its_rewiring(self):
        g, _ = planted_partition_graph(400, 7, 0.0115, 0.0004, seed=8)
        assert_matches_reference(g, 0)
        assert_matches_reference(rewire_configuration_model(g, seed=1), 0)


def test_u_spread_across_louvain_seeds():
    # the bench's Cora-scale structure, labels = planted blocks. The spread
    # of U(L|C) over detector seeds is the number to beat: a detector that
    # restarts and keeps its best partition should narrow it
    g, planted = planted_partition_graph(
        400, 7, 0.0115, 0.0004, seed=int(np.random.default_rng([0, 1]).integers(2**32)))
    labels = LabelVector(planted.assignment, 7)
    everyone = np.arange(g.n)
    u = np.array([uncertainty_coefficient(joint_counts(labels, louvain(g, seed), everyone))
                  for seed in range(12)])
    assert np.std(u) <= 0.0175
    assert np.max(u) - np.min(u) <= 0.073


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
