import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphdiag import (GraphError, LabelVector, Partition, block_density_matrix,
                       edge_density, generate_sbm, joint_counts, louvain, modularity,
                       normalized_mutual_information, rewire_configuration_model,
                       swap_perturbation, to_undirected, uncertainty_coefficient)
from graphdiag.community import GAIN_EPS, _local_moves
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
        q = modularity(graph, Partition(assignment))
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
    return Partition(assignment)


def _reference_csr_local_moves(offsets, neighbors, weights, degree, two_m, rng):
    """The CSR move phase as it was before it skipped unchanged nodes: every
    node is evaluated on every pass and candidates are scanned in id order."""
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


@st.composite
def csr_levels(draw):
    """A Louvain level as the move phase sees it: integer weights and
    degrees above the row sum by twice an integer self-weight, as on a
    super-node. Weights and self-weights run up to 3 or, on some levels, up
    to 2**31, where a link summed as a Python int must still give the
    float sum's gains. Half are circulant graphs with one weight and one
    self-weight, whose equal gains force ties; all may have isolated nodes.
    Rows are shuffled, so candidate order is not id order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.sampled_from([3, 2**31]))
    n = draw(st.integers(2, 60))
    isolated = draw(st.integers(0, 3))
    weight = np.zeros((n + isolated, n + isolated))
    if n >= 3 and draw(st.booleans()):
        for d in range(1, draw(st.integers(1, (n - 1) // 2)) + 1):
            for i in range(n):
                weight[i, (i + d) % n] = weight[(i + d) % n, i] = 1.0
        weight *= draw(st.integers(1, top))
        self_weight = np.full(n + isolated, float(draw(st.integers(0, top))))
    else:
        upper = np.triu(rng.random((n, n)) < draw(st.floats(0.05, 0.5)), 1)
        weight[:n, :n] = upper * rng.integers(1, top + 1, (n, n))
        weight += weight.T
        self_weight = rng.integers(0, top + 1, n + isolated).astype(np.float64)
    degree = weight.sum(axis=1) + 2.0 * self_weight
    assume(degree.sum() > 0)
    rows = [rng.permutation(np.flatnonzero(row)) for row in weight]
    offsets = np.concatenate([[0], np.cumsum([len(r) for r in rows])]).astype(np.int64)
    neighbors = np.concatenate(rows).astype(np.int64)
    weights = np.concatenate([weight[u, r] for u, r in enumerate(rows)])
    return offsets, neighbors, weights, degree


def assert_matches_reference(graph, seed):
    part, ref = louvain(graph, seed), _reference_louvain(graph, seed)
    assert part.num_communities == ref.num_communities
    assert np.array_equal(part.assignment, ref.assignment)


class TestModularity:
    def test_bridged_triangles_value(self, bridged_triangles):
        part = Partition(np.array([0, 0, 0, 1, 1, 1]))
        assert modularity(bridged_triangles, part) == pytest.approx(0.357143, abs=1e-6)

    def test_single_community_is_exactly_zero(self, bridged_triangles, triangle):
        for g in (bridged_triangles, triangle):
            q = modularity(g, Partition(np.zeros(g.n, dtype=int)))
            assert q == 0.0

    def test_singleton_partition_negative(self, triangle):
        q = modularity(triangle, Partition(np.arange(3)))
        assert q < 0

    def test_edgeless_rejected(self):
        g = to_undirected([], n=3)
        with pytest.raises(GraphError):
            modularity(g, Partition(np.zeros(3, dtype=int)))

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_simple_graph(rng)
            assignment = rng.integers(0, 3, g.n)
            _, assignment = np.unique(assignment, return_inverse=True)
            q = modularity(g, Partition(assignment))
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
            q_single = modularity(g, Partition(np.arange(g.n)))
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

    def test_sparse_multi_level_planted_graph(self):
        # 2000 nodes of average degree 5.9: level 0 ends with 700-800 small
        # communities, and most of its visits find a sleeping node
        g, _ = planted_partition_graph(200, 10, 0.025, 0.0005, seed=5)
        for seed in range(4):
            assert_matches_reference(g, seed)

    def test_cora_scale_planted_graph_and_its_rewiring(self):
        g, _ = planted_partition_graph(400, 7, 0.0115, 0.0004, seed=8)
        assert_matches_reference(g, 0)
        assert_matches_reference(rewire_configuration_model(g, seed=1), 0)
        # the other graphs the study hands to Louvain: the SBM rebuilt from
        # the detected blocks, and a position swap
        part = louvain(g, 0)
        assert_matches_reference(generate_sbm(block_density_matrix(g, part), part, 2), 0)
        assert_matches_reference(swap_perturbation(g, part, 0.3, 3), 0)

    @settings(max_examples=300, deadline=None)
    @given(csr_levels(), st.integers(0, 2**32 - 1))
    def test_move_phase_matches_the_unpruned_loop(self, level, seed):
        offsets, neighbors, weights, degree = level
        two_m = float(degree.sum())
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        comm = _local_moves(offsets, neighbors, weights, degree, two_m, rng)
        expected = _reference_csr_local_moves(offsets, neighbors, weights, degree, two_m,
                                              reference_rng)
        assert np.array_equal(comm, expected)
        # the same number of passes drew the same number of permutations
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_a_node_wakes_when_a_stranger_joins_its_community(self):
        # node 1's neighbours are nodes 4 and 8; at seed 1 it stays in
        # community 8 beside node 7, where it has no neighbour, until node
        # 0, not a neighbour either, joins that community. Only its watch
        # on its own community wakes it, and it then moves
        offsets = np.array([0, 5, 7, 13, 17, 22, 26, 31, 35, 42])
        neighbors = np.array([2, 3, 4, 5, 7, 4, 8, 0, 3, 5, 6, 7, 8, 0, 2, 6, 8, 0, 1, 6, 7,
                              8, 0, 2, 6, 8, 2, 3, 4, 5, 8, 0, 2, 4, 8, 1, 2, 3, 4, 5, 6, 7])
        weights = np.array([1, 1, 1, 2, 2, 2, 1, 1, 3, 2, 2, 1, 1, 1, 3, 2, 1, 1, 2, 3, 2,
                            3, 2, 2, 1, 2, 2, 2, 3, 1, 3, 2, 1, 2, 3, 1, 1, 1, 3, 2, 3, 3.0])
        degree = np.array([13, 5, 10, 7, 117, 9, 11, 12, 18.0])
        rng, reference_rng = np.random.default_rng(1), np.random.default_rng(1)
        comm = _local_moves(offsets, neighbors, weights, degree, degree.sum(), rng)
        expected = _reference_csr_local_moves(offsets, neighbors, weights, degree,
                                              degree.sum(), reference_rng)
        assert comm.tolist() == expected.tolist() == [8, 3, 3, 3, 4, 3, 3, 8, 3]
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_move_phase_memory_stays_near_the_unpruned_loop(self):
        # the per-node dicts and watcher lists replace the flat Python copy
        # of the row arrays; on a sparse planted level they must cost at
        # most twice the unpruned loop's peak (about 1.6x at this size)
        g, _ = planted_partition_graph(200, 10, 0.025, 0.0005, seed=5)
        level = (g.offsets, g.neighbors, np.ones(len(g.neighbors)),
                 g.degrees().astype(np.float64), 2.0 * g.m)
        peaks = []
        for move_phase in (_local_moves, _reference_csr_local_moves):
            tracemalloc.start()
            try:
                move_phase(*level, np.random.default_rng(0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 2 * peaks[1]


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


def pair_counts(sizes):
    """Node pairs per block pair: size_a * size_b across, size_a-choose-2 within."""
    sizes = sizes.astype(np.float64)
    pairs = np.outer(sizes, sizes)
    np.fill_diagonal(pairs, sizes * (sizes - 1) / 2.0)
    return pairs


class TestBlockDensityMatrix:
    def test_two_cliques_no_cross(self, disjoint_triangles):
        part = Partition(np.array([0, 0, 0, 1, 1, 1]))
        densities = block_density_matrix(disjoint_triangles, part)
        assert np.allclose(np.diag(densities), 1.0)
        assert densities[0, 1] == 0.0

    def test_two_pairs_with_cross(self):
        g = to_undirected([(0, 1), (2, 3), (1, 2)], n=4)
        part = Partition(np.array([0, 0, 1, 1]))
        densities = block_density_matrix(g, part)
        assert np.allclose(np.diag(densities), 1.0)
        # one cross edge over 2 * 2 node pairs
        assert densities[0, 1] == 0.25

    def test_single_community_reduces_to_density(self, bridged_triangles):
        part = Partition(np.zeros(6, dtype=int))
        densities = block_density_matrix(bridged_triangles, part)
        assert densities.shape == (1, 1)
        assert densities[0, 0] == pytest.approx(edge_density(bridged_triangles))

    def test_singleton_community_diagonal_zero(self):
        g = to_undirected([(0, 1), (1, 2)], n=3)
        part = Partition(np.array([0, 0, 1]))
        assert block_density_matrix(g, part)[1, 1] == 0.0

    def test_counts_match_per_edge_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            g = random_simple_graph(rng, n=int(rng.integers(4, 30)), p=0.2)
            k = int(rng.integers(1, g.n + 1))
            assignment = np.concatenate([np.arange(k),
                                         rng.integers(0, k, size=g.n - k)])
            part = Partition(rng.permutation(assignment))
            expected = np.zeros((k, k), dtype=np.int64)
            for u, v in g.edge_array():
                a, b = part.assignment[u], part.assignment[v]
                expected[a, b] += 1
                if a != b:
                    expected[b, a] += 1
            pairs = pair_counts(part.sizes())
            with np.errstate(invalid="ignore", divide="ignore"):
                reference = np.where(pairs > 0, expected / pairs, 0.0)
            densities = block_density_matrix(g, part)
            assert densities.dtype == np.float64
            assert np.array_equal(densities, reference)

    def test_reconstruction_equals_edge_count(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            g = random_simple_graph(rng)
            part = louvain(g, seed=2)
            recon = block_density_matrix(g, part) * pair_counts(part.sizes())
            # each block's edge count comes back to within rounding
            assert np.allclose(recon, np.rint(recon), rtol=0, atol=1e-9)
            assert int(np.rint(np.triu(recon)).sum()) == g.m
            assert np.triu(recon).sum() == pytest.approx(g.m, rel=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(37)
        g = random_simple_graph(rng, n=14, p=0.3)
        densities = block_density_matrix(g, louvain(g, seed=5))
        assert np.array_equal(densities, densities.T)


class TestPartitionValidation:
    def test_non_compact_ids_rejected(self):
        with pytest.raises(ValueError):
            Partition(np.array([0, 2, 2]))

    def test_valid(self):
        part = Partition(np.array([1, 0, 1]))
        assert list(part.sizes()) == [1, 2]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-1, 5), max_size=10))
    def test_accepted_exactly_when_ids_are_compact(self, ids):
        distinct = sorted(set(ids))
        assignment = np.array(ids, dtype=np.int64)
        if distinct != list(range(len(distinct))):
            with pytest.raises(ValueError, match="exactly 0..K-1"):
                Partition(assignment)
            return
        part = Partition(assignment)
        # analyze.json writes the count, and json writes no numpy integer
        assert type(part.num_communities) is int
        assert part.num_communities == len(distinct)
