import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdiag import (GraphError, Partition, RewireStallWarning,
                       block_density_matrix, edge_density,
                       generate_erdos_renyi, generate_sbm, modularity,
                       rewire_configuration_model, swap_perturbation,
                       to_undirected)
from graphdiag.synthetic import planted_blocks

from conftest import random_simple_graph


def uniform_densities(k, p_in, p_out):
    densities = np.full((k, k), p_out, dtype=float)
    np.fill_diagonal(densities, p_in)
    return densities


class TestGenerateSbm:
    def test_density_one_gives_complete_graph(self):
        part = planted_blocks(4, 2)
        g = generate_sbm(uniform_densities(2, 1.0, 1.0), part, seed=0)
        assert g.m == 8 * 7 // 2

    def test_density_zero_gives_edgeless(self):
        part = planted_blocks(4, 2)
        g = generate_sbm(uniform_densities(2, 0.0, 0.0), part, seed=0)
        assert g.m == 0

    def test_edge_count_within_four_sigma(self):
        part = planted_blocks(100, 2)
        densities = uniform_densities(2, 0.2, 0.01)
        expected = 2 * (100 * 99 // 2) * 0.2 + 100 * 100 * 0.01
        variance = (2 * (100 * 99 // 2) * 0.2 * 0.8
                    + 100 * 100 * 0.01 * 0.99)
        for seed in range(5):
            g = generate_sbm(densities, part, seed=seed)
            assert abs(g.m - expected) <= 4 * np.sqrt(variance)

    def test_block_densities_within_four_sigma(self):
        part = planted_blocks(60, 3)
        p = uniform_densities(3, 0.25, 0.03)
        g = generate_sbm(p, part, seed=7)
        observed = block_density_matrix(g, part)
        sizes = part.sizes().astype(float)
        pairs = np.outer(sizes, sizes)
        np.fill_diagonal(pairs, sizes * (sizes - 1) / 2.0)
        sigma = np.sqrt(p * (1 - p) / pairs)
        assert np.all(np.abs(observed - p) <= 4 * sigma)

    def test_deterministic(self):
        part = planted_blocks(30, 2)
        densities = uniform_densities(2, 0.3, 0.05)
        a = generate_sbm(densities, part, seed=5)
        b = generate_sbm(densities, part, seed=5)
        assert np.array_equal(a.neighbors, b.neighbors)

    def test_partition_mismatch_rejected(self):
        # three blocks of densities for a partition into two communities
        part = planted_blocks(4, 2)
        with pytest.raises(ValueError, match="densities must be 2x2"):
            generate_sbm(uniform_densities(3, 0.5, 0.5), part, seed=0)


class TestRewireConfigurationModel:
    @pytest.mark.filterwarnings("ignore::graphdiag.RewireStallWarning")
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_degree_sequence_preserved(self, seed):
        rng = np.random.default_rng(seed)
        g = random_simple_graph(rng)
        if g.m < 2:
            return
        out = rewire_configuration_model(g, seed=seed)
        assert np.array_equal(out.degrees(), g.degrees())
        assert out.m == g.m

    def test_four_cycle_stays_a_four_cycle(self):
        g = to_undirected([(0, 1), (1, 2), (2, 3), (0, 3)], n=4)
        for seed in range(5):
            out = rewire_configuration_model(g, seed=seed)
            # a simple 2-regular graph on 4 nodes is necessarily a 4-cycle
            assert list(out.degrees()) == [2, 2, 2, 2]
            assert out.m == 4

    def test_destroys_community_structure(self):
        from itertools import combinations
        clique = lambda nodes: list(combinations(nodes, 2))
        g = to_undirected(clique(range(8)) + clique(range(8, 16)) + [(7, 8)], n=16)
        part = Partition(np.repeat([0, 1], 8))
        low_q = sum(modularity(rewire_configuration_model(g, seed=s), part) < 0.1
                    for s in range(10))
        assert low_q >= 9

    def test_star_returns_input_with_warning(self):
        g = to_undirected([(0, 1), (0, 2), (0, 3), (0, 4)], n=5)
        with pytest.warns(RewireStallWarning):
            out = rewire_configuration_model(g, seed=0)
        assert np.array_equal(out.neighbors, g.neighbors)

    def test_path3_returns_input_with_warning(self, path3):
        with pytest.warns(RewireStallWarning):
            out = rewire_configuration_model(path3, seed=0)
        assert np.array_equal(out.neighbors, path3.neighbors)

    def test_too_small_rejected(self):
        with pytest.raises(GraphError):
            rewire_configuration_model(to_undirected([(0, 1)], n=2), seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        g = random_simple_graph(rng, n=20, p=0.2)
        a = rewire_configuration_model(g, seed=9)
        b = rewire_configuration_model(g, seed=9)
        assert np.array_equal(a.neighbors, b.neighbors)


class TestGenerateErdosRenyi:
    def test_complete(self):
        g = generate_erdos_renyi(6, 15, seed=0)
        assert g.m == 15

    def test_edgeless(self):
        g = generate_erdos_renyi(6, 0, seed=0)
        assert g.m == 0 and g.n == 6

    def test_exact_edge_count_and_density(self):
        g = generate_erdos_renyi(2485, 5209, seed=1)
        assert g.m == 5209
        assert round(edge_density(g), 4) == 0.0017

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            generate_erdos_renyi(4, 7, seed=0)
        with pytest.raises(GraphError):
            generate_erdos_renyi(4, -1, seed=0)

    def test_deterministic(self):
        a = generate_erdos_renyi(50, 100, seed=3)
        b = generate_erdos_renyi(50, 100, seed=3)
        assert np.array_equal(a.neighbors, b.neighbors)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 10_000), st.integers(0, 200))
    def test_exact_count_property(self, n, seed, m_raw):
        m = m_raw % (n * (n - 1) // 2 + 1)
        g = generate_erdos_renyi(n, m, seed=seed)
        assert g.m == m and g.n == n


class TestSwapPerturbation:
    def test_fraction_zero_is_identity(self, bridged_triangles):
        part = Partition(np.array([0, 0, 0, 1, 1, 1]))
        out = swap_perturbation(bridged_triangles, part, 0.0, seed=0)
        assert out is bridged_triangles

    def test_single_pair_adjacency_exchange(self):
        # star around 0 plus pendant 3-4: positions have distinct roles
        g = to_undirected([(0, 1), (0, 2), (3, 4), (2, 4)], n=5)
        part = Partition(np.array([0, 0, 0, 1, 1]))
        out = swap_perturbation(g, part, 0.4, seed=11)  # selects 2 nodes
        # find the swapped pair: relabeling back by (u, v) must restore g
        candidates = [(u, v) for u in range(5) for v in range(5)
                      if part.assignment[u] != part.assignment[v]]
        restored = False
        for u, v in candidates:
            sigma = np.arange(5)
            sigma[u], sigma[v] = v, u
            back = to_undirected(sigma[out.edge_array()], n=5)
            if np.array_equal(back.neighbors, g.neighbors):
                restored = True
                # u adopts v's old adjacency (with u<->v renamed), and vice versa
                expected_u = sorted(sigma[x] for x in g.neighbors_of(v))
                assert list(out.neighbors_of(u)) == expected_u
                break
        assert restored

    def test_position_degrees_invariant(self):
        rng = np.random.default_rng(4)
        g = random_simple_graph(rng, n=30, p=0.2)
        part = Partition(np.repeat([0, 1], 15))
        out = swap_perturbation(g, part, 0.6, seed=8)
        assert np.array_equal(np.sort(out.degrees()),
                              np.sort(g.degrees()))
        assert out.m == g.m

    def test_tiny_fraction_rejected(self, bridged_triangles):
        part = Partition(np.array([0, 0, 0, 1, 1, 1]))
        with pytest.raises(GraphError):
            swap_perturbation(bridged_triangles, part, 0.2, seed=0)  # 1 node

    def test_tiny_fraction_names_the_count(self):
        n = 2791
        ring = to_undirected(np.column_stack([np.arange(n), (np.arange(n) + 1) % n]), n)
        part = Partition(np.arange(n) * 2 // n)
        with pytest.raises(GraphError, match="^fraction 0.0005 selects 1 of 2791 nodes; "
                                             "a swap needs at least two$"):
            swap_perturbation(ring, part, 0.0005, seed=0)

    def test_single_community_rejected(self, bridged_triangles):
        part = Partition(np.zeros(6, dtype=int))
        with pytest.raises(GraphError):
            swap_perturbation(bridged_triangles, part, 0.5, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        g = random_simple_graph(rng, n=24, p=0.25)
        part = Partition(np.repeat([0, 1], 12))
        a = swap_perturbation(g, part, 0.5, seed=3)
        b = swap_perturbation(g, part, 0.5, seed=3)
        assert np.array_equal(a.neighbors, b.neighbors)

    def test_alignment_declines_then_converges(self):
        # planted blocks with labels == blocks: swapping erodes alignment
        from graphdiag import LabelVector, joint_counts, louvain, uncertainty_coefficient
        from graphdiag.synthetic import planted_partition_graph
        g, part = planted_partition_graph(40, 2, 0.3, 0.02, seed=2)
        labels = LabelVector(part.assignment.copy(), 2)
        mask = np.arange(g.n)
        us = []
        for i, frac in enumerate([0.0, 0.2, 0.4]):
            pert = swap_perturbation(g, part, frac, seed=20 + i)
            detected = louvain(pert, seed=1)
            us.append(uncertainty_coefficient(
                joint_counts(labels, detected, mask)))
        assert us[0] > us[1] > us[2]
