import hashlib
import math
import re
import tracemalloc
import warnings
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdiag import (GraphError, Partition, RewireStallWarning,
                       block_density_matrix, edge_density,
                       generate_erdos_renyi, generate_sbm, louvain, modularity,
                       nullmodels, rewire_configuration_model, swap_perturbation,
                       to_undirected)
from graphdiag.nullmodels import (SWAPS_PER_EDGE, _decode_pairs, _index_and_word_stream,
                                  _sample_distinct)
from graphdiag.synthetic import planted_blocks, planted_partition_graph

from conftest import planted_plus_isolated, random_simple_graph


def uniform_densities(k, p_in, p_out):
    return {(a, b): p_in if a == b else p_out for a in range(k) for b in range(a, k)}


def reference_sbm_edges(densities, partition, seed):
    """The block-model draw as a loop over all K^2 block pairs a <= b,
    skipping those of density 0: the order ``generate_sbm`` must keep.
    A pair missing from ``densities`` has density 0."""
    k = partition.num_communities
    rng = np.random.default_rng(seed)
    members = [np.flatnonzero(partition.assignment == c) for c in range(k)]
    pieces = []
    for a in range(k):
        for b in range(a, k):
            p = float(densities.get((a, b), 0.0))
            if p <= 0.0:
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
    return to_undirected(edges, n=len(partition.assignment)).edge_array()


def edge_digest(graph):
    return hashlib.sha256(graph.edge_array().astype("<i8").tobytes()).hexdigest()


@pytest.fixture
def no_draw(monkeypatch):
    """Fail any block-model draw: a refused input must be refused first."""
    def draw(*args):
        raise AssertionError("a block was drawn before the input was checked")

    monkeypatch.setattr(nullmodels, "_sample_distinct", draw)


class TestGenerateSbm:
    @pytest.mark.parametrize("n_isolated", [0, 7, 37])
    def test_draws_what_the_all_pairs_loop_draws(self, n_isolated):
        # three planted blocks plus singleton communities, K up to 40, with
        # the study's densities overwritten by exact 0s and 1s in places
        ds = planted_plus_isolated(n_isolated, n_per_block=12, num_blocks=3,
                                   p_in=0.3, p_out=0.05)
        part = Partition(np.concatenate([np.repeat(np.arange(3), 12),
                                         3 + np.arange(n_isolated)]))
        k = part.num_communities
        rng = np.random.default_rng(n_isolated)
        densities = block_density_matrix(ds.graph, part)
        zeros, ones = rng.random((k, k)) < 0.2, rng.random((k, k)) < 0.1
        for a, b in zip(*np.triu_indices(k)):
            if zeros[a, b]:
                densities[a, b] = 0.0
            if ones[a, b]:
                densities[a, b] = 1.0
        # a complete cross block, an empty planted block, and at density 1
        # the last community's own block: a singleton's has no node pair
        densities[0, 1], densities[1, 1], densities[k - 1, k - 1] = 1.0, 0.0, 1.0
        for seed in range(4):
            expected = reference_sbm_edges(densities, part, seed)
            assert np.array_equal(generate_sbm(densities, part, seed).edge_array(), expected)
            # the draw order is (a, b) order, whatever the dict's own order
            backwards = dict(reversed(densities.items()))
            assert np.array_equal(generate_sbm(backwards, part, seed).edge_array(), expected)

    @pytest.mark.parametrize("value", [np.nan, 1.5, -0.3])
    def test_density_outside_zero_one_rejected(self, value, no_draw):
        # unchecked, a NaN or 1.5 draws the whole cross block and -0.3 none of it
        part = planted_blocks(20, 2)
        densities = uniform_densities(2, 0.2, 0.05)
        densities[0, 1] = value
        with pytest.raises(ValueError, match=re.escape(
                f"densities[0, 1] is {value}; a block density must lie in [0, 1]")):
            generate_sbm(densities, part, seed=0)

    def test_density_one_gives_complete_graph(self):
        part = planted_blocks(4, 2)
        g = generate_sbm(uniform_densities(2, 1.0, 1.0), part, seed=0)
        assert g.m == 8 * 7 // 2

    def test_density_zero_gives_edgeless(self):
        part = planted_blocks(4, 2)
        g = generate_sbm(uniform_densities(2, 0.0, 0.0), part, seed=0)
        assert g.m == 0

    def test_omitted_pair_draws_as_density_zero(self):
        part = planted_blocks(30, 3)
        explicit = uniform_densities(3, 0.3, 0.05)
        explicit[0, 2] = 0.0
        omitted = {pair: p for pair, p in explicit.items() if pair != (0, 2)}
        for seed in range(4):
            g = generate_sbm(omitted, part, seed)
            assert np.array_equal(g.edge_array(),
                                  generate_sbm(explicit, part, seed).edge_array())
            assert (0, 2) not in block_density_matrix(g, part)

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
        sizes = part.sizes().tolist()
        for (a, b), expected in p.items():
            pairs = sizes[a] * (sizes[a] - 1) / 2.0 if a == b else sizes[a] * sizes[b]
            sigma = np.sqrt(expected * (1 - expected) / pairs)
            assert abs(observed.get((a, b), 0.0) - expected) <= 4 * sigma

    def test_deterministic(self):
        part = planted_blocks(30, 2)
        densities = uniform_densities(2, 0.3, 0.05)
        a = generate_sbm(densities, part, seed=5)
        b = generate_sbm(densities, part, seed=5)
        assert np.array_equal(a.neighbors, b.neighbors)

    @pytest.mark.parametrize("pair", [(1, 0), (-1, 0), (0, -1), (0, 2), (2, 2)],
                             ids=["b-below-a", "a-negative", "b-negative", "b-beyond-k",
                                  "a-beyond-k"])
    def test_key_outside_the_block_pairs_rejected(self, pair, no_draw):
        # a partition into two communities has block pairs (0, 0), (0, 1)
        # and (1, 1); the bad key sorts after the good ones, or before
        part = planted_blocks(4, 2)
        densities = uniform_densities(2, 0.5, 0.5)
        densities[pair] = 0.5
        a, b = pair
        with pytest.raises(ValueError, match=re.escape(
                f"densities[{a}, {b}] names no block pair a <= b of community ids 0..1")):
            generate_sbm(densities, part, seed=0)

    def test_block_model_draws_keep_their_bytes(self):
        # the edges of four draws, pinned by digest: a planted graph plus 40
        # isolated nodes, each of them a singleton community, so K = 43 and
        # most block pairs hold no edge
        g0, _ = planted_partition_graph(12, 3, 0.3, 0.05, seed=1)
        g = to_undirected(g0.edge_array(), n=g0.n + 40)
        part = louvain(g, 0)
        densities = block_density_matrix(g, part)
        assert part.num_communities == 43
        assert len(densities) < 43 * 44 // 2
        assert [edge_digest(generate_sbm(densities, part, seed)) for seed in range(4)] == [
            "88a88880b8e0215b5910880046828c349c82108bf189d1c632d9def8f296c1f2",
            "3d5c19aa51425adf57b07b59cefbe5e70fd9b5d0e30b7413ae9473b26de773a3",
            "7b13df44303ea5200badb86b1ec5ae22ade016e8204e439dc843c8c5c91686b3",
            "4052ce3fc9fac37593ba4729bcd71bf852bf532054ff43dbdcd0996ef93aba43",
        ]

    def test_bench_cora_graph_keeps_its_bytes(self):
        # the benchmark's Cora-scale structure (its seed drawn as
        # bench/workloads.py draws it) and seeds 0-3: the bench data stays fixed
        bench_seed = int(np.random.default_rng([0, 1]).integers(2**32))
        digests = [edge_digest(planted_partition_graph(400, 7, 0.0115, 0.0004, seed)[0])
                   for seed in (bench_seed, 0, 1, 2, 3)]
        assert digests == [
            "c4fc03d79c036eab00b7afcb67c8ed917f6f7ea50db468e5bce9ea8c2b61224d",
            "67ccf307e59912a1a8d97c9d1e41efe2d9a1391d8bf29b3f0a0d9e7f812cced9",
            "f9716ea44d61ad2328adcdb9dfb7a39471aded943f421e04660a9e3a078231c2",
            "d38c140e24e9ffe77dc64c6bf5146146a0d859ec8376049c6fcb9384b0feb12a",
            "bbc06ee54c1d8325dd7439fda7e73eabe9bbf4f08aa7b6cbb20373a7cab37f5d",
        ]

    def test_many_singleton_communities_cost_no_k_by_k_array(self):
        # 1,500 planted nodes plus 3,000 isolated ones give K = 3,005, so
        # one K x K float64 array would be 72 MB; 15 block pairs hold an edge
        g0, blocks = planted_partition_graph(300, 5, 0.02, 0.002, seed=3)
        g = to_undirected(g0.edge_array(), n=g0.n + 3000)
        part = Partition(np.concatenate([blocks.assignment, 5 + np.arange(3000)]))
        assert part.num_communities == 3005
        peaks = []
        tracemalloc.start()
        try:
            densities = block_density_matrix(g, part)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            drawn = generate_sbm(densities, part, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(peaks) < 16 * 2**20, peaks
        assert len(densities) == 15
        assert drawn.n == g.n


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


# ---------------------------------------------------------------------------
# reference oracle: the rewiring loop that calls numpy once per draw, which
# the stream-decoding one must match swap for swap
# ---------------------------------------------------------------------------

def _reference_rewire(graph, seed):
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


def _rewire_with_warnings(rewire, graph, seed):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = rewire(graph, seed)
    return out, [(w.category, str(w.message)) for w in caught]


def assert_matches_reference(graph, seed):
    out, warned = _rewire_with_warnings(rewire_configuration_model, graph, seed)
    ref, ref_warned = _rewire_with_warnings(_reference_rewire, graph, seed)
    assert np.array_equal(out.offsets, ref.offsets)
    assert np.array_equal(out.neighbors, ref.neighbors)
    assert warned == ref_warned


@st.composite
def small_simple_graphs(draw):
    """Stars (no legal swap), paths, K4 (no legal swap), the 4-cycle
    (swaps only lead to other 4-cycles), and complete graphs missing a few
    edges, where so few swaps are legal that the walk can stall part-way."""
    kind = draw(st.sampled_from(["star", "path", "k4", "cycle4", "dense"]))
    if kind == "star":
        k = draw(st.integers(2, 10))
        return to_undirected([(0, i) for i in range(1, k + 1)], n=k + 1)
    if kind == "path":
        k = draw(st.integers(3, 12))
        return to_undirected([(i, i + 1) for i in range(k - 1)], n=k)
    if kind == "k4":
        return to_undirected(list(combinations(range(4), 2)), n=4)
    if kind == "cycle4":
        return to_undirected([(0, 1), (1, 2), (2, 3), (0, 3)], n=4)
    n = draw(st.integers(5, 8))
    pairs = list(combinations(range(n), 2))
    missing = draw(st.sets(st.sampled_from(pairs), max_size=4))
    return to_undirected([e for e in pairs if e not in missing], n=n)


class TestRewireMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(small_simple_graphs(), st.integers(0, 2**32 - 1))
    def test_small_graphs(self, graph, seed):
        assert_matches_reference(graph, seed)

    def test_dense_graph_stalls_like_the_reference(self):
        # K7 without two disjoint edges: few legal swaps, so the walk
        # runs out of attempts before its budget
        pairs = [e for e in combinations(range(7), 2) if e not in {(0, 1), (2, 3)}]
        graph = to_undirected(pairs, n=7)
        _, warned = _rewire_with_warnings(rewire_configuration_model, graph, 0)
        assert warned[0][1].startswith("rewiring stalled after")
        assert_matches_reference(graph, 0)

    def test_bench_shaped_planted_graph(self):
        g, _ = planted_partition_graph(400, 7, 0.0115, 0.0004, seed=0)
        for seed in range(3):
            assert_matches_reference(g, seed)


class TestIndexAndWordStream:
    # 7879 is the bench Cora graph's m; at 3 * 2**30 + 1 Lemire's method
    # rejects about a quarter of its 32-bit draws
    @pytest.mark.parametrize("m", [2, 3, 7879, 3 * 2**30 + 1, 2**32 - 1])
    def test_matches_numpy_draws(self, m):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            index, word = _index_and_word_stream(np.random.default_rng(seed), m)
            for _ in range(10_000):
                e1, e2 = rng.integers(0, m, size=2)
                assert (index(), index()) == (e1, e2)
                if e1 != e2:
                    assert (word() < 2**63) == (rng.random() < 0.5)

    def test_rewiring_refuses_2_to_the_32_edges(self):
        # only m is read before the refusal, so a stand-in graph suffices
        with pytest.raises(GraphError, match="m=4294967296"):
            rewire_configuration_model(SimpleNamespace(m=2**32, n=2**17), seed=0)


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
