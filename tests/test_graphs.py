import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdiag import (GraphError, connected_components, edge_density,
                       remove_rare_labels, select_components, to_undirected)
from graphdiag.graphs import LabeledGraph, induced_subdataset

from conftest import make_dataset


class TestToUndirected:
    def test_path_graph_degrees(self):
        g = to_undirected([(0, 1), (1, 2)], n=3)
        assert list(g.degrees()) == [1, 2, 1]

    def test_reverse_duplicate_collapses(self):
        g = to_undirected([(0, 1), (1, 0), (1, 2)], n=3)
        assert g.m == 2

    def test_self_loop_dropped(self):
        g = to_undirected([(0, 0)], n=2)
        assert g.m == 0 and g.n == 2

    def test_plain_duplicate_collapses(self):
        g = to_undirected([(0, 1), (0, 1)], n=2)
        assert g.m == 1

    def test_out_of_range_endpoint(self):
        with pytest.raises(GraphError):
            to_undirected([(0, 5)], n=3)

    def test_neighbor_lists_sorted(self):
        g = to_undirected([(2, 0), (2, 1), (2, 3)], n=4)
        assert list(g.neighbors_of(2)) == [0, 1, 3]


class TestInvariantValidation:
    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(GraphError, match="symmetric"):
            LabeledGraph(offsets=np.array([0, 1, 1]), neighbors=np.array([1]))

    def test_sizes_read_off_the_arrays(self):
        g = LabeledGraph(offsets=np.array([0, 1, 2, 2]), neighbors=np.array([1, 0]))
        assert (g.n, g.m) == (3, 1)
        with pytest.raises(GraphError, match="non-empty 1-D"):
            LabeledGraph(offsets=np.array([], dtype=np.int64), neighbors=np.array([]))

    def test_arrays_frozen(self):
        g = to_undirected([(0, 1)], n=2)
        with pytest.raises(ValueError):
            g.neighbors[0] = 5


class TestComponents:
    def test_largest_of_two(self):
        # component sizes 5 and 3
        ds = make_dataset([(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7)],
                          n=8, labels=[0, 0, 0, 0, 0, 1, 1, 1])
        out = induced_subdataset(ds, select_components(ds.graph))
        assert out.n == 5

    def test_connected_graph_identity(self):
        ds = make_dataset([(0, 1), (1, 2)], n=3, labels=[0, 1, 0])
        out = induced_subdataset(ds, select_components(ds.graph))
        assert out.n == 3
        assert np.array_equal(out.graph.offsets, ds.graph.offsets)
        assert np.array_equal(out.labels.labels, ds.labels.labels)

    def test_size_tie_keeps_smallest_min_id(self):
        ds = make_dataset([(0, 1), (1, 2), (3, 4), (4, 5)], n=6,
                          labels=[0, 0, 0, 1, 1, 1])
        out = induced_subdataset(ds, select_components(ds.graph))
        assert out.node_tokens == ("0", "1", "2")

    def test_idempotent(self):
        ds = make_dataset([(0, 1), (2, 3), (3, 4)], n=5, labels=[0, 1, 0, 1, 0])
        once = induced_subdataset(ds, select_components(ds.graph))
        twice = induced_subdataset(once, select_components(once.graph))
        assert np.array_equal(once.graph.neighbors, twice.graph.neighbors)
        assert once.node_tokens == twice.node_tokens

    def test_keep_top_k(self):
        ds = make_dataset([(0, 1), (1, 2), (3, 4), (5, 6)], n=7,
                          labels=[0, 0, 0, 1, 1, 0, 1])
        out = induced_subdataset(ds, select_components(ds.graph, keep_top_k=2))
        assert out.n == 5  # sizes 3 + 2
        comps = connected_components(out.graph)
        assert [len(c) for c in comps] == [3, 2]

    def test_isolated_nodes_are_components(self):
        ds = make_dataset([(0, 1)], n=3, labels=[0, 1, 0])
        comps = connected_components(ds.graph)
        assert [len(c) for c in comps] == [2, 1]

    def test_matches_breadth_first_reference(self):
        # sparse random graphs (many components, isolated nodes, size ties)
        # and shuffled long paths, which take several hooking rounds
        rng = np.random.default_rng(5)
        graphs = []
        for _ in range(30):
            n = int(rng.integers(1, 40))
            edges = rng.integers(0, n, size=(int(rng.integers(0, n)), 2))
            graphs.append(to_undirected(edges, n=n))
        for n in (50, 300):
            perm = rng.permutation(n)
            graphs.append(to_undirected(np.column_stack([perm[:-2], perm[1:-1]]), n=n))
        for g in graphs:
            got = connected_components(g)
            want = reference_components(g)
            assert len(got) == len(want)
            for c, r in zip(got, want):
                assert c.dtype == np.int64 and np.array_equal(c, r)

    def test_empty_graph_has_no_components(self):
        assert connected_components(to_undirected([], n=0)) == []


def reference_components(graph):
    """Breadth-first components, largest first, ties by smallest id."""
    seen = np.zeros(graph.n, dtype=bool)
    components = []
    for start in range(graph.n):
        if seen[start]:
            continue
        seen[start] = True
        members, frontier = [start], [start]
        while frontier:
            nxt = []
            for u in frontier:
                for v in graph.neighbors_of(u):
                    if not seen[v]:
                        seen[v] = True
                        members.append(int(v))
                        nxt.append(int(v))
            frontier = nxt
        components.append(np.array(sorted(members), dtype=np.int64))
    components.sort(key=lambda c: (-len(c), c[0]))
    return components


class TestRemoveRareLabels:
    def test_drops_rare_class(self):
        ds = make_dataset([(0, 1), (1, 2), (2, 3)], n=4, labels=[0, 0, 0, 1])
        out = induced_subdataset(ds, remove_rare_labels(ds.labels.labels, min_count=2))
        assert out.n == 3
        assert out.labels.num_labels == 1

    def test_min_count_one_is_identity(self):
        ds = make_dataset([(0, 1), (1, 2)], n=3, labels=[0, 1, 2])
        out = induced_subdataset(ds, remove_rare_labels(ds.labels.labels, min_count=1))
        assert out.n == 3 and out.labels.num_labels == 3

    def test_all_rare_errors(self):
        ds = make_dataset([(0, 1)], n=2, labels=[0, 1])
        with pytest.raises(GraphError):
            remove_rare_labels(ds.labels.labels, min_count=5)

    def test_all_rare_message_names_threshold_and_largest_class(self):
        labels = np.array([0, 0, 1, 2, 2, 2])
        with pytest.raises(GraphError, match=r"min_label_count=5 \(largest has 3 nodes\)"):
            remove_rare_labels(labels, min_count=5)

    def test_survivors_meet_min_count(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 5, size=40)
        ds = make_dataset([(i, i + 1) for i in range(39)], n=40, labels=labels,
                          num_labels=5)
        out = induced_subdataset(ds, remove_rare_labels(ds.labels.labels, min_count=7))
        assert out.labels.class_counts().min() >= 7

    def test_label_ids_recompacted(self):
        ds = make_dataset([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], n=6,
                          labels=[0, 0, 1, 2, 2, 1], num_labels=3)
        out = induced_subdataset(ds, remove_rare_labels(ds.labels.labels, min_count=2))
        assert out.labels.num_labels == 3
        ds2 = make_dataset([(0, 1), (1, 2), (2, 3), (3, 4)], n=5,
                           labels=[0, 0, 1, 2, 2], num_labels=3)
        out2 = induced_subdataset(ds2, remove_rare_labels(ds2.labels.labels, min_count=2))
        assert out2.labels.num_labels == 2
        assert set(out2.labels.labels) == {0, 1}


class TestEdgeDensity:
    def test_triangle_is_complete(self, triangle):
        assert edge_density(triangle) == 1.0

    def test_citation_graph_scale(self):
        # n=2485, m=5209 -> 0.001688...
        from graphdiag import generate_erdos_renyi
        g = generate_erdos_renyi(2485, 5209, seed=0)
        assert edge_density(g) == pytest.approx(0.001688, abs=5e-7)

    def test_too_small(self):
        g = to_undirected([], n=1)
        with pytest.raises(GraphError):
            edge_density(g)


class TestDegreeSequence:
    def test_empty_graph(self):
        g = to_undirected([], n=4)
        assert list(g.degrees()) == [0, 0, 0, 0]

    def test_triangle(self, triangle):
        assert list(triangle.degrees()) == [2, 2, 2]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=60),
       st.integers(12, 16))
def test_random_edge_lists_yield_valid_graphs(edges, n):
    g = to_undirected(edges, n=n)
    deg = g.degrees()
    assert deg.sum() == 2 * g.m
    # symmetry and sortedness are enforced by the constructor; spot-check
    for u in range(g.n):
        row = g.neighbors_of(u)
        assert all(u in g.neighbors_of(v) for v in row)


def test_edge_list_round_trip(tmp_path, bridged_triangles):
    from graphdiag.io import write_edge_list, load_edges
    path = tmp_path / "edges.txt"
    write_edge_list(path, bridged_triangles)
    index = {str(i): i for i in range(6)}
    reloaded = to_undirected(load_edges(path, index), n=6)
    assert np.array_equal(reloaded.offsets, bridged_triangles.offsets)
    assert np.array_equal(reloaded.neighbors, bridged_triangles.neighbors)
