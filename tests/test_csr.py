"""``models.Csr`` against scipy's ``csr_matrix``, the reference it replaced:
every product, row slice and column slice equals scipy's bit for bit."""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdiag import models, normalized_adjacency, to_undirected
from graphdiag.models import Csr

SPECIALS = np.array([-0.0, np.inf, -np.inf, np.nan])


def _both(data, indices, indptr, shape):
    return (Csr(data, indices, indptr, shape),
            sp.csr_matrix((data, indices, indptr), shape=shape))


def _assert_same_matrix(ours, ref):
    assert ours.shape == ref.shape and ours.data.dtype == ref.dtype
    assert np.array_equal(ours.indptr, ref.indptr)
    assert np.array_equal(ours.indices, ref.indices)
    assert ours.data.tobytes() == ref.data.tobytes()


def _bits(values):
    """The bytes of ``values``, every nan written as the same nan. Which of
    two nans a sum keeps depends on operand order, and scipy's own loops
    differ there: a vector keeps the running sum's nan, Z of two or more
    columns the product's. Every other value, -0.0 and inf included, must
    match bit for bit, and the nans must sit in the same places."""
    values = values.copy()
    values[np.isnan(values)] = np.nan
    return values.tobytes()


def _assert_same_product(ours, ref, Z):
    got, want = ours @ Z, ref @ Z
    assert got.shape == want.shape and got.dtype == want.dtype
    assert _bits(got) == _bits(want)


@st.composite
def sparse_cases(draw):
    """A matrix with empty rows, rows in no particular column order and
    sometimes a hub row that holds every column; Z with -0.0, infinities
    and nan in it; a row slice (repeats allowed) and a column slice
    (distinct, shuffled)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows, n_cols = draw(st.integers(1, 30)), draw(st.integers(1, 60))
    counts = rng.integers(0, min(n_cols, 6) + 1, n_rows)
    counts[rng.random(n_rows) < 0.25] = 0
    if draw(st.booleans()):
        counts[rng.integers(n_rows)] = n_cols
    indices = np.concatenate([rng.permutation(n_cols)[:c] for c in counts])
    if draw(st.booleans()):  # canonical order, as normalized_adjacency builds
        indices = np.concatenate([np.sort(indices[s - c:s])
                                  for s, c in zip(np.cumsum(counts), counts)])
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    data = rng.standard_normal(len(indices)).astype(dtype)
    k = draw(st.sampled_from([None, 1, 7, 16, 300]))
    z_dtype = draw(st.sampled_from([dtype, np.float32, np.float64]))
    Z = rng.standard_normal(n_cols if k is None else (n_cols, k))
    specials = rng.random(Z.shape) < draw(st.sampled_from([0.0, 0.05, 0.3]))
    Z[specials] = rng.choice(SPECIALS, specials.sum())
    rows = rng.integers(0, n_rows, draw(st.integers(0, 2 * n_rows)))
    cols = rng.permutation(n_cols)[:draw(st.integers(0, n_cols))]
    indptr = np.concatenate([[0], np.cumsum(counts)])
    # small chunks run a product in many blocks and batches
    chunk = draw(st.sampled_from([1, 16, 200, models._CHUNK]))
    return (data, indices, indptr, (n_rows, n_cols)), Z.astype(z_dtype), rows, cols, chunk


class TestMatchesScipy:
    @settings(max_examples=300, deadline=None)
    @given(sparse_cases())
    def test_products_and_slices_are_bitwise_equal(self, case):
        arrays, Z, rows, cols, chunk = case
        ours, ref = _both(*arrays)
        with mock.patch.object(models, "_CHUNK", chunk):
            _assert_same_product(ours, ref, Z)
            _assert_same_product(ours, ref, Z)  # again, from the cached schedule
            _assert_same_matrix(ours[rows], ref[rows])
            _assert_same_product(ours[rows], ref[rows], Z)
            _assert_same_matrix(ours[:, cols], ref[:, cols])
            _assert_same_product(ours[:, cols], ref[:, cols], Z[cols])
            _assert_same_matrix(ours[rows][:, cols], ref[rows][:, cols])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(0, 120))
    def test_normalized_adjacency_is_scipys_build(self, seed, n, m):
        # the construction this class replaced: COO with the self-loops
        # appended, then scipy's canonical tocsr(); random pairs leave
        # isolated nodes, and to_undirected drops the loops among them
        graph = to_undirected(np.random.default_rng(seed).integers(0, n, (m, 2)), n=n)
        deg = graph.degrees() + 1.0
        inv_sqrt = 1.0 / np.sqrt(deg)
        src = np.repeat(np.arange(n), graph.degrees())
        rows = np.concatenate([src, np.arange(n)])
        cols = np.concatenate([graph.neighbors, np.arange(n)])
        ref = sp.coo_matrix((inv_sqrt[rows] * inv_sqrt[cols], (rows, cols)),
                            shape=(n, n)).tocsr()
        _assert_same_matrix(normalized_adjacency(graph), ref)


class TestHubRow:
    def test_a_star_graphs_hub_row_matches_scipy(self):
        leaves = 3000
        adj = normalized_adjacency(to_undirected([(0, v) for v in range(1, leaves + 1)],
                                                 n=leaves + 1))
        ref = sp.csr_matrix((adj.data, adj.indices, adj.indptr), shape=adj.shape)
        rng = np.random.default_rng(0)
        for Z in (rng.standard_normal((leaves + 1, 16)), rng.standard_normal(leaves + 1)):
            _assert_same_product(adj, ref, Z)


class TestRefusals:
    def test_product_with_the_wrong_row_count(self):
        adj = normalized_adjacency(to_undirected([(0, 1)], n=2))
        with pytest.raises(ValueError, match="cannot multiply"):
            adj @ np.ones((3, 2))

    def test_repeated_columns(self):
        adj = normalized_adjacency(to_undirected([(0, 1)], n=2))
        with pytest.raises(IndexError, match="distinct"):
            adj[:, [1, 1]]

    def test_a_key_other_than_rows_or_columns(self):
        adj = normalized_adjacency(to_undirected([(0, 1)], n=2))
        with pytest.raises(IndexError):
            adj[[0], [1]]

    def test_arrays_are_read_only(self):
        adj = normalized_adjacency(to_undirected([(0, 1)], n=2))
        with pytest.raises(ValueError):
            adj.data[0] = 2.0
