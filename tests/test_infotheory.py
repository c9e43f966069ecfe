import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graphdiag import (DegenerateDistributionError, JointCounts, LabelVector,
                       Partition, entropy, joint_counts, mutual_information,
                       normalized_mutual_information, uncertainty_coefficient)

# ---------------------------------------------------------------------------
# independent oracle: plain-Python direct summation over cells
# ---------------------------------------------------------------------------

def oracle_entropy(counts, log=math.log):
    total = sum(counts)
    h = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            h -= p * log(p)
    return h


def oracle_mi(table, log=math.log):
    rows = len(table)
    cols = len(table[0])
    total = sum(sum(r) for r in table)
    row_sum = [sum(table[i]) for i in range(rows)]
    col_sum = [sum(table[i][j] for i in range(rows)) for j in range(cols)]
    mi = 0.0
    for i in range(rows):
        for j in range(cols):
            if table[i][j] > 0:
                p = table[i][j] / total
                mi += p * log(p / ((row_sum[i] / total) * (col_sum[j] / total)))
    return mi


def oracle_u(table, log=math.log):
    return oracle_mi(table, log) / oracle_entropy([sum(r) for r in table], log)


joint_tables = arrays(np.int64, st.tuples(st.integers(2, 6), st.integers(1, 6)),
                      elements=st.integers(0, 20)).filter(
    lambda t: t.sum() > 0 and len(np.unique(np.nonzero(t.sum(axis=1))[0])) >= 2)


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy([2, 2]) == pytest.approx(math.log(2), abs=1e-12)

    def test_degenerate(self):
        assert entropy([4, 0]) == 0.0

    def test_three_one(self):
        assert entropy([3, 1]) == pytest.approx(0.562335, abs=1e-6)

    def test_all_zero_counts(self):
        with pytest.raises(ValueError):
            entropy([0, 0])

    def test_negative_counts(self):
        with pytest.raises(ValueError):
            entropy([-1, 2])


class TestMutualInformation:
    def test_perfect_dependence(self):
        assert mutual_information(JointCounts([[2, 0], [0, 2]])) == pytest.approx(
            math.log(2), abs=1e-12)

    def test_independence(self):
        assert mutual_information(JointCounts([[1, 1], [1, 1]])) == 0.0

    def test_intermediate(self):
        assert mutual_information(JointCounts([[3, 1], [1, 3]])) == pytest.approx(
            0.130812, abs=1e-6)


class TestUncertaintyCoefficient:
    def test_perfect_alignment_exact(self):
        assert uncertainty_coefficient(JointCounts([[2, 0], [0, 2]])) == 1.0

    def test_independence_exact(self):
        assert uncertainty_coefficient(JointCounts([[1, 1], [1, 1]])) == 0.0

    def test_intermediate(self):
        # 0.130812... / 0.693147... by direct summation
        assert uncertainty_coefficient(JointCounts([[3, 1], [1, 3]])) == pytest.approx(
            0.188722, abs=1e-6)
        assert uncertainty_coefficient(JointCounts([[3, 1], [1, 3]])) == pytest.approx(
            oracle_u([[3, 1], [1, 3]]), abs=1e-12)

    @pytest.mark.parametrize("table, expected", [
        # every community carries one label: I(L;C) / H(L) rounds to 1 + 2 ulp
        ([[1, 4, 0], [0, 0, 1]], 1.0),
        # an exactly independent table: the ratio rounds to -3.2e-16
        ([[1, 5], [2, 10]], 0.0),
    ])
    def test_rounding_stays_inside_the_unit_interval(self, table, expected):
        assert uncertainty_coefficient(JointCounts(table)) == expected

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            uncertainty_coefficient(JointCounts([[2, 2], [0, 0]]))

    def test_label_pure_tables_read_exactly_one(self):
        # every community carries one label, so H(L|C) is a sum of exact
        # zeros; as I(L;C) / H(L), 100 of the diagonal tables and 227 of
        # the others read 1 - 1 ulp
        rng = np.random.default_rng(0)
        for _ in range(1000):
            k = int(rng.integers(2, 11))
            assert uncertainty_coefficient(
                JointCounts(np.diag(rng.integers(1, 60, size=k)))) == 1.0
        for _ in range(1000):
            k = int(rng.integers(2, 8))
            m = int(rng.integers(k, 15))
            owner = np.concatenate([np.arange(k), rng.integers(0, k, m - k)])
            table = np.zeros((k, m))
            table[owner, np.arange(m)] = rng.integers(1, 60, size=m)
            assert uncertainty_coefficient(JointCounts(table)) == 1.0


class TestJointCounts:
    def test_diagonal(self):
        labels = LabelVector(np.array([0, 0, 1, 1]), 2)
        part = Partition(np.array([0, 0, 1, 1]))
        jc = joint_counts(labels, part, np.arange(4))
        assert jc.table.tolist() == [[2, 0], [0, 2]]

    def test_single_community(self):
        labels = LabelVector(np.array([0, 0, 1, 1]), 2)
        part = Partition(np.zeros(4, dtype=int))
        jc = joint_counts(labels, part, np.arange(4))
        assert jc.table.tolist() == [[2], [2]]

    def test_mask_subset(self):
        labels = LabelVector(np.array([0, 0, 1, 1]), 2)
        part = Partition(np.array([0, 0, 1, 1]))
        jc = joint_counts(labels, part, np.array([0, 2]))
        assert jc.table.tolist() == [[1, 0], [0, 1]]

    def test_empty_mask(self):
        labels = LabelVector(np.array([0, 1]), 2)
        part = Partition(np.array([0, 1]))
        with pytest.raises(ValueError):
            joint_counts(labels, part, np.array([], dtype=int))


class TestOracleAgreement:
    def test_200_random_tables(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            rows, cols = rng.integers(2, 7), rng.integers(1, 7)
            table = rng.integers(0, 21, size=(rows, cols))
            if table.sum() == 0 or (table.sum(axis=1) > 0).sum() < 2:
                continue
            jc = JointCounts(table)
            assert entropy(jc.label_marginals()) == pytest.approx(
                oracle_entropy(list(table.sum(axis=1))), abs=1e-9)
            assert mutual_information(jc) == pytest.approx(
                oracle_mi(table.tolist()), abs=1e-9)
            assert uncertainty_coefficient(jc) == pytest.approx(
                oracle_u(table.tolist()), abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(joint_tables)
def test_u_bounds(table):
    u = uncertainty_coefficient(JointCounts(table))
    assert -1e-12 <= u <= 1 + 1e-12


@settings(max_examples=60, deadline=None)
@given(joint_tables, st.randoms(use_true_random=False))
def test_community_relabeling_invariance(table, rnd):
    cols = list(range(table.shape[1]))
    rnd.shuffle(cols)
    u1 = uncertainty_coefficient(JointCounts(table))
    u2 = uncertainty_coefficient(JointCounts(table[:, cols]))
    assert u1 == pytest.approx(u2, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(joint_tables.filter(lambda t: t.shape[1] >= 2))
def test_merging_communities_never_increases_information(table):
    merged = np.column_stack([table[:, 0] + table[:, 1], table[:, 2:]])
    i_full = mutual_information(JointCounts(table))
    i_merged = mutual_information(JointCounts(merged))
    assert i_merged <= i_full + 1e-12


@settings(max_examples=60, deadline=None)
@given(joint_tables)
def test_log_base_invariance(table):
    u_nats = uncertainty_coefficient(JointCounts(table))
    u_bits = oracle_u(table.tolist(), log=math.log2)
    assert u_nats == pytest.approx(u_bits, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(joint_tables)
def test_counts_equal_normalized_probabilities(table):
    u_counts = uncertainty_coefficient(JointCounts(table))
    u_probs = uncertainty_coefficient(JointCounts(table / table.sum()))
    assert u_counts == pytest.approx(u_probs, abs=1e-12)


class TestNmi:
    def test_identical_assignments(self):
        a = np.array([0, 0, 1, 1, 2])
        assert normalized_mutual_information(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_both_constant(self):
        a = np.zeros(4, dtype=int)
        assert normalized_mutual_information(a, a) == 1.0

    def test_one_constant(self):
        a = np.zeros(4, dtype=int)
        b = np.array([0, 1, 0, 1])
        assert normalized_mutual_information(a, b) == 0.0

    def test_label_permutation_invariant(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([1, 1, 0, 0])
        assert normalized_mutual_information(a, b) == pytest.approx(1.0, abs=1e-12)
