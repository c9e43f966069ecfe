"""Plug-in information metrics over discrete label/community assignments.

All quantities use natural logarithms. The headline metric is the
uncertainty coefficient of labels given communities,

    U(L|C) = I(L;C) / H(L) = 1 - H(L|C) / H(L)  in [0, 1],

the fraction of label entropy removed by knowing the community. U = 1 means
each community carries a single label; U = 0 means the label distribution
is identical in every community.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .community import Partition
from .graphs import LabelVector, frozen_array


class DegenerateDistributionError(ValueError):
    """The metric is undefined for this input (e.g. a single-class mask)."""


@dataclass(frozen=True)
class JointCounts:
    """Label-by-community contingency table of non-negative counts."""

    table: np.ndarray

    def __post_init__(self) -> None:
        table = frozen_array(self, "table", np.float64)
        if table.ndim != 2:
            raise ValueError("joint table must be 2-D")
        if not np.all(np.isfinite(table)) or np.any(table < 0):
            raise ValueError("joint table entries must be finite and non-negative")
        if table.sum() <= 0:
            raise ValueError("joint table must contain at least one observation")

    @property
    def total(self) -> float:
        return float(self.table.sum())

    def label_marginals(self) -> np.ndarray:
        return self.table.sum(axis=1)

    def community_marginals(self) -> np.ndarray:
        return self.table.sum(axis=0)


def joint_counts(labels: LabelVector, partition: Partition,
                 mask: np.ndarray) -> JointCounts:
    """Contingency table of (label, community) pairs over ``mask`` nodes."""
    mask = np.asarray(mask, dtype=np.int64)
    if len(mask) == 0:
        raise ValueError("mask must be non-empty")
    table = np.zeros((labels.num_labels, partition.num_communities), dtype=np.int64)
    np.add.at(table, (labels.labels[mask], partition.assignment[mask]), 1)
    return JointCounts(table)


def entropy(counts: np.ndarray) -> float:
    """Shannon entropy in nats of a count (or weight) vector.

    Zero entries contribute nothing, by the 0*ln(0) = 0 convention.
    """
    c = np.asarray(counts, dtype=np.float64).ravel()
    if np.any(c < 0) or not np.all(np.isfinite(c)):
        raise ValueError("counts must be finite and non-negative")
    total = c.sum()
    if total <= 0:
        raise ValueError("counts must sum to a positive value")
    p = c[c > 0] / total
    return float(-np.sum(p * np.log(p)))


def mutual_information(joint: JointCounts) -> float:
    """I(L;C) in nats from the contingency table, plug-in estimate."""
    t = joint.table
    total = joint.total
    p = t / total
    pl = p.sum(axis=1, keepdims=True)
    pc = p.sum(axis=0, keepdims=True)
    nz = p > 0
    return float(np.sum(p[nz] * np.log(p[nz] / (pl * pc)[nz])))


def uncertainty_coefficient(joint: JointCounts) -> float:
    """U(L|C) = 1 - H(L|C) / H(L), equal to I(L;C) / H(L) and in [0, 1] by
    construction: the value is clamped, as rounding can carry it just past
    either end. H(L|C) is summed cell by cell from each community's own
    label distribution, so a table whose every community carries one label
    gives exactly 0 there and U exactly 1. Raises when H(L) = 0."""
    h_labels = entropy(joint.label_marginals())
    if h_labels == 0.0:
        raise DegenerateDistributionError(
            "all observations share one label; the coefficient is undefined")
    t = joint.table
    nz = t > 0
    community = np.broadcast_to(joint.community_marginals(), t.shape)[nz]
    h_cond = float(-np.sum(t[nz] * np.log(t[nz] / community))) / joint.total
    return min(1.0, max(0.0, 1.0 - h_cond / h_labels))


def normalized_mutual_information(a: np.ndarray, b: np.ndarray) -> float:
    """NMI between two assignment vectors, arithmetic-mean normalization.

    Returns 1.0 when both assignments are constant, 0.0 when exactly one is.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape or a.ndim != 1 or len(a) == 0:
        raise ValueError("assignments must be equal-length non-empty vectors")
    table = np.zeros((a.max() + 1, b.max() + 1), dtype=np.int64)
    np.add.at(table, (a, b), 1)
    joint = JointCounts(table)
    ha = entropy(joint.label_marginals())
    hb = entropy(joint.community_marginals())
    if ha == 0.0 and hb == 0.0:
        return 1.0
    if ha == 0.0 or hb == 0.0:
        return 0.0
    return mutual_information(joint) / (0.5 * (ha + hb))
