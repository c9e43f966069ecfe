"""Planted-partition benchmark datasets for testing and demos.

Two flavors matter for exercising the diagnostic end to end: an *aligned*
dataset whose labels coincide with the planted blocks (propagation should
help), and an *anti-aligned* one whose labels are drawn independently of
the blocks while the features carry the signal (propagation should not).
"""

from __future__ import annotations

import numpy as np

from .community import Partition
from .graphs import Dataset, FeatureMatrix, LabelVector
from .nullmodels import generate_sbm


def planted_blocks(n_per_block: int, num_blocks: int) -> Partition:
    return Partition(assignment=np.repeat(np.arange(num_blocks), n_per_block))


def planted_partition_graph(n_per_block: int, num_blocks: int, p_in: float,
                            p_out: float, seed: int):
    """Sample a planted-partition graph; returns (graph, partition)."""
    part = planted_blocks(n_per_block, num_blocks)
    densities = {(a, b): p_in if a == b else p_out
                 for a in range(num_blocks) for b in range(a, num_blocks)}
    return generate_sbm(densities, part, seed), part


def gaussian_label_features(labels: np.ndarray, num_labels: int, dim: int,
                            shift: float, rng: np.random.Generator) -> np.ndarray:
    """Unit-variance Gaussian features with square-wave class means.

    Class c's mean is +/- shift/2 per dimension following a square wave of
    period 2^(c+1), so distinct classes differ by ``shift`` in half the
    dimensions (a distance of shift * sqrt(dim / 2))."""
    j = np.arange(dim)[None, :]
    c = np.arange(num_labels)[:, None]
    signs = np.where(((j >> c) & 1) == 0, 1.0, -1.0)
    means = 0.5 * shift * signs
    return means[labels] + rng.standard_normal((len(labels), dim))


def planted_dataset(n_per_block: int = 80, num_blocks: int = 2,
                    p_in: float = 0.2, p_out: float = 0.02,
                    labels_follow_blocks: bool = True,
                    feature_dim: int = 8, feature_shift: float = 0.25,
                    seed: int = 0) -> Dataset:
    """Planted-partition dataset with Gaussian class features.

    ``labels_follow_blocks`` selects the aligned flavor; otherwise labels
    are a balanced random assignment independent of the blocks.
    """
    rng = np.random.default_rng(seed)
    graph, part = planted_partition_graph(n_per_block, num_blocks, p_in, p_out,
                                          seed=int(rng.integers(2**32)))
    n = graph.n
    if labels_follow_blocks:
        y = part.assignment.copy()
    else:
        y = rng.permutation(np.repeat(np.arange(num_blocks), n_per_block))
    features = gaussian_label_features(y, num_blocks, feature_dim, feature_shift, rng)
    return Dataset(graph=graph, features=FeatureMatrix(features),
                   labels=LabelVector(y, num_blocks))


def aligned_benchmark(seed: int = 0) -> Dataset:
    """Labels coincide with the planted blocks; features barely help on
    their own, so propagation over the true structure pays off."""
    return planted_dataset(n_per_block=80, p_in=0.2, p_out=0.02,
                           labels_follow_blocks=True, feature_dim=8,
                           feature_shift=0.06, seed=seed)


def anti_aligned_benchmark(seed: int = 0) -> Dataset:
    """Labels are independent of the blocks while the features carry a
    strong signal; propagation can only smear that signal."""
    return planted_dataset(n_per_block=80, p_in=0.2, p_out=0.02,
                           labels_follow_blocks=False, feature_dim=8,
                           feature_shift=0.8, seed=seed)
