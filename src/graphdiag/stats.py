"""Rank-based significance testing for unpaired accuracy samples.

The test statistic is U = sum over pairs [a > b] + 0.5 [a == b], reported
as min(U_a, U_b). Small tie-free samples get an exact two-sided p from the
permutation null distribution (computed by the Gaussian-binomial
recurrence); everything else uses the normal approximation with continuity
correction and tie-corrected variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class UTestResult:
    u_statistic: float
    p_value: float
    method: str  # "exact" or "normal_approx"
    n_a: int
    n_b: int


def _exact_tail_counts(n_a: int, n_b: int) -> list[int]:
    """counts[u] = number of rank assignments with U_a = u: the coefficients
    of the Gaussian binomial prod_{i=1..n_a} (1 - q^(n_b+i)) / (1 - q^i)."""
    size = n_a * n_b + 1
    counts = [1] + [0] * (size - 1)
    for i in range(1, n_a + 1):
        for u in range(size - 1, n_b + i - 1, -1):  # times 1 - q^(n_b+i)
            counts[u] -= counts[u - n_b - i]
        for u in range(i, size):  # divided by 1 - q^i
            counts[u] += counts[u - i]
    return counts


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def mann_whitney_u(sample_a, sample_b, exact_threshold: int = 10) -> UTestResult:
    """Two-sided rank test between two unpaired samples.

    Exact enumeration applies when max(n_a, n_b) <= exact_threshold and the
    pooled sample is tie-free; otherwise the tie-corrected normal
    approximation with continuity correction is used. All values tied
    across both samples yields p = 1.0 by convention.
    """
    a = np.asarray(sample_a, dtype=np.float64).ravel()
    b = np.asarray(sample_b, dtype=np.float64).ravel()
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both samples must be non-empty")
    n_a, n_b = len(a), len(b)
    gt = (a[:, None] > b[None, :]).sum()
    eq = (a[:, None] == b[None, :]).sum()
    u_a = float(gt) + 0.5 * float(eq)
    u_b = n_a * n_b - u_a
    u = min(u_a, u_b)

    pooled = np.concatenate([a, b])
    _, tie_sizes = np.unique(pooled, return_counts=True)
    no_ties = len(tie_sizes) == len(pooled)
    if no_ties and max(n_a, n_b) <= exact_threshold:
        counts = _exact_tail_counts(n_a, n_b)
        u_int = int(u)
        low = sum(counts[:u_int + 1])
        high = sum(counts[n_a * n_b - u_int:])
        p = min(1.0, (low + high) / math.comb(n_a + n_b, n_a))
        return UTestResult(u_statistic=u, p_value=p, method="exact", n_a=n_a, n_b=n_b)

    n_total = n_a + n_b
    tie_term = float(np.sum(tie_sizes.astype(np.float64) ** 3 - tie_sizes))
    sigma2 = (n_a * n_b / 12.0) * ((n_total + 1) - tie_term / (n_total * (n_total - 1)))
    if sigma2 <= 0.0:
        return UTestResult(u_statistic=u, p_value=1.0, method="normal_approx",
                           n_a=n_a, n_b=n_b)
    mu = n_a * n_b / 2.0
    z = (u - mu + 0.5) / math.sqrt(sigma2)
    p = min(1.0, 2.0 * _normal_sf(-z))  # two-sided: 2 * P(Z <= z)
    return UTestResult(u_statistic=u, p_value=p, method="normal_approx",
                       n_a=n_a, n_b=n_b)


def bonferroni(p_values) -> np.ndarray:
    """Multiply each p by the family size and clamp to 1."""
    p = np.asarray(p_values, dtype=np.float64)
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("p-values must lie in [0, 1]")
    return np.minimum(1.0, p * len(p))
