"""Dissimilarity matrices and how tree-like they are.

Provides the labeled symmetric matrix container plus Gromov products, exact
and sampled delta-hyperbolicity, the four-point and strong-triangle checks,
and the l_p distortion between two matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Largest tolerated |D - D^T| entry before construction fails.
SYMMETRY_TOL = 1e-6


@dataclass
class DistanceMatrix:
    """Symmetric nonnegative dissimilarities over n labeled entities."""

    labels: list[str]
    values: np.ndarray

    def __post_init__(self):
        self.labels = [str(x) for x in self.labels]
        vals = np.array(self.values, dtype=np.float64)
        n = len(self.labels)
        if vals.shape != (n, n):
            raise ValueError(f"matrix shape {vals.shape} does not match {n} labels")
        if len(set(self.labels)) != n:
            raise ValueError("labels must be unique")
        if not np.all(np.isfinite(vals)):
            i, j = np.argwhere(~np.isfinite(vals))[0]
            raise ValueError(f"non-finite entry at ({self.labels[i]}, {self.labels[j]})")
        asym = np.abs(vals - vals.T)
        if asym.size and asym.max() > SYMMETRY_TOL:
            i, j = np.unravel_index(np.argmax(asym), asym.shape)
            raise ValueError(
                f"asymmetry {asym[i, j]:.3g} at ({self.labels[i]}, {self.labels[j]}) "
                f"exceeds {SYMMETRY_TOL:g}"
            )
        if asym.size and asym.max() > 0.0:
            vals = (vals + vals.T) / 2.0
        if vals.size and vals.min() < -1e-12:
            i, j = np.unravel_index(np.argmin(vals), vals.shape)
            raise ValueError(f"negative entry at ({self.labels[i]}, {self.labels[j]})")
        np.clip(vals, 0.0, None, out=vals)
        np.fill_diagonal(vals, 0.0)
        self.values = vals

    @property
    def n(self) -> int:
        return len(self.labels)

    def pair_vector(self) -> np.ndarray:
        """Entries over unordered pairs i < j, in label-index order."""
        iu = np.triu_indices(self.n, 1)
        return self.values[iu]

    def scaled(self, s: float) -> "DistanceMatrix":
        return DistanceMatrix(list(self.labels), self.values * s)

    def reordered(self, labels: Sequence[str]) -> "DistanceMatrix":
        """Same entries presented in a different label order."""
        if sorted(labels) != sorted(self.labels):
            raise ValueError("label sets differ; cannot reorder")
        idx = [self.labels.index(lbl) for lbl in labels]
        return DistanceMatrix(list(labels), self.values[np.ix_(idx, idx)])


@dataclass(frozen=True)
class HyperbolicityReport:
    """Result of a delta-hyperbolicity computation."""

    delta: float
    method: str  # "exact" or "sampled"
    quadruples_evaluated: int
    seed: int | None = None


def gromov_product(dm: DistanceMatrix, i: int, j: int, r: int) -> float:
    """Gromov product (i, j)_r = (d(r,i) + d(r,j) - d(i,j)) / 2."""
    n = dm.n
    for k in (i, j, r):
        if not 0 <= k < n:
            raise IndexError(f"index {k} out of range for n={n}")
    d = dm.values
    return 0.5 * (d[r, i] + d[r, j] - d[i, j])


def _quad_stat(s1, s2, s3):
    """Half the gap between the largest and middle of the three pair sums.

    Both are picked by comparison, so the order of the sums does not matter.
    """
    lo12 = np.minimum(s1, s2)
    m12 = np.maximum(s1, s2)
    hi = np.maximum(m12, s3)
    mid = np.maximum(lo12, np.minimum(m12, s3, out=m12), out=lo12)
    hi -= mid
    hi /= 2.0
    return hi


def delta_exact(dm: DistanceMatrix) -> HyperbolicityReport:
    """Smallest delta for which the four-point condition holds, by full scan.

    For each unordered quadruple the three pairwise sums S1 >= S2 >= S3 give
    the local slack (S1 - S2)/2; delta is the maximum over all C(n, 4)
    quadruples.  Quadruples are processed in vectorized (k, l) blocks per
    leading pair (i, j).  Matrices with n < 4 have delta 0 by convention.
    """
    n = dm.n
    if n < 4:
        return HyperbolicityReport(0.0, "exact", 0)
    d = dm.values
    best = 0.0
    for i in range(n - 3):
        for j in range(i + 1, n - 2):
            tail = d[j + 1 :, j + 1 :]
            s1 = d[i, j] + tail
            s2 = d[i, j + 1 :, None] + d[j, None, j + 1 :]
            s3 = d[j, j + 1 :, None] + d[i, None, j + 1 :]
            q = _quad_stat(s1, s2, s3)
            m = q.shape[0]
            block = q[np.triu_indices(m, 1)]
            if block.size:
                best = max(best, float(block.max()))
    count = n * (n - 1) * (n - 2) * (n - 3) // 24
    return HyperbolicityReport(best, "exact", count)


def delta_sampled(dm: DistanceMatrix, m: int, seed: int) -> HyperbolicityReport:
    """Lower-bound delta from m uniformly sampled distinct quadruples."""
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    n = dm.n
    if n < 4:
        return HyperbolicityReport(0.0, "sampled", 0, seed)
    d = dm.values
    rng = np.random.default_rng(seed)
    best = 0.0
    remaining = m
    while remaining > 0:
        batch = max(remaining, 1024)
        idx = rng.integers(0, n, size=(batch, 4))
        ok = (
            (idx[:, 0] != idx[:, 1])
            & (idx[:, 0] != idx[:, 2])
            & (idx[:, 0] != idx[:, 3])
            & (idx[:, 1] != idx[:, 2])
            & (idx[:, 1] != idx[:, 3])
            & (idx[:, 2] != idx[:, 3])
        )
        idx = idx[ok][:remaining]
        if idx.size == 0:
            continue
        a, b, c_, e = idx.T
        s1 = d[a, b] + d[c_, e]
        s2 = d[a, c_] + d[b, e]
        s3 = d[a, e] + d[b, c_]
        q = _quad_stat(s1, s2, s3)
        best = max(best, float(q.max()))
        remaining -= idx.shape[0]
    return HyperbolicityReport(best, "sampled", m, seed)


def four_point_check(dm: DistanceMatrix, tol: float) -> bool:
    """True iff every pairing sum is within tol of the max of the other two.

    That is ``2 * delta_exact(dm).delta <= tol`` in the sum-form statement of
    the condition.
    """
    return 2.0 * delta_exact(dm).delta <= tol


def ultrametric_check(dm: DistanceMatrix, tol: float) -> bool:
    """True iff d(x,y) <= max(d(x,z), d(y,z)) + tol for all triples."""
    d = dm.values
    n = dm.n
    for x in range(n):
        # min over z of max(d(x,z), d(y,z)); z = x or y is vacuous.
        ceil = np.minimum.reduce(np.maximum(d[x][None, :], d), axis=1)
        if np.any(d[x] > ceil + tol):
            return False
    return True


def lp_cost(fitted: DistanceMatrix, target: DistanceMatrix, p: float = 2.0) -> float:
    """l_p distortion (sum over unordered pairs of |fit - target|^p)^(1/p)."""
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    if fitted.labels != target.labels:
        raise ValueError("matrices are labeled differently; align them first")
    diff = np.abs(fitted.pair_vector() - target.pair_vector())
    if diff.size == 0:
        return 0.0
    return float(np.sum(diff**p) ** (1.0 / p))
