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


def _quad_gap(s1, s2, s3, t):
    """Largest minus middle of the three pair sums, elementwise, in place.

    Overwrites all four buffers (``t`` is scratch) and returns ``s1``.  Both
    terms are picked by comparison, so the order of the sums does not matter.
    """
    np.minimum(s1, s2, out=t)
    np.maximum(s1, s2, out=s1)
    np.minimum(s1, s3, out=s2)
    np.maximum(s1, s3, out=s1)
    np.maximum(t, s2, out=t)
    return np.subtract(s1, t, out=s1)


#: Elements per block of the exact scan, which keeps its buffers cache-sized;
#: blocks also hold at most n² elements, so small inputs get small buffers.
_BLOCK = 2**15
_SAMPLE_BATCH = 2**20


def delta_exact(dm: DistanceMatrix) -> HyperbolicityReport:
    """Smallest delta for which the four-point condition holds, by full scan.

    For each unordered quadruple the three pair sums S1 >= S2 >= S3 give
    the local slack (S1 - S2)/2; delta is the maximum over all C(n, 4)
    quadruples.  The pairs k < l are listed once in row-major order, so for
    each j the pairs with j < k form a suffix of that list; the rows i < j
    are taken against that suffix in blocks of about min(``_BLOCK``, n²)
    elements, written into four buffers allocated once.  Every quadruple
    i < j < k < l is thus evaluated exactly once, each pair sum as one
    addition, and the gap is halved once after the maximum.  Matrices with
    n < 4 have delta 0 by convention.
    """
    n = dm.n
    if n < 4:
        return HyperbolicityReport(0.0, "exact", 0)
    d = dm.values
    K, L = np.triu_indices(n, 1)
    d_kl = d[K, L]
    start = np.searchsorted(K, np.arange(n + 1))
    block = min(_BLOCK, d.size)
    bufs = np.empty((4, max(block, K.size - start[2])))
    best = 0.0
    for j in range(1, n - 2):
        k, l, kl = K[start[j + 1] :], L[start[j + 1] :], d_kl[start[j + 1] :]
        d_jk, d_jl = d[j, k], d[j, l]
        step = max(1, block // kl.size)
        for i0 in range(0, j, step):
            rows = d[i0 : min(i0 + step, j)]
            s1, s2, s3, t = (b[: len(rows) * kl.size].reshape(-1, kl.size) for b in bufs)
            np.add(rows[:, j, None], kl, out=s1)
            # The indices are in range; "clip" lets take write to out unbuffered.
            np.add(np.take(rows, k, axis=1, out=s2, mode="clip"), d_jl, out=s2)
            np.add(np.take(rows, l, axis=1, out=s3, mode="clip"), d_jk, out=s3)
            best = max(best, float(_quad_gap(s1, s2, s3, t).max()))
    return HyperbolicityReport(best / 2.0, "exact", n * (n - 1) * (n - 2) * (n - 3) // 24)


def _sampled_gap(d, rng, size: int, limit: int) -> tuple[float, int]:
    """Draw ``size`` index quadruples and keep the first ``limit`` with four
    distinct points; returns their largest pair-sum gap and how many they are.

    Every array lives only in this call, so sampling memory is one batch's.
    """
    idx = rng.integers(0, d.shape[0], size=(size, 4))
    pairs = zip(*np.triu_indices(4, 1))
    idx = idx[np.logical_and.reduce([idx[:, p] != idx[:, q] for p, q in pairs])][:limit]
    if idx.size == 0:
        return 0.0, 0
    a, b, c, e = idx.T
    gap = _quad_gap(d[a, b] + d[c, e], d[a, c] + d[b, e], d[a, e] + d[b, c], np.empty(a.size))
    return float(gap.max()), a.size


def delta_sampled(dm: DistanceMatrix, m: int, seed: int) -> HyperbolicityReport:
    """Lower-bound delta from m uniformly sampled distinct quadruples.

    Quadruples are drawn in batches of at most ``_SAMPLE_BATCH``, so memory
    does not grow with m.
    """
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    if dm.n < 4:
        return HyperbolicityReport(0.0, "sampled", 0, seed)
    rng = np.random.default_rng(seed)
    best, remaining = 0.0, m
    while remaining > 0:
        size = min(max(remaining, 1024), _SAMPLE_BATCH)
        gap, got = _sampled_gap(dm.values, rng, size, remaining)
        best, remaining = max(best, gap), remaining - got
    return HyperbolicityReport(best / 2.0, "sampled", m, seed)


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
