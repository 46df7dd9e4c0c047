"""Dissimilarity matrices and how tree-like they are.

Provides the labeled symmetric matrix container plus Gromov products, exact
and sampled delta-hyperbolicity, the four-point and strong-triangle checks,
and the l_p distortion between two matrices.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Largest tolerated |D - D^T| entry before construction fails.
SYMMETRY_TOL = 1e-6


def upper_mask(n: int) -> np.ndarray:
    """n x n boolean mask of the pairs i < j; indexing a matrix with it reads
    them in ``pair_vector`` order."""
    return ~np.tri(n, dtype=bool)


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
        # One n x n temporary: |D - D^T|, then (D + D^T)/2 in the same buffer.
        asym = np.subtract(vals, vals.T)
        np.abs(asym, out=asym)
        worst = asym.max() if asym.size else 0.0
        if worst > SYMMETRY_TOL:
            i, j = np.unravel_index(np.argmax(asym), asym.shape)
            raise ValueError(
                f"asymmetry {asym[i, j]:.3g} at ({self.labels[i]}, {self.labels[j]}) "
                f"exceeds {SYMMETRY_TOL:g}"
            )
        if worst > 0.0:
            vals = np.divide(np.add(vals, vals.T, out=asym), 2.0, out=asym)
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
        """Entries over unordered pairs i < j, in label-index order.

        The pairs run row by row, (0, 1), (0, 2), ..., (n-2, n-1): the order
        of scipy's condensed matrices and of ``np.triu_indices(n, 1)``.
        """
        return self.values[upper_mask(self.n)]

    def scaled(self, s: float) -> "DistanceMatrix":
        return DistanceMatrix(list(self.labels), self.values * s)

    def reordered(self, labels: Sequence[str]) -> "DistanceMatrix":
        """Same entries presented in a different label order."""
        if sorted(labels) != sorted(self.labels):
            raise ValueError("label sets differ; cannot reorder")
        pos = {lbl: k for k, lbl in enumerate(self.labels)}
        idx = [pos[lbl] for lbl in labels]
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


def _order_pair(s1, s2, t):
    """Put max(s1, s2) in ``s1`` and min(s1, s2) in ``t``; ``s2`` is then free."""
    np.minimum(s1, s2, out=t)
    np.maximum(s1, s2, out=s1)


def _gap_with(hi, lo, s3):
    """Largest minus middle of (hi, lo, s3), given hi >= lo elementwise, in place.

    Overwrites ``hi`` and ``lo`` and returns ``hi``.  The middle value is
    min(hi, max(lo, s3)), which needs no fourth buffer.
    """
    np.maximum(lo, s3, out=lo)
    np.minimum(hi, lo, out=lo)
    np.maximum(hi, s3, out=hi)
    return np.subtract(hi, lo, out=hi)


def _quad_gap(s1, s2, s3, t):
    """Largest minus middle of the three pair sums, elementwise, in place.

    Overwrites ``s1`` and ``t`` (scratch) and returns ``s1``.  Both terms
    are picked by comparison, so the order of the sums does not matter.
    """
    _order_pair(s1, s2, t)
    return _gap_with(s1, t, s3)


#: Elements per block buffer of one worker of the exact scan.  numpy releases
#: the GIL inside each block's ufuncs; blocks this large pay for the threads'
#: hand-offs, and 2**17 was slower on one core and on two.
_BLOCK = 2**16
#: Below this many entities the exact scan runs on one worker: on a 2-vCPU VM
#: two took 7.7 ms against 5.5 ms at n = 64, and won from n = 80 (11.5 / 13).
_PARALLEL_MIN_N = 80
#: Elements (3.5 MiB of float64) that all workers of the exact scan share.
#: Each worker holds three blocks, two gathered rows of half a block, and the
#: buffers numpy's iterator takes in a broadcasting add (two operands of up
#: to ``np.getbufsize()`` elements).
_SCAN_BUDGET = 7 * 2**16
#: Quadruples drawn and scanned at once by the sampler.
_SAMPLE_CHUNK = 2**13


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _scan_slice(d, K, L, d_kl, start, first, stride, block) -> float:
    """Largest pair-sum gap over the quadruples i < j < k < l with j in
    ``range(first, n - 2, stride)``; see :func:`delta_exact`."""
    tile = block // 2
    bufs = np.empty((3, block))
    jk, jl = np.empty((2, tile))
    best = 0.0
    for j in range(first, d.shape[0] - 2, stride):
        for c in range(start[j + 1], K.size, tile):
            k, l, kl = K[c : c + tile], L[c : c + tile], d_kl[c : c + tile]
            # The indices are in range; "clip" lets take write to out unbuffered.
            d_jk = np.take(d[j], k, out=jk[: kl.size], mode="clip")
            d_jl = np.take(d[j], l, out=jl[: kl.size], mode="clip")
            step = block // kl.size
            for i0 in range(0, j, step):
                rows = d[i0 : min(i0 + step, j)]
                s1, s2, t = (b[: len(rows) * kl.size].reshape(-1, kl.size) for b in bufs)
                np.add(rows[:, j, None], kl, out=s1)
                np.add(np.take(rows, k, axis=1, out=s2, mode="clip"), d_jl, out=s2)
                _order_pair(s1, s2, t)
                np.add(np.take(rows, l, axis=1, out=s2, mode="clip"), d_jk, out=s2)
                best = max(best, float(_gap_with(s1, t, s2).max()))
    return best


def delta_exact(dm: DistanceMatrix) -> HyperbolicityReport:
    """Smallest delta for which the four-point condition holds, by full scan.

    For each unordered quadruple the three pair sums S1 >= S2 >= S3 give
    the local slack (S1 - S2)/2; delta is the maximum over all C(n, 4)
    quadruples.  The pairs k < l are listed once in row-major order, so for
    each j the pairs with j < k form a suffix of that list.  The suffix is
    cut into tiles of half a block, and the rows i < j are taken against
    each tile in blocks of at most ``_BLOCK`` elements, written into three
    buffers allocated once per worker, the third pair sum after the first
    two are ordered.  Every quadruple i < j < k < l is thus evaluated
    exactly once, each pair sum as one addition, and the gap is halved once
    after the maximum.

    The values of j are dealt out in interleaved slices (j ≡ w mod W) to W
    workers, one per CPU in the process's affinity set (one below
    ``_PARALLEL_MIN_N`` entities), but no more than there are values of j or
    than ``_SCAN_BUDGET`` holds: the calling thread scans one slice and W - 1
    threads, joined before returning, scan the others.  The workers' buffers
    share that budget, so more workers get smaller blocks and the scan's
    memory does not grow with the core count or with n beyond the n² of the
    pair list.  Delta is the maximum of the workers' maxima, and max is
    exact, so it has the same bits for every W.  Matrices with n < 4 have
    delta 0 by convention.
    """
    n = dm.n
    if n < 4:
        return HyperbolicityReport(0.0, "exact", 0)
    d = dm.values
    K, L = np.triu_indices(n, 1)
    d_kl = d[K, L]
    start = np.searchsorted(K, np.arange(n + 1))
    # A worker holds 4 * block + 2 * bufsize elements; no block is smaller
    # than one of numpy's iterator buffers.
    bufsize = np.getbufsize()
    cpus = _cpu_count() if n >= _PARALLEL_MIN_N else 1
    workers = max(1, min(cpus, n - 3, _SCAN_BUDGET // (6 * bufsize)))
    block = min(_BLOCK, (_SCAN_BUDGET // workers - 2 * bufsize) // 4)
    scan = functools.partial(_scan_slice, d, K, L, d_kl, start, stride=workers, block=block)
    if workers == 1:
        best = scan(1)
    else:
        with ThreadPoolExecutor(workers - 1) as pool:
            rest = [pool.submit(scan, first) for first in range(2, workers + 1)]
            best = max([scan(1)] + [f.result() for f in rest])
    return HyperbolicityReport(best / 2.0, "exact", n * (n - 1) * (n - 2) * (n - 3) // 24)


def delta_sampled(dm: DistanceMatrix, m: int, seed: int) -> HyperbolicityReport:
    """Lower-bound delta from m uniformly sampled distinct quadruples.

    Index quadruples are drawn from ``default_rng(seed)`` as int32 in chunks
    of ``_SAMPLE_CHUNK`` rows, and the first m whose four points are distinct
    are scored, so memory does not grow with m.  numpy draws bounded integers
    below 2**32 with the same buffered 32-bit routine for int32 and int64,
    and the generator keeps the unused half of a 64-bit output between
    calls, so the indices are those of one call of any size and the result
    depends only on (matrix, m, seed).  One worker thread draws the next
    chunk into a second buffer while the caller scores the current one; it
    alone uses the generator, in the same order, so the indices are those of
    drawing each chunk just before it is scored.  Each pair sum takes its two
    distances from the flattened matrix with ``take``, into buffers
    allocated once, and the gap of every row not kept is set to 0 before
    the maximum, so kept rows are never copied out.
    """
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    n = dm.n
    if n < 4:
        return HyperbolicityReport(0.0, "sampled", 0, seed)
    rng = np.random.default_rng(seed)
    flat = dm.values.ravel()
    rows = _SAMPLE_CHUNK
    s1, s2, s3, t, u = np.empty((5, rows))
    quads = np.empty((2, 4, rows), dtype=np.intp)
    an, bn, cn, at = np.empty((4, rows), dtype=np.intp)
    drop, same = np.empty((2, rows), dtype=bool)

    def draw(k):
        # One contiguous intp row per point: no casts or strides below.
        np.copyto(quads[k % 2], rng.integers(0, n, size=(rows, 4), dtype=np.int32).T)
        return quads[k % 2]

    with ThreadPoolExecutor(1) as pool:
        ahead = pool.submit(draw, 0)
        best, got, k = 0.0, 0, 0
        while got < m:
            a, b, c, e = ahead.result()
            k += 1
            ahead = pool.submit(draw, k)
            np.equal(a, b, out=drop)
            for x, y in ((a, c), (a, e), (b, c), (b, e), (c, e)):
                np.logical_or(drop, np.equal(x, y, out=same), out=drop)
            kept = rows - int(np.count_nonzero(drop))
            if got + kept > m:
                drop[np.flatnonzero(~drop)[m - got] :] = True
            got = min(got + kept, m)
            np.multiply(a, n, out=an)
            np.multiply(b, n, out=bn)
            np.multiply(c, n, out=cn)
            # The pairings (ab|ce), (ac|be), (ae|bc).  The indices are in
            # range; "clip" lets take write to out unbuffered.
            for out, (x, y), (z, w) in ((s1, (an, b), (cn, e)), (s2, (an, c), (bn, e)),
                                        (s3, (an, e), (bn, c))):
                np.take(flat, np.add(x, y, out=at), out=out, mode="clip")
                np.add(out, np.take(flat, np.add(z, w, out=at), out=u, mode="clip"), out=out)
            gap = _quad_gap(s1, s2, s3, t)
            np.copyto(gap, 0.0, where=drop)
            best = max(best, float(gap.max()))
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


def check_exponent(p: float) -> float:
    """``p``, or ValueError outside [1, inf); inf and nan give no l_p norm here."""
    if not 1.0 <= p < np.inf:
        raise ValueError(f"norm exponent p must be finite and >= 1, got {p}")
    return p


def lp_cost(fitted: DistanceMatrix, target: DistanceMatrix, p: float = 2.0) -> float:
    """l_p distortion (sum over unordered pairs of |fit - target|^p)^(1/p).

    Computed by :func:`lp_pair_cost` on the two matrices' pair vectors.
    """
    if fitted.labels != target.labels:
        raise ValueError("matrices are labeled differently; align them first")
    return lp_pair_cost(fitted.pair_vector(), target.pair_vector(), p)


def lp_pair_cost(fitted: np.ndarray, target: np.ndarray, p: float = 2.0) -> float:
    """l_p distortion between two pair vectors over the same labels.

    Sums |fit - target|^p over the pairs in ``pair_vector`` order, so the
    result does not depend on whether the vectors came from matrices.  A sum
    that is not finite, e.g. because a large p overflows it, raises ValueError.
    """
    check_exponent(p)
    if fitted.shape != target.shape:
        raise ValueError(f"pair vectors of shapes {fitted.shape} and {target.shape} differ")
    if fitted.size == 0:
        return 0.0
    with np.errstate(over="ignore"):
        total = np.sum(np.abs(fitted - target) ** p)
    if not np.isfinite(total):
        raise ValueError(f"l_p cost is not finite at p = {p}")
    return float(total ** (1.0 / p))
