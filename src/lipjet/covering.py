"""Delta-covers and packings of finite point sets.

All balls are closed. Tie-breaking is by site index throughout, so the
greedy constructions are deterministic for a fixed site ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class CoverPlan:
    delta: float
    center_indices: list
    verified: bool
    uncovered_witness: int = None

    @property
    def N(self):
        return len(self.center_indices)


@dataclass
class CubeBound:
    d: int
    delta0: float
    omega_d: float
    bound: float
    m: int


def _as_sites(sites):
    arr = np.asarray(sites, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError("sites must be a nonempty (N, d) array")
    if not np.isfinite(arr).all():
        raise ValueError("site coordinates must be finite")
    return arr


# A block of the pair-distance kernel holds about this many float64
# elements (128 KB per temporary); blocks of rows are sized to match.
_BLOCK_ELEMS = 1 << 14


def _sq_dists(a, b):
    """Squared distances between the rows of a (r, d) and b (c, d), as (r, c).

    Summed one coordinate at a time: for d <= 7 the square roots equal
    ``np.linalg.norm(b - a[i], axis=1)`` bit for bit (numpy sums pairwise
    from d = 8 on, which can differ in the last ulp).
    """
    acc = np.zeros((a.shape[0], b.shape[0]))
    for k in range(a.shape[1]):
        t = b[None, :, k] - a[:, k, None]
        t *= t
        acc += t
    return acc


def _row_blocks(n_rows, n_cols):
    """(start, stop) row ranges whose kernel blocks against n_cols columns
    hold about _BLOCK_ELEMS elements."""
    step = max(1, _BLOCK_ELEMS // n_cols)
    return [(s, min(s + step, n_rows)) for s in range(0, n_rows, step)]


def _x_blocks(rows, cols, r):
    """(rows index, cols index) blocks of the rows x cols distance table
    that meet every pair within r, each about _BLOCK_ELEMS pairs; an index
    is a slice or an array of positions.

    A table that small is one block. Otherwise rows and cols are sorted
    (stably) along the first coordinate, and each block of sorted rows
    meets only the contiguous slice of sorted cols within w = r * (1 +
    2**-20) of it there (sort and sweep). A skipped col differs from a row
    by at least w in that coordinate, exactly, so its kernel distance
    rounds to more than r; the 2**-500 floor keeps w squared a normal float.
    """
    n_rows, n_cols = rows.shape[0], cols.shape[0]
    if n_rows * n_cols <= _BLOCK_ELEMS:
        yield slice(None), slice(None)
        return
    w = max(r * (1.0 + 2.0**-20), 2.0**-500)
    row_order = np.argsort(rows[:, 0], kind="stable")
    col_order = np.argsort(cols[:, 0], kind="stable")
    xs, ys = rows[row_order, 0], cols[col_order, 0]
    lo, hi = np.searchsorted(ys, xs - w, "left"), np.searchsorted(ys, xs + w, "right")
    start = 0
    while start < n_rows:
        # lo and hi rise with the row, so rows start..stop-1 meet the cols
        # lo[start]:hi[stop - 1]; take rows while that stays inside a block
        cap = min(n_rows - start, _BLOCK_ELEMS // max(1, hi[start] - lo[start]))
        sizes = np.arange(1, cap + 1) * (hi[start : start + cap] - lo[start])
        stop = start + max(1, int(np.searchsorted(sizes, _BLOCK_ELEMS, "right")))
        yield row_order[start:stop], col_order[lo[start] : hi[stop - 1]]
        start = stop


def is_cover(sites, centers, delta):
    """Whether every site lies within delta of some center (closed balls).

    Returns (flag, witness); the witness is the first uncovered site
    index, or None when the cover checks out.
    """
    sites = _as_sites(sites)
    if not (delta >= 0):  # also rejects NaN, which no comparison below would catch
        raise ValueError("delta must be nonnegative")
    centers = [int(c) for c in centers]
    for c in centers:
        if not (0 <= c < sites.shape[0]):
            raise IndexError(f"center index {c} out of range")
    if not centers:
        return False, 0
    n = sites.shape[0]
    center_pts = sites[centers]
    first = n  # the lowest uncovered site found so far
    settled = np.zeros(n, dtype=bool)
    for ri, ci in _x_blocks(sites, center_pts, delta):
        # blocks run in x-order: stop once every site below first is checked
        if first < n and settled[:first].all():
            break
        uncovered = np.sqrt(_sq_dists(sites[ri], center_pts[ci]).min(axis=1, initial=np.inf)) > delta
        if uncovered.any():
            first = min(first, int(np.arange(n)[ri][uncovered].min()))
        settled[ri] = True
    return (True, None) if first == n else (False, first)


def greedy_cover(sites, delta):
    """Farthest-point greedy cover.

    Starts from site 0 and repeatedly adds the site farthest from the
    chosen centers until everything is within delta; ties go to the
    lowest index. The result always verifies.
    """
    sites = _as_sites(sites)
    if not (delta > 0):
        raise ValueError("delta must be positive")
    centers = [0]
    min_dist = np.sqrt(_sq_dists(sites[:1], sites)[0])
    while True:
        far = int(np.argmax(min_dist))  # argmax takes the first maximizer
        if min_dist[far] <= delta:
            break
        centers.append(far)
        row = np.sqrt(_sq_dists(sites[far : far + 1], sites)[0])
        np.minimum(min_dist, row, out=min_dist)
    # independent final check, not a reuse of min_dist
    ok, witness = is_cover(sites, centers, delta)
    return CoverPlan(
        delta=float(delta),
        center_indices=centers,
        verified=ok,
        uncovered_witness=witness,
    )


def greedy_packing(sites, delta):
    """Maximal subset with pairwise distances strictly greater than delta.

    Greedy in index order, so deterministic. Every excluded site is
    within delta of some kept site (maximality), which also makes the
    result a delta-cover.
    """
    sites = _as_sites(sites)
    if not (delta > 0):
        raise ValueError("delta must be positive")
    excluded = np.zeros(sites.shape[0], dtype=bool)
    kept = []
    for i in range(sites.shape[0]):
        if not excluded[i]:
            kept.append(i)
            excluded |= np.sqrt(_sq_dists(sites[i : i + 1], sites)[0]) <= delta
    return kept


def unit_ball_volume(d):
    """Euclidean volume of the unit ball in R^d."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def cube_bound(d, delta0):
    """Volume-comparison ceiling on the delta0-covering number of [0,1]^d."""
    d = int(d)
    if d < 1:
        raise ValueError("dimension must be at least 1")
    delta0 = float(delta0)
    if not (delta0 > 0):
        raise ValueError("delta0 must be positive")
    omega = unit_ball_volume(d)
    bound = (2.0**d / omega) * (1.0 + 1.0 / delta0) ** d
    return CubeBound(d=d, delta0=delta0, omega_d=omega, bound=bound, m=math.ceil(bound))


def diameter(sites):
    """Largest pairwise Euclidean distance; 0 for a single site."""
    sites = _as_sites(sites)
    n = sites.shape[0]
    best = 0.0
    for start, stop in _row_blocks(n, n):
        # rows [start, stop) against sites[start:] meet every pair i < j
        best = max(best, float(_sq_dists(sites[start:stop], sites[start:]).max()))
    return math.sqrt(best)
