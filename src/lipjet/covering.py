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
    center_pts = sites[centers]
    for start, stop in _row_blocks(sites.shape[0], len(centers)):
        nearest = np.sqrt(_sq_dists(sites[start:stop], center_pts).min(axis=1))
        uncovered = nearest > delta
        if uncovered.any():
            return False, start + int(np.argmax(uncovered))
    return True, None


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
