"""Jet families on finite site sets and their Lipschitz norms.

A jet of regularity gamma over a finite set of sites in R^d assigns to
each site the forms (psi^(0), ..., psi^(k)) with k = ceil(gamma) - 1.
The Lip(gamma) norm is the smallest M bounding every level pointwise
and every Taylor-type remainder by M * ||y - x||^(gamma - l).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .covering import _row_blocks, _sq_dists, _x_blocks
from .tensor_core import SymForm, _op_norms

# Construction rejects site pairs closer than this (relative to the
# ambient coordinate scale): Holder quotients blow up at coincident sites.
MIN_SITE_SEPARATION = 1e-9


def level_count(gamma):
    """k such that gamma lies in (k, k+1]."""
    if not (gamma > 0):
        raise ValueError("gamma must be positive")
    return int(math.ceil(gamma)) - 1


def _site_array(sites):
    """Sites as a float (N, d) array with N >= 1 and finite coordinates."""
    sites = np.array(sites, dtype=float)
    if sites.ndim != 2 or sites.shape[0] < 1:
        raise ValueError("sites must be a nonempty (N, d) array")
    if not np.all(np.isfinite(sites)):
        raise ValueError("site coordinates must be finite")
    return sites


def _check_separation(sites):
    """Raise for the first site pair (i, j > i) closer than the tolerance."""
    n = sites.shape[0]
    tol = MIN_SITE_SEPARATION * max(1.0, float(np.max(np.abs(sites))))
    index = np.arange(n)
    first = n * n  # the smallest close pair i < j so far, as i * n + j
    for ri, ci in _x_blocks(sites, sites, tol):
        close = np.sqrt(_sq_dists(sites[ri], sites[ci])) < tol
        # every row of a block meets itself, at distance 0
        if np.count_nonzero(close) > close.shape[0]:
            r, c = np.nonzero(close)
            i, j = index[ri][r], index[ci][c]
            first = int((i * n + j)[i < j].min(initial=first))
    if first < n * n:
        i, j = divmod(first, n)
        raise ValueError(f"sites {i} and {j} are closer than the separation tolerance")


class LipFunction:
    """A jet family (psi^(0), ..., psi^(k)) over finite sites in R^d.

    ``levels[l]`` holds the level-l forms of all sites as one read-only
    (N,) + (d,)*l + (m,) array; ``form(i, l)`` views one of them.
    """

    __slots__ = ("dim", "codim", "gamma", "k", "sites", "levels")

    def __init__(self, gamma, sites, jets):
        gamma = float(gamma)
        k = level_count(gamma)
        sites = _site_array(sites)
        n, d = sites.shape

        jets = [list(per_site) for per_site in jets]
        if len(jets) != n:
            raise ValueError("one jet per site is required")
        codim = None
        for per_site in jets:
            if len(per_site) != k + 1:
                raise ValueError(
                    f"each site needs forms of degrees 0..{k}, "
                    f"got {len(per_site)}"
                )
            for lvl, form in enumerate(per_site):
                if not isinstance(form, SymForm):
                    raise TypeError("jet entries must be SymForm instances")
                if form.degree != lvl or form.dim != d:
                    raise ValueError(
                        f"level {lvl} form has degree {form.degree}, "
                        f"dim {form.dim}; expected degree {lvl}, dim {d}"
                    )
                if codim is None:
                    codim = form.codim
                elif form.codim != codim:
                    raise ValueError("all forms must share the same codim")
        _check_separation(sites)
        self._fill(gamma, sites, [np.array([per_site[l].coeffs for per_site in jets]) for l in range(k + 1)])

    @classmethod
    def _from_levels(cls, gamma, sites, levels):
        """A LipFunction over sites and level arrays that have passed the
        checks already (or are the same sites, or a subset of separated
        ones): nothing is checked or copied."""
        f = object.__new__(cls)
        f._fill(gamma, sites, levels)
        return f

    def _fill(self, gamma, sites, levels):
        for arr in (sites, *levels):
            arr.setflags(write=False)
        values = (sites.shape[1], levels[0].shape[-1], gamma, level_count(gamma), sites, tuple(levels))
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("LipFunction is immutable")

    @property
    def n_sites(self):
        return self.sites.shape[0]

    def form(self, site_idx, level):
        return SymForm._view(self.dim, self.levels[level][site_idx])

    def __repr__(self):
        return (
            f"LipFunction(gamma={self.gamma}, d={self.dim}, m={self.codim}, "
            f"sites={self.n_sites})"
        )


@dataclass
class NormReport:
    """Outcome of a Lip(eta) norm computation.

    ``pointwise[l]`` is the sup over sites of the level-l operator norm
    and ``holder[l]`` the sup over ordered site pairs of the remainder
    quotient. Witness entries record where each sup is attained.
    """

    eta: float
    pointwise: list = field(default_factory=list)
    pointwise_witness: list = field(default_factory=list)
    holder: list = field(default_factory=list)
    holder_witness: list = field(default_factory=list)
    overall: float = 0.0

    def recompute_overall(self):
        vals = list(self.pointwise) + list(self.holder)
        self.overall = max(vals) if vals else 0.0
        return self.overall


def _check_level(f, l):
    if not (0 <= l <= f.k):
        raise ValueError(f"level {l} out of range [0, {f.k}]")


def _check_site(f, idx):
    if not (0 <= idx < f.n_sites):
        raise IndexError(f"site index {idx} out of range")


def remainder(f, l, x_idx, y_idx):
    """Taylor remainder R_l(x, y) of the full jet, a degree-l form."""
    _check_level(f, l)
    _check_site(f, x_idx)
    _check_site(f, y_idx)
    return truncated_remainder(f, f.k, l, x_idx, y_idx)


def truncated_remainder(f, q, l, x_idx, y_idx):
    """Remainder of the order-q truncation: psi^(l)(y) minus the
    expansion of levels l..q propagated from x."""
    if not (0 <= l <= q <= f.k):
        raise ValueError(f"need 0 <= l <= q <= k, got l={l}, q={q}, k={f.k}")
    _check_site(f, x_idx)
    _check_site(f, y_idx)
    base = [level[x_idx : x_idx + 1] for level in f.levels[: q + 1]]
    step = f.sites[y_idx] - f.sites[x_idx]
    rem = f.levels[l][y_idx] - _expansion(base, l, step[None, None, :])[0, 0]
    return SymForm(l, f.dim, f.codim, rem)


def _expansion(base, l, steps):
    """Sum of base[l+s][step^s] / s! over s = 0..len(base)-1-l, per step.

    ``base[j]`` stacks the level-j coefficient arrays of r base sites,
    shape (r,) + (d,)*j + (m,); ``steps`` has shape (r, n, d), n steps
    from each base site. Returns the degree-l coefficient arrays, shape
    (r, n) + (d,)*l + (m,).
    """
    r, n, d = steps.shape
    acc = np.repeat(base[l][:, None], n, axis=1)
    fact = 1.0
    for s in range(1, len(base) - l):
        fact *= s
        tail = base[l + s].shape[2:]
        term = np.matmul(steps, base[l + s].reshape(r, d, -1)).reshape((r, n) + tail)
        for _ in range(s - 1):
            term = np.einsum("rnd,rnd...->rn...", steps, term)
        acc += term / fact
    return acc


def lip_norm(f, eta):
    """Exact Lip(eta) norm of the truncation of f to level q = ceil(eta)-1.

    Blocks of base sites i (sized like the covering module's
    pair-distance blocks) give one (r, N) table per level: the
    remainders against every site j in one batch, their operator norms
    divided by ||y_j - x_i||^(eta-l).
    Every witness is the first maximum in index order: the site for a
    pointwise sup, the ordered pair (i, j) for a Holder sup, which is
    None when the sup is 0. A remainder whose operator norm overflows
    (inf or NaN) raises ArithmeticError naming its level and pair.
    """
    eta = float(eta)
    if not (0 < eta <= f.gamma):
        raise ValueError(f"eta must lie in (0, {f.gamma}], got {eta}")
    q = level_count(eta)
    n, d, m = f.n_sites, f.dim, f.codim
    levels = f.levels[: q + 1]

    report = NormReport(eta=eta)
    for stack in levels:
        norms = _op_norms(stack)
        best_idx = int(np.argmax(norms))
        report.pointwise.append(float(norms[best_idx]))
        report.pointwise_witness.append(best_idx)

    report.holder = [0.0] * (q + 1)
    report.holder_witness = [None] * (q + 1)
    for start, stop in _row_blocks(n, n * d**q * m):
        rows = np.arange(stop - start)
        steps = f.sites[None] - f.sites[start:stop, None]
        gaps = np.sqrt(_sq_dists(f.sites[start:stop], f.sites))
        gaps[rows, start + rows] = 1.0
        base = [stack[start:stop] for stack in levels]
        for l in range(q + 1):
            rem = levels[l][None] - _expansion(base, l, steps)
            norms = _op_norms(rem.reshape(gaps.size, -1, m)).reshape(gaps.shape)
            quot = norms / gaps ** (eta - l)
            quot[rows, start + rows] = 0.0
            # argmax takes the first maximum, or the first NaN if there is one
            i, j = np.unravel_index(int(np.argmax(quot)), quot.shape)
            best = float(quot[i, j])
            if not math.isfinite(best):
                bad = ~np.isfinite(norms)
                if bad.any():
                    i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
                    raise ArithmeticError(f"level {l} remainder at pair ({start + int(i)}, {int(j)}) overflows")
                # a zero remainder over a power that underflows to 0 gave 0/0
                quot[norms == 0.0] = 0.0
                i, j = np.unravel_index(int(np.argmax(quot)), quot.shape)
                best = float(quot[i, j])
            if best > report.holder[l]:
                report.holder[l] = best
                report.holder_witness[l] = (start + int(i), int(j))

    report.recompute_overall()
    return report


def proposal_eval(f, x_idx, y):
    """Value at y of the degree-k polynomial proposed by the jet at x."""
    _check_site(f, x_idx)
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape[0] != f.dim:
        raise ValueError("point length does not match jet dimension")
    base = [level[x_idx : x_idx + 1] for level in f.levels]
    return _expansion(base, 0, (y - f.sites[x_idx])[None, None, :])[0, 0]


def holder_estimate_check(f, x_idx, w_idx, y, z, norm=None):
    """Check the two-base-point proposal estimate.

    Compares ||Psi_x(y) - Psi_w(z)|| against
    M * (e^(r1) ||y-z|| + (e^(r2) + e^(1+||z-x||)) ||x-w||^(gamma-k))
    with r1 = max(||x-z||, ||x-y||) and r2 = max(||z-w||, ||z-x||).
    Requires gamma > 1 and the displacement caps ||x-w|| <= 1,
    ||y-z|| <= 1. Returns (lhs, rhs, ok).
    """
    if f.k < 1:
        raise ValueError("estimate requires gamma > 1")
    _check_site(f, x_idx)
    _check_site(f, w_idx)
    y = np.asarray(y, dtype=float).reshape(-1)
    z = np.asarray(z, dtype=float).reshape(-1)
    x = f.sites[x_idx]
    w = f.sites[w_idx]
    d_xw = float(np.linalg.norm(x - w))
    d_yz = float(np.linalg.norm(y - z))
    if d_xw > 1.0 or d_yz > 1.0:
        raise ValueError("estimate assumes ||x-w|| <= 1 and ||y-z|| <= 1")

    if norm is None:
        norm = lip_norm(f, f.gamma).overall
    lhs = float(np.linalg.norm(proposal_eval(f, x_idx, y) - proposal_eval(f, w_idx, z)))
    r1 = max(float(np.linalg.norm(x - z)), float(np.linalg.norm(x - y)))
    r2 = max(float(np.linalg.norm(z - w)), float(np.linalg.norm(z - x)))
    rhs = norm * (
        math.exp(r1) * d_yz
        + (math.exp(r2) + math.exp(1.0 + float(np.linalg.norm(z - x))))
        * d_xw ** (f.gamma - f.k)
    )
    ok = lhs <= rhs * (1.0 + 1e-9)
    return lhs, rhs, ok


def _finite(levels):
    """The level arrays, once checked for overflow in the arithmetic that made them."""
    if not all(np.isfinite(level).all() for level in levels):
        raise ValueError("coefficients must be finite")
    return levels


def diff(f, g):
    """Level-wise difference f - g on an identical site list."""
    if (f.dim, f.codim, f.gamma) != (g.dim, g.codim, g.gamma):
        raise ValueError("jets must share dimension, codim, and gamma")
    if f.n_sites != g.n_sites or not np.array_equal(f.sites, g.sites):
        raise ValueError("jets must share an identical site list")
    levels = _finite([a - b for a, b in zip(f.levels, g.levels)])
    return LipFunction._from_levels(f.gamma, f.sites, levels)


def scale(f, c):
    c = float(c)
    return LipFunction._from_levels(f.gamma, f.sites, _finite([level * c for level in f.levels]))


def truncate(f, q):
    """Drop levels above q; the result carries gamma = q + 1."""
    q = int(q)
    if not (0 <= q <= f.k):
        raise ValueError(f"truncation level {q} out of range [0, {f.k}]")
    return LipFunction._from_levels(float(q + 1), f.sites, f.levels[: q + 1])


def restrict(f, indices):
    """Keep only the listed sites (order preserved, duplicates rejected)."""
    indices = [int(i) for i in indices]
    if not indices:
        raise ValueError("restriction to an empty site set is not allowed")
    if len(set(indices)) != len(indices):
        raise ValueError("duplicate indices in restriction")
    for i in indices:
        _check_site(f, i)
    return LipFunction._from_levels(f.gamma, f.sites[indices], [level[indices] for level in f.levels])
