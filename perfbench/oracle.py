"""Independent numpy restatements used to build inputs and check outputs.

Nothing here imports lipjet. A jet is held as plain arrays: ``sites``
of shape (N, d) and ``levels[l]`` of shape (N,) + (d,)*l + (m,), the
level-l symmetric form at every site. The checks compare lipjet's
answers against these restatements, so they keep passing when a later
change makes lipjet faster but must fail when it makes lipjet wrong.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Relative agreement required between lipjet and the oracle.
REL_TOL = 1e-9
# Slack for "the returned radius satisfies its defining inequality".
INEQ_SLACK = 1e-12
# A radius r is near its maximum when its system fails somewhere in
# (r, r * (1 + NEAR_MAX_REL) + abs_tol]. The scan-and-bisect searches
# stop within 1e-10 of the boundary and step back by 1e-10, so they get
# SCAN_ABS_TOL; the monotone bisections are exact to rounding and get 0.
NEAR_MAX_REL = 1e-6
SCAN_ABS_TOL = 1e-9


# ---------------------------------------------------------------------------
# jets as arrays


def symmetrize(arr, degree):
    """Average arr over all permutations of its first ``degree`` axes."""
    if degree < 2:
        return arr
    perms = list(itertools.permutations(range(degree)))
    acc = np.zeros_like(arr)
    for perm in perms:
        acc += np.transpose(arr, perm + (degree,))
    return acc / len(perms)


def random_sites(rng, n, d, min_gap=1e-6):
    """n points of [0, 1]^d, redrawn until no two are closer than min_gap."""
    while True:
        sites = rng.random((n, d))
        if n == 1 or pairwise_dists(sites)[np.triu_indices(n, 1)].min() >= min_gap:
            return sites


def random_levels(rng, n, d, m, k):
    """Symmetric standard-normal forms of degrees 0..k at n sites."""
    levels = []
    for l in range(k + 1):
        raw = rng.standard_normal((n,) + (d,) * l + (m,))
        levels.append(np.stack([symmetrize(raw[i], l) for i in range(n)]))
    return levels


def batch_op_norm(forms):
    """Operator norm of each form in a stack of shape (N,) + (d,)*l + (m,)."""
    n, m = forms.shape[0], forms.shape[-1]
    mat = forms.reshape(n, -1, m)
    if m == 1:
        return np.sqrt(np.sum(mat * mat, axis=(1, 2)))
    return np.linalg.norm(mat, ord=2, axis=(1, 2))


def pairwise_dists(sites):
    diff = sites[:, None, :] - sites[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def lip_norm_oracle(sites, levels, eta):
    """Per-level sups and full quotient tables of the Lip(eta) norm.

    Returns (pointwise, holder, quotients): pointwise[l] is the per-site
    operator norm vector, quotients[l][i, j] the level-l remainder
    quotient of the ordered pair (i, j) (0 on the diagonal), and
    holder[l] its maximum.
    """
    q = int(math.ceil(eta)) - 1
    n = sites.shape[0]
    gaps = pairwise_dists(sites)
    np.fill_diagonal(gaps, 1.0)
    pointwise, holder, quotients = [], [], []
    for l in range(q + 1):
        pointwise.append(batch_op_norm(levels[l]))
        table = np.zeros((n, n))
        for i in range(n):
            steps = sites - sites[i]
            acc = levels[l].copy()
            fact = 1.0
            for s in range(q - l + 1):
                if s > 0:
                    fact *= s
                term = np.broadcast_to(levels[l + s][i], (n,) + levels[l + s][i].shape)
                for _ in range(s):
                    term = np.einsum("nd...,nd->n...", term, steps)
                acc = acc - term / fact
            table[i] = batch_op_norm(acc) / gaps[i] ** (eta - l)
            table[i, i] = 0.0
        quotients.append(table)
        holder.append(float(table.max()) if n > 1 else 0.0)
    return pointwise, holder, quotients


def lip_norm_value(sites, levels, eta):
    pointwise, holder, _ = lip_norm_oracle(sites, levels, eta)
    return max([float(p.max()) for p in pointwise] + holder)


def worst_site_gap(levels):
    """Largest level-wise operator norm of a jet over its sites."""
    return max(float(batch_op_norm(lv).max()) for lv in levels)


def close(a, b, rel=REL_TOL):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_norm_report(report, oracle):
    """Compare a lipjet NormReport with lip_norm_oracle's tables.

    Ties cannot fail the check: a witness pair passes when the oracle's
    quotient there equals the reported sup.
    """
    pointwise, holder, quotients = oracle
    problems = []
    if len(report.holder) != len(holder):
        return [f"{len(report.holder)} levels, oracle has {len(holder)}"]
    for l in range(len(holder)):
        want_pw = float(pointwise[l].max())
        if not close(report.pointwise[l], want_pw):
            problems.append(f"level {l} pointwise {report.pointwise[l]!r} != {want_pw!r}")
        elif not close(float(pointwise[l][report.pointwise_witness[l]]), report.pointwise[l]):
            problems.append(f"level {l} pointwise witness does not attain the sup")
        if not close(report.holder[l], holder[l]):
            problems.append(f"level {l} holder {report.holder[l]!r} != {holder[l]!r}")
            continue
        pair = report.holder_witness[l]
        if pair is None:
            if holder[l] != 0.0:
                problems.append(f"level {l} holder witness missing")
        elif not close(float(quotients[l][pair[0], pair[1]]), report.holder[l]):
            problems.append(f"level {l} witness {pair} does not attain the sup")
    want = max([float(p.max()) for p in pointwise] + list(holder))
    if not close(report.overall, want):
        problems.append(f"overall {report.overall!r} != {want!r}")
    return problems


# ---------------------------------------------------------------------------
# covers


def _nearest(points, targets, exclude_self=False, chunk=256):
    """Distance from each point to its nearest target, in row chunks."""
    out = np.empty(points.shape[0])
    for lo in range(0, points.shape[0], chunk):
        block = points[lo : lo + chunk]
        dist = np.sqrt(((block[:, None, :] - targets[None, :, :]) ** 2).sum(-1))
        if exclude_self:
            rows = np.arange(block.shape[0])
            dist[rows, lo + rows] = np.inf
        out[lo : lo + chunk] = dist.min(axis=1)
    return out


def cover_problems(sites, centers, delta):
    """Centres must delta-cover every site and be pairwise more than delta apart."""
    centers = np.asarray(centers, dtype=int)
    if centers.size == 0 or centers.min() < 0 or centers.max() >= sites.shape[0]:
        return ["centre indices missing or out of range"]
    problems = []
    pts = sites[centers]
    uncovered = np.flatnonzero(_nearest(sites, pts) > delta)
    if uncovered.size:
        problems.append(f"site {int(uncovered[0])} is not within {delta} of a centre")
    if centers.size > 1 and _nearest(pts, pts, exclude_self=True).min() <= delta:
        problems.append(f"two centres are within {delta} of each other")
    return problems


# ---------------------------------------------------------------------------
# the explicit constants, restated from their defining inequalities


def level(x):
    return int(math.ceil(x)) - 1


def _le(lhs, rhs):
    return lhs <= rhs + INEQ_SLACK * max(abs(rhs), 1.0)


def fails_just_above(r, holds, args, abs_tol, points=64):
    """Whether ``holds(t, *args)`` is false at some grid t in (r, r * (1 + NEAR_MAX_REL) + abs_tol]."""
    if r >= 1.0:
        return True
    hi = min(1.0, r * (1 + NEAR_MAX_REL) + abs_tol)
    return any(not holds(r + (hi - r) * i / points, *args) for i in range(1, points + 1))


def delta0_pointwise_holds(t, eps, eps0, K, gamma, l):
    return _le(K * t ** (gamma - l) + eps0 * math.exp(t), min(K, eps))


def single_high_holds(t, eps, eps0, K, gamma, eta):
    """Both inequalities of the single-anchor radius for eta above k."""
    k = level(gamma)
    target = min(K, eps)
    return _le(K * (2 * t) ** (gamma - eta), target) and _le(
        K * t ** (gamma - k) + eps0 * math.exp(t), target
    )


def delta_star_holds(t, A, r0, rho):
    """The five inequalities defining the E-recursion radius."""
    n = level(rho)
    half = (rho - n) / 2
    two = 2 * t
    if two >= 1.0:
        return False
    root = math.sqrt(two)
    r0e = r0 * math.exp(t)
    geom = (1 - two**n) / (1 - two)
    return (
        max(1 + root, 1 + two**half) < 2
        and _le(r0e, A * (1 - t ** (rho - n)))
        and _le((2**half - t**half) * t**half * A, r0e)
        and _le(2 * root * (t ** (rho - n) * A + r0e), r0e)
        and _le(root * (2**n * (t ** (rho - n) * A + r0 * t * math.exp(t)) + 2 * r0e * geom), r0e)
    )


def single_low_holds(t, eps, eps0, K, gamma, eta):
    """The five-condition system of the single-anchor radius, eta <= k."""
    k = level(gamma)
    q = level(eta)
    half = (gamma - k) / 2
    expo = (gamma - eta) / 2 + (q + 1 - eta) / 2
    two = 2 * t
    if two >= 1.0:
        return False
    root = math.sqrt(two)
    e_t = math.exp(t)
    ok = (
        max(1 + two**half, 1 + root) < 2
        and _le(two**expo, eps / (2 ** (k - q) * K))
        and _le((1 + two**half) * (t ** (gamma - k) * K + eps0 * e_t), eps)
        and _le(
            2 ** (k - q) * (t ** (gamma - k) * K + eps0 * t * e_t) + (1 + root) / (1 - two) * eps0 * e_t,
            eps,
        )
        and _le(eps0 * e_t, (1 - t) * eps)
    )
    if ok and eps0 > 0:
        ok = delta_star_holds(t, K, eps0, gamma)
    return ok


def single_point_holds(t, eps, eps0, K, gamma, eta):
    if eta > level(gamma):
        return single_high_holds(t, eps, eps0, K, gamma, eta)
    return single_low_holds(t, eps, eps0, K, gamma, eta)


def sandwich_problems(consts, eps, K, gamma, eta):
    """delta0 halves a maximal feasible single-anchor radius; eps0 follows from it."""
    theta = 1.0 / (2.0 * (1.0 + math.e))
    eps_c = min(eps, K)
    d0 = consts.delta0
    problems = []
    if not (0 < d0 <= 0.5):
        problems.append(f"delta0 {d0!r} outside (0, 1/2]")
        return problems
    if not close(consts.theta_aux, theta):
        problems.append(f"theta_aux {consts.theta_aux!r} != {theta!r}")
    single = (theta * eps_c, 0.5 * theta * eps_c, K, gamma, eta)
    if d0 < 0.5 and not single_point_holds(2 * d0, *single):
        problems.append(f"2*delta0 = {2 * d0!r} violates the single-anchor conditions")
    elif not fails_just_above(2 * d0, single_point_holds, single, SCAN_ABS_TOL if eta <= level(gamma) else 0.0):
        problems.append(f"2*delta0 = {2 * d0!r} is not maximal: the single-anchor conditions hold just above it")
    eps0 = min(theta, d0**eta / (math.exp(d0) * (1.0 + math.exp(d0)))) * eps_c / 2.0
    if not close(consts.eps0, eps0):
        problems.append(f"eps0 {consts.eps0!r} != {eps0!r}")
    return problems


def nesting_value(rho, theta, diam):
    n, q = level(rho), level(theta)
    e = math.e
    if theta > n:
        return max(1.0, min(1.0 + e, diam ** (rho - theta)))
    c1 = max(
        1.0,
        min(1.0 + e, diam ** (rho - theta) + sum(diam ** (j - theta) / math.factorial(j - q) for j in range(q + 1, n + 1))),
    )
    c2 = (
        max(1.0, min(1.0 + e, diam ** (q + 1 - theta)))
        * (1.0 + min(e, diam ** (rho - n)))
        * (1.0 + min(e, diam)) ** (n - (q + 1))
    )
    return min(c1, c2)


def remainder_branches(kind, rho, theta, l):
    """The increasing and decreasing branches whose max g / h minimise."""
    n = level(rho)
    q = level(theta)
    top = n if kind == "g" else q

    def down(r):
        return r ** -(theta - l) * (1.0 + sum(r**s / math.factorial(s) for s in range(top - l + 1)))

    if kind == "g":
        def up(r):
            return r ** (rho - theta)
    else:
        def up(r):
            return r ** (rho - theta) + sum(r ** (i - theta) / math.factorial(i - l) for i in range(q + 1, n + 1))

    return up, down


def infimum_problems(report, kind, rho, theta, l, diam, grid=400):
    """The value is max(up, down) at the reported radius, and no grid radius beats it."""
    up, down = remainder_branches(kind, rho, theta, l)
    value = report.value
    r_star = report.attained_at
    if r_star is None:
        at = down(diam)
        if up(diam) > down(diam) * (1 + REL_TOL):
            return [f"{kind}: limit case reported but the branches cross inside (0, diam)"]
    else:
        at = max(up(r_star), down(r_star))
    problems = []
    if not close(value, at):
        problems.append(f"{kind}: value {value!r} != max of branches {at!r}")
    rs = diam * np.logspace(-6, 0, grid)[:-1]
    best = min(max(up(float(r)), down(float(r))) for r in rs)
    if value > best * (1 + REL_TOL):
        problems.append(f"{kind}: value {value!r} exceeds the branch max {best!r} at a grid radius")
    return problems


def e_sequence_last(rho, theta, A, r0, delta):
    n, q = level(rho), level(theta)
    cur = (1.0 + (2.0 * delta) ** ((rho - n) / 2.0)) * max(
        (2.0 * delta) ** ((rho - n) / 2.0) * A, min(A, delta ** (rho - n) * A + r0 * math.exp(delta))
    )
    for _ in range(n - (q + 1)):
        cur = (1.0 + math.sqrt(2.0 * delta)) * max(
            math.sqrt(2.0 * delta) * cur, min(cur, delta * cur + r0 * math.exp(delta))
        )
    return cur


def local_bound_II_value(rho, theta, A, r0, delta):
    q = level(theta)
    e_last = e_sequence_last(rho, theta, A, r0, delta)
    return max((2 * delta) ** (q + 1 - theta) * e_last, min(e_last, delta * e_last + r0 * math.exp(delta)))
