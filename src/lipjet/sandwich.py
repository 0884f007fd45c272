"""Certificate checking for the three closeness-transfer theorems.

A certificate records the hypothesis checks (norm caps, cover
verification, jet gaps), the guaranteed bound, and the directly
measured conclusion quantity. A valid certificate whose conclusion
fails would contradict the underlying theorems, so the pair
(valid, conclusion_holds) doubles as a soundness probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    delta0_pointwise,
    delta0_single_point,
    sandwich_constants,
)
from .covering import _sq_dists, cube_bound, greedy_cover, is_cover
from .jets import LipFunction, diff, level_count, lip_norm, restrict, truncate
from .tensor_core import SymForm, _op_norms

# Relative slack absorbing floating-point rounding in norm computations.
REL_SLACK = 1e-9


@dataclass
class Certificate:
    theorem: str
    inputs: dict
    delta0: float
    hypothesis_report: dict
    guaranteed_bound: float
    measured_value: float
    valid: bool
    conclusion_holds: bool
    extra: dict = field(default_factory=dict)

    def failed_checks(self):
        return [
            (name, margin)
            for name, ok, margin in self.hypothesis_report["checks"]
            if not ok
        ]


@dataclass
class Plan:
    sites: object
    eps: float
    K1: float
    K2: float
    gamma: float
    eta: float
    mode: str
    delta0: float
    eps0: float
    center_indices: list
    N: int
    l: int = None
    cube_ceiling: object = None


def _jet_gap(f, g, sites, max_level):
    """Largest level-l operator norm of f - g over the listed sites, l <= max_level."""
    h = diff(f, g)
    return max(float(_op_norms(h.levels[l][sites]).max()) for l in range(max_level + 1))


def _shared_structure(f, g):
    if (f.dim, f.codim, f.gamma) != (g.dim, g.codim, g.gamma):
        raise ValueError("jets must share dimension, codim, and gamma")
    if f.n_sites != g.n_sites or not np.array_equal(f.sites, g.sites):
        raise ValueError("jets must share an identical site list")


def _check_k_pair(K1, K2):
    if K1 < 0 or K2 < 0 or (K1 == 0 and K2 == 0):
        raise ValueError("need K1, K2 >= 0 with (K1, K2) != (0, 0)")


def _hypothesis_checks(f, g, K1, K2, eps0, gap_sites, max_level):
    """Norm caps plus jet gaps at the listed sites. Returns (report, worst_gap)."""
    norm_f = lip_norm(f, f.gamma).overall
    norm_g = lip_norm(g, g.gamma).overall
    checks = [
        ("psi_norm_le_K1", norm_f <= K1 * (1 + REL_SLACK), norm_f - K1),
        ("phi_norm_le_K2", norm_g <= K2 * (1 + REL_SLACK), norm_g - K2),
    ]
    worst_gap = _jet_gap(f, g, gap_sites, max_level)
    checks.append(
        ("jet_gaps_le_eps0", worst_gap <= eps0 * (1 + REL_SLACK) + 1e-300, worst_gap - eps0)
    )
    report = {
        "psi_norm": norm_f,
        "phi_norm": norm_g,
        "worst_gap": worst_gap,
        "checks": checks,
    }
    return report


def certify_pointwise(f, g, B, eps, eps0, K1, K2, l):
    """Closeness on a cover transfers to level-wise closeness everywhere.

    Hypotheses: norm caps K1, K2; B a delta0-cover for the radius
    derived from (eps, eps0, K1 + K2, gamma, l); jet gaps at most eps0
    on B at every level. Conclusion measured: the largest level-s gap,
    s <= l, over all sites.
    """
    _shared_structure(f, g)
    _check_k_pair(K1, K2)
    eps = float(eps)
    eps0 = float(eps0)
    if not (0 <= eps0 < min(K1 + K2, eps)):
        raise ValueError("need 0 <= eps0 < min(K1 + K2, eps)")
    l = int(l)
    if not (0 <= l <= f.k):
        raise ValueError(f"l must lie in [0, {f.k}]")
    B = sorted({int(i) for i in B})
    if not B:
        raise ValueError("B must be nonempty")

    d0 = delta0_pointwise(eps, eps0, K1 + K2, f.gamma, l).value
    report = _hypothesis_checks(f, g, K1, K2, eps0, B, f.k)
    cover_ok, witness = is_cover(f.sites, B, d0)
    report["checks"].append(("B_is_delta0_cover", cover_ok, witness))
    valid = all(ok for _, ok, _ in report["checks"])

    measured = _jet_gap(f, g, slice(None), l)
    holds = measured <= eps * (1 + REL_SLACK)
    return Certificate(
        theorem="pointwise",
        inputs={"eps": eps, "eps0": eps0, "K1": K1, "K2": K2, "l": l, "B": B},
        delta0=d0,
        hypothesis_report=report,
        guaranteed_bound=eps,
        measured_value=measured,
        valid=valid,
        conclusion_holds=holds,
    )


def certify_single_point(f, g, anchor, eps, eps0, K1, K2, eta):
    """Closeness at one anchor transfers to a Lip(eta) bound on a ball.

    The measured value is the Lip(eta) norm of the truncated difference
    restricted to the sites within delta0 of the anchor.
    """
    _shared_structure(f, g)
    _check_k_pair(K1, K2)
    eps = float(eps)
    eps0 = float(eps0)
    eta = float(eta)
    if not (0 < eta < f.gamma):
        raise ValueError("need 0 < eta < gamma")
    if not (0 <= eps0 < min(K1 + K2, eps)):
        raise ValueError("need 0 <= eps0 < min(K1 + K2, eps)")
    anchor = int(anchor)
    if not (0 <= anchor < f.n_sites):
        raise IndexError("anchor index out of range")

    d0 = delta0_single_point(eps, eps0, K1 + K2, f.gamma, eta).value
    report = _hypothesis_checks(f, g, K1, K2, eps0, [anchor], f.k)
    valid = all(ok for _, ok, _ in report["checks"])

    dists = np.sqrt(_sq_dists(f.sites[anchor : anchor + 1], f.sites)[0])
    ball = [int(i) for i in np.flatnonzero(dists <= d0)]
    q = level_count(eta)
    local = restrict(truncate(diff(f, g), q), ball)
    measured = lip_norm(local, eta).overall
    holds = measured <= eps * (1 + REL_SLACK)
    return Certificate(
        theorem="single_point",
        inputs={
            "eps": eps,
            "eps0": eps0,
            "K1": K1,
            "K2": K2,
            "eta": eta,
            "anchor": anchor,
        },
        delta0=d0,
        hypothesis_report=report,
        guaranteed_bound=eps,
        measured_value=measured,
        valid=valid,
        conclusion_holds=holds,
        extra={"ball_indices": ball},
    )


def certify_full(f, g, B, eps, K1, K2, eta):
    """Closeness on a cover transfers to a global Lip(eta) bound.

    delta0 and eps0 are derived internally from (eps, K1 + K2, gamma,
    eta); the caller supplies only the cover B. The measured value is
    the Lip(eta) norm of the truncated difference over all sites.
    """
    _shared_structure(f, g)
    _check_k_pair(K1, K2)
    eps = float(eps)
    eta = float(eta)
    if not (0 < eta < f.gamma):
        raise ValueError("need 0 < eta < gamma")
    B = sorted({int(i) for i in B})
    if not B:
        raise ValueError("B must be nonempty")

    consts = sandwich_constants(eps, K1 + K2, f.gamma, eta)
    report = _hypothesis_checks(f, g, K1, K2, consts.eps0, B, f.k)
    cover_ok, witness = is_cover(f.sites, B, consts.delta0)
    report["checks"].append(("B_is_delta0_cover", cover_ok, witness))
    valid = all(ok for _, ok, _ in report["checks"])

    q = level_count(eta)
    measured = lip_norm(truncate(diff(f, g), q), eta).overall
    holds = measured <= eps * (1 + REL_SLACK)
    return Certificate(
        theorem="full",
        inputs={"eps": eps, "K1": K1, "K2": K2, "eta": eta, "B": B},
        delta0=consts.delta0,
        hypothesis_report=report,
        guaranteed_bound=eps,
        measured_value=measured,
        valid=valid,
        conclusion_holds=holds,
        extra={"eps0": consts.eps0, "theta_aux": consts.theta_aux},
    )


def plan_approximation(sites, eps, K1, K2, gamma, eta=None, mode="lip", l=None, eps0=None, cube=False):
    """Pick (delta0, eps0), build a greedy cover, and report its size.

    In "lip" mode the tolerance pair comes from the global transfer
    constants; in "pointwise" mode the caller supplies eps0 and the
    level l. With ``cube=True`` the volume ceiling for the unit cube is
    attached for comparison.
    """
    sites = np.asarray(sites, dtype=float)
    if sites.ndim == 1:
        sites = sites.reshape(-1, 1)
    if sites.shape[0] < 1:
        raise ValueError("sites must be nonempty")
    _check_k_pair(K1, K2)
    K0 = K1 + K2

    if mode == "lip":
        if eta is None:
            raise ValueError("lip mode requires eta")
        consts = sandwich_constants(eps, K0, gamma, eta)
        d0, e0 = consts.delta0, consts.eps0
    elif mode == "pointwise":
        if l is None or eps0 is None:
            raise ValueError("pointwise mode requires l and eps0")
        d0 = delta0_pointwise(eps, eps0, K0, gamma, l).value
        e0 = float(eps0)
    else:
        raise ValueError("mode must be 'lip' or 'pointwise'")

    plan = greedy_cover(sites, d0)
    ceiling = cube_bound(sites.shape[1], d0) if cube else None
    return Plan(
        sites=sites,
        eps=float(eps),
        K1=float(K1),
        K2=float(K2),
        gamma=float(gamma),
        eta=None if eta is None else float(eta),
        mode=mode,
        delta0=d0,
        eps0=e0,
        center_indices=plan.center_indices,
        N=len(plan.center_indices),
        l=l,
        cube_ceiling=ceiling,
    )


# ---------------------------------------------------------------------------
# sharpness and tightness generators


def _scalar_jet(gamma, xs, levels):
    """One-dimensional scalar jet: levels[l][i] is the level-l value at xs[i]."""
    sites = np.asarray(xs, dtype=float).reshape(-1, 1)
    jets = [[SymForm(l, 1, 1, [levels[l][i]]) for l in range(level_count(gamma) + 1)] for i in range(len(sites))]
    return LipFunction(gamma, sites, jets)


def counterexample(kind, **params):
    """Generators for the equality and sharpness instances.

    Returns (f, g, expected) where g is None for the single-jet kinds
    and expected is the closed-form norm the instance attains.
    """
    if kind == "eta_equals_gamma":
        K0 = float(params.get("K0", 1.0))
        eps = float(params.get("eps", 0.5))
        N = int(params.get("N", 10))
        if not (K0 > eps / 2 > 0) or N < 1:
            raise ValueError("need K0 > eps/2 > 0 and N >= 1")
        x0 = 1.0 / N
        f = _scalar_jet(1.0, [0.0, x0], [[0.0, K0 / N]])
        g = _scalar_jet(1.0, [0.0, x0], [[0.0, -K0 / N]])
        return f, g, 2.0 * K0

    if kind == "eps0_dependence":
        eps0 = float(params.get("eps0", 0.1))
        eps = float(params.get("eps", 0.5))
        K0 = float(params.get("K0", 2.0))
        if not (0 < eps0 < eps < 1 < K0):
            raise ValueError("need 0 < eps0 < eps < 1 < K0")
        if not (2 * eps0 * K0 > eps**2):
            raise ValueError("need 2 * eps0 * K0 > eps^2")
        if 2 * eps0 > K0:
            raise ValueError("need 2 * eps0 <= K0 so the norm cap holds")
        x0 = 2.0 * eps0 / K0
        f = _scalar_jet(0.5, [0.0, x0], [[-eps0, eps0]])
        g = _scalar_jet(0.5, [0.0, x0], [[0.0, 0.0]])
        return f, g, math.sqrt(2.0 * eps0 * K0)

    if kind == "nesting_a":
        xs = [-1.0, 0.0, 1.0]
        f = _scalar_jet(2.0, xs, [[x**2 for x in xs], [2.0 * x for x in xs]])
        return f, None, 2.0 * math.sqrt(2.0)

    if kind == "nesting_b":
        A = float(params.get("A", 1.0))
        if not (A > 0):
            raise ValueError("need A > 0")
        f = _scalar_jet(2.0, [0.0, 1.0], [[-A, A], [A, A]])
        return f, None, 2.0 * A

    raise ValueError(f"unknown counterexample kind: {kind}")
