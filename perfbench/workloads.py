"""The four workloads: inputs from a seed, one pass of ops, output checks.

Each workload exposes ``setup(rng, tiny)`` returning its state,
``ops(state)`` returning one pass as a list of (kind, callable),
``check(state, outputs)`` returning a Verdict, and ``sizes(state)``.
Ops call lipjet through module attributes (``jets.lip_norm``, not an
imported name) so that the traced run's wrappers see every call.

Input shapes are fixed per workload and only values come from the
seed, so the cost of a pass does not depend on which seed is drawn.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from lipjet import bounds, cli, covering, jets, sandwich
from lipjet.tensor_core import SymForm

import oracle


@dataclass
class Verdict:
    """Indices of ops whose output failed, their messages, and soundness violations."""

    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    soundness: list = field(default_factory=list)

    def fail(self, idx, message):
        self.failed.add(idx)
        self.problems.append(f"op {idx}: {message}")


def build_jet(gamma, sites, levels):
    n, d = sites.shape
    m = levels[0].shape[-1]
    forms = [[SymForm(l, d, m, levels[l][i]) for l in range(len(levels))] for i in range(n)]
    return jets.LipFunction(gamma, sites, forms)


def jet_levels(f):
    """The stored coefficients of a LipFunction as oracle arrays."""
    return [np.stack([f.form(i, l).coeffs for i in range(f.n_sites)]) for l in range(f.k + 1)]


def _check_outputs(outputs, verdict, judge):
    """Run judge(idx, kind, result) on every op that returned; record raised ops."""
    for idx, (kind, result) in enumerate(outputs):
        if isinstance(result, BaseException):
            verdict.fail(idx, f"{kind} raised {type(result).__name__}: {result}")
            continue
        try:
            messages = judge(idx, kind, result)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            messages = [f"malformed output ({type(exc).__name__}: {exc})"]
        for message in messages:
            verdict.fail(idx, f"{kind}: {message}")
    return verdict


# ---------------------------------------------------------------------------
# norm-scan: exact Lip(eta) norms, all work in the jets / tensor_core pair scan


class NormScan:
    name = "norm-scan"
    # (d, k, m, N): the shapes named in ROADMAP item 1, N = 200 once.
    SHAPES = [(2, 1, 1, 80), (3, 2, 1, 80), (2, 2, 3, 80), (2, 1, 1, 200)]
    TINY_SHAPES = [(2, 1, 1, 6), (3, 2, 1, 5), (2, 2, 3, 5), (2, 1, 1, 8)]

    def setup(self, rng, tiny):
        cases = []
        for d, k, m, n in self.TINY_SHAPES if tiny else self.SHAPES:
            sites = oracle.random_sites(rng, n, d)
            gamma = k + float(rng.uniform(0.4, 1.0))
            f = build_jet(gamma, sites, oracle.random_levels(rng, n, d, m, k))
            # eta = gamma, and one eta whose level count q is k - 1
            for eta in (gamma, (k - 1) + float(rng.uniform(0.3, 1.0))):
                cases.append((f, eta))
        return cases

    def ops(self, cases):
        return [(f"lip_norm(N={f.n_sites},d={f.dim},k={f.k},m={f.codim},q={oracle.level(eta)})",
                 lambda f=f, eta=eta: jets.lip_norm(f, eta)) for f, eta in cases]

    def check(self, cases, outputs):
        per_case = len(cases)
        tables = {}

        def judge(idx, kind, report):
            f, eta = cases[idx % per_case]
            if idx % per_case not in tables:
                tables[idx % per_case] = oracle.lip_norm_oracle(np.asarray(f.sites), jet_levels(f), eta)
            return oracle.check_norm_report(report, tables[idx % per_case])

        return _check_outputs(outputs, Verdict(), judge)

    def sizes(self, cases):
        return [{"N": f.n_sites, "d": f.dim, "k": f.k, "m": f.codim, "gamma": f.gamma, "eta": eta}
                for f, eta in cases]


# ---------------------------------------------------------------------------
# certify-mix: the three certificate checkers on many small jets


def _normed_levels(rng, sites, d, m, k, gamma, target):
    """Random levels rescaled so the jet's Lip(gamma) norm equals target."""
    while True:
        levels = oracle.random_levels(rng, sites.shape[0], d, m, k)
        norm = oracle.lip_norm_value(sites, levels, gamma)
        if norm > 1e-9:
            return [lv * (target / norm) for lv in levels]


def _close_pair(rng, d, m, k, n, K_target, eps0):
    """f of norm K_target and g = f + h with every jet gap 0.9 * eps0."""
    sites = oracle.random_sites(rng, n, d)
    gamma = k + float(rng.uniform(0.4, 1.0))
    f = _normed_levels(rng, sites, d, m, k, gamma, K_target)
    h = oracle.random_levels(rng, n, d, m, k)
    c = 0.9 * eps0 / max(oracle.worst_site_gap(h), 1e-300)
    g = [a + c * b for a, b in zip(f, h)]
    return sites, gamma, f, g


@dataclass
class Instance:
    """One certificate call: its keyword arguments, and the jets as oracle arrays."""

    theorem: str
    args: dict
    sites: np.ndarray
    f: list
    g: list
    gamma: float


class CertifyMix:
    """Instances follow the soundness-suite recipe (d 1-3, m 1-2, k 0-2,
    N 2-12, greedy cover on every third). Whatever sets an instance's
    cost is a fixed function of its index: the shape, the cover, which
    side of k eta lies on (single point) and eta's level (full). Only
    the values come from the seed."""

    name = "certify-mix"
    POOL = 108
    TINY_POOL = 6
    THEOREMS = ("pointwise", "single_point", "full")
    COMBOS = [(d, m, k) for d in (1, 2, 3) for m in (1, 2) for k in (0, 1, 2)]

    def setup(self, rng, tiny):
        pool = []
        for idx in range(self.TINY_POOL if tiny else self.POOL):
            theorem = self.THEOREMS[idx % 3]
            rep = idx // 3
            d, m, k = self.COMBOS[rep % len(self.COMBOS)]
            n = 2 + (5 * idx) % 11
            make = getattr(self, "_" + theorem)
            args, sites, f, g, gamma = make(rng, d, m, k, n, rep)
            args.update(f=build_jet(gamma, sites, f), g=build_jet(gamma, sites, g))
            pool.append(Instance(theorem, args, sites, f, g, gamma))
        return pool

    @staticmethod
    def _pointwise(rng, d, m, k, n, rep):
        K_target = float(rng.uniform(0.5, 3.0))
        eps = K_target * float(rng.uniform(0.4, 1.5))
        eps0 = float(rng.uniform(0.05, 0.5)) * min(eps, K_target)
        sites, gamma, f, g = _close_pair(rng, d, m, k, n, K_target, eps0)
        K1 = K_target * 1.000001
        K2 = oracle.lip_norm_value(sites, g, gamma) * 1.000001
        l = int(rng.integers(0, k + 1))
        B = list(range(n))
        if rep % 3 == 0:
            d0 = bounds.delta0_pointwise(eps, eps0, K1 + K2, gamma, l).value
            B = covering.greedy_cover(sites, d0).center_indices
        return dict(B=B, eps=eps, eps0=eps0, K1=K1, K2=K2, l=l), sites, f, g, gamma

    @staticmethod
    def _single_point(rng, d, m, k, n, rep):
        K_target = float(rng.uniform(0.5, 3.0))
        eps = K_target * float(rng.uniform(0.4, 1.5))
        eps0 = float(rng.uniform(0.05, 0.5)) * min(eps, K_target)
        sites, gamma, f, g = _close_pair(rng, d, m, k, n, K_target, eps0)
        # alternate exponents below and above the integer threshold k
        if k >= 1 and (rep // 3) % 2 == 0:
            eta = float(rng.uniform(0.05, k))
        else:
            eta = float(rng.uniform(k + 1e-3, gamma - 0.05))
        K1 = K_target * 1.000001
        K2 = oracle.lip_norm_value(sites, g, gamma) * 1.000001
        anchor = int(rng.integers(0, n))
        return dict(anchor=anchor, eps=eps, eps0=eps0, K1=K1, K2=K2, eta=eta), sites, f, g, gamma

    @staticmethod
    def _full(rng, d, m, k, n, rep):
        K_target = float(rng.uniform(0.5, 3.0))
        sites = oracle.random_sites(rng, n, d)
        gamma = k + float(rng.uniform(0.4, 1.0))
        f = _normed_levels(rng, sites, d, m, k, gamma, K_target)
        h = _normed_levels(rng, sites, d, m, k, gamma, 0.3 * K_target)
        K1 = K_target * 1.000001
        K2 = 1.3 * K_target * 1.000001
        eps = (K1 + K2) * float(rng.uniform(0.5, 1.5))
        q = (rep // 3) % (k + 1)
        eta = float(rng.uniform(q + 0.05, min(q + 1.0, gamma - 0.05)))
        consts = bounds.sandwich_constants(eps, K1 + K2, gamma, eta)
        c = min(1.0, 0.9 * consts.eps0 / max(oracle.worst_site_gap(h), 1e-300))
        if consts.eps0 < 1e-12 * K_target:
            # below float resolution relative to f: only g = f keeps the gaps under eps0
            c = 0.0
        g = [a + c * b for a, b in zip(f, h)]
        B = covering.greedy_cover(sites, consts.delta0).center_indices if rep % 3 == 0 else list(range(n))
        return dict(B=B, eps=eps, K1=K1, K2=K2, eta=eta), sites, f, g, gamma

    def ops(self, pool):
        return [(f"certify_{inst.theorem}",
                 lambda t=inst.theorem, a=inst.args: getattr(sandwich, "certify_" + t)(**a))
                for inst in pool]

    @staticmethod
    def expected(inst, cert):
        """The oracle's norms of f and g, worst jet gap and measured value for a certificate."""
        args, sites = inst.args, inst.sites
        gap = [a - b for a, b in zip(inst.f, inst.g)]
        if inst.theorem == "single_point":
            gap_sites = [args["anchor"]]
        else:
            gap_sites = sorted({int(i) for i in args["B"]})
        want = {
            "psi_norm": oracle.lip_norm_value(sites, inst.f, inst.gamma),
            "phi_norm": oracle.lip_norm_value(sites, inst.g, inst.gamma),
            "worst_gap": oracle.worst_site_gap([lv[gap_sites] for lv in gap]),
        }
        if inst.theorem == "pointwise":
            want["measured_value"] = oracle.worst_site_gap(gap[: args["l"] + 1])
            return want
        q = oracle.level(args["eta"])
        if inst.theorem == "single_point":
            dists = np.linalg.norm(sites - sites[args["anchor"]], axis=1)
            ball = np.flatnonzero(dists <= cert.delta0)
        else:
            ball = np.arange(sites.shape[0])
        want["measured_value"] = oracle.lip_norm_value(sites[ball], [lv[ball] for lv in gap[: q + 1]], args["eta"])
        return want

    def check(self, pool, outputs):
        verdict = Verdict()
        per_pass = len(pool)
        cache = {}

        def judge(idx, kind, cert):
            if cert.valid and not cert.conclusion_holds:
                verdict.soundness.append(
                    f"op {idx} {kind}: valid certificate whose conclusion fails "
                    f"(measured {cert.measured_value!r} > eps {cert.guaranteed_bound!r})"
                )
                return ["soundness violation"]
            problems = [] if cert.valid else [f"hypotheses rejected: {cert.failed_checks()}"]
            got = dict(cert.hypothesis_report, measured_value=cert.measured_value)
            key = (idx % per_pass, cert.delta0)
            if key not in cache:
                cache[key] = self.expected(pool[idx % per_pass], cert)
            for name, value in cache[key].items():
                if not oracle.close(got[name], value):
                    problems.append(f"{name} {got[name]!r} != oracle {value!r}")
            return problems

        return _check_outputs(outputs, verdict, judge)

    def sizes(self, pool):
        return [{"theorem": inst.theorem, "N": inst.sites.shape[0], "d": inst.sites.shape[1],
                 "m": inst.f[0].shape[-1], "k": len(inst.f) - 1} for inst in pool]


# ---------------------------------------------------------------------------
# constants-sweep: every bounds entry point. The scan-path draws keep
# gamma - k >= 0.4 and eps0 >= 0.05 * min(K, eps), the ranges of the
# sandwich-constants cross-validation test and the certify soundness
# suite. Outside them the 10^4-point scan at the seed can return a zero
# radius (see README, "Radii the scan cannot resolve").


def _k_gamma(rng, k_lo, k_hi):
    k = int(rng.integers(k_lo, k_hi + 1))
    return k, k + float(rng.uniform(0.4, 0.99))


def _draw_single_low(rng):
    k, gamma = _k_gamma(rng, 1, 3)
    K = float(rng.uniform(0.5, 4.0))
    eps = K * float(rng.uniform(0.4, 1.5))
    eps0 = float(rng.uniform(0.05, 0.5)) * min(eps, K)
    return (eps, eps0, K, gamma, float(rng.uniform(0.05, k)))


def _draw_single_high(rng):
    k, gamma = _k_gamma(rng, 0, 3)
    K = float(rng.uniform(0.5, 4.0))
    eps = K * float(rng.uniform(0.4, 1.5))
    eps0 = float(rng.uniform(0.05, 0.5)) * min(eps, K)
    return (eps, eps0, K, gamma, float(rng.uniform(k + 0.01, gamma - 0.01)))


def _draw_sandwich_low(rng):
    k, gamma = _k_gamma(rng, 1, 3)
    K = float(rng.uniform(0.5, 4.0))
    return (K * float(rng.uniform(0.4, 1.5)), K, gamma, float(rng.uniform(0.02, k)))


def _draw_sandwich_high(rng):
    k, gamma = _k_gamma(rng, 0, 3)
    K = float(rng.uniform(0.5, 4.0))
    return (K * float(rng.uniform(0.4, 1.5)), K, gamma, float(rng.uniform(k + 0.01, gamma - 0.01)))


def _draw_delta_star(rng):
    _, rho = _k_gamma(rng, 1, 3)
    A = float(rng.uniform(0.5, 4.0))
    return (A, float(rng.uniform(0.05, 0.9)) * A, rho)


def _draw_delta0_pointwise(rng):
    gamma = float(rng.uniform(0.3, 4.0))
    K = float(rng.uniform(0.5, 4.0))
    eps = float(rng.uniform(0.1, 3.0))
    eps0 = float(rng.uniform(0.0, 0.8)) * min(K, eps)
    return (eps, eps0, K, gamma, int(rng.integers(0, oracle.level(gamma) + 1)))


def _draw_local_bound_II(rng):
    n, rho = _k_gamma(rng, 1, 3)
    A = float(rng.uniform(1.0, 4.0))
    r0 = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.05, 0.5)) * A
    return (rho, float(rng.uniform(0.05, n)), A, r0, float(rng.uniform(0.0, 0.4)))


def _draw_nesting(rng):
    _, rho = _k_gamma(rng, 0, 3)
    return (rho, float(rng.uniform(0.05, rho - 0.01)), float(rng.uniform(0.2, 5.0)))


def _draw_g(rng):
    n, rho = _k_gamma(rng, 0, 3)
    theta = float(rng.uniform(n + 0.05, rho - 0.01))
    return (rho, theta, int(rng.integers(0, n + 1)), float(rng.uniform(0.2, 5.0)))


def _draw_h(rng):
    n, rho = _k_gamma(rng, 1, 3)
    theta = float(rng.uniform(0.05, n))
    return (rho, theta, int(rng.integers(0, oracle.level(theta) + 1)), float(rng.uniform(0.2, 5.0)))


def _in_unit(value):
    return [] if 0 < value <= 1 else [f"radius {value!r} outside (0, 1]"]


def _radius_problems(value, holds, args, abs_tol):
    """A radius must lie in (0, 1], satisfy ``holds(value, *args)``, and
    have the system fail just above it (``oracle.fails_just_above``).
    abs_tol is 0 for the monotone bisections, which resolve the radius
    to full precision, and ``oracle.SCAN_ABS_TOL`` for the scan paths."""
    problems = _in_unit(value)
    if problems:
        return problems
    if not holds(value, *args):
        return [f"radius {value!r} violates its defining inequality"]
    if not oracle.fails_just_above(value, holds, args, abs_tol):
        return [f"radius {value!r} is not maximal: the system holds just above it"]
    return []


def _radius(holds, abs_tol=0.0):
    return lambda rep, args: _radius_problems(rep.value, holds, args, abs_tol)


def _judge_sandwich(consts, args):
    return oracle.sandwich_problems(consts, *args)


def _judge_local_bound_II(rep, args):
    rho, theta, A, r0, delta = args
    want = oracle.local_bound_II_value(*args)
    problems = [] if oracle.close(rep.value, want) else [f"value {rep.value!r} != {want!r}"]
    if r0 > 0:
        star = rep.extra["delta_star"]
        problems += [f"delta_star: {p}" for p in
                     _radius_problems(star, oracle.delta_star_holds, (A, r0, rho), oracle.SCAN_ABS_TOL)]
    return problems


def _judge_nesting(rep, args):
    want = oracle.nesting_value(*args)
    if not (1.0 <= rep.value <= 1.0 + math.e and oracle.close(rep.value, want)):
        return [f"value {rep.value!r} != {want!r} or outside [1, 1 + e]"]
    return []


# kind -> (draw, call, judge). The first two kinds run the 10^4-point scan
# (10-20 ms a call at the seed); the rest take well under 1 ms.
CONSTANT_KINDS = {
    "delta0_single_point[eta<=k]": (_draw_single_low, lambda *a: bounds.delta0_single_point(*a),
                                    _radius(oracle.single_low_holds, oracle.SCAN_ABS_TOL)),
    "sandwich_constants[eta<=k]": (_draw_sandwich_low, lambda *a: bounds.sandwich_constants(*a),
                                   _judge_sandwich),
    "delta0_single_point[eta>k]": (_draw_single_high, lambda *a: bounds.delta0_single_point(*a),
                                   _radius(oracle.single_high_holds)),
    "sandwich_constants[eta>k]": (_draw_sandwich_high, lambda *a: bounds.sandwich_constants(*a),
                                  _judge_sandwich),
    "delta_star": (_draw_delta_star, lambda *a: bounds.delta_star(*a),
                   _radius(oracle.delta_star_holds, oracle.SCAN_ABS_TOL)),
    "delta0_pointwise": (_draw_delta0_pointwise, lambda *a: bounds.delta0_pointwise(*a),
                         _radius(oracle.delta0_pointwise_holds)),
    "local_bound_II": (_draw_local_bound_II,
                       lambda rho, theta, A, r0, delta: bounds.local_bound_II(
                           bounds.BoundQuery(rho=rho, theta=theta, A=A, r0=r0, delta=delta)),
                       _judge_local_bound_II),
    "nesting_factor": (_draw_nesting, lambda *a: bounds.nesting_factor(*a), _judge_nesting),
    "g_const": (_draw_g, lambda rho, theta, l, diam: bounds.g_const(
        bounds.BoundQuery(rho=rho, theta=theta, l=l, diam=diam)),
        lambda rep, args: oracle.infimum_problems(rep, "g", *args)),
    "h_const": (_draw_h, lambda rho, theta, l, diam: bounds.h_const(
        bounds.BoundQuery(rho=rho, theta=theta, l=l, diam=diam)),
        lambda rep, args: oracle.infimum_problems(rep, "h", *args)),
}
SLOW_KINDS = list(CONSTANT_KINDS)[:2]
FAST_KINDS = list(CONSTANT_KINDS)[2:]


class ConstantsSweep:
    """Two thirds of the ops take the scan path and one third do not, so
    neither the median nor the 90th percentile sits on the gap between
    the two latency clusters."""

    name = "constants-sweep"
    POOL = 300
    TINY_POOL = 12

    def setup(self, rng, tiny):
        pool = []
        for idx in range(self.TINY_POOL if tiny else self.POOL):
            if idx % 3 < 2:
                kind = SLOW_KINDS[idx % 3]
            else:
                kind = FAST_KINDS[(idx // 3) % len(FAST_KINDS)]
            pool.append((kind, CONSTANT_KINDS[kind][0](rng)))
        return pool

    def ops(self, pool):
        return [(kind, lambda k=kind, a=args: CONSTANT_KINDS[k][1](*a)) for kind, args in pool]

    def check(self, pool, outputs):
        per_pass = len(pool)
        return _check_outputs(
            outputs, Verdict(),
            lambda idx, kind, rep: CONSTANT_KINDS[kind][2](rep, pool[idx % per_pass][1]))

    def sizes(self, pool):
        counts = {}
        for kind, _ in pool:
            counts[kind] = counts.get(kind, 0) + 1
        return counts


# ---------------------------------------------------------------------------
# grid-cli: what a command line user pays on the shipped 2500-site grid


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def run_cli(argv):
    """lipjet.cli.main in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


class GridCli:
    """The input is the shipped fixture; the seed only orders the ops."""

    name = "grid-cli"
    FIXTURE = "grid-unit-square"
    TINY_FIXTURE = "parabola-three-sites"
    COVER_DELTA = 0.05

    def setup(self, rng, tiny):
        path = cli.fixture_path(self.TINY_FIXTURE if tiny else self.FIXTURE)
        argvs = [
            ["plan", path, "--eps", "0.5", "--k1", "1", "--k2", "1", "--eta", "0.5", "--cube", "--format", "json"],
            ["cover", path, "--delta", str(self.COVER_DELTA), "--format", "json"],
        ]
        return [argvs[i] for i in rng.permutation(len(argvs))]

    def ops(self, argvs):
        return [("cli " + argv[0], lambda a=argv: run_cli(a)) for argv in argvs]

    def check(self, argvs, outputs):
        with open(argvs[0][1], encoding="utf-8") as fh:
            sites = np.asarray(json.load(fh)["points"], dtype=float)

        def judge(idx, kind, result):
            if result.code != 0:
                return [f"exit code {result.code}: {result.err.strip()}"]
            try:
                payload = json.loads(result.out)
            except json.JSONDecodeError as exc:
                return [f"output is not JSON: {exc}"]
            centers = payload["center_indices"]
            if payload["N"] != len(centers):
                return [f"N = {payload['N']} but {len(centers)} centres listed"]
            delta = payload["delta0"] if kind == "cli plan" else self.COVER_DELTA
            return oracle.cover_problems(sites, centers, delta)

        return _check_outputs(outputs, Verdict(), judge)

    def sizes(self, argvs):
        return {"fixture": argvs[0][1].rsplit("/", 1)[-1], "ops": [a[0] for a in argvs]}


WORKLOADS = {w.name: w for w in (NormScan(), CertifyMix(), ConstantsSweep(), GridCli())}
