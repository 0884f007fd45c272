"""Command line front end.

Subcommands: norm, bounds, cover, certify, plan, example. Jet data
travels as UTF-8 JSON files with schema tag "lipjet-jet/1". Exit codes
are a stable contract: 0 success, 2 input error, 3 hypothesis
rejection, 4 soundness violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .bounds import (
    BoundQuery,
    delta0_pointwise,
    delta0_single_point,
    delta_star,
    g_const,
    h_const,
    local_bound_I,
    local_bound_II,
    nesting_factor,
    sandwich_constants,
)
from .covering import CoverPlan, greedy_cover, is_cover
from .jets import LipFunction, _check_separation, _site_array, level_count, lip_norm
from .sandwich import (
    certify_full,
    certify_pointwise,
    certify_single_point,
    counterexample,
    plan_approximation,
)
from .tensor_core import MAX_DENSE, SymForm, _symmetrize

SCHEMA = "lipjet-jet/1"

# Serialized coefficient blocks tolerate a looser asymmetry than
# in-memory construction; they are symmetrized on load.
LOAD_SYM_TOL = 1e-9

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REJECTED = 3
EXIT_SOUNDNESS = 4


class CLIError(Exception):
    """Input problem; maps to exit code 2."""


# ---------------------------------------------------------------------------
# JetFile I/O


def jet_to_dict(f):
    flat = [level.reshape(f.n_sites, -1).tolist() for level in f.levels]
    return {
        "schema": SCHEMA,
        "dim": f.dim,
        "codim": f.codim,
        "gamma": f.gamma,
        "points": f.sites.tolist(),
        "jets": [list(per_site) for per_site in zip(*flat)],
    }


def dict_to_jet(data):
    for key in ("schema", "dim", "codim", "gamma", "points", "jets"):
        if key not in data:
            raise CLIError(f"jet file missing field '{key}'")
    if data["schema"] != SCHEMA:
        raise CLIError(f"unsupported schema {data['schema']!r}, expected {SCHEMA!r}")
    for key in ("dim", "codim"):
        val = data[key]
        if isinstance(val, bool) or not isinstance(val, int) or val < 1:
            raise CLIError(f"'{key}' must be a positive integer, got {val!r}")
    gamma = data["gamma"]
    # the chained comparison also rejects NaN, and ints too large for a float
    if isinstance(gamma, bool) or not isinstance(gamma, (int, float)) or not 0 < gamma <= sys.float_info.max:
        raise CLIError(f"'gamma' must be a finite positive number, got {gamma!r}")
    d, m, gamma = data["dim"], data["codim"], float(gamma)
    k = level_count(gamma)
    points, raw_jets = data["points"], data["jets"]
    for key in ("points", "jets"):
        if not isinstance(data[key], list):
            raise CLIError(f"'{key}' must be a list, got {type(data[key]).__name__}")
    if len(points) != len(raw_jets):
        raise CLIError(f"points ({len(points)}) and jets ({len(raw_jets)}) have different lengths")
    levels = _level_arrays(raw_jets, k, d, m)
    if levels is None:
        _raise_first_bad_form(raw_jets, gamma, k, d, m)
    try:
        sites = _site_array(points)
        if sites.shape[1] != d:
            raise ValueError(f"points have {sites.shape[1]} coordinates, expected dim = {d}")
        _check_separation(sites)
    except (ValueError, TypeError, OverflowError) as exc:
        raise CLIError(str(exc)) from exc
    return LipFunction._from_levels(gamma, sites, levels)


def _level_arrays(raw_jets, k, d, m):
    """The jets' coefficients as one symmetrized (N,) + (d,)*l + (m,) array
    per level; None if there is no site, or any entry is malformed,
    non-finite or not symmetric within LOAD_SYM_TOL."""
    n = len(raw_jets)
    if n == 0 or d**k > MAX_DENSE or not all(isinstance(s, list) and len(s) == k + 1 for s in raw_jets):
        return None
    levels = []
    for l in range(k + 1):
        try:
            arr = np.array([per_site[l] for per_site in raw_jets], dtype=float)
        except (ValueError, TypeError, OverflowError):
            return None
        if arr.shape != (n, d**l * m) or not np.isfinite(arr).all():
            return None
        sym, drift = _symmetrize(arr.reshape((n,) + (d,) * l + (m,)), l)
        if (drift > LOAD_SYM_TOL).any():
            return None
        levels.append(sym)
    return levels


def _raise_first_bad_form(raw_jets, gamma, k, d, m):
    """Name the first jets[i][l], in (i, l) order, that _level_arrays rejects."""
    for i, per_site in enumerate(raw_jets):
        if not isinstance(per_site, list):
            raise CLIError(f"jets[{i}] must be a list of levels, got {type(per_site).__name__}")
        if len(per_site) != k + 1:
            raise CLIError(f"jets[{i}]: expected {k + 1} levels for gamma={gamma}, got {len(per_site)}")
        for l, flat in enumerate(per_site):
            want = d**l * m
            if not isinstance(flat, list):
                raise CLIError(f"jets[{i}][{l}] must be a list of coefficients, got {type(flat).__name__}")
            if len(flat) != want:
                raise CLIError(f"jets[{i}][{l}]: expected {want} coefficients, got {len(flat)}")
            try:
                coeffs = np.array(flat, dtype=float)
                if coeffs.ndim != 1:
                    raise ValueError("coefficients must be numbers")
                SymForm(l, d, m, coeffs, sym_tol=LOAD_SYM_TOL)
            except (ValueError, TypeError, OverflowError) as exc:
                raise CLIError(f"jets[{i}][{l}]: {exc}") from exc


def load_jetfile(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CLIError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CLIError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise CLIError(f"{path}: top level must be a JSON object")
    return dict_to_jet(data)


def save_jetfile(f, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jet_to_dict(f), fh, indent=1)
        fh.write("\n")


def fixture_path(name):
    """Path of a shipped fixture jet file (name without extension)."""
    return os.path.join(os.path.dirname(__file__), "fixtures", name + ".json")


# ---------------------------------------------------------------------------
# output helpers


def _emit(args, human_lines, payload):
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, indent=1))
    else:
        for line in human_lines:
            print(line)


def _fields(obj, *names):
    """The named attributes of a report, in that order, for a JSON payload."""
    return {name: getattr(obj, name) for name in names}


# ---------------------------------------------------------------------------
# subcommands


def cmd_norm(args):
    f = load_jetfile(args.file)
    eta = f.gamma if args.eta is None else args.eta
    if not (0 < eta <= f.gamma):
        raise CLIError(f"--eta must lie in (0, {f.gamma}], got {eta}")
    try:
        rep = lip_norm(f, eta)
    except ArithmeticError as exc:
        raise CLIError(str(exc)) from exc
    lines = [f"Lip({eta}) norm of {args.file}"]
    for l in range(len(rep.pointwise)):
        lines.append(
            f"  level {l}: pointwise {rep.pointwise[l]:.12g} at site "
            f"{rep.pointwise_witness[l]}, remainder {rep.holder[l]:.12g} "
            f"at pair {rep.holder_witness[l]}"
        )
    lines.append(f"  overall: {rep.overall:.12g}")
    _emit(args, lines, dataclasses.asdict(rep))
    return EXIT_OK


def _level_query(a):
    return BoundQuery(rho=a.rho, theta=a.theta, l=0 if a.l is None else _level_flag(a.l), diam=a.diam)


def _local_query(a):
    return BoundQuery(rho=a.rho, theta=a.theta, A=a.a, r0=a.r0, delta=a.delta)


# --which: the flags it needs and the library call behind it, which returns
# a BoundReport, or SandwichConstants for sandwich
_BOUNDS = {
    "g": (("rho", "theta", "diam"), lambda a: g_const(_level_query(a))),
    "h": (("rho", "theta", "diam"), lambda a: h_const(_level_query(a))),
    "nesting": (("rho", "theta", "diam"), lambda a: nesting_factor(a.rho, a.theta, a.diam)),
    "local1": (("rho", "theta", "a", "r0", "delta"), lambda a: local_bound_I(_local_query(a))),
    "local2": (("rho", "theta", "a", "r0", "delta"), lambda a: local_bound_II(_local_query(a))),
    "delta-star": (("rho", "a", "r0"), lambda a: delta_star(a.a, a.r0, a.rho)),
    "delta0-pointwise": (
        ("eps", "eps0", "k", "gamma", "l"),
        lambda a: delta0_pointwise(a.eps, a.eps0, a.k, a.gamma, _level_flag(a.l)),
    ),
    "delta0-single": (
        ("eps", "eps0", "k", "gamma", "eta"),
        lambda a: delta0_single_point(a.eps, a.eps0, a.k, a.gamma, a.eta),
    ),
    "sandwich": (("eps", "k", "gamma", "eta"), lambda a: sandwich_constants(a.eps, a.k, a.gamma, a.eta)),
}


def cmd_bounds(args):
    which = args.which
    flags, compute = _BOUNDS[which]
    missing = [f"--{name}" for name in flags if getattr(args, name) is None]
    if missing:
        raise CLIError(f"--which {which} requires {', '.join(missing)}")
    try:
        rep = compute(args)
    except (ValueError, ArithmeticError) as exc:
        raise CLIError(str(exc)) from exc

    if which == "sandwich":
        lines = [
            f"delta0    = {rep.delta0:.12g}",
            f"eps0      = {rep.eps0:.12g}",
            f"theta_aux = {rep.theta_aux:.12g}",
        ]
        _emit(args, lines, {"name": "sandwich_constants", **dataclasses.asdict(rep)})
        return EXIT_OK

    lines = [f"{rep.name}: {rep.value:.12g}"]
    if rep.attained_at is not None:
        lines.append(f"  attained at r = {rep.attained_at:.12g}")
    if rep.note:
        lines.append(f"  note: {rep.note}")
    for key, val in rep.extra.items():
        lines.append(f"  {key}: {val}")
    _emit(args, lines, _fields(rep, "name", "value", "attained_at", "note", "extra"))
    return EXIT_OK


def _level_flag(value):
    """The jet level given by ``--l``; anything but a whole number is an input error."""
    if not (math.isfinite(value) and value == int(value)):
        raise CLIError(f"--l must be a whole number, got {value}")
    return int(value)


def cmd_cover(args):
    f = load_jetfile(args.file)
    if args.check is not None:
        try:
            with open(args.check, encoding="utf-8") as fh:
                centers = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CLIError(f"cannot read centers file {args.check}: {exc}") from exc
        if not isinstance(centers, list) or not all(
            isinstance(c, int) and not isinstance(c, bool) for c in centers
        ):
            raise CLIError(f"centers file {args.check} must hold a JSON list of integers")
        try:
            ok, witness = is_cover(f.sites, centers, args.delta)
        except (ValueError, IndexError) as exc:
            raise CLIError(str(exc)) from exc
        plan = CoverPlan(delta=args.delta, center_indices=centers, verified=ok, uncovered_witness=witness)
        lines = [f"cover check at delta {plan.delta}: {'ok' if plan.verified else 'FAILED'}"]
        if plan.uncovered_witness is not None:
            lines.append(f"  first uncovered site: {plan.uncovered_witness}")
        _emit(args, lines, _fields(plan, "delta", "verified", "uncovered_witness"))
        return EXIT_OK
    try:
        plan = greedy_cover(f.sites, args.delta)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    lines = [
        f"greedy cover at delta {args.delta}: {plan.N} centers",
        f"  centers: {plan.center_indices}",
        f"  verified: {plan.verified}",
    ]
    _emit(args, lines, _fields(plan, "delta", "center_indices", "N", "verified"))
    return EXIT_OK


def _parse_centers(raw, n):
    if raw is None or raw == "all":
        return list(range(n))
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise CLIError(f"--centers must be 'all' or comma-separated indices: {raw!r}") from exc


# --theorem: the flags it needs
_THEOREM_FLAGS = {
    "pointwise": ("eps", "eps0", "k1", "k2", "l"),
    "single-point": ("eps", "eps0", "k1", "k2", "eta"),
    "full": ("eps", "k1", "k2", "eta"),
}


def cmd_certify(args):
    f = load_jetfile(args.psi)
    g = load_jetfile(args.phi)
    for name in _THEOREM_FLAGS[args.theorem]:
        if getattr(args, name) is None:
            raise CLIError(f"--theorem {args.theorem} requires --{name}")
    try:
        if args.theorem == "pointwise":
            B = _parse_centers(args.centers, f.n_sites)
            cert = certify_pointwise(
                f, g, B, args.eps, args.eps0, args.k1, args.k2, _level_flag(args.l)
            )
        elif args.theorem == "single-point":
            cert = certify_single_point(
                f, g, args.anchor or 0, args.eps, args.eps0, args.k1, args.k2, args.eta
            )
        else:
            B = _parse_centers(args.centers, f.n_sites)
            cert = certify_full(f, g, B, args.eps, args.k1, args.k2, args.eta)
    except (ValueError, IndexError) as exc:
        # hypothesis-parameter violation: rejected before any checking
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except ArithmeticError as exc:
        raise CLIError(str(exc)) from exc

    lines = [
        f"theorem: {cert.theorem}",
        f"delta0: {cert.delta0:.12g}",
        f"valid: {cert.valid}",
        f"guaranteed bound: {cert.guaranteed_bound:.12g}",
        f"measured value: {cert.measured_value:.12g}",
        f"conclusion holds: {cert.conclusion_holds}",
    ]
    for name, ok, margin in cert.hypothesis_report["checks"]:
        lines.append(f"  check {name}: {'ok' if ok else 'FAILED'} (margin {margin})")
    payload = _fields(
        cert, "theorem", "inputs", "delta0", "valid", "guaranteed_bound", "measured_value", "conclusion_holds"
    )
    payload["checks"] = cert.hypothesis_report["checks"]
    _emit(args, lines, payload)
    if not cert.valid:
        return EXIT_REJECTED
    if not cert.conclusion_holds:
        return EXIT_SOUNDNESS
    return EXIT_OK


def cmd_plan(args):
    f = load_jetfile(args.file)
    try:
        plan = plan_approximation(
            f.sites,
            args.eps,
            args.k1,
            args.k2,
            f.gamma,
            eta=args.eta,
            mode=args.mode,
            l=None if args.l is None else _level_flag(args.l),
            eps0=args.eps0,
            cube=args.cube,
        )
    except (ValueError, ArithmeticError) as exc:
        raise CLIError(str(exc)) from exc
    lines = [
        f"mode: {plan.mode}",
        f"delta0: {plan.delta0:.12g}",
        f"eps0: {plan.eps0:.12g}",
        f"centers needed: {plan.N}",
        f"center indices: {plan.center_indices}",
    ]
    payload = _fields(plan, "mode", "delta0", "eps0", "N", "center_indices")
    if plan.cube_ceiling is not None:
        lines.append(
            f"unit-cube ceiling: m = {plan.cube_ceiling.m} at delta0 {plan.cube_ceiling.delta0}"
        )
        payload["cube_ceiling"] = _fields(plan.cube_ceiling, "d", "delta0", "bound", "m")
    _emit(args, lines, payload)
    return EXIT_OK


_EXAMPLE_KINDS = {
    "eta-equals-gamma": "eta_equals_gamma",
    "eps0-dependence": "eps0_dependence",
    "nesting-a": "nesting_a",
    "nesting-b": "nesting_b",
}

# Holder exponent at which each generated instance attains its value.
_EXAMPLE_ETA = {
    "eta-equals-gamma": 1.0,
    "eps0-dependence": 0.5,
    "nesting-a": 1.5,
    "nesting-b": 1.0,
}


def cmd_example(args):
    given = (("K0", args.k0), ("eps", args.eps), ("N", args.n), ("eps0", args.eps0), ("A", args.a))
    params = {key: value for key, value in given if value is not None}
    try:
        f, g, expected = counterexample(_EXAMPLE_KINDS[args.kind], **params)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc

    jets = {"psi": f} if g is None else {"psi": f, "phi": g}
    written = [os.path.join(args.out, f"{args.kind}-{part}.json") for part in (*jets, "expected")]
    expectation = {
        "kind": args.kind,
        "params": params,
        "expected_value": expected,
        "eta": _EXAMPLE_ETA[args.kind],
        "files": [os.path.basename(p) for p in written[:-1]],
    }
    try:
        os.makedirs(args.out, exist_ok=True)
        for jet, path in zip(jets.values(), written):
            save_jetfile(jet, path)
        with open(written[-1], "w", encoding="utf-8") as fh:
            json.dump(expectation, fh, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise CLIError(f"cannot write to {args.out}: {exc}") from exc
    _emit(args, [f"wrote {p}" for p in written], {"written": written, "expected_value": expected})
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lipjet",
        description="Jet norms, explicit transfer constants, covers, and certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("norm", help="Lip(eta) norm of a jet file")
    p.add_argument("file")
    p.add_argument("--eta", type=float, default=None, help="defaults to the file's gamma")
    add_format(p)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("bounds", help="evaluate one of the explicit constants")
    p.add_argument("--which", required=True, choices=sorted(_BOUNDS))
    for flag, typ in (
        ("--rho", float), ("--theta", float), ("--diam", float), ("--a", float),
        ("--r0", float), ("--delta", float), ("--eps", float), ("--eps0", float),
        ("--k", float), ("--gamma", float), ("--eta", float), ("--l", float),
    ):
        p.add_argument(flag, type=typ, default=None)
    add_format(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("cover", help="greedy cover or cover check for a jet file's sites")
    p.add_argument("file")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--greedy", action="store_true", help="build a greedy cover (default)")
    p.add_argument("--check", default=None, metavar="CENTERS_JSON",
                   help="verify the centers listed in this JSON file instead")
    add_format(p)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("certify", help="check the hypotheses and conclusion of a transfer theorem")
    p.add_argument("psi")
    p.add_argument("phi")
    p.add_argument("--theorem", required=True, choices=["pointwise", "single-point", "full"])
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--eps0", type=float, default=None)
    p.add_argument("--k1", type=float, default=None)
    p.add_argument("--k2", type=float, default=None)
    p.add_argument("--l", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--anchor", type=int, default=None)
    p.add_argument("--centers", default=None, help="'all' or comma-separated site indices")
    add_format(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("plan", help="derive (delta0, eps0) and a greedy cover for a site set")
    p.add_argument("file")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--k1", type=float, required=True)
    p.add_argument("--k2", type=float, required=True)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--mode", choices=["lip", "pointwise"], default="lip")
    p.add_argument("--l", type=float, default=None)
    p.add_argument("--eps0", type=float, default=None)
    p.add_argument("--cube", action="store_true")
    add_format(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("example", help="generate a sharpness or equality instance")
    p.add_argument("--kind", required=True, choices=sorted(_EXAMPLE_KINDS))
    p.add_argument("--k0", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--eps0", type=float, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--out", default=".")
    add_format(p)
    p.set_defaults(func=cmd_example)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags already; normalize others
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
