"""Command line front end.

Subcommands: norm, bounds, cover, certify, plan, example. Jet data
travels as UTF-8 JSON files with schema tag "lipjet-jet/1". Exit codes
are a stable contract: 0 success, 2 input error, 3 hypothesis
rejection, 4 soundness violation.
"""

from __future__ import annotations

import argparse
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
from .covering import greedy_cover, is_cover
from .jets import LipFunction, level_count, lip_norm
from .sandwich import (
    certify_full,
    certify_pointwise,
    certify_single_point,
    counterexample,
    plan_approximation,
)
from .tensor_core import SymForm

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
    return {
        "schema": SCHEMA,
        "dim": f.dim,
        "codim": f.codim,
        "gamma": f.gamma,
        "points": [[float(c) for c in p] for p in f.sites],
        "jets": [
            [
                [float(v) for v in f.form(i, l).coeffs.reshape(-1)]
                for l in range(f.k + 1)
            ]
            for i in range(f.n_sites)
        ],
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
    if isinstance(gamma, bool) or not isinstance(gamma, (int, float)) or not (
        math.isfinite(gamma) and gamma > 0
    ):
        raise CLIError(f"'gamma' must be a finite positive number, got {gamma!r}")
    d, m, gamma = data["dim"], data["codim"], float(gamma)
    k = level_count(gamma)
    points = data["points"]
    raw_jets = data["jets"]
    for key in ("points", "jets"):
        if not isinstance(data[key], list):
            raise CLIError(f"'{key}' must be a list, got {type(data[key]).__name__}")
    if len(points) != len(raw_jets):
        raise CLIError(
            f"points ({len(points)}) and jets ({len(raw_jets)}) have different lengths"
        )
    jets = []
    for i, per_site in enumerate(raw_jets):
        if not isinstance(per_site, list):
            raise CLIError(f"jets[{i}] must be a list of levels, got {type(per_site).__name__}")
        if len(per_site) != k + 1:
            raise CLIError(
                f"jets[{i}]: expected {k + 1} levels for gamma={gamma}, got {len(per_site)}"
            )
        forms = []
        for l, flat in enumerate(per_site):
            want = d**l * m
            if not isinstance(flat, list):
                raise CLIError(
                    f"jets[{i}][{l}] must be a list of coefficients, got {type(flat).__name__}"
                )
            if len(flat) != want:
                raise CLIError(
                    f"jets[{i}][{l}]: expected {want} coefficients, got {len(flat)}"
                )
            try:
                coeffs = np.array(flat, dtype=float).reshape((d,) * l + (m,))
                forms.append(SymForm(l, d, m, coeffs, sym_tol=LOAD_SYM_TOL))
            except (ValueError, TypeError) as exc:
                raise CLIError(f"jets[{i}][{l}]: {exc}") from exc
        jets.append(forms)
    try:
        return LipFunction(gamma, points, jets)
    except (ValueError, TypeError) as exc:
        raise CLIError(str(exc)) from exc


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


def _report_payload(rep):
    return {
        "name": rep.name,
        "value": rep.value,
        "attained_at": rep.attained_at,
        "note": rep.note,
        "extra": {k: v for k, v in rep.extra.items()},
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_norm(args):
    f = load_jetfile(args.file)
    eta = f.gamma if args.eta is None else args.eta
    if not (0 < eta <= f.gamma):
        raise CLIError(f"--eta must lie in (0, {f.gamma}], got {eta}")
    rep = lip_norm(f, eta)
    lines = [f"Lip({eta}) norm of {args.file}"]
    for l in range(len(rep.pointwise)):
        lines.append(
            f"  level {l}: pointwise {rep.pointwise[l]:.12g} at site "
            f"{rep.pointwise_witness[l]}, remainder {rep.holder[l]:.12g} "
            f"at pair {rep.holder_witness[l]}"
        )
    lines.append(f"  overall: {rep.overall:.12g}")
    payload = {
        "eta": rep.eta,
        "pointwise": rep.pointwise,
        "pointwise_witness": rep.pointwise_witness,
        "holder": rep.holder,
        "holder_witness": [list(w) if w else None for w in rep.holder_witness],
        "overall": rep.overall,
    }
    _emit(args, lines, payload)
    return EXIT_OK


_BOUNDS_FLAGS = {
    "g": ("rho", "theta", "diam"),
    "h": ("rho", "theta", "diam"),
    "nesting": ("rho", "theta", "diam"),
    "local1": ("rho", "theta", "a", "r0", "delta"),
    "local2": ("rho", "theta", "a", "r0", "delta"),
    "delta-star": ("rho", "a", "r0"),
    "delta0-pointwise": ("eps", "eps0", "k", "gamma", "l"),
    "delta0-single": ("eps", "eps0", "k", "gamma", "eta"),
    "sandwich": ("eps", "k", "gamma", "eta"),
}


def cmd_bounds(args):
    which = args.which
    missing = [f"--{name}" for name in _BOUNDS_FLAGS[which] if getattr(args, name.replace("-", "_")) is None]
    if missing:
        raise CLIError(f"--which {which} requires {', '.join(missing)}")
    try:
        rep = _bounds_result(args, which)
    except (ValueError, ArithmeticError) as exc:
        raise CLIError(str(exc)) from exc

    if which == "sandwich":
        lines = [
            f"delta0    = {rep.delta0:.12g}",
            f"eps0      = {rep.eps0:.12g}",
            f"theta_aux = {rep.theta_aux:.12g}",
        ]
        payload = {
            "name": "sandwich_constants",
            "delta0": rep.delta0,
            "eps0": rep.eps0,
            "theta_aux": rep.theta_aux,
        }
        _emit(args, lines, payload)
        return EXIT_OK

    lines = [f"{rep.name}: {rep.value:.12g}"]
    if rep.attained_at is not None:
        lines.append(f"  attained at r = {rep.attained_at:.12g}")
    if rep.note:
        lines.append(f"  note: {rep.note}")
    for key, val in rep.extra.items():
        lines.append(f"  {key}: {val}")
    _emit(args, lines, _report_payload(rep))
    return EXIT_OK


def _bounds_result(args, which):
    """The library call behind ``bounds --which``: a BoundReport, or
    SandwichConstants for ``sandwich``."""
    if which in ("g", "h"):
        query = BoundQuery(rho=args.rho, theta=args.theta, l=args.l or 0, diam=args.diam)
        return g_const(query) if which == "g" else h_const(query)
    if which == "nesting":
        return nesting_factor(args.rho, args.theta, args.diam)
    if which == "local1":
        query = BoundQuery(rho=args.rho, theta=args.theta, A=args.a, r0=args.r0, delta=args.delta)
        return local_bound_I(query)
    if which == "local2":
        query = BoundQuery(rho=args.rho, theta=args.theta, A=args.a, r0=args.r0, delta=args.delta)
        return local_bound_II(query)
    if which == "delta-star":
        return delta_star(args.a, args.r0, args.rho)
    if which == "delta0-pointwise":
        return delta0_pointwise(args.eps, args.eps0, args.k, args.gamma, _level_flag(args.l))
    if which == "delta0-single":
        return delta0_single_point(args.eps, args.eps0, args.k, args.gamma, args.eta)
    return sandwich_constants(args.eps, args.k, args.gamma, args.eta)


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
        lines = [f"cover check at delta {args.delta}: {'ok' if ok else 'FAILED'}"]
        if witness is not None:
            lines.append(f"  first uncovered site: {witness}")
        _emit(args, lines, {"delta": args.delta, "verified": ok, "uncovered_witness": witness})
        return EXIT_OK
    try:
        plan = greedy_cover(f.sites, args.delta)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    lines = [
        f"greedy cover at delta {args.delta}: {len(plan.center_indices)} centers",
        f"  centers: {plan.center_indices}",
        f"  verified: {plan.verified}",
    ]
    payload = {
        "delta": plan.delta,
        "center_indices": plan.center_indices,
        "N": len(plan.center_indices),
        "verified": plan.verified,
    }
    _emit(args, lines, payload)
    return EXIT_OK


def _parse_centers(raw, n):
    if raw is None or raw == "all":
        return list(range(n))
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise CLIError(f"--centers must be 'all' or comma-separated indices: {raw!r}") from exc


def cmd_certify(args):
    f = load_jetfile(args.psi)
    g = load_jetfile(args.phi)
    try:
        if args.theorem == "pointwise":
            for name in ("eps", "eps0", "k1", "k2", "l"):
                if getattr(args, name) is None:
                    raise CLIError(f"--theorem pointwise requires --{name}")
            B = _parse_centers(args.centers, f.n_sites)
            cert = certify_pointwise(
                f, g, B, args.eps, args.eps0, args.k1, args.k2, _level_flag(args.l)
            )
        elif args.theorem == "single-point":
            for name in ("eps", "eps0", "k1", "k2", "eta"):
                if getattr(args, name) is None:
                    raise CLIError(f"--theorem single-point requires --{name}")
            cert = certify_single_point(
                f, g, args.anchor or 0, args.eps, args.eps0, args.k1, args.k2, args.eta
            )
        elif args.theorem == "full":
            for name in ("eps", "k1", "k2", "eta"):
                if getattr(args, name) is None:
                    raise CLIError(f"--theorem full requires --{name}")
            B = _parse_centers(args.centers, f.n_sites)
            cert = certify_full(f, g, B, args.eps, args.k1, args.k2, args.eta)
        else:
            raise CLIError(f"unknown theorem {args.theorem!r}")
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
    payload = {
        "theorem": cert.theorem,
        "inputs": cert.inputs,
        "delta0": cert.delta0,
        "valid": cert.valid,
        "guaranteed_bound": cert.guaranteed_bound,
        "measured_value": cert.measured_value,
        "conclusion_holds": cert.conclusion_holds,
        "checks": [[name, ok, margin] for name, ok, margin in cert.hypothesis_report["checks"]],
    }
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
    payload = {
        "mode": plan.mode,
        "delta0": plan.delta0,
        "eps0": plan.eps0,
        "N": plan.N,
        "center_indices": plan.center_indices,
    }
    if plan.cube_ceiling is not None:
        lines.append(
            f"unit-cube ceiling: m = {plan.cube_ceiling.m} at delta0 {plan.cube_ceiling.delta0}"
        )
        payload["cube_ceiling"] = {
            "d": plan.cube_ceiling.d,
            "delta0": plan.cube_ceiling.delta0,
            "bound": plan.cube_ceiling.bound,
            "m": plan.cube_ceiling.m,
        }
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
    params = {}
    if args.k0 is not None:
        params["K0"] = args.k0
    if args.eps is not None:
        params["eps"] = args.eps
    if args.n is not None:
        params["N"] = args.n
    if args.eps0 is not None:
        params["eps0"] = args.eps0
    if args.a is not None:
        params["A"] = args.a
    try:
        f, g, expected = counterexample(_EXAMPLE_KINDS[args.kind], **params)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc

    os.makedirs(args.out, exist_ok=True)
    psi_path = os.path.join(args.out, f"{args.kind}-psi.json")
    save_jetfile(f, psi_path)
    written = [psi_path]
    if g is not None:
        phi_path = os.path.join(args.out, f"{args.kind}-phi.json")
        save_jetfile(g, phi_path)
        written.append(phi_path)
    expectation = {
        "kind": args.kind,
        "params": params,
        "expected_value": expected,
        "eta": _EXAMPLE_ETA[args.kind],
        "files": [os.path.basename(p) for p in written],
    }
    exp_path = os.path.join(args.out, f"{args.kind}-expected.json")
    with open(exp_path, "w", encoding="utf-8") as fh:
        json.dump(expectation, fh, indent=1)
        fh.write("\n")
    written.append(exp_path)
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
    p.add_argument("--which", required=True, choices=sorted(_BOUNDS_FLAGS))
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
