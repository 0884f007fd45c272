import contextlib
import glob
import hashlib
import io
import json
import math
import os
import re
import tempfile
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import symmetrize
from lipjet import SymForm
from lipjet.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_REJECTED,
    LOAD_SYM_TOL,
    SCHEMA,
    dict_to_jet,
    fixture_path,
    jet_to_dict,
    load_jetfile,
    main,
    save_jetfile,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_norm_on_parabola_fixture(capsys):
    code, out, _ = run(capsys, "norm", fixture_path("parabola-three-sites"), "--eta", "2")
    assert code == EXIT_OK
    assert "overall: 2" in out


def test_norm_json_output(capsys):
    code, out, _ = run(capsys, "norm", fixture_path("parabola-three-sites"),
                       "--eta", "1.5", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["overall"] == pytest.approx(2 * math.sqrt(2), abs=1e-12)
    assert payload["eta"] == 1.5
    assert len(payload["pointwise"]) == len(payload["holder"])


def test_norm_zero_fixture(capsys):
    code, out, _ = run(capsys, "norm", fixture_path("zero-jet"), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["overall"] == 0.0


def test_norm_eta_out_of_range(capsys):
    code, _, err = run(capsys, "norm", fixture_path("zero-jet"), "--eta", "7")
    assert code == EXIT_INPUT
    assert "eta" in err


def test_norm_overflow_exits_two(tmp_path, capsys):
    # 1e307 coefficients on sites 100 apart: a remainder overflows
    big = [1e307, 1e307]
    doc = {"schema": SCHEMA, "dim": 1, "codim": 2, "gamma": 2.5,
           "points": [[0.0], [100.0]], "jets": [[big, big, big]] * 2}
    p = tmp_path / "overflow.json"
    p.write_text(json.dumps(doc))
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, "norm", str(p))
    assert code == EXIT_INPUT and out == ""
    assert "level 0 remainder at pair (0, 1) overflows" in err and "Traceback" not in err


def test_norm_missing_file(capsys):
    code, _, err = run(capsys, "norm", "/no/such/file.json")
    assert code == EXIT_INPUT


def test_malformed_jetfile_diagnostics(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "norm", str(p))
    assert code == EXIT_INPUT
    assert "line" in err

    good = json.load(open(fixture_path("zero-jet")))
    del good["points"]
    p.write_text(json.dumps(good))
    code, _, err = run(capsys, "norm", str(p))
    assert code == EXIT_INPUT
    assert "points" in err


class Centers(NamedTuple):
    """A --check centres file holding this JSON text."""

    text: str


# gamma = 1.01 with eta = 0.5: the sandwich constants' single-anchor radius is 0
_DEGENERATE_RADIUS = {"gamma": 1.01, "jets": [[[0.0], [0.0]]] * 3}


@pytest.mark.parametrize("argv", [
    ("norm", {"dim": "x"}),
    ("norm", {"gamma": 0}),
    ("norm", {"gamma": "nan"}),
    ("bounds", "--which", "g", "--rho", "1", "--theta", "2", "--l", "0", "--diam", "1"),
    ("bounds", "--which", "sandwich", "--eps", "-1", "--k", "1", "--gamma", "1.5", "--eta", "0.75"),
    ("norm", {"points": 5}),
    ("norm", {"jets": 3}),
    ("norm", {"jets": [1, 2, 3]}),
    ("norm", {"jets": [[1.0], [2.0], [3.0]]}),
    ("norm", {"jets": [[["x"]], [[2.0]], [[3.0]]]}),
    ("bounds", "--which", "sandwich", "--eps", "0.5", "--k", "1", "--gamma", "1.01", "--eta", "0.5"),
    ("plan", _DEGENERATE_RADIUS, "--eps", "0.5", "--k1", "0.5", "--k2", "0.5", "--eta", "0.5"),
    ("certify", _DEGENERATE_RADIUS, _DEGENERATE_RADIUS, "--theorem", "full",
     "--eps", "0.5", "--k1", "0.5", "--k2", "0.5", "--eta", "0.5"),
    ("bounds", "--which", "delta0-pointwise", "--eps", "2", "--eps0", "0", "--k", "2",
     "--gamma", "1.5", "--l", "inf"),
    ("plan", {}, "--eps", "0.5", "--k1", "1", "--k2", "1", "--mode", "pointwise",
     "--eps0", "0", "--l", "inf"),
    ("certify", {}, {}, "--theorem", "pointwise", "--eps", "1", "--eps0", "0",
     "--k1", "1", "--k2", "1", "--l", "inf"),
    ("certify", {}, {}, "--theorem", "pointwise", "--eps", "1", "--eps0", "0",
     "--k1", "1", "--k2", "1", "--l", "nan"),
    ("bounds", "--which", "delta0-pointwise", "--eps", "1", "--eps0", "0.1", "--k", "2",
     "--gamma", "2.5", "--l", "1.5"),
    ("cover", {}, "--delta", "nan", "--check", Centers("[0]")),
    ("cover", {}, "--delta", "0.5", "--check", Centers("5")),
    ("cover", {}, "--delta", "0.5", "--check", Centers("[null]")),
    ("cover", {}, "--delta", "0.5", "--check", Centers("[1.5]")),
    ("cover", {}, "--delta", "0.5", "--check", Centers("[true]")),
    ("cover", {}, "--delta", "0.5", "--check", Centers('{"0": 1}')),
    # the zero-jet file stands in for an existing file where a directory is wanted
    ("example", "--kind", "nesting-a", "--out", {}),
    ("bounds", "--which", "g", "--rho", "1.5", "--theta", "1.2", "--diam", "1", "--l", "0.5"),
    ("bounds", "--which", "h", "--rho", "2.5", "--theta", "1.2", "--diam", "1", "--l", "0.5"),
    ("norm", {"gamma": 10**400}),
    ("norm", {"points": [[10**400], [0.5], [1.0]]}),
    ("norm", {"jets": [[[0.0]], [[10**400]], [[0.0]]]}),
], ids=["dim-x", "gamma-0", "gamma-nan", "g-theta-above-rho", "sandwich-negative-eps",
        "points-int", "jets-int", "site-entry-int", "level-entry-float", "coeff-string",
        "sandwich-degenerate-radius", "plan-degenerate-radius", "certify-degenerate-radius",
        "bounds-l-inf", "plan-l-inf", "certify-l-inf", "certify-l-nan", "bounds-l-fractional",
        "cover-delta-nan", "centers-int", "centers-null", "centers-float", "centers-bool",
        "centers-object", "example-out-is-file", "g-l-fractional", "h-l-fractional",
        "gamma-huge-int", "point-huge-int", "coeff-huge-int"])
def test_bad_input_exits_two(argv, tmp_path, capsys):
    # a dict stands for the zero-jet fixture with those fields replaced
    def jet_file(fields):
        data = json.load(open(fixture_path("zero-jet")))
        data.update(fields)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(data))
        return str(p)

    def centers_file(doc):
        p = tmp_path / "centers.json"
        p.write_text(doc.text)
        return str(p)

    argv = [
        jet_file(a) if isinstance(a, dict) else centers_file(a) if isinstance(a, Centers) else a
        for a in argv
    ]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert err.startswith("error: ")


def test_roundtrip_is_bit_identical(tmp_path):
    f = load_jetfile(fixture_path("parabola-three-sites"))
    out = tmp_path / "copy.json"
    save_jetfile(f, str(out))
    g = load_jetfile(str(out))
    assert np.array_equal(f.sites, g.sites)
    for i in range(f.n_sites):
        for l in range(f.k + 1):
            assert np.array_equal(f.form(i, l).coeffs, g.form(i, l).coeffs)


def test_dict_roundtrip():
    f = load_jetfile(fixture_path("exact-cubic"))
    again = dict_to_jet(jet_to_dict(f))
    for i in range(f.n_sites):
        for l in range(f.k + 1):
            assert np.array_equal(f.form(i, l).coeffs, again.form(i, l).coeffs)


def test_bounds_nesting(capsys):
    code, out, _ = run(capsys, "bounds", "--which", "nesting",
                       "--rho", "2", "--theta", "1", "--diam", "1", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(2.0)
    assert payload["extra"]["C1"] == pytest.approx(2.0)


def test_bounds_sandwich_triple(capsys):
    code, out, _ = run(capsys, "bounds", "--which", "sandwich", "--eps", "0.5",
                       "--k", "1", "--gamma", "1.5", "--eta", "0.75", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["theta_aux"] == pytest.approx(0.134471, abs=1e-6)
    assert payload["delta0"] > 0
    assert payload["eps0"] > 0


def test_bounds_delta0_pointwise_saturated(capsys):
    code, out, _ = run(capsys, "bounds", "--which", "delta0-pointwise", "--eps", "2",
                       "--eps0", "0", "--k", "2", "--gamma", "1.5", "--l", "0",
                       "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["value"] == 1.0


def test_bounds_missing_flags_listed(capsys):
    code, _, err = run(capsys, "bounds", "--which", "g", "--rho", "2")
    assert code == EXIT_INPUT
    assert "--theta" in err and "--diam" in err


def test_cover_greedy_and_check(tmp_path, capsys):
    code, out, _ = run(capsys, "cover", fixture_path("grid-unit-square"),
                       "--delta", "0.25", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verified"]
    assert payload["N"] <= 32

    centers = tmp_path / "centers.json"
    centers.write_text(json.dumps(payload["center_indices"]))
    code, out, _ = run(capsys, "cover", fixture_path("grid-unit-square"),
                       "--delta", "0.25", "--check", str(centers), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["verified"]


def test_certify_identical_pair_exit_zero(capsys):
    p = fixture_path("parabola-three-sites")
    code, out, _ = run(capsys, "certify", p, p, "--theorem", "full", "--eps", "0.5",
                       "--k1", "2", "--k2", "2", "--eta", "1", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["measured_value"] == 0.0
    assert payload["conclusion_holds"]


def test_certify_rejects_eta_at_gamma(capsys):
    p = fixture_path("parabola-three-sites")
    code, _, err = run(capsys, "certify", p, p, "--theorem", "full", "--eps", "0.5",
                       "--k1", "2", "--k2", "2", "--eta", "2")
    assert code == EXIT_REJECTED
    assert "rejected" in err


def test_certify_invalid_hypotheses_exit_three(capsys):
    psi = fixture_path("small-slope-pair-psi")
    phi = fixture_path("small-slope-pair-phi")
    # K1 far below the actual norm: the certificate must be invalid
    code, out, _ = run(capsys, "certify", psi, phi, "--theorem", "pointwise",
                       "--eps", "0.5", "--eps0", "0.1", "--k1", "0.001", "--k2", "1",
                       "--l", "0", "--format", "json")
    assert code == EXIT_REJECTED
    assert not json.loads(out)["valid"]


def test_plan_grid_fixture(capsys):
    code, out, _ = run(capsys, "plan", fixture_path("grid-unit-square"),
                       "--eps", "0.5", "--k1", "1", "--k2", "1", "--eta", "0.5",
                       "--cube", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["N"] == len(payload["center_indices"])
    assert payload["cube_ceiling"]["d"] == 2


def test_grid_fixture_plan_and_cover_pinned(capsys):
    # the farthest-point order on the 50 x 50 grid, ties and all
    def digest(indices):
        return hashlib.sha256(json.dumps(indices).encode()).hexdigest()

    grid = fixture_path("grid-unit-square")
    code, out, _ = run(capsys, "plan", grid, "--eps", "0.5", "--k1", "1", "--k2", "1",
                       "--eta", "0.5", "--cube", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["N"] == 2500
    assert digest(payload["center_indices"]) == (
        "511c62482508e1e536b3e78d30a83be8adccda9e1c30300a52ce07be65fb56bf"
    )
    code, out, _ = run(capsys, "cover", grid, "--delta", "0.05", "--format", "json")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "02c296bf0042b727e9e293a80669df5bae5460fa717e5fb7bb48b8a22cef1fbc"
    )


def test_example_generates_files(tmp_path, capsys):
    code, out, _ = run(capsys, "example", "--kind", "eta-equals-gamma",
                       "--k0", "1", "--eps", "0.5", "--n", "10",
                       "--out", str(tmp_path), "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["expected_value"] == 2.0
    psi = tmp_path / "eta-equals-gamma-psi.json"
    phi = tmp_path / "eta-equals-gamma-phi.json"
    exp = tmp_path / "eta-equals-gamma-expected.json"
    assert psi.exists() and phi.exists() and exp.exists()

    # measuring the generated pair reproduces the expectation
    from lipjet import diff, lip_norm

    d = diff(load_jetfile(str(psi)), load_jetfile(str(phi)))
    assert lip_norm(d, 1.0).overall == pytest.approx(2.0, abs=1e-12)


def test_example_invalid_params(capsys, tmp_path):
    code, _, err = run(capsys, "example", "--kind", "eta-equals-gamma",
                       "--k0", "0.1", "--eps", "0.5", "--out", str(tmp_path))
    assert code == EXIT_INPUT


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == EXIT_INPUT


def _symform_levels(data):
    """The level arrays the per-form route builds: one SymForm per site and level."""
    d, m = data["dim"], data["codim"]
    return [
        np.stack([
            SymForm(l, d, m, np.array(per_site[l]).reshape((d,) * l + (m,)), sym_tol=LOAD_SYM_TOL).coeffs
            for per_site in data["jets"]
        ])
        for l in range(len(data["jets"][0]))
    ]


def _random_doc(rng, d, m, k, n):
    """A jet file with symmetric coefficients perturbed inside LOAD_SYM_TOL."""
    def flat(l):
        coeffs = symmetrize(rng.standard_normal((d,) * l + (m,)), l)
        return (coeffs * (1 + 1e-11 * rng.standard_normal(coeffs.shape))).reshape(-1).tolist()

    return {"schema": SCHEMA, "dim": d, "codim": m, "gamma": k + 0.5,
            "points": rng.random((n, d)).tolist(),
            "jets": [[flat(l) for l in range(k + 1)] for _ in range(n)]}


_FIXTURES = sorted(os.path.basename(p)[:-5] for p in glob.glob(fixture_path("*")))


@pytest.mark.parametrize("doc", _FIXTURES + [(d, m, k) for d in (1, 2, 3) for m in (1, 2) for k in (2, 3)])
def test_load_matches_symform_route(doc):
    if isinstance(doc, str):
        data = json.load(open(fixture_path(doc)))
    else:
        data = _random_doc(np.random.default_rng(sum(doc)), *doc, 7)
    f = dict_to_jet(data)
    assert np.array_equal(f.sites, np.array(data["points"]))
    want = _symform_levels(data)
    assert len(f.levels) == len(want)
    for got, ref in zip(f.levels, want):
        assert np.array_equal(got, ref)
        assert not got.flags.writeable
    out = jet_to_dict(f)
    assert out["points"] == data["points"]
    assert out["jets"] == [[ref[i].reshape(-1).tolist() for ref in want] for i in range(f.n_sites)]


@pytest.mark.parametrize("bad,name", [
    ({(4, 0): [float("nan")]}, r"jets\[4\]\[0\]: coefficients must be finite"),
    # relative deviation 1.5e-9 against LOAD_SYM_TOL = 1e-9
    ({(3, 2): [1.0, 2.0, 2.0 + 9e-9, 3.0]}, r"jets\[3\]\[2\]: coefficients are not symmetric: relative deviation 1\.500e-09"),
    ({(4, 0): [float("inf")], (2, 2): [0.0, 1.0, 0.0, 0.0]}, r"jets\[2\]\[2\]: coefficients are not symmetric"),
    ({(3, 0): [1e400], (1, 2): [0.0, 1.0, 0.5, 0.0]}, r"jets\[1\]\[2\]: coefficients are not symmetric"),
    ({(5, 0): ["x"], (0, 1): [0.0, None]}, r"jets\[0\]\[1\]: coefficients must be finite"),
    ({(2, 1): [10**400, 0.0], (3, 0): [float("nan")]}, r"jets\[2\]\[1\]: int too large"),
    ({(1, 1): [[1.0], [2.0]]}, r"jets\[1\]\[1\]: coefficients must be numbers"),
    ({(0, 2): [1.0, 2.0, 2.0 + 1e-10, 3.0], (4, 1): ["y", 1.0]}, r"jets\[4\]\[1\]: could not convert"),
], ids=["nan", "just-above-tolerance", "asymmetric-before-inf", "asymmetric-before-overflow", "null-before-string",
        "huge-int", "nested", "within-tolerance-then-string"])
def test_bad_coefficient_names_first_form(bad, name, tmp_path, capsys):
    data = _random_doc(np.random.default_rng(0), 2, 1, 2, 6)
    for (i, l), flat in bad.items():
        data["jets"][i][l] = flat
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    code, _, err = run(capsys, "norm", str(p))
    assert code == EXIT_INPUT
    assert re.match("error: " + name, err)


class Doc(NamedTuple):
    """A file holding this JSON document (or this raw text, for a str)."""

    body: object


_NUMBER = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, 1e-300, 1e300, -1e300, 10**400, float("nan"), float("inf")]),
)
_GARBAGE = st.recursive(
    st.none() | st.booleans() | _NUMBER | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


@st.composite
def _jet_shape(draw):
    """(dim, codim, gamma, points) of a well-formed jet document."""
    d, m, n = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 5))
    gamma = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.7, 3.4]))
    return d, m, gamma, [[draw(st.floats(-2.0, 2.0)) for _ in range(d)] for _ in range(n)]


@st.composite
def _jet_doc(draw, shape):
    """A jet document of this shape with symmetric coefficients of one
    magnitude, and up to two of its fields replaced by garbage."""
    d, m, gamma, points = shape
    n, k = len(points), math.ceil(gamma) - 1
    scale = draw(st.sampled_from([1.0, 1e-3, 1e150, 1e-200]))

    def flat(l):
        raw = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(d**l * m)]) * scale
        return symmetrize(raw.reshape((d,) * l + (m,)), l).reshape(-1).tolist()

    pts, jets = [list(p) for p in points], [[flat(l) for l in range(k + 1)] for _ in range(n)]
    doc = {"schema": SCHEMA, "dim": d, "codim": m, "gamma": gamma, "points": pts, "jets": jets}
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        i, l = draw(st.integers(0, n - 1)), draw(st.integers(0, k))
        where = draw(st.sampled_from(["top", "point", "site", "level", "coeff"]))
        if where == "top":
            doc[draw(st.sampled_from(sorted(doc)))] = draw(_GARBAGE)
        elif where == "point":
            pts[i] = draw(_GARBAGE)
        elif where == "site":
            jets[i] = draw(_GARBAGE)
        elif isinstance(jets[i], list) and l < len(jets[i]):
            if where == "level":
                jets[i][l] = draw(_GARBAGE)
            elif isinstance(jets[i][l], list):
                jets[i][l][:1] = [draw(_GARBAGE)]
    return doc


_GOOD = st.sampled_from(["0.1", "0.25", "0.5", "0.75", "1", "1.5", "2", "2.5", "3", "4", "1e-6"])
_BAD = st.sampled_from(["0", "-1", "1e300", "nan", "inf", "x", "1.5e-320"])
_FLAGS = {
    "norm": ["--eta"],
    "bounds": ["--rho", "--theta", "--diam", "--a", "--r0", "--delta", "--eps", "--eps0", "--k",
               "--gamma", "--eta", "--l"],
    "cover": ["--delta"],
    "certify": ["--eps", "--eps0", "--k1", "--k2", "--l", "--eta", "--anchor", "--centers"],
    "plan": ["--eps", "--k1", "--k2", "--eta", "--l", "--eps0"],
    "example": ["--k0", "--eps", "--n", "--eps0", "--a"],
}


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [cmd]
    if cmd in ("norm", "cover", "certify", "plan"):
        shape = draw(_jet_shape())
        bad_text = draw(st.sampled_from([None] * 6 + ["{not json", "[]"]))
        argv.append(Doc(bad_text or draw(_jet_doc(shape))))
        if cmd == "certify":
            argv.append(Doc(draw(_jet_doc(shape if draw(st.booleans()) else draw(_jet_shape())))))
            argv += ["--theorem", draw(st.sampled_from(["pointwise", "single-point", "full"]))]
    if cmd == "bounds":
        argv += ["--which", draw(st.sampled_from(["g", "h", "nesting", "local1", "local2", "delta-star",
                                                  "delta0-pointwise", "delta0-single", "sandwich"]))]
    if cmd == "example":
        argv += ["--kind", draw(st.sampled_from(["eta-equals-gamma", "eps0-dependence", "nesting-a",
                                                 "nesting-b"])), "--out", draw(st.sampled_from(["out", Doc({})]))]
    if cmd == "cover" and draw(st.booleans()):
        argv += ["--check", Doc(draw(st.one_of(st.lists(st.integers(-1, 6), max_size=4), _GARBAGE)))]
    # every flag is usually given a well-formed value; now and then one is
    # left out or gets an out-of-range or unparsable value
    flags = _FLAGS[cmd]
    odd = draw(st.sampled_from([None, None] + flags))
    for flag in flags:
        if flag == odd and draw(st.booleans()):
            continue
        if flag == "--centers":
            value = draw(st.sampled_from(["all", "all", "0", "0,1", "a"]))
        elif flag in ("--n", "--anchor", "--l"):
            value = draw(st.sampled_from(["0", "1", "2", "5"]))
        else:
            value = draw(_GOOD)
        argv += [flag, draw(_BAD) if flag == odd else value]
    return argv + draw(st.sampled_from([[], ["--format", "json"]]))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_argv())
def test_cli_never_raises(argv):
    """Whatever the arguments and files, main() returns an exit code of the contract."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for idx, arg in enumerate(argv):
            if isinstance(arg, Doc):
                path = os.path.join(tmp, f"{idx}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(arg.body if isinstance(arg.body, str) else json.dumps(arg.body))
                arg = path
            elif arg == "out":
                arg = os.path.join(tmp, "out")
            paths.append(arg)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(paths)
    assert code in (0, 2, 3, 4)
