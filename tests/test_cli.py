import hashlib
import json
import math
import os
from typing import NamedTuple

import numpy as np
import pytest

from lipjet.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_REJECTED,
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
], ids=["dim-x", "gamma-0", "gamma-nan", "g-theta-above-rho", "sandwich-negative-eps",
        "points-int", "jets-int", "site-entry-int", "level-entry-float", "coeff-string",
        "sandwich-degenerate-radius", "plan-degenerate-radius", "certify-degenerate-radius",
        "bounds-l-inf", "plan-l-inf", "certify-l-inf", "certify-l-nan", "bounds-l-fractional",
        "cover-delta-nan", "centers-int", "centers-null", "centers-float", "centers-bool",
        "centers-object"])
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
