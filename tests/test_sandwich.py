import math

import numpy as np
import pytest

from helpers import (
    make_full_instance,
    make_pointwise_instance,
    make_single_point_instance,
)
from lipjet import (
    LipFunction,
    SymForm,
    certify_full,
    certify_pointwise,
    certify_single_point,
    counterexample,
    diff,
    lip_norm,
    plan_approximation,
    scale,
)


def test_certify_pointwise_identical_pair():
    args = make_pointwise_instance(np.random.default_rng(300))
    f = args["f"]
    cert = certify_pointwise(f, f, args["B"], args["eps"], args["eps0"],
                             args["K1"], args["K2"], args["l"])
    assert cert.valid
    assert cert.measured_value == 0.0
    assert cert.conclusion_holds


def test_certify_pointwise_random_instances():
    rng = np.random.default_rng(301)
    for trial in range(25):
        args = make_pointwise_instance(rng, use_greedy_cover=(trial % 2 == 0))
        cert = certify_pointwise(**args)
        assert cert.valid, cert.hypothesis_report["checks"]
        assert cert.conclusion_holds, (cert.measured_value, cert.guaranteed_bound)


def test_certify_pointwise_flags_norm_violation():
    rng = np.random.default_rng(302)
    args = make_pointwise_instance(rng)
    # blow up f so the K1 cap fails; the certificate must say which check
    args["f"] = scale(args["f"], 100.0)
    args["g"] = scale(args["g"], 100.0)
    cert = certify_pointwise(**args)
    assert not cert.valid
    names = [name for name, _ in cert.failed_checks()]
    assert "psi_norm_le_K1" in names


def test_jet_gaps_at_listed_sites_and_levels():
    # f - g is 0.1 at site 0 (level 1), 0.3 and 0.5 at site 2 (levels 0, 1)
    def jet(values):
        return LipFunction(1.5, [[0.0], [1.0], [2.0]],
                           [[SymForm(0, 1, 1, [v0]), SymForm(1, 1, 1, [v1])] for v0, v1 in values])

    f = jet([(0.0, 0.0)] * 3)
    g = jet([(0.0, 0.1), (0.0, 0.0), (0.3, 0.5)])
    cert = certify_pointwise(f, g, [0, 1], 1.0, 0.2, 10.0, 10.0, 0)
    # the hypothesis sees the cover sites at every level, the conclusion
    # every site at levels up to l = 0
    assert cert.hypothesis_report["worst_gap"] == 0.1
    assert cert.measured_value == 0.3


def test_certify_pointwise_parameter_rejection():
    rng = np.random.default_rng(303)
    args = make_pointwise_instance(rng)
    with pytest.raises(ValueError):
        certify_pointwise(args["f"], args["g"], args["B"], args["eps"],
                          args["eps"] * 2, args["K1"], args["K2"], args["l"])
    with pytest.raises(ValueError):
        certify_pointwise(args["f"], args["g"], [], args["eps"], args["eps0"],
                          args["K1"], args["K2"], args["l"])
    with pytest.raises(ValueError):
        certify_pointwise(args["f"], args["g"], args["B"], args["eps"],
                          args["eps0"], 0.0, 0.0, args["l"])


def test_certify_single_point_random_instances():
    rng = np.random.default_rng(304)
    for _ in range(25):
        args = make_single_point_instance(rng)
        cert = certify_single_point(**args)
        assert cert.valid, cert.hypothesis_report["checks"]
        assert cert.conclusion_holds, (cert.measured_value, cert.guaranteed_bound)
        assert args["anchor"] in cert.extra["ball_indices"]


def test_certify_single_point_eta_validation():
    rng = np.random.default_rng(305)
    args = make_single_point_instance(rng)
    with pytest.raises(ValueError):
        certify_single_point(args["f"], args["g"], args["anchor"], args["eps"],
                             args["eps0"], args["K1"], args["K2"], args["f"].gamma)


def test_certify_full_identical_pair():
    rng = np.random.default_rng(306)
    args = make_full_instance(rng)
    f = args["f"]
    cert = certify_full(f, f, args["B"], args["eps"], args["K1"], args["K2"], args["eta"])
    assert cert.valid
    assert cert.measured_value == 0.0
    assert cert.conclusion_holds


def test_certify_full_random_instances():
    rng = np.random.default_rng(307)
    for trial in range(25):
        args = make_full_instance(rng, use_greedy_cover=(trial % 2 == 0))
        cert = certify_full(**args)
        assert cert.valid, cert.hypothesis_report["checks"]
        assert cert.conclusion_holds, (cert.measured_value, cert.guaranteed_bound)


def test_certify_full_rejects_eta_at_gamma():
    rng = np.random.default_rng(308)
    args = make_full_instance(rng)
    with pytest.raises(ValueError):
        certify_full(args["f"], args["g"], args["B"], args["eps"],
                     args["K1"], args["K2"], args["f"].gamma)


def test_counterexample_equal_exponent_sharpness():
    f, g, expected = counterexample("eta_equals_gamma", K0=1.0, eps=0.5, N=10)
    assert expected == 2.0
    d = diff(f, g)
    assert lip_norm(d, 1.0).overall == pytest.approx(2.0, abs=1e-12)
    # the jets themselves stay within the K0 cap
    assert lip_norm(f, 1.0).overall <= 1.0 + 1e-12
    assert lip_norm(g, 1.0).overall <= 1.0 + 1e-12
    # and they agree exactly at the base site
    assert f.form(0, 0).coeffs[0] == g.form(0, 0).coeffs[0] == 0.0


def test_counterexample_offset_sharpness():
    f, g, expected = counterexample("eps0_dependence", eps0=0.1, eps=0.5, K0=2.0)
    assert expected == pytest.approx(math.sqrt(0.4))
    d = diff(f, g)
    assert lip_norm(d, 0.5).overall == pytest.approx(math.sqrt(0.4), abs=1e-12)
    assert expected > 0.5  # the measured value beats eps
    assert lip_norm(f, 0.5).overall <= 2.0


def test_counterexample_nesting_instances():
    f, g, expected = counterexample("nesting_a")
    assert g is None
    assert lip_norm(f, 2.0).overall == pytest.approx(2.0, abs=1e-12)
    assert lip_norm(f, 1.5).overall == pytest.approx(expected, abs=1e-12)

    f, g, expected = counterexample("nesting_b", A=1.5)
    assert lip_norm(f, 2.0).overall == pytest.approx(1.5, abs=1e-12)
    assert lip_norm(f, 1.0).overall == pytest.approx(3.0, abs=1e-12)


def test_counterexample_validation():
    with pytest.raises(ValueError):
        counterexample("eta_equals_gamma", K0=0.1, eps=0.5)
    with pytest.raises(ValueError):
        counterexample("eps0_dependence", eps0=0.6, eps=0.5, K0=2.0)
    with pytest.raises(ValueError):
        counterexample("no-such-kind")


def test_plan_lip_mode():
    rng = np.random.default_rng(309)
    sites = rng.random((30, 2))
    plan = plan_approximation(sites, 0.5, 1.0, 1.0, 1.5, eta=0.75, cube=True)
    assert plan.mode == "lip"
    assert plan.N == len(plan.center_indices)
    assert plan.delta0 > 0
    assert plan.eps0 > 0
    assert plan.cube_ceiling.d == 2


def test_plan_pointwise_mode():
    rng = np.random.default_rng(310)
    sites = rng.random((30, 2))
    plan = plan_approximation(sites, 0.5, 1.0, 1.0, 1.5, mode="pointwise", l=0, eps0=0.1)
    assert plan.mode == "pointwise"
    assert plan.eps0 == 0.1
    with pytest.raises(ValueError):
        plan_approximation(sites, 0.5, 1.0, 1.0, 1.5, mode="pointwise")
    with pytest.raises(ValueError):
        plan_approximation(sites, 0.5, 1.0, 1.0, 1.5, mode="lip")  # missing eta
