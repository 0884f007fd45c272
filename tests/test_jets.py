import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import add, random_jet, worst_site_gap
from lipjet import (
    LipFunction,
    SymForm,
    diff,
    holder_estimate_check,
    level_count,
    lip_norm,
    proposal_eval,
    remainder,
    restrict,
    scale,
    truncate,
    truncated_remainder,
)
from lipjet import covering
from lipjet.covering import _BLOCK_ELEMS
from lipjet.jets import MIN_SITE_SEPARATION
from lipjet.tensor_core import _op_norms, op_norm
from oracles import lip_norm_oracle, separation_oracle


def cubic_jet(xs):
    """Exact jet of p(x) = x^3 with levels p, p', p''."""
    jets = []
    for x in xs:
        jets.append([
            SymForm(0, 1, 1, np.array([x**3])),
            SymForm(1, 1, 1, np.array([3 * x**2])),
            SymForm(2, 1, 1, np.array([6 * x])),
        ])
    return LipFunction(3.0, [[x] for x in xs], jets)


def test_level_count():
    assert level_count(0.5) == 0
    assert level_count(1.0) == 0
    assert level_count(1.5) == 1
    assert level_count(2.0) == 1
    assert level_count(3.0) == 2
    with pytest.raises(ValueError):
        level_count(0.0)


def test_construction_validation():
    good = SymForm(0, 1, 1, np.array([1.0]))
    with pytest.raises(ValueError):
        LipFunction(1.0, [[0.0], [0.0]], [[good], [good]])  # coincident sites
    with pytest.raises(ValueError):
        LipFunction(1.5, [[0.0]], [[good]])  # missing level 1
    with pytest.raises(TypeError):
        LipFunction(1.0, [[0.0]], [[np.array([1.0])]])


def test_separation_check_names_first_close_pair():
    good = SymForm(0, 1, 1, np.array([1.0]))
    sites = np.arange(50.0)[:, None]
    sites[49] = sites[2]
    with pytest.raises(ValueError, match=r"sites 2 and 49 "):
        LipFunction(1.0, sites, [[good]] * 50)


def test_separation_check_across_row_blocks():
    n = 400
    step = _BLOCK_ELEMS // n  # rows per kernel block at this N
    base = np.random.default_rng(11).random((n, 2))
    good = SymForm(0, 2, 1, np.array([1.0]))

    def build(*pairs):
        sites = base.copy()
        for i, j in pairs:
            sites[j] = sites[i] + 1e-12
        return LipFunction(1.0, sites, [[good]] * n)

    assert build().n_sites == n
    # the last row of the first block against the first row of the second
    with pytest.raises(ValueError, match=rf"sites {step - 1} and {step} "):
        build((step - 1, step))
    # close pairs in two blocks: the earlier one in (i, j) order is named,
    # even when its j is far to the right
    with pytest.raises(ValueError, match=rf"sites 1 and {n - 1} "):
        build((step + 1, step + 2), (1, n - 1))
    with pytest.raises(ValueError, match=rf"sites {step} and {3 * step} "):
        build((2 * step + 5, 2 * step + 6), (step, 3 * step))


def _separation_cases():
    """N = 300 sites (x-window blocks), each with close pairs that come early
    in index order but late in x-order, or with every x the same."""
    rng = np.random.default_rng(12)
    base = rng.random((300, 2))
    one_x = rng.random((300, 2))
    one_x[:, 0] = 0.5

    def plant(sites, *pairs):
        # (i, j, x, gap): site i moves to first coordinate x, and site j to
        # gap separation tolerances above site i
        sites = sites.copy()
        for i, _, x, _ in pairs:
            sites[i, 0] = x
        tol = MIN_SITE_SEPARATION * max(1.0, float(np.abs(sites).max()))
        for i, j, _, gap in pairs:
            sites[j] = sites[i] + [0.0, gap * tol]
        return sites

    return {
        "clean": base,
        "late-in-x": plant(base, (1, 250, 2.0, 1e-3), (200, 201, -1.0, 1e-3)),
        "first-and-last": plant(base, (0, 299, 1.9, 1e-3), (5, 6, -1.0, 0.0)),
        "at-tolerance": plant(base, (3, 140, 1.8, 1 + 1e-6), (9, 12, 1.7, 1 - 1e-6)),
        "one-x": plant(one_x, (3, 280, 0.5, 1e-3), (100, 101, 0.5, 1e-3)),
    }


@pytest.mark.parametrize("case", sorted(_separation_cases()))
def test_separation_check_matches_pair_loop(case):
    sites = _separation_cases()[case]
    n = sites.shape[0]
    good = SymForm(0, 2, 1, np.array([1.0]))
    expected = separation_oracle(sites, MIN_SITE_SEPARATION)
    assert expected == {"clean": None, "late-in-x": (1, 250), "first-and-last": (0, 299),
                        "at-tolerance": (9, 12), "one-x": (3, 280)}[case]
    if expected is None:
        assert LipFunction(1.0, sites, [[good]] * n).n_sites == n
    else:
        with pytest.raises(ValueError, match=rf"sites {expected[0]} and {expected[1]} "):
            LipFunction(1.0, sites, [[good]] * n)


def test_separation_tolerance_is_relative():
    good = SymForm(0, 1, 1, np.array([1.0]))
    with pytest.raises(ValueError, match=r"sites 0 and 1 "):
        LipFunction(1.0, [[1e6], [1e6 + 1e-4]], [[good], [good]])
    assert LipFunction(1.0, [[1e6], [1e6 + 1e-2]], [[good], [good]]).n_sites == 2


def test_remainders_of_exact_cubic():
    f = cubic_jet([-1.0, 0.3, 1.2])
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            h = f.sites[j, 0] - f.sites[i, 0]
            # remainders of an exact cubic have closed forms
            assert remainder(f, 0, i, j).coeffs[0] == pytest.approx(h**3, abs=1e-12)
            assert remainder(f, 1, i, j).coeffs[0, 0] == pytest.approx(3 * h**2, abs=1e-12)
            assert remainder(f, 2, i, j).coeffs[0, 0, 0] == pytest.approx(6 * h, abs=1e-12)


def test_truncated_remainder_drops_high_terms():
    f = cubic_jet([0.0, 0.7])
    h = 0.7
    # order-1 truncation at level 0: y^3 - (x^3 + 3x^2 h), x = 0
    assert truncated_remainder(f, 1, 0, 0, 1).coeffs[0] == pytest.approx(h**3)
    # order-0: just the value gap
    assert truncated_remainder(f, 0, 0, 0, 1).coeffs[0] == pytest.approx(h**3)


def test_truncated_remainder_identity():
    """The altered remainder (full remainder plus the dropped Taylor tail)
    equals the remainder of the truncated jet."""
    rng = np.random.default_rng(7)
    f = random_jet(rng, 2, 1, 2, 5)
    for l in range(2):
        for q in range(l, 2):
            for (i, j) in [(0, 1), (3, 2), (4, 0)]:
                step = f.sites[j] - f.sites[i]
                full = remainder(f, l, i, j).coeffs.copy()
                from lipjet.tensor_core import contract
                for s in range(q - l + 1, f.k - l + 1):
                    full += contract(f.form(i, l + s), step, s).coeffs / math.factorial(s)
                trunc = truncated_remainder(f, q, l, i, j).coeffs
                assert np.allclose(full, trunc, atol=1e-12)


def test_lip_norm_parabola():
    xs = [-1.0, 0.0, 1.0]
    jets = [
        [SymForm(0, 1, 1, np.array([x**2])), SymForm(1, 1, 1, np.array([2 * x]))]
        for x in xs
    ]
    f = LipFunction(2.0, [[x] for x in xs], jets)
    assert lip_norm(f, 2.0).overall == pytest.approx(2.0, abs=1e-12)
    assert lip_norm(f, 1.5).overall == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


def test_lip_norm_report_fields():
    f = cubic_jet([0.0, 1.0])
    rep = lip_norm(f, 3.0)
    assert len(rep.pointwise) == 3
    assert len(rep.holder) == 3
    assert rep.overall == max(rep.pointwise + rep.holder)
    assert rep.pointwise[2] == pytest.approx(6.0)
    assert rep.holder_witness[0] in [(0, 1), (1, 0)]


def test_lip_norm_eta_validation():
    f = cubic_jet([0.0, 1.0])
    with pytest.raises(ValueError):
        lip_norm(f, 0.0)
    with pytest.raises(ValueError):
        lip_norm(f, 3.5)


def test_single_site_norm_is_pointwise_only():
    f = cubic_jet([0.5])
    rep = lip_norm(f, 3.0)
    assert rep.overall == pytest.approx(op_norm(f.form(0, 2)))
    assert rep.holder == [0.0, 0.0, 0.0]


def test_proposal_eval_exact_on_cubic():
    f = cubic_jet([0.5, 1.0, 2.0])
    # degree-2 proposal from base x of a cubic: p(y) - (y-x)^3
    for i, x in enumerate([0.5, 1.0, 2.0]):
        for y in [0.0, 0.9, 1.7]:
            want = y**3 - (y - x) ** 3
            assert proposal_eval(f, i, [y])[0] == pytest.approx(want, abs=1e-12)


def test_holder_estimate_holds_on_random_jets():
    rng = np.random.default_rng(11)
    for _ in range(20):
        f = random_jet(rng, 1, 1, 1, 4)
        x_idx, w_idx = 0, 1
        y = f.sites[x_idx] + rng.uniform(-0.3, 0.3, size=1)
        z = y + rng.uniform(-0.3, 0.3, size=1)
        lhs, rhs, ok = holder_estimate_check(f, x_idx, w_idx, y, z)
        assert ok, (lhs, rhs)


def test_holder_estimate_preconditions():
    f = cubic_jet([0.0, 5.0])
    with pytest.raises(ValueError):
        holder_estimate_check(f, 0, 1, [0.0], [0.0])  # ||x-w|| > 1


def test_diff_scale_algebra():
    rng = np.random.default_rng(13)
    f = random_jet(rng, 2, 2, 1, 4)
    g = random_jet(rng, 2, 2, 1, 4)
    # forcing identical sites
    g = LipFunction(f.gamma, f.sites, [[g.form(i, l) for l in range(2)] for i in range(4)])
    h = diff(f, g)
    assert worst_site_gap(add(h, g), f) < 1e-12
    assert lip_norm(scale(f, -2.0), f.gamma).overall == pytest.approx(
        2.0 * lip_norm(f, f.gamma).overall, rel=1e-12
    )


def test_diff_requires_matching_sites():
    rng = np.random.default_rng(17)
    f = random_jet(rng, 2, 1, 1, 4)
    g = random_jet(rng, 2, 1, 1, 4)
    with pytest.raises(ValueError):
        diff(f, g)


def test_truncate_and_restrict():
    f = cubic_jet([0.0, 1.0, 2.0])
    t = truncate(f, 1)
    assert t.k == 1 and t.gamma == 2.0
    r = restrict(f, [2, 0])
    assert r.n_sites == 2
    assert r.sites[0, 0] == 2.0
    assert np.allclose(r.form(0, 0).coeffs, f.form(2, 0).coeffs)
    with pytest.raises(ValueError):
        restrict(f, [])
    with pytest.raises(ValueError):
        restrict(f, [0, 0])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.3, 1.0))
def test_norm_scaling_homogeneity(seed, c):
    rng = np.random.default_rng(seed)
    f = random_jet(rng, 2, 1, 1, 3)
    n1 = lip_norm(f, f.gamma).overall
    n2 = lip_norm(scale(f, c), f.gamma).overall
    assert n2 == pytest.approx(c * n1, rel=1e-9, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_norm_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    f = random_jet(rng, 2, 1, 1, 3)
    g = random_jet(rng, 2, 1, 1, 3)
    g = LipFunction(f.gamma, f.sites, [[g.form(i, l) for l in range(2)] for i in range(3)])
    nf = lip_norm(f, f.gamma).overall
    ng = lip_norm(g, g.gamma).overall
    assert lip_norm(add(f, g), f.gamma).overall <= nf + ng + 1e-9 * (nf + ng + 1)


@pytest.mark.parametrize("n", [1, 2, 7, 30])
@pytest.mark.parametrize("d,m,k", [(1, 1, 0), (2, 1, 1), (3, 1, 2), (2, 2, 2), (1, 2, 1)])
def test_lip_norm_matches_pair_loop_oracle(d, m, k, n, monkeypatch):
    f = random_jet(np.random.default_rng(100 * n + 10 * d + k + m), d, m, k, n)
    forms = [[f.form(i, l).coeffs for l in range(k + 1)] for i in range(n)]
    for eta in (f.gamma, f.gamma - 1.0 if k > 0 else f.gamma / 2.0):
        pointwise, pointwise_witness, holder, holder_witness = lip_norm_oracle(f.sites, forms, eta)
        # the default row blocks, then blocks of three base sites, so that
        # N = 7 and N = 30 span several blocks
        for block_rows in (None, 3):
            with monkeypatch.context() as mp:
                if block_rows:
                    cols = n * d ** level_count(eta) * m
                    mp.setattr(covering, "_BLOCK_ELEMS", block_rows * cols)
                rep = lip_norm(f, eta)
            assert rep.pointwise == pytest.approx(pointwise, rel=1e-12)
            assert rep.holder == pytest.approx(holder, rel=1e-12)
            assert rep.pointwise_witness == pointwise_witness
            assert rep.holder_witness == holder_witness


@pytest.mark.parametrize("m", [1, 2])
def test_lip_norm_raises_on_overflowing_remainder(m):
    # 1e307 coefficients on sites 100 apart: the level-0 expansion is inf,
    # and the remainder -inf (m = 1) or inf - inf (m = 2), which once read
    # as a remainder of 0 at pair None
    big = [SymForm(l, 1, m, np.full((1,) * l + (m,), 1e307)) for l in range(3)]
    f = LipFunction(2.5, [[0.0], [100.0]], [big, big])
    with np.errstate(all="ignore"), pytest.raises(ArithmeticError, match=r"level 0 remainder at pair \(0, 1\) overflows"):
        lip_norm(f, 2.5)


def test_lip_norm_zero_remainder_over_underflowed_power():
    # gamma = 40 on sites 2e-9 apart: gap ** (eta - l) underflows to 0 for
    # low levels, and a zero remainder over it is a zero quotient, not 0/0
    # (built from level arrays: the public constructor would symmetrize
    # each degree-l form over all l! index orders)
    sites = np.array([[0.0], [2e-9], [5e-9]])
    f = LipFunction._from_levels(40.0, sites, [np.zeros((3,) + (1,) * l + (1,)) for l in range(40)])
    assert (2e-9) ** 40 == 0.0
    with np.errstate(all="ignore"):
        rep = lip_norm(f, 40.0)
    assert rep.holder == [0.0] * 40 and rep.holder_witness == [None] * 40
    # next to a nonzero quotient on the pair (1, 2) about 1 apart, the 0/0
    # of the pair (0, 1) once hid the level-0 sup, which read 0 at pair None
    sites = np.array([[0.0], [2e-9], [1.0]])
    f = LipFunction._from_levels(40.0, sites, [np.array([0.0, 0.0, 1.0]).reshape(3, 1)]
                                 + [np.zeros((3,) + (1,) * l + (1,)) for l in range(1, 40)])
    with np.errstate(all="ignore"):
        rep = lip_norm(f, 40.0)
    assert rep.holder_witness[0] == (1, 2) and rep.holder[0] == pytest.approx(1.0, rel=1e-6)
    assert rep.holder[1:] == [0.0] * 39


def test_lip_norm_witness_across_row_blocks():
    # d = 1, m = 1, eta = 1: the quotient is |v_j - v_i| / |j - i| on
    # integer sites, exact in floating point, and a block has step rows
    n = 200
    step = _BLOCK_ELEMS // n
    assert 0 < step < n // 2

    def holder(*bumps):
        values = np.zeros(n)
        values[list(bumps)] = 1.0
        jets = [[SymForm(0, 1, 1, np.array([v]))] for v in values]
        rep = lip_norm(LipFunction(1.0, np.arange(float(n))[:, None], jets), 1.0)
        return rep.holder, rep.holder_witness

    # the maximum lies only past the first block
    assert holder(step + 5) == ([1.0], [(step + 4, step + 5)])
    # an exact tie between blocks: the pair of the earlier block is named
    assert holder(1, step + 5) == ([1.0], [(0, 1)])


@pytest.mark.parametrize("d,l,m", [
    (1, 0, 1), (3, 1, 1), (2, 2, 1), (1, 0, 2), (3, 1, 2), (2, 1, 2), (2, 1, 3), (2, 2, 3),
])
def test_op_norms_at_extreme_scales(d, l, m):
    rng = np.random.default_rng(10 * d + l + m)
    scales = [1.0, 1e150, 1e-150, 1e-160, 1e200, 1e-200, 0.0]
    stack = np.stack([rng.standard_normal((d,) * l + (m,)) * c for c in scales])
    norms = _op_norms(stack)
    for form, norm in zip(stack, norms):
        assert norm == pytest.approx(np.linalg.norm(form.reshape(-1, m), ord=2), rel=1e-12, abs=0.0)
    assert norms[-1] == 0.0


@pytest.mark.parametrize("m", [1, 3])
def test_zero_jet_has_zero_norm_and_no_witness(m):
    jets = [[SymForm.zero(l, 2, m) for l in range(3)] for _ in range(5)]
    f = LipFunction(2.5, np.random.default_rng(5).random((5, 2)), jets)
    rep = lip_norm(f, f.gamma)
    assert rep.holder == [0.0, 0.0, 0.0]
    assert rep.holder_witness == [None, None, None]
    assert rep.pointwise == [0.0, 0.0, 0.0]
    assert rep.overall == 0.0


def test_lip_norm_pinned_case():
    f = random_jet(np.random.default_rng(42), 2, 1, 1, 80)
    rep = lip_norm(f, f.gamma)
    assert rep.overall == 9541.532148462325
    assert rep.holder_witness == [(56, 64), (2, 51)]


def _paired_jets(seed):
    rng = np.random.default_rng(seed)
    d, m, k, n = (int(v) for v in rng.integers([1, 1, 0, 1], [4, 4, 4, 9]))
    f = random_jet(rng, d, m, k, n)
    g = random_jet(rng, d, m, k, n, gamma=f.gamma)
    g = LipFunction(f.gamma, f.sites, [[g.form(i, l) for l in range(k + 1)] for i in range(n)])
    return f, g, float(rng.uniform(-3.0, 3.0)), [int(i) for i in rng.permutation(n)[: (n + 1) // 2]]


@pytest.mark.parametrize("seed", range(40))
def test_algebra_matches_symform_route(seed):
    # the array ops against the per-form route: one SymForm per site and
    # level through SymForm arithmetic and the public constructor
    f, g, c, keep = _paired_jets(seed)
    n, k = f.n_sites, f.k
    q = int(np.random.default_rng(seed).integers(0, k + 1))
    cases = [
        (diff(f, g), lambda i, l: f.form(i, l) - g.form(i, l), range(n)),
        (scale(f, c), lambda i, l: f.form(i, l) * c, range(n)),
        (truncate(f, q), lambda i, l: f.form(i, l), range(n)),
        (restrict(f, keep), lambda i, l: f.form(i, l), keep),
    ]
    for h, route, sites in cases:
        want = LipFunction(h.gamma, f.sites[list(sites)], [[route(i, l) for l in range(h.k + 1)] for i in sites])
        assert np.array_equal(h.sites, want.sites)
        assert len(h.levels) == h.k + 1
        for l in range(h.k + 1):
            got, ref = h.levels[l], want.levels[l]
            if l <= 2:
                assert np.array_equal(got, ref)
            else:
                # the per-form route re-averages a degree-3 form over its
                # axis permutations, which moves entries by at most a few
                # ulps of the form's largest entry
                tol = 4 * np.finfo(float).eps * np.abs(ref).reshape(len(ref), -1).max(axis=1)
                assert np.all(np.abs(got - ref).reshape(len(ref), -1).max(axis=1) <= tol)


def test_levels_and_forms_are_read_only():
    f, g, c, keep = _paired_jets(3)
    for h in (f, diff(f, g), scale(f, c), truncate(f, 0), restrict(f, keep)):
        assert not h.sites.flags.writeable
        for l, level in enumerate(h.levels):
            assert level.shape == (h.n_sites,) + (h.dim,) * l + (h.codim,)
            assert not level.flags.writeable
            with pytest.raises(ValueError):
                level[0] = 1.0
            form = h.form(0, l)
            assert (form.degree, form.dim, form.codim) == (l, h.dim, h.codim)
            with pytest.raises(ValueError):
                form.coeffs[...] = 1.0


def test_algebra_rejects_overflow():
    big = LipFunction(1.0, [[0.0], [1.0]], [[SymForm(0, 1, 1, np.array([1e308]))]] * 2)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        scale(big, 10.0)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        diff(big, scale(big, -1.0))


def test_op_norms_keep_nonfinite_rows():
    # a remainder that overflowed must not be rescaled into NaN, which the
    # sup in lip_norm would skip
    norms = _op_norms(np.array([[np.inf, 1.0], [np.nan, 1.0], [1e200, 1e200], [3.0, 4.0]])[..., None])
    assert norms[0] == np.inf
    assert np.isnan(norms[1])
    assert norms[2] == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
    assert norms[3] == 5.0
