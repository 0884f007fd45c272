import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipjet import cube_bound, diameter, greedy_cover, greedy_packing, is_cover
from lipjet.cli import fixture_path, load_jetfile
from lipjet.covering import _BLOCK_ELEMS, _sq_dists, _x_blocks
from oracles import (
    cover_check_oracle,
    diameter_oracle,
    greedy_cover_rows_oracle,
    greedy_packing_oracle,
    is_cover_rows_oracle,
    pair_distance,
)


def grid_2d(n):
    return np.array([[i / (n - 1), j / (n - 1)] for i in range(n) for j in range(n)])


def test_is_cover_basic():
    sites = np.array([[0.0], [1.0], [2.0]])
    ok, witness = is_cover(sites, [1], 1.0)
    assert ok and witness is None
    ok, witness = is_cover(sites, [0], 1.0)
    assert not ok and witness == 2
    ok, witness = is_cover(sites, [], 1.0)
    assert not ok


def test_is_cover_closed_balls():
    sites = np.array([[0.0], [0.5]])
    ok, _ = is_cover(sites, [0], 0.5)  # boundary counts
    assert ok


def test_is_cover_index_validation():
    sites = np.array([[0.0]])
    with pytest.raises(IndexError):
        is_cover(sites, [3], 1.0)
    with pytest.raises(ValueError):
        is_cover(sites, [0], -0.1)


def test_covering_rejects_non_finite_sites():
    # a NaN site once read as covered, and sent greedy_cover into an endless loop
    for bad in (float("nan"), float("inf")):
        sites = np.array([[0.0, 0.0], [bad, 1.0], [3.0, 0.0]])
        for call in (lambda: is_cover(sites, [0], 1.0), lambda: greedy_cover(sites, 1.0),
                     lambda: greedy_packing(sites, 1.0), lambda: diameter(sites)):
            with pytest.raises(ValueError, match="finite"):
                call()


def test_is_cover_rejects_nan_delta():
    sites = np.array([[0.0], [5.0]])
    with pytest.raises(ValueError):
        is_cover(sites, [0], float("nan"))
    assert is_cover(sites, [0], float("inf")) == (True, None)


def test_greedy_cover_starts_at_zero_and_verifies():
    rng = np.random.default_rng(200)
    sites = rng.random((60, 2))
    plan = greedy_cover(sites, 0.3)
    assert plan.center_indices[0] == 0
    assert plan.verified
    ok, _ = cover_check_oracle(sites, plan.center_indices, 0.3)
    assert ok


def test_greedy_cover_deterministic():
    rng = np.random.default_rng(201)
    sites = rng.random((40, 3))
    a = greedy_cover(sites, 0.4).center_indices
    b = greedy_cover(sites, 0.4).center_indices
    assert a == b


def test_greedy_cover_large_delta_single_center():
    sites = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
    plan = greedy_cover(sites, 10.0)
    assert plan.center_indices == [0]


def test_packing_properties():
    rng = np.random.default_rng(202)
    sites = rng.random((80, 2))
    delta = 0.25
    kept = greedy_packing(sites, delta)
    # pairwise separation strictly above delta
    for a_pos, i in enumerate(kept):
        for j in kept[a_pos + 1 :]:
            assert np.linalg.norm(sites[i] - sites[j]) > delta
    # maximality: the packing is also a delta-cover
    ok, _ = is_cover(sites, kept, delta)
    assert ok


def test_cover_no_larger_than_packing_dual():
    # a maximal delta-packing is a delta-cover, so the minimal covering
    # number is at most the packing size; sanity check on the greedy pair
    rng = np.random.default_rng(203)
    sites = rng.random((50, 2))
    kept = greedy_packing(sites, 0.3)
    ok, _ = is_cover(sites, kept, 0.3)
    assert ok


def test_cube_bound_reference_value():
    cb = cube_bound(2, 0.25)
    assert cb.omega_d == pytest.approx(math.pi)
    assert cb.bound == pytest.approx(100.0 / math.pi)
    assert cb.m == 32


def test_cube_bound_validation():
    with pytest.raises(ValueError):
        cube_bound(0, 0.25)
    with pytest.raises(ValueError):
        cube_bound(2, 0.0)


def test_grid_cover_within_cube_bound():
    sites = grid_2d(50)
    plan = greedy_cover(sites, 0.25)
    assert plan.verified
    assert len(plan.center_indices) <= cube_bound(2, 0.25).m


def test_diameter_matches_bruteforce():
    rng = np.random.default_rng(204)
    for _ in range(10):
        sites = rng.random((int(rng.integers(1, 30)), int(rng.integers(1, 4))))
        assert diameter(sites) == pytest.approx(diameter_oracle(sites), abs=1e-12)


def test_diameter_single_site():
    assert diameter(np.array([[3.0, 4.0]])) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.05, 1.5))
def test_greedy_cover_always_verifies(seed, delta):
    rng = np.random.default_rng(seed)
    sites = rng.random((int(rng.integers(1, 40)), int(rng.integers(1, 4))))
    plan = greedy_cover(sites, delta)
    assert plan.verified
    assert len(set(plan.center_indices)) == len(plan.center_indices)


@st.composite
def site_sets(draw, max_n=150):
    """Random sites, or distinct lattice sites (exact distance ties), in d <= 7."""
    d = draw(st.integers(1, 7))
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.random((n, d))
    side = int(math.ceil(n ** (1.0 / d))) + 1
    cells = rng.choice(side**d, size=n, replace=False)
    step = 2.0 ** -draw(st.integers(0, 3))
    return np.stack(np.unravel_index(cells, (side,) * d), axis=1) * step


@settings(max_examples=60, deadline=None)
@given(site_sets(), st.floats(1e-4, 1.2), st.booleans(), st.integers(0, 10_000))
def test_pair_kernel_matches_reference_loops(sites, frac, at_pair_distance, pick):
    # delta runs from "every site is a center" to "one center"; or it sits
    # exactly on a pair distance, where closed balls and ties decide
    n = sites.shape[0]
    diam = diameter_oracle(sites)
    assert diameter(sites) == diam
    if at_pair_distance and n > 1:
        i = pick % n
        j = (i + 1 + (pick // n) % (n - 1)) % n  # any site but i
        delta = pair_distance(sites[i], sites[j])
    else:
        delta = frac * (diam if diam > 0 else 1.0)

    plan = greedy_cover(sites, delta)
    assert plan.center_indices == greedy_cover_rows_oracle(sites, delta)
    assert (plan.verified, plan.uncovered_witness) == (True, None)
    for centers in (plan.center_indices, plan.center_indices[: len(plan.center_indices) // 2]):
        assert is_cover(sites, centers, delta) == is_cover_rows_oracle(sites, centers, delta)
    assert greedy_packing(sites, delta) == greedy_packing_oracle(sites, delta)


def _window_layouts():
    """Site sets of N > 128, so that N x N tables span several x-window
    blocks, with the first coordinate tied or badly conditioned."""
    rng = np.random.default_rng(31)
    one_x = rng.random((300, 3))
    one_x[:, 0] = 0.375  # every window is everything
    columns = np.array([[i, j] for i in range(12) for j in range(25)]) / 8.0  # ties in x
    cluster = 1e12 + rng.random((400, 2)) * 1e6
    spread = rng.choice([-1.0, 1.0], (600, 3)) * 10.0 ** rng.uniform(6, 12, (600, 3))
    tiny = rng.random((200, 2)) * 1e-160  # squared distances are subnormal
    return {"one-x": one_x, "columns": columns, "cluster": cluster, "spread": spread, "tiny": tiny}


@pytest.mark.parametrize("layout", sorted(_window_layouts()))
def test_x_blocks_match_reference_loops(layout):
    sites = _window_layouts()[layout]
    n = sites.shape[0]
    rng = np.random.default_rng(n)
    i, j = (int(v) for v in rng.choice(n, 2, replace=False))
    nearest = min(pair_distance(sites[i], sites[k]) for k in range(n) if k != i)
    # at a nearest-neighbour distance nearly every site is a center; at a
    # random pair distance closed balls and ties decide
    deltas = [nearest, pair_distance(sites[i], sites[j])]
    if layout == "tiny":
        deltas.append(1e-163)
    for delta in deltas:
        plan = greedy_cover(sites, delta)
        assert plan.center_indices == greedy_cover_rows_oracle(sites, delta)
        assert (plan.verified, plan.uncovered_witness) == (True, None)
        for centers in (plan.center_indices, plan.center_indices[::2], plan.center_indices[-3:]):
            assert is_cover(sites, centers, delta) == is_cover_rows_oracle(sites, centers, delta)
        assert greedy_packing(sites, delta) == greedy_packing_oracle(sites, delta)
    # radius 0: each site's window must still hold the sites tied with it in x
    assert is_cover(sites, list(range(n)), 0.0) == (True, None)


@pytest.mark.parametrize("rows, near, r", [
    # 1 + 2**-52 - 2**-53 rounds to 1, yet 1 + 2**-52 - 1 > 2**-53: only the
    # 2**-20 margin keeps each of these two sites in the other's window
    ([[2.0**-53, 0.0], [1.0 + 2.0**-52, 0.0]], [[2.0**-53, 0.0], [1.0 + 2.0**-52, 0.0]], 1.0),
    # 1.5e-163 squared rounds to 0: only the 2**-500 floor keeps it
    ([[0.0, 0.0], [0.0, 0.0]], [[1.5e-163, 0.0]], 1e-163),
])
def test_x_blocks_keep_pairs_that_round_into_r(rows, near, r):
    # 9000 far cols make the table windowed, and every block in the first
    # case one row, so that each row's own window must reach the near cols
    rows, cols = np.array(rows), np.array(near + [[0.5, 10.0 + k] for k in range(9000)])
    met = np.zeros((rows.shape[0], cols.shape[0]), dtype=bool)
    for ri, ci in _x_blocks(rows, cols, r):
        met[np.ix_(np.arange(rows.shape[0])[ri], np.arange(cols.shape[0])[ci])] = True
    close = np.sqrt(_sq_dists(rows, cols)) <= r
    assert close[:, : len(near)].all() and not close[~met].any()


def test_is_cover_names_lowest_site_whatever_the_x_order():
    # 400 sites on a line, x = 399 - index, with a center on every even
    # site but 6 (x = 393) and 300 (x = 99): the x-ordered blocks find site
    # 300 first, and the scan must go on until every site below it is checked
    sites = np.column_stack([399.0 - np.arange(400), np.zeros(400)])
    for missing, witness in (((6, 300), 6), ((300,), 300)):
        centers = [c for c in range(0, 400, 2) if c not in missing]
        assert is_cover(sites, centers, 1.0) == is_cover_rows_oracle(sites, centers, 1.0) == (False, witness)


@settings(max_examples=30, deadline=None)
@given(site_sets(max_n=400), st.floats(0.0, 0.6), st.integers(1, 4))
def test_x_blocks_meet_every_close_pair(sites, frac, stride):
    r = frac * float(np.ptp(sites))
    cols = sites[::stride]
    n_rows, n_cols = sites.shape[0], cols.shape[0]
    met = np.zeros((n_rows, n_cols), dtype=bool)
    seen = []
    for ri, ci in _x_blocks(sites, cols, r):
        rows, cs = np.arange(n_rows)[ri], np.arange(n_cols)[ci]
        assert rows.size == 1 or rows.size * cs.size <= _BLOCK_ELEMS
        met[np.ix_(rows, cs)] = True
        seen.extend(rows.tolist())
    assert sorted(seen) == list(range(n_rows))
    assert not (np.sqrt(_sq_dists(sites, cols)) <= r)[~met].any()


def test_x_blocks_skip_far_pairs():
    # at the grid plan's delta0 each window holds one lattice column
    sites = load_jetfile(fixture_path("grid-unit-square")).sites
    elems = sum(np.arange(2500)[ri].size * np.arange(2500)[ci].size for ri, ci in _x_blocks(sites, sites, 2.8e-4))
    assert elems < 2500**2 / 10


def test_is_cover_witness_in_a_late_block():
    # 1666 centers give row blocks of a few sites; the gap left by the
    # missing center at 3000 is far past the first block
    sites = np.arange(5000.0)[:, None]
    centers = [c for c in range(0, 5000, 3) if c != 3000]
    assert is_cover(sites, centers, 1.0) == (False, 2999)
    assert is_cover_rows_oracle(sites, centers, 1.0) == (False, 2999)
    assert is_cover(sites, centers + [3000], 1.0) == (True, None)


def test_grid_fixture_cover_sizes():
    sites = load_jetfile(fixture_path("grid-unit-square")).sites
    plan = greedy_cover(sites, 0.05)
    assert len(plan.center_indices) == 273 and plan.verified
    assert plan.center_indices == greedy_cover_rows_oracle(sites, 0.05)
    # below the grid spacing 1/49 every site is a center
    assert sorted(greedy_cover(sites, 2.8e-4).center_indices) == list(range(2500))
