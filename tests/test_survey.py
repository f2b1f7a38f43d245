"""Tests for the floor-line survey and the slice-dimension scans."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from latslice import generators as gen
from latslice import survey as sv
from latslice.exact import MAX_MATERIALIZE_POINTS, MaterializeError
from latslice.geometry import FloorLine, PointSet, slice_floor_line


def test_single_point_mean_under_reciprocal_range():
    one = PointSet(np.array([[3.0, 2.0]]))
    cfg = sv.SurveyConfig(n_side=8, m_range=4.0, grid_u=64, grid_v=64)
    rep = sv.survey_floor_lines(one, cfg)
    assert rep.bound == 0.25                # |E_N| / M
    assert 0.0 < rep.mean_exact_v <= rep.bound
    assert 0.0 < rep.mean <= rep.bound + rep.resolution_term
    assert rep.point_count == 1


def test_empty_set_survey_is_all_zero():
    cfg = sv.SurveyConfig(n_side=8, m_range=4.0, grid_u=32, grid_v=32)
    rep = sv.survey_floor_lines(PointSet(np.empty((0, 2))), cfg)
    assert rep.mean == 0.0
    assert rep.bound == 0.0
    assert rep.good_fraction == 1.0


def test_full_lattice_survey_invariants():
    full = gen.gen_cartesian(np.arange(65), np.arange(65))
    cfg = sv.SurveyConfig(n_side=64, m_range=64.0, grid_u=128, grid_v=128)
    rep = sv.survey_floor_lines(full, cfg)
    assert rep.point_count == 65 * 65
    assert rep.lattice_row_points == 65 * 65
    assert rep.bound == pytest.approx(65 * 65 / 64.0)
    assert rep.k == pytest.approx(np.log(64.0))    # sqrt(ln M * ln N), M == N
    assert rep.threshold == pytest.approx(rep.k * rep.bound)
    assert rep.mean_exact_v <= rep.bound + 1e-9
    assert rep.mean <= rep.bound + rep.resolution_term + 1e-9
    assert rep.good_fraction >= 1.0 - 1.0 / rep.k
    assert rep.good_fraction == 1.0
    assert rep.mean == pytest.approx(3.02, abs=0.05)


def test_survey_counts_grid_shape():
    full = gen.gen_cartesian(np.arange(17), np.arange(17))
    cfg = sv.SurveyConfig(n_side=16, m_range=16.0, grid_u=24, grid_v=20)
    rep = sv.survey_floor_lines(full, cfg, store_counts=True)
    assert rep.counts.shape == (24, 20)
    assert rep.counts.min() >= 0
    assert rep.mean == pytest.approx(float(rep.counts.mean()))


def test_mc_mode_agrees_with_exact_mean():
    full = gen.gen_cartesian(np.arange(65), np.arange(65))
    grid = sv.survey_floor_lines(
        full, sv.SurveyConfig(n_side=64, m_range=64.0, grid_u=128, grid_v=128))
    mc = sv.survey_floor_lines(
        full, sv.SurveyConfig(n_side=64, m_range=64.0, mode="mc",
                              mc_samples=20000, seed=4))
    assert mc.mc_std_error > 0.0
    assert abs(mc.mean - grid.mean_exact_v) <= 3.0 * mc.mc_std_error


def test_mc_mode_is_seeded():
    ps = gen.gen_random_dimension(1.2, 64, seed=9)
    cfg = sv.SurveyConfig(n_side=64, m_range=8.0, mode="mc",
                          mc_samples=2000, seed=77)
    a = sv.survey_floor_lines(ps, cfg)
    b = sv.survey_floor_lines(ps, cfg)
    assert a.mean == b.mean
    assert a.good_fraction == b.good_fraction


def test_survey_restricts_to_n_side_box():
    cfg = sv.SurveyConfig(n_side=8, m_range=4.0, grid_u=16, grid_v=16)
    cases = [
        # points beyond the box or off integer rows are not surveyed
        ([[2.0, 3.0], [100.0, 3.0], [2.0, 3.5]], 2, 1),
        # the box [0, N]^2 is closed: its four edges and corners count
        ([[0.0, 3.0], [8.0, 3.0], [2.0, 0.0], [2.0, 8.0], [0.0, 0.0],
          [8.0, 8.0]], 6, 6),
        ([[0.0, 2.5], [8.0, 2.5]], 2, 0),
        # just past each edge does not
        ([[-1e-9, 3.0], [8.0 + 1e-9, 3.0], [2.0, -1e-9], [2.0, 8.0 + 1e-9]],
         0, 0),
        ([[-1.0, 3.0], [9.0, 3.0], [2.0, -1.0], [2.0, 9.0], [0.0, 3.0]], 1, 1),
    ]
    for points, inside, on_rows in cases:
        rep = sv.survey_floor_lines(PointSet(np.array(points)), cfg)
        assert (rep.point_count, rep.lattice_row_points) == (inside, on_rows), \
            points


def test_survey_config_validation():
    with pytest.raises(ValueError):
        sv.SurveyConfig(n_side=1, m_range=4.0)
    with pytest.raises(ValueError):
        sv.SurveyConfig(n_side=8, m_range=0.5)
    with pytest.raises(ValueError):
        sv.SurveyConfig(n_side=8, m_range=4.0, k_threshold=1.0)
    with pytest.raises(ValueError, match="k_threshold must exceed 1"):
        sv.SurveyConfig(n_side=8, m_range=4.0, k_threshold=math.nan)
    with pytest.raises(ValueError):
        sv.SurveyConfig(n_side=8)           # no m_range
    with pytest.raises(ValueError):
        sv.SurveyConfig(n_side=8, m_range=2.0)  # default k needs m_range > e
    with pytest.raises(ValueError):
        sv.SurveyConfig(n_side=8, m_range=4.0, mode="quasi")
    cfg2 = sv.SurveyConfig(n_side=8, m_range=2.0, k_threshold=1.5)
    assert cfg2.k_threshold == 1.5


@pytest.mark.parametrize("kwargs, needle", [
    ({"grid_u": 100_000, "grid_v": 100_000},
     "survey grid 100000x100000 holds 10000000000 cells; the cap is"),
    ({"mode": "mc", "mc_samples": 10 ** 10},
     "mc survey of 10000000000 samples; the cap is"),
])
def test_survey_config_refuses_samples_past_the_cap(kwargs, needle):
    with pytest.raises(MaterializeError, match=needle):
        sv.SurveyConfig(n_side=8, m_range=4.0, **kwargs)


def test_tube_dim_along_horizontal_floor_row():
    stair = gen.gen_parabolic_staircase(256)
    prof = sv.tube_dim_along(stair, math.inf, -0.5, 2.0 ** np.arange(1, 17))
    assert prof.estimate == pytest.approx(0.5, abs=1e-12)
    prof = sv.tube_dim_along(stair, -math.inf, -0.5, 2.0 ** np.arange(1, 17))
    assert prof.estimate == pytest.approx(0.5, abs=1e-12)


def test_tube_dim_along_lattice_diagonal():
    full = gen.gen_cartesian(np.arange(257), np.arange(257))
    prof = sv.tube_dim_along(full, -1.0, 0.3, 2.0 ** np.arange(1, 9))
    assert prof.estimate == pytest.approx(1.0, abs=1e-12)


def test_exception_ray_scan_monotone_in_threshold():
    full = gen.gen_cartesian(np.arange(257), np.arange(257))
    scales = 2.0 ** np.arange(1, 9)
    lo = sv.exception_ray_scan(full, 0.3, (-2.0, -0.5), 16, 0.5, scales=scales)
    hi = sv.exception_ray_scan(full, 0.3, (-2.0, -0.5), 16, 1.4, scales=scales)
    assert lo == 1.0                        # every lattice ray is 1-dimensional
    assert hi == 0.0
    assert lo >= hi


def test_exception_ray_scan_rejects_zero_slope_sample():
    full = gen.gen_cartesian(np.arange(9), np.arange(9))
    with pytest.raises(ValueError):
        sv.exception_ray_scan(full, 0.3, (-1.0, 1.0), 5, 0.5)


@pytest.mark.parametrize("u_interval, threshold", [
    ((-2.0, -0.5), math.nan), ((-2.0, -0.5), math.inf),
    ((-2.0, math.inf), 0.5), ((-math.inf, -0.5), 0.5),
    ((-1e308, 1e308), 0.5),
], ids=["nan-threshold", "inf-threshold", "inf-hi", "inf-lo", "overflow"])
def test_exception_ray_scan_refuses_non_finite_input(u_interval, threshold):
    # a nan threshold would read 0.0, and an infinite end would sample only
    # u = inf, the horizontal tube
    full = gen.gen_cartesian(np.arange(33), np.arange(33))
    with pytest.raises(ValueError, match="finite"):
        sv.exception_ray_scan(full, 0.3, u_interval, 4, threshold)


def test_exception_ray_scan_refuses_samples_beyond_the_cap_before_allocating():
    # 10^10 slope samples would be a 74.5 GiB float array
    full = gen.gen_cartesian(np.arange(4), np.arange(4))
    tracemalloc.start()
    try:
        with pytest.raises(MaterializeError, match="the cap is"):
            sv.exception_ray_scan(full, 0.3, (1.0, 2.0), 10 ** 10, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(MaterializeError):
        sv.exception_ray_scan(full, 0.3, (1.0, 2.0),
                              MAX_MATERIALIZE_POINTS + 1, 0.5)


def test_exception_ray_scan_empty_set():
    empty = PointSet(np.empty((0, 2)))
    assert sv.exception_ray_scan(empty, 0.3, (-2.0, -1.0), 4, 0.1) == 0.0


# ---------------------------------------------------------------------------
# Monte Carlo mode against a per-draw scan
# ---------------------------------------------------------------------------

def scan_counts(pts: np.ndarray, n_side: int, us, vs) -> np.ndarray:
    """Reference: every draw (u, v) tests every point of [0, n_side]^2 on an
    integer row with start <= v < start + 1, start = b - u a, and counts
    the distinct heights b hit."""
    x, y = pts[:, 0], pts[:, 1]
    keep = (x >= 0.0) & (x <= n_side) & (y >= 0.0) & (y <= n_side) & (y == np.floor(y))
    a, b = x[keep], y[keep]
    counts = np.zeros(len(us), dtype=np.int64)
    for i in range(len(us)):
        starts = b - us[i] * a
        hit = (starts <= vs[i]) & (vs[i] < starts + 1.0)
        counts[i] = np.unique(b[hit]).size
    return counts


def scan_survey(ps: PointSet, cfg: sv.SurveyConfig):
    """Counts, mean and standard error of an mc survey by the reference
    scan, with the draws documented for mc mode: u then v, uniform on
    (0, M], from numpy's default generator seeded with the survey seed."""
    rng = np.random.default_rng(cfg.seed)
    us = rng.uniform(0.0, cfg.m_range, size=cfg.mc_samples)
    vs = rng.uniform(0.0, cfg.m_range, size=cfg.mc_samples)
    counts = scan_counts(ps.points, cfg.n_side, us, vs)
    err = float(counts.std(ddof=1) / math.sqrt(counts.size)) if counts.size > 1 else 0.0
    return counts, float(counts.mean()), err


def kernel_counts(ps: PointSet, n_side: int, us, vs) -> np.ndarray:
    return sv._mc_counts(sv._RowRuns(ps, n_side), np.asarray(us, dtype=float),
                         np.asarray(vs, dtype=float))


def assert_mc_matches_scan(ps: PointSet, cfg: sv.SurveyConfig):
    rep = sv.survey_floor_lines(ps, cfg, store_counts=True)
    counts, mean, err = scan_survey(ps, cfg)
    assert np.array_equal(rep.counts, counts)
    assert rep.mean == mean
    assert rep.mc_std_error == err


def test_mc_half_integer_draws_on_lattice_match_scan():
    # u and v on the half-integer grid make b - u a land exactly on v and on
    # v - 1 for many points, so both ends of the hit interval are tested
    lat = gen.gen_cartesian(np.arange(256), np.arange(256))
    rng = np.random.default_rng(11)
    us = rng.integers(1, 513, size=600) / 2.0
    vs = rng.integers(0, 513, size=600) / 2.0
    assert np.array_equal(kernel_counts(lat, 256, us, vs),
                          scan_counts(lat.points, 256, us, vs))


def test_mc_survey_on_lattice_matches_scan():
    lat = gen.gen_cartesian(np.arange(256), np.arange(256))
    assert_mc_matches_scan(lat, sv.SurveyConfig(n_side=256, m_range=256.0,
                                                mode="mc", mc_samples=300, seed=3))


@pytest.mark.parametrize("seed", [1, 2])
def test_mc_survey_on_sparse_sets_matches_scan(seed):
    ps = gen.gen_random_dimension(0.8, 512, seed)
    assert_mc_matches_scan(ps, sv.SurveyConfig(n_side=512, m_range=64.0, mode="mc",
                                               mc_samples=700, seed=seed))


def test_mc_survey_with_non_integer_x_and_some_rows_matches_scan():
    rng = np.random.default_rng(5)
    rows = rng.choice(np.arange(100), size=7, replace=False)
    x = rng.uniform(0.0, 100.0, size=400)
    y = np.concatenate([rng.choice(rows, size=300).astype(float),
                        rng.uniform(0.0, 100.0, size=100)])
    ps = PointSet(np.column_stack([x, y]))
    assert_mc_matches_scan(ps, sv.SurveyConfig(n_side=90, m_range=10.0, mode="mc",
                                               mc_samples=900, seed=8))


def test_mc_survey_with_one_draw_matches_scan():
    lat = gen.gen_cartesian(np.arange(64), np.arange(64))
    cfg = sv.SurveyConfig(n_side=64, m_range=64.0, mode="mc", mc_samples=1, seed=2)
    assert_mc_matches_scan(lat, cfg)
    assert sv.survey_floor_lines(lat, cfg).mc_std_error == 0.0


def test_mc_survey_with_no_points_on_rows_is_all_zero():
    off_rows = PointSet(np.array([[1.0, 2.5], [3.0, 0.25], [30.0, 4.0]]))
    cfg = sv.SurveyConfig(n_side=8, m_range=4.0, mode="mc", mc_samples=50, seed=1)
    rep = sv.survey_floor_lines(off_rows, cfg, store_counts=True)
    assert rep.lattice_row_points == 0
    assert not rep.counts.any()
    assert_mc_matches_scan(off_rows, cfg)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.integers(0, 64), st.integers(0, 12)), max_size=60),
       st.lists(st.tuples(st.integers(0, 64), st.integers(0, 96)),
                min_size=1, max_size=40))
def test_mc_kernel_matches_scan_on_quarter_grids(points, draws):
    """Points with x on a quarter grid and draws with u on a quarter grid and
    v on an eighth grid: starts and their ends fall exactly on many v."""
    pts = np.array(points, dtype=float).reshape(-1, 2) * [0.25, 1.0]
    us, vs = (np.array(draws, dtype=float) * [0.25, 0.125]).T
    ps = PointSet(pts)
    assert np.array_equal(kernel_counts(ps, 16, us, vs),
                          scan_counts(pts, 16, us, vs))


def row_near_two_to_forty(n: int) -> PointSet:
    """n integer points on the row b = 2^40, where b - u a rounds to steps
    of 2^-13 and a tiny u moves the exact run end far from (b - v) / u."""
    return PointSet(np.column_stack([np.arange(n, dtype=float),
                                     np.full(n, 2.0 ** 40)]))


@pytest.mark.parametrize("e", [15, 17, 19])
def test_mc_fix_up_walks_to_the_exact_run_end(e):
    # at u = 2^-e the exact run end lies about 2^(e-14) points from the
    # one the threshold search finds: 1 to 32 fix-up steps
    ps = row_near_two_to_forty(300)
    us, vs = [2.0 ** -e, 2.0 ** -e], [2.0 ** 40 - 2.0 ** -13, 2.0 ** 40 - 2.0 ** -12]
    assert np.array_equal(kernel_counts(ps, 2 ** 41, us, vs),
                          scan_counts(ps.points, 2 ** 41, us, vs))


@pytest.mark.parametrize("e", [21, 30])
def test_mc_run_ends_far_from_the_search_are_exact(e):
    # at u = 2^-21 the exact run end is 127 points from the searched one,
    # at u = 2^-30 every start of the row rounds to 2^40
    ps = row_near_two_to_forty(300)
    us = [2.0 ** -e] * 3
    vs = [2.0 ** 40 - 2.0 ** -13, 2.0 ** 40 - 2.0 ** -12, 2.0 ** 40]
    assert np.array_equal(kernel_counts(ps, 2 ** 41, us, vs),
                          scan_counts(ps.points, 2 ** 41, us, vs))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.lists(st.tuples(st.integers(12, 26), st.integers(-64, 64)),
                                   min_size=1, max_size=8))
def test_run_ends_match_a_scan_of_each_row(step, pairs):
    """Rows next to 2^40, where b - u a rounds in steps of 2^-13 or 2^-12,
    with slopes 2^-26 to 2^-12 and thresholds between those steps: many
    searched run ends land points away from the exact ones."""
    a = np.arange(0.0, 400.0, step / 4.0)
    pts = np.concatenate([np.column_stack([a, np.full(a.size, 2.0 ** 40 + d)])
                          for d in (-1.0, 0.0, 1.0)])
    runs = sv._RowRuns(PointSet(pts), 2 ** 41)
    u = np.array([2.0 ** -e for e, _ in pairs])[:, None]
    t = np.array([2.0 ** 40 + j * 2.0 ** -16 for _, j in pairs])[:, None]
    below = (runs.b - u * runs.a <= t).astype(np.int64)
    expect = runs.lo + np.add.reduceat(below, runs.lo, axis=1)
    assert np.array_equal(runs.ends(u, t), expect)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.integers(-8, 76), st.integers(-4, 38)), max_size=60),
       st.lists(st.tuples(st.integers(1, 64), st.integers(0, 128)),
                min_size=1, max_size=20))
def test_mc_kernel_agrees_with_slice_floor_line(points, draws):
    """The survey's start test b - u a <= v < b - u a + 1 and
    ``slice_floor_line``'s b == floor(u a + v) say the same in the reals;
    with x on a quarter grid, y on a half grid, u on a quarter grid and v
    on an eighth grid both float predicates are exact, so each mc count is
    the length of the slice of the set restricted to [0, N]^2."""
    n_side = 16
    pts = np.array(points, dtype=float).reshape(-1, 2) * [0.25, 0.5]
    inside = np.all((pts >= 0.0) & (pts <= n_side), axis=1)
    window = PointSet(pts[inside])
    us, vs = (np.array(draws, dtype=float) * [0.25, 0.125]).T
    expect = [len(slice_floor_line(window, FloorLine(u, v), n_side))
              for u, v in zip(us, vs)]
    assert np.array_equal(kernel_counts(PointSet(pts), n_side, us, vs), expect)


# ---------------------------------------------------------------------------
# Grid mode against a per-cell scan and the per-slope merge loop
# ---------------------------------------------------------------------------

def grid_centres(cfg: sv.SurveyConfig):
    """The sampled slopes and offsets documented for grid mode: the cell
    centres of a grid_u x grid_v grid over (0, M]^2."""
    m = cfg.m_range
    return ((np.arange(cfg.grid_u) + 0.5) * (m / cfg.grid_u),
            (np.arange(cfg.grid_v) + 0.5) * (m / cfg.grid_v))


def test_merged_segments_chain_at_the_hit_tests_float_end():
    # fl(0.5 + 2^-53 + 1) = 1.5, so v = 1.5 hits neither interval, though
    # the float gap between the two starts rounds to exactly 1.0
    starts = np.array([0.5 + 2.0 ** -53, 1.5 + 2.0 ** -52])
    assert starts[1] - starts[0] == 1.0 and starts[0] + 1.0 == 1.5
    first, seg_lo, seg_hi = sv._merged_segments(starts, np.array([True, False]))
    assert first.tolist() == [0, 1]
    assert seg_lo.tolist() == starts.tolist()
    assert seg_hi.tolist() == (starts + 1.0).tolist()


def loop_mean_exact_v(ps: PointSet, cfg: sv.SurveyConfig) -> float:
    """Reference for ``mean_exact_v``: for every slope, form all row points'
    starts, merge each row's chained unit intervals and sum the merged
    lengths inside (0, M]."""
    runs = sv._RowRuns(ps, cfg.n_side)
    a, b = runs.a, runs.b
    new_row = np.zeros(a.size, dtype=bool)
    new_row[runs.lo] = True
    m = cfg.m_range
    us, _ = grid_centres(cfg)
    per_slope = np.zeros(us.size)
    for i, u in enumerate(us):
        starts = b - u * a
        if starts.size == 0:
            continue
        new_seg = new_row.copy()
        new_seg[1:] |= starts[1:] - starts[:-1] > 1.0
        first = np.flatnonzero(new_seg)
        last = np.append(first[1:], starts.size) - 1
        seg_lo, seg_hi = starts[first], starts[last] + 1.0
        lengths = np.clip(np.minimum(seg_hi, m) - np.maximum(seg_lo, 0.0), 0.0, None)
        per_slope[i] = lengths.sum() / m
    return float(per_slope.mean())


@st.composite
def grid_surveys(draw):
    """A point set and a grid survey of it.  Dyadic cases keep x on a
    quarter grid, M an integer and both grid sides powers of two, so every
    start and merged length is exact; the others draw x, M and the grid
    freely.  Points may lie off integer rows, on rows outside [0, N], at
    negative x or beyond N, and crowd onto a few rows or spread out."""
    dyadic = draw(st.booleans())
    n_side = 16
    rows = draw(st.lists(st.integers(-2, 19), min_size=1, max_size=6))
    n = draw(st.integers(0, 70))
    if dyadic:
        xs = [q / 4.0 for q in draw(st.lists(st.integers(-8, 76), min_size=n, max_size=n))]
        m = float(draw(st.integers(1, 40)))
        grid_u, grid_v = (2 ** draw(st.integers(0, 5)) for _ in range(2))
    else:
        xs = draw(st.lists(st.floats(-2.0, 18.0, allow_nan=False), min_size=n, max_size=n))
        m = draw(st.floats(1.0, 40.0))
        grid_u, grid_v = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    ys = [float(draw(st.sampled_from(rows))) + draw(st.sampled_from([0.0, 0.0, 0.0, 0.5]))
          for _ in range(n)]
    cfg = sv.SurveyConfig(n_side=n_side, m_range=m, grid_u=grid_u, grid_v=grid_v,
                          k_threshold=2.0)
    return PointSet(np.column_stack([xs, ys]) if n else np.empty((0, 2))), cfg, dyadic


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(grid_surveys())
def test_grid_survey_matches_scan_and_merge_loop(case):
    ps, cfg, dyadic = case
    rep = sv.survey_floor_lines(ps, cfg, store_counts=True)
    us, vs = grid_centres(cfg)
    scan = scan_counts(ps.points, cfg.n_side, np.repeat(us, vs.size), np.tile(vs, us.size))
    assert np.array_equal(rep.counts, scan.reshape(us.size, vs.size))
    ref = loop_mean_exact_v(ps, cfg)
    if dyadic:
        assert rep.mean_exact_v == ref
    else:
        assert rep.mean_exact_v == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_grid_survey_on_lattice_matches_scan_and_merge_loop():
    lat = gen.gen_cartesian(np.arange(64), np.arange(64))
    cfg = sv.SurveyConfig(n_side=64, m_range=64.0, grid_u=64, grid_v=128)
    rep = sv.survey_floor_lines(lat, cfg, store_counts=True)
    us, vs = grid_centres(cfg)
    scan = scan_counts(lat.points, 64, np.repeat(us, vs.size), np.tile(vs, us.size))
    assert np.array_equal(rep.counts, scan.reshape(us.size, vs.size))
    assert rep.mean_exact_v == loop_mean_exact_v(lat, cfg)


@pytest.mark.parametrize("budget", [1, 60, 900])
def test_survey_blocks_do_not_change_the_result(budget, monkeypatch):
    # budgets below one slope's kept points, below one slope's rows, and
    # between: every split of slopes, draws and kept points gives the same
    ps = gen.gen_random_dimension(1.2, 64, seed=5)
    grid = sv.SurveyConfig(n_side=64, m_range=16.0, grid_u=40, grid_v=24)
    mc = sv.SurveyConfig(n_side=64, m_range=16.0, mode="mc", mc_samples=300, seed=6)
    whole = [sv.survey_floor_lines(ps, cfg, store_counts=True) for cfg in (grid, mc)]
    monkeypatch.setattr(sv, "_BLOCK", budget)
    split = [sv.survey_floor_lines(ps, cfg, store_counts=True) for cfg in (grid, mc)]
    for w, s in zip(whole, split):
        assert np.array_equal(w.counts, s.counts)
    assert split[0].mean_exact_v == whole[0].mean_exact_v


# ---------------------------------------------------------------------------
# The row index a set keeps
# ---------------------------------------------------------------------------

def _counted_row_runs(monkeypatch) -> list:
    """Patch ``survey._RowRuns`` to record the n_side of every build."""
    built, row_runs = [], sv._RowRuns

    def counted(ps, n_side):
        built.append(n_side)
        return row_runs(ps, n_side)

    monkeypatch.setattr(sv, "_RowRuns", counted)
    return built


def test_surveys_of_one_window_build_the_row_index_once(monkeypatch):
    built = _counted_row_runs(monkeypatch)
    lattice = gen.gen_cartesian(np.arange(33), np.arange(33))
    grid = sv.SurveyConfig(n_side=32, m_range=32.0, grid_u=16, grid_v=16)
    mc = sv.SurveyConfig(n_side=32, m_range=32.0, mode="mc", mc_samples=64)
    first = sv.survey_floor_lines(lattice, grid, store_counts=True)
    sv.survey_floor_lines(lattice, mc)
    again = sv.survey_floor_lines(lattice, grid, store_counts=True)
    assert built == [32]
    assert np.array_equal(again.counts, first.counts)


def test_a_survey_of_another_window_replaces_the_row_index(monkeypatch):
    built = _counted_row_runs(monkeypatch)
    lattice = gen.gen_cartesian(np.arange(33), np.arange(33))
    wide = sv.SurveyConfig(n_side=32, m_range=32.0, grid_u=16, grid_v=16)
    narrow = sv.SurveyConfig(n_side=16, m_range=16.0, grid_u=16, grid_v=16)
    sv.survey_floor_lines(lattice, wide)
    got = sv.survey_floor_lines(lattice, narrow, store_counts=True)
    fresh = sv.survey_floor_lines(PointSet(lattice.points), narrow, store_counts=True)
    assert np.array_equal(got.counts, fresh.counts)
    assert dataclasses.replace(got, counts=None) == dataclasses.replace(fresh, counts=None)
    sv.survey_floor_lines(lattice, wide)    # a set keeps one index, not two
    assert built == [32, 16, 16, 32]


def test_the_kept_row_index_is_read_only():
    lattice = gen.gen_cartesian(np.arange(9), np.arange(9))
    cfg = sv.SurveyConfig(n_side=8, m_range=8.0, grid_u=4, grid_v=4)
    before = sv.survey_floor_lines(lattice, cfg, store_counts=True)
    runs = lattice._row_runs
    kept = (runs.a, runs.b, runs.lo, runs.hi, runs.row_b,
            runs.index.order, runs.index.keys, runs.index.values)
    for arr in kept:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 99
    after = sv.survey_floor_lines(lattice, cfg, store_counts=True)
    assert np.array_equal(after.counts, before.counts)
