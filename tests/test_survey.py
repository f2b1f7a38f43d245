"""Tests for the floor-line survey and the slice-dimension scans."""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from latslice import generators as gen
from latslice import survey as sv
from latslice.geometry import PointSet


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
    # points beyond the box or off integer rows are not surveyed
    pts = PointSet(np.array([[2.0, 3.0], [100.0, 3.0], [2.0, 3.5]]))
    cfg = sv.SurveyConfig(n_side=8, m_range=4.0, grid_u=16, grid_v=16)
    rep = sv.survey_floor_lines(pts, cfg)
    assert rep.point_count == 2             # inside the box
    assert rep.lattice_row_points == 1      # on an integer row


def test_survey_config_validation():
    with pytest.raises(ValueError):
        sv.SurveyConfig(n_side=1, m_range=4.0)
    with pytest.raises(ValueError):
        sv.SurveyConfig(n_side=8, m_range=0.5)
    with pytest.raises(ValueError):
        sv.SurveyConfig(n_side=8, m_range=4.0, k_threshold=1.0)
    with pytest.raises(ValueError):
        sv.SurveyConfig(n_side=8)           # no m_range, no alpha_ratio
    with pytest.raises(ValueError):
        sv.SurveyConfig(n_side=8, m_range=2.0)  # default k needs m_range > e
    with pytest.raises(ValueError):
        sv.SurveyConfig(n_side=8, m_range=4.0, mode="quasi")
    cfg = sv.SurveyConfig(n_side=64, alpha_ratio=2.0)
    assert cfg.m_range == 32.0
    cfg2 = sv.SurveyConfig(n_side=8, m_range=2.0, k_threshold=1.5)
    assert cfg2.k_threshold == 1.5


def test_tube_dim_along_horizontal_floor_row():
    stair = gen.gen_parabolic_staircase(256)
    prof = sv.tube_dim_along(stair, None, -0.5, 2.0 ** np.arange(1, 17))
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
    _, a, b, new_row = sv._row_sorted_starts(ps, n_side)
    return sv._mc_counts(a, b, new_row, np.asarray(us, dtype=float),
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


def test_mc_fix_up_beyond_its_bound_raises_a_typed_error():
    # at u = 2^-21 the exact run end is 127 points from the searched one
    ps = row_near_two_to_forty(300)
    with pytest.raises(sv.SurveyPrecisionError, match="no run end within"):
        kernel_counts(ps, 2 ** 41, [2.0 ** -21], [2.0 ** 40 - 2.0 ** -13])
