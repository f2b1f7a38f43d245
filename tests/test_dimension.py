"""Tests for the finite-scale dimension estimators and level finder."""
import math

import numpy as np
import pytest

from latslice import dimension as dim
from latslice import finitefield as ff
from latslice import generators as gen
from latslice.dimension import _axial_sorted
from latslice.exact import MaterializeError
from latslice.geometry import BoxSpec, PointSet, Tube


def diag_line(count, axial_offset=0.0, perp=0.5):
    """Unit-spaced points along y=x, pushed into the interior of t_{-1,0}."""
    base = gen.gen_unit_line(1.0, count).points
    shift = (axial_offset * np.array([1.0, 1.0])
             + perp * np.array([-1.0, 1.0])) / math.sqrt(2.0)
    return PointSet(base + shift)


# ---------------------------------------------------------------------------
# Mass dimension
# ---------------------------------------------------------------------------

def test_mass_full_lattice_counts_and_estimate():
    side = 2 ** 7
    ps = gen.gen_cartesian(np.arange(side + 1), np.arange(side + 1))
    prof = dim.mass_dim_profile(ps)
    for l, c in zip(prof.scales, prof.counts):
        assert c == (int(l) + 1) ** 2
    assert prof.estimate == pytest.approx(2.0, abs=0.1)
    assert np.all(np.diff(prof.counts) >= 0)


def test_mass_x_axis_is_one_dimensional():
    ps = gen.gen_cartesian(np.arange(4096), [0])
    prof = dim.mass_dim_profile(ps)
    assert prof.estimate == pytest.approx(1.0, abs=0.05)


def test_mass_staircase_closed_form_at_top_scale():
    stair = gen.ParabolicStaircase(1024)
    prof = dim.mass_dim_profile(stair, scales=[2.0 ** 20])
    want = math.log(1024 * 1025 // 2) / math.log(2.0 ** 20)
    assert prof.ratios[-1] == pytest.approx(want, abs=1e-12)
    assert prof.counts[-1] == 524800


def test_mass_profile_keeps_counts_beyond_int64_exact():
    cone = gen.ConeStaircase(0.5, 6)
    prof = dim.mass_dim_profile(cone, scales=dim.dyadic_scales(2.0 ** 140))
    top = cone.box_count(BoxSpec("first_quadrant", 2.0 ** 140))
    assert top > 2 ** 127
    assert prof.counts.dtype == object and prof.counts[-1] == top
    assert prof.ratios[-1] == pytest.approx(math.log(top) / math.log(2.0 ** 140),
                                            abs=1e-12)
    # ladders whose counts fit int64 keep the int64 array
    small = dim.mass_dim_profile(cone, scales=dim.dyadic_scales(2.0 ** 40))
    assert small.counts.dtype == np.int64


def test_mass_centered_boxes():
    ps = gen.gen_cartesian(np.arange(9), np.arange(9))
    prof = dim.mass_dim_profile(ps, scales=[4.0], kind="centered")
    assert prof.counts[0] == 25             # [-4,4]^2 keeps 0..4 each way
    # centered ratios divide by log(2l)
    assert prof.ratios[0] == pytest.approx(math.log(25) / math.log(8.0))


def test_mass_estimate_bounded_for_separated_sets():
    for seed in range(3):
        ps = gen.gen_random_dimension(1.7, 512, seed=seed)
        prof = dim.mass_dim_profile(ps)
        assert 0.0 <= prof.estimate <= 2.0 + 0.25


def test_mass_zero_counts_give_ratio_zero():
    ps = PointSet(np.array([[100.0, 100.0]]))
    prof = dim.mass_dim_profile(ps, scales=[2.0, 4.0])
    assert prof.ratios.tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# Counting dimension
# ---------------------------------------------------------------------------

def test_counting_full_lattice():
    ps = gen.gen_cartesian(np.arange(128), np.arange(128))
    prof = dim.counting_dim_profile(ps, window_sizes=dim.dyadic_scales(127))
    assert prof.estimate == pytest.approx(2.0, abs=0.01)


def test_counting_is_translation_robust_where_mass_degrades():
    base = gen.gen_cartesian(np.arange(32), np.arange(32))
    shifted = PointSet(base.points + np.array([1024.0, 1024.0]))
    sizes = [4.0, 8.0, 16.0]
    c_base = dim.counting_dim_profile(base, window_sizes=sizes)
    c_shift = dim.counting_dim_profile(shifted, window_sizes=sizes)
    assert np.array_equal(c_base.counts, c_shift.counts)
    m_shift = dim.mass_dim_profile(shifted, scales=sizes)
    assert np.all(m_shift.counts == 0)      # boxes at the origin see nothing


def test_counting_window_on_cone_band_is_solid():
    # bands taller than the window contain fully filled squares, so the
    # max-placement search reports side^2 there
    ps = gen.ConeAnnuli(0.2, 0, 2).materialize()
    prof = dim.counting_dim_profile(ps, window_sizes=[4.0])
    assert prof.counts[0] == 16


def test_cone_band_anchored_windows_approach_three_halves():
    # a window of side 2^(2*2^k) anchored on band k holds the whole band,
    # about theta * 2^(3*2^k) points, so the log ratio climbs toward 3/2
    cone = gen.ConeAnnuli(0.2, 0, 3)
    ratios = []
    for k in (1, 2, 3):
        s = 2 ** (2 * 2 ** k)
        y0 = 2 ** (2 ** (k + 1))
        count = cone.rect_count(-s // 2, s // 2 - 1, y0, y0 + s - 1)
        target = 0.2 * 2 ** (3 * 2 ** k)
        assert target / 1.1 <= count <= target * 1.1
        ratios.append(math.log(count) / math.log(s))
    gaps = [abs(r - 1.5) for r in ratios]
    assert gaps[0] > gaps[1] > gaps[2]
    assert ratios[-1] == pytest.approx(1.3553, abs=1e-3)


def test_counting_rejects_odd_windows():
    ps = gen.gen_cartesian([0, 1], [0, 1])
    with pytest.raises(ValueError):
        dim.counting_dim_profile(ps, window_sizes=[3.0])


@pytest.mark.parametrize("top", [math.inf, -math.inf, math.nan, 2.0 ** 63,
                                 2.0 ** 64, 0.0, -2.0])
def test_counting_rejects_window_sizes_out_of_range(top):
    # the int64 cast wraps inf, nan and 2^63 to -2^63, a window side that
    # counts without error, so these sizes must be refused before it
    ps = gen.gen_cartesian(range(8), range(8))
    with pytest.raises(ValueError, match="2\\^63"):
        dim.counting_dim_profile(ps, window_sizes=[2.0, top])


def test_counting_window_of_side_2_62_holds_the_whole_set():
    ps = gen.gen_cartesian(range(8), range(8))
    prof = dim.counting_dim_profile(ps, window_sizes=[2.0, 2.0 ** 62])
    assert prof.counts.tolist() == [4, 64]
    far = PointSet([[0.0, 0.0], [2.0 ** 62 + 2.0 ** 12, 0.0]])
    prof = dim.counting_dim_profile(far, window_sizes=[2.0, 2.0 ** 62])
    assert prof.counts.tolist() == [1, 1]


def test_mass_at_most_counting_at_same_scales():
    cases = [
        gen.gen_cartesian(np.arange(64), np.arange(64)),
        gen.gen_parabolic_staircase(64),
        gen.gen_cartesian(np.arange(2048), [0]),
        gen.gen_random_dimension(1.5, 1024, seed=2),
        gen.gen_random_dimension(0.8, 2048, seed=3),
        gen.gen_zigzag(0.2, 14)[0],
    ]
    for ps in cases:
        pm = dim.mass_dim_profile(ps)
        pc = dim.counting_dim_profile(ps, window_sizes=pm.scales.astype(float))
        assert pm.estimate <= pc.estimate + 0.05


# ---------------------------------------------------------------------------
# One-dimensional sets
# ---------------------------------------------------------------------------

def test_dim_1d_naturals():
    prof = dim.dim_1d_profile(np.arange(1, 2 ** 16 + 1))
    assert np.all(prof.ratios == 1.0)
    assert prof.estimate == 1.0


def test_dim_1d_squares_exactly_half():
    prof = dim.dim_1d_profile(np.arange(1, 257, dtype=np.int64) ** 2)
    assert prof.estimate == pytest.approx(0.5, abs=1e-12)


def test_dim_1d_random_alpha():
    # floor(k^(1/0.7)) for k = 1..1024 are distinct, so |A n [1, N]| ~ N^0.7
    vals = np.floor(np.arange(1, 2 ** 10 + 1) ** (1 / 0.7)).astype(np.int64)
    assert np.all(np.diff(vals) > 0)
    assert dim.dim_1d_profile(vals).estimate == pytest.approx(0.7, abs=0.01)


@pytest.mark.parametrize("values", [[2 ** 63], [2 ** 64], [1, -2 ** 70],
                                    [5, 2 ** 63 + 7]])
def test_dim_1d_rejects_values_past_int64(values):
    with pytest.raises(ValueError, match="positive integers below 2\\^63"):
        dim.dim_1d_profile(values)


def test_dim_1d_counts_values_up_to_int64():
    assert int(dim.dim_1d_profile([2 ** 62]).counts[-1]) == 1
    assert int(dim.dim_1d_profile([1, 2 ** 62, 2 ** 63 - 1]).counts[-1]) == 3


def test_dim_1d_rejects_nonpositive():
    with pytest.raises(ValueError):
        dim.dim_1d_profile([0, 1, 4])


@pytest.mark.parametrize("values", [[1.5, 2.7, 3.9], [1, 4, math.nan],
                                    [2, math.inf], [2.0 ** 63]])
def test_dim_1d_rejects_non_integers(values):
    # a cast to int64 would count [1.5, 2.7, 3.9] as the set {1, 2, 3}
    with pytest.raises(ValueError, match="positive integers"):
        dim.dim_1d_profile(values)


# ---------------------------------------------------------------------------
# Finite-field dimension
# ---------------------------------------------------------------------------

def test_ff_dim_examples():
    assert dim.ff_dim(ff.FiniteFieldSet.full(7)) == 2.0
    row = ff.FiniteFieldSet.from_points(7, [(i, 0) for i in range(7)])
    assert dim.ff_dim(row) == 1.0
    b37 = ff.FiniteFieldSet.from_points(
        11, [(i % 11, i // 11) for i in range(37)])
    assert dim.ff_dim(b37) == pytest.approx(math.log(37) / math.log(11))
    assert dim.ff_dim(b37) == pytest.approx(1.5060, abs=5e-4)


def test_ff_dim_empty_and_singleton():
    assert dim.ff_dim(ff.FiniteFieldSet.from_points(5, [])) == 0.0
    assert dim.ff_dim(ff.FiniteFieldSet.from_points(5, [(2, 3)])) == 0.0


def test_ff_dim_range_invariant():
    rng = np.random.default_rng(55)
    for p in (3, 7, 13):
        for _ in range(10):
            b = ff.FiniteFieldSet.random(p, density=float(rng.uniform(0, 1)),
                                         seed=int(rng.integers(10 ** 6)))
            assert 0.0 <= dim.ff_dim(b) <= 2.0


# ---------------------------------------------------------------------------
# Annulus profiles and the level finder
# ---------------------------------------------------------------------------

def test_annulus_profile_empty_set():
    ps = PointSet(np.empty((0, 2)))
    levels, counts = dim.annulus_profile(ps, -1.0, height_levels=[2, 4, 8])
    assert counts.tolist() == [0, 0, 0]


def test_annulus_profile_unit_line_half_m():
    line = diag_line(4097)
    _, counts = dim.annulus_profile(line, -1.0,
                                    height_levels=[2, 4, 8, 16, 1024])
    assert counts.tolist() == [1, 2, 4, 8, 512]


def test_annulus_profile_telescopes():
    line = diag_line(4097)
    s = _axial_sorted(line, Tube(-1.0, 0.0))
    ms = [2 ** j for j in range(1, 11)]
    _, ann = dim.annulus_profile(line, -1.0, height_levels=ms)
    base = int(np.count_nonzero(s <= 1.0))
    assert base + int(ann.sum()) == int(np.count_nonzero(s <= 1024))


def test_annulus_profile_rejects_bad_levels():
    line = diag_line(16)
    with pytest.raises(ValueError):
        dim.annulus_profile(line, -1.0, height_levels=[0, 2])


@pytest.mark.parametrize("levels", [[2.5, 4], [1e30], [math.nan], [math.inf],
                                    [2 ** 63], [2 ** 70]])
def test_annulus_profile_rejects_levels_int64_cannot_hold(levels):
    # a cast to int64 would read 2.5 as level 2 and overflow on 1e30
    line = diag_line(16)
    with pytest.raises(ValueError, match="levels must be positive integers"):
        dim.annulus_profile(line, -1.0, height_levels=levels)


def test_find_levels_unit_line():
    line = diag_line(600)
    cfg = dim.LevelSearchConfig(alpha=0.0, psi=1.0, search_bound=512)
    prof = dim.find_levels(line, -1.0, cfg)
    assert len(prof.levels) > 0
    assert np.all(np.diff(prof.levels) > 0)
    s = _axial_sorted(line, Tube(-1.0, 0.0))
    for m, c, t in zip(prof.levels, prof.counts, prof.thresholds):
        recount = int(np.count_nonzero((s > m / 2) & (s <= m)))
        assert recount == c
        assert c > t
        assert t == pytest.approx((m / 2) ** 0.5)


def test_find_levels_threshold_too_high_gives_empty():
    line = diag_line(600)
    cfg = dim.LevelSearchConfig(alpha=1.0, psi=1.0, search_bound=512)
    prof = dim.find_levels(line, -1.0, cfg)
    assert len(prof.levels) == 0            # m/2 points can't beat (m/2)^1.5


def test_find_levels_locally_constant_in_u():
    # small slope changes that cross no point leave the profile untouched
    line = diag_line(600, axial_offset=0.3)
    cfg = dim.LevelSearchConfig(alpha=0.0, psi=1.0, search_bound=256)
    a = dim.find_levels(line, -1.0, cfg)
    b = dim.find_levels(line, -1.0 + 1e-9, cfg)
    assert np.array_equal(a.levels, b.levels)
    assert np.array_equal(a.counts, b.counts)


def test_find_levels_scans_only_levels_a_point_can_reach():
    # annuli past twice the largest axial coordinate are empty, so a huge
    # bound gives the same profile as one just past the slice's extent
    row = np.column_stack([np.arange(2.0, 600.0), np.full(598, 0.5)])
    ps = PointSet(np.concatenate([diag_line(600).points, row]))
    for u in (-1.0, math.inf):
        want = dim.find_levels(ps, u, dim.LevelSearchConfig(0.0, 1.0, 4096))
        got = dim.find_levels(ps, u, dim.LevelSearchConfig(0.0, 1.0, 10 ** 12))
        assert np.array_equal(got.levels, want.levels)
        assert np.array_equal(got.counts, want.counts)
        assert np.array_equal(got.thresholds, want.thresholds)
        assert len(want) > 0
    empty = dim.find_levels(PointSet([[5.0, 9.0]]), math.inf,
                            dim.LevelSearchConfig(0.0, 1.0, 10 ** 12))
    assert len(empty) == 0


def test_find_levels_refuses_a_scan_past_the_cap_before_allocating():
    far = PointSet([[1.0, 0.5], [1e12, 0.5]])
    with pytest.raises(MaterializeError, match="level search"):
        dim.find_levels(far, math.inf, dim.LevelSearchConfig(0.0, 1.0, 10 ** 12))
    near = dim.find_levels(far, math.inf, dim.LevelSearchConfig(0.0, 1.0, 1000))
    assert near.levels.tolist() == [1]      # only (1/2, 1] holds a point


def test_level_search_config_validation():
    with pytest.raises(ValueError):
        dim.LevelSearchConfig(alpha=-0.1, psi=1.0, search_bound=10)
    with pytest.raises(ValueError):
        dim.LevelSearchConfig(alpha=0.0, psi=0.0, search_bound=10)
    for alpha, psi in [(math.nan, 1.0), (0.0, math.nan)]:
        with pytest.raises(ValueError, match="need alpha >= 0 and psi > 0"):
            dim.LevelSearchConfig(alpha=alpha, psi=psi, search_bound=10)


def test_search_bound_is_read_as_an_integer():
    with pytest.raises(ValueError, match="^search_bound=2.5 is not an integer$"):
        dim.LevelSearchConfig(alpha=0.0, psi=1.0, search_bound=2.5)
    bound = dim.LevelSearchConfig(alpha=0.0, psi=1.0, search_bound=4.0).search_bound
    assert bound == 4 and type(bound) is int


# ---------------------------------------------------------------------------
# Profile plumbing
# ---------------------------------------------------------------------------

def test_profile_estimate_on_pure_power_law():
    scales = [4.0, 8.0, 16.0, 32.0]
    counts = [16, 64, 256, 1024]
    prof = dim.profile_from_counts(scales, counts)
    assert prof.estimate == pytest.approx(2.0, abs=1e-12)


def test_profile_estimate_ignores_prepended_small_scales():
    scales = np.array([16.0, 32.0, 64.0, 128.0])
    counts = np.array([30, 70, 160, 380])
    a = dim.profile_from_counts(scales, counts)
    b = dim.profile_from_counts(np.r_[[2.0, 4.0, 8.0], scales],
                                np.r_[[2, 5, 11], counts])
    assert a.estimate == b.estimate


def test_profile_rejects_bad_scales():
    with pytest.raises(ValueError):
        dim.profile_from_counts([4.0, 2.0], [1, 2])
    with pytest.raises(ValueError):
        dim.profile_from_counts([1.0, 2.0], [1, 2])
    with pytest.raises(ValueError):
        dim.profile_from_counts([], [])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_profiles_refuse_a_scale_that_is_not_finite(bad):
    # nan passes every comparison of the ladder check, and inf a diff > 0
    ps = gen.gen_cartesian(np.arange(4), np.arange(4))
    with pytest.raises(ValueError, match="^scales must be finite$"):
        dim.profile_from_counts([2.0, bad], [1, 2])
    with pytest.raises(ValueError, match="^scales must be finite$"):
        dim.mass_dim_profile(ps, scales=[2.0, bad])
    with pytest.raises(ValueError, match="finite"):
        dim.mass_dim_profile(gen.ConeAnnuli(0.3, 0, 2), scales=[2.0, bad])


def test_slanted_profile_of_an_implicit_set_is_a_refusal():
    with pytest.raises(ValueError, match="slanted boxes need a materialized set"):
        dim.mass_dim_profile(gen.ConeAnnuli(0.3, 0, 2), scales=[2.0, 4.0],
                             kind="slanted", u=1.0)


def test_dyadic_scales():
    assert dim.dyadic_scales(64.0).tolist() == [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    # covers max_scale from above: 63 still yields 64
    assert dim.dyadic_scales(63.0).tolist() == [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    assert dim.dyadic_scales(1.0).tolist() == [2.0]
    assert dim.dyadic_scales(-10 ** 400).tolist() == [2.0]


def test_dyadic_scales_top_is_exact_next_to_a_power_of_two():
    # log2 rounds 2^40 + 2^-12 down to 40, which would top the ladder below
    # max_scale
    assert dim.dyadic_scales(2.0 ** 40 + 2.0 ** -12)[-1] == 2.0 ** 41
    assert dim.dyadic_scales(2.0 ** 40)[-1] == 2.0 ** 40
    top = dim.dyadic_scales(2.0 ** 1023)
    assert len(top) == 1023 and top[-1] == 2.0 ** 1023


@pytest.mark.parametrize("max_scale", [
    1e308, 2.0 ** 1023 * 1.5, math.inf, math.nan,
    # an int too large for math.isfinite to turn into a float
    pytest.param(10 ** 400, id="10**400")])
def test_dyadic_scales_refuses_a_top_past_2_1023(max_scale, recwarn):
    with pytest.raises(ValueError, match="max_scale"):
        dim.dyadic_scales(max_scale)
    assert len(recwarn) == 0


@pytest.mark.parametrize("max_scale", [-math.inf, math.inf, math.nan])
def test_dyadic_scales_refuses_a_top_that_is_not_finite(max_scale):
    # -inf once gave [2.0], and nan was told it needs a power of two past
    # 2^1023
    with pytest.raises(ValueError, match=f"^max_scale={max_scale!r} is not finite$"):
        dim.dyadic_scales(max_scale)


def test_default_ladders_on_a_set_of_huge_extent():
    ps = PointSet([[0.0, 0.0], [1e308, 1e308]])
    with pytest.raises(ValueError, match="max_scale=1e\\+308"):
        dim.mass_dim_profile(ps)
