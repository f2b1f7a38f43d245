"""Tests for the example-set generators, implicit and materialized."""
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from latslice import generators as gen
from latslice.generators import MaterializeError
from latslice.geometry import (BoxSpec, FloorLine, PointSet, Tube,
                               slice_floor_line, slice_tube,
                               validate_separation)


# ---------------------------------------------------------------------------
# Unit-spaced line
# ---------------------------------------------------------------------------

def test_unit_line_consecutive_distances():
    ps = gen.gen_unit_line(1.0, 3)
    d = np.hypot(np.diff(ps.points[:, 0]), np.diff(ps.points[:, 1]))
    assert np.all(np.abs(d - 1.0) < 1e-12)
    assert ps.points[0].tolist() == [0.0, 0.0]


def test_unit_line_single_point():
    ps = gen.gen_unit_line(7.3, 1)
    assert len(ps) == 1 and ps.points[0].tolist() == [0.0, 0.0]


def test_unit_line_separation():
    rep = validate_separation(gen.gen_unit_line(2.0, 1000))
    assert rep.valid
    assert rep.min_distance == pytest.approx(1.0, abs=1e-12)


def test_unit_line_rejects_bad_params():
    with pytest.raises(ValueError):
        gen.gen_unit_line(0.0, 5)
    with pytest.raises(ValueError):
        gen.gen_unit_line(1.0, 0)


# ---------------------------------------------------------------------------
# Parabolic staircase
# ---------------------------------------------------------------------------

def test_staircase_single_column():
    ps = gen.gen_parabolic_staircase(1)
    assert len(ps) == 1
    assert ps.points.tolist() == [[1.0, 0.0]]


def test_staircase_triangular_count():
    ps = gen.gen_parabolic_staircase(16)
    assert ps.box_count(BoxSpec("first_quadrant", 256.0)) == 136


def test_staircase_implicit_matches_materialized():
    implicit = gen.gen_parabolic_staircase(64, mode="implicit")
    ps = gen.gen_parabolic_staircase(64)
    rng = np.random.default_rng(9)
    for _ in range(50):
        l = float(rng.uniform(0.0, 4500.0))
        box = BoxSpec("first_quadrant", l)
        assert implicit.box_count(box) == ps.box_count(box)
    assert implicit.rect_count(-math.inf, math.inf, -math.inf, math.inf) \
        == 64 * 65 // 2


def test_staircase_membership():
    implicit = gen.gen_parabolic_staircase(8, mode="implicit")
    assert implicit.contains(4, 1)
    assert not implicit.contains(4, 2)      # column x=4 has rows 0..1
    assert not implicit.contains(5, 0)      # not a perfect square
    assert not implicit.contains(4.5, 0.0)
    assert not implicit.contains(81.0, 0.0)  # beyond m_max


@pytest.mark.parametrize("family", [gen.ParabolicStaircase(10),
                                    gen.ConeStaircase(0.5, 3),
                                    gen.ConeAnnuli(0.2, 0, 2),
                                    gen.ConeFixedWidth(0.5, 1, n_levels=1)])
def test_contains_is_false_for_non_finite_coordinates(family):
    x0, y0 = family.materialize().points[-1]
    assert family.contains(x0, y0)
    for bad in (math.inf, -math.inf, math.nan):
        for x, y in ((bad, y0), (x0, bad), (bad, bad)):
            assert family.contains(x, y) is False


def test_staircase_separated():
    assert validate_separation(gen.gen_parabolic_staircase(32)).valid


# ---------------------------------------------------------------------------
# Zigzag
# ---------------------------------------------------------------------------

def test_zigzag_trace_invariants():
    ps, trace = gen.gen_zigzag(0.2, 20)
    c = trace.corners
    assert np.allclose(c[:, 0], c[:, 1])    # iterates stay on the diagonal
    mat = np.array([[1.0 + trace.A * trace.B, trace.A], [trace.B, 1.0]])
    for n in range(20):
        assert np.allclose(mat @ c[n], c[n + 1], rtol=1e-12)
    t = math.tan(math.pi / 4 + 0.2)
    assert trace.lambda1 == pytest.approx(t, rel=1e-12)
    assert trace.lambda1 > 1.0


def test_zigzag_lambda_degenerates_to_one():
    _, trace = gen.gen_zigzag(1e-6, 1)
    assert trace.lambda1 == pytest.approx(1.0, abs=1e-5)


def test_zigzag_corner_ratio_converges():
    _, trace = gen.gen_zigzag(0.2, 30)
    ratios = trace.corner_ratios()
    assert abs(ratios[-1] / trace.lambda1 - 1.0) <= 0.01


def test_zigzag_points_between_cone_lines():
    ps, trace = gen.gen_zigzag(0.35, 15)
    t = math.tan(math.pi / 4 + 0.35)
    x, y = ps.points[:, 0], ps.points[:, 1]
    assert np.all(y >= x)
    assert np.all(y <= t * x + 1.0)         # ceil rounding adds one step


def test_zigzag_is_separated_integer_lattice():
    ps, _ = gen.gen_zigzag(0.2, 15)
    assert np.all(ps.points == np.floor(ps.points))
    assert validate_separation(ps).valid
    # no duplicate points
    assert len(np.unique(ps.points, axis=0)) == len(ps)


def test_zigzag_depth_guard():
    with pytest.raises(MaterializeError):
        gen.gen_zigzag(0.2, 60)


def test_zigzag_tube_counts_match_materialized_slices():
    ps, _ = gen.gen_zigzag(0.2, 12)
    for u, v in ((-0.5, -0.37), (-1.0, 0.2), (-2.0, 0.0), (-0.66, -0.5)):
        tube = Tube(u, v)
        lattice, cums = gen.zigzag_tube_counts(0.2, 12, tube)
        assert lattice == [1, 2, 4, 7, 11, 17, 26, 40, 61, 93, 141, 213, 322]
        assert cums[-1] == len(slice_tube(ps, tube))
        assert np.all(np.diff(cums) >= 0)


def test_zigzag_tube_counts_level_prefix_consistency():
    # cumulative count after k levels equals the count of the depth-k run
    tube = Tube(-0.8, -0.2)
    _, full = gen.zigzag_tube_counts(0.2, 12, tube)
    _, short = gen.zigzag_tube_counts(0.2, 7, tube)
    assert np.array_equal(full[:7], short)


def test_zigzag_tube_counts_requires_descending_edge():
    with pytest.raises(ValueError):
        gen.zigzag_tube_counts(0.2, 5, Tube(1.0, 0.0))
    with pytest.raises(ValueError):
        gen.zigzag_tube_counts(0.2, 5, Tube.horizontal(0.0))


def test_zigzag_tube_counts_deep_levels_stay_logarithmic():
    tube = Tube(-1.0 / 1.2, 0.0)
    lattice, cums = gen.zigzag_tube_counts(0.2, 95, tube)
    assert lattice[-1] > 2 ** 53            # exact integers beyond floats
    assert cums[-1] <= 8.0 * math.log(lattice[-1])


def mpmath_tube_counts(delta, n_levels, tube, dps=200):
    """Reference: the corners by Fraction products, the tube counts by
    interval arithmetic at ``dps`` digits, plus enough more that the edge
    offsets v w and (v + 1) w stay apart however small |v| is."""
    if tube.v:
        dps += max(0, -math.floor(math.log10(abs(tube.v))))
    t = Fraction(math.tan(math.pi / 4 + delta))
    lattice = [1]
    for _ in range(n_levels):
        lattice.append(math.ceil(lattice[-1] * t))
    with mpmath.workdps(dps):
        u, v = mpmath.mpf(tube.u), mpmath.mpf(tube.v)
        slope = -1 / u
        w = mpmath.sqrt(1 + 1 / (u * u))
        b_lo, b_up = v * w, (v + 1) * w
        total = int(bool(slope + b_lo < 1 and 1 <= slope + b_up))
        counts = []
        for c0, c1 in zip(lattice, lattice[1:]):
            start = max(c0 + 1, int(mpmath.floor(slope * c0 + b_lo)) + 1)
            stop = min(c1, int(mpmath.floor(slope * c0 + b_up)))
            total += max(0, stop - start + 1)
            start = max(c0 + 1, int(mpmath.ceil((c1 - b_up) / slope)))
            stop = min(c1, int(mpmath.ceil((c1 - b_lo) / slope)) - 1)
            total += max(0, stop - start + 1)
            counts.append(total)
        return lattice, counts


def exact_tube_count(points, tube):
    """Points with v w < y + x/u <= (v + 1) w, w = sqrt(1 + 1/u^2), decided
    in rationals: z <= c w holds iff z <= 0 <= c, or z^2 <= c^2 w^2 with
    z, c >= 0, or z^2 >= c^2 w^2 with z, c <= 0."""
    u, v = Fraction(tube.u), Fraction(tube.v)
    w2 = 1 + 1 / (u * u)

    def at_most(z, c):
        if z <= 0 <= c:
            return True
        if z >= 0 and c >= 0:
            return z * z <= c * c * w2
        if z <= 0 and c <= 0:
            return z * z >= c * c * w2
        return False

    count = 0
    for x, y in points.tolist():
        z = Fraction(y) + Fraction(x) / u
        count += not at_most(z, v) and at_most(z, v + 1)
    return count


def criterion_07_tubes():
    t = math.tan(math.pi / 4 + 0.2)
    slopes = 1.0 + (np.arange(20) + 0.5) * ((t - 1.0) / 20.0)
    return [Tube(-1.0 / float(s), 0.0) for s in slopes]


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.floats(-4.0, -0.25, exclude_min=True, exclude_max=True),
       st.floats(-3.0, 3.0), st.integers(1, 400))
@example(u=-1.0, v=-6.024856936800334e-302, depth=1)
def test_zigzag_tube_counts_match_mpmath(u, v, depth):
    # mpmath rounds an exact tie either way, so skip rational edge widths
    frac = Fraction(u)
    assume(math.isqrt(q := frac.numerator ** 2 + frac.denominator ** 2) ** 2 != q)
    tube = Tube(u, v)
    lattice, cums = gen.zigzag_tube_counts(0.2, depth, tube)
    want_lattice, want = mpmath_tube_counts(0.2, depth, tube)
    assert lattice == want_lattice
    assert cums.tolist() == want


@pytest.mark.parametrize("u", [-3 / 4, -4 / 3, -5 / 12])
@pytest.mark.parametrize("v", [-3.0, -1.0, 0.0, 1.0, 2.0])
def test_zigzag_tube_counts_exact_on_pythagorean_slopes(u, v):
    # at u = -3/4 the edge width is exactly 5/3, so lattice points sit on
    # the edges; every level's count must match exact rational membership
    tube = Tube(u, v)
    _, cums = gen.zigzag_tube_counts(0.2, 12, tube)
    for depth in (1, 5, 12):
        ps, _ = gen.gen_zigzag(0.2, depth)
        assert cums[depth - 1] == exact_tube_count(ps.points, tube)


def test_zigzag_tube_counts_known_ties():
    assert gen.zigzag_tube_counts(0.2, 12, Tube(-0.75, 0.0))[1][-1] == 30
    assert gen.zigzag_tube_counts(0.2, 12, Tube(-0.75, 2.0))[1][-1] == 21


def test_zigzag_tube_counts_exact_at_depth_500():
    # corners reach about 90 digits here, past what 80-digit arithmetic
    # resolves
    for tube in criterion_07_tubes():
        lattice, cums = gen.zigzag_tube_counts(0.2, 500, tube)
        assert len(str(lattice[-1])) >= 85
        assert (lattice, cums.tolist()) == mpmath_tube_counts(0.2, 500, tube)


# ---------------------------------------------------------------------------
# Cone annuli
# ---------------------------------------------------------------------------

def test_cone_annuli_gaps_are_empty():
    cone = gen.ConeAnnuli(0.2, 0, 3)
    assert cone.rect_count(-10**6, 10**6, 6, 15) == 0        # between bands 0,1
    assert cone.rect_count(-10**6, 10**6, 20, 255) == 0      # between bands 1,2
    assert cone.rect_count(-10**6, 10**6, 272, 65535) == 0   # between bands 2,3


def test_cone_annuli_band_count_near_area():
    cone = gen.ConeAnnuli(0.2, 0, 3)
    band2 = cone.rect_count(-math.inf, math.inf, 256, 271)
    target = 0.2 * 2 ** 12
    assert target / 2 <= band2 <= target * 2


def test_cone_annuli_implicit_matches_materialized():
    cone = gen.ConeAnnuli(0.2, 0, 2)
    ps = cone.materialize()
    members = set(map(tuple, ps.points.tolist()))
    rng = np.random.default_rng(13)
    xs = rng.integers(-300, 300, size=10_000)
    ys = rng.integers(0, 300, size=10_000)
    for x, y in zip(xs, ys):
        assert cone.contains(int(x), int(y)) == ((float(x), float(y)) in members)
    for x, y in ps.points[:: max(1, len(ps) // 200)]:
        assert cone.contains(x, y)


def test_cone_annuli_box_counts_agree():
    cone = gen.ConeAnnuli(0.3, 0, 2)
    ps = cone.materialize()
    rng = np.random.default_rng(17)
    for _ in range(25):
        l = float(rng.uniform(0.0, 300.0))
        for kind in ("first_quadrant", "centered"):
            box = BoxSpec(kind, l)
            assert cone.box_count(box) == ps.box_count(box)


def test_empty_rectangles_with_infinite_bounds_count_zero():
    # +inf lower and -inf upper bounds used to raise OverflowError
    inf = math.inf
    assert gen.ConeStaircase(0.5, 3).rect_count(inf, inf, 0, 100) == 0
    assert gen.ConeAnnuli(0.2, 0, 2).rect_count(-inf, -inf, 0, 100) == 0
    assert gen.ConeFixedWidth(0.5, 1).rect_count(0, 100, inf, inf) == 0
    assert gen.ParabolicStaircase(10).rect_count(0, 100, inf, inf) == 0


def test_deep_bands_count_without_a_row_cap():
    # band 6 of the staircase starts at row 2^128; its counts need 128 bits
    cone = gen.ConeStaircase(0.5, 6)
    below = gen.ConeStaircase(0.5, 5).rect_count(-math.inf, math.inf, 0, 2 ** 128)
    total = cone.box_count(BoxSpec("first_quadrant", 2.0 ** 140))
    assert total.bit_length() == 128 and total > below > 2 ** 63
    assert cone.size_estimate() == float(total)


def test_cone_annuli_k_min_drops_low_bands():
    cone = gen.ConeAnnuli(0.2, 1, 2)
    assert cone.rect_count(-100, 100, 4, 5) == 0
    assert not cone.contains(0, 4)
    assert gen.ConeAnnuli(0.2, 0, 2).contains(0, 4)


def test_cone_annuli_materialize_refused_past_k3():
    with pytest.raises(MaterializeError):
        gen.ConeAnnuli(0.2, 0, 4).materialize()


def test_cone_annuli_rejects_non_integer_queries():
    cone = gen.ConeAnnuli(0.2, 0, 2)
    assert not cone.contains(0.5, 4)
    assert not cone.contains(0, 4.25)


def test_cone_annuli_separated():
    ps = gen.gen_cone_annuli(0.4, 0, 2, mode="materialize")
    assert validate_separation(ps).valid


# ---------------------------------------------------------------------------
# Cone staircase
# ---------------------------------------------------------------------------

def test_cone_staircase_total_slope_below_theta():
    cs = gen.ConeStaircase(0.5, 3)
    assert cs.total_slope() < 0.5
    assert cs.total_slope() == pytest.approx(
        0.5 * sum(2.0 ** -(2 ** k) for k in range(4)))


def test_cone_staircase_slope_intervals_stack():
    cs = gen.ConeStaircase(0.5, 3)
    prev_hi = Fraction(0)
    for k in range(4):
        lo, hi = cs.slope_interval(k)
        assert lo == prev_hi
        assert hi - lo == Fraction(0.5) / (1 << (1 << k))
        prev_hi = hi


def test_cone_staircase_implicit_matches_materialized():
    cs = gen.ConeStaircase(0.37, 2)
    ps = cs.materialize()
    members = set(map(tuple, ps.points.tolist()))
    rng = np.random.default_rng(21)
    for x, y in zip(rng.integers(0, 300, 5000), rng.integers(0, 300, 5000)):
        assert cs.contains(int(x), int(y)) == ((float(x), float(y)) in members)
    box = BoxSpec("first_quadrant", 280.0)
    assert cs.box_count(box) == ps.box_count(box)


def test_cone_staircase_tube_saturates():
    # a tube through the origin along the chunk-1 midline keeps meeting
    # points only while crossing chunk 1; the count then freezes
    cs = gen.ConeStaircase(0.5, 3)
    ps = cs.materialize()
    lo, hi = cs.slope_interval(1)
    mid = float((lo + hi) / 2)
    tube = Tube(-mid, -0.5)                 # edge slope 1/mid
    sl = slice_tube(ps, tube).points

    def upto(l):
        return int(np.count_nonzero((sl[:, 0] <= l) & (sl[:, 1] <= l)))

    assert upto(24) == 4
    assert upto(300) == 4
    assert upto(70_000) == 4


def test_cone_staircase_materialize_guard():
    with pytest.raises(MaterializeError):
        gen.ConeStaircase(0.5, 4).materialize()


# ---------------------------------------------------------------------------
# Fixed-width cone
# ---------------------------------------------------------------------------

def test_cone_fixed_width_level_count_near_area():
    cfw = gen.ConeFixedWidth(0.5, 2)
    target = 0.5 * 2 ** 20                  # theta * 2^((2^2+2-1) * 2^k0)
    assert target / 2 <= cfw.level_count(2) <= target * 2


def test_cone_fixed_width_default_levels_exhaust_opening():
    cfw = gen.ConeFixedWidth(0.5, 2)
    assert cfw.n_levels == 16               # 2^(2^k0)
    assert float(cfw.n_levels * cfw._w) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        gen.ConeFixedWidth(0.5, 2, n_levels=17)


def test_cone_fixed_width_implicit_matches_materialized():
    cfw = gen.ConeFixedWidth(0.5, 1, n_levels=2)
    ps = cfw.materialize()
    members = set(map(tuple, ps.points.tolist()))
    rng = np.random.default_rng(29)
    for x, y in zip(rng.integers(0, 300, 5000), rng.integers(0, 300, 5000)):
        assert cfw.contains(int(x), int(y)) == ((float(x), float(y)) in members)
    assert len(ps) == cfw.rect_count(-math.inf, math.inf, -math.inf, math.inf)


def test_cone_fixed_width_gap_rows_empty():
    cfw = gen.ConeFixedWidth(0.5, 1, n_levels=2)
    assert cfw.rect_count(0, 10**6, 20, 255) == 0


def test_cone_fixed_width_materialize_guard():
    with pytest.raises(MaterializeError):
        gen.ConeFixedWidth(0.5, 2, n_levels=5).materialize()


# ---------------------------------------------------------------------------
# Cartesian products
# ---------------------------------------------------------------------------

def test_cartesian_single_pair():
    ps = gen.gen_cartesian([1], [1])
    assert ps.points.tolist() == [[1.0, 1.0]]


def test_cartesian_product_count():
    ps = gen.gen_cartesian(np.arange(10), np.arange(20))
    assert len(ps) == 200
    assert validate_separation(ps).valid


def test_cartesian_deduplicates():
    ps = gen.gen_cartesian([1, 1, 2], [3, 3])
    assert len(ps) == 2


def test_cartesian_rejects_non_natural_inputs():
    with pytest.raises(ValueError):
        gen.gen_cartesian([-1, 2], [0])
    with pytest.raises(ValueError):
        gen.gen_cartesian([0.5], [0])


def test_cartesian_floor_slice_identity():
    # the floor-line slice of A x B consists of the b in B hit by floor(u a + v)
    a_vals = np.array([0, 1, 3, 4, 7, 11, 15])
    b_vals = np.array([0, 2, 3, 5, 8, 13])
    ps = gen.gen_cartesian(a_vals, b_vals)
    rng = np.random.default_rng(33)
    bset = set(b_vals.tolist())
    for _ in range(100):
        u = float(rng.uniform(0.01, 5.0))
        v = float(rng.uniform(0.0, 4.0))
        got = set(slice_floor_line(ps, FloorLine(u, v)).tolist())
        want = {math.floor(u * a + v) for a in a_vals} & bset
        assert got == want


# ---------------------------------------------------------------------------
# Random sets of prescribed dimension
# ---------------------------------------------------------------------------

def test_random_dimension_alpha2_fills_box():
    ps = gen.gen_random_dimension(2.0, 8, seed=1)
    assert len(ps) == 64
    assert ps.box_count(BoxSpec("first_quadrant", 7.0)) == 64


def test_random_dimension_alpha0_stays_small():
    ps = gen.gen_random_dimension(0.0, 1024, seed=1)
    assert 1 <= len(ps) <= 150              # about 3 points per annulus
    assert ps.contains(0.0, 0.0)


def test_random_dimension_scaling_slope():
    ps = gen.gen_random_dimension(1.5, 2 ** 14, seed=42)
    scales = 2.0 ** np.arange(5, 15)
    counts = [ps.box_count(BoxSpec("first_quadrant", s)) for s in scales]
    slope = np.polyfit(np.log2(scales), np.log2(counts), 1)[0]
    assert 1.4 <= slope <= 1.6


def test_random_dimension_deterministic():
    a = gen.gen_random_dimension(1.2, 256, seed=5)
    b = gen.gen_random_dimension(1.2, 256, seed=5)
    c = gen.gen_random_dimension(1.2, 256, seed=6)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_random_dimension_validates_params():
    with pytest.raises(ValueError):
        gen.gen_random_dimension(2.5, 64, seed=0)
    with pytest.raises(ValueError):
        gen.gen_random_dimension(1.0, 100, seed=0)   # not a power of two
    with pytest.raises(MaterializeError):
        gen.gen_random_dimension(2.0, 2 ** 16, seed=0)


def test_random_dimension_separated():
    ps = gen.gen_random_dimension(1.5, 512, seed=3)
    assert validate_separation(ps).valid


def test_random_dimension_1d_sorted_distinct():
    vals = gen.gen_random_dimension_1d(0.7, 2 ** 12, seed=11)
    assert np.all(np.diff(vals) > 0)
    assert vals.dtype == np.int64
    again = gen.gen_random_dimension_1d(0.7, 2 ** 12, seed=11)
    assert np.array_equal(vals, again)
