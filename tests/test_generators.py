"""Tests for the example-set generators, implicit and materialized."""
import hashlib
import math
import signal
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from latslice import generators as gen
from latslice.exact import MAX_MATERIALIZE_POINTS, MaterializeError
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


def test_unit_line_at_a_slope_whose_square_overflows():
    # past m = 1.3e154, m * m is inf: the spacing came out 0 and the pad
    # loop never ended, so a hard alarm stops the test instead of a hang
    def stop(signum, frame):
        raise TimeoutError("gen_unit_line(1e300, 5) did not return")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(5)
    try:
        start = time.perf_counter()
        ps = gen.gen_unit_line(1e300, 5)
        elapsed = time.perf_counter() - start
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert elapsed < 1.0
    assert ps.points[1, 0] == pytest.approx(1e-300)
    gaps = np.hypot(np.diff(ps.points[:, 0]), np.diff(ps.points[:, 1]))
    assert np.all((gaps >= 1.0) & (gaps - 1.0 < 1e-12))
    assert validate_separation(ps).valid


def test_unit_line_pad_loop_ends_in_a_value_error(monkeypatch):
    monkeypatch.setattr(gen, "_MAX_PAD_DOUBLINGS", 0)
    with pytest.raises(ValueError, match="^no float spacing keeps the unit line "
                                         "of slope m=2.0 1-separated$"):
        gen.gen_unit_line(2.0, 5)


def test_unit_line_refuses_a_count_past_the_cap_before_allocating():
    # a child under a 2 GiB address-space limit: an attempt to allocate 10^10
    # points would end there in MemoryError rather than in MaterializeError
    proc = subprocess.run(
        [sys.executable, "-c",
         "import resource, sys\n"
         "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
         "from latslice.exact import MaterializeError\n"
         "from latslice.generators import gen_unit_line\n"
         "try:\n"
         "    gen_unit_line(1.0, 10 ** 10)\n"
         "except MaterializeError as exc:\n"
         "    sys.exit(f'refused: {exc}')\n"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert ("refused: unit line with count=10000000000 holds 10000000000 "
            f"points; the cap is {MAX_MATERIALIZE_POINTS}") in proc.stderr


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
    implicit = gen.ParabolicStaircase(64)
    ps = gen.gen_parabolic_staircase(64)
    rng = np.random.default_rng(9)
    for _ in range(50):
        l = float(rng.uniform(0.0, 4500.0))
        box = BoxSpec("first_quadrant", l)
        assert implicit.box_count(box) == ps.box_count(box)
    assert implicit.rect_count(-math.inf, math.inf, -math.inf, math.inf) \
        == 64 * 65 // 2


def test_staircase_membership():
    implicit = gen.ParabolicStaircase(8)
    assert implicit.contains(4, 1)
    assert not implicit.contains(4, 2)      # column x=4 has rows 0..1
    assert not implicit.contains(5, 0)      # not a perfect square
    assert not implicit.contains(4.5, 0.0)
    assert not implicit.contains(81.0, 0.0)  # beyond m_max
    # any number that is exactly an integer reads as that integer
    for form in (np.float16, np.float32, np.float64, float, Fraction):
        assert implicit.contains(form(4), form(1))
        assert not implicit.contains(form(4), form(2))
        assert not implicit.contains(form(4.5), form(0))
    assert gen.ParabolicStaircase(3).contains(np.float32(4.0), np.float32(1.0))


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
    _, trace = gen.gen_zigzag(0.2, 20)
    t = math.tan(math.pi / 4 + 0.2)
    assert trace.lambda1 == pytest.approx(t, rel=1e-12)
    assert trace.lambda1 > 1.0


def test_zigzag_lambda_degenerates_to_one():
    _, trace = gen.gen_zigzag(1e-6, 1)
    assert trace.lambda1 == pytest.approx(1.0, abs=1e-5)


def test_zigzag_corner_ratio_converges():
    _, trace = gen.gen_zigzag(0.2, 30)
    c = trace.lattice_corners
    assert abs(c[-1] / c[-2] / trace.lambda1 - 1.0) <= 0.01


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


@pytest.mark.parametrize("n_levels", [0, -3, 0.0])
def test_both_zigzag_entry_points_refuse_fewer_than_one_level(n_levels):
    with pytest.raises(ValueError, match="^n_levels must be >= 1$"):
        gen.gen_zigzag(0.2, n_levels)
    with pytest.raises(ValueError, match="^n_levels must be >= 1$"):
        gen.zigzag_tube_counts(0.2, n_levels, Tube(-1.0, 0.0))


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
    ps = gen.ConeAnnuli(0.4, 0, 2).materialize()
    assert validate_separation(ps).valid


# ---------------------------------------------------------------------------
# Cone staircase
# ---------------------------------------------------------------------------

def test_cone_staircase_total_slope_below_theta():
    cs = gen.ConeStaircase(0.5, 3)
    # the slope intervals tile [0, total) side by side
    ends = [cs.slope_interval(k) for k in range(4)]
    assert ends[0][0] == 0
    assert all(ends[k][1] == ends[k + 1][0] for k in range(3))
    total = float(ends[-1][1])
    assert total < 0.5
    assert total == pytest.approx(0.5 * sum(2.0 ** -(2 ** k) for k in range(4)))


@pytest.mark.parametrize("build", [
    lambda: gen.ConeAnnuli(0.3, 0, 2, half=Fraction(1)),
    lambda: gen.ConeStaircase(0.5, 2, _w=(1,)),
    lambda: gen.ConeStaircase(0.5, 2, _sigma=(0,)),
    lambda: gen.ConeFixedWidth(0.5, 1, 2, _w=Fraction(1)),
], ids=["annuli-half", "staircase-w", "staircase-sigma", "fixed-width-w"])
def test_cone_constructors_refuse_derived_fields(build):
    # these fields are derived from the others, so no caller may set them
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("build, name, value", [
    (gen.ParabolicStaircase, "m_max", 4),
    (lambda k: gen.ConeAnnuli(0.2, k, 2), "k_min", 1),
    (lambda k: gen.ConeAnnuli(0.2, 0, k), "k_max", 2),
    (lambda k: gen.ConeStaircase(0.5, k), "k_max", 3),
    (lambda k: gen.ConeFixedWidth(0.5, k, n_levels=2), "k0", 1),
    (lambda n: gen.ConeFixedWidth(0.5, 1, n_levels=n), "n_levels", 2),
    (lambda n: gen.gen_unit_line(2.0, n), "count", 4),
    (lambda l: gen.gen_random_dimension(1.5, l, seed=1), "l_max", 4),
    (lambda n: gen.gen_zigzag(0.2, n)[0], "n_levels", 4),
    (lambda n: gen.zigzag_tube_counts(0.2, n, Tube(-1.0, 0.0))[1], "n_levels", 4),
], ids=["staircase-m_max", "annuli-k_min", "annuli-k_max", "cone-staircase-k_max",
        "fixed-width-k0", "fixed-width-n_levels", "unit-line-count",
        "random-l_max", "zigzag-n_levels", "zigzag-tubes-n_levels"])
def test_count_parameters_must_be_integers(build, name, value):
    with pytest.raises(ValueError, match=f"^{name}=2.5 is not an integer$"):
        build(2.5)
    with pytest.raises(ValueError, match=f"^{name}=True is not an integer$"):
        build(True)                             # a JSON true is not a count
    whole, floated = build(value), build(float(value))
    if hasattr(whole, "materialize"):
        assert repr(floated) == repr(whole)     # the float is stored as its int
        whole, floated = whole.materialize(), floated.materialize()
    if isinstance(whole, PointSet):
        whole, floated = whole.points, floated.points
    assert whole.size and np.array_equal(floated, whole)


def test_cone_staircase_refuses_a_band_too_deep_on_construction():
    # each further band costs about 4x more to build the slope offsets for,
    # so the refusal comes before them
    with pytest.raises(ValueError, match="band index too large"):
        gen.ConeStaircase(0.5, 21)


def test_cone_fixed_width_refuses_a_level_too_high_on_construction():
    # every level of k0 >= 24 is too high to count, and 2^(2^k0) doubles in
    # bits with each step of k0, so the refusal comes before it is built
    tracemalloc.start()
    try:
        for k0 in (24, 26):
            with pytest.raises(ValueError, match="level height too large"):
                gen.ConeFixedWidth(0.5, k0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    first = gen.ConeFixedWidth(0.5, 23, n_levels=1).level_rows(1)
    assert first[0] == 1 << (1 << 24)


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


def _digest(arr: np.ndarray) -> str:
    """sha256 of an array's dtype, shape and C-order bytes."""
    arr = np.ascontiguousarray(arr)
    head = f"{arr.dtype}{arr.shape}".encode()
    return hashlib.sha256(head + arr.tobytes()).hexdigest()


# Digests of the generated arrays.  The sizes reach the branch of
# _distinct_uniform that draws with replacement and removes duplicates (an
# annulus of more than 2^20 lattice points keeping under a quarter of them),
# so these pin the draws and the order that rng.choice picks from.
RANDOM_DIMENSION_DIGESTS = [
    (1.5, 4096, 1, 429788,
     "a3df4ff1132da6a8ef3a6e42b7686595c568b43a5bd96265133c23ea0680172e"),
    (1.5, 4096, 2, 429908,
     "5f7c4b84186057416044868f77d87e75e23c013e92aa4af89b195bc0bbf98efd"),
    (1.5, 4096, 3, 429709,
     "e289ccc1a89f135081e8854b50c74e6bd51816045bdbb3a61d0c90c49d2ac980"),
    (1.2, 2 ** 14, 1, 263866,
     "f7be3bdf785dcb261dc4eacdaa8e90dbfeea03bb28bce31d6d770e1aa0afb0bb"),
    (1.2, 2 ** 14, 2, 263792,
     "ef22fe0dd67bc45f8e16b945ceee50574971644756c46b8dad162624d2505a08"),
    (1.5, 2 ** 14, 1, 3441053,
     "8eed0383a8712bcc3b691e529a662011de5ab1cdc120165d56330cad5e5ee722"),
]


@pytest.mark.parametrize("alpha,l_max,seed,size,digest", RANDOM_DIMENSION_DIGESTS)
def test_random_dimension_points_are_pinned(alpha, l_max, seed, size, digest):
    ps = gen.gen_random_dimension(alpha, l_max, seed)
    assert len(ps) == size
    assert _digest(ps.points) == digest
