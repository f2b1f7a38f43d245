"""Tests for points, tubes, floor lines, boxes, and exact slicing."""
import math

import numpy as np
import pytest

from latslice.dimension import mass_dim_profile
from latslice.geometry import (BoxSpec, FloorLine, PointSet, Tube, box_count,
                               read_points, slice_floor_line, slice_tube,
                               tube_edge_distance, validate_separation,
                               write_points)


def naive_min_distance(pts: np.ndarray) -> float:
    n = len(pts)
    best = math.inf
    for i in range(n):
        d = np.hypot(pts[i + 1:, 0] - pts[i, 0], pts[i + 1:, 1] - pts[i, 1])
        if d.size:
            best = min(best, float(d.min()))
    return best


# ---------------------------------------------------------------------------
# PointSet basics
# ---------------------------------------------------------------------------

def test_pointset_shape_and_immutability():
    ps = PointSet([[0, 0], [2, 3]])
    assert len(ps) == 2
    with pytest.raises(ValueError):
        ps.points[0, 0] = 5.0
    with pytest.raises(ValueError):
        PointSet([[1, 2, 3]])
    with pytest.raises(ValueError):
        PointSet([[math.inf, 0]])


def test_empty_pointset():
    ps = PointSet([])
    assert len(ps) == 0
    assert ps.bbox is None
    assert not ps.contains(0.0, 0.0)
    tube = Tube(1.0, 0.0)
    assert len(slice_tube(ps, tube)) == 0
    assert slice_floor_line(ps, FloorLine(1.0, 0.0)).size == 0


def test_bbox_and_contains():
    ps = PointSet([[1, 2], [5, -3], [0.5, 9]])
    assert ps.bbox == (0.5, -3.0, 5.0, 9.0)
    assert ps.contains(5.0, -3.0)
    assert not ps.contains(5.0, -2.0)


def test_cell_index_assigns_each_point_once():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-20, 20, size=(500, 2))
    ps = PointSet(pts)
    ps._index()
    side, strips = ps._strip_width, ps._strips
    assert side == 2        # 40 x 40 occupied unit cells for 500 points
    assert np.array_equal(ps._col_x, np.unique(np.floor(pts[:, 0])))
    assert np.array_equal(np.sort(strips.order), np.arange(len(pts)))
    assert np.all(np.diff(strips.keys) >= 0)
    strip = strips.keys // strips.stride
    col_rank = np.searchsorted(ps._col_x, np.floor(pts[strips.order, 0]))
    assert np.all(col_rank // side == strip)
    ys = pts[strips.order, 1]
    assert np.array_equal(strips.values[strips.keys % strips.stride], ys)
    assert np.all(np.diff(ys)[strip[1:] == strip[:-1]] >= 0)


# ---------------------------------------------------------------------------
# Separation
# ---------------------------------------------------------------------------

def test_separation_adjacent_lattice_points():
    rep = validate_separation(PointSet([[0, 0], [1, 0]]))
    assert rep.min_distance == 1.0
    assert rep.valid


def test_separation_subunit_gap_reports_pair():
    ps = PointSet([[0, 0], [0.5, 0], [10, 10]])
    rep = validate_separation(ps)
    assert rep.min_distance == 0.5
    assert not rep.valid
    assert rep.closest_pair == (0, 1)


def test_separation_empty_rejected_singleton_inf():
    with pytest.raises(ValueError):
        validate_separation(PointSet([]))
    rep = validate_separation(PointSet([[3, 4]]))
    assert rep.min_distance == math.inf and rep.valid


def test_separation_matches_naive_scan():
    # closest pairs need not share neighboring unit cells, so compare
    # against the all-pairs minimum on sets with a spread of gaps
    rng = np.random.default_rng(77)
    for trial in range(5):
        pts = rng.uniform(0, 40, size=(300, 2))
        rep = validate_separation(PointSet(pts))
        assert rep.min_distance == pytest.approx(naive_min_distance(pts), abs=0)


def test_separation_permutation_invariant():
    rng = np.random.default_rng(8)
    pts = rng.uniform(0, 30, size=(200, 2))
    d1 = validate_separation(PointSet(pts)).min_distance
    d2 = validate_separation(PointSet(pts[rng.permutation(200)])).min_distance
    assert d1 == d2


# ---------------------------------------------------------------------------
# Tubes
# ---------------------------------------------------------------------------

def test_tube_contains_reference_points():
    t = Tube(1.0, 0.0)
    assert t.contains(0.0, 1.0)      # 0 < 1 <= sqrt(2)
    assert not t.contains(0.0, 0.0)  # lower edge open
    assert t.contains(0.0, math.sqrt(2.0))  # upper edge closed


def test_tube_edge_points_exact():
    # points constructed on the edge lines: upper in, just-below-lower out
    u, v = 2.0, 3.0
    t = Tube(u, v)
    w = math.sqrt(1.0 + 1.0 / u ** 2)
    for x in (-3.0, 0.0, 7.5):
        y_up = -(1.0 / u) * x + (v + 1.0) * w
        y_lo = -(1.0 / u) * x + v * w
        assert t.contains(x, y_up)
        assert not t.contains(x, y_lo)
        assert not t.contains(x, y_lo - 1e-6)
        assert t.contains(x, y_lo + 1e-6)


def test_tube_width_samples():
    rng = np.random.default_rng(2)
    for _ in range(200):
        u = float(rng.uniform(0.01, 100.0) * rng.choice([-1.0, 1.0]))
        v = float(rng.uniform(-100.0, 100.0))
        assert tube_edge_distance(Tube(u, v)) == pytest.approx(1.0, abs=1e-9)


def test_tube_rejects_zero_u():
    with pytest.raises(ValueError):
        Tube(0.0, 1.0)


def test_tube_rejects_slope_whose_width_factor_overflows():
    # 1/u^2 overflows below |u| ~ 7.5e-155; such tubes used to be accepted
    # and then raise OverflowError from edge_intercepts
    for u in (1e-200, -1e-160, 5e-324):
        with pytest.raises(ValueError, match="too close to 0"):
            Tube(u, 0.0)
    t = Tube(1e-150, 0.0)
    assert t.edge_intercepts() == (0.0, math.sqrt(1.0 + 1e-150 ** -2))


def test_steep_slopes_whose_square_overflows_are_rejected():
    # u^2 overflows above |u| ~ 1.3e154; axial_coord, perp_coord and
    # enclosing_tube used to raise OverflowError from it
    for u in (1e200, -1e155, 1.35e154):
        with pytest.raises(ValueError, match="too steep"):
            Tube(u, 0.0)
        with pytest.raises(ValueError, match="too steep"):
            FloorLine(abs(u), 0.0)
    t = Tube(-1e154, 0.0)
    assert t.axial_coord(1.0, 0.0) == 1e154 / math.sqrt(1.0 + 1e154 ** 2)
    assert FloorLine(1e154, 0.0).enclosing_tube().u == -1e-154


def test_horizontal_tube():
    t = Tube.horizontal(2.0)
    assert Tube.horizontal(2.0) == Tube(math.inf, 2.0)
    assert t.contains(100.0, 3.0)
    assert not t.contains(100.0, 2.0)
    assert t.contains(0.0, 2.5)
    assert tube_edge_distance(t) == 1.0


def test_tube_offsets_tile_the_plane():
    # for fixed u every point lies in exactly one integer-offset tube
    rng = np.random.default_rng(3)
    for u in (0.3, 1.0, -2.5):
        pts = rng.uniform(-10, 10, size=(50, 2))
        for x, y in pts:
            hits = [k for k in range(-40, 41)
                    if Tube(u, float(k)).contains(x, y)]
            assert len(hits) == 1


def test_tube_coordinates_roundtrip():
    t = Tube(-0.7, 0.0)
    x, y = 3.2, 5.9
    s = t.axial_coord(x, y)
    tau = t.perp_coord(x, y)
    # perpendicular coordinate decides membership in the v-shifted tube
    assert Tube(-0.7, math.floor(tau)).contains(x, y) \
        == (math.floor(tau) < tau)
    assert math.hypot(s, tau) == pytest.approx(math.hypot(x, y))


# ---------------------------------------------------------------------------
# Boxes
# ---------------------------------------------------------------------------

def test_box_count_full_lattice():
    xs, ys = np.meshgrid(np.arange(11), np.arange(11))
    ps = PointSet(np.column_stack([xs.ravel(), ys.ravel()]))
    assert box_count(ps, BoxSpec("first_quadrant", 10.0)) == 121


def test_box_size_zero_counts_corner():
    ps = PointSet([[0, 0], [1, 1]])
    assert box_count(ps, BoxSpec("first_quadrant", 0.0)) == 1
    assert box_count(PointSet([[1, 1]]), BoxSpec("first_quadrant", 0.0)) == 0


def test_centered_box():
    ps = PointSet([[-2, 0], [0, 0], [2, 0], [0, 3]])
    assert box_count(ps, BoxSpec("centered", 2.0)) == 3
    # the square [-2, 2]^2 has side 4: its ratio is taken against log 4
    prof = mass_dim_profile(ps, scales=[2.0], kind="centered")
    assert prof.ratios.tolist() == [np.log(3) / np.log(4.0)]


def test_slanted_box_matches_direct_predicate():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-10, 30, size=(400, 2))
    ps = PointSet(pts)
    for u in (0.5, 2.0):
        box = BoxSpec("slanted", 8.0, u=u)
        tube = Tube(u, 0.0)
        ax = tube.axial_coord(pts[:, 0], pts[:, 1])
        pp = tube.perp_coord(pts[:, 0], pts[:, 1])
        want = int(np.count_nonzero(
            (ax >= 0) & (ax <= 8.0) & (np.abs(pp - 0.5) <= 4.0)))
        assert ps.box_count(box) == want


def test_slanted_box_needs_u():
    with pytest.raises(ValueError):
        BoxSpec("slanted", 4.0)


@pytest.mark.parametrize("kind", ["first_quadrant", "centered"])
def test_axis_box_refuses_a_u(kind):
    # an axis box once kept a u and ignored it, and so did the ladder
    with pytest.raises(ValueError, match=f"^{kind} box takes no u, got u=2.0$"):
        BoxSpec(kind, 4.0, u=2.0)
    with pytest.raises(ValueError, match=f"^{kind} box takes no u, got u=7.0$"):
        mass_dim_profile(PointSet([[1.0, 1.0], [3.0, 2.0]]), kind=kind, u=7.0)


@pytest.mark.parametrize("u", [1e200, -1e-200, 0.0, math.nan])
def test_slanted_box_refuses_the_u_its_tube_refuses(u):
    # u = 1e200 was once accepted and refused only at the first count
    with pytest.raises(ValueError) as refused:
        Tube(u, 0.0)
    with pytest.raises(ValueError) as box_refused:
        BoxSpec("slanted", 4.0, u=u)
    assert str(box_refused.value) == str(refused.value)


def test_slanted_box_takes_the_horizontal_tube():
    # u = inf is the horizontal tube: axial x in [0, s], |y - 1/2| <= s/2
    pts = np.array([[0.0, 0.5], [4.0, 2.5], [4.0, 2.6], [-0.5, 0.0], [2.0, -1.5]])
    box = BoxSpec("slanted", 4.0, u=math.inf)
    assert box.contains(pts[:, 0], pts[:, 1]).tolist() == [True, True, False,
                                                           False, True]
    assert box_count(PointSet(pts), box) == 3


# ---------------------------------------------------------------------------
# Tube slicing
# ---------------------------------------------------------------------------

def test_slice_tube_collinear_unit_spaced_points():
    # unit-spaced points along y = mx all fall in one tube around that line
    m = 2.0
    k = np.arange(200, dtype=float)
    r = math.sqrt(1.0 + m * m)
    pts = np.column_stack([k / r, m * k / r])
    ps = PointSet(pts)
    tube = Tube(-1.0 / m, -0.5)
    got = slice_tube(ps, tube)
    assert len(got) == len(ps)


@pytest.mark.parametrize("slice_once", [
    lambda ps: slice_tube(ps, Tube(-0.5, 0.25)),
    lambda ps: slice_floor_line(ps, FloorLine(0.5, 0.25)),
], ids=["tube", "floor"])
def test_first_slice_scans_and_second_builds_the_index(slice_once):
    pts = np.column_stack([np.arange(40.0), np.floor(0.5 * np.arange(40.0))])
    ps = PointSet(pts)
    slice_once(ps)
    assert ps._strips is None
    slice_once(ps)
    assert ps._strips is not None


def test_contains_and_box_ladders_leave_the_index_unbuilt():
    pts = np.column_stack([np.arange(40.0), np.floor(0.5 * np.arange(40.0))])
    ps = PointSet(pts)
    assert ps.contains(3.0, 1.0) and not ps.contains(3.0, 2.0)
    mass_dim_profile(ps)
    mass_dim_profile(ps, scales=[2.0, 8.0], kind="slanted", u=-0.5)
    assert ps._strips is None
    assert ps._box_keys == {}


def test_the_kept_index_and_box_keys_are_read_only():
    pts = np.column_stack([np.arange(40.0), np.floor(0.5 * np.arange(40.0))])
    ps = PointSet(pts)
    ps._index()
    ps.box_count(BoxSpec("first_quadrant", 10.0))
    ps.box_count(BoxSpec("centered", 10.0))
    kept = [ps._col_x, ps._strips.order, ps._strips.keys, ps._strips.values,
            *ps._box_keys.values()]
    assert len(kept) == 6
    for arr in kept:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 99


def test_slice_tube_disjoint_is_empty():
    xs, ys = np.meshgrid(np.arange(20), np.arange(20))
    ps = PointSet(np.column_stack([xs.ravel(), ys.ravel()]))
    assert len(slice_tube(ps, Tube(1.0, -300.0))) == 0


def test_slice_tube_matches_naive_filter():
    rng = np.random.default_rng(19)
    pts = rng.uniform(-15, 45, size=(2000, 2))
    ps = PointSet(pts)
    for trial in range(25):
        u = float(rng.uniform(0.05, 4.0) * rng.choice([-1.0, 1.0]))
        v = float(rng.uniform(-5.0, 5.0))
        tube = Tube(u, v)
        fast = slice_tube(ps, tube).points
        naive = pts[tube.contains(pts[:, 0], pts[:, 1])]
        assert fast.shape == naive.shape
        assert np.array_equal(fast[np.lexsort(fast.T)],
                              naive[np.lexsort(naive.T)])


def test_slice_tube_horizontal_matches_naive():
    rng = np.random.default_rng(23)
    pts = rng.uniform(0, 50, size=(1500, 2))
    ps = PointSet(pts)
    for v in (-1.0, 0.0, 7.3, 49.5):
        tube = Tube.horizontal(v)
        fast = slice_tube(ps, tube).points
        naive = pts[(v < pts[:, 1]) & (pts[:, 1] <= v + 1.0)]
        assert fast.shape == naive.shape
        assert np.array_equal(fast[np.lexsort(fast.T)],
                              naive[np.lexsort(naive.T)])


def test_slice_tube_steep_and_shallow_slopes():
    xs, ys = np.meshgrid(np.arange(30), np.arange(30))
    pts = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    ps = PointSet(pts)
    for u in (0.01, 100.0, -0.01, -100.0, 1e-20, -1e-20, 1e20):
        for v in (1.0, 3.2):
            tube = Tube(u, v)
            fast = slice_tube(ps, tube).points
            naive = pts[tube.contains(pts[:, 0], pts[:, 1])]
            assert np.array_equal(fast, naive)


# ---------------------------------------------------------------------------
# Floor-line slicing
# ---------------------------------------------------------------------------

def test_floor_slice_diagonal():
    ps = PointSet([[0, 0], [1, 1], [2, 2]])
    got = slice_floor_line(ps, FloorLine(1.0, 0.0))
    assert got.tolist() == [0, 1, 2]


def test_floor_slice_point_off_line():
    ps = PointSet([[0, 5]])
    assert slice_floor_line(ps, FloorLine(1.0, 0.0)).size == 0


def test_floor_slice_counts_height_once():
    ps = PointSet([[2, 1], [3, 1]])
    got = slice_floor_line(ps, FloorLine(0.4, 0.2))
    assert got.tolist() == [1]


def test_floor_slice_x_max_cut():
    ps = PointSet([[0, 0], [1, 1], [2, 2], [3, 3]])
    got = slice_floor_line(ps, FloorLine(1.0, 0.0), x_max=1.5)
    assert got.tolist() == [0, 1]
    with pytest.raises(ValueError):
        slice_floor_line(ps, FloorLine(1.0, 0.0), x_max=0.0)


def test_floor_line_params_validated():
    with pytest.raises(ValueError):
        FloorLine(0.0, 1.0)
    with pytest.raises(ValueError):
        FloorLine(1.0, -0.5)


def test_floor_slice_matches_naive():
    rng = np.random.default_rng(31)
    xi = rng.integers(0, 60, size=800)
    yi = rng.integers(0, 60, size=800)
    pts = np.unique(np.column_stack([xi, yi]), axis=0).astype(float)
    ps = PointSet(pts)
    for trial in range(25):
        u = float(rng.uniform(0.05, 3.0))
        v = float(rng.uniform(0.0, 2.0))
        x_max = float(rng.uniform(5.0, 70.0))
        fast = slice_floor_line(ps, FloorLine(u, v), x_max)
        ok = (pts[:, 0] <= x_max) & (pts[:, 1] == np.floor(u * pts[:, 0] + v))
        naive = np.unique(pts[ok, 1]).astype(np.int64)
        assert np.array_equal(fast, naive)


def test_floor_line_enclosing_tube_contains_broken_line():
    for u, v in ((0.4, 0.2), (1.0, 0.0), (2.5, 1.7)):
        line = FloorLine(u, v)
        tube = line.enclosing_tube()
        xs = np.linspace(0.0, 50.0, 4001)
        ys = np.floor(u * xs + v)
        assert np.all(tube.contains(xs, ys))


def test_floor_slice_is_subset_of_enclosing_tube_slice():
    rng = np.random.default_rng(37)
    pts = np.unique(rng.integers(0, 40, size=(500, 2)), axis=0).astype(float)
    ps = PointSet(pts)
    line = FloorLine(0.7, 0.9)
    heights = set(slice_floor_line(ps, line).tolist())
    tube_pts = slice_tube(ps, line.enclosing_tube()).points
    tube_heights = set(int(y) for y in tube_pts[:, 1])
    assert heights <= tube_heights


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def test_point_file_roundtrip(tmp_path):
    pts = np.array([[0.0, 0.0], [123456789.0, 3.0], [0.1, -2.75]])
    path = tmp_path / "pts.txt"
    write_points(PointSet(pts), path)
    back = read_points(path)
    assert np.array_equal(back.points, pts)
    text = path.read_text()
    assert text.startswith("# x y")
    assert "123456789 3" in text


def test_point_file_comments_and_blank_lines(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("# header\n\n1 2\n# mid\n3 4\n")
    ps = read_points(path)
    assert ps.points.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_point_file_rejects_bad_rows(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("1 2 3\n")
    with pytest.raises(ValueError):
        read_points(path)
