"""Differential property tests: indexed queries against naive full scans.

Every indexed operation of ``PointSet`` is compared with a scan of the raw
point array written from the documented definitions.  A set's first slice
is itself a scan, so slices are checked on both paths: the first slice of a
fresh set against the naive scan, and against the same slice once the index
exists.  The drawn sets mix small coordinates of either sign with clusters
near +-2^53, where float spacing reaches 1 and 2, and tubes span |u| from
1e-150 to 1e150.  Points are placed exactly on computed tube edges and
floor lines so that the open and closed edge conventions are exercised, not
just the interiors.
"""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from latslice.dimension import mass_dim_profile
from latslice.generators import gen_parabolic_staircase
from latslice.geometry import (BoxSpec, FloorLine, PointSet, Tube, box_count,
                               slice_floor_line, slice_tube)

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

BIG = 2.0 ** 53
OFFSETS = (0.0, BIG, -BIG, BIG / 2.0, -BIG + 7.0)

small = st.one_of(st.integers(-30, 30).map(float),
                  st.floats(-30.0, 30.0, allow_nan=False, allow_infinity=False))


@st.composite
def point_arrays(draw):
    """Clusters around 0 and around +-2^53 (offsets added in float): either
    a few drawn points spread over [-30, 30]^2, or up to 200 seeded points
    packed into [-6, 6]^2 on a grid of step 1, 1/2 or 2^-20, dense enough
    that a width-1 tube through the cluster holds many of them."""
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        offset = np.array([draw(st.sampled_from(OFFSETS)),
                           draw(st.sampled_from(OFFSETS))])
        if draw(st.booleans()):
            rel = np.array(draw(st.lists(st.tuples(small, small), max_size=40)),
                           dtype=float).reshape(-1, 2)
        else:
            rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
            step = draw(st.sampled_from((1.0, 0.5, 2.0 ** -20)))
            size = (draw(st.integers(1, 200)), 2)
            rel = np.round(rng.uniform(-6.0, 6.0, size=size) / step) * step
        parts.append(offset + rel)
    return np.concatenate(parts)


slopes = st.builds(lambda e, s: s * 10.0 ** e,
                   st.one_of(st.floats(-2.0, 2.0), st.floats(-150.0, 150.0)),
                   st.sampled_from((-1.0, 1.0)))


def edge_points(tube: Tube, xs: np.ndarray, limit: float) -> np.ndarray:
    """Points sitting exactly on the tube's computed edges, plus neighbours
    one ulp above and below, kept within ``limit`` of the origin."""
    a = tube.edge_slope()
    lo, up = tube.edge_intercepts()
    base = a * xs
    ys = np.concatenate([base + lo, base + up])
    ys = np.concatenate([ys, np.nextafter(ys, np.inf), np.nextafter(ys, -np.inf)])
    out = np.column_stack([np.tile(xs, 6), ys])
    return out[np.all(np.abs(out) <= limit, axis=1)]


@st.composite
def tube_cases(draw):
    pts = draw(point_arrays())
    if draw(st.booleans()):
        v = draw(st.one_of(small, st.sampled_from(pts[:, 1].tolist() or [0.0])))
        tube = draw(st.sampled_from([Tube.horizontal(v), Tube(-math.inf, v)]))
    else:
        u = draw(slopes)
        anchor = draw(st.sampled_from(pts.tolist() or [[0.0, 0.0]]))
        perp = float(Tube(u, 0.0).perp_coord(*anchor))
        shift = draw(st.one_of(st.just(0.0), st.just(-1.0),
                               st.floats(-1.0, 1.0)))
        tube = Tube(u, perp + shift)
    if pts.size and draw(st.booleans()):
        xs = np.unique(pts[:, 0])[:10]
        pts = np.concatenate([pts, edge_points(tube, xs, 4.0 * BIG)])
    return pts, tube


@SETTINGS
@given(tube_cases())
def test_slice_tube_matches_naive_scan(case):
    pts, tube = case
    got = slice_tube(PointSet(pts), tube).points
    want = pts[tube.contains(pts[:, 0], pts[:, 1])]
    assert np.array_equal(got, want)


@st.composite
def floor_cases(draw):
    pts = draw(point_arrays())
    u = draw(st.one_of(st.floats(0.01, 10.0),
                       st.floats(-150.0, 150.0).map(lambda e: 10.0 ** e)))
    v = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
    line = FloorLine(u, v)
    if pts.size:
        # put points exactly on the broken line, and one unit above it
        xs = pts[:: max(1, len(pts) // 8), 0]
        ys = line.y_at(xs)
        on = np.column_stack([np.concatenate([xs, xs]),
                              np.concatenate([ys, ys + 1.0])])
        pts = np.concatenate([pts, on[np.all(np.abs(on) <= 4.0 * BIG, axis=1)]])
    x_max = draw(st.one_of(
        st.just(math.inf),
        st.sampled_from([x for x in pts[:, 0].tolist() if x > 0] or [1.0]),
        st.floats(0.5, 4.0 * BIG)))
    return pts, line, x_max


@SETTINGS
@given(floor_cases())
def test_slice_floor_line_matches_naive_scan(case):
    pts, line, x_max = case
    got = slice_floor_line(PointSet(pts), line, x_max)
    ok = (pts[:, 0] <= x_max) & (pts[:, 1] == np.floor(line.u * pts[:, 0] + line.v))
    want = np.unique(pts[ok, 1]).astype(np.int64)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    if math.isinf(x_max):
        assert np.array_equal(slice_floor_line(PointSet(pts), line), want)


def _fresh_and_indexed(pts, slice_once):
    """The first slice of a fresh set (a scan) and the same slice again
    (from the index, which the second slice builds)."""
    ps = PointSet(pts)
    first = slice_once(ps)
    assert ps._strips is None
    again = slice_once(ps)
    assert ps._strips is not None
    return first, again


@st.composite
def few_points(draw, cases):
    """A drawn case with its points cut to none, one, or all of them."""
    pts, *rest = draw(cases)
    keep = draw(st.sampled_from((0, 1, len(pts))))
    return (pts[:keep], *rest)


@SETTINGS
@given(few_points(tube_cases()))
def test_first_tube_slice_scan_equals_indexed_slice(case):
    pts, tube = case
    first, again = _fresh_and_indexed(pts, lambda ps: slice_tube(ps, tube).points)
    assert first.shape == again.shape
    assert first.tobytes() == again.tobytes()


@SETTINGS
@given(few_points(floor_cases()))
def test_first_floor_slice_scan_equals_indexed_slice(case):
    pts, line, x_max = case
    first, again = _fresh_and_indexed(
        pts, lambda ps: slice_floor_line(ps, line, x_max))
    assert first.dtype == again.dtype == np.int64
    assert first.tobytes() == again.tobytes()


@st.composite
def block_cases(draw):
    """A set whose slice index may group occupied columns into strips, with
    tubes through its points and floor lines whose finite ``x_max`` falls
    inside an occupied column (so inside a strip when B > 1).

    The set is sparse random points (integers, or quarters), a parabolic
    staircase, or a lattice embedded in sparse points, then reflected in
    either axis and moved by an offset, near +-2^52 or not; points on the
    tubes' computed edges and on the floor lines are added."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(("sparse", "staircase", "embedded lattice")))
    if kind == "staircase":
        pts = gen_parabolic_staircase(draw(st.integers(1, 24))).points
    else:
        n = draw(st.integers(1, 300))
        reach = draw(st.integers(1, 64)) * n
        pts = rng.integers(-reach, reach, size=(n, 2)).astype(float)
        if draw(st.booleans()):
            pts += np.floor(4.0 * rng.random((n, 2))) / 4.0
        if kind == "embedded lattice":
            k = draw(st.integers(2, 16))
            grid = np.stack(np.meshgrid(np.arange(k), np.arange(k)), -1).reshape(-1, 2)
            pts = np.concatenate([pts, grid + rng.integers(-reach, reach, size=2)])
    pts = pts * np.array([draw(st.sampled_from((1.0, -1.0))) for _ in range(2)])
    pts = pts + np.array([draw(st.sampled_from((0.0, 2.0 ** 52, -2.0 ** 52,
                                                   2.0 ** 52 - 300.0)))
                          for _ in range(2)])
    anchors = pts[rng.integers(len(pts), size=3)]
    tubes = [Tube(u, float(Tube(u, 0.0).perp_coord(*anchor)) - shift)
             for u, anchor, shift in zip(draw(st.lists(slopes, min_size=3, max_size=3)),
                                         anchors.tolist(), rng.random(3))]
    lines = [FloorLine(u, v) for u, v in
             zip(draw(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=2)),
                 rng.uniform(0.0, 3.0, 2))]
    extra = [edge_points(tube, anchors[:, 0], 2.0 ** 54) for tube in tubes]
    for line in lines:
        xs = pts[rng.integers(len(pts), size=8), 0]
        extra.append(np.column_stack([xs, line.y_at(xs)]))
    pts = np.concatenate([pts, *extra])
    cols = np.unique(np.floor(pts[:, 0]))
    cols = cols[cols > 0.0]
    x_max = (float(cols[rng.integers(len(cols))]) + draw(st.floats(0.0, 0.99))
             if cols.size else math.inf)
    return pts, tubes, lines, x_max


def test_indexed_slices_equal_scan_slices_on_blocks():
    """Each slice of a set whose index is in use equals the first slice of
    a fresh copy, which scans every point; some drawn sets group occupied
    columns into strips of B > 1."""
    sides = []

    # points 256 apart in y at x = 2^60, where the float edges a x + lo and
    # a x + up round by up to 128, far more than the tube's width: both
    # paths miss the point j = 1 inside the tube, and must still agree
    far = np.column_stack([np.full(5, 2.0 ** 60), 2.0 ** 60 + 256.0 * np.arange(-2, 3)])

    @SETTINGS
    @example((far, [Tube(-1.0, 256.0 / math.sqrt(2.0) - 0.5)], [], math.inf))
    @given(block_cases())
    def check(case):
        pts, tubes, lines, x_max = case
        ps = PointSet(pts)
        slice_tube(ps, tubes[0])            # the first slice of ps scans
        for tube in tubes:
            got = slice_tube(ps, tube).points
            want = slice_tube(PointSet(pts), tube).points
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for line in lines:
            for limit in (x_max, math.inf):
                got = slice_floor_line(ps, line, limit)
                want = slice_floor_line(PointSet(pts), line, limit)
                assert got.tobytes() == want.tobytes()
        sides.append(ps._strip_width)

    check()
    assert max(sides) > 1
    assert min(sides) == 1


@st.composite
def membership_cases(draw):
    """A point set, possibly empty, with repeated points, several points in
    one unit cell and zeros of both signs, and queries on its points, just
    off them, and with the sign of each zero flipped."""
    pts = draw(st.one_of(point_arrays(), st.just(np.empty((0, 2)))))
    queries = draw(st.lists(st.tuples(small, small), max_size=3))
    queries += [(0.0, 0.0), (-0.0, -0.0), (0.0, 2.0), (-3.5, -0.0)]
    if pts.size:
        repeats = draw(st.lists(st.integers(0, len(pts) - 1), max_size=5))
        cell = np.floor(pts[0]) + np.array([[0.25, 0.5], [0.75, 0.0], [0.5, 0.125]])
        zeros = np.array(draw(st.lists(st.sampled_from(
            [(0.0, -0.0), (-0.0, 2.0), (-0.0, -0.0), (-3.5, 0.0)]), max_size=3)))
        pts = np.concatenate([pts, pts[repeats], cell, zeros.reshape(-1, 2)])
        for x, y in pts[draw(st.lists(st.integers(0, len(pts) - 1), max_size=8))]:
            queries += [(x, y), (-x if x == 0.0 else x, -y if y == 0.0 else y),
                        (np.nextafter(x, np.inf), y), (x, np.nextafter(y, -np.inf)),
                        (x + 0.5, y), (x + 1.0, y)]
    return pts, queries


@SETTINGS
@given(membership_cases())
def test_contains_matches_naive_scan(case):
    """``contains`` equals a Python loop over the points, where -0.0 ==
    0.0, however the points share cells or repeat."""
    pts, queries = case
    ps = PointSet(pts)
    for x, y in queries:
        want = any(px == x and py == y for px, py in pts.tolist())
        assert ps.contains(x, y) is want


@SETTINGS
@given(point_arrays())
def test_cell_arrays_match_naive_histogram(pts):
    ps = PointSet(pts)
    cx, cy, pop = ps.cell_arrays()
    cells, counts = np.unique(np.floor(pts).astype(np.int64).reshape(-1, 2),
                              axis=0, return_counts=True)
    assert cx.dtype == cy.dtype == pop.dtype == np.int64
    assert np.array_equal(cx, cells[:, 0])
    assert np.array_equal(cy, cells[:, 1])
    assert np.array_equal(pop, counts)


@SETTINGS
@given(point_arrays(), st.sampled_from(("first_quadrant", "centered", "slanted")),
       st.one_of(small.map(abs), st.floats(0.0, 4.0 * BIG)), slopes)
def test_box_count_matches_naive_scan(pts, kind, size, u):
    x, y = pts[:, 0], pts[:, 1]
    if kind == "first_quadrant":
        mask = (0.0 <= x) & (x <= size) & (0.0 <= y) & (y <= size)
    elif kind == "centered":
        mask = (-size <= x) & (x <= size) & (-size <= y) & (y <= size)
    else:
        r = math.sqrt(1.0 + u ** 2)
        axial = (y - u * x) / r
        perp = (x + u * y) / math.copysign(r, u)
        mask = (0.0 <= axial) & (axial <= size) & (np.abs(perp - 0.5) <= size / 2.0)
    box = BoxSpec(kind, size, u if kind == "slanted" else None)
    assert box_count(PointSet(pts), box) == int(np.count_nonzero(mask))


ODD_SUBNORMALS = (5e-324, 3 * 5e-324)


def centre_points(u: float) -> np.ndarray:
    """Points on the axis y = u x of the slanted boxes, around the point at
    perpendicular coordinate 1/2: their axial coordinate is exactly 0, and
    for most u some of them have perpendicular coordinate exactly 1/2, so
    they lie in the slanted box of every size, subnormal ones included."""
    x0 = 0.5 * math.copysign(math.sqrt(1.0 + u * u), u) / (1.0 + u * u)
    xs = x0 + np.arange(-16, 17) * np.spacing(x0)
    return np.column_stack([xs, u * xs])


@st.composite
def ladder_cases(draw):
    """A point set, a box kind with its u, and a list of sizes that may be
    zero, subnormal, unsorted or repeated.  Points sit on the edges of the
    drawn boxes, at negative coordinates and at -0.0."""
    pts = draw(point_arrays())
    kind = draw(st.sampled_from(("first_quadrant", "centered", "slanted")))
    u = draw(slopes) if kind == "slanted" else None
    coords = np.abs(pts).ravel().tolist()
    size = st.one_of(small.map(abs), st.just(0.0), st.sampled_from(ODD_SUBNORMALS),
                     st.floats(0.0, 4.0 * BIG),
                     st.sampled_from(coords or [1.0]))
    sizes = draw(st.lists(size, min_size=1, max_size=12))
    sizes += draw(st.lists(st.sampled_from(sizes), max_size=3))   # repeats
    edge = []
    for s in sizes[:4]:
        c = draw(small)
        edge += [(s, c), (c, s), (-s, c), (c, -s), (s, s), (-s, -s),
                 (s, -0.0), (-0.0, s), (np.nextafter(s, np.inf), c)]
    edge += [(-0.0, -0.0), (0.0, -0.0), (-1.0, 0.5)]
    pts = np.concatenate([pts, np.array(edge, dtype=float)])
    if kind == "slanted":
        pts = np.concatenate([pts, centre_points(u)])
    return pts, kind, u, sizes


def scan_counts(pts: np.ndarray, kind: str, u, sizes) -> list[int]:
    return [int(np.count_nonzero(BoxSpec(kind, s, u).contains(pts[:, 0], pts[:, 1])))
            for s in sizes]


@SETTINGS
@given(ladder_cases())
def test_box_count_and_ladder_match_contains_scan(case):
    """``box_count`` (sorted cached keys, or a key scan for slanted boxes)
    at every drawn size, and ``mass_dim_profile`` (sorted keys searched per
    scale, never cached) at the sizes above 1, equal a scan with
    ``BoxSpec.contains``."""
    pts, kind, u, sizes = case
    ps = PointSet(pts)
    scales = np.unique([s for s in sizes if s > 1.0])
    if scales.size:
        prof = mass_dim_profile(ps, scales=scales, kind=kind, u=u)
        assert prof.counts.tolist() == scan_counts(pts, kind, u, scales)
    assert [ps.box_count(BoxSpec(kind, s, u)) for s in sizes] \
        == scan_counts(pts, kind, u, sizes)


@pytest.mark.parametrize("u", [1.0, -1.0, 0.75, -0.37, 2.5])
@pytest.mark.parametrize("size", ODD_SUBNORMALS)
def test_slanted_box_of_odd_subnormal_size(u, size):
    """At an odd subnormal size s, s/2 is rounded, and the box holds exactly
    the points at axial 0 and perpendicular 1/2: the key's 2|d| <= s must
    pick the same points as contains' |d| <= s/2."""
    pts = np.concatenate([centre_points(u), [[0.0, 0.0], [-0.0, 1e-300]]])
    box = BoxSpec("slanted", size, u)
    want = scan_counts(pts, "slanted", u, [size])
    assert want[0] >= 1
    assert PointSet(pts).box_count(box) == want[0]
