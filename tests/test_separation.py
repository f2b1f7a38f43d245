"""The 1-separation check against an exact all-pairs scan.

``validate_separation`` reports the least float distance sqrt(dx*dx +
dy*dy) over all pairs, the smallest (i, j), i < j, at that distance, and
whether every pair is at a real distance of at least 1.  The reference
below evaluates the same float expression for every pair in Python floats
and decides the verdict in rationals.  The drawn sets mix repeated points,
one-column and one-row sets, offsets up to +-2^52, subnormal gaps, points on
unit circles, full lattices where many pairs tie, and coordinates far enough
apart that the float distances overflow.
"""
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from latslice import geometry
from latslice.geometry import PointSet, validate_separation

SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def exact_scan(pts: np.ndarray):
    """(least float distance, first pair at it, exact verdict) by scanning
    every pair."""
    best, pair, valid = math.inf, None, True
    rows = pts.tolist()
    for i, (xi, yi) in enumerate(rows):
        for j in range(i + 1, len(rows)):
            xj, yj = rows[j]
            dx, dy = xj - xi, yj - yi
            f = math.sqrt(dx * dx + dy * dy)
            if f < best or pair is None:
                best, pair = f, (i, j)
            ex, ey = Fraction(xj) - Fraction(xi), Fraction(yj) - Fraction(yi)
            valid = valid and ex * ex + ey * ey >= 1
    return best, pair, valid


OFFSET = st.one_of(st.just(0.0), st.integers(-2 ** 52, 2 ** 52).map(float),
                   st.sampled_from((2.0 ** 52, -2.0 ** 52, 2.0 ** 52 - 0.5, 1e300)))
SMALL = st.one_of(st.integers(-4, 4).map(float),
                  st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False))
TINY = st.sampled_from((0.0, 5e-324, -5e-324, 1e-310, 2.0 ** -1022, 1e-300,
                        2.0 ** -538, 2.0 ** -537, -1.5 * 2.0 ** -537, 3e-162,
                        2.0 ** -520))


@st.composite
def free_points(draw):
    """A few points anywhere in [-4, 4]^2."""
    return np.array(draw(st.lists(st.tuples(SMALL, SMALL), min_size=1, max_size=12)),
                    dtype=float)


@st.composite
def line_points(draw):
    """Points sharing one x (a column) or one y (a row)."""
    values = draw(st.lists(SMALL, min_size=1, max_size=12))
    fixed = np.full(len(values), draw(SMALL))
    cols = [fixed, np.array(values)]
    return np.column_stack(cols if draw(st.booleans()) else cols[::-1])


@st.composite
def tiny_points(draw):
    """Points a subnormal or near-underflow gap apart, around a base point."""
    base = np.array([draw(SMALL), draw(SMALL)]) if draw(st.booleans()) else np.zeros(2)
    gaps = draw(st.lists(st.tuples(TINY, TINY), min_size=1, max_size=8))
    return base + np.array(gaps, dtype=float)


@st.composite
def circle_points(draw):
    """A centre and points on the unit circle around it, whose float
    distances round to or near 1."""
    centre = np.array([draw(st.integers(-3, 3)), draw(st.integers(-3, 3))], dtype=float)
    angles = draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1, max_size=6))
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    return np.vstack([centre, centre + ring])


@st.composite
def lattice_points(draw):
    """A full k x m lattice of step 1, one ulp under or over 1, 1/2 or 3."""
    k, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    step = draw(st.sampled_from((1.0, 1.0 - 2.0 ** -52, 1.0 + 2.0 ** -52, 0.5, 3.0)))
    gx, gy = np.meshgrid(np.arange(k) * step, np.arange(m) * step)
    return np.column_stack([gx.ravel(), gy.ravel()])


@st.composite
def point_sets(draw):
    """One to three drawn parts, each moved by an offset per axis, in half
    of the sets with a few points repeated, in a drawn order."""
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        part = draw(st.one_of(free_points(), line_points(), tiny_points(),
                              circle_points(), lattice_points()))
        parts.append(part + np.array([draw(OFFSET), draw(OFFSET)]))
    pts = np.concatenate(parts)
    repeats = draw(st.lists(st.integers(0, len(pts) - 1), max_size=3)) \
        if draw(st.booleans()) else []
    pts = np.concatenate([pts, pts[repeats]])
    order = draw(st.permutations(range(len(pts))))
    return pts[list(order)]


@SETTINGS
@given(point_sets())
def test_separation_matches_exact_scan(pts):
    rep = validate_separation(PointSet(pts))
    if len(pts) == 1:
        assert (rep.min_distance, rep.closest_pair, rep.valid) == (math.inf, None, True)
        return
    best, pair, valid = exact_scan(pts)
    assert rep.min_distance == best
    assert rep.closest_pair == pair
    assert rep.valid == valid


def test_separation_decides_a_rounded_unit_distance_exactly():
    # x^2 + y^2 - 1 is exactly -1.15e-17, but the float distance rounds to 1
    rep = validate_separation(PointSet([[0, 0], [0.5398502917760716, 0.8417610483203]]))
    assert rep.min_distance == 1.0
    assert not rep.valid


def test_separation_ties_go_to_the_first_pair():
    gx, gy = np.meshgrid(np.arange(50.0), np.arange(40.0))
    pts = np.column_stack([gx.ravel(), gy.ravel()])[::-1] + 2.0 ** 52
    rep = validate_separation(PointSet(pts))
    assert (rep.min_distance, rep.closest_pair, rep.valid) == (1.0, (0, 1), True)


def test_sieve_raises_rather_than_loops_when_a_round_drops_nothing(monkeypatch):
    # every point in one cell: no point is alone, so the round cannot shrink
    monkeypatch.setattr(geometry, "_cell_keys",
                        lambda pts, mesh: (np.zeros(len(pts), dtype=np.int64), 3))
    with pytest.raises(ArithmeticError, match="sieve"):
        validate_separation(PointSet([[0, 0], [5, 0], [0, 7]]))


def test_importing_the_cli_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, latslice.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
