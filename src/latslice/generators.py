"""Constructions of 1-separated planar sets with prescribed dimension pairs.

The ``gen_*`` functions return :class:`~latslice.geometry.PointSet`.  The
staircase and the cone-based families (which blow up doubly exponentially)
are also classes, ``ParabolicStaircase``, ``ConeAnnuli``, ``ConeStaircase``
and ``ConeFixedWidth``: an instance is the implicit set, carrying an exact
membership predicate and exact closed-form rectangle counts (clamped floor
sums over each band, never a sweep over rows), usable by the dimension
profilers without ever enumerating points, and its ``materialize()`` returns
the points.  Counts are Python ints, exact at any band however far they pass
2^64.  The implicit set and its points agree exactly wherever both are
defined; all generators are deterministic functions of their parameters
(plus an explicit seed for the random family).

Angular conventions for the cone families: the cone axis is vertical and
"angle" is measured as horizontal slope offset x/y (exact to first order for
the small openings used here).  Within a row the integer x range is derived
from exact rational slope bounds, so row counts are reproducible integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .exact import (EXACT_INT_LIMIT, MAX_MATERIALIZE_POINTS, InputError, as_int,
                    floor_root, floor_sum, refuse_past_budget, require_count,
                    require_int)
from .geometry import BoxSpec, PointSet, Tube

__all__ = [
    "ConeAnnuli",
    "ConeFixedWidth",
    "ConeStaircase",
    "ParabolicStaircase",
    "ZigzagTrace",
    "gen_cartesian",
    "gen_parabolic_staircase",
    "gen_random_dimension",
    "gen_unit_line",
    "gen_zigzag",
    "zigzag_tube_counts",
]

# ---------------------------------------------------------------------------
# Straight line with unit spacing
# ---------------------------------------------------------------------------

# far more than any slope needs: a pad 2^32 times the first one would move
# the spacing by about count * 1e-6
_MAX_PAD_DOUBLINGS = 32


def gen_unit_line(m: float, count: int) -> PointSet:
    """``count`` points spaced 1 apart along y = m x from the origin.

    Rounding the arc-length parametrization to floats can pull neighbors a
    few ulps closer than 1, which would break the 1-separation guarantee, so
    the spacing is inflated by the smallest power-of-two factor that keeps
    every consecutive gap >= 1 (about count * 2.5e-16, far inside the
    1e-12 the spacing contract allows).
    """
    if not (math.isfinite(m) and m > 0):
        raise ValueError("slope m must be positive")
    count = require_count(count, "count", 1)
    refuse_past_budget(count, f"unit line with count={count} holds {count} points")
    r = math.hypot(1.0, m)      # sqrt(1 + m * m) would overflow past m = 1.3e154
    k = np.arange(count, dtype=float)
    pad = count * 2.5e-16
    for _ in range(_MAX_PAD_DOUBLINGS):
        s = (1.0 + pad) / r
        xs, ys = k * s, k * (m * s)
        if count == 1 or np.min(np.hypot(np.diff(xs), np.diff(ys))) >= 1.0:
            return PointSet(np.column_stack([xs, ys]))
        pad *= 2.0
    raise ValueError(f"no float spacing keeps the unit line of slope m={m!r} "
                     "1-separated")


# ---------------------------------------------------------------------------
# Parabolic staircase: m points in the column at x = m^2
# ---------------------------------------------------------------------------

class _ImplicitSet:
    """Base of the four implicit families: axis box counts from ``rect_count``."""

    # rect_count and materialize stay on each family: bench/tracer.py wraps vars(cls)
    def box_count(self, box: BoxSpec) -> int:
        if box.kind == "first_quadrant":
            return self.rect_count(0.0, box.size, 0.0, box.size)
        if box.kind == "centered":
            return self.rect_count(-box.size, box.size, -box.size, box.size)
        raise InputError("slanted boxes need a materialized set")


@dataclass(frozen=True)
class ParabolicStaircase(_ImplicitSet):
    """Implicit set {(m^2, n) : 1 <= m <= m_max, 0 <= n <= m-1}."""

    m_max: int

    def __post_init__(self):
        object.__setattr__(self, "m_max", require_count(self.m_max, "m_max", 1))

    def contains(self, x, y) -> bool:
        xi, yi = as_int(x), as_int(y)
        if xi is None or yi is None or xi < 1 or yi < 0:
            return False
        m = math.isqrt(xi)
        return m * m == xi and m <= self.m_max and yi <= m - 1

    def rect_count(self, x0, x1, y0, y1) -> int:
        """Exact count inside the closed rectangle [x0,x1] x [y0,y1]: the
        columns m with m^2 in [x0, x1] are rows m_lo..m_hi of one band read
        sideways, row m holding 0..m-1, and [y0, y1] is its column range."""
        cols = _int_span(max(x0, 1), min(x1, self.m_max ** 2))
        if cols is None:
            return 0
        # m_hi >= m_lo - 1, and an empty row range counts 0
        m_lo, m_hi = math.isqrt(cols[0] - 1) + 1, math.isqrt(cols[1])
        band = _Band(1, self.m_max + 1, _Bound(1, 0, 0, 1), _Bound(1, 1, -1, 1))
        # bench/test_bench.py makes this count wrong by rewriting the first
        # "return total" line of this file
        total = _band_count(band, m_lo, m_hi, y0, y1)
        return total

    def size_estimate(self) -> float:
        return self.m_max * (self.m_max + 1) / 2.0

    def materialize(self) -> PointSet:
        total = self.m_max * (self.m_max + 1) // 2
        refuse_past_budget(
            total, f"parabolic staircase with m_max={self.m_max} holds {total} points")
        cols = [np.column_stack([np.full(m, float(m * m)), np.arange(m, dtype=float)])
                for m in range(1, self.m_max + 1)]
        pts = np.concatenate(cols) if cols else np.empty((0, 2))
        return PointSet(pts)


def gen_parabolic_staircase(m_max: int) -> PointSet:
    return ParabolicStaircase(m_max).materialize()


def _int_span(lo, hi) -> tuple[int, int] | None:
    """(ceil(lo), floor(hi)), the integers of the closed interval [lo, hi],
    or None when it holds none.  Callers clamp the ends to finite values
    first, so only an empty interval may have an infinite end."""
    if lo > hi:
        return None
    a, b = math.ceil(lo), math.floor(hi)
    return (a, b) if a <= b else None


# ---------------------------------------------------------------------------
# Zigzag between y = x and y = x tan(pi/4 + delta)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZigzagTrace:
    """Corner bookkeeping for the zigzag construction.

    ``lambda1`` and ``lambda2`` are the eigenvalues of the corner transfer
    matrix [[1+AB, A], [B, 1]], A = 1 - cot(pi/4 + delta) and
    B = tan(pi/4 + delta) - 1, which maps a real corner on the line y = x
    to the next.  Since A(1+B) = B, the diagonal direction is the leading
    eigenvector and lambda1 = 1 + (sqrt(AB(AB+4)) + AB)/2 equals
    tan(pi/4 + delta) exactly.  ``lattice_corners`` are the integer corner
    abscissas actually used to emit lattice points (next =
    ceil(previous * tan(pi/4 + delta))).
    """

    delta: float
    lambda1: float
    lambda2: float
    lattice_corners: list[int] = field(repr=False)
    truncated: bool = False


def _zigzag_coeffs(delta: float) -> tuple[float, float]:
    """The eigenvalues lambda1 and lambda2 of the corner transfer matrix."""
    t = math.tan(math.pi / 4 + delta)
    a = 1.0 - 1.0 / t
    b = t - 1.0
    disc = math.sqrt(a * b * (a * b + 4.0))
    return 1.0 + (disc + a * b) / 2.0, 1.0 - (disc - a * b) / 2.0


def _zigzag_lattice_corners(delta: float, n_levels: int,
                            limit: int | None = None) -> tuple[list[int], bool]:
    """The integer corners to level ``n_levels`` and whether ``limit`` cut
    them short; both entry points check delta and n_levels here, before any
    tan.  With no ``limit``, the budget bounds the corner list before the loop."""
    if not (0.0 < delta < math.pi / 4):
        raise ValueError("delta must lie in (0, pi/4)")
    n_levels = require_count(n_levels, "n_levels", 1)
    num, den = math.tan(math.pi / 4 + delta).as_integer_ratio()
    if limit is None:       # corner k >= t^k has >= k log2(t) bits, t = num/den
        n = min(n_levels, MAX_MATERIALIZE_POINTS + 1)   # past the cap either way
        words = n * (n * math.log2(num / den) / 128 + 1)   # digits, and a word a level
        refuse_past_budget(words, f"zigzag corners to level {n_levels} take at "
                           f"least {words:.4g} 64-bit words", "lower n_levels")
    corners = [1]
    truncated = False
    for _ in range(n_levels):
        nxt = -(-corners[-1] * num // den)
        if limit is not None and nxt > limit:
            truncated = True
            break
        corners.append(nxt)
    return corners, truncated


def gen_zigzag(delta: float, n_levels: int) -> tuple[PointSet, ZigzagTrace]:
    """Lattice zigzag climbing the cone between y = x and y = x tan(pi/4+delta).

    Starting from (1, 1), each level walks the integer points of a vertical
    segment up to (just past) the left cone edge and then a horizontal
    segment back to y = x.  Corners grow geometrically with ratio tending to
    the leading eigenvalue of the corner transfer matrix, so a width-1 tube
    through the origin inside the cone meets only O(level) = O(log height)
    points.  Stops early (trace.truncated) if integer corners would leave the
    exactly-representable float range.
    """
    lattice, truncated = _zigzag_lattice_corners(delta, n_levels,
                                                 limit=EXACT_INT_LIMIT)
    lam1, lam2 = _zigzag_coeffs(delta)
    est = 2 * (lattice[-1] - lattice[0]) + 1
    refuse_past_budget(est, f"zigzag to level {n_levels} holds about {est} points",
                       "use zigzag_tube_counts for tube statistics at this depth")
    chunks = [np.array([[1.0, 1.0]])]
    for k in range(len(lattice) - 1):
        c0, c1 = lattice[k], lattice[k + 1]
        ys = np.arange(c0 + 1, c1 + 1, dtype=float)
        chunks.append(np.column_stack([np.full(ys.size, float(c0)), ys]))
        xs = np.arange(c0 + 1, c1 + 1, dtype=float)
        chunks.append(np.column_stack([xs, np.full(xs.size, float(c1))]))
    trace = ZigzagTrace(delta, lam1, lam2, lattice_corners=lattice,
                        truncated=truncated)
    return PointSet(np.concatenate(chunks)), trace


def zigzag_tube_counts(delta: float, n_levels: int,
                       tube: Tube) -> tuple[list[int], np.ndarray]:
    """Cumulative tube slice counts of the zigzag, level by level, without
    materializing any points.

    Counts the lattice points of each vertical/horizontal zigzag segment
    inside ``tube`` exactly, at any depth.  ``u`` and ``v`` are read as the
    rationals their floats denote, u = -a/b and v = c/d, so the tube's edges
    are y = (b d x + E) / (a d) with E = c sqrt(q) below and (c + d) sqrt(q)
    above, q = a^2 + b^2.  Each segment end is then floor((n + E) / m) =
    (n + floor(E)) // m for integers n and m > 0, and floor(E) takes one
    ``isqrt`` per edge, so every level costs a few integer floor divisions.
    Returns (lattice corners, cumulative counts after each level); entry k
    covers everything up to corner k+1.

    The counts are exact for the real strip v w < y + x/u <= (v + 1) w,
    w = sqrt(1 + 1/u^2).  ``slice_tube`` tests the same strip in floats, so
    on the materialized set the two can differ at a point on an edge (an
    exact tie, possible when q is a perfect square, as for u = -3/4) or
    within float rounding of one; elsewhere they agree.
    """
    if not -math.inf < tube.u < 0:
        raise ValueError("zigzag tubes have positive edge slope, which means u < 0")
    lattice, _ = _zigzag_lattice_corners(delta, n_levels)
    u, v = Fraction(float(tube.u)), Fraction(float(tube.v))
    a, b = -u.numerator, u.denominator
    c, d = v.numerator, v.denominator
    q = a * a + b * b
    e_lo, e_up = floor_root(c, q), floor_root(c + d, q)
    ad, bd = a * d, b * d

    total = int((bd + e_lo) // ad < 1 <= (bd + e_up) // ad)   # the seed (1, 1)
    counts = []
    for c0, c1 in zip(lattice, lattice[1:]):
        # vertical x = c0: integer y in (c0, c1] with lo(c0) < y <= up(c0)
        start = max(c0 + 1, (bd * c0 + e_lo) // ad + 1)
        stop = min(c1, (bd * c0 + e_up) // ad)
        total += max(0, stop - start + 1)
        # horizontal y = c1: integer x in (c0, c1] with
        # (c1 a d - E_up) / (b d) <= x < (c1 a d - E_lo) / (b d)
        start = max(c0 + 1, -((e_up - c1 * ad) // bd))
        stop = min(c1, -((e_lo - c1 * ad) // bd) - 1)
        total += max(0, stop - start + 1)
        counts.append(total)
    return lattice, np.array(counts, dtype=np.int64)


# ---------------------------------------------------------------------------
# The band model, and the vertical cone families built on it
# ---------------------------------------------------------------------------
#
# The four implicit sets share one band model.  A band is a row range whose
# rows hold the consecutive integers between a lower and an upper bound of
# the form sign * floor((p*y + r) / q), so implicit counts and materialized
# points agree bit for bit.  ``_band_rows`` is the one map from a band index
# k to its rows, and ``_band_count`` the one count of a band's points in a
# column range: two clamped floor sums, exact Python ints at any band in
# O(log) integer operations, not one step per row.
#
# The three cone families place sparse bands whose heights grow like 2^(2^k)
# inside a narrow vertical cone, their bounds cut out by exact rational
# slopes.  A cone family yields only its bands: ``_BandedSet`` derives
# membership and size from them, ``_ImplicitSet`` box counts from
# ``rect_count``.  The parabolic staircase is one band read sideways: its
# columns m are the rows, column m holding 0..m-1.
#
# One depth rule: band k <= 20, where a row index already has 2^21 bits,
# and fixed-width level j is band k0 + j - 1.  ``ConeAnnuli`` and
# ``ConeStaircase`` check band k_max and ``ConeFixedWidth`` band k0 at
# construction, before building anything that deep.

class _Bound(NamedTuple):
    """Row bound y -> sign * floor((p*y + r) / q), p >= 0 and q >= 1, so it
    is monotone in y; p = 0, q = 1 makes the constant sign * r."""

    sign: int
    p: int
    r: int
    q: int

    def at(self, y: int) -> int:
        return self.sign * ((self.p * y + self.r) // self.q)

    def total(self, a: int, b: int) -> int:
        """Sum of the bound over the rows a..b."""
        return self.sign * floor_sum(b - a + 1, self.q, self.p, self.p * a + self.r)

    def first(self, c: int, a: int, b: int) -> int:
        """First row of a..b where floor((p*y + r) / q) >= c, the bound
        without its sign; b + 1 if there is none."""
        if self.p == 0:
            return a if self.r // self.q >= c else b + 1
        return min(max(-((self.r - c * self.q) // self.p), a), b + 1)


class _Band(NamedTuple):
    """Rows lo <= y < hi, row y holding the integers lower(y)..upper(y).

    Every row satisfies upper(y) >= lower(y) - 1, so a row is never
    negatively wide."""

    lo: int
    hi: int
    lower: _Bound
    upper: _Bound


def _slope_span(lo: Fraction, hi: Fraction) -> tuple[_Bound, _Bound]:
    """Bounds of the integer x with lo <= x / y < hi: ceil(y lo) and
    ceil(y hi) - 1."""
    return (_Bound(1, lo.numerator, lo.denominator - 1, lo.denominator),
            _Bound(1, hi.numerator, -1, hi.denominator))


def _band_rows(k: int) -> tuple[int, int]:
    """Row range [lo, hi) of band k: lo = 2^(2^(k+1)), height 2^(2^k).
    The one depth limit of the implicit families: k <= 20."""
    if k > 20:
        raise InputError("band index too large to represent")
    lo = 1 << (1 << (k + 1))
    return lo, lo + (1 << (1 << k))


def _clamped_total(bound: _Bound, a: int, b: int, lo: int, hi: int) -> int:
    """Sum over the rows a..b of bound.at(y) clamped to [lo, hi], lo <= hi.

    The bound without its sign rises with y, so it lies below its clamp range
    on the rows before one crossing and above it from a later one; the rows
    between sum to one floor sum."""
    if bound.sign < 0:      # clamp(-f, lo, hi) = -clamp(f, -hi, -lo)
        lo, hi = -hi, -lo
    start, stop = bound.first(lo, a, b), bound.first(hi + 1, a, b)
    return (bound.sign * ((start - a) * lo + (b + 1 - stop) * hi)
            + bound.total(start, stop - 1))


def _band_count(band: _Band, a: int, b: int, x0, x1) -> int:
    """Points of the rows a..b of ``band`` with columns in [x0, x1].

    Row y holds the integers in (lower(y) - 1, upper(y)] and is never
    negatively wide, so its points in [c0, c1] number upper(y) less
    lower(y) - 1, each clamped to [c0 - 1, c1].
    """
    lower, upper = band.lower, band.upper
    # an infinite side becomes a clamp that binds on no row
    cols = _int_span(max(x0, min(lower.at(a), lower.at(b))),
                     min(x1, max(upper.at(a), upper.at(b))))
    if cols is None:
        return 0
    lo, hi = cols[0] - 1, cols[1]
    below = lower._replace(r=lower.r - lower.sign * lower.q)    # lower(y) - 1
    return (_clamped_total(upper, a, b, lo, hi)
            - _clamped_total(below, a, b, lo, hi))


def _bands_rect_count(bands, x0, x1, y0, y1) -> int:
    """Exact count inside the closed rectangle [x0,x1] x [y0,y1]."""
    total = 0
    for band in bands:
        if y1 < band.lo:
            break
        rows = _int_span(max(y0, band.lo), min(y1, band.hi - 1))
        if rows is not None:
            total += _band_count(band, *rows, x0, x1)
    return total


def _bands_materialize(family) -> PointSet:
    est = family.size_estimate()
    refuse_past_budget(est, f"{family!r} holds about {est:.3g} points",
                       "use the implicit set for counts")
    rows = []
    for band in family._bands():
        for y in range(band.lo, band.hi):
            xs = np.arange(band.lower.at(y), band.upper.at(y) + 1, dtype=float)
            rows.append(np.column_stack([xs, np.full(xs.size, float(y))]))
    pts = np.concatenate(rows) if rows else np.empty((0, 2))
    return PointSet(pts)


class _BandedSet(_ImplicitSet):
    """Base of the three cone families: membership and size from ``_bands()``."""

    def contains(self, x, y) -> bool:
        xi, yi = as_int(x), as_int(y)
        if xi is None or yi is None:
            return False
        for band in self._bands():
            if yi < band.lo:
                return False
            if yi < band.hi:
                return band.lower.at(yi) <= xi <= band.upper.at(yi)
        return False

    def size_estimate(self) -> float:
        """The exact point total rounded to a float; inf past float range."""
        total = 0
        for band in self._bands():
            total += _band_count(band, band.lo, band.hi - 1, -math.inf, math.inf)
            if total.bit_length() > 1023:
                return math.inf
        return float(total)


@dataclass(frozen=True)
class ConeAnnuli(_BandedSet):
    """Full cone annuli: band-k rows filled across |x| <= y tan(theta/2).

    Every band is a solid slab of the cone, so mass dimension along the full
    dyadic ladder oscillates: ratios approach 2 at scales just past a band
    and sag between bands.
    """

    theta: float
    k_min: int
    k_max: int
    half: Fraction = field(init=False, repr=False)

    def __post_init__(self):
        if not (0.0 < self.theta < math.pi / 2):
            raise ValueError("theta must lie in (0, pi/2)")
        object.__setattr__(self, "k_min", require_count(self.k_min, "k_min", 0))
        object.__setattr__(self, "k_max",
                           require_count(self.k_max, "k_max", self.k_min))
        _band_rows(self.k_max)      # refuse a band too deep before counting to it
        object.__setattr__(self, "half", Fraction(math.tan(self.theta / 2)))

    def _bands(self):
        p, q = self.half.numerator, self.half.denominator
        lower, upper = _Bound(-1, p, 0, q), _Bound(1, p, 0, q)
        for k in range(self.k_min, self.k_max + 1):
            yield _Band(*_band_rows(k), lower, upper)

    def rect_count(self, x0, x1, y0, y1) -> int:
        return _bands_rect_count(self._bands(), x0, x1, y0, y1)

    def materialize(self) -> PointSet:
        return _bands_materialize(self)


@dataclass(frozen=True)
class ConeStaircase(_BandedSet):
    """Band-k rows filled over the slope interval [sigma_k, sigma_k + theta/2^(2^k)).

    The slope offsets sigma_k = theta * sum_(j<k) 2^-(2^j) stack the chunks
    side by side, so chunk k sees an x-extent of about theta * 2^(2^k) per
    row: wide enough to keep counting dimension 3/2 on band-width windows,
    while the total opening, the end theta * sum_(k<=k_max) 2^-(2^k) of the
    last slope interval, stays below 0.82 theta.
    """

    theta: float
    k_max: int
    _w: tuple = field(init=False, repr=False)
    _sigma: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if not (0.0 < self.theta < 1.0):
            raise ValueError("theta must lie in (0, 1)")
        object.__setattr__(self, "k_max", require_count(self.k_max, "k_max", 0))
        _band_rows(self.k_max)      # refuse a band too deep before building to it
        th = Fraction(self.theta)
        w, sigma, acc = [], [], Fraction(0)
        for k in range(self.k_max + 1):
            w.append(th / (1 << (1 << k)))
            sigma.append(acc)
            acc += w[-1]
        object.__setattr__(self, "_w", tuple(w))
        object.__setattr__(self, "_sigma", tuple(sigma))

    def slope_interval(self, k: int) -> tuple[Fraction, Fraction]:
        return self._sigma[k], self._sigma[k] + self._w[k]

    def _bands(self):
        for k in range(self.k_max + 1):
            yield _Band(*_band_rows(k), *_slope_span(*self.slope_interval(k)))

    def rect_count(self, x0, x1, y0, y1) -> int:
        return _bands_rect_count(self._bands(), x0, x1, y0, y1)

    def materialize(self) -> PointSet:
        return _bands_materialize(self)


@dataclass(frozen=True)
class ConeFixedWidth(_BandedSet):
    """Fixed slope width theta/2^(2^k0), walked across the cone level by level.

    Level j >= 1 is band k0 + j - 1: rows from h_j = 2^(2^(k0+j)) with
    vertical extent h_(j-1), over the slope interval [(j-1) w, j w),
    w = theta/2^(2^k0).  The full walk (n_levels = 2^(2^k0)) exhausts the
    opening theta exactly.  Level 1 is band k0, so k0 <= 20.
    """

    theta: float
    k0: int
    n_levels: int | None = None
    _w: Fraction = field(init=False, repr=False)

    def __post_init__(self):
        if not (0.0 < self.theta < 1.0):
            raise ValueError("theta must lie in (0, 1)")
        object.__setattr__(self, "k0", require_count(self.k0, "k0", 0))
        _band_rows(self.k0)     # refuse level 1 too deep before building 2^(2^k0)
        full = 1 << (1 << self.k0)
        n = full if self.n_levels is None else require_int(self.n_levels, "n_levels")
        if not (1 <= n <= full):
            raise ValueError(f"n_levels must lie in [1, {full}]")
        object.__setattr__(self, "n_levels", n)
        object.__setattr__(self, "_w", Fraction(self.theta) / (1 << (1 << self.k0)))

    def _bands(self):
        for j in range(1, self.n_levels + 1):
            yield _Band(*_band_rows(self.k0 + j - 1),
                        *_slope_span((j - 1) * self._w, j * self._w))

    def rect_count(self, x0, x1, y0, y1) -> int:
        return _bands_rect_count(self._bands(), x0, x1, y0, y1)

    def level_count(self, j: int) -> int:
        """Exact point count of level j, band k0 + j - 1 (a closed-form
        rectangle count)."""
        b_lo, b_hi = _band_rows(self.k0 + j - 1)
        return self.rect_count(-math.inf, math.inf, b_lo, b_hi - 1)

    def materialize(self) -> PointSet:
        return _bands_materialize(self)


# ---------------------------------------------------------------------------
# Cartesian products and random sets of prescribed dimension
# ---------------------------------------------------------------------------

def gen_cartesian(a_values, b_values) -> PointSet:
    """Product set A x B of finite sets of nonnegative integers."""
    a = np.unique(np.asarray(a_values, dtype=float).ravel())
    b = np.unique(np.asarray(b_values, dtype=float).ravel())
    for name, vals in (("A", a), ("B", b)):
        if vals.size and (vals[0] < 0 or np.any(vals != np.floor(vals))):
            raise ValueError(f"{name} must contain nonnegative integers")
    refuse_past_budget(a.size * b.size, f"product holds {a.size * b.size} points")
    pts = np.column_stack([np.repeat(a, b.size), np.tile(b, a.size)])
    return PointSet(pts)


def _distinct_uniform(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """k distinct uniform draws from range(n)."""
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if k >= n:
        return np.arange(n, dtype=np.int64)
    if n <= max(4 * k, 1 << 20):
        return rng.permutation(n)[:k].astype(np.int64)
    draws = rng.integers(0, n, size=k + (k >> 4) + 32)
    uniq = _sorted_distinct(draws)
    while uniq.size < k:
        extra = rng.integers(0, n, size=k - uniq.size + 32)
        uniq = _sorted_distinct(np.concatenate([uniq, extra]))
    return rng.choice(uniq, size=k, replace=False)


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending: what np.unique returns, by a sort and
    a neighbour comparison (np.unique of integers takes a slower hash path)."""
    values = np.sort(values)
    return values[np.append(True, values[1:] != values[:-1])]


def gen_random_dimension(alpha: float, l_max: int, seed: int) -> PointSet:
    """Random lattice subset whose mass and counting dimensions are alpha.

    Dyadic annulus j (sup-norm radii in [2^j, 2^(j+1))) keeps each of its
    3*4^j lattice points independently with probability 2^(j(alpha-2)), so
    the expected count up to radius l is comparable to l^alpha at every
    scale simultaneously.  The origin is always included.  Deterministic in
    (alpha, l_max, seed).
    """
    if not (0.0 <= alpha <= 2.0):
        raise ValueError("alpha must lie in [0, 2]")
    l_max = require_int(l_max, "l_max")
    if l_max < 2 or l_max & (l_max - 1):
        raise ValueError("l_max must be a power of two >= 2")
    seed = require_count(seed, "seed", 0)
    n_annuli = l_max.bit_length() - 1
    expected = 1.0 + sum(3.0 * 4.0 ** j * min(1.0, 2.0 ** (j * (alpha - 2.0)))
                         for j in range(n_annuli))
    refuse_past_budget(expected, f"expected about {expected:.3g} points",
                       "lower alpha or l_max")
    rng = np.random.default_rng(seed)
    chunks = [np.zeros((1, 2))]
    for j in range(n_annuli):
        h = 1 << j
        n = 3 * h * h
        p = min(1.0, 2.0 ** (j * (alpha - 2.0)))
        k = n if p >= 1.0 else int(rng.binomial(n, p))
        idx = _distinct_uniform(rng, n, k)
        right = idx < h * h
        xs = np.empty(idx.size, dtype=np.int64)
        ys = np.empty(idx.size, dtype=np.int64)
        xs[right] = h + idx[right] // h
        ys[right] = idx[right] % h
        top = idx[~right] - h * h
        xs[~right] = top % (2 * h)
        ys[~right] = h + top // (2 * h)
        chunks.append(np.column_stack([xs, ys]).astype(float))
    return PointSet(np.concatenate(chunks))
