"""Constructions of 1-separated planar sets with prescribed dimension pairs.

Materialized generators return :class:`~latslice.geometry.PointSet`.  The
cone-based families blow up doubly exponentially, so they also come in an
implicit flavor: an object carrying an exact membership predicate and exact
closed-form rectangle counts (floor sums over each band, never a sweep over
rows), usable by the dimension profilers without ever enumerating points.
Counts are Python ints, exact at any band however far they pass 2^64.
Implicit and materialized modes agree exactly wherever both are defined; all
generators are deterministic functions of their parameters (plus an explicit
seed for the random family).

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

from .geometry import BoxSpec, PointSet, Tube

__all__ = [
    "ConeAnnuli",
    "ConeFixedWidth",
    "ConeStaircase",
    "ParabolicStaircase",
    "ZigzagTrace",
    "gen_cartesian",
    "gen_cone_annuli",
    "gen_cone_fixed_width",
    "gen_cone_staircase",
    "gen_parabolic_staircase",
    "gen_random_dimension",
    "gen_random_dimension_1d",
    "gen_unit_line",
    "gen_zigzag",
    "zigzag_tube_counts",
]

MAX_MATERIALIZE_POINTS = 20_000_000
EXACT_INT_LIMIT = 2 ** 53


class MaterializeError(ValueError):
    """Raised when a materialization request is too large to honor."""


# ---------------------------------------------------------------------------
# Straight line with unit spacing
# ---------------------------------------------------------------------------

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
    if count < 1:
        raise ValueError("count must be >= 1")
    r = math.sqrt(1.0 + m * m)
    k = np.arange(count, dtype=float)
    pad = count * 2.5e-16
    while True:
        s = (1.0 + pad) / r
        xs, ys = k * s, k * (m * s)
        if count == 1 or np.min(np.hypot(np.diff(xs), np.diff(ys))) >= 1.0:
            return PointSet(np.column_stack([xs, ys]), _separated=True)
        pad *= 2.0


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
        raise NotImplementedError("slanted boxes need a materialized set")


@dataclass(frozen=True)
class ParabolicStaircase(_ImplicitSet):
    """Implicit set {(m^2, n) : 1 <= m <= m_max, 0 <= n <= m-1}."""

    m_max: int

    def __post_init__(self):
        if self.m_max < 1:
            raise ValueError("m_max must be >= 1")

    def contains(self, x, y) -> bool:
        xi, yi = _as_int(x), _as_int(y)
        if xi is None or yi is None or xi < 1 or yi < 0:
            return False
        m = math.isqrt(xi)
        return m * m == xi and m <= self.m_max and yi <= m - 1

    def rect_count(self, x0, x1, y0, y1) -> int:
        """Exact count inside the closed rectangle [x0,x1] x [y0,y1], in
        closed form: column m holds rows 0..m-1, so for rectangle rows lo..top
        the columns m <= top + 1 hold m - lo points each (none below m = lo)
        and every later column holds top - lo + 1."""
        cols = _int_span(max(x0, 1), min(x1, self.m_max ** 2))
        rows = _int_span(max(y0, 0), min(y1, self.m_max - 1))
        if cols is None or rows is None:
            return 0
        m_lo, m_hi = math.isqrt(cols[0] - 1) + 1, math.isqrt(cols[1])
        lo, top = rows
        first, last = max(m_lo, lo + 1), min(m_hi, top + 1)
        total = max(0, m_hi - max(m_lo, top + 2) + 1) * (top - lo + 1)
        if first <= last:
            total += (first + last - 2 * lo) * (last - first + 1) // 2
        return total

    def size_estimate(self) -> float:
        return self.m_max * (self.m_max + 1) / 2.0

    def materialize(self) -> PointSet:
        total = self.m_max * (self.m_max + 1) // 2
        if total > MAX_MATERIALIZE_POINTS:
            raise MaterializeError(
                f"parabolic staircase with m_max={self.m_max} holds {total} points")
        cols = [np.column_stack([np.full(m, float(m * m)), np.arange(m, dtype=float)])
                for m in range(1, self.m_max + 1)]
        pts = np.concatenate(cols) if cols else np.empty((0, 2))
        return PointSet(pts, _separated=True)


def gen_parabolic_staircase(m_max: int, mode: str = "materialize"):
    return _in_mode(ParabolicStaircase(m_max), mode)


def _in_mode(family, mode: str):
    """The implicit family itself, or its materialized point set."""
    if mode == "implicit":
        return family
    if mode == "materialize":
        return family.materialize()
    raise ValueError(f"unknown mode {mode!r}")


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

    ``corners`` are the real-arithmetic corner iterates on the line y = x:
    each next corner is the transfer matrix [[1+AB, A], [B, 1]] applied to
    the previous one, with A = 1 - cot(pi/4 + delta), B = tan(pi/4 + delta) - 1.
    Since A(1+B) = B, the diagonal direction is the leading eigenvector and
    lambda1 = 1 + (sqrt(AB(AB+4)) + AB)/2 equals tan(pi/4 + delta) exactly.
    ``lattice_corners`` are the integer corner abscissas actually used to
    emit lattice points (next = ceil(previous * tan(pi/4 + delta))).
    """

    delta: float
    A: float
    B: float
    lambda1: float
    lambda2: float
    corners: np.ndarray
    lattice_corners: list[int] = field(repr=False)
    truncated: bool = False

    def corner_ratios(self) -> np.ndarray:
        c = np.array(self.lattice_corners, dtype=float)
        return c[1:] / c[:-1]


def _zigzag_coeffs(delta: float) -> tuple[float, float, float, float, float]:
    if not (0.0 < delta < math.pi / 4):
        raise ValueError("delta must lie in (0, pi/4)")
    t = math.tan(math.pi / 4 + delta)
    a = 1.0 - 1.0 / t
    b = t - 1.0
    disc = math.sqrt(a * b * (a * b + 4.0))
    lam1 = 1.0 + (disc + a * b) / 2.0
    lam2 = 1.0 - (disc - a * b) / 2.0
    return t, a, b, lam1, lam2


def _zigzag_lattice_corners(delta: float, n_levels: int,
                            limit: int | None = None) -> tuple[list[int], bool]:
    num, den = math.tan(math.pi / 4 + delta).as_integer_ratio()
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
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    t, a, b, lam1, lam2 = _zigzag_coeffs(delta)
    mat = np.array([[1.0 + a * b, a], [b, 1.0]])
    real = [np.array([1.0, 1.0])]
    for _ in range(n_levels):
        real.append(mat @ real[-1])
    lattice, truncated = _zigzag_lattice_corners(delta, n_levels,
                                                 limit=EXACT_INT_LIMIT)
    est = 2 * (lattice[-1] - lattice[0]) + 1
    if est > MAX_MATERIALIZE_POINTS:
        raise MaterializeError(
            f"zigzag to level {n_levels} holds about {est} points; "
            "use zigzag_tube_counts for tube statistics at this depth")
    chunks = [np.array([[1.0, 1.0]])]
    for k in range(len(lattice) - 1):
        c0, c1 = lattice[k], lattice[k + 1]
        ys = np.arange(c0 + 1, c1 + 1, dtype=float)
        chunks.append(np.column_stack([np.full(ys.size, float(c0)), ys]))
        xs = np.arange(c0 + 1, c1 + 1, dtype=float)
        chunks.append(np.column_stack([xs, np.full(xs.size, float(c1))]))
    trace = ZigzagTrace(delta, a, b, lam1, lam2,
                        corners=np.array(real), lattice_corners=lattice,
                        truncated=truncated)
    return PointSet(np.concatenate(chunks), _separated=True), trace


def _floor_root(c: int, q: int) -> int:
    """floor(c * sqrt(q)) for integers c and q >= 0."""
    m = c * c * q
    r = math.isqrt(m)
    if c >= 0:
        return r
    return -r if r * r == m else -r - 1


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
    if tube.orientation != "standard" or tube.u >= 0:
        raise ValueError("zigzag tubes have positive edge slope, which means u < 0")
    lattice, _ = _zigzag_lattice_corners(delta, n_levels)
    u, v = Fraction(float(tube.u)), Fraction(float(tube.v))
    a, b = -u.numerator, u.denominator
    c, d = v.numerator, v.denominator
    q = a * a + b * b
    e_lo, e_up = _floor_root(c, q), _floor_root(c + d, q)
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
# Vertical cone families with doubly exponential row bands
# ---------------------------------------------------------------------------
#
# All three families place lattice points in sparse horizontal bands whose
# heights grow like 2^(2^k), inside a narrow vertical cone.  A band is a row
# range whose rows hold the consecutive integer x between a lower and an
# upper bound of the form sign * floor((p*y + r) / q), cut out by exact
# rational slopes, so implicit counts and materialized points agree bit for
# bit.  A family yields only its bands: ``_BandedSet`` derives membership and
# size from them, ``_ImplicitSet`` box counts from ``rect_count``.  Counts are
# closed form (floor sums over at most six pieces per band): exact Python ints
# at any band, O(log) integer operations, not one step per row.

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
        return self.sign * _floor_sum(b - a + 1, self.q, self.p, self.p * a + self.r)


class _Band(NamedTuple):
    """Rows lo <= y < hi, row y holding the integers lower(y)..upper(y).

    Every row satisfies upper(y) >= lower(y) - 1, so a row is never
    negatively wide."""

    lo: int
    hi: int
    lower: _Bound
    upper: _Bound


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a*i + b) / m) for n >= 0, m >= 1 and any
    integers a, b, in O(log m) steps (Knuth, Concrete Mathematics 3.5; the
    AtCoder Library's floor_sum)."""
    total = 0
    while True:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def _slope_span(lo: Fraction, hi: Fraction) -> tuple[_Bound, _Bound]:
    """Bounds of the integer x with lo <= x / y < hi: ceil(y lo) and
    ceil(y hi) - 1."""
    return (_Bound(1, lo.numerator, lo.denominator - 1, lo.denominator),
            _Bound(1, hi.numerator, -1, hi.denominator))


def _band_rows(k: int) -> tuple[int, int]:
    """Row range [lo, hi) of band k: lo = 2^(2^(k+1)), height 2^(2^k)."""
    if k > 20:
        raise ValueError("band index too large to represent")
    lo = 1 << (1 << (k + 1))
    return lo, lo + (1 << (1 << k))


def _as_int(value) -> int | None:
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return None


def _first_change(pred, lo: int, hi: int) -> int:
    """First y in lo..hi where the monotone ``pred`` differs from pred(lo),
    found by bisection; hi + 1 if there is none."""
    start = pred(lo)
    if pred(hi) == start:
        return hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid) == start:
            lo = mid
        else:
            hi = mid
    return hi


def _band_count(band: _Band, a: int, b: int, x0, x1) -> int:
    """Points of the rows a..b of ``band`` with columns in [x0, x1].

    Both bounds are monotone, so each clamp binds on a prefix or a suffix of
    the rows: splitting where it starts to bind leaves at most three pieces.
    In a piece with no clamp binding no row is negatively wide; in the
    others the width is monotone, so one more split drops the empty rows.
    Each remaining piece is two floor sums.
    """
    lower, upper = band.lower, band.upper
    # an infinite side becomes a clamp that binds on no row
    cols = _int_span(max(x0, min(lower.at(a), lower.at(b))),
                     min(x1, max(upper.at(a), upper.at(b))))
    if cols is None:
        return 0
    c0, c1 = cols
    left_clamp, right_clamp = _Bound(1, 0, c0, 1), _Bound(1, 0, c1, 1)
    cuts = sorted({a, b + 1, _first_change(lambda y: lower.at(y) < c0, a, b),
                   _first_change(lambda y: upper.at(y) > c1, a, b)})
    total = 0
    for s, e in zip(cuts, cuts[1:]):
        e -= 1
        left = left_clamp if lower.at(s) < c0 else lower
        right = right_clamp if upper.at(s) > c1 else upper

        def empty(y, left=left, right=right):   # negatively wide
            return right.at(y) < left.at(y) - 1

        cut = _first_change(empty, s, e)
        if empty(s):
            s = cut
        else:
            e = cut - 1
        if s <= e:
            total += right.total(s, e) - left.total(s, e) + (e - s + 1)
    return total


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
    if est > MAX_MATERIALIZE_POINTS:
        raise MaterializeError(
            f"{family!r} holds about {est:.3g} points; the cap is "
            f"{MAX_MATERIALIZE_POINTS} (use the implicit set for counts)")
    rows = []
    for band in family._bands():
        for y in range(band.lo, band.hi):
            xs = np.arange(band.lower.at(y), band.upper.at(y) + 1, dtype=float)
            rows.append(np.column_stack([xs, np.full(xs.size, float(y))]))
    pts = np.concatenate(rows) if rows else np.empty((0, 2))
    return PointSet(pts, _separated=True)


class _BandedSet(_ImplicitSet):
    """Base of the three cone families: membership and size from ``_bands()``."""

    def contains(self, x, y) -> bool:
        xi, yi = _as_int(x), _as_int(y)
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
    half: Fraction = field(repr=False, default=None)

    def __post_init__(self):
        if not (0.0 < self.theta < math.pi / 2):
            raise ValueError("theta must lie in (0, pi/2)")
        if not (0 <= self.k_min <= self.k_max):
            raise ValueError("need 0 <= k_min <= k_max")
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


def gen_cone_annuli(theta: float, k_min: int, k_max: int,
                    mode: str = "implicit"):
    return _in_mode(ConeAnnuli(theta, k_min, k_max), mode)


@dataclass(frozen=True)
class ConeStaircase(_BandedSet):
    """Band-k rows filled over the slope interval [sigma_k, sigma_k + theta/2^(2^k)).

    The slope offsets sigma_k = theta * sum_(j<k) 2^-(2^j) stack the chunks
    side by side, so chunk k sees an x-extent of about theta * 2^(2^k) per
    row: wide enough to keep counting dimension 3/2 on band-width windows,
    while the total opening stays below theta.
    """

    theta: float
    k_max: int
    _w: tuple = field(repr=False, default=None)
    _sigma: tuple = field(repr=False, default=None)

    def __post_init__(self):
        if not (0.0 < self.theta < 1.0):
            raise ValueError("theta must lie in (0, 1)")
        if self.k_max < 0:
            raise ValueError("k_max must be >= 0")
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

    def total_slope(self) -> float:
        """Angular opening actually used: theta * sum 2^-(2^k) ~ 0.816 theta."""
        return float(sum(self._w))

    def _bands(self):
        for k in range(self.k_max + 1):
            yield _Band(*_band_rows(k), *_slope_span(*self.slope_interval(k)))

    def rect_count(self, x0, x1, y0, y1) -> int:
        return _bands_rect_count(self._bands(), x0, x1, y0, y1)

    def materialize(self) -> PointSet:
        return _bands_materialize(self)


def gen_cone_staircase(theta: float, k_max: int, mode: str = "implicit"):
    return _in_mode(ConeStaircase(theta, k_max), mode)


@dataclass(frozen=True)
class ConeFixedWidth(_BandedSet):
    """Fixed slope width theta/2^(2^k0), walked across the cone level by level.

    Level j >= 1 sits at height h_j = 2^(2^(k0+j)) with vertical extent
    h_(j-1) and slope interval [(j-1) w, j w), w = theta/2^(2^k0).  The full
    walk (n_levels = 2^(2^k0)) exhausts the opening theta exactly.
    """

    theta: float
    k0: int
    n_levels: int | None = None
    _w: Fraction = field(repr=False, default=None)

    def __post_init__(self):
        if not (0.0 < self.theta < 1.0):
            raise ValueError("theta must lie in (0, 1)")
        if self.k0 < 0:
            raise ValueError("k0 must be >= 0")
        full = 1 << (1 << self.k0)
        n = self.n_levels if self.n_levels is not None else full
        if not (1 <= n <= full):
            raise ValueError(f"n_levels must lie in [1, {full}]")
        object.__setattr__(self, "n_levels", n)
        object.__setattr__(self, "_w", Fraction(self.theta) / (1 << (1 << self.k0)))

    def level_rows(self, j: int) -> tuple[int, int]:
        """Row range [h_j, h_j + h_(j-1)) of level j >= 1."""
        if self.k0 + j > 24:
            raise ValueError("level height too large to represent")
        h_j = 1 << (1 << (self.k0 + j))
        h_prev = 1 << (1 << (self.k0 + j - 1))
        return h_j, h_j + h_prev

    def _bands(self):
        for j in range(1, self.n_levels + 1):
            yield _Band(*self.level_rows(j),
                        *_slope_span((j - 1) * self._w, j * self._w))

    def rect_count(self, x0, x1, y0, y1) -> int:
        return _bands_rect_count(self._bands(), x0, x1, y0, y1)

    def level_count(self, j: int) -> int:
        """Exact point count of level j (a closed-form rectangle count)."""
        b_lo, b_hi = self.level_rows(j)
        return self.rect_count(-math.inf, math.inf, b_lo, b_hi - 1)

    def materialize(self) -> PointSet:
        return _bands_materialize(self)


def gen_cone_fixed_width(theta: float, k0: int, n_levels: int | None = None,
                         mode: str = "implicit"):
    return _in_mode(ConeFixedWidth(theta, k0, n_levels), mode)


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
    if a.size * b.size > MAX_MATERIALIZE_POINTS:
        raise MaterializeError(f"product holds {a.size * b.size} points")
    pts = np.column_stack([np.repeat(a, b.size), np.tile(b, a.size)])
    return PointSet(pts, _separated=bool(a.size and b.size))


def _distinct_uniform(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """k distinct uniform draws from range(n)."""
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if k >= n:
        return np.arange(n, dtype=np.int64)
    if n <= max(4 * k, 1 << 20):
        return rng.permutation(n)[:k].astype(np.int64)
    draws = rng.integers(0, n, size=k + (k >> 4) + 32)
    uniq = np.unique(draws)
    while uniq.size < k:
        extra = rng.integers(0, n, size=k - uniq.size + 32)
        uniq = np.unique(np.concatenate([uniq, extra]))
    return rng.choice(uniq, size=k, replace=False)


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
    if l_max < 2 or l_max & (l_max - 1):
        raise ValueError("l_max must be a power of two >= 2")
    n_annuli = l_max.bit_length() - 1
    expected = 1.0 + sum(3.0 * 4.0 ** j * min(1.0, 2.0 ** (j * (alpha - 2.0)))
                         for j in range(n_annuli))
    if expected > MAX_MATERIALIZE_POINTS:
        raise MaterializeError(
            f"expected about {expected:.3g} points; lower alpha or l_max")
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
    return PointSet(np.concatenate(chunks), _separated=True)


def gen_random_dimension_1d(alpha: float, n_max: int, seed: int) -> np.ndarray:
    """Random A subset of {1..n_max} with |A n [1, N]| comparable to N^alpha.

    Same annulus scheme as the planar version, one dimension down: integer
    n in [2^j, 2^(j+1)) survives with probability 2^(j(alpha-1)).  Returns
    the sorted surviving integers.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    if n_max < 2 or n_max & (n_max - 1):
        raise ValueError("n_max must be a power of two >= 2")
    rng = np.random.default_rng(seed)
    parts = []
    for j in range(n_max.bit_length() - 1):
        n = 1 << j
        p = min(1.0, 2.0 ** (j * (alpha - 1.0)))
        k = n if p >= 1.0 else int(rng.binomial(n, p))
        idx = _distinct_uniform(rng, n, k)
        parts.append(np.sort(idx) + n)
    return np.concatenate(parts).astype(np.int64)
