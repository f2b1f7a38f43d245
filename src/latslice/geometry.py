"""Exact planar primitives for 1-separated point sets.

Conventions used throughout the package:

* Points are (x, y) pairs.  ``PointSet`` stores them as an (n, 2) float64
  array plus a slice index built when needed: the points of each strip of
  B consecutive occupied columns ``floor(x)``, sorted by y, kept as one
  ``RankOrder`` (see its docstring for the packed keys and the search).
  B is a power of two the set derives from its own fill.  A set's first
  slice scans every point; later slices ask each strip at once, as array
  expressions, for the points whose y lies between the strip's bounds.
  Coordinates may be negative (the cone constructions are built
  symmetric about the y axis); generators that model first-quadrant sets
  emit nonnegative coordinates.

* A tube of perpendicular slope ``u`` (``u != 0``, either sign) is the strip

      -(1/u) x + v sqrt(1 + 1/u^2)  <  y  <=  -(1/u) x + (v+1) sqrt(1 + 1/u^2)

  open along its lower edge and closed along its upper edge.  Its edges have
  slope ``-1/u``, its perpendicular width is exactly 1, and ``v`` is the
  displacement of the strip measured along the perpendicular direction in
  width units.  ``u = +-inf`` is the slope-0 strip ``v < y <= v + 1``, the
  limit of the family, and ``Tube.horizontal(v)`` builds it.

* A floor line is the broken line ``y = floor(u x + v)`` with ``u > 0``.
  Slicing a set by it collects the distinct integer heights realised by set
  points sitting exactly on the broken line.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .exact import InternalCheckError, as_int64, at_least_one_apart

__all__ = [
    "BoxSpec",
    "FloorLine",
    "PointSet",
    "SeparationReport",
    "Tube",
    "box_count",
    "data_lines",
    "read_points",
    "slice_floor_line",
    "slice_tube",
    "tube_edge_distance",
    "validate_separation",
    "write_points",
]


# ---------------------------------------------------------------------------
# Tube
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tube:
    """Width-1 strip, open below and closed above.

    ``u`` is the slope of the perpendicular direction, so the strip's edges
    have slope ``-1/u``.  Any nonzero ``u`` whose ``1/u^2`` and ``u^2`` are
    floats (``|u|`` from about 7.5e-155 up to about 1.3e154, or infinite) is
    accepted: tubes hugging a line of positive slope ``m`` correspond to
    ``u = -1/m``, and ``u = +-inf`` is the horizontal strip ``v < y <= v+1``
    (edge slope -1/u = -+0.0, width factor sqrt(1 + u^-2) = 1).
    """

    u: float
    v: float

    def __post_init__(self) -> None:
        if math.isnan(self.u) or self.u == 0.0:
            raise ValueError("tube requires a nonzero, non-NaN u")
        try:
            self.edge_intercepts()
        except OverflowError:
            raise ValueError(f"tube slope u={self.u!r} is too close to 0: "
                             "its width factor 1/u^2 overflows") from None
        _check_square(self.u, "tube")
        if not math.isfinite(self.v):
            raise ValueError("tube displacement v must be finite")

    @classmethod
    def horizontal(cls, v: float) -> "Tube":
        return cls(u=math.inf, v=v)

    # -- edge geometry ------------------------------------------------------

    def edge_slope(self) -> float:
        """Slope of the two edge lines (a signed zero for the horizontal tube)."""
        return -1.0 / self.u

    def edge_intercepts(self) -> tuple[float, float]:
        """(lower, upper) y-intercepts of the edge lines y = a x + b."""
        w = math.sqrt(1.0 + self.u ** -2)
        return self.v * w, (self.v + 1.0) * w

    def contains(self, x, y):
        """Strict-below / inclusive-above strip membership, vectorized."""
        a = self.edge_slope()
        lo, up = self.edge_intercepts()
        base = a * np.asarray(x, dtype=float)
        return (base + lo < y) & (y <= base + up)

    # -- tube-aligned coordinates -------------------------------------------

    def axial_coord(self, x, y):
        """Signed distance along the tube direction from the line y = u x.

        The axial unit vector is (-u, 1)/sqrt(1+u^2): it points "up" the tube
        (positive y component), and axial >= 0 on or above the perpendicular
        line through the origin.  For the horizontal tube it is x.
        """
        if math.isinf(self.u):
            return np.asarray(x, dtype=float) + 0.0
        r = math.sqrt(1.0 + self.u ** 2)
        return (np.asarray(y, dtype=float) - self.u * np.asarray(x, dtype=float)) / r

    def perp_coord(self, x, y):
        """Displacement along the perpendicular, in the same units as v.

        A point lies in tube t_{u,v} iff v < perp_coord <= v + 1; this is the
        strip inequality rewritten in width units.  For the horizontal tube
        it is y.
        """
        if math.isinf(self.u):
            return np.asarray(y, dtype=float) + 0.0
        r = math.copysign(math.sqrt(1.0 + self.u ** 2), self.u)
        return (np.asarray(x, dtype=float) + self.u * np.asarray(y, dtype=float)) / r


def _check_square(u: float, what: str) -> None:
    """Reject a slope whose square overflows: the aligned coordinates and
    the enclosing tube divide by sqrt(1 + u^2)."""
    try:
        u ** 2
    except OverflowError:
        raise ValueError(f"{what} slope u={u!r} is too steep: u^2 overflows "
                         "(|u| must stay below about 1.3e154)") from None


def tube_edge_distance(tube: Tube) -> float:
    """Perpendicular distance between the two edge lines, computed honestly.

    Evaluates |b_up - b_lo| / sqrt(1 + a^2) from the edge lines y = a x + b
    rather than returning the constant 1, so it doubles as a consistency
    check of the parametrization.
    """
    a = tube.edge_slope()
    lo, up = tube.edge_intercepts()
    return (up - lo) / math.hypot(1.0, a)


# ---------------------------------------------------------------------------
# Floor line
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FloorLine:
    """Broken line y = floor(u x + v) with u > 0, v >= 0."""

    u: float
    v: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.u) and self.u > 0.0):
            raise ValueError("floor line requires finite u > 0")
        _check_square(self.u, "floor line")
        if not (math.isfinite(self.v) and self.v >= 0.0):
            raise ValueError("floor line requires finite v >= 0")

    def y_at(self, x):
        return np.floor(self.u * np.asarray(x, dtype=float) + self.v)

    def enclosing_tube(self) -> Tube:
        """A width-1 tube containing the whole broken line.

        The broken line lies in the slab u x + v - 1 < y <= u x + v, whose
        vertical extent is 1 and perpendicular width 1/sqrt(1+u^2) < 1.  The
        returned tube has edge slope u and its closed upper edge on
        y = u x + v, so the slab (hence the broken line) sits inside it.
        Raises ValueError for u below about 7.5e-155, where the tube's
        parameter -1/u is too steep.
        """
        w = math.sqrt(1.0 + self.u ** 2)
        return Tube(u=-1.0 / self.u, v=self.v / w - 1.0)


# ---------------------------------------------------------------------------
# Boxes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoxSpec:
    """Counting window.

    kind="first_quadrant": closed square [0, size]^2.
    kind="centered":       closed square [-size, size]^2.
    kind="slanted":        square of side ``size`` with one side parallel to
        the tube t_{u,0}: axial coordinate in [0, size] (above and to the
        right of the line y = u x) and perpendicular coordinate within
        size/2 of the tube's center offset 1/2.  It takes exactly the
        ``u`` that ``Tube`` takes, and the other kinds take no ``u``.
    """

    kind: str
    size: float
    u: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("first_quadrant", "centered", "slanted"):
            raise ValueError(f"unknown box kind {self.kind!r}")
        if not (math.isfinite(self.size) and self.size >= 0.0):
            raise ValueError("box size must be finite and nonnegative")
        if self.kind == "slanted":
            if self.u is None:
                raise ValueError("slanted box requires u")
            Tube(self.u, 0.0)       # raises for every u the tube refuses
        elif self.u is not None:
            raise ValueError(f"{self.kind} box takes no u, got u={self.u!r}")

    def contains(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        s = self.size
        if self.kind == "first_quadrant":
            return (0.0 <= x) & (x <= s) & (0.0 <= y) & (y <= s)
        if self.kind == "centered":
            return (-s <= x) & (x <= s) & (-s <= y) & (y <= s)
        tube = Tube(self.u, 0.0)
        ax = tube.axial_coord(x, y)
        pp = tube.perp_coord(x, y)
        return (0.0 <= ax) & (ax <= s) & (np.abs(pp - 0.5) <= s / 2.0)

    def key(self, x, y) -> np.ndarray:
        """Sup-norm key of each point for this box's kind (and ``u``): the
        point lies in the box of any size s exactly when its key is <= s,
        so ``key(x, y) <= size`` equals ``contains(x, y)`` bit for bit.

        The key is max(x, y) for first-quadrant boxes (+inf if x < 0 or
        y < 0), max(|x|, |y|) for centered boxes, and max(axial,
        2 |perp - 1/2|) for slanted boxes (+inf if axial < 0).  Negation,
        ``abs`` and doubling are exact.  ``2|d| <= s`` also agrees with
        ``contains``' ``|d| <= s/2``: s/2 is exact unless s is an odd
        multiple of 2^-1074, and then both tests hold only for d = 0,
        because a nonzero d = perp - 1/2 is at least 2^-54 in magnitude
        (for perp in [1/4, 1] the subtraction is exact by Sterbenz's lemma
        and perp is a multiple of 2^-54; otherwise |d| > 1/4).
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        key = np.empty(np.broadcast_shapes(x.shape, y.shape))
        if self.kind == "first_quadrant":
            np.maximum(x, y, out=key)
            key[(x < 0.0) | (y < 0.0)] = math.inf
        elif self.kind == "centered":
            np.abs(x, out=key)
            np.maximum(key, np.abs(y), out=key)
        else:
            tube = Tube(self.u, 0.0)
            ax = tube.axial_coord(x, y)
            np.subtract(tube.perp_coord(x, y), 0.5, out=key)
            np.abs(key, out=key)
            key *= 2.0
            np.maximum(key, ax, out=key)
            key[ax < 0.0] = math.inf
        return key


# ---------------------------------------------------------------------------
# Sorted-rank order
# ---------------------------------------------------------------------------

class RankOrder:
    """Rows sorted by (group, value), searched per group.

    Each row has a group rank, an integer from 0, and a value, given as its
    rank among the sorted distinct ``values``.  ``order`` lists the rows
    sorted by the packed int64 key ``group * stride + value rank``, and
    ``keys`` holds those keys in that order; ``stride`` is the number of
    distinct values plus one, so a group's keys end below the next group's
    first.  The keys are built from ranks, so they cannot overflow however
    large the values are.  Rows with equal keys keep their input order.
    ``values``, ``order`` and ``keys`` are made read-only.

    ``find(groups, bound, side)`` gives, for each group, the position in
    ``order`` of the group's first row whose value is >= bound
    (``side="left"``) or > bound (``side="right"``), or the group's end:
    one ``searchsorted`` of ``bound`` in ``values`` and one of the packed
    key in ``keys``.  ``groups`` and ``bound`` broadcast together.
    """

    def __init__(self, group: np.ndarray, value_rank: np.ndarray, values: np.ndarray):
        self.values = values
        self.stride = len(values) + 1
        keys = group * self.stride + value_rank
        self.order = np.argsort(keys, kind="stable")
        self.keys = keys[self.order]
        for arr in (self.values, self.order, self.keys):
            arr.setflags(write=False)

    def find(self, groups, bound, side: str) -> np.ndarray:
        rank = np.searchsorted(self.values, bound, side=side)
        return np.searchsorted(self.keys, groups * self.stride + rank)


# ---------------------------------------------------------------------------
# PointSet
# ---------------------------------------------------------------------------

class PointSet:
    """Immutable planar point collection that keeps the orders its queries
    derive from it.

    The points never change, so each derived order is built by its first
    use and kept, never rebuilt; only the survey's row index is replaced,
    by a survey of another window.  Every kept array is read-only
    (``setflags(write=False)``): a caller that writes into one raises
    instead of corrupting every later answer.  The kept orders:

    * ``_strips``, the slice index: one ``RankOrder`` in which a strip is B
      consecutive occupied columns, its group is a column's rank among the
      distinct floor(x), ``_col_x``, divided by B, and its values are the
      exact y.  B, ``_strip_width``, is ``_block_side`` of the occupied
      columns and rows: about the square root of the occupied grid's cells
      per point, 1 on a lattice or the staircase.  Slices rent before they
      buy: a set's first ``slice_tube`` or ``slice_floor_line`` scans every
      point with its exact filter (one pass, cheaper than the build), and
      the second builds the index.  Three sorts and at most 32 bytes per
      point (order, keys, distinct y and distinct columns).
    * ``_box_keys``: for each axis box kind (first-quadrant and centered)
      the points' ``BoxSpec.key`` values, sorted, built by the first
      ``box_count`` of that kind.  One sort and 8 bytes per point each;
      every count after it is one ``searchsorted``.  Slanted keys depend
      on ``u`` and are not kept.
    * ``_cells``, the occupied unit cells by rank that ``cell_ranks``
      returns, built by its first call (the window search's).  Three sorts
      and 24 bytes per occupied cell, plus the distinct columns and rows:
      at most 40 bytes per point.
    * ``_row_runs``, a slot that ``survey.survey_floor_lines`` fills with
      its row index of the window [0, n_side]^2 and replaces when a survey
      asks for another n_side, so a set keeps at most one.  Three sorts and
      at most 40 bytes per point of the window on an integer row, plus 24
      bytes per occupied row.

    ``contains`` scans the points, so a set that is only tested for
    membership, validated or written keeps nothing.
    """

    def __init__(self, points):
        arr = np.asarray(points, dtype=float)
        if arr.size == 0:
            arr = np.empty((0, 2), dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("points must be an (n, 2) array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("point coordinates must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        self.points = arr
        self._strips = None
        self._sliced = False
        self._box_keys: dict[str, np.ndarray] = {}
        self._cells: tuple[np.ndarray, ...] | None = None
        self._row_runs = None

    def _index(self) -> None:
        """Build the strip index unless it is built already.  The occupied
        rows floor(y) are counted from the sorted distinct y, whose floors
        ascend."""
        if self._strips is not None:
            return
        x, y = self.points.T
        self._col_x, col_rank = np.unique(np.floor(x), return_inverse=True)
        self._col_x.setflags(write=False)
        ys, y_rank = np.unique(y, return_inverse=True)
        n_rows = np.count_nonzero(np.diff(np.floor(ys))) + min(len(ys), 1)
        self._strip_width = _block_side(len(self._col_x), n_rows, len(self.points))
        self._strips = RankOrder(col_rank // self._strip_width, y_rank, ys)

    def _candidate_rows(self, x_max: float, bounds) -> np.ndarray:
        """Rows of ``points`` a slice must test with its exact filter.

        The first slice of a set gets every row, ascending, and leaves the
        index unbuilt.  Any later slice (or one after the index exists)
        gets, in strip order, the points of every strip holding an occupied
        column x0 <= x_max whose y lies in the closed interval
        ``bounds(x_lo, x_hi)`` returns for all those strips at once: x_lo
        is a strip's least occupied x0 and x_hi the x0 + 1 of its last one
        at most x_max.  The bounds only narrow the candidates, so both
        paths leave the filter the same points.  They are floats, perhaps
        infinite, compared with the exact y.
        """
        if self._strips is None and not self._sliced:
            self._sliced = True
            return np.arange(len(self.points))
        self._index()
        side = self._strip_width
        n_keep = np.searchsorted(self._col_x, x_max, side="right")
        x_lo = self._col_x[:n_keep:side]
        last = np.arange(side - 1, side * len(x_lo), side)
        last[-1:] = n_keep - 1      # the last strip may end early
        y_lo, y_hi = bounds(x_lo, self._col_x[last] + 1.0)
        strip = np.arange(len(x_lo))
        start = self._strips.find(strip, y_lo, "left")
        length = np.maximum(self._strips.find(strip, y_hi, "right") - start, 0)
        offset = np.repeat(start - (np.cumsum(length) - length), length)
        return self._strips.order[np.arange(len(offset)) + offset]

    def __len__(self) -> int:
        return len(self.points)

    @property
    def bbox(self) -> tuple[float, float, float, float] | None:
        """(xmin, ymin, xmax, ymax), or None for the empty set."""
        if len(self) == 0:
            return None
        pts = self.points
        return (float(pts[:, 0].min()), float(pts[:, 1].min()),
                float(pts[:, 0].max()), float(pts[:, 1].max()))

    def contains(self, x: float, y: float) -> bool:
        """Exact membership of the coordinate pair, by a scan of the points."""
        x, y = float(x), float(y)
        return bool(np.any((self.points[:, 0] == x) & (self.points[:, 1] == y)))

    def cell_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Occupied unit cells and their populations, sorted by cell."""
        cols, rows, col_rank, row_rank, population = self.cell_ranks()
        return cols[col_rank], rows[row_rank], population

    def cell_ranks(self) -> tuple[np.ndarray, ...]:
        """Occupied unit cells by rank, sorted by cell: the distinct
        occupied columns and rows as ascending int64 arrays, each cell's
        rank among those columns and among those rows, and its population.
        Built by the first call, with one sort of packed rank keys after
        the two of the distinct columns and rows, and kept read-only; the
        slice index is neither built nor read.  Raises ``Int64RangeError``
        for cells beyond the int64 range."""
        if self._cells is None:
            floors = np.floor(self.points)
            cols, col_rank = np.unique(floors[:, 0], return_inverse=True)
            rows, row_rank = np.unique(floors[:, 1], return_inverse=True)
            stride = len(rows) + 1
            cells, population = np.unique(col_rank * stride + row_rank,
                                          return_counts=True)
            kept = (as_int64(cols), as_int64(rows), cells // stride,
                    cells % stride, population)
            for arr in kept:
                arr.setflags(write=False)
            self._cells = kept
        return self._cells

    def box_count(self, box: BoxSpec) -> int:
        """Points in ``box``: a binary search in the sorted keys of its kind,
        or, for slanted boxes, a count of the keys at most its size."""
        if box.kind == "slanted":
            key = box.key(self.points[:, 0], self.points[:, 1])
            return int(np.count_nonzero(key <= box.size))
        keys = self._box_keys.get(box.kind)
        if keys is None:
            keys = box.key(self.points[:, 0], self.points[:, 1])
            keys.sort()
            keys.setflags(write=False)
            self._box_keys[box.kind] = keys
        return int(np.searchsorted(keys, box.size, side="right"))


def _block_side(n_cols: int, n_rows: int, n: int) -> int:
    """Width B, in occupied columns, of the slice index's strips for n
    points in n_cols occupied columns and n_rows occupied rows: the power
    of two nearest the square root of the occupied grid's cells per point,
    ``2**round(0.5 * log2(n_cols * n_rows / n))``, and at least 1."""
    if n == 0:
        return 1
    return 2 ** max(0, round(0.5 * math.log2(n_cols * n_rows / n)))


# ---------------------------------------------------------------------------
# Separation validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparationReport:
    """What ``validate_separation`` found.

    ``valid`` is exact: it is True exactly when every two points lie at a
    real distance of at least 1.  ``min_distance`` is a float, the least
    ``sqrt(dx*dx + dy*dy)`` over all pairs evaluated in float64 (``inf`` for
    a single point, and also when every such sum overflows), and
    ``closest_pair`` is the smallest (i, j), i < j, at that distance (None
    for a single point).
    """

    min_distance: float
    closest_pair: tuple[int, int] | None
    valid: bool


# The sieve's random choices change how many rounds it takes, never its
# answer, so one fixed seed keeps every run of it the same.
_SIEVE_SEED = 1976
# A float distance f = fl(sqrt(fl(dx*dx) + fl(dy*dy))), fl(dx) = fl(x_j - x_i),
# rounds four times on each path (difference, square, sum, square root) by
# a relative 2^-53 at most, and the square root halves the error of its
# argument, so near 1 it lies within 4 * 2^-53 of the real distance.  Pairs
# with f within 2^-40 of 1 are the only ones whose side of 1 the floats
# cannot tell.
_BAND = 2.0 ** -40
# f == 0 only when dx*dx and dy*dy both round to 0, so |dx|, |dy| < 2^-537;
# any other f is at least 2^-537.
_ZERO_REACH = 2.0 ** -537
# A finite f is below 2^512, as its square does not overflow; a pair whose
# f is inf is at least 2^512 * (1 - 2^-52) apart.
_FAR_REACH = 2.0 ** 512
_PAIR_CHUNK = 1 << 15


def validate_separation(ps: PointSet) -> SeparationReport:
    """Minimum pairwise distance, closest pair and the exact 1-separation
    verdict (see ``SeparationReport`` for what is exact and what is a
    float).

    A randomized sieve (Khuller and Matias 1995, "A simple randomized sieve
    algorithm for the closest-pair problem", after Rabin 1976) finds a
    float distance d at or above the least one such that a grid of mesh
    about d holds O(1) points a cell; the pairs in neighbouring cells of
    that grid then include every pair at float distance d or less.  When d
    is near 1 the grid also reaches every pair whose float distance is
    within rounding of 1, and those pairs are decided exactly.  The
    expected time is O(n log n), however the points are spaced.
    """
    n = len(ps)
    if n == 0:
        raise ValueError("validate_separation requires a non-empty set")
    if n == 1:
        return SeparationReport(math.inf, None, True)
    pts = ps.points
    d = _sieve(pts)
    if d == 0.0:
        # repeated points would crowd one cell: keep the first of each, and
        # its first two indices as the pair that stands for the repeats
        rep, twins = _distinct(pts)
        i, j, f = _near_pairs(pts[rep], _ZERO_REACH)
        i = np.concatenate([rep[i], twins[:, 0]])
        j = np.concatenate([rep[j], twins[:, 1]])
        f = np.concatenate([f, np.zeros(len(twins))])
    else:
        reach = max(d, 1.0 + _BAND) if d >= 1.0 - _BAND else d
        i, j, f = _near_pairs(pts, min(reach, _FAR_REACH))
    if f.size == 0:
        # every pair is at float distance inf, so (0, 1) is the first of them
        return SeparationReport(math.inf, (0, 1), True)
    least = f.min()
    at = f == least
    lo, hi = np.minimum(i[at], j[at]), np.maximum(i[at], j[at])
    first = lo.min()
    pair = (int(first), int(hi[lo == first].min()))
    return SeparationReport(float(least), pair, _separated(pts, i, j, f))


def _sieve(pts: np.ndarray) -> float:
    """The last nearest-neighbour distance of the closest-pair sieve.

    Each round takes a random point p of the remaining set S and d, its
    float distance to the nearest other point of S; then lays a grid whose
    mesh is the largest power of two at most d/3 and drops every point
    alone in its 3x3 block of cells.  p is always dropped, as a point of
    its block would be less than 2 sqrt(2) d/3 < d from it, so S shrinks
    every round.  A point dropped is more than the mesh from every other
    point of S, and each round's d is below the last, so when S is empty
    the least float distance over all pairs lies between d/6 and d for the
    last d.  Returns 0 as soon as a round finds a point at float distance 0
    from p.
    """
    rng = np.random.default_rng(_SIEVE_SEED)
    live = np.arange(len(pts))
    d = math.inf
    while live.size:
        at = int(rng.integers(live.size))
        delta = pts[live] - pts[live[at]]
        with np.errstate(over="ignore"):
            f = np.sqrt(delta[:, 0] * delta[:, 0] + delta[:, 1] * delta[:, 1])
        f[at] = math.inf
        d = float(f.min())
        if d == 0.0:
            return 0.0
        mesh = math.ldexp(1.0, math.frexp(min(d, _FAR_REACH) / 3.0)[1] - 1)
        alone = _alone(*_cell_keys(pts[live], mesh))
        if not alone[at]:
            raise InternalCheckError("closest-pair sieve failed to drop its "
                                     "sampled point: the cell keys are wrong")
        live = live[~alone]
    return d


def _cell_keys(pts: np.ndarray, mesh: float) -> tuple[np.ndarray, int]:
    """Packed cell key ``column code * stride + row code`` of each point on
    a grid of power-of-two ``mesh``, and the stride.

    Two columns (rows) 0, 1 or 2 apart get codes as far apart, and any
    others codes at least 3 apart.  The stride exceeds every row code by 3,
    so the cells within 2 columns and 2 rows of a cell are its key plus
    ``dx * stride + dy`` for |dx|, |dy| <= 2, and none of those keys names
    a cell of another column.  Codes are renumbered by rank when the packed
    keys would not fit in int64.
    """
    cx, cy = _axis_codes(pts[:, 0], mesh), _axis_codes(pts[:, 1], mesh)
    if (int(cx.max()) + 1) * (int(cy.max()) + 3) >= 2 ** 62:
        cx, cy = _rank_codes(cx), _rank_codes(cy)
    stride = int(cy.max()) + 3
    return cx * stride + cy, stride


def _axis_codes(x: np.ndarray, mesh: float) -> np.ndarray:
    """Column codes of ``x`` on a grid of power-of-two ``mesh``, from 0.

    Multiplying by 1/mesh, a power of two, is exact short of overflow and
    underflow, so floor(x / mesh) is the exact column wherever it is below
    2^54 in magnitude; a negative x whose quotient underflows to -0 is in
    column -1.  The code is the column less the least one.  A coordinate
    at 2^54 meshes or beyond is at least 2 meshes from every other one,
    farther than any pair the callers look for, so each such value gets a
    code of its own, 3 apart from all the others.
    """
    with np.errstate(over="ignore"):
        col = np.floor(x * (1.0 / mesh))
    col[(col == 0.0) & (x < 0.0)] = -1.0
    near = np.abs(col) < 2.0 ** 54
    codes = np.where(near, col, 0.0).astype(np.int64)
    if near.all():
        return codes - codes.min()
    if near.any():
        codes[near] -= codes[near].min()
    top = codes[near].max(initial=0)
    codes[~near] = top + 3 + 3 * np.unique(x[~near], return_inverse=True)[1]
    return codes


def _rank_codes(codes: np.ndarray) -> np.ndarray:
    """Codes below 3n that keep every gap of 1 or 2 and cut wider ones to
    3: the distinct codes in order."""
    values, inverse = np.unique(codes, return_inverse=True)
    step = np.minimum(np.diff(values), 3)
    return np.concatenate([[0], np.cumsum(step)])[inverse]


def _alone(keys: np.ndarray, stride: int) -> np.ndarray:
    """Whether each point is the only one in the 3x3 block of cells around
    its own cell.

    The cells of a column come in key order, so the cells just above and
    below a cell are its neighbours in the sorted list of cells, and its
    three neighbours in the next column form one run of that list, found by
    one pair of searches; marking each such run marks the neighbours in the
    column before as well.
    """
    cells, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    lo = np.searchsorted(cells, cells + (stride - 1), side="left")
    hi = np.searchsorted(cells, cells + (stride + 1), side="right")
    m = len(cells)
    runs = np.bincount(lo, minlength=m + 1) - np.bincount(hi, minlength=m + 1)
    before = np.cumsum(runs)
    busy = (counts > 1) | (hi > lo) | (before[:m] > 0)
    above = cells[1:] == cells[:-1] + 1
    busy[:-1] |= above
    busy[1:] |= above
    return ~busy[inverse]


def _near_pairs(pts: np.ndarray, reach: float):
    """Every pair (i, j), i != j, at float distance ``reach`` or less, with
    its distance f, as three arrays.

    A pair at float distance f <= reach is at most v = reach * (1 + 2^-50)
    + 2^-537 apart along each axis (the last term covers squares that
    underflow), so on a grid whose mesh is the largest power of two at most
    v, its two cells are at most 2 columns and 2 rows apart.  With the
    points sorted by cell key, each is paired with three runs: the points
    after it up to the end of the cell two above its own, and the 5 cells
    of each of the next two columns from two below to two above its row.
    (A 3x3 block of cells twice as wide holds about 1.4 times as many
    pairs.)  The pairs are built a few thousand points at a time, so memory
    stays bounded.
    """
    mesh = math.ldexp(1.0, math.frexp(reach * (1.0 + 2.0 ** -50) + _ZERO_REACH)[1] - 1)
    keys, stride = _cell_keys(pts, mesh)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    xs, ys = pts[order, 0], pts[order, 1]
    found = []
    for start in range(0, len(keys), _PAIR_CHUNK):
        a = np.arange(start, min(start + _PAIR_CHUNK, len(keys)))
        k = keys[a]
        lo = np.concatenate([a + 1] + [np.searchsorted(keys, k + (c * stride - 2))
                                       for c in (1, 2)])
        hi = np.concatenate([np.searchsorted(keys, k + (c * stride + 2), side="right")
                             for c in (0, 1, 2)])
        length = hi - lo
        skip = np.repeat(lo - (np.cumsum(length) - length), length)
        second = np.arange(len(skip)) + skip
        dx = xs[second] - np.repeat(np.tile(xs[a], 3), length)
        dy = ys[second] - np.repeat(np.tile(ys[a], 3), length)
        with np.errstate(over="ignore"):
            f = np.sqrt(dx * dx + dy * dy)
        keep = np.flatnonzero(f <= reach)
        first = np.repeat(np.tile(a, 3), length)[keep]
        found.append((order[first], order[second[keep]], f[keep]))
    return tuple(np.concatenate(part) for part in zip(*found))


def _distinct(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first index of each distinct point, and for each point that
    repeats, its first two indices."""
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    ordered = pts[order]
    repeat = np.concatenate([[False], np.all(ordered[1:] == ordered[:-1], axis=1)])
    twin = np.flatnonzero(~repeat[:-1] & repeat[1:])
    return order[~repeat], np.column_stack([order[twin], order[twin + 1]])


def _separated(pts: np.ndarray, i: np.ndarray, j: np.ndarray, f: np.ndarray) -> bool:
    """Whether every pair (i[k], j[k]) is at a real distance of at least 1,
    given their float distances ``f`` and that every pair at float distance
    1 + _BAND or less is among them.

    Outside the band the float distance decides.  Inside it, a pair whose
    four coordinates are integers has exact differences of at most 1, so
    its squared distance is exact in floats; any other pair compares
    dx^2 + dy^2 with 1 in rationals.
    """
    if np.any(f < 1.0 - _BAND):
        return False
    band = f <= 1.0 + _BAND
    i, j = i[band], j[band]
    whole = np.all(pts == np.trunc(pts), axis=1)
    both = whole[i] & whole[j]
    d = pts[j[both]] - pts[i[both]]
    if np.any(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] < 1.0):
        return False
    return all(map(at_least_one_apart, pts[i[~both]].tolist(),
                   pts[j[~both]].tolist()))


# ---------------------------------------------------------------------------
# Counting and slicing operations
# ---------------------------------------------------------------------------

def box_count(obj, box: BoxSpec) -> int:
    """Exact number of points of ``obj`` inside ``box``.

    ``obj`` may be a PointSet or any implicit set exposing ``box_count``.
    """
    return int(obj.box_count(box))


def slice_tube(ps: PointSet, tube: Tube) -> PointSet:
    """Subset of ``ps`` inside ``tube``, in the order of ``ps.points``.

    The exact strip inequality ``Tube.contains`` is the only membership
    test.  A set's first slice applies it to every point; later slices
    apply it to the candidates of the strip index (``PointSet``): every
    strip yields its points whose y lies between the tube's edges over it,
    all strips in one array expression.  The bounds use the same float
    expressions as the inequality, evaluated at the strip's two ends, its
    least occupied column's x0 and its last one's x0 + 1: rounding is
    monotone, so the computed edges at any x in the strip lie between
    their values at the ends, and no point the inequality accepts is left
    out, however steep the tube.  Both paths give the same array.
    """
    a = tube.edge_slope()
    lo, up = tube.edge_intercepts()

    def bounds(x_lo, x_hi):
        b0, b1 = a * x_lo, a * x_hi
        return np.minimum(b0, b1) + lo, np.maximum(b0, b1) + up

    rows = ps._candidate_rows(math.inf, bounds)
    pts = ps.points[rows]
    keep = tube.contains(pts[:, 0], pts[:, 1])
    return PointSet(ps.points[np.sort(rows[keep])])


def slice_floor_line(ps: PointSet, line: FloorLine, x_max: float = math.inf) -> np.ndarray:
    """Distinct integer heights y with some set point (x, y), x <= x_max,
    sitting exactly on the broken line y = floor(u x + v).

    Returns the sorted array of distinct y values.  Only points with integer
    y can qualify.  The test ``x <= x_max`` and ``y == line.y_at(x)`` is the
    only membership test.  A set's first slice applies it to every point;
    later slices apply it to the candidates of the strip index
    (``PointSet``): only strips holding an occupied column with floor(x)
    <= x_max, and in each only the points whose y lies between the line's
    floor values at the strip's two ends (its least occupied column's x0
    and the x0 + 1 of its last one at most x_max; the same float
    expression as the test, which is monotone in x), all strips in one
    array expression.  A strip that x_max cuts keeps its points past x_max
    as candidates, and the test drops them.  Both paths give the same
    array.
    """
    if not (x_max > 0.0):
        raise ValueError("x_max must be positive")
    rows = ps._candidate_rows(x_max, lambda x_lo, x_hi: (line.y_at(x_lo), line.y_at(x_hi)))
    pts = ps.points[rows]
    ok = (pts[:, 0] <= x_max) & (pts[:, 1] == line.y_at(pts[:, 0]))
    return as_int64(np.unique(pts[ok, 1]))


# ---------------------------------------------------------------------------
# Point file format
# ---------------------------------------------------------------------------

def write_points(ps: PointSet, path) -> None:
    """Write ``ps`` as a point file (format under ``read_points``).

    The file is a ``# x y`` header line, then one point per line as two
    space-separated decimal fields.  Integer coordinates below 2^53 in
    magnitude are written without a decimal part (``-0.0`` as ``0``), every
    other value as Python's shortest round-trip ``repr``, so ``read_points``
    gives back the same floats.  The text is built in one piece and written
    with one call.
    """
    pts = ps.points
    values = pts.astype(object)
    whole = (np.trunc(pts) == pts) & (np.abs(pts) < 2.0 ** 53)
    values[whole] = pts[whole].astype(np.int64).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# x y\n" + ("%s %s\n" * len(pts)) % tuple(values.ravel().tolist()))


# numpy.loadtxt fetches a name with a URL scheme and decompresses one
# ending in these suffixes; read_points gives it an absolute path, which is
# never a URL, and for these suffixes the lines of the text already read
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def read_points(path) -> PointSet:
    """Parse a point file, UTF-8 text with one point per line.

    * A line holds exactly two fields separated by whitespace, each a
      finite decimal number in numpy's float syntax (Python's ``float``
      syntax without ``_`` separators or non-ASCII digits).
    * A line whose first non-blank character is ``#`` is a comment, and
      blank lines are skipped; a ``#`` after data on a line is an error.
    * A file with no data lines gives the empty set.

    The whole file is parsed at once by ``numpy.loadtxt``: a file whose
    every field is an integer within int64 (and that holds no ``-0``)
    through its int64 converter, then converted to float64, which gives
    the float parse's result bit for bit; any other file through its float
    converter.  A malformed file raises ``ValueError`` whose message starts
    with ``path:line`` of the first bad line; a line scan runs only then,
    to find that line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        pts = _parse_points(path, text)
    except ValueError as exc:
        raise ValueError(_first_bad_line(path, text) or f"{path}: {exc}") from None
    return PointSet(pts)


def _parse_points(path, text: str) -> np.ndarray:
    """The (n, 2) coordinates of a well-formed point file whose contents
    are ``text``; ValueError, without a line number, for any other file."""
    if not _comments_start_lines(text):
        raise ValueError("'#' after data on a line")
    name = os.fsdecode(os.path.abspath(path))
    # loadtxt reads a path faster than it reads ``text``'s lines, even
    # counting the second read of the file: about 3.3 against 5.2 ms for 54k
    # integer points
    source = text.split("\n") if name.endswith(_COMPRESSED_SUFFIXES) else name
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        pts = _integer_points(source, text)
        if pts is None:
            pts = np.loadtxt(source, dtype=float, comments="#", ndmin=2,
                             encoding="utf-8")
    if pts.size and (pts.shape[1] != 2 or not np.isfinite(pts).all()):
        raise ValueError("expected two finite fields per line")
    return pts


def _integer_points(source, text: str) -> np.ndarray | None:
    """The coordinates of a file whose every field is an integer within
    int64, read by ``numpy.loadtxt``'s int64 converter (faster than its
    float converter) and rounded to float64 as the float parse rounds them;
    None for any other file.  A text holding ``-0`` is left to the float
    parse, which keeps the sign of a negative zero.  The one-character
    test for ``-`` runs first: most point files hold no sign at all."""
    if "-" in text and "-0" in text:
        return None
    try:
        pts = np.loadtxt(source, dtype=np.int64, comments="#", ndmin=2,
                         encoding="utf-8")
    except ValueError:
        return None
    return pts.astype(float)


def _comments_start_lines(text: str) -> bool:
    """Whether every '#' in ``text`` has only whitespace before it on its
    line, so that it starts a comment line."""
    pos = text.find("#")
    while pos >= 0:
        if text[text.rfind("\n", 0, pos) + 1:pos].strip():
            return False
        end = text.find("\n", pos)
        pos = -1 if end < 0 else text.find("#", end)
    return True


def data_lines(text: str):
    """``(line number, fields)``, from 1, of each line of point-file
    ``text`` that holds data (neither blank nor a comment): one per pair."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        fields = line.split()
        if fields and not fields[0].startswith("#"):
            yield lineno, fields


def _first_bad_line(path, text: str) -> str | None:
    """``path:line: reason`` for the first line of ``text`` that breaks the
    point-file format, or None if there is none."""
    for lineno, fields in data_lines(text):
        if len(fields) != 2:
            return f"{path}:{lineno}: expected two fields, got {len(fields)}"
        for field in fields:
            if not _is_coordinate(field):
                return f"{path}:{lineno}: {field!r} is not a finite decimal number"
    return None


def _is_coordinate(field: str) -> bool:
    """Whether numpy parses ``field`` as a finite float64."""
    if not field.isascii() or "_" in field:
        return False
    try:
        return math.isfinite(float(field))
    except ValueError:
        return False
