"""Discrete dimension profiles for 1-separated sets.

A profile is the sequence of ratios log(count at scale s) / log(scale) along
a ladder of scales, plus a scalar estimate read off the tail.  Ratios with
count <= 1 are reported as 0 (a single point carries no growth information).
The tail is the log-upper third of the ladder: scales s with
ln s >= (2/3) ln s_max.  Tying the window to log-extent rather than to the
number of entries keeps estimates unchanged when coarse scales are prepended
to the ladder.

The estimate is the largest ratio over the tail, a finite-scale stand-in
for the limsup that upper counting quantities are defined by.  Every
profile (mass, window, 1-d and tube-slice) reads it the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import positive_int64, refuse_past_budget, require_int
from .geometry import BoxSpec, PointSet, Tube, slice_tube

__all__ = [
    "DimensionProfile",
    "LevelProfile",
    "LevelSearchConfig",
    "annulus_profile",
    "counting_dim_profile",
    "dim_1d_profile",
    "dyadic_scales",
    "ff_dim",
    "find_levels",
    "mass_dim_profile",
    "profile_from_counts",
]

TAIL_LOG_FRACTION = 2.0 / 3.0


@dataclass(frozen=True)
class DimensionProfile:
    """Counts and log-ratios along a ladder of scales, and the tail
    estimate.  ``counts`` is int64, or an object array of exact Python ints
    when a count does not fit int64.
    """

    scales: np.ndarray
    counts: np.ndarray
    ratios: np.ndarray
    estimate: float

    def __len__(self) -> int:
        return len(self.scales)


def dyadic_scales(max_scale: float) -> np.ndarray:
    """Powers of two from 2 up to the least one at least max_scale.

    The top is read off the binary exponent, so it is exact next to a power
    of two; a max_scale past 2^1023, the largest float power of two, is
    refused rather than topped with inf.
    """
    if max_scale < 2:
        return np.array([2.0])
    mantissa, exponent = math.frexp(max_scale)
    top = exponent - 1 if mantissa == 0.5 else exponent
    if not math.isfinite(max_scale) or top > 1023:
        raise ValueError(f"max_scale={max_scale!r} needs a power of two past "
                         "2^1023, the largest float one")
    return 2.0 ** np.arange(1, top + 1)


def _tail_start(denominators: np.ndarray) -> int:
    cutoff = TAIL_LOG_FRACTION * math.log(denominators[-1]) - 1e-9
    return int(np.searchsorted(np.log(denominators), cutoff))


def _exact_counts(counts) -> np.ndarray:
    """Counts as int64 while every one fits, else as exact Python ints."""
    try:
        return np.asarray(counts, dtype=np.int64)
    except OverflowError:
        return np.array([int(c) for c in counts], dtype=object)


def _log(counts: np.ndarray) -> np.ndarray:
    """Natural logs of positive counts; math.log keeps Python ints of any
    size finite, where a float conversion would overflow past 2^1024."""
    if counts.dtype == object:
        return np.array([math.log(c) for c in counts], dtype=float)
    return np.log(counts)


def profile_from_counts(scales, counts) -> DimensionProfile:
    """Profile of ``counts`` along the ladder ``scales``, each ratio taken
    against log(scale)."""
    scales = np.asarray(scales, dtype=float)
    return _profile(scales, counts, scales)


def _profile(scales: np.ndarray, counts, denominators: np.ndarray) -> DimensionProfile:
    """Profile with ratios log(count) / log(denominator), the denominators
    being the scales or, for centered boxes [-l, l]^2, their full width 2l."""
    counts = _exact_counts(counts)
    if scales.ndim != 1 or scales.size == 0:
        raise ValueError("scales must be a nonempty 1-d array")
    if counts.shape != scales.shape:
        raise ValueError("counts must match scales")
    if np.any(scales <= 1.0) or np.any(np.diff(scales) <= 0):
        raise ValueError("scales must be increasing and > 1")
    ratios = np.zeros_like(scales)
    informative = counts > 1
    ratios[informative] = _log(counts[informative]) / np.log(denominators[informative])
    t0 = _tail_start(denominators)
    estimate = float(ratios[t0:].max()) if t0 < len(ratios) else 0.0
    return DimensionProfile(scales, counts, ratios, estimate)


def _default_scales(ps: PointSet, kind: str) -> np.ndarray:
    if ps.bbox is None:
        return np.array([2.0])
    x0, y0, x1, y1 = ps.bbox
    return dyadic_scales(max(-x0, x1, -y0, y1) if kind == "centered" else max(x1, y1))


def mass_dim_profile(obj, scales=None, kind: str = "first_quadrant",
                     u: float | None = None) -> DimensionProfile:
    """Mass dimension profile of a point set or implicit set.

    ``kind`` picks the box family: boxes [0,l]^2, centered boxes [-l,l]^2
    (log denominator 2l), or slanted tube-aligned boxes for slope parameter
    ``u`` (materialized sets only).  Implicit sets need explicit ``scales``.
    A PointSet's box keys are sorted once and searched once per scale, as
    ``PointSet.box_count`` counts one box; an implicit set box by box.
    """
    if scales is None:
        if not isinstance(obj, PointSet):
            raise ValueError("implicit sets need explicit scales")
        scales = _default_scales(obj, kind)
    scales = np.asarray(scales, dtype=float)
    boxes = [BoxSpec(kind, float(s), u) for s in scales]
    if isinstance(obj, PointSet):
        # Not cached in _box_keys: reading the first-quadrant and centered
        # ladders from the kept keys raised the peak RSS of bench/run.py's
        # pointset_queries workload from 88.3 to 98.3 MB on a 2-core x86
        # machine, past its 10% bound.
        keys = BoxSpec(kind, 0.0, u).key(obj.points[:, 0], obj.points[:, 1])
        keys.sort()
        counts = np.searchsorted(keys, scales, side="right")
    else:
        counts = [obj.box_count(b) for b in boxes]
    return _profile(scales, counts, 2.0 * scales if kind == "centered" else scales)


def counting_dim_profile(ps: PointSet, window_sizes) -> DimensionProfile:
    """Counting dimension profile: max count over searched square windows.

    Windows of side s are axis-aligned half-open squares on a regular grid
    of stride h = s/2, so every unit cell of the set meets exactly four
    windows per size and no better placement is missed by more than the
    half-stride.  The search is not exhaustive over all real placements, so
    the profile is a lower bound on the counting dimension at each scale.
    ``window_sizes`` must be strictly increasing even integers from 2 up
    to below 2^63; ``dyadic_scales(extent)`` gives the dyadic ladder up to
    the set's extent.

    The sizes are counted in increasing order without a sort per size
    (``_window_maxima``).  A block is a cell of the stride-h grid.  Its
    column and row come from the occupied columns and rows of the cell
    index by floor division, which is monotone, so the distinct block
    columns are the starts of runs in a sorted array and a ``cumsum`` over
    the run starts ranks them (rank runs).  When the previous h divides the
    next, the next size's blocks are built from the previous size's merged
    blocks by the same division (the chain); otherwise they restart from
    the cells.  On a dyadic ladder only the first division touches every
    cell, and the blocks thin out as the windows grow.  Each block adds its weight to the four windows that hold it,
    keyed by window-corner codes in a grid of 2 x 2 codes per pair of
    block ranks.  The keys are summed by one weighted ``bincount`` when
    that grid has no more entries than there are keys, and by one sort
    otherwise, so the memory stays O(n) for n occupied cells however far
    apart they lie.
    """
    if not isinstance(ps, PointSet):
        raise ValueError("counting profiles need a materialized PointSet")
    sizes = np.asarray(window_sizes, dtype=float)
    if sizes.ndim != 1 or sizes.size == 0:
        raise ValueError("window sizes must be a nonempty 1-d array")
    # checked before the int64 cast, which would wrap inf, nan and 2^63
    if not np.all((sizes >= 2.0) & (sizes < 2.0 ** 63)):
        raise ValueError("window sizes must be finite, at least 2 and below 2^63")
    if np.any(sizes != np.floor(sizes)) or np.any(sizes.astype(np.int64) % 2):
        raise ValueError("window sizes must be even integers")
    if np.any(np.diff(sizes) <= 0):
        raise ValueError("window sizes must be strictly increasing")
    counts = _window_maxima(ps, [int(s) // 2 for s in sizes.astype(np.int64)])
    return profile_from_counts(sizes, counts)


def _window_maxima(ps: PointSet, halves: list[int]) -> list[int]:
    """Largest point count of a window of side 2h on the grid of stride h,
    for each h of the increasing ``halves``.

    Blocks are held as (columns, rows, column ranks, row ranks, weights):
    the sorted distinct block columns and rows as int64, and per block its
    ranks in them and its point count.  The cells are the blocks of h = 1,
    in that form from ``PointSet.cell_ranks``.
    """
    if len(ps) == 0:
        return [0] * len(halves)
    cells = ps.cell_ranks()
    blocks, h0 = cells, 1
    out = []
    for i, h in enumerate(halves):
        if h % h0:
            blocks, h0 = cells, 1
        cols, rows, rx, ry, w = blocks
        if h > h0:
            cols, rx = _rank_runs(cols // (h // h0), rx)
            rows, ry = _rank_runs(rows // (h // h0), ry)
        # after a division several blocks may share a column and row; the
        # next size in the chain needs them merged
        merge = h > h0 and i + 1 < len(halves) and halves[i + 1] % h == 0
        best, merged = _count_windows(cols, rows, rx, ry, w, merge)
        blocks, h0 = merged or (cols, rows, rx, ry, w), h
        out.append(best)
    return out


def _rank_runs(values: np.ndarray, ranks: np.ndarray):
    """Distinct values of the sorted ``values`` and the new rank of each of
    the old ``ranks``: a cumsum over the starts of runs, with no sort."""
    start = np.empty(len(values), dtype=bool)
    start[0] = True
    np.not_equal(values[1:], values[:-1], out=start[1:])
    return values[start], (np.cumsum(start) - 1)[ranks]


def _corner_codes(values: np.ndarray, ranks: np.ndarray):
    """Codes of c and of c - 1 for each block coordinate c = values[ranks].

    c of rank r gets 2r + 1, and c - 1 gets 2r, or the code of the previous
    value when that value is c - 1: an order-keeping injection into
    [0, 2 * len(values)).  The only c - 1 computed is of a value above the
    least one, so nothing wraps at -2^63.
    """
    upper = 2 * ranks + 1
    return upper, upper - 1 - np.r_[False, values[:-1] == values[1:] - 1][ranks]


def _count_windows(cols, rows, rx, ry, w, merge: bool):
    """Largest window sum over the blocks, and, if ``merge``, the blocks
    with equal column and row summed into one (else None).

    A window is named by its corner block coordinate, which is a block's
    own coordinate c or c - 1 on each axis (``_corner_codes``).  Merged
    blocks get keys past the window grid, so one count sums both.
    """
    nx, ny = len(cols), len(rows)
    x1, x0 = _corner_codes(cols, rx)
    y1, y0 = _corner_codes(rows, ry)
    grid = 4 * nx * ny
    parts = [x * (2 * ny) + y for x in (x1, x0) for y in (y1, y0)]
    if merge:
        parts.append(grid + rx * ny + ry)
    keys = np.concatenate(parts)
    weights = np.tile(w, len(parts))
    span = grid + nx * ny if merge else grid
    if span <= len(keys):
        sums = np.bincount(keys, weights=weights, minlength=span)
        keys = np.flatnonzero(sums)
        sums = sums[keys].astype(np.int64)
    else:
        bits = int(w.max()).bit_length()
        if span << bits <= 2 ** 63:
            # a plain sort with each weight in the low bits of its key is
            # several times faster than an argsort
            keys <<= bits
            keys |= weights
            keys.sort()
            weights = keys & ((1 << bits) - 1)
            keys >>= bits
        else:
            order = np.argsort(keys)
            keys, weights = keys[order], weights[order]
        last = np.append(np.flatnonzero(keys[1:] != keys[:-1]), len(keys) - 1)
        sums = np.diff(np.cumsum(weights, out=weights)[last], prepend=0)
        keys = keys[last]
    split = int(np.searchsorted(keys, grid))
    best = int(sums[:split].max())
    if not merge:
        return best, None
    keys = keys[split:] - grid
    return best, (cols, rows, keys // ny, keys % ny, sums[split:])


def dim_1d_profile(values) -> DimensionProfile:
    """Dimension profile of a set of positive integers via counts in [1, N],
    N along the dyadic ladder up to the largest value.  Every value must
    lie in 1 ... 2^63 - 1, the int64 range."""
    vals = np.unique(positive_int64(values, "values must be positive integers "
                                             "below 2^63 (the int64 limit)"))
    scales = dyadic_scales(float(vals[-1]) if vals.size else 2.0)
    counts = np.searchsorted(vals, scales, side="right")
    return profile_from_counts(scales, counts)


def ff_dim(fset) -> float:
    """log |B| / log p, the dimension of a finite-field set B (anything
    carrying ``.cardinality`` and a prime ``.p``).  Empty sets report 0."""
    if fset.cardinality <= 0:
        return 0.0
    return math.log(fset.cardinality) / math.log(fset.p)


# ---------------------------------------------------------------------------
# Annulus counts along a tube and level search
# ---------------------------------------------------------------------------

def _axial_sorted(ps: PointSet, tube: Tube) -> np.ndarray:
    inside = slice_tube(ps, tube)
    if len(inside) == 0:
        return np.empty(0)
    return np.sort(tube.axial_coord(inside.points[:, 0], inside.points[:, 1]))


def _annulus_counts(svals: np.ndarray, levels: np.ndarray) -> np.ndarray:
    hi = np.searchsorted(svals, levels, side="right")
    lo = np.searchsorted(svals, levels / 2.0, side="right")
    return (hi - lo).astype(np.int64)


def annulus_profile(ps: PointSet, u: float,
                    height_levels) -> tuple[np.ndarray, np.ndarray]:
    """Counts of points of the tube through the origin at slope parameter u
    whose axial coordinate lies in (m/2, m], per level m.

    The annuli are the gaps between nested tube-aligned boxes of sizes m
    and m/2 sitting inside t_{u,0}, so together with a base count they
    telescope to slanted box counts.
    """
    levels = positive_int64(height_levels, "levels must be positive integers")
    svals = _axial_sorted(ps, Tube(u, 0.0))
    return levels, _annulus_counts(svals, levels.astype(float))


@dataclass(frozen=True)
class LevelSearchConfig:
    """Threshold family for level search: keep m with count > (m/2)^(alpha + psi/2)."""

    alpha: float
    psi: float
    search_bound: int

    def __post_init__(self):
        # negated, so that nan (false under every comparison) fails
        if not (self.alpha >= 0 and self.psi > 0):
            raise ValueError("need alpha >= 0 and psi > 0")
        object.__setattr__(self, "search_bound",
                           require_int(self.search_bound, "search_bound"))
        if self.search_bound < 1:
            raise ValueError("search_bound must be >= 1")

    def threshold(self, levels) -> np.ndarray:
        m = np.asarray(levels, dtype=float)
        return (m / 2.0) ** (self.alpha + self.psi / 2.0)


@dataclass(frozen=True)
class LevelProfile:
    """Levels along the tube at slope parameter u where the annulus count
    beats the threshold, with the counts and thresholds that decided it."""

    u: float
    levels: np.ndarray
    counts: np.ndarray
    thresholds: np.ndarray

    def __len__(self) -> int:
        return len(self.levels)


def find_levels(ps: PointSet, u: float, config: LevelSearchConfig) -> LevelProfile:
    """Scan integer levels m <= search_bound along the tube through the
    origin at slope parameter u, keeping those whose annulus count exceeds
    (m/2)^(alpha + psi/2).

    The kept levels vary only through annulus counts, which are locally
    constant in u away from coincidences, so nearby slopes yield identical
    profiles; an empty profile certifies that no scale shows the prescribed
    growth.

    Every threshold is positive and the annulus (m/2, m] is empty once m is
    at least twice the largest axial coordinate s_max, so only m up to
    ceil(2 s_max) - 1 are scanned (none for an empty slice).  A scan still
    longer than ``MAX_MATERIALIZE_POINTS`` raises ``MaterializeError``
    before anything is allocated.
    """
    svals = _axial_sorted(ps, Tube(u, 0.0))
    extent = 2.0 * float(np.max(svals, initial=0.0))
    top = config.search_bound if extent > config.search_bound \
        else math.ceil(extent) - 1
    refuse_past_budget(top, f"level search would scan {top} levels",
                       "lower search_bound")
    levels = np.arange(1, top + 1, dtype=np.int64)
    counts = _annulus_counts(svals, levels.astype(float))
    thr = config.threshold(levels)
    keep = counts > thr
    return LevelProfile(u, levels[keep], counts[keep], thr[keep])
