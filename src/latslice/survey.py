"""Floor-line slice surveys over slope/offset parameter rectangles.

The central quantity: for a point set E restricted to [0, N]^2 and parameters
(u, v) in (0, M]^2, the floor line y = floor(u x + v) slices E in some number
of distinct integer heights.  A point (a, b) sits on that line iff
v in [b - u a, b + 1 - u a), a width-1 interval, so for fixed u the slice
count as a function of v is a step function built from unit intervals: its
exact v-integral is the total length of the per-height merged interval
unions, which never exceeds the number of points.  That gives the bench
identity  mean slice count <= |E_N| / M + (sampling resolution),  and a
Chebyshev bound making slices above  k |E_N| / M  rare.

Within a height b the interval starts b - u a for u > 0 are ordered by
descending a, independently of u (rounding is monotone), so one presort by
(b, -a) serves every sampled slope.  Grid mode merges each row's chained
intervals in one linear pass per slope, then sorts the merged segments'
starts and ends to count them at the v-grid centres.  Monte Carlo mode
never scans the points per draw: a draw (u, v) hits row b exactly when the
last point of the row with start <= v also has v < start + 1, and the
points with start <= v are a leading run of the row.  Each run's end is
found for every (draw, row) pair at once by one binary search at the
approximate threshold a = (b - v) / u over packed (row, a) keys, then
corrected against the exact float test at its neighbours, so the work per
draw is the number of occupied rows, not of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dimension import DimensionProfile, mass_dim_profile
from .geometry import PointSet, Tube, slice_tube

__all__ = [
    "SurveyConfig",
    "SurveyPrecisionError",
    "SurveyReport",
    "exception_ray_scan",
    "survey_floor_lines",
    "tube_dim_along",
]


@dataclass(frozen=True)
class SurveyConfig:
    """Parameter rectangle and sampling plan for a floor-line survey.

    Points come from [0, n_side]^2; slopes and offsets from (0, m_range].
    ``m_range`` may instead be derived as n_side / alpha_ratio, the regime
    where the mean bound is informative.  Grid mode samples cell centers of
    a grid_u x grid_v grid and also integrates exactly over v; mc mode draws
    (u, v) uniformly.  The exception threshold is k_threshold * |E_N| /
    m_range with k_threshold = sqrt(ln m_range * ln n_side) by default.
    """

    n_side: int
    m_range: float | None = None
    alpha_ratio: float | None = None
    mode: str = "grid"
    grid_u: int = 512
    grid_v: int = 512
    mc_samples: int = 4096
    seed: int = 0
    k_threshold: float | None = None

    def __post_init__(self):
        if self.n_side < 2:
            raise ValueError("n_side must be >= 2")
        if self.m_range is None:
            if self.alpha_ratio is None or self.alpha_ratio <= 0:
                raise ValueError("give m_range, or a positive alpha_ratio "
                                 "to derive it as n_side / alpha_ratio")
            object.__setattr__(self, "m_range", self.n_side / self.alpha_ratio)
        if not (math.isfinite(self.m_range) and self.m_range >= 1.0):
            raise ValueError("m_range must be finite and >= 1")
        if self.mode not in ("grid", "mc"):
            raise ValueError(f"unknown survey mode {self.mode!r}")
        if self.mode == "grid" and (self.grid_u < 1 or self.grid_v < 1):
            raise ValueError("grid dimensions must be >= 1")
        if self.mode == "mc" and self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        if self.k_threshold is None and self.m_range <= math.e:
            raise ValueError("default k_threshold needs m_range > e")
        if self.k_threshold is not None and self.k_threshold <= 1.0:
            raise ValueError("k_threshold must exceed 1")

    def threshold_factor(self) -> float:
        if self.k_threshold is not None:
            return self.k_threshold
        return math.sqrt(math.log(self.m_range) * math.log(self.n_side))


@dataclass(frozen=True)
class SurveyReport:
    """Survey outcome.

    ``mean`` averages slice counts over the sampled (u, v); in grid mode
    ``mean_exact_v`` replaces the v-sampling with the exact per-slope
    integral, so  mean_exact_v <= bound = point_count / m_range  holds as an
    identity and ``resolution_term`` = |mean - mean_exact_v| measures what
    the v-grid costs.  ``good_fraction`` is the fraction of samples at or
    below threshold = k * point_count / m_range.
    """

    config: SurveyConfig
    point_count: int
    lattice_row_points: int
    mean: float
    bound: float
    k: float
    threshold: float
    exception_fraction: float
    good_fraction: float
    mean_exact_v: float | None = None
    resolution_term: float | None = None
    mc_std_error: float | None = None
    counts: np.ndarray | None = None


class SurveyPrecisionError(ArithmeticError):
    """A Monte Carlo draw whose run of hits in a row was not located within
    the fix-up bound: more than ``_FIXUP_STEPS`` points of the row lie
    within rounding of the draw's threshold, which needs a slope u far
    below the spacing of the coordinates."""


# (draw, row) pairs searched at once, which bounds the temporaries of a
# Monte Carlo survey by about as much as one scan of 2^15 points
_MC_BLOCK_PAIRS = 1 << 15
# neighbour steps that correct an approximate run end; one suffices unless
# points of a row lie within a few ulps of the threshold
_FIXUP_STEPS = 64


def _row_sorted_starts(ps: PointSet, n_side: int):
    """Points of [0, n_side]^2 with integer y, ordered by (y, -x).

    Returns (points in the box, a, b, new_row) with interval starts b - u a
    ascending within each row for every u > 0, plus the row-boundary mask.
    """
    box = ps.restrict(0.0, float(n_side), 0.0, float(n_side))
    pts = box.points
    on_rows = pts[:, 1] == np.floor(pts[:, 1])
    a = pts[on_rows, 0]
    b = pts[on_rows, 1]
    order = np.lexsort((-a, b))
    a, b = a[order], b[order]
    new_row = np.ones(len(a), dtype=bool)
    if len(a) > 1:
        new_row[1:] = b[1:] != b[:-1]
    return len(box), a, b, new_row


def _merged_segments(starts: np.ndarray, new_row: np.ndarray):
    """Merge per-row unit intervals [s, s+1) whose starts chain with gap <= 1.

    ``starts`` must ascend within each row.  Returns (seg_starts, seg_ends),
    unsorted across rows.
    """
    if starts.size == 0:
        return starts, starts
    new_seg = new_row.copy()
    gaps = starts[1:] - starts[:-1]
    new_seg[1:] |= gaps > 1.0
    first = np.flatnonzero(new_seg)
    last = np.append(first[1:], starts.size) - 1
    return starts[first], starts[last] + 1.0


def _mc_counts(a: np.ndarray, b: np.ndarray, new_row: np.ndarray,
               us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Distinct heights b hit by the floor line of each draw (us[i], vs[i]),
    for points (a, b) ordered as ``_row_sorted_starts`` returns them.

    Point k hits when start_k <= v < start_k + 1 with start_k = b - u a_k,
    the same float expressions as a scan.  Starts ascend within a row, so
    the points with start <= v are a leading run, and the row is hit
    exactly when v < start + 1 at the run's last point.  The run's end is
    searched at a = (b - v) / u among keys packing (row rank, rank of -a),
    for every (draw, row) pair of a block at once, then moved point by
    point until the exact test holds at both neighbours.
    """
    counts = np.zeros(us.size, dtype=np.int64)
    if a.size == 0:
        return counts
    row_lo = np.flatnonzero(new_row)
    row_hi = np.append(row_lo[1:], a.size)
    row_b = b[row_lo]
    n_rows = row_lo.size
    neg_a, a_rank = np.unique(-a, return_inverse=True)
    stride = neg_a.size + 1
    packed = (np.cumsum(new_row) - 1) * stride + a_rank
    row_base = np.arange(n_rows) * stride
    block = max(1, _MC_BLOCK_PAIRS // n_rows)
    for d0 in range(0, us.size, block):
        u = us[d0:d0 + block, None]
        v = vs[d0:d0 + block, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (row_b - v) / u
        rank = np.searchsorted(neg_a, -t, side="right")
        end = np.searchsorted(packed, row_base + rank)
        todo = np.flatnonzero(_fix_run_ends(end, row_lo, row_hi, row_b, u, v, a))
        flat = end.reshape(-1)
        for _ in range(_FIXUP_STEPS - 1):
            if todo.size == 0:
                break
            i, r = np.divmod(todo, n_rows)
            ends = flat[todo]
            moved = _fix_run_ends(ends, row_lo[r], row_hi[r], row_b[r],
                                  u[i, 0], v[i, 0], a)
            flat[todo] = ends
            todo = todo[moved]
        if todo.size:
            i, r = divmod(int(todo[0]), n_rows)
            raise SurveyPrecisionError(
                f"draw u={float(u[i, 0])!r}, v={float(v[i, 0])!r}: no run end "
                f"within {_FIXUP_STEPS} points of its threshold in row "
                f"b={float(row_b[r])!r}")
        hit = (end > row_lo) & (v < (row_b - u * a[end - 1]) + 1.0)
        counts[d0:d0 + block] = hit.sum(axis=1)
    return counts


def _fix_run_ends(end, lo, hi, row_b, u, v, a) -> np.ndarray:
    """Move each approximate run end one point towards the exact one, in
    place, and return where it moved.  The run of a row [lo, hi) ends at
    ``end`` when start <= v holds at end - 1 (or end == lo) and fails at
    end (or end == hi), with start = row_b - u a."""
    back = (end > lo) & ~(row_b - u * a[end - 1] <= v)
    ahead = (end < hi) & (row_b - u * a[np.minimum(end, a.size - 1)] <= v)
    end += ahead
    end -= back
    return back | ahead


def survey_floor_lines(ps: PointSet, config: SurveyConfig,
                       store_counts: bool = False) -> SurveyReport:
    """Survey floor-line slice counts of ``ps`` over (u, v) in (0, M]^2."""
    n_pts, a, b, new_row = _row_sorted_starts(ps, config.n_side)
    m = config.m_range
    k = config.threshold_factor()
    bound = n_pts / m
    threshold = k * bound

    if config.mode == "grid":
        us = (np.arange(config.grid_u) + 0.5) * (m / config.grid_u)
        v_centers = (np.arange(config.grid_v) + 0.5) * (m / config.grid_v)
        counts = np.zeros((config.grid_u, config.grid_v), dtype=np.int64)
        exact_v_means = np.zeros(config.grid_u)
        for i, u in enumerate(us):
            seg_lo, seg_hi = _merged_segments(b - u * a, new_row)
            lengths = np.clip(np.minimum(seg_hi, m) - np.maximum(seg_lo, 0.0),
                              0.0, None)
            exact_v_means[i] = lengths.sum() / m
            lo_sorted = np.sort(seg_lo)
            hi_sorted = np.sort(seg_hi)
            counts[i] = (np.searchsorted(lo_sorted, v_centers, side="right")
                         - np.searchsorted(hi_sorted, v_centers, side="right"))
        mean_exact = float(exact_v_means.mean())
        extra = {"mean_exact_v": mean_exact,
                 "resolution_term": abs(float(counts.mean()) - mean_exact)}
    else:
        rng = np.random.default_rng(config.seed)
        us = rng.uniform(0.0, m, size=config.mc_samples)
        vs = rng.uniform(0.0, m, size=config.mc_samples)
        counts = _mc_counts(a, b, new_row, us, vs)
        extra = {"mc_std_error": float(counts.std(ddof=1) / math.sqrt(counts.size))
                 if counts.size > 1 else 0.0}
    exception = float(np.mean(counts > threshold))
    return SurveyReport(
        config=config, point_count=n_pts, lattice_row_points=len(a),
        mean=float(counts.mean()), bound=bound, k=k, threshold=threshold,
        exception_fraction=exception, good_fraction=1.0 - exception,
        counts=counts if store_counts else None, **extra)


# ---------------------------------------------------------------------------
# Directional dimension scans
# ---------------------------------------------------------------------------

def tube_dim_along(ps: PointSet, u: float | None, v: float,
                   scales=None, method: str = "ratio_max_tail") -> DimensionProfile:
    """Mass dimension profile of the slice of ``ps`` by one width-1 tube.

    ``u`` is the tube's perpendicular slope (None for the horizontal tube
    v < y <= v+1).  The profile counts the slice in first-quadrant boxes.
    """
    tube = Tube.horizontal(v) if u is None or not math.isfinite(u) else Tube(u, v)
    return mass_dim_profile(slice_tube(ps, tube), scales=scales, method=method)


def exception_ray_scan(ps: PointSet, v0: float, u_interval, u_samples: int,
                       threshold_dim: float, scales=None,
                       method: str = "ratio_max_tail") -> float:
    """Fraction of sampled tube directions whose slice dimension estimate
    exceeds ``threshold_dim``, at fixed perpendicular offset v0.

    Samples midpoints of u_samples equal subintervals of u_interval
    (zero is rejected: tubes need u != 0).  A finite-scale diagnostic, not a
    limit statement: the estimates inherit all the bias of the underlying
    profiles, so thresholds should be read against the profile depth
    actually available.  Raising the threshold never raises the fraction.
    """
    if u_samples < 1:
        raise ValueError("u_samples must be >= 1")
    u_lo, u_hi = (float(u_interval[0]), float(u_interval[1]))
    if not u_lo < u_hi:
        raise ValueError("u_interval must be nondegenerate (lo, hi)")
    us = u_lo + (np.arange(u_samples) + 0.5) * ((u_hi - u_lo) / u_samples)
    if np.any(us == 0.0):
        raise ValueError("slope sample hit u = 0; shift the range")
    ests = np.array([tube_dim_along(ps, float(u), v0, scales=scales,
                                    method=method).estimate for u in us])
    return float(np.mean(ests > threshold_dim))
