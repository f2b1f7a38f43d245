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
(b, -a) serves every sampled slope, and for any threshold t the points of a
row with start <= t are a leading run of it.  The row index, ``_RowRuns``,
holds the window's point count, that presort as a ``geometry.RankOrder``
(rows as groups, -a as values), the row bounds and the one float start
b - u a that every test below uses.  A set keeps the index of its last
survey, read-only: a survey of the same n_side reuses it, and one of
another n_side replaces it (``PointSet`` lists what a set keeps).  Both
modes work on runs, found for every (slope or draw, row) pair at once by
one ``RankOrder.find`` at the approximate threshold a = (b - t) / u; the
float test at the run end's neighbours confirms it, and any end it rejects
is found by bisection over its row, so every run end is exact.

Monte Carlo mode never scans the points per draw: a draw (u, v) hits row b
exactly when the last point of its run with start <= v also has
v < start + 1, so the work per draw is the number of occupied rows.  Grid
mode keeps, for each slope and row, only the run of points with
start + 1 > 0 and start <= M, the only ones an offset in (0, M] can hit:
about (M + 1) / u points a row instead of all of them.  Along a run the
starts ascend, and a start chains onto the one before it exactly when it
is at most that start's float end s + 1.0, so the run merges into disjoint
segments [lo, hi) holding exactly the offsets that hit the row.  The
segments give both results: a segment covers the v-centres j with
L(lo) <= j < L(hi), where L(x) counts the centres below x, so each slope's
counts are one difference array summed once, with no sort, and its exact
v-integral is the segments' total length inside (0, M].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dimension import DimensionProfile, mass_dim_profile
from .exact import refuse_past_budget, require_count
from .geometry import PointSet, RankOrder, Tube, slice_tube

__all__ = [
    "SurveyConfig",
    "SurveyReport",
    "exception_ray_scan",
    "survey_floor_lines",
    "tube_dim_along",
]


@dataclass(frozen=True)
class SurveyConfig:
    """Parameter rectangle and sampling plan for a floor-line survey.

    Points come from [0, n_side]^2; slopes and offsets from (0, m_range],
    and ``m_range`` must be given.  Grid mode samples cell centers of a
    grid_u x grid_v grid and also integrates exactly over v; mc mode draws
    (u, v) uniformly.  The exception threshold is k_threshold * |E_N| /
    m_range with k_threshold = sqrt(ln m_range * ln n_side) by default.
    The counts and the seed are integers, stored as ints (4.0 as 4).
    """

    n_side: int
    m_range: float | None = None
    mode: str = "grid"
    grid_u: int = 512
    grid_v: int = 512
    mc_samples: int = 4096
    seed: int = 0
    k_threshold: float | None = None

    def __post_init__(self):
        for name, least in (("n_side", 2), ("grid_u", 1), ("grid_v", 1),
                            ("mc_samples", 1), ("seed", 0)):
            object.__setattr__(self, name,
                               require_count(getattr(self, name), name, least))
        if self.m_range is None:
            raise ValueError("m_range is required")
        if not (math.isfinite(self.m_range) and self.m_range >= 1.0):
            raise ValueError("m_range must be finite and >= 1")
        if self.mode == "grid":
            gu, gv = self.grid_u, self.grid_v
            refuse_past_budget(gu * gv, f"survey grid {gu}x{gv} holds {gu * gv} cells")
        elif self.mode == "mc":
            refuse_past_budget(self.mc_samples, f"mc survey of {self.mc_samples} samples")
        else:
            raise ValueError(f"unknown survey mode {self.mode!r}")
        if self.k_threshold is None and self.m_range <= math.e:
            raise ValueError("default k_threshold needs m_range > e")
        # negated, so that nan (false under every comparison) fails
        if self.k_threshold is not None and not self.k_threshold > 1.0:
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


# pairs of (slope or draw, row) searched at once, and row points expanded
# at once in grid mode, which bounds a survey's temporaries by about as
# much as one scan of 2^15 points
_BLOCK = 1 << 15


def _merged_segments(starts: np.ndarray, new_row: np.ndarray):
    """Merge per-row unit intervals [s, s+1) into the segments they cover.

    ``starts`` must ascend within each row.  A start chains onto the one
    before it exactly when it is at most that start's float end s + 1.0,
    the hit test's own end, so each segment [s_first, s_last + 1.0) holds
    exactly the offsets that some interval of it holds.  Returns (first,
    seg_starts, seg_ends): the index of each segment's first interval and
    its bounds.
    """
    if starts.size == 0:
        return np.flatnonzero(new_row), starts, starts
    new_seg = new_row.copy()
    new_seg[1:] |= starts[1:] > starts[:-1] + 1.0
    first = np.flatnonzero(new_seg)
    last = np.append(first[1:], starts.size) - 1
    return first, starts[first], starts[last] + 1.0


class _RowRuns:
    """The survey's row index: the points of ``ps`` in [0, n_side]^2 with
    integer y, as (a, b) = (x, y) ordered by (b, -a), keyed for run searches.

    ``point_count`` counts all points of the window, on rows or not; rows
    are [lo[r], hi[r]) with height row_b[r].  Within a row the starts
    b - u a ascend for every u > 0, so for a slope u and a threshold t the
    points with start at most t form a leading run of the row.  ``index``
    is a ``geometry.RankOrder`` whose groups are the rows and whose values
    are -a, so each run's end is one ``find`` at a = (b - t) / u, for every
    (pair, row) at once, then checked by ``start`` at its two neighbours.
    An end that fails the check is found by bisection over its row under
    the same test, so every end is exact whatever the rounding of
    (b - t) / u.  ``n_side`` tags the window, and every array is read-only.
    """

    def __init__(self, ps: PointSet, n_side: int):
        self.n_side = n_side
        pts = ps.points
        pts = pts[(pts[:, 0] >= 0.0) & (pts[:, 0] <= n_side)
                  & (pts[:, 1] >= 0.0) & (pts[:, 1] <= n_side)]
        self.point_count = len(pts)
        on_rows = pts[:, 1] == np.floor(pts[:, 1])
        a, b = pts[on_rows, 0], pts[on_rows, 1]
        _, row_rank, size = np.unique(b, return_inverse=True, return_counts=True)
        neg_a, a_rank = np.unique(-a, return_inverse=True)
        self.index = RankOrder(row_rank, a_rank, neg_a)
        self.a, self.b = a[self.index.order], b[self.index.order]
        self.hi = np.cumsum(size)
        self.lo = self.hi - size
        self.row_b = self.b[self.lo]
        for arr in (self.a, self.b, self.lo, self.hi, self.row_b):
            arr.setflags(write=False)

    def start(self, u, k):
        """The float start b - u a of the points ``k`` at slopes ``u``."""
        return self.b[k] - u * self.a[k]

    def ends(self, u: np.ndarray, t) -> np.ndarray:
        """Run ends for slopes ``u`` of shape (n, 1) and thresholds ``t``
        of that shape or scalar: entry [i, r] is the first index of row r,
        or the row's end, whose start at u[i] exceeds t[i].  A neighbour
        outside its row is tested too, but masked by the bound beside it."""
        lo, hi = self.lo, self.hi
        with np.errstate(divide="ignore", invalid="ignore"):
            guess = (self.row_b - t) / u
        end = self.index.find(np.arange(lo.size), -guess, "right")
        late = (end > lo) & ~(self.start(u, end - 1) <= t)
        early = (end < hi) & (self.start(u, np.minimum(end, self.a.size - 1)) <= t)
        todo = np.flatnonzero(late | early)
        if todo.size:
            i, r = np.divmod(todo, lo.size)
            end.flat[todo] = self._bisect(lo[r], hi[r], u[i, 0],
                                          np.broadcast_to(t, u.shape)[i, 0])
        return end

    def _bisect(self, lo, hi, u, t) -> np.ndarray:
        """First index in each [lo, hi) whose start at u exceeds t, or hi;
        the arrays are one entry per search and ``lo`` is updated."""
        open_ = np.flatnonzero(lo < hi)
        while open_.size:
            mid = (lo[open_] + hi[open_]) // 2
            below = self.start(u[open_], mid) <= t[open_]
            lo[open_] = np.where(below, mid + 1, lo[open_])
            hi[open_] = np.where(below, hi[open_], mid)
            open_ = open_[lo[open_] < hi[open_]]
        return lo


def _mc_counts(runs: _RowRuns, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Distinct heights hit by the floor line of each draw (us[i], vs[i]).

    Point k hits when start_k <= v < start_k + 1, the same float
    expressions as a scan.  The points with start <= v are a leading run
    of the row, and the row is hit exactly when v < start + 1 at the run's
    last point.
    """
    counts = np.zeros(us.size, dtype=np.int64)
    if runs.a.size == 0:
        return counts
    block = max(1, _BLOCK // runs.lo.size)
    for d0 in range(0, us.size, block):
        u = us[d0:d0 + block, None]
        v = vs[d0:d0 + block, None]
        end = runs.ends(u, v)
        hit = (end > runs.lo) & (v < runs.start(u, end - 1) + 1.0)
        counts[d0:d0 + block] = hit.sum(axis=1)
    return counts


def _grid_counts(runs: _RowRuns, us: np.ndarray, vs: np.ndarray, m: float):
    """Slice counts at every grid centre (us[i], vs[j]), with vs ascending,
    and each slope's exact v-integral over (0, m] divided by m.

    Only points with start + 1 > 0 and start <= m can be hit by an offset
    in (0, m]; in each row they are the run [p0, p1) between two run
    searches, about (m + 1) / u points.  Blocks of slopes are expanded to
    their kept points, at most ``_BLOCK`` of them at a time unless one
    slope alone keeps more.
    """
    counts = np.zeros((us.size, vs.size), dtype=np.int64)
    exact = np.zeros(us.size)
    if runs.a.size == 0:
        return counts, exact
    block = max(1, _BLOCK // runs.lo.size)
    for s0 in range(0, us.size, block):
        u = us[s0:s0 + block, None]
        p0 = runs.ends(u, -1.0)
        kept = runs.ends(u, m) - p0
        done = np.cumsum(kept.sum(axis=1))
        i0 = 0
        while i0 < u.shape[0]:
            limit = done[i0 - 1] + _BLOCK if i0 else _BLOCK
            i1 = max(i0 + 1, int(np.searchsorted(done, limit, side="right")))
            part = slice(s0 + i0, s0 + i1)
            counts[part], exact[part] = _grid_block(
                runs, u[i0:i1], p0[i0:i1], kept[i0:i1], vs, m)
            i0 = i1
    return counts, exact


def _grid_block(runs: _RowRuns, u, p0, kept, vs, m):
    """Grid counts and exact v-means for the slopes ``u`` (shape (n, 1))
    whose kept runs are [p0, p0 + kept), one per (slope, row).

    Each row's kept points merge into disjoint segments [lo, hi), the
    offsets that hit the row; a segment covers the centres vs[L(lo):L(hi)]
    with L(x) = #{vs < x}, so each slope's counts are one difference array
    summed by ``cumsum``, and its exact v-integral is the total length of
    its segments inside (0, m].
    """
    n = kept.ravel()
    run_at = np.cumsum(n) - n
    k = np.arange(n.sum()) + np.repeat(p0.ravel() - run_at, n)
    slope = np.repeat(np.arange(u.shape[0]), kept.sum(axis=1))
    new_run = np.zeros(k.size, dtype=bool)
    new_run[run_at[n > 0]] = True
    first, seg_lo, seg_hi = _merged_segments(runs.start(u[slope, 0], k), new_run)
    width = vs.size + 1
    key = slope[first] * width
    steps = (np.bincount(key + np.searchsorted(vs, seg_lo), minlength=u.shape[0] * width)
             - np.bincount(key + np.searchsorted(vs, seg_hi), minlength=u.shape[0] * width))
    counts = np.cumsum(steps.reshape(-1, width), axis=1)[:, :-1]
    lengths = np.clip(np.minimum(seg_hi, m) - np.maximum(seg_lo, 0.0), 0.0, None)
    return counts, np.bincount(slope[first], weights=lengths,
                               minlength=u.shape[0]) / m


def survey_floor_lines(ps: PointSet, config: SurveyConfig,
                       store_counts: bool = False) -> SurveyReport:
    """Survey floor-line slice counts of ``ps`` over (u, v) in (0, M]^2."""
    runs = ps._row_runs
    if runs is None or runs.n_side != config.n_side:
        runs = ps._row_runs = _RowRuns(ps, config.n_side)
    m = config.m_range
    k = config.threshold_factor()
    bound = runs.point_count / m
    threshold = k * bound

    if config.mode == "grid":
        us = (np.arange(config.grid_u) + 0.5) * (m / config.grid_u)
        v_centers = (np.arange(config.grid_v) + 0.5) * (m / config.grid_v)
        counts, exact_v_means = _grid_counts(runs, us, v_centers, m)
        mean_exact = float(exact_v_means.mean())
        extra = {"mean_exact_v": mean_exact,
                 "resolution_term": abs(float(counts.mean()) - mean_exact)}
    else:
        rng = np.random.default_rng(config.seed)
        us = rng.uniform(0.0, m, size=config.mc_samples)
        vs = rng.uniform(0.0, m, size=config.mc_samples)
        counts = _mc_counts(runs, us, vs)
        extra = {"mc_std_error": float(counts.std(ddof=1) / math.sqrt(counts.size))
                 if counts.size > 1 else 0.0}
    exception = float(np.mean(counts > threshold))
    return SurveyReport(
        config=config, point_count=runs.point_count, lattice_row_points=runs.a.size,
        mean=float(counts.mean()), bound=bound, k=k, threshold=threshold,
        exception_fraction=exception, good_fraction=1.0 - exception,
        counts=counts if store_counts else None, **extra)


# ---------------------------------------------------------------------------
# Directional dimension scans
# ---------------------------------------------------------------------------

def tube_dim_along(ps: PointSet, u: float, v: float,
                   scales=None) -> DimensionProfile:
    """Mass dimension profile of the slice of ``ps`` by the width-1 tube
    ``Tube(u, v)``, counted in first-quadrant boxes.

    ``u`` is the tube's perpendicular slope; ``u = +-inf`` is the horizontal
    tube v < y <= v+1.
    """
    return mass_dim_profile(slice_tube(ps, Tube(u, v)), scales=scales)


def exception_ray_scan(ps: PointSet, v0: float, u_interval, u_samples: int,
                       threshold_dim: float, scales=None) -> float:
    """Fraction of sampled tube directions whose slice dimension estimate
    exceeds ``threshold_dim``, at fixed perpendicular offset v0.

    Samples midpoints of u_samples equal subintervals of u_interval
    (zero is rejected: tubes need u != 0; so are non-finite ends and
    thresholds).  More than ``MAX_MATERIALIZE_POINTS`` samples raise
    ``MaterializeError`` before anything is allocated.  A finite-scale
    diagnostic, not a limit statement: the estimates inherit all the bias
    of the underlying profiles, so thresholds should be read against the
    profile depth actually available.  Raising the threshold never raises
    the fraction.
    """
    u_samples = require_count(u_samples, "u_samples", 1)
    refuse_past_budget(u_samples, f"exception ray scan of {u_samples} slope samples")
    if not math.isfinite(threshold_dim):
        raise ValueError("threshold_dim must be finite")
    u_lo, u_hi = (float(u_interval[0]), float(u_interval[1]))
    if not (u_lo < u_hi and math.isfinite(u_hi - u_lo)):
        raise ValueError("u_interval must be a finite nondegenerate (lo, hi)")
    us = u_lo + (np.arange(u_samples) + 0.5) * ((u_hi - u_lo) / u_samples)
    if np.any(us == 0.0):
        raise ValueError("slope sample hit u = 0; shift the range")
    ests = np.array([tube_dim_along(ps, float(u), v0, scales=scales).estimate
                     for u in us])
    return float(np.mean(ests > threshold_dim))
