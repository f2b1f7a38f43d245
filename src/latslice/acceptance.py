"""The package's reproducibility battery.

Ten numbered checks, each a pure function returning a CriterionResult with
the measured numbers; `latslice repro` exposes them as commands and the test
suite asserts them.  Exact identities are checked with zero tolerance;
finite-scale dimension checks state their tolerance inline.  Everything is
seeded and deterministic.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import generators as gen
from .dimension import LevelSearchConfig, find_levels, mass_dim_profile
from .finitefield import (DoubleCountError, FiniteFieldSet,
                          ff_affine_intersection, ff_chebyshev_fraction,
                          ff_double_count, ff_slice_count)
from .geometry import BoxSpec, FloorLine, PointSet, Tube, slice_floor_line, \
    slice_tube, tube_edge_distance
from .survey import SurveyConfig, survey_floor_lines, tube_dim_along

__all__ = ["CriterionResult", "ALL_CRITERIA", "run_criterion",
           "run_ff_battery"]


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number:02d} {self.name}"


FF_BATTERY_PRIMES = (3, 5, 7, 11, 13, 17, 31)


def _ff_battery(p: int):
    """100 seeded random subsets of F_p^2, densities sweeping (0, 1], each
    with its Chebyshev report at k = ln p (None for an empty set, which gets
    the identity check alone); a failed identity raises DoubleCountError."""
    k = math.log(p)
    for i in range(100):
        B = FiniteFieldSet.random(p, density=(i + 1) / 100.0,
                                  seed=100_000 * p + i)
        if B.cardinality:
            yield B, ff_chebyshev_fraction(B, k)
        else:
            ff_double_count(B)
            yield B, None


def run_ff_battery(p: int) -> CriterionResult:
    """The battery over one prime p: each set's identity (a failure raises
    ``DoubleCountError``) and Markov bound at k = ln p."""
    failures = sum(rep is not None and rep.good_fraction < rep.markov_bound
                   for _, rep in _ff_battery(p))
    return CriterionResult(0, f"ff battery p={p}", failures == 0,
                           {"sets": 100, "failures": failures})


def criterion_01_double_count() -> CriterionResult:
    """Sum of slice counts over all p^2 lines equals |B| p, exactly."""
    t0 = time.perf_counter()
    checked = 0
    for p in FF_BATTERY_PRIMES:
        try:
            checked += sum(1 for _ in _ff_battery(p))
        except DoubleCountError as exc:
            return CriterionResult(1, "ff double count", False,
                                   {"p": p, "error": str(exc)})
    elapsed = time.perf_counter() - t0
    return CriterionResult(1, "ff double count", elapsed < 30.0,
                           {"sets": checked, "elapsed_s": round(elapsed, 3)})


def criterion_02_chebyshev() -> CriterionResult:
    """Good-line fraction at k = ln p is at least 1 - 1/ln p, exactly."""
    worst = math.inf
    evaluated = skipped = 0
    for p in FF_BATTERY_PRIMES:
        for _, rep in _ff_battery(p):
            if rep is None:
                skipped += 1
                continue
            margin = rep.good_fraction - rep.markov_bound
            worst = min(worst, margin)
            if margin < 0:
                return CriterionResult(2, "ff chebyshev fraction", False,
                                       {"p": p, "good": rep.good_fraction,
                                        "bound": rep.markov_bound})
            evaluated += 1
    return CriterionResult(2, "ff chebyshev fraction", True,
                           {"sets": evaluated, "empty_skipped": skipped,
                            "worst_margin": worst})


def criterion_03_affine_reduction() -> CriterionResult:
    """|A n (uB+v)| equals the product-set line slice count, u in F_p^*."""
    checked = 0
    for p in (5, 11, 31):
        rng = np.random.default_rng(7000 + p)
        for _ in range(1000):
            a = np.flatnonzero(rng.random(p) < 0.5)
            b = np.flatnonzero(rng.random(p) < 0.5)
            u = int(rng.integers(1, p))
            v = int(rng.integers(0, p))
            direct = ff_affine_intersection(p, a, b, u, v)
            product = FiniteFieldSet.from_product(p, xs=b, ys=a)
            sliced = ff_slice_count(product, u, v)
            if direct != sliced:
                return CriterionResult(3, "affine-intersection reduction",
                                       False, {"p": p, "u": u, "v": v,
                                               "direct": direct,
                                               "slice": sliced})
            checked += 1
    return CriterionResult(3, "affine-intersection reduction", True,
                           {"triples": checked})


def criterion_04_tube_width() -> CriterionResult:
    """Edge distance of 10^4 random tubes is 1 within 1e-9."""
    rng = np.random.default_rng(41)
    mags = 10.0 ** rng.uniform(-2.0, 2.0, size=10_000)
    signs = np.where(rng.random(10_000) < 0.5, -1.0, 1.0)
    vs = rng.uniform(-100.0, 100.0, size=10_000)
    worst = 0.0
    for u, v in zip(mags * signs, vs):
        dev = abs(tube_edge_distance(Tube(float(u), float(v))) - 1.0)
        worst = max(worst, dev)
    return CriterionResult(4, "tube width exactly 1", worst <= 1e-9,
                           {"samples": 10_000, "max_deviation": worst})


def criterion_05_staircase_counts() -> CriterionResult:
    """Parabolic staircase: box [0, N^2]^2 holds N(N+1)/2 points, N <= 1024."""
    implicit = gen.ParabolicStaircase(1024)
    stair = implicit.materialize()
    for n in range(1, 1025):
        box = BoxSpec("first_quadrant", float(n * n))
        want = n * (n + 1) // 2
        got = stair.box_count(box)
        got_implicit = implicit.box_count(box)
        if got != want or got_implicit != want:
            return CriterionResult(5, "staircase closed-form counts", False,
                                   {"N": n, "want": want, "materialized": got,
                                    "implicit": got_implicit})
    return CriterionResult(5, "staircase closed-form counts", True,
                           {"max_N": 1024, "points": len(stair)})


def criterion_06_staircase_dimensions() -> CriterionResult:
    """Staircase ratio at l = 2^20 matches the closed form to 1e-12; the
    horizontal slice at height 0 profiles to an estimate in [0.45, 0.55]."""
    implicit = gen.ParabolicStaircase(1024)
    scales = 2.0 ** np.arange(1, 21)
    prof = mass_dim_profile(implicit, scales=scales)
    ratio = float(prof.ratios[-1])
    closed = math.log(1024 * 1025 // 2) / math.log(2 ** 20)
    ratio_ok = abs(ratio - closed) <= 1e-12

    stair = implicit.materialize()
    slice_prof = tube_dim_along(stair, math.inf, -0.5, scales=scales)
    est = slice_prof.estimate
    return CriterionResult(6, "staircase dimension pair",
                           ratio_ok and 0.45 <= est <= 0.55,
                           {"ratio": ratio, "closed_form": closed,
                            "slice_estimate": est})


def criterion_07_zigzag() -> CriterionResult:
    """Zigzag at delta = 0.2: corner ratios within 1% of lambda1 by level 30;
    20 tubes inside the cone keep slice count <= 8 ln(x_n) at every traced
    level through level 110; final dimension estimate <= 0.15."""
    delta, depth = 0.2, 110
    _, trace = gen.gen_zigzag(delta, 30)
    c = trace.lattice_corners
    ratio = c[30] / c[29]
    ratio_ok = abs(ratio / trace.lambda1 - 1.0) <= 0.01

    t = math.tan(math.pi / 4 + delta)
    slopes = 1.0 + (np.arange(20) + 0.5) * ((t - 1.0) / 20.0)
    log_bound_ok = True
    worst_ratio = 0.0
    final_est = 0.0
    for s in slopes:
        tube = Tube(-1.0 / float(s), 0.0)
        corners, cums = gen.zigzag_tube_counts(delta, depth, tube)
        heights = np.array([math.log(x) for x in corners[1:]])
        if np.any(cums > 8.0 * heights):
            log_bound_ok = False
            worst_ratio = max(worst_ratio, float((cums / (8.0 * heights)).max()))
        final_est = max(final_est,
                        float(math.log(max(int(cums[-1]), 2)) / heights[-1]))
    return CriterionResult(
        7, "zigzag growth and tube counts",
        ratio_ok and log_bound_ok and final_est <= 0.15,
        {"corner_ratio": ratio, "lambda1": trace.lambda1,
         "log_bound_ok": log_bound_ok, "worst_excess": worst_ratio,
         "final_dim_estimate": final_est, "levels": depth})


def criterion_08_survey_bound() -> CriterionResult:
    """Full 256-grid survey: exact v-averaged mean at most |E_N|/M, grid mean
    within the reported resolution term of it, good fraction >= 1 - 1/k."""
    grid = gen.gen_cartesian(np.arange(256), np.arange(256))
    cfg = SurveyConfig(n_side=256, m_range=256.0, mode="grid",
                       grid_u=512, grid_v=512)
    rep = survey_floor_lines(grid, cfg)
    mean_ok = rep.mean_exact_v <= rep.bound + 1e-9
    res_ok = rep.mean <= rep.bound + rep.resolution_term + 1e-9
    good_ok = rep.good_fraction >= 1.0 - 1.0 / rep.k
    return CriterionResult(8, "floor-line survey integral bound",
                           mean_ok and res_ok and good_ok,
                           {"mean": rep.mean, "mean_exact_v": rep.mean_exact_v,
                            "bound": rep.bound,
                            "resolution_term": rep.resolution_term,
                            "k": rep.k, "good_fraction": rep.good_fraction})


def _naive_tube_slice(ps: PointSet, tube: Tube) -> np.ndarray:
    pts = ps.points
    keep = tube.contains(pts[:, 0], pts[:, 1])
    return pts[keep]


def _naive_floor_slice(ps: PointSet, line: FloorLine, x_max: float) -> np.ndarray:
    pts = ps.points
    ok = (pts[:, 0] <= x_max) \
        & (pts[:, 1] == np.floor(line.u * pts[:, 0] + line.v))
    return np.unique(pts[ok, 1]).astype(np.int64)


def criterion_09_oracle_equivalence() -> CriterionResult:
    """Indexed counting and slicing match naive full scans on 50 random sets."""
    alphas = (0.4, 0.8, 1.2, 1.5, 1.8)
    lmaxes = (128, 256, 512)
    checked_sets = 0
    largest = 0
    for i in range(50):
        alpha = alphas[i % len(alphas)]
        l_max = lmaxes[i % len(lmaxes)]
        ps = gen.gen_random_dimension(alpha, l_max, seed=900 + i)
        largest = max(largest, len(ps))
        rng = np.random.default_rng(3000 + i)
        for box in (BoxSpec("first_quadrant", l_max / 2.0),
                    BoxSpec("centered", l_max / 3.0),
                    BoxSpec("slanted", l_max / 2.0, u=1.0)):
            naive = int(np.count_nonzero(
                box.contains(ps.points[:, 0], ps.points[:, 1])))
            if ps.box_count(box) != naive:
                return CriterionResult(9, "oracle equivalence", False,
                                       {"set": i, "op": "box_count",
                                        "kind": box.kind})
        tubes = [Tube(float(u), float(v)) for u, v in
                 zip(rng.uniform(0.05, 5.0, 2) * rng.choice([-1, 1], 2),
                     rng.uniform(-3.0, 3.0, 2))]
        tubes.append(Tube.horizontal(float(rng.uniform(0, l_max / 2))))
        for tube in tubes:
            fast = np.asarray(slice_tube(ps, tube).points)
            naive = _naive_tube_slice(ps, tube)
            if fast.shape != naive.shape or not np.array_equal(
                    np.sort(fast.view("f8,f8"), axis=0),
                    np.sort(naive.view("f8,f8"), axis=0)):
                return CriterionResult(9, "oracle equivalence", False,
                                       {"set": i, "op": "slice_tube",
                                        "u": tube.u, "v": tube.v})
        for _ in range(2):
            line = FloorLine(float(rng.uniform(0.05, 3.0)),
                             float(rng.uniform(0.0, 2.0)))
            x_max = float(rng.uniform(l_max / 4, l_max))
            fast = slice_floor_line(ps, line, x_max)
            naive = _naive_floor_slice(ps, line, x_max)
            if not np.array_equal(fast, naive):
                return CriterionResult(9, "oracle equivalence", False,
                                       {"set": i, "op": "slice_floor_line",
                                        "u": line.u, "v": line.v})
        checked_sets += 1
    return CriterionResult(9, "oracle equivalence", True,
                           {"sets": checked_sets, "largest": largest})


def _points_along_tube(u: float, svals, tau: float) -> PointSet:
    """Points with prescribed axial coordinates and perpendicular offset tau
    inside the tube t_{u,0} (tau in (0, 1])."""
    s = np.asarray(svals, dtype=float)
    r = math.sqrt(1.0 + u * u)
    sgn = math.copysign(1.0, u)
    x = (tau * sgn - u * s) / r
    y = (s + u * tau * sgn) / r
    return PointSet(np.column_stack([x, y]))


def criterion_10_level_finder() -> CriterionResult:
    """Every level returned on a dense tube beats its threshold by recount
    (and no qualifying level is missed); a sparse tube yields no levels."""
    u = -0.7
    dense = _points_along_tube(u, np.arange(1000) + 0.5, tau=0.5)
    cfg = LevelSearchConfig(alpha=0.0, psi=1.0, search_bound=1000)
    prof = find_levels(dense, u, cfg)
    tube = Tube(u, 0.0)
    s_all = tube.axial_coord(dense.points[:, 0], dense.points[:, 1])
    expo = cfg.alpha + cfg.psi / 2.0
    found = set(int(m) for m in prof.levels)
    for m in range(1, cfg.search_bound + 1):
        recount = int(np.count_nonzero((s_all > m / 2.0) & (s_all <= m)))
        qualifies = recount > (m / 2.0) ** expo
        if qualifies != (m in found):
            return CriterionResult(10, "level finder recount", False,
                                   {"m": m, "recount": recount,
                                    "returned": m in found})
    sparse = _points_along_tube(u, 4.0 ** np.arange(1, 8), tau=0.5)
    empty = find_levels(sparse, u, cfg)
    return CriterionResult(10, "level finder recount", len(empty) == 0,
                           {"dense_levels": len(prof),
                            "sparse_levels": len(empty)})


ALL_CRITERIA = (
    criterion_01_double_count,
    criterion_02_chebyshev,
    criterion_03_affine_reduction,
    criterion_04_tube_width,
    criterion_05_staircase_counts,
    criterion_06_staircase_dimensions,
    criterion_07_zigzag,
    criterion_08_survey_bound,
    criterion_09_oracle_equivalence,
    criterion_10_level_finder,
)


def run_criterion(number: int) -> CriterionResult:
    if not 1 <= number <= len(ALL_CRITERIA):
        raise ValueError(f"no criterion {number}")
    return ALL_CRITERIA[number - 1]()
