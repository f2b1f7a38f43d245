"""In-memory span tracer that wraps latslice's public entry points from outside.

A span records its name, start, end, parent span and whether the call
raised.  Spans stay in memory and are written out by the caller when the run
ends.  The tracer wraps an entry point at every place the package binds it:
module attributes (so ``latslice.dimension.slice_tube`` and
``latslice.survey.slice_tube`` are caught as well as
``latslice.geometry.slice_tube``), values of module-level tables (the CLI's
generator table holds generator functions inside tuples), and class
attributes (``PointSet.__init__`` on the class, so ``_subset`` and
``restrict`` are caught too).  Nothing in the package itself changes.

Work counters are read from each call's arguments and result after the
span has ended.  The time spent reading them is recorded on the parent span
and left out of its self time, so bookkeeping shows up only as tracing
overhead.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
import weakref

import numpy as np

MODULES = ("geometry", "dimension", "survey", "finitefield", "generators", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "error", "excluded", "work")

    def __init__(self, name: str, parent: int, start: float = 0.0,
                 end: float = 0.0):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.error = False
        self.excluded = 0.0
        self.work: dict | None = None

    def as_dict(self) -> dict:
        return {key: getattr(self, key) for key in self.__slots__}


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest properly, so the direct children of
    a span cover disjoint parts of it and their durations simply add up.
    Bookkeeping time recorded on a span (``excluded``) is left out as well.
    """
    own = [s.end - s.start - s.excluded for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _quantile_ms(durations, q: int) -> float:
    """q-th percentile of durations in ms (0 when there are none)."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


class Tracer:
    """Records spans around latslice entry points while installed."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._built = weakref.WeakKeyDictionary()   # PointSet -> serial
        self._n_built = 0
        self._used: set[int] = set()

    # -- span recording -----------------------------------------------------

    def wrap(self, name, fn, work=None):
        """Return ``fn`` wrapped in a span.

        ``name`` is a string or a function of the call's arguments;
        ``work(tracer, args, kwargs, result)`` returns the span's work
        counters and runs after the span has ended.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            label = name if isinstance(name, str) else name(args, kwargs)
            span = Span(label, parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if work is not None:
                span.work = work(self, args, kwargs, result)
                if parent >= 0:
                    self.spans[parent].excluded += time.perf_counter() - span.end
            return result
        return traced

    def built(self, ps) -> None:
        self._built[ps] = self._n_built
        self._n_built += 1

    def used(self, ps) -> None:
        serial = self._built.get(ps)
        if serial is not None:
            self._used.add(serial)

    # -- installing ---------------------------------------------------------

    def _bind_everywhere(self, fn, wrapper) -> None:
        """Replace every binding of ``fn`` in the package's modules."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == self.pkg.__name__
                                   or modname.startswith(self.pkg.__name__ + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._patches.append((setattr, mod, attr, fn))
                    setattr(mod, attr, wrapper)
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if item is fn:
                            self._patches.append((dict.__setitem__, val, key, item))
                            val[key] = wrapper
                        elif isinstance(item, tuple) and any(x is fn for x in item):
                            self._patches.append((dict.__setitem__, val, key, item))
                            val[key] = tuple(wrapper if x is fn else x for x in item)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for name, owner, attr, work in entry_points(self.pkg):
            fn = vars(owner)[attr]
            wrapper = self.wrap(name, fn, work)
            if isinstance(owner, type):
                self._patches.append((setattr, owner, attr, fn))
                setattr(owner, attr, wrapper)
            else:
                self._bind_everywhere(fn, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            setter, target, key, original = self._patches.pop()
            setter(target, key, original)

    # -- per-layer metrics --------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time, latency quantiles and work counts per layer."""
        own = self_times(self.spans)
        groups: dict[str, list[int]] = {}
        for i, s in enumerate(self.spans):
            groups.setdefault(s.name, []).append(i)

        def calls(name):
            return len(groups.get(name, ()))

        def self_s(name):
            return sum(own[i] for i in groups.get(name, ()))

        def durations(name):
            return [self.spans[i].end - self.spans[i].start
                    for i in groups.get(name, ())]

        def work(name, key):
            return sum(self.spans[i].work[key] for i in groups.get(name, ())
                       if self.spans[i].work and not self.spans[i].error)

        m: dict[str, float] = {}
        for name in ("geometry.pointset", "geometry.slice_tube",
                     "geometry.slice_floor_line", "geometry.box_count",
                     "finitefield.line_matrix", "generators.rect_count",
                     "cli.main"):
            m[name + ".calls"] = calls(name)
        for name in ("geometry.pointset", "geometry.slice_tube",
                     "geometry.slice_floor_line", "geometry.box_count",
                     "geometry.read_points", "geometry.write_points",
                     "geometry.validate_separation",
                     "dimension.mass_dim_profile",
                     "dimension.counting_dim_profile", "dimension.find_levels",
                     "survey.grid", "survey.mc", "survey.exception_ray_scan",
                     "finitefield.line_matrix", "finitefield.chebyshev",
                     "generators.materialize", "generators.rect_count",
                     "generators.zigzag_tube_counts", "cli.main",
                     "cli.load_set", "cli.report_json"):
            m[name + ".self_s"] = self_s(name)
        m["geometry.pointset.points"] = work("geometry.pointset", "points")
        m["geometry.pointset.used_ratio"] = (
            len(self._used) / self._n_built if self._n_built else 0.0)
        m["geometry.slice_tube.p50_ms"] = _quantile_ms(
            durations("geometry.slice_tube"), 50)
        m["geometry.slice_tube.points_out"] = work("geometry.slice_tube",
                                                   "points_out")
        m["geometry.slice_floor_line.p50_ms"] = _quantile_ms(
            durations("geometry.slice_floor_line"), 50)
        spanned = work("geometry.slice_floor_line", "cols_spanned")
        m["geometry.slice_floor_line.col_occupancy"] = (
            work("geometry.slice_floor_line", "cols_occupied") / spanned
            if spanned else 0.0)
        m["geometry.read_points.points"] = work("geometry.read_points", "points")
        m["dimension.mass_dim_profile.boxes"] = work("dimension.mass_dim_profile",
                                                     "boxes")
        m["dimension.counting_dim_profile.cells"] = work(
            "dimension.counting_dim_profile", "cells")
        m["survey.grid.row_point_merges"] = work("survey.grid", "row_point_merges")
        m["survey.mc.row_point_scans"] = work("survey.mc", "row_point_scans")
        incidences = work("finitefield.line_matrix", "incidences")
        line_s = m["finitefield.line_matrix.self_s"]
        m["finitefield.line_matrix.incidences"] = incidences
        m["finitefield.line_matrix.incidences_per_s"] = (
            incidences / line_s if line_s > 0 else 0.0)
        m["generators.materialize.points"] = work("generators.materialize", "points")
        m["generators.rect_count.p90_ms"] = _quantile_ms(
            durations("generators.rect_count"), 90)
        m["generators.rect_count.rows"] = work("generators.rect_count", "rows")
        m["generators.zigzag_tube_counts.levels"] = work(
            "generators.zigzag_tube_counts", "levels")
        for mod in MODULES:
            m[mod + ".errors"] = sum(1 for s in self.spans
                                     if s.error and s.name.startswith(mod + "."))
        m["trace.spans"] = len(self.spans)
        return m


# ---------------------------------------------------------------------------
# Entry points and their work counters
# ---------------------------------------------------------------------------

def _pointset_work(tr, args, kwargs, result):
    tr.built(args[0])
    return {"points": len(args[0])}


def _mark_used(tr, args, kwargs, result):
    tr.used(args[0])
    return None


def _slice_tube_work(tr, args, kwargs, result):
    tr.used(args[0])
    return {"points_out": len(result)}


def _floor_line_work(tr, args, kwargs, result):
    """Occupied integer columns over the columns the walk spans."""
    ps = args[0]
    tr.used(ps)
    x_max = args[2] if len(args) > 2 else kwargs.get("x_max", math.inf)
    xs = ps.points[:, 0]
    if xs.size == 0:
        return {"cols_occupied": 0, "cols_spanned": 0}
    lo = math.floor(xs.min())
    hi = math.floor(min(float(xs.max()), x_max))
    cols = np.unique(np.floor(xs[xs <= x_max]))
    return {"cols_occupied": int(cols.size), "cols_spanned": max(0, hi - lo + 1)}


def _len_result(key):
    def work(tr, args, kwargs, result):
        return {key: len(result)}
    return work


def _materialize_work(tr, args, kwargs, result):
    ps = result[0] if isinstance(result, tuple) else result
    return {"points": len(ps)}


def _counting_work(tr, args, kwargs, result):
    """Occupied unit cells times window sizes searched."""
    ps = args[0]
    tr.used(ps)
    cells = np.unique(np.floor(ps.points), axis=0).shape[0]
    return {"cells": int(cells) * len(result.scales)}


def _survey_name(args, kwargs):
    config = args[1] if len(args) > 1 else kwargs["config"]
    return "survey.grid" if config.mode == "grid" else "survey.mc"


def _survey_work(tr, args, kwargs, result):
    config = result.config
    if config.mode == "grid":
        return {"row_point_merges": result.lattice_row_points * config.grid_u}
    return {"row_point_scans": result.lattice_row_points * config.mc_samples}


def _line_matrix_work(tr, args, kwargs, result):
    B = args[0]
    return {"incidences": B.cardinality * B.p}


def _ceil_bound(value, floor_value: int) -> int:
    return floor_value if value <= floor_value else math.ceil(value)


def _floor_bound(value, ceil_value: int) -> int:
    return ceil_value if value >= ceil_value else math.floor(value)


def swept_rows(family, x0, x1, y0, y1) -> int:
    """Rows (columns, for the parabolic staircase) a rectangle count sums,
    recomputed from the band ranges the generators document: band k of the
    cone families holds rows [2^(2^(k+1)), 2^(2^(k+1)) + 2^(2^k)); level j
    of the fixed-width cone rows [2^(2^(k0+j)), + 2^(2^(k0+j-1))); the
    parabolic staircase has one column at x = m^2 per m <= m_max."""
    name = type(family).__name__
    if name == "ParabolicStaircase":
        if x1 < 1 or y1 < 0 or x1 < x0 or y1 < y0:
            return 0
        m_lo = 1 if x0 <= 1 else math.isqrt(math.ceil(x0) - 1) + 1
        m_hi = min(family.m_max, math.isqrt(_floor_bound(x1, family.m_max ** 2)))
        return max(0, m_hi - m_lo + 1)
    if name == "ConeFixedWidth":
        bands = [(1 << (1 << (family.k0 + j)),
                  (1 << (1 << (family.k0 + j))) + (1 << (1 << (family.k0 + j - 1))))
                 for j in range(1, family.n_levels + 1)]
    else:
        k_min = getattr(family, "k_min", 0)
        bands = [(1 << (1 << (k + 1)), (1 << (1 << (k + 1))) + (1 << (1 << k)))
                 for k in range(k_min, family.k_max + 1)]
    rows = 0
    for lo, hi in bands:
        if y1 < lo:
            break
        r_lo = _ceil_bound(y0, lo)
        r_hi = min(hi - 1, _floor_bound(y1, hi - 1))
        rows += max(0, r_hi - r_lo + 1)
    return rows


def _rect_count_work(tr, args, kwargs, result):
    return {"rows": swept_rows(*args)}


def entry_points(pkg):
    """(span name, owner, attribute, work counter) for every traced entry."""
    g, d, s = pkg.geometry, pkg.dimension, pkg.survey
    ff, gen, cli = pkg.finitefield, pkg.generators, pkg.cli
    implicit = (gen.ConeAnnuli, gen.ConeStaircase, gen.ConeFixedWidth,
                gen.ParabolicStaircase)
    return [
        ("geometry.pointset", g.PointSet, "__init__", _pointset_work),
        ("geometry.box_count", g.PointSet, "box_count", None),
        ("geometry.contains", g.PointSet, "contains", _mark_used),
        ("geometry.cell_arrays", g.PointSet, "cell_arrays", _mark_used),
        ("geometry.slice_tube", g, "slice_tube", _slice_tube_work),
        ("geometry.slice_floor_line", g, "slice_floor_line", _floor_line_work),
        ("geometry.read_points", g, "read_points", _len_result("points")),
        ("geometry.write_points", g, "write_points", None),
        ("geometry.validate_separation", g, "validate_separation", None),
        ("dimension.mass_dim_profile", d, "mass_dim_profile",
         lambda tr, a, k, r: {"boxes": len(r.scales)}),
        ("dimension.counting_dim_profile", d, "counting_dim_profile",
         _counting_work),
        ("dimension.find_levels", d, "find_levels", None),
        (_survey_name, s, "survey_floor_lines", _survey_work),
        ("survey.exception_ray_scan", s, "exception_ray_scan", None),
        ("finitefield.line_matrix", ff, "ff_line_count_matrix", _line_matrix_work),
        ("finitefield.chebyshev", ff, "ff_chebyshev_fraction", None),
        *[("generators.materialize", cls, "materialize", _materialize_work)
          for cls in implicit],
        *[("generators.materialize", gen, fn, _materialize_work)
          for fn in ("gen_random_dimension", "gen_cartesian", "gen_unit_line",
                     "gen_zigzag")],
        *[("generators.rect_count", cls, "rect_count", _rect_count_work)
          for cls in implicit],
        ("generators.zigzag_tube_counts", gen, "zigzag_tube_counts",
         lambda tr, a, k, r: {"levels": len(r[1])}),
        ("cli.main", cli, "main", None),
        ("cli.load_set", cli, "load_set", None),
        ("cli.report_json", cli.Report, "to_json", None),
    ]
