"""A stateful test of ``PointSet``'s lazy paths.

A ``PointSet`` answers the same question by different paths depending on
what it was asked before: its first slice scans every point and later
slices read the index the second one builds, ``box_count`` sorts and keeps
one key array per box kind, and ``mass_dim_profile`` sorts keys of its own.
A bug that depends on the order of calls (a cache filled by one path and
read by another, an in-place sort of a shared array) shows only under some
orders.  The machine below keeps one shared set, asks it the queries in the
orders hypothesis draws, and asks each query of a fresh copy too: every
answer must be the same, and the bytes of the shared set's points must
never change.
"""
import dataclasses
import math
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from latslice.dimension import counting_dim_profile, dyadic_scales, mass_dim_profile
from latslice.generators import gen_parabolic_staircase
from latslice.geometry import (BoxSpec, FloorLine, PointSet, Tube, read_points,
                               slice_floor_line, slice_tube, validate_separation,
                               write_points)
from latslice.survey import SurveyConfig, survey_floor_lines

integer_sets = st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
                        min_size=1, max_size=60).map(
    lambda pairs: np.array(pairs, dtype=float))
quarter_sets = st.lists(st.tuples(st.integers(-80, 80), st.integers(-80, 80)),
                        min_size=1, max_size=60).map(
    lambda pairs: np.array(pairs, dtype=float) * 0.25)
staircases = st.integers(1, 12).map(lambda m: gen_parabolic_staircase(m).points)

slopes = st.one_of(st.builds(lambda e, s: s * 10.0 ** e, st.floats(-2.0, 2.0),
                             st.sampled_from((-1.0, 1.0))),
                   st.just(math.inf))
offsets = st.floats(-30.0, 30.0, allow_nan=False)
kinds = st.sampled_from(("first_quadrant", "centered", "slanted"))


def answer(value):
    """``value`` as nested tuples that compare equal exactly when the
    answers are the same: arrays by dtype, shape and bytes, floats by
    ``repr`` (so nan equals nan and -0.0 differs from 0.0)."""
    if dataclasses.is_dataclass(value):
        return tuple(answer(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (tuple, list)):
        return tuple(answer(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return value


class PointSetMachine(RuleBasedStateMachine):
    """One shared set queried in any order, each answer checked against
    the same query on a fresh copy of its points."""

    @initialize(pts=st.one_of(integer_sets, quarter_sets, staircases))
    def build(self, pts):
        self.pts = pts
        self.ps = PointSet(pts)
        self.frozen = self.ps.points.tobytes()

    def same(self, query):
        assert answer(query(self.ps)) == answer(query(PointSet(self.pts)))

    @rule(u=slopes, v=offsets, on_point=st.booleans())
    def tube(self, u, v, on_point):
        tube = Tube(u, v)
        if on_point:
            # the tube's upper edge through a set point: a closed-edge tie
            x, y = self.pts[0]
            tube = Tube(u, float(tube.perp_coord(x, y)) - 1.0)
        self.same(lambda ps: slice_tube(ps, tube).points)

    @rule(u=st.floats(0.01, 10.0), v=st.floats(0.0, 5.0),
          x_max=st.one_of(st.none(), st.floats(0.25, 200.0)))
    def floor_line(self, u, v, x_max):
        line = FloorLine(u, v)
        if x_max is None:
            self.same(lambda ps: slice_floor_line(ps, line))
        else:
            self.same(lambda ps: slice_floor_line(ps, line, x_max))

    @rule(kind=kinds, size=st.floats(0.0, 50.0), u=st.floats(0.1, 5.0))
    def box(self, kind, size, u):
        box = BoxSpec(kind, size, u if kind == "slanted" else None)
        self.same(lambda ps: ps.box_count(box))

    @rule(kind=kinds, u=st.floats(-5.0, -0.1))
    def mass_profile(self, kind, u):
        self.same(lambda ps: mass_dim_profile(
            ps, kind=kind, u=u if kind == "slanted" else None))

    @rule()
    def counting_profile(self):
        x0, y0, x1, y1 = self.ps.bbox
        sizes = dyadic_scales(max(x1 - x0, y1 - y0))     # up to the extent
        self.same(lambda ps: counting_dim_profile(ps, window_sizes=sizes))

    @rule()
    def cells(self):
        self.same(lambda ps: ps.cell_ranks())

    @rule(n_side=st.integers(2, 150), m_range=st.sampled_from((4.0, 16.0)),
          mode=st.sampled_from(("grid", "mc")), seed=st.integers(0, 3))
    def survey(self, n_side, m_range, mode, seed):
        config = SurveyConfig(n_side=n_side, m_range=m_range, mode=mode,
                              grid_u=8, grid_v=8, mc_samples=64, seed=seed)
        self.same(lambda ps: survey_floor_lines(ps, config, store_counts=True))

    @rule()
    def separation(self):
        self.same(validate_separation)

    @rule()
    def round_trip(self):
        def written(ps):
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "pts.txt")
                write_points(ps, path)
                with open(path, encoding="utf-8") as fh:
                    return fh.read(), read_points(path).points
        self.same(written)

    @invariant()
    def points_unchanged(self):
        assert self.ps.points.tobytes() == self.frozen


PointSetMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestPointSetState = PointSetMachine.TestCase
