"""The exact primitives against plain ``int`` and ``Fraction`` arithmetic,
and the budget refusals against the memory they allocate."""
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latslice import dimension, finitefield, survey
from latslice import generators as gen
from latslice.exact import (MAX_MATERIALIZE_POINTS, InputError,
                            Int64RangeError, MaterializeError, as_int,
                            as_int64, at_least_one_apart, floor_root,
                            floor_sum, positive_int64, refuse_past_budget,
                            require_int)
from latslice.geometry import PointSet

SETTINGS = settings(max_examples=300, deadline=None)


def _at_most(r: int, c: int, q: int) -> bool:
    """r <= c * sqrt(q), by comparing squares with their signs."""
    if c >= 0:
        return r < 0 or r * r <= c * c * q
    return r <= 0 and r * r >= c * c * q


@SETTINGS
@given(st.integers(-10 ** 30, 10 ** 30), st.integers(0, 10 ** 12))
def test_floor_root_brackets_c_sqrt_q(c, q):
    r = floor_root(c, q)
    assert _at_most(r, c, q) and not _at_most(r + 1, c, q)


@pytest.mark.parametrize("c, q, r", [(3, 4, 6), (-3, 4, -6), (-1, 2, -2),
                                     (1, 2, 1), (0, 7, 0), (-5, 0, 0)])
def test_floor_root_at_perfect_squares_and_signs(c, q, r):
    assert floor_root(c, q) == r


@SETTINGS
@given(st.integers(0, 60), st.integers(1, 60),
       st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6))
def test_floor_sum_is_the_direct_loop(n, m, a, b):
    assert floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def _exact_int(x):
    """The integer x is, by Fraction, or None."""
    if isinstance(x, (float, np.floating)) and not math.isfinite(x):
        return None
    if isinstance(x, Decimal) and not x.is_finite():
        return None
    ratio = Fraction(float(x) if isinstance(x, np.floating) else x)
    return int(ratio) if ratio.denominator == 1 else None


finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.floats(width=16, allow_nan=False, allow_infinity=False).map(np.float16),
    st.fractions(max_denominator=8),
    st.decimals(allow_nan=False, allow_infinity=False, places=2),
    st.integers(-10 ** 30, 10 ** 30).map(lambda i: float(i) + 0.0))


@SETTINGS
@given(finite)
def test_as_int_is_an_integral_fraction(x):
    assert as_int(x) == _exact_int(x)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, np.float16("inf"),
                               np.float32("nan"), Decimal("NaN"),
                               Decimal("-Infinity"), "3", None])
def test_as_int_refuses_what_is_not_a_finite_number(x):
    assert as_int(x) is None


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
def test_a_bool_is_not_an_integer(flag):
    assert as_int(flag) is None
    with pytest.raises(ValueError, match=f"^count={flag!r} is not an integer$"):
        require_int(flag, "count")


def test_as_int64_at_the_ends_of_int64():
    low = as_int64(np.array([-2.0 ** 63, 0.0, 2.0 ** 63 - 1024]))
    assert low.tolist() == [-2 ** 63, 0, 2 ** 63 - 1024]
    for bad in (2.0 ** 63, -2.0 ** 63 - 2048, math.inf, -math.inf):
        with pytest.raises(Int64RangeError) as caught:
            as_int64(np.array([0.0, bad]))
        assert isinstance(caught.value, InputError)
        assert isinstance(caught.value, OverflowError)
    assert as_int64(np.empty(0)).dtype == np.int64


@pytest.mark.parametrize("values", [[1, 2 ** 63 - 1], [3.0, 1.0], np.array([7])])
def test_positive_int64_keeps_each_value(values):
    out = positive_int64(values, "refused")
    assert out.dtype == np.int64 and out.tolist() == [int(v) for v in values]


@pytest.mark.parametrize("values", [[0], [-1], [1.5], [math.nan], [math.inf],
                                    [2 ** 63], [2 ** 64], ["x"], [None], [3, None]])
def test_positive_int64_refuses_a_changed_value(values):
    with pytest.raises(ValueError, match="refused"):
        positive_int64(values, "refused")


def _unit_near(draw):
    """A float point and one at float distance about 1 from it, nudged by a
    few ulps either way so both sides of 1 are drawn."""
    xa = draw(st.floats(-1e6, 1e6))
    ya = draw(st.floats(-1e6, 1e6))
    angle = draw(st.floats(0.0, 2 * math.pi))
    nudge = draw(st.integers(-4, 4))
    xb = xa + math.cos(angle)
    yb = ya + math.sin(angle)
    for _ in range(abs(nudge)):
        xb = math.nextafter(xb, math.copysign(math.inf, nudge * (xb - xa)))
    return (xa, ya), (xb, yb)


pairs = st.one_of(
    st.composite(_unit_near)(),
    st.tuples(st.tuples(st.floats(-4, 4), st.floats(-4, 4)),
              st.tuples(st.floats(-4, 4), st.floats(-4, 4))))


@SETTINGS
@given(pairs)
def test_at_least_one_apart_is_the_fraction_distance(pair):
    (xa, ya), (xb, yb) = pair
    dx = Fraction(*xb.as_integer_ratio()) - Fraction(*xa.as_integer_ratio())
    dy = Fraction(*yb.as_integer_ratio()) - Fraction(*ya.as_integer_ratio())
    assert at_least_one_apart(*pair) == (dx * dx + dy * dy >= 1)


def test_at_least_one_apart_at_exact_unit_distance():
    assert at_least_one_apart((0.0, 0.0), (1.0, 0.0)) is True
    assert at_least_one_apart((0.5, 0.25), (1.5, 0.25)) is True
    assert at_least_one_apart((0.0, 0.0), (math.nextafter(1.0, 0.0), 0.0)) is False


def test_refuse_past_budget_names_the_cap_and_the_hint():
    refuse_past_budget(MAX_MATERIALIZE_POINTS, "at the cap")
    with pytest.raises(MaterializeError) as caught:
        refuse_past_budget(MAX_MATERIALIZE_POINTS + 1, "one past", "advice")
    assert str(caught.value) == \
        f"one past; the cap is {MAX_MATERIALIZE_POINTS} (advice)"
    with pytest.raises(MaterializeError, match=r"^inf; the cap is \d+$"):
        refuse_past_budget(math.inf, "inf")
    assert issubclass(MaterializeError, InputError)


CAP = f"the cap is {MAX_MATERIALIZE_POINTS}"
FAR = PointSet([[1.0, 0.5], [1e12, 0.5]])
GRID = PointSet([[0.0, 0.0], [1.0, 1.0]])
FF_4481 = f"the grid of F_p^2 for p=4481 holds 20079361 cells; {CAP}"


# every allocation whose size a caller chooses, with its refusal's message
@pytest.mark.parametrize("refuse, message", [
    (lambda: gen.gen_unit_line(1.0, 10 ** 10),
     f"unit line with count=10000000000 holds 10000000000 points; {CAP}"),
    (lambda: gen.ParabolicStaircase(10 ** 4).materialize(),
     f"parabolic staircase with m_max=10000 holds 50005000 points; {CAP}"),
    (lambda: gen.gen_zigzag(0.2, 60),
     f"zigzag to level 60 holds about 240146307065 points; {CAP} "
     "(use zigzag_tube_counts for tube statistics at this depth)"),
    (lambda: gen.ConeStaircase(0.5, 4).materialize(),
     f"ConeStaircase(theta=0.5, k_max=4) holds about 2.15e+09 points; {CAP} "
     "(use the implicit set for counts)"),
    (lambda: gen.gen_cartesian(np.arange(5000), np.arange(5000)),
     f"product holds 25000000 points; {CAP}"),
    (lambda: gen.gen_random_dimension(2.0, 2 ** 16, seed=0),
     f"expected about 4.29e+09 points; {CAP} (lower alpha or l_max)"),
    (lambda: dimension.find_levels(FAR, math.inf,
                                   dimension.LevelSearchConfig(0.0, 1.0, 10 ** 12)),
     f"level search would scan 1000000000000 levels; {CAP} (lower search_bound)"),
    (lambda: finitefield.FiniteFieldSet.full(10007),
     f"the grid of F_p^2 for p=10007 holds 100140049 cells; {CAP}"),
    (lambda: finitefield.FiniteFieldSet.random(4481, 0.01, 1), FF_4481),
    (lambda: finitefield.FiniteFieldSet.from_points(4481, []), FF_4481),
    (lambda: finitefield.FiniteFieldSet.from_product(4481, [0], [0]), FF_4481),
    (lambda: finitefield.ff_line_points(4481, 0, 0), FF_4481),
    (lambda: survey.SurveyConfig(n_side=8, m_range=4.0, grid_u=100_000,
                                 grid_v=100_000),
     f"survey grid 100000x100000 holds 10000000000 cells; {CAP}"),
    (lambda: survey.SurveyConfig(n_side=8, m_range=4.0, mode="mc",
                                 mc_samples=10 ** 10),
     f"mc survey of 10000000000 samples; {CAP}"),
    (lambda: survey.exception_ray_scan(GRID, 0.3, (1.0, 2.0), 10 ** 10, 0.5),
     f"exception ray scan of 10000000000 slope samples; {CAP}"),
], ids=["unit_line", "parabolic", "zigzag", "bands", "cartesian",
        "random_dimension", "find_levels", "ff_full", "ff_random",
        "ff_from_points", "ff_from_product", "ff_line_points", "survey_grid",
        "survey_mc", "ray_scan"])
def test_budget_refusals_allocate_nothing_first(refuse, message):
    with pytest.raises(MaterializeError):
        refuse()            # numpy's first calls set up caches; not counted
    tracemalloc.start()
    try:
        with pytest.raises(MaterializeError) as caught:
            refuse()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(caught.value) == message
    assert peak < 1 << 20
