"""Differential property tests for the implicit families.

``rect_count`` of every implicit family is compared with a row sweep written
here from the documented row spans, never from the package's own band code:

* ``ConeAnnuli``: band k holds rows [2^(2^(k+1)), 2^(2^(k+1)) + 2^(2^k)),
  each filled across |x| <= y tan(theta/2);
* ``ConeStaircase``: the same bands, band k filled over the slope interval
  [sigma_k, sigma_k + theta/2^(2^k)) with sigma_k the sum of the earlier
  widths;
* ``ConeFixedWidth``: level j holds rows [2^(2^(k0+j)), + 2^(2^(k0+j-1)))
  filled over [(j-1) w, j w), w = theta/2^(2^k0);
* ``ParabolicStaircase``: column x = m^2 holds rows 0..m-1.

Small families are swept whole; deep bands (rows near 2^64 and 2^128, where
counts pass 2^64) are swept over windows of up to 10^4 rows.  Rectangles mix
infinite, fractional and reversed bounds with bounds placed on the row spans
so that column clamps start to bind inside the swept rows.  Implicit
``box_count`` is also compared with the materialized set, and the band totals
too large to sweep are pinned.
"""
import functools
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from latslice import generators as gen
from latslice.geometry import BoxSpec

SETTINGS = settings(max_examples=120, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
RECT_SETTINGS = settings(SETTINGS, max_examples=500)
DEEP_SETTINGS = settings(SETTINGS, max_examples=60)


# ---------------------------------------------------------------------------
# The documented row spans and a naive sweep over them
# ---------------------------------------------------------------------------

def documented_bands(fam):
    """(first row, end row, span) per band in row order; span(y) is the
    inclusive integer column range of row y, which may be empty."""
    if isinstance(fam, gen.ConeAnnuli):
        half = Fraction(math.tan(fam.theta / 2))
        for k in range(fam.k_min, fam.k_max + 1):
            lo = 2 ** 2 ** (k + 1)
            yield (lo, lo + 2 ** 2 ** k,
                   lambda y: (-math.floor(y * half), math.floor(y * half)))
    elif isinstance(fam, gen.ConeStaircase):
        sigma = Fraction(0)
        for k in range(fam.k_max + 1):
            w = Fraction(fam.theta) / 2 ** 2 ** k
            lo = 2 ** 2 ** (k + 1)
            yield (lo, lo + 2 ** 2 ** k,
                   lambda y, a=sigma, b=sigma + w:
                   (math.ceil(y * a), math.ceil(y * b) - 1))
            sigma += w
    else:
        w = Fraction(fam.theta) / 2 ** 2 ** fam.k0
        for j in range(1, fam.n_levels + 1):
            lo = 2 ** 2 ** (fam.k0 + j)
            yield (lo, lo + 2 ** 2 ** (fam.k0 + j - 1),
                   lambda y, j=j: (math.ceil(y * (j - 1) * w),
                                   math.ceil(y * j * w) - 1))


def clip_span(a: int, b: int, lo, hi) -> int:
    """Integers in [a, b] that also lie in the closed interval [lo, hi]."""
    if lo > a:
        if lo > b:
            return 0
        a = math.ceil(lo)
    if hi < b:
        if hi < a:
            return 0
        b = math.floor(hi)
    return max(0, b - a + 1)


def naive_rect_count(fam, x0, x1, y0, y1) -> int:
    """Row-by-row count over the documented spans; sweeps every row of the
    rectangle that lies in a band, so callers keep that number small."""
    if isinstance(fam, gen.ParabolicStaircase):
        return sum(clip_span(0, m - 1, y0, y1)
                   for m in range(1, fam.m_max + 1) if x0 <= m * m <= x1)
    total = 0
    for lo, hi, span in documented_bands(fam):
        if y1 < lo:
            break
        if y0 > hi - 1:
            continue
        first = lo if y0 <= lo else math.ceil(y0)
        last = hi - 1 if y1 >= hi - 1 else math.floor(y1)
        for y in range(first, last + 1):
            total += clip_span(*span(y), x0, x1)
    return total


# ---------------------------------------------------------------------------
# Rectangles
# ---------------------------------------------------------------------------

INFINITIES = (-math.inf, math.inf)
OFFSETS = st.one_of(st.integers(-3, 3),
                    st.sampled_from((-0.5, 0.25, 0.5, 0.75, -1e-9, 1e-9)))


def nudge(anchor: int, offset):
    """anchor + offset, as a float where that is exact and as a Fraction
    past 2^53, where a float would round the bound by whole rows."""
    return anchor + offset if abs(anchor) < 2 ** 53 else anchor + Fraction(offset)


@st.composite
def bound(draw, anchors, spread):
    """A rectangle bound: mostly an anchor nudged by a small integer or
    fraction, else an infinity or a free integer or float within +-spread."""
    kind = draw(st.sampled_from(("anchor", "anchor", "anchor", "inf", "free")))
    if kind == "anchor":
        return nudge(draw(st.sampled_from(anchors)), draw(OFFSETS))
    if kind == "inf":
        return draw(st.sampled_from(INFINITIES))
    return draw(st.one_of(st.integers(-spread, spread),
                          st.floats(-spread, spread, allow_nan=False)))


@st.composite
def rectangles(draw, bands, spread):
    """(x0, x1, y0, y1) anchored on rows of ``bands`` and on their spans at
    the first, last and two drawn rows, so clamps start to bind mid-band."""
    lo, hi, span = draw(st.sampled_from(bands))
    refs = [draw(st.integers(lo, hi - 1)) for _ in range(2)]
    rows = [lo - 1, lo, hi - 1, hi, *refs]
    cols = [c for y in (lo, *refs, hi - 1) for c in span(y)]
    x0, x1 = (draw(bound(cols, spread)),
              draw(bound(cols, spread)))
    y0, y1 = (draw(bound(rows, spread)),
              draw(bound(rows, spread)))
    if draw(st.integers(0, 3)) == 0:
        x0, x1 = x1, x0
    if draw(st.integers(0, 7)) == 0:
        y0, y1 = y1, y0
    return x0, x1, y0, y1


# Families whose bands have few enough rows (at most 2^8 each) to sweep whole.
thetas = st.floats(0.01, 0.99)
small_families = st.one_of(
    st.builds(lambda t, ks: gen.ConeAnnuli(t * math.pi / 2, min(ks), max(ks)),
              thetas, st.tuples(st.integers(0, 3), st.integers(0, 3))),
    st.builds(gen.ConeStaircase, thetas, st.integers(0, 3)),
    st.builds(gen.ConeFixedWidth, thetas, st.just(0)),
    st.builds(gen.ConeFixedWidth, thetas, st.just(1), st.integers(1, 3)),
    st.builds(gen.ConeFixedWidth, thetas, st.just(2), st.integers(1, 2)))


@RECT_SETTINGS
@given(small_families, st.data())
def test_cone_rect_count_matches_row_sweep(fam, data):
    bands = list(documented_bands(fam))
    x0, x1, y0, y1 = data.draw(rectangles(bands, 2 ** 17))
    assert fam.rect_count(x0, x1, y0, y1) == naive_rect_count(fam, x0, x1, y0, y1)


@SETTINGS
@given(st.integers(1, 40), st.data())
def test_parabolic_rect_count_matches_column_sweep(m_max, data):
    fam = gen.ParabolicStaircase(m_max)
    cols = [m * m for m in (1, m_max // 2 + 1, m_max)]
    rows = [0, m_max // 2, m_max - 1, m_max]
    x0, x1 = (data.draw(bound(cols, 2000)),
              data.draw(bound(cols, 2000)))
    y0, y1 = (data.draw(bound(rows, 60)),
              data.draw(bound(rows, 60)))
    if data.draw(st.booleans()):
        x0, x1, y0, y1 = x1, x0, y1, y0
    assert fam.rect_count(x0, x1, y0, y1) == naive_rect_count(fam, x0, x1, y0, y1)


# ---------------------------------------------------------------------------
# Deep bands: row windows where counts pass 2^64
# ---------------------------------------------------------------------------

DEEP = {
    "staircase": gen.ConeStaircase(0.5, 6),
    "annuli": gen.ConeAnnuli(0.7, 0, 6),
    "fixed_width": gen.ConeFixedWidth(0.5, 1),
    "fixed_width_deep": gen.ConeFixedWidth(0.3, 2, n_levels=5),
}


@DEEP_SETTINGS
@given(st.sampled_from(sorted(DEEP)), st.data())
def test_deep_band_windows_match_row_sweep(name, data):
    fam = DEEP[name]
    bands = [b for b in documented_bands(fam) if b[1] - b[0] >= 2 ** 16]
    lo, hi, span = data.draw(st.sampled_from(bands))
    # a window of up to 10^4 rows, sometimes crossing the band's first or
    # last row
    start = data.draw(st.one_of(st.integers(lo - 50, lo + 50),
                                st.integers(lo, hi - 1),
                                st.integers(hi - 10_000, hi + 50)))
    y0 = nudge(start, data.draw(st.sampled_from((0, -0.5, 0.25))))
    y1 = nudge(start + data.draw(st.integers(0, 10_000)),
               data.draw(st.sampled_from((0, 0.5, -0.25))))
    mid = min(max(start + 5_000, lo), hi - 1)
    cols = [c for y in (max(start, lo), mid, min(start + 10_000, hi - 1))
            for c in span(y)]
    x0 = data.draw(bound(cols, 1))
    x1 = data.draw(bound(cols, 1))
    want = naive_rect_count(fam, x0, x1, y0, y1)
    assert fam.rect_count(x0, x1, y0, y1) == want


def test_deep_band_window_counts_exceed_int64():
    fam = DEEP["staircase"]
    lo = 2 ** 2 ** 7                    # first row of band 6
    want = naive_rect_count(fam, -math.inf, math.inf, lo, lo + 9_999)
    assert want > 2 ** 64
    assert fam.rect_count(-math.inf, math.inf, lo, lo + 9_999) == want


@SETTINGS
@given(st.one_of(small_families, st.sampled_from(list(DEEP.values()))), st.data())
def test_cone_contains_matches_documented_spans(fam, data):
    lo, hi, span = data.draw(st.sampled_from(list(documented_bands(fam))))
    y = data.draw(st.sampled_from((lo - 1, lo, hi - 1, hi))
                  | st.integers(lo, hi - 1))
    a, b = span(min(max(y, lo), hi - 1))
    x = data.draw(st.sampled_from((a - 1, a, b, b + 1)) | st.integers(a - 2, b + 2))
    want = lo <= y < hi and a <= x <= b
    assert fam.contains(x, y) == want
    if abs(x) < 2 ** 53 and abs(y) < 2 ** 53:
        assert fam.contains(float(x), float(y)) == want
        assert not fam.contains(x + 0.5, y)


# ---------------------------------------------------------------------------
# Implicit against materialized
# ---------------------------------------------------------------------------

MATERIALIZABLE = {
    "annuli": gen.ConeAnnuli(0.3, 0, 2),
    "annuli_k_min": gen.ConeAnnuli(1.1, 1, 2),
    "staircase": gen.ConeStaircase(0.37, 3),
    "fixed_width": gen.ConeFixedWidth(0.5, 1, n_levels=2),
    "fixed_width_k0": gen.ConeFixedWidth(0.9, 0),
    "parabolic": gen.ParabolicStaircase(64),
}


@functools.cache
def materialized(name):
    return MATERIALIZABLE[name].materialize()


@SETTINGS
@given(st.sampled_from(sorted(MATERIALIZABLE)),
       st.sampled_from(("first_quadrant", "centered")),
       st.one_of(st.integers(0, 70_000).map(float),
                 st.floats(0.0, 70_000.0),
                 st.sampled_from((3.5, 4.0, 16.0, 255.0, 271.0, 4096.0,
                                  65536.0, 65791.0))))
def test_implicit_box_count_matches_materialized(name, kind, size):
    box = BoxSpec(kind, size)
    assert MATERIALIZABLE[name].box_count(box) == materialized(name).box_count(box)


def test_implicit_totals_match_materialized():
    for name, fam in MATERIALIZABLE.items():
        assert fam.rect_count(-math.inf, math.inf, -math.inf, math.inf) \
            == len(materialized(name))


# ---------------------------------------------------------------------------
# The box protocol shared by the four families
# ---------------------------------------------------------------------------

FAMILIES = {
    "annuli": gen.ConeAnnuli(0.3, 0, 3),
    "staircase": gen.ConeStaircase(0.5, 4),
    "fixed_width": gen.ConeFixedWidth(0.5, 1),
    "parabolic": gen.ParabolicStaircase(1000),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("size", [0.0, 2.5, 300.0, 70_000.0, 2.0 ** 40])
def test_box_count_is_the_axis_rect_count(name, size):
    fam = FAMILIES[name]
    assert fam.box_count(BoxSpec("first_quadrant", size)) \
        == fam.rect_count(0.0, size, 0.0, size)
    assert fam.box_count(BoxSpec("centered", size)) \
        == fam.rect_count(-size, size, -size, size)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_slanted_box_needs_a_materialized_set(name):
    with pytest.raises(NotImplementedError, match="slanted"):
        FAMILIES[name].box_count(BoxSpec("slanted", 10.0, u=1.0))


def test_parabolic_staircase_checks_m_max():
    with pytest.raises(ValueError, match="m_max must be >= 1"):
        gen.ParabolicStaircase(0)


# ---------------------------------------------------------------------------
# Band totals too large to sweep, pinned
# ---------------------------------------------------------------------------
#
# Derived independently of the package by a floor sum over the documented
# row spans (the same figures gate the benchmark's implicit workload).

def test_staircase_band4_pinned():
    with_band4, without = gen.ConeStaircase(0.5, 4), gen.ConeStaircase(0.5, 3)
    for scale, want in ((2 ** 32, 32768), (2 ** 33, 2147500099)):
        box = BoxSpec("first_quadrant", float(scale))
        assert with_band4.box_count(box) - without.box_count(box) == want


def test_annuli_bands_3_4_pinned():
    cone = gen.ConeAnnuli(0.3, 3, 4)
    for scale, want in ((2 ** 16, 19809), (2 ** 17, 5081124),
                        (2 ** 32, 5081124 + 1298241637),
                        (2 ** 33, 5081124 + 85082213077152)):
        assert cone.box_count(BoxSpec("centered", float(scale))) == want


def test_fixed_width_levels_3_4_pinned():
    cone = gen.ConeFixedWidth(0.5, 1)
    assert cone.level_count(3) == 2101248
    assert cone.level_count(4) == 35184640507904
