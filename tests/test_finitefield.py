"""Tests for exact line counting over prime fields."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from latslice import dimension as dim
from latslice import finitefield as ff
from latslice.exact import MaterializeError


def as_set(arr):
    return set(map(tuple, arr.tolist()))


# ---------------------------------------------------------------------------
# Lines and constructors
# ---------------------------------------------------------------------------

def test_line_points_horizontal():
    pts = ff.ff_line_points(3, 0, 1)
    assert as_set(pts) == {(0, 1), (1, 1), (2, 1)}


def test_line_points_diagonal():
    pts = ff.ff_line_points(5, 1, 0)
    assert as_set(pts) == {(x, x) for x in range(5)}


def test_line_points_modular_oracle():
    pts = ff.ff_line_points(7, 3, 2)
    assert as_set(pts) == {(x, (3 * x + 2) % 7) for x in range(7)}
    assert len(pts) == 7                    # one point per column, always


def test_line_params_reduced_mod_p():
    a = ff.ff_line_points(7, 3, 2)
    b = ff.ff_line_points(7, 10, 9)
    assert as_set(a) == as_set(b)


def test_is_prime():
    assert [ff.is_prime(n) for n in (2, 3, 4, 9, 17, 21, 97, 1)] == \
        [True, True, False, False, True, False, True, False]


def test_non_prime_modulus_rejected():
    with pytest.raises(ValueError):
        ff.FiniteFieldSet.full(9)
    with pytest.raises(ValueError):
        ff.ff_line_points(4, 1, 0)


def test_non_integer_modulus_is_refused_not_truncated():
    with pytest.raises(ValueError, match=r"p=7\.9 is not an integer"):
        ff.FiniteFieldSet.full(7.9)
    assert ff.FiniteFieldSet.full(7.0).p == 7


def test_modulus_below_two_is_not_prime_before_the_budget():
    for p in (-5000, -7, 0, 1):
        with pytest.raises(ValueError, match=rf"p={p} is not prime") as err:
            ff.FiniteFieldSet.full(p)
        assert not isinstance(err.value, MaterializeError)


def test_from_points_deduplicates_and_checks_range():
    b = ff.FiniteFieldSet.from_points(5, [(1, 2), (1, 2), (0, 4)])
    assert b.cardinality == 2
    assert as_set(np.argwhere(b.grid)) == {(1, 2), (0, 4)}
    with pytest.raises(ValueError):
        ff.FiniteFieldSet.from_points(5, [(6, 7)])
    # the message names the first point outside, as given
    with pytest.raises(ValueError, match=r"point \(-1, 0\) outside \[0, 5\)\^2"):
        ff.FiniteFieldSet.from_points(5, [(1, 2), (-1, 0), (9, 9)])
    with pytest.raises(ValueError, match=rf"point \(4, {2 ** 70}\) outside"):
        ff.FiniteFieldSet.from_points(5, [(4, 2 ** 70)])
    grid = ff.FiniteFieldSet.from_points(5, np.array([[4, 0], [0, 4]])).grid
    assert grid[4, 0] and grid[0, 4] and grid.sum() == 2


@pytest.mark.parametrize("pairs, named", [
    ([(3.5, 1)], r"\(3\.5, 1\)"), ([(1, 2), (2, 0.25)], r"\(2, 0\.25\)"),
    (np.array([[1.0, 2.0], [4.0, np.nan]]), r"\(4, nan\)"),
    ([(math.inf, 1)], r"\(inf, 1\)"),
], ids=["half", "second-pair", "nan", "inf"])
def test_from_points_refuses_non_integer_coordinates(pairs, named):
    # a cast to int64 would keep (3.5, 1) as the point (3, 1)
    with pytest.raises(ValueError, match=rf"point {named} has a non-integer coordinate"):
        ff.FiniteFieldSet.from_points(7, pairs)


FIVE = ff.FiniteFieldSet.full(5)


@pytest.mark.parametrize("call, named", [
    (lambda: ff.FiniteFieldSet.from_product(5, xs=[2.5], ys=[0]), "xs entry 2.5"),
    (lambda: ff.FiniteFieldSet.from_product(5, xs=[0], ys=[1, "x"]), "ys entry 'x'"),
    (lambda: ff.ff_affine_intersection(5, [2.5], [0.4], 1, 2), "A entry 2.5"),
    (lambda: ff.ff_affine_intersection(5, [2], [math.nan], 1, 2), "B entry nan"),
    (lambda: ff.ff_affine_intersection(5, [2], [1], 1.5, 2), "line parameter 1.5"),
    (lambda: ff.ff_slice_count(FIVE, 2.5, 0), "line parameter 2.5"),
    (lambda: ff.ff_line_points(5, 0, math.inf), "line parameter inf"),
], ids=["product-xs", "product-ys", "affine-A", "affine-B", "affine-u",
        "slice-u", "line-v"])
def test_non_integer_entries_and_line_parameters_are_refused(call, named):
    # a cast to int64 would read 2.5 as 2
    with pytest.raises(ValueError, match=rf"^{named} is not an integer$"):
        call()


def test_integer_entries_and_line_parameters_are_read_mod_p():
    big = 5 * 2 ** 70 + 3
    prod = ff.FiniteFieldSet.from_product(5, xs=[7, 2.0], ys=[-1, np.int64(big % 5)])
    assert as_set(np.argwhere(prod.grid)) == {(2, 4), (2, 3)}
    assert ff.ff_affine_intersection(5, [big, 1], [-4], 6, 5 * 2 ** 70) == 1
    assert ff.ff_slice_count(FIVE, big, -1) == 5
    assert np.array_equal(ff.ff_line_points(5, big, 2 ** 64 + 1),
                          ff.ff_line_points(5, 3, 2))


def test_random_is_seeded():
    a = ff.FiniteFieldSet.random(13, density=0.4, seed=3)
    b = ff.FiniteFieldSet.random(13, density=0.4, seed=3)
    c = ff.FiniteFieldSet.random(13, density=0.4, seed=4)
    assert as_set(np.argwhere(a.grid)) == as_set(np.argwhere(b.grid))
    assert as_set(np.argwhere(a.grid)) != as_set(np.argwhere(c.grid))


@pytest.mark.parametrize("p, densities", [(2, (0.0, 0.5, 1.0)),
                                           (31, (0.0, 0.01, 0.5, 1.0)),
                                           (101, (0.01, 0.5)), (211, (0.01, 0.5)),
                                           (4463, (0.01,))])
def test_random_draws_the_same_grid_as_one_p_by_p_draw(p, densities):
    for density in densities:
        grid = ff.FiniteFieldSet.random(p, density, seed=1).grid
        expected = np.random.default_rng(1).random((p, p)) < density
        assert np.array_equal(grid, expected)


def test_random_holds_no_p_by_p_float_array():
    # one p x p float64 draw alone is 8 p^2 bytes
    p = 4463
    tracemalloc.start()
    try:
        ff.FiniteFieldSet.random(p, 0.01, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * p * p


def test_full_and_product():
    assert ff.FiniteFieldSet.full(7).cardinality == 49
    prod = ff.FiniteFieldSet.from_product(5, xs=[1, 3], ys=[0, 2, 4])
    assert prod.cardinality == 6
    assert as_set(np.argwhere(prod.grid)) == {(x, y) for x in (1, 3) for y in (0, 2, 4)}


# ---------------------------------------------------------------------------
# Slice counts
# ---------------------------------------------------------------------------

def test_slice_count_full_grid_is_p():
    full = ff.FiniteFieldSet.full(13)
    assert ff.ff_slice_count(full, 4, 9) == 13


def test_slice_count_empty():
    assert ff.ff_slice_count(ff.FiniteFieldSet.from_points(13, []), 4, 9) == 0


def test_slice_counts_match_naive_scan():
    b = ff.FiniteFieldSet.random(13, density=0.4, seed=3)
    pts = as_set(np.argwhere(b.grid))
    for u in range(13):
        for v in range(13):
            naive = sum(1 for (x, y) in pts if (y - u * x) % 13 == v)
            assert ff.ff_slice_count(b, u, v) == naive


def test_line_count_matrix_shape_and_totals():
    b = ff.FiniteFieldSet.random(11, density=0.5, seed=7)
    mat = ff.ff_line_count_matrix(b)
    assert mat.shape == (11, 11)
    assert mat.sum() == b.cardinality * 11
    assert mat[3, 8] == ff.ff_slice_count(b, 3, 8)


# ---------------------------------------------------------------------------
# Line matrix against the per-slope histogram
# ---------------------------------------------------------------------------

PRIMES_TO_211 = [p for p in range(2, 212) if ff.is_prime(p)]
SET_KINDS = ("empty", "full", "point", "column0", "random", "product")


def per_slope_matrix(B):
    """Reference: one histogram of (y - u x) mod p per slope u."""
    p = B.p
    xs, ys = np.nonzero(B.grid)
    counts = np.zeros((p, p), dtype=np.int64)
    for u in range(p):
        counts[u] = np.bincount((ys - u * xs) % p, minlength=p)
    return counts


@st.composite
def ff_sets(draw):
    p = draw(st.sampled_from(PRIMES_TO_211))
    kind = draw(st.sampled_from(SET_KINDS))
    coord = st.integers(0, p - 1)
    if kind == "empty":
        return ff.FiniteFieldSet.from_points(p, [])
    if kind == "full":
        return ff.FiniteFieldSet.full(p)
    if kind == "point":
        return ff.FiniteFieldSet.from_points(p, [(draw(coord), draw(coord))])
    if kind == "product":
        return ff.FiniteFieldSet.from_product(
            p, draw(st.lists(coord, max_size=p)), draw(st.lists(coord, max_size=p)))
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    if kind == "random":
        return ff.FiniteFieldSet(p, rng.random((p, p)) < density)
    grid = np.zeros((p, p), dtype=bool)
    grid[0] = rng.random(p) < density
    return ff.FiniteFieldSet(p, grid)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ff_sets())
def test_line_count_matrix_matches_per_slope_histogram(b):
    mat = ff.ff_line_count_matrix(b)
    assert mat.dtype == np.int64
    assert np.array_equal(mat, per_slope_matrix(b))
    # every point lies on exactly one line per slope
    assert np.all(mat.sum(axis=1) == b.cardinality)
    # a point with x = 0 lies on line (u, y) for every u; any other point
    # meets column v for exactly one slope
    column0 = b.grid[0].astype(np.int64)
    assert np.array_equal(
        mat.sum(axis=0),
        b.p * column0 + b.cardinality - int(column0.sum()))


@pytest.mark.parametrize("p", [61, 67, 1031, 2039, 2053, 4463])
def test_line_count_matrix_large_primes(p):
    # 61 is the last prime whose one block holds every slope (3,721 keys);
    # at 67 a block holds 61 slopes (4,087 keys); 1031 slopes end in a
    # partial block; 2039 steps two slopes a block; at 2053 a block holds
    # one slope; 4463 is the largest prime the matrix cap allows
    b = ff.FiniteFieldSet.random(p, density=0.05 if p < 100 else 0.002, seed=p)
    assert np.array_equal(ff.ff_line_count_matrix(b), per_slope_matrix(b))


def test_line_count_keys_fit_in_16_bits():
    # every key is below K = p * block <= max(_BLOCK_KEYS, p); a stepped key
    # is below 2K and a wrapped one at least 2^16 - K, so the 16-bit minimum
    # finds the stepped key only while 3K <= 2^16
    assert 3 * max(ff._BLOCK_KEYS, ff.MAX_PRIME) <= 2 ** 16


@pytest.mark.parametrize("p", [31, 101, 211])
def test_line_count_matrix_memory_is_bounded(p):
    # the p x p int64 matrix, then 12 bytes per point and slope of a block
    # (a 16-bit key, a 16-bit stepped key and an intp copy for bincount)
    # and 8 bytes per point (16-bit x, y and key steps), with 128 KiB for
    # one block's histogram and numpy's small arrays
    b = ff.FiniteFieldSet.full(p)
    block = max(1, min(p, ff._BLOCK_KEYS // p))
    tracemalloc.start()
    try:
        ff.ff_line_count_matrix(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * p * p + (12 * block + 8) * b.cardinality + (1 << 17)


# ---------------------------------------------------------------------------
# Double counting
# ---------------------------------------------------------------------------

def test_double_count_brute_force_small():
    b = ff.FiniteFieldSet.random(5, density=0.5, seed=11)
    pts = as_set(np.argwhere(b.grid))
    brute = sum(1 for u in range(5) for v in range(5)
                for (x, y) in pts if (y - u * x) % 5 == v)
    assert ff.ff_double_count(b) == brute == b.cardinality * 5


def test_double_count_exact_across_densities():
    for p in (3, 7, 17):
        for i in range(10):
            b = ff.FiniteFieldSet.random(p, density=(i + 1) / 10, seed=i)
            assert ff.ff_double_count(b) == b.cardinality * p


@pytest.fixture
def off_by_one_matrix(edit_line_counts):
    """The counting kernel with one count too many."""

    def off_by_one(u0, chunk):
        if u0 == 0:
            chunk[0, 0] += 1

    edit_line_counts(off_by_one)


def test_double_count_mismatch_raises_typed_error(off_by_one_matrix):
    # the identity check must survive python -O, so it cannot be an assert
    b = ff.FiniteFieldSet.random(7, density=0.5, seed=1)
    with pytest.raises(ff.DoubleCountError, match="double count"):
        ff.ff_double_count(b)
    assert not issubclass(ff.DoubleCountError, (AssertionError, ValueError))


def test_chebyshev_fraction_checks_the_identity(off_by_one_matrix):
    # every Chebyshev report is read off counts that passed the identity
    b = ff.FiniteFieldSet.random(7, density=0.5, seed=1)
    with pytest.raises(ff.DoubleCountError, match="double count"):
        ff.ff_chebyshev_fraction(b, 2.0)


@pytest.mark.parametrize("to, named", [((1, 1), "column 0"),
                                      ((2, 0), "slope 1")],
                         ids=["within_a_slope", "within_a_column"])
def test_moved_count_fails_the_line_certificate(edit_line_counts, to, named):
    # one count moved from line (1, 0) to another line keeps the total
    # |B| p, but not the row or column sums the certificate checks; the
    # message names the first bad slope or column; p = 7 is one chunk
    def moved(u0, chunk):
        chunk[1, 0] -= 1
        chunk[to] += 1

    edit_line_counts(moved)
    b = ff.FiniteFieldSet.random(7, density=0.5, seed=1)
    with pytest.raises(ff.DoubleCountError, match=f"double count: {named} "):
        ff.ff_chebyshev_fraction(b, 2.0)
    with pytest.raises(ff.DoubleCountError, match=f"double count: {named} "):
        ff.ff_double_count(b)


# p = 1031 is the smallest tested prime whose summary takes several chunks
CHUNKED = ff.FiniteFieldSet.random(1031, density=0.2, seed=1)


def test_summary_of_several_chunks_matches_the_matrix():
    # a chunk's rows hold at least one block of slopes at every prime
    assert ff._CHUNK_COUNTS >= max(ff._BLOCK_KEYS, ff.MAX_PRIME)
    assert ff._CHUNK_COUNTS // CHUNKED.p < CHUNKED.p
    mat = ff.ff_line_count_matrix(CHUNKED)
    summary = ff.ff_line_count_summary(CHUNKED)
    assert np.array_equal(summary.histogram,
                          np.bincount(mat.ravel(), minlength=CHUNKED.p + 1))
    assert np.all(mat.sum(axis=1) == summary.cardinality)
    assert np.array_equal(summary.column_sums, mat.sum(axis=0))
    assert (summary.p, summary.cardinality) == (CHUNKED.p, CHUNKED.cardinality)


def test_moved_count_in_the_last_chunk_names_its_true_slope(edit_line_counts):
    # a count moved from line (1029, 0) to line (1030, 0), both in the
    # last chunk, leaves the column sums and the total as they were
    seen = []

    def moved(u0, chunk):
        seen.append(u0)
        if u0 + len(chunk) == CHUNKED.p:
            chunk[1029 - u0, 0] -= 1
            chunk[1030 - u0, 0] += 1

    edit_line_counts(moved)
    with pytest.raises(ff.DoubleCountError,
                       match=r"double count: slope 1029 sums to \d+, not "):
        ff.ff_line_count_summary(CHUNKED)
    assert len(seen) > 2 and seen[-1] <= 1029


def test_count_past_p_fails_after_the_sums(edit_line_counts):
    # moving counts round a rectangle of lines keeps every row and column
    # sum, but a line of more than p = 5 points has no histogram bin
    def rectangle(u0, chunk):
        chunk[0, 0] += 1
        chunk[0, 1] -= 1
        chunk[1, 0] -= 1
        chunk[1, 1] += 1

    edit_line_counts(rectangle)
    with pytest.raises(ff.DoubleCountError,
                       match=r"double count: 2 lines hold more than p=5 points"):
        ff.ff_double_count(ff.FiniteFieldSet.full(5))


def test_chebyshev_fraction_memory_has_no_p_squared_term():
    # the summary's one chunk of counts, then the kernel's 12 bytes per
    # point and slope of a block and 8 bytes per point (as in the matrix
    # bound above), with 512 KiB for a block's histogram, the summary's
    # arrays of p or p + 1 entries and numpy's small arrays; the matrix
    # alone would be 8 p^2 = 8.5 MB
    p, card = CHUNKED.p, CHUNKED.cardinality
    block = max(1, min(p, ff._BLOCK_KEYS // p))
    tracemalloc.start()
    try:
        ff.ff_chebyshev_fraction(CHUNKED, math.log(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * ff._CHUNK_COUNTS + (12 * block + 8) * card + (1 << 19)


# ---------------------------------------------------------------------------
# Chebyshev-style exception bounds
# ---------------------------------------------------------------------------

def test_chebyshev_full_grid_no_exceptions():
    rep = ff.ff_chebyshev_fraction(ff.FiniteFieldSet.full(11), 2.0)
    assert rep.good_fraction == 1.0
    assert rep.threshold == pytest.approx(2.0 * 121 / 11)
    assert rep.markov_bound == pytest.approx(0.5)


def test_chebyshev_matches_full_enumeration():
    b = ff.FiniteFieldSet.random(31, density=0.3, seed=8)
    rep = ff.ff_chebyshev_fraction(b, 3.0)
    mat = ff.ff_line_count_matrix(b)
    assert rep.threshold == pytest.approx(3.0 * b.cardinality / 31)
    good = np.count_nonzero(mat <= rep.threshold) / 31 ** 2
    assert rep.good_fraction == pytest.approx(good)
    assert rep.good_fraction > rep.markov_bound == pytest.approx(1 - 1 / 3.0)


def test_chebyshev_single_heavy_line():
    # all points on one line: that line alone violates the threshold
    pts = [(x, (2 * x + 1) % 7) for x in range(7)]
    b = ff.FiniteFieldSet.from_points(7, pts)
    rep = ff.ff_chebyshev_fraction(b, 1.5)
    assert rep.good_fraction == pytest.approx(48 / 49)
    mat = ff.ff_line_count_matrix(b)
    assert mat[2, 1] == 7


def test_chebyshev_bound_holds_on_sparse_sets():
    cases = ((7, 0.15, 1.3, 2), (5, 0.2, 1.2, 1),
             (11, 0.08, 1.5, 6), (13, 0.1, 1.2, 4))
    for p, dens, k, seed in cases:
        b = ff.FiniteFieldSet.random(p, density=dens, seed=seed)
        rep = ff.ff_chebyshev_fraction(b, k)
        assert rep.good_fraction < 1.0      # these do have exceptions
        assert rep.good_fraction >= 1.0 - 1.0 / k


def test_chebyshev_validation():
    b = ff.FiniteFieldSet.full(5)
    with pytest.raises(ValueError):
        ff.ff_chebyshev_fraction(b, 0.0)
    with pytest.raises(ValueError, match="k must be positive"):
        ff.ff_chebyshev_fraction(b, math.nan)
    with pytest.raises(ValueError):
        ff.ff_chebyshev_fraction(ff.FiniteFieldSet.from_points(5, []), 2.0)
    # k = 1 is legal but carries a vacuous bound
    assert ff.ff_chebyshev_fraction(b, 1.0).markov_bound == 0.0


# ---------------------------------------------------------------------------
# Cartesian products in the finite plane
# ---------------------------------------------------------------------------

def test_affine_intersection_identity_map():
    assert ff.ff_affine_intersection(11, [1, 2, 5], [1, 2, 5], 1, 0) == 3


def test_affine_intersection_matches_product_slice():
    rng = np.random.default_rng(19)
    for _ in range(50):
        a = np.unique(rng.integers(0, 11, 6))
        b = np.unique(rng.integers(0, 11, 6))
        u = int(rng.integers(1, 11))
        v = int(rng.integers(0, 11))
        prod = ff.FiniteFieldSet.from_product(11, xs=b, ys=a)
        assert ff.ff_affine_intersection(11, a, b, u, v) == \
            ff.ff_slice_count(prod, u, v)


def test_affine_intersection_brute_force():
    # computes |A ∩ (u B + v)|, so the image is built from B
    A, B = [0, 3, 4], [1, 2, 6]
    for u in range(1, 7):
        for v in range(7):
            want = len({(u * b + v) % 7 for b in B} & set(A))
            assert ff.ff_affine_intersection(7, A, B, u, v) == want


# ---------------------------------------------------------------------------
# Exception-limit table
# ---------------------------------------------------------------------------

def test_exception_limit_table_growing_primes():
    rows = ff.ff_exception_limit_table(
        lambda p: ff.FiniteFieldSet.random(p, density=0.5, seed=p),
        (11, 31, 101, 211))
    assert [r.p for r in rows] == [11, 31, 101, 211]
    for r in rows:
        assert r.k == pytest.approx(math.log(r.p))
        assert r.markov_bound == pytest.approx(1.0 - 1.0 / r.k)
        assert r.good_fraction > r.markov_bound
        assert 0.0 <= dim.ff_dim(r) <= 2.0
    # larger p gives a stronger guarantee
    ks = [r.k for r in rows]
    assert ks == sorted(ks)


# ---------------------------------------------------------------------------
# Dimension inequality
# ---------------------------------------------------------------------------

def test_ff_dim_of_slices_bounded_by_set_dim():
    # no slice holds more points than the set itself
    b = ff.FiniteFieldSet.random(17, density=0.6, seed=12)
    mat = ff.ff_line_count_matrix(b)
    assert mat.max() <= b.cardinality
    assert dim.ff_dim(b) <= 2.0
