"""Brute-force line incidence counting over prime fields.

Everything here is exact integer combinatorics on the p x p grid, whose p^2
cells ``_check_prime`` holds to the allocation budget (p <= ``MAX_PRIME`` =
4472, so 4463 is the largest prime), the module's one size check; entries
and line parameters are integers read mod p.  The line family is y = u x + v
for (u, v) in F_p^2 (vertical lines x = const are not part of it, so there
are p^2 lines, not p^2 + p).  The central identity: each point lies on
exactly one line per slope, hence on exactly p lines of the family, so slice
counts summed over all lines equal |B| * p.  Markov's inequality on the exact
per-slope average |B| / p then bounds the fraction of lines with unusually
large intersection.

The p x p line-count matrix is one histogram of the residues (y - u x) mod p
per slope u.  One kernel counts them: it finds the points with one flat scan
of the grid, counts a block of consecutive slopes with one ``bincount`` over
keys that interleave residue and slope, and steps the keys from block to
block by 16-bit subtraction with an unsigned wrap, so it takes no modulo per
incidence and moves two bytes per incidence in each step; the counts are
exact int64.  The kernel fills a buffer its caller gives with consecutive
slopes' counts: ``ff_line_count_matrix`` gives the whole matrix, and
``ff_line_count_summary`` one of at most 2^16 counts, which it folds into
the column sums and a histogram of the counts before the next slopes
overwrite it.  The checks read that summary, so none holds a p x p array.
Every summary carries a certificate: each slope's row sums to |B| (each
point lies on one line per slope, so the rows imply the identity) and
column v sums to |B minus {x = 0}| + p [(0, v) in B].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import (MAX_MATERIALIZE_POINTS, InputError, InternalCheckError,
                    as_int, refuse_past_budget, require_count, require_int)

__all__ = [
    "BadPointError",
    "ChebyshevReport",
    "DoubleCountError",
    "FiniteFieldSet",
    "LineCountSummary",
    "ff_affine_intersection",
    "ff_chebyshev_fraction",
    "ff_double_count",
    "ff_exception_limit_table",
    "ff_line_count_matrix",
    "ff_line_count_summary",
    "ff_line_points",
    "ff_slice_count",
    "is_prime",
]

MAX_PRIME = math.isqrt(MAX_MATERIALIZE_POINTS)   # p x p cells fit the budget
_BLOCK_KEYS = 1 << 12
# counts a summary holds at once (512 KiB of int64); at least _BLOCK_KEYS and
# MAX_PRIME, so its rows hold at least one block of slopes
_CHUNK_COUNTS = 1 << 16


def is_prime(p: int) -> bool:
    """Trial division by 2 ... isqrt(p); ``_check_prime`` admits p <= 4472."""
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def _check_prime(p: int) -> int:
    """``p`` as an int; ``InputError`` unless it is an integer, then
    ``MaterializeError`` past the budget, checked before any allocation or
    trial division, then ValueError unless it is prime (as no p below 2 is)."""
    n = require_int(p, "p")
    cells = max(n, 0) ** 2      # a p below 2 is not prime, whatever its square
    refuse_past_budget(cells, f"the grid of F_p^2 for p={n} holds {cells} cells")
    if not is_prime(n):
        raise ValueError(f"p={n} is not prime")
    return n


def _residues(values, what: str, p: int) -> list[int]:
    """``values`` mod p, exactly; ValueError naming ``what`` and the first
    value that is not an integer."""
    out = []
    for value in values:
        n = as_int(value)
        if n is None:
            raise ValueError(f"{what} {value!r} is not an integer")
        out.append(n % p)
    return out


class BadPointError(InputError):
    """A pair ``from_points`` refuses; ``index`` is its position."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class FiniteFieldSet:
    """Subset of F_p^2 held as a dense p x p boolean grid (grid[x, y])."""

    def __init__(self, p: int, grid):
        self.p = _check_prime(p)
        grid = np.array(grid, dtype=bool)
        if grid.shape != (self.p, self.p):
            raise ValueError(f"grid must be {self.p} x {self.p}")
        grid.setflags(write=False)
        self.grid = grid
        self.cardinality = int(grid.sum())

    @classmethod
    def from_points(cls, p: int, pairs) -> "FiniteFieldSet":
        """The set of the given (x, y) pairs; repeats count once.  The
        first pair not of two integers in [0, p) raises ``BadPointError``
        naming it (an integer 3.0 as 3) and carrying its index."""
        p = _check_prime(p)
        raw = np.asarray(pairs).reshape(-1, 2)
        with np.errstate(invalid="ignore"):     # inf % 1 is nan
            whole = raw % 1 == 0
            ok = whole & (raw >= 0) & (raw < p)
        if not ok.all():
            i = int(np.flatnonzero(~ok.all(axis=1))[0])
            point = ", ".join(repr(v).removesuffix(".0") for v in raw[i].tolist())
            why = (f"outside [0, {p})^2" if whole[i].all()
                   else "has a non-integer coordinate (expected two integers)")
            raise BadPointError(f"point ({point}) {why}", i)
        pts = raw.astype(np.int64)
        grid = np.zeros((p, p), dtype=bool)
        grid[pts[:, 0], pts[:, 1]] = True
        return cls(p, grid)

    @classmethod
    def random(cls, p: int, density: float, seed: int) -> "FiniteFieldSet":
        p = _check_prime(p)
        if not (0.0 <= density <= 1.0):
            raise ValueError("density must lie in [0, 1]")
        rng = np.random.default_rng(require_count(seed, "seed", 0))
        # the same draws as rng.random((p, p)) < density, a block of about
        # 2^16 values at a time, so no p x p float array is ever held
        grid = np.empty((p, p), dtype=bool)
        step = max(1, 2 ** 16 // p)
        for i in range(0, p, step):
            rows = grid[i:i + step]
            np.less(rng.random(rows.shape), density, out=rows)
        return cls(p, grid)

    @classmethod
    def full(cls, p: int) -> "FiniteFieldSet":
        p = _check_prime(p)
        return cls(p, np.ones((p, p), dtype=bool))

    @classmethod
    def from_product(cls, p: int, xs, ys) -> "FiniteFieldSet":
        """Product set {(x, y) : x in xs, y in ys}, integers read mod p."""
        p = _check_prime(p)
        xi, yi = _residues(xs, "xs entry", p), _residues(ys, "ys entry", p)
        grid = np.zeros((p, p), dtype=bool)
        grid[np.ix_(xi, yi)] = True
        return cls(p, grid)


def ff_line_points(p: int, u: int, v: int) -> np.ndarray:
    """The p points of y = u x + v, one per x in F_p; u, v integers mod p."""
    p = _check_prime(p)
    u, v = _residues((u, v), "line parameter", p)
    xs = np.arange(p, dtype=np.int64)
    return np.column_stack([xs, (u * xs + v) % p])


def ff_slice_count(B: FiniteFieldSet, u: int, v: int) -> int:
    """|B intersect l_{u,v}|, exact; u and v are integers read mod p."""
    p = B.p
    u, v = _residues((u, v), "line parameter", p)
    xs = np.arange(p, dtype=np.int64)
    return int(np.count_nonzero(B.grid[xs, (u * xs + v) % p]))


def _line_count_chunks(B: FiniteFieldSet, out: np.ndarray):
    """Fill ``out`` with the line counts of consecutive slopes and yield
    ``(u0, out[:m])`` each time it is full, then once for the last slopes:
    row i of the chunk holds counts[u0 + i, v] = |B intersect l_{u0+i,v}|.
    ``out`` is int64 of shape (rows, p), rows at least one block of slopes;
    each chunk is overwritten by the next.

    A point (x, y) lies on l_{u,v} iff v = (y - u x) mod p.  One scan of the
    flattened grid finds the points, their flat indices x * p + y split by
    ``divmod``.  Slopes go in blocks of ``block`` (about 2^12 histogram bins
    a block, which stay in cache): slope u0 + j gives a point the key
    r * block + j, r its residue, and one ``bincount`` of the block's keys
    fills the block's rows.  For the next block every residue drops by
    s = block * x mod p, so each key drops by s * block.  In unsigned
    arithmetic a key whose residue fell below 0 wraps past every valid key,
    so the smaller of (key - s * block) and (key + (p - s) * block) is the
    stepped key.

    The keys are 16-bit.  Every key is below K = p * block, which is at most
    max(``_BLOCK_KEYS``, p); a stepped key is below 2K and a wrapped one at
    least 2^16 - K, so the minimum is exact while 3K <= 2^16, which holds for
    every p <= ``MAX_PRIME``.  Each block's keys are copied into one intp
    buffer, so ``bincount`` neither casts nor allocates its input.
    """
    p = B.p
    xs = np.empty(B.cardinality, dtype=np.int16)
    ys = np.empty_like(xs)
    np.divmod(np.flatnonzero(B.grid), p, out=(xs, ys))
    block = max(1, min(p, _BLOCK_KEYS // p))
    lane = np.arange(block, dtype=np.int16)[:, None]
    # every intermediate is below K <= MAX_PRIME in magnitude: int16 is exact
    keys = ((ys - lane * xs) % p * block + lane).view(np.uint16)
    down = (block * xs % p * block).view(np.uint16)
    up = np.uint16(p * block) - down
    lower = np.empty_like(keys)
    flat = np.empty(keys.shape, dtype=np.intp)
    filled = 0
    for u0 in range(0, p, block):
        if u0:
            np.subtract(keys, down, out=lower)
            keys += up
            np.minimum(keys, lower, out=keys)
        m = min(block, p - u0)
        if filled + m > len(out):
            yield u0 - filled, out[:filled]
            filled = 0
        flat[:m] = keys[:m]
        hist = np.bincount(flat[:m].ravel(), minlength=p * block)
        out[filled:filled + m] = hist.reshape(p, block)[:, :m].T
        filled += m
    yield p - filled, out[:filled]


def ff_line_count_matrix(B: FiniteFieldSet) -> np.ndarray:
    """Matrix counts[u, v] = |B intersect l_{u,v}| for all p^2 lines, the
    kernel's one chunk; the p^2 counts fit the budget, as B's grid does."""
    counts = np.empty((B.p, B.p), dtype=np.int64)
    for _ in _line_count_chunks(B, counts):
        pass
    return counts


class DoubleCountError(InternalCheckError):
    """The line counts fail their certificate: the counting code is wrong."""


def _certify(line: str, sums: np.ndarray, want, first: int, p: int) -> None:
    """DoubleCountError naming the first of ``sums`` (line ``first`` on)
    that differs from ``want``."""
    bad = np.flatnonzero(sums != want)
    if bad.size:
        i = int(bad[0])
        raise DoubleCountError(
            f"double count: {line} {first + i} sums to {sums[i]}, "
            f"not {np.broadcast_to(want, sums.shape)[i]}, for p={p}")


@dataclass(frozen=True)
class LineCountSummary:
    """The certified line counts of a set, with no p x p array: every row
    of the line-count matrix sums to ``cardinality``, ``column_sums[v]`` is
    the sum of its column v, and ``histogram[c]`` is the number of lines
    meeting the set in exactly c points, c in [0, p]."""

    p: int
    cardinality: int
    column_sums: np.ndarray
    histogram: np.ndarray


def ff_line_count_summary(B: FiniteFieldSet) -> LineCountSummary:
    """B's line counts in one pass of the kernel, certified.

    Each point lies on exactly one line per slope, so every row sums to |B|
    (and all p rows to the double count |B| * p).  A point (x, y) with
    x != 0 meets column v at exactly one slope, and one with x = 0 lies on
    line (u, y) for every u, so column v sums to |B minus {x = 0}| +
    p [(0, v) in B].  The sums and the cardinality come from independent
    code paths (per-slope residue histograms vs the grid population), so the
    check guards the counting machinery, not arithmetic tautology.  Each
    chunk's rows are certified as it comes, the columns at the end, and a
    line of more than p points (which the histogram has no bin for) fails
    last.  A mismatch raises ``DoubleCountError`` naming the first bad
    slope or column; ``python -O`` does not strip it.
    """
    p, card = B.p, B.cardinality
    column_sums = np.zeros(p, dtype=np.int64)
    histogram = np.zeros(p + 1, dtype=np.int64)
    buffer = np.empty((min(p, _CHUNK_COUNTS // p), p), dtype=np.int64)
    for u0, chunk in _line_count_chunks(B, buffer):
        _certify("slope", chunk.sum(axis=1), card, u0, p)
        column_sums += chunk.sum(axis=0)
        histogram += np.bincount(chunk.ravel(), minlength=p + 1)[:p + 1]
    on_axis = B.grid[0].astype(np.int64)        # 1 where (0, v) is in B
    _certify("column", column_sums, card - on_axis.sum() + p * on_axis, 0, p)
    if histogram.sum() != p * p:
        raise DoubleCountError(
            f"double count: {p * p - histogram.sum()} lines hold more than "
            f"p={p} points")
    return LineCountSummary(p, card, column_sums, histogram)


def _summary(B: FiniteFieldSet | LineCountSummary) -> LineCountSummary:
    """B's certified summary: B itself if it is one, else one pass."""
    return B if isinstance(B, LineCountSummary) else ff_line_count_summary(B)


def ff_double_count(B: FiniteFieldSet | LineCountSummary) -> int:
    """Sum of slice counts over all p^2 lines, checked equal to |B| * p
    slope by slope, with the column sums certified too (a mismatch raises
    ``DoubleCountError``).  ``B`` is a set, or the summary of one, which
    was certified when it was built."""
    _summary(B)
    return B.cardinality * B.p


@dataclass(frozen=True)
class ChebyshevReport:
    p: int
    cardinality: int
    k: float
    threshold: float
    good_fraction: float
    markov_bound: float


def ff_chebyshev_fraction(B: FiniteFieldSet | LineCountSummary,
                          k: float) -> ChebyshevReport:
    """Fraction of the p^2 lines with slice count <= k |B| / p.

    Exceeding lines carry more than k/p of the per-slope total |B| each, so
    fewer than p/k slopes' worth can exceed: good_fraction > 1 - 1/k always
    (strictly, for nonempty B), reported as markov_bound.  ``B`` is a set,
    or the summary of one, so that several k read one pass; the fraction is
    read off the summary's histogram, whose row and column sums passed the
    certificate, so a mismatch raises ``DoubleCountError`` here as in
    ``ff_double_count``.
    """
    if B.cardinality < 1:
        raise ValueError("Chebyshev fraction needs a nonempty set")
    if not k > 0:                   # nan fails too
        raise ValueError("k must be positive")
    threshold = k * B.cardinality / B.p
    histogram = _summary(B).histogram
    good = int(histogram[np.arange(B.p + 1) <= threshold].sum())
    return ChebyshevReport(
        p=B.p, cardinality=B.cardinality, k=float(k), threshold=threshold,
        good_fraction=good / (B.p * B.p), markov_bound=1.0 - 1.0 / k)


def ff_affine_intersection(p: int, A, B, u: int, v: int) -> int:
    """|A intersect (u B + v)| over F_p, with set (distinct-element) semantics.

    For u != 0 the map b -> u b + v is injective, so this equals the number
    of b in B with u b + v in A, which is the slice count of the product set
    {(b, a)} by the line y = u x + v read the other way; at u = 0 the image
    u B + v collapses to {v} and the product-slice identity does not apply.
    Entries, u and v are integers read mod p.
    """
    p = _check_prime(p)
    a = np.unique(_residues(A, "A entry", p))
    b = np.unique(_residues(B, "B entry", p))
    u, v = _residues((u, v), "line parameter", p)
    image = np.unique((u * b + v) % p)
    return int(np.intersect1d(a, image, assume_unique=True).size)


def ff_exception_limit_table(set_rule, primes) -> list[ChebyshevReport]:
    """Chebyshev reports across growing primes, one row per prime.

    ``set_rule(p)`` supplies a nonempty set per prime; the threshold factor
    is k = ln p.  With k growing, the Markov floor 1 - 1/k climbs toward 1,
    which is the finite-field exception-set limit displayed at desk scale.
    A row's dimension is ``dimension.ff_dim(row)``.
    """
    rows = []
    for p in primes:
        B = set_rule(p)
        if B.p != p:
            raise ValueError(f"set_rule returned a set over p={B.p}, wanted {p}")
        rows.append(ff_chebyshev_fraction(B, math.log(p)))
    return rows
