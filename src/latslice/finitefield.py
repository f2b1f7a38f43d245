"""Brute-force line incidence counting over prime fields.

Everything here is exact integer combinatorics on the p x p grid: the line
family is y = u x + v for (u, v) in F_p^2 (vertical lines x = const are not
part of the family, so there are p^2 lines, not p^2 + p).  The central
identity: each point lies on exactly one line per slope, hence on exactly p
lines of the family, so slice counts summed over all lines equal |B| * p.
Markov's inequality on the exact per-slope average |B| / p then bounds the
fraction of lines with unusually large intersection.

The p x p line-count matrix is one histogram of the residues (y - u x) mod p
per slope u.  ``ff_line_count_matrix`` counts a block of consecutive slopes
with one ``bincount`` over keys that interleave residue and slope, and steps
the keys from block to block by integer subtraction with an unsigned wrap,
so it takes no modulo per incidence; the matrix is exact int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generators import MAX_MATERIALIZE_POINTS, MaterializeError

__all__ = [
    "ChebyshevReport",
    "DoubleCountError",
    "FiniteFieldSet",
    "ff_affine_intersection",
    "ff_chebyshev_fraction",
    "ff_double_count",
    "ff_exception_limit_table",
    "ff_line_count_matrix",
    "ff_line_points",
    "ff_slice_count",
    "is_prime",
]

MAX_PRIME = 10_000
_BLOCK_KEYS = 1 << 12


def is_prime(p: int) -> bool:
    """Deterministic trial division; intended range p <= 10^4."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _check_prime(p: int) -> int:
    p = int(p)
    if p > MAX_PRIME:
        raise ValueError(f"p={p} beyond supported range (<= {MAX_PRIME})")
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    return p


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
        """The set of the given (x, y) pairs; repeats count once."""
        p = _check_prime(p)
        pairs = list(pairs)
        try:
            pts = np.array(pairs, dtype=np.int64).reshape(-1, 2)
            inside = bool(np.all((pts >= 0) & (pts < p)))
        except OverflowError:
            inside = False
        if not inside:
            x, y = next((x, y) for x, y in pairs
                        if not (0 <= int(x) < p and 0 <= int(y) < p))
            raise ValueError(f"point ({x}, {y}) outside [0, {p})^2")
        grid = np.zeros((p, p), dtype=bool)
        grid[pts[:, 0], pts[:, 1]] = True
        return cls(p, grid)

    @classmethod
    def random(cls, p: int, density: float, seed: int) -> "FiniteFieldSet":
        p = _check_prime(p)
        if not (0.0 <= density <= 1.0):
            raise ValueError("density must lie in [0, 1]")
        rng = np.random.default_rng(seed)
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
        return cls(p, np.ones((int(p), int(p)), dtype=bool))

    @classmethod
    def from_product(cls, p: int, xs, ys) -> "FiniteFieldSet":
        """Product set {(x, y) : x in xs, y in ys}."""
        p = _check_prime(p)
        grid = np.zeros((p, p), dtype=bool)
        xi = np.asarray(list(xs), dtype=np.int64) % p
        yi = np.asarray(list(ys), dtype=np.int64) % p
        grid[np.ix_(xi, yi)] = True
        return cls(p, grid)

    def points(self) -> np.ndarray:
        xs, ys = np.nonzero(self.grid)
        return np.column_stack([xs, ys])


def ff_line_points(p: int, u: int, v: int) -> np.ndarray:
    """The p points of the line y = u x + v, one per x in F_p."""
    p = _check_prime(p)
    u, v = int(u) % p, int(v) % p
    xs = np.arange(p, dtype=np.int64)
    return np.column_stack([xs, (u * xs + v) % p])


def ff_slice_count(B: FiniteFieldSet, u: int, v: int) -> int:
    """|B intersect l_{u,v}|, exact."""
    p = B.p
    u, v = int(u) % p, int(v) % p
    xs = np.arange(p, dtype=np.int64)
    return int(np.count_nonzero(B.grid[xs, (u * xs + v) % p]))


def ff_line_count_matrix(B: FiniteFieldSet) -> np.ndarray:
    """Matrix counts[u, v] = |B intersect l_{u,v}| for all p^2 lines.

    A point (x, y) lies on l_{u,v} iff v = (y - u x) mod p.  Slopes go in
    blocks of ``block`` (about 2^12 histogram bins a block, which stay in
    cache): slope u0 + j gives a point the key r * block + j, r its residue,
    and one ``bincount`` of the block's keys fills the block's rows.  For
    the next block every residue drops by s = block * x mod p, so each key
    drops by s * block.  In unsigned arithmetic a key whose residue fell
    below 0 wraps past every valid key, so the smaller of (key - s * block)
    and (key + (p - s) * block) is the stepped key.

    A prime whose matrix would hold more than ``MAX_MATERIALIZE_POINTS``
    entries (p > 4463) raises ``MaterializeError`` before anything is
    allocated.
    """
    p = B.p
    if p * p > MAX_MATERIALIZE_POINTS:
        raise MaterializeError(
            f"the line matrix for p={p} holds {p * p} counts, more than "
            f"{MAX_MATERIALIZE_POINTS}")
    xs, ys = np.nonzero(B.grid)
    block = max(1, min(p, _BLOCK_KEYS // p))
    lane = np.arange(block)[:, None]
    keys = ((ys - lane * xs) % p * block + lane).astype(np.uint64)
    down = (block * xs % p * block).astype(np.uint64)
    up = np.uint64(p * block) - down
    lower = np.empty_like(keys)
    counts = np.empty((p, p), dtype=np.int64)
    for u0 in range(0, p, block):
        if u0:
            np.subtract(keys, down, out=lower)
            keys += up
            np.minimum(keys, lower, out=keys)
        m = min(block, p - u0)
        hist = np.bincount(keys[:m].ravel().view(np.int64), minlength=p * block)
        counts[u0:u0 + m] = hist.reshape(p, block)[:, :m].T
    return counts


class DoubleCountError(ArithmeticError):
    """The line sums disagree with |B| * p: the counting code is wrong."""


def _checked_matrix(B: FiniteFieldSet) -> np.ndarray:
    """B's line-count matrix, its sum checked equal to |B| * p.

    The sum and the cardinality come from independent code paths (per-slope
    residue histograms vs the grid population), so the check guards the
    counting machinery, not arithmetic tautology.  A mismatch raises
    ``DoubleCountError``, which ``python -O`` does not strip.
    """
    counts = ff_line_count_matrix(B)
    total = int(counts.sum())
    expected = B.cardinality * B.p
    if total != expected:
        raise DoubleCountError(
            f"double count {total} != |B|*p = {expected} for p={B.p}")
    return counts


def ff_double_count(B: FiniteFieldSet) -> int:
    """Sum of slice counts over all p^2 lines, checked equal to |B| * p
    (a mismatch raises ``DoubleCountError``)."""
    _checked_matrix(B)
    return B.cardinality * B.p


@dataclass(frozen=True)
class ChebyshevReport:
    p: int
    cardinality: int
    k: float
    threshold: float
    good_fraction: float
    markov_bound: float


def ff_chebyshev_fraction(B: FiniteFieldSet, k: float) -> ChebyshevReport:
    """Fraction of the p^2 lines with slice count <= k |B| / p.

    Exceeding lines carry more than k/p of the per-slope total |B| each, so
    fewer than p/k slopes' worth can exceed: good_fraction > 1 - 1/k always
    (strictly, for nonempty B), reported as markov_bound.  The fraction is
    read off a matrix that passed the double-count identity, so a mismatch
    raises ``DoubleCountError`` here as in ``ff_double_count``.
    """
    if B.cardinality < 1:
        raise ValueError("Chebyshev fraction needs a nonempty set")
    if not k > 0:                   # nan fails too
        raise ValueError("k must be positive")
    threshold = k * B.cardinality / B.p
    good = int(np.count_nonzero(_checked_matrix(B) <= threshold))
    return ChebyshevReport(
        p=B.p, cardinality=B.cardinality, k=float(k), threshold=threshold,
        good_fraction=good / (B.p * B.p), markov_bound=1.0 - 1.0 / k)


def ff_affine_intersection(p: int, A, B, u: int, v: int) -> int:
    """|A intersect (u B + v)| over F_p, with set (distinct-element) semantics.

    For u != 0 the map b -> u b + v is injective, so this equals the number
    of b in B with u b + v in A, which is the slice count of the product set
    {(b, a)} by the line y = u x + v read the other way; at u = 0 the image
    u B + v collapses to {v} and the product-slice identity does not apply.
    """
    p = _check_prime(p)
    a = np.unique(np.asarray(list(A), dtype=np.int64) % p)
    b = np.unique(np.asarray(list(B), dtype=np.int64) % p)
    image = np.unique((int(u) * b + int(v)) % p)
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
