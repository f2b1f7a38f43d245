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

__all__ = [
    "ChebyshevReport",
    "DoubleCountError",
    "FFTableRow",
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

    def __init__(self, p: int, grid=None):
        self.p = _check_prime(p)
        if grid is None:
            grid = np.zeros((self.p, self.p), dtype=bool)
        else:
            grid = np.asarray(grid, dtype=bool)
            if grid.shape != (self.p, self.p):
                raise ValueError(f"grid must be {self.p} x {self.p}")
            grid = grid.copy()
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
        return cls(p, rng.random((p, p)) < density)

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
    """
    p = B.p
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


def ff_double_count(B: FiniteFieldSet) -> int:
    """Sum of slice counts over all p^2 lines, checked equal to |B| * p.

    The sum and the cardinality come from independent code paths (per-slope
    residue histograms vs the grid population), so the check guards the
    counting machinery, not arithmetic tautology.  A mismatch raises
    ``DoubleCountError``, which ``python -O`` does not strip.
    """
    return _double_count(B, ff_line_count_matrix(B))


def _double_count(B: FiniteFieldSet, counts: np.ndarray) -> int:
    """``ff_double_count`` on B's line-count matrix, already built."""
    total = int(counts.sum())
    expected = B.cardinality * B.p
    if total != expected:
        raise DoubleCountError(
            f"double count {total} != |B|*p = {expected} for p={B.p}")
    return total


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
    (strictly, for nonempty B), reported as markov_bound.
    """
    if B.cardinality < 1:
        raise ValueError("Chebyshev fraction needs a nonempty set")
    if k <= 0:
        raise ValueError("k must be positive")
    return _chebyshev_fraction(B, k, ff_line_count_matrix(B))


def _chebyshev_fraction(B: FiniteFieldSet, k: float,
                        counts: np.ndarray) -> ChebyshevReport:
    """``ff_chebyshev_fraction`` on B's line-count matrix, already built,
    for a nonempty B and k > 0."""
    threshold = k * B.cardinality / B.p
    good = int(np.count_nonzero(counts <= threshold))
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


@dataclass(frozen=True)
class FFTableRow:
    p: int
    cardinality: int
    dim: float
    k: float
    good_fraction: float
    markov_bound: float


def ff_exception_limit_table(set_rule, primes, k_rule=None) -> list[FFTableRow]:
    """Good-line fractions across growing primes.

    ``set_rule(p)`` supplies the set per prime; ``k_rule(p)`` the threshold
    factor (default ln p).  With k growing, the Markov floor 1 - 1/k climbs
    toward 1, which is the finite-field exception-set limit displayed at
    desk scale.
    """
    rows = []
    for p in primes:
        B = set_rule(p)
        if B.p != p:
            raise ValueError(f"set_rule returned a set over p={B.p}, wanted {p}")
        k = float(k_rule(p)) if k_rule is not None else math.log(p)
        rep = ff_chebyshev_fraction(B, k)
        dim = math.log(B.cardinality) / math.log(p) if B.cardinality else 0.0
        rows.append(FFTableRow(p=p, cardinality=B.cardinality, dim=dim, k=k,
                               good_fraction=rep.good_fraction,
                               markov_bound=rep.markov_bound))
    return rows
