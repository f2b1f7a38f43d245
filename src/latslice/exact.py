"""The allocation budget, the error roots and the exact integer primitives.

Every counting kernel of the package rests on a few exact integer facts and
on one allocation budget; this module is their one home.  It imports nothing
from the package, and the package's modules import in tiers, each only from
strictly lower ones:

    exact  <  geometry, finitefield  <  generators, dimension  <  survey
           <  acceptance  <  cli

The budget: ``MAX_MATERIALIZE_POINTS`` bounds every allocation whose size a
caller chooses (points, levels, matrix entries, survey cells and samples),
and ``refuse_past_budget`` raises ``MaterializeError`` before anything of
that size is allocated.

The error roots: ``InputError`` (a ``ValueError``) is a request the library
refuses, such as ``MaterializeError``, ``Int64RangeError`` and the command
line's ``ConfigError``; the command line exits 2 on it.
``InternalCheckError`` (an ``ArithmeticError``) is a self-check of the
counting code that failed, such as the finite-field ``DoubleCountError``;
the command line exits 3 on it.

The primitives are exact on Python ints of any size: ``floor_root`` and
``floor_sum`` (integer floors of irrational and summed quantities),
``as_int`` (the integer a number is exactly, or None), ``require_int``
(that integer, or a ValueError naming the parameter), ``as_int64`` and
``positive_int64`` (casts that refuse to change a value) and
``at_least_one_apart`` (a rational distance test of two float points).
"""

import math
from fractions import Fraction

import numpy as np

MAX_MATERIALIZE_POINTS = 20_000_000
EXACT_INT_LIMIT = 2 ** 53


class InputError(ValueError):
    """A request the library refuses: bad parameters or data."""


class MaterializeError(InputError):
    """Raised when a materialization request is too large to honor."""


class Int64RangeError(InputError, OverflowError):
    """Integer values that int64 cannot hold."""


class InternalCheckError(ArithmeticError):
    """A self-check of the counting code failed: the code is wrong."""


def refuse_past_budget(size, what: str, hint: str | None = None) -> None:
    """Raise ``MaterializeError`` when ``size`` passes the budget, naming
    ``what`` would be allocated, the cap and an optional ``hint``."""
    if size > MAX_MATERIALIZE_POINTS:
        raise MaterializeError(f"{what}; the cap is {MAX_MATERIALIZE_POINTS}"
                               + (f" ({hint})" if hint else ""))


def floor_root(c: int, q: int) -> int:
    """floor(c * sqrt(q)) for integers c and q >= 0."""
    m = c * c * q
    r = math.isqrt(m)
    if c >= 0:
        return r
    return -r if r * r == m else -r - 1


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a*i + b) / m) for n >= 0, m >= 1 and any
    integers a, b, in O(log m) steps (Knuth, Concrete Mathematics 3.5; the
    AtCoder Library's floor_sum)."""
    total = 0
    while True:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def as_int(value) -> int | None:
    """The integer a finite number is exactly, or None.  A bool (Python's
    or numpy's) is a truth value, not a count, so it gives None."""
    if isinstance(value, (bool, np.bool_)):
        return None
    if isinstance(value, (int, np.integer)):   # math.floor would go via float
        return int(value)
    try:
        whole = math.floor(value)
    except (TypeError, ValueError, OverflowError):     # not a number, nan, inf
        return None
    return whole if whole == value else None


def require_int(value, name: str) -> int:
    """The integer ``value`` is exactly; ValueError naming ``name`` if none."""
    whole = as_int(value)
    if whole is None:
        raise ValueError(f"{name}={value!r} is not an integer")
    return whole


def as_int64(values: np.ndarray) -> np.ndarray:
    """Integer-valued floats as int64, refusing values int64 cannot hold."""
    if values.size and not (-2.0 ** 63 <= values.min() and values.max() < 2.0 ** 63):
        raise Int64RangeError("integer coordinates beyond the int64 range")
    return values.astype(np.int64)


def positive_int64(values, message: str) -> np.ndarray:
    """``values`` as int64; ValueError(``message``) unless each is an
    integer in 1 ... 2^63 - 1, checked so that the cast cannot change it."""
    raw = np.asarray(values)
    try:
        with np.errstate(invalid="ignore"):     # nan and inf cast to garbage
            out = raw.astype(np.int64)
    except (OverflowError, ValueError, TypeError):  # ints past uint64, text, None
        raise ValueError(message) from None
    # 1.5, nan, inf, 0 and 2^63 (uint64, wrapped negative) all fail
    if np.any((out != raw) | (out < 1)):
        raise ValueError(message)
    return out


def at_least_one_apart(a, b) -> bool:
    """Whether float points ``a`` and ``b`` are at least 1 apart, in rationals."""
    (xa, ya), (xb, yb) = a, b
    return (Fraction(xb) - Fraction(xa)) ** 2 + (Fraction(yb) - Fraction(ya)) ** 2 >= 1
