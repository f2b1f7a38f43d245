"""
Exact line incidences over prime fields
=======================================

Brute-force verification of the slicing identities in F_p^2, where every
count is exact and every claim can be checked by enumeration.
"""

import math

from latslice import (FiniteFieldSet, ff_affine_intersection,
                      ff_chebyshev_fraction, ff_double_count, ff_dim,
                      ff_exception_limit_table, ff_line_count_matrix,
                      ff_line_points)

# A line l_{u,v} = {(x, ux+v)} has exactly p points, one per column.
print("line u=3, v=2 over F_7:", ff_line_points(7, 3, 2).tolist())

# Double counting: each point of B lies on exactly p of the p^2 lines,
# so the incidence total is |B| p on the nose, for every subset B.
B = FiniteFieldSet.random(13, density=0.35, seed=2)
total = ff_double_count(B)
print(f"|B| = {B.cardinality}, sum of slice counts = {total} "
      f"= |B| * 13: {total == B.cardinality * 13}")

# The full incidence matrix row-sums to |B| per slope.
mat = ff_line_count_matrix(B)
print("per-slope totals all equal |B|:",
      bool((mat.sum(axis=1) == B.cardinality).all()))

# Markov: fewer than 1/k of all lines can hold more than k |B| / p points.
rep = ff_chebyshev_fraction(B, k=math.log(13))
print(f"k = ln 13: good fraction {rep.good_fraction:.4f} "
      f">= {rep.markov_bound:.4f}")

# Concentrating B on a single line makes that line the lone exception.
heavy = FiniteFieldSet.from_points(7, [(x, (2 * x + 1) % 7) for x in range(7)])
rep = ff_chebyshev_fraction(heavy, 1.5)
print("one heavy line: good fraction =", round(rep.good_fraction, 4),
      "= 48/49")

# Products A x B turn line slices into affine intersections |A ∩ (uB+v)|.
A, C = [1, 2, 5, 8], [0, 3, 4, 9]
for u, v in ((1, 0), (3, 2), (10, 7)):
    print(f"  |A ∩ ({u} B + {v})| =", ff_affine_intersection(11, A, C, u, v))

# Growing primes: with k = ln p, the guaranteed good fraction 1 - 1/ln p
# climbs toward 1 while the dimension of a half-density set stays near 2.
rows = ff_exception_limit_table(
    lambda p: FiniteFieldSet.random(p, density=0.5, seed=p),
    (11, 31, 101, 211, 401))
print("p    |B|    dim     k      good    bound")
for r in rows:
    print(f"{r.p:<5d}{r.cardinality:<7d}{ff_dim(r):<8.4f}{r.k:<7.3f}"
          f"{r.good_fraction:<8.4f}{r.markov_bound:.4f}")

print("dim of full grid:", ff_dim(FiniteFieldSet.full(7)))
