"""
Mass and counting dimension at finite scale
===========================================

A tour of the basic estimators on sets whose dimension we know exactly.
"""

import numpy as np

from latslice import (ParabolicStaircase, gen_cartesian,
                      gen_random_dimension, gen_unit_line,
                      counting_dim_profile, dim_1d_profile, dyadic_scales,
                      mass_dim_profile, validate_separation)

# A line of unit-spaced points has dimension 1.
line = gen_unit_line(2.0, 500)
print("unit line separated:", validate_separation(line).valid)
prof = mass_dim_profile(line)
print("line estimate:", round(prof.estimate, 4))

# The full integer lattice has dimension 2.  The count in [0,l]^2 is
# (l+1)^2, so the per-scale ratios sit slightly above 2 and sink toward it.
side = 256
full = gen_cartesian(np.arange(side + 1), np.arange(side + 1))
prof = mass_dim_profile(full)
for l, c, r in zip(prof.scales, prof.counts, prof.ratios):
    print(f"  l = {int(l):4d}  count = {c:7d}  ratio = {r:.4f}")
print("lattice estimate:", round(prof.estimate, 4))

# The parabolic staircase puts k points in the column at x = k^2.  Boxes
# of size N^2 then hold N(N+1)/2 points and the ratio has the closed form
# log(N(N+1)/2) / log(N^2), just below 1.
stair = ParabolicStaircase(1024)
prof = mass_dim_profile(stair, scales=[2.0 ** 20])
print("staircase count at 2^20:", prof.counts[0])   # 1024*1025/2
print("staircase ratio:", round(prof.ratios[0], 6))

# Mass dimension uses boxes anchored at the origin; counting dimension
# searches windows anywhere, so it never reports less (up to the finite
# search tolerance).  Shift a set far from the origin to see them split.
block = gen_cartesian(np.arange(32), np.arange(32))
from latslice.geometry import PointSet
far = PointSet(block.points + np.array([10_000.0, 10_000.0]))
sizes = [4.0, 8.0, 16.0]
print("shifted block, mass counts:   ",
      mass_dim_profile(far, scales=sizes).counts)     # all zero
print("shifted block, window counts: ",
      counting_dim_profile(far, window_sizes=sizes).counts)

# Random sets with a prescribed exponent: each dyadic annulus keeps
# candidates with probability tuned so |E ∩ [0,l]^2| grows like l^alpha.
for alpha in (0.5, 1.0, 1.5):
    ps = gen_random_dimension(alpha, 2 ** 12, seed=7)
    prof = mass_dim_profile(ps)
    print(f"alpha = {alpha}: {len(ps):7d} points, estimate "
          f"{prof.estimate:.3f}")

# One-dimensional sets of integers use counts in [1, N].  Perfect squares
# have exactly floor(sqrt(N)) members below N, hence dimension 1/2.
squares = np.arange(1, 1025, dtype=np.int64) ** 2
prof = dim_1d_profile(squares)
print("perfect squares estimate:", prof.estimate)

print("dyadic ladder to 2^10:", dyadic_scales(1024.0).astype(int).tolist())
