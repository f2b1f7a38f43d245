"""
Tubes, floor lines, and slice profiles
======================================

Slicing a planar set by unit-width strips and by rounded lines, plus the
staircase and zigzag sets built to have interesting slices.
"""

import math

import numpy as np

from latslice import (FloorLine, PointSet, Tube, gen_parabolic_staircase,
                      gen_zigzag, annulus_profile, find_levels, gen_cartesian,
                      slice_floor_line, slice_tube, tube_dim_along,
                      zigzag_tube_counts, LevelSearchConfig)

# Tube t_{u,v}: a closed-above, open-below strip of exact width 1 whose
# edges have slope -1/u.  Points of the 17x17 grid in a diagonal tube:
grid = gen_cartesian(np.arange(17), np.arange(17))
tube = Tube(-1.0, 0.25)
sub = slice_tube(grid, tube)
print("diagonal tube catches", len(sub), "of", len(grid), "grid points")

# A floor line y = floor(u x + v) slices out the distinct integer heights
# it passes through.
heights = slice_floor_line(grid, FloorLine(0.37, 0.4), x_max=16.0)
print("floor-line heights:", heights.tolist())

# Every broken floor line fits inside one tube, so floor slices are never
# richer than tube slices.
line = FloorLine(0.37, 0.4)
enc = line.enclosing_tube()
print("enclosing tube u,v:", round(enc.u, 4), round(enc.v, 4))

# The staircase slice along its bottom row is the set of perfect squares:
# a half-dimensional slice of a one-dimensional set.  The horizontal tube
# -1/2 < y <= 1/2 is the tube with slope parameter u = inf.
stair = gen_parabolic_staircase(256)
prof = tube_dim_along(stair, math.inf, -0.5, 2.0 ** np.arange(1, 17))
print("staircase floor-row slice estimate:", prof.estimate)

# The zigzag set runs between y = x and y = tan(pi/4 + delta) x, switching
# direction at integer corners c_k that grow like lambda1^k.
points, trace = gen_zigzag(0.2, 20)
print("zigzag lambda1:", round(trace.lambda1, 6),
      "= tan(pi/4 + 0.2):", round(math.tan(math.pi / 4 + 0.2), 6))
print("corners:", trace.lattice_corners[:10])

# Any fixed tube inside the opening cone meets each zigzag level in a
# bounded stretch, so cumulative slice counts grow like log(c_n), not
# polynomially.  The recursion works in exact integers far past 2^53.
tube = Tube(-1.0 / 1.3, 0.0)
lattice, cums = zigzag_tube_counts(0.2, 60, tube)
print("corner c_60 has", len(str(lattice[-1])), "digits;",
      "tube slice count:", int(cums[-1]),
      "vs 8 ln c_60 =", round(8 * math.log(lattice[-1]), 1))

# Annulus profiles count slice points with axial coordinate in (m/2, m].
# On a unit-spaced line in the tube they are as even as possible: about
# m/2 per level.
base = np.arange(600)[:, None] * np.array([1.0, 1.0]) / math.sqrt(2.0)
shifted = PointSet(base + 0.5 * np.array([-1.0, 1.0]) / math.sqrt(2.0))
levels, counts = annulus_profile(shifted, -1.0, height_levels=[4, 16, 64, 256])
print("annulus counts:", dict(zip(levels.tolist(), counts.tolist())))

# The level finder walks integer heights m and records those whose annulus
# count beats (m/2)^(alpha + psi/2); dense tubes yield long level lists.
cfg = LevelSearchConfig(alpha=0.0, psi=1.0, search_bound=400)
found = find_levels(shifted, -1.0, cfg)
print("levels found:", len(found.levels), "first few:",
      found.levels[:5].tolist())
