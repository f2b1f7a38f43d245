"""latslice: counting dimension and slicing workbench for 1-separated
planar point sets, with a finite-field incidence companion.

The geometry module owns points, tubes, floor lines and exact slicing;
generators builds the example families (staircases, zigzags, sparse cones,
random dimension-alpha sets); dimension turns counts into dimension
profiles; survey averages floor-line slice counts over parameter boxes;
finitefield mirrors the slicing story over F_p. acceptance packages the
reproducibility battery behind `latslice repro`. exact is the one home of
the allocation budget, the error roots and the exact integer primitives;
modules import only from strictly lower tiers: exact < {geometry,
finitefield} < {generators, dimension} < survey < acceptance < cli.
"""

from .dimension import (DimensionProfile, LevelProfile, LevelSearchConfig,
                        annulus_profile, counting_dim_profile,
                        dim_1d_profile, dyadic_scales, ff_dim, find_levels,
                        mass_dim_profile, profile_from_counts)
from .finitefield import (ChebyshevReport, DoubleCountError, FiniteFieldSet,
                          LineCountSummary, ff_affine_intersection,
                          ff_chebyshev_fraction, ff_double_count,
                          ff_exception_limit_table, ff_line_count_matrix,
                          ff_line_count_summary, ff_line_points,
                          ff_slice_count, is_prime)
from .exact import MaterializeError
from .generators import (ConeAnnuli, ConeFixedWidth, ConeStaircase,
                         ParabolicStaircase, ZigzagTrace, gen_cartesian,
                         gen_parabolic_staircase, gen_random_dimension,
                         gen_unit_line, gen_zigzag, zigzag_tube_counts)
from .geometry import (BoxSpec, FloorLine, PointSet, SeparationReport, Tube,
                       box_count, read_points, slice_floor_line, slice_tube,
                       tube_edge_distance, validate_separation, write_points)
from .survey import (SurveyConfig, SurveyReport, exception_ray_scan,
                     survey_floor_lines, tube_dim_along)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # geometry
    "PointSet", "Tube", "FloorLine", "BoxSpec", "SeparationReport",
    "validate_separation", "box_count", "tube_edge_distance", "slice_tube",
    "slice_floor_line", "read_points", "write_points",
    # generators
    "MaterializeError", "ParabolicStaircase", "ZigzagTrace", "ConeAnnuli",
    "ConeStaircase", "ConeFixedWidth", "gen_unit_line",
    "gen_parabolic_staircase", "gen_zigzag", "zigzag_tube_counts",
    "gen_cartesian", "gen_random_dimension",
    # dimension
    "DimensionProfile", "dyadic_scales", "profile_from_counts",
    "mass_dim_profile", "counting_dim_profile", "dim_1d_profile", "ff_dim",
    "annulus_profile", "LevelSearchConfig", "LevelProfile", "find_levels",
    # survey
    "SurveyConfig", "SurveyReport", "survey_floor_lines", "tube_dim_along",
    "exception_ray_scan",
    # finite field
    "FiniteFieldSet", "is_prime", "ff_line_points",
    "ff_slice_count", "ff_line_count_matrix", "ff_line_count_summary",
    "LineCountSummary", "ff_double_count", "DoubleCountError",
    "ChebyshevReport", "ff_chebyshev_fraction", "ff_affine_intersection",
    "ff_exception_limit_table",
]
