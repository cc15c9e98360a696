"""Exact-arithmetic dynamics of piecewise linear circle homeomorphisms:
derivative-jump cocycles, the induced affine isometric action, rotation
numbers, exotic circles, coboundary-based conjugation into rotations, and
Cantor-Bendixson ranks of symbolic countable sets."""

from .circle import CirclePoint, frac_mod1, reduce_mod1
from .homeo import (ExoticParams, InvalidHomeoError, PLHomeo, exotic_element,
                    from_lift_vertices, identity, random_pl, rotation)
from .cocycle import (FiniteVector, GrowthParams, affine_apply,
                      breakpoint_growth, growth_params, growth_sequences,
                      jump_cocycle, l2_norm_sq, orbit_norm_seq)
from .rotnum import FixedSet, RotNumResult, fixed_points, rotation_number
from .smoothing import (Edge, GroupPresentation, Obstruction, Success,
                        Truncated, commensuration_defect, detect_finite_orbit,
                        smooth_group, synthesize_conjugator)
from .cantor_bendixson import (CBRank, Leaf, Limit, SymbolicSet, cb_derivative,
                               cb_rank, nested_limit, realize,
                               validate_realization)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
