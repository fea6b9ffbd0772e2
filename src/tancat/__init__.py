"""Nilpotent-tower tangent structure on Euclidean charts.

Truncated towers give exact iterated tangents of chart maps.  A
tangent point is its block array, of shape ``(2**n, dim, *batch)``, and
the classical structure maps (projection, fiber addition, the level
swap, vertical lifts, fiber scaling) act on such arrays; a swappable
axiom suite verifies them on random charts.
On top of that sit vector fields with a kernel-certified bracket,
fibered groupoids with their tangent groupoids, the invariant fields
of a groupoid's right action on its own arrows, and the
differentiation of a groupoid into its algebroid.  The ``tancat`` command produces deterministic JSON
verification reports for all of it.
"""

from .algebroid import (Algebroid, Section, algebroid_bracket, algebroid_of,
                        anchor_field, bracket_table, check_algebroid_laws,
                        extend_to_invariant, pullback_target,
                        restrict_to_unit, section_scale)
from .axioms import ALL_CHECKS, DEFAULT_OPS, TangentOps, run_axiom_suite
from .domain import Domain, SmoothMap, box_domain, product_domain
from .errors import (DomainError, FiberMismatchError, KernelViolationError,
                     SamplerError, StructureError, VerticalityError)
from .expr import (Expr, ExprBuilder, build, cos, exp, log, parallel,
                   reindex_inputs, sin, sqrt, tangent_lift)
from .fields import (ScalarField, VectorField, act_on_function,
                     bracket_by_jacobians, check_bracket_laws, check_related,
                     field_add, field_scale, jacobian_at, kernel_residual,
                     lie_bracket)
from .gbundle import (act_on_vertical, check_invariant_closure,
                      check_vertical_structure, invariance_defect,
                      is_invariant, vertical_tangent)
from .groupoid import (BUILTIN_GROUPOIDS, FiberedGroupoid, action_groupoid,
                       check_differentiability, check_groupoid_axioms,
                       groupoid_from_json_dict, groupoid_to_json_dict,
                       linear_action, matrix_group, pair_groupoid,
                       tangent_groupoid)
from .report import CheckResult, Report, RunConfig, rng_for
from .tanpoint import (add_fiber, apply_tangent, collapse_inner, expand_inner,
                       fiber_component, partial_tangent, project, residual,
                       scale_level, sub_fiber, swap_levels, vertical_lift,
                       vertical_lift_pair, vertical_pair_parts, zero_lift)
from .tower import MAX_ORDER, Tower, join_top

__version__ = "0.1.0"

__all__ = [
    "MAX_ORDER", "Tower", "join_top",
    "Expr", "ExprBuilder", "build", "cos", "exp", "log", "parallel", "sin",
    "sqrt", "reindex_inputs", "tangent_lift",
    "Domain", "SmoothMap", "box_domain", "product_domain",
    "apply_tangent", "project", "zero_lift", "add_fiber",
    "sub_fiber", "swap_levels", "vertical_lift", "vertical_lift_pair",
    "vertical_pair_parts", "scale_level", "fiber_component",
    "partial_tangent", "collapse_inner", "expand_inner", "residual",
    "TangentOps", "DEFAULT_OPS", "ALL_CHECKS", "run_axiom_suite",
    "ScalarField", "VectorField", "lie_bracket", "kernel_residual",
    "field_add", "field_scale", "act_on_function", "jacobian_at",
    "bracket_by_jacobians", "check_related", "check_bracket_laws",
    "FiberedGroupoid", "pair_groupoid", "matrix_group", "linear_action",
    "action_groupoid", "tangent_groupoid", "check_groupoid_axioms",
    "check_differentiability", "groupoid_to_json_dict",
    "groupoid_from_json_dict", "BUILTIN_GROUPOIDS",
    "vertical_tangent", "act_on_vertical", "invariance_defect",
    "is_invariant", "check_vertical_structure", "check_invariant_closure",
    "Algebroid", "Section", "algebroid_of", "anchor_field",
    "extend_to_invariant", "restrict_to_unit", "algebroid_bracket",
    "section_scale", "pullback_target",
    "check_algebroid_laws", "bracket_table",
    "RunConfig", "CheckResult", "Report", "rng_for",
    "DomainError", "FiberMismatchError", "KernelViolationError",
    "VerticalityError", "SamplerError", "StructureError",
]
