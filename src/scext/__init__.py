"""Numerical extension of fractionally semiconcave functions beyond their domain.

The package builds explicit envelope extensions from (point, reachable
gradient) support pairs, certifies semiconcavity on sampled triples, glues
local extensions over ball covers, mollifies them into smooth approximants,
and traces singularity propagation arcs, with closed-form scenarios for
validation.
"""

from .errors import (
    DegenerateDirectionError,
    DimensionError,
    EvaluationError,
    InputError,
    IsolationError,
    PartitionError,
    SamplingError,
    ScextError,
)
from .extension import (
    ExtensionField,
    GlobalExtension,
    MollifiedApproximant,
    SupportSet,
    build_extension,
    build_support_set,
    constant_bound,
    glue_global,
    partition_weights,
)
from .funcspace import FunctionSpec, named_function
from .geometry import (
    BallRegion,
    DomainSpec,
    boundary_sample,
    box,
    capped_disk,
    closure_grid,
    disk,
    half_space,
    sample_closure_points,
)
from .gradients import (
    ConvexPolytope,
    ReachableGradientSet,
    convex_hull,
    hull_gap,
    normal_cone_directions,
    polytope_distance,
    reachable_gradients,
)
from .semiconcavity import (
    ModulusParams,
    SemiconcavityCertificate,
    SemiconcavityTriple,
    certify,
    estimate_constant,
)
from .singularity import (
    SingularArc,
    check_condition_h,
    propagation_directions,
    select_p0,
    trace_singular_arc,
)

__all__ = [
    "BallRegion",
    "ConvexPolytope",
    "DegenerateDirectionError",
    "DimensionError",
    "DomainSpec",
    "EvaluationError",
    "ExtensionField",
    "FunctionSpec",
    "GlobalExtension",
    "InputError",
    "IsolationError",
    "ModulusParams",
    "MollifiedApproximant",
    "PartitionError",
    "ReachableGradientSet",
    "SamplingError",
    "ScextError",
    "SemiconcavityCertificate",
    "SemiconcavityTriple",
    "SingularArc",
    "SupportSet",
    "boundary_sample",
    "box",
    "build_extension",
    "build_support_set",
    "capped_disk",
    "certify",
    "check_condition_h",
    "closure_grid",
    "constant_bound",
    "convex_hull",
    "disk",
    "estimate_constant",
    "glue_global",
    "half_space",
    "hull_gap",
    "named_function",
    "normal_cone_directions",
    "partition_weights",
    "polytope_distance",
    "propagation_directions",
    "reachable_gradients",
    "sample_closure_points",
    "select_p0",
    "trace_singular_arc",
]
