"""Force fields admitting the normal shift of hypersurfaces: construction,
verification of the defining equations, global continuation, monodromy,
gauge transformations, and the shift itself."""

from .errors import NormalShiftError
from .expr import FieldExpr, eval_tuple, parse
from .geometry import (
    CoveringManifold,
    Hypersurface,
    MetricSpec,
    christoffel,
    deck_apply,
    metric_at,
    surface_frame,
)
from .fields import (
    ABFields,
    DerivedAB,
    ForceField,
    HWPair,
    closedness_residual,
    collinearity_defect,
    normalizing_residual,
)
from .dynamics import integrate_batch
from .pfaff import (
    AdmissibleF,
    MonodromyMap,
    PathSpec,
    continue_V,
    extract_h,
    f_norm_estimate,
    gauge_transform,
    invert_V,
    monodromy,
    path_independence_defect,
)
from .shift import (
    NuField,
    ShiftFamily,
    loop_closure_defect,
    normal_shift,
    orthogonality_defect,
    solve_nu,
)

__version__ = "0.1.0"

__all__ = [
    "NormalShiftError",
    "FieldExpr", "parse", "eval_tuple",
    "MetricSpec", "CoveringManifold", "Hypersurface",
    "metric_at", "christoffel", "surface_frame", "deck_apply",
    "HWPair", "ABFields", "DerivedAB", "ForceField",
    "closedness_residual", "normalizing_residual", "collinearity_defect",
    "integrate_batch",
    "PathSpec", "AdmissibleF", "MonodromyMap",
    "continue_V", "path_independence_defect", "invert_V",
    "f_norm_estimate", "monodromy", "gauge_transform", "extract_h",
    "NuField", "ShiftFamily", "solve_nu", "normal_shift",
    "orthogonality_defect", "loop_closure_defect",
    "__version__",
]
