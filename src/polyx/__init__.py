"""Exact minimum-norm points and signed distances on convex polyhedra.

Polyhedra live in H-representation (intersections of closed halfspaces).
The package computes exact nearest points and signed distances, minimum
H-descriptions, an ADMM baseline for comparison, and builds on those a
small hyperspectral unmixing pipeline (clustering, polyhedral partitions,
abundance and probability maps) plus a reproducible benchmark harness.

The exact search runs in Python on LP primitives that come from a compiled
extension when present and from pure NumPy twins with identical semantics
otherwise; set POLYX_PURE=1 to force the fallback. `polyx.ENGINE` names the
active choice. The SVM fit is one NumPy interior-point solver under both.
"""

__version__ = "0.1.0"

from ._kernel import ENGINE
from .errors import (
    BudgetExceededError,
    ConditioningError,
    ConvergenceError,
    DtypeError,
    EmptyPolyhedronError,
    FormatError,
    GenerationError,
    HeaderError,
    InputError,
    LengthMismatchError,
    PolyxError,
    SearchExhaustedError,
)
from .geom import (
    Halfspace,
    Hyperplane,
    PolyhedronH,
    halfspace_signed_distance,
    inside_signed_distance,
    load_polyhedron,
    min_h_description,
    save_polyhedron,
    support_filter,
)
from .minnorm import MinNormResult, signed_distance, signed_distances, solve

__all__ = [
    "ENGINE",
    "__version__",
    "BudgetExceededError",
    "ConditioningError",
    "ConvergenceError",
    "DtypeError",
    "EmptyPolyhedronError",
    "FormatError",
    "GenerationError",
    "HeaderError",
    "InputError",
    "LengthMismatchError",
    "PolyxError",
    "SearchExhaustedError",
    "Halfspace",
    "Hyperplane",
    "PolyhedronH",
    "halfspace_signed_distance",
    "inside_signed_distance",
    "load_polyhedron",
    "min_h_description",
    "save_polyhedron",
    "support_filter",
    "MinNormResult",
    "signed_distance",
    "signed_distances",
    "solve",
]
