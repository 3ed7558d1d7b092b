"""Error hierarchy. Every error carries a stable machine-readable code used
by the CLI's JSON error output."""

from __future__ import annotations


class PolyxError(Exception):
    """Base class; subclasses set a stable ``code`` string."""

    code = "error"


class InputError(PolyxError):
    """Malformed or inconsistent caller input (dimensions, NaN/Inf, ranges)."""

    code = "invalid-input"


class EmptyPolyhedronError(PolyxError):
    code = "empty-polyhedron"


class BudgetExceededError(PolyxError):
    code = "budget-exceeded"


class SearchExhaustedError(PolyxError):
    """The exact search found no point on a polyhedron that is not empty."""

    code = "search-exhausted"


class GenerationError(PolyxError):
    """Stochastic generator exhausted its retry limit."""

    code = "generation-failed"


class ConvergenceError(PolyxError):
    code = "no-convergence"


class ConditioningError(PolyxError):
    """Numerically ill-conditioned linear algebra (basis change, endmembers)."""

    code = "ill-conditioned"


class FormatError(PolyxError):
    """File format problems; ``code`` is refined per failure mode."""

    code = "bad-format"


class HeaderError(FormatError):
    code = "bad-header"


class LengthMismatchError(FormatError):
    code = "length-mismatch"


class DtypeError(FormatError):
    code = "unknown-dtype"
