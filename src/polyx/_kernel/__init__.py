"""Kernel selection: LP and SVM primitives from the compiled extension when
present, from pure NumPy otherwise. The one search (`min_norm_point`,
`solve_many`, in ``pure``) calls its LPs through this module, so it runs on
whichever primitives are bound here; ``native``'s own search is unused.
`solve_many` settles the rows whose first projection lands in the
polyhedron in one vectorized pass before any search, and in a second pass
the rows whose second projection lands there with KKT multipliers that
certify it; `min_norm_point` is `solve_many` on one row.
`independent_rows` is the rank certificate that lets callers, and the
search's masks, skip the LPs for a family of linearly independent rows.
The search's depth >= 1 masks decide families confined to a line or a
plane without an LP as well, so `strict_margin` runs there only for
families that linear algebra leaves undecided (near-parallel rows,
vertices near a third line, empty regions) and for criteria `_kkt`
leaves open.

A simplex breakdown inside an LP primitive (a ``RuntimeError`` from either
engine, e.g. on two rows a few nanoradians apart) leaves this module as
`errors.ConditioningError`: `primitives` wraps the LP primitives once, here,
for every caller of ``_kernel``.

``POLYX_PURE=1`` in the environment forces the pure primitives even when
the compiled module imported fine; useful for debugging and for the engine
comparison benchmark. ``NATIVE_ERROR`` keeps the text of the ``ImportError``
the compiled module raised, so a pure run can say why it is pure; it is
``None`` when the compiled module loaded or ``POLYX_PURE`` kept it from
being tried.
"""

from __future__ import annotations

import functools
import importlib
import os

from .. import errors
from . import pure

FOUND = pure.FOUND
INSIDE = pure.INSIDE
NODE_BUDGET = pure.NODE_BUDGET
TIME_BUDGET = pure.TIME_BUDGET
EXHAUSTED = pure.EXHAUSTED
PRIMITIVES = ("feasible", "strict_margin", "min_h_mask", "svm_pair")
LPS = ("feasible", "strict_margin", "min_h_mask")  # the primitives that run the simplex

_impl = pure
ENGINE = "python"
NATIVE_ERROR: str | None = None

if not os.environ.get("POLYX_PURE"):
    try:
        # import_module names the missing module; `from . import native`
        # would report a circular import from inside this __init__.
        _native = importlib.import_module(".native", __name__)
    except ImportError as exc:
        NATIVE_ERROR = str(exc)
    else:
        _impl = _native
        ENGINE = "native"


def _typed(lp):
    """`lp` with a simplex breakdown re-raised as a ConditioningError."""

    @functools.wraps(lp)
    def call(*args, **kwargs):
        try:
            return lp(*args, **kwargs)
        except RuntimeError as exc:
            raise errors.ConditioningError(f"LP breakdown: {exc}") from exc

    return call


def primitives(impl) -> dict:
    """`impl`'s primitives by name, as this module binds them."""
    return {name: _typed(getattr(impl, name)) if name in LPS else getattr(impl, name)
            for name in PRIMITIVES}


_bound = primitives(_impl)
feasible = _bound["feasible"]
strict_margin = _bound["strict_margin"]
min_h_mask = _bound["min_h_mask"]
svm_pair = _bound["svm_pair"]
min_norm_point = pure.min_norm_point
solve_many = pure.solve_many
independent_rows = pure.independent_rows


def describe() -> str:
    """The active engine and, for a pure run, why the compiled one is unused."""
    if ENGINE == "native":
        return ENGINE
    if NATIVE_ERROR is None:
        return f"{ENGINE} (POLYX_PURE is set)"
    return f"{ENGINE} (native import failed: {NATIVE_ERROR})"


def engines() -> dict:
    """Importable primitive sets by engine name; at least the pure one."""
    try:
        return {"python": pure, "native": importlib.import_module(".native", __name__)}
    except ImportError:
        return {"python": pure}
