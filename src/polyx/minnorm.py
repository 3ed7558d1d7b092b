"""Exact minimum-norm points and signed distances for H-polyhedra.

The solver projects the query onto intersections of boundary hyperplanes,
recursing through reduced constraint families until a candidate passes the
global optimality test (a strict linear system that is infeasible exactly at
the nearest point). The search, with its projections and family reductions,
lives in the kernel, which runs it on the active engine's LP primitives
and settles without it, in two vectorized passes, the queries it would
stop for at its second node (the foot on the most violated hyperplane,
when that foot lies in P) and at its third (the foot on that hyperplane
and the next most violated one, when it lies in P with exactly those two
rows tight and KKT multipliers that certify it). Inside
the search, a candidate whose tight rows are linearly independent is
decided by the signs of its KKT multipliers, and the strict system's LP
runs only where they cannot tell. This module holds the public result
type, the optimality test (`is_min_norm`, always the LP), and the single
and batch entry points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernel, errors, geom

#: a system counts as strictly feasible when the optimal slack exceeds this
STRICT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class MinNormResult:
    point: np.ndarray
    signed_distance: float
    iterations: int


def is_min_norm(x, y, P: geom.PolyhedronH, tol: float = geom.DEFAULT_TOL) -> bool:
    """Global optimality test: is y the nearest point of P from x?

    Holds iff no point of P's interior is strictly closer to x than y, i.e.
    the strict system {interior of P} with the extra cut <z, y-x> < <y, y-x>
    is infeasible. y must belong to P; y equal to x is trivially optimal.
    """
    V, S = P.matrix()
    x = geom.as_point(x, P.dim)
    y = geom.as_point(y, P.dim)
    if (V @ y - S).max() > tol:
        raise errors.InputError("y must lie in the polyhedron")
    v = y - x
    nv = float(np.linalg.norm(v))
    if nv <= tol:
        return True
    v = v / nv
    rows = np.vstack([V, v[None, :]])
    rhs = np.concatenate([S, [float(y @ v)]])
    return _kernel.strict_margin(rows, rhs) <= STRICT_TOL


def raise_for_status(status: int, nodes: int, V, S) -> None:
    """Raise the typed error for a budget or exhausted status; return on any other."""
    if status == _kernel.NODE_BUDGET:
        raise errors.BudgetExceededError(
            f"node budget exhausted after {nodes} recursion nodes"
        )
    if status == _kernel.TIME_BUDGET:
        raise errors.BudgetExceededError("per-solve time budget exhausted")
    if status == _kernel.EXHAUSTED:
        if not _kernel.feasible(V, S):
            raise errors.EmptyPolyhedronError("the polyhedron is empty")
        raise errors.SearchExhaustedError("search exhausted on a non-empty polyhedron")


def solve(
    P: geom.PolyhedronH,
    x,
    tol: float = geom.DEFAULT_TOL,
    node_limit: int = 10_000_000,
    time_budget: float | None = None,
) -> MinNormResult:
    """Nearest point of P from x and the signed distance to the frontier.

    Inside queries return the query itself with the non-positive max-margin
    distance evaluated on the minimum description (so redundant halfspaces
    cannot shrink the magnitude). Outside queries run the exact recursive
    search. `tol` is the containment tolerance separating the two regimes.
    """
    V, S = P.matrix()
    x = geom.as_point(x, P.dim)
    y, nodes, status = _kernel.min_norm_point(
        V, S, x,
        eps=float(tol),
        node_limit=int(node_limit),
        time_budget=time_budget,
    )
    if status == _kernel.INSIDE:
        d = geom.inside_signed_distance(geom.min_h_description(P), x, tol=float(tol))
        pt = x.copy()
        pt.flags.writeable = False
        return MinNormResult(pt, d, int(nodes))
    if status == _kernel.FOUND:
        y = np.asarray(y)
        y.flags.writeable = False
        return MinNormResult(y, float(np.linalg.norm(y - x)), int(nodes))
    raise_for_status(status, nodes, V, S)
    raise AssertionError("unreachable")


def signed_distance(P: geom.PolyhedronH, x, **kwargs) -> float:
    """Scalar form of solve: negative inside, positive outside, 0 on the frontier."""
    return solve(P, x, **kwargs).signed_distance


def _check_batch(status, node_limit: int, V, S) -> None:
    status = np.asarray(status)
    bad = status[status != _kernel.FOUND]
    if bad.size:
        raise_for_status(int(bad[0]), node_limit, V, S)


def signed_distances(
    P: geom.PolyhedronH,
    X,
    node_limit: int = 10_000_000,
) -> np.ndarray:
    """Signed distance of every row of X to P.

    Inside rows are settled in one vectorized max-margin pass over the
    minimum description, which is P itself, found without an LP, when its
    normals are independent (`geom.min_h_description`). Every exterior row
    then goes to the kernel in one
    `solve_many` batch, which settles the rows whose foot on their most
    violated hyperplane lies in P in one vectorized pass, the rows whose
    certified second foot does in another, and searches the rest, sharing
    the root redundancy mask.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != P.dim:
        raise errors.InputError("X must be a points x dim matrix")
    if not np.all(np.isfinite(X)):
        raise errors.InputError("X contains non-finite values")
    V, S = P.matrix()
    out = np.empty(X.shape[0])
    worst = (X @ V.T - S).max(axis=1)
    inside = worst <= 1e-9
    if inside.any():
        Q = geom.min_h_description(P)
        if Q.k != P.k:
            Vq, Sq = Q.matrix()
            out[inside] = (X[inside] @ Vq.T - Sq).max(axis=1)
        else:
            out[inside] = worst[inside]
    todo = np.flatnonzero(~inside)
    if todo.size:
        _, dist, _, status = _kernel.solve_many(V, S, X[todo], node_limit=node_limit)
        _check_batch(status, node_limit, V, S)
        out[todo] = dist
    return out
