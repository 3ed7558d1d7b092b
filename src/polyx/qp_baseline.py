"""Reference solvers for min |y|^2 subject to V y <= s.

Two deliberately independent implementations: a first-order ADMM splitting
(the approximate baseline the benchmarks race against) and an exhaustive
subset-projection oracle used to certify the exact solver. Neither shares
code with the recursive search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, sqrt
from typing import NamedTuple

import numpy as np

from . import errors, geom

_SINGULAR_TOL = 1e-10
_SUBSET_GUARD = 1_000_000
#: subsets per batched step of brute_force; bounds its temporaries
_CHUNK = 4096


@dataclass(frozen=True, eq=False)
class QpProblem:
    """Constraints in the frame centered on the query point (so the
    objective is plain |y|^2)."""

    constraint_matrix: np.ndarray
    constraint_rhs: np.ndarray

    def __post_init__(self) -> None:
        V = np.atleast_2d(np.asarray(self.constraint_matrix, dtype=float))
        s = np.atleast_1d(np.asarray(self.constraint_rhs, dtype=float))
        if V.ndim != 2 or V.shape[0] < 1 or V.shape[1] < 1:
            raise errors.InputError("constraint matrix must be k x n, k,n >= 1")
        if s.shape != (V.shape[0],):
            raise errors.InputError("rhs length must match constraint count")
        if not (np.all(np.isfinite(V)) and np.all(np.isfinite(s))):
            raise errors.InputError("QP data contains non-finite values")
        V = V.copy()
        s = s.copy()
        V.flags.writeable = False
        s.flags.writeable = False
        object.__setattr__(self, "constraint_matrix", V)
        object.__setattr__(self, "constraint_rhs", s)


class ApproxResult(NamedTuple):
    point: np.ndarray
    iterations: int
    converged: bool


def _gain(V: np.ndarray, G: np.ndarray, rho: float) -> np.ndarray:
    """K = rho (2I + rho G)^-1 V^T, through the Cholesky factor of 2I + rho G."""
    chol = np.linalg.cholesky(2.0 * np.eye(len(G)) + rho * G)
    return rho * np.linalg.solve(chol.T, np.linalg.solve(chol, V.T))


def solve_approx(
    p: QpProblem, rel_tol: float = 1e-6, max_iter: int = 10_000, abs_tol: float = 1e-4
) -> ApproxResult:
    """ADMM on the splitting y, z: minimize |y|^2 + indicator(z <= s), V y = z.

    Fixed penalty rho=1 with residual balancing every 25 iterations and
    over-relaxation 1.6. Stops when both residuals fall under the customary
    first-order threshold abs_tol + rel_tol * scale. The absolute floor keeps
    the baseline honestly approximate on easy instances (OSQP ships 1e-3 for
    the same knob); set abs_tol=0 for a purely relative stop. Past max_iter
    the current iterate is returned flagged non-converged.

    The y-update solves (2I + rho G) y = rho V^T (z - u), G = V^T V. Its
    matrix changes only with rho, so it is factored once per rho, as OSQP
    does, into the gain K = rho (2I + rho G)^-1 V^T: each iteration's y is
    the single product K (z - u).
    """
    V = p.constraint_matrix
    s = p.constraint_rhs
    k, n = V.shape
    if rel_tol <= 0:
        raise errors.InputError("rel_tol must be positive")
    if abs_tol < 0:
        raise errors.InputError("abs_tol must be nonnegative")
    rho = 1.0
    alpha = 1.6
    G = V.T @ V
    K = _gain(V, G, rho)
    y = np.zeros(n)
    z = np.minimum(np.zeros(k), s)
    u = np.zeros(k)
    eps_floor = 1e-12
    converged = False
    it = 0
    # |v| as sqrt(v @ v), bitwise what np.linalg.norm computes on a 1-D array
    for it in range(1, max_iter + 1):
        y = K @ (z - u)
        Vy = V @ y
        Vy_rel = alpha * Vy + (1.0 - alpha) * z
        z_old = z
        z = np.minimum(Vy_rel + u, s)
        u = u + Vy_rel - z
        r = Vy - z
        r_prim = sqrt(r @ r)
        eps_prim = abs_tol + eps_floor + rel_tol * max(sqrt(Vy @ Vy), sqrt(z @ z))
        if r_prim > eps_prim and it % 25:
            continue  # neither the stop test nor the balancing needs the dual side
        dual = V.T @ (z - z_old)
        r_dual = rho * sqrt(dual @ dual)
        Vtu = V.T @ u
        eps_dual = abs_tol + eps_floor + rel_tol * (rho * sqrt(Vtu @ Vtu))
        if r_prim <= eps_prim and r_dual <= eps_dual:
            converged = True
            break
        if it % 25 == 0:
            if r_prim > 10.0 * r_dual:
                rho *= 2.0
                u /= 2.0
                K = _gain(V, G, rho)
            elif r_dual > 10.0 * r_prim:
                rho /= 2.0
                u *= 2.0
                K = _gain(V, G, rho)
    y = y.copy()
    y.flags.writeable = False
    return ApproxResult(y, it, converged)


def _subset_count(k: int, n: int) -> int:
    return sum(comb(k, r) for r in range(0, min(k, n) + 1))


def brute_force(P: geom.PolyhedronH, x) -> np.ndarray:
    """Exhaustive oracle: nearest point of P from x by subset enumeration.

    Every linearly independent set of at most n boundary hyperplanes yields
    one equality-projection candidate (the empty set yields x itself);
    feasible candidates compete on distance, and the first nearest one in
    enumeration order (by size, then lexicographic) wins. Exponential on
    purpose; guarded to small instances. The subsets of each size go
    through the linear algebra in batches of _CHUNK: a batched SVD for the
    rank test, a batched Gram solve for the candidates, then one feasibility
    test and one distance per candidate.
    """
    V, S = P.matrix()
    x = geom.as_point(x, P.dim)
    k, n = V.shape
    if _subset_count(k, n) > _SUBSET_GUARD:
        raise errors.InputError(
            "instance too large for brute force (subset guard exceeded)"
        )
    if (V @ x - S).max() <= geom.DEFAULT_TOL:
        inside = x.copy()  # distance 0: no candidate can be strictly nearer
        inside.flags.writeable = False
        return inside
    best: np.ndarray | None = None
    best_d = np.inf
    for r in range(1, min(k, n) + 1):
        subsets = itertools.combinations(range(k), r)
        while True:
            chunk = itertools.chain.from_iterable(itertools.islice(subsets, _CHUNK))
            idx = np.fromiter(chunk, dtype=np.intp).reshape(-1, r)
            if not len(idx):
                break
            Vr = V[idx]
            sv = np.linalg.svd(Vr, compute_uv=False)
            keep = sv[:, -1] > _SINGULAR_TOL
            Vr, idx = Vr[keep], idx[keep]
            VrT = Vr.transpose(0, 2, 1)
            # normal equations of the equality projection onto each flat
            a = np.linalg.solve(Vr @ VrT, (S[idx] - Vr @ x)[..., None])
            Y = x + (VrT @ a)[..., 0]
            Y = Y[(Y @ V.T - S).max(axis=1) <= geom.DEFAULT_TOL]
            if not len(Y):
                continue
            d = np.linalg.norm(Y - x, axis=1)
            j = int(np.argmin(d))
            if d[j] < best_d:
                best, best_d = Y[j], float(d[j])
    if best is None:
        raise errors.EmptyPolyhedronError(
            "no feasible candidate: the polyhedron is empty"
        )
    best = best.copy()
    best.flags.writeable = False
    return best
