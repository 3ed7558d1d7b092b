"""Shared shapes, generators and the optimality-checked solve wrapper."""

from __future__ import annotations

import numpy as np

from polyx import _kernel, geom, minnorm
from polyx.rng import stream


def square() -> geom.PolyhedronH:
    """Unit square 0 <= x1 <= 1, 0 <= x2 <= 1."""
    return geom.PolyhedronH.from_rows(
        [(1, [1, 0]), (0, [-1, 0]), (1, [0, 1]), (0, [0, -1])]
    )


def pentad() -> geom.PolyhedronH:
    """Triangle with two redundant extras: one missing the set, one touching a vertex.

    The set is the triangle with corners (1,1), (1,-3), (-3,1). Rows 0..2 are
    its faces; row 3 (x1 <= 3) never touches it, row 4 (x1+x2 <= 2) touches
    only the corner (1,1). Support filtering keeps row 4, the minimum
    description drops both extras.
    """
    return geom.PolyhedronH.from_rows(
        [(1, [1, 0]), (1, [0, 1]), (2, [-1, -1]), (3, [1, 0]), (2, [1, 1])]
    )


def random_rows(n: int, k: int, gen: np.random.Generator, lo: float = -0.2, hi: float = 1.5):
    """k unit normals with offsets in [lo, hi]; may be empty or unbounded."""
    V = gen.normal(size=(k, n))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    S = gen.uniform(lo, hi, size=k)
    return V, S


def random_polyhedron(n: int, k: int, gen: np.random.Generator) -> geom.PolyhedronH:
    """Non-empty random polyhedron; offsets straddle 0 so faces can cut the origin."""
    while True:
        V, S = random_rows(n, k, gen)
        if _kernel.feasible(V, S):
            return geom.PolyhedronH.from_rows(list(zip(S, V)))


def exterior_query(P: geom.PolyhedronH, gen: np.random.Generator, margin: float = 1e-6) -> np.ndarray:
    V, S = P.matrix()
    while True:
        x = gen.normal(size=P.dim) * gen.uniform(0.5, 4.0)
        if (V @ x - S).max() > margin:
            return x


def solve_checked(P: geom.PolyhedronH, x, **kwargs) -> minnorm.MinNormResult:
    """minnorm.solve plus the optimality-criterion assertion on every call."""
    res = minnorm.solve(P, x, **kwargs)
    assert minnorm.is_min_norm(x, res.point, P)
    return res


def seeded(label: str, index: int = 0) -> np.random.Generator:
    """Deterministic per-test generator, decoupled across labels."""
    return stream(20260819, label, index)


def use_engine(monkeypatch, name: str) -> None:
    """Bind the named engine's LP and SVM primitives for the rest of a test."""
    for attr, fn in _kernel.primitives(_kernel.engines()[name]).items():
        monkeypatch.setattr(_kernel, attr, fn)
