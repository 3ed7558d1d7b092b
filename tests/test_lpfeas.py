"""The LP feasibility primitives, `_kernel.feasible` and `_kernel.strict_margin`,
against constructed cases and a grid-search oracle."""

import numpy as np

from helpers import seeded
from polyx import _kernel, minnorm


def feasible(rows, rhs) -> bool:
    """Whether rows . x <= rhs admits a solution (x free in sign)."""
    return bool(_kernel.feasible(np.asarray(rows, dtype=float), np.asarray(rhs, dtype=float)))


def strict_feasible(rows, rhs) -> bool:
    """Whether rows . x < rhs admits a solution: the optimal slack of
    `strict_margin` exceeds the tolerance the optimality test uses."""
    margin = _kernel.strict_margin(np.asarray(rows, dtype=float), np.asarray(rhs, dtype=float))
    return margin > minnorm.STRICT_TOL


def test_interval_is_feasible():
    assert feasible([[1.0], [-1.0]], [1.0, 0.0])


def test_empty_interval_is_infeasible():
    assert not feasible([[1.0], [-1.0]], [0.0, -1.0])


def test_simplex_is_feasible():
    assert feasible([[1, 1], [-1, 0], [0, -1]], [1, 0, 0])


def test_strict_single_halfspace():
    assert strict_feasible([[1.0]], [1.0])


def test_strict_fails_on_single_point():
    # x < 0 and -x < 0 admit only x = 0, and only non-strictly.
    assert not strict_feasible([[1.0], [-1.0]], [0.0, 0.0])
    assert feasible([[1.0], [-1.0]], [0.0, 0.0])


def test_strict_fails_on_boundary_only_intersection():
    assert not strict_feasible([[1.0], [-1.0]], [1.0, -1.0])


def test_strict_implies_feasible():
    gen = seeded("strict-implies")
    for _ in range(100):
        m = int(gen.integers(1, 6))
        rows = gen.normal(size=(m, 2))
        rhs = gen.uniform(-1, 1, size=m)
        if strict_feasible(rows, rhs):
            assert feasible(rows, rhs)


def test_positive_row_scaling_is_irrelevant():
    gen = seeded("row-scaling")
    for _ in range(50):
        m = int(gen.integers(1, 5))
        rows = gen.normal(size=(m, 3))
        rhs = gen.uniform(-1, 1, size=m)
        scale = gen.uniform(0.01, 100.0, size=m)
        a = (rows, rhs)
        b = (rows * scale[:, None], rhs * scale)
        assert feasible(*a) == feasible(*b)
        assert strict_feasible(*a) == strict_feasible(*b)


def test_grid_oracle_agreement():
    """200 random 2D systems versus an exhaustive grid over [-10, 10]^2.

    Rows are unit-norm, so the max-margin function is 1-Lipschitz and a grid
    at spacing h pins its minimum to within h*sqrt(2)/2 < 1e-2. Verdicts are
    only asserted outside that +-1e-2 dead band: a grid witness deeper than
    -1e-2 forces both deciders to say yes; a grid minimum above +1e-2 forces
    the box-bounded system to be infeasible.
    """
    gen = seeded("grid-oracle")
    ax = np.arange(-10.0, 10.0 + 1e-12, 0.01, dtype=np.float32)
    X, Y = np.meshgrid(ax, ax, sparse=True)
    box_rows = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
    box_rhs = np.full(4, 10.0)
    strict_hits = infeasible_hits = 0
    for trial in range(200):
        m = int(gen.integers(1, 5))
        rows = gen.normal(size=(m, 2))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        # widen offsets on half the trials so both verdicts actually occur
        rhs = gen.uniform(-1.5, 0.5 if trial % 2 else 1.5, size=m)
        g = np.full((ax.size, ax.size), -np.inf, dtype=np.float32)
        for (a1, a2), b in zip(rows, rhs):
            np.maximum(g, np.float32(a1) * X + np.float32(a2) * Y - np.float32(b), out=g)
        gmin = float(g.min())
        if gmin < -1e-2:
            strict_hits += 1
            assert strict_feasible(rows, rhs), (trial, gmin)
            assert feasible(rows, rhs), (trial, gmin)
        elif gmin > 1e-2:
            infeasible_hits += 1
            boxed = (np.vstack([rows, box_rows]), np.concatenate([rhs, box_rhs]))
            assert not feasible(*boxed), (trial, gmin)
            assert not strict_feasible(*boxed), (trial, gmin)
    assert strict_hits >= 20 and infeasible_hits >= 20, (strict_hits, infeasible_hits)
