"""ADMM baseline and the subset-enumeration oracle."""

import itertools

import numpy as np
import pytest

from helpers import exterior_query, random_polyhedron, random_rows, seeded, solve_checked, square
from polyx import bench, errors, geom, minnorm, qp_baseline


def triangle() -> geom.PolyhedronH:
    return geom.PolyhedronH.from_rows([(0, [-1, 0]), (0, [0, -1]), (1, [1, 1])])


def test_problem_validation():
    with pytest.raises(errors.InputError):
        qp_baseline.QpProblem(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(errors.InputError):
        qp_baseline.QpProblem(np.eye(2), np.zeros(3))
    with pytest.raises(errors.InputError):
        qp_baseline.QpProblem([[1.0, np.nan]], [0.0])


def test_problem_arrays_frozen():
    p = qp_baseline.QpProblem(np.eye(2), [1.0, 2.0])
    with pytest.raises(ValueError):
        p.constraint_matrix[0, 0] = 5.0


def test_approx_single_constraint():
    # min |y|^2 s.t. y1 <= -1 has the closed form (-1, 0, ...)
    p = qp_baseline.QpProblem([[1.0, 0.0, 0.0]], [-1.0])
    res = qp_baseline.solve_approx(p)
    assert res.converged
    assert np.allclose(res.point, [-1, 0, 0], atol=1e-4)


def test_approx_origin_feasible():
    p = qp_baseline.QpProblem([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [0.5, 2.0, 0.0])
    res = qp_baseline.solve_approx(p)
    assert np.linalg.norm(res.point) <= 1e-4


def test_approx_rejects_bad_tol():
    p = qp_baseline.QpProblem(np.eye(2), [1.0, 1.0])
    with pytest.raises(errors.InputError):
        qp_baseline.solve_approx(p, rel_tol=0.0)
    with pytest.raises(errors.InputError):
        qp_baseline.solve_approx(p, abs_tol=-1e-9)


def test_approx_zero_floor_is_sharper():
    # dropping the absolute floor turns the stop rule purely relative and
    # the single-constraint solution tightens by orders of magnitude
    p = qp_baseline.QpProblem([[1.0, 0.0, 0.0]], [-1.0])
    floored = qp_baseline.solve_approx(p)
    sharp = qp_baseline.solve_approx(p, abs_tol=0.0)
    assert sharp.converged
    target = np.array([-1.0, 0.0, 0.0])
    err_sharp = float(np.linalg.norm(sharp.point - target))
    err_floored = float(np.linalg.norm(floored.point - target))
    assert err_sharp <= 1e-6
    assert err_sharp < err_floored


def test_approx_nonconverged_flag():
    p = qp_baseline.QpProblem([[1.0, 0.0]], [-1.0])
    res = qp_baseline.solve_approx(p, rel_tol=1e-12, max_iter=3)
    assert not res.converged
    assert res.iterations == 3


def _reference_admm(V, s, rel_tol, max_iter):
    """The ADMM iteration with its y-update solved afresh at every step: the
    reference that the once-per-rho gain must reproduce."""
    k, n = V.shape
    rho, alpha = 1.0, 1.6
    G = V.T @ V
    chol = np.linalg.cholesky(2.0 * np.eye(n) + rho * G)
    y, z, u = np.zeros(n), np.minimum(np.zeros(k), s), np.zeros(k)
    for it in range(1, max_iter + 1):
        y = np.linalg.solve(chol.T, np.linalg.solve(chol, rho * (V.T @ (z - u))))
        Vy = V @ y
        Vy_rel = alpha * Vy + (1.0 - alpha) * z
        z_old = z
        z = np.minimum(Vy_rel + u, s)
        u = u + Vy_rel - z
        r_prim = np.linalg.norm(Vy - z)
        r_dual = rho * np.linalg.norm(V.T @ (z - z_old))
        eps_prim = 1e-4 + 1e-12 + rel_tol * max(np.linalg.norm(Vy), np.linalg.norm(z))
        eps_dual = 1e-4 + 1e-12 + rel_tol * rho * np.linalg.norm(V.T @ u)
        if r_prim <= eps_prim and r_dual <= eps_dual:
            return y, it, True
        if it % 25 == 0 and max(r_prim, r_dual) > 10.0 * min(r_prim, r_dual):
            scale = 2.0 if r_prim > r_dual else 0.5
            rho *= scale
            u /= scale
            chol = np.linalg.cholesky(2.0 * np.eye(n) + rho * G)
    return y, max_iter, False


# (n, k, seed, max_iter, iterations, converged, rho changes), recorded from
# the per-iteration-solve loop on the exact-sweep families
ADMM_PINNED = [
    (3, 20, 0, 10_000, 155, True, 0),
    (3, 20, 8, 10_000, 142, True, 3),
    (15, 15, 2, 10_000, 29, True, 0),
    (15, 15, 10, 10_000, 9, True, 0),
    (3, 100, 0, 10_000, 353, True, 1),
    (3, 100, 5, 10_000, 276, True, 3),
    (3, 100, 9, 10_000, 333, True, 0),
    (3, 20, 8, 100, 100, False, 2),
    (28, 28, 1, 10_000, 18, True, 0),
    (28, 28, 2, 10_000, 21, True, 0),
]


@pytest.mark.parametrize("n,k,seed,max_iter,iterations,converged,rho_changes", ADMM_PINNED)
def test_approx_iterations_pinned(monkeypatch, n, k, seed, max_iter, iterations, converged, rho_changes):
    gains = []
    gain = qp_baseline._gain
    monkeypatch.setattr(qp_baseline, "_gain", lambda *a: gains.append(a[2]) or gain(*a))
    P, x = bench.random_polyhedron(n, k, seed)
    V, S = P.matrix()
    res = qp_baseline.solve_approx(qp_baseline.QpProblem(V, S - V @ x), rel_tol=1e-6, max_iter=max_iter)
    assert (res.iterations, res.converged, len(gains) - 1) == (iterations, converged, rho_changes)
    y, it, conv = _reference_admm(V, S - V @ x, 1e-6, max_iter)
    assert (it, conv) == (iterations, converged)
    assert np.max(np.abs(res.point - y)) <= 1e-12 * max(1.0, float(np.max(np.abs(y))))


def _approx_errors(instances, rel_tol):
    errs = []
    for P, x in instances:
        V, S = P.matrix()
        p = qp_baseline.QpProblem(V, S - V @ x)
        res = qp_baseline.solve_approx(p, rel_tol=rel_tol)
        y_exact = solve_checked(P, x).point
        errs.append(float(np.linalg.norm((x + res.point) - y_exact)))
    return errs


def test_approx_error_band_at_default_tol():
    gen = seeded("qp-band")
    instances = []
    for _ in range(30):
        P = random_polyhedron(3, 6, gen)
        instances.append((P, exterior_query(P, gen)))
    mean = float(np.mean(_approx_errors(instances, 1e-6)))
    assert 1e-5 <= mean <= 1e-1


def test_approx_error_monotone_in_tol():
    """Tightening rel_tol from 1e-3 to 1e-8 must not degrade accuracy."""
    gen = seeded("qp-monotone")
    instances = []
    for _ in range(12):
        P = random_polyhedron(2, 5, gen)
        instances.append((P, exterior_query(P, gen)))
    tols = [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8]
    means = [float(np.mean(_approx_errors(instances, t))) for t in tols]
    for prev, cur in zip(means, means[1:]):
        # 5% slack absorbs ADMM's non-monotone last iterate
        assert cur <= prev * 1.05 + 1e-12


def test_brute_square_corner():
    assert np.allclose(qp_baseline.brute_force(square(), [2, 2]), [1, 1], atol=1e-12)


def test_brute_square_face():
    y = qp_baseline.brute_force(square(), [2, 0.5])
    assert np.allclose(y, [1, 0.5], atol=1e-12)


def test_brute_triangle_oblique_face():
    y = qp_baseline.brute_force(triangle(), [1, 1])
    assert np.allclose(y, [0.5, 0.5], atol=1e-12)


def test_brute_interior_query_is_identity():
    y = qp_baseline.brute_force(square(), [0.25, 0.5])
    assert np.allclose(y, [0.25, 0.5], atol=0)


def test_brute_empty_polyhedron():
    P = geom.PolyhedronH.from_rows([(-1, [1, 0]), (-1, [-1, 0])])
    with pytest.raises(errors.EmptyPolyhedronError):
        qp_baseline.brute_force(P, [0, 0])


def test_brute_subset_guard():
    V = np.eye(40, 20)
    V[20:] = -np.eye(20)
    P = geom.PolyhedronH.from_rows([(1.0, row) for row in V])
    with pytest.raises(errors.InputError):
        qp_baseline.brute_force(P, np.full(20, 2.0))


def test_brute_matches_solve():
    """Master correctness property: the oracle and the exact solver agree."""
    gen = seeded("qp-master")
    for trial in range(80):
        n = int(gen.integers(2, 6))
        k = int(gen.integers(1, 9))
        P = random_polyhedron(n, k, gen)
        x = exterior_query(P, gen)
        y_solve = solve_checked(P, x).point
        y_brute = qp_baseline.brute_force(P, x)
        d_solve = np.linalg.norm(y_solve - x)
        d_brute = np.linalg.norm(y_brute - x)
        assert abs(d_solve - d_brute) <= 1e-8, f"trial {trial}"
        assert np.allclose(y_solve, y_brute, atol=1e-6), f"trial {trial}"


def _reference_brute_force(P, x):
    """The oracle one subset at a time: the reference for the batched enumeration."""
    V, S = P.matrix()
    x = np.asarray(x, dtype=float)
    k, n = V.shape
    best, best_d = None, np.inf
    if (V @ x - S).max() <= geom.DEFAULT_TOL:
        best, best_d = x.copy(), 0.0
    for r in range(1, min(k, n) + 1):
        for subset in itertools.combinations(range(k), r):
            Vr = V[list(subset)]
            if np.linalg.svd(Vr, compute_uv=False)[-1] <= qp_baseline._SINGULAR_TOL:
                continue
            y = x + Vr.T @ np.linalg.solve(Vr @ Vr.T, S[list(subset)] - Vr @ x)
            if (V @ y - S).max() > geom.DEFAULT_TOL:
                continue
            d = float(np.linalg.norm(y - x))
            if d < best_d:
                best, best_d = y, d
    if best is None:
        raise errors.EmptyPolyhedronError("no feasible candidate")
    return best


@pytest.mark.parametrize("chunk", [1, 3, 7, qp_baseline._CHUNK])
def test_brute_chunks_match_the_subset_loop(monkeypatch, chunk):
    """Chunk boundaries change nothing: duplicated and parallel rows (singular
    subsets, skipped), inside queries and empty polyhedra included."""
    monkeypatch.setattr(qp_baseline, "_CHUNK", chunk)
    gen = seeded("qp-brute-chunks")
    kinds = {"inside": 0, "exterior": 0, "empty": 0}
    for trial in range(60):
        n = 2 + trial % 3
        k = 3 + trial % 5
        V, S = random_rows(n, k, gen)
        V[1] = V[0] if trial % 2 else -V[0]  # a duplicated or an opposite row
        if trial % 4 == 2:
            S[1] = -S[0] - 0.5  # opposite rows that leave nothing between them
        P = geom.PolyhedronH.from_rows(list(zip(S, V)))
        x = gen.normal(size=n) * (0.3 if trial % 3 == 0 else 3.0)
        try:
            want = _reference_brute_force(P, x)
        except errors.EmptyPolyhedronError:
            kinds["empty"] += 1
            with pytest.raises(errors.EmptyPolyhedronError):
                qp_baseline.brute_force(P, x)
            continue
        got = qp_baseline.brute_force(P, x)
        if np.array_equal(want, x):
            kinds["inside"] += 1
            assert np.array_equal(got, x)
        else:
            kinds["exterior"] += 1
            assert np.max(np.abs(got - want)) <= 1e-12, f"trial {trial}"
    assert min(kinds.values()) >= 5, kinds
