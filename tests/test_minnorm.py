"""The optimality test and the exact solver."""

import numpy as np
import pytest

from helpers import exterior_query, pentad, random_polyhedron, seeded, solve_checked, square, use_engine
from polyx import _kernel, classify, errors, geom, minnorm
from polyx._kernel import pure

ENGINES = _kernel.engines()


def lstsq_projection(x, rows):
    """Equality-constrained least-squares oracle: y = x + A^T (A A^T)^-1 (s - A x)."""
    A = np.array([v for _, v in rows], dtype=float)
    s = np.array([s for s, _ in rows], dtype=float)
    x = np.asarray(x, dtype=float)
    return x + A.T @ np.linalg.solve(A @ A.T, s - A @ x)


def test_project_single_plane():
    # the search's first projection: onto the one violated boundary x1 = 1
    res = solve_checked(geom.PolyhedronH.from_rows([(1, [1, 0])]), [5, 5])
    assert np.allclose(res.point, [1, 5], atol=1e-12)
    assert res.signed_distance == pytest.approx(4.0)


def test_project_orthogonal_planes():
    # x1 >= 1, x2 >= 1: from the origin the search projects onto both planes
    rows = [(-1, [-1, 0]), (-1, [0, -1])]
    res = solve_checked(geom.PolyhedronH.from_rows(rows), [0, 0])
    assert np.allclose(res.point, [1, 1], atol=1e-12)
    assert np.allclose(res.point, lstsq_projection([0, 0], rows), atol=1e-12)


def test_project_oblique_pair_matches_normal_equations():
    # x1 >= 1, x1 + x2 >= 2: from (-3, 0) each single-plane foot violates the
    # other plane, so the answer is the projection onto their intersection
    rows = [(-1, [-1, 0]), (-2, [-1, -1])]
    x = [-3, 0]
    res = solve_checked(geom.PolyhedronH.from_rows(rows), x)
    assert np.allclose(res.point, [1, 1], atol=1e-10)
    assert np.allclose(res.point, lstsq_projection(x, rows), atol=1e-12)
    assert res.signed_distance == pytest.approx(np.sqrt(17))


def test_is_min_norm_corner():
    assert minnorm.is_min_norm([2, 2], [1, 1], square())


def test_is_min_norm_rejects_face_point_for_diagonal_query():
    assert not minnorm.is_min_norm([2, 2], [1, 0.5], square())


def test_is_min_norm_orthogonal_face_projection():
    assert minnorm.is_min_norm([2, 0.5], [1, 0.5], square())


def test_is_min_norm_rejects_outside_candidate():
    with pytest.raises(errors.InputError):
        minnorm.is_min_norm([2, 2], [1.5, 1.5], square())


def test_solve_square_corner():
    res = solve_checked(square(), [2, 2])
    assert np.allclose(res.point, [1, 1], atol=1e-12)
    assert res.signed_distance == pytest.approx(np.sqrt(2))
    assert res.iterations >= 1


def test_solve_inside_square():
    res = minnorm.solve(square(), [0.5, 0.5])
    assert np.array_equal(res.point, [0.5, 0.5])
    assert res.signed_distance == pytest.approx(-0.5)


def test_signed_distance_single_halfspace():
    P = geom.PolyhedronH.from_rows([(1, [1, 0])])
    assert minnorm.signed_distance(P, [4, 0]) == pytest.approx(3.0)
    assert minnorm.signed_distance(P, [0, 0]) == pytest.approx(-1.0)


def test_signed_distance_square_corner():
    assert minnorm.signed_distance(square(), [2, 2]) == pytest.approx(np.sqrt(2))


def test_solve_empty_polyhedron():
    P = geom.PolyhedronH.from_rows([(0, [1.0]), (-1, [-1.0])])
    with pytest.raises(errors.EmptyPolyhedronError):
        minnorm.solve(P, [5.0])


def test_exhausted_search_on_nonempty_polyhedron_is_typed(monkeypatch):
    monkeypatch.setattr(
        minnorm._kernel, "min_norm_point",
        lambda V, S, x, **kw: (x, 3, minnorm._kernel.EXHAUSTED),
    )
    with pytest.raises(errors.SearchExhaustedError) as info:
        minnorm.solve(square(), [2.0, 2.0])
    assert isinstance(info.value, errors.PolyxError)
    assert info.value.code == "search-exhausted"


def test_solve_node_budget():
    gen = seeded("solve-budget")
    for _ in range(200):
        P = random_polyhedron(5, 8, gen)
        x = exterior_query(P, gen)
        if minnorm.solve(P, x).iterations > 3:
            break
    else:
        pytest.fail("no multi-node instance found")
    with pytest.raises(errors.BudgetExceededError):
        minnorm.solve(P, x, node_limit=1)


def test_solve_idempotent_on_its_own_output():
    gen = seeded("idempotent")
    for _ in range(25):
        P = random_polyhedron(3, 6, gen)
        x = exterior_query(P, gen)
        y = solve_checked(P, x).point
        again = minnorm.solve(P, y)
        assert np.allclose(again.point, y, atol=1e-7)
        assert abs(again.signed_distance) < 1e-7


def test_solve_translation_equivariance():
    gen = seeded("translation")
    for _ in range(20):
        P = random_polyhedron(3, 5, gen)
        x = exterior_query(P, gen)
        t = gen.normal(size=3) * 3
        V, S = P.matrix()
        Pt = geom.PolyhedronH.from_rows(list(zip(S + V @ t, V)))
        a = solve_checked(P, x)
        b = solve_checked(Pt, x + t)
        assert np.allclose(b.point, a.point + t, atol=1e-8)
        assert b.signed_distance == pytest.approx(a.signed_distance, abs=1e-8)


def test_sign_agrees_with_containment():
    gen = seeded("sign-consistency")
    P = random_polyhedron(3, 6, gen)
    X = gen.normal(size=(100_000, 3)) * 1.5
    d = minnorm.signed_distances(P, X)
    inside = d <= 0
    for i in np.flatnonzero(np.abs(d) > 1e-9)[:2000]:
        assert geom.contains(P, X[i]) == bool(inside[i])


def test_projection_landing_inside_is_the_max_distance_face():
    # One direction only: a feasible orthogonal foot implies its face margin
    # is the maximum. The converse does not hold and is not asserted.
    gen = seeded("foot-max")
    hits = 0
    for _ in range(40):
        P = random_polyhedron(3, 6, gen)
        x = exterior_query(P, gen)
        V, S = P.matrix()
        marg = V @ x - S
        for i in range(P.k):
            if marg[i] <= 0:
                continue
            foot = x - marg[i] * V[i]
            if geom.contains(P, foot, tol=1e-12):
                assert marg[i] >= marg.max() - 1e-9
                hits += 1
    assert hits > 10


def test_planar_solution_lies_on_a_max_distance_face():
    # In the plane, with an irredundant description, the nearest point sits on
    # (one of) the hyperplane(s) of maximum signed distance.
    gen = seeded("planar-max")
    checked = 0
    for _ in range(40):
        P = geom.min_h_description(random_polyhedron(2, 5, gen))
        x = exterior_query(P, gen)
        res = solve_checked(P, x)
        V, S = P.matrix()
        marg = V @ x - S
        top = np.flatnonzero(marg >= marg.max() - 1e-9)
        assert min(abs(V[j] @ res.point - S[j]) for j in top) < 1e-8
        checked += 1
    assert checked == 40


def test_batch_matches_scalar():
    gen = seeded("batch-threads")
    P = random_polyhedron(3, 6, gen)
    X = gen.normal(size=(300, 3)) * 2
    base = minnorm.signed_distances(P, X)
    for i in range(0, 300, 37):
        assert base[i] == pytest.approx(minnorm.signed_distance(P, X[i]), abs=1e-12)


def test_batch_rejects_bad_shapes():
    with pytest.raises(errors.InputError):
        minnorm.signed_distances(square(), np.zeros((4, 3)))


# --- the first-projection pass of the batch solver --------------------------


def _record_searched(monkeypatch) -> list:
    """Wrap the kernel's search; the list receives every query handed to it."""
    seen = []
    search = pure._search

    def recorded(V, S, x, *args):
        seen.append(np.array(x))
        return search(V, S, x, *args)

    monkeypatch.setattr(pure, "_search", recorded)
    return seen


def _square_with_row_0_twice() -> geom.PolyhedronH:
    return geom.PolyhedronH.from_rows(
        [(1, [1, 0]), (1, [1, 0]), (0, [-1, 0]), (1, [0, 1]), (0, [0, -1])]
    )


def _unbounded_wedge() -> geom.PolyhedronH:
    """x1 <= 0 and x1 + x2 <= 1 in 3-D: unbounded along -x1, -x2 and x3."""
    return geom.PolyhedronH.from_rows([(0, [1, 0, 0]), (1, [1, 1, 0])])


def _cube() -> geom.PolyhedronH:
    """Unit cube 0 <= x1, x2, x3 <= 1."""
    rows = []
    for axis in np.eye(3):
        rows += [(1, axis), (0, -axis)]
    return geom.PolyhedronH.from_rows(rows)


_FACE_QUERIES = [[0.5, 3.0], [3.0, 0.2], [-2.0, 0.7], [0.1, -4.0], [0.5, 0.5]]
_CORNER_QUERIES = [[2.0, 2.0], [-1.0, -1.0], [1.5, -2.0], [-3.0, 4.0]]
# the unit cube from beyond a face (2 nodes), an edge (3) and a corner (4)
_CUBE_FACES = [[0.5, 0.5, 3.0], [-2.0, 0.2, 0.7], [0.5, 0.5, 0.5]]
_CUBE_EDGES = [[2.0, 3.0, 0.5], [-1.0, 0.5, -2.0]]
_CUBE_CORNERS = [[2.0, 2.0, 2.0], [-1.0, 3.0, -2.0], [1.5, -2.0, 4.0], [-3.0, -1.0, -1.5]]


def _pass_cases():
    """(label, P, X, how many exterior rows the search gets: none, some, all)."""
    gen = seeded("first-projection-cases")
    random_P = random_polyhedron(4, 9, gen)
    return [
        ("faces", square(), np.array(_FACE_QUERIES), "none"),
        ("faces-edges-and-corners", _cube(),
         np.repeat(np.array(_CUBE_FACES + _CUBE_EDGES + _CUBE_CORNERS), 2, axis=0), "some"),
        ("corners", _cube(), np.array(_CUBE_CORNERS + [[0.5, 0.5, 0.5]]), "all"),
        # rows 0 and 1 tie for the largest margin wherever x1 > 1
        ("duplicate-halfspace", _square_with_row_0_twice(),
         np.array([[3.0, 0.5], [2.0, 2.0], [4.0, -1.0], [1.5, 0.25]]), "some"),
        # (3, 3) is settled on row 4, which touches the set only at (1, 1);
        # (2, 1.5) reaches (1, 1), where rows 0, 1 and 4 are tight
        ("weakly-redundant", pentad(),
         np.array([[3.0, 3.0], [0.0, 5.0], [5.0, -5.0], [-5.0, 0.5], [0.0, 0.0],
                   [2.0, 1.5]]), "some"),
        # two independent rows: every nearest point is a foot on one or both
        ("unbounded", _unbounded_wedge(), gen.normal(size=(200, 3)) * 3, "none"),
        ("random", random_P, gen.normal(size=(300, 4)) * 3, "some"),
    ]


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("case", range(len(_pass_cases())))
def test_first_projection_pass_matches_the_search(monkeypatch, engine, case):
    label, P, X, searched = _pass_cases()[case]
    use_engine(monkeypatch, engine)
    seen = _record_searched(monkeypatch)
    got = minnorm.signed_distances(P, X)
    rows = len(seen)
    want = np.array([minnorm.solve(P, x).signed_distance for x in X])
    assert np.abs(got - want).max() <= 1e-12, label
    V, S = P.matrix()
    exterior = int(((X @ V.T - S).max(axis=1) > 1e-9).sum())
    assert exterior > 0, label
    expected = {"none": rows == 0, "some": 0 < rows < exterior, "all": rows == exterior}
    assert expected[searched], (label, rows, exterior)


def test_kmeans_cells_never_reach_the_search(monkeypatch):
    gen = seeded("voronoi-first-projection")
    centers = gen.normal(size=(3, 20)) * 3
    data = np.repeat(centers, 100, axis=0) + 0.3 * gen.normal(size=(300, 20))
    partition = classify.voronoi_partition(classify.kmeans_fit(data, 3, seed=0))
    seen = _record_searched(monkeypatch)
    for poly in partition.polyhedra:
        assert (minnorm.signed_distances(poly, data) > 0).sum() >= 100
    assert seen == []


def test_search_receives_exactly_the_rows_left_over(monkeypatch):
    # On an irredundant family the search's first pivot is the most violated
    # face, and its second the most violated projected face. So a row is left
    # over iff its solve takes more than 3 nodes, or 3 nodes at a point the
    # KKT multipliers of exactly two tight rows do not certify (here: the
    # corners of the square with row 0 twice, where three rows are tight).
    gen = seeded("first-projection-leftover")
    cases = [
        (_cube(), np.array(_CUBE_FACES + _CUBE_EDGES + _CUBE_CORNERS)),
        (_square_with_row_0_twice(), np.array(_FACE_QUERIES + _CORNER_QUERIES)),
        (geom.min_h_description(random_polyhedron(4, 9, gen)), gen.normal(size=(300, 4)) * 3),
    ]
    for P, X in cases:
        V, S = P.matrix()
        Y, _, nodes, status = _kernel.solve_many(V, S, X)
        found = status == _kernel.FOUND
        certified = np.zeros(len(X), dtype=bool)
        for i in np.flatnonzero(found & (nodes == 3)):
            m = V @ Y[i] - S
            w = X[i] - Y[i]
            certified[i] = ((m >= -1e-9).sum() == 2
                            and pure._kkt(V, m, w, np.linalg.norm(w), 1e-9) is True)
        left = X[found & ((nodes > 3) | ((nodes == 3) & ~certified))]
        assert 0 < len(left) < found.sum()
        seen = _record_searched(monkeypatch)
        minnorm.signed_distances(P, X)
        monkeypatch.undo()
        assert np.array_equal(np.array(seen), left)


def test_solve_many_gets_every_exterior_row_in_one_call(monkeypatch):
    # inside rows, face rows the first projection settles, corner rows it does not
    P = square()
    X = seeded("exterior-batch").uniform(-1.5, 2.5, size=(200, 2))
    V, S = P.matrix()
    exterior = (X @ V.T - S).max(axis=1) > 1e-9
    assert 0 < exterior.sum() < len(X)
    batches = []
    solve_many = _kernel.solve_many

    def recorded(V, S, X, **kwargs):
        batches.append(np.array(X))
        return solve_many(V, S, X, **kwargs)

    monkeypatch.setattr(_kernel, "solve_many", recorded)
    minnorm.signed_distances(P, X)
    assert len(batches) == 1 and np.array_equal(batches[0], X[exterior])


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("node_limit", [0, 1])
def test_batch_node_budget_below_two_raises_on_exterior_rows(monkeypatch, engine, node_limit):
    # every exterior row here is settled by the first projection at 2 nodes
    use_engine(monkeypatch, engine)
    with pytest.raises(errors.BudgetExceededError):
        minnorm.signed_distances(square(), np.array(_FACE_QUERIES), node_limit=node_limit)
    inside = np.array([[0.5, 0.5], [0.2, 0.9]])
    assert np.allclose(minnorm.signed_distances(square(), inside, node_limit=node_limit), [-0.5, -0.1])


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_batch_node_budget_of_two_settles_first_projections_only(monkeypatch, engine):
    use_engine(monkeypatch, engine)
    got = minnorm.signed_distances(square(), np.array(_FACE_QUERIES), node_limit=2)
    assert np.allclose(got, [2.0, 2.0, 2.0, 4.0, -0.5])
    with pytest.raises(errors.BudgetExceededError):
        minnorm.signed_distances(square(), np.array([[2.0, 2.0]]), node_limit=2)
