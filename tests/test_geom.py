"""Halfspace geometry: distances, containment, reduction, JSON format."""

import json

import numpy as np
import pytest

from helpers import pentad, random_polyhedron, random_rows, seeded, square
from polyx import _kernel, classify, errors, geom


def test_hyperplane_normalizes_jointly():
    h = geom.Hyperplane(2.0, [2.0, 0.0])
    assert h.offset == pytest.approx(1.0)
    assert np.allclose(h.normal, [1.0, 0.0])


def test_hyperplane_rejects_degenerate_normal():
    with pytest.raises(errors.InputError):
        geom.Hyperplane(1.0, [0.0, 1e-13])


def test_normals_are_unit_after_construction():
    gen = seeded("unit-normals")
    for _ in range(50):
        v = gen.normal(size=4) * gen.uniform(0.1, 100)
        h = geom.Halfspace.from_raw(gen.normal(), v)
        assert abs(np.linalg.norm(h.normal) - 1.0) < 1e-12


def test_halfspace_distance_outside():
    b = geom.Halfspace.from_raw(1.0, [1.0, 0.0])
    assert geom.halfspace_signed_distance([3.0, 0.0], b) == pytest.approx(2.0)


def test_halfspace_distance_inside():
    b = geom.Halfspace.from_raw(1.0, [1.0, 0.0])
    assert geom.halfspace_signed_distance([0.0, 0.0], b) == pytest.approx(-1.0)


def test_halfspace_distance_on_boundary():
    b = geom.Halfspace.from_raw(1.0, [1.0, 0.0])
    assert geom.halfspace_signed_distance([1.0, 5.0], b) == pytest.approx(0.0)


def test_contains_interior_exact():
    assert geom.contains(square(), [0.5, 0.5], tol=0.0)


def test_contains_exterior():
    assert not geom.contains(square(), [1.5, 0.5], tol=0.0)


def test_contains_tolerance_absorbs_roundoff():
    assert geom.contains(square(), [1 + 1e-12, 0.5], tol=1e-9)


def test_inside_distance_square_center():
    assert geom.inside_signed_distance(square(), [0.5, 0.5]) == pytest.approx(-0.5)


def test_inside_distance_near_face():
    assert geom.inside_signed_distance(square(), [0.9, 0.5]) == pytest.approx(-0.1)


def test_inside_distance_single_halfspace():
    P = geom.PolyhedronH.from_rows([(1, [1, 0])])
    assert geom.inside_signed_distance(P, [0.0, 0.0]) == pytest.approx(-1.0)


def test_inside_distance_rejects_exterior_point():
    with pytest.raises(errors.InputError):
        geom.inside_signed_distance(square(), [2.0, 0.5])


def test_inside_distance_nonpositive_whenever_contained():
    gen = seeded("inside-sign")
    for _ in range(30):
        P = random_polyhedron(3, 5, gen)
        x = gen.normal(size=3) * 0.3
        if geom.contains(P, x, tol=0.0):
            assert geom.inside_signed_distance(P, x) <= 0.0


def test_support_filter_drops_slack_constraint():
    P = geom.PolyhedronH.from_rows(
        [(1, [1, 0]), (0, [-1, 0]), (1, [0, 1]), (0, [0, -1]), (2, [1, 0])]
    )
    Q = geom.support_filter(P)
    assert Q.k == 4
    assert all(np.allclose(a.normal, b.normal) for a, b in zip(Q.halfspaces, P.halfspaces))


def test_support_filter_keeps_vertex_toucher():
    # The face missing the set goes; the one touching a single corner stays.
    Q = geom.support_filter(pentad())
    assert Q.k == 4
    assert np.allclose(Q.halfspaces[3].normal, pentad().halfspaces[4].normal)


def test_support_filter_single_halfspace_unchanged():
    P = geom.PolyhedronH.from_rows([(1, [0, 1])])
    assert geom.support_filter(P).k == 1


def test_support_filter_rejects_empty_set():
    P = geom.PolyhedronH.from_rows([(0, [1.0]), (-1, [-1.0])])
    with pytest.raises(errors.EmptyPolyhedronError):
        geom.support_filter(P)


def test_min_h_keeps_exactly_the_supporting_triangle():
    Q = geom.min_h_description(pentad())
    assert Q.k == 3
    for kept, orig in zip(Q.halfspaces, pentad().halfspaces[:3]):
        assert np.allclose(kept.normal, orig.normal)
        assert kept.offset == pytest.approx(orig.offset)


def test_min_h_duplicate_keeps_lowest_index():
    P = geom.PolyhedronH.from_rows(
        [(1, [1, 0]), (0, [-1, 0]), (1, [0, 1]), (0, [0, -1]), (1, [1, 0])]
    )
    Q = geom.min_h_description(P)
    assert Q.k == 4
    assert [tuple(b.normal) for b in Q.halfspaces] == [
        (1, 0), (-1, 0), (0, 1), (0, -1),
    ]


def test_min_h_triangle_unchanged():
    T = geom.PolyhedronH.from_rows([(0, [-1, 0]), (0, [0, -1]), (1, [1, 1])])
    assert geom.min_h_description(T).k == 3


def test_min_h_idempotent_and_contained_in_support_filter():
    gen = seeded("min-h-props")
    for _ in range(20):
        P = random_polyhedron(3, 7, gen)
        Q = geom.min_h_description(P)
        QQ = geom.min_h_description(Q)
        assert Q.k == QQ.k
        assert all(
            np.allclose(a.normal, b.normal) and a.offset == b.offset
            for a, b in zip(Q.halfspaces, QQ.halfspaces)
        )
        kept = {(round(b.offset, 12), tuple(np.round(b.normal, 12))) for b in Q.halfspaces}
        sf = {(round(b.offset, 12), tuple(np.round(b.normal, 12))) for b in geom.support_filter(P).halfspaces}
        assert kept <= sf


def test_min_h_preserves_containment():
    gen = seeded("min-h-containment")
    for _ in range(10):
        P = random_polyhedron(2, 6, gen)
        Q = geom.min_h_description(P)
        pts = gen.uniform(-3, 3, size=(1000, 2))
        for x in pts:
            assert geom.contains(P, x) == geom.contains(Q, x)


def _count_lps(monkeypatch) -> list:
    """Record the name of every LP primitive called through `_kernel`."""
    calls = []
    for name in _kernel.PRIMITIVES:
        real = getattr(_kernel, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(_kernel, name, counted)
    return calls


def _lp_path(monkeypatch, reduce, P):
    """`reduce(P)` with the rank certificate switched off, so the LPs decide."""
    with monkeypatch.context() as m:
        m.setattr(_kernel, "independent_rows", lambda V: False)
        return reduce(P)


def _same(P, Q) -> bool:
    return P.k == Q.k and all(a is b for a, b in zip(P.halfspaces, Q.halfspaces))


def _near_pair(gen, n: int, k: int, angle: float) -> geom.PolyhedronH:
    """k random unit rows in n-D, row 1 turned `angle` rad away from row 0."""
    V, S = random_rows(n, k, gen, lo=0.3, hi=1.5)
    u = gen.normal(size=n)
    u -= (u @ V[0]) * V[0]
    V[1] = np.cos(angle) * V[0] + np.sin(angle) * (u / np.linalg.norm(u))
    return geom.PolyhedronH.from_rows(zip(S, V))


def _class_polyhedra():
    """The k-means Voronoi cells and one-vs-one SVM cells of three blobs in 6 bands."""
    gen = seeded("class-cells")
    centers = gen.normal(size=(3, 6)) * 3.0
    labels = np.repeat(np.arange(3), 40)
    data = centers[labels] + gen.normal(size=(120, 6))
    voronoi = classify.voronoi_partition(classify.kmeans_fit(data, 3, seed=0))
    svm = classify.ovo_svm_partition(data, labels, 3, seed=0)
    return voronoi.polyhedra + svm.polyhedra


def test_independent_families_run_no_lp(monkeypatch):
    gen = seeded("rank-certificate")
    families = [random_polyhedron(n, int(gen.integers(1, n + 1)), gen) for n in range(2, 9)]
    families += list(_class_polyhedra())
    calls = _count_lps(monkeypatch)
    for P in families:
        assert _kernel.independent_rows(P.matrix()[0])
        assert geom.min_h_description(P) is P
        assert geom.support_filter(P) is P
    assert calls == []


def test_rank_certificate_agrees_with_the_lp_masks(monkeypatch):
    """Where the certificate holds, both engines' LP masks keep every row,
    and both reductions return what their LP paths return."""
    masks = [mod.min_h_mask for mod in _kernel.engines().values()]
    for angle in (1e-3, 1e-4, 1e-5, 1e-6):
        gen = seeded("rank-vs-lp", int(-np.log10(angle)))
        certified = 0
        for _ in range(40):
            n = int(gen.integers(2, 7))
            P = _near_pair(gen, n, int(gen.integers(2, n + 1)), angle)
            V, S = P.matrix()
            if not _kernel.independent_rows(V):
                continue
            certified += 1
            for mask in masks:
                assert np.asarray(mask(V, S), dtype=bool).all()
            assert _same(_lp_path(monkeypatch, geom.min_h_description, P), P)
            assert _same(_lp_path(monkeypatch, geom.support_filter, P), P)
        # two unit rows theta apart have sigma_min = sqrt(1 - cos theta),
        # 7e-7 at theta = 1e-6; other rows only lower it
        if angle <= 1e-6:
            assert certified == 0
        else:
            assert certified >= 35


@pytest.mark.parametrize(
    "rows, kept",
    [
        # x1 <= 1 twice: the lowest-index copy stays
        ([(1, [1, 0, 0]), (1, [0, 1, 0]), (1, [1, 0, 0])], [0, 1]),
        # x1 <= 2 is dominated by the parallel x1 <= 1 after it
        ([(2, [1, 0, 0]), (1, [0, 1, 0]), (1, [1, 0, 0])], [1, 2]),
    ],
    ids=["duplicated", "parallel"],
)
def test_dependent_rows_fall_through_to_the_lp(monkeypatch, rows, kept):
    P = geom.PolyhedronH.from_rows(rows)
    assert not _kernel.independent_rows(P.matrix()[0])
    calls = _count_lps(monkeypatch)
    Q = geom.min_h_description(P)
    assert "min_h_mask" in calls
    assert list(Q.halfspaces) == [P.halfspaces[i] for i in kept]


def test_support_filter_shortcut_matches_the_lp_path(monkeypatch):
    gen = seeded("support-shortcut")
    for _ in range(30):
        n = int(gen.integers(2, 7))
        P = random_polyhedron(n, int(gen.integers(1, n + 1)), gen)
        assert geom.support_filter(P) is P
        assert _same(_lp_path(monkeypatch, geom.support_filter, P), P)
    # not certified (k > n): the LPs run and still drop the slack row
    Q = geom.support_filter(pentad())
    assert Q.k == 4 and _kernel.independent_rows(pentad().matrix()[0]) is False


def test_json_round_trip(tmp_path):
    P = pentad()
    path = tmp_path / "p.json"
    geom.save_polyhedron(P, path)
    Q = geom.load_polyhedron(path)
    assert Q.k == P.k and Q.dim == P.dim
    for a, b in zip(P.halfspaces, Q.halfspaces):
        assert a.offset == b.offset
        assert np.array_equal(a.normal, b.normal)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(errors.FormatError):
        geom.load_polyhedron(path)


def test_load_rejects_wrong_normal_length(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dim": 2,
        "halfspaces": [{"offset": 1.0, "normal": [1.0, 0.0, 0.0]}],
    }))
    with pytest.raises(errors.LengthMismatchError):
        geom.load_polyhedron(path)


def test_load_rejects_missing_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"halfspaces": []}))
    with pytest.raises(errors.FormatError):
        geom.load_polyhedron(path)
