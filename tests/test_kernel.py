"""The kernel: one search, run on either engine's primitives. The compiled
and pure primitives must agree, and the search must then agree with itself
in status, node count and coordinates (to round-off) on the same inputs."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import pentad, random_rows, seeded, square, use_engine
from polyx import _kernel, bench, cli, errors, geom, minnorm
from polyx._kernel import pure

ENGINES = _kernel.engines()
BOTH = pytest.mark.skipif(len(ENGINES) < 2, reason="compiled engine not built")


def _unit(rows):
    """(V, S) from raw (offset, normal) rows, each scaled to a unit normal."""
    S = np.array([s for s, _ in rows], dtype=float)
    V = np.array([v for _, v in rows], dtype=float)
    norm = np.linalg.norm(V, axis=1)
    return V / norm[:, None], S / norm


# Unit square plus explicitly redundant rows. The redundancy mask must keep
# the lowest-index copy of a duplicate and drop dominated and implied rows,
# whichever engine computes it and however often.
SQUARE = [(1, [1, 0]), (0, [-1, 0]), (1, [0, 1]), (0, [0, -1])]
REDUNDANT_FAMILIES = {
    "duplicated-row": _unit([(1, [0, 1])] + SQUARE),
    "dominated-parallel-row": _unit(SQUARE[:2] + [(1.5, [1, 0])] + SQUARE[2:]),
    "row-implied-by-two": _unit(SQUARE + [(2, [1, 1]), (3, [1, -1])]),
}


@pytest.fixture(params=sorted(ENGINES))
def engine(request, monkeypatch):
    """Run the test's searches on each engine's primitives in turn."""
    use_engine(monkeypatch, request.param)
    return request.param


def test_engine_selection_is_reported():
    assert _kernel.ENGINE in ENGINES


def test_square_corner(engine):
    V = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
    S = np.array([1.0, 0, 1, 0])
    y, nodes, status = _kernel.min_norm_point(V, S, np.array([2.0, 2.0]))
    assert status == _kernel.FOUND
    assert np.allclose(y, [1, 1], atol=1e-12)
    assert nodes >= 1


def test_interior_point_is_flagged(engine):
    V = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
    S = np.array([1.0, 0, 1, 0])
    _, _, status = _kernel.min_norm_point(V, S, np.array([0.5, 0.5]))
    assert status == _kernel.INSIDE


def test_empty_polyhedron_exhausts(engine):
    V = np.array([[1.0], [-1.0]])
    S = np.array([0.0, -1.0])
    _, _, status = _kernel.min_norm_point(V, S, np.array([3.0]))
    assert status == _kernel.EXHAUSTED
    assert not _kernel.feasible(V, S)


def test_node_budget_is_respected(engine):
    gen = seeded("budget")
    V, S = random_rows(5, 8, gen, lo=0.5, hi=1.5)
    x = np.full(5, 3.0)
    _, nodes, status = _kernel.min_norm_point(V, S, x, node_limit=1)
    assert status in (_kernel.NODE_BUDGET, _kernel.FOUND)
    if status == _kernel.NODE_BUDGET:
        assert nodes >= 1


def test_time_budget_zero_trips_immediately(engine):
    V = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
    S = np.array([1.0, 0, 1, 0])
    _, _, status = _kernel.min_norm_point(V, S, np.array([2.0, 2.0]), time_budget=0.0)
    assert status == _kernel.TIME_BUDGET


def test_second_node_shortcut_skips_a_weakly_redundant_row(engine):
    # the pentad's most violated row at (3, 3) is the redundant x1 + x2 <= 2,
    # whose foot (1, 1) lies in P: the search never pivots on it, and reaches
    # (1, 1) by a longer path; the first projection settles it at node 2
    P = pentad()
    V, S = P.matrix()
    x = np.array([3.0, 3.0])
    y, nodes, status = _kernel.min_norm_point(V, S, x)
    Y, D, ND, ST = _kernel.solve_many(V, S, x[None, :])
    assert (nodes, status) == (2, _kernel.FOUND) == (ND[0], ST[0])
    assert np.allclose(y, [1.0, 1.0], rtol=0, atol=1e-12) and np.array_equal(Y[0], y)
    assert D[0] == pytest.approx(np.sqrt(8.0), abs=1e-12)
    assert minnorm.is_min_norm(x, y, P)
    want = _search(V, S, x)
    assert want[2] == _kernel.FOUND and want[1] > 2
    assert np.allclose(want[0], y, atol=1e-12)


def _search(V, S, x):
    """The search alone on one row, with the default tolerances and budgets."""
    return pure._search(V, S, x, [None], 1e-9, 1e-10, 1e-9, 10_000_000, None)


def _criterion_decisions(monkeypatch, queries):
    """Run the search on every (V, S, x) and return, per optimality test it
    makes, (what `_kkt` said, what the strict-system LP says). The search
    runs directly: `solve_many` settles some of these queries in bulk
    without an optimality test."""
    criterion, kkt = pure._criterion, pure._kkt
    seen = []

    def recorded_kkt(*args):
        seen[-1][1] = kkt(*args)
        return seen[-1][1]

    def recorded(*args):
        seen.append([args, None])
        return criterion(*args)

    monkeypatch.setattr(pure, "_kkt", recorded_kkt)
    monkeypatch.setattr(pure, "_criterion", recorded)
    for V, S, x in queries:
        _search(V, S, x)
    monkeypatch.setattr(pure, "_kkt", lambda *args: None)
    return [(said, criterion(*args)) for args, said in seen]


@pytest.mark.parametrize(
    "family, x, falls_back",
    [
        # margins tie at (2, 2); the two rows tight at (1, 1) decide it
        (square().matrix(), [2.0, 2.0], False),
        # x1 <= 1, x2 <= 1 and x1 + x2 <= 2 are tight at (1, 1): 3 rows in 2-D
        (pentad().matrix(), [2.0, 1.5], True),
        # x1 <= 0 twice and x2 <= 0 are tight at the origin
        (_unit([(0, [1, 0]), (0, [1, 0]), (0, [0, 1])]), [1.0, 2.0], True),
    ],
    ids=["tied-corner", "pentad-corner", "duplicated-row"],
)
def test_kkt_decides_as_the_lp_or_falls_back(engine, monkeypatch, family, x, falls_back):
    V, S = family
    decisions = _criterion_decisions(monkeypatch, [(V, S, np.array(x))])
    assert [said for said, _ in decisions] == [None if falls_back else True]
    assert [lp for _, lp in decisions] == [True]


def test_kkt_leaves_dependent_rows_and_thin_slack_to_the_lp():
    eps = 1e-9
    # y = 0 on x1 <= 0 twice in 3-D: two tight rows, but dependent ones
    V = np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]])
    assert pure._kkt(V, np.array([0.0, 0.0, -1.0]), np.array([1.0, 0, 0]), 1.0, eps) is None
    # y = 0 on x1 <= 0 and x2 <= 0, with row 2 (x2 >= -s) slack by s: from
    # x - y = (1, -1) the multiplier of x2 <= 0 is -1, so y is not the
    # nearest point only if y can move down by more than round-off
    V = np.array([[1.0, 0], [0, 1.0], [0, -1.0]])
    w, nv = np.array([1.0, -1.0]), np.sqrt(2.0)
    assert pure._kkt(V, np.array([0.0, 0.0, -1e-3]), w, nv, eps) is False
    assert pure._kkt(V, np.array([0.0, 0.0, -1e-8]), w, nv, eps) is None
    # x - y = (1, 1) lies in the cone of the tight normals: y is the nearest point
    assert pure._kkt(V, np.array([0.0, 0.0, -1e-8]), np.array([1.0, 1.0]), nv, eps) is True
    # x - y = (1, 1, 1) leaves the span of the tight x1 <= 0 and x2 <= 0: y
    # is not the foot of x on their intersection, and no multiplier says so
    V = np.array([[1.0, 0, 0], [0, 1.0, 0]])
    assert pure._kkt(V, np.zeros(2), np.ones(3), np.sqrt(3.0), eps) is None


def test_kkt_decisions_equal_the_lp_on_random_queries(engine, monkeypatch):
    gen = seeded("kkt-vs-lp")
    queries = []
    for _ in range(300):
        n = int(gen.integers(2, 7))
        V, S = random_rows(n, int(gen.integers(2, 2 * n + 4)), gen)
        queries.append((V, S, gen.normal(size=n) * 2.5))
    decisions = _criterion_decisions(monkeypatch, queries)
    said = [s for s, _ in decisions]
    assert said.count(True) >= 50 and said.count(False) >= 5
    assert all(s in (None, lp) for s, lp in decisions)


def _near_parallel_rows():
    """Seven rows in 5-D, rows 0 and 1 1e-8 rad apart: a draw on which both
    engines' redundancy LPs break down."""
    gen = seeded("lp-breakdown", 109)
    V, S = random_rows(5, int(gen.integers(4, 9)), gen)
    u = gen.normal(size=5)
    u -= (u @ V[0]) * V[0]
    V[1] = np.cos(1e-8) * V[0] + np.sin(1e-8) * (u / np.linalg.norm(u))
    return geom.PolyhedronH.from_rows(zip(S, V))


def test_lp_breakdown_is_a_conditioning_error(engine, tmp_path, capsys):
    P = _near_parallel_rows()
    with pytest.raises(errors.ConditioningError, match="LP breakdown") as info:
        geom.min_h_description(P)
    assert isinstance(info.value.__cause__, RuntimeError)
    path = tmp_path / "p.json"
    geom.save_polyhedron(P, path)
    capsys.readouterr()
    assert cli.main(["reduce", "--polyhedron", str(path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "ill-conditioned"


@BOTH
def test_engines_agree_on_solutions(monkeypatch):
    gen = seeded("parity")
    queries = []
    for trial in range(120):
        n = int(gen.integers(2, 6))
        k = int(gen.integers(1, 9))
        V, S = random_rows(n, k, gen)
        queries.append((trial, V, S, gen.normal(size=n) * 2.0))
    for name, (V, S) in REDUNDANT_FAMILIES.items():
        queries += [((name, trial), V, S, gen.normal(size=2) * 2.0) for trial in range(40)]
    runs = {}
    for engine in ("native", "python"):
        use_engine(monkeypatch, engine)
        runs[engine] = [_kernel.min_norm_point(V, S, x) for _, V, S, x in queries]
    for (label, *_), (yn, cn, sn), (yp, cp, sp) in zip(queries, runs["native"], runs["python"]):
        assert (sn, cn) == (sp, cp), label
        if sn == _kernel.FOUND:
            assert np.allclose(yn, yp, atol=1e-9), label


@BOTH
def test_engines_agree_on_feasibility():
    gen = seeded("parity-lp")
    native, pure = ENGINES["native"], ENGINES["python"]
    for _ in range(80):
        m = int(gen.integers(1, 7))
        n = int(gen.integers(1, 5))
        A = gen.normal(size=(m, n))
        b = gen.uniform(-1, 1, size=m)
        assert native.feasible(A, b) == pure.feasible(A, b)
        assert abs(native.strict_margin(A, b) - pure.strict_margin(A, b)) < 1e-9


def _mixed_pair(gen, m=150, bands=32):
    """A gmm-svm pair shaped like the benchmark's: two-material linear mixtures
    with sensor noise, a bias column, and labels from a noisy abundance
    threshold. The classes overlap, so many duals end at C."""
    grid = np.linspace(0.0, 1.0, bands)
    soil = 0.2 + 0.4 * grid
    leaf = 0.04 + 0.55 / (1.0 + np.exp(-(grid - 0.45) / 0.03))
    a = gen.uniform(size=m)
    X = np.outer(a, soil) + np.outer(1.0 - a, leaf)
    X += gen.normal(scale=0.02, size=(m, bands))
    t = np.where(a + gen.normal(scale=0.05, size=m) < 0.5, -1.0, 1.0)
    return np.hstack([X, np.ones((m, 1))]), t


# Draws whose sweeps run to the 1000-epoch cap, as many benchmark pairs do.
MIXED_PAIRS = [_mixed_pair(seeded("svm-mixed", i)) for i in (0, 2, 3)]


def _svm_rows(Xa, t, C=1.0, epochs=1000, tol=1e-6):
    """Row-by-row dual coordinate descent, the sweep `svm_pair` reproduces.

    Returns (w, alpha, epochs run)."""
    m, n = Xa.shape
    q = (Xa**2).sum(axis=1)
    alpha = np.zeros(m)
    w = np.zeros(n)
    ran = 0
    for ran in range(1, int(epochs) + 1):
        worst = 0.0
        for l in range(m):
            g = t[l] * float(w @ Xa[l]) - 1.0
            if alpha[l] <= 0.0:
                pg = min(g, 0.0)
            elif alpha[l] >= C:
                pg = max(g, 0.0)
            else:
                pg = g
            if pg != 0.0:
                worst = max(worst, abs(pg))
                a_new = min(max(alpha[l] - g / q[l], 0.0), C)
                if a_new != alpha[l]:
                    w += (a_new - alpha[l]) * t[l] * Xa[l]
                    alpha[l] = a_new
        if worst < tol:
            break
    return w, alpha, ran


def _separable_pair(gen, m=60, n=3):
    X = gen.normal(size=(m, n))
    t = np.where(gen.uniform(size=m) < 0.5, -1.0, 1.0)
    X += 1.5 * t[:, None]
    return np.hstack([X, np.ones((m, 1))]), t


_SEPARABLE = _separable_pair(seeded("svm-separable"))
# name: (Xa, t, keywords, what the reference run must show for the case to
# test what its name says)
SVM_CASES = {
    **{
        f"mixed-{i}": (*pair, {}, lambda a, ran: ran == 1000 and (a >= 1.0).mean() > 0.3)
        for i, pair in enumerate(MIXED_PAIRS)
    },
    **{
        f"epochs-{e}": (*MIXED_PAIRS[0], {"epochs": e}, lambda a, ran, e=e: ran == e)
        for e in (0, 1, 2, 3)
    },
    "small-C": (*MIXED_PAIRS[0], {"C": 0.01}, lambda a, ran: (a >= 0.01).mean() > 0.9),
    "separable": (*_SEPARABLE, {}, lambda a, ran: ran < 100),
    "tol-0": (*_SEPARABLE, {"tol": 0.0, "epochs": 300}, lambda a, ran: ran == 300),
    "one-row": (np.array([[0.5, -2.0, 1.0]]), np.array([1.0]), {}, lambda a, ran: a[0] > 0),
}


@pytest.mark.parametrize("case", list(SVM_CASES))
def test_pure_svm_sweep_matches_row_by_row_reference(case):
    Xa, t, kwargs, regime = SVM_CASES[case]
    w_ref, alpha, ran = _svm_rows(Xa, t, **kwargs)
    assert regime(alpha, ran)
    w = np.asarray(ENGINES["python"].svm_pair(Xa, t, **kwargs))
    assert np.abs(w - w_ref).max() <= 1e-10


@BOTH
def test_engines_agree_on_svm_sweeps():
    gen = seeded("parity-svm")
    native, pure = ENGINES["native"], ENGINES["python"]
    for trial in range(30):
        m = int(gen.integers(4, 80))
        n = int(gen.integers(1, 7))
        X = gen.normal(size=(m, n))
        t = np.where(gen.uniform(size=m) < 0.5, -1.0, 1.0)
        if trial % 2:
            X += t[:, None] * 1.5  # separable half the time
        Xa = np.hstack([X, np.ones((m, 1))])
        wn = np.asarray(native.svm_pair(Xa, t))
        wp = np.asarray(pure.svm_pair(Xa, t))
        assert np.allclose(wn, wp, atol=1e-9), trial
    for i, (Xa, t) in enumerate(MIXED_PAIRS):
        wn = np.asarray(native.svm_pair(Xa, t))
        wp = np.asarray(pure.svm_pair(Xa, t))
        assert np.allclose(wn, wp, atol=1e-9), f"mixed-{i}"


@BOTH
def test_engines_agree_on_min_h_mask():
    gen = seeded("parity-minh")
    native, pure = ENGINES["native"], ENGINES["python"]
    for _ in range(40):
        n = int(gen.integers(2, 5))
        k = int(gen.integers(2, 9))
        V, S = random_rows(n, k, gen, lo=0.3, hi=1.5)
        mn = native.min_h_mask(V, S)
        mp = pure.min_h_mask(V, S)
        assert np.array_equal(np.asarray(mn, bool), np.asarray(mp, bool))


def test_solve_many_matches_single_calls(engine):
    """Rows the search settles agree bit for bit. Rows the bulk passes settle
    (2 nodes, or 3) agree to round-off: a batch takes its margins and
    projections from matrix products over all its rows, a single row from
    products over one, and BLAS sums the two in different orders. Also
    checks those passes against the search: the same status and point, at
    2 nodes never more than the search takes (bit for bit where it stops at
    its second node too), at 3 nodes exactly as many."""
    gen = seeded("batch")
    families = [random_rows(3, 6, gen, lo=0.5, hi=1.5), *REDUNDANT_FAMILIES.values()]
    bulk = {2: 0, 3: 0}
    for V, S in families:
        X = gen.normal(size=(25, V.shape[1])) * 2.5
        Y, D, ND, ST = _kernel.solve_many(V, S, X)
        assert (ST == _kernel.FOUND).any()
        for i, x in enumerate(X):
            y, nodes, status = _kernel.min_norm_point(V, S, x)
            assert ST[i] == status
            assert ND[i] == nodes
            if status == _kernel.FOUND:
                assert abs(D[i] - np.linalg.norm(y - x)) < 1e-12
            if nodes not in bulk:
                assert np.array_equal(Y[i], y)
                continue
            assert np.allclose(Y[i], y, rtol=0, atol=1e-12)
            bulk[nodes] += 1
            want, want_nodes, want_status = _search(V, S, x)
            assert want_status == status
            assert np.allclose(want, y, rtol=0, atol=1e-12)
            if nodes == 3:
                assert want_nodes == 3
                continue
            assert want_nodes >= 2
            if want_nodes == 2:
                assert np.array_equal(want, y)
    assert bulk[2] >= 10 and bulk[3] >= 10


# x1 <= 0 twice and x2 <= 0 in 2-D; the same with x3 <= 0 in 3-D. Three or
# four rows are tight at a corner, so the bulk passes leave corner queries
# to the search.
DUPLICATE = _unit([(0, [1, 0]), (0, [1, 0]), (0, [0, 1])])
DUPLICATE_3D = _unit([(0, [1, 0, 0]), (0, [1, 0, 0]), (0, [0, 1, 0]), (0, [0, 0, 1])])


@pytest.mark.parametrize(
    "family, nodes",
    [(DUPLICATE, 3), (DUPLICATE_3D, 4)],
    ids=["duplicate", "duplicate-3d"],
)
def test_pure_batch_runs_root_mask_lps_once(monkeypatch, family, nodes):
    """The root redundancy mask is query-independent: a batch of 50
    corner queries runs the strict-margin LPs of its 50 single-row batches,
    less 49 runs of the root mask's. The families are dependent, so the
    mask is not certified by `independent_rows` and takes LPs; the mask
    keeps the lowest-index copy of x1 <= 0."""
    V, S = family
    use_engine(monkeypatch, "python")  # its min_h_mask runs the LPs it counts
    gen = seeded("root-mask")
    X = gen.uniform(0.5, 3.0, size=(50, V.shape[1]))
    real = _kernel.strict_margin
    calls = []

    def counted(A, b):
        calls.append(A.shape)
        return real(A, b)

    monkeypatch.setattr(_kernel, "strict_margin", counted)

    def lp_count(batch):
        calls.clear()
        _, _, got, status = _kernel.solve_many(V, S, batch)
        assert (status == _kernel.FOUND).all() and (got == nodes).all()
        return len(calls)

    calls.clear()
    assert not _kernel.independent_rows(V)
    assert _kernel.min_h_mask(V, S).tolist() == [True, False] + [True] * (len(S) - 2)
    mask = len(calls)
    assert mask >= 1  # the feet do not certify, so LPs decide the mask
    singles = sum(lp_count(X[i : i + 1]) for i in range(len(X)))
    assert lp_count(X) == singles - (len(X) - 1) * mask


def test_root_mask_of_independent_rows_runs_no_lp(monkeypatch):
    """The search's root mask of a family `independent_rows` certifies keeps
    every row without an LP: a corner of the 3-D octant reaches the search
    (four nodes). Its depth >= 1 families are independent too, and `_kkt`
    decides its criterion, so it makes no LP at all."""
    V, S = _unit([(0, [1, 0, 0]), (0, [0, 1, 0]), (0, [0, 0, 1])])
    masks, lps = [], []
    monkeypatch.setattr(_kernel, "min_h_mask", lambda *args: masks.append(args))
    monkeypatch.setattr(_kernel, "strict_margin", lambda *args: lps.append(args))
    y, nodes, status = _kernel.min_norm_point(V, S, np.array([1.0, 2.0, 3.0]))
    assert (status, nodes) == (_kernel.FOUND, 4) and masks == [] and lps == []
    assert np.allclose(y, 0.0, rtol=0, atol=1e-12)


# --- the search's depth >= 1 redundancy masks --------------------------------


def _lp_only_mask(V, S, strict_tol=1e-9):
    """The strict-system LP loop alone: highest index first, each row
    flipped against the rows retained so far, dropped when no point
    violates it with the others strictly satisfied."""
    keep = np.ones(len(S), dtype=bool)
    for i in range(len(S) - 1, -1, -1):
        others = keep.copy()
        others[i] = False
        A = np.vstack([V[others], -V[i]])
        b = np.append(S[others], -S[i])
        if _kernel.strict_margin(A, b) <= strict_tol:
            keep[i] = False
    return keep


def _reduced_family(gen, n, coords, S):
    """A family as the search reaches it at depth n - dim: unit rows with
    the given coordinates in an orthonormal basis of the complement of the
    depth's orthonormal pivot directions U. Returns (V, S, feet, U)."""
    coords = np.asarray(coords, dtype=float).reshape(len(S), -1)
    d = n - coords.shape[1]
    Q = np.linalg.qr(gen.normal(size=(n, n)))[0]
    V = coords @ Q[:, d:].T
    S = np.asarray(S, dtype=float)
    return V, S, S[:, None] * V, Q[:, :d].T


def _angles(*theta):
    return np.column_stack([np.cos(theta), np.sin(theta)])


def _mask_cases():
    """name: (path, (V, S, feet, U)). Seeded planar families with duplicated,
    opposite, parallel and nearly parallel rows."""
    gen = seeded("search-mask")
    plane = _angles(*gen.uniform(0, 2 * np.pi, size=12))
    offsets = gen.uniform(0.5, 1.5, size=12)
    # row 12 repeats row 3; row 13 is row 0 turned round, 0.2 from the origin
    plane_rows = np.vstack([plane, plane[3], -plane[0]])
    plane_offsets = np.append(offsets, [offsets[3], 0.2])
    tilted = np.cos(1e-8) * plane[0] + np.sin(1e-8) * np.array([-plane[0, 1], plane[0, 0]])
    return {
        # three independent rows in the 3-D complement of two directions
        "rank-certificate": ("certificate", _reduced_family(
            gen, 5, gen.normal(size=(3, 3)) / np.sqrt(3.0), gen.uniform(0.5, 1.5, size=3))),
        # z <= 0.5, z <= 0.2 twice, z >= -0.3, z >= -0.9, z <= 1: rows 1 and 3 stay
        "rank-1": ("line", _reduced_family(
            gen, 3, [1, 1, -1, 1, -1, 1], [0.5, 0.2, 0.3, 0.2, 0.9, 1.0])),
        "rank-1-opposite-only": ("line", _reduced_family(gen, 4, [-1, -1, -1], [0.4, 0.1, 0.1])),
        "rank-2": ("plane", _reduced_family(gen, 3, plane_rows, plane_offsets)),
        "rank-2-square": ("plane", _reduced_family(
            gen, 4, _angles(0, np.pi / 2, np.pi, 3 * np.pi / 2, np.pi / 4), [1, 1, 0, 0, 2])),
        # the bound 0.2 + 1e-10 ties with 0.2 to within the LPs' tolerance
        "rank-1-near-tie": ("lp", _reduced_family(gen, 3, [1, 1, -1], [0.2 + 1e-10, 0.2, 0.3])),
        # z <= 0.5, z <= 0 and z >= 1: empty, and the LPs keep the looser bound
        "rank-1-empty": ("lp", _reduced_family(gen, 3, [1, 1, -1], [0.5, 0.0, -1.0])),
        # row 12 is parallel to row 3 and looser
        "rank-2-parallel": ("lp", _reduced_family(
            gen, 3, np.vstack([plane, plane[3]]), np.append(offsets, offsets[3] + 0.3))),
        "rank-2-nearly-parallel": ("lp", _reduced_family(
            gen, 3, np.vstack([plane, tilted]), np.append(offsets, offsets[0] + 0.1))),
        # the unit square's sides flipped round: no point satisfies all four
        "rank-2-empty": ("lp", _reduced_family(
            gen, 3, _angles(0, np.pi / 2, np.pi, 3 * np.pi / 2), [-1, -1, -1, -1.5])),
        # x1 <= 1, x2 <= 1 and x1 + x2 <= 2 meet at one vertex
        "rank-2-vertex-on-a-third-line": ("lp", _reduced_family(
            gen, 3, np.vstack([_angles(0, np.pi / 2, np.pi, 3 * np.pi / 2), _angles(np.pi / 4)]),
            [1, 1, 0, 0, np.sqrt(2.0)])),
        # the same with the corner (1, 1) cut off by 1e-8: a necessary row
        # whose edge is too short to certify
        "rank-2-corner-cut-by-1e-8": ("lp", _reduced_family(
            gen, 3, np.vstack([_angles(0, np.pi / 2, np.pi, 3 * np.pi / 2), _angles(np.pi / 4)]),
            [1, 1, 0, 0, (2 - 1e-8) / np.sqrt(2.0)])),
        "rank-3": ("lp", _reduced_family(
            gen, 4, np.vstack([np.eye(3), -np.eye(3), np.ones(3) / np.sqrt(3.0)]),
            [1, 1, 1, 0, 0, 0, 2.0 / np.sqrt(3.0)])),
    }


MASK_CASES = _mask_cases()


@pytest.mark.parametrize("case", list(MASK_CASES))
def test_search_mask_paths_match_the_lp_masks(engine, monkeypatch, case):
    """Each mask path gives the LP loop's mask, duplicates keeping their
    lowest-index copy; the certified paths make no LP."""
    path, (V, S, feet, U) = MASK_CASES[case]
    want = _lp_only_mask(V, S)
    decided = []
    for name in ("_line_mask", "_plane_mask"):
        real = getattr(pure, name)

        def spy(*args, real=real, name=name):
            got = real(*args)
            if got is not None:
                decided.append(name)
            return got

        monkeypatch.setattr(pure, name, spy)
    lps = []
    real_lp = _kernel.strict_margin
    monkeypatch.setattr(_kernel, "strict_margin", lambda A, b: lps.append(A.shape) or real_lp(A, b))
    keep = pure._search_mask(V, S, feet, U, 1e-9)
    assert keep.tolist() == want.tolist()
    took = {"_line_mask": "line", "_plane_mask": "plane"}[decided[0]] if decided else (
        "lp" if lps else "certificate")
    assert took == path
    assert (len(lps) > 0) == (path == "lp")
    if case == "rank-1":
        assert keep.tolist() == [False, True, True, False, False, False]
    if case == "rank-1-empty":
        assert keep.tolist() == [True, False, True]
    if case == "rank-2":
        assert not keep[12] and keep[13]  # the copy goes, the opposite row bounds the strip


def _search_cases():
    """(label, V, S, queries): the benchmark's four families and the
    redundant and duplicated families of this module."""
    gen = seeded("search-masks")
    cases = []
    for n, k in ((3, 20), (3, 100), (15, 15), (28, 28)):
        for rep in range(3):
            P, x = bench.random_polyhedron(n, k, 1000 * k + rep)
            V, S = P.matrix()
            cases.append((f"n={n},k={k},rep={rep}", V, S,
                          np.vstack([x, gen.normal(size=(3, n)) * 2.0])))
    families = {**REDUNDANT_FAMILIES, "duplicate": DUPLICATE, "duplicate-3d": DUPLICATE_3D}
    for name, (V, S) in families.items():
        cases.append((name, V, S, gen.normal(size=(20, V.shape[1])) * 2.5))
    return cases


def test_search_masks_leave_the_search_unchanged(engine, monkeypatch):
    """`_search` reaches the same statuses, node counts and bit-identical
    points with the linear-algebra masks as with the LP loop alone, and
    these solves make no mask LP."""
    cases = _search_cases()
    mask_lps, inside = [], []
    real_lp, real_mask = _kernel.strict_margin, pure._search_mask

    def lp(A, b):
        if inside:
            mask_lps.append(A.shape)
        return real_lp(A, b)

    def mask(*args):
        inside.append(True)
        try:
            return real_mask(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(_kernel, "strict_margin", lp)
    monkeypatch.setattr(pure, "_search_mask", mask)
    got = [[_search(V, S, x) for x in X] for _, V, S, X in cases]
    assert mask_lps == []
    monkeypatch.setattr(pure, "_search_mask", lambda V, S, feet, U, tol: _lp_only_mask(V, S, tol))
    found = 0
    for (label, V, S, X), runs in zip(cases, got):
        for x, (y, nodes, status) in zip(X, runs):
            want_y, want_nodes, want_status = _search(V, S, x)
            assert (status, nodes) == (want_status, want_nodes), label
            assert np.array_equal(y, want_y), label
            found += status == _kernel.FOUND and nodes > 2
    assert found >= 40


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(2, 4),
    k=st.integers(3, 10),
    rows=st.tuples(st.integers(0, 9), st.integers(0, 9)),
    weights=st.one_of(st.none(), st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 2.0))),
    looser=st.floats(0.01, 1.0),
    scale=st.sampled_from([1.0, 0.3]),
)
def test_implied_halfspace_changes_no_answer(seed, n, k, rows, weights, looser, scale):
    """Appending a halfspace the family implies, a duplicate (weights None)
    or a positive combination of two rows with a looser offset, changes
    neither the status nor the point, nor the signed distance."""
    P, x = bench.random_polyhedron(n, k, seed)
    x = x * scale  # 0.3 puts some queries inside
    V, S = P.matrix()
    i, j = rows[0] % k, rows[1] % k
    if weights is None:
        v, s = V[i], S[i]
    else:
        v = weights[0] * V[i] + weights[1] * V[j]
        norm = np.linalg.norm(v)
        assume(norm > 0.1)
        v, s = v / norm, (weights[0] * S[i] + weights[1] * S[j] + looser) / norm
    Q = geom.PolyhedronH.from_rows(list(zip(S, V)) + [(s, v)])
    y, _, status = _kernel.min_norm_point(V, S, x)
    y2, _, status2 = _kernel.min_norm_point(*Q.matrix(), x)
    assert status2 == status
    assert np.allclose(y2, y, rtol=0, atol=1e-9 * max(1.0, np.abs(y).max()))
    d, d2 = minnorm.signed_distance(P, x), minnorm.signed_distance(Q, x)
    assert d2 == pytest.approx(d, rel=0, abs=1e-9 * max(1.0, abs(d)))


# --- the second bulk projection of `solve_many` ------------------------------


def _record_second_projection(monkeypatch) -> list:
    """Wrap `pure._second_projection`; the list receives the rows it settles."""
    settled = []
    step = pure._second_projection

    def recorded(V, S, X, *args):
        ok, Y = step(V, S, X, *args)
        settled.extend(zip(X[ok], Y[ok]))
        return ok, Y

    monkeypatch.setattr(pure, "_second_projection", recorded)
    return settled


def test_second_projection_settles_as_the_search(engine, monkeypatch):
    """Every row the step settles gets the search's status and 3 nodes, and
    a point within 1e-12 relative, on seeded families with duplicated,
    parallel and opposite rows among independent ones."""
    gen = seeded("second-projection")
    settled = _record_second_projection(monkeypatch)
    checked = 0
    for trial in range(160):
        n = int(gen.integers(2, 8))
        V, S = random_rows(n, int(gen.integers(2, 2 * n + 6)), gen)
        extra = trial % 4  # 0: none; 1: a duplicate; 2: a parallel row; 3: an opposite one
        if extra:
            V = np.vstack([V, V[0] if extra < 3 else -V[0]])
            S = np.append(S, S[0] + (0.0, 0.3, 0.5)[extra - 1])
        X = gen.normal(size=(5, n)) * 2.5
        _, _, nodes, status = _kernel.solve_many(V, S, X)
        for x, y in settled:
            want, want_nodes, want_status = _search(V, S, x)
            assert (want_status, want_nodes) == (_kernel.FOUND, 3)
            assert np.abs(want - y).max() <= 1e-12 * max(1.0, np.abs(want).max())
        checked += len(settled)
        settled.clear()
    assert checked >= 100


@pytest.mark.parametrize(
    "family, x, nodes",
    [
        # three rows are tight at the corner (0, 0)
        (DUPLICATE, [1.0, 2.0], 3),
        # on the edge of the corner's normal cone: the multiplier of x1 <= 1
        # at (1, 1) is 1e-8, below 1e-7 |x - y|
        (square().matrix(), [1.0 + 1e-8, 2.0], 3),
        # the second foot (1, 1, 2) lies outside the unit cube
        (_unit([(1, [1, 0, 0]), (1, [0, 1, 0]), (1, [0, 0, 1])]), [2.0, 2.0, 2.0], 4),
    ],
    ids=["three-tight-rows", "multiplier-near-zero", "second-foot-outside"],
)
def test_second_projection_leaves_uncertified_rows_to_the_search(engine, monkeypatch, family,
                                                                 x, nodes):
    V, S = family
    x = np.array(x)
    settled = _record_second_projection(monkeypatch)
    Y, _, got, status = _kernel.solve_many(V, S, x[None, :])
    assert settled == [] and (got[0], status[0]) == (nodes, _kernel.FOUND)
    want, want_nodes, _ = _search(V, S, x)
    assert want_nodes == nodes and np.array_equal(want, Y[0])


def test_second_projection_respects_the_budgets(engine):
    V, S = square().matrix()
    X = np.array([[2.0, 2.0], [-1.0, -1.0], [1.5, -2.0]])  # corners: 3 nodes each
    _, _, nodes, status = _kernel.solve_many(V, S, X)
    assert (nodes == 3).all() and (status == _kernel.FOUND).all()
    _, _, nodes, status = _kernel.solve_many(V, S, X, node_limit=2)
    assert (status == _kernel.NODE_BUDGET).all()
    _, _, nodes, status = _kernel.solve_many(V, S, X, time_budget=0.0)
    assert (status == _kernel.TIME_BUDGET).all()


KERNEL_DIR = Path(_kernel.__file__).parent
# Cython quotes the .pyx lines behind each C statement: line N with the two
# lines before and after it, N marked, in a `/* "file":N ... */` block.
_QUOTE = re.compile(r'/\* "polyx/_kernel/native\.pyx":(\d+)\n(.*?)\n\*/', re.S)
_MARK = "             # <<<<<<<<<<<<<<"


def _cython_quote(line: str) -> str:
    """A native.pyx line as Cython writes it inside a C comment."""
    line = line.encode("ascii", "ignore").decode().rstrip()
    line = line.replace("*/", "*[inserted by cython to avoid comment closer]/")
    return " * " + line.replace("/*", "/[inserted by cython to avoid comment start]*")


def test_native_c_matches_native_pyx():
    """Without Cython the build compiles the committed native.c, so every
    line it quotes must still be that line of native.pyx."""
    pyx = (KERNEL_DIR / "native.pyx").read_text().splitlines()
    blocks = _QUOTE.findall((KERNEL_DIR / "native.c").read_text())
    assert blocks
    for number, body in blocks:
        quoted = body.split("\n")
        mark = next(i for i, q in enumerate(quoted) if q.endswith(_MARK))
        first = int(number) - mark
        for lineno, q in enumerate(quoted, start=first):
            assert q.removesuffix(_MARK) == _cython_quote(pyx[lineno - 1]), f"native.pyx:{lineno}"
