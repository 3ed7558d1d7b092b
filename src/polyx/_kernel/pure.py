"""Pure NumPy kernel: dense two-phase simplex, minimum-description mask, the
interior-point SVM, the rank certificate, and the one exact nearest-point
search.

The LP primitives here are the import-time fallback for the compiled ones
in ``native.pyx``; both implement identical semantics and tolerances.
`svm_pair` and the search (`min_norm_point`, `solve_many`) serve both
engines (``native.pyx``'s own sweep and search are unused). The search
calls `strict_margin` and `min_h_mask` through the package, which binds
them to whichever primitives are active. `solve_many` settles the rows
the search would stop for at its second node in one vectorized pass
(`_first_projection`), and those it would stop for at its third node,
certified by their KKT multipliers, in a second one
(`_second_projection`); `min_norm_point` is `solve_many` on one row.

Linear algebra decides first wherever it can, and the LPs decide the rest.
`independent_rows` certifies that a family of unit rows is linearly
independent with margin; such a family is its own minimum description
(`geom` and the search's masks use it), and it lets the search's
optimality criterion read the answer off the KKT multipliers of the rows
tight at a candidate (`_kkt`) before it falls back to the strict-system
LP. The search's depth >= 1 redundancy masks (`_search_mask`) also decide
families confined to a line or a plane exactly (`_line_mask`,
`_plane_mask`), and run the mask LPs (`_necessity_mask`) only on what
those leave undecided. `min_h_mask`, the root and `geom` primitive, keeps
its LPs.

Status codes returned by ``min_norm_point``:
    0  found (query outside, exact point returned)
    1  inside (query already in the polyhedron)
    2  node budget exceeded
    3  time budget exceeded
    4  search exhausted (possible only when the polyhedron is empty)
"""

from __future__ import annotations

import time

import numpy as np

from .. import _kernel, errors

FOUND = 0
INSIDE = 1
NODE_BUDGET = 2
TIME_BUDGET = 3
EXHAUSTED = 4

_RED_TOL = 1e-10     # reduced-cost threshold for entering columns
_PIV_TOL = 1e-10     # minimum pivot magnitude
_FEAS_TOL = 1e-9     # phase-1 objective cutoff
SVM_GAP = 1e-9       # relative duality gap that certifies an SVM fit
_SVM_MAX_ITER = 200  # interior-point iterations after which an SVM fit stops uncertified
_SVM_STEP = 0.99     # share of the way to the boundary an SVM step takes
_SVM_RIDGE = 1e-10   # ridge, relative to the largest diagonal entry, after a failed factor
_SVM_SHIFT = 1e-3    # least distance of the starting multipliers from 0
_SVM_PROX = 1e-10    # proximal term added to D, relative to the starting point's rho
_RANK_TAU = 1e-6     # smallest singular value `independent_rows` certifies
_KKT_LAMBDA = 1e-7   # |lambda| / |x - y| below which a multiplier is undecided
_KKT_SLACK = 1e-6    # margin below which a row not tight at y is clearly slack
_KKT_RESIDUAL = 1e-9  # |x - y - lambda V| / |x - y| above which the solve is not trusted
_BULK_ELEMS = 1 << 18  # rows x k x dim entries per block of the second pass: 2 MB arrays
_MASK_MARGIN = 1e-7  # by how much a linear-algebra bound on an LP value must clear strict_tol


class _Stop(Exception):
    def __init__(self, status: int):
        self.status = status


def _pivot(T: np.ndarray, basis: np.ndarray, r: int, c: int) -> None:
    T[r] /= T[r, c]
    col = T[:, c].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    basis[r] = c


def _optimize(T, basis, cost, allowed, max_iter):
    """Bland-rule simplex loop on an equality tableau with rhs >= 0."""
    m = T.shape[0]
    ncols = T.shape[1] - 1
    body = T[:, :ncols]
    for _ in range(max_iter):
        red = cost - cost[basis] @ body
        eligible = np.nonzero(allowed & (red < -_RED_TOL))[0]
        if eligible.size == 0:
            return
        e = eligible[0]  # lowest index enters
        col = T[:, e]
        rows = col > _PIV_TOL
        if not rows.any():
            # Unbounded objective: impossible for the feasibility/margin LPs
            # built in this module (both are bounded by construction).
            raise RuntimeError("simplex: unbounded direction in a bounded LP")
        ratios = np.full(m, np.inf)
        ratios[rows] = T[rows, -1] / col[rows]
        rmin = ratios.min()
        ties = np.nonzero(ratios <= rmin + 1e-12 * (1.0 + abs(rmin)))[0]
        r = ties[np.argmin(basis[ties])]  # lowest basis index leaves
        _pivot(T, basis, r, e)
    raise RuntimeError("simplex: iteration limit hit")


def _phase1(A, b):
    """Feasibility tableau for A x <= b with free x.

    Returns (T, basis, allowed, phase1_obj, nv) where nv is the number of
    free variables (columns are x+ | x- | slack | artificial | rhs) and
    allowed masks out artificial columns for any later phase.
    """
    m, nv = A.shape
    sign = np.where(b < 0.0, -1.0, 1.0)
    body = np.hstack([A, -A, np.eye(m)]) * sign[:, None]
    rhs = b * sign
    neg = np.nonzero(sign < 0.0)[0]
    n_art = neg.size
    ncols = 2 * nv + m + n_art
    T = np.zeros((m, ncols + 1))
    T[:, : 2 * nv + m] = body
    T[:, -1] = rhs
    basis = np.empty(m, dtype=np.int64)
    basis[:] = 2 * nv + np.arange(m)  # slack columns
    for j, i in enumerate(neg):
        T[i, 2 * nv + m + j] = 1.0
        basis[i] = 2 * nv + m + j
    allowed = np.ones(ncols, dtype=bool)
    allowed[2 * nv + m :] = False
    if n_art:
        cost = np.zeros(ncols)
        cost[2 * nv + m :] = 1.0
        art_allowed = np.ones(ncols, dtype=bool)
        _optimize(T, basis, cost, art_allowed, 400 + 40 * (m + ncols))
        obj = float(cost[basis] @ T[:, -1])
        # Drive basic artificials out on any nonzero structural pivot; a row
        # with none is linearly dependent and harmlessly keeps its zero.
        for r in range(m):
            if basis[r] >= 2 * nv + m:
                struct = np.nonzero(np.abs(T[r, : 2 * nv + m]) > _PIV_TOL)[0]
                if struct.size:
                    _pivot(T, basis, r, struct[0])
    else:
        obj = 0.0
    return T, basis, allowed, obj, nv


def feasible(A: np.ndarray, b: np.ndarray) -> bool:
    """Whether A x <= b has a solution (x unconstrained in sign)."""
    _, _, _, obj, _ = _phase1(np.asarray(A, dtype=np.float64), np.asarray(b, dtype=np.float64))
    return obj <= _FEAS_TOL


def strict_margin(A: np.ndarray, b: np.ndarray) -> float:
    """Optimal value of: maximize t subject to A x + t <= b and t <= 1.

    Positive margin means A x < b is solvable; the t <= 1 cap keeps the LP
    bounded when the system's slack is unbounded. This extended LP is always
    feasible (push t low enough), so only phase 2 decides the answer.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, n = A.shape
    A2 = np.zeros((m + 1, n + 1))
    A2[:m, :n] = A
    A2[:, n] = 1.0
    b2 = np.append(b, 1.0)
    T, basis, allowed, obj, nv = _phase1(A2, b2)
    if obj > _FEAS_TOL:  # cannot happen; defensive
        return -np.inf
    ncols = T.shape[1] - 1
    cost = np.zeros(ncols)
    cost[nv - 1] = -1.0   # t+
    cost[2 * nv - 1] = 1.0  # t-
    _optimize(T, basis, cost, allowed, 400 + 40 * (m + ncols))
    values = np.zeros(ncols)
    values[basis] = T[:, -1]
    return float(values[nv - 1] - values[2 * nv - 1])


def _necessity_mask(V, S, feet, strict_tol):
    """Irredundancy mask for the halfspace family (V unit rows, offsets S),
    by LPs: `min_h_mask`, and the families `_search_mask` leaves undecided.

    feet[i] must be a point on hyperplane i (any one). A halfspace whose foot
    is strictly interior to every other halfspace is provably necessary and
    skips its LP. The rest are tested with the strict flipped-row system,
    highest index first against the currently retained family, so duplicate
    constraints keep their lowest-index copy.
    """
    k = V.shape[0]
    keep = np.ones(k, dtype=bool)
    if k == 1:
        return keep
    G = feet @ V.T - S[None, :]
    G.flat[:: k + 1] = -np.inf  # the diagonal
    certified = G.max(axis=1) < -1e-9
    # each LP takes the retained rows but i, then row i flipped: the rows of
    # [V; -V] that `sel` picks, in that order
    VV = np.concatenate((V, -V))
    SS = np.concatenate((S, -S))
    sel = np.zeros(2 * k, dtype=bool)
    for i in np.flatnonzero(~certified)[::-1].tolist():
        sel[:k] = keep
        sel[i] = False
        sel[k + i] = True
        if _kernel.strict_margin(VV[sel], SS[sel]) <= strict_tol:
            keep[i] = False
        sel[k + i] = False
    return keep


def _search_mask(V, S, feet, U, strict_tol):
    """Irredundancy mask of a family the search reaches at depth >= 1.

    V holds unit rows orthogonal to the orthonormal rows of U (the search's
    pivot directions), S the offsets and feet[i] a point on hyperplane i.
    Linear algebra decides first. A family that passes `independent_rows`
    keeps every row. A family confined to a line or a plane (at most two
    directions left orthogonal to U) is expressed in an orthonormal basis
    of that complement and decided exactly (`_line_mask`, `_plane_mask`).
    Whatever those leave undecided goes to the LPs of `_necessity_mask`.
    Each path gives the mask the LPs give, duplicates keeping their
    lowest-index copy.
    """
    if independent_rows(V):
        return np.ones(V.shape[0], dtype=bool)
    d, n = U.shape
    if n - d <= 2:
        Q = np.linalg.qr(U.T, mode="complete")[0][:, d:]
        A = V @ Q
        keep = _line_mask(A[:, 0], S, strict_tol) if n - d == 1 else _plane_mask(A, S, strict_tol)
        if keep is not None:
            return keep
    return _necessity_mask(V, S, feet, strict_tol)


def _line_mask(a, S, strict_tol):
    """Mask of the family a_i z <= S_i on a line (a_i = ±1 up to round-off),
    or None when the strict-system LPs could decide it otherwise.

    Each side keeps its tightest bound, the lowest index on ties, and drops
    the rest: while that row is retained, a looser or equal bound on its side
    cannot be violated with the others strictly satisfied (its LP value is
    at most 0). The kept row's LP value is at least
    min(1, (second - max(tightest, opposite)) / 2), from the next distinct
    bound on its side and the tightest one on the other; when that does
    not clear strict_tol by `_MASK_MARGIN` (near-ties, or an opposite
    bound past the next one, where the LPs can keep a looser row) the LPs
    decide.
    """
    b = S / np.abs(a)
    up = a > 0
    keep = np.zeros(len(a), dtype=bool)
    for side in (up, ~up):
        if not side.any():
            continue
        bs = np.where(side, b, np.inf)
        first = int(bs.argmin())  # lowest index on ties
        looser = bs[bs > bs[first]]
        second = looser.min() if looser.size else np.inf
        other = np.where(side, np.inf, b).min()  # the opposite side's tightest
        if (second - max(bs[first], -other)) / 2 <= strict_tol + _MASK_MARGIN:
            return None
        keep[first] = True
    return keep


def _plane_mask(A, S, strict_tol):
    """Mask of the family A_i w <= S_i in the plane (unit rows A, k x 2),
    or None when the strict-system LPs could decide it otherwise.

    Exact duplicates (equal rows and offsets) keep their lowest-index copy.
    Any other pair of rows within `_RANK_TAU` of the same direction leaves
    the family to the LPs; opposite rows are fine. Then each line i is
    clipped by every other halfplane: on w(s) = S_i A_i + s p_i (p_i = A_i
    turned by 90°), row j bounds s at (S_j - S_i cos_ij) / sin_ij, from
    above where sin_ij = p_i·A_j > 0. A row is necessary when the middle of
    its clip is strictly inside every other halfplane, by σ: stepping σ/2
    beyond line i from there gives its LP a value of at least min(1, σ/2),
    which must clear strict_tol by `_MASK_MARGIN`. That middle lies in the
    region, so once one row is necessary the region is not empty, and a
    row whose clip is empty is redundant: its line misses the region of
    the other rows, which then lies inside its halfplane. So does the
    region of any family that keeps the necessary rows, as every LP's does,
    since rows strictly redundant in a non-empty region can all go at once.
    Families with a row that neither test decides (a vertex near a third
    line, an empty or degenerate region) go to the LPs.
    """
    k = A.shape[0]
    C = A @ A.T  # C[i, j] = A_i·A_j, the cosine
    Pa = A[:, ::-1] * np.array([-1.0, 1.0])  # the p_i
    X = Pa @ A.T  # X[i, j] = p_i·A_j, the sine from row i to row j
    same = (C > 0.0) & (np.abs(X) <= _RANK_TAU)
    dup = same & (A[:, None, :] == A[None, :, :]).all(2) & (S[:, None] == S[None, :])
    if (same & ~dup).any():
        return None
    u = (~np.tril(dup, -1).any(1)).nonzero()[0]  # the lowest-index copies
    if len(u) < k:
        A, S, Pa, C, X = A[u], S[u], Pa[u], C[np.ix_(u, u)], X[np.ix_(u, u)]
    R = S[None, :] - S[:, None] * C
    bound = np.divide(R, X, out=np.zeros_like(R), where=np.abs(X) > _RANK_TAU)
    h = np.where(X > _RANK_TAU, bound, np.inf).min(1)
    l = np.where(X < -_RANK_TAU, bound, -np.inf).max(1)
    empty = l > h
    # the middle of [l, h], or one step inside it when a side is open
    hf, lf = np.isfinite(h), np.isfinite(l)
    l = np.where(lf, l, np.where(hf, h - 2.0, -1.0))
    h = np.where(hf, h, l + 2.0)
    W = S[:, None] * A + ((l + h) / 2)[:, None] * Pa
    slack = S[None, :] - W @ A.T
    np.fill_diagonal(slack, np.inf)
    need = slack.min(1) / 2 > strict_tol + _MASK_MARGIN
    if not need.any() or not (need | empty).all():
        return None
    keep = np.zeros(k, dtype=bool)
    keep[u] = need
    return keep


def independent_rows(V: np.ndarray) -> bool:
    """Whether the unit rows of V are linearly independent with margin.

    True iff there are at most as many rows as columns and the Cholesky
    factorization of V Vᵀ − τ²I succeeds, i.e. the smallest singular value
    of V exceeds τ = `_RANK_TAU` up to round-off. Then V z = b is solvable
    for every b: the polyhedron V z <= S is non-empty, every boundary
    touches it, and every row can be violated while the others hold
    strictly, so each one is necessary.
    """
    k, n = V.shape
    if k > n:
        return False
    G = V @ V.T
    G.flat[:: k + 1] -= _RANK_TAU * _RANK_TAU
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return False
    return True


def min_h_mask(V: np.ndarray, S: np.ndarray, strict_tol: float = 1e-9) -> np.ndarray:
    """Mask of halfspaces forming the minimum description of their intersection."""
    V = np.ascontiguousarray(V, dtype=np.float64)
    S = np.ascontiguousarray(S, dtype=np.float64)
    feet = S[:, None] * V
    return _necessity_mask(V, S, feet, strict_tol)


def min_norm_point(
    V: np.ndarray,
    S: np.ndarray,
    x: np.ndarray,
    eps: float = 1e-9,
    eps_dep: float = 1e-10,
    strict_tol: float = 1e-9,
    node_limit: int = 10_000_000,
    time_budget: float | None = None,
):
    """Exact nearest point of the polyhedron {z : V z <= S} from x.

    Returns (y, nodes, status). V rows must be unit norm. With status FOUND,
    y is the unique nearest point; with INSIDE, y equals x. The search
    projects onto descending-signed-distance hyperplanes recursively,
    certifying candidate points by their KKT multipliers (`_kkt`) where
    those decide, and with the strict-system optimality criterion otherwise.
    Redundant halfspaces are masked out of every family it branches on, the
    root one included. This is `solve_many` on the one row x.
    """
    X = np.asarray(x, dtype=np.float64)[None, :]
    Y, _, nodes, status = solve_many(V, S, X, eps, eps_dep, strict_tol,
                                     node_limit, time_budget)
    return Y[0], int(nodes[0]), int(status[0])


def _first_projection(V, S, X, eps, eps_dep):
    """Rows of X whose foot on their most violated hyperplane lies in P.

    Returns (settled, left, feet, normalized margins d, faces c, row norms
    wn, margins G = V foot - S at the feet); all but wn are meaningful
    where settled or left. `left` marks the exterior rows whose foot lies
    outside P, for `_second_projection`.
    P lies inside each of its halfspaces, so a foot on hyperplane c that lies
    in P is the nearest point of P: it is already the nearest point of
    halfspace c. Only the face of largest normalized margin (lowest index on
    ties) can have such a foot. The pass uses the search's depth-0
    arithmetic, guards and `eps`, so where the search pivots on that face
    first it stops at this foot, its second node. Where that face is
    redundant the search skips it and reaches the same point by a longer
    path; this pass reports 2 nodes for it either way.
    """
    M = X @ V.T
    M -= S
    live = np.maximum.reduce(M, 1) > eps
    wn = np.sqrt(np.add.reduce(V * V, 1))  # the search's depth-0 wn
    M /= wn
    c = M.argmax(1)
    d = np.maximum.reduce(M, 1)
    wc = wn[c]
    # one rows x dim array: u, then d u, then the foot x - d u
    F = V[c]
    F /= wc[:, None]
    F *= d[:, None]
    np.subtract(X, F, out=F)
    G = F @ V.T
    G -= S
    live &= d > eps
    live &= wc > eps_dep
    inside = np.maximum.reduce(G, 1) <= eps
    return live & inside, live & ~inside, F, d, c, wn, G


def _second_projection(V, S, X, F, G, c, d, wn, eps, eps_dep):
    """Rows of X that the search settles at its third node, and their points.

    X holds rows that `_first_projection` left over: each has its first
    foot F = x - d u on face c (u = V_c / wn_c) outside P, with margins
    G = V F - S. The step repeats the search's depth-1 arithmetic on every
    row at once: it projects the rows orthogonally to u (two Gram-Schmidt
    passes, `wn > eps_dep`), takes the face c2 of largest projected margin
    d2 (lowest index on ties, `d2 > eps`) and its foot y2 = F - d2 U2 on
    both hyperplanes, U2 the unit projection of V_c2. Returns (settled
    mask, y2); y2 is meaningful where settled.

    A row is settled only when y2 lies in P with exactly rows c and c2
    tight (margin >= -eps), those two pass the `independent_rows` test (the
    2x2 Cholesky condition, as a determinant), and the KKT multipliers of
    x - y2 on them have a residual of at most `_KKT_RESIDUAL`·|x - y2| and
    exceed `_KKT_LAMBDA`·|x - y2|: the search's own `_kkt` acceptance. The
    multipliers are read off x - y2 = d u + d2 U2 with V_c2 = (V_c2·u) u +
    |W_c2| U2, the same unique solution `_kkt` finds up to round-off. Then
    y2 is the nearest point of P, and the search stops there at node 3:
    every other row is slack at y2, so y2, the foot of c2, certifies c2
    necessary in the depth-1 mask, and c2 is the top candidate there.
    Dependent tight rows, a multiplier near 0 or y2 outside P leave the row
    to the search.
    """
    at = np.arange(len(c))
    u = V[c] / wn[c][:, None]  # the search's U[0], row by row
    A = u @ V.T
    W = V - A[:, :, None] * u[:, None, :]
    W -= (W @ u[:, :, None]) * u[:, None, :]
    wn2 = np.sqrt(np.add.reduce(W * W, 2))
    wn2[at, c] = 0.0  # the search has taken face c out of the family
    dist = np.divide(G, wn2, out=np.full(G.shape, -np.inf), where=wn2 > eps_dep)
    c2 = dist.argmax(1)
    d2 = dist[at, c2]
    ok = d2 > eps
    if not ok.any():
        return ok, F
    # both clamps leave the rows with a candidate as they are
    w2 = np.maximum(wn2[at, c2], eps_dep)
    np.maximum(d2, 0.0, out=d2)
    Y = W[at, c2] / w2[:, None]
    Y *= d2[:, None]
    np.subtract(F, Y, out=Y)
    M = Y @ V.T
    M -= S
    tight = M >= -eps
    ok &= np.maximum.reduce(M, 1) <= eps
    ok &= np.add.reduce(tight, 1) == 2
    ok &= tight[at, c] & tight[at, c2]
    if not ok.any():
        return ok, Y
    a = A[at, c2]  # V_c2·u
    wc = wn[c]
    g00, g11 = wc * wc - _RANK_TAU**2, wn[c2] ** 2 - _RANK_TAU**2
    ok &= (g00 > 0.0) & (g00 * g11 > (a * wc) ** 2)
    l2 = d2 / w2
    l1 = (d - l2 * a) / wc
    w = X - Y
    nv = np.sqrt(np.add.reduce(w * w, 1))
    w -= l1[:, None] * V[c]
    w -= l2[:, None] * V[c2]
    ok &= np.sqrt(np.add.reduce(w * w, 1)) <= _KKT_RESIDUAL * nv
    ok &= np.minimum(l1, l2) > _KKT_LAMBDA * nv
    return ok, Y


def _kkt(V, m, w, nv, eps):
    """Decide a candidate y by the KKT multipliers of the rows tight at it.

    m = V y - S (every entry <= eps, as y lies in P), w = x - y and nv = |w|.
    y is the nearest point of P from x iff w lies in the cone of the normals
    of the rows tight at y (|m| <= eps). When those rows are independent
    (`independent_rows`), w = Σ λ_j V_j has one solution. Returns True when
    every λ_j exceeds `_KKT_LAMBDA`·nv; False when some λ_j is below
    −`_KKT_LAMBDA`·nv and every other row is slack by more than
    `_KKT_SLACK`, so that y can move into P away from that row and closer
    to x; None otherwise, and when the rows are dependent or w leaves their
    span, for the strict-system LP to decide.
    """
    tight = m >= -eps
    T = V[tight]
    if not T.shape[0] or not independent_rows(T):
        return None
    lam = np.linalg.solve(T @ T.T, T @ w)
    if np.linalg.norm(w - lam @ T) > _KKT_RESIDUAL * nv:
        return None
    low = lam.min()
    if low > _KKT_LAMBDA * nv:
        return True
    if low < -_KKT_LAMBDA * nv and (m[~tight] < -_KKT_SLACK).all():
        return False
    return None


def _criterion(V, S, x, y, m, eps, strict_tol):
    """Whether y, a point of P with margins m = V y - S, is the nearest point
    of P from x: `_kkt` when it decides, else the strict-system LP (no point
    of P's interior lies strictly beyond y's hyperplane towards x)."""
    v = y - x
    nv = np.linalg.norm(v)
    if nv <= eps:
        return True
    decided = _kkt(V, m, -v, nv, eps)
    if decided is not None:
        return decided
    rows = np.concatenate((V, v[None, :] / nv))
    rhs = np.concatenate((S, [float(y @ v) / nv]))
    return _kernel.strict_margin(rows, rhs) <= strict_tol


def _search(V, S, x, root, eps, eps_dep, strict_tol, node_limit, time_budget):
    """The search for one row of `solve_many`, sharing the root mask in root[0].

    At depth 0 the reduced family is (V, S) itself, so its redundancy mask
    does not depend on x. It is computed at the first depth-0 expansion
    (inside the node and time budgets), without an LP when the family
    passes `independent_rows`, and left in root[0] for any later query on
    the same family. Deeper families depend on the node and take
    `_search_mask`, which runs LPs only on what linear algebra leaves
    undecided. Candidates at depth >= 2 go through `_criterion`.
    """
    k, n = V.shape
    margins = V @ x - S
    if margins.max() <= eps:
        return x, 0, INSIDE
    deadline = None if time_budget is None else time.monotonic() + time_budget
    U = np.zeros((n, n))
    state = {"nodes": 0}

    def node(y, active, depth):
        assert depth <= n
        state["nodes"] += 1
        if state["nodes"] > node_limit:
            raise _Stop(NODE_BUDGET)
        if deadline is not None and time.monotonic() > deadline:
            raise _Stop(TIME_BUDGET)
        m_full = V @ y - S
        if m_full.max() <= eps:
            if depth <= 1:
                return y  # single-projection feasibility implies optimality
            return y if _criterion(V, S, x, y, m_full, eps, strict_tol) else None
        if depth == n or active.size == 0:
            return None
        if depth:
            Va = V[active]
            Ud = U[:depth]
            W = Va - (Va @ Ud.T) @ Ud
            W -= (W @ Ud.T) @ Ud  # second pass keeps the basis orthonormal
        else:
            W = V  # what the projection above gives at depth 0, bit for bit
        wn = np.sqrt(np.add.reduce(W * W, axis=1))  # np.linalg.norm(W, axis=1)
        indep = wn > eps_dep
        idx = active
        if not indep.all():
            if not indep.any():
                return None
            idx, W, wn = active[indep], W[indep], wn[indep]
        Ui = W / wn[:, None]
        dist = m_full[idx] / wn
        feet = y[None, :] - dist[:, None] * Ui
        if depth == 0:
            if root[0] is None:
                # independent rows are each necessary (`independent_rows`)
                root[0] = (np.ones(k, dtype=bool) if independent_rows(V)
                           else _kernel.min_h_mask(V, S, strict_tol))
            keep = root[0][indep]
        else:
            keep = _search_mask(Ui, Ui @ y - dist, feet, U[:depth], strict_tol)
        cand = (keep & (dist > eps)).nonzero()[0]
        if cand.size == 0:
            return None
        order = cand[(-dist[cand]).argsort(kind="stable")]
        alive = keep.copy()
        for c in order:
            alive[c] = False  # tried pivots stay removed: combinations only
            U[depth] = Ui[c]
            got = node(feet[c], idx[alive], depth + 1)
            if got is not None:
                return got
        return None

    try:
        y = node(x, np.arange(k, dtype=np.int64), 0)
    except _Stop as stop:
        return x, state["nodes"], stop.status
    finally:
        # node's closure holds node itself: break the cycle so U and the
        # search state are freed now rather than at the next cyclic collection
        node = None
    if y is None:
        return x, state["nodes"], EXHAUSTED
    return y, state["nodes"], FOUND


def solve_many(V, S, X, eps=1e-9, eps_dep=1e-10, strict_tol=1e-9,
               node_limit=10_000_000, time_budget=None):
    """Vector/batch driver over rows of X. Returns (Y, dist, nodes, status).

    Two vectorized passes run first, when the time budget is not 0. With a
    node limit of at least 2, `_first_projection` settles at 2 nodes every
    exterior row whose foot on its most violated hyperplane lies in P; with
    at least 3, `_second_projection` settles at 3 nodes the rows left over
    whose second foot the KKT multipliers certify, in blocks of at most
    `_BULK_ELEMS` projected rows. Only the rows left after both run the
    search. The time budget, when given, applies per solve. The root
    redundancy mask is computed once, at the first searched row, and reused
    for the rest.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    Vc = np.ascontiguousarray(V, dtype=np.float64)
    Sc = np.ascontiguousarray(S, dtype=np.float64)
    m = X.shape[0]
    nodes = np.zeros(m, np.int64)
    if node_limit >= 2 and (time_budget is None or time_budget > 0):
        settled, left, Y, dist, c, wn, G = _first_projection(Vc, Sc, X, eps, eps_dep)
        nodes[settled] = 2
        left = left.nonzero()[0] if node_limit >= 3 else []
        step = max(1, _BULK_ELEMS // Vc.size)
        for at in range(0, len(left), step):
            r = left[at : at + step]
            done, y2 = _second_projection(Vc, Sc, X[r], Y[r], G[r], c[r], dist[r], wn, eps,
                                          eps_dep)
            if done.any():
                r = r[done]
                Y[r] = y2[done]
                w = Y[r] - X[r]
                dist[r] = np.sqrt(np.add.reduce(w * w, 1))
                nodes[r] = 3
    else:
        Y, dist = np.empty_like(X), np.empty(m)
    status = np.zeros(m, np.int64)  # FOUND
    root = [None]
    for i in (nodes == 0).nonzero()[0].tolist():
        y, nd, st = _search(Vc, Sc, X[i], root, eps, eps_dep, strict_tol,
                            node_limit, time_budget)
        Y[i] = y
        nodes[i] = nd
        status[i] = st
        if st == INSIDE:
            dist[i] = (Vc @ X[i] - Sc).max()
        elif st == FOUND:
            dist[i] = float(np.linalg.norm(y - X[i]))
        else:
            dist[i] = np.nan
    return Y, dist, nodes, status


def svm_pair(Xa, t, C=1.0):
    """L1 soft-margin linear SVM on pre-augmented rows, solved to a certified
    optimum by a primal-dual interior-point method on its dual.

    The dual is the box QP min 1/2 a'ZZ'a - 1'a, 0 <= a <= C, with Z = t Xa
    (labels of +-1 folded into the rows); the caller appends its own bias
    feature, so there is no equality row. Each iteration is one Mehrotra
    predictor-corrector step (sigma = (mu_aff / mu)^3, with the
    second-order correction), taken to `_SVM_STEP` of the way to the
    boundary. The Newton system (ZZ' + D) da = r, D = z / a + s / (C - a),
    is solved by Sherman-Morrison-Woodbury: w's step dw solves
    (I + Z'D^-1 Z) dw = Z'D^-1 r through one Cholesky factor of that d x d
    matrix (d = columns of Xa), and da = D^-1 (r - Z dw). The box slack
    C - a is an iterate of its own, so it stays positive where C - a would
    round to 0.

    Near the optimum D^-1 would span about 1e15, and the Woodbury solve
    then loses the accuracy the last iterations need: on some pairs with
    C = 100 or standardized features the gap stalled above the target and
    the iterates collapsed onto the bounds. So D carries a proximal term,
    `_SVM_PROX` times the starting point's rho, which caps D^-1 and changes
    the step but not the optimum it converges to (primal regularization,
    as in Friedlander & Orban, Math. Prog. Comp. 4, 2012). When the factor
    fails all the same, it is retried once with a ridge of `_SVM_RIDGE`
    times its largest diagonal entry, and a second failure raises
    `errors.ConditioningError`.

    The fit stops when the relative duality gap (P(w) - 1'a + 1/2 |w|^2) /
    max(1, P(w)) is at most `SVM_GAP`, where w = Z'a and P(w) = 1/2 |w|^2 +
    C sum(hinge) is the primal objective. Every w is primal feasible and
    every a in the box dual feasible, so the gap bounds how far P(w) lies
    above the optimum. After `_SVM_MAX_ITER` iterations the fit stops
    anyway, and the gap it returns says so.

    Returns (w, a, iterations, gap): w has one entry per column of Xa, a one
    per row.
    """
    Z = np.asarray(t, dtype=np.float64)[:, None] * np.asarray(Xa, dtype=np.float64)
    m = Z.shape[0]
    v = np.empty((4, m))
    a, u, z, s = v  # the dual, its box slack C - a, and their multipliers
    # Start from one proximal step off the box centre: the minimizer of the
    # dual plus rho/2 |a - C/2|^2, rho = 3 mean(diag ZZ'), kept 1% of C
    # inside the box; then z - s = ZZ'a - 1 (no dual residual), both
    # shifted off 0 by the mean gradient's size.
    rho = 3.0 * float(np.vdot(Z, Z)) / m or 1.0
    rhs = np.full(m, 1.0 + 0.5 * rho * C)
    L = _svm_factor(Z.T @ Z / rho)
    np.clip((rhs - Z @ _svm_solve(L, Z.T @ rhs / rho)) / rho, 0.01 * C, 0.99 * C, out=a)
    u[:] = C - a
    g = Z @ (Z.T @ a) - 1.0
    shift = float(np.abs(g).mean()) + _SVM_SHIFT
    np.maximum(g, 0.0, out=z)
    np.maximum(-g, 0.0, out=s)
    z += shift
    s += shift
    dv = np.empty((4, m))
    iterations = 0
    while True:
        w = Z.T @ a
        g = Z @ w - 1.0
        half_w2 = 0.5 * float(w @ w)
        primal = half_w2 + C * float(np.maximum(-g, 0.0).sum())
        gap = (primal - (float(a.sum()) - half_w2)) / max(1.0, primal)
        if not np.isfinite(gap):
            raise errors.ConditioningError("SVM fit lost finiteness")
        if gap <= SVM_GAP or iterations == _SVM_MAX_ITER:
            return w, a.copy(), iterations, gap
        iterations += 1
        mu = float(np.vdot(v[:2], v[2:])) / (2 * m)
        inv_d = 1.0 / (z / a + s / u + _SVM_PROX * rho)
        ZD = Z * inv_d[:, None]
        L = _svm_factor(ZD.T @ Z)
        rd = g - z + s

        def step(r1, r2):
            """Direction for the complementarity targets a z = -r1, u s = -r2;
            returns the longest step (at most 1) inside the bounds."""
            r = r2 / u - r1 / a - rd
            da = inv_d * (r - Z @ _svm_solve(L, ZD.T @ r))
            dv[0] = da
            dv[1] = -da
            dv[2] = -(r1 + z * da) / a
            dv[3] = (s * da - r2) / u
            shrink = dv < 0.0
            return min(1.0, float((v[shrink] / -dv[shrink]).min(initial=np.inf)))

        az, us = a * z, u * s
        full = step(az, us)
        mu_aff = float(np.vdot(v[:2] + full * dv[:2], v[2:] + full * dv[2:])) / (2 * m)
        target = (mu_aff / mu) ** 3 * mu
        da, dz, ds = dv[0], dv[2], dv[3]  # read before `step` overwrites them
        reach = step(az + da * dz - target, us - da * ds - target)
        v += min(1.0, _SVM_STEP * reach) * dv


def _svm_factor(G):
    """Lower Cholesky factor of I + G, with a ridge on one failure."""
    G[np.diag_indices_from(G)] += 1.0
    try:
        return np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        pass
    G[np.diag_indices_from(G)] += _SVM_RIDGE * float(G.diagonal().max())
    try:
        return np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        raise errors.ConditioningError(
            "SVM fit: the interior-point system is not positive definite"
        ) from None


def _svm_solve(L, x):
    """(L L')^-1 x by two triangular solves."""
    return np.linalg.solve(L.T, np.linalg.solve(L, x))
