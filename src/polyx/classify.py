"""Unsupervised linear classifiers that carve space into polyhedral classes.

Two routes to a partition: k-means whose classes are Voronoi cells, and a
Gaussian mixture fitted by EM whose hard labels train one-vs-one linear SVMs
(the pairwise separators become the frontier hyperplanes). Everything is
seeded and deterministic; no fitting code is imported from outside.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _kernel, errors, geom, rng as rngmod

_SVM_C = 1.0
_MARGIN_TOL = 1e-6  # how far below 1 a margin must fall to count as a violator


def _as_data(data) -> np.ndarray:
    # C order: a row's squared distance then sums its bands in the same
    # order whether the row is read from the whole matrix or from a subset.
    arr = np.ascontiguousarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise errors.InputError("data must be a pixels x features matrix")
    if not np.all(np.isfinite(arr)):
        raise errors.InputError("data contains non-finite values")
    return arr


@dataclass(frozen=True, eq=False)
class KMeansModel:
    centroids: np.ndarray
    inertia: float
    seed: int
    #: Lloyd sweeps the fit ran, and whether the 300-sweep cap stopped it
    #: before the centroids settled
    sweeps: int = 0
    capped: bool = False

    def __post_init__(self) -> None:
        c = np.asarray(self.centroids, dtype=float)
        if c.ndim != 2 or c.shape[0] < 2:
            raise errors.InputError("need at least 2 centroids")
        diff = c[:, None, :] - c[None, :, :]
        d = np.sqrt((diff**2).sum(-1))
        np.fill_diagonal(d, np.inf)
        if d.min() <= 1e-12:
            raise errors.InputError("centroids must be pairwise distinct")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "centroids", c)


@dataclass(frozen=True, eq=False)
class GmmModel:
    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray  # K x n x n
    seed: int
    #: per-iteration training log-likelihood, a convergence diagnostic
    loglik_path: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if abs(w.sum() - 1.0) > 1e-12 or (w < 0).any():
            raise errors.InputError("weights must be non-negative and sum to 1")
        for i, cov in enumerate(np.asarray(self.covariances, dtype=float)):
            if np.linalg.eigvalsh(cov).min() <= 0:
                raise errors.InputError(f"covariance {i} is not positive definite")


@dataclass(frozen=True, eq=False)
class PartitionModel:
    """K complementary polyhedral classes, one frontier per opposing pair."""

    K: int
    polyhedra: tuple[geom.PolyhedronH, ...]
    provenance: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.K < 2 or len(self.polyhedra) != self.K:
            raise errors.InputError("partition needs K >= 2 polyhedra")
        for i, p in enumerate(self.polyhedra):
            if p.k != self.K - 1:
                raise errors.InputError(
                    f"class {i} must have exactly K-1={self.K - 1} halfspaces"
                )
        for i in range(self.K):
            for j in range(i + 1, self.K):
                a = self.polyhedra[i].halfspaces[j - 1]
                b = self.polyhedra[j].halfspaces[i]
                if (
                    np.abs(a.normal + b.normal).max() > 1e-9
                    or abs(a.offset + b.offset) > 1e-9
                ):
                    raise errors.InputError(
                        f"frontier ({i},{j}) is not the negation of ({j},{i})"
                    )
        object.__setattr__(self, "polyhedra", tuple(self.polyhedra))

    @property
    def dim(self) -> int:
        return self.polyhedra[0].dim


def _kmeans_init(data: np.ndarray, K: int, gen: np.random.Generator) -> np.ndarray:
    """k-means++ seeding; falls back to lowest unused index on zero mass."""
    m = data.shape[0]
    centers = np.empty((K, data.shape[1]))
    chosen: list[int] = [int(gen.integers(m))]
    centers[0] = data[chosen[0]]
    d2 = ((data - centers[0]) ** 2).sum(1)
    for t in range(1, K):
        total = float(d2.sum())
        if total <= 0.0:
            pick = next(i for i in range(m) if i not in chosen)
        else:
            pick = int(gen.choice(m, p=d2 / total))
        chosen.append(pick)
        centers[t] = data[pick]
        d2 = np.minimum(d2, ((data - centers[t]) ** 2).sum(1))
    return centers


def _sq_distances(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """pixels x K squared distances, one centroid at a time: no pixels x K x
    features temporary, and the same sums as the broadcast form."""
    d2 = np.empty((data.shape[0], centers.shape[0]))
    for k, c in enumerate(centers):
        d2[:, k] = ((data - c) ** 2).sum(1)
    return d2


def _row_sq_norms(data: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", data, data)


def _assign(data: np.ndarray, centers: np.ndarray, data_sq: np.ndarray) -> np.ndarray:
    """Nearest centroid of every row, lowest index on ties: bitwise the
    argmin of `_sq_distances(data, centers)`.

    One matrix product gives every squared distance in the expanded form
    |x|^2 - 2 x.c + |c|^2 (`data_sq` holds the |x|^2). It and the exact
    formula each lie within (2 bands + 4) u (|x|^2 + |c|^2) of the true
    value, u = eps / 2, whatever order BLAS sums in. So where the best and
    second-best expanded distances of a row are further apart than twice
    the sum of the two bounds, both forms pick the same strict winner; the
    bound used is four times that, and its `tiny` covers underflow. Only
    the rows it leaves undecided, and rows with non-finite values, are
    recomputed with `_sq_distances`.
    """
    bands = data.shape[1]
    centers_sq = _row_sq_norms(centers)
    # K x pixels: each centroid's distances contiguous, the faster product
    d2 = centers @ data.T
    d2 *= -2.0
    d2 += data_sq
    d2 += centers_sq[:, None]
    labels = d2.argmin(axis=0)
    cols = np.arange(d2.shape[1])
    best = d2[labels, cols]
    d2[labels, cols] = np.inf
    gap = d2.min(axis=0) - best
    eps = np.finfo(float).eps
    bound = 16.0 * (bands + 4) * eps * (data_sq + centers_sq.max()) + np.finfo(float).tiny
    unsure = np.flatnonzero(~(gap > bound))
    if unsure.size:
        labels[unsure] = _sq_distances(data[unsure], centers).argmin(axis=1)
    return labels


def kmeans_fit(data, K: int, seed: int) -> KMeansModel:
    """Lloyd's algorithm with k-means++ seeding.

    At most 300 sweeps, stopping when no centroid moves more than 1e-6; the
    model records the sweeps run and whether that cap stopped them. An
    emptied cluster is restarted at the point currently farthest from its
    own centroid (lowest index on ties), which keeps runs deterministic.
    """
    data = _as_data(data)
    m = data.shape[0]
    if K < 2:
        raise errors.InputError("K must be at least 2")
    if m < K:
        raise errors.InputError("need at least K data points")
    gen = rngmod.stream(seed, "kmeans")
    centers = _kmeans_init(data, K, gen)
    data_sq = _row_sq_norms(data)
    labels = _assign(data, centers, data_sq)
    for sweeps in range(1, 301):
        max_shift = 0.0
        reseeded: set[int] = set()
        for k in range(K):
            mask = labels == k
            if not mask.any():
                dist = ((data - centers[labels]) ** 2).sum(1)
                if reseeded:
                    dist[list(reseeded)] = -np.inf
                far = int(dist.argmax())
                reseeded.add(far)
                centers[k] = data[far]
                labels[far] = k
                mask = labels == k
            new_center = data[mask].mean(axis=0)
            max_shift = max(max_shift, float(np.linalg.norm(new_center - centers[k])))
            centers[k] = new_center
        labels = _assign(data, centers, data_sq)
        if max_shift < 1e-6:
            break
    inertia = float(((data - centers[labels]) ** 2).sum())
    return KMeansModel(centers, inertia, int(seed), sweeps, capped=max_shift >= 1e-6)


def kmeans_labels(model: KMeansModel, data) -> np.ndarray:
    """Nearest-centroid assignment (lowest index on ties)."""
    data = _as_data(data)
    return _assign(data, model.centroids, _row_sq_norms(data))


def centroid_distances(model: KMeansModel, data) -> np.ndarray:
    """pixels x K Euclidean distances to the centroids."""
    return np.sqrt(_sq_distances(_as_data(data), model.centroids))


def voronoi_partition(m: KMeansModel) -> PartitionModel:
    """Perpendicular-bisector halfspaces of every centroid pair."""
    c = m.centroids
    K = c.shape[0]
    polyhedra = []
    for i in range(K):
        hs = []
        for j in range(K):
            if j == i:
                continue
            v = c[j] - c[i]
            norm = float(np.linalg.norm(v))
            if norm <= 1e-12:
                raise errors.InputError("coincident centroids")
            v = v / norm
            s = float((c[i] + c[j]) / 2.0 @ v)
            hs.append(geom.Halfspace.from_raw(s, v))
        polyhedra.append(geom.PolyhedronH(tuple(hs), c.shape[1]))
    return PartitionModel(
        K, tuple(polyhedra), "kmeans", {"centroids": c.tolist(), "seed": m.seed}
    )


def _log_gauss(data: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    n = data.shape[1]
    chol = np.linalg.cholesky(cov)
    diff = data - mean
    sol = np.linalg.solve(chol, diff.T)
    maha = (sol**2).sum(axis=0)
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    return -0.5 * (maha + logdet + n * np.log(2.0 * np.pi))


def _ridge(cov: np.ndarray) -> np.ndarray:
    n = cov.shape[0]
    lam = max(1e-6 * float(np.trace(cov)) / n, 1e-10)
    return cov + lam * np.eye(n)


def gmm_fit(data, K: int, seed: int, subsample_ratio: float = 0.2) -> GmmModel:
    """EM on a seeded subsample, initialized from k-means on that subsample.

    Full covariances with a relative diagonal ridge; at most 200 iterations,
    stopping on a 1e-6 relative change of the log-likelihood. A component
    whose weight collapses is restarted on the least-explained point.
    """
    data = _as_data(data)
    if K < 1:
        raise errors.InputError("K must be at least 1")
    if not 0 < subsample_ratio <= 1:
        raise errors.InputError("subsample_ratio must be in (0, 1]")
    m = data.shape[0]
    sub_m = int(round(subsample_ratio * m))
    if sub_m < 10 * K:
        raise errors.InputError(
            "subsample too small: need at least 10 points per component"
        )
    gen = rngmod.stream(seed, "gmm")
    idx = np.sort(gen.choice(m, size=sub_m, replace=False))
    X = data[idx]
    n = X.shape[1]

    if K == 1:
        # single component: the subsample moments, no clustering needed
        weights = np.ones(1)
        means = X.mean(axis=0, keepdims=True).copy()
        covs = _ridge(np.cov(X.T, bias=True).reshape(n, n))[None, :, :].copy()
    else:
        km = kmeans_fit(X, K, seed)
        labels = kmeans_labels(km, X)
        weights = np.empty(K)
        means = km.centroids.copy()
        covs = np.empty((K, n, n))
        for k in range(K):
            mask = labels == k
            weights[k] = mask.mean()
            diff = X[mask] - means[k]
            covs[k] = _ridge(diff.T @ diff / max(mask.sum(), 1))

    global_cov = _ridge(np.cov(X.T, bias=True).reshape(n, n))
    ll_prev = -np.inf
    ll_path: list[float] = []
    for _ in range(200):
        logp = np.stack(
            [np.log(weights[k]) + _log_gauss(X, means[k], covs[k]) for k in range(K)],
            axis=1,
        )
        top = logp.max(axis=1, keepdims=True)
        lse = top[:, 0] + np.log(np.exp(logp - top).sum(axis=1))
        resp = np.exp(logp - lse[:, None])
        ll = float(lse.sum())
        ll_path.append(ll)

        nk = resp.sum(axis=0)
        for k in range(K):
            if nk[k] / sub_m < 1e-8:
                worst = int(resp.max(axis=1).argmin())
                means[k] = X[worst]
                covs[k] = global_cov
                nk[k] = 1.0
                resp[:, k] = 0.0
                resp[worst, k] = 1.0
                nk = resp.sum(axis=0)
        weights = nk / nk.sum()
        for k in range(K):
            means[k] = resp[:, k] @ X / nk[k]
            diff = X - means[k]
            covs[k] = _ridge((resp[:, k] * diff.T) @ diff / nk[k])
        if abs(ll - ll_prev) <= 1e-6 * max(1.0, abs(ll)):
            break
        ll_prev = ll
    return GmmModel(weights, means, covs, int(seed), tuple(ll_path))


def gmm_responsibilities(model: GmmModel, data) -> np.ndarray:
    data = _as_data(data)
    K = model.weights.shape[0]
    logp = np.stack(
        [
            np.log(model.weights[k])
            + _log_gauss(data, model.means[k], model.covariances[k])
            for k in range(K)
        ],
        axis=1,
    )
    top = logp.max(axis=1, keepdims=True)
    p = np.exp(logp - top)
    return p / p.sum(axis=1, keepdims=True)


def gmm_labels(model: GmmModel, data) -> np.ndarray:
    """Hard labels: argmax responsibility over the full data."""
    return gmm_responsibilities(model, data).argmax(axis=1)


def _svm_pair(X: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, int, float]:
    """Hinge-loss linear SVM, C = 1, solved by the kernel's interior-point
    method to a certified optimum.

    The bias is the weight of an appended constant feature 1.0, so it is
    regularized with the other weights, and the primal is strictly convex:
    its optimum is unique and does not depend on the engine. Returns one
    vector of length features + 1 (the weights, then the bias), the
    interior-point iterations, and the relative duality gap that certifies
    it; a gap above `_kernel.SVM_GAP` means the iteration cap stopped the
    fit first.
    """
    m, _ = X.shape
    Xa = np.hstack([X, np.ones((m, 1))])
    w, _, iterations, gap = _kernel.svm_pair(Xa, t, _SVM_C)
    return w, iterations, gap


def _svm_primal(X: np.ndarray, t: np.ndarray, w: np.ndarray) -> tuple[float, int]:
    """Primal objective 1/2 |w|^2 + C sum(hinge) of a `_svm_pair` result, and
    the count of margin violators: rows with t f(x) < 1 - `_MARGIN_TOL`, so
    that support vectors on the margin do not count."""
    margins = t * (X @ w[:-1] + w[-1])
    hinge = np.maximum(0.0, 1.0 - margins)
    violators = int((margins < 1.0 - _MARGIN_TOL).sum())
    return 0.5 * float(w @ w) + _SVM_C * float(hinge.sum()), violators


def ovo_svm_partition(data, labels, K: int, seed: int) -> PartitionModel:
    """One-vs-one linear SVMs on hard labels; separators become frontiers.

    For the (i, j) pair the decision value <w, x> + b is negative on class i,
    so class i's polyhedron takes the halfspace <x, w> <= -b and class j the
    negation. The partition assembles exactly as the Voronoi one. The
    metadata lists, per pair, the primal objective and the margin violators
    (`_svm_primal`), the interior-point iterations, the relative duality
    gap, and whether that gap certifies the fit (`converged`).
    """
    data = _as_data(data)
    labels = np.asarray(labels)
    if labels.shape != (data.shape[0],):
        raise errors.InputError("labels must be one class id per data row")
    if K < 2:
        raise errors.InputError("K must be at least 2")
    for k in range(K):
        if (labels == k).sum() < 2:
            raise errors.InputError(f"class {k} has fewer than 2 points")
    n = data.shape[1]
    frontier: dict[tuple[int, int], geom.Halfspace] = {}
    pairs = []
    for i in range(K):
        for j in range(i + 1, K):
            mask = (labels == i) | (labels == j)
            t = np.where(labels[mask] == i, -1.0, 1.0)
            w, iterations, gap = _svm_pair(data[mask], t)
            objective, violators = _svm_primal(data[mask], t, w)
            pairs.append({
                "classes": [i, j], "objective": objective, "margin_violators": violators,
                "iterations": iterations, "gap": gap, "converged": gap <= _kernel.SVM_GAP,
            })
            wv, b = w[:n], float(w[n])
            if float(np.linalg.norm(wv)) < 1e-12:
                raise errors.ConditioningError(
                    f"degenerate separator for classes {i} and {j}"
                )
            frontier[(i, j)] = geom.Halfspace.from_raw(-b, wv)
            frontier[(j, i)] = geom.Halfspace.from_raw(b, -wv)
    polyhedra = []
    for i in range(K):
        hs = tuple(frontier[(i, j)] for j in range(K) if j != i)
        polyhedra.append(geom.PolyhedronH(hs, n))
    return PartitionModel(
        K, tuple(polyhedra), "gmm-svm", {"seed": int(seed), "svm_pairs": pairs}
    )


def save_partition(model: PartitionModel, path) -> None:
    doc = {
        "K": model.K,
        "dim": model.dim,
        "provenance": model.provenance,
        "metadata": model.metadata,
        "polyhedra": [
            {
                "dim": p.dim,
                "halfspaces": [
                    {"offset": b.offset, "normal": b.normal.tolist()}
                    for b in p.halfspaces
                ],
            }
            for p in model.polyhedra
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_partition(path) -> PartitionModel:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise errors.FormatError(f"{path}: not valid JSON ({exc})") from None
    try:
        polys = tuple(
            geom.PolyhedronH(
                tuple(
                    geom.Halfspace.from_raw(h["offset"], h["normal"])
                    for h in p["halfspaces"]
                ),
                p["dim"],
            )
            for p in doc["polyhedra"]
        )
        return PartitionModel(doc["K"], polys, doc["provenance"], doc.get("metadata", {}))
    except (KeyError, TypeError) as exc:
        raise errors.FormatError(f"{path}: malformed partition file ({exc})") from None
