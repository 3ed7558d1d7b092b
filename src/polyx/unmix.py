"""End-to-end spectral pipelines: endmember extraction, abundances, and
probability maps, plus permutation-aware RMSE scoring.

Endmembers are the per-class deepest spectra (most negative signed distance
to the class polyhedron); abundances come from least squares against those
spectra; probability maps push std-scaled signed distances through the
softmax density.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import classify, density, errors, geom, minnorm


@dataclass(frozen=True, eq=False)
class SpectralImage:
    width: int
    height: int
    bands: int
    data: np.ndarray  # (width*height) x bands

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1 or self.bands < 1:
            raise errors.InputError("image dimensions must be positive")
        d = np.asarray(self.data, dtype=float)
        if d.shape != (self.width * self.height, self.bands):
            raise errors.InputError(
                f"data shape {d.shape} does not match "
                f"{self.width * self.height} pixels x {self.bands} bands"
            )
        if not np.all(np.isfinite(d)):
            raise errors.InputError("image contains non-finite values")
        d = d.copy()
        d.flags.writeable = False
        object.__setattr__(self, "data", d)

    @property
    def pixels(self) -> int:
        return self.width * self.height


@dataclass(frozen=True, eq=False)
class EndmemberSet:
    spectra: np.ndarray  # K x bands, rows copied from the image
    source_pixel: tuple[int, ...]

    def __post_init__(self) -> None:
        s = np.asarray(self.spectra, dtype=float)
        if s.ndim != 2 or s.shape[0] < 1:
            raise errors.InputError("spectra must be a K x bands matrix")
        if len(self.source_pixel) != s.shape[0]:
            raise errors.InputError("one source pixel per endmember required")
        s = s.copy()
        s.flags.writeable = False
        object.__setattr__(self, "spectra", s)
        object.__setattr__(self, "source_pixel", tuple(int(i) for i in self.source_pixel))


def class_signed_distances(img: SpectralImage, partition: classify.PartitionModel) -> np.ndarray:
    """pixels x K signed distances of every spectrum to every class polyhedron."""
    if partition.dim != img.bands:
        raise errors.InputError("partition dimension does not match band count")
    out = np.empty((img.pixels, partition.K))
    for k, poly in enumerate(partition.polyhedra):
        out[:, k] = minnorm.signed_distances(poly, img.data)
    return out


def extract_endmembers(
    img: SpectralImage, partition: classify.PartitionModel
) -> EndmemberSet:
    """Deepest spectrum per class: the pixel of minimum signed distance.

    Depth only ever discriminates among interior pixels, whose signed
    distance is the max margin over the irredundant description; one
    vectorized margin pass per class suffices. Ties keep the lowest pixel
    index; a class no pixel falls into is an error.
    """
    if partition.dim != img.bands:
        raise errors.InputError("partition dimension does not match band count")
    picks = []
    for k, poly in enumerate(partition.polyhedra):
        V, S = geom.min_h_description(poly).matrix()
        depth = (img.data @ V.T - S).max(axis=1)
        best = int(depth.argmin())
        if depth[best] > geom.DEFAULT_TOL:
            raise errors.InputError(f"class {k} contains no pixel")
        picks.append(best)
    spectra = img.data[picks]
    return EndmemberSet(spectra, tuple(picks))


def abundances_from_endmembers(
    img: SpectralImage, M: EndmemberSet, clip: bool = False
) -> np.ndarray:
    """Least-squares mixture coefficients of each pixel against the spectra.

    Raw solutions by default (they can leave [0, 1]); `clip` switches on the
    clip-to-[0,1]-and-renormalize post-processing. Near-collinear endmember
    sets are rejected: mixing proportions against a rank-deficient basis are
    meaningless.
    """
    K, bands = M.spectra.shape
    if bands != img.bands:
        raise errors.InputError("endmember band count does not match the image")
    if K > bands:
        raise errors.InputError("more endmembers than bands")
    sv = np.linalg.svd(M.spectra, compute_uv=False)
    if sv[0] <= 0 or sv[-1] <= 0 or sv[0] / sv[-1] >= 1e10:
        raise errors.ConditioningError("endmembers linearly dependent")
    A, *_ = np.linalg.lstsq(M.spectra.T, img.data.T, rcond=None)
    A = A.T
    if clip:
        A = np.clip(A, 0.0, 1.0)
        sums = A.sum(axis=1, keepdims=True)
        flat = sums[:, 0] <= 1e-300
        if flat.any():
            A[flat] = 1.0 / K
            sums[flat] = 1.0
        A = A / sums
    return A


def probability_pipeline(
    img: SpectralImage,
    partition: classify.PartitionModel,
    alpha: float = 1.0,
    use_basis_change: bool = False,
    timings: dict[str, float] | None = None,
) -> density.DensityMap:
    """Signed distances -> (optional basis change) -> std scaling -> softmax.

    With `timings`, the seconds of the two stages are written into it: the
    signed distances under "distance", everything after them under "density".
    """
    t0 = time.perf_counter()
    d = class_signed_distances(img, partition)
    t1 = time.perf_counter()
    dists = density.DistanceVectors(d, "signed-polyhedral")
    if use_basis_change:
        dists = density.basis_change(dists)
    dm = density.softmax_density(density.std_scale(dists), alpha=alpha)
    if timings is not None:
        timings.update(distance=t1 - t0, density=time.perf_counter() - t1)
    return dm


def abundance_pipeline(
    img: SpectralImage,
    partition: classify.PartitionModel,
    clip: bool = False,
    timings: dict[str, float] | None = None,
) -> tuple[EndmemberSet, np.ndarray]:
    """Deepest pixel per class -> least-squares abundances against them.

    Returns (endmembers, abundances). With `timings`, the seconds of the two
    stages are written into it: the endmember extraction under "distance",
    the least squares under "abundance".
    """
    t0 = time.perf_counter()
    endmembers = extract_endmembers(img, partition)
    t1 = time.perf_counter()
    values = abundances_from_endmembers(img, endmembers, clip=clip)
    if timings is not None:
        timings.update(distance=t1 - t0, abundance=time.perf_counter() - t1)
    return endmembers, values


def rmse(est, truth, permute: bool = False) -> tuple[float, tuple[int, ...]]:
    """Root mean squared error over all pixels and classes.

    With `permute`, the error is minimized over class permutations (columns
    of `est` re-ordered to match `truth`); the winning permutation p is
    returned, meaning est[:, p] lines up with truth.
    """
    est = np.asarray(est, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if est.shape != truth.shape or est.ndim != 2:
        raise errors.InputError("est and truth must be matrices of equal shape")
    K = est.shape[1]
    identity = tuple(range(K))
    if not permute:
        return float(np.sqrt(np.mean((est - truth) ** 2))), identity
    if K > 8:
        raise errors.InputError("permutation search supports at most 8 classes")
    # pairwise column MSEs once, then K! table lookups
    cost = np.empty((K, K))
    for i in range(K):
        for j in range(K):
            cost[i, j] = np.mean((est[:, i] - truth[:, j]) ** 2)
    best_perm = identity
    best = np.inf
    for perm in itertools.permutations(range(K)):
        total = sum(cost[perm[j], j] for j in range(K)) / K
        if total < best:
            best = total
            best_perm = perm
    return float(np.sqrt(best)), tuple(best_perm)
