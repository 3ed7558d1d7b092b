"""Hyperplanes, halfspaces, and polyhedra in H-representation.

Everything here is exact affine algebra: construction (with joint
normalization of raw (offset, normal) couples), containment, per-halfspace
signed distance, the inside-case signed distance to a polyhedron, support
filtering, and the minimum H-description. All values are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import _kernel, errors

#: absolute containment tolerance used by every geometric predicate
DEFAULT_TOL = 1e-9

_UNIT_TOL = 1e-12


def as_point(value, dim: int | None = None, name: str = "point") -> np.ndarray:
    """Coerce to a finite 1-D float vector, optionally of a fixed dimension."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise errors.InputError(f"{name} must be a non-empty 1-D real vector")
    if not np.all(np.isfinite(arr)):
        raise errors.InputError(f"{name} contains non-finite values")
    if dim is not None and arr.shape[0] != dim:
        raise errors.InputError(
            f"{name} has dimension {arr.shape[0]}, expected {dim}"
        )
    return arr


@dataclass(frozen=True, eq=False)
class Hyperplane:
    """Oriented affine hyperplane {x : <x, normal> = offset}.

    A raw couple (s, v) is rescaled to (s/|v|, v/|v|) so the stored normal is
    unit; the offset is then the signed distance of the plane to the origin
    along the normal.
    """

    offset: float
    normal: np.ndarray

    def __post_init__(self) -> None:
        v = as_point(self.normal, name="normal")
        s = self.offset
        try:
            s = float(s)
        except (TypeError, ValueError):
            raise errors.InputError("offset must be a real scalar") from None
        if not np.isfinite(s):
            raise errors.InputError("offset must be finite")
        norm = float(np.linalg.norm(v))
        if norm < _UNIT_TOL:
            raise errors.InputError("degenerate hyperplane: normal is near zero")
        if abs(norm - 1.0) > 1e-12:
            # keep already-unit input untouched: renormalizing is not an fp
            # no-op, and save/load must be a fixed point
            v = v / norm
            s = s / norm
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "offset", s)
        object.__setattr__(self, "normal", v)

    @property
    def dim(self) -> int:
        return int(self.normal.shape[0])


@dataclass(frozen=True, eq=False)
class Halfspace:
    """Closed halfspace {x : <x, normal> <= offset} with `boundary` as frontier."""

    boundary: Hyperplane

    @classmethod
    def from_raw(cls, offset, normal) -> "Halfspace":
        return cls(Hyperplane(offset, normal))

    @property
    def offset(self) -> float:
        return self.boundary.offset

    @property
    def normal(self) -> np.ndarray:
        return self.boundary.normal

    @property
    def dim(self) -> int:
        return self.boundary.dim


@dataclass(frozen=True, eq=False)
class PolyhedronH:
    """Intersection of finitely many closed halfspaces.

    May be empty, unbounded, or lower-dimensional; nothing here assumes
    otherwise. The halfspace order is significant: deterministic filters keep
    the lowest-index representative among equivalent constraints.
    """

    halfspaces: tuple[Halfspace, ...]
    dim: int = 0  # inferred from the halfspaces when left at 0

    def __post_init__(self) -> None:
        hs = tuple(self.halfspaces)
        if not hs:
            raise errors.InputError("a polyhedron needs at least one halfspace")
        for b in hs:
            if not isinstance(b, Halfspace):
                raise errors.InputError("halfspaces must be Halfspace values")
        dim = self.dim or hs[0].dim
        for i, b in enumerate(hs):
            if b.dim != dim:
                raise errors.InputError(
                    f"halfspace {i} has dimension {b.dim}, expected {dim}"
                )
        object.__setattr__(self, "halfspaces", hs)
        object.__setattr__(self, "dim", int(dim))

    @classmethod
    def from_rows(cls, couples: Iterable[tuple[float, Sequence[float]]]) -> "PolyhedronH":
        """Build from raw (offset, normal) couples, normalizing each."""
        return cls(tuple(Halfspace.from_raw(s, v) for s, v in couples))

    @property
    def k(self) -> int:
        return len(self.halfspaces)

    def matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """(V, S) with unit rows: the set is {x : V x <= S}."""
        V = np.stack([b.normal for b in self.halfspaces])
        S = np.array([b.offset for b in self.halfspaces])
        return V, S


def halfspace_signed_distance(x, b: Halfspace) -> float:
    """Signed distance of x to the halfspace: negative inside, 0 on the frontier."""
    x = as_point(x, b.dim)
    return float(b.normal @ x - b.offset)


def margins(P: PolyhedronH, x) -> np.ndarray:
    """Vector of per-halfspace signed distances <x, v_i> - s_i."""
    x = as_point(x, P.dim)
    V, S = P.matrix()
    return V @ x - S


def contains(P: PolyhedronH, x, tol: float = DEFAULT_TOL) -> bool:
    """Whether x lies in P, up to an absolute margin tolerance."""
    return bool(margins(P, x).max() <= tol)


def inside_signed_distance(P: PolyhedronH, x, tol: float = DEFAULT_TOL) -> float:
    """max_i <x, v_i> - s_i for a point inside P.

    Equals the negated distance of x to the frontier when P carries its
    minimum H-description; with redundant halfspaces it is a lower bound.
    """
    m = margins(P, x)
    worst = float(m.max())
    if worst > tol:
        raise errors.InputError("point lies outside the polyhedron")
    return worst


def _require_nonempty(V: np.ndarray, S: np.ndarray) -> None:
    if not _kernel.feasible(V, S):
        raise errors.EmptyPolyhedronError("the polyhedron is empty")


def support_filter(P: PolyhedronH) -> PolyhedronH:
    """Drop halfspaces whose boundary hyperplane never touches P.

    A boundary touches P iff the constraints of P together with equality on
    that boundary (written as two opposing inequalities) stay feasible. This
    is strictly weaker than minimum-description filtering: a constraint can
    touch P at a single point and still be redundant. When the normals are
    linearly independent with margin (`_kernel.independent_rows`), every
    boundary touches P and P is returned as it is, without an LP.
    """
    V, S = P.matrix()
    if _kernel.independent_rows(V):
        return P
    _require_nonempty(V, S)
    kept = []
    for i, b in enumerate(P.halfspaces):
        rows = np.vstack([V, -V[i : i + 1]])
        rhs = np.concatenate([S, -S[i : i + 1]])
        if _kernel.feasible(rows, rhs):
            kept.append(b)
    return PolyhedronH(tuple(kept), P.dim)


def min_h_description(P: PolyhedronH) -> PolyhedronH:
    """The irredundant sub-family describing the same point set.

    Linear algebra decides first: when the normals are linearly independent
    with margin (`_kernel.independent_rows`: at most `dim` rows whose
    smallest singular value exceeds 1e-6), P is non-empty and every
    halfspace is necessary, so P is returned as it is, without an LP. A
    single halfspace always is; so are the K - 1 rows of a k-means Voronoi
    cell or a one-vs-one SVM class polyhedron when K - 1 <= bands and no
    class normal is a combination of the others. Otherwise P must be
    non-empty (a feasibility LP) and halfspace j survives iff some point
    violates it while satisfying the interiors of all currently retained
    others (a strict linear system). Testing from the highest index down
    keeps the lowest-index copy of any duplicated constraint.
    """
    V, S = P.matrix()
    if _kernel.independent_rows(V):
        return P
    _require_nonempty(V, S)
    mask = _kernel.min_h_mask(V, S)
    kept = tuple(b for b, keep in zip(P.halfspaces, mask) if keep)
    return PolyhedronH(kept, P.dim)


def polyhedron_json(P: PolyhedronH) -> str:
    """JSON H-representation with 17 significant digits per value."""
    rows = []
    for b in P.halfspaces:
        ns = ", ".join(f"{v:.17g}" for v in b.normal)
        rows.append(f'    {{"offset": {b.offset:.17g}, "normal": [{ns}]}}')
    return (
        "{\n"
        f'  "dim": {P.dim},\n'
        '  "halfspaces": [\n' + ",\n".join(rows) + "\n  ]\n"
        "}\n"
    )


def save_polyhedron(P: PolyhedronH, path) -> None:
    """Write polyhedron_json(P) to a file."""
    Path(path).write_text(polyhedron_json(P), encoding="utf-8")


def load_polyhedron(path) -> PolyhedronH:
    """Read the JSON H-representation; normals are normalized on load."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise errors.FormatError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise errors.FormatError(f"{path}: expected a JSON object")
    try:
        dim = doc["dim"]
        raw = doc["halfspaces"]
    except KeyError as exc:
        raise errors.FormatError(f"{path}: missing key {exc}") from None
    if not isinstance(dim, int) or dim < 1:
        raise errors.FormatError(f"{path}: dim must be a positive integer")
    if not isinstance(raw, list) or not raw:
        raise errors.FormatError(f"{path}: halfspaces must be a non-empty list")
    halfspaces = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "offset" not in entry or "normal" not in entry:
            raise errors.FormatError(
                f"{path}: halfspace {i} needs 'offset' and 'normal'"
            )
        normal = entry["normal"]
        if not isinstance(normal, list) or len(normal) != dim:
            raise errors.LengthMismatchError(
                f"{path}: halfspace {i} normal has length "
                f"{len(normal) if isinstance(normal, list) else 'non-list'}, expected {dim}"
            )
        halfspaces.append(Halfspace.from_raw(entry["offset"], normal))
    return PolyhedronH(tuple(halfspaces), dim)
