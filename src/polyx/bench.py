"""Timing and accuracy harness: exact solver vs the first-order baseline.

Random instances are built so that every halfspace is provably irredundant
(each boundary's foot point sits strictly inside all other halfspaces, so a
small outward push exhibits a point violating only that constraint). That
keeps "k support hyperplanes" exact by construction instead of by rejection
sampling, which stalls for large k. Offsets concentrate toward 1 on retries,
which always terminates: distinct tangent directions to the unit sphere
certify themselves.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _kernel, errors, geom, minnorm, qp_baseline, rng as rngmod

_ATTEMPTS = 1000
_CERT_MARGIN = 1e-7


@dataclass(frozen=True, eq=False)
class BenchConfig:
    mode: str  # "fixed-n" | "n-eq-k"
    k_values: tuple[int, ...]
    seed: int
    n_fixed: int = 3
    reps: int = 1000
    time_budget_per_solve: float = 10.0

    def __post_init__(self) -> None:
        if self.mode not in ("fixed-n", "n-eq-k"):
            raise errors.InputError("mode must be 'fixed-n' or 'n-eq-k'")
        ks = tuple(int(k) for k in self.k_values)
        if not ks or any(b <= a for a, b in zip(ks, ks[1:])):
            raise errors.InputError("k_values must be non-empty, strictly increasing")
        if any(k < 1 for k in ks):
            raise errors.InputError("k_values must be positive")
        if self.reps < 1:
            raise errors.InputError("reps must be at least 1")
        if self.time_budget_per_solve <= 0:
            raise errors.InputError("time budget must be positive")
        object.__setattr__(self, "k_values", ks)


def _draw_instance(
    n: int, k: int, gen: np.random.Generator
) -> tuple[geom.PolyhedronH, np.ndarray]:
    for attempt in range(_ATTEMPTS):
        shrink = 0.7**attempt
        V = gen.normal(size=(k, n))
        norms = np.linalg.norm(V, axis=1)
        if (norms < 1e-12).any():
            continue
        V /= norms[:, None]
        S = 1.0 + shrink * gen.uniform(-0.5, 0.5, size=k)
        # foot-point certificate: boundary foot of row i strictly interior
        # to every other halfspace proves row i irredundant
        G = (S[:, None] * V) @ V.T - S[None, :]
        np.fill_diagonal(G, -np.inf)
        if k > 1 and G.max() >= -_CERT_MARGIN:
            continue
        for _ in range(_ATTEMPTS):
            u = gen.normal(size=n)
            un = float(np.linalg.norm(u))
            if un < 1e-12:
                continue
            x = gen.uniform(2.0, 5.0) * u / un
            if (V @ x - S).max() > 1e-6:
                poly = geom.PolyhedronH.from_rows(zip(S, V))
                return poly, x
    raise errors.GenerationError(
        f"could not generate an irredundant instance for n={n}, k={k}"
    )


def random_polyhedron(n: int, k: int, seed: int) -> tuple[geom.PolyhedronH, np.ndarray]:
    """Seeded random polyhedron with exactly k irredundant halfspaces.

    The origin is strictly interior (offsets >= 0.5) and the returned query
    point lies outside. Same seed, same instance.
    """
    if n < 1 or k < 1:
        raise errors.InputError("n and k must be positive")
    gen = rngmod.stream(seed, "polygen")
    return _draw_instance(n, k, gen)


def run_benchmark(cfg: BenchConfig) -> list[dict]:
    """One row per (k, rep): wall times of both solvers and their gap.

    The exact solver runs under the per-solve budget; a budgeted-out rep is
    kept with truncated=1 and no error value. Timing wraps the kernel call
    alone, monotonic clock, generation excluded. An exhausted search raises
    what `minnorm.solve` raises for it (`EmptyPolyhedronError` or
    `SearchExhaustedError`); any other unexpected status, a `PolyxError`.
    """
    rows: list[dict] = []
    for k in cfg.k_values:
        n = cfg.n_fixed if cfg.mode == "fixed-n" else k
        gen = rngmod.stream(cfg.seed, "bench", index=k)
        for rep in range(cfg.reps):
            P, x = _draw_instance(n, k, gen)
            V, S = P.matrix()
            t0 = time.perf_counter_ns()
            y, nodes, status = _kernel.min_norm_point(
                V, S, x, time_budget=cfg.time_budget_per_solve
            )
            exact_ns = time.perf_counter_ns() - t0
            truncated = status in (_kernel.NODE_BUDGET, _kernel.TIME_BUDGET)
            if not truncated and status != _kernel.FOUND:
                minnorm.raise_for_status(status, nodes, V, S)
                raise errors.PolyxError(
                    f"unexpected solver status {status} on a generated instance"
                )
            problem = qp_baseline.QpProblem(V, S - V @ x)
            t0 = time.perf_counter_ns()
            approx = qp_baseline.solve_approx(problem, rel_tol=1e-6)
            approx_ns = time.perf_counter_ns() - t0
            err = (
                float(np.linalg.norm((x + approx.point) - y))
                if not truncated
                else float("nan")
            )
            rows.append(
                {
                    "mode": cfg.mode,
                    "n": n,
                    "k": k,
                    "rep": rep,
                    "exact_time_ns": exact_ns,
                    "approx_time_ns": approx_ns,
                    "error_norm": err,
                    "truncated": int(truncated),
                }
            )
    return rows


_CSV_FIELDS = [
    "mode", "n", "k", "rep",
    "exact_time_ns", "approx_time_ns", "error_norm", "truncated",
]


def write_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def read_csv(path) -> list[dict]:
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            out.append(
                {
                    "mode": row["mode"],
                    "n": int(row["n"]),
                    "k": int(row["k"]),
                    "rep": int(row["rep"]),
                    "exact_time_ns": int(row["exact_time_ns"]),
                    "approx_time_ns": int(row["approx_time_ns"]),
                    "error_norm": float(row["error_norm"]),
                    "truncated": int(row["truncated"]),
                }
            )
    return out
