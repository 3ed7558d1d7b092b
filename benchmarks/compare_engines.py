"""Timing of the one exact search on the compiled and the pure primitives.

The search always runs in Python; an engine supplies only its LP and SVM
primitives (`_kernel.PRIMITIVES`). Each engine's primitives are bound in
turn, the search gets identical certified instances on both, the answers
must agree (statuses and node counts equal, points to 1e-9), and per-k
medians are printed with the speedup of the compiled primitives. Each
instance is timed twice: one query through `min_norm_point` (best of 3), and
one batch of 64 exterior queries through `solve_many`, the path the pixel
pipeline takes, which computes the root redundancy mask once per batch.

The SVM rows time both engines' `svm_pair` on the one-vs-one pairs that
`polyx unmix --classifier gmm-svm` fits on the benchmark's own cubes
(`perfbench/workloads.py`): the six cubes of the first two cube-svm-prob
passes at the full 1000-epoch sweep, and the largest pair of one 95x95 px,
156-band cube of the same recipe (Samson-sized) at capped epochs. They
print the largest |w_native - w_python| next to the times.

The signed_distances rows time `minnorm.signed_distances` on each engine's
primitives over the batches `polyx unmix --mode probability` hands it:
every class polyhedron of the CLI's k-means and gmm-svm fits against all
pixels, on the six cubes of the first two samson-kmeans-prob and
cube-svm-prob passes.
Each row gives the best of 3 times, the shares of exterior rows that
`solve_many` settles in its first bulk pass (`pure._first_projection`, 2
nodes), in its second (`pure._second_projection`, 3 nodes) and in the
search (`pure._search`), and the LP primitive calls per batch (`feasible`, `strict_margin` and
`min_h_mask` through `polyx._kernel`; the pure `min_h_mask` makes its LPs
through `strict_margin`, so they count too, while a compiled one counts as
one call).

    python benchmarks/compare_engines.py
    python benchmarks/compare_engines.py --mode n-eq-k --k 4..14 --reps 30
    python benchmarks/compare_engines.py --csv engines.csv
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from polyx import _kernel, bench, cli, minnorm, rng
from polyx._kernel import pure

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  the benchmark's cube generator

BATCH = 64
SVM_CUBE = workloads.WORKLOADS["cube-svm-prob"]
SVM_SAMSON = dataclasses.replace(SVM_CUBE, width=95, height=95, bands=156)
SVM_PASSES = 2
SAMSON_EPOCHS = (5, 30, 200)
DISTANCE_WORKLOADS = ("samson-kmeans-prob", "cube-svm-prob")


def exterior_batch(V, S, seed: int) -> np.ndarray:
    """BATCH seeded queries at radius 2 to 5 from the interior origin, all outside."""
    gen = rng.stream(seed, "compare-batch")
    rows = []
    while len(rows) < BATCH:
        u = gen.normal(size=V.shape[1])
        x = gen.uniform(2.0, 5.0) * u / np.linalg.norm(u)
        if (V @ x - S).max() > 1e-6:
            rows.append(x)
    return np.array(rows)


@contextlib.contextmanager
def primitives(impl):
    """Bind `impl`'s LP and SVM primitives in `_kernel` for the block."""
    saved = {name: getattr(_kernel, name) for name in _kernel.PRIMITIVES}
    for name, fn in _kernel.primitives(impl).items():
        setattr(_kernel, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(_kernel, name, fn)


def time_solve(V, S, x, budget: float) -> tuple[int, np.ndarray, int]:
    """Best-of-3 wall time in ns, the returned point and the node count."""
    best = None
    point = None
    nodes = 0
    for _ in range(3):
        t0 = time.perf_counter_ns()
        y, nodes, status = _kernel.min_norm_point(V, S, x, time_budget=budget)
        dt = time.perf_counter_ns() - t0
        if status != _kernel.FOUND:
            raise RuntimeError(f"unexpected solver status {status}")
        best = dt if best is None else min(best, dt)
        point = np.asarray(y)
    return best, point, nodes


def time_batch(V, S, X, budget: float) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Wall time in ns of one solve_many call (64 solves already average out
    the noise), then (Y, nodes, status)."""
    t0 = time.perf_counter_ns()
    Y, _, nodes, status = _kernel.solve_many(V, S, X, time_budget=budget)
    ns = time.perf_counter_ns() - t0
    return ns, np.asarray(Y), np.asarray(nodes), np.asarray(status)


def svm_pairs(spec: workloads.CubeSpec, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (augmented rows, +-1 labels) pairs that the CLI's gmm-svm fit
    (`cli._fit_partition`, the benchmark's classifier seed) hands to
    `svm_pair` on the benchmark cube of `seed`, recorded as the fit runs."""
    img, _ = workloads.make_cube(spec, seed)
    pairs, sweep = [], _kernel.svm_pair

    def record(Xa, t, *args):
        pairs.append((np.array(Xa), np.array(t)))
        return sweep(Xa, t, *args)

    _kernel.svm_pair = record
    try:
        cli._fit_partition(img.data, "gmm-svm", spec.classes, workloads.CLASSIFIER_SEED)
    finally:
        _kernel.svm_pair = sweep
    return pairs


def _cube_seeds(seed: int) -> list[int]:
    """Cube seeds of the first SVM_PASSES benchmark passes of `seed`."""
    return [workloads.sub_seed(seed, p, r)
            for p in range(SVM_PASSES) for r in range(workloads.CUBES_PER_PASS)]


def time_svm(engines, pairs, epochs: int) -> tuple[dict, float]:
    """Seconds each engine spends on all pairs, and the largest |w| gap."""
    seconds, ws = {}, {}
    for name, impl in engines.items():
        t0 = time.perf_counter()
        ws[name] = [np.asarray(impl.svm_pair(Xa, t, 1.0, epochs)) for Xa, t in pairs]
        seconds[name] = time.perf_counter() - t0
    gap = max(float(np.abs(wn - wp).max()) for wn, wp in zip(ws["native"], ws["python"]))
    return seconds, gap


def run_svm(args) -> None:
    engines = _native_and_pure()
    seeds = _cube_seeds(args.seed)
    cube_pairs = [p for seed in seeds for p in svm_pairs(SVM_CUBE, seed)]
    samson = max(svm_pairs(SVM_SAMSON, seeds[0]), key=lambda p: len(p[1]))
    cube_label = f"14x14x32, {len(cube_pairs)} pairs of {len(seeds)} cube-svm-prob cubes"
    cases = [(cube_label, cube_pairs, 1000)]
    samson_label = f"95x95x156, largest pair (m={len(samson[1])})"
    cases += [(samson_label, [samson], e) for e in SAMSON_EPOCHS]
    for label, pairs, epochs in cases:
        seconds, gap = time_svm(engines, pairs, epochs)
        print(f"svm {label}, {epochs} epochs: native {seconds['native']:.3f} s"
              f"  python {seconds['python']:.3f} s"
              f"  x{seconds['python'] / seconds['native']:.1f}  max|dw| {gap:.1e}")


def distance_batches(spec: workloads.CubeSpec, seeds) -> list:
    """The (class polyhedron, pixels) batches that `polyx unmix` in
    probability mode hands to `signed_distances` on the benchmark cubes of
    `seeds`, with the CLI's own fit (`cli._fit_partition`)."""
    batches = []
    for seed in seeds:
        img, _ = workloads.make_cube(spec, seed)
        partition, _ = cli._fit_partition(img.data, spec.classifier, spec.classes,
                                          workloads.CLASSIFIER_SEED)
        batches += [(poly, img.data) for poly in partition.polyhedra]
    return batches


def time_distances(impl, batches) -> tuple[float, dict, int, list]:
    """Best-of-3 seconds `signed_distances` takes over all batches on
    `impl`'s primitives, the rows one pass settles in each stage of
    `solve_many` (keys "first", "second", "search"), the LP primitive calls
    one pass makes through `_kernel` (`_kernel.LPS`; a compiled
    `min_h_mask` runs its LPs in C and counts as one call), and the
    distances."""
    settled = dict.fromkeys(("first", "second", "search"), 0)
    lps = 0
    first, second, search = pure._first_projection, pure._second_projection, pure._search

    def counted_first(*args):
        got = first(*args)
        settled["first"] += int(got[0].sum())
        return got

    def counted_second(*args):
        got = second(*args)
        settled["second"] += int(got[0].sum())
        return got

    def counted_search(*args):
        settled["search"] += 1
        return search(*args)

    def lp(fn):
        def call(*args):
            nonlocal lps
            lps += 1
            return fn(*args)
        return call

    pure._first_projection = counted_first
    pure._second_projection = counted_second
    pure._search = counted_search
    try:
        with primitives(impl):
            for name in _kernel.LPS:
                setattr(_kernel, name, lp(getattr(_kernel, name)))
            seconds = []
            for _ in range(3):
                settled.update(dict.fromkeys(settled, 0))
                lps = 0
                t0 = time.perf_counter()
                dists = [minnorm.signed_distances(P, X) for P, X in batches]
                seconds.append(time.perf_counter() - t0)
    finally:
        pure._first_projection, pure._second_projection, pure._search = first, second, search
    return min(seconds), settled, lps, dists


def run_distances(args) -> None:
    engines = _native_and_pure()
    seeds = _cube_seeds(args.seed)
    for workload in DISTANCE_WORKLOADS:
        batches = distance_batches(workloads.WORKLOADS[workload], seeds)
        exterior = 0
        for P, X in batches:
            V, S = P.matrix()
            exterior += int(((X @ V.T - S).max(axis=1) > 1e-9).sum())
        dists = {}
        for name, impl in engines.items():
            seconds, settled, lps, dists[name] = time_distances(impl, batches)
            shares = " / ".join(f"{n / max(exterior, 1):.1%}" for n in settled.values())
            print(f"signed_distances {workload}, {len(batches)} batches of {len(seeds)} cubes,"
                  f" {name}: {seconds:.3f} s, of {exterior} exterior rows"
                  f" {settled['first']} / {settled['second']} / {settled['search']}"
                  f" ({shares}) settled by the first pass / the second / the search,"
                  f" {lps / len(batches):.2f} LP calls per batch")
        gap = max(float(np.abs(a - b).max()) for a, b in zip(dists["native"], dists["python"]))
        print(f"signed_distances {workload}: max|d_native - d_python| {gap:.1e}")


def _native_and_pure() -> dict:
    engines = _kernel.engines()
    if "native" not in engines:
        print("compiled engine not importable; nothing to compare", file=sys.stderr)
        raise SystemExit(1)
    return engines


def run(args) -> list[dict]:
    engines = _native_and_pure()
    rows = []
    for k in args.k_values:
        n = args.n_fixed if args.mode == "fixed-n" else k
        single = {name: [] for name in engines}
        batch = {name: [] for name in engines}
        for rep in range(args.reps):
            seed = args.seed + 1000 * k + rep
            P, x = bench.random_polyhedron(n, k, seed=seed)
            V, S = P.matrix()
            X = exterior_batch(V, S, seed)
            points, counts, batches = {}, {}, {}
            for name, impl in engines.items():
                with primitives(impl):
                    ns, points[name], counts[name] = time_solve(V, S, x, args.budget)
                    single[name].append(ns)
                    ns, *batches[name] = time_batch(V, S, X, args.budget)
                    batch[name].append(ns)
            # same decision path, coordinates equal to round-off
            if counts["native"] != counts["python"] or not np.allclose(
                points["native"], points["python"], atol=1e-9
            ):
                raise RuntimeError(f"primitives disagree at n={n} k={k} rep={rep}")
            (Yn, nn, sn), (Yp, npy, sp) = batches["native"], batches["python"]
            if not (
                np.array_equal(sn, sp)
                and np.array_equal(nn, npy)
                and np.allclose(Yn, Yp, atol=1e-9)
            ):
                raise RuntimeError(f"primitives disagree on the batch at n={n} k={k} rep={rep}")
        row = {"n": n, "k": k}
        for name in engines:
            row[f"{name}_ns"] = int(statistics.median(single[name]))
        row["speedup"] = row["python_ns"] / row["native_ns"]
        for name in engines:
            row[f"{name}_batch_ns"] = int(statistics.median(batch[name]))
        row["batch_speedup"] = row["python_batch_ns"] / row["native_batch_ns"]
        rows.append(row)
        print(
            f"n={row['n']:>3} k={row['k']:>4}  native {row['native_ns']/1e3:9.1f} us"
            f"  python {row['python_ns']/1e3:9.1f} us  x{row['speedup']:.1f}"
            f"  | batch of {BATCH}: native {row['native_batch_ns']/1e6:8.2f} ms"
            f"  python {row['python_batch_ns']/1e6:8.2f} ms  x{row['batch_speedup']:.1f}"
        )
    for key, label in (("speedup", "single query"), ("batch_speedup", f"batch of {BATCH}")):
        geo = float(np.exp(np.mean(np.log([r[key] for r in rows]))))
        print(f"geometric mean speedup, {label}: x{geo:.1f} over {len(rows)} sizes "
              f"({args.reps} instances each)")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("fixed-n", "n-eq-k"), default="fixed-n")
    parser.add_argument("--n-fixed", type=int, default=3)
    parser.add_argument("--k", default="1,2,4,8,16,32,64,100",
                        help="sizes, e.g. '5,10,20' or '1..32'")
    parser.add_argument("--reps", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=float, default=30.0,
                        help="per-solve time budget in seconds")
    parser.add_argument("--csv", help="also write the solver table to this file")
    args = parser.parse_args(argv)
    args.k_values = cli._parse_k_values(args.k)
    rows = run(args)
    run_svm(args)
    run_distances(args)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
