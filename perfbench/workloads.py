"""The four seeded workloads of the polyx benchmark and their checks.

Each workload generates its inputs from the seed, drives the public polyx
API or the in-process `polyx` CLI, times the operations a user waits for,
and then, outside the timed region, checks every answer. An operation that
raises, exits non-zero or fails a check counts in `failed`.

exact-sweep
    Certified `bench.random_polyhedron` instances, one query each, solved
    with `minnorm.solve` and then `qp_baseline.solve_approx`, as a
    `polyx bench` row does. A pass draws 2 instances with n=3, k=20,
    8 with n=k=15, 2 with n=3, k=100 and 2 with n=k=28; no polyhedron is
    drawn twice. The counts put the solve-latency median inside the
    n=k=15 family and p95 inside the n=k=28 family instead of in the gap
    between two families, where they would jump from seed to seed; the two
    large families still take most of a pass.
samson-kmeans-prob
    `polyx unmix --classifier kmeans --classes 3 --mode probability` on
    24x24 px tiles of a linear-mixing scene with the Samson scene's 156
    bands and 3 classes.
cube-svm-prob
    `polyx unmix --classifier gmm-svm --classes 3 --mode probability` on
    small 32-band cubes.
cube-kmeans-abund
    `polyx unmix --classifier kmeans --classes 3 --mode abundance
    --clip-abundances` on 95x95 px, 156-band cubes (the Samson scene's
    shape). Abundance mode runs k-means here, not gmm-svm: with gmm-svm,
    `extract_endmembers` raises "class k contains no pixel" on some seeds,
    an open defect of the program that a benchmark workload cannot carry.
    A k-means Voronoi cell always holds the pixels assigned to its centroid.

A cube pass writes three fresh cubes and invokes `polyx unmix` once on
each. The cubes are small enough for a run to hold many passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import polyx
from polyx import _kernel, bench, classify, cli, density, geom, minnorm, qp_baseline, unmix
from polyx._kernel import pure
from tracer import Tracer

#: fresh cubes per pass, each the scene under a noise draw of its own. As
#: exact-sweep draws new polyhedra for every pass, a cube run spreads over
#: many draws: the GMM labels and SVM sweeps, and with them the cost of an
#: invocation, differ from draw to draw.
CUBES_PER_PASS = 3
#: an answer may differ from the brute-force oracle by this much per coordinate
ORACLE_TOL = 1e-6
#: `polyx unmix --seed` of every cube run. The classifier's initialisation
#: fixes the class order, and the halfspace order inside each class polyhedron
#: changes the redundancy LPs and simplex pivots per query by up to twofold
#: (11.5k LPs and 690k pivots against 23.8k and 400k on the same cube). A
#: seeded classifier would make the cost jump between those modes.
CLASSIFIER_SEED = 0


@dataclass(frozen=True)
class SweepSpec:
    families: tuple[tuple[int, int, int], ...]  # (n, k, instances per pass)
    oracle: tuple[int, int]  # (n, k) of the family also checked by brute force


@dataclass(frozen=True)
class CubeSpec:
    width: int
    height: int
    bands: int
    classes: int
    classifier: str
    mode: str
    clip: bool = False  # `--clip-abundances` (abundance mode)
    alpha: float = 0.5  # Dirichlet concentration of the abundances
    noise: float = 0.01  # std of the Gaussian noise added to every sample


WORKLOADS: dict[str, SweepSpec | CubeSpec] = {
    "exact-sweep": SweepSpec(((3, 20, 2), (15, 15, 8), (3, 100, 2), (28, 28, 2)), (3, 20)),
    "samson-kmeans-prob": CubeSpec(24, 24, 156, 3, "kmeans", "probability"),
    "cube-svm-prob": CubeSpec(14, 14, 32, 3, "gmm-svm", "probability"),
    "cube-kmeans-abund": CubeSpec(95, 95, 156, 3, "kmeans", "abundance", clip=True),
}

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_ms_p50", "ms", "lower"),
    ("pass_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Traced layers: metric prefix, module, attribute the caller resolves.
# `kernel.*` stands for `polyx._kernel.*` (a metric name may not start
# with an underscore).
LAYERS = (
    ("minnorm.solve", minnorm, "solve"),
    ("minnorm.signed_distances", minnorm, "signed_distances"),
    ("kernel.solve_many", _kernel, "solve_many"),
    ("kernel.min_norm_point", _kernel, "min_norm_point"),
    ("kernel.strict_margin", _kernel, "strict_margin"),
    ("kernel.feasible", _kernel, "feasible"),
    ("kernel.min_h_mask", _kernel, "min_h_mask"),
    ("kernel.svm_pair", _kernel, "svm_pair"),
    ("geom.min_h_description", geom, "min_h_description"),
    ("unmix.class_signed_distances", unmix, "class_signed_distances"),
    ("unmix.extract_endmembers", unmix, "extract_endmembers"),
    ("unmix.abundances_from_endmembers", unmix, "abundances_from_endmembers"),
    ("unmix.rmse", unmix, "rmse"),
    ("classify.ovo_svm_partition", classify, "ovo_svm_partition"),
    ("classify.gmm_fit", classify, "gmm_fit"),
    ("classify.gmm_labels", classify, "gmm_labels"),
    ("classify.kmeans_fit", classify, "kmeans_fit"),
    ("classify.voronoi_partition", classify, "voronoi_partition"),
    ("qp_baseline.solve_approx", qp_baseline, "solve_approx"),
    ("density.std_scale", density, "std_scale"),
    ("density.softmax_density", density, "softmax_density"),
    ("cli.load_image", cli, "load_image"),
    ("cli.read_matrix", cli, "_read_matrix"),  # the --truth file
    ("cli.save_outputs", cli, "save_outputs"),
    ("bench.random_polyhedron", bench, "random_polyhedron"),
)

# The pure engine calls these through its own module globals (solve_many ->
# min_norm_point -> strict_margin), so they are wrapped there as well. The
# compiled engine keeps such calls in C, where no wrapper can see them.
PURE_INTERNALS = (
    ("kernel.min_norm_point", "min_norm_point"),
    ("kernel.strict_margin", "strict_margin"),
    ("kernel.feasible", "feasible"),
)

COUNTERS = (
    ("minnorm.exterior_frac", "ratio", "lower"),
    ("kernel.nodes_per_solve", "nodes", "lower"),
    ("kernel.nodes_max", "nodes", "lower"),
    ("classify.gmm_em_iters", "count", "lower"),
    ("qp_baseline.converged_frac", "ratio", "higher"),
    ("qp_baseline.error_norm_p50", "1", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("unmix.map_rmse", "1", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
)


def per_layer_defs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run prints."""
    out = []
    for prefix, _, _ in LAYERS:
        out += [
            (f"{prefix}.calls", "count", "lower"),
            (f"{prefix}.s", "s", "lower"),
            (f"{prefix}.self_s", "s", "lower"),
        ]
    return out + list(COUNTERS)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: dict[str, object] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.failures.append(reason)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ----------------------------------------------------------------- statistics


def tail_percentile(samples, q: float) -> float | None:
    """Nearest-rank q-quantile, or None unless at least 10 samples lie beyond it."""
    xs = sorted(samples)
    if not xs:
        return None
    rank = max(1, math.ceil(q * len(xs)))
    if len(xs) - rank < 10:
        return None
    return xs[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sub_seed(*parts: int) -> int:
    """Independent 64-bit seed derived from the benchmark seed and indices."""
    ss = np.random.SeedSequence([int(p) % 2**64 for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------- exact-sweep


@dataclass
class Row:
    n: int
    k: int
    P: geom.PolyhedronH
    x: np.ndarray
    gen_s: float
    solve_s: float = 0.0
    admm_s: float = 0.0
    point: np.ndarray | None = None
    admm_point: np.ndarray | None = None
    converged: bool = False
    error: str | None = None


def sweep_instances(spec: SweepSpec, seed: int, pass_index: int):
    """(n, k, instance seed) of every instance of one pass, in run order."""
    return [
        (n, k, sub_seed(seed, pass_index, f, j))
        for f, (n, k, count) in enumerate(spec.families)
        for j in range(count)
    ]


def run_instance(n: int, k: int, inst_seed: int) -> Row:
    """Generate one instance, then solve it exactly and with ADMM."""
    t0 = time.perf_counter()
    P, x = bench.random_polyhedron(n, k, inst_seed)
    row = Row(n, k, P, x, time.perf_counter() - t0)
    t0 = time.perf_counter()
    try:
        res = minnorm.solve(P, x)
    except Exception as exc:  # counted as a failed operation, run goes on
        row.solve_s = time.perf_counter() - t0
        row.error = f"minnorm.solve n={n} k={k}: {exc!r}"
        return row
    row.solve_s = time.perf_counter() - t0
    row.point = res.point
    V, S = P.matrix()
    problem = qp_baseline.QpProblem(V, S - V @ x)
    t0 = time.perf_counter()
    try:
        approx = qp_baseline.solve_approx(problem, rel_tol=1e-6)
    except Exception as exc:  # counted as a failed operation, run goes on
        row.admm_s = time.perf_counter() - t0
        row.error = f"qp_baseline.solve_approx n={n} k={k}: {exc!r}"
        return row
    row.admm_s = time.perf_counter() - t0
    row.admm_point = x + approx.point
    row.converged = bool(approx.converged)
    return row


def check_row(row: Row, spec: SweepSpec) -> str | None:
    """Why the row's exact answer is wrong, or None when it is certified."""
    if row.error is not None:
        return row.error
    where = f"n={row.n} k={row.k}"
    try:
        if not geom.contains(row.P, row.point):
            return f"{where}: answer lies outside the polyhedron"
        if not minnorm.is_min_norm(row.x, row.point, row.P):
            return f"{where}: optimality certificate failed"
        if (row.n, row.k) == spec.oracle:
            ref = qp_baseline.brute_force(row.P, row.x)
            if float(np.max(np.abs(row.point - ref))) > ORACLE_TOL:
                return f"{where}: answer differs from the brute-force oracle"
    except Exception as exc:  # a check that cannot run fails the row
        return f"{where}: check raised {exc!r}"
    return None


def sweep_pass(spec: SweepSpec, seed: int, index: int, tracer=None) -> list[Row]:
    """The rows of pass `index`, each instance a request of its own when traced."""
    rows = []
    for n, k, s in sweep_instances(spec, seed, index):
        if tracer is None:
            rows.append(run_instance(n, k, s))
        else:
            tracer.request += 1
            with tracer.span("exact.instance"):
                rows.append(run_instance(n, k, s))
    return rows


def repeat(run_pass, seconds: float, min_passes: int = 1) -> tuple[list, float]:
    """`run_pass(0)`, `run_pass(1)`, ... until `seconds` have elapsed and at
    least `min_passes` are done.

    Returns what each pass returned, and the peak RSS in MB once the first
    pass is done. Later passes are left out of the peak: the heap grows with
    every pass (about 0.4 MB per samson-kmeans-prob invocation, at a constant
    count of Python objects), so a faster program, fitting more passes into
    the run, would read as using more memory.
    """
    out = []
    rss = 0.0
    t0 = time.perf_counter()
    while len(out) < min_passes or time.perf_counter() - t0 < seconds:
        out.append(run_pass(len(out)))
        rss = rss or peak_rss_mb()
    return out, rss


def alternate(prepare, run_pass, seconds: float):
    """Untraced and traced passes in turn, both on the same inputs, until
    `seconds` have elapsed (at least one pair). Turns keep the machine's
    drift out of the overhead estimate.

    `prepare(index)` makes the inputs of pass `index` outside the timed
    region; `run_pass(inputs, tracer)` runs one pass, tracer None when
    untraced. Returns (tracer, untraced passes, traced passes, untraced
    wall s, traced wall s).
    """
    tracer = Tracer()
    plain, traced = [], []
    plain_s = traced_s = 0.0
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        inputs = prepare(len(traced))
        t = time.perf_counter()
        plain.append(run_pass(inputs, None))
        plain_s += time.perf_counter() - t
        install(tracer)
        t = time.perf_counter()
        try:
            traced.append(run_pass(inputs, tracer))
        finally:
            traced_s += time.perf_counter() - t
            tracer.restore()
    return tracer, plain, traced, plain_s, traced_s


def check_rows(rows: list[Row], spec: SweepSpec, outcome: Outcome) -> None:
    for row in rows:
        outcome.attempted += 1
        reason = check_row(row, spec)
        if reason is not None:
            outcome.fail(reason)


def admm_summary(rows: list[Row]) -> tuple[float, float]:
    """(converged share, median error norm against the exact answer)."""
    done = [r for r in rows if r.admm_point is not None]
    if not done:
        return 0.0, 0.0
    conv = sum(r.converged for r in done) / len(done)
    err = statistics.median(float(np.linalg.norm(r.admm_point - r.point)) for r in done)
    return conv, err


def sweep(spec: SweepSpec, seed: int, seconds: float, import_s: float) -> Outcome:
    passes, rss = repeat(lambda i: sweep_pass(spec, seed, i), seconds)
    rows = [r for p in passes for r in p]
    out = Outcome()
    check_rows(rows, spec, out)
    ok = [r for r in rows if r.error is None] or rows
    solve_ms = [r.solve_s * 1e3 for r in ok]
    pass_s = [sum(r.solve_s + r.admm_s for r in p) for p in passes]
    gen_s = [sum(r.gen_s for r in p) for p in passes]
    out.metrics = {
        "setup_s": (import_s + statistics.median(gen_s), "s"),
        "op_ms_p50": (statistics.median(solve_ms), "ms"),
        "pass_s": (statistics.median(pass_s), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    p95 = tail_percentile(solve_ms, 0.95)
    conv, err = admm_summary(rows)
    out.report = {
        "solve_ms_p50": (statistics.median(solve_ms), "ms"),
        "solve_ms_p95": (p95, "ms") if p95 is not None else ("n/a: fewer than 200 solves", ""),
        "solves": (len(solve_ms), "count"),
        "sweep_s": (statistics.median(pass_s), "s"),
        "passes": (len(passes), "count"),
        "admm_converged_frac": (conv, "ratio"),
        "admm_error_norm_p50": (err, "1"),
    }
    return out


def sweep_traced(spec: SweepSpec, seed: int, seconds: float):
    tracer, plain, traced, untraced, wall = alternate(
        lambda i: i, lambda i, tr: sweep_pass(spec, seed, i, tr), seconds
    )
    out = Outcome()
    check_rows([r for p in plain + traced for r in p], spec, out)
    conv, err = admm_summary([r for p in traced for r in p])
    extra = {"qp_baseline.converged_frac": conv, "qp_baseline.error_norm_p50": err}
    out.metrics = layer_metrics(tracer, extra, wall, untraced)
    out.report = {"passes": (len(traced), "count"), "traced_wall_s": (wall, "s"), "untraced_wall_s": (untraced, "s")}
    return out, tracer


# ------------------------------------------------------------- cube workloads


def endmember_spectra(spec: CubeSpec) -> np.ndarray:
    """Fixed reflectance curves of soil, vegetation and water over the band
    range, the first `spec.classes` of them.

    They do not depend on the seed: like a real scene, every seed images the
    same materials. With seeded or look-alike spectra, k-means settles in a
    different local optimum for some seeds, which moves the class frontiers
    and changes the distance stage's LP count twofold from seed to seed.
    """
    t = np.linspace(0.0, 1.0, spec.bands)
    library = np.stack([
        0.20 + 0.40 * t + 0.05 * np.sin(6.0 * t),  # soil: rising
        0.04 + 0.08 * np.exp(-0.5 * ((t - 0.25) / 0.05) ** 2)
        + 0.55 / (1.0 + np.exp(-(t - 0.45) / 0.03)),  # vegetation: red edge
        0.02 + 0.10 * np.exp(-3.0 * t),  # water: dark, falling
    ])
    if not 1 <= spec.classes <= len(library):
        raise ValueError(f"cubes have 1 to {len(library)} classes")
    return library[: spec.classes]


def make_cube(spec: CubeSpec, seed: int) -> tuple[unmix.SpectralImage, np.ndarray]:
    """Linear-mixing cube: seeded Dirichlet abundances times the endmember
    spectra, plus seeded Gaussian noise. Returns the image and the true
    abundances."""
    spectra = endmember_spectra(spec)
    K, bands = spectra.shape
    pixels = spec.width * spec.height
    scene = np.random.Generator(np.random.PCG64(np.random.SeedSequence([0x5CE7E, K, pixels])))
    abund = scene.dirichlet(np.full(K, spec.alpha), size=pixels)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed % 2**64, 0xC0BE])))
    data = abund @ spectra + gen.normal(scale=spec.noise, size=(pixels, bands))
    return unmix.SpectralImage(spec.width, spec.height, bands, data), abund


def write_cube(spec: CubeSpec, seed: int, directory: Path) -> None:
    """cube.json + cube.bin (via cli.save_image) and truth.csv in `directory`."""
    directory.mkdir(parents=True, exist_ok=True)
    img, truth = make_cube(spec, seed)
    cli.save_image(img, directory / "cube")
    np.savetxt(directory / "truth.csv", truth, fmt="%.17g", delimiter=",")


def unmix_argv(spec: CubeSpec, inputs: Path, out: Path) -> list[str]:
    argv = [
        "unmix",
        "--image", str(inputs / "cube.json"),
        "--classifier", spec.classifier,
        "--classes", str(spec.classes),
        "--mode", spec.mode,
        "--seed", str(CLASSIFIER_SEED),
        "--truth", str(inputs / "truth.csv"),
        "--threads", "1",
        "--out", str(out),
    ]
    if spec.clip:
        argv.append("--clip-abundances")
    return argv


def invoke(argv: list[str]) -> tuple[int | None, float, str]:
    """In-process `polyx` call: (exit code or None if it raised, wall s, stderr)."""
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # counted as a failed operation, run goes on
        return None, time.perf_counter() - t0, repr(exc)
    return rc, time.perf_counter() - t0, err.getvalue().strip()


@dataclass
class Invocation:
    """One `polyx unmix` call: its wall time and what its outputs say."""

    wall_s: float
    error: str | None = None
    distance_s: float = 0.0  # the distance stage, as the manifest reports it
    digest: str | None = None  # sha256 of the map bytes
    rmse: float | None = None


def check_unmix(spec: CubeSpec, rc, stderr: str, out: Path, wall_s: float) -> Invocation:
    """Read back and check the outputs of one invocation.

    The map must load as a `DensityMap` (rows on the probability simplex;
    clipped abundances are renormalised onto it too) of the cube's shape,
    and the manifest must carry the distance stage and a finite RMSE.
    """
    inv = Invocation(wall_s)
    if rc != 0:
        inv.error = f"polyx unmix exited {rc}: {stderr}"
        return inv
    try:
        dm, _, _ = density.load_density_map(out / f"{spec.mode}.json")
        inv.digest = hashlib.sha256((out / f"{spec.mode}.bin").read_bytes()).hexdigest()
        run = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["runs"][0]
        inv.distance_s = float(run["timings_s"]["distance"])
        inv.rmse = float(run["rmse"])
    except (polyx.PolyxError, OSError, ValueError, KeyError) as exc:
        inv.error = f"map check failed: {exc!r}"
        return inv
    if dm.pixels != spec.width * spec.height or dm.classes != spec.classes:
        inv.error = "map has the wrong shape"
    elif not math.isfinite(inv.rmse):
        inv.error = "map RMSE is not finite"
    return inv


def _unmix_once(spec, inputs, out, outcome, tracer=None) -> Invocation:
    """One invocation plus its checks."""
    argv = unmix_argv(spec, inputs, out)
    if tracer is None:
        rc, wall, stderr = invoke(argv)
    else:
        tracer.request += 1
        with tracer.span("cli.unmix"):
            rc, wall, stderr = invoke(argv)
    outcome.attempted += 1
    inv = check_unmix(spec, rc, stderr, out, wall)
    if inv.error is not None:
        outcome.fail(inv.error)
    shutil.rmtree(out, ignore_errors=True)
    return inv


def check_repeat(first: Invocation, again: Invocation, outcome: Outcome) -> None:
    """A second invocation on the same cube must give the same map bytes."""
    if first.error is None and again.error is None and again.digest != first.digest:
        again.error = "map bytes differ between repeats of the same seed"
        outcome.fail(again.error)


def _mean_rmse(invs: list[Invocation]) -> float | None:
    rmses = [i.rmse for i in invs if i.error is None]
    return statistics.fmean(rmses) if rmses else None


def write_pass_cubes(spec: CubeSpec, seed: int, index: int, workdir: Path) -> list[Path]:
    """The fresh cubes of pass `index`, each in its own directory."""
    inputs = []
    for r in range(CUBES_PER_PASS):
        inputs.append(workdir / f"input{r}")
        write_cube(spec, sub_seed(seed, index, r), inputs[-1])
    return inputs


def cube_pass(spec, inputs, workdir, outcome, tracer=None) -> list[Invocation]:
    """One invocation on each of the pass's cubes."""
    return [_unmix_once(spec, d, workdir / "out", outcome, tracer) for d in inputs]


def cube(spec: CubeSpec, seed: int, seconds: float, import_s: float, workdir: Path) -> Outcome:
    out = Outcome()
    gen_s: list[float] = []

    def run_pass(index):
        t0 = time.perf_counter()
        inputs = write_pass_cubes(spec, seed, index, workdir)
        gen_s.append(time.perf_counter() - t0)
        return cube_pass(spec, inputs, workdir, out)

    passes, rss = repeat(run_pass, seconds)
    # the first cube once more, untimed, for the repeat check
    inputs = write_pass_cubes(spec, seed, 0, workdir)
    check_repeat(passes[0][0], _unmix_once(spec, inputs[0], workdir / "out", out), out)
    invs = [i for p in passes for i in p]
    ok = [i for i in invs if i.error is None] or invs
    unmix_s = statistics.median(i.wall_s for i in ok)
    distance_ms = statistics.median(i.distance_s for i in ok) * 1e3
    pass_s = statistics.median(sum(i.wall_s for i in p) for p in passes)
    out.metrics = {
        "setup_s": (import_s + statistics.median(gen_s), "s"),
        "op_ms_p50": (distance_ms, "ms"),
        "pass_s": (pass_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    rmse = _mean_rmse(invs)
    out.report = {
        "unmix_s": (unmix_s, "s"),
        "distance_ms_p50": (distance_ms, "ms"),
        "invocations": (len(invs), "count"),
        "passes": (len(passes), "count"),
        "map_rmse": (rmse, "1") if rmse is not None else ("n/a: no successful run", ""),
    }
    return out


def cube_traced(spec: CubeSpec, seed: int, seconds: float, workdir: Path):
    out = Outcome()
    tracer, plain, traced, untraced, wall = alternate(
        lambda i: write_pass_cubes(spec, seed, i, workdir),
        lambda inputs, tr: cube_pass(spec, inputs, workdir, out, tr),
        seconds,
    )
    for p, q in zip(plain, traced):
        for first, again in zip(p, q):
            check_repeat(first, again, out)
    rmse = _mean_rmse([i for p in traced for i in p])
    extra = {"unmix.map_rmse": rmse} if rmse is not None else {}
    out.metrics = layer_metrics(tracer, extra, wall, untraced)
    out.report = {
        "passes": (len(traced), "count"),
        "traced_wall_s": (wall, "s"),
        "untraced_wall_s": (untraced, "s"),
    }
    return out, tracer


# -------------------------------------------------------------------- tracing


def _count_query(tr, result, args, kwargs):
    tr.counts["queries"] += 1


def _count_batch(tr, result, args, kwargs):
    tr.counts["queries"] += np.shape(args[1])[0]


def _kernel_point(tr, result, args, kwargs):
    _, nodes, status = result
    if status != _kernel.INSIDE:
        tr.counts["exterior"] += 1
    if status == _kernel.FOUND:
        tr.values["nodes"].append(int(nodes))


def _kernel_batch(tr, result, args, kwargs):
    _, _, nodes, status = result
    status = np.asarray(status)
    tr.counts["exterior"] += int((status != _kernel.INSIDE).sum())
    tr.values["nodes"].extend(np.asarray(nodes)[status == _kernel.FOUND].tolist())


def _em_iters(tr, result, args, kwargs):
    tr.values["em_iters"].append(len(result.loglik_path))


def _bytes_written(tr, result, args, kwargs):
    out = Path(args[1])
    tr.counts["bytes_written"] += sum(p.stat().st_size for p in out.iterdir() if p.is_file())


HOOKS = {
    "minnorm.solve": _count_query,
    "minnorm.signed_distances": _count_batch,
    "kernel.min_norm_point": _kernel_point,
    "kernel.solve_many": _kernel_batch,
    "classify.gmm_fit": _em_iters,
    "cli.save_outputs": _bytes_written,
}


def install(tracer: Tracer) -> None:
    for name, module, attr in LAYERS:
        tracer.wrap(module, attr, name, HOOKS.get(name))
    if _kernel.ENGINE == "python":
        for name, attr in PURE_INTERNALS:
            tracer.wrap(pure, attr, name)


def layer_metrics(tracer: Tracer, extra: dict, wall: float, untraced: float) -> dict:
    totals = tracer.layer_totals()
    m: dict[str, tuple[float, str]] = {}
    for prefix, _, _ in LAYERS:
        row = totals.get(prefix, {"calls": 0, "s": 0.0, "self_s": 0.0})
        m[f"{prefix}.calls"] = (row["calls"], "count")
        m[f"{prefix}.s"] = (row["s"], "s")
        m[f"{prefix}.self_s"] = (row["self_s"], "s")
    nodes = tracer.values["nodes"]
    iters = tracer.values["em_iters"]
    queries = tracer.counts["queries"]
    values = {
        "minnorm.exterior_frac": tracer.counts["exterior"] / queries if queries else 0.0,
        "kernel.nodes_per_solve": sum(nodes) / len(nodes) if nodes else 0.0,
        "kernel.nodes_max": max(nodes) if nodes else 0,
        "classify.gmm_em_iters": statistics.fmean(iters) if iters else 0.0,
        "cli.bytes_written": tracer.counts["bytes_written"],
        "trace.overhead_s": wall - untraced,
        "trace.coverage": tracer.top_level_children_ns() / 1e9 / wall,
        **extra,
    }
    for name, unit, _ in COUNTERS:
        m[name] = (values.get(name, 0.0), unit)  # 0: not measured on this workload
    return m


# ----------------------------------------------------------------- provenance


def provenance(workload: str, seed: int, pins: dict, inherited_threads: str | None) -> dict:
    try:
        importlib.import_module("polyx._kernel.native")
    except ImportError as exc:
        native_error = str(exc)
    else:
        native_error = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    spec = WORKLOADS[workload]
    prov = {
        "engine": polyx.ENGINE,
        "native_import_error": native_error,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_pins": pins,
        "polyx_threads_env_removed": inherited_threads,
        "unmix_threads": 1,
        "workload": workload,
        "seed": seed,
    }
    if isinstance(spec, SweepSpec):
        prov["instances_per_pass"] = [{"n": n, "k": k, "count": c} for n, k, c in spec.families]
    else:
        prov["cube"] = {
            "width": spec.width, "height": spec.height, "bands": spec.bands,
            "classes": spec.classes, "classifier": spec.classifier, "mode": spec.mode,
            "dirichlet_alpha": spec.alpha, "noise_std": spec.noise,
        }
    return prov


def run(workload: str, seed: int, seconds: float, trace: bool, import_s: float, workdir: Path):
    """Outcome of one run, and the tracer when traced."""
    spec = WORKLOADS[workload]
    if isinstance(spec, SweepSpec):
        if trace:
            return sweep_traced(spec, seed, seconds)
        return sweep(spec, seed, seconds, import_s), None
    if trace:
        return cube_traced(spec, seed, seconds, workdir)
    return cube(spec, seed, seconds, import_s, workdir), None
