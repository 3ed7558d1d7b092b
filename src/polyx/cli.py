"""Command line front end: solver queries, reduction, benchmarks, unmixing.

Every subcommand prints a JSON summary on stdout and exits 0 on success.
Failures print {"error": {"code", "message"}} on stderr and exit 2, so
callers can branch on the code without scraping prose.
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, _kernel, bench, classify, density, errors, geom, minnorm, unmix
from .unmix import EndmemberSet, SpectralImage

_DTYPES = {"f32": "<f4", "f64": "<f8"}


@dataclass(frozen=True)
class ImageHeader:
    """Sidecar description of a raw spectral image.

    `data_file` is resolved relative to the header's directory; the binary
    holds width*height*bands little-endian values, all bands of pixel 0
    first (pixel-major).
    """

    width: int
    height: int
    bands: int
    dtype: str
    layout: str
    data_file: str

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1 or self.bands < 1:
            raise errors.HeaderError("width, height and bands must be positive")
        if self.dtype not in _DTYPES:
            raise errors.DtypeError(f"unknown dtype {self.dtype!r}")
        if self.layout != "pixel-major":
            raise errors.HeaderError(f"unknown layout {self.layout!r}")

    @property
    def byte_length(self) -> int:
        return self.width * self.height * self.bands * (4 if self.dtype == "f32" else 8)

    @classmethod
    def from_json(cls, doc: dict, origin: str) -> "ImageHeader":
        if not isinstance(doc, dict):
            raise errors.HeaderError(f"{origin}: expected a JSON object")
        missing = [k for k in ("width", "height", "bands", "dtype", "layout", "data_file") if k not in doc]
        if missing:
            raise errors.HeaderError(f"{origin}: missing key(s) {', '.join(missing)}")
        try:
            return cls(
                width=int(doc["width"]),
                height=int(doc["height"]),
                bands=int(doc["bands"]),
                dtype=str(doc["dtype"]),
                layout=str(doc["layout"]),
                data_file=str(doc["data_file"]),
            )
        except (TypeError, ValueError) as exc:
            raise errors.HeaderError(f"{origin}: {exc}") from None


def load_image(header_path) -> SpectralImage:
    """Read a raw image via its JSON header, or a CSV matrix (pixels x bands).

    CSV input may start with one non-numeric header row; the pixel grid of a
    CSV is taken as `rows x 1` since the text form carries no 2-D shape.
    """
    header_path = Path(header_path)
    if header_path.suffix.lower() == ".csv":
        data = _read_csv_matrix(header_path)
        return SpectralImage(data.shape[0], 1, data.shape[1], data)
    try:
        doc = json.loads(header_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise errors.HeaderError(f"{header_path}: not valid JSON ({exc})") from None
    hdr = ImageHeader.from_json(doc, str(header_path))
    blob = (header_path.parent / hdr.data_file).read_bytes()
    if len(blob) != hdr.byte_length:
        raise errors.LengthMismatchError(
            f"{hdr.data_file}: {len(blob)} bytes, header implies {hdr.byte_length}"
        )
    flat = np.frombuffer(blob, dtype=_DTYPES[hdr.dtype])
    data = flat.reshape(hdr.width * hdr.height, hdr.bands).astype(float)
    return SpectralImage(hdr.width, hdr.height, hdr.bands, data)


def save_image(img: SpectralImage, path) -> list[Path]:
    """Write <path>.json + <path>.bin (f64 LE, pixel-major), returning the paths.

    f64 keeps the round trip lossless for any in-memory image.
    """
    base = Path(path)
    bin_path = base.with_suffix(".bin")
    json_path = base.with_suffix(".json")
    bin_path.write_bytes(np.ascontiguousarray(img.data, dtype="<f8").tobytes())
    header = {
        "width": img.width,
        "height": img.height,
        "bands": img.bands,
        "dtype": "f64",
        "layout": "pixel-major",
        "data_file": bin_path.name,
    }
    json_path.write_text(json.dumps(header, indent=2) + "\n", encoding="utf-8")
    return [json_path, bin_path]


def _read_csv_matrix(path: Path) -> np.ndarray:
    # A plain numeric file takes NumPy's parser. Anything else (a header,
    # quoted or empty cells, ragged rows, no rows at all, which loadtxt only
    # warns about) falls through to the csv module, which detects the
    # header and words the errors.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(path, delimiter=",", ndmin=2, comments=None, encoding="utf-8")
    except (OSError, ValueError, UserWarning):
        pass
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if any(c.strip() for c in r)]
    except OSError as exc:
        raise errors.FormatError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise errors.FormatError(f"{path}: empty CSV")
    start = 0
    try:
        [float(c) for c in rows[0]]
    except ValueError:
        start = 1
    if start == len(rows):
        raise errors.FormatError(f"{path}: no data rows")
    data = rows[start:]
    width = len(data[0])
    for i, row in enumerate(data):
        if len(row) != width:
            raise errors.FormatError(f"{path}: row {start + i + 1} has {len(row)} fields, expected {width}")
    try:
        return np.array(data, dtype=float)
    except ValueError as exc:
        error = exc
    for i, row in enumerate(data):  # name the row of the first bad cell
        try:
            [float(c) for c in row]
        except ValueError as exc:
            raise errors.FormatError(f"{path}: row {start + i + 1}: {exc}") from None
    raise errors.FormatError(f"{path}: {error}") from None


def _read_matrix(path) -> np.ndarray:
    """Pixels x K matrix from either a CSV or a raw-map JSON header."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _read_csv_matrix(path)
    values, _, _ = density.read_raw_map(path)
    return np.asarray(values, dtype=float)


@dataclass
class RunResult:
    """One unmixing run's map plus everything the manifest records about it."""

    seed: int
    mode: str
    values: np.ndarray
    width: int
    height: int
    endmembers: EndmemberSet | None = None
    rmse: float | None = None
    permutation: tuple[int, ...] | None = None
    timings: dict[str, float] = field(default_factory=dict)
    fit: dict = field(default_factory=dict)  # the classifier's convergence counters


def save_outputs(results: list[RunResult], out_dir, settings: dict, pgm: bool = False) -> dict:
    """Write per-run maps (raw+JSON, optional PGMs), aux CSVs and manifest.json.

    Single-run outputs use plain names (abundance.bin, endmembers.csv, ...);
    with several runs each file carries its run index. Returns the manifest,
    which records enough (seeds, flags, versions) to reproduce the maps
    bitwise.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    many = len(results) > 1
    run_entries = []
    rmse_rows = []
    for idx, r in enumerate(results):
        tag = f"_{idx:03d}" if many else ""
        written = density.write_raw_map(r.values, r.width, r.height, out / f"{r.mode}{tag}", pgm=pgm)
        if r.endmembers is not None:
            epath = out / f"endmembers{tag}.csv"
            with open(epath, "w", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh)
                w.writerow(["class", "source_pixel"] + [f"band{b}" for b in range(r.endmembers.spectra.shape[1])])
                for k, (pix, spec) in enumerate(zip(r.endmembers.source_pixel, r.endmembers.spectra)):
                    w.writerow([k, pix] + [f"{v:.17g}" for v in spec])
            written.append(epath)
        if r.rmse is not None:
            rmse_rows.append(
                {
                    "run": idx,
                    "seed": r.seed,
                    "rmse": f"{r.rmse:.17g}",
                    "permutation": " ".join(map(str, r.permutation or ())),
                }
            )
        run_entries.append(
            {
                "run": idx,
                "seed": r.seed,
                "files": [p.name for p in written],
                "timings_s": {k: round(v, 6) for k, v in r.timings.items()},
                "fit": r.fit,
                **({"rmse": r.rmse, "permutation": list(r.permutation or ())} if r.rmse is not None else {}),
            }
        )
    if rmse_rows:
        with open(out / "rmse.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.DictWriter(fh, fieldnames=["run", "seed", "rmse", "permutation"])
            w.writeheader()
            w.writerows(rmse_rows)
    manifest = {
        "tool": "polyx",
        "version": __version__,
        "engine": _kernel.ENGINE,
        "native_error": _kernel.NATIVE_ERROR,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "settings": settings,
        "runs": run_entries,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest


def _parse_point(text: str) -> np.ndarray:
    try:
        return np.array([float(c) for c in text.split(",")], dtype=float)
    except ValueError:
        raise errors.InputError(f"cannot parse point {text!r}; expected e.g. 1.5,-2") from None


def _parse_k_values(text: str) -> tuple[int, ...]:
    """Sizes from "1..100", "5,10,20" or a mix; deduplicated, ascending."""
    ks: set[int] = set()
    for token in text.split(","):
        token = token.strip()
        try:
            if ".." in token:
                lo, hi = token.split("..")
                ks.update(range(int(lo), int(hi) + 1))
            elif token:
                ks.add(int(token))
        except ValueError:
            raise errors.InputError(f"cannot parse k list token {token!r}") from None
    if not ks:
        raise errors.InputError("empty k list")
    return tuple(sorted(ks))


def _cmd_minnorm(args) -> int:
    P = geom.load_polyhedron(args.polyhedron)
    x = _parse_point(args.point)
    res = minnorm.solve(P, x, tol=args.tol)
    print(
        json.dumps(
            {
                "point": [float(v) for v in res.point],
                "signed_distance": res.signed_distance,
                "iterations": res.iterations,
            }
        )
    )
    return 0


def _cmd_reduce(args) -> int:
    P = geom.load_polyhedron(args.polyhedron)
    Q = geom.min_h_description(P)
    if args.out:
        geom.save_polyhedron(Q, args.out)
        print(json.dumps({"halfspaces_in": P.k, "halfspaces_kept": Q.k, "out": args.out}))
    else:
        sys.stdout.write(geom.polyhedron_json(Q))
    return 0


def _cmd_bench(args) -> int:
    cfg = bench.BenchConfig(
        mode=args.mode,
        k_values=_parse_k_values(args.k),
        seed=args.seed,
        n_fixed=args.n,
        reps=args.reps,
        time_budget_per_solve=args.budget,
    )
    rows = bench.run_benchmark(cfg)
    bench.write_csv(rows, args.out)
    truncated = sum(1 for r in rows if r["truncated"])
    print(json.dumps({"out": args.out, "rows": len(rows), "truncated": truncated}))
    return 0


def _fit_partition(pixels: np.ndarray, classifier: str, K: int, seed: int) -> tuple[classify.PartitionModel, dict]:
    """The class partition, and the fit's convergence counters for the manifest."""
    if classifier == "kmeans":
        km = classify.kmeans_fit(pixels, K, seed)
        return classify.voronoi_partition(km), {"lloyd_sweeps": km.sweeps, "lloyd_capped": km.capped}
    model = classify.gmm_fit(pixels, K, seed)
    labels = classify.gmm_labels(model, pixels)
    partition = classify.ovo_svm_partition(pixels, labels, K, seed)
    return partition, {"em_iterations": len(model.loglik_path), "svm_pairs": partition.metadata["svm_pairs"]}


def _cmd_unmix(args) -> int:
    img = load_image(args.image)
    truth = _read_matrix(args.truth) if args.truth else None
    if truth is not None and truth.shape != (img.pixels, args.classes):
        raise errors.InputError(
            f"truth shape {truth.shape} does not match {img.pixels} pixels x {args.classes} classes"
        )
    results: list[RunResult] = []
    for r in range(args.runs):
        seed = args.seed + r
        timings: dict[str, float] = {}
        t0 = time.perf_counter()
        partition, fit = _fit_partition(img.data, args.classifier, args.classes, seed)
        timings["fit"] = time.perf_counter() - t0
        endmembers = None
        if args.mode == "abundance":
            endmembers, values = unmix.abundance_pipeline(
                img, partition, clip=args.clip_abundances, timings=timings
            )
        else:
            values = unmix.probability_pipeline(
                img, partition, alpha=args.alpha, use_basis_change=args.basis_change, timings=timings
            ).values
        rr = RunResult(seed, args.mode, np.asarray(values), img.width, img.height, endmembers, timings=timings, fit=fit)
        if truth is not None:
            rr.rmse, rr.permutation = unmix.rmse(rr.values, truth, permute=True)
        results.append(rr)
    settings = {
        "command": "unmix",
        "image": str(args.image),
        "classifier": args.classifier,
        "classes": args.classes,
        "mode": args.mode,
        "seed": args.seed,
        "runs": args.runs,
        "alpha": args.alpha,
        "basis_change": args.basis_change,
        "clip_abundances": args.clip_abundances,
        "truth": str(args.truth) if args.truth else None,
    }
    save_outputs(results, args.out, settings, pgm=args.pgm)
    summary = {"out": str(args.out), "runs": args.runs}
    if truth is not None:
        summary["mean_rmse"] = float(np.mean([r.rmse for r in results]))
    print(json.dumps(summary))
    return 0


def _cmd_rmse(args) -> int:
    est = _read_matrix(args.est)
    truth = _read_matrix(args.truth)
    value, perm = unmix.rmse(est, truth, permute=args.permute)
    print(json.dumps({"rmse": value, "permutation": list(perm)}))
    return 0


def _numpy_description() -> str:
    """NumPy's version and, when its build configuration names it, its BLAS."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return f"numpy {np.__version__}"
    return f"numpy {np.__version__} ({blas})"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polyx",
        description="Exact polyhedral distance queries, benchmarks and spectral unmixing.",
        # keeps --version on one line however long the native import error is
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument(
        "--version", action="version",
        version=f"%(prog)s {__version__}, {_numpy_description()}, engine: {_kernel.describe()}",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    mn = sub.add_parser("minnorm", help="nearest point of a polyhedron from a query point")
    mn.add_argument("--polyhedron", required=True, help="JSON H-representation file")
    mn.add_argument("--point", required=True, help="comma-separated query coordinates")
    mn.add_argument("--tol", type=float, default=geom.DEFAULT_TOL, help="containment tolerance")
    mn.set_defaults(func=_cmd_minnorm)

    rd = sub.add_parser("reduce", help="minimum H-description of a polyhedron file")
    rd.add_argument("--polyhedron", required=True)
    rd.add_argument("--out", help="output file; omitted, the reduced JSON goes to stdout")
    rd.set_defaults(func=_cmd_reduce)

    bn = sub.add_parser("bench", help="timing sweep of the exact solver vs the approximate baseline")
    bn.add_argument("--mode", required=True, choices=["fixed-n", "n-eq-k"])
    bn.add_argument("--k", required=True, help='halfspace counts, e.g. "1..100" or "5,10,20"')
    bn.add_argument("--reps", type=int, default=1000, help="instances per size")
    bn.add_argument("--seed", type=int, default=42)
    bn.add_argument("--n", type=int, default=3, help="dimension for fixed-n mode")
    bn.add_argument("--budget", type=float, default=10.0, help="per-solve time budget, seconds")
    bn.add_argument("--out", required=True, help="CSV output path")
    bn.set_defaults(func=_cmd_bench)

    ux = sub.add_parser("unmix", help="classify an image and emit abundance or probability maps")
    ux.add_argument("--image", required=True, help="image header JSON or CSV matrix")
    ux.add_argument("--classifier", required=True, choices=["kmeans", "gmm-svm"])
    ux.add_argument("--classes", required=True, type=int)
    ux.add_argument("--mode", required=True, choices=["abundance", "probability"])
    ux.add_argument("--seed", type=int, default=0)
    ux.add_argument("--runs", type=int, default=1, help="repeated runs use seeds seed..seed+runs-1")
    ux.add_argument("--alpha", type=float, default=1.0, help="softmax sharpness (probability mode)")
    ux.add_argument("--basis-change", action="store_true", help="re-express distances per deepest vector")
    ux.add_argument("--clip-abundances", action="store_true", help="clip to [0,1] and renormalize")
    ux.add_argument("--truth", help="reference maps (CSV or raw-map JSON); adds rmse.csv")
    # accepted for old command lines; the search runs on one thread
    ux.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    ux.add_argument("--pgm", action="store_true", help="also write one PGM per class")
    ux.add_argument("--out", required=True, help="output directory")
    ux.set_defaults(func=_cmd_unmix)

    rm = sub.add_parser("rmse", help="RMSE between two maps, optionally over class permutations")
    rm.add_argument("--est", required=True)
    rm.add_argument("--truth", required=True)
    rm.add_argument("--permute", action="store_true")
    rm.set_defaults(func=_cmd_rmse)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except errors.PolyxError as exc:
        print(json.dumps({"error": {"code": exc.code, "message": str(exc)}}), file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": {"code": "io-error", "message": str(exc)}}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
