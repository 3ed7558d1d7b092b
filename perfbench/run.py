"""polyx benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 20 --trace 0

Run from a source checkout: the package is imported from `src/` next to
this directory and nothing is installed. With `--trace 0` the run prints
the end-to-end metrics; with `--trace 1` it runs the workload's passes
untraced and traced in turn and prints the per-layer split (spans go to
`.perfbench_out/`). Human-readable lines come first; the last line of
standard output is one JSON object {correct, attempted, failed, metrics}.

The BLAS thread pools are pinned to one thread before NumPy is imported,
`POLYX_THREADS` is removed so `--threads 1` holds, and the engine is
whichever one `import polyx` selects.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
WORKLOAD_NAMES = ("exact-sweep", "samson-kmeans-prob", "cube-svm-prob", "cube-kmeans-abund")
#: fresh interpreters timed per run; the import part of setup_s is their median
IMPORT_REPEATS = 9


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports polyx (and NumPy)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import polyx"], env=env, cwd=ROOT, check=True, timeout=120)
    return time.perf_counter() - t0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "polyx" / "__init__.py").is_file():
        print(f"error: no polyx sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    inherited_threads = os.environ.pop("POLYX_THREADS", None)
    import_s = 0.0 if args.trace else statistics.median(import_seconds() for _ in range(IMPORT_REPEATS))
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads  # first import of NumPy in this process

    prov = workloads.provenance(args.workload, args.seed, THREAD_PINS, inherited_threads)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        outcome, tracer = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), import_s, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left when another run still uses it
            workdir.parent.rmdir()

    print(f"# polyx benchmark: {args.workload}, seed {args.seed}, trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    if tracer is not None:
        spans = ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans, {"provenance": prov, "fields": ["name", "start_ns", "end_ns", "parent", "request"]})
        print(f"spans {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    for name, (value, unit) in outcome.report.items():
        print(f"{name:34s} {value} {unit}")
    print(f"{'failed_frac':34s} {outcome.failed_frac} ratio ({outcome.failed} of {outcome.attempted})")
    for reason in outcome.failures[:20]:
        print(f"failure: {reason}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:34s} {value} {unit}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
