"""Tests of the benchmark itself: input determinism, the percentile rule,
failure accounting, tracing, and agreement with BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import hashlib
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402
from polyx import bench, errors, minnorm, unmix  # noqa: E402
from tracer import Tracer, covered_ns  # noqa: E402

TINY_SWEEP = workloads.SweepSpec(((3, 6, 2), (4, 4, 1)), (3, 6))
TINY_CUBE = workloads.CubeSpec(6, 5, 4, 3, "kmeans", "probability")
TINY_ABUND = workloads.CubeSpec(6, 5, 4, 3, "kmeans", "abundance", clip=True)
CUBES = workloads.CUBES_PER_PASS
INVOCATIONS = CUBES + 1  # of a run with --seconds 0: one pass, then the repeat check


def _instance_bytes(spec, seed):
    out = []
    for n, k, s in workloads.sweep_instances(spec, seed, 0):
        P, x = bench.random_polyhedron(n, k, s)
        V, S = P.matrix()
        out.append(V.tobytes() + S.tobytes() + x.tobytes())
    return out


def _digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


def test_same_seed_gives_byte_identical_instances():
    spec = workloads.WORKLOADS["exact-sweep"]
    assert _instance_bytes(spec, 7) == _instance_bytes(spec, 7)
    assert _instance_bytes(spec, 7) != _instance_bytes(spec, 8)


def test_same_seed_gives_byte_identical_cube_files(tmp_path):
    spec = workloads.WORKLOADS["cube-svm-prob"]
    runs = {}
    for name, seed, index in (("a", 3, 0), ("b", 3, 0), ("c", 4, 0), ("d", 3, 1)):
        inputs = workloads.write_pass_cubes(spec, seed, index, tmp_path / name)
        runs[name] = [_digests(d) for d in inputs]
    a, b, c, d = runs["a"], runs["b"], runs["c"], runs["d"]
    assert len(a) == CUBES
    assert set(a[0]) == {"cube.json", "cube.bin", "truth.csv"}
    assert a == b
    assert len({x["cube.bin"] for x in a + c + d}) == 3 * CUBES  # every cube a new draw
    assert len({x["truth.csv"] for x in a + c + d}) == 1  # one scene, seen through new noise


def test_p95_needs_ten_samples_beyond_it():
    assert workloads.tail_percentile(range(199), 0.95) is None
    assert workloads.tail_percentile(range(200), 0.95) == 189
    assert workloads.tail_percentile([], 0.95) is None


def test_clean_sweep_reports_every_end_to_end_metric():
    out = workloads.sweep(TINY_SWEEP, 1, 0.0, 0.0)
    assert out.failed == 0 and out.attempted == 3
    assert list(out.metrics) == [name for name, _, _ in workloads.END_TO_END]


def test_injected_solver_failure_raises_failed_frac(monkeypatch):
    real = minnorm.solve
    calls = []

    def flaky(P, x, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise errors.BudgetExceededError("injected")
        return real(P, x, **kwargs)

    monkeypatch.setattr(minnorm, "solve", flaky)
    out = workloads.sweep(TINY_SWEEP, 1, 0.0, 0.0)
    assert out.failed == 1 and out.failed_frac == pytest.approx(1 / 3)
    assert "injected" in out.failures[0]


def test_injected_unmix_failure_raises_failed_frac(monkeypatch, tmp_path):
    real = unmix.class_signed_distances
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise errors.InputError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(unmix, "class_signed_distances", flaky)
    out = workloads.cube(TINY_CUBE, 1, 0.0, 0.0, tmp_path)
    assert out.attempted == INVOCATIONS and out.failed == 1
    assert out.failed_frac == pytest.approx(1 / INVOCATIONS)
    assert "exited 2" in out.failures[0]


def test_changed_map_bytes_count_as_failure(monkeypatch, tmp_path):
    real = unmix.class_signed_distances
    calls = []

    def drifting(*args, **kwargs):
        calls.append(1)
        d = real(*args, **kwargs)
        d[:, 0] += 0.1 * len(calls)
        return d

    monkeypatch.setattr(unmix, "class_signed_distances", drifting)
    out = workloads.cube(TINY_CUBE, 1, 0.0, 0.0, tmp_path)
    # the repeat of the first cube differs from its first invocation
    assert out.attempted == INVOCATIONS and out.failed == 1
    assert "differ between repeats" in out.failures[0]


def test_clean_abundance_run_reports_every_end_to_end_metric(tmp_path):
    out = workloads.cube(TINY_ABUND, 1, 0.0, 0.0, tmp_path)
    assert out.failed == 0 and out.attempted == INVOCATIONS
    assert list(out.metrics) == [name for name, _, _ in workloads.END_TO_END]
    assert all(value > 0 for value, _ in out.metrics.values())


def test_self_time_subtracts_the_union_of_children():
    tr = Tracer()
    tr.spans = [
        ["a", 0, 100, -1, 1],
        ["b", 10, 30, 0, 1],
        ["c", 20, 50, 0, 1],
        ["d", 25, 28, 2, 1],
    ]
    totals = tr.layer_totals()
    assert totals["a"]["self_s"] == pytest.approx(60e-9)
    assert totals["c"]["self_s"] == pytest.approx(27e-9)
    assert tr.top_level_children_ns() == 40
    assert covered_ns([]) == 0


def test_wrap_records_spans_and_restores():
    mod = types.SimpleNamespace(f=lambda x: x + 1)
    orig = mod.f
    tr = Tracer()
    seen = []
    tr.wrap(mod, "f", "mod.f", after=lambda t, res, args, kw: seen.append(res))
    with tr.span("root"):
        assert mod.f(1) == 2
    tr.restore()
    assert mod.f is orig
    assert [s[0] for s in tr.spans] == ["root", "mod.f"]
    assert tr.spans[1][3] == 0 and seen == [2]


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    out, tracer = workloads.cube_traced(TINY_CUBE, 2, 0.0, tmp_path)
    assert out.failed == 0
    assert list(out.metrics) == [name for name, _, _ in workloads.per_layer_defs()]
    # --seconds 0: one untraced and one traced pass
    assert out.attempted == 2 * CUBES
    assert out.metrics["unmix.class_signed_distances.calls"][0] == CUBES
    assert out.metrics["minnorm.signed_distances.calls"][0] == CUBES * TINY_CUBE.classes
    assert out.metrics["unmix.extract_endmembers.calls"][0] == 0
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_traced_abundance_run_measures_the_abundance_layers(tmp_path):
    out, _ = workloads.cube_traced(TINY_ABUND, 2, 0.0, tmp_path)
    assert out.failed == 0
    assert out.metrics["unmix.extract_endmembers.calls"][0] == CUBES
    assert out.metrics["unmix.abundances_from_endmembers.calls"][0] == CUBES
    assert out.metrics["cli.read_matrix.calls"][0] == CUBES
    assert out.metrics["unmix.class_signed_distances.calls"][0] == 0


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == workloads.per_layer_defs()


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
