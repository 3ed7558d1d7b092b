"""Instance generator contracts and the timing harness."""

import numpy as np
import pytest

from helpers import solve_checked
from polyx import _kernel, bench, errors, geom


def test_config_validation():
    ok = bench.BenchConfig("fixed-n", (1, 2, 5), seed=0)
    assert ok.k_values == (1, 2, 5)
    with pytest.raises(errors.InputError):
        bench.BenchConfig("other", (1,), seed=0)
    with pytest.raises(errors.InputError):
        bench.BenchConfig("fixed-n", (), seed=0)
    with pytest.raises(errors.InputError):
        bench.BenchConfig("fixed-n", (2, 2), seed=0)
    with pytest.raises(errors.InputError):
        bench.BenchConfig("fixed-n", (1,), seed=0, reps=0)
    with pytest.raises(errors.InputError):
        bench.BenchConfig("fixed-n", (1,), seed=0, time_budget_per_solve=0.0)


def test_interval_instance():
    P, x = bench.random_polyhedron(1, 2, seed=3)
    assert P.k == 2
    lo, hi = sorted(h.offset * h.normal[0] for h in P.halfspaces)
    assert lo < 0 < hi  # a genuine interval around the origin
    assert not geom.contains(P, x)


def test_triangle_min_h_is_three():
    P, _ = bench.random_polyhedron(2, 3, seed=11)
    assert geom.min_h_description(P).k == 3


def test_generator_contract_batch():
    origin3 = np.zeros(3)
    for seed in range(25):
        P, x = bench.random_polyhedron(3, int(2 + seed % 7), seed=seed)
        assert geom.contains(P, origin3)
        assert not geom.contains(P, x)
        assert 2.0 - 1e-9 <= np.linalg.norm(x) <= 5.0 + 1e-9


def test_generator_exact_support_count():
    for seed, (n, k) in enumerate([(2, 6), (3, 10), (4, 14), (3, 40)]):
        P, _ = bench.random_polyhedron(n, k, seed=100 + seed)
        assert P.k == k
        assert geom.min_h_description(P).k == k


def test_generator_determinism():
    a_poly, a_x = bench.random_polyhedron(3, 8, seed=77)
    b_poly, b_x = bench.random_polyhedron(3, 8, seed=77)
    assert np.array_equal(a_x, b_x)
    for ha, hb in zip(a_poly.halfspaces, b_poly.halfspaces):
        assert ha.offset == hb.offset
        assert np.array_equal(ha.normal, hb.normal)


def test_generator_impossible_combination():
    # a 1D polyhedron supports at most 2 irredundant halfspaces
    with pytest.raises(errors.GenerationError):
        bench.random_polyhedron(1, 3, seed=0)


def test_generator_rejects_bad_shape():
    with pytest.raises(errors.InputError):
        bench.random_polyhedron(0, 2, seed=0)


def test_every_instance_satisfies_criterion():
    for seed in range(30):
        P, x = bench.random_polyhedron(3, 12, seed=1000 + seed)
        solve_checked(P, x)


def test_run_benchmark_rows_and_csv(tmp_path):
    cfg = bench.BenchConfig("fixed-n", (2, 4), seed=5, reps=3)
    rows = bench.run_benchmark(cfg)
    assert len(rows) == 6
    assert all(row["truncated"] == 0 for row in rows)
    assert all(row["exact_time_ns"] > 0 for row in rows)
    assert all(np.isfinite(row["error_norm"]) for row in rows)
    ks = sorted({row["k"] for row in rows})
    assert ks == [2, 4]

    out = tmp_path / "bench.csv"
    bench.write_csv(rows, out)
    assert bench.read_csv(out) == rows


def test_run_benchmark_n_eq_k_mode():
    cfg = bench.BenchConfig("n-eq-k", (2, 3), seed=9, reps=2)
    rows = bench.run_benchmark(cfg)
    assert [(r["n"], r["k"]) for r in rows] == [(2, 2), (2, 2), (3, 3), (3, 3)]


@pytest.mark.parametrize(
    "status,feasible,error",
    [
        (_kernel.EXHAUSTED, True, errors.SearchExhaustedError),
        (_kernel.EXHAUSTED, False, errors.EmptyPolyhedronError),
        (_kernel.INSIDE, True, errors.PolyxError),
    ],
)
def test_run_benchmark_raises_typed_errors(monkeypatch, status, feasible, error):
    """An exhausted search raises what minnorm.solve raises for it; any other
    unexpected status a plain PolyxError, never a bare RuntimeError."""
    monkeypatch.setattr(_kernel, "min_norm_point", lambda V, S, x, **kw: (x, 3, status))
    monkeypatch.setattr(_kernel, "feasible", lambda V, S: feasible)
    with pytest.raises(errors.PolyxError) as info:
        bench.run_benchmark(bench.BenchConfig("fixed-n", (3,), seed=0, reps=1))
    assert type(info.value) is error


def test_median_time_grows_with_k():
    cfg = bench.BenchConfig("fixed-n", (5, 50), seed=21, reps=25)
    rows = bench.run_benchmark(cfg)
    t5 = np.median([r["exact_time_ns"] for r in rows if r["k"] == 5])
    t50 = np.median([r["exact_time_ns"] for r in rows if r["k"] == 50])
    assert t50 > t5
