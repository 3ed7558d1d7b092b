"""Command line surface: image I/O, run outputs, and subcommand behavior."""

import json

import numpy as np
import pytest

from helpers import seeded, square
from polyx import _kernel, cli, errors, geom, unmix


def toy_image(tmp_path, pixels=24, seed_label="cli-image"):
    """Two well-separated 3-band clusters, saved as header + raw pair."""
    gen = seeded(seed_label)
    half = pixels // 2
    a = np.array([1.0, 0.1, 0.1]) + 0.05 * gen.standard_normal((half, 3))
    b = np.array([0.1, 1.0, 0.1]) + 0.05 * gen.standard_normal((pixels - half, 3))
    img = unmix.SpectralImage(pixels, 1, 3, np.vstack([a, b]))
    cli.save_image(img, tmp_path / "img")
    return img, tmp_path / "img.json"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_image_round_trip_2x2x1(tmp_path):
    img = unmix.SpectralImage(2, 2, 1, np.array([[1.0], [2.0], [3.0], [4.0]]))
    cli.save_image(img, tmp_path / "tiny")
    back = cli.load_image(tmp_path / "tiny.json")
    assert (back.width, back.height, back.bands) == (2, 2, 1)
    assert back.data.shape == (4, 1)
    assert np.array_equal(back.data, img.data)


def test_image_round_trip_bitwise(tmp_path):
    gen = seeded("cli-roundtrip")
    img = unmix.SpectralImage(5, 4, 7, gen.standard_normal((20, 7)))
    cli.save_image(img, tmp_path / "img")
    back = cli.load_image(tmp_path / "img.json")
    assert np.array_equal(back.data, img.data)
    cli.save_image(back, tmp_path / "img2")
    assert (tmp_path / "img.bin").read_bytes() == (tmp_path / "img2.bin").read_bytes()


def test_image_truncated_data(tmp_path):
    img = unmix.SpectralImage(2, 1, 2, np.ones((2, 2)))
    cli.save_image(img, tmp_path / "img")
    blob = (tmp_path / "img.bin").read_bytes()
    (tmp_path / "img.bin").write_bytes(blob[:-8])
    with pytest.raises(errors.LengthMismatchError):
        cli.load_image(tmp_path / "img.json")


def test_image_header_errors(tmp_path):
    p = tmp_path / "img.json"
    p.write_text("{broken", encoding="utf-8")
    with pytest.raises(errors.HeaderError):
        cli.load_image(p)
    p.write_text('{"width": 1, "height": 1}', encoding="utf-8")
    with pytest.raises(errors.HeaderError):
        cli.load_image(p)
    p.write_text(
        json.dumps(
            {
                "width": 1,
                "height": 1,
                "bands": 1,
                "dtype": "u8",
                "layout": "pixel-major",
                "data_file": "img.bin",
            }
        ),
        encoding="utf-8",
    )
    with pytest.raises(errors.DtypeError):
        cli.load_image(p)


def test_image_csv(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3,4\n", encoding="utf-8")
    img = cli.load_image(p)
    assert (img.pixels, img.bands) == (2, 2)
    assert np.array_equal(img.data, [[1.0, 2.0], [3.0, 4.0]])


def test_image_csv_header_row(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("band0,band1\n1,2\n3,4\n", encoding="utf-8")
    assert cli.load_image(p).pixels == 2


def test_image_csv_errors(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3\n", encoding="utf-8")
    with pytest.raises(errors.FormatError, match="row 2 has 1 fields, expected 2"):
        cli.load_image(p)
    p.write_text("", encoding="utf-8")
    with pytest.raises(errors.FormatError):
        cli.load_image(p)
    p.write_text("a,b\nc,d\n", encoding="utf-8")
    with pytest.raises(errors.FormatError, match="row 2: could not convert string to float: 'c'"):
        cli.load_image(p)
    p.write_text("band0,band1\n1,2\n3,4\n5,x\n", encoding="utf-8")
    with pytest.raises(errors.FormatError, match="row 4: could not convert string to float: 'x'"):
        cli.load_image(p)


CSV_CASES = {
    "plain": "1,2\n3,4\n",
    "header": "band0,band1\n1,2\n3,4\n",
    "blank rows": "1,2\n\n3,4\n\n",
    "all-empty row": "1,2\n,\n3,4\n",
    "whitespace row": "1,2\n  \n3,4\n",
    "quoted cells": '"1",2\n3,"4"\n',
    "hash in a cell": "1,2\n3,#4\n",
    "hash first": "#1,2\n3,4\n",
    "ragged": "1,2\n3\n",
    "trailing comma": "1,2,\n3,4,\n",
    "one row": "1.5,-2e-3,7\n",
    "one column": "1\n2\n3\n",
    "crlf": "1,2\r\n3,4\r\n",
    "empty": "",
    "blank only": "\n\n",
    "header only": "a,b\n",
    "bad cell": "band0,band1\n1,2\n5,x\n",
}


def _read_outcome(path):
    try:
        data = cli._read_csv_matrix(path)
    except errors.FormatError as exc:
        return type(exc), str(exc)
    return data.shape, data.tobytes()


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_csv_fast_path_matches_the_csv_parser(tmp_path, monkeypatch, case):
    """Reading through np.loadtxt first gives the same array or the same
    error text as the csv-module parser alone."""
    p = tmp_path / "m.csv"
    p.write_text(CSV_CASES[case], encoding="utf-8", newline="")
    got = _read_outcome(p)

    def refuse(*args, **kwargs):
        raise ValueError("fast path disabled")

    monkeypatch.setattr(np, "loadtxt", refuse)
    assert got == _read_outcome(p)


def test_parse_point():
    assert np.array_equal(cli._parse_point("1.5,-2"), [1.5, -2.0])
    with pytest.raises(errors.InputError):
        cli._parse_point("1,zap")


def test_parse_k_values():
    assert cli._parse_k_values("1..5") == (1, 2, 3, 4, 5)
    assert cli._parse_k_values("5,10,20") == (5, 10, 20)
    assert cli._parse_k_values("1..3,10") == (1, 2, 3, 10)
    assert cli._parse_k_values("2,2,1..2") == (1, 2)
    with pytest.raises(errors.InputError):
        cli._parse_k_values("4..x")
    with pytest.raises(errors.InputError):
        cli._parse_k_values(",")


def test_cmd_minnorm(tmp_path, capsys):
    path = tmp_path / "square.json"
    geom.save_polyhedron(square(), path)
    code, out, err = run_cli(
        capsys, "minnorm", "--polyhedron", str(path), "--point", "2,2"
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert np.allclose(doc["point"], [1.0, 1.0], atol=1e-9)
    assert doc["signed_distance"] == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_cmd_reduce_stdout(tmp_path, capsys):
    P = geom.PolyhedronH.from_rows(
        [(1, [1, 0]), (1, [0, 1]), (2, [-1, -1]), (3, [1, 0]), (2, [1, 1])]
    )
    path = tmp_path / "p.json"
    geom.save_polyhedron(P, path)
    code, out, _ = run_cli(capsys, "reduce", "--polyhedron", str(path))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["halfspaces"]) == 3


def test_cmd_reduce_to_file(tmp_path, capsys):
    P = geom.PolyhedronH.from_rows([(1, [1, 0]), (1, [0, 1]), (5, [1, 0])])
    path = tmp_path / "p.json"
    out_path = tmp_path / "reduced.json"
    geom.save_polyhedron(P, path)
    code, out, _ = run_cli(
        capsys, "reduce", "--polyhedron", str(path), "--out", str(out_path)
    )
    assert code == 0
    assert json.loads(out) == {
        "halfspaces_in": 3,
        "halfspaces_kept": 2,
        "out": str(out_path),
    }
    assert geom.load_polyhedron(out_path).k == 2


def test_cmd_bench(tmp_path, capsys):
    out_path = tmp_path / "bench.csv"
    code, out, _ = run_cli(
        capsys,
        "bench", "--mode", "fixed-n", "--k", "2,3", "--reps", "2",
        "--seed", "1", "--out", str(out_path),
    )
    assert code == 0
    assert json.loads(out) == {"out": str(out_path), "rows": 4, "truncated": 0}
    assert out_path.exists()


def test_cmd_unmix_abundance_contract(tmp_path, capsys):
    _, header = toy_image(tmp_path)
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(
        capsys,
        "unmix", "--image", str(header), "--classifier", "kmeans",
        "--classes", "2", "--mode", "abundance", "--seed", "4",
        "--out", str(out_dir),
    )
    assert code == 0
    assert json.loads(out) == {"out": str(out_dir), "runs": 1}
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["abundance.bin", "abundance.json", "endmembers.csv", "manifest.json"]
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["settings"]["clip_abundances"] is False
    assert manifest["runs"][0]["seed"] == 4
    assert set(manifest["runs"][0]["timings_s"]) == {"fit", "distance", "abundance"}
    assert manifest["engine"] == _kernel.ENGINE
    assert manifest["native_error"] == _kernel.NATIVE_ERROR


@pytest.mark.parametrize("classifier", ["kmeans", "gmm-svm"])
def test_cmd_unmix_manifest_records_fit_counters(tmp_path, capsys, classifier):
    _, header = toy_image(tmp_path, pixels=200)
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(
        capsys,
        "unmix", "--image", str(header), "--classifier", classifier,
        "--classes", "2", "--mode", "probability", "--out", str(out_dir),
    )
    assert code == 0
    fit = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["runs"][0]["fit"]
    if classifier == "kmeans":
        assert set(fit) == {"lloyd_sweeps", "lloyd_capped"}
        assert fit["lloyd_sweeps"] >= 1 and fit["lloyd_capped"] is False
    else:
        assert set(fit) == {"em_iterations", "svm_pairs"}
        assert fit["em_iterations"] >= 1
        [pair] = fit["svm_pairs"]
        assert set(pair) == {"classes", "objective", "margin_violators", "iterations", "gap", "converged"}
        assert pair["classes"] == [0, 1] and pair["objective"] > 0.0
        assert pair["iterations"] >= 1 and pair["converged"] is True and 0.0 <= pair["gap"] <= 1e-9


def test_cmd_unmix_manifest_says_why_a_run_is_pure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(_kernel, "ENGINE", "python")
    monkeypatch.setattr(_kernel, "NATIVE_ERROR", "No module named 'polyx._kernel.native'")
    _, header = toy_image(tmp_path)
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(
        capsys,
        "unmix", "--image", str(header), "--classifier", "kmeans",
        "--classes", "2", "--mode", "probability", "--out", str(out_dir),
    )
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["engine"] == "python"
    assert manifest["native_error"] == "No module named 'polyx._kernel.native'"


def test_cmd_unmix_same_seed_bitwise(tmp_path, capsys):
    _, header = toy_image(tmp_path)
    blobs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code, _, _ = run_cli(
            capsys,
            "unmix", "--image", str(header), "--classifier", "kmeans",
            "--classes", "2", "--mode", "abundance", "--seed", "9",
            "--out", str(out_dir),
        )
        assert code == 0
        blobs.append((out_dir / "abundance.bin").read_bytes())
    assert blobs[0] == blobs[1]


def test_cmd_unmix_probability_multirun_with_truth(tmp_path, capsys):
    img, header = toy_image(tmp_path)
    truth = np.zeros((img.pixels, 2))
    truth[: img.pixels // 2, 0] = 1.0
    truth[img.pixels // 2 :, 1] = 1.0
    tpath = tmp_path / "truth.csv"
    tpath.write_text(
        "\n".join(",".join(f"{v}" for v in row) for row in truth) + "\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "runs"
    code, out, _ = run_cli(
        capsys,
        "unmix", "--image", str(header), "--classifier", "kmeans",
        "--classes", "2", "--mode", "probability", "--seed", "11",
        "--runs", "2", "--truth", str(tpath), "--pgm", "--out", str(out_dir),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["runs"] == 2 and 0.0 <= summary["mean_rmse"] <= 1.0
    names = {p.name for p in out_dir.iterdir()}
    assert {
        "probability_000.json", "probability_000.bin",
        "probability_001.json", "probability_001.bin",
        "probability_000_class0.pgm", "probability_001_class1.pgm",
        "rmse.csv", "manifest.json",
    } <= names
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert [r["seed"] for r in manifest["runs"]] == [11, 12]
    assert all("rmse" in r for r in manifest["runs"])


def test_cmd_unmix_truth_shape_guard(tmp_path, capsys):
    _, header = toy_image(tmp_path)
    (tmp_path / "truth.csv").write_text("1,0\n0,1\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys,
        "unmix", "--image", str(header), "--classifier", "kmeans",
        "--classes", "2", "--mode", "abundance", "--seed", "0",
        "--truth", str(tmp_path / "truth.csv"), "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert json.loads(err)["error"]["code"] == "invalid-input"


def test_cmd_unmix_accepts_and_ignores_threads(tmp_path, capsys):
    _, header = toy_image(tmp_path)
    code, _, _ = run_cli(
        capsys,
        "unmix", "--image", str(header), "--classifier", "kmeans", "--classes", "2",
        "--mode", "probability", "--threads", "3", "--out", str(tmp_path / "o"),
    )
    assert code == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text(encoding="utf-8"))
    assert "threads" not in manifest["settings"]
    assert set(manifest["runs"][0]["timings_s"]) == {"fit", "distance", "density"}
    with pytest.raises(SystemExit):
        cli.main(["unmix", "--help"])
    assert "--threads" not in capsys.readouterr().out


def test_cmd_rmse(tmp_path, capsys):
    (tmp_path / "a.csv").write_text("1,0\n0,1\n", encoding="utf-8")
    (tmp_path / "b.csv").write_text("0,1\n1,0\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        "rmse", "--est", str(tmp_path / "a.csv"), "--truth", str(tmp_path / "b.csv"),
        "--permute",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rmse"] == pytest.approx(0.0, abs=1e-15)
    assert doc["permutation"] == [1, 0]


def test_error_envelope_bad_format(tmp_path, capsys):
    bad = tmp_path / "p.json"
    bad.write_text("{nope", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "minnorm", "--polyhedron", str(bad), "--point", "0,0"
    )
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"]["code"] == "bad-format"
    assert doc["error"]["message"]


def test_error_envelope_search_exhausted(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        _kernel, "min_norm_point", lambda V, S, x, **kw: (x, 3, _kernel.EXHAUSTED)
    )
    path = tmp_path / "square.json"
    geom.save_polyhedron(square(), path)
    code, out, err = run_cli(
        capsys, "minnorm", "--polyhedron", str(path), "--point", "2,2"
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "search-exhausted"


@pytest.mark.parametrize(
    "status,expected", [(_kernel.EXHAUSTED, "search-exhausted"), (_kernel.INSIDE, "error")]
)
def test_error_envelope_bench_status(tmp_path, capsys, monkeypatch, status, expected):
    monkeypatch.setattr(_kernel, "min_norm_point", lambda V, S, x, **kw: (x, 3, status))
    code, out, err = run_cli(
        capsys, "bench", "--mode", "fixed-n", "--k", "2", "--reps", "1",
        "--out", str(tmp_path / "b.csv"),
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == expected


def test_error_envelope_io(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "minnorm", "--polyhedron", str(tmp_path / "missing.json"),
        "--point", "0,0",
    )
    assert code == 2
    assert json.loads(err)["error"]["code"] == "io-error"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("polyx ")
    assert f", numpy {np.__version__}" in out
    assert f"engine: {_kernel.ENGINE}" in out
    if _kernel.NATIVE_ERROR is not None:
        assert _kernel.NATIVE_ERROR in out


@pytest.mark.parametrize(
    "config, expected",
    [
        ({"Build Dependencies": {"blas": {"name": "openblas", "found": True}}}, f", numpy {np.__version__} (openblas), "),
        ({"Build Dependencies": {}}, f", numpy {np.__version__}, "),
        (None, f", numpy {np.__version__}, "),
    ],
)
def test_version_flag_names_numpy_and_its_blas(capsys, monkeypatch, config, expected):
    def show_config(mode="stdout"):
        if config is None:  # NumPy before 1.26 takes no mode
            raise TypeError("show_config() got an unexpected keyword argument 'mode'")
        return config

    monkeypatch.setattr(np, "show_config", show_config)
    with pytest.raises(SystemExit):
        cli.main(["--version"])
    assert expected in capsys.readouterr().out


@pytest.mark.parametrize(
    "engine, native_error, expected",
    [
        ("native", None, "engine: native\n"),
        ("python", None, "engine: python (POLYX_PURE is set)\n"),
        ("python", "No module named 'polyx._kernel.native'",
         "engine: python (native import failed: No module named 'polyx._kernel.native')\n"),
    ],
)
def test_version_flag_names_engine_and_why_it_is_pure(capsys, monkeypatch, engine, native_error, expected):
    monkeypatch.setattr(_kernel, "ENGINE", engine)
    monkeypatch.setattr(_kernel, "NATIVE_ERROR", native_error)
    with pytest.raises(SystemExit):
        cli.main(["--version"])
    out = capsys.readouterr().out
    assert out.startswith("polyx ") and out.endswith(expected)
