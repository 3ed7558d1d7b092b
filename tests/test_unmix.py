"""Endmember extraction, abundances, the probability pipeline, and RMSE."""

import numpy as np
import pytest

from helpers import seeded
from polyx import classify, density, errors, geom, minnorm, unmix


def image_1d(values):
    values = np.asarray(values, dtype=float)
    return unmix.SpectralImage(len(values), 1, 1, values[:, None])


def bisector_partition(c0, c1):
    km = classify.KMeansModel(np.array([[float(c0)], [float(c1)]]), 0.0, 0)
    return classify.voronoi_partition(km)


def test_spectral_image_validation():
    with pytest.raises(errors.InputError):
        unmix.SpectralImage(2, 2, 1, np.zeros((3, 1)))
    with pytest.raises(errors.InputError):
        unmix.SpectralImage(0, 1, 1, np.zeros((0, 1)))
    with pytest.raises(errors.InputError):
        unmix.SpectralImage(1, 1, 1, np.array([[np.nan]]))


def test_endmember_set_validation():
    with pytest.raises(errors.InputError):
        unmix.EndmemberSet(np.eye(2), (0,))


def test_extract_1d_extremes():
    img = image_1d([0.0, 0.2, 0.8, 1.0])
    part = bisector_partition(0.1, 0.9)
    ems = unmix.extract_endmembers(img, part)
    assert ems.source_pixel == (0, 3)
    assert np.allclose(ems.spectra, [[0.0], [1.0]], atol=0)


def test_extract_empty_class():
    img = image_1d([-5.0, -4.0, -6.0])
    part = bisector_partition(0.0, 10.0)
    with pytest.raises(errors.InputError):
        unmix.extract_endmembers(img, part)


def test_extract_dimension_mismatch():
    img = image_1d([0.0, 1.0])
    km = classify.KMeansModel(np.array([[0.0, 0.0], [1.0, 1.0]]), 0.0, 0)
    with pytest.raises(errors.InputError):
        unmix.extract_endmembers(img, classify.voronoi_partition(km))


def test_extract_full_scan_minimum():
    """Each pick attains the class-wide minimum signed distance, first index."""
    gen = seeded("unmix-scan")
    data = gen.uniform(-4, 4, size=(300, 2))
    img = unmix.SpectralImage(300, 1, 2, data)
    part = classify.voronoi_partition(classify.kmeans_fit(data, K=3, seed=6))
    ems = unmix.extract_endmembers(img, part)
    for k, poly in enumerate(part.polyhedra):
        d = minnorm.signed_distances(poly, data)
        pick = ems.source_pixel[k]
        assert d[pick] == d.min()
        assert pick == int(np.flatnonzero(d == d.min())[0])


def test_abundances_identity_endmembers():
    img = unmix.SpectralImage(3, 1, 3, np.eye(3))
    ems = unmix.EndmemberSet(np.eye(3), (0, 1, 2))
    A = unmix.abundances_from_endmembers(img, ems)
    assert np.allclose(A, np.eye(3), atol=1e-12)


def test_abundances_exact_mixture():
    m1 = np.array([1.0, 0.0, 2.0])
    m2 = np.array([0.0, 1.0, 1.0])
    y = 0.3 * m1 + 0.7 * m2
    img = unmix.SpectralImage(1, 1, 3, y[None, :])
    ems = unmix.EndmemberSet(np.stack([m1, m2]), (0, 0))
    A = unmix.abundances_from_endmembers(img, ems)
    assert np.allclose(A, [[0.3, 0.7]], atol=1e-12)


def test_abundances_collinear_endmembers_rejected():
    base = np.array([1.0, 2.0, 3.0, 4.0])
    spectra = np.stack([base, 2 * base, 3 * base])
    img = unmix.SpectralImage(1, 1, 4, base[None, :])
    ems = unmix.EndmemberSet(spectra, (0, 0, 0))
    with pytest.raises(errors.ConditioningError):
        unmix.abundances_from_endmembers(img, ems)


def test_abundances_more_endmembers_than_bands():
    img = unmix.SpectralImage(1, 1, 2, np.zeros((1, 2)))
    ems = unmix.EndmemberSet(np.eye(3, 2), (0, 0, 0))
    with pytest.raises(errors.InputError):
        unmix.abundances_from_endmembers(img, ems)


def test_abundances_clip_renormalizes():
    ems = unmix.EndmemberSet(np.eye(2), (0, 1))
    img = unmix.SpectralImage(2, 1, 2, np.array([[1.5, -0.5], [-1.0, -1.0]]))
    A = unmix.abundances_from_endmembers(img, ems, clip=True)
    assert np.allclose(A.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(A[0], [1.0, 0.0], atol=1e-12)
    # a row clipped to all zeros falls back to the uniform mixture
    assert np.allclose(A[1], [0.5, 0.5], atol=0)


def test_abundances_residual_orthogonality():
    gen = seeded("unmix-lstsq")
    M = gen.normal(size=(3, 6)) + 2.0
    data = gen.normal(size=(50, 6))
    img = unmix.SpectralImage(50, 1, 6, data)
    ems = unmix.EndmemberSet(M, (0, 0, 0))
    A = unmix.abundances_from_endmembers(img, ems)
    R = A @ M - data
    scale = max(1.0, float(np.abs(R).max()) * float(np.abs(M).max()))
    assert np.abs(R @ M.T).max() <= 1e-8 * scale


def test_pipeline_bisector_pixel_is_half():
    img = image_1d([0.5, 0.2, 0.8])
    part = bisector_partition(0.0, 1.0)
    dm = unmix.probability_pipeline(img, part)
    assert np.allclose(dm.values[0], [0.5, 0.5], atol=1e-12)


def test_pipeline_deep_pixel_saturates():
    gen = seeded("unmix-deep")
    vals = np.concatenate([[-300.0], gen.uniform(1.0, 9.0, size=100)])
    img = image_1d(vals)
    part = bisector_partition(0.0, 10.0)
    dm = unmix.probability_pipeline(img, part)
    assert dm.values[0, 0] > 0.999


def test_pipeline_rows_and_argmax():
    gen = seeded("unmix-argmax")
    data = gen.uniform(-4, 4, size=(2000, 2))
    img = unmix.SpectralImage(2000, 1, 2, data)
    part = classify.voronoi_partition(classify.kmeans_fit(data, K=3, seed=8))
    dm = unmix.probability_pipeline(img, part)
    assert np.abs(dm.values.sum(axis=1) - 1.0).max() <= 1e-9

    dists = unmix.class_signed_distances(img, part)
    near_frontier = (np.abs(dists) <= 1e-7).any(axis=1)
    owners = (dists <= 1e-9).sum(axis=1)
    keep = ~near_frontier & (owners == 1)
    match = dm.values[keep].argmax(axis=1) == dists[keep].argmin(axis=1)
    assert match.mean() > 0.999


def test_pipeline_basis_change_flag():
    gen = seeded("unmix-basis")
    data = gen.uniform(-4, 4, size=(200, 2))
    img = unmix.SpectralImage(200, 1, 2, data)
    part = classify.voronoi_partition(classify.kmeans_fit(data, K=3, seed=8))
    try:
        dm = unmix.probability_pipeline(img, part, use_basis_change=True)
    except errors.ConditioningError:
        return  # a legal outcome: the selected basis may be near-singular
    assert np.abs(dm.values.sum(axis=1) - 1.0).max() <= 1e-9


def test_abundance_pipeline_chains_the_two_stages(monkeypatch):
    gen = seeded("unmix-abundance-pipeline")
    data = gen.uniform(-4, 4, size=(300, 3))
    img = unmix.SpectralImage(300, 1, 3, data)
    part = classify.voronoi_partition(classify.kmeans_fit(data, K=3, seed=8))
    timings = {}
    ems, A = unmix.abundance_pipeline(img, part, clip=True, timings=timings)
    want = unmix.extract_endmembers(img, part)
    assert ems.source_pixel == want.source_pixel
    assert np.array_equal(A, unmix.abundances_from_endmembers(img, want, clip=True))
    assert set(timings) == {"distance", "abundance"}
    # both stages are looked up as module globals, so a wrapper sees them
    calls = []
    for name in ("extract_endmembers", "abundances_from_endmembers"):
        real = getattr(unmix, name)
        monkeypatch.setattr(
            unmix, name, lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k)
        )
    unmix.abundance_pipeline(img, part)
    assert calls == ["extract_endmembers", "abundances_from_endmembers"]


def test_class_signed_distances_shape_guard():
    img = image_1d([0.0, 1.0])
    km = classify.KMeansModel(np.array([[0.0, 0.0], [1.0, 1.0]]), 0.0, 0)
    with pytest.raises(errors.InputError):
        unmix.class_signed_distances(img, classify.voronoi_partition(km))


def test_rmse_zero_and_identity():
    gen = seeded("rmse-zero")
    t = gen.uniform(size=(20, 3))
    err, perm = unmix.rmse(t, t)
    assert err == 0.0
    assert perm == (0, 1, 2)


def test_rmse_recovers_swap():
    gen = seeded("rmse-swap")
    t = gen.uniform(size=(30, 3))
    est = t[:, [2, 0, 1]]
    err, perm = unmix.rmse(est, t, permute=True)
    assert err == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(est[:, list(perm)], t, atol=0)


def test_rmse_uniform_offset():
    gen = seeded("rmse-offset")
    t = gen.uniform(size=(25, 2))
    err, _ = unmix.rmse(t + 0.1, t)
    assert err == pytest.approx(0.1, abs=1e-12)


def test_rmse_permute_never_worse():
    gen = seeded("rmse-permute")
    for _ in range(20):
        a = gen.uniform(size=(15, 4))
        b = gen.uniform(size=(15, 4))
        plain, _ = unmix.rmse(a, b)
        best, _ = unmix.rmse(a, b, permute=True)
        assert best <= plain


def test_rmse_guards():
    with pytest.raises(errors.InputError):
        unmix.rmse(np.zeros((2, 2)), np.zeros((3, 2)))
    big = np.zeros((2, 9))
    with pytest.raises(errors.InputError):
        unmix.rmse(big, big, permute=True)
