"""k-means/Voronoi and GMM/SVM partition builders."""

import numpy as np
import pytest

from helpers import seeded
from polyx import classify, errors, geom, rng


def equilateral(radius=1.0):
    angles = np.deg2rad([90.0, 210.0, 330.0])
    return radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def blobs(gen, centers, sigma, per):
    centers = np.asarray(centers, dtype=float)
    pts = [c + sigma * gen.standard_normal((per, centers.shape[1])) for c in centers]
    labels = np.repeat(np.arange(len(centers)), per)
    return np.vstack(pts), labels


def test_kmeans_two_repeated_values():
    m = classify.kmeans_fit([[0.0], [0.0], [10.0], [10.0]], K=2, seed=7)
    assert sorted(m.centroids.ravel().tolist()) == [0.0, 10.0]
    assert m.inertia == 0.0


def test_kmeans_recovers_distinct_repeats():
    pts = np.array([[0.0, 0.0], [5.0, 1.0], [-2.0, 3.0]])
    data = np.repeat(pts, 4, axis=0)
    m = classify.kmeans_fit(data, K=3, seed=3)
    got = sorted(map(tuple, m.centroids.tolist()))
    assert got == sorted(map(tuple, pts.tolist()))
    assert m.inertia == pytest.approx(0.0, abs=1e-20)


def test_kmeans_determinism():
    gen = seeded("kmeans-det")
    data = gen.normal(size=(60, 3))
    a = classify.kmeans_fit(data, K=4, seed=11)
    b = classify.kmeans_fit(data, K=4, seed=11)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.inertia == b.inertia


def test_kmeans_validation():
    with pytest.raises(errors.InputError):
        classify.kmeans_fit([[0.0], [1.0]], K=1, seed=0)
    with pytest.raises(errors.InputError):
        classify.kmeans_fit([[0.0]], K=2, seed=0)
    with pytest.raises(errors.InputError):
        classify.KMeansModel(np.array([[0.0], [0.0]]), 0.0, 0)


def test_voronoi_bisector_1d():
    m = classify.KMeansModel(np.array([[0.0], [10.0]]), 0.0, 0)
    part = classify.voronoi_partition(m)
    a = part.polyhedra[0].halfspaces[0]
    b = part.polyhedra[1].halfspaces[0]
    assert np.allclose(a.normal, [1.0]) and a.offset == pytest.approx(5.0)
    assert np.allclose(b.normal, [-1.0]) and b.offset == pytest.approx(-5.0)


def test_voronoi_equilateral_bisectors_through_center():
    # vertices are equidistant from the origin, so every bisector passes it
    m = classify.KMeansModel(equilateral(), 0.0, 0)
    part = classify.voronoi_partition(m)
    for p in part.polyhedra:
        assert p.k == 2
        for h in p.halfspaces:
            assert h.offset == pytest.approx(0.0, abs=1e-12)


def test_voronoi_pairwise_negation():
    gen = seeded("voronoi-pair")
    m = classify.KMeansModel(gen.normal(size=(2, 3)), 0.0, 0)
    part = classify.voronoi_partition(m)
    a = part.polyhedra[0].halfspaces[0]
    b = part.polyhedra[1].halfspaces[0]
    assert np.allclose(a.normal, -b.normal, atol=1e-15)
    assert a.offset == pytest.approx(-b.offset, abs=1e-15)


def _complementarity(part, points):
    for x in points:
        owners = [
            i
            for i, p in enumerate(part.polyhedra)
            if geom.contains(p, x, tol=1e-9)
        ]
        assert len(owners) >= 1
        if len(owners) > 1:
            near = min(
                abs(float(x @ h.normal) - h.offset)
                for i in owners
                for h in part.polyhedra[i].halfspaces
            )
            assert near <= 1e-7


def test_partition_complementarity_voronoi():
    gen = seeded("complementarity")
    m = classify.kmeans_fit(gen.normal(size=(200, 2)) * 2.0, K=5, seed=5)
    part = classify.voronoi_partition(m)
    points = gen.uniform(-4, 4, size=(10_000, 2))
    _complementarity(part, points)


def test_voronoi_argmin_matches_containment():
    gen = seeded("voronoi-argmin")
    m = classify.kmeans_fit(gen.normal(size=(120, 2)), K=4, seed=9)
    part = classify.voronoi_partition(m)
    pts = gen.uniform(-3, 3, size=(500, 2))
    dist = classify.centroid_distances(m, pts)
    order = np.sort(dist, axis=1)
    for x, row, gap in zip(pts, dist.argmin(axis=1), order[:, 1] - order[:, 0]):
        if gap <= 1e-9:
            continue
        assert geom.contains(part.polyhedra[row], x, tol=1e-9)


def tie_construction(gen):
    """500 rows near 4 centroids, then 20 rows equidistant from centroids 1
    and 3."""
    centroids = gen.normal(size=(4, 156))
    centroids[3] = centroids[1]
    centroids[1, 0], centroids[3, 0] = 0.5, -0.5
    # equidistant from centroids 1 and 3: first coordinate 0, the rest shared
    ties = centroids[1] + 0.01 * gen.normal(size=(20, 156))
    ties[:, 0] = 0.0
    near = [c + 0.3 * gen.normal(size=(125, 156)) for c in centroids]
    return centroids, np.vstack(near + [ties])


def test_kmeans_labels_and_distances_equal_broadcast_formula():
    """Centroid-at-a-time distances are bitwise the broadcast sums, and a
    tie goes to the lowest index."""
    centroids, data = tie_construction(seeded("kmeans-broadcast"))
    model = classify.KMeansModel(centroids, 0.0, 0)
    d2 = ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(-1)
    dist = classify.centroid_distances(model, data)
    labels = classify.kmeans_labels(model, data)
    assert np.array_equal(dist, np.sqrt(d2))
    assert np.array_equal(labels, d2.argmin(axis=1))
    assert np.array_equal(dist[-20:, 1], dist[-20:, 3])
    assert (labels[-20:] == 1).all()
    assert len(set(labels[:500])) == 4


def near_ties(gen, scale=1.0, offset=0.0):
    """400 rows whose distances to centroids 0 and 1 differ by 1e-6 to 1e2
    times the rounding bound of the expanded form, either way round, so the
    bound decides some and leaves others to the exact formula; then 300
    rows clear of any tie."""
    bands = 156
    centroids = offset + scale * gen.uniform(0.05, 0.6, size=(3, bands))
    axis = centroids[1] - centroids[0]
    length = float(np.linalg.norm(axis))
    mid = (centroids[0] + centroids[1]) / 2.0
    lateral = gen.normal(size=(400, bands))
    lateral -= np.outer(lateral @ axis / length**2, axis)
    rough_bound = 16 * (bands + 4) * np.finfo(float).eps * 2 * float((centroids**2).sum(1).max())
    gaps = rough_bound * np.logspace(-6, 2, 400) * gen.choice([-1.0, 1.0], 400)
    # a step t along the unit axis moves the two squared distances 2 t |axis| apart
    ties = mid + 1e-3 * scale * lateral + np.outer(gaps / (2 * length), axis / length)
    clear = [c + 0.05 * scale * gen.normal(size=(100, bands)) for c in centroids]
    return centroids, np.vstack([ties] + clear)


def abundance_cube(gen, pixels, bands=156, classes=3):
    """Linear mixtures of `classes` reflectance spectra plus noise."""
    spectra = gen.uniform(0.05, 0.6, size=(classes, bands))
    abund = gen.dirichlet(np.full(classes, 0.5), size=pixels)
    return abund @ spectra + 0.01 * gen.normal(size=(pixels, bands))


def raw_dn(data):
    """Reflectance to raw sensor counts: most of |x|^2 is the shared offset."""
    return data * 1e4 + 3e3


@pytest.fixture
def rechecked_rows(monkeypatch):
    """Row counts of the calls `_assign` makes to the exact formula."""
    exact = classify._sq_distances
    calls: list[int] = []

    def counting(data, centers):
        calls.append(data.shape[0])
        return exact(data, centers)

    monkeypatch.setattr(classify, "_sq_distances", counting)
    return calls


@pytest.fixture(scope="module")
def assign_cases():
    gen = seeded("certified-assign")
    centroids, data = tie_construction(gen)
    cube = abundance_cube(gen, 9025)
    return {
        "ties": (centroids, data),
        "ties-dn": (raw_dn(centroids), raw_dn(data)),
        "near-ties": near_ties(gen),
        "near-ties-dn": near_ties(gen, scale=1e4, offset=3e3),
        "cube-9025x156": (cube[gen.choice(9025, 3, replace=False)], cube),
        "cube-9025x156-dn": (raw_dn(cube[:3] + cube[3:6]) / 2.0, raw_dn(cube)),
    }


@pytest.mark.parametrize(
    "case",
    ["ties", "ties-dn", "near-ties", "near-ties-dn", "cube-9025x156", "cube-9025x156-dn"],
)
def test_assign_equals_exact_formula_argmin(case, assign_cases, rechecked_rows):
    """The expanded form with its recheck gives, bitwise, the labels of the
    exact per-centroid formula, ties to the lowest index included."""
    centroids, data = assign_cases[case]
    want = classify._sq_distances(data, centroids).argmin(axis=1)
    rechecked_rows.clear()
    got = classify._assign(data, centroids, classify._row_sq_norms(data))
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    if case.startswith(("ties", "near-ties")):
        # tied rows can only be settled by the exact formula
        assert sum(rechecked_rows) > 0
    if case == "near-ties-dn":
        assert sum(rechecked_rows) >= 100


def _parent_lloyd(data, K, seed):
    """Lloyd's loop as it stood before the expanded-form assignment: every
    sweep labels rows by the exact formula's argmin."""

    def assign(centers):
        return classify._sq_distances(data, centers).argmin(axis=1)

    gen = rng.stream(seed, "kmeans")
    centers = classify._kmeans_init(data, K, gen)
    labels = assign(centers)
    for sweeps in range(1, 301):
        max_shift = 0.0
        reseeded: set[int] = set()
        for k in range(K):
            mask = labels == k
            if not mask.any():
                dist = ((data - centers[labels]) ** 2).sum(1)
                if reseeded:
                    dist[list(reseeded)] = -np.inf
                far = int(dist.argmax())
                reseeded.add(far)
                centers[k] = data[far]
                labels[far] = k
                mask = labels == k
            new_center = data[mask].mean(axis=0)
            max_shift = max(max_shift, float(np.linalg.norm(new_center - centers[k])))
            centers[k] = new_center
        labels = assign(centers)
        if max_shift < 1e-6:
            break
    inertia = float(((data - centers[labels]) ** 2).sum())
    return centers, inertia, sweeps


@pytest.mark.parametrize("case", ["blobs-2d", "near-ties-dn", "cube-dn"])
def test_kmeans_fit_equals_exact_lloyd_loop(case):
    gen = seeded(f"certified-lloyd-{case}")
    if case == "blobs-2d":
        data, K = 2.0 * gen.normal(size=(600, 2)), 5
    elif case == "near-ties-dn":
        data, K = near_ties(gen, scale=1e4, offset=3e3)[1], 3
    else:
        data, K = raw_dn(abundance_cube(gen, 2500)), 3
    centers, inertia, sweeps = _parent_lloyd(data, K, seed=3)
    m = classify.kmeans_fit(data, K, seed=3)
    assert np.array_equal(m.centroids, centers)
    assert m.inertia == inertia
    assert (m.sweeps, m.capped) == (sweeps, False)


def test_gmm_single_component_moments():
    gen = seeded("gmm-single")
    data = gen.multivariate_normal([1.0, -2.0], [[2.0, 0.3], [0.3, 0.5]], size=400)
    m = classify.gmm_fit(data, K=1, seed=0, subsample_ratio=1.0)
    assert m.weights[0] == pytest.approx(1.0)
    assert np.allclose(m.means[0], data.mean(axis=0), atol=1e-9)
    # ridge perturbs the diagonal by 1e-6 of the mean variance
    assert np.allclose(m.covariances[0], np.cov(data.T, bias=True), atol=1e-5)


def test_gmm_separated_blobs_hard_responsibilities():
    gen = seeded("gmm-blobs")
    data, _ = blobs(gen, [[0.0, 0.0], [1.0, 0.0]], sigma=0.1, per=300)
    m = classify.gmm_fit(data, K=2, seed=4, subsample_ratio=0.5)
    resp = classify.gmm_responsibilities(m, data)
    assert (resp.max(axis=1) > 0.99).mean() > 0.99


def test_gmm_loglik_non_decreasing():
    gen = seeded("gmm-ll")
    data, _ = blobs(gen, [[0.0, 0.0], [2.0, 1.0], [-1.0, 3.0]], sigma=0.6, per=120)
    m = classify.gmm_fit(data, K=3, seed=2, subsample_ratio=0.5)
    path = np.asarray(m.loglik_path)
    assert path.size >= 2
    slack = 1e-9 * np.maximum(1.0, np.abs(path[:-1]))
    assert (np.diff(path) >= -slack).all()


def test_gmm_determinism():
    gen = seeded("gmm-det")
    data, _ = blobs(gen, [[0.0, 0.0], [3.0, 0.0]], sigma=0.5, per=100)
    a = classify.gmm_fit(data, K=2, seed=12)
    b = classify.gmm_fit(data, K=2, seed=12)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.covariances, b.covariances)


def test_gmm_validation():
    data = np.zeros((50, 2))
    with pytest.raises(errors.InputError):
        classify.gmm_fit(data, K=2, seed=0, subsample_ratio=0.0)
    with pytest.raises(errors.InputError):
        classify.gmm_fit(data, K=2, seed=0, subsample_ratio=0.2)  # 10 < 10*2
    with pytest.raises(errors.InputError):
        classify.gmm_fit(data, K=0, seed=0)
    with pytest.raises(errors.InputError):
        classify.GmmModel(np.array([0.7, 0.7]), np.zeros((2, 1)), np.ones((2, 1, 1)), 0)


def test_svm_midpoint_frontier_1d():
    data = np.array([[-1.0], [-1.0], [1.0], [1.0]])
    labels = np.array([0, 0, 1, 1])
    part = classify.ovo_svm_partition(data, labels, K=2, seed=0)
    h = part.polyhedra[0].halfspaces[0]
    assert np.allclose(h.normal, [1.0], atol=1e-6)
    assert h.offset == pytest.approx(0.0, abs=1e-6)
    assert geom.contains(part.polyhedra[0], [-1.0], tol=1e-6)
    assert geom.contains(part.polyhedra[1], [1.0], tol=1e-6)


def test_svm_primal_objective_and_margin_violators():
    X = np.array([[-1.0], [-1.0], [1.0], [1.0]])
    t = np.array([-1.0, -1.0, 1.0, 1.0])
    # margins 0.5: every row violates, hinge 0.5 each
    assert classify._svm_primal(X, t, np.array([0.5, 0.0])) == (0.125 + 2.0, 4)
    assert classify._svm_primal(X, t, np.array([2.0, 0.0])) == (2.0, 0)
    # the bias is the last weight: it shifts the margins and counts in |w|^2
    assert classify._svm_primal(X, t, np.array([2.0, 1.5])) == (0.5 * 6.25 + 2 * 0.5, 2)


def test_svm_partition_metadata_lists_every_pair():
    gen = seeded("svm-metadata")
    data, labels = blobs(gen, [[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]], sigma=0.5, per=40)
    part = classify.ovo_svm_partition(data, labels, K=3, seed=5)
    assert part.metadata["seed"] == 5
    pairs = part.metadata["svm_pairs"]
    assert [p["classes"] for p in pairs] == [[0, 1], [0, 2], [1, 2]]
    for p in pairs:
        assert isinstance(p["margin_violators"], int) and 0 <= p["margin_violators"] <= 80
        assert np.isfinite(p["objective"]) and p["objective"] > 0.0


def test_svm_separable_blobs_no_hinge_violations():
    gen = seeded("svm-blobs")
    data, labels = blobs(gen, [[0.0, 0.0], [10.0, 0.0]], sigma=0.3, per=60)
    part = classify.ovo_svm_partition(data, labels, K=2, seed=0)
    h = part.polyhedra[0].halfspaces[0]
    # class 0 on the <= side, class 1 on the > side, both clear of the margin
    margins = data @ h.normal - h.offset
    scale = np.linalg.norm(h.normal)  # unit by construction
    assert scale == pytest.approx(1.0)
    assert (margins[labels == 0] < 0).all()
    assert (margins[labels == 1] > 0).all()


def test_svm_recovers_voronoi_bisectors():
    """Labels synthesized from known bisectors come back within 5 degrees."""
    gen = seeded("svm-voronoi")
    centroids = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 3.5]])
    km = classify.KMeansModel(centroids, 0.0, 0)
    ref = classify.voronoi_partition(km)
    pts = gen.uniform(-3, 7, size=(900, 2))
    labels = classify.centroid_distances(km, pts).argmin(axis=1)
    part = classify.ovo_svm_partition(pts, labels, K=3, seed=0)
    for p_ref, p_got in zip(ref.polyhedra, part.polyhedra):
        for h_ref, h_got in zip(p_ref.halfspaces, p_got.halfspaces):
            cosang = float(np.clip(h_ref.normal @ h_got.normal, -1.0, 1.0))
            assert np.degrees(np.arccos(cosang)) < 5.0


def test_svm_validation():
    data = np.array([[0.0], [1.0], [2.0]])
    with pytest.raises(errors.InputError):
        classify.ovo_svm_partition(data, np.array([0, 1]), K=2, seed=0)
    with pytest.raises(errors.InputError):
        classify.ovo_svm_partition(data, np.array([0, 1, 1]), K=2, seed=0)


def test_partition_model_validation():
    square_cell = geom.PolyhedronH.from_rows([(0, [1, 0]), (0, [0, 1])])
    with pytest.raises(errors.InputError):
        classify.PartitionModel(2, (square_cell, square_cell), "kmeans")
    h = geom.Halfspace.from_raw(1.0, [1.0, 0.0])
    a = geom.PolyhedronH((h,), 2)
    with pytest.raises(errors.InputError):
        classify.PartitionModel(2, (a, a), "kmeans")  # frontier not negated


def test_partition_save_load_round_trip(tmp_path):
    gen = seeded("partition-io")
    m = classify.kmeans_fit(gen.normal(size=(40, 2)), K=3, seed=1)
    part = classify.voronoi_partition(m)
    path = tmp_path / "part.json"
    classify.save_partition(part, path)
    back = classify.load_partition(path)
    assert back.K == part.K
    assert back.provenance == part.provenance
    assert back.metadata == part.metadata
    for p, q in zip(part.polyhedra, back.polyhedra):
        for h1, h2 in zip(p.halfspaces, q.halfspaces):
            assert h1.offset == h2.offset
            assert np.array_equal(h1.normal, h2.normal)


def test_partition_load_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(errors.FormatError):
        classify.load_partition(bad)
    bad.write_text('{"K": 2}', encoding="utf-8")
    with pytest.raises(errors.FormatError):
        classify.load_partition(bad)
