"""Kernel evaluation, discriminant matrices, eigen solve and refinement."""

import math

import numpy as np
import pytest
import scipy.linalg as sla

from kfdaseg.kfda import (KernelSpec, KfdaConfig, KrylovBasis, SubdomainData,
                          TrainingSet, _stratified_cap, build_matrices, categorize,
                          classify_outliers_mahalanobis, classify_subdomain,
                          default_beta, kernel_matrix, nearest_prototype_sides,
                          neighborhood_matrix, solve_alpha, ssim_guided_decision)
from kfdaseg.ssim import mssim
from kfdaseg.volume import BG, CSF, GM, WM
from oracles import (between, classify_overlap_knn, graph_edges, kernel_eval,
                     penalty, project, roughness)


def subdata_line(features):
    """Trivial 1D geometry whose voxels are the given feature rows."""
    features = np.asarray(features, dtype=np.float64)
    n = len(features)
    return SubdomainData.from_mask(features.reshape(n, 1, 1, -1),
                                   np.ones((n, 1, 1), dtype=bool))


def simple_training(features, labels):
    return TrainingSet(features, labels)


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def test_rbf_at_zero_distance_is_one():
    x = np.array([0.3, 0.5, 0.7])
    assert kernel_eval(KernelSpec.rbf(0.5), x, x) == 1.0


def test_sigmoid_published_parameters():
    # orthogonal vectors: tanh(8*0 - 0.0005) = tanh(-0.0005)
    x = np.array([1.0, 0.0, 0.0])
    z = np.array([0.0, 1.0, 0.0])
    value = kernel_eval(KernelSpec.sigmoid(8.0, -0.0005), x, z)
    assert value == pytest.approx(math.tanh(-0.0005), abs=1e-15)
    assert value == pytest.approx(-0.0005, abs=1e-7)


def test_rbf_published_bandwidth():
    x = np.array([0.5, 0.0, 0.0])
    z = np.array([0.0, 0.0, 0.0])     # distance 0.5, sigma 0.5
    value = kernel_eval(KernelSpec.rbf(0.5), x, z)
    assert value == pytest.approx(0.6065306597126334, abs=1e-12)


def test_kernel_matrix_matches_pointwise():
    rng = np.random.default_rng(0)
    xs = rng.random((6, 3))
    zs = rng.random((4, 3))
    for spec in (KernelSpec.rbf(0.7), KernelSpec.sigmoid(3, -0.01),
                 KernelSpec.linear()):
        mat = kernel_matrix(spec, xs, zs)
        for i in range(6):
            for j in range(4):
                assert mat[i, j] == pytest.approx(kernel_eval(spec, xs[i], zs[j]),
                                                  abs=1e-12)


def test_gram_symmetric_and_rbf_psd():
    rng = np.random.default_rng(1)
    for _ in range(5):
        xs = rng.random((40, 3))
        for spec in (KernelSpec.rbf(0.5), KernelSpec.sigmoid(8, -0.0005),
                     KernelSpec.linear()):
            gram = kernel_matrix(spec, xs, xs)
            assert np.allclose(gram, gram.T, atol=1e-12)
        rbf = kernel_matrix(KernelSpec.rbf(0.5), xs, xs)
        assert sla.eigvalsh(0.5 * (rbf + rbf.T)).min() >= -1e-8


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

def test_single_sample_classes_give_zero_within():
    feats = np.array([[0.0, 0.0], [1.0, 1.0]])
    ts = simple_training(feats, np.array([-1, 1]))
    mats = build_matrices(ts, KernelSpec.linear(), subdata_line(feats))
    m_diff = mats.m_neg - mats.m_pos
    assert np.allclose(between(mats), np.outer(m_diff, m_diff), atol=1e-12)
    assert np.allclose(mats.within, 0.0, atol=1e-10)


def test_within_matches_literal_centering_formula():
    rng = np.random.default_rng(2)
    feats = rng.random((12, 3))
    labels = np.array([-1] * 5 + [1] * 7)
    ts = simple_training(feats, labels)
    mats = build_matrices(ts, KernelSpec.rbf(0.6), subdata_line(feats))
    k_neg = mats.gram[:, ts.neg_idx]
    k_pos = mats.gram[:, ts.pos_idx]
    literal = (k_neg @ (np.eye(5) - np.full((5, 5), 1 / 5)) @ k_neg.T
               + k_pos @ (np.eye(7) - np.full((7, 7), 1 / 7)) @ k_pos.T)
    assert np.allclose(mats.within, literal, atol=1e-10)
    assert np.allclose(mats.m_neg, k_neg.mean(axis=1), atol=1e-12)


def test_two_voxel_neighborhood_matrix():
    h = neighborhood_matrix(np.ones((1, 1, 2), dtype=bool)).toarray()
    assert np.array_equal(h, np.array([[-1.0, 1.0], [1.0, -1.0]]))


def test_neighborhood_row_sums_and_degree():
    mask = np.ones((3, 3, 3), dtype=bool)
    h = neighborhood_matrix(mask)
    assert np.allclose(np.asarray(h.sum(axis=1)).ravel(), 0.0)
    dense = h.toarray()
    center = 13   # (1,1,1) in C order
    assert dense[center, center] == -26.0


def test_graph_quadratic_form_equals_edge_sum():
    rng = np.random.default_rng(3)
    mask = rng.random((4, 3, 3)) > 0.25
    mask.ravel()[:2] = True
    h = neighborhood_matrix(mask)
    edges = graph_edges(h)
    n = h.shape[0]
    for _ in range(100):
        v = rng.standard_normal(n)
        quad = float(v @ h.dot(v))
        edge_sum = -float(((v[edges[:, 0]] - v[edges[:, 1]]) ** 2).sum())
        assert quad == pytest.approx(edge_sum, abs=1e-10)


def test_penalty_identity_with_kernel_projection():
    # alpha' k H k' alpha == -sum_edges (V_i - V_j)^2 with V the projection
    rng = np.random.default_rng(4)
    for _ in range(10):
        dims = tuple(rng.integers(2, 9, size=3))
        mask = rng.random(dims) > 0.2
        if mask.sum() < 4:
            continue
        data = rng.random(dims + (3,))
        sub = SubdomainData.from_mask(data, mask)
        l = min(10, len(sub))
        labels = np.array([-1] * (l // 2) + [1] * (l - l // 2))
        ts = TrainingSet(sub.features[:l], labels)
        mats = build_matrices(ts, KernelSpec.rbf(0.5), sub)
        edges = graph_edges(mats.neighborhood)
        for _ in range(10):
            alpha = rng.standard_normal(l)
            v = mats.cross.T @ alpha
            quad = float(alpha @ mats.penalty_matvec(alpha))
            edge_sum = -float(((v[edges[:, 0]] - v[edges[:, 1]]) ** 2).sum()) \
                if len(edges) else 0.0
            assert quad == pytest.approx(edge_sum, abs=1e-8)


# ---------------------------------------------------------------------------
# Eigen solve
# ---------------------------------------------------------------------------

def test_linear_kernel_matches_fisher_closed_form():
    rng = np.random.default_rng(42)
    n = 150
    cov = [[1.0, 0.3], [0.3, 0.8]]
    x_neg = rng.multivariate_normal([0, 0], cov, size=n)
    x_pos = rng.multivariate_normal([3.0, 1.0], cov, size=n)
    feats = np.vstack([x_neg, x_pos])
    ts = simple_training(feats, np.array([-1] * n + [1] * n))
    mats = build_matrices(ts, KernelSpec.linear(), subdata_line(feats))
    model = solve_alpha(mats, 0.0)

    w_kfda = feats.T @ model.alpha
    mu_n, mu_p = x_neg.mean(0), x_pos.mean(0)
    s_w = (x_neg - mu_n).T @ (x_neg - mu_n) + (x_pos - mu_p).T @ (x_pos - mu_p)
    w_fisher = np.linalg.solve(s_w, mu_n - mu_p)
    cos = abs(w_kfda @ w_fisher) / np.linalg.norm(w_kfda) / np.linalg.norm(w_fisher)
    angle = math.degrees(math.acos(min(cos, 1.0)))
    assert angle < 1.0


def test_residual_and_constraint_on_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(10):
        l = int(rng.integers(6, 30))
        feats = rng.random((l, 3))
        labels = np.where(rng.random(l) < 0.5, -1, 1)
        if abs(labels.sum()) == l:
            labels[0] = -labels[0]
        ts = simple_training(feats, labels)
        mats = build_matrices(ts, KernelSpec.rbf(0.5), subdata_line(feats))
        for lam in (0.0, 5e-5, 0.3):
            model = solve_alpha(mats, lam)
            assert model.residual <= 1e-8
            pencil = mats.within + model.beta * np.eye(l)
            assert model.alpha @ (pencil @ model.alpha) == pytest.approx(1.0, abs=1e-8)


def test_small_instances_match_dense_eigendecomposition():
    rng = np.random.default_rng(6)
    for _ in range(10):
        l = 8
        feats = rng.normal(size=(l, 3))
        ts = simple_training(feats, np.array([-1] * 4 + [1] * 4))
        mats = build_matrices(ts, KernelSpec.rbf(1.0), subdata_line(feats))
        beta = default_beta(mats.within)
        pencil = mats.within + beta * np.eye(l)
        for lam in (0.0, 0.1, 10.0):
            a = between(mats) + lam * penalty(mats)
            evals, evecs = sla.eigh(0.5 * (a + a.T), pencil)
            model = solve_alpha(mats, lam, beta=beta)
            assert model.gamma == pytest.approx(float(evals[-1]),
                                                abs=1e-8, rel=1e-7)
            top = evecs[:, -1]
            cos = abs(model.alpha @ (pencil @ top)) / \
                math.sqrt(float(top @ (pencil @ top)))
            if evals[-1] - evals[-2] > 1e-8:      # well-separated eigenvector
                assert cos == pytest.approx(1.0, abs=1e-6)


def test_shared_basis_matches_dense_eigendecomposition():
    # every lambda of a sweep solved on one basis, as a classification step
    # does; gamma cannot rise with lambda because the penalty is negative
    # semidefinite, beyond the rounding-level rises dense eigh shows too
    rng = np.random.default_rng(22)
    grid = (0.0, 1e-4, 1e-3, 1e-2, 0.1, 1.0)
    for _ in range(12):
        l = int(rng.integers(6, 121))
        n = l + int(rng.integers(0, 40))
        feats = rng.normal(size=(n, 3))
        rows = np.sort(rng.choice(n, size=l, replace=False))
        labels = np.where(rng.random(l) < 0.5, -1, 1)
        labels[0], labels[-1] = -1, 1
        ts = TrainingSet(feats[rows], labels)
        for spec in (KernelSpec.sigmoid(), KernelSpec.rbf(1.0)):
            mats = build_matrices(ts, spec, subdata_line(feats))
            b, p = between(mats), penalty(mats)
            calls = []

            def counted(v, matvec=mats.penalty_matvec):
                calls.append(1)
                return matvec(v)

            mats.penalty_matvec = counted
            basis = KrylovBasis(mats, default_beta(mats.within))
            pencil = mats.within + basis.beta * np.eye(l)
            gammas, iterations = [], 0
            for lam in grid:
                model = solve_alpha(mats, lam, basis=basis)
                a = b + lam * p
                top = float(sla.eigh(0.5 * (a + a.T), pencil, eigvals_only=True)[-1])
                assert model.gamma == pytest.approx(top, abs=1e-8, rel=1e-7), (spec.kind, l, lam)
                gammas.append(model.gamma)
                iterations += model.iterations
            assert iterations == len(calls)
            for g_prev, g_next in zip(gammas, gammas[1:]):
                assert g_next <= g_prev + 1e-8 * gammas[0], (spec.kind, l, gammas)


def test_stratified_cap_keeps_two_rows_of_each_class():
    rng = np.random.default_rng(23)
    for n_neg, n_pos in ((9995, 5), (5, 9995), (9998, 2), (2, 9998)):
        sides = np.repeat(np.array([-1, 1], dtype=np.int8), (n_neg, n_pos))
        keep = _stratified_cap(sides, 400, rng)
        assert len(keep) == 400 and len(np.unique(keep)) == 400
        assert min(np.count_nonzero(sides[keep] < 0),
                   np.count_nonzero(sides[keep] > 0)) >= 2


def test_lambda_zero_maximizes_classical_criterion():
    rng = np.random.default_rng(7)
    feats = rng.random((20, 3))
    labels = np.array([-1] * 9 + [1] * 11)
    ts = simple_training(feats, labels)
    mats = build_matrices(ts, KernelSpec.rbf(0.5), subdata_line(feats))
    model = solve_alpha(mats, 0.0)
    pencil = mats.within + model.beta * np.eye(20)
    m_diff = mats.m_neg - mats.m_pos
    best = float((model.alpha @ m_diff) ** 2)        # constraint = 1 already
    for _ in range(1000):
        cand = rng.standard_normal(20)
        cand /= math.sqrt(float(cand @ (pencil @ cand)))
        assert float((cand @ m_diff) ** 2) <= best + 1e-9


def test_lambda_monotonically_smooths_projections():
    rng = np.random.default_rng(8)
    dims = (6, 6, 6)
    data = rng.random(dims + (3,))
    mask = np.ones(dims, dtype=bool)
    sub = SubdomainData.from_mask(data, mask)
    labels = np.where(sub.features[:, 0] > np.median(sub.features[:, 0]), 1, -1)
    labels[0] = -1
    labels[1] = 1
    ts = TrainingSet(sub.features, labels)
    mats = build_matrices(ts, KernelSpec.rbf(0.5), sub)
    grid = (0.0, 0.000025, 0.00005, 0.000075, 0.0001)
    rough = []
    for lam in grid:
        model = solve_alpha(mats, lam)
        rough.append(roughness(mats, model.alpha))
    for a, b in zip(rough, rough[1:]):
        assert b <= a * (1 + 1e-6) + 1e-9, rough


def test_projection_sign_convention_and_midpoint():
    rng = np.random.default_rng(9)
    feats = np.vstack([rng.normal(0.2, 0.05, size=(10, 3)),
                       rng.normal(0.8, 0.05, size=(10, 3))])
    ts = simple_training(feats, np.array([-1] * 10 + [1] * 10))
    mats = build_matrices(ts, KernelSpec.rbf(0.5), subdata_line(feats))
    model = solve_alpha(mats, 0.0)
    proj = project(model, feats)
    assert proj[10:].mean() > 0 > proj[:10].mean()
    # midpoint of projected class means sits at zero by the offset choice
    assert proj[:10].mean() + proj[10:].mean() == pytest.approx(0.0, abs=1e-10)


def test_project_matches_direct_sum():
    rng = np.random.default_rng(10)
    feats = rng.random((12, 3))
    ts = simple_training(feats, np.array([-1] * 6 + [1] * 6))
    spec = KernelSpec.sigmoid(8, -0.0005)
    mats = build_matrices(ts, spec, subdata_line(feats))
    model = solve_alpha(mats, 0.0)
    queries = rng.random((10, 3))
    values = project(model, queries)
    for q, got in zip(queries, values):
        direct = sum(model.alpha[m] * kernel_eval(spec, feats[m], q)
                     for m in range(12)) + model.b_offset
        assert got == pytest.approx(direct, abs=1e-12)


# ---------------------------------------------------------------------------
# Categorization and refinement
# ---------------------------------------------------------------------------

def test_categorize_all_agreeing():
    proj = np.array([-2.0, -1.5, 1.2, 2.5])
    sides = np.array([-1, -1, 1, 1])
    cats = categorize(proj, sides)
    assert len(cats.overlap) == 0
    assert len(cats.outliers) == 0
    assert len(cats.prototypes) == 4


def test_categorize_planted_overlap():
    rng = np.random.default_rng(11)
    proj = np.concatenate([rng.normal(-2, 0.3, 50), rng.normal(2, 0.3, 50)])
    sides = np.array([-1] * 50 + [1] * 50)
    # three negative-side voxels projected slightly positive (inside the band)
    proj[[3, 7, 11]] = [0.2, 0.4, 0.1]
    cats = categorize(proj, sides)
    assert sorted(cats.overlap_neg_on_pos.tolist()) == [3, 7, 11]
    assert len(cats.overlap_pos_on_neg) == 0
    assert len(cats.outliers) == 0


def test_categorize_outliers_beyond_band():
    rng = np.random.default_rng(12)
    proj = np.concatenate([rng.normal(-2, 0.2, 50), rng.normal(2, 0.2, 50)])
    sides = np.array([-1] * 50 + [1] * 50)
    proj[5] = 6.0      # negative-side voxel far on the positive side
    cats = categorize(proj, sides)
    assert 5 in cats.outliers_neg
    sizes = cats.sizes()
    assert sum(sizes.values()) == 100


def test_categorize_is_a_partition():
    rng = np.random.default_rng(13)
    proj = rng.normal(0, 1.5, 300)
    sides = np.where(rng.random(300) < 0.4, -1, 1)
    cats = categorize(proj, sides)
    joined = np.concatenate([cats.prototypes, cats.overlap, cats.outliers])
    assert len(joined) == 300
    assert len(np.unique(joined)) == 300


def test_mahalanobis_at_class_mean():
    rng = np.random.default_rng(14)
    proto_neg = rng.normal(0.2, 0.05, size=(50, 3))
    proto_pos = rng.normal(0.8, 0.05, size=(50, 3))
    out = classify_outliers_mahalanobis(proto_neg.mean(0)[None, :],
                                        np.array([1]), proto_neg, proto_pos)
    assert out[0] == -1


def test_mahalanobis_isotropic_reduces_to_euclidean():
    # sample covariances are only approximately isotropic, so compare away
    # from the decision boundary where the reduction is unambiguous
    rng = np.random.default_rng(15)
    proto_neg = np.array([0.2, 0.2, 0.2]) + rng.normal(0, 0.05, size=(2000, 3))
    proto_pos = np.array([0.8, 0.8, 0.8]) + rng.normal(0, 0.05, size=(2000, 3))
    queries = rng.random((200, 3))
    d_neg = np.linalg.norm(queries - proto_neg.mean(0), axis=1)
    d_pos = np.linalg.norm(queries - proto_pos.mean(0), axis=1)
    clear = np.abs(d_neg - d_pos) > 0.05
    got = classify_outliers_mahalanobis(queries[clear],
                                        np.ones(int(clear.sum()), dtype=np.int8),
                                        proto_neg, proto_pos)
    euclid = np.where(d_neg[clear] < d_pos[clear], -1, 1)
    assert np.array_equal(got, euclid)


def test_mahalanobis_anisotropic_matches_quadratic_oracle():
    rng = np.random.default_rng(16)
    cov_neg = np.diag([0.2, 0.01, 0.05])
    cov_pos = np.diag([0.01, 0.2, 0.05])
    proto_neg = rng.multivariate_normal([0.4, 0.4, 0.4], cov_neg, size=500)
    proto_pos = rng.multivariate_normal([0.6, 0.6, 0.6], cov_pos, size=500)
    queries = rng.random((100, 3))
    got = classify_outliers_mahalanobis(queries, np.ones(100, dtype=np.int8),
                                        proto_neg, proto_pos)

    def quad(x, protos):
        mean = protos.mean(0)
        cov = np.cov(protos.T, bias=True)
        return (x - mean) @ np.linalg.solve(cov, x - mean)

    oracle = np.array([-1 if quad(q, proto_neg) < quad(q, proto_pos) else 1
                       for q in queries])
    assert (got == oracle).mean() >= 0.99


def test_knn_k1_nearest_prototype():
    protos = np.array([[0.0, 0.0], [1.0, 1.0]])
    sides = np.array([-1, 1])
    queries = np.array([[0.1, 0.1], [0.9, 0.95]])
    # the published sigmoid's kernel-trick "distance" is negative against the
    # high-norm prototype, so ranking by it sends both queries there
    for spec in (KernelSpec.rbf(0.5), KernelSpec.sigmoid(8.0, -0.0005)):
        got = classify_overlap_knn(spec, queries, protos, sides, 1)
        assert got.tolist() == [-1, 1], spec


def test_knn_rbf_ordering_matches_euclidean():
    rng = np.random.default_rng(17)
    protos = rng.random((40, 3))
    sides = np.where(rng.random(40) < 0.5, -1, 1)
    queries = rng.random((25, 3))
    got = classify_overlap_knn(KernelSpec.rbf(0.5), queries, protos, sides, 5)
    d_euclid = ((queries[:, None, :] - protos[None, :, :]) ** 2).sum(axis=2)
    votes = sides[np.argsort(d_euclid, axis=1, kind="stable")[:, :5]].sum(axis=1)
    assert np.array_equal(got, np.where(votes > 0, 1, -1))


def test_knn_matches_exhaustive_sort_oracle():
    rng = np.random.default_rng(18)
    protos = rng.random((30, 3))
    sides = np.where(rng.random(30) < 0.5, -1, 1)
    queries = rng.random((12, 3))

    def euclidean(q, p):
        return float(((q - p) ** 2).sum())

    # the linear kernel's kernel-trick distance is the squared Euclidean
    # distance; the sigmoid kernel, which is not PSD, has none and ranks by
    # Euclidean distance between intensity vectors
    for spec in (KernelSpec.linear(), KernelSpec.sigmoid(4.0, -0.001)):
        got = classify_overlap_knn(spec, queries, protos, sides, 5)
        for qi, q in enumerate(queries):
            order = np.argsort([euclidean(q, p) for p in protos], kind="stable")[:5]
            vote = sides[order].sum()
            assert got[qi] == (1 if vote > 0 else -1), spec


def test_knn_validates_k():
    protos = np.zeros((4, 2))
    sides = np.array([-1, -1, 1, 1])
    with pytest.raises(ValueError, match="odd"):
        classify_overlap_knn(KernelSpec.rbf(0.5), np.zeros((1, 2)), protos, sides, 2)
    with pytest.raises(ValueError):
        classify_overlap_knn(KernelSpec.rbf(0.5), np.zeros((1, 2)), protos, sides, 9)


def test_knn_ties_break_by_prototype_index():
    # quantized intensities tie exactly: every prototype intensity appears
    # twice, once per side, so a tie not broken by index (inside the k
    # nearest or straddling the k cut) returns a wrong side. Quarter steps
    # keep every distance exact, so the oracle sees the same ties.
    rng = np.random.default_rng(20)
    levels = rng.integers(0, 4, size=(15, 3)) / 4.0
    shuffle = rng.permutation(30)
    protos = np.vstack([levels, levels])[shuffle]
    sides = np.repeat(np.array([1, -1], dtype=np.int8), 15)[shuffle]
    queries = rng.integers(0, 4, size=(40, 3)) / 4.0

    for spec in (KernelSpec.rbf(0.5), KernelSpec.sigmoid(8.0, -0.0005),
                 KernelSpec.linear()):
        straddling = 0
        for k_max in (1, 4, 11, 30, 35):
            got = nearest_prototype_sides(spec, queries, protos, sides, k_max)
            k = min(k_max, 30)
            assert got.shape == (40, k)
            for qi, q in enumerate(queries):
                d = ((protos - q) ** 2).sum(axis=1)
                order = np.argsort(d, kind="stable")
                assert np.array_equal(got[qi], sides[order[:k]]), (spec.kind, k_max, qi)
                straddling += k < 30 and d[order[k - 1]] == d[order[k]]
        assert straddling >= 20, spec.kind
        empty = nearest_prototype_sides(spec, np.empty((0, 3)), protos, sides, 5)
        assert empty.shape == (0, 5)


# ---------------------------------------------------------------------------
# SSIM-guided decision
# ---------------------------------------------------------------------------

def _scorer(reference, mask, shape):
    """score(sides): MSSIM of the image painting each side one intensity."""
    def score(sides):
        return mssim(np.where(sides < 0, 0.25, 0.75).reshape(shape), reference, mask)
    return score


def test_ssim_guided_empty_sets_keep_labels():
    rng = np.random.default_rng(19)
    n = 144
    feats = rng.random((n, 3))
    proj = np.concatenate([-np.abs(rng.normal(2, 0.2, n // 2)),
                           np.abs(rng.normal(2, 0.2, n // 2))])
    sides = np.array([-1] * (n // 2) + [1] * (n // 2), dtype=np.int8)
    cats = categorize(proj, sides)
    assert len(cats.overlap) == 0 and len(cats.outliers) == 0
    reference = rng.random((12, 12))
    mask = np.ones((12, 12), dtype=bool)

    out, value, info = ssim_guided_decision(feats, sides, cats, KernelSpec.rbf(0.5),
                                            _scorer(reference, mask, (12, 12)))
    assert np.array_equal(out, sides)
    assert info["route"] == "mahalanobis"


def test_ssim_guided_improves_noisy_boundary():
    # planted 2-class strip image; corrupted sides near the boundary should
    # be pulled back by the guided refinement
    rng = np.random.default_rng(20)
    h, w = 16, 16
    truth = np.zeros((h, w), dtype=np.int8)
    truth[:, : w // 2] = -1
    truth[:, w // 2:] = 1
    reference = np.where(truth < 0, 0.25, 0.75) + rng.normal(0, 0.02, (h, w))
    feats = np.stack([reference.ravel()] * 3, axis=1) + rng.normal(0, 0.01, (h * w, 3))
    sides_true = truth.ravel().copy()
    sides_init = sides_true.copy()
    boundary = np.abs(np.arange(w)[None, :].repeat(h, 0) - w // 2).ravel() <= 1
    flip = rng.random(h * w) < 0.4
    sides_init[boundary & flip] *= -1

    proj = np.where(sides_true < 0, -1.0, 1.0) + rng.normal(0, 0.3, h * w)
    cats = categorize(proj, sides_init, tau_band=1.0, tau_outlier=2.5)
    score = _scorer(reference, np.ones((h, w), dtype=bool), (h, w))

    out, value, info = ssim_guided_decision(feats, sides_init, cats,
                                            KernelSpec.rbf(0.5), score)
    assert value >= score(sides_init)
    assert (out == sides_true).mean() >= (sides_init == sides_true).mean()


# ---------------------------------------------------------------------------
# Subdomain classification
# ---------------------------------------------------------------------------

def test_step_skipped_without_csf():
    rng = np.random.default_rng(21)
    dims = (14, 14, 14)
    data = rng.random(dims + (3,)).astype(np.float32)
    mask = np.ones(dims, dtype=bool)
    from kfdaseg.volume import MultiChannelVolume
    vol = MultiChannelVolume(data=data, mask=mask)
    init = np.full(dims, GM, dtype=np.uint8)
    init[7:] = WM
    bounds = ((0, 13), (0, 13), (0, 13))
    labels, diag = classify_subdomain(vol, bounds, init,
                                      KfdaConfig(l_max=600, lambda_grid=(0.0,),
                                                 k_grid=(1, 3)))
    assert diag["steps"]["csf_vs_gwm"]["skipped"] == "class absent from initial labels"
    assert set(np.unique(labels)) <= {GM, WM}


def test_classify_subdomain_improves_corrupted_phantom():
    from kfdaseg.phantom import (PhantomSpec, corrupt_boundary_labels,
                                 generate_phantom)
    from kfdaseg.pipeline import dice_scores
    from kfdaseg.volume import LabelVolume

    spec = PhantomSpec(dims=(18, 18, 18), noise_sigma=0.03, pv_blur=0.8,
                       bias_amplitude=0.05, seed=30)
    vol, truth = generate_phantom(spec)
    init = corrupt_boundary_labels(truth, vol.mask, fraction=0.25, seed=1)
    bounds = ((0, 17), (0, 17), (0, 17))
    cfg = KfdaConfig(l_max=1200, lambda_grid=(0.0, 0.00005), k_grid=(1, 3, 5))
    labels, diag = classify_subdomain(vol, bounds, init.labels, cfg, seed=0)

    assert set(np.unique(labels[vol.mask])) <= {CSF, GM, WM}
    assert np.all(labels[~vol.mask] == BG)

    before = dice_scores(init, truth, vol.mask)
    after = dice_scores(LabelVolume(labels=labels), truth, vol.mask)
    mean_before = np.mean([v for v in before.values() if v is not None])
    mean_after = np.mean([v for v in after.values() if v is not None])
    assert mean_after > mean_before


def test_classify_subdomain_total_labeling():
    from kfdaseg.phantom import PhantomSpec, generate_phantom
    spec = PhantomSpec(dims=(14, 14, 14), noise_sigma=0.04, pv_blur=0.5, seed=31)
    vol, truth = generate_phantom(spec)
    bounds = ((0, 13), (0, 13), (0, 13))
    cfg = KfdaConfig(l_max=800, lambda_grid=(0.0, 0.0001), k_grid=(1, 3))
    labels, _ = classify_subdomain(vol, bounds, truth.labels, cfg, seed=0)
    on_mask = labels[vol.mask]
    assert np.all((on_mask >= CSF) & (on_mask <= WM))
    assert np.all(labels[~vol.mask] == BG)


def test_each_labeling_scored_once_per_step(monkeypatch):
    # the sweep meets the same labeling under several lambdas and k; its
    # classified image must reach MSSIM once per step
    import kfdaseg.kfda as kfda
    from kfdaseg.phantom import PhantomSpec, corrupt_boundary_labels, generate_phantom

    spec = PhantomSpec(dims=(18, 18, 18), noise_sigma=0.03, pv_blur=0.8,
                       bias_amplitude=0.05, seed=30)
    vol, truth = generate_phantom(spec)
    init = corrupt_boundary_labels(truth, vol.mask, fraction=0.25, seed=1)
    scored = []          # per step, the classified images scored
    run_step, score = kfda._run_step, kfda.mssim

    def step(*args, **kwargs):
        scored.append([])
        return run_step(*args, **kwargs)

    def recording(classified, *args, **kwargs):
        scored[-1].append(classified.tobytes())
        return score(classified, *args, **kwargs)

    monkeypatch.setattr(kfda, "_run_step", step)
    monkeypatch.setattr(kfda, "mssim", recording)
    cfg = KfdaConfig(l_max=1200, lambda_grid=(0.0, 0.00005), k_grid=(1, 3, 5))
    classify_subdomain(vol, ((0, 17), (0, 17), (0, 17)), init.labels, cfg, seed=0)
    assert len(scored) == 2 and all(scored)
    assert [len(set(images)) for images in scored] == [len(images) for images in scored]
