"""Kernel evaluation, discriminant matrices, eigen solve and refinement."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from kfdaseg import kfda
from kfdaseg.kfda import (CATEGORIES, RANGE_TOL, KernelSpec, _labelings,
                          _project_cross, _range_basis, _run_step, _stratified_cap,
                          build_matrices, categorize, class_scatter,
                          classify_outliers_mahalanobis, classify_subdomain, factor_pencil,
                          kernel_matrix, nearest_prototype_sides, neighborhood_matrix,
                          solve_alpha)
from kfdaseg.pipeline import PipelineConfig
from kfdaseg.ssim import mssim, reference_windows
from kfdaseg.volume import BG, CSF, GM, WM
from oracles import (between, classify_overlap_knn, dense_solve, dense_step, gram, graph_edges,
                     kernel_eval, neighbour_graph, project, roughness,
                     sequential_range_basis, within)


def subdata_line(features):
    """(features, member box) of a trivial 1D geometry whose voxels are the
    given feature rows."""
    features = np.asarray(features, dtype=np.float64)
    return features, np.ones((len(features), 1, 1), dtype=bool)


def line_matrices(features, labels, spec):
    """build_matrices on subdata_line(features), every voxel training."""
    return build_matrices(np.arange(len(features)), np.asarray(labels), spec,
                          *subdata_line(features))


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
    labels = np.array([-1, 1])
    mats = line_matrices(feats, labels, KernelSpec.linear())
    m_diff = mats.m_neg - mats.m_pos
    assert np.allclose(between(mats), np.outer(m_diff, m_diff), atol=1e-12)
    _, _, scatter = class_scatter(gram(feats, KernelSpec.linear()), labels)
    assert np.allclose(scatter, 0.0, atol=1e-10)


def test_within_matches_literal_centering_formula():
    rng = np.random.default_rng(2)
    feats = rng.random((12, 3))
    labels = np.array([-1] * 5 + [1] * 7)
    mats = line_matrices(feats, labels, KernelSpec.rbf(0.6))
    g = gram(feats, KernelSpec.rbf(0.6))
    k_neg = g[:, labels < 0]
    k_pos = g[:, labels > 0]
    literal = (k_neg @ (np.eye(5) - np.full((5, 5), 1 / 5)) @ k_neg.T
               + k_pos @ (np.eye(7) - np.full((7, 7), 1 / 7)) @ k_pos.T)
    _, _, scatter = class_scatter(g, labels)
    assert np.allclose(scatter, literal, atol=1e-10)
    assert mats.rank == 12
    assert np.allclose(mats.basis @ mats.m_neg + mats.centre, k_neg.mean(axis=1), atol=1e-12)


def test_within_is_symmetric_and_psd_to_rounding():
    # CSF vs the rest on the benchmark's global phantom, sigmoid kernel: the
    # within-class scatter is a sum of outer products, so it is symmetric
    # and its negative eigenvalues can only be rounding
    from kfdaseg.phantom import PhantomSpec, generate_phantom
    spec = PhantomSpec(dims=(24, 24, 24), noise_sigma=0.05, bias_amplitude=0.10,
                       pv_blur=1.0, seed=11)
    vol, truth = generate_phantom(spec)
    features = vol.data[vol.mask]
    sides = np.where(truth.labels[vol.mask] == CSF, -1, 1).astype(np.int8)
    keep = _stratified_cap(sides, 300, np.random.default_rng(0))
    _, _, scatter = class_scatter(gram(features[keep], KernelSpec.sigmoid()), sides[keep])
    assert np.array_equal(scatter, scatter.T)
    evals = np.linalg.eigvalsh(scatter)
    assert evals[0] >= -1e-12 * evals[-1], evals[0] / evals[-1]


def test_cross_factor_blocks_match_whole_kernel():
    # one pass over every voxel, in blocks of cols columns: a single block,
    # two blocks the second of them short, four blocks, three blocks whose
    # first, second and third column are training voxels, the third also
    # holding a voxel that is not and the other l - 3 training voxels, and
    # a single block of training voxels alone (every voxel training). A
    # first pass on Q's first 5 columns and a redo on the 2 added columns
    # give every voxel's row of B and, after each, the probe residual of
    # the whole kernel matrix C over all n columns; the redo leaves the
    # first columns as they were, and build_matrices' B has every voxel's
    # row of Q^T (C - c 1^T), all to rounding
    rng = np.random.default_rng(36)
    l, first = 40, 5
    cols = kfda.CROSS_BLOCK_BYTES // (8 * l)
    q = np.linalg.qr(rng.standard_normal((l, 7)))[0]
    centre = rng.random(l)
    sides = np.where(np.arange(l) % 2, 1, -1)
    # voxels 0, cols + 1 and 2 cols + 2 train, 2 cols + 3 does not, and
    # the l - 3 after it do
    edges = np.r_[0, cols + 1, 2 * cols + 2, np.arange(2 * cols + 4, 2 * cols + l + 1)]
    cases = [(l + 5, None), (l + cols - 1, None), (l + 3 * cols + 5, None),
             (2 * cols + l + 1, edges), (l, np.arange(l))]

    def check_error(error, missed, basis, c, probes):
        sketch = c @ probes
        resid = sketch - basis @ (basis.T @ sketch)
        expected = np.linalg.norm(resid, axis=0).max() / np.linalg.norm(sketch, axis=0).max()
        assert error == pytest.approx(expected, rel=1e-9), (spec.kind, n)
        # the missed directions are orthonormal and orthogonal to the basis
        assert np.allclose(missed.T @ missed, np.eye(missed.shape[1]), atol=1e-12)
        assert np.abs(basis.T @ missed).max() <= 1e-12

    for n, keep in cases:
        zs = rng.random((n, 3))
        if keep is None:
            keep = np.sort(rng.choice(n, size=l, replace=False))
        assert len(keep) == l
        probes = np.random.default_rng(5).standard_normal((n, kfda.RANGE_PROBES))
        for spec in (KernelSpec.sigmoid(), KernelSpec.rbf(), KernelSpec.linear()):
            c = kernel_matrix(spec, zs[keep], zs)
            atol = 1e-12 * np.abs(c).max()
            whole = q.T @ (c - centre[:, None])
            cross = np.full((n, first), np.nan)
            error, missed = _project_cross(spec, zs[keep], zs, centre, q[:, :first], 0, cross,
                                           probes)
            assert np.allclose(cross, whole[:first].T, rtol=0, atol=atol), (spec.kind, n)
            check_error(error, missed, q[:, :first], c, probes)
            grown = np.full((n, q.shape[1]), np.nan)
            grown[:, :first] = cross
            error, missed = _project_cross(spec, zs[keep], zs, centre, q, first, grown, probes)
            assert np.array_equal(grown[:, :first], cross)
            cross = grown
            assert np.allclose(cross, whole.T, rtol=0, atol=atol), (spec.kind, n)
            check_error(error, missed, q, c, probes)
            mats = build_matrices(keep, sides, spec, *subdata_line(zs))
            assert np.allclose(mats.cross, mats.basis.T @ (c - mats.centre[:, None]), rtol=0,
                               atol=atol), (spec.kind, n)


def test_build_matrices_evaluates_each_column_once(monkeypatch):
    # the sample kernel is evaluated in row blocks once per sketch sweep,
    # its l rows each against all l samples. The range finder sweeps again
    # whenever its blocks run out, as in every case here: at l = 40 the
    # first sweep holds one full block and the next a narrow one, and at
    # l = 300 the rank, about 250, outgrows the first sweep's blocks. Each
    # pass over the voxels then evaluates all n columns once, l rows each:
    # the first projects them on all of Q, a redo (the sigmoid step at
    # l = 40 redoes its pass once) only on the directions it adds, leaving
    # every row's earlier entries as they were
    rng = np.random.default_rng(37)
    features = rng.random((7000, 3))
    sides = np.where(features[:, 0] > 0.5, 1, -1).astype(np.int8)
    phases = []        # ("sweep" or "pass", [(rows, columns) of each kernel block])
    passes = []        # (first direction projected, rank) of each pass

    def spy_kernel(spec, xs, zs):
        phases[-1][1].append((len(xs), len(zs)))
        return kernel_matrix(spec, xs, zs)

    def spy_sweep(spec, samples, tests, sweep=kfda._sample_sweep):
        phases.append(("sweep", []))
        return sweep(spec, samples, tests)

    def spy_pass(spec, samples, features, centre, q, start, cross, probes,
                 project=kfda._project_cross):
        phases.append(("pass", []))
        kept = cross[:, :start].copy()
        result = project(spec, samples, features, centre, q, start, cross, probes)
        assert np.array_equal(cross[:, :start], kept)
        passes.append((start, q.shape[1]))
        return result

    monkeypatch.setattr(kfda, "kernel_matrix", spy_kernel)
    monkeypatch.setattr(kfda, "_sample_sweep", spy_sweep)
    monkeypatch.setattr(kfda, "_project_cross", spy_pass)
    redone = swept_again = 0
    for n, l in ((7000, 40), (300, 300)):
        for spec in (KernelSpec.sigmoid(), KernelSpec.rbf()):
            keep = _stratified_cap(sides[:n], l, np.random.default_rng(0))
            phases.clear()
            passes.clear()
            mats = build_matrices(keep, sides[keep], spec, *subdata_line(features[:n]))
            kinds = [kind for kind, _ in phases]
            sweeps = kinds.count("sweep")
            assert kinds == ["sweep"] * sweeps + ["pass"] * len(passes), kinds
            for kind, blocks in phases:
                rows, columns = zip(*blocks)
                if kind == "sweep":
                    assert sum(rows) == l and set(columns) == {l}, (spec.kind, l, blocks)
                else:
                    assert set(rows) == {l} and sum(columns) == n, (spec.kind, l, blocks)
            # the first pass projects on all of Q, each redo on what it adds
            assert [p[0] for p in passes] == [0] + [p[1] for p in passes[:-1]], passes
            assert passes[-1][1] == mats.rank
            redone += len(passes) > 1
            swept_again += sweeps > 1
    assert redone and swept_again


def test_build_matrices_never_holds_the_cross_kernel():
    # the sample kernel and the cross kernel are each evaluated in blocks
    # and only what is made of them is kept: the range finder's products
    # with its test blocks (the sketch, l x RANGE_AHEAD RANGE_BLOCK) and B;
    # the penalty B^T H B is summed over row blocks of the graph H. So the
    # peak is the graph, B, the sketch and a couple of blocks (a penalty
    # block, 2 MiB, is the largest), under the float64 cross kernel alone. At l = 2000 that budget leaves no room for
    # the l x l sample kernel, and at both l holding it or a second array
    # of B's size breaks the bound
    from kfdaseg.phantom import PhantomSpec, generate_phantom
    vol, truth = generate_phantom(PhantomSpec(dims=(40, 40, 40), noise_sigma=0.05,
                                              bias_amplitude=0.10, pv_blur=1.0, seed=11))
    features = vol.data[vol.mask].astype(np.float64)
    n = len(features)
    sides = np.where(truth.labels[vol.mask] == CSF, -1, 1).astype(np.int8)
    h = neighborhood_matrix(vol.mask)
    graph = h.data.nbytes + h.indices.nbytes + h.indptr.nbytes
    for l in (600, 2000):
        keep = _stratified_cap(sides, l, np.random.default_rng(0))
        tracemalloc.start()
        try:
            mats = build_matrices(keep, sides[keep], KernelSpec.sigmoid(), features, vol.mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mats.cross.shape == (mats.rank, n)
        sketch = l * kfda.RANGE_AHEAD * kfda.RANGE_BLOCK * 8
        budget = graph + mats.cross.nbytes + sketch + 2 * kfda.CROSS_BLOCK_BYTES
        assert peak < budget < l * n * 8, (l, peak, budget)
        assert (budget < graph + l * l * 8) == (l == 2000), (l, budget)


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


def graph_masks():
    """34 boxes: empty, one voxel, isolated voxels, one voxel thick, random."""
    rng = np.random.default_rng(44)
    masks = [np.zeros((0, 0, 0), dtype=bool), np.zeros((3, 4, 2), dtype=bool),
             np.ones((1, 1, 1), dtype=bool), np.zeros((3, 3, 3), dtype=bool)]
    masks[3][1, 2, 0] = True
    sparse_grid = np.zeros((5, 6, 5), dtype=bool)
    sparse_grid[::2, ::2, ::2] = True
    mixed = sparse_grid.copy()
    mixed[2:4, 3:5, 2:4] = True
    masks += [sparse_grid, mixed]
    masks += [np.ones(dims, dtype=bool) for dims in ((1, 1, 7), (1, 6, 5), (4, 1, 3), (5, 4, 1))]
    plane = np.zeros((4, 5, 6), dtype=bool)
    plane[:, 2, :] = rng.random((4, 6)) < 0.7
    masks.append(plane)
    for density in (0.1, 0.3, 0.5, 0.7, 0.9):
        for _ in range(4):
            masks.append(rng.random(tuple(rng.integers(1, 8, size=3))) < density)
    masks += [rng.random((6, 7, 5)) < 0.6, rng.random((8, 2, 3)) < 0.8,
              np.ones((3, 4, 5), dtype=bool)]
    return masks


def test_neighborhood_matrix_matches_literal_graph():
    masks = graph_masks()
    assert len(masks) == 34
    for mask in masks:
        h = neighborhood_matrix(mask)
        n = int(mask.sum())
        assert h.shape == (n, n) and h.data.dtype == np.float64
        assert h.indices.dtype == h.indptr.dtype
        assert np.array_equal(h.toarray(), neighbour_graph(mask))
        # canonical: each row's columns strictly increasing, no stored zero
        for row in range(n):
            assert np.all(np.diff(h.indices[h.indptr[row]:h.indptr[row + 1]]) > 0)
        assert np.all(h.data != 0.0)


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
        features = data[mask]
        l = min(10, len(features))
        labels = np.array([-1] * (l // 2) + [1] * (l - l // 2))
        mats = build_matrices(np.arange(l), labels, KernelSpec.rbf(0.5), features, mask)
        edges = graph_edges(neighborhood_matrix(mask))
        for _ in range(10):
            alpha = rng.standard_normal(l)
            v = mats.voxel_projections(alpha)
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
    mats = line_matrices(feats, np.array([-1] * n + [1] * n), KernelSpec.linear())
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
        mats = line_matrices(feats, labels, KernelSpec.rbf(0.5))
        for lam in (0.0, 5e-5, 0.3):
            model = solve_alpha(mats, lam)
            assert model.residual <= 1e-8
            pencil = within(feats, labels, KernelSpec.rbf(0.5)) + mats.beta * np.eye(l)
            assert model.alpha @ (pencil @ model.alpha) == pytest.approx(1.0, abs=1e-8)


def test_small_instances_match_dense_eigendecomposition():
    rng = np.random.default_rng(6)
    for _ in range(10):
        l = 8
        feats = rng.normal(size=(l, 3))
        labels = np.array([-1] * 4 + [1] * 4)
        mats = line_matrices(feats, labels, KernelSpec.rbf(1.0))
        pencil = within(feats, labels, KernelSpec.rbf(1.0)) + mats.beta * np.eye(l)
        dense = dense_step(np.arange(l), labels, KernelSpec.rbf(1.0), *subdata_line(feats),
                           mats.beta)
        m_diff = dense.m_neg - dense.m_pos
        for lam in (0.0, 0.1, 10.0):
            a = np.outer(m_diff, m_diff) + lam * dense.penalty
            evals, evecs = sla.eigh(0.5 * (a + a.T), pencil)
            model = solve_alpha(mats, lam)
            assert model.gamma == pytest.approx(float(evals[-1]),
                                                abs=1e-8, rel=1e-7)
            top = evecs[:, -1]
            cos = abs(model.alpha @ (pencil @ top)) / \
                math.sqrt(float(top @ (pencil @ top)))
            if evals[-1] - evals[-2] > 1e-8:      # well-separated eigenvector
                assert cos == pytest.approx(1.0, abs=1e-6)


def test_sweep_matches_dense_eigendecomposition():
    # every lambda of a sweep solved on one step's matrices, as a
    # classification step does, without a penalty matvec; gamma cannot
    # rise with lambda because the penalty is negative semidefinite, beyond
    # the rounding-level rises dense eigh shows too
    rng = np.random.default_rng(22)
    grid = (0.0, 1e-4, 1e-3, 1e-2, 0.1, 1.0)
    for _ in range(12):
        l = int(rng.integers(6, 121))
        n = l + int(rng.integers(0, 40))
        feats = rng.normal(size=(n, 3))
        rows = np.sort(rng.choice(n, size=l, replace=False))
        labels = np.where(rng.random(l) < 0.5, -1, 1)
        labels[0], labels[-1] = -1, 1
        for spec in (KernelSpec.sigmoid(), KernelSpec.rbf(1.0)):
            mats = build_matrices(rows, labels, spec, *subdata_line(feats))
            calls = []

            def counted(v, matvec=mats.penalty_matvec):
                calls.append(1)
                return matvec(v)

            mats.penalty_matvec = counted
            dense = dense_step(rows, labels, spec, *subdata_line(feats), mats.beta)
            gammas = []
            for lam in grid:
                model = solve_alpha(mats, lam)
                top = dense_solve(dense, lam)[0]
                assert model.gamma == pytest.approx(top, abs=1e-8, rel=1e-7), (spec.kind, l, lam)
                assert model.iterations == 0
                gammas.append(model.gamma)
            assert not calls
            for g_prev, g_next in zip(gammas, gammas[1:]):
                assert g_next <= g_prev + 1e-8 * gammas[0], (spec.kind, l, gammas)


def test_solve_matches_dense_oracle_on_phantom_steps():
    # both published kernels on a corner of the benchmark's 24^3 phantom:
    # at l = 300 the factor leaves out most directions and the sigmoid's
    # ridge is the floor, at l = 24 the factor spans all l samples. gamma
    # and every voxel's projection sign must match scipy's dense float64
    # eigh of the full l x l pencil at every lambda of the published grid
    from kfdaseg.phantom import PhantomSpec, generate_phantom
    vol, truth = generate_phantom(PhantomSpec(dims=(24, 24, 24), noise_sigma=0.05,
                                              bias_amplitude=0.10, pv_blur=1.0, seed=11))
    box = (slice(0, 12), slice(0, 12), slice(0, 24))
    data, mask, labels = vol.data[box].astype(np.float64), vol.mask[box], truth.labels[box]
    for neg, pos, spec in (((CSF,), (GM, WM), KernelSpec.sigmoid()),
                           ((GM,), (WM,), KernelSpec.rbf())):
        member = mask & np.isin(labels, neg + pos)
        features = data[member]
        sides = np.where(np.isin(labels[member], neg), -1, 1).astype(np.int8)
        for l in (300, 24):
            keep = _stratified_cap(sides, l, np.random.default_rng(0))
            mats = build_matrices(keep, sides[keep], spec, features, member)
            assert (mats.rank == l) == (l == 24), (spec.kind, l, mats.rank)
            if spec.kind == "sigmoid" and l == 300:
                g = gram(features[keep], spec)
                floor = 64.0 * np.finfo(np.float64).eps * float((g * g).sum())
                assert mats.beta == pytest.approx(floor, rel=1e-9)
            dense = dense_step(keep, sides[keep], spec, features, member, mats.beta)
            for lam in kfda.LAMBDA_GRID:
                model = solve_alpha(mats, lam)
                top, _, expected = dense_solve(dense, lam)
                assert model.gamma == pytest.approx(top, rel=1e-7), (spec.kind, l, lam)
                got = mats.voxel_projections(model.alpha) + model.b_offset
                assert np.array_equal(got > 0, expected > 0), (spec.kind, l, lam)


def test_range_basis_stays_orthonormal():
    # a gram of nearly full rank takes the range finder through many
    # blocks: Q must stay orthonormal to rounding and span the gram.
    # Normalizing a block without projecting Q out again afterwards lost
    # orthogonality to about 1e-1 by r ~ 190, and the sketch never stopped
    rng = np.random.default_rng(41)
    xs = rng.normal(size=(200, 3))
    g = kernel_matrix(KernelSpec.rbf(0.1), xs, xs)
    q, _, _ = _range_basis(KernelSpec.rbf(0.1), xs)
    assert q.shape[1] >= 190
    assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 1e-12
    assert np.abs(g - q @ (q.T @ g)).max() <= 1e-9 * np.abs(g).max()


def test_range_basis_draws_as_the_sequential_loop(monkeypatch):
    # the blocks drawn ahead for one sweep must be the ones a loop drawing
    # each block when it needs it would draw: at l under one block, at
    # l = 40 (a full block, then a narrow one), on a kernel whose rank
    # passes RANGE_AHEAD blocks, so that the blocks run out twice and the
    # last is narrow, and on one of low rank that stops inside the first
    # sweep's blocks. The basis must take the loop's rank and span the
    # sample kernel, and every sweep must give its mean column and squared
    # Frobenius norm; the products differ from the loop's in rounding alone
    swept = []

    def spy(spec, samples, tests, sweep=kfda._sample_sweep):
        swept.append(tests.copy())
        return sweep(spec, samples, tests)

    monkeypatch.setattr(kfda, "_sample_sweep", spy)
    rng = np.random.default_rng(42)
    cases = [(rng.normal(size=(20, 3)), KernelSpec.rbf(0.5), [20]),
             (rng.normal(size=(40, 3)), KernelSpec.sigmoid(), [32, 8]),
             (rng.normal(size=(300, 3)), KernelSpec.rbf(0.1), [256, 32, 12]),
             (rng.random((1000, 3)), KernelSpec.rbf(1.0), [256])]
    for xs, spec, expected in cases:
        l = len(xs)
        g = kernel_matrix(spec, xs, xs)
        swept.clear()
        q, centre, square = _range_basis(spec, xs)
        assert [tests.shape[1] for tests in swept] == expected, l
        stream = np.random.default_rng(kfda.RANGE_SEED)
        for tests in swept:
            width = tests.shape[1]
            blocks = [stream.standard_normal((l, min(kfda.RANGE_BLOCK, width - first)))
                      for first in range(0, width, kfda.RANGE_BLOCK)]
            assert np.array_equal(tests, np.hstack(blocks)), l
        assert q.shape == sequential_range_basis(g).shape, l
        assert (q.shape[1] < l) == (l == 1000), (l, q.shape)
        assert np.abs(g - q @ (q.T @ g)).max() <= 1e-9 * np.abs(g).max(), l
        assert np.allclose(centre, g.mean(axis=1), rtol=0, atol=1e-14), l
        assert square == pytest.approx(float((g * g).sum()), rel=1e-12), l


def test_probes_do_not_depend_on_the_look_ahead(monkeypatch):
    # build_matrices draws its probes from a stream of their own, apart
    # from the range finder's test blocks. The training voxels crowd one
    # corner of the cube, so the sample kernel's range misses directions
    # the other voxels need and the step redoes its pass over them twice;
    # the range finder stops inside its first sweep, so it draws 192 test
    # columns with 8 blocks ahead and 128 with 2 (64, 32 and 32). Every
    # pass must get the same probes either way, and the step the same rank
    rng = np.random.default_rng(37)
    features = rng.random((2000, 3))
    keep = np.flatnonzero(features[:, 0] < 0.2)[:200]
    sides = np.where(features[keep, 1] > 0.5, 1, -1).astype(np.int8)
    runs = []
    for ahead in (2, 8):
        drawn, probes = [], []

        def spy_sweep(spec, samples, tests, sweep=kfda._sample_sweep):
            drawn.append(tests.shape[1])
            return sweep(spec, samples, tests)

        def spy_pass(*args, project=kfda._project_cross):
            probes.append(args[-1].copy())
            return project(*args)

        monkeypatch.setattr(kfda, "RANGE_AHEAD", ahead)
        monkeypatch.setattr(kfda, "_sample_sweep", spy_sweep)
        monkeypatch.setattr(kfda, "_project_cross", spy_pass)
        mats = build_matrices(keep, sides, KernelSpec.rbf(1.0), *subdata_line(features))
        monkeypatch.undo()
        runs.append((sum(drawn), probes, mats.rank))
    (drawn_2, probes_2, rank_2), (drawn_8, probes_8, rank_8) = runs
    assert (drawn_2, drawn_8) == (128, 192)
    assert len(probes_2) == len(probes_8) == 3
    assert all(np.array_equal(a, b) for a, b in zip(probes_2, probes_8))
    assert rank_2 == rank_8


def test_cross_factor_meets_range_tol():
    # the factor's contract, checked against the whole cross kernel C:
    # ||C - c 1^T - Q B^T||_2 <= RANGE_TOL ||C||_2. On the corner-crowded
    # step above the first pass misses it for every kernel here, so only
    # the redo meets it; on a 20^3 phantom's two published steps at
    # l = 300 the factor spans far fewer directions than l
    from kfdaseg.phantom import PhantomSpec, generate_phantom

    def error(keep, sides, spec, features, member):
        mats = build_matrices(keep, sides, spec, features, member)
        c = kernel_matrix(spec, features[keep], features)
        residual = c - mats.centre[:, None] - mats.basis @ mats.cross
        return np.linalg.norm(residual, 2) / np.linalg.norm(c, 2)

    rng = np.random.default_rng(37)
    features = rng.random((2000, 3))
    keep = np.flatnonzero(features[:, 0] < 0.2)[:200]
    sides = np.where(features[keep, 1] > 0.5, 1, -1).astype(np.int8)
    for spec in (KernelSpec.rbf(1.0), KernelSpec.rbf(0.5), KernelSpec.sigmoid()):
        got = error(keep, sides, spec, *subdata_line(features))
        assert got <= RANGE_TOL, (spec, got)
    vol, truth = generate_phantom(PhantomSpec(dims=(20, 20, 20), noise_sigma=0.05,
                                              bias_amplitude=0.10, pv_blur=1.0, seed=11))
    data = vol.data.astype(np.float64)
    for neg, pos, spec in (((CSF,), (GM, WM), KernelSpec.sigmoid()),
                           ((GM,), (WM,), KernelSpec.rbf())):
        member = vol.mask & np.isin(truth.labels, neg + pos)
        step_sides = np.where(np.isin(truth.labels[member], neg), -1, 1).astype(np.int8)
        step_keep = _stratified_cap(step_sides, 300, np.random.default_rng(0))
        got = error(step_keep, step_sides[step_keep], spec, data[member], member)
        assert got <= RANGE_TOL, (spec, got)


def test_first_ridge_factors_adversarial_within():
    # build_matrices' ridge factors N = fl(Z Z^T), Z r x l, on its first
    # try: for Z of rank 1 and of spread rank (singular values from 1 to
    # 1e-12), with r = l up to 2000, and for N = 0. Unridged, none of these
    # N factors, so the ridge is what carries each one
    rng = np.random.default_rng(35)
    cases = [np.zeros((100, 100))]
    for l in (50, 500, 2000):
        cases.append(np.outer(rng.normal(size=l), rng.normal(size=l)))
        cases.append(rng.normal(size=(l, l)) * np.geomspace(1.0, 1e-12, l))
    for z in cases:
        l = z.shape[1]
        n = z @ z.T
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(n)
        beta = kfda.RIDGE_SCALE * float(np.trace(n)) / l or 1e-10
        u = factor_pencil(n, beta)
        pencil = n + beta * np.eye(len(n))
        assert np.abs(u.T @ u - pencil).max() <= 1e-12 * np.abs(pencil).max(), l


def test_too_few_prototypes_keep_initial_sides():
    # the second positive voxel projects onto the negative side, inside the
    # band: one positive prototype is left, so every solve falls back to the
    # initial sides, though the scorer prefers any other labeling
    features = np.array([[0.313, 0.08, 0.783], [0.572, 0.077, 0.977],
                         [0.111, 0.492, 0.031], [0.406, 0.492, 0.856],
                         [0.678, 0.352, 0.184], [0.045, 0.329, 0.063]])
    sides = np.array([-1, 1, -1, 1, -1, -1], dtype=np.int8)
    cfg = PipelineConfig(lambda_grid=(0.0, 1e-4))
    out, diag = _run_step(features.reshape(6, 1, 1, 3), np.ones((6, 1, 1), dtype=bool),
                          sides, KernelSpec.sigmoid(), lambda s: float((s != sides).sum()),
                          cfg, np.random.default_rng(0))
    assert np.array_equal(out, sides)
    assert [entry["fallback"] for entry in diag["sweep"]] == ["prototypes"] * 2
    assert all(entry["categories"]["prototypes_pos"] == 1 for entry in diag["sweep"])
    assert diag["chosen_lambda"] == 0.0 and diag["mssim"] == 0.0


def test_factoring_leaves_within_bit_identical():
    rng = np.random.default_rng(33)
    g = rng.normal(size=(40, 40))
    scatter = g @ g.T / 40
    scatter[np.diag_indices(40)] += rng.random(40) * 1e-3
    pencil = scatter.copy()
    factor_pencil(pencil, 0.37)
    assert np.array_equal(pencil, scatter)


def test_non_finite_pencil_raises_instead_of_ridging():
    for bad in (np.nan, np.inf):
        scatter = np.eye(8)
        scatter[2, 5] = scatter[5, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            factor_pencil(scatter, 1e-3)


def test_stratified_cap_keeps_two_rows_of_each_class():
    rng = np.random.default_rng(23)
    for n_neg, n_pos in ((9995, 5), (5, 9995), (9998, 2), (2, 9998)):
        sides = np.repeat(np.array([-1, 1], dtype=np.int8), (n_neg, n_pos))
        keep = _stratified_cap(sides, 400, rng)
        assert len(keep) == 400 and len(np.unique(keep)) == 400
        assert min(np.count_nonzero(sides[keep] < 0),
                   np.count_nonzero(sides[keep] > 0)) >= 2


def test_lambda_zero_maximizes_classical_criterion():
    # at lambda = 0, alpha maximizes (a^T d)^2 subject to a^T (N + beta I) a
    # = 1, d the gram's class-mean difference: no random direction beats
    # it, nor any direction near it, which a slightly wrong alpha would lose to
    rng = np.random.default_rng(7)
    feats = rng.random((20, 3))
    labels = np.array([-1] * 9 + [1] * 11)
    spec = KernelSpec.rbf(0.5)
    mats = line_matrices(feats, labels, spec)
    model = solve_alpha(mats, 0.0)
    pencil = within(feats, labels, spec) + mats.beta * np.eye(20)
    g = gram(feats, spec)
    m_diff = g[:, labels < 0].mean(axis=1) - g[:, labels > 0].mean(axis=1)
    best = float((model.alpha @ m_diff) ** 2)        # constraint = 1 already
    candidates = [rng.standard_normal(20) for _ in range(1000)]
    size = np.linalg.norm(model.alpha)
    candidates += [model.alpha + scale * size * rng.standard_normal(20)
                   for scale in (1e-1, 1e-2, 1e-3) for _ in range(100)]
    for cand in candidates:
        cand /= math.sqrt(float(cand @ (pencil @ cand)))
        assert float((cand @ m_diff) ** 2) <= best + 1e-9


def test_lambda_monotonically_smooths_projections():
    rng = np.random.default_rng(8)
    dims = (6, 6, 6)
    data = rng.random(dims + (3,))
    mask = np.ones(dims, dtype=bool)
    features = data[mask]
    labels = np.where(features[:, 0] > np.median(features[:, 0]), 1, -1)
    labels[0] = -1
    labels[1] = 1
    mats = build_matrices(np.arange(len(features)), labels, KernelSpec.rbf(0.5), features, mask)
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
    spec = KernelSpec.rbf(0.5)
    mats = line_matrices(feats, np.array([-1] * 10 + [1] * 10), spec)
    model = solve_alpha(mats, 0.0)
    proj = project(model, feats, spec, feats)
    assert proj[10:].mean() > 0 > proj[:10].mean()
    # midpoint of projected class means sits at zero by the offset choice
    assert proj[:10].mean() + proj[10:].mean() == pytest.approx(0.0, abs=1e-10)


def test_project_matches_direct_sum():
    rng = np.random.default_rng(10)
    feats = rng.random((12, 3))
    spec = KernelSpec.sigmoid(8, -0.0005)
    mats = line_matrices(feats, np.array([-1] * 6 + [1] * 6), spec)
    model = solve_alpha(mats, 0.0)
    queries = rng.random((10, 3))
    values = project(model, feats, spec, queries)
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
    codes = categorize(proj, sides)
    assert np.count_nonzero(codes // 2 == 1) == 0
    assert np.count_nonzero(codes // 2 == 2) == 0
    assert np.count_nonzero(codes // 2 == 0) == 4


def test_categorize_planted_overlap():
    rng = np.random.default_rng(11)
    proj = np.concatenate([rng.normal(-2, 0.3, 50), rng.normal(2, 0.3, 50)])
    sides = np.array([-1] * 50 + [1] * 50)
    # three negative-side voxels projected slightly positive (inside the band)
    proj[[3, 7, 11]] = [0.2, 0.4, 0.1]
    codes = categorize(proj, sides)
    assert np.flatnonzero(codes == CATEGORIES.index("overlap_neg_on_pos")).tolist() == [3, 7, 11]
    assert np.count_nonzero(codes == CATEGORIES.index("overlap_pos_on_neg")) == 0
    assert np.count_nonzero(codes // 2 == 2) == 0


def test_categorize_outliers_beyond_band():
    rng = np.random.default_rng(12)
    proj = np.concatenate([rng.normal(-2, 0.2, 50), rng.normal(2, 0.2, 50)])
    sides = np.array([-1] * 50 + [1] * 50)
    proj[5] = 6.0      # negative-side voxel far on the positive side
    codes = categorize(proj, sides)
    assert codes[5] == CATEGORIES.index("outliers_neg")
    sizes = np.bincount(codes, minlength=len(CATEGORIES))
    assert sum(sizes) == 100


def test_categorize_is_a_partition():
    rng = np.random.default_rng(13)
    proj = rng.normal(0, 1.5, 300)
    sides = np.where(rng.random(300) < 0.4, -1, 1)
    codes = categorize(proj, sides)
    joined = np.concatenate([np.flatnonzero(codes // 2 == kind) for kind in range(3)])
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

def _scorer(reference, mask):
    """score(sides): MSSIM of the image painting each side one intensity,
    the 2D reference and mask taken as a one-slice box."""
    windows = reference_windows(reference[:, :, None], mask[:, :, None])

    def score(sides):
        return mssim(np.where(sides < 0, 0.25, 0.75).reshape(mask.shape + (1,)), windows)
    return score


def _best(score, labelings):
    """(MSSIM, k, sides) of the first best-scoring labeling, as _run_step
    chooses among a solve's labelings."""
    return max(((score(sides), k, sides) for k, sides in labelings), key=lambda c: c[0])


def test_ssim_guided_empty_sets_keep_labels():
    rng = np.random.default_rng(19)
    n = 144
    feats = rng.random((n, 3))
    proj = np.concatenate([-np.abs(rng.normal(2, 0.2, n // 2)),
                           np.abs(rng.normal(2, 0.2, n // 2))])
    sides = np.array([-1] * (n // 2) + [1] * (n // 2), dtype=np.int8)
    codes = categorize(proj, sides)
    assert np.count_nonzero(codes // 2 == 1) == 0 and np.count_nonzero(codes // 2 == 2) == 0
    reference = rng.random((12, 12))
    mask = np.ones((12, 12), dtype=bool)

    value, k, out = _best(_scorer(reference, mask),
                          _labelings(feats, sides, codes, KernelSpec.rbf(0.5), kfda.K_GRID))
    assert np.array_equal(out, sides)
    assert k is None     # the Mahalanobis route


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
    codes = categorize(proj, sides_init)
    score = _scorer(reference, np.ones((h, w), dtype=bool))

    value, k, out = _best(score, _labelings(feats, sides_init, codes, KernelSpec.rbf(0.5),
                                            kfda.K_GRID))
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
                                      PipelineConfig(l_max=600, lambda_grid=(0.0,),
                                                     k_grid=(1, 3)), seed=0)
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
    cfg = PipelineConfig(l_max=1200, lambda_grid=(0.0, 0.00005), k_grid=(1, 3, 5))
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
    cfg = PipelineConfig(l_max=800, lambda_grid=(0.0, 0.0001), k_grid=(1, 3))
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
    cfg = PipelineConfig(l_max=1200, lambda_grid=(0.0, 0.00005), k_grid=(1, 3, 5))
    classify_subdomain(vol, ((0, 17), (0, 17), (0, 17)), init.labels, cfg, seed=0)
    assert len(scored) == 2 and all(scored)
    assert [len(set(images)) for images in scored] == [len(images) for images in scored]
