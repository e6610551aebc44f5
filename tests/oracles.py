"""Reference implementations the tests check the library against.

None of these runs in the pipeline: each restates a quantity pointwise,
materializes an operator the library only applies, or enumerates what the
library solves, so that a test can compare the two.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from kfdaseg.kfda import (KernelSpec, KfdaMatrices, KfdaModel, kernel_matrix,
                          nearest_prototype_sides)
from kfdaseg.partition import PartitionTree, Subdomain, _mir_over, noise_sigma
from kfdaseg.stitch import StitchProblem, build_potentials
from kfdaseg.volume import MultiChannelVolume

# ---------------------------------------------------------------------------
# Kernels and discriminant matrices
# ---------------------------------------------------------------------------


def kernel_eval(spec: KernelSpec, x, z) -> float:
    """K(x, z) for a single vector pair."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if x.shape != z.shape:
        raise ValueError(f"vector dims differ: {x.shape} vs {z.shape}")
    if spec.kind == "sigmoid":
        return float(np.tanh(spec.a * float(x @ z) + spec.b))
    if spec.kind == "gaussian_rbf":
        d = x - z
        return float(np.exp(-float(d @ d) / (2.0 * spec.sigma ** 2)))
    return float(x @ z)


def project(model: KfdaModel, queries: np.ndarray) -> np.ndarray:
    """Signed decision values sum_m alpha_m K(x_m, query) + b."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    k = kernel_matrix(model.kernel, queries, model.training.features)
    return k @ model.alpha + model.b_offset


def between(mats: KfdaMatrices) -> np.ndarray:
    """Rank-1 between-class matrix m_diff m_diff^T."""
    return np.outer(mats.m_diff, mats.m_diff)


def penalty(mats: KfdaMatrices) -> np.ndarray:
    """Materialized graph penalty matrix cross H cross^T."""
    cross = mats.cross.astype(np.float64, copy=False)
    return cross @ mats.neighborhood.dot(cross.T)


def roughness(mats: KfdaMatrices, alpha: np.ndarray) -> float:
    """Sum of squared projection differences over graph edges."""
    return -float(alpha @ mats.penalty_matvec(alpha))


def graph_edges(h: sparse.spmatrix) -> np.ndarray:
    """(n_edges, 2) unique undirected edges of a neighbourhood matrix."""
    coo = sparse.triu(h, k=1).tocoo()
    return np.stack([coo.row, coo.col], axis=1)


def classify_overlap_knn(spec: KernelSpec, features: np.ndarray,
                         proto_features: np.ndarray, proto_sides: np.ndarray,
                         k: int) -> np.ndarray:
    """Majority vote among the k nearest prototypes by nearest_prototype_sides."""
    proto_sides = np.asarray(proto_sides, dtype=np.int8)
    if k < 1 or k > len(proto_sides):
        raise ValueError(f"k={k} must be in [1, {len(proto_sides)}]")
    if k % 2 == 0:
        raise ValueError("k must be odd to preclude vote ties")
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if features.shape[0] == 0:
        return np.empty(0, dtype=np.int8)
    sides = nearest_prototype_sides(spec, features, proto_features, proto_sides, k)
    votes = sides.astype(np.int32).sum(axis=1)
    return np.where(votes > 0, 1, -1).astype(np.int8)


# ---------------------------------------------------------------------------
# Partition
# ---------------------------------------------------------------------------

def total_mir(tree: PartitionTree) -> float:
    """Weighted MI over the tree's leaves, normalized by weighted entropy.

    MI_t = sum_i (N_i/N) MI_i and H_t = sum_i (N_i/N) H_i over the current
    leaves; the ratio lies in [0, 1] (0 when no leaf carries entropy).
    Raises ValueError on an empty tree.
    """
    leaves = tree.leaf_nodes()
    if not leaves:
        raise ValueError("partition tree has no leaves")
    return _mir_over(leaves)


def cnr(vol: MultiChannelVolume, sub: Subdomain, labels: np.ndarray,
        class_a, class_b, channel: int = 0) -> float | None:
    """Contrast-to-noise between two label groups on the reference channel.

    class_a / class_b are labels or label tuples (e.g. (2, 3) for G+WM).
    Returns None when either class is absent from the subdomain.
    """
    sl = sub.slices()
    box = vol.data[sl][..., channel].astype(np.float64)
    mask = vol.mask[sl]
    lab = labels[sl]
    sel_a = np.isin(lab, np.atleast_1d(class_a)) & mask
    sel_b = np.isin(lab, np.atleast_1d(class_b)) & mask
    if not sel_a.any() or not sel_b.any():
        return None
    sigma = noise_sigma(vol, sub, channel)
    contrast = abs(float(box[sel_a].mean()) - float(box[sel_b].mean()))
    if sigma <= 0.0:
        return math.inf if contrast > 0 else 0.0
    return contrast / sigma


# ---------------------------------------------------------------------------
# Stitching
# ---------------------------------------------------------------------------

def enumerate_map_vectorized(problem: StitchProblem) -> float:
    """Exhaustive MAP by vectorized enumeration of all 4^n configurations."""
    pt = build_potentials(problem)
    h, w = problem.shape
    n = h * w
    with np.errstate(divide="ignore"):
        log_phi = np.log(pt.phi)
        log_h = np.log(pt.psi_h) if pt.psi_h.size else pt.psi_h
        log_v = np.log(pt.psi_v) if pt.psi_v.size else pt.psi_v
    best = -np.inf
    chunk = 1 << 18
    total = 4 ** n
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        configs = np.stack(np.unravel_index(idx, (4,) * n), axis=1)  # (m, n)
        grid = configs.reshape(-1, h, w)
        lp = np.zeros(len(idx))
        for r in range(h):
            for col in range(w):
                lp += log_phi[r, col, grid[:, r, col]]
        for r in range(h):
            for col in range(w - 1):
                lp += log_h[r, col, grid[:, r, col], grid[:, r, col + 1]]
        for r in range(h - 1):
            for col in range(w):
                lp += log_v[r, col, grid[:, r, col], grid[:, r + 1, col]]
        best = max(best, float(lp.max()))
    return best


def row_transfer_map(problem: StitchProblem) -> float:
    """Exact MAP by max-product over the 4^w label states of each row.

    Works on the full 4-label tables: a row state scores its node and
    horizontal edge factors, and the vertical edge factors between two
    rows form a 4^w x 4^w transfer table.
    """
    pt = build_potentials(problem)
    h, w = problem.shape
    with np.errstate(divide="ignore"):
        log_phi = np.log(pt.phi)
        log_h = np.log(pt.psi_h) if pt.psi_h.size else pt.psi_h
        log_v = np.log(pt.psi_v) if pt.psi_v.size else pt.psi_v
    states = np.stack(np.unravel_index(np.arange(4 ** w), (4,) * w), axis=1)
    cols = np.arange(w)

    def row_score(r):
        score = log_phi[r, cols, states].sum(axis=1)
        for col in range(w - 1):
            score += log_h[r, col, states[:, col], states[:, col + 1]]
        return score

    best = row_score(0)
    for r in range(1, h):
        transfer = sum(log_v[r - 1, col, states[:, col, None], states[None, :, col]]
                       for col in range(w))
        best = row_score(r) + (best[:, None] + transfer).max(axis=0)
    return float(best.max())
