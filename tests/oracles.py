"""Reference implementations the tests check the library against.

None of these runs in the pipeline: each restates a quantity pointwise,
materializes an operator the library only applies, restates a model the
library solves only in reduced form, or enumerates what the library solves,
so that a test can compare the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy import ndimage, sparse

from kfdaseg.kfda import (RANGE_BLOCK, SKETCH_TOL, KernelSpec, KfdaMatrices, KfdaModel,
                          _orthonormal_columns, kernel_matrix, nearest_prototype_sides,
                          neighborhood_matrix)
from kfdaseg.partition import (_LAPLACIAN_GAIN, _MAD_SCALE, PartitionTree, _mir_over,
                               noise_sigma, otsu_threshold, reference_field)
from kfdaseg.stitch import EDGE_NONE, EDGE_ONE, StitchProblem
from kfdaseg.volume import REFERENCE_CHANNEL, MultiChannelVolume, box_slices

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


def gram(xs: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Gram matrix of the training features xs, symmetrized as 0.5 (K + K^T)."""
    k = kernel_matrix(spec, xs, xs)
    return 0.5 * (k + k.T)


def sequential_range_basis(g: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The range finder of kfda._range_basis with each Gaussian block drawn
    when the loop reaches it and multiplied by the whole matrix g."""
    l = len(g)
    q = np.empty((l, 0))
    cutoff = None
    while q.shape[1] < l:
        y = g @ rng.standard_normal((l, min(RANGE_BLOCK, l - q.shape[1])))
        y -= q @ (q.T @ y)
        largest = math.sqrt(float((y * y).sum(axis=0).max()))
        if cutoff is None:
            cutoff = SKETCH_TOL * largest
        elif largest <= cutoff:
            break
        q = np.hstack([q, _orthonormal_columns(q, y, cutoff)])
    return q


def within(xs: np.ndarray, sides: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Within-class matrix by the literal centering formula:
    sum over classes m of K_m (I - 1/l_m) K_m^T, K_m the gram's columns of
    class m, the training features xs on sides in {-1, +1}."""
    k = gram(xs, spec)
    total = np.zeros_like(k)
    for idx in (np.flatnonzero(sides < 0), np.flatnonzero(sides > 0)):
        k_m = k[:, idx]
        n = len(idx)
        total += k_m @ (np.eye(n) - np.full((n, n), 1 / n)) @ k_m.T
    return total


def project(model: KfdaModel, xs: np.ndarray, spec: KernelSpec,
            queries: np.ndarray) -> np.ndarray:
    """Signed decision values sum_m alpha_m K(x_m, query) + b, x_m the
    training features xs under the kernel spec that model was solved with."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    k = kernel_matrix(spec, queries, xs)
    return k @ model.alpha + model.b_offset


def between(mats: KfdaMatrices) -> np.ndarray:
    """Rank-1 between-class matrix m_diff m_diff^T."""
    return np.outer(mats.m_diff, mats.m_diff)


@dataclass
class DenseStep:
    """A KFDA step's full l x l float64 problem, every matrix materialized."""

    m_neg: np.ndarray        # (l,) class mean columns of the gram
    m_pos: np.ndarray
    cross: np.ndarray        # (l, n) kernel between the samples and every voxel
    penalty: np.ndarray      # (l, l) cross H cross^T, H the voxels' graph
    pencil: np.ndarray       # (l, l) within + beta I


def dense_step(keep: np.ndarray, sides: np.ndarray, spec: KernelSpec, features: np.ndarray,
               member_box: np.ndarray, beta: float) -> DenseStep:
    """The step build_matrices reduces, in full, with the ridge beta: the
    member voxels keep, on sides in {-1, +1}, train it.

    The penalty is the edge sum -sum (c_i - c_j)(c_i - c_j)^T over the
    graph's edges, c_i the kernel column of voxel i: a saturated sigmoid
    kernel is nearly constant, and cross H cross^T, which sums the columns
    before it differences them, rounded its top eigenvalue by up to 5e-7
    relative on the benchmark phantom's CSF step. The within-class matrix
    is the centred product Z Z^T, Z the gram with each column centred on
    its class mean: equal to within() in exact arithmetic, but within()'s
    k_m k_m^T - l_m M_m M_m^T cancels large terms, and on that step its
    rounding reaches the floor ridge and moves the top eigenvalue by up to
    1e-4 relative.
    """
    g = gram(features[keep], spec)
    m_neg = g[:, sides < 0].mean(axis=1)
    m_pos = g[:, sides > 0].mean(axis=1)
    z = g - np.where(sides < 0, m_neg[:, None], m_pos[:, None])
    cross = kernel_matrix(spec, features[keep], features)
    edges = graph_edges(neighborhood_matrix(member_box))
    diff = cross[:, edges[:, 0]] - cross[:, edges[:, 1]]
    return DenseStep(m_neg=m_neg, m_pos=m_pos, cross=cross, penalty=-(diff @ diff.T),
                     pencil=z @ z.T + beta * np.eye(len(g)))


def dense_solve(step: DenseStep, lam: float) -> tuple[float, np.ndarray, np.ndarray]:
    """(gamma, alpha, voxel projections) of the top eigenpair of
    (m m^T + lam P) a = gamma N a by scipy's dense generalized eigh, alpha
    of unit N-norm and signed so the positive class projects positive."""
    m = step.m_neg - step.m_pos
    a = np.outer(m, m) + lam * step.penalty
    evals, evecs = sla.eigh(0.5 * (a + a.T), step.pencil)
    alpha = evecs[:, -1]
    if alpha @ m > 0:
        alpha = -alpha
    offset = -float(alpha @ (step.m_neg + step.m_pos)) / 2.0
    return float(evals[-1]), alpha, step.cross.T @ alpha + offset


def roughness(mats: KfdaMatrices, alpha: np.ndarray) -> float:
    """Sum of squared projection differences over graph edges."""
    return -float(alpha @ mats.penalty_matvec(alpha))


def neighbour_graph(member_box: np.ndarray) -> np.ndarray:
    """Dense 26-connectivity graph matrix of a box's member voxels, in C
    order: 1 between members at Chebyshev distance 1, minus the degree on
    the diagonal."""
    coords = np.argwhere(member_box)
    adjacent = np.abs(coords[:, None, :] - coords[None, :, :]).max(axis=2) == 1
    return adjacent - np.diag(adjacent.sum(axis=1)).astype(np.float64)


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


def mi_oracle(joint) -> float:
    """MI of a 2 x 2 count table (rows the bins, columns the slabs) by direct
    double summation of the defining formula."""
    joint = np.asarray(joint, dtype=np.float64)
    total = joint.sum()
    n_i = joint.sum(axis=1)
    n_j = joint.sum(axis=0)
    mi = 0.0
    for i in range(2):
        if n_i[i] > 0:
            mi -= (n_i[i] / total) * math.log(n_i[i] / total)
    for j in range(2):
        for i in range(2):
            if joint[i, j] > 0:
                mi += (joint[i, j] / total) * math.log(joint[i, j] / n_j[j])
    return mi


def exhaustive_cut_oracle(vol: MultiChannelVolume, bounds):
    """((axis, cut index), MI) of the box's best cut, or None: every feasible
    cut's joint table counted from its first slab's voxels and scored by
    mi_oracle, clamped at 0; the first maximum in axis, then cut order wins."""
    sl = box_slices(bounds)
    box = vol.data[sl][..., REFERENCE_CHANNEL].astype(np.float64)
    mask = vol.mask[sl]
    threshold = otsu_threshold(box[mask])
    low = (box < threshold) & mask if threshold is not None else np.zeros_like(mask)
    n_low = int(low.sum())
    n_tot = int(mask.sum())
    best = None
    for axis in range(3):
        lo, hi = bounds[axis]
        for local_cut in range(3, hi - lo + 1 - 2):
            sel = [slice(None)] * 3
            sel[axis] = slice(0, local_cut)
            sel = tuple(sel)
            n1 = int(mask[sel].sum())
            n1_low = int(low[sel].sum())
            joint = [[n1_low, n_low - n1_low],
                     [n1 - n1_low, (n_tot - n1) - (n_low - n1_low)]]
            value = max(0.0, mi_oracle(joint))
            if best is None or value > best[1]:
                best = ((axis, lo + local_cut), value)
    return best


def box_noise_sigma(vol: MultiChannelVolume, bounds) -> float:
    """Noise std from the box's own ndimage.laplace: the MAD of the Laplacian
    over the box-interior voxels whose six neighbours are masked, scaled to
    a Gaussian sigma; 0.0 under 8 such voxels or in a box thinner than 3."""
    sl = box_slices(bounds)
    box = vol.data[sl][..., REFERENCE_CHANNEL].astype(np.float64)
    mask = vol.mask[sl]
    if min(box.shape) < 3:
        return 0.0
    lap = ndimage.laplace(box)
    interior = np.zeros_like(mask)
    interior[1:-1, 1:-1, 1:-1] = (
        mask[1:-1, 1:-1, 1:-1]
        & mask[:-2, 1:-1, 1:-1] & mask[2:, 1:-1, 1:-1]
        & mask[1:-1, :-2, 1:-1] & mask[1:-1, 2:, 1:-1]
        & mask[1:-1, 1:-1, :-2] & mask[1:-1, 1:-1, 2:]
    )
    values = lap[interior]
    if values.size < 8:
        return 0.0
    mad = float(np.median(np.abs(values - np.median(values))))
    return mad / _MAD_SCALE / _LAPLACIAN_GAIN


def box_snr(vol: MultiChannelVolume, bounds) -> float:
    """Mean masked reference intensity of the box over box_noise_sigma;
    +inf for a box without masked voxels or without noise."""
    sl = box_slices(bounds)
    values = vol.data[sl][..., REFERENCE_CHANNEL].astype(np.float64)[vol.mask[sl]]
    sigma = box_noise_sigma(vol, bounds)
    if values.size == 0 or sigma <= 0.0:
        return math.inf
    return float(values.mean()) / sigma


def cnr(vol: MultiChannelVolume, bounds, labels: np.ndarray,
        class_a, class_b) -> float | None:
    """Contrast-to-noise between two label groups on the reference channel
    of the box bounds.

    class_a / class_b are labels or label tuples (e.g. (2, 3) for G+WM).
    Returns None when either class is absent from the box.
    """
    sl = box_slices(bounds)
    box = vol.data[sl][..., REFERENCE_CHANNEL].astype(np.float64)
    mask = vol.mask[sl]
    lab = labels[sl]
    sel_a = np.isin(lab, np.atleast_1d(class_a)) & mask
    sel_b = np.isin(lab, np.atleast_1d(class_b)) & mask
    if not sel_a.any() or not sel_b.any():
        return None
    sigma = noise_sigma(reference_field(vol), bounds)
    contrast = abs(float(box[sel_a].mean()) - float(box[sel_b].mean()))
    if sigma <= 0.0:
        return math.inf if contrast > 0 else 0.0
    return contrast / sigma


# ---------------------------------------------------------------------------
# Stitching
# ---------------------------------------------------------------------------

# The published overlap field over all four labels, which the strip solvers
# reduce to one observation per disagreement component
N_STATES = 4  # CSF, GM, WM, BG: labels 1..4 index the potential tables as 0..3
EDGE_BOTH = 1.0
NODE_BOTH = 1.0
NODE_ONE = 0.5
NODE_NONE = 0.01
W_BOUNDARY = 0.75
W_INTERIOR = 0.25


@dataclass
class PotentialTables:
    """Edge tables Psi (one 4x4 table per lattice edge) and node tables Phi.

    psi_h[r, c] couples nodes (r, c) and (r, c+1); psi_v[r, c] couples
    (r, c) and (r+1, c); phi[r, c] weighs node (r, c). All entries are
    strictly positive products of the tabulated constants.
    """

    psi_h: np.ndarray
    psi_v: np.ndarray
    phi: np.ndarray


def build_potentials(p: StitchProblem) -> PotentialTables:
    """Potential tables from the two observations.

    Edge pairs observed in both patches score 1, in exactly one patch 0.5,
    otherwise 0.01; node labels likewise, scaled by 3/4 on the strip's
    authoritative boundary (outer columns for a horizontal strip, outer rows
    for a vertical one) and 1/4 elsewhere.
    """
    h, w = p.shape
    a = p.obs_a.astype(np.int64) - 1
    b = p.obs_b.astype(np.int64) - 1

    psi_h = np.full((h, max(w - 1, 0), N_STATES, N_STATES), EDGE_NONE)
    if w > 1:
        rr, cc = np.meshgrid(np.arange(h), np.arange(w - 1), indexing="ij")
        pa1, pa2 = a[:, :-1], a[:, 1:]
        pb1, pb2 = b[:, :-1], b[:, 1:]
        psi_h[rr, cc, pa1, pa2] = EDGE_ONE
        agree = (pa1 == pb1) & (pa2 == pb2)
        psi_h[rr, cc, pb1, pb2] = np.where(agree, EDGE_BOTH, EDGE_ONE)

    psi_v = np.full((max(h - 1, 0), w, N_STATES, N_STATES), EDGE_NONE)
    if h > 1:
        rr, cc = np.meshgrid(np.arange(h - 1), np.arange(w), indexing="ij")
        pa1, pa2 = a[:-1, :], a[1:, :]
        pb1, pb2 = b[:-1, :], b[1:, :]
        psi_v[rr, cc, pa1, pa2] = EDGE_ONE
        agree = (pa1 == pb1) & (pa2 == pb2)
        psi_v[rr, cc, pb1, pb2] = np.where(agree, EDGE_BOTH, EDGE_ONE)

    phi = np.full((h, w, N_STATES), NODE_NONE)
    rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    phi[rr, cc, a] = NODE_ONE
    phi[rr, cc, b] = np.where(a == b, NODE_BOTH, NODE_ONE)
    weight = np.full((h, w), W_INTERIOR)
    if p.orientation == "horizontal":
        weight[:, 0] = W_BOUNDARY
        weight[:, -1] = W_BOUNDARY
    else:
        weight[0, :] = W_BOUNDARY
        weight[-1, :] = W_BOUNDARY
    phi *= weight[:, :, None]
    return PotentialTables(psi_h=psi_h, psi_v=psi_v, phi=phi)


def log_posterior(config: np.ndarray, pt: PotentialTables) -> float:
    """Unnormalized log posterior of a label patch under the tables."""
    c = np.asarray(config, dtype=np.int64) - 1
    if c.shape != pt.phi.shape[:2]:
        raise ValueError(f"config shape {c.shape} does not match tables {pt.phi.shape[:2]}")
    h, w = c.shape
    total = 0.0
    rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    total += float(np.log(pt.phi[rr, cc, c]).sum())
    if w > 1:
        rr, cc = np.meshgrid(np.arange(h), np.arange(w - 1), indexing="ij")
        total += float(np.log(pt.psi_h[rr, cc, c[:, :-1], c[:, 1:]]).sum())
    if h > 1:
        rr, cc = np.meshgrid(np.arange(h - 1), np.arange(w), indexing="ij")
        total += float(np.log(pt.psi_v[rr, cc, c[:-1, :], c[1:, :]]).sum())
    return total


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
