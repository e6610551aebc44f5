"""Spatially regularized two-class kernel Fisher discriminant analysis.

A subdomain is classified in the implicit kernel feature space: the
discriminant direction maximizes between-class over within-class scatter
plus a graph penalty that discourages projection differences between
neighbouring voxels (26-connected grid). The direction solves a generalized
eigenproblem. Each step factors the within-class pencil once and builds one
Krylov basis of N^-1 P started from N^-1 m and a fixed-seed vector; every
regularization weight of the sweep is a Rayleigh-Ritz solve on that basis,
exact for a positive top eigenvalue because the penalty is negative
semidefinite (see solve_alpha). Voxels are then categorized by projection
sign into tissue prototypes, an overlapping set and class outliers, which
are refined by Mahalanobis and k-nearest-neighbour classifiers under MSSIM
guidance. classify_subdomain runs both binary steps, CSF vs G+WM and then
GM vs WM, as one loop over a step table; each step's scorer renders a
labeling's classified mean image, scores it against the reference and
caches the result, so every distinct labeling is scored once per step.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial import cKDTree

from .ssim import classified_mean_image, mssim
from .volume import BG, CSF, GM, TISSUE_LABELS, WM, MultiChannelVolume, box_slices

logger = logging.getLogger(__name__)


class ConvergenceError(RuntimeError):
    """No ridge made the within-class pencil factorable for the eigen solve."""


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """Kernel function choice with its scalar parameters."""

    kind: str                # "sigmoid" | "gaussian_rbf" | "linear"
    a: float = 8.0           # sigmoid gain
    b: float = -0.0005       # sigmoid offset
    sigma: float = 0.5       # RBF bandwidth

    def __post_init__(self):
        if self.kind not in ("sigmoid", "gaussian_rbf", "linear"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "gaussian_rbf" and self.sigma <= 0:
            raise ValueError("RBF bandwidth must be positive")

    @classmethod
    def sigmoid(cls, a: float = 8.0, b: float = -0.0005) -> "KernelSpec":
        return cls(kind="sigmoid", a=a, b=b)

    @classmethod
    def rbf(cls, sigma: float = 0.5) -> "KernelSpec":
        return cls(kind="gaussian_rbf", sigma=sigma)

    @classmethod
    def linear(cls) -> "KernelSpec":
        return cls(kind="linear")


def kernel_matrix(spec: KernelSpec, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Pairwise kernel matrix K[i, j] = K(xs[i], zs[j]).

    Works in place on a single (m, n) buffer; the result can reach GB scale
    for whole-subdomain cross kernels.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    zs = np.atleast_2d(np.asarray(zs, dtype=np.float64))
    out = xs @ zs.T
    if spec.kind == "sigmoid":
        out *= spec.a
        out += spec.b
        np.tanh(out, out=out)
        return out
    if spec.kind == "gaussian_rbf":
        out *= -2.0
        out += np.sum(xs * xs, axis=1)[:, None]
        out += np.sum(zs * zs, axis=1)[None, :]
        np.maximum(out, 0.0, out=out)
        out *= -1.0 / (2.0 * spec.sigma ** 2)
        np.exp(out, out=out)
    return out


# ---------------------------------------------------------------------------
# Training data over a subdomain
# ---------------------------------------------------------------------------

@dataclass
class TrainingSet:
    """Labeled samples: features (l, d) and labels in {-1, +1}."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int8)
        if self.features.ndim != 2 or len(self.labels) != len(self.features):
            raise ValueError("features must be (l, d) with one label per row")
        if not np.all(np.isin(self.labels, (-1, 1))):
            raise ValueError("labels must be -1 or +1")
        if self.count_neg < 1 or self.count_pos < 1:
            raise ValueError("both classes need at least one sample")

    @property
    def neg_idx(self) -> np.ndarray:
        return np.flatnonzero(self.labels < 0)

    @property
    def pos_idx(self) -> np.ndarray:
        return np.flatnonzero(self.labels > 0)

    @property
    def count_neg(self) -> int:
        return int(np.count_nonzero(self.labels < 0))

    @property
    def count_pos(self) -> int:
        return int(np.count_nonzero(self.labels > 0))

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class SubdomainData:
    """Masked-voxel view of one subdomain box.

    features holds the (n, channels) intensity vectors of the box's member
    voxels in C order.
    """

    features: np.ndarray
    member_box: np.ndarray

    @classmethod
    def from_mask(cls, data_box: np.ndarray, member_box: np.ndarray) -> "SubdomainData":
        member_box = np.asarray(member_box, dtype=bool)
        return cls(features=data_box[member_box].astype(np.float64), member_box=member_box)

    def __len__(self) -> int:
        return len(self.features)


def neighborhood_matrix(member_box: np.ndarray) -> sparse.csr_matrix:
    """26-connectivity graph matrix over a box's member voxels.

    Entries are 1 on edges, minus the vertex degree on the diagonal and 0
    elsewhere; neighbourhoods truncate at box faces and at non-member
    voxels, so row sums are exactly zero.
    """
    member_box = np.asarray(member_box, dtype=bool)
    index = np.full(member_box.shape, -1, dtype=np.int64)
    n = int(member_box.sum())
    index[member_box] = np.arange(n)

    rows, cols = [], []
    offsets = [(di, dj, dk)
               for di in (-1, 0, 1) for dj in (-1, 0, 1) for dk in (-1, 0, 1)
               if (di, dj, dk) > (0, 0, 0)]
    shape = member_box.shape
    for di, dj, dk in offsets:
        src = tuple(slice(max(0, -d), s - max(0, d)) for d, s in zip((di, dj, dk), shape))
        dst = tuple(slice(max(0, d), s - max(0, -d)) for d, s in zip((di, dj, dk), shape))
        a = index[src].ravel()
        b = index[dst].ravel()
        valid = (a >= 0) & (b >= 0)
        rows.append(a[valid])
        cols.append(b[valid])
    if rows:
        r = np.concatenate(rows)
        c = np.concatenate(cols)
    else:
        r = np.empty(0, dtype=np.int64)
        c = np.empty(0, dtype=np.int64)
    data = np.ones(2 * r.size, dtype=np.float64)
    adj = sparse.coo_matrix(
        (data, (np.concatenate([r, c]), np.concatenate([c, r]))), shape=(n, n)).tocsr()
    degree = np.asarray(adj.sum(axis=1)).ravel()
    return (adj - sparse.diags(degree)).tocsr()


# ---------------------------------------------------------------------------
# Discriminant matrices
# ---------------------------------------------------------------------------

@dataclass
class KfdaMatrices:
    """Gram, class-mean, scatter and penalty structure for one training set."""

    gram: np.ndarray            # (l, l)
    m_neg: np.ndarray           # (l,)
    m_pos: np.ndarray           # (l,)
    within: np.ndarray          # (l, l), kernelized within-class scatter
    neighborhood: sparse.csr_matrix   # (n, n) over subdomain voxels
    cross: np.ndarray           # (l, n) kernel between samples and all voxels
    training: TrainingSet
    spec: KernelSpec

    @property
    def m_diff(self) -> np.ndarray:
        return self.m_neg - self.m_pos

    def penalty_matvec(self, v: np.ndarray) -> np.ndarray:
        """cross H cross^T v in float64, the graph differences taken in it.

        Vectors meet the cross kernel in its stored dtype: mixing dtypes
        would silently copy a float32 cross kernel up to float64."""
        dtype = self.cross.dtype
        u = (self.cross.T @ v.astype(dtype, copy=False)).astype(np.float64, copy=False)
        w = self.neighborhood.dot(u).astype(dtype, copy=False)
        return (self.cross @ w).astype(np.float64, copy=False)

    def voxel_projections(self, alpha: np.ndarray) -> np.ndarray:
        """cross^T alpha in float64, the product taken in the cross kernel's dtype."""
        return (self.cross.T @ alpha.astype(self.cross.dtype, copy=False)).astype(
            np.float64, copy=False)

# above this entry count the whole-subdomain cross kernel is stored in
# float32: the matvec is memory-bandwidth bound and tests that need 1e-8
# quadratic identities run far below this size
CROSS_F32_THRESHOLD = 3 * 10 ** 7


def build_matrices(ts: TrainingSet, spec: KernelSpec,
                   subdata: SubdomainData) -> KfdaMatrices:
    """Assemble the kernelized scatter matrices and the graph penalty factors.

    The within-class matrix uses the centering identity
    k_m (I - 1_m) k_m^T = k_m k_m^T - l_m M_m M_m^T summed over both
    classes; duplicates making it singular are absorbed later by the ridge.
    """
    gram = kernel_matrix(spec, ts.features, ts.features)
    gram = 0.5 * (gram + gram.T)
    m_neg = gram[:, ts.neg_idx].mean(axis=1)
    m_pos = gram[:, ts.pos_idx].mean(axis=1)
    within = gram @ gram
    within -= ts.count_neg * np.outer(m_neg, m_neg)
    within -= ts.count_pos * np.outer(m_pos, m_pos)
    within = 0.5 * (within + within.T)
    h = neighborhood_matrix(subdata.member_box)
    cross = kernel_matrix(spec, ts.features, subdata.features)
    if cross.size > CROSS_F32_THRESHOLD:
        cross = cross.astype(np.float32)
    return KfdaMatrices(gram=gram, m_neg=m_neg, m_pos=m_pos, within=within,
                        neighborhood=h, cross=cross, training=ts, spec=spec)


# ---------------------------------------------------------------------------
# Eigen solve
# ---------------------------------------------------------------------------

@dataclass
class KfdaModel:
    """Solved discriminant: expansion coefficients and projection offset."""

    alpha: np.ndarray
    gamma: float
    b_offset: float
    kernel: KernelSpec
    lam: float
    beta: float
    iterations: int
    residual: float
    training: TrainingSet


def default_beta(within: np.ndarray, scale: float = 1e-3) -> float:
    beta = scale * float(np.trace(within)) / within.shape[0]
    # trace 0 happens for single-sample classes; keep the pencil definite
    return beta if beta > 0 else 1e-10


# expanded basis vectors per step, at most min(l, MAX_EXPANSIONS); a lambda
# that reaches the cap keeps its Ritz pair with its residual as is
MAX_EXPANSIONS = 320


class KrylovBasis:
    """N-orthonormal Krylov basis of N^-1 P shared by every lambda of a step.

    N = within + beta I is factored once, with the ridge raised tenfold on
    each failed factorization (singular N is absorbed by the ridge, never an
    error). The basis starts from N^-1 m and from a fixed-seed (9999) vector
    and grows by applying N^-1 P to its oldest vector not yet expanded, with
    full reorthogonalization in the N inner product. Every expanded vector
    keeps its product P v, so the projected penalty T = V^T P V over the
    expanded vectors and the residual coupling to the unexpanded ones cost
    no further penalty matvecs. Raises ConvergenceError when no ridge makes
    the pencil factorable.
    """

    def __init__(self, mats: KfdaMatrices, beta: float | None = None):
        l = mats.gram.shape[0]
        if beta is None:
            beta = default_beta(mats.within)
        # the within matrix is assembled through gram @ gram, whose rounding
        # noise scales with ||gram||_F^2; the ridge must stay above that floor
        noise_floor = 64.0 * np.finfo(np.float64).eps * float(np.einsum(
            "ij,ij->", mats.gram, mats.gram))
        beta = max(beta, noise_floor, 1e-300)
        for _ in range(8):
            pencil = mats.within + beta * np.eye(l)
            try:
                self.chol = cho_factor(pencil, lower=True)
                break
            except np.linalg.LinAlgError:
                beta *= 10.0
        else:
            raise ConvergenceError("within-class pencil could not be made "
                                   "positive definite")
        self.mats, self.pencil, self.beta = mats, pencil, beta
        self.cap = min(l, MAX_EXPANSIONS)
        self.vecs = np.empty((self.cap + 2, l))       # V, N-orthonormal rows
        self.n_vecs = np.empty((self.cap + 2, l))     # N V
        self.p_vecs = np.empty((self.cap, l))         # P V, expanded rows
        self.proj = np.zeros((self.cap + 2, self.cap))  # V^T P V[:expanded]
        self.size = 0
        self.expanded = 0
        u = cho_solve(self.chol, mats.m_diff)
        # V^T m = sqrt(c) e_0: every later vector is N-orthogonal to N^-1 m
        self.c = float(mats.m_diff @ u)
        if not self._append(u):
            self.c = 0.0
        self._append(np.random.default_rng(9999).standard_normal(l))

    def _append(self, w: np.ndarray) -> bool:
        """N-orthonormalize w against the basis and add it unless it vanishes."""
        k = self.size
        if k == len(self.pencil):
            return False
        norm_in = math.sqrt(max(float(w @ (self.pencil @ w)), 0.0))
        for _ in range(2):
            w = w - (self.n_vecs[:k] @ w) @ self.vecs[:k]
        n_w = self.pencil @ w
        norm = math.sqrt(max(float(w @ n_w), 0.0))
        if norm <= 1e-12 * norm_in:
            return False
        self.vecs[k] = w / norm
        self.n_vecs[k] = n_w / norm
        self.proj[k, :self.expanded] = self.p_vecs[:self.expanded] @ self.vecs[k]
        self.size += 1
        return True

    def expand(self) -> bool:
        """Apply N^-1 P to the oldest unexpanded vector; False at the cap
        or once every vector is expanded (an invariant subspace)."""
        j = self.expanded
        if j == self.cap or j == self.size:
            return False
        pv = self.mats.penalty_matvec(self.vecs[j])
        self.p_vecs[j] = pv
        self.proj[:self.size, j] = self.vecs[:self.size] @ pv
        self.expanded += 1
        self._append(cho_solve(self.chol, pv, check_finite=False))
        return True

    def ritz(self, lam: float) -> tuple[float, np.ndarray, float]:
        """Top Ritz pair of (c e_0 e_0^T + lam T) y = gamma y and its bound.

        Rayleigh-Ritz runs on the expanded vectors, or on N^-1 m alone
        before any expansion. N^-1 P maps each expanded vector into the
        basis, so the N-norm residual of the Ritz vector is
        |lam| ||T_UE y|| over the unexpanded vectors U; it is unknown
        (infinite) for lam != 0 before the first expansion.
        """
        k = max(self.expanded, 1)
        a = lam * self.proj[:k, :k]
        a = 0.5 * (a + a.T)
        a[0, 0] += self.c
        evals, evecs = np.linalg.eigh(a)
        y = evecs[:, -1]
        if lam == 0.0:
            bound = 0.0
        elif not self.expanded:
            bound = math.inf
        else:
            bound = abs(lam) * float(np.linalg.norm(self.proj[k:self.size, :k] @ y))
        return float(evals[-1]), y, bound


def solve_alpha(mats: KfdaMatrices, lam: float, beta: float | None = None,
                basis: KrylovBasis | None = None) -> KfdaModel:
    """Leading eigenpair of the regularized discriminant criterion.

    The criterion's numerator m m^T + lam P varies with lam only through a
    multiple of one fixed operator, so one KrylovBasis per step serves
    every lam of its sweep by Rayleigh-Ritz (Saad, Numerical Methods for
    Large Eigenvalue Problems, 2011); a call without a basis builds its
    own. The basis grows only until this lam's residual bound meets
    1e-9 * max(1, |gamma|), or until it holds min(l, 320) expanded
    vectors, where the Ritz pair is returned with its residual as is.

    The penalty P = C H C^T is negative semidefinite (H is adjacency minus
    degree), so for gamma > 0 the top eigenvector is proportional to
    (gamma N - lam P)^-1 m, which lies in K(N^-1 P, N^-1 m) for every lam.
    The fixed-seed start vector covers gamma <= 0: when a training set is
    the whole leaf, constant voxel projections null both terms, and at
    large lam the top can lie outside that space.

    iterations counts the penalty matvecs this lam added to the basis, so a
    step's iterations sum to its penalty_matvec calls. residual is the
    explicit Euclidean residual of the unit Ritz vector, computed from the
    stored P V products. Returns alpha scaled to unit constraint and signed
    so the positive class projects positive.
    """
    if basis is None:
        basis = KrylovBasis(mats, beta)
    start = basis.expanded
    while True:
        gamma, y, bound = basis.ritz(lam)
        if bound <= 1e-9 * max(1.0, abs(gamma)):
            break
        if not basis.expand():
            logger.debug("eigen basis cap reached at gamma %.6g, residual "
                         "bound %.3e", gamma, bound)
            break
    k = len(y)
    v = y @ basis.vecs[:k]                      # N-norm 1
    m_diff = mats.m_diff
    num = m_diff * float(m_diff @ v)
    if lam != 0.0:
        num += lam * (y @ basis.p_vecs[:k])
    residual = float(np.linalg.norm(
        cho_solve(basis.chol, num, check_finite=False) - gamma * v)
        / np.linalg.norm(v))
    alpha = v / math.sqrt(float(v @ (y @ basis.n_vecs[:k])))
    if float(alpha @ m_diff) > 0:     # positive class must project positive
        alpha = -alpha
    proj_neg = float(alpha @ mats.m_neg)
    proj_pos = float(alpha @ mats.m_pos)
    b_offset = -(proj_neg + proj_pos) / 2.0
    return KfdaModel(alpha=alpha, gamma=gamma, b_offset=b_offset,
                     kernel=mats.spec, lam=lam, beta=basis.beta,
                     iterations=basis.expanded - start, residual=residual,
                     training=mats.training)


# ---------------------------------------------------------------------------
# Voxel categorization and refinement
# ---------------------------------------------------------------------------

@dataclass
class VoxelCategories:
    """Disjoint voxel index sets covering every classified voxel."""

    prototypes_neg: np.ndarray
    prototypes_pos: np.ndarray
    overlap_neg_on_pos: np.ndarray
    overlap_pos_on_neg: np.ndarray
    outliers_neg: np.ndarray
    outliers_pos: np.ndarray

    @property
    def overlap(self) -> np.ndarray:
        return np.concatenate([self.overlap_neg_on_pos, self.overlap_pos_on_neg])

    @property
    def outliers(self) -> np.ndarray:
        return np.concatenate([self.outliers_neg, self.outliers_pos])

    @property
    def prototypes(self) -> np.ndarray:
        return np.concatenate([self.prototypes_neg, self.prototypes_pos])

    def sizes(self) -> dict:
        return {
            "prototypes_neg": int(len(self.prototypes_neg)),
            "prototypes_pos": int(len(self.prototypes_pos)),
            "overlap_neg_on_pos": int(len(self.overlap_neg_on_pos)),
            "overlap_pos_on_neg": int(len(self.overlap_pos_on_neg)),
            "outliers_neg": int(len(self.outliers_neg)),
            "outliers_pos": int(len(self.outliers_pos)),
        }


def categorize(projections: np.ndarray, init_sides: np.ndarray,
               tau_band: float = 1.0, tau_outlier: float = 2.5) -> VoxelCategories:
    """Split voxels into prototypes, overlapping set and outliers.

    A voxel whose projection sign agrees with its initial side is a
    prototype. Disagreeing voxels inside the band tau_band * pooled
    projection std around the decision value 0 form the overlapping set;
    disagreeing voxels further than tau_outlier * own-class std from their
    class's projected centroid are outliers; the remainder stays prototype.
    """
    proj = np.asarray(projections, dtype=np.float64)
    sides = np.asarray(init_sides, dtype=np.int8)
    if proj.shape != sides.shape:
        raise ValueError("projections and initial sides must align")
    neg = sides < 0
    pos = ~neg
    on_pos_side = proj >= 0.0
    agree = np.where(pos, on_pos_side, ~on_pos_side)

    cent_neg = proj[neg].mean() if neg.any() else 0.0
    cent_pos = proj[pos].mean() if pos.any() else 0.0
    std_neg = proj[neg].std() if neg.any() else 0.0
    std_pos = proj[pos].std() if pos.any() else 0.0
    n_neg, n_pos = int(neg.sum()), int(pos.sum())
    pooled = math.sqrt((n_neg * std_neg ** 2 + n_pos * std_pos ** 2)
                       / max(n_neg + n_pos, 1))

    in_band = np.abs(proj) <= tau_band * pooled
    centroid = np.where(neg, cent_neg, cent_pos)
    own_std = np.where(neg, std_neg, std_pos)
    far = np.abs(proj - centroid) > tau_outlier * own_std

    disagree = ~agree
    overlap = disagree & in_band
    outlier = disagree & ~in_band & far
    proto = ~(overlap | outlier)

    idx = np.arange(proj.size)
    return VoxelCategories(
        prototypes_neg=idx[proto & neg],
        prototypes_pos=idx[proto & pos],
        overlap_neg_on_pos=idx[overlap & neg],
        overlap_pos_on_neg=idx[overlap & pos],
        outliers_neg=idx[outlier & neg],
        outliers_pos=idx[outlier & pos],
    )


def _mahalanobis_sq(x: np.ndarray, mean: np.ndarray, cov: np.ndarray,
                    ridge: float) -> np.ndarray:
    d = cov.shape[0]
    cov = cov + (ridge * max(np.trace(cov) / d, 1.0) + 1e-12) * np.eye(d)
    inv = np.linalg.inv(cov)
    delta = x - mean
    return np.einsum("ij,jk,ik->i", delta, inv, delta)


def classify_outliers_mahalanobis(features: np.ndarray, init_sides: np.ndarray,
                                  proto_neg: np.ndarray, proto_pos: np.ndarray,
                                  ridge: float = 1e-6) -> np.ndarray:
    """Assign each outlier to the class with smaller Mahalanobis distance.

    Class statistics come from the prototype intensities; ties keep the
    initial side. Covariances are ridge-regularized, never singular.
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if features.shape[0] == 0:
        return np.asarray(init_sides, dtype=np.int8).copy()
    stats = []
    for protos in (proto_neg, proto_pos):
        protos = np.atleast_2d(np.asarray(protos, dtype=np.float64))
        mean = protos.mean(axis=0)
        centred = protos - mean
        cov = centred.T @ centred / max(len(protos), 1)
        stats.append((mean, cov))
    d_neg = _mahalanobis_sq(features, *stats[0], ridge=ridge)
    d_pos = _mahalanobis_sq(features, *stats[1], ridge=ridge)
    out = np.where(d_neg < d_pos, -1, np.where(d_pos < d_neg, 1, init_sides))
    return out.astype(np.int8)


def nearest_prototype_sides(spec: KernelSpec, queries: np.ndarray,
                            proto_features: np.ndarray, proto_sides: np.ndarray,
                            k_max: int) -> np.ndarray:
    """(n_queries, k_max) class sides of each query's nearest prototypes.

    Neighbours are ordered by distance, then by prototype index; quantized
    intensities make exact ties real. Every kernel spec ranks by Euclidean
    distance between intensity vectors, answered exactly by a KD-tree. For
    the linear kernel that is its own order: its kernel-trick distance
    x.x - 2x.p + p.p is d^2. So it is for RBF, whose 2 - 2 exp(-d^2 / 2
    sigma^2) is monotone in d. The sigmoid kernel is not positive
    semidefinite (Lin & Lin 2003), so its kernel-trick expression
    K(x,x) - 2K(x,p) + K(p,p) is no distance: it goes negative against
    high-norm prototypes and would rank them first whatever their intensity.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    protos = np.atleast_2d(np.asarray(proto_features, dtype=np.float64))
    proto_sides = np.asarray(proto_sides, dtype=np.int8)
    n_q = len(queries)
    k_max = min(k_max, len(proto_sides))
    if k_max == 0:
        return np.empty((n_q, 0), dtype=np.int8)
    # one neighbour past k_max shows whether a tie straddles the cut
    k_query = min(k_max + 1, len(protos))
    dist, idx = cKDTree(protos).query(queries, k=k_query)
    dist = dist.reshape(n_q, k_query)
    idx = idx.reshape(n_q, k_query)
    cols = np.lexsort((idx, dist), axis=1)
    rows = np.arange(n_q)[:, None]
    dist, idx = dist[rows, cols], idx[rows, cols]
    if k_query > k_max:
        # the tree returns any of the tied prototypes; rank those rows over
        # all prototypes so the lowest indices make the cut
        for r in np.flatnonzero(dist[:, k_max - 1] == dist[:, k_max]):
            d = np.sqrt(np.sum((protos - queries[r]) ** 2, axis=1))
            idx[r, :k_max] = np.argsort(d, kind="stable")[:k_max]
    return proto_sides[idx[:, :k_max]]


# ---------------------------------------------------------------------------
# MSSIM-guided decision surface
# ---------------------------------------------------------------------------

def ssim_guided_decision(features: np.ndarray, init_sides: np.ndarray,
                         categories: VoxelCategories, kernel: KernelSpec,
                         score, k_grid=(1, 3, 5, 7, 9, 11)) -> tuple[np.ndarray, float, dict]:
    """Refine outliers and the overlapping set, keeping the better labeling.

    Outliers are reassigned by Mahalanobis distance; the overlapping set is
    reassigned by KNN for each k in k_grid on top of that. One call to
    nearest_prototype_sides ranks the prototypes for every k: an exact
    KD-tree in Euclidean intensity order (the RBF and linear kernel-trick
    distances are monotone in it; the sigmoid kernel is not positive
    semidefinite and has no kernel-trick distance), ties broken by
    prototype index. score(sides) gives a labeling's MSSIM against the
    reference; the larger wins. An empty overlapping set returns the
    Mahalanobis labeling directly.
    """
    init_sides = np.asarray(init_sides, dtype=np.int8)
    sides_mahal = init_sides.copy()
    out_idx = categories.outliers
    proto_neg_f = features[categories.prototypes_neg]
    proto_pos_f = features[categories.prototypes_pos]
    if len(out_idx):
        sides_mahal[out_idx] = classify_outliers_mahalanobis(
            features[out_idx], sides_mahal[out_idx], proto_neg_f, proto_pos_f)

    mssim_mahal = score(sides_mahal)
    info = {"mssim_mahal": mssim_mahal, "mssim_knn": None, "best_k": None,
            "route": "mahalanobis"}

    ov_idx = categories.overlap
    proto_idx = categories.prototypes
    if len(ov_idx) == 0 or len(proto_idx) == 0:
        return sides_mahal, mssim_mahal, info

    usable = [k for k in k_grid if k % 2 == 1 and k <= len(proto_idx)]
    if not usable:
        return sides_mahal, mssim_mahal, info
    # a prototype keeps its initial side by definition
    ranked_sides = nearest_prototype_sides(kernel, features[ov_idx],
                                           features[proto_idx], init_sides[proto_idx],
                                           max(usable))

    best_k = None
    best_knn_mssim = -math.inf
    best_sides = None
    for k in usable:
        votes = ranked_sides[:, :k].astype(np.int32).sum(axis=1)
        sides_k = sides_mahal.copy()
        sides_k[ov_idx] = np.where(votes > 0, 1, -1)
        value = score(sides_k)
        if value > best_knn_mssim:
            best_knn_mssim = value
            best_k = k
            best_sides = sides_k

    info["mssim_knn"] = best_knn_mssim
    info["best_k"] = best_k
    if best_knn_mssim >= mssim_mahal:
        info["route"] = "knn"
        return best_sides, best_knn_mssim, info
    return sides_mahal, mssim_mahal, info


# ---------------------------------------------------------------------------
# Subdomain classification driver
# ---------------------------------------------------------------------------

@dataclass
class KfdaConfig:
    """Knobs of the two-step subdomain classification."""

    kernel_csf: KernelSpec = field(default_factory=KernelSpec.sigmoid)
    kernel_gm_wm: KernelSpec = field(default_factory=KernelSpec.rbf)
    lambda_grid: tuple = (0.0, 0.000025, 0.00005, 0.000075, 0.0001)
    k_grid: tuple = (1, 3, 5, 7, 9, 11)
    l_max: int = 4000
    tau_band: float = 1.0
    tau_outlier: float = 2.5
    beta_scale: float = 1e-3
    reference_channel: int = 0
    seed: int = 0

    def __post_init__(self):
        if not self.lambda_grid:
            raise ValueError("lambda grid must not be empty")
        # solve_alpha is exact only while λ·P stays negative semidefinite
        if not all(lam >= 0 for lam in self.lambda_grid):
            raise ValueError(f"lambda grid values must be >= 0, got {self.lambda_grid}")
        if not self.k_grid:
            raise ValueError("k grid must not be empty")
        if not all(isinstance(k, numbers.Integral) and k > 0 and k % 2 == 1
                   for k in self.k_grid):
            raise ValueError(f"k grid values must be odd positive integers, "
                             f"got {self.k_grid}")
        if self.l_max < 4:
            raise ValueError("l_max must be at least 4: two training rows per class")


def _stratified_cap(sides: np.ndarray, l_max: int, rng: np.random.Generator) -> np.ndarray:
    """Indices of a per-class proportional subsample of at most l_max rows."""
    n = sides.size
    if n <= l_max:
        return np.arange(n)
    chosen = []
    neg = np.flatnonzero(sides < 0)
    pos = np.flatnonzero(sides > 0)
    n_neg = max(2, int(round(l_max * len(neg) / n)))
    # each class keeps at least min(2, its count) rows
    n_neg = min(n_neg, len(neg), l_max - min(2, len(pos)))
    n_pos = min(l_max - n_neg, len(pos))
    chosen.append(rng.choice(neg, size=n_neg, replace=False))
    chosen.append(rng.choice(pos, size=n_pos, replace=False))
    return np.sort(np.concatenate(chosen))


def _run_step(data_box, member, sides_init, kernel, score, cfg: KfdaConfig,
              rng) -> tuple[np.ndarray, dict]:
    """One binary KFDA step with its regularization sweep.

    member selects the step's voxels inside the box; sides_init gives their
    initial class side, with at least 2 voxels on each side. score(sides)
    is the step's MSSIM of a labeling of the member voxels. Returns the
    best-scoring sides over the sweep plus diagnostics; falls back to the
    initial sides when no ridge makes the eigen solve factorable.
    """
    subdata = SubdomainData.from_mask(data_box, member)
    diag = {"n_voxels": len(subdata), "sweep": [], "chosen_lambda": None, "skipped": None}
    keep = _stratified_cap(sides_init, cfg.l_max, rng)
    ts = TrainingSet(features=subdata.features[keep], labels=sides_init[keep])
    mats = build_matrices(ts, kernel, subdata)
    beta = default_beta(mats.within, cfg.beta_scale)

    try:
        basis = KrylovBasis(mats, beta)
    except ConvergenceError as exc:
        logger.warning("eigen solves failed for every lambda: %s", exc)
        diag["sweep"] = [{"lambda": lam, "error": str(exc)} for lam in cfg.lambda_grid]
        diag["skipped"] = "all solves failed"
        return sides_init, diag

    best = None
    for lam in cfg.lambda_grid:
        entry = {"lambda": lam}
        model = solve_alpha(mats, lam, basis=basis)
        projections = mats.voxel_projections(model.alpha) + model.b_offset
        cats = categorize(projections, sides_init, cfg.tau_band, cfg.tau_outlier)
        entry.update({"gamma": model.gamma, "iterations": model.iterations,
                      "categories": cats.sizes()})
        if min(len(cats.prototypes_neg), len(cats.prototypes_pos)) < 2:
            logger.warning("fewer than 2 prototypes in a class; keeping initial labels")
            sides_lam, value = sides_init, score(sides_init)
            entry.update({"mssim": value, "fallback": "prototypes"})
        else:
            sides_lam, value, info = ssim_guided_decision(
                subdata.features, sides_init, cats, kernel, score, cfg.k_grid)
            entry.update({"mssim": value, "mssim_mahal": info["mssim_mahal"],
                          "mssim_knn": info["mssim_knn"], "best_k": info["best_k"],
                          "route": info["route"]})
        diag["sweep"].append(entry)
        if best is None or value > best[1]:
            best = (sides_lam, value, lam)

    diag["chosen_lambda"] = best[2]
    diag["mssim"] = best[1]
    return best[0], diag


# the two binary steps, in order: (diag key, negative labels, positive
# labels, KfdaConfig kernel field)
_STEPS = (("csf_vs_gwm", (CSF,), (GM, WM), "kernel_csf"),
          ("gm_vs_wm", (GM,), (WM,), "kernel_gm_wm"))


def _step_scorer(labels_box, member, neg, pos, ref_box, mask_box):
    """score(sides) of one step: the MSSIM against the reference of the
    label box with each member voxel set to neg[0] or pos[0] by side, its
    mean image taken over the step's two class groups and a singleton for
    each other tissue label. Each distinct labeling is scored once."""
    groups = (neg, pos) + tuple((t,) for t in TISSUE_LABELS if t not in neg + pos)
    cache = {}

    def score(sides):
        key = sides.tobytes()
        if key not in cache:
            lab = labels_box.copy()
            lab[member] = np.where(sides < 0, neg[0], pos[0])
            cache[key] = mssim(classified_mean_image(lab, ref_box, mask_box,
                                                     class_groups=groups),
                               ref_box, mask_box)
        return cache[key]

    return score


def classify_subdomain(vol: MultiChannelVolume, bounds, init_labels: np.ndarray,
                       cfg: KfdaConfig | None = None,
                       seed: int | None = None) -> tuple[np.ndarray, dict]:
    """Two-step classification of one subdomain box.

    Step 1 separates CSF from G+WM with the sigmoid kernel; step 2 separates
    GM from WM inside the G+WM set with the Gaussian RBF kernel. Each step
    sweeps the regularization grid and keeps the labeling with the best
    MSSIM against the reference channel, every distinct labeling scored
    once by the step's scorer. Voxels leaving CSF in step 1 get a
    provisional GM/WM label. Returns the classified label box (background
    outside the mask) and a diagnostics dict. A step with fewer than 2
    voxels in a class of the current labels passes labels through.
    """
    cfg = cfg or KfdaConfig()
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    box = box_slices(bounds)
    data_box = vol.data[box].astype(np.float64)
    mask_box = vol.mask[box]
    ref_box = data_box[..., cfg.reference_channel]
    labels_box = init_labels[box].copy()
    labels_box[~mask_box] = BG
    diag = {"bounds": [list(b) for b in bounds], "steps": {}}
    if not mask_box.any():
        return labels_box, diag

    for key, neg, pos, kernel_field in _STEPS:
        member = np.isin(labels_box, neg + pos)
        is_neg = np.isin(labels_box[member], neg)
        n_neg = int(is_neg.sum())
        if min(n_neg, is_neg.size - n_neg) < 2:
            diag["steps"][key] = {"skipped": "class absent from initial labels"}
            continue
        score = _step_scorer(labels_box, member, neg, pos, ref_box, mask_box)
        sides, diag["steps"][key] = _run_step(
            data_box, member, np.where(is_neg, -1, 1).astype(np.int8),
            getattr(cfg, kernel_field), score, cfg, rng)
        vec = labels_box[member]
        vec[sides < 0] = neg[0]
        left = is_neg & (sides > 0)
        if left.any():
            vec[left] = (pos[0] if len(pos) == 1
                         else _provisional_gm_wm(data_box[member], vec, left))
        labels_box[member] = vec
    return labels_box, diag


def _provisional_gm_wm(features_all, labels_vec, targets) -> np.ndarray:
    """Nearest-centroid GM/WM assignment for voxels newly entering G+WM."""
    gm_sel = labels_vec == GM
    wm_sel = labels_vec == WM
    if not gm_sel.any():
        return np.full(int(targets.sum()), WM, dtype=np.int16)
    if not wm_sel.any():
        return np.full(int(targets.sum()), GM, dtype=np.int16)
    mean_gm = features_all[gm_sel].mean(axis=0)
    mean_wm = features_all[wm_sel].mean(axis=0)
    x = features_all[targets]
    d_gm = np.sum((x - mean_gm) ** 2, axis=1)
    d_wm = np.sum((x - mean_wm) ** 2, axis=1)
    return np.where(d_gm <= d_wm, GM, WM).astype(np.int16)
