"""Spatially regularized two-class kernel Fisher discriminant analysis.

A subdomain is classified in the implicit kernel feature space: the
discriminant direction maximizes between-class over within-class scatter
plus a graph penalty that discourages projection differences between
neighbouring voxels (26-connected grid). The direction solves a generalized
eigenproblem. Each step builds the within-class matrix as one symmetric
product of the class-centred gram matrix and factors the within-class
pencil N = U^T U at once, so the l x l matrices are gone before the
cross kernel between the training samples and every voxel, the step's
largest buffer, is built (in row blocks where it is stored in float32).
One Krylov basis of N^-1 P started
from N^-1 m and a fixed-seed vector then serves the whole sweep. The basis
is held in the factor's coordinates x = U v, where N-orthonormality is
plain orthonormality, so growing it takes triangular solves and penalty
matvecs but no product with N; every regularization weight of the sweep is
a Rayleigh-Ritz solve on that basis, exact for a positive top eigenvalue
because the penalty is negative semidefinite (see solve_alpha). Voxels are
then categorized by projection sign into tissue prototypes, an overlapping
set and class outliers. Each solve lists its candidate labelings in tie
order (_labelings): the outliers reassigned by Mahalanobis distance and
the overlapping set by a k-nearest-neighbour vote for each k, then the
Mahalanobis labeling alone. Selection is MSSIM-guided: the first best
candidate of each solve, then the first best solve of the sweep.
classify_subdomain runs both binary steps, CSF vs G+WM and then GM vs WM,
as one loop over a step table; each step's scorer renders a labeling's
classified mean image, scores it against the reference and caches the
result, so every distinct labeling is scored once per step. Its grids and
training-set cap come from the PipelineConfig, whose defaults are
LAMBDA_GRID, K_GRID and L_MAX; the published categorization thresholds
(TAU_BAND, TAU_OUTLIER) and the two ridges (RIDGE_SCALE,
MAHALANOBIS_RIDGE) are module constants.

Every dense factorization and product runs in numpy's BLAS; scipy adds only
the unthreaded level-2 triangular solves (dtrsv) that apply the factor's
inverse. The numpy and scipy wheels bundle separate OpenBLAS builds, each
with a thread pool as wide as the machine: calling scipy's threaded LAPACK
between numpy products woke both pools at once and put more BLAS threads
than cores to work, mostly spinning.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse
from scipy.linalg.blas import dtrsv
from scipy.spatial import cKDTree

from .ssim import classified_mean_image, mssim, reference_windows
from .volume import (BG, CSF, GM, REFERENCE_CHANNEL, TISSUE_LABELS, WM, MultiChannelVolume,
                     box_slices)

if TYPE_CHECKING:
    from .pipeline import PipelineConfig

logger = logging.getLogger(__name__)

# the published model selection: regularization weights 0.000025*i for
# i=0..4, odd KNN sizes up to 11, and at most 4000 training samples a step
LAMBDA_GRID = (0.0, 0.000025, 0.00005, 0.000075, 0.0001)
K_GRID = (1, 3, 5, 7, 9, 11)
L_MAX = 4000
# the published band and outlier thresholds in projection stds (categorize),
# and ridges as shares of a mean diagonal: the within-class pencil's
# (default_beta) and the prototype covariances' (_mahalanobis_sq, floor 1)
TAU_BAND = 1.0
TAU_OUTLIER = 2.5
RIDGE_SCALE = 1e-3
MAHALANOBIS_RIDGE = 1e-6


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
        if not ((self.labels < 0).any() and (self.labels > 0).any()):
            raise ValueError("both classes need at least one sample")

    @property
    def neg_idx(self) -> np.ndarray:
        return np.flatnonzero(self.labels < 0)

    @property
    def pos_idx(self) -> np.ndarray:
        return np.flatnonzero(self.labels > 0)


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
    r = np.concatenate(rows)
    c = np.concatenate(cols)
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
    """Class means, factored pencil and penalty structure for one training set."""

    m_neg: np.ndarray           # (l,)
    m_pos: np.ndarray           # (l,)
    factor: np.ndarray          # (l, l) U, N = within + beta I = U^T U
    beta: float                 # the ridge that made N factorable
    neighborhood: sparse.csr_matrix   # (n, n) over subdomain voxels
    cross: np.ndarray           # (l, n) kernel between samples and all voxels

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
# float64 bytes of one row block of a float32 cross kernel
CROSS_BLOCK_BYTES = 2 * 2 ** 20


def class_scatter(gram: np.ndarray, ts: TrainingSet) -> tuple[np.ndarray, np.ndarray,
                                                              np.ndarray]:
    """Class mean columns m_neg, m_pos and the within-class matrix of ts's gram.

    The within-class matrix sum_m k_m (I - 1_m) k_m^T is Z Z^T, where Z is
    the gram matrix with each column centred on its class's mean column
    M_m. numpy computes a product of one buffer with its own transpose as
    a symmetric rank-k update (syrk): half the flops of a general product,
    exactly symmetric, and positive semidefinite to rounding, where the
    identity k_m k_m^T - l_m M_m M_m^T cancels large terms. Duplicates
    making it singular are absorbed by the ridge (factor_pencil).
    """
    m_neg = gram[:, ts.neg_idx].mean(axis=1)
    m_pos = gram[:, ts.pos_idx].mean(axis=1)
    centred = np.subtract(gram, m_pos[:, None])
    np.subtract(gram, m_neg[:, None], out=centred, where=ts.labels < 0)
    return m_neg, m_pos, centred @ centred.T


def factor_pencil(within: np.ndarray, beta: float) -> tuple[np.ndarray, float]:
    """(U, beta') with U^T U = within + beta' I, U upper triangular.

    beta' starts at beta and is raised tenfold on each failed
    factorization: singular N is absorbed by the ridge, never an error.
    Raises ConvergenceError when eight ridges leave the pencil indefinite
    and ValueError on a non-finite pencil, which no ridge can mend. The
    diagonal is ridged in place and restored bit for bit, so no second
    l x l buffer is held while factoring.
    """
    beta = max(beta, 1e-300)
    if not (math.isfinite(beta) and np.isfinite(within).all()):
        raise ValueError("within-class pencil has non-finite entries")
    diagonal = within.diagonal().copy()
    try:
        for _ in range(8):
            np.fill_diagonal(within, diagonal + beta)
            try:
                # N = U^T U with U = L^T, F-ordered as dtrsv reads it
                return np.linalg.cholesky(within).T, beta
            except np.linalg.LinAlgError:
                beta *= 10.0
        raise ConvergenceError("within-class pencil could not be made positive definite")
    finally:
        np.fill_diagonal(within, diagonal)


def cross_kernel(spec: KernelSpec, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """kernel_matrix(spec, xs, zs) in its stored dtype.

    Above CROSS_F32_THRESHOLD entries it is stored in float32 and built in
    row blocks of about CROSS_BLOCK_BYTES of float64, each cast straight
    into the stored array, so the float64 matrix never exists whole.
    Below it the float64 matrix is the stored one and is built whole:
    OpenBLAS rounds the entries of a product's last few columns by a path
    that depends on how it splits the rows, so a blocked float64 build can
    differ from the whole one by an ulp there, which the float32 cast
    absorbs. No block has one row: numpy takes that product as a
    matrix-vector one, whose rounding differs in every entry.
    """
    l, n = len(xs), len(zs)
    if l * n <= CROSS_F32_THRESHOLD:
        return kernel_matrix(spec, xs, zs)
    out = np.empty((l, n), np.float32)
    rows = max(2, CROSS_BLOCK_BYTES // (8 * n))
    bounds = list(range(0, l - 1, rows)) + [l]
    for start, stop in zip(bounds, bounds[1:]):
        out[start:stop] = kernel_matrix(spec, xs[start:stop], zs)
    return out


def build_matrices(ts: TrainingSet, spec: KernelSpec, features: np.ndarray,
                   member_box: np.ndarray) -> KfdaMatrices:
    """Factor the step's pencil, then build its graph and cross kernel.

    features holds the (n, channels) float64 intensity vectors of the
    box's member voxels (member_box) in C order.

    The l x l matrices come first: the symmetrized gram, the class scatter
    (class_scatter) and the Cholesky factor of the ridged within-class
    pencil (factor_pencil, ridge default_beta). Each is dropped after its
    last reader, so only the factor is held while the neighbour graph and
    then the cross kernel, the largest buffer, are built (cross_kernel).
    Raises what factor_pencil raises.
    """
    gram = kernel_matrix(spec, ts.features, ts.features)
    gram = 0.5 * (gram + gram.T)
    m_neg, m_pos, within = class_scatter(gram, ts)
    # the ridge must stay above the rounding noise of the within matrix,
    # Z Z^T with Z the class-centred gram; that noise scales with
    # ||Z||_F^2, which ||gram||_F^2 bounds (centring projects each row)
    floor = 64.0 * np.finfo(np.float64).eps * float(np.einsum("ij,ij->", gram, gram))
    del gram
    factor, beta = factor_pencil(within, max(default_beta(within), floor))
    del within
    h = neighborhood_matrix(member_box)
    return KfdaMatrices(m_neg=m_neg, m_pos=m_pos, factor=factor, beta=beta,
                        neighborhood=h, cross=cross_kernel(spec, ts.features, features))


# ---------------------------------------------------------------------------
# Eigen solve
# ---------------------------------------------------------------------------

@dataclass
class KfdaModel:
    """Solved discriminant over its step's KfdaMatrices: expansion
    coefficients and projection offset."""

    alpha: np.ndarray
    gamma: float
    b_offset: float
    iterations: int
    residual: float
    capped: bool


def default_beta(within: np.ndarray) -> float:
    beta = RIDGE_SCALE * float(np.trace(within)) / within.shape[0]
    # trace 0 happens for single-sample classes; keep the pencil definite
    return beta if beta > 0 else 1e-10


# expanded basis vectors per step, at most min(l, MAX_EXPANSIONS); a lambda
# that reaches the cap keeps its Ritz pair with its residual as is
MAX_EXPANSIONS = 320


class KrylovBasis:
    """Krylov basis of N^-1 P shared by every lambda of a step.

    N = within + beta I arrives factored as U^T U (build_matrices). The
    basis is held in the factor's coordinates x = U v, where the N inner
    product is the Euclidean one and N^-1 P becomes U^-T P U^-1: the rows
    X = U V are orthonormal, kept so by two passes of classical
    Gram-Schmidt, and no product with N is ever formed, nor N itself kept.
    The basis starts from U N^-1 m = U^-T m and from a fixed-seed (9999)
    vector and grows by applying U^-T P U^-1 to its oldest row not yet
    expanded: one triangular solve gives v = U^-1 x for the penalty matvec,
    one more gives s = U^-T P v, which is both the new Krylov direction and
    the row that couples x to P. Every expanded row keeps its s, so the
    projected penalty T = V^T P V = X S^T over the expanded rows and the
    residual coupling to the unexpanded ones cost no further penalty
    matvecs. U is applied in numpy's BLAS and U^-1 with scipy's unthreaded
    dtrsv (see the module docstring for why).
    """

    def __init__(self, mats: KfdaMatrices):
        l = len(mats.m_diff)
        self.mats = mats
        self.cap = min(l, MAX_EXPANSIONS)
        self.coords = np.empty((self.cap + 2, l))     # X = U V, orthonormal rows
        self.s_vecs = np.empty((self.cap, l))         # S = U^-T P V, expanded rows
        self.proj = np.zeros((self.cap + 2, self.cap))  # X S^T = V^T P V[:expanded]
        self.size = 0
        self.expanded = 0
        # V^T m = sqrt(c) e_0: every later row is orthogonal to U^-T m
        self.m_coords = self.coordinates(mats.m_diff)
        self.c = float(self.m_coords @ self.m_coords)
        if not self._append(self.m_coords):
            self.c = 0.0
        seed = np.random.default_rng(9999).standard_normal(l)
        self._append(mats.factor @ seed)

    def coordinates(self, b: np.ndarray) -> np.ndarray:
        """U^-T b = U N^-1 b, the coordinates of N^-1 b: one unthreaded
        level-2 triangular solve."""
        return dtrsv(self.mats.factor, b, trans=1)

    def vector(self, x: np.ndarray) -> np.ndarray:
        """U^-1 x, the coefficient vector of coordinates x; so N^-1 b is
        vector(coordinates(b))."""
        return dtrsv(self.mats.factor, x)

    def _append(self, x: np.ndarray) -> bool:
        """Orthonormalize x against the basis and add it unless it vanishes."""
        k = self.size
        if k == len(x):
            return False
        norm_in = math.sqrt(float(x @ x))
        for _ in range(2):
            x = x - (self.coords[:k] @ x) @ self.coords[:k]
        norm = math.sqrt(float(x @ x))
        if norm <= 1e-12 * norm_in:
            return False
        self.coords[k] = x / norm
        self.proj[k, :self.expanded] = self.s_vecs[:self.expanded] @ self.coords[k]
        self.size += 1
        return True

    def expand(self) -> bool:
        """Apply U^-T P U^-1 to the oldest unexpanded row; False at the cap
        or once every row is expanded (an invariant subspace)."""
        j = self.expanded
        if j == self.cap or j == self.size:
            return False
        s = self.coordinates(self.mats.penalty_matvec(self.vector(self.coords[j])))
        self.s_vecs[j] = s
        self.proj[:self.size, j] = self.coords[:self.size] @ s
        self.expanded += 1
        self._append(s)
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


def solve_alpha(mats: KfdaMatrices, lam: float,
                basis: KrylovBasis | None = None) -> KfdaModel:
    """Leading eigenpair of the regularized discriminant criterion.

    The criterion's numerator m m^T + lam P varies with lam only through a
    multiple of one fixed operator, so one KrylovBasis per step serves
    every lam of its sweep by Rayleigh-Ritz (Saad, Numerical Methods for
    Large Eigenvalue Problems, 2011); a call without a basis builds its
    own. The basis grows only until this lam's residual bound meets
    1e-9 * max(1, |gamma|), or until it holds min(l, 320) expanded
    vectors or spans an invariant subspace, where the Ritz pair is returned
    with its residual as is and capped is set.

    The penalty P = C H C^T is negative semidefinite (H is adjacency minus
    degree), so for gamma > 0 the top eigenvector is proportional to
    (gamma N - lam P)^-1 m, which lies in K(N^-1 P, N^-1 m) for every lam.
    The fixed-seed start vector covers gamma <= 0: when a training set is
    the whole leaf, constant voxel projections null both terms, and at
    large lam the top can lie outside that space.

    iterations counts the penalty matvecs this lam added to the basis, so a
    step's iterations sum to its penalty_matvec calls. residual is the
    explicit Euclidean residual of the unit Ritz vector, computed from the
    stored U^-T P V products. Returns alpha scaled to unit constraint and
    signed so the positive class projects positive.
    """
    if basis is None:
        basis = KrylovBasis(mats)
    start = basis.expanded
    capped = False
    while True:
        gamma, y, bound = basis.ritz(lam)
        if bound <= 1e-9 * max(1.0, abs(gamma)):
            break
        if not basis.expand():
            capped = True
            logger.debug("eigen basis cap reached at gamma %.6g, residual "
                         "bound %.3e", gamma, bound)
            break
    k = len(y)
    x = y @ basis.coords[:k]                    # U v, so v has N-norm |x| = 1
    v = basis.vector(x)
    m_diff = mats.m_diff
    # U^-T (m m^T + lam P) v - gamma U v, mapped back by U^-1
    num = basis.m_coords * float(m_diff @ v) - gamma * x
    if lam != 0.0:
        num += lam * (y @ basis.s_vecs[:k])
    residual = float(np.linalg.norm(basis.vector(num)) / np.linalg.norm(v))
    alpha = v / math.sqrt(float(x @ x))
    if float(alpha @ m_diff) > 0:     # positive class must project positive
        alpha = -alpha
    proj_neg = float(alpha @ mats.m_neg)
    proj_pos = float(alpha @ mats.m_pos)
    b_offset = -(proj_neg + proj_pos) / 2.0
    return KfdaModel(alpha=alpha, gamma=gamma, b_offset=b_offset,
                     iterations=basis.expanded - start, residual=residual, capped=capped)


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


def categorize(projections: np.ndarray, init_sides: np.ndarray) -> VoxelCategories:
    """Split voxels into prototypes, overlapping set and outliers.

    A voxel whose projection sign agrees with its initial side is a
    prototype. Disagreeing voxels inside the band TAU_BAND * pooled
    projection std around the decision value 0 form the overlapping set;
    disagreeing voxels further than TAU_OUTLIER * own-class std from their
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

    in_band = np.abs(proj) <= TAU_BAND * pooled
    centroid = np.where(neg, cent_neg, cent_pos)
    own_std = np.where(neg, std_neg, std_pos)
    far = np.abs(proj - centroid) > TAU_OUTLIER * own_std

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


def _mahalanobis_sq(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    d = cov.shape[0]
    cov = cov + (MAHALANOBIS_RIDGE * max(np.trace(cov) / d, 1.0) + 1e-12) * np.eye(d)
    inv = np.linalg.inv(cov)
    delta = x - mean
    return np.einsum("ij,jk,ik->i", delta, inv, delta)


def classify_outliers_mahalanobis(features: np.ndarray, init_sides: np.ndarray,
                                  proto_neg: np.ndarray, proto_pos: np.ndarray) -> np.ndarray:
    """Assign each outlier to the class with smaller Mahalanobis distance.

    Class statistics come from the prototype intensities; ties keep the
    initial side. Covariances are ridged by MAHALANOBIS_RIDGE, never singular.
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
    d_neg = _mahalanobis_sq(features, *stats[0])
    d_pos = _mahalanobis_sq(features, *stats[1])
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
# Candidate labelings of a solve
# ---------------------------------------------------------------------------

def _labelings(features: np.ndarray, init_sides: np.ndarray, categories: VoxelCategories,
               kernel: KernelSpec, k_grid) -> list[tuple[int | None, np.ndarray]]:
    """The candidate labelings of one solve as [(k, sides), ...] in tie order.

    Outliers are reassigned by Mahalanobis distance; on top of that the
    overlapping set is reassigned by a KNN vote for each usable (odd, at
    most the prototype count) k of k_grid, in k_grid order. The Mahalanobis
    labeling alone comes last, with k None; it is the only candidate when
    the overlapping set or the prototypes are empty. One call to
    nearest_prototype_sides ranks the prototypes for every k: an exact
    KD-tree in Euclidean intensity order (the RBF and linear kernel-trick
    distances are monotone in it; the sigmoid kernel is not positive
    semidefinite and has no kernel-trick distance), ties broken by
    prototype index.
    """
    init_sides = np.asarray(init_sides, dtype=np.int8)
    sides_mahal = init_sides.copy()
    out_idx = categories.outliers
    if len(out_idx):
        sides_mahal[out_idx] = classify_outliers_mahalanobis(
            features[out_idx], sides_mahal[out_idx], features[categories.prototypes_neg],
            features[categories.prototypes_pos])
    ov_idx = categories.overlap
    proto_idx = categories.prototypes
    usable = [k for k in k_grid if k % 2 == 1 and k <= len(proto_idx)]
    if len(ov_idx) == 0 or not usable:
        return [(None, sides_mahal)]
    # a prototype keeps its initial side by definition
    ranked_sides = nearest_prototype_sides(kernel, features[ov_idx], features[proto_idx],
                                           init_sides[proto_idx], max(usable))
    labelings = []
    for k in usable:
        sides_k = sides_mahal.copy()
        sides_k[ov_idx] = np.where(ranked_sides[:, :k].astype(np.int32).sum(axis=1) > 0, 1, -1)
        labelings.append((k, sides_k))
    return labelings + [(None, sides_mahal)]


# ---------------------------------------------------------------------------
# Subdomain classification driver
# ---------------------------------------------------------------------------

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


def _run_step(data_box, member, sides_init, kernel, score, cfg: PipelineConfig,
              rng) -> tuple[np.ndarray, dict]:
    """One binary KFDA step with its regularization sweep.

    member selects the step's voxels inside the float64 box data_box;
    sides_init gives their initial class side, with at least 2 voxels on
    each side. score(sides) is the step's MSSIM of a labeling of the member
    voxels; cfg gives the sweep's lambda_grid and k_grid and the
    training-set cap l_max. Each solve keeps the best-scoring of its
    labelings (_labelings) and the sweep the best-scoring solve; max keeps
    the first of equal scores, so ties go to the smallest k, to KNN over
    Mahalanobis and to the first lambda of the grid. Returns the chosen
    sides plus diagnostics; falls back to the initial sides when no ridge
    makes the eigen solve factorable.
    """
    features = data_box[member]
    diag = {"n_voxels": len(features), "sweep": [], "chosen_lambda": None, "skipped": None}
    keep = _stratified_cap(sides_init, cfg.l_max, rng)
    ts = TrainingSet(features=features[keep], labels=sides_init[keep])
    try:
        mats = build_matrices(ts, kernel, features, member)
    except ConvergenceError as exc:
        logger.warning("eigen solves failed for every lambda: %s", exc)
        diag["sweep"] = [{"lambda": lam, "error": str(exc)} for lam in cfg.lambda_grid]
        diag["skipped"] = "all solves failed"
        return sides_init, diag

    basis = KrylovBasis(mats)
    solves = []
    for lam in cfg.lambda_grid:
        entry = {"lambda": lam}
        model = solve_alpha(mats, lam, basis=basis)
        projections = mats.voxel_projections(model.alpha) + model.b_offset
        cats = categorize(projections, sides_init)
        entry.update({"gamma": model.gamma, "iterations": model.iterations,
                      "residual": model.residual, "capped": model.capped,
                      "categories": cats.sizes()})
        if min(len(cats.prototypes_neg), len(cats.prototypes_pos)) < 2:
            logger.warning("fewer than 2 prototypes in a class; keeping initial labels")
            value, sides = score(sides_init), sides_init
            entry.update({"mssim": value, "fallback": "prototypes"})
        else:
            scored = [(score(sides), k, sides) for k, sides in
                      _labelings(features, sides_init, cats, kernel, cfg.k_grid)]
            value, k, sides = max(scored, key=itemgetter(0))
            mssim_knn, best_k, _ = max(scored[:-1], key=itemgetter(0),
                                       default=(None, None, None))
            entry.update({"mssim": value, "mssim_mahal": scored[-1][0],
                          "mssim_knn": mssim_knn, "best_k": best_k,
                          "route": "mahalanobis" if k is None else "knn"})
        diag["sweep"].append(entry)
        solves.append((value, lam, sides))

    diag["mssim"], diag["chosen_lambda"], sides = max(solves, key=itemgetter(0))
    return sides, diag


# the two binary steps, in order: (diag key, negative labels, positive
# labels, the published kernel: sigmoid a=8, b=-0.0005 and RBF sigma=0.5)
_STEPS = (("csf_vs_gwm", (CSF,), (GM, WM), KernelSpec.sigmoid()),
          ("gm_vs_wm", (GM,), (WM,), KernelSpec.rbf()))


def _step_scorer(labels_box, member, neg, pos, ref_box, mask_box):
    """score(sides) of one step: the MSSIM against the reference of the
    label box with each member voxel set to neg[0] or pos[0] by side, its
    mean image taken over the step's two class groups and a singleton for
    each other tissue label. Each distinct labeling is scored once, and the
    reference's window statistics are computed once, at the first score."""
    groups = (neg, pos) + tuple((t,) for t in TISSUE_LABELS if t not in neg + pos)
    cache = {}
    windows = None

    def score(sides):
        nonlocal windows
        key = sides.tobytes()
        if key not in cache:
            if windows is None:
                windows = reference_windows(ref_box, mask_box)
            lab = labels_box.copy()
            lab[member] = np.where(sides < 0, neg[0], pos[0])
            cache[key] = mssim(classified_mean_image(lab, ref_box, mask_box,
                                                     class_groups=groups),
                               ref_box, mask_box, windows=windows)
        return cache[key]

    return score


def classify_subdomain(vol: MultiChannelVolume, bounds, init_labels: np.ndarray,
                       cfg: PipelineConfig, seed: int) -> tuple[np.ndarray, dict]:
    """Two-step classification of one subdomain box.

    Step 1 separates CSF from G+WM with the sigmoid kernel; step 2 separates
    GM from WM inside the G+WM set with the Gaussian RBF kernel. Each step
    sweeps cfg.lambda_grid, trying cfg.k_grid's KNN sizes on each solve, on
    at most cfg.l_max training samples, and keeps the labeling with the best
    MSSIM against the reference channel, every distinct labeling scored
    once by the step's scorer. Voxels leaving CSF in step 1 get a
    provisional GM/WM label; seed draws the training subsamples. Returns the
    classified label box (background outside the mask) and a diagnostics
    dict. A step with fewer than 2 voxels in a class of the current labels
    passes labels through.
    """
    rng = np.random.default_rng(seed)
    box = box_slices(bounds)
    data_box = vol.data[box].astype(np.float64)
    mask_box = vol.mask[box]
    ref_box = data_box[..., REFERENCE_CHANNEL]
    labels_box = init_labels[box].copy()
    labels_box[~mask_box] = BG
    diag = {"bounds": [list(b) for b in bounds], "steps": {}}
    if not mask_box.any():
        return labels_box, diag

    for key, neg, pos, kernel in _STEPS:
        member = np.isin(labels_box, neg + pos)
        is_neg = np.isin(labels_box[member], neg)
        n_neg = int(is_neg.sum())
        if min(n_neg, is_neg.size - n_neg) < 2:
            diag["steps"][key] = {"skipped": "class absent from initial labels"}
            continue
        score = _step_scorer(labels_box, member, neg, pos, ref_box, mask_box)
        sides, diag["steps"][key] = _run_step(
            data_box, member, np.where(is_neg, -1, 1).astype(np.int8),
            kernel, score, cfg, rng)
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
