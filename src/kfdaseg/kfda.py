"""Spatially regularized two-class kernel Fisher discriminant analysis.

A subdomain is classified in the implicit kernel feature space: the
discriminant direction maximizes between-class over within-class scatter
plus a graph penalty that discourages projection differences between
neighbouring voxels (26-connected grid). The direction solves a generalized
eigenproblem; voxels are then categorized by projection sign into tissue
prototypes, an overlapping set and class outliers, which are refined by
Mahalanobis and k-nearest-neighbour classifiers under MSSIM guidance.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve

from .ssim import classified_mean_image, mssim
from .volume import BG, CSF, GM, WM, MultiChannelVolume

logger = logging.getLogger(__name__)


class ConvergenceError(RuntimeError):
    """Eigen iteration failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """Kernel function choice with its scalar parameters."""

    kind: str                # "sigmoid" | "gaussian_rbf" | "polynomial"
    a: float = 8.0           # sigmoid gain
    b: float = -0.0005       # sigmoid offset
    sigma: float = 0.5       # RBF bandwidth
    degree: int = 1          # polynomial degree

    def __post_init__(self):
        if self.kind not in ("sigmoid", "gaussian_rbf", "polynomial"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "gaussian_rbf" and self.sigma <= 0:
            raise ValueError("RBF bandwidth must be positive")
        if self.kind == "polynomial" and self.degree < 1:
            raise ValueError("polynomial degree must be >= 1")

    @classmethod
    def sigmoid(cls, a: float = 8.0, b: float = -0.0005) -> "KernelSpec":
        return cls(kind="sigmoid", a=a, b=b)

    @classmethod
    def rbf(cls, sigma: float = 0.5) -> "KernelSpec":
        return cls(kind="gaussian_rbf", sigma=sigma)

    @classmethod
    def polynomial(cls, degree: int) -> "KernelSpec":
        return cls(kind="polynomial", degree=degree)

    @classmethod
    def linear(cls) -> "KernelSpec":
        return cls(kind="polynomial", degree=1)


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
    return float(x @ z) ** spec.degree


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
    if spec.degree != 1:
        np.power(out, spec.degree, out=out)
    return out


def kernel_diag(spec: KernelSpec, xs: np.ndarray) -> np.ndarray:
    """K(x, x) for each row of xs."""
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    if spec.kind == "gaussian_rbf":
        return np.ones(xs.shape[0])
    sq = np.sum(xs * xs, axis=1)
    if spec.kind == "sigmoid":
        return np.tanh(spec.a * sq + spec.b)
    return sq ** spec.degree


# ---------------------------------------------------------------------------
# Training data over a subdomain
# ---------------------------------------------------------------------------

@dataclass
class TrainingSet:
    """Labeled samples: features (l, d), labels in {-1, +1}, and the sample's
    index into the subdomain voxel list (position in feature space graph)."""

    features: np.ndarray
    labels: np.ndarray
    sample_indices: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int8)
        self.sample_indices = np.asarray(self.sample_indices, dtype=np.int64)
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

    features holds the (n, channels) intensity vectors of the box's masked
    voxels in C order; voxel_index maps box coordinates to rows (-1 off
    graph).
    """

    features: np.ndarray
    member_box: np.ndarray
    voxel_index: np.ndarray

    @classmethod
    def from_mask(cls, data_box: np.ndarray, member_box: np.ndarray) -> "SubdomainData":
        member_box = np.asarray(member_box, dtype=bool)
        index = np.full(member_box.shape, -1, dtype=np.int64)
        n = int(member_box.sum())
        index[member_box] = np.arange(n)
        features = data_box[member_box].astype(np.float64)
        return cls(features=features, member_box=member_box, voxel_index=index)

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


def graph_edges(h: sparse.spmatrix) -> np.ndarray:
    """(n_edges, 2) unique undirected edges of a neighbourhood matrix."""
    coo = sparse.triu(h, k=1).tocoo()
    return np.stack([coo.row, coo.col], axis=1)


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

    @property
    def between(self) -> np.ndarray:
        """Rank-1 between-class matrix (materialized; prefer m_diff)."""
        return np.outer(self.m_diff, self.m_diff)

    def penalty(self) -> np.ndarray:
        """Materialized graph penalty matrix (small problems only)."""
        cross = self.cross.astype(np.float64, copy=False)
        return cross @ self.neighborhood.dot(cross.T)

    def penalty_matvec(self, v: np.ndarray) -> np.ndarray:
        if self.cross.dtype == np.float32:
            # stay in float32 through the big gemvs; mixing dtypes would
            # silently copy the whole cross kernel up to float64
            u = self.cross.T @ v.astype(np.float32)
            w = self.neighborhood.dot(u.astype(np.float64))
            return (self.cross @ w.astype(np.float32)).astype(np.float64)
        return self.cross @ self.neighborhood.dot(self.cross.T @ v)

    def voxel_projections(self, alpha: np.ndarray) -> np.ndarray:
        """cross^T alpha without promoting a float32 cross kernel."""
        if self.cross.dtype == np.float32:
            return (self.cross.T @ alpha.astype(np.float32)).astype(np.float64)
        return self.cross.T @ alpha

    def roughness(self, alpha: np.ndarray) -> float:
        """Sum of squared projection differences over graph edges."""
        return -float(alpha @ self.penalty_matvec(alpha))


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


def solve_alpha(mats: KfdaMatrices, lam: float, beta: float | None = None,
                tol: float = 1e-10, max_iters: int = 10000,
                x0: np.ndarray | None = None) -> KfdaModel:
    """Leading eigenpair of the regularized discriminant criterion.

    Krylov (Lanczos) iteration through a Cholesky factorization of the
    within-class pencil: the iterated operator is self-adjoint in the
    pencil's inner product, so its algebraically largest Ritz pair
    converges to the criterion's maximum even though the graph penalty
    makes the numerator indefinite. Restarts from the current Ritz vector
    until the explicit residual meets 1e-8 (or stops improving at its
    numerical floor, tracked against tol on the eigenvalue). Returns alpha
    scaled to unit constraint and signed so the positive class projects
    positive. Raises ConvergenceError past max_iters total operator
    applications.
    """
    l = mats.gram.shape[0]
    if beta is None:
        beta = default_beta(mats.within)
    # the within matrix is assembled through gram @ gram, whose rounding
    # noise scales with ||gram||_F^2; the ridge must stay above that floor
    # (and grows on a failed factorization: singular N is absorbed by the
    # ridge, never an error)
    noise_floor = 64.0 * np.finfo(np.float64).eps * float(np.einsum(
        "ij,ij->", mats.gram, mats.gram))
    beta = max(beta, noise_floor, 1e-300)
    for _ in range(8):
        pencil = mats.within + beta * np.eye(l)
        try:
            chol = cho_factor(pencil, lower=True)
            break
        except np.linalg.LinAlgError:
            beta *= 10.0
    else:
        raise ConvergenceError("within-class pencil could not be made "
                               "positive definite", math.inf)
    m_diff = mats.m_diff

    def apply_num(v):
        out = m_diff * float(m_diff @ v)
        if lam != 0.0:
            out = out + lam * mats.penalty_matvec(v)
        return out

    if x0 is not None:
        start = np.asarray(x0, dtype=np.float64).copy()
    else:
        start = cho_solve(chol, m_diff)
    norm0 = float(np.linalg.norm(start))
    if norm0 == 0.0:
        start = np.full(l, 1.0 / math.sqrt(l))
        norm0 = 1.0
    # a tiny fixed-seed admixture guarantees overlap with every eigenvector,
    # so the Krylov space cannot get trapped in an invariant subspace that
    # misses the spectrum top
    noise = np.random.default_rng(9999).standard_normal(l)
    start = start / norm0 + 1e-6 * noise / np.linalg.norm(noise)

    block = min(l, 80)
    gamma = 0.0
    residual = math.inf
    prev_gamma = math.inf
    best = None          # (gamma, vector, residual) with the largest gamma
    iterations = 0
    blocks = 0
    max_blocks = 4
    converged = False
    vec = start
    while iterations < max_iters and blocks < max_blocks and not converged:
        blocks += 1
        basis = np.empty((block, l))
        basis_b = np.empty((block, l))      # pencil @ basis rows
        alphas = np.zeros(block)
        betas = np.zeros(block)
        b_vec = pencil @ vec
        norm_b = math.sqrt(max(float(vec @ b_vec), 0.0))
        if norm_b == 0.0:
            raise ConvergenceError("start vector has zero pencil norm", residual)
        basis[0] = vec / norm_b
        basis_b[0] = b_vec / norm_b
        size = 0
        for j in range(block):
            iterations += 1
            av = apply_num(basis[j])
            w = cho_solve(chol, av, check_finite=False)
            alphas[j] = float(av @ basis[j])
            # full reorthogonalization in the pencil inner product
            coeffs = basis_b[: j + 1] @ w
            w = w - coeffs @ basis[: j + 1]
            coeffs = basis_b[: j + 1] @ w
            w = w - coeffs @ basis[: j + 1]
            size = j + 1
            if j + 1 == block or iterations >= max_iters:
                break
            b_w = pencil @ w
            beta_j = math.sqrt(max(float(w @ b_w), 0.0))
            if beta_j <= 1e-14 * max(1.0, abs(alphas[j])):
                break                        # invariant subspace reached
            if j >= 1:
                # cheap per-step Ritz diagnostics: stop the block early once
                # the top Ritz pair has settled, either by its residual bound
                # or by the eigenvalue estimate stalling (the top of the
                # spectrum can be a tight cluster of near-smooth directions
                # whose exact eigenvector is irrelevant downstream)
                tri = np.diag(alphas[: j + 1])
                for i in range(j):
                    tri[i, i + 1] = tri[i + 1, i] = betas[i]
                theta_all, y = np.linalg.eigh(tri)
                theta = float(theta_all[-1])
                bound = beta_j * abs(float(y[-1, -1]))
                if bound <= 1e-9 * max(1.0, abs(theta)):
                    break
                if j >= 10 and abs(theta - theta_prev) <= tol * max(1.0, abs(theta)):
                    break
                theta_prev = theta
            else:
                theta_prev = math.inf
            betas[j] = beta_j
            basis[j + 1] = w / beta_j
            basis_b[j + 1] = b_w / beta_j

        tri = np.diag(alphas[:size])
        for j in range(size - 1):
            tri[j, j + 1] = tri[j + 1, j] = betas[j]
        evals, evecs = np.linalg.eigh(tri)
        gamma = float(evals[-1])
        ritz = evecs[:, -1] @ basis[:size]
        nr = float(np.linalg.norm(ritz))
        if nr == 0.0:
            raise ConvergenceError("Ritz vector collapsed to zero", residual)
        ritz /= nr
        residual = float(np.linalg.norm(
            cho_solve(chol, apply_num(ritz), check_finite=False) - gamma * ritz))
        vec = ritz
        if best is None or gamma > best[0]:
            best = (gamma, ritz.copy(), residual)
        gamma_settled = abs(gamma - prev_gamma) <= tol * max(1.0, abs(gamma))
        if residual <= 1e-8:
            converged = True
        elif gamma_settled:
            # the leading eigenvalue has converged to tolerance; the residual
            # records how well the vector itself is pinned down (a clustered
            # spectrum top or a float32 cross kernel floors it above 1e-8)
            logger.debug("eigenvalue settled at %.6g with residual %.3e "
                         "after %d matvecs", gamma, residual, iterations)
            converged = True
        prev_gamma = gamma
    if not converged:
        if iterations >= max_iters:
            raise ConvergenceError(
                f"no convergence within {iterations} operator applications",
                residual)
        # block budget exhausted on an unresolved (clustered) spectrum top:
        # return the best Rayleigh pair seen, residual reported as-is
        gamma, vec, residual = best
        logger.debug("eigen block budget used up; best gamma %.6g at "
                     "residual %.3e", gamma, residual)
    v = vec

    scale = float(v @ (pencil @ v))
    alpha = v / math.sqrt(scale)
    if float(alpha @ m_diff) > 0:     # positive class must project positive
        alpha = -alpha
    proj_neg = float(alpha @ mats.m_neg)
    proj_pos = float(alpha @ mats.m_pos)
    b_offset = -(proj_neg + proj_pos) / 2.0
    return KfdaModel(alpha=alpha, gamma=gamma, b_offset=b_offset,
                     kernel=mats.spec, lam=lam, beta=beta,
                     iterations=iterations, residual=residual,
                     training=mats.training)


def project(model: KfdaModel, queries: np.ndarray) -> np.ndarray:
    """Signed decision values sum_m alpha_m K(x_m, query) + b."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    k = kernel_matrix(model.kernel, queries, model.training.features)
    return k @ model.alpha + model.b_offset


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


def feature_space_distances(spec: KernelSpec, queries: np.ndarray,
                            prototypes: np.ndarray) -> np.ndarray:
    """Squared distances by which the k-NN ranks prototypes for a kernel.

    For the positive semidefinite kernels (Gaussian RBF, polynomial) these
    are kernel-trick feature-space distances d^2 = K(x,x) - 2 K(x,p) + K(p,p).
    The sigmoid kernel is not positive semidefinite (Lin & Lin 2003), so it
    has no feature space in which that expression is a squared norm: it goes
    negative, most of all against low-norm prototypes, and ranks them first
    whatever their intensity. For the sigmoid kernel the distances are
    therefore squared Euclidean distances between the intensity vectors.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    prototypes = np.atleast_2d(np.asarray(prototypes, dtype=np.float64))
    if spec.kind == "sigmoid":
        # the linear kernel's kernel-trick distance is the Euclidean one
        spec = KernelSpec.linear()
    cross = kernel_matrix(spec, queries, prototypes)
    return (kernel_diag(spec, queries)[:, None]
            - 2.0 * cross
            + kernel_diag(spec, prototypes)[None, :])


def nearest_prototype_sides(spec: KernelSpec, queries: np.ndarray,
                            proto_features: np.ndarray, proto_sides: np.ndarray,
                            k_max: int, chunk: int = 256) -> np.ndarray:
    """(n_queries, k_max) class sides of each query's nearest prototypes.

    Prototypes are ranked by feature_space_distances: kernel-trick distances
    for the RBF and polynomial kernels (for RBF this is the Euclidean order),
    squared Euclidean intensity distances for the sigmoid kernel, whose
    kernel-trick expression is no distance. Queries are processed in chunks
    so the full distance matrix never materializes.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    proto_sides = np.asarray(proto_sides, dtype=np.int8)
    k_max = min(k_max, len(proto_sides))
    out = np.empty((queries.shape[0], k_max), dtype=np.int8)
    for start in range(0, queries.shape[0], chunk):
        block = queries[start:start + chunk]
        d2 = feature_space_distances(spec, block, proto_features)
        if k_max < d2.shape[1]:
            part = np.argpartition(d2, k_max - 1, axis=1)[:, :k_max]
            rows = np.arange(d2.shape[0])[:, None]
            order = part[rows, np.argsort(d2[rows, part], axis=1, kind="stable")]
        else:
            order = np.argsort(d2, axis=1, kind="stable")
        out[start:start + chunk] = proto_sides[order]
    return out


def classify_overlap_knn(spec: KernelSpec, features: np.ndarray,
                         proto_features: np.ndarray, proto_sides: np.ndarray,
                         k: int) -> np.ndarray:
    """Majority vote among the k nearest prototypes by feature_space_distances."""
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
# MSSIM-guided decision surface
# ---------------------------------------------------------------------------

def ssim_guided_decision(features: np.ndarray, init_sides: np.ndarray,
                         categories: VoxelCategories, kernel: KernelSpec,
                         render, reference: np.ndarray, mask: np.ndarray,
                         k_grid=(1, 3, 5, 7, 9, 11)) -> tuple[np.ndarray, float, dict]:
    """Refine outliers and the overlapping set, keeping the better labeling.

    Outliers are reassigned by Mahalanobis distance; the overlapping set is
    reassigned by KNN for each k in k_grid on top of that, ranking the
    prototypes by feature_space_distances (kernel-trick distance for the
    positive semidefinite RBF and polynomial kernels, Euclidean intensity
    distance for the sigmoid kernel, which has no kernel-trick distance);
    the labeling with the larger classified-image MSSIM wins. render(sides)
    must produce the mean-intensity image to compare with the reference. An
    empty overlapping set returns the Mahalanobis labeling directly.
    """
    sides_mahal = np.asarray(init_sides, dtype=np.int8).copy()
    out_idx = categories.outliers
    proto_neg_f = features[categories.prototypes_neg]
    proto_pos_f = features[categories.prototypes_pos]
    if len(out_idx):
        sides_mahal[out_idx] = classify_outliers_mahalanobis(
            features[out_idx], sides_mahal[out_idx], proto_neg_f, proto_pos_f)

    def score(sides):
        return mssim(render(sides), reference, mask)

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
    proto_sides = np.where(np.isin(proto_idx, categories.prototypes_neg), -1, 1).astype(np.int8)
    ranked_sides = nearest_prototype_sides(kernel, features[ov_idx],
                                           features[proto_idx], proto_sides,
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


def _stratified_cap(sides: np.ndarray, l_max: int, rng: np.random.Generator) -> np.ndarray:
    """Indices of a per-class proportional subsample of at most l_max rows."""
    n = sides.size
    if n <= l_max:
        return np.arange(n)
    chosen = []
    neg = np.flatnonzero(sides < 0)
    pos = np.flatnonzero(sides > 0)
    n_neg = max(2, int(round(l_max * len(neg) / n)))
    n_neg = min(n_neg, len(neg))
    n_pos = min(l_max - n_neg, len(pos))
    chosen.append(rng.choice(neg, size=n_neg, replace=False))
    chosen.append(rng.choice(pos, size=n_pos, replace=False))
    return np.sort(np.concatenate(chosen))


def _run_step(data_box, mask_box, ref_box, member, sides_init, kernel,
              render, cfg: KfdaConfig, rng) -> tuple[np.ndarray, dict]:
    """One binary KFDA step with its regularization sweep.

    member selects the step's voxels inside the box; sides_init gives their
    initial class side. Returns refined sides for the member voxels plus
    diagnostics. Falls back to the initial sides when the step degenerates.
    """
    subdata = SubdomainData.from_mask(data_box, member)
    n = len(subdata)
    diag = {"n_voxels": n, "sweep": [], "chosen_lambda": None, "skipped": None}
    if n == 0:
        diag["skipped"] = "empty"
        return sides_init, diag
    n_neg = int(np.count_nonzero(sides_init < 0))
    if min(n_neg, n - n_neg) < 2:
        diag["skipped"] = "class with fewer than 2 samples"
        return sides_init, diag

    keep = _stratified_cap(sides_init, cfg.l_max, rng)
    ts = TrainingSet(features=subdata.features[keep], labels=sides_init[keep],
                     sample_indices=keep)
    mats = build_matrices(ts, kernel, subdata)
    beta = default_beta(mats.within, cfg.beta_scale)

    best = None
    warm = None
    for lam in cfg.lambda_grid:
        entry = {"lambda": lam}
        try:
            model = solve_alpha(mats, lam, beta=beta, x0=warm)
            warm = model.alpha
        except ConvergenceError as exc:
            logger.warning("eigen solve failed at lambda=%g: %s", lam, exc)
            entry["error"] = str(exc)
            diag["sweep"].append(entry)
            continue
        projections = mats.voxel_projections(model.alpha) + model.b_offset
        cats = categorize(projections, sides_init, cfg.tau_band, cfg.tau_outlier)
        entry.update({"gamma": model.gamma, "iterations": model.iterations,
                      "categories": cats.sizes()})
        if min(len(cats.prototypes_neg), len(cats.prototypes_pos)) < 2:
            logger.warning("fewer than 2 prototypes in a class; keeping initial labels")
            sides_lam = sides_init.copy()
            value = mssim(render(sides_lam), ref_box, mask_box)
            entry.update({"mssim": value, "fallback": "prototypes"})
        else:
            sides_lam, value, info = ssim_guided_decision(
                subdata.features, sides_init, cats, kernel, render,
                ref_box, mask_box, cfg.k_grid)
            entry.update({"mssim": value, "mssim_mahal": info["mssim_mahal"],
                          "mssim_knn": info["mssim_knn"], "best_k": info["best_k"],
                          "route": info["route"]})
        diag["sweep"].append(entry)
        if best is None or value > best[1]:
            best = (sides_lam, value, lam)

    if best is None:
        diag["skipped"] = "all solves failed"
        return sides_init, diag
    diag["chosen_lambda"] = best[2]
    diag["mssim"] = best[1]
    return best[0], diag


def classify_subdomain(vol: MultiChannelVolume, bounds, init_labels: np.ndarray,
                       cfg: KfdaConfig | None = None,
                       seed: int | None = None) -> tuple[np.ndarray, dict]:
    """Two-step classification of one subdomain box.

    Step 1 separates CSF from G+WM with the sigmoid kernel; step 2 separates
    GM from WM inside the G+WM set with the Gaussian RBF kernel. Each step
    sweeps the regularization grid and keeps the labeling with the best
    MSSIM against the reference channel. Returns the classified label box
    (background outside the mask) and a diagnostics dict. A step whose
    classes are missing from the initial labels passes labels through.
    """
    cfg = cfg or KfdaConfig()
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    box = tuple(slice(lo, hi + 1) for lo, hi in bounds)
    data_box = vol.data[box].astype(np.float64)
    mask_box = vol.mask[box]
    ref_box = data_box[..., cfg.reference_channel]
    labels_box = init_labels[box].copy()
    labels_box[~mask_box] = BG
    diag = {"bounds": [list(b) for b in bounds], "steps": {}}
    if not mask_box.any():
        return labels_box, diag

    labels_vec = labels_box[mask_box].astype(np.int16)

    # Step 1: CSF vs G+WM over all masked voxels.
    is_csf = labels_vec == CSF
    is_gwm = (labels_vec == GM) | (labels_vec == WM)
    if is_csf.sum() >= 2 and is_gwm.sum() >= 2:
        member = mask_box.copy()
        sides_init = np.where(is_csf, -1, 1).astype(np.int8)

        def render_step1(sides):
            lab = labels_box.copy()
            tmp = np.where(sides < 0, CSF, GM).astype(np.uint8)
            lab[mask_box] = tmp
            return classified_mean_image(lab, ref_box, mask_box,
                                         class_groups=((CSF,), (GM, WM)))

        sides, step_diag = _run_step(data_box, mask_box, ref_box, member,
                                     sides_init, cfg.kernel_csf, render_step1,
                                     cfg, rng)
        diag["steps"]["csf_vs_gwm"] = step_diag
        new_csf = sides < 0
        became_gwm = (~new_csf) & is_csf
        labels_vec[new_csf] = CSF
        if became_gwm.any():
            labels_vec[became_gwm] = _provisional_gm_wm(
                data_box[mask_box], labels_vec, became_gwm)
    else:
        diag["steps"]["csf_vs_gwm"] = {"skipped": "class absent from initial labels"}

    # Step 2: GM vs WM inside the G+WM set.
    in_gwm = (labels_vec == GM) | (labels_vec == WM)
    n_gm = int(np.count_nonzero(labels_vec == GM))
    n_wm = int(np.count_nonzero(labels_vec == WM))
    if n_gm >= 2 and n_wm >= 2:
        member = np.zeros_like(mask_box)
        member[mask_box] = in_gwm
        sides_init = np.where(labels_vec[in_gwm] == GM, -1, 1).astype(np.int8)
        gwm_positions = np.flatnonzero(in_gwm)

        def render_step2(sides):
            vec = labels_vec.copy()
            vec[gwm_positions] = np.where(sides < 0, GM, WM)
            lab = labels_box.copy()
            lab[mask_box] = vec.astype(np.uint8)
            return classified_mean_image(lab, ref_box, mask_box,
                                         class_groups=((CSF,), (GM,), (WM,)))

        sides, step_diag = _run_step(data_box, mask_box, ref_box, member,
                                     sides_init, cfg.kernel_gm_wm, render_step2,
                                     cfg, rng)
        diag["steps"]["gm_vs_wm"] = step_diag
        labels_vec[gwm_positions] = np.where(sides < 0, GM, WM)
    else:
        diag["steps"]["gm_vs_wm"] = {"skipped": "class absent from initial labels"}

    labels_box[mask_box] = labels_vec.astype(np.uint8)
    labels_box[~mask_box] = BG
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
