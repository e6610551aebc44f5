"""Spatially regularized two-class kernel Fisher discriminant analysis.

A subdomain is classified in the implicit kernel feature space: the
discriminant direction maximizes between-class over within-class scatter
plus a graph penalty that discourages projection differences between
neighbouring voxels (26-connected grid). The direction solves a generalized
eigenproblem. A step trains on its own voxels, named by sorted indices. A
smooth kernel on intensity vectors has low numerical rank, so each step
first factors the cross kernel between the training voxels and every
voxel as C ~ Q B^T, with Q (l x r) orthonormal, to a relative error of
RANGE_TOL, in two blocked sweeps (build_matrices): a randomized range
finder gives Q from one sweep over the l x l sample kernel in row blocks
(_range_basis, _sample_sweep), and one pass over every voxel in index
order writes each voxel's row of B in place (_project_cross); a redo
projects every column on the directions it adds alone, into a panel of
their own, so B is never copied; the test blocks and the passes' probes
have a fixed stream each. The class means, the within-class matrix,
ridged once so that its pencil always factors (build_matrices), and the
penalty, summed over row blocks of the graph, are then r x r, and every
regularization weight of the sweep is one dense eigenproblem of that
size (solve_alpha). A step's largest arrays are B, the redo panel and
the range finder's products: neither the sample kernel nor the l x n
cross kernel ever exists whole. Voxels are then categorized
by projection sign into tissue prototypes, an overlapping set and class
outliers. Each solve lists its candidate labelings in tie order
(_labelings): the outliers reassigned by Mahalanobis distance and
the overlapping set by a k-nearest-neighbour vote for each k, then the
Mahalanobis labeling alone. Selection is MSSIM-guided: the first best
candidate of each solve, then the first best solve of the sweep.
classify_subdomain runs both binary steps, CSF vs G+WM and then GM vs WM,
as one loop over a step table; each step's scorer renders a labeling's
classified mean image, scores it against the reference's window
statistics, computed once per box, and caches the result, so every
distinct labeling is scored once per step; a box with no MSSIM window
skips both. Its grids and training-set cap come from the
PipelineConfig, whose defaults are LAMBDA_GRID, K_GRID and L_MAX; the
published categorization thresholds (TAU_BAND, TAU_OUTLIER) and the two
ridges (RIDGE_SCALE, MAHALANOBIS_RIDGE) are module constants. A voxel's
category is one int8 code, 2 * kind + side (categorize), and CATEGORIES
names the six codes with the keys under which subdomains.json counts them.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from .ssim import classified_mean_image, mssim, reference_windows, window_fits
from .volume import BG, CSF, GM, REFERENCE_CHANNEL, WM, MultiChannelVolume, box_slices

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
# (build_matrices) and the prototype covariances' (_mahalanobis_sq, floor 1)
TAU_BAND = 1.0
TAU_OUTLIER = 2.5
RIDGE_SCALE = 1e-3
MAHALANOBIS_RIDGE = 1e-6


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

    Works in place on a single (m, n) buffer; build_matrices evaluates the
    sample and the cross kernel in blocks of about CROSS_BLOCK_BYTES.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    zs = np.atleast_2d(np.asarray(zs, dtype=np.float64))
    if spec.kind == "gaussian_rbf":
        # the exponent g |x - z|^2, g = -1 / (2 sigma^2), as one product of
        # rows [-2 g x, g |x|^2, g] and [z, 1, |z|^2]: no pass over the
        # block adds the norms or scales it, and the RBF steps' kernel
        # blocks took 40% less time
        g = -1.0 / (2.0 * spec.sigma ** 2)
        rows = np.hstack([(-2.0 * g) * xs, g * np.sum(xs * xs, axis=1)[:, None],
                          np.full((len(xs), 1), g)])
        cols = np.hstack([zs, np.ones((len(zs), 1)), np.sum(zs * zs, axis=1)[:, None]])
        out = rows @ cols.T
        np.minimum(out, 0.0, out=out)
        np.exp(out, out=out)
        return out
    out = xs @ zs.T
    if spec.kind == "sigmoid":
        out *= spec.a
        out += spec.b
        np.tanh(out, out=out)
    return out


# ---------------------------------------------------------------------------
# Neighbour graph
# ---------------------------------------------------------------------------

def neighborhood_matrix(member_box: np.ndarray) -> sparse.csr_matrix:
    """26-connectivity graph matrix over a box's member voxels.

    Entries are 1 on edges, minus the vertex degree on the diagonal and 0
    elsewhere; neighbourhoods truncate at box faces and at non-member
    voxels, so row sums are exactly zero, and an isolated voxel's row stores
    nothing. The CSR arrays are written in one pass over the 27 stencil
    offsets: taken in lexicographic order, they list each row's columns
    sorted with the diagonal in its place.
    """
    member_box = np.asarray(member_box, dtype=bool)
    n = int(member_box.sum())
    # the index type scipy gives a matrix of at most 27 n entries
    dtype = np.int32 if 27 * n < 2 ** 31 else np.int64
    index = np.full(tuple(s + 2 for s in member_box.shape), -1, dtype=dtype)
    index[1:-1, 1:-1, 1:-1][member_box] = np.arange(n, dtype=dtype)
    # row v, column o: the index of v's neighbour at offset o, -1 for none
    neighbours = np.empty((n, 27), dtype=dtype)
    ni, nj, nk = member_box.shape
    for o, (di, dj, dk) in enumerate(itertools.product((0, 1, 2), repeat=3)):
        neighbours[:, o] = index[di:di + ni, dj:dj + nj, dk:dk + nk][member_box]
    stored = neighbours >= 0
    degree = stored.sum(axis=1) - 1
    stored[:, 13] = degree > 0
    indptr = np.zeros(n + 1, dtype=dtype)
    indptr[1:] = np.cumsum(stored.sum(axis=1))
    indices = neighbours[stored]
    data = np.ones(len(indices))
    rows = np.flatnonzero(degree)
    data[indptr[rows] + stored[rows, :13].sum(axis=1)] = -degree[rows]
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


# ---------------------------------------------------------------------------
# Discriminant matrices
# ---------------------------------------------------------------------------

@dataclass
class KfdaMatrices:
    """One step's discriminant in the coordinates of a low-rank factor
    C - c 1^T ~ Q B^T of its cross kernel C, centred on a column c
    (build_matrices): class means, factored pencil, penalty and the voxels'
    rows of B in two panels, B = [cross^T, panel^T]: the first pass's and
    the redos' (empty when no pass redoes)."""

    basis: np.ndarray           # (l, r) Q, orthonormal columns
    m_neg: np.ndarray           # (r,) Q^T (m_neg - c)
    m_pos: np.ndarray           # (r,) Q^T (m_pos - c)
    factor_inv: np.ndarray      # (r, r) U^-1, Q^T (within + beta I) Q = U^T U
    beta: float                 # the pencil's ridge (build_matrices)
    penalty: np.ndarray         # (r, r) B^T H B, H the voxels' neighbourhood graph
    cross: np.ndarray           # (p, n) the first pass's rows of B^T, on Q's first p columns
    panel: np.ndarray           # (r - p, n) the rest of B^T, on the columns redos add
    centre: np.ndarray          # (l,) c, the sample kernel's mean column
    range_error: float          # estimated ||C - Q Q^T C|| relative to ||C||

    @property
    def m_diff(self) -> np.ndarray:
        return self.m_neg - self.m_pos

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def penalty_matvec(self, v: np.ndarray) -> np.ndarray:
        """The penalty C H C^T of an l-vector, C taken as its factor
        Q B^T + c 1^T, whose c 1^T the graph's zero row sums annihilate."""
        return self.basis @ (self.penalty @ (self.basis.T @ v))

    def voxel_projections(self, alpha: np.ndarray) -> np.ndarray:
        """C^T alpha of an l-vector, C taken as its factor Q B^T + c 1^T."""
        y = self.basis.T @ alpha
        first = len(self.cross)
        return (self.cross.T @ y[:first] + self.panel.T @ y[first:]
                + float(self.centre @ alpha))


# the cross kernel's factor (build_matrices): its accepted relative error,
# estimated by RANGE_PROBES Gaussian probes per pass over the voxels, and
# the finer one its range finder resolves the sample kernel to, in blocks
# of RANGE_BLOCK columns; blocks and probes have a stream each, seeded
# from RANGE_SEED. A sample resolves its own columns better than the
# voxels it was drawn from: on the benchmark's steps the cross kernel's
# error after the sketch ran up to 1000 times the sample kernel's. The
# first sweep over the sample kernel takes RANGE_AHEAD blocks
# (_range_basis): a block the range finder leaves unused costs its
# product, a second sweep two to four blocks' products, and the range
# finder took 4 to 8 blocks on the benchmark's steps and on the 64^3
# run's at l_max = 4000
RANGE_TOL = 1e-8
SKETCH_TOL = 1e-11
RANGE_BLOCK = 32
RANGE_AHEAD = 8
RANGE_PROBES = 4
RANGE_SEED = 9999
# float64 bytes of one block of every blocked pass of a step: the sample
# kernel's row blocks, the cross kernel's column blocks and the penalty's
# H[R] B (build_matrices). At 1 MiB the passes over a block stay in a
# core's 2 MiB L2 cache, and the benchmark's steps built 4-7% faster than
# at 2 MiB
CROSS_BLOCK_BYTES = 2 ** 20


def class_scatter(gram: np.ndarray, sides: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                                 np.ndarray]:
    """Class mean columns m_neg, m_pos and the within-class matrix of a gram.

    gram has one column per training sample, whose side in {-1, +1} sides
    gives (build_matrices passes the centred gram in the factor's
    coordinates, which are the training voxels' rows of B). The
    within-class matrix sum_m k_m (I - 1_m) k_m^T is Z Z^T, where Z is the
    gram matrix with each column centred on its class's mean column M_m.
    numpy computes a product of one buffer with its own transpose as a
    symmetric rank-k update (syrk): half the flops of a general product, exactly symmetric,
    and positive semidefinite to rounding, where the identity
    k_m k_m^T - l_m M_m M_m^T cancels large terms. Duplicates making it
    singular are absorbed by the ridge (build_matrices).
    """
    neg = sides < 0
    m_neg = gram[:, neg].mean(axis=1)
    m_pos = gram[:, ~neg].mean(axis=1)
    centred = np.subtract(gram, m_pos[:, None])
    np.subtract(gram, m_neg[:, None], out=centred, where=neg)
    return m_neg, m_pos, centred @ centred.T


def factor_pencil(within: np.ndarray, beta: float) -> np.ndarray:
    """U, upper triangular, with U^T U = within + beta I, within left as
    it is: one Cholesky factor, which build_matrices' ridge lets complete.
    Raises ValueError on a non-finite pencil and numpy's LinAlgError, also
    a ValueError, on one that is not positive definite."""
    if not (math.isfinite(beta) and np.isfinite(within).all()):
        raise ValueError("within-class pencil has non-finite entries")
    pencil = within.copy()
    np.fill_diagonal(pencil, within.diagonal() + beta)
    return np.linalg.cholesky(pencil).T


def _normalized(y: np.ndarray, floor: float) -> np.ndarray:
    """Orthonormal columns spanning y's directions whose singular value is
    above floor, by an eigen decomposition of y^T y: far cheaper than a QR
    of a tall block, but it loses orthogonality on directions far below
    y's largest."""
    s, v = np.linalg.eigh(y.T @ y)
    keep = s > floor * floor
    return y @ (v[:, keep] / np.sqrt(s[keep]))


def _orthonormal_columns(q: np.ndarray, y: np.ndarray, cutoff: float) -> np.ndarray:
    """Orthonormal columns spanning y, a block orthogonal to q's columns,
    less its directions whose singular value is at most cutoff. y is
    normalized, orthogonalized against q again and normalized again
    (dropping what falls under 1e-14): without the second pass Q drifted
    from orthonormal as it grew."""
    y = _normalized(y, cutoff)
    return _normalized(y - q @ (q.T @ y), 1e-14)


def _range_basis(spec: KernelSpec, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(Q, c, ||G||_F^2): an orthonormal basis Q of the numerical range of
    the sample kernel G = kernel_matrix(spec, samples, samples), G's mean
    column c and ||G||_F^2.

    A blocked randomized range finder (Halko, Martinsson & Tropp, SIAM
    Review 53(2), 2011): Gaussian blocks of RANGE_BLOCK columns are
    multiplied by G, and each block's part outside the basis joins it,
    less its directions at most SKETCH_TOL of the first block's largest
    column, until a fresh block's largest column is at most that too; a
    block is narrower only where fewer than RANGE_BLOCK directions remain.
    One sweep over G (_sample_sweep) multiplies a batch of blocks and gives
    c and ||G||_F^2, the same in every sweep. RANGE_AHEAD blocks go into
    the first sweep and half as many into each later one, only as many as
    the loop is sure to take at full width: the basis grows by at most a
    block's width a block. G is swept again only when the blocks run out.
    The blocks come from a stream of the range finder's own, seeded with
    RANGE_SEED, in the order the loop takes them; build_matrices' probes
    have a stream of their own.
    """
    l = len(samples)
    rng = np.random.default_rng(RANGE_SEED)
    q = np.empty((l, 0))
    cutoff = None
    blocks = []
    while q.shape[1] < l:
        if not blocks:
            room = l - q.shape[1]
            ahead = RANGE_AHEAD if cutoff is None else RANGE_AHEAD // 2
            widths = [RANGE_BLOCK] * min(ahead, room // RANGE_BLOCK) or [room]
            products, centre, square = _sample_sweep(
                spec, samples, np.hstack([rng.standard_normal((l, w)) for w in widths]))
            blocks = np.hsplit(products, len(widths))
        y = blocks.pop(0)
        y -= q @ (q.T @ y)
        largest = math.sqrt(float((y * y).sum(axis=0).max()))
        if cutoff is None:
            cutoff = SKETCH_TOL * largest
        elif largest <= cutoff:
            break
        q = np.hstack([q, _orthonormal_columns(q, y, cutoff)])
    return q, centre, square


def _sample_sweep(spec: KernelSpec, samples: np.ndarray,
                  tests: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(G tests, c, ||G||_F^2) of the sample kernel
    G = kernel_matrix(spec, samples, samples), c its mean column, from one
    sweep that evaluates G in blocks of rows of about CROSS_BLOCK_BYTES of
    float64, so G never exists whole."""
    l = len(samples)
    products = np.empty((l, tests.shape[1]))
    centre = np.empty(l)
    square = 0.0
    weights = np.full(l, 1.0 / l)
    rows = max(1, CROSS_BLOCK_BYTES // (8 * l))
    for first in range(0, l, rows):
        block_rows = slice(first, first + rows)
        block = kernel_matrix(spec, samples[block_rows], samples)
        np.matmul(block, tests, out=products[block_rows])
        np.matmul(block, weights, out=centre[block_rows])
        square += float(np.dot(block.ravel(), block.ravel()))
        del block    # freed before the next block is built beside it
    return products, centre, square


def _project_cross(spec: KernelSpec, samples: np.ndarray, features: np.ndarray,
                   centre: np.ndarray, q: np.ndarray, start: int, out: np.ndarray,
                   probes: np.ndarray) -> tuple[float, np.ndarray]:
    """(error, missed) of the factor C - centre 1^T ~ Q B^T of
    C = kernel_matrix(spec, samples, features), after one pass over every
    voxel that writes B's columns from start on, (C - centre 1^T)^T
    Q[:, start:], into out, (n, r - start), which may be a view.

    The pass takes the voxels in index order, evaluates C in blocks of
    contiguous columns of about CROSS_BLOCK_BYTES of float64, so C never
    exists whole, and writes each block's rows of out in place. It also
    applies C to the Gaussian probe vectors W, one row of probes per
    voxel, giving the sketch C W. missed is (I - Q Q^T) C W less its
    directions at most SKETCH_TOL of C W's largest column, and error is
    missed's largest column relative to that one, an estimate of
    ||C - Q Q^T C|| / ||C||.
    """
    directions = q[:, start:]
    sketch = np.zeros((len(samples), probes.shape[1]))
    cols = max(1, CROSS_BLOCK_BYTES // (8 * len(samples)))
    for first in range(0, len(features), cols):
        block_cols = slice(first, first + cols)
        block = kernel_matrix(spec, samples, features[block_cols])
        sketch += block @ probes[block_cols]
        block -= centre[:, None]
        np.matmul(block.T, directions, out=out[block_cols])
        del block    # freed before the next block is built beside it
    missed = sketch - q @ (q.T @ sketch)
    scale = float(np.linalg.norm(sketch, axis=0).max())
    error = float(np.linalg.norm(missed, axis=0).max()) / scale if scale > 0 else 0.0
    return error, _orthonormal_columns(q, missed, SKETCH_TOL * scale)


def build_matrices(keep: np.ndarray, sides: np.ndarray, spec: KernelSpec,
                   features: np.ndarray, member_box: np.ndarray) -> KfdaMatrices:
    """The step's discriminant on a low-rank factor of its cross kernel.

    features holds the (n, channels) float64 intensity vectors of the
    box's member voxels (member_box) in C order. The step trains on its own
    voxels: keep holds the sorted indices of the l training voxels, sides
    their sides in {-1, +1}. So the columns of the sample kernel G, the
    l x l kernel of the training voxels, are columns of the cross kernel C
    between the training voxels and every voxel.

    Two blocked sweeps build the factor, and neither holds G or C whole.
    The first evaluates G in row blocks and applies each to Gaussian test
    blocks from the range finder's own stream (_sample_sweep); the range
    finder (_range_basis) takes Q, spanning G's numerical range, from
    those products, and sweeps again only if they run out. A sweep also
    gives G's mean column c and ||G||_F^2, the ridge's floor below. Every
    kernel column is centred on c: that leaves the within-class matrix,
    the class-mean difference and the penalty (H annihilates constants)
    as they are, but the published sigmoid kernel is nearly constant, and
    projected uncentred it rounded away the variations the penalty is
    made of (on the 24^3 benchmark phantom's CSF step at l = 300, gamma
    at lambda = 1e-4 was 2e-6 off a long-double reference, against 6e-8
    centred). The second is one pass over every voxel in index order
    (_project_cross): it evaluates C in column blocks, writes each
    voxel's row of B, B^T = Q^T (C - c 1^T), (n, r) in C order, in place,
    and sketches C against probe vectors for an estimate of C's error
    outside span Q. Each pass draws its probes from a stream of their
    own, seeded from RANGE_SEED, so they do not depend on how many blocks
    the range finder drew. While the estimate misses RANGE_TOL, Q grows
    by the m missed directions, and another pass projects each column on
    the added directions only, into a panel E of their own, (n, m): the
    first pass's columns B_1 stay where it wrote them, a later redo grows
    E, never B_1, and B = [B_1, E] is held as the two panels
    (KfdaMatrices.cross and .panel, E empty when no pass redoes). The
    class means, the within-class matrix (class_scatter, on both panels'
    training rows), its ridged Cholesky factor (factor_pencil) and the
    penalty are then r x r, taken in Q's coordinates. The penalty B^T H B
    is the block matrix [B_1^T H B_1, B_1^T H E; E^T H B_1, E^T H E],
    each block summed over row blocks R of the neighbour graph H, as
    B_1[R]^T (H[R] B_1) and so on, each H[R] B of about
    CROSS_BLOCK_BYTES, the block size of every pass here, so no second
    (n, r) array exists. A step's largest arrays are thus B_1, E (twice
    while a redo grows it) and the range finder's products,
    l x RANGE_AHEAD RANGE_BLOCK, never an l x l one; H is built first, so
    its build's buffers are gone before either, and each sweep frees a
    kernel block before it builds the next.

    The ridge beta, RIDGE_SCALE times the mean over the l samples of the
    within-class diagonal and at least a floor 64 eps ||G||_F^2, with
    ||G||_F^2 summed over a sweep's blocks, lets one Cholesky
    factor of N + beta I complete for every l <= 20,000 (five times L_MAX;
    the range finder's products then take 41 MB, where G would take
    3.2 GB). With N = fl(Z Z^T), Z the r x l class-centred sample kernel
    in Q's coordinates, u = 2^-53 and gamma_l ~ l u, rounding gives
    lambda_min(N) >= -gamma_l ||Z||_F^2 and tr(N) >= (1 - gamma_l)
    ||Z||_F^2 (Higham, Accuracy and Stability, 3.5). Cholesky completes
    when the unit-diagonal scaling's smallest eigenvalue exceeds about
    r gamma_(r+1) (Demmel 1989; Higham, Thm 10.7), which holds when
    1e-3 / l > (2 l + r^2) u: for r <= l <= 20,000. At tr(N) = 0, N is 0
    and the pencil is beta I. Past that l the factor may raise numpy's
    LinAlgError, a ValueError, as a non-finite pencil does.
    """
    l, n = len(keep), len(features)
    h = neighborhood_matrix(member_box)
    xs = features[keep]
    q, centre, square = _range_basis(spec, xs)
    # the within matrix's rounding noise scales with ||Z||_F^2, which
    # ||G||_F^2 bounds (centring and Q^T project each row)
    floor = 64.0 * np.finfo(np.float64).eps * square
    # B's two panels, the first pass's p columns and the redos', stored as
    # rows, so that the sparse products with the graph and the voxel
    # projections read them in C order
    p = q.shape[1]
    cross, panel = np.empty((n, p)), np.empty((n, 0))
    out, start = cross, 0
    probe_stream = np.random.default_rng([RANGE_SEED, 1])
    while True:
        probes = probe_stream.standard_normal((n, RANGE_PROBES))
        range_error, missed = _project_cross(spec, xs, features, centre, q, start, out, probes)
        if range_error <= RANGE_TOL or q.shape[1] == l:
            break
        start = q.shape[1]
        q = np.hstack([q, missed])
        grown = np.empty((n, q.shape[1] - p))
        grown[:, :panel.shape[1]] = panel
        panel = grown
        out = panel[:, start - p:]
    m_neg, m_pos, within = class_scatter(np.vstack([cross[keep].T, panel[keep].T]), sides)
    # trace 0 happens for single-sample classes; keep the pencil definite
    beta = max(RIDGE_SCALE * float(np.trace(within)) / l or 1e-10, floor)
    factor = factor_pencil(within, beta)
    rank = q.shape[1]
    penalty = np.zeros((rank, rank))
    parts = ((slice(0, p), cross), (slice(p, rank), panel))
    rows = max(1, CROSS_BLOCK_BYTES // (8 * max(rank, 1)))
    for first in range(0, n, rows):
        block = slice(first, first + rows)
        for cols, right in parts:
            # sliced per panel: one slice kept across both products raised
            # the benchmark's whole-run peaks by about 0.5 MB (allocator layout)
            h_right = h[block] @ right
            for lines, left in parts:
                penalty[lines, cols] += left[block].T @ h_right
    return KfdaMatrices(basis=q, m_neg=m_neg, m_pos=m_pos, factor_inv=np.linalg.inv(factor),
                        beta=beta, penalty=0.5 * (penalty + penalty.T), cross=cross.T,
                        panel=panel.T, centre=centre, range_error=range_error)


# ---------------------------------------------------------------------------
# Eigen solve
# ---------------------------------------------------------------------------

@dataclass
class KfdaModel:
    """Solved discriminant over its step's KfdaMatrices: expansion
    coefficients and projection offset."""

    alpha: np.ndarray
    gamma: float
    gamma_ratio: float | None    # gamma / gamma at lambda 0; None when that is 0
    b_offset: float
    residual: float
    iterations: int = 0          # penalty matvecs: the reduced solve needs none


def solve_alpha(mats: KfdaMatrices, lam: float) -> KfdaModel:
    """Leading eigenpair of the regularized discriminant criterion.

    The criterion (m m^T + lam P) a = gamma N a is solved in the factor's
    coordinates a = Q y, where it is r x r: with N_r = U^T U, the top
    eigenpair (gamma, x) of U^-T (m_r m_r^T + lam P_r) U^-1 gives
    y = U^-1 x, of unit N-norm. The class means, the within-class
    matrix and the penalty lie in span Q to the factor's tolerance, and
    outside it N is the ridge alone while the numerator vanishes, so the
    reduction is exact for a top gamma > 0. At lam = 0 the numerator is
    rank one, and its top eigenpair is gamma(0) = ||c||^2 with x = c / ||c||,
    c = U^-T m_r.

    residual is the Euclidean norm of N_r^-1 (m_r m_r^T + lam P_r) y -
    gamma y relative to ||y||. Returns alpha = Q y scaled to unit
    constraint and signed so the positive class projects positive, with
    the offset that puts the class means' projections' midpoint at 0.
    """
    u_inv = mats.factor_inv
    c = u_inv.T @ mats.m_diff
    gamma0 = float(c @ c)
    a = np.outer(c, c)
    if lam != 0.0:
        t = u_inv.T @ mats.penalty @ u_inv
        a += lam * 0.5 * (t + t.T)
    if lam == 0.0 and gamma0 > 0:      # rank one: its top eigenvector is c
        gamma, x = gamma0, c / math.sqrt(gamma0)
    else:
        evals, evecs = np.linalg.eigh(a)
        gamma, x = float(evals[-1]), evecs[:, -1]
    y = u_inv @ x
    residual = float(np.linalg.norm(u_inv @ (a @ x - gamma * x)) / np.linalg.norm(y))
    if float(y @ mats.m_diff) > 0:     # positive class must project positive
        y = -y
    alpha = mats.basis @ y
    b_offset = -float(y @ (mats.m_neg + mats.m_pos)) / 2.0 - float(mats.centre @ alpha)
    return KfdaModel(alpha=alpha, gamma=gamma,
                     gamma_ratio=gamma / gamma0 if gamma0 > 0 else None,
                     b_offset=b_offset, residual=residual)


# ---------------------------------------------------------------------------
# Voxel categorization and refinement
# ---------------------------------------------------------------------------

# the names of categorize's codes 2 * kind + side, kind 0 for a prototype,
# 1 for the overlapping set and 2 for an outlier, side 1 for the positive class
CATEGORIES = ("prototypes_neg", "prototypes_pos", "overlap_neg_on_pos", "overlap_pos_on_neg",
              "outliers_neg", "outliers_pos")


def categorize(projections: np.ndarray, init_sides: np.ndarray) -> np.ndarray:
    """Each voxel's int8 category code: prototype, overlapping set or outlier.

    A voxel whose projection sign agrees with its initial side is a
    prototype. Disagreeing voxels inside the band TAU_BAND * pooled
    projection std around the decision value 0 form the overlapping set;
    disagreeing voxels further than TAU_OUTLIER * own-class std from their
    class's projected centroid are outliers; the remainder stays prototype.
    The code is 2 * kind + side, named by CATEGORIES.
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
    kind = np.where(disagree & in_band, 1, np.where(disagree & far, 2, 0))
    return (2 * kind + pos).astype(np.int8)


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

def _labelings(features: np.ndarray, init_sides: np.ndarray, codes: np.ndarray,
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
    prototype index. codes are categorize's; the prototypes are indexed
    negative class first, each class in voxel order.
    """
    init_sides = np.asarray(init_sides, dtype=np.int8)
    proto_neg = np.flatnonzero(codes == 0)
    proto_pos = np.flatnonzero(codes == 1)
    sides_mahal = init_sides.copy()
    out_idx = np.flatnonzero(codes // 2 == 2)
    if len(out_idx):
        sides_mahal[out_idx] = classify_outliers_mahalanobis(
            features[out_idx], sides_mahal[out_idx], features[proto_neg], features[proto_pos])
    ov_idx = np.flatnonzero(codes // 2 == 1)
    proto_idx = np.concatenate([proto_neg, proto_pos])
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
    training-set cap l_max: the step trains on at most l_max of its own
    voxels, drawn from rng per class (_stratified_cap). Each solve keeps
    the best-scoring of its labelings (_labelings) and the sweep the
    best-scoring solve; max keeps the first of equal scores, so ties go to
    the smallest k, to KNN over Mahalanobis and to the first lambda of the
    grid. Returns the chosen sides plus diagnostics, whose "skipped" is
    None: every step that runs chooses a lambda.
    """
    features = data_box[member]
    keep = _stratified_cap(sides_init, cfg.l_max, rng)
    mats = build_matrices(keep, sides_init[keep], kernel, features, member)
    diag = {"n_voxels": len(features), "sweep": [], "chosen_lambda": None, "skipped": None,
            "rank": mats.rank, "redo_rank": len(mats.panel), "range_error": mats.range_error}
    solves = []
    for lam in cfg.lambda_grid:
        entry = {"lambda": lam}
        model = solve_alpha(mats, lam)
        projections = mats.voxel_projections(model.alpha) + model.b_offset
        codes = categorize(projections, sides_init)
        counts = np.bincount(codes, minlength=len(CATEGORIES)).tolist()
        entry.update({"gamma": model.gamma, "gamma_ratio": model.gamma_ratio,
                      "residual": model.residual, "categories": dict(zip(CATEGORIES, counts))})
        if min(counts[:2]) < 2:
            logger.warning("fewer than 2 prototypes in a class; keeping initial labels")
            value, sides = score(sides_init), sides_init
            entry.update({"mssim": value, "fallback": "prototypes"})
        else:
            scored = [(score(sides), k, sides) for k, sides in
                      _labelings(features, sides_init, codes, kernel, cfg.k_grid)]
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


def _step_scorer(labels_box, member, neg, pos, mask_box, windows):
    """score(sides) of one step: the MSSIM of the label box with each
    member voxel set to neg[0] or pos[0] by side, its mean image taken per
    tissue label, against the reference box of windows (reference_windows),
    which classify_subdomain computes once for both steps. Each distinct
    labeling is scored once."""
    cache = {}

    def score(sides):
        key = sides.tobytes()
        if key not in cache:
            lab = labels_box.copy()
            lab[member] = np.where(sides < 0, neg[0], pos[0])
            cache[key] = mssim(classified_mean_image(lab, windows.reference, mask_box), windows)
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
    passes labels through, as does every step of a box that no MSSIM
    window fits in plane (window_fits), as no labeling can be scored there.
    """
    rng = np.random.default_rng(seed)
    box = box_slices(bounds)
    data_box = vol.data[box].astype(np.float64)
    mask_box = vol.mask[box]
    labels_box = init_labels[box].copy()
    labels_box[~mask_box] = BG
    diag = {"bounds": [list(b) for b in bounds], "steps": {}}
    if not mask_box.any():
        return labels_box, diag
    if not window_fits(mask_box.shape):
        diag["steps"] = {key: {"skipped": "box thinner in plane than the MSSIM window"}
                         for key, *_ in _STEPS}
        return labels_box, diag

    windows = reference_windows(data_box[..., REFERENCE_CHANNEL], mask_box)
    for key, neg, pos, kernel in _STEPS:
        member = np.isin(labels_box, neg + pos)
        is_neg = np.isin(labels_box[member], neg)
        n_neg = int(is_neg.sum())
        if min(n_neg, is_neg.size - n_neg) < 2:
            diag["steps"][key] = {"skipped": "class absent from initial labels"}
            continue
        score = _step_scorer(labels_box, member, neg, pos, mask_box, windows)
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
