"""Seam fusion of overlapping classified subdomains.

Adjacent subdomains, each padded by p slices, share a 2p-slice overlap (4
slices by default) carrying two label observations.
Each overlap strip becomes a small lattice random field whose edge and node
potentials reward label (pairs) seen in both observations. In its
maximum-posterior joint labeling every cell keeps its obs_a or its obs_b
label, so both strip solvers search that binary field (`_binary_field`):
`exact_map` by dynamic programming over the strip's short side, and, for a
strip whose short side exceeds EXACT_MAX_WIDTH, `simulated_anneal`, as the
method was published, cooling geometrically from T0 by RHO to T_MIN; an
AnnealSchedule sets only its sweeps per temperature and seed. Slices are
assembled progressively from the top-left subimage; axial overlaps are
split evenly between the two subdomains, mirroring the strip solvers'
composite initialization.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .volume import BG, LabelVolume, box_slices

N_STATES = 4  # CSF, GM, WM, BG: labels 1..4 index the potential tables as 0..3

EDGE_BOTH = 1.0
EDGE_ONE = 0.5
EDGE_NONE = 0.01
NODE_BOTH = 1.0
NODE_ONE = 0.5
NODE_NONE = 0.01
W_BOUNDARY = 0.75
W_INTERIOR = 0.25
# widest strip exact_map solves: 2^14 frontier states, 16 KB of back-pointers
# per cell; wider strips are annealed
EXACT_MAX_WIDTH = 14


@dataclass(frozen=True)
class StitchProblem:
    """One overlap strip with its two label observations.

    orientation "horizontal" means a left/right subimage pair (the strip is
    a few columns wide and obs_a is the left observation); "vertical" means
    an upper/lower pair (obs_a on top). Labels are 1..4.
    """

    orientation: str
    obs_a: np.ndarray
    obs_b: np.ndarray

    def __post_init__(self):
        if self.orientation not in ("horizontal", "vertical"):
            raise ValueError(f"unknown orientation {self.orientation!r}")
        a = np.asarray(self.obs_a, dtype=np.uint8)
        b = np.asarray(self.obs_b, dtype=np.uint8)
        if a.shape != b.shape or a.ndim != 2:
            raise ValueError(
                f"observations must be equal 2D patches, got {a.shape} vs {b.shape}")
        object.__setattr__(self, "obs_a", a)
        object.__setattr__(self, "obs_b", b)

    @property
    def shape(self):
        return self.obs_a.shape


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


# the annealer's published geometric cooling schedule
T0 = 1.0
RHO = 0.95
T_MIN = 0.01


@dataclass(frozen=True)
class AnnealSchedule:
    """Sweeps per temperature and seed of the overlap annealer, which cools
    geometrically from T0 by RHO until T_MIN: n_temperatures steps."""

    sweeps: int = 20
    seed: int = 0

    @property
    def n_temperatures(self) -> int:
        return int(math.floor(math.log(T_MIN / T0) / math.log(RHO))) + 1


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


def composite_init(p: StitchProblem) -> np.ndarray:
    """Starting configuration: near half from obs_a, far half from obs_b."""
    h, w = p.shape
    init = p.obs_b.copy()
    if p.orientation == "horizontal":
        init[:, : w // 2] = p.obs_a[:, : w // 2]
    else:
        init[: h // 2, :] = p.obs_a[: h // 2, :]
    return init


def _binary_field(p: StitchProblem):
    """The binary field of the strip: (cand, node, right, down).

    cand[r, c, s] is the label of state s of cell (r, c): state 0 its
    composite_init label, state 1 the other observation's. node[r, c, s] is
    the log node factor of state s; right[r, c, s, t] and down[r, c, s, t]
    those of the edges from state s of the cell to state t of its right and
    lower neighbours, gathered from build_potentials.
    """
    tables = build_potentials(p)
    init = composite_init(p)
    cand = np.stack([init, np.where(init == p.obs_a, p.obs_b, p.obs_a)], axis=-1)
    idx = cand.astype(np.int64) - 1
    rr, cc = np.indices(p.shape)
    node = np.log(tables.phi[rr[..., None], cc[..., None], idx])
    right = np.log(tables.psi_h[rr[:, :-1, None, None], cc[:, :-1, None, None],
                                idx[:, :-1, :, None], idx[:, 1:, None, :]])
    down = np.log(tables.psi_v[rr[:-1, :, None, None], cc[:-1, :, None, None],
                               idx[:-1, :, :, None], idx[1:, :, None, :]])
    return cand, node, right, down


def _anneal_loop(cells, node, right, down, randu, n_temps, sweeps):
    # every array arrives as nested lists: in the interpreter list indexing
    # is far cheaper than numpy scalar indexing; returns the best state
    # field seen, as nested lists, every state starting at 0
    h = len(node)
    w = len(node[0])
    config = [[0] * w for _ in range(h)]
    best = [[0] * w for _ in range(h)]
    # log posterior relative to the start
    lp = best_lp = 0.0

    step = 0
    temp = T0
    for _ in range(n_temps):
        for _ in range(sweeps):
            for r, c in cells:
                u = randu[step]
                step += 1
                row = config[r]
                old = row[c]
                new = 1 - old
                phi = node[r][c]
                delta = phi[new] - phi[old]
                if c > 0:
                    left = right[r][c - 1][row[c - 1]]
                    delta += left[new] - left[old]
                if c + 1 < w:
                    edge = right[r][c]
                    cr = row[c + 1]
                    delta += edge[new][cr] - edge[old][cr]
                if r > 0:
                    up = down[r - 1][c][config[r - 1][c]]
                    delta += up[new] - up[old]
                if r + 1 < h:
                    edge = down[r][c]
                    cd = config[r + 1][c]
                    delta += edge[new][cd] - edge[old][cd]
                if delta >= 0.0 or u < math.exp(delta / temp):
                    row[c] = new
                    lp += delta
                    if lp > best_lp:
                        best_lp = lp
                        best = [list(states) for states in config]
        temp *= RHO
    return best


def simulated_anneal(p: StitchProblem, sched: AnnealSchedule | None = None) -> np.ndarray:
    """MAP estimate of the overlap labeling by single-site Metropolis cooling.

    Searches exact_map's binary field (_binary_field): starts from the
    composite initialization, visits the cells where the observations
    disagree in raster order proposing the other observation's label,
    accepts with probability min(1, exp(dlp/T)) and geometrically cools
    from T0 by RHO until T_MIN, sched.sweeps sweeps per temperature; the
    best configuration seen is returned (its log posterior never drops
    below the initialization's). Every cell keeps its obs_a or its obs_b
    label. Deterministic for a fixed schedule seed.
    """
    sched = sched or AnnealSchedule()
    cand, node, right, down = _binary_field(p)
    cells = [(int(r), int(c)) for r, c in np.argwhere(p.obs_a != p.obs_b)]
    n_temps = sched.n_temperatures
    randu = np.random.default_rng(sched.seed).random(n_temps * sched.sweeps * len(cells))
    best = _anneal_loop(cells, node.tolist(), right.tolist(), down.tolist(),
                        randu.tolist(), n_temps, sched.sweeps)
    return np.take_along_axis(cand, np.asarray(best)[..., None], axis=-1)[..., 0]


def exact_map(p: StitchProblem) -> np.ndarray:
    """Exact MAP labeling of the overlap strip by dynamic programming.

    Every cell of a MAP labeling carries its obs_a or its obs_b label. A
    label seen in neither observation has the minimal node factor NODE_NONE
    and makes every edge touching the cell EDGE_NONE, the minimal edge
    factor; switching the cell to its obs_a label strictly raises the node
    factor and lowers no edge factor. So every cell is a binary choice
    (_binary_field): state 0 is its composite_init label, state 1 the other
    observation's.

    The binary field is solved by eliminating cells in raster order along
    the strip's long axis while keeping the last w cells, w the short side
    (at most the overlap width), as a frontier of 2^w states:
    O(h*w*2^(w+1)) time, h*w*2^w bytes of back-pointers and no random
    numbers. Ties go to state 0, as the annealer only leaves its composite
    start for a strictly better posterior. Raises ValueError when the short
    side exceeds EXACT_MAX_WIDTH.
    """
    cand, node, right, down = _binary_field(p)
    transposed = p.shape[0] < p.shape[1]
    if transposed:
        cand, node = cand.transpose(1, 0, 2), node.transpose(1, 0, 2)
        right, down = down.transpose(1, 0, 2, 3), right.transpose(1, 0, 2, 3)
    h, w = node.shape[:2]
    if w > EXACT_MAX_WIDTH:
        raise ValueError(f"strip of shape {p.shape} is wider than the "
                         f"{EXACT_MAX_WIDTH} cells the exact solver handles")

    # score[s]: best log posterior of the cells eliminated so far given the
    # frontier state s, whose bit j is the state of the frontier cell in
    # column j; row 0 starts from a frontier of dummy cells
    score = np.zeros(1 << w)
    no_edge = np.zeros((2, 2))
    choices = []
    for r in range(h):
        for c in range(w):
            # cell (r, c) takes bit c from its upper neighbour; axes of the
            # reshaped score: higher bits, bit c, bit c-1, lower bits
            up = down[r - 1, c] if r else no_edge
            left = right[r, c - 1] if c else no_edge[:1]
            lower = 1 << max(c - 1, 0)
            s = score.reshape(-1, 2, len(left), lower)
            via_0 = s[:, None, 0] + up[0][None, :, None, None]
            via_1 = s[:, None, 1] + up[1][None, :, None, None]
            choice = via_1 > via_0
            score = (np.maximum(via_0, via_1)
                     + (node[r, c][:, None] + left.T)[None, :, :, None]).ravel()
            choices.append(choice.ravel())

    state = int(np.argmax(score))
    pick = np.empty((h, w), dtype=np.int64)
    for r in reversed(range(h)):
        for c in reversed(range(w)):
            x = (state >> c) & 1
            pick[r, c] = x
            state ^= (x ^ int(choices[r * w + c][state])) << c
    best = np.take_along_axis(cand, pick[..., None], axis=-1)[..., 0]
    return best.T if transposed else best


# ---------------------------------------------------------------------------
# Slice assembly
# ---------------------------------------------------------------------------

@dataclass
class SliceSubimage:
    """One subdomain's contribution to a slice: inclusive 2D bounds + labels."""

    bounds: tuple[tuple[int, int], tuple[int, int]]
    labels: np.ndarray

    def __post_init__(self):
        (r0, r1), (c0, c1) = self.bounds
        expected = (r1 - r0 + 1, c1 - c0 + 1)
        if self.labels.shape != expected:
            raise ValueError(
                f"patch shape {self.labels.shape} does not match bounds {self.bounds}")


def _runs(flags: np.ndarray):
    """Contiguous index runs where flags is True, as (start, stop) inclusive."""
    idx = np.flatnonzero(flags)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([0], breaks + 1))
    stops = np.concatenate((breaks, [idx.size - 1]))
    return [(int(idx[a]), int(idx[b])) for a, b in zip(starts, stops)]


def spawn_seed(root: int, *key: int) -> int:
    """Seed of the random stream keyed by key under the root seed."""
    return int(np.random.SeedSequence(entropy=root, spawn_key=key).generate_state(1)[0])


def _edge_strips(cells: np.ndarray, side: str, depth: int):
    """(rows, cols) slices of the runs of True cells that start at one edge
    of a 2D mask and reach at most depth deep; equal runs of neighbouring
    lines form one strip."""
    lines = cells if side in ("left", "right") else cells.T
    if side in ("right", "bottom"):
        lines = lines[:, ::-1]
    width = lines.shape[1]
    runs = [width if line.all() else int(np.argmin(line)) for line in lines]
    start = 0
    for run, group in itertools.groupby(r if r <= depth else 0 for r in runs):
        count = len(list(group))
        if run:
            across = slice(0, run) if side in ("left", "top") else slice(width - run, width)
            along = slice(start, start + count)
            yield (along, across) if side in ("left", "right") else (across, along)
        start += count


def stitch_slice(subimages: list[SliceSubimage], shape: tuple[int, int],
                 sched: AnnealSchedule | None = None, slice_index: int = 0,
                 overlap: int = 4) -> np.ndarray:
    """Assemble one slice from overlapping subimages.

    Subimages are placed top-left to bottom-right; wherever a new subimage
    covers already-settled cells, the overlap strip (horizontal strips
    first, then vertical, minus the corner already handled, then the
    narrower strips that thin tiles leave at the subimage's edges) is
    re-estimated against the canvas: by exact_map, or, for a strip whose
    short side exceeds EXACT_MAX_WIDTH, by simulated annealing with sched
    on a stream spawned from sched.seed. Raises ValueError on overlap
    widths inconsistent with the expected strip layout or on uncovered
    cells.
    """
    sched = sched or AnnealSchedule()
    canvas = np.zeros(shape, dtype=np.uint8)
    placed = np.zeros(shape, dtype=bool)

    # subimages cut from padded tiles overlap by at most `overlap` cells
    # across at least one axis: the one their tiles' cores are disjoint on
    for first, second in itertools.combinations(subimages, 2):
        depths = [min(ha, hb) - max(la, lb) + 1
                  for (la, ha), (lb, hb) in zip(first.bounds, second.bounds)]
        if min(depths) > overlap:
            raise ValueError(
                f"subimages at bounds {first.bounds} and {second.bounds} overlap by "
                f"{depths[0]}x{depths[1]} cells, wider than the {overlap}-wide "
                f"overlap strip both ways")

    order = sorted(range(len(subimages)), key=lambda i: subimages[i].bounds)
    for si in order:
        sub = subimages[si]
        (r0, _), (c0, _) = sub.bounds
        box = box_slices(sub.bounds)
        pm = placed[box]
        patch = sub.labels
        hs, ws = patch.shape
        if not pm.any():
            canvas[box] = patch
            placed[box] = True
            continue

        resolved = np.zeros_like(pm)
        new_content = patch.copy()

        def fuse(rows: slice, cols: slice, orientation: str, canvas_first: bool):
            obs_canvas = canvas[box][rows, cols]
            obs_patch = patch[rows, cols]
            problem = (StitchProblem(orientation, obs_canvas, obs_patch) if canvas_first
                       else StitchProblem(orientation, obs_patch, obs_canvas))
            key = (slice_index, r0 + rows.start, c0 + cols.start,
                   int(orientation == "vertical"))
            new_content[rows, cols] = _solve_problem(problem, sched, key)
            resolved[rows, cols] = True

        # horizontal strips: the leftmost / rightmost `overlap` columns
        for side, cols in (("left", slice(0, min(overlap, ws))),
                           ("right", slice(max(ws - overlap, 0), ws))):
            full_rows = pm[:, cols].all(axis=1) & ~resolved[:, cols].any(axis=1)
            for a, b in _runs(full_rows):
                fuse(slice(a, b + 1), cols, "horizontal", side == "left")

        # vertical strips: topmost / bottommost rows, corners excluded
        for side, rows in (("top", slice(0, min(overlap, hs))),
                           ("bottom", slice(max(hs - overlap, 0), hs))):
            full_cols = pm[rows, :].all(axis=0) & ~resolved[rows, :].any(axis=0)
            for a, b in _runs(full_cols):
                fuse(rows, slice(a, b + 1), "vertical", side == "top")

        # narrower strips at the subimage's edges: next to a slab thinner
        # than the overlap, the padding of the slab's far neighbour reaches
        # into this subimage, so settled content meets an edge in runs
        # shorter than a full strip
        for side in ("left", "right", "top", "bottom"):
            leftover = pm & ~resolved
            if not leftover.any():
                break
            for rows, cols in _edge_strips(leftover, side, overlap):
                fuse(rows, cols, "horizontal" if side in ("left", "right") else "vertical",
                     side in ("left", "top"))

        leftover = pm & ~resolved
        if leftover.any():
            idx = np.argwhere(leftover)[0]
            raise ValueError(
                f"subimage at bounds {sub.bounds} overlaps settled content at "
                f"local cell {tuple(int(v) for v in idx)} outside any "
                f"{overlap}-wide overlap strip")
        canvas[box] = new_content
        placed[box] = True

    if not placed.all():
        missing = np.argwhere(~placed)
        raise ValueError(
            f"{len(missing)} slice cells not covered by any subimage, "
            f"first at {tuple(int(v) for v in missing[0])}")
    return canvas


def _solve_problem(problem: StitchProblem, sched: AnnealSchedule, key: tuple):
    if np.array_equal(problem.obs_a, problem.obs_b):
        # agreement is the unique MAP: every factor already maximal
        return problem.obs_a.copy()
    if min(problem.shape) <= EXACT_MAX_WIDTH:
        return exact_map(problem)
    return simulated_anneal(problem, replace(sched, seed=spawn_seed(sched.seed, *key)))


# ---------------------------------------------------------------------------
# Volume assembly
# ---------------------------------------------------------------------------

@dataclass
class ClassifiedFragment:
    """Classified labels over a padded subdomain box.

    core_bounds tile the volume; padded_bounds include the overlap slices;
    labels covers padded_bounds.
    """

    core_bounds: tuple
    padded_bounds: tuple
    labels: np.ndarray

    def __post_init__(self):
        expected = tuple(hi - lo + 1 for lo, hi in self.padded_bounds)
        if self.labels.shape != expected:
            raise ValueError(
                f"fragment labels shape {self.labels.shape} does not match "
                f"padded bounds {self.padded_bounds}")


def stitch_volume(fragments: list[ClassifiedFragment], dims,
                  mask: np.ndarray | None = None,
                  sched: AnnealSchedule | None = None,
                  overlap: int = 4) -> LabelVolume:
    """Fuse classified fragments into one label volume, slice by slice.

    Fragments padded by p slices overlap their neighbours by overlap = 2p
    slices. Axial overlap slices are owned by the nearer fragment (the near
    half of each overlap), so each axial slice sees only in-plane overlap
    strips, overlap cells wide, which are re-estimated by exact_map, or by
    simulated annealing with sched where too wide (see stitch_slice).
    Every stitched label is one a fragment covering its voxel gave it.
    Raises ValueError when a voxel is covered by no fragment, or when a
    fragment labels a voxel inside mask as background, naming the first.
    """
    if mask is not None:
        for index, frag in enumerate(fragments):
            holes = mask[box_slices(frag.padded_bounds)] & (frag.labels == BG)
            if holes.any():
                voxel = tuple(int(lo + v) for (lo, _), v in
                              zip(frag.padded_bounds, np.argwhere(holes)[0]))
                raise ValueError(
                    f"fragment {index} labels {int(holes.sum())} voxels inside the "
                    f"mask as background, first at voxel {voxel}")
    sched = sched or AnnealSchedule()
    out = np.full(dims, BG, dtype=np.uint8)

    for k in range(dims[2]):
        # the fragments whose core owns axial slice k
        subs = [SliceSubimage(bounds=tuple(tuple(b) for b in frag.padded_bounds[:2]),
                              labels=frag.labels[:, :, k - frag.padded_bounds[2][0]])
                for frag in fragments if frag.core_bounds[2][0] <= k <= frag.core_bounds[2][1]]
        if not subs:
            raise ValueError(f"axial slice {k} is covered by no fragment")
        out[:, :, k] = stitch_slice(subs, dims[:2], sched, slice_index=k,
                                    overlap=overlap)

    if mask is not None:
        out[~mask] = BG
    return LabelVolume(labels=out)
