"""Seam fusion of overlapping classified subdomains.

Adjacent subdomains, each padded by p slices, share a 2p-slice overlap (4
slices by default) carrying two label observations. The published method
scores an overlap strip's joint labeling with a lattice random field whose
edge and node potentials reward labels (and label pairs) seen in both
observations. Under those potentials a maximum-posterior labeling copies
one observation on each 4-connected component of cells where the two
disagree, and every such choice scores the same: `exact_map` picks one in
closed form. A strip whose short side exceeds EXACT_MAX_WIDTH is annealed
instead, as the method was published, by `simulated_anneal` over the same
choices, cooling geometrically from T0 by RHO to T_MIN; an AnnealSchedule
sets only its sweeps per temperature and seed. Slices are assembled
progressively from the top-left subimage; axial overlaps are split evenly
between the two subdomains, mirroring the strip solvers' composite
initialization.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

from .volume import BG, LabelVolume, box_slices

# the published edge factors of a label pair seen in exactly one
# observation, and in neither
EDGE_ONE = 0.5
EDGE_NONE = 0.01
# strips whose short side exceeds this are annealed, as the method was
# published; exact_map solves any width. The default overlap is 4 wide, so
# only pad_slices > 7 reaches the annealer
EXACT_MAX_WIDTH = 14


@dataclass(frozen=True)
class StitchProblem:
    """One overlap strip with its two label observations.

    orientation "horizontal" means a left/right subimage pair (the strip is
    a few columns wide and obs_a is the left observation); "vertical" means
    an upper/lower pair (obs_a on top). Labels are 1..4. The problem owns
    copies of its observations.
    """

    orientation: str
    obs_a: np.ndarray
    obs_b: np.ndarray

    def __post_init__(self):
        if self.orientation not in ("horizontal", "vertical"):
            raise ValueError(f"unknown orientation {self.orientation!r}")
        a = np.array(self.obs_a, dtype=np.uint8)
        b = np.array(self.obs_b, dtype=np.uint8)
        if a.shape != b.shape or a.ndim != 2:
            raise ValueError(
                f"observations must be equal 2D patches, got {a.shape} vs {b.shape}")
        object.__setattr__(self, "obs_a", a)
        object.__setattr__(self, "obs_b", b)

    @property
    def shape(self):
        return self.obs_a.shape


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


def composite_init(p: StitchProblem) -> np.ndarray:
    """Starting configuration: near half from obs_a, far half from obs_b."""
    h, w = p.shape
    init = p.obs_b.copy()
    if p.orientation == "horizontal":
        init[:, : w // 2] = p.obs_a[:, : w // 2]
    else:
        init[: h // 2, :] = p.obs_a[: h // 2, :]
    return init


def simulated_anneal(p: StitchProblem, sched: AnnealSchedule | None = None) -> np.ndarray:
    """MAP estimate of the overlap labeling by single-site Metropolis cooling.

    Each cell where the observations disagree copies obs_a or obs_b (see
    exact_map); the rest keep the label both give. Starts from the
    composite initialization, visits the disagreeing cells in raster order
    proposing that the cell copy the other observation, which changes the
    log posterior by log(EDGE_ONE / EDGE_NONE) for each disagreeing
    neighbour that would then copy the same observation as the cell and by
    minus that for each other disagreeing neighbour; accepts with
    probability min(1, exp(dlp/T)) and geometrically cools from T0 by RHO
    until T_MIN, sched.sweeps sweeps per temperature. The best
    configuration seen is returned (its log posterior never drops below
    the initialization's). Deterministic for a fixed schedule seed.
    """
    sched = sched or AnnealSchedule()
    disagree = p.obs_a != p.obs_b
    n_cells = int(disagree.sum())
    # raster index of each disagreeing cell, -1 where the observations agree
    index = np.full(p.shape, -1)
    index[disagree] = np.arange(n_cells)
    padded = np.pad(index, 1, constant_values=-1)
    around = np.stack([padded[1:-1, :-2], padded[1:-1, 2:],
                       padded[:-2, 1:-1], padded[2:, 1:-1]], axis=-1)[disagree]
    # lists: in the interpreter list indexing is far cheaper than numpy
    # scalar indexing. neighbours[i]: cell i's disagreeing neighbours, left,
    # right, up, down; source[i]: 1 if cell i copies obs_b, 0 if obs_a
    neighbours = [[j for j in row if j >= 0] for row in around.tolist()]
    source = (composite_init(p) != p.obs_a)[disagree].astype(int).tolist()
    gain = float(np.log(EDGE_ONE) - np.log(EDGE_NONE))
    n_temps = sched.n_temperatures
    randu = np.random.default_rng(sched.seed).random(n_temps * sched.sweeps * n_cells).tolist()

    best = list(source)
    # log posterior relative to the start
    lp = best_lp = 0.0
    step = 0
    temp = T0
    for _ in range(n_temps):
        for _ in range(sched.sweeps):
            for i, near in enumerate(neighbours):
                u = randu[step]
                step += 1
                new = 1 - source[i]
                delta = 0.0
                for j in near:
                    delta += gain if source[j] == new else -gain
                if delta >= 0.0 or u < math.exp(delta / temp):
                    source[i] = new
                    lp += delta
                    if lp > best_lp:
                        best_lp = lp
                        best = list(source)
        temp *= RHO
    copies_b = np.zeros(p.shape, dtype=bool)
    copies_b[disagree] = best
    return np.where(copies_b, p.obs_b, p.obs_a)


def exact_map(p: StitchProblem) -> np.ndarray:
    """Exact MAP labeling of the overlap strip, in closed form.

    Under the published potentials every cell of a MAP labeling carries its
    obs_a or its obs_b label: a label seen in neither observation has the
    minimal node factor and makes every edge touching the cell EDGE_NONE,
    the minimal edge factor, so switching the cell to its obs_a label
    raises the node factor and lowers no edge factor. A cell's two observed
    labels have the same node factor. An edge from a disagreeing cell to
    one where the observations agree scores EDGE_ONE whichever observed
    label the disagreeing cell takes; an edge between two disagreeing cells
    scores EDGE_ONE when both copy the same observation and EDGE_NONE
    otherwise; an edge between two agreeing cells is fixed. So the MAP
    labelings are exactly those that copy one observation on each
    4-connected component of disagreeing cells, and all score the same:
    the ferromagnetic binary field without external field of Greig,
    Porteous & Seheult (J. R. Stat. Soc. B 51(2), 1989).

    Of these ties, each component copies the observation composite_init
    gives its last cell in raster order along the strip's long axis
    (row-major when h >= w, column-major otherwise). Any width, O(h*w)
    time, no random numbers.
    """
    components, n = ndimage.label(p.obs_a != p.obs_b)
    order = "C" if p.shape[0] >= p.shape[1] else "F"
    # the first occurrence of each component in the reversed raster is its
    # last cell; component 0, the agreeing cells, copies either alike
    ids, last = np.unique(components.ravel(order)[::-1], return_index=True)
    copies_b = np.zeros(n + 1, dtype=bool)
    copies_b[ids] = (composite_init(p) != p.obs_a).ravel(order)[::-1][last]
    return np.where(copies_b[components], p.obs_b, p.obs_a)


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
    simulated annealing with sched where wider than EXACT_MAX_WIDTH (see
    stitch_slice).
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
