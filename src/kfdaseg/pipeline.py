"""End-to-end orchestration: partition, classify per subdomain, stitch, report.

The pipeline is deterministic for a fixed config and seed: every random
stream is derived from the root seed and structural indices, reports carry
no wall-clock data (timings land in a separate sidecar), and JSON output is
key-sorted.
"""

from __future__ import annotations

import csv
import json
import numbers
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import jsonschema
import numpy as np

from . import kfda, phantom, ssim, stitch, volume as vol_io
from .partition import PartitionTree, partition as build_partition
from .volume import BG, CSF, GM, WM, LabelVolume, MultiChannelVolume, TISSUE_LABELS

CLASS_NAMES = {CSF: "csf", GM: "gm", WM: "wm", BG: "bg"}


class PipelineStageError(RuntimeError):
    """Error tagged with the pipeline stage that raised it."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.__cause__ = cause


# what validate() accepts for each PipelineConfig field annotation
_FIELD_TYPES = {"str": (str, "a string"), "int": (numbers.Integral, "an integer"),
                "float": (numbers.Real, "a number"), "tuple": ((tuple, list), "a list")}


@dataclass
class PipelineConfig:
    """The run's files, seed and settable method values, JSON round-trippable.

    Defaults follow the method's published configuration: kfda's
    regularization grid, KNN grid and training-set cap (LAMBDA_GRID, K_GRID,
    L_MAX), 4-slice overlaps, at most 7 partition levels. validate() checks
    the grids and cap, and classify_subdomain reads them from this config.
    Overlap strips up to stitch.EXACT_MAX_WIDTH cells wide are solved
    exactly in closed form; wider ones are annealed, as published, for
    sa_sweeps sweeps per temperature on the cooling schedule fixed in
    stitch (T0, RHO, T_MIN). The
    kernels, categorization thresholds and ridges are the published
    constants fixed in kfda; channel 0 (t1w) is the reference throughout.
    """

    volume: str = ""
    init_labels: str = "kmeans"          # label file path or "kmeans"
    ground_truth: str = ""
    out_dir: str = "out"
    seed: int = 0
    # partitioner
    max_depth: int = 7
    pad_slices: int = 2
    # per-subdomain classification
    lambda_grid: tuple = kfda.LAMBDA_GRID
    k_grid: tuple = kfda.K_GRID
    l_max: int = kfda.L_MAX
    # stitching
    sa_sweeps: int = 20

    def validate(self, check_paths: bool = True):
        """Raise ValueError on a config no stage can run with and
        FileNotFoundError on a missing input; callers run it first."""
        # JSON true/false load as bools, which Python counts as integers
        for f in fields(self):
            kind, what = _FIELD_TYPES[f.type]
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{f.name} must be {what}, got {value!r}")
        for name, low in (("seed", 0), ("max_depth", 0), ("pad_slices", 1), ("sa_sweeps", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}")
        if not self.lambda_grid:
            raise ValueError("lambda grid must not be empty")
        # solve_alpha is exact only while λ·P stays negative semidefinite;
        # a non-finite λ would reach the reports as invalid JSON
        if not all(isinstance(lam, numbers.Real) and not isinstance(lam, bool)
                   and 0 <= lam < np.inf for lam in self.lambda_grid):
            raise ValueError(f"lambda grid values must be finite and >= 0, got {self.lambda_grid}")
        if not self.k_grid:
            raise ValueError("k grid must not be empty")
        if not all(isinstance(k, numbers.Integral) and not isinstance(k, bool)
                   and k > 0 and k % 2 == 1 for k in self.k_grid):
            raise ValueError(f"k grid values must be odd positive integers, "
                             f"got {self.k_grid}")
        if self.l_max < 4:
            raise ValueError("l_max must be at least 4: two training rows per class")
        if check_paths:
            if not self.volume:
                raise ValueError("config must name an input volume")
            if not Path(self.volume).with_suffix(".f32raw").exists():
                raise FileNotFoundError(f"input volume not found: {self.volume}")
            if self.init_labels != "kmeans" and \
                    not Path(self.init_labels).with_suffix(".u8raw").exists():
                raise FileNotFoundError(f"initial labels not found: {self.init_labels}")
            if self.ground_truth and \
                    not Path(self.ground_truth).with_suffix(".u8raw").exists():
                raise FileNotFoundError(f"ground truth not found: {self.ground_truth}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict):
            raise ValueError(f"config {path} does not hold a JSON object")
        # perfbench's configs still name the removed leaf-pool size; 1 is
        # what every run does now, so the integer 1 alone is dropped
        if type(raw.get("workers")) is int and raw["workers"] == 1:
            del raw["workers"]
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        for key in ("lambda_grid", "k_grid"):
            if isinstance(raw.get(key), list):
                raw[key] = tuple(raw[key])
        return cls(**raw)


@dataclass
class RunReport:
    """Deterministic run summary (one row per leaf subdomain)."""

    subdomains: list = field(default_factory=list)
    curves: dict = field(default_factory=dict)
    class_counts: dict = field(default_factory=dict)
    dice: dict | None = None
    improved_fraction: float | None = None
    strictly_improved_fraction: float | None = None
    unchanged_count: int = 0
    optimal_count: int | None = None
    converged: bool = True
    config: dict = field(default_factory=dict)
    labels: LabelVolume | None = None          # not serialized
    diagnostics: list = field(default_factory=list)   # dumped separately
    timing: dict = field(default_factory=dict)        # dumped separately

    def to_dict(self) -> dict:
        """The report.json document: every field but labels, diagnostics, timing."""
        return {key: getattr(self, key) for key in REPORT_SCHEMA["required"]}


REPORT_SCHEMA = {
    "type": "object",
    "required": ["subdomains", "curves", "class_counts", "dice",
                 "improved_fraction", "strictly_improved_fraction", "unchanged_count",
                 "optimal_count", "converged", "config"],
    "properties": {
        "subdomains": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["domain", "bounds", "padded_bounds", "level",
                             "voxel_count", "mssim_initial", "mssim_kfda"],
                "properties": {
                    "domain": {"type": "integer", "minimum": 1},
                    "bounds": {"type": "array"},
                    "padded_bounds": {"type": "array"},
                    "level": {"type": "integer", "minimum": 0},
                    "voxel_count": {"type": "integer", "minimum": 0},
                    "mssim_initial": {"type": ["number", "null"]},
                    "mssim_kfda": {"type": ["number", "null"]},
                },
            },
        },
        "curves": {
            "type": "object",
            "required": ["subdomain_counts", "mir", "snr_normalized"],
            "properties": {
                "subdomain_counts": {"type": "array", "items": {"type": "integer"}},
                "mir": {"type": "array", "items": {"type": "number"}},
                "snr_normalized": {"type": "array", "items": {"type": "number"}},
            },
        },
        "class_counts": {"type": "object"},
        "dice": {"type": ["object", "null"]},
        "improved_fraction": {"type": ["number", "null"]},
        "strictly_improved_fraction": {"type": ["number", "null"]},
        "unchanged_count": {"type": "integer", "minimum": 0},
        "optimal_count": {"type": ["integer", "null"]},
        "converged": {"type": "boolean"},
        "config": {"type": "object"},
    },
}
# built once: jsonschema.validate checks the schema itself against its
# metaschema on every call, which costs many times the check of the report;
# the tests check the schema
REPORT_VALIDATOR = jsonschema.validators.validator_for(REPORT_SCHEMA)(REPORT_SCHEMA)


def dice_scores(result: LabelVolume, truth: LabelVolume,
                mask: np.ndarray) -> dict:
    """Per-class Dice overlap inside the mask."""
    scores = {}
    for cls in TISSUE_LABELS:
        a = (result.labels == cls) & mask
        b = (truth.labels == cls) & mask
        denom = int(a.sum()) + int(b.sum())
        scores[CLASS_NAMES[cls]] = (2.0 * int((a & b).sum()) / denom) if denom else None
    return scores


def _class_counts(labels: np.ndarray, mask: np.ndarray) -> dict:
    return {CLASS_NAMES[cls]: int(((labels == cls) & mask).sum())
            for cls in TISSUE_LABELS}


def _region_mssim(label_arrays, vol: MultiChannelVolume, bounds) -> list[float | None]:
    """MSSIM of each labeling over one box, all scored against one set of
    reference windows; all None where no window fits or holds a masked voxel."""
    box = vol_io.box_slices(bounds)
    mask_box = vol.mask[box]
    ref_box = vol.data[box][..., vol_io.REFERENCE_CHANNEL].astype(np.float64)
    try:
        windows = ssim.reference_windows(ref_box, mask_box)
    except ValueError:
        return [None] * len(label_arrays)
    return [ssim.mssim(ssim.classified_mean_image(labels[box], ref_box, mask_box), windows)
            for labels in label_arrays]


# ---------------------------------------------------------------------------
# Stages: `run_pipeline` chains them, the CLI verbs call them and add file I/O
# ---------------------------------------------------------------------------

def _staged(timing: dict | None, stage: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), its wall time added to timing[stage], its
    exceptions raised as PipelineStageError(stage)."""
    t0 = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:
        raise PipelineStageError(stage, exc) from exc
    if timing is not None:
        timing[stage] = timing.get(stage, 0.0) + time.perf_counter() - t0
    return result


def load_stage(cfg: PipelineConfig, vol: MultiChannelVolume | None = None,
               timing: dict | None = None) -> MultiChannelVolume:
    """The input volume (read from cfg.volume unless given), normalized to
    [0, 1] as the SSIM constants and kernel parameters assume."""
    if vol is None:
        vol = _staged(timing, "load", vol_io.load_volume, cfg.volume)
    return _staged(timing, "normalize", vol_io.normalize_intensities, vol)


def init_stage(cfg: PipelineConfig, vol: MultiChannelVolume,
               init_labels: LabelVolume | None = None,
               timing: dict | None = None) -> LabelVolume:
    """The initial labeling: given, k-means on vol, or read from cfg.init_labels.

    Raises PipelineStageError("init") on labels whose dims differ from the
    volume's or that put background inside the mask."""
    if init_labels is None:
        if cfg.init_labels == "kmeans":
            init_labels = _staged(timing, "init", phantom.kmeans_init, vol, seed=cfg.seed)
        else:
            init_labels = _staged(timing, "init", vol_io.load_labels, cfg.init_labels)
    if init_labels.dims != vol.dims:
        raise PipelineStageError("init", ValueError(
            f"initial labels dims {init_labels.dims} != volume dims {vol.dims}"))
    # tissue labels off the mask become background in classification, but
    # background inside it would pass through unclassified
    holes = vol.mask & (init_labels.labels == BG)
    if holes.any():
        voxel = tuple(int(v) for v in np.argwhere(holes)[0])
        raise PipelineStageError("init", ValueError(
            f"initial labels have {int(holes.sum())} background voxels inside "
            f"the mask, first at voxel {voxel}"))
    return init_labels


def truth_stage(cfg: PipelineConfig, vol: MultiChannelVolume,
                ground_truth: LabelVolume | None = None,
                timing: dict | None = None) -> LabelVolume | None:
    """The ground truth: given, read from cfg.ground_truth, or None if neither.

    Raises PipelineStageError("load") on labels whose dims differ from the
    volume's."""
    if ground_truth is None:
        if not cfg.ground_truth:
            return None
        ground_truth = _staged(timing, "load", vol_io.load_labels, cfg.ground_truth)
    if ground_truth.dims != vol.dims:
        raise PipelineStageError("load", ValueError(
            f"ground truth dims {ground_truth.dims} != volume dims {vol.dims}"))
    return ground_truth


def partition_stage(cfg: PipelineConfig, vol: MultiChannelVolume,
                    timing: dict | None = None) -> PartitionTree:
    """MI partition of vol, leaves padded by cfg.pad_slices."""
    return _staged(timing, "partition", build_partition, vol,
                   max_depth=cfg.max_depth, pad_slices=cfg.pad_slices)


def classify_stage(cfg: PipelineConfig, vol: MultiChannelVolume,
                   init_labels: LabelVolume, tree: PartitionTree,
                   timing: dict | None = None, *,
                   out_dir) -> tuple[list[stitch.ClassifiedFragment], list[dict]]:
    """KFDA-classify every leaf: (fragments, per-leaf diagnostics), in leaf order.

    Leaf i draws its random streams from spawn key (1, i) of the root seed.
    When a leaf fails, the diagnostics of the leaves finished before it go
    to subdomains_partial.json in out_dir.
    """
    fragments: list[stitch.ClassifiedFragment] = []
    diagnostics: list[dict] = []
    for index, leaf in enumerate(tree.leaf_nodes()):
        try:
            labels_box, diag = _staged(
                timing, "classify", kfda.classify_subdomain, vol, leaf.padded_bounds,
                init_labels.labels, cfg, seed=stitch.spawn_seed(cfg.seed, 1, index))
        except PipelineStageError:
            if diagnostics:
                write_json(Path(out_dir) / "subdomains_partial.json", diagnostics)
            raise
        diag["domain"] = index + 1
        fragments.append(stitch.ClassifiedFragment(
            core_bounds=leaf.bounds, padded_bounds=leaf.padded_bounds, labels=labels_box))
        diagnostics.append(diag)
    return fragments, diagnostics


def stitch_stage(cfg: PipelineConfig, vol: MultiChannelVolume, tree: PartitionTree,
                 fragments: list[stitch.ClassifiedFragment],
                 timing: dict | None = None) -> LabelVolume:
    """Fuse the fragments over their 2*pad_slices-wide overlaps; strips
    more than stitch.EXACT_MAX_WIDTH cells wide anneal for cfg.sa_sweeps
    sweeps per temperature on stitch's cooling schedule, on spawn key (2,).

    Raises PipelineStageError("stitch") unless the fragments are one per
    leaf of tree, each with that leaf's core and padded bounds."""
    def fuse() -> LabelVolume:
        _require_leaves(tree, "fragments", [
            (frag.core_bounds, frag.padded_bounds) for frag in fragments],
            lambda leaf: (leaf.bounds, leaf.padded_bounds))
        sched = stitch.AnnealSchedule(sweeps=cfg.sa_sweeps,
                                      seed=stitch.spawn_seed(cfg.seed, 2))
        return stitch.stitch_volume(fragments, vol.dims, mask=vol.mask, sched=sched,
                                    overlap=2 * cfg.pad_slices)

    return _staged(timing, "stitch", fuse)


def _require_leaves(tree: PartitionTree, what: str, found: list, expected_of) -> None:
    """Raise ValueError unless found lists expected_of(leaf) for every leaf
    of tree, in leaf order, tuples and lists compared alike."""
    def plain(bounds):
        return [plain(b) for b in bounds] if isinstance(bounds, (list, tuple)) else bounds

    leaves = tree.leaf_nodes()
    if plain(found) != plain([expected_of(leaf) for leaf in leaves]):
        raise ValueError(f"the {what} of {len(found)} subdomains do not match "
                         f"the {len(leaves)} leaves of the partition")


def report_stage(cfg: PipelineConfig, vol: MultiChannelVolume,
                 init_labels: LabelVolume, tree: PartitionTree, final: LabelVolume,
                 diagnostics: list[dict], ground_truth: LabelVolume | None = None,
                 timing: dict | None = None) -> RunReport:
    """Per-leaf MSSIM before and after, curves, class counts and Dice.

    Raises PipelineStageError("report") on diagnostics that are not one
    object per leaf of tree, each over that leaf's padded bounds with a
    "steps" object of step objects."""
    def build() -> RunReport:
        if not (isinstance(diagnostics, list) and all(
                isinstance(d, dict) and isinstance(d.get("steps"), dict)
                and all(isinstance(step, dict) for step in d["steps"].values())
                for d in diagnostics)):
            raise ValueError("diagnostics must list one object per subdomain, "
                             "whose steps map each step to an object")
        _require_leaves(tree, "diagnostics", [diag.get("bounds") for diag in diagnostics],
                        lambda leaf: leaf.padded_bounds)
        leaves = tree.leaf_nodes()
        rows = []
        improved = 0
        strictly_improved = 0
        unchanged = 0
        comparable = 0
        for index, (leaf, diag) in enumerate(zip(leaves, diagnostics)):
            m_init, m_kfda = _region_mssim((init_labels.labels, final.labels), vol,
                                           leaf.padded_bounds)
            shape = (leaf.padded_bounds[0][1] - leaf.padded_bounds[0][0] + 1,
                     leaf.padded_bounds[1][1] - leaf.padded_bounds[1][0] + 1)
            rows.append({
                "domain": index + 1,
                "bounds": [list(b) for b in leaf.bounds],
                "padded_bounds": [list(b) for b in leaf.padded_bounds],
                "level": leaf.level,
                "voxel_count": leaf.voxel_count,
                "mssim_initial": m_init,
                "mssim_kfda": m_kfda,
                "ssim_window": ssim.fit_window(shape)[0] if ssim.window_fits(shape) else None,
                "chosen_lambda_csf": diag["steps"].get("csf_vs_gwm", {}).get("chosen_lambda"),
                "chosen_lambda_gm_wm": diag["steps"].get("gm_vs_wm", {}).get("chosen_lambda"),
            })
            if m_init is not None and m_kfda is not None:
                comparable += 1
                # an unchanged leaf counts as improved; the strict share
                # and unchanged_count tell the two apart
                improved += m_kfda >= m_init
                strictly_improved += m_kfda > m_init
                unchanged += m_kfda == m_init
        return RunReport(
            subdomains=rows,
            curves={
                "subdomain_counts": tree.subdomain_counts,
                "mir": tree.mir_curve,
                "snr_normalized": tree.snr_curve,
            },
            class_counts={
                "initial": _class_counts(init_labels.labels, vol.mask),
                "final": _class_counts(final.labels, vol.mask),
            },
            dice=(dice_scores(final, ground_truth, vol.mask)
                  if ground_truth is not None else None),
            improved_fraction=(improved / comparable) if comparable else None,
            strictly_improved_fraction=(strictly_improved / comparable
                                        if comparable else None),
            unchanged_count=unchanged,
            optimal_count=tree.optimal_count,
            converged=tree.converged,
            config=asdict(cfg),
            labels=final,
            diagnostics=diagnostics,
        )

    return _staged(timing, "report", build)


def run_pipeline(cfg: PipelineConfig,
                 vol: MultiChannelVolume | None = None,
                 init_labels: LabelVolume | None = None,
                 ground_truth: LabelVolume | None = None) -> RunReport:
    """Execute partition -> per-subdomain KFDA -> stitch and build the report.

    Inputs may be passed in memory or read from the paths in the config.
    Outputs (stitched labels, report JSON/CSV, curve files, diagnostics)
    are written to cfg.out_dir. Stage failures raise PipelineStageError
    after dumping any per-subdomain diagnostics gathered so far.
    """
    cfg.validate(check_paths=vol is None)
    timing: dict[str, float] = {}
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    vol = load_stage(cfg, vol, timing)
    init_labels = init_stage(cfg, vol, init_labels, timing)
    ground_truth = truth_stage(cfg, vol, ground_truth, timing)
    tree = partition_stage(cfg, vol, timing)
    (out_dir / "partition.json").write_text(tree.to_json())
    fragments, diagnostics = classify_stage(cfg, vol, init_labels, tree, timing,
                                            out_dir=out_dir)
    final = stitch_stage(cfg, vol, tree, fragments, timing)
    report = report_stage(cfg, vol, init_labels, tree, final, diagnostics,
                          ground_truth, timing)
    report.timing = timing
    emit_report(report, out_dir)
    return report


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def emit_report(report: RunReport, outdir):
    """Write labels, report.json, CSV tables and diagnostics to outdir.

    report.json is schema-validated and byte-deterministic; wall-clock data
    goes to timing.json only, and only when the report carries timings.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    doc = report.to_dict()
    REPORT_VALIDATOR.validate(doc)
    write_json(outdir / "report.json", doc)
    write_json(outdir / "subdomains.json", report.diagnostics)
    if report.timing:
        write_json(outdir / "timing.json", report.timing)
    if report.labels is not None:
        vol_io.save_labels(report.labels, outdir / "labels.u8raw")

    with open(outdir / "mssim_table.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["domain", "initial", "kfda"])
        init_vals, kfda_vals = [], []
        for row in report.subdomains:
            writer.writerow([row["domain"],
                             _csv_num(row["mssim_initial"]),
                             _csv_num(row["mssim_kfda"])])
            if row["mssim_initial"] is not None:
                init_vals.append(row["mssim_initial"])
            if row["mssim_kfda"] is not None:
                kfda_vals.append(row["mssim_kfda"])
        writer.writerow(["means",
                         _csv_num(float(np.mean(init_vals)) if init_vals else None),
                         _csv_num(float(np.mean(kfda_vals)) if kfda_vals else None)])

    with open(outdir / "curves.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "count", "mir", "snr_normalized"])
        curves = report.curves
        for level, (count, mir, snr) in enumerate(
                zip(curves.get("subdomain_counts", []), curves.get("mir", []),
                    curves.get("snr_normalized", [])), start=1):
            writer.writerow([level, count, _csv_num(mir), _csv_num(snr)])


def write_json(path, obj):
    """Write obj as key-sorted, indented JSON (the form of every JSON output)."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1))


def _csv_num(value):
    return "" if value is None else repr(float(value))


# ---------------------------------------------------------------------------
# Fragment files (stage-wise CLI runs)
# ---------------------------------------------------------------------------

def save_fragments(fragments: list[stitch.ClassifiedFragment], outdir):
    """Write each fragment as a label volume and index them in fragments.json."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    index = []
    for i, frag in enumerate(fragments):
        name = f"fragment_{i:03d}"
        vol_io.save_labels(LabelVolume(labels=frag.labels), outdir / f"{name}.u8raw")
        index.append({
            "file": f"{name}.u8raw",
            "core_bounds": [list(b) for b in frag.core_bounds],
            "padded_bounds": [list(b) for b in frag.padded_bounds],
        })
    write_json(outdir / "fragments.json", index)


def load_fragments(indir) -> list[stitch.ClassifiedFragment]:
    """The fragments save_fragments wrote; raises ValueError on an index
    that does not list one object per fragment and VolumeFormatError
    naming the first label byte outside the state space."""
    index = Path(indir) / "fragments.json"
    try:
        records = [(index.parent / entry["file"], tuple(tuple(b) for b in entry["core_bounds"]),
                    tuple(tuple(b) for b in entry["padded_bounds"]))
                   for entry in json.loads(index.read_text())]
    except TypeError as exc:
        raise ValueError(f"{index} does not list one object per fragment: {exc}") from exc
    return [stitch.ClassifiedFragment(core_bounds=core, padded_bounds=padded,
                                      labels=vol_io.load_labels(path).labels)
            for path, core, padded in records]
