"""End-to-end orchestration: partition, classify per subdomain, stitch, report.

The pipeline is deterministic for a fixed config and seed: every random
stream is derived from the root seed and structural indices, reports carry
no wall-clock data (timings land in a separate sidecar), and JSON output is
key-sorted.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

from . import kfda, phantom, ssim, stitch, volume as vol_io
from .partition import PartitionConfig, PartitionTree, partition as build_partition
from .volume import BG, CSF, GM, WM, LabelVolume, MultiChannelVolume, TISSUE_LABELS

CLASS_NAMES = {CSF: "csf", GM: "gm", WM: "wm", BG: "bg"}


class PipelineStageError(RuntimeError):
    """Error tagged with the pipeline stage that raised it."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.__cause__ = cause


@dataclass
class PipelineConfig:
    """Every pipeline knob, JSON round-trippable.

    Numeric defaults follow the method's published configuration: sigmoid
    kernel (a=8, b=-0.0005) for CSF, Gaussian RBF (sigma=0.5) for GM/WM,
    regularization grid 0.000025*i for i=0..4, 4-slice overlaps, at most 7
    partition levels. Overlap strips up to stitch.EXACT_MAX_WIDTH cells
    wide are solved exactly; wider ones are annealed with the schedule in
    the sa_* fields.
    """

    volume: str = ""
    init_labels: str = "kmeans"          # label file path or "kmeans"
    ground_truth: str = ""
    out_dir: str = "out"
    seed: int = 0
    reference_channel: int = 0
    # partitioner
    max_depth: int = 7
    pad_slices: int = 2
    # per-subdomain classification
    lambda_grid: tuple = (0.0, 0.000025, 0.00005, 0.000075, 0.0001)
    k_grid: tuple = (1, 3, 5, 7, 9, 11)
    sigmoid_a: float = 8.0
    sigmoid_b: float = -0.0005
    rbf_sigma: float = 0.5
    l_max: int = 4000
    tau_band: float = 1.0
    tau_outlier: float = 2.5
    beta_scale: float = 1e-3
    # stitching
    sa_t0: float = 1.0
    sa_rho: float = 0.95
    sa_sweeps: int = 20
    sa_t_min: float = 0.01

    def validate(self, check_paths: bool = True):
        if self.pad_slices < 1:
            raise ValueError("pad_slices must be at least 1")
        # the stage constructors' own checks, run before any stage does
        self.anneal_schedule(0)
        self.kfda_config()
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

    def partition_config(self) -> PartitionConfig:
        return PartitionConfig(max_depth=self.max_depth, pad_slices=self.pad_slices,
                               channel=self.reference_channel)

    def kfda_config(self) -> kfda.KfdaConfig:
        return kfda.KfdaConfig(
            kernel_csf=kfda.KernelSpec.sigmoid(self.sigmoid_a, self.sigmoid_b),
            kernel_gm_wm=kfda.KernelSpec.rbf(self.rbf_sigma),
            lambda_grid=tuple(self.lambda_grid), k_grid=tuple(self.k_grid),
            l_max=self.l_max, tau_band=self.tau_band, tau_outlier=self.tau_outlier,
            beta_scale=self.beta_scale, reference_channel=self.reference_channel,
            seed=self.seed)

    def anneal_schedule(self, seed: int) -> stitch.AnnealSchedule:
        return stitch.AnnealSchedule(t0=self.sa_t0, rho=self.sa_rho,
                                     sweeps=self.sa_sweeps, t_min=self.sa_t_min,
                                     seed=seed)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        raw = json.loads(Path(path).read_text())
        # perfbench's configs still name the removed leaf-pool size; 1 is
        # what every run does now, so that value alone is dropped
        if raw.get("workers") == 1:
            del raw["workers"]
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        for key in ("lambda_grid", "k_grid"):
            if key in raw:
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
                 "improved_fraction", "optimal_count", "converged", "config"],
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
        "optimal_count": {"type": ["integer", "null"]},
        "converged": {"type": "boolean"},
        "config": {"type": "object"},
    },
}


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


def _region_mssim(labels_arr: np.ndarray, vol: MultiChannelVolume, bounds,
                  channel: int) -> float | None:
    box = vol_io.box_slices(bounds)
    mask_box = vol.mask[box]
    if not mask_box.any():
        return None
    ref_box = vol.data[box][..., channel].astype(np.float64)
    image = ssim.classified_mean_image(labels_arr[box], ref_box, mask_box)
    try:
        return ssim.mssim(image, ref_box, mask_box)
    except ValueError:
        return None


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


def partition_stage(cfg: PipelineConfig, vol: MultiChannelVolume,
                    timing: dict | None = None) -> PartitionTree:
    """MI partition of vol, leaves padded by cfg.pad_slices."""
    return _staged(timing, "partition", build_partition, vol, cfg.partition_config())


def classify_stage(cfg: PipelineConfig, vol: MultiChannelVolume,
                   init_labels: LabelVolume, tree: PartitionTree,
                   timing: dict | None = None,
                   out_dir=None) -> tuple[list[stitch.ClassifiedFragment], list[dict]]:
    """KFDA-classify every leaf: (fragments, per-leaf diagnostics), in leaf order.

    Leaf i draws its random streams from spawn key (1, i) of the root seed.
    When a leaf fails and out_dir is given, the diagnostics of the leaves
    finished before it go to subdomains_partial.json there.
    """
    kcfg = cfg.kfda_config()
    fragments: list[stitch.ClassifiedFragment] = []
    diagnostics: list[dict] = []
    for index, leaf in enumerate(tree.leaf_nodes()):
        try:
            labels_box, diag = _staged(
                timing, "classify", kfda.classify_subdomain, vol, leaf.padded_bounds,
                init_labels.labels, kcfg, seed=stitch.spawn_seed(cfg.seed, 1, index))
        except PipelineStageError:
            if out_dir is not None and diagnostics:
                write_json(Path(out_dir) / "subdomains_partial.json", diagnostics)
            raise
        diag["domain"] = index + 1
        fragments.append(stitch.ClassifiedFragment(
            core_bounds=leaf.bounds, padded_bounds=leaf.padded_bounds, labels=labels_box))
        diagnostics.append(diag)
    return fragments, diagnostics


def stitch_stage(cfg: PipelineConfig, vol: MultiChannelVolume,
                 fragments: list[stitch.ClassifiedFragment],
                 timing: dict | None = None) -> LabelVolume:
    """Fuse the fragments over their 2*pad_slices-wide overlaps; strips too
    wide to solve exactly anneal on spawn key (2,)."""
    sched = cfg.anneal_schedule(stitch.spawn_seed(cfg.seed, 2))
    return _staged(timing, "stitch", stitch.stitch_volume, fragments, vol.dims,
                   mask=vol.mask, sched=sched, overlap=2 * cfg.pad_slices)


def report_stage(cfg: PipelineConfig, vol: MultiChannelVolume,
                 init_labels: LabelVolume, tree: PartitionTree, final: LabelVolume,
                 diagnostics: list[dict], ground_truth: LabelVolume | None = None,
                 timing: dict | None = None) -> RunReport:
    """Per-leaf MSSIM before and after, curves, class counts and Dice.

    Raises PipelineStageError("report") on diagnostics that are not one
    entry per leaf of tree, each over that leaf's padded bounds."""
    def build() -> RunReport:
        leaves = tree.leaf_nodes()
        if [diag.get("bounds") for diag in diagnostics] != \
                [[list(b) for b in leaf.padded_bounds] for leaf in leaves]:
            raise ValueError(f"the diagnostics of {len(diagnostics)} subdomains do "
                             f"not match the {len(leaves)} leaves of the partition")
        rows = []
        improved = 0
        comparable = 0
        for index, (leaf, diag) in enumerate(zip(leaves, diagnostics)):
            m_init = _region_mssim(init_labels.labels, vol, leaf.padded_bounds,
                                   cfg.reference_channel)
            m_kfda = _region_mssim(final.labels, vol, leaf.padded_bounds,
                                   cfg.reference_channel)
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
                "ssim_window": ssim.fit_constants(ssim.SsimConstants(), shape).window_size,
                "chosen_lambda_csf": diag["steps"].get("csf_vs_gwm", {}).get("chosen_lambda"),
                "chosen_lambda_gm_wm": diag["steps"].get("gm_vs_wm", {}).get("chosen_lambda"),
            })
            if m_init is not None and m_kfda is not None:
                comparable += 1
                if m_kfda >= m_init:
                    improved += 1
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
                 ground_truth: LabelVolume | None = None,
                 emit: bool = True) -> RunReport:
    """Execute partition -> per-subdomain KFDA -> stitch and build the report.

    Inputs may be passed in memory or read from the paths in the config.
    Outputs (stitched labels, report JSON/CSV, curve files, diagnostics)
    are written to cfg.out_dir unless emit is False. Stage failures raise
    PipelineStageError after dumping any per-subdomain diagnostics gathered
    so far.
    """
    cfg.validate(check_paths=vol is None)
    timing: dict[str, float] = {}
    out_dir = Path(cfg.out_dir) if emit else None
    if emit:
        out_dir.mkdir(parents=True, exist_ok=True)

    vol = load_stage(cfg, vol, timing)
    init_labels = init_stage(cfg, vol, init_labels, timing)
    if ground_truth is None and cfg.ground_truth:
        ground_truth = _staged(timing, "load", vol_io.load_labels, cfg.ground_truth)
    tree = partition_stage(cfg, vol, timing)
    if emit:
        (out_dir / "partition.json").write_text(tree.to_json())
    fragments, diagnostics = classify_stage(cfg, vol, init_labels, tree, timing, out_dir)
    final = stitch_stage(cfg, vol, fragments, timing)
    report = report_stage(cfg, vol, init_labels, tree, final, diagnostics,
                          ground_truth, timing)
    report.timing = timing
    if emit:
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
    jsonschema.validate(doc, REPORT_SCHEMA)
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
            writer.writerow([level, count, repr(mir), repr(snr)])


def write_json(path, obj):
    """Write obj as key-sorted, indented JSON (the form of every JSON output)."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1))


def _csv_num(value):
    return "" if value is None else repr(float(value))


# ---------------------------------------------------------------------------
# Fragment files (stage-wise CLI runs)
# ---------------------------------------------------------------------------

def save_fragments(fragments: list[stitch.ClassifiedFragment], outdir):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    index = []
    for i, frag in enumerate(fragments):
        name = f"fragment_{i:03d}"
        np.asarray(frag.labels, dtype=np.uint8).tofile(outdir / f"{name}.u8raw")
        index.append({
            "file": f"{name}.u8raw",
            "core_bounds": [list(b) for b in frag.core_bounds],
            "padded_bounds": [list(b) for b in frag.padded_bounds],
        })
    write_json(outdir / "fragments.json", index)


def load_fragments(indir) -> list[stitch.ClassifiedFragment]:
    indir = Path(indir)
    index = json.loads((indir / "fragments.json").read_text())
    fragments = []
    for entry in index:
        padded = tuple(tuple(b) for b in entry["padded_bounds"])
        shape = tuple(hi - lo + 1 for lo, hi in padded)
        labels = np.fromfile(indir / entry["file"], dtype=np.uint8).reshape(shape)
        fragments.append(stitch.ClassifiedFragment(
            core_bounds=tuple(tuple(b) for b in entry["core_bounds"]),
            padded_bounds=padded, labels=labels))
    return fragments
