"""Span tracer behind the per-layer profile.

The tracer wraps the public functions of each layer (`volume`, `partition`,
`kfda`, `ssim`, `stitch`, `pipeline`) from the outside, at the name the
caller looks up: `kfda` imported `mssim` and `classified_mean_image` by
name, `pipeline` imported `partition` as `build_partition`, while the
pipeline reaches `kfda.classify_subdomain` and `stitch.stitch_volume`
through their modules. Every call becomes a span (name, start, end,
parent); spans stay in memory and are written once, when the run ends.
A layer's time is the self time of its spans: the span's duration minus
the part its child spans cover.
"""

from __future__ import annotations

import functools
import json
import logging
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT_SPAN = "pipeline.run_pipeline"
STAGES = ("load", "normalize", "init", "partition", "classify", "stitch", "report")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 for none


class _RepairCounter(logging.Handler):
    """Counts the voxels the stitcher reports repairing inside the mask."""

    def __init__(self, counters: Counter):
        super().__init__(level=logging.WARNING)
        self.counters = counters

    def emit(self, record):
        if record.msg.startswith("repairing %d background labels"):
            self.counters["stitch.repaired_voxels"] += int(record.args[0])


class Tracer:
    """Records spans and counters around the wrapped calls of one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, count=None):
        """Replace `owner.attr` by a function that records a span per call.

        `count(counters, args, kwargs, result)` adds the call's work counts;
        a call that raises adds one to the counter `<name>.errors`.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.counters[name + ".errors"] += 1
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def count_calls(self, owner, attr: str, counter: str):
        """Replace `owner.attr` by a function that only counts its calls."""
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            self.counters[counter] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)

    def install(self):
        """Wrap every layer boundary the per-layer metrics are read from."""
        from kfdaseg import kfda, pipeline, ssim, stitch, volume

        wrap = self.wrap
        wrap(pipeline, "run_pipeline", ROOT_SPAN)
        wrap(pipeline, "emit_report", "pipeline.emit_report")
        wrap(pipeline, "build_partition", "partition.partition", _count_leaves)
        wrap(volume, "load_volume", "volume.load_volume")
        wrap(volume, "load_labels", "volume.load_labels")
        wrap(volume, "normalize_intensities", "volume.normalize_intensities")
        wrap(kfda, "classify_subdomain", "kfda.classify_subdomain")
        wrap(kfda, "build_matrices", "kfda.build_matrices", _count_cross_bytes)
        wrap(kfda, "kernel_matrix", "kfda.kernel_matrix")
        wrap(kfda, "solve_alpha", "kfda.solve_alpha", _count_matvecs)
        wrap(kfda.KfdaMatrices, "penalty_matvec", "kfda.penalty_matvec")
        wrap(kfda, "nearest_prototype_sides", "kfda.nearest_prototype_sides",
             _count_knn_pairs)
        wrap(kfda, "classify_outliers_mahalanobis", "kfda.classify_outliers_mahalanobis")
        for owner in (kfda, ssim):
            wrap(owner, "mssim", "ssim.mssim")
            wrap(owner, "classified_mean_image", "ssim.classified_mean_image")
        wrap(stitch, "stitch_volume", "stitch.stitch_volume")
        wrap(stitch, "simulated_anneal", "stitch.simulated_anneal", _count_proposals)
        self.count_calls(stitch, "StitchProblem", "stitch.strips_total")
        logging.getLogger(stitch.__name__).addHandler(_RepairCounter(self.counters))

    def dump(self, path: Path):
        """Write the spans as [name, start, end, parent] rows, times from 0."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [[s.name, s.start - t0, s.end - t0, s.parent] for s in self.spans]
        path.write_text(json.dumps(rows))


def _count_leaves(counters, args, kwargs, tree):
    sizes = [leaf.voxel_count for leaf in tree.leaf_nodes()]
    counters["partition.leaves"] += len(sizes)
    counters["partition.largest_leaf_frac"] = max(sizes) / sum(sizes)


def _count_cross_bytes(counters, args, kwargs, mats):
    counters["kfda.cross_bytes"] = max(counters["kfda.cross_bytes"], mats.cross.nbytes)


def _count_matvecs(counters, args, kwargs, model):
    counters["kfda.matvecs"] += model.iterations


def _count_knn_pairs(counters, args, kwargs, sides):
    queries, prototypes = args[1], args[2]
    counters["kfda.knn_pairs"] += len(queries) * len(prototypes)


def _count_proposals(counters, args, kwargs, fused):
    from kfdaseg.stitch import AnnealSchedule

    problem = args[0]
    sched = (args[1] if len(args) > 1 else kwargs.get("sched")) or AnnealSchedule()
    h, w = problem.shape
    counters["stitch.anneal_proposals"] += sched.n_temperatures * sched.sweeps * h * w


# ---------------------------------------------------------------------------
# Deriving the per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _stage_roots(spans: list[Span]) -> list[int]:
    """For every span, the index of its ancestor directly below the root span.

    Parents are recorded before their children, so one forward pass works.
    """
    top = []
    for i, s in enumerate(spans):
        if s.parent < 0 or spans[s.parent].parent < 0:
            top.append(i)
        else:
            top.append(top[s.parent])
    return top


def _route_counts(out_dir: Path) -> tuple[int, int, int]:
    """(decisions, k-NN routes, prototype fallbacks) over every λ of every step."""
    decisions = knn = fallbacks = 0
    for diag in json.loads((out_dir / "subdomains.json").read_text()):
        for step in diag["steps"].values():
            for entry in step.get("sweep", []):
                if "route" in entry:
                    decisions += 1
                    knn += entry["route"] == "knn"
                if entry.get("fallback") == "prototypes":
                    fallbacks += 1
    return decisions, knn, fallbacks


def layer_metrics(tracer: Tracer, timing: dict, out_dir: Path) -> dict:
    """Per-layer numbers of one traced run, keyed by metric name."""
    spans = tracer.spans
    own = self_times(spans)
    top = _stage_roots(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def self_s(name, parent=None):
        return sum(own[i] for i in by_name.get(name, [])
                   if parent is None or spans[spans[i].parent].name == parent)

    def calls(name):
        return len(by_name.get(name, []))

    def accounted(stage_span, layers):
        return sum(own[i] for i, s in enumerate(spans)
                   if spans[top[i]].name == stage_span
                   and s.name.split(".")[0] in layers)

    (root,) = by_name[ROOT_SPAN]
    (stitched,) = by_name["stitch.stitch_volume"]
    (emitted,) = by_name["pipeline.emit_report"]
    window_start, window_end = spans[stitched].end, spans[emitted].start
    report_self = (window_end - window_start) - sum(
        s.end - s.start for s in spans
        if s.parent == root and s.start >= window_start and s.end <= window_end)

    c = tracer.counters
    decisions, knn_routes, fallbacks = _route_counts(out_dir)
    strips = c["stitch.strips_total"]
    metrics = {
        "stitch.anneal_s": self_s("stitch.simulated_anneal"),
        "stitch.anneal_proposals": c["stitch.anneal_proposals"],
        "stitch.strips_total": strips,
        "stitch.strips_annealed": calls("stitch.simulated_anneal"),
        "stitch.annealed_frac": calls("stitch.simulated_anneal") / strips if strips else 0.0,
        "stitch.stitch_volume_s": self_s("stitch.stitch_volume"),
        "stitch.repaired_voxels": c["stitch.repaired_voxels"],
        "kfda.solve_alpha_s": self_s("kfda.solve_alpha"),
        "kfda.solve_alpha_calls": calls("kfda.solve_alpha"),
        "kfda.matvecs": c["kfda.matvecs"],
        "kfda.penalty_matvec_s": self_s("kfda.penalty_matvec"),
        "kfda.penalty_matvec_calls": calls("kfda.penalty_matvec"),
        "kfda.solve_failures": c["kfda.solve_alpha.errors"],
        "kfda.build_matrices_s": self_s("kfda.build_matrices"),
        "kfda.kernel_matrix_s": self_s("kfda.kernel_matrix"),
        "kfda.knn_kernel_s": self_s("kfda.kernel_matrix", parent="kfda.nearest_prototype_sides"),
        "kfda.cross_bytes": c["kfda.cross_bytes"],
        "kfda.knn_s": self_s("kfda.nearest_prototype_sides"),
        "kfda.knn_pairs": c["kfda.knn_pairs"],
        "kfda.mahalanobis_s": self_s("kfda.classify_outliers_mahalanobis"),
        "ssim.mssim_s": self_s("ssim.mssim"),
        "ssim.mssim_calls": calls("ssim.mssim"),
        "ssim.mean_image_s": self_s("ssim.classified_mean_image"),
        "kfda.classify_subdomain_s": self_s("kfda.classify_subdomain"),
        "kfda.prototype_fallbacks": fallbacks,
        "kfda.knn_route_frac": knn_routes / decisions if decisions else 0.0,
        "partition.partition_s": self_s("partition.partition"),
        "partition.leaves": c["partition.leaves"],
        "partition.largest_leaf_frac": c["partition.largest_leaf_frac"],
        "volume.load_s": self_s("volume.load_volume") + self_s("volume.load_labels"),
        "volume.normalize_s": self_s("volume.normalize_intensities"),
        "pipeline.report_s": report_self,
        "pipeline.emit_s": self_s("pipeline.emit_report"),
        "pipeline.self_s": own[root],
        "trace.spans": len(spans),
        "trace.classify_accounted_s": accounted("kfda.classify_subdomain", ("kfda", "ssim")),
        "trace.stitch_accounted_s": accounted("stitch.stitch_volume", ("stitch",)),
        "trace.min_self_s": min(own),
    }
    for stage in STAGES:
        metrics[f"pipeline.stage.{stage}_s"] = timing[stage]
    return metrics


def reconciliation_errors(metrics: dict) -> list[str]:
    """Where the traced self times fail to account for a stage's wall time.

    The `kfda` and `ssim` self times under the classify stage, and the
    `stitch` self times under the stitch stage, must each match the stage
    time in `report.timing` within 5% of it (at least 5 ms); no span may
    have a negative self time.
    """
    errors = []
    for stage in ("classify", "stitch"):
        stage_s = metrics[f"pipeline.stage.{stage}_s"]
        traced_s = metrics[f"trace.{stage}_accounted_s"]
        if abs(stage_s - traced_s) > max(0.05 * stage_s, 0.005):
            errors.append(f"{stage}: spans account for {traced_s:.4f} s of "
                          f"{stage_s:.4f} s")
    if metrics["trace.min_self_s"] < -1e-6:
        errors.append(f"negative self time {metrics['trace.min_self_s']:.6f} s")
    return errors
