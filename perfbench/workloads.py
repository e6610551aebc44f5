"""The benchmark's workloads: each turns a seed into pipeline input files.

Every workload is a shell phantom with partial-volume blur 1.0, an initial
labeling and a pipeline config, written the way `kfdaseg phantom`/`init`
and a config file would be, so the worker runs exactly what `kfdaseg run`
runs. The seed drives the random streams that leave the workload's shape
alone: which boundary voxels the corruption flips (where the init is
corrupted k-means) and the pipeline seed (training subsample and annealing
streams). The phantom's noise realisation is fixed per workload because the
MI partition, and with it the number of seams, depends on it chaotically:
on the 24³ `seams` recipe, phantom seeds 11-15 gave 2 to 7 leaves, 15 to
192 overlap strips and run times from 3 s to 18 s. Seed 0 reproduces the
recipes as written below. Sizes and the short annealing schedule
(`sa_sweeps=5`) keep one pipeline run at 3-5 s, so that a benchmark run
can repeat it on several input sets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

VOLUME = "inputs/phantom.f32raw"
INIT = "inputs/init.u8raw"
TRUTH = "inputs/truth.u8raw"
OUT = "out"
CONFIG = "config.json"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: int                    # phantom edge length (a cube)
    noise: float
    bias: float
    phantom_seed: int
    init: str                    # "corrupted-kmeans" | "underestimated-csf"
    pipeline: dict = field(default_factory=dict)
    # False: every seed gets input sets 0, 1, 2 (see csf-growth below)
    seeded: bool = True

    def make_inputs(self, seed: int, input_dir: Path) -> int:
        """Write phantom, init, truth and config.json; return masked voxel count.

        Paths inside config.json are relative to `input_dir`, where the
        worker runs.
        """
        from kfdaseg import phantom, volume

        spec = phantom.PhantomSpec(dims=(self.size,) * 3, noise_sigma=self.noise,
                                   bias_amplitude=self.bias, pv_blur=1.0,
                                   seed=self.phantom_seed)
        vol, truth = phantom.generate_phantom(spec)
        if self.init == "corrupted-kmeans":
            init = phantom.corrupt_boundary_labels(
                phantom.kmeans_init(vol, seed=0), vol.mask, fraction=0.20,
                seed=1 + seed)
        else:
            init = phantom.underestimate_csf(truth, fraction=0.40)
        volume.save_volume(vol, input_dir / VOLUME)
        volume.save_labels(init, input_dir / INIT)
        volume.save_labels(truth, input_dir / TRUTH)
        config = dict(self.pipeline, volume=VOLUME, init_labels=INIT,
                      ground_truth=TRUTH, out_dir=OUT, workers=1,
                      seed=self.pipeline["seed"] + seed)
        (input_dir / CONFIG).write_text(json.dumps(config, sort_keys=True, indent=1))
        return int(vol.mask.sum())


WORKLOADS = {w.name: w for w in (
    Workload(
        name="seams",
        why="corrupted k-means init on 4 leaves: annealing the disagreeing "
            "overlap strips is most of the run, so a stitch-solver change shows here",
        size=26, noise=0.05, bias=0.10, phantom_seed=11, init="corrupted-kmeans",
        pipeline={"seed": 5, "l_max": 400, "lambda_grid": [0.0, 5e-5],
                  "k_grid": [1, 3, 5], "sa_sweeps": 5}),
    Workload(
        name="global",
        why="one subdomain, no seams: eigen solves, MSSIM scoring and k-NN are "
            "the whole run, and a stitch change must read as no change",
        size=24, noise=0.05, bias=0.10, phantom_seed=11, init="corrupted-kmeans",
        pipeline={"seed": 5, "max_depth": 0, "l_max": 1500}),
    Workload(
        name="csf-growth",
        why="criterion-8 recipe: CSF eroded by 40% biases labels systematically, "
            "so a CSF-recovery fix shows as dice_csf",
        size=24, noise=0.04, bias=0.08, phantom_seed=12, init="underestimated-csf",
        pipeline={"seed": 6, "l_max": 400, "lambda_grid": [0.0, 5e-5],
                  "k_grid": [1, 3, 5], "sa_sweeps": 5},
        # the eroded init is deterministic, and the pipeline seed alone moves
        # dice_csf by up to a factor of two (0.11 to 0.21 over nine seeds at
        # 26³), more than any bound absorbs: every run averages seeds 6-8
        seeded=False),
)}
