"""The inputs and settings of acceptance criteria 7-9, built in one place.

`tests/test_acceptance.py` runs these configs, `tools/gate.py` fingerprints
their outputs, and CI runs criterion 7's at the default l_max in a process
of its own; all three take them from here. Each builder returns a Recipe:
the phantom, its initial labels, the ground truth the run is scored
against (None where the criterion scores none) and the PipelineConfig
fields besides out_dir.
"""

from __future__ import annotations

from dataclasses import dataclass

from kfdaseg.phantom import (PhantomSpec, corrupt_boundary_labels, generate_phantom,
                             kmeans_init, underestimate_csf)
from kfdaseg.pipeline import PipelineConfig, RunReport, run_pipeline
from kfdaseg.volume import LabelVolume, MultiChannelVolume

# method constants stay at their published defaults; l_max is reduced from
# the 4000 default to meet the runtime bound on a single-core machine (the
# cap is a documented config field)
ACCEPT_L_MAX = 2000


@dataclass(frozen=True)
class Recipe:
    """One pipeline run's in-memory inputs and config fields."""

    vol: MultiChannelVolume
    init: LabelVolume
    truth: LabelVolume | None
    settings: dict              # PipelineConfig fields besides out_dir

    def run(self, out_dir, **overrides) -> RunReport:
        """run_pipeline on the recipe, writing under out_dir, with overrides
        in place of the recipe's own config fields."""
        cfg = PipelineConfig(out_dir=str(out_dir), **{**self.settings, **overrides})
        return run_pipeline(cfg, vol=self.vol, init_labels=self.init, ground_truth=self.truth)


def criterion_7() -> Recipe:
    """End-to-end recovery: a 64³ phantom from corrupted k-means labels."""
    vol, truth = generate_phantom(PhantomSpec(dims=(64, 64, 64), noise_sigma=0.05,
                                              bias_amplitude=0.10, pv_blur=1.0, seed=11))
    init = corrupt_boundary_labels(kmeans_init(vol, seed=0), vol.mask, fraction=0.20, seed=1)
    return Recipe(vol, init, truth, {"seed": 5, "l_max": ACCEPT_L_MAX})


def criterion_8() -> Recipe:
    """CSF growth: a 48³ phantom from its truth with 40% of the CSF eroded."""
    vol, truth = generate_phantom(PhantomSpec(dims=(48, 48, 48), noise_sigma=0.04,
                                              bias_amplitude=0.08, pv_blur=1.0, seed=12))
    init = underestimate_csf(truth, fraction=0.40)
    return Recipe(vol, init, truth, {"seed": 6, "l_max": ACCEPT_L_MAX})


def criterion_9() -> Recipe:
    """Determinism: a 28³ phantom from k-means labels on short grids, its
    truth unscored."""
    vol, _ = generate_phantom(PhantomSpec(dims=(28, 28, 28), noise_sigma=0.04,
                                          bias_amplitude=0.08, pv_blur=1.0, seed=13))
    return Recipe(vol, kmeans_init(vol, seed=2), None,
                  {"seed": 7, "l_max": 800, "max_depth": 3, "lambda_grid": (0.0, 0.00005),
                   "k_grid": (1, 3)})
