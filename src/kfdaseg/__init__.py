"""Local semi-supervised volumetric tissue classification.

Pipeline stages: MI-optimal brain partitioning, spatially regularized
kernel Fisher discriminant classification per subdomain with MSSIM-guided
model selection, and fusion of the overlapping subdomain labelings into one
classified volume by the maximum-posterior labeling of each overlap strip,
computed in closed form (`exact_map`: one observation per connected
component of disagreeing cells), or, for strips more than 14 cells wide,
estimated by the published simulated annealing (`simulated_anneal`).
"""

from .volume import (
    LabelVolume,
    MultiChannelVolume,
    VolumeFormatError,
    load_volume,
    normalize_intensities,
)
from .partition import PartitionTree, partition
from .kfda import KernelSpec, classify_subdomain
from .stitch import (
    AnnealSchedule,
    ClassifiedFragment,
    StitchProblem,
    exact_map,
    simulated_anneal,
    stitch_volume,
)
from .phantom import PhantomSpec, generate_phantom, kmeans_init
from .pipeline import PipelineConfig, PipelineStageError, RunReport, run_pipeline

__version__ = "0.1.0"
