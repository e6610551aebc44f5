"""Local semi-supervised volumetric tissue classification.

Pipeline stages: MI-optimal brain partitioning, spatially regularized
kernel Fisher discriminant classification per subdomain with MSSIM-guided
model selection, and fusion of the overlapping subdomain labelings into one
classified volume by the maximum-posterior labeling of each overlap strip,
computed exactly by dynamic programming (`exact_map`), or, for strips too
wide for it, estimated by the published simulated annealing
(`simulated_anneal`).
"""

from .volume import (
    ALL_LABELS,
    BG,
    CSF,
    GM,
    TISSUE_LABELS,
    WM,
    LabelVolume,
    MultiChannelVolume,
    VolumeFormatError,
    check_mask_consistency,
    load_labels,
    load_volume,
    normalize_intensities,
    save_labels,
    save_volume,
)
from .partition import (
    Histogram2,
    PartitionConfig,
    PartitionTree,
    SlabClustering,
    Subdomain,
    best_cut,
    histogram_2bin,
    mutual_information,
    noise_sigma,
    normalize_snr_curve,
    partition,
    snr,
)
from .ssim import (
    PatchStats,
    SsimConstants,
    classified_mean_image,
    gaussian_window,
    mssim,
    patch_stats,
    ssim_patch,
)
from .kfda import (
    ConvergenceError,
    KernelSpec,
    KfdaConfig,
    KfdaMatrices,
    KfdaModel,
    SubdomainData,
    TrainingSet,
    VoxelCategories,
    build_matrices,
    categorize,
    classify_outliers_mahalanobis,
    classify_subdomain,
    kernel_matrix,
    neighborhood_matrix,
    project,
    solve_alpha,
    ssim_guided_decision,
)
from .stitch import (
    AnnealSchedule,
    ClassifiedFragment,
    PotentialTables,
    SliceSubimage,
    StitchProblem,
    build_potentials,
    exact_map,
    log_posterior,
    simulated_anneal,
    stitch_slice,
    stitch_volume,
)
from .phantom import (
    PhantomSpec,
    corrupt_boundary_labels,
    generate_phantom,
    kmeans_init,
    underestimate_csf,
)
from .pipeline import (
    PipelineConfig,
    PipelineStageError,
    RunReport,
    dice_scores,
    emit_report,
    run_pipeline,
)

__version__ = "0.1.0"
