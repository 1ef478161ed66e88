"""Channel estimation and training-resource optimization for a full-duplex
multi-antenna backscatter reader, plus a seeded Monte Carlo study harness."""

from .channel import (
    ChannelRealization,
    PilotConfig,
    ReceivedSignal,
    SystemParams,
    backscatter,
    build_pilots,
    draw_channel,
    path_loss_beta,
    quantize_ce_time,
)
from .estimators import (
    LMMSE,
    LS,
    MatrixEstimate,
    VectorEstimate,
    lmmse_matrix,
    ls_matrix,
    mrc_combiner,
    mrt_precoder,
    vector_estimate,
)
from .optimizer import (
    OptimizationOutcome,
    decide,
    joint_optimize,
    optimal_pc,
    optimal_ta,
    snr_threshold,
)
from .snr import (
    McEstimate,
    RicianMoments,
    approx_moments,
    ce_snr,
    mc_metrics,
    snr_approx,
    snr_isotropic,
    snr_perfect_csi,
)
from .transforms import RealifiedSystem, build_realified, phi, sym

__version__ = "0.1.0"

__all__ = [
    "ChannelRealization",
    "LMMSE",
    "LS",
    "MatrixEstimate",
    "McEstimate",
    "OptimizationOutcome",
    "PilotConfig",
    "RealifiedSystem",
    "ReceivedSignal",
    "RicianMoments",
    "SystemParams",
    "VectorEstimate",
    "approx_moments",
    "backscatter",
    "build_pilots",
    "build_realified",
    "ce_snr",
    "decide",
    "draw_channel",
    "joint_optimize",
    "lmmse_matrix",
    "ls_matrix",
    "mc_metrics",
    "mrc_combiner",
    "mrt_precoder",
    "optimal_pc",
    "optimal_ta",
    "path_loss_beta",
    "phi",
    "quantize_ce_time",
    "snr_approx",
    "snr_isotropic",
    "snr_perfect_csi",
    "snr_threshold",
    "sym",
    "vector_estimate",
    "__version__",
]
