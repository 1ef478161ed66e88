"""Channel estimation and training-resource optimization for a full-duplex
multi-antenna backscatter reader, plus a seeded Monte Carlo study harness.

The public names load on first use (PEP 562), so ``import bsc_estim`` and
``import bsc_estim.cli`` do not import numpy: the CLI can still choose the
BLAS thread count that OpenBLAS reads when numpy loads it.
"""

import importlib

__version__ = "0.1.0"

# A trial's dense problems are tiny (a K x K Hermitian eigh at K = 1 and
# K = N, a 2K x 2K real eigh and 2N x 2N solves for 1 < K < N): threaded
# BLAS only spins on them, so every process that runs trials uses this many
# threads.  It lives here, free of numpy, because the CLI writes it to
# OPENBLAS_NUM_THREADS before numpy loads; snr pins it per call for library
# callers that loaded numpy first.
KERNEL_BLAS_THREADS = 1

# public name -> defining submodule
_EXPORTS = {
    **dict.fromkeys((
        "ChannelRealization", "PilotConfig", "ReceivedSignal", "SystemParams",
        "backscatter", "build_pilots", "draw_channel", "path_loss_beta",
        "quantize_ce_time"), "channel"),
    **dict.fromkeys((
        "LMMSE", "LS", "MatrixEstimate", "VectorEstimate", "lmmse_matrix",
        "ls_matrix", "vector_estimate"), "estimators"),
    **dict.fromkeys((
        "OptimizationOutcome", "decide", "joint_optimize", "optimal_pc",
        "optimal_ta", "snr_threshold"), "optimizer"),
    **dict.fromkeys((
        "McEstimate", "RicianMoments", "approx_moments", "ce_snr", "mc_metrics",
        "snr_approx", "snr_isotropic", "snr_perfect_csi"), "snr"),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    # AttributeError for anything else, so ``from bsc_estim import snr`` falls
    # through to importing the submodule
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
