"""Training-resource optimization: time allocation, pilot count, joint design.

The closed-form SNR approximation is concave in the training time and convex
in the integer-relaxed pilot count, so the optimal time allocation is an
interior stationary point found by bisection on the analytic derivative, and
the optimal pilot count sits at a corner (1 or N) picked by comparing the
training-phase SNR against a threshold depending only on the array size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import ParamGrid, SystemParams
from .estimators import LMMSE, LS
from .snr import _ce_snr, _pilot_counts, _shape_coefficients, snr_approx_grid

CORNER_K1 = "CORNER_K1"
CORNER_KN = "CORNER_KN"


@dataclass(frozen=True)
class OptimizationOutcome:
    """Chosen training design plus the SNR it predicts."""

    tau_c_opt: float
    k_opt: int
    predicted_snr: float
    estimator_choice: str        # LS or LMMSE

    @property
    def decision_path(self) -> str:
        """The pilot-count corner of ``k_opt``: CORNER_K1 or CORNER_KN."""
        return CORNER_K1 if self.k_opt == 1 else CORNER_KN


def _snr_approx_slope(p: SystemParams, beta_sq, n, pilot_count, tau_c):
    """d(approximate SNR)/d(tau_c), up to a positive factor.

    With rho = 1 + q / tau_c, q = N0 K / (beta^2 a0^2 p_t), and
    F(rho) = A/rho + B/sqrt(rho) + 2:

        d/dtau_c [(tau - tau_c) F(rho)] =
            -F(rho) + (tau - tau_c) (q / tau_c^2) (A/rho^2 + B/(2 rho^1.5))

    Every operation on a per-point input is +, -, *, / or sqrt, which IEEE
    754 rounds correctly, so Python floats and numpy arrays give the same
    bits.
    """
    a, b = _shape_coefficients(n)
    q = p.noise_var * pilot_count / (beta_sq * p.tag_amp_ce ** 2 * p.tx_power)
    rho = 1.0 + q / tau_c
    root = np.sqrt(rho)
    f = a / rho + b / root + 2.0
    df = a / (rho * rho) + b / (2.0 * (rho * root))
    return -f + (p.coherence_time - tau_c) * (q / (tau_c * tau_c)) * df


def optimal_ta(pilot_count: int, params: SystemParams) -> float:
    """Training time maximizing the approximate SNR for a given pilot count.

    The SNR vanishes at both ends of (0, tau) and is concave in between, so
    its derivative changes sign exactly once; plain bisection on the sign
    converges to the interior maximizer.  This is :func:`optimal_ta_grid`
    at one point.
    """
    return float(optimal_ta_grid(pilot_count, ParamGrid.at(params))[0])


def optimal_ta_grid(pilot_count, grid: ParamGrid) -> np.ndarray:
    """:func:`optimal_ta` at every point of ``grid``.

    ``pilot_count`` is one count for every point or one per point.  Every
    point bisects on its own bracket, from (1e-12, 1 - 1e-12) tau down to a
    width of 1e-9 tau, all points in one array pass; a point drops out when
    its bracket is narrow enough.  Each point's steps depend on that point
    alone, so a point bisects to the same bits in any grid.
    """
    p, n = grid.params, grid.n_antennas
    k = _pilot_counts(pilot_count, n)
    tau = p.coherence_time

    def derivative(tau_c: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return _snr_approx_slope(p, grid.beta_sq[idx], n[idx], k[idx], tau_c)

    lo = np.full(n.shape, 1e-12 * tau)
    hi = np.full(n.shape, (1.0 - 1e-12) * tau)
    every = np.arange(n.size)
    interior = ~(derivative(lo, every) <= 0)
    live = every[interior & (hi - lo > 1e-9 * tau)]
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        up = derivative(mid, live) > 0
        lo[live[up]] = mid[up]
        hi[live[~up]] = mid[~up]
        live = live[hi[live] - lo[live] > 1e-9 * tau]
    return np.where(interior, 0.5 * (lo + hi), lo)


def _snr_threshold(n):
    return (n - 1) ** 2 / (8.0 * (n + 1))


def snr_threshold(n_antennas: int) -> float:
    """Pilot-count decision threshold (N - 1)^2 / (8 (N + 1)); increasing in N."""
    if n_antennas < 2:
        raise ValueError(f"threshold needs n_antennas >= 2, got {n_antennas}")
    return _snr_threshold(n_antennas)


def _pilot_corner(n, gamma_e):
    """The corner rule: 1 where N = 1 or gamma_e is at or below the threshold,
    else N.  Scalars are taken as numpy values, for which ``~`` is a logical not."""
    n, gamma_e = np.asarray(n), np.asarray(gamma_e)
    return np.where((n > 1) & ~(gamma_e <= _snr_threshold(n)), n, 1)


def optimal_pc(ce_energy: float, params: SystemParams) -> int:
    """Corner rule for the pilot count at a given training energy.

    One pilot when the training-phase SNR beta^2 a0^2 E_c / N0 is at or
    below the threshold, otherwise all N antennas.  Few high-quality
    observations beat many low-quality ones until the link is good enough.
    """
    if ce_energy <= 0:
        raise ValueError(f"ce_energy must be positive, got {ce_energy}")
    gamma_e = params.beta ** 2 * params.tag_amp_ce ** 2 * ce_energy / params.noise_var
    return int(_pilot_corner(params.n_antennas, gamma_e))


def joint_optimize(params: SystemParams) -> OptimizationOutcome:
    """Jointly chosen training time and pilot count.

    Evaluates the single-pilot optimal time first; the training SNR it
    affords decides the pilot-count corner, and the time allocation is then
    re-optimized at that corner.  This is :func:`joint_optimize_grid` at one
    point.
    """
    tau_c, k, snr = joint_optimize_grid(ParamGrid.at(params))
    return OptimizationOutcome(
        tau_c_opt=float(tau_c[0]),
        k_opt=int(k[0]),
        predicted_snr=float(snr[0]),
        estimator_choice=LS,
    )


def joint_optimize_grid(grid: ParamGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`joint_optimize` at every point of ``grid``.

    Returns the arrays (tau_c_opt, k_opt, predicted_snr).
    """
    p, n = grid.params, grid.n_antennas
    tau_c = optimal_ta_grid(1, grid)
    gamma_e1 = _ce_snr(p, grid.beta_sq, tau_c)
    k = _pilot_corner(n, gamma_e1)
    pick_n = k > 1
    if pick_n.any():
        tau_c[pick_n] = optimal_ta_grid(n[pick_n], grid.take(pick_n))
    return tau_c, k, snr_approx_grid(tau_c, k, grid)


def decide(params: SystemParams, has_prior_stats: bool) -> OptimizationOutcome:
    """Full design decision: joint (tau_c, K) plus the estimator to run.

    The LMMSE front end needs the channel's second-order statistics (beta
    and the noise level); whether those are known is a caller fact, so it
    arrives as a flag rather than being inferred.  LMMSE is chosen whenever
    they are, which is the default, although it can lose on the recovered
    vector.  At N = 20 its matrix MSE is below LS's everywhere (ratio
    0.005-0.77), yet for K in {10, 20} its vector MSE is 1.75-2.08 times
    LS's at +10 dB training SNR and 1.28-1.32 times at +20 dB, and its
    mid-K received power is 1.4-3.9% lower at +5 and +10 dB.
    """
    return replace(joint_optimize(params),
                   estimator_choice=LMMSE if has_prior_stats else LS)

