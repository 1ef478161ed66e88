"""Training-resource optimization: time allocation, pilot count, joint design.

The closed-form SNR approximation is concave in the training time and convex
in the integer-relaxed pilot count, so the optimal time allocation is an
interior stationary point found by bisection on the analytic derivative, and
the optimal pilot count sits at a corner (1 or N) picked by comparing the
training-phase SNR against a threshold depending only on the array size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import SystemParams
from .estimators import LMMSE, LS
from .snr import snr_approx

CORNER_K1 = "CORNER_K1"
CORNER_KN = "CORNER_KN"


@dataclass(frozen=True)
class OptimizationOutcome:
    """Chosen training design plus the SNR it predicts."""

    tau_c_opt: float
    k_opt: int
    predicted_snr: float
    decision_path: str           # CORNER_K1 or CORNER_KN
    estimator_choice: str        # LS or LMMSE


def _snr_approx_derivative(tau_c: float, pilot_count: int,
                           params: SystemParams) -> float:
    """d(approximate SNR)/d(tau_c), up to a positive constant factor.

    With rho = 1 + q / tau_c, q = N0 K / (beta^2 a0^2 p_t), and
    F(rho) = A/rho + B/sqrt(rho) + 2:

        d/dtau_c [(tau - tau_c) F(rho)] =
            -F(rho) + (tau - tau_c) (q / tau_c^2) (A/rho^2 + B/(2 rho^1.5))
    """
    n = params.n_antennas
    a = (n - 1) * (n - 2)
    b = 4.0 * (n - 1)
    q = (params.noise_var * pilot_count
         / (params.beta ** 2 * params.tag_amp_ce ** 2 * params.tx_power))
    rho = 1.0 + q / tau_c
    f = a / rho + b / math.sqrt(rho) + 2.0
    df = a / rho ** 2 + b / (2.0 * rho ** 1.5)
    return -f + (params.coherence_time - tau_c) * (q / tau_c ** 2) * df


def optimal_ta(pilot_count: int, params: SystemParams,
               rel_tol: float = 1e-9) -> float:
    """Training time maximizing the approximate SNR for a given pilot count.

    The SNR vanishes at both ends of (0, tau) and is concave in between, so
    its derivative changes sign exactly once; plain bisection on the sign
    converges to the interior maximizer.
    """
    if not 1 <= pilot_count <= params.n_antennas:
        raise ValueError(
            f"pilot_count={pilot_count} outside [1, {params.n_antennas}]")
    tau = params.coherence_time
    lo, hi = 1e-12 * tau, (1.0 - 1e-12) * tau
    if _snr_approx_derivative(lo, pilot_count, params) <= 0:
        return lo
    while hi - lo > rel_tol * tau:
        mid = 0.5 * (lo + hi)
        if _snr_approx_derivative(mid, pilot_count, params) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def snr_threshold(n_antennas: int) -> float:
    """Pilot-count decision threshold (N - 1)^2 / (8 (N + 1)); increasing in N."""
    if n_antennas < 2:
        raise ValueError(f"threshold needs n_antennas >= 2, got {n_antennas}")
    return (n_antennas - 1) ** 2 / (8.0 * (n_antennas + 1))


def optimal_pc(ce_energy: float, params: SystemParams) -> int:
    """Corner rule for the pilot count at a given training energy.

    One pilot when the training-phase SNR beta^2 a0^2 E_c / N0 is at or
    below the threshold, otherwise all N antennas.  Few high-quality
    observations beat many low-quality ones until the link is good enough.
    """
    if ce_energy <= 0:
        raise ValueError(f"ce_energy must be positive, got {ce_energy}")
    n = params.n_antennas
    if n == 1:
        return 1
    gamma_e = params.beta ** 2 * params.tag_amp_ce ** 2 * ce_energy / params.noise_var
    return 1 if gamma_e <= snr_threshold(n) else n


def joint_optimize(params: SystemParams) -> OptimizationOutcome:
    """Jointly chosen training time and pilot count.

    Evaluates the single-pilot optimal time first; the training SNR it
    affords decides the pilot-count corner, and the time allocation is then
    re-optimized at that corner.
    """
    n = params.n_antennas
    tau_c1 = optimal_ta(1, params)
    if n == 1:
        k_opt, tau_c_opt = 1, tau_c1
    else:
        gamma_e1 = (params.beta ** 2 * params.tag_amp_ce ** 2
                    * params.tx_power * tau_c1 / params.noise_var)
        if gamma_e1 <= snr_threshold(n):
            k_opt, tau_c_opt = 1, tau_c1
        else:
            k_opt, tau_c_opt = n, optimal_ta(n, params)
    predicted = snr_approx(tau_c_opt, k_opt, params).value_linear
    return OptimizationOutcome(
        tau_c_opt=tau_c_opt,
        k_opt=k_opt,
        predicted_snr=predicted,
        decision_path=CORNER_K1 if k_opt == 1 else CORNER_KN,
        estimator_choice=LS,
    )


def decide(params: SystemParams, has_prior_stats: bool) -> OptimizationOutcome:
    """Full design decision: joint (tau_c, K) plus the estimator to run.

    The LMMSE front end needs the channel's second-order statistics (beta
    and the noise level); whether those are known is a caller fact, so it
    arrives as a flag rather than being inferred.
    """
    outcome = joint_optimize(params)
    return OptimizationOutcome(
        tau_c_opt=outcome.tau_c_opt,
        k_opt=outcome.k_opt,
        predicted_snr=outcome.predicted_snr,
        decision_path=outcome.decision_path,
        estimator_choice=LMMSE if has_prior_stats else LS,
    )


def ce_snr_at_k1_optimum(params: SystemParams) -> float:
    """Training SNR at the single-pilot optimal time; the joint-rule pivot."""
    tau_c1 = optimal_ta(1, params)
    return (params.beta ** 2 * params.tag_amp_ce ** 2
            * params.tx_power * tau_c1 / params.noise_var)

