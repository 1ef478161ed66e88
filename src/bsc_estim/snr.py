"""SNR and power figures of merit, closed-form and Monte Carlo.

Closed forms: the decoding-phase SNR under perfect channel knowledge, under
isotropic (no-estimate) transmission, and the Rician-moment approximation of
the SNR achieved with the estimated beamformers.  Monte Carlo counterparts
run the full pilot -> estimate -> beamform chain over seeded fading draws.

Every Monte Carlo routine is deterministic given its seed: trial t derives
its channel and noise streams from the seed tuples (seed, t, 0) and
(seed, t, 1), and reductions use exact compensated summation, so results do
not depend on chunking or worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import PilotConfig, SystemParams, backscatter, build_pilots, draw_channel
from .estimators import (
    LMMSE,
    LS,
    MatrixEstimate,
    _pilot_energy,
    lmmse_matrix,
    ls_matrix,
    vector_estimate,
)


def _to_db(value: float) -> float:
    return 10.0 * math.log10(value) if value > 0 else -math.inf


@dataclass(frozen=True)
class SnrReport:
    """A dimensionless SNR with its dB form and Monte Carlo uncertainty."""

    value_linear: float
    value_db: float
    trials: int = 0
    std_error: float = 0.0


def _report(value: float, trials: int = 0, std_error: float = 0.0) -> SnrReport:
    return SnrReport(value_linear=value, value_db=_to_db(value),
                     trials=trials, std_error=std_error)


@dataclass(frozen=True)
class RicianMoments:
    """Conditional mean and variance of the beam-aligned channel projection."""

    mu: float
    sigma2: float
    flavor: str


@dataclass(frozen=True)
class ReceivedPowerReport:
    """Monte Carlo received power at the tag plus its analytic benchmarks."""

    p_r: float                   # watts, measured with the estimated beam
    p_r_perfect: float           # N * p_t * beta
    p_r_isotropic: float         # p_t * beta
    std_error: float
    trials: int


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    trials: int


def effective_snr_sample(h_hat: np.ndarray, h: np.ndarray, params: SystemParams,
                         tau_c: float) -> float:
    """One-draw decoding SNR ((tau - tau_c) p_t a_id^2 / N0) |h_hat^H h|^4 / ||h_hat||^4."""
    if tau_c >= params.coherence_time:
        return 0.0
    norm = np.linalg.norm(h_hat)
    if norm == 0:
        raise ValueError("h_hat must be nonzero; degenerate draws score 0 upstream")
    gain = abs(np.vdot(h_hat, h)) / norm
    return ((params.coherence_time - tau_c) * params.tx_power
            * params.tag_amp_id ** 2 / params.noise_var) * gain ** 4


def ce_snr(cfg: PilotConfig, params: SystemParams) -> float:
    """Average backscattered SNR available to the training phase.

    beta**2 a0**2 E_c / N0 with E_c = p_t tau_c; independent of the pilot
    count, which only splits the same energy across antennas.
    """
    return (params.beta ** 2 * params.tag_amp_ce ** 2
            * params.tx_power * cfg.ce_time / params.noise_var)


def snr_perfect_csi(params: SystemParams) -> SnrReport:
    """Decoding SNR with a genie channel: tau p_t a_id^2 N(N+1) beta^2 / N0."""
    n = params.n_antennas
    value = (params.coherence_time * params.tx_power * params.tag_amp_id ** 2
             * n * (n + 1) * params.beta ** 2 / params.noise_var)
    return _report(value)


def snr_isotropic(params: SystemParams) -> SnrReport:
    """Decoding SNR of blind equal-weight transmission: 2 tau p_t a_id^2 beta^2 / N0."""
    value = (2.0 * params.coherence_time * params.tx_power
             * params.tag_amp_id ** 2 * params.beta ** 2 / params.noise_var)
    return _report(value)


def snr_approx(tau_c: float, pilot_count: int, params: SystemParams) -> SnrReport:
    """Closed-form approximation of the decoding SNR after estimated beamforming.

    With rho = 1 + N0 K / (beta^2 a0^2 p_t tau_c):

        (tau - tau_c) p_t a_id^2 beta^2 / N0
            * [ (N-1)(N-2)/rho + 4(N-1)/sqrt(rho) + 2 ]

    Identical for the LS and LMMSE front ends.  Concave in tau_c on
    (0, tau) and convex in the integer-relaxed pilot count.
    """
    n = params.n_antennas
    if not 0 < tau_c < params.coherence_time:
        raise ValueError(f"tau_c={tau_c} outside (0, {params.coherence_time})")
    if not 1 <= pilot_count <= n:
        raise ValueError(f"pilot_count={pilot_count} outside [1, {n}]")
    rho = 1.0 + (params.noise_var * pilot_count
                 / (params.beta ** 2 * params.tag_amp_ce ** 2
                    * params.tx_power * tau_c))
    shape = ((n - 1) * (n - 2) / rho + 4.0 * (n - 1) / math.sqrt(rho) + 2.0)
    value = ((params.coherence_time - tau_c) * params.tx_power
             * params.tag_amp_id ** 2 * params.beta ** 2 / params.noise_var) * shape
    return _report(value)


def approx_moments(flavor: str, cfg: PilotConfig, params: SystemParams,
                   h_hat_norm: float) -> RicianMoments:
    """Rician moments of the beam-aligned projection given an estimate norm.

    LS:    mu = sqrt(beta^2 E0 / (beta^2 E0 + N0)) * ||h_hat||,
           sigma2 = beta (1 - sqrt(beta^2 E0 / (beta^2 E0 + N0)))
    LMMSE: mu = ||h_hat||,
           sigma2 = beta - sqrt(beta^4 E0 / (beta^2 E0 + N0))
    """
    e0 = cfg.pilot_energy(params)
    beta, n0 = params.beta, params.noise_var
    ratio = beta ** 2 * e0 / (beta ** 2 * e0 + n0)
    if flavor == LS:
        return RicianMoments(mu=math.sqrt(ratio) * h_hat_norm,
                             sigma2=beta * (1.0 - math.sqrt(ratio)), flavor=LS)
    if flavor == LMMSE:
        return RicianMoments(mu=h_hat_norm,
                             sigma2=beta - math.sqrt(beta ** 2 * ratio), flavor=LMMSE)
    raise ValueError(f"unknown flavor {flavor!r}")


# ---------------------------------------------------------------------------
# Monte Carlo kernel

_BEAM2 = "beam2"        # |h_hat^H h|^2 / ||h_hat||^2
_BEAM4 = "beam4"        # |h_hat^H h|^4 / ||h_hat||^4
_MSE_VEC = "mse_vec"    # min(||h - h_hat||^2, ||h + h_hat||^2)
_MSE_MAT_LS = "mse_mat_ls"
_MSE_MAT_LMMSE = "mse_mat_lmmse"


def _trial_chunk(args) -> dict[str, list[float]]:
    (params, cfg, flavor, seed, t_lo, t_hi, metrics) = args
    k = cfg.pilot_count
    pilots = build_pilots(k, cfg.ce_time, params.tx_power)
    need_lmmse = flavor == LMMSE or _MSE_MAT_LMMSE in metrics
    # the E0 that ls_matrix divides by
    e0 = _pilot_energy(params.tag_amp_ce * pilots)
    vector_metrics = [m for m in metrics if m in (_BEAM2, _BEAM4, _MSE_VEC)]
    out: dict[str, list[float]] = {m: [] for m in metrics}
    for t in range(t_lo, t_hi):
        chan = draw_channel(params, (seed, t, 0), pilot_count=k)
        rx = backscatter(chan, pilots, params.tag_amp_ce, params.noise_var,
                         (seed, t, 1))
        est_ls = ls_matrix(rx, cfg)
        est_lmmse = (lmmse_matrix(est_ls, params.beta, e0, params.noise_var)
                     if need_lmmse else None)
        if _MSE_MAT_LS in metrics:
            out[_MSE_MAT_LS].append(
                float(np.linalg.norm(est_ls.h_hat_matrix - chan.cascaded) ** 2))
        if _MSE_MAT_LMMSE in metrics:
            out[_MSE_MAT_LMMSE].append(
                float(np.linalg.norm(est_lmmse.h_hat_matrix - chan.cascaded) ** 2))
        if not vector_metrics:
            continue
        vest = vector_estimate(est_lmmse if flavor == LMMSE else est_ls)
        beam = 0.0
        if not vest.degenerate:
            beam = float(abs(np.vdot(vest.h_hat, chan.h)) / np.linalg.norm(vest.h_hat))
        for m in vector_metrics:
            if m == _BEAM2:
                out[m].append(beam ** 2)
            elif m == _BEAM4:
                out[m].append(beam ** 4)
            else:
                out[m].append(float(min(np.linalg.norm(chan.h - vest.h_hat) ** 2,
                                        np.linalg.norm(chan.h + vest.h_hat) ** 2)))
    return out


def _mc_samples(params: SystemParams, cfg: PilotConfig, flavor: str, trials: int,
                seed: int, metrics: tuple[str, ...],
                workers: int = 1) -> dict[str, list[float]]:
    """Per-trial metric samples, identical for any worker count."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if flavor not in (LS, LMMSE):
        raise ValueError(f"unknown flavor {flavor!r}")
    cfg.validate_against(params)

    if workers <= 1 or trials < 4 * workers:
        return _trial_chunk((params, cfg, flavor, seed, 0, trials, metrics))

    bounds = np.linspace(0, trials, workers + 1, dtype=int)
    jobs = [(params, cfg, flavor, seed, int(lo), int(hi), metrics)
            for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    out: dict[str, list[float]] = {m: [] for m in metrics}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for chunk in pool.map(_trial_chunk, jobs):
            for m in metrics:
                out[m].extend(chunk[m])
    return out


def _mean_stderr(samples: list[float]) -> tuple[float, float]:
    n = len(samples)
    total = math.fsum(samples)
    mean = total / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((x - mean) ** 2 for x in samples) / (n - 1)
    return mean, math.sqrt(var / n)


def mc_effective_snr(params: SystemParams, cfg: PilotConfig, flavor: str,
                     trials: int, seed: int, workers: int = 1) -> SnrReport:
    """Monte Carlo decoding SNR with the estimated beamformers.

    Fresh channel and noise every trial; degenerate estimates contribute a
    literal zero beamforming gain rather than being dropped.
    """
    samples = _mc_samples(params, cfg, flavor, trials, seed, (_BEAM4,), workers)
    scale = ((params.coherence_time - cfg.ce_time) * params.tx_power
             * params.tag_amp_id ** 2 / params.noise_var)
    mean, stderr = _mean_stderr(samples[_BEAM4])
    return _report(scale * mean, trials=trials, std_error=scale * stderr)


def received_power_metrics(flavor: str, params: SystemParams, cfg: PilotConfig,
                           trials: int, seed: int, workers: int = 1) -> ReceivedPowerReport:
    """Average power delivered to the tag by the estimated beam, with benchmarks."""
    samples = _mc_samples(params, cfg, flavor, trials, seed, (_BEAM2,), workers)
    mean, stderr = _mean_stderr(samples[_BEAM2])
    return ReceivedPowerReport(
        p_r=params.tx_power * mean,
        p_r_perfect=params.n_antennas * params.tx_power * params.beta,
        p_r_isotropic=params.tx_power * params.beta,
        std_error=params.tx_power * stderr,
        trials=trials,
    )


def estimate_mse(flavor: str, params: SystemParams, cfg: PilotConfig,
                 trials: int, seed: int, workers: int = 1) -> McEstimate:
    """Sign-aligned vector MSE: E min(||h - h_hat||^2, ||h + h_hat||^2).

    The global sign of the estimate is unidentifiable, so the raw distance
    would be dominated by the arbitrary sign; alignment keeps the metric
    about estimation quality.
    """
    samples = _mc_samples(params, cfg, flavor, trials, seed, (_MSE_VEC,), workers)
    mean, stderr = _mean_stderr(samples[_MSE_VEC])
    return McEstimate(value=mean, std_error=stderr, trials=trials)


def matrix_mse_paired(params: SystemParams, cfg: PilotConfig, trials: int,
                      seed: int, workers: int = 1) -> tuple[McEstimate, McEstimate]:
    """Paired-trial matrix estimation errors (LS, LMMSE) on shared randomness."""
    samples = _mc_samples(params, cfg, LS, trials, seed,
                          (_MSE_MAT_LS, _MSE_MAT_LMMSE), workers)
    ls_mean, ls_se = _mean_stderr(samples[_MSE_MAT_LS])
    mm_mean, mm_se = _mean_stderr(samples[_MSE_MAT_LMMSE])
    return (McEstimate(ls_mean, ls_se, trials), McEstimate(mm_mean, mm_se, trials))
