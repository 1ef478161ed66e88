"""SNR and power figures of merit, closed-form and Monte Carlo.

Closed forms: the decoding-phase SNR under perfect channel knowledge, under
isotropic (no-estimate) transmission, and the Rician-moment approximation of
the SNR achieved with the estimated beamformers.  :func:`mc_metrics` is the
Monte Carlo counterpart: it runs the full pilot -> estimate -> beamform chain
over seeded fading draws, once per trial for every requested estimator
flavor and metric.

Every Monte Carlo result is deterministic given its seed: trial t derives
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
    _pilot_energy,
    lmmse_matrix,
    ls_matrix,
    vector_estimate,
)


@dataclass(frozen=True)
class RicianMoments:
    """Conditional mean and variance of the beam-aligned channel projection."""

    mu: float
    sigma2: float
    flavor: str


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo mean with its standard error over ``trials`` draws."""

    value: float
    std_error: float
    trials: int


def ce_snr(cfg: PilotConfig, params: SystemParams) -> float:
    """Average backscattered SNR available to the training phase.

    beta**2 a0**2 E_c / N0 with E_c = p_t tau_c; independent of the pilot
    count, which only splits the same energy across antennas.
    """
    return (params.beta ** 2 * params.tag_amp_ce ** 2
            * params.tx_power * cfg.ce_time / params.noise_var)


def snr_perfect_csi(params: SystemParams) -> float:
    """Decoding SNR with a genie channel: tau p_t a_id^2 N(N+1) beta^2 / N0."""
    n = params.n_antennas
    return (params.coherence_time * params.tx_power * params.tag_amp_id ** 2
            * n * (n + 1) * params.beta ** 2 / params.noise_var)


def snr_isotropic(params: SystemParams) -> float:
    """Decoding SNR of blind equal-weight transmission: 2 tau p_t a_id^2 beta^2 / N0."""
    return (2.0 * params.coherence_time * params.tx_power
            * params.tag_amp_id ** 2 * params.beta ** 2 / params.noise_var)


def snr_approx(tau_c: float, pilot_count: int, params: SystemParams) -> float:
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
    return ((params.coherence_time - tau_c) * params.tx_power
            * params.tag_amp_id ** 2 * params.beta ** 2 / params.noise_var) * shape


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

# Per-trial samples, before mc_metrics scales their mean and standard error:
#   p_r      |h_hat^H h|^2 / ||h_hat||^2, times p_t
#   snr      |h_hat^H h|^4 / ||h_hat||^4, times (tau - tau_c) p_t a_id^2 / N0
#   mse_vec  min(||h - h_hat||^2, ||h + h_hat||^2), the sign-aligned vector error
#   mse_mat  ||H_hat - h h_K^T||_F^2, the matrix estimation error
METRICS = ("p_r", "snr", "mse_vec", "mse_mat")


def _trial_chunk(args) -> dict[tuple[str, str], list[float]]:
    (params, cfg, flavors, seed, t_lo, t_hi, metrics) = args
    k = cfg.pilot_count
    pilots = build_pilots(k, cfg.ce_time, params.tx_power)
    # the E0 that ls_matrix divides by
    e0 = _pilot_energy(params.tag_amp_ce * pilots)
    needs_vector = any(m != "mse_mat" for m in metrics)
    out = {(f, m): [] for f in flavors for m in metrics}
    for t in range(t_lo, t_hi):
        chan = draw_channel(params, (seed, t, 0), pilot_count=k)
        rx = backscatter(chan, pilots, params.tag_amp_ce, params.noise_var,
                         (seed, t, 1))
        est_ls = ls_matrix(rx, cfg)
        for flavor in flavors:
            est = (est_ls if flavor == LS
                   else lmmse_matrix(est_ls, params.beta, e0, params.noise_var))
            if "mse_mat" in metrics:
                out[flavor, "mse_mat"].append(
                    float(np.linalg.norm(est.h_hat_matrix - chan.cascaded) ** 2))
            if not needs_vector:
                continue
            vest = vector_estimate(est)
            beam = 0.0
            if not vest.degenerate:
                beam = float(abs(np.vdot(vest.h_hat, chan.h))
                             / np.linalg.norm(vest.h_hat))
            if "p_r" in metrics:
                out[flavor, "p_r"].append(beam ** 2)
            if "snr" in metrics:
                out[flavor, "snr"].append(beam ** 4)
            if "mse_vec" in metrics:
                out[flavor, "mse_vec"].append(float(min(
                    np.linalg.norm(chan.h - vest.h_hat) ** 2,
                    np.linalg.norm(chan.h + vest.h_hat) ** 2)))
    return out


def _check_names(what: str, names: tuple[str, ...], allowed: tuple[str, ...]) -> None:
    if not names or len(set(names)) < len(names) or not set(names) <= set(allowed):
        raise ValueError(f"{what} must be distinct names from {allowed}, got {names!r}")


def _mc_samples(params: SystemParams, cfg: PilotConfig, flavors: tuple[str, ...],
                trials: int, seed: int, metrics: tuple[str, ...],
                workers: int = 1) -> dict[tuple[str, str], list[float]]:
    """Per-trial samples keyed by (flavor, metric), identical for any worker count.

    Every flavor sees the same channel, noise and LS estimate of each trial.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _check_names("flavors", flavors, (LS, LMMSE))
    _check_names("metrics", metrics, METRICS)
    cfg.validate_against(params)

    if workers <= 1 or trials < 4 * workers:
        return _trial_chunk((params, cfg, flavors, seed, 0, trials, metrics))

    bounds = np.linspace(0, trials, workers + 1, dtype=int)
    jobs = [(params, cfg, flavors, seed, int(lo), int(hi), metrics)
            for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    out: dict[tuple[str, str], list[float]] = {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for chunk in pool.map(_trial_chunk, jobs):
            for key, samples in chunk.items():
                out.setdefault(key, []).extend(samples)
    return out


def _mean_stderr(samples: list[float]) -> tuple[float, float]:
    n = len(samples)
    total = math.fsum(samples)
    mean = total / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((x - mean) ** 2 for x in samples) / (n - 1)
    return mean, math.sqrt(var / n)


def mc_metrics(params: SystemParams, cfg: PilotConfig, flavors: tuple[str, ...],
               trials: int, seed: int, metrics: tuple[str, ...],
               workers: int = 1) -> dict[tuple[str, str], McEstimate]:
    """Monte Carlo metrics of the estimated beam, keyed by (flavor, metric).

    ``flavors`` names front ends from (LS, LMMSE) and ``metrics`` names
    entries of :data:`METRICS`:

    - ``p_r``: average power delivered to the tag, in watts;
    - ``snr``: decoding SNR with the estimated beamformers;
    - ``mse_vec``: sign-aligned vector MSE E min(||h - h_hat||^2,
      ||h + h_hat||^2).  The global sign of the estimate is unidentifiable,
      so alignment keeps the metric about estimation quality;
    - ``mse_mat``: matrix MSE E ||H_hat - h h_K^T||_F^2.

    Each trial draws its channel and noise once and every flavor shares
    them, so flavors are compared on paired trials.  Degenerate vector
    estimates contribute a literal zero beamforming gain rather than being
    dropped.
    """
    samples = _mc_samples(params, cfg, flavors, trials, seed, metrics, workers)
    scale = {
        "p_r": params.tx_power,
        "snr": ((params.coherence_time - cfg.ce_time) * params.tx_power
                * params.tag_amp_id ** 2 / params.noise_var),
        "mse_vec": 1.0,
        "mse_mat": 1.0,
    }
    out: dict[tuple[str, str], McEstimate] = {}
    for key, values in samples.items():
        mean, stderr = _mean_stderr(values)
        out[key] = McEstimate(scale[key[1]] * mean, scale[key[1]] * stderr, trials)
    return out
