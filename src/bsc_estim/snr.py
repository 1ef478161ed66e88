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

Trials run with :data:`~bsc_estim.KERNEL_BLAS_THREADS` BLAS threads per
process, in the caller or in one worker pool per process that later calls
reuse.  Two mechanisms hold that count.  ``bsc-estim`` writes it to
``OPENBLAS_NUM_THREADS`` before numpy loads: only a count OpenBLAS reads at
start keeps its helper threads from busy-waiting through the run.  Library
callers (tests, in-process benchmark runs) load numpy before any of this
package's code runs, so the kernel also pins the count per call through
OpenBLAS's own API, and the worker pool's initializer pins each worker.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import KERNEL_BLAS_THREADS
from .channel import (
    ParamGrid,
    PilotConfig,
    SystemParams,
    backscatter,
    build_pilots,
    draw_channel,
)
from .estimators import (
    LMMSE,
    LS,
    _norm,
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


# Each closed-form SNR has one body of (p, beta^2, N[, K, tau_c]) built from
# +, -, *, / and sqrt only, which IEEE 754 rounds correctly, so the scalar
# forms (Python floats) and the *_grid forms (numpy arrays) give the same bits.

def _decoding_scale(p: SystemParams, beta_sq, t):
    """t p_t a_id^2 beta^2 / N0: decoding SNR per unit array gain of a slot t."""
    return t * p.tx_power * p.tag_amp_id ** 2 * beta_sq / p.noise_var


def _ce_snr(p: SystemParams, beta_sq, tau_c):
    return beta_sq * p.tag_amp_ce ** 2 * p.tx_power * tau_c / p.noise_var


def _shape_coefficients(n):
    """A = (N-1)(N-2) and B = 4(N-1) of the SNR shape A/rho + B/sqrt(rho) + 2."""
    return (n - 1) * (n - 2), 4.0 * (n - 1)


def _check_range(ok, name: str, value, interval: str, bound) -> None:
    """Raise ``ValueError("<name>=<value> outside <interval>")`` at the first
    point where the range test ``ok`` fails, ``interval`` formatting that
    point's ``bound``.

    ``ok`` is a Python bool at one point, where True returns at once, or a
    bool per point; ``value`` and ``bound`` are scalars or one per point.
    """
    if ok is not True and not np.all(ok):
        i = np.flatnonzero(np.logical_not(ok))[0]
        value, bound = (np.broadcast_to(x, np.shape(ok)).flat[i] for x in (value, bound))
        raise ValueError(f"{name}={value} outside " + interval.format(bound))


def ce_snr(cfg: PilotConfig, params: SystemParams) -> float:
    """Average backscattered SNR available to the training phase.

    beta**2 a0**2 E_c / N0 with E_c = p_t tau_c; independent of the pilot
    count, which only splits the same energy across antennas.
    """
    return _ce_snr(params, params.beta ** 2, cfg.ce_time)


def _snr_perfect_csi(p: SystemParams, beta_sq, n):
    return (p.coherence_time * p.tx_power * p.tag_amp_id ** 2
            * n * (n + 1) * beta_sq / p.noise_var)


def snr_perfect_csi(params: SystemParams) -> float:
    """Decoding SNR with a genie channel: tau p_t a_id^2 N(N+1) beta^2 / N0."""
    return float(_snr_perfect_csi(params, params.beta ** 2, params.n_antennas))


def snr_perfect_csi_grid(grid: ParamGrid) -> np.ndarray:
    """:func:`snr_perfect_csi` at every point of ``grid``."""
    return _snr_perfect_csi(grid.params, grid.beta_sq, grid.n_antennas)


def snr_isotropic(params: SystemParams) -> float:
    """Decoding SNR of blind equal-weight transmission: 2 tau p_t a_id^2 beta^2 / N0."""
    return float(_decoding_scale(params, params.beta ** 2, 2.0 * params.coherence_time))


def snr_isotropic_grid(grid: ParamGrid) -> np.ndarray:
    """:func:`snr_isotropic` at every point of ``grid``."""
    return _decoding_scale(grid.params, grid.beta_sq, 2.0 * grid.params.coherence_time)


def _snr_approx(p: SystemParams, beta_sq, n, pilot_count, tau_c):
    rho = 1.0 + (p.noise_var * pilot_count / (beta_sq * p.tag_amp_ce ** 2 * p.tx_power * tau_c))
    a, b = _shape_coefficients(n)
    return (_decoding_scale(p, beta_sq, p.coherence_time - tau_c)
            * (a / rho + b / np.sqrt(rho) + 2.0))


def snr_approx(tau_c: float, pilot_count: int, params: SystemParams) -> float:
    """Closed-form approximation of the decoding SNR after estimated beamforming.

    With rho = 1 + N0 K / (beta^2 a0^2 p_t tau_c):

        (tau - tau_c) p_t a_id^2 beta^2 / N0
            * [ (N-1)(N-2)/rho + 4(N-1)/sqrt(rho) + 2 ]

    Identical for the LS and LMMSE front ends.  Concave in tau_c on
    (0, tau) and convex in the integer-relaxed pilot count.  Gives the bits
    of :func:`snr_approx_grid` at the same point.
    """
    tau, n, tau_c = params.coherence_time, params.n_antennas, float(tau_c)
    _check_range(0 < tau_c < tau, "tau_c", tau_c, "(0, {})", tau)
    _check_range(1 <= pilot_count <= n, "pilot_count", pilot_count, "[1, {}]", n)
    return float(_snr_approx(params, params.beta ** 2, n, pilot_count, tau_c))


def _pilot_counts(pilot_count, n: np.ndarray) -> np.ndarray:
    """``pilot_count`` as one count per point of array sizes ``n``.

    Raises ValueError naming the first count outside [1, N].
    """
    k = np.broadcast_to(np.asarray(pilot_count), n.shape)
    _check_range((1 <= k) & (k <= n), "pilot_count", k, "[1, {}]", n)
    return k


def snr_approx_grid(tau_c, pilot_count, grid: ParamGrid) -> np.ndarray:
    """:func:`snr_approx` at every point of ``grid``.

    ``tau_c`` and ``pilot_count`` are one value for every point or one per
    point.  A ValueError names the first of them out of range.
    """
    p, n, tau = grid.params, grid.n_antennas, grid.params.coherence_time
    tau_c = np.broadcast_to(np.asarray(tau_c, dtype=float), n.shape)
    _check_range((0 < tau_c) & (tau_c < tau), "tau_c", tau_c, "(0, {})", tau)
    return _snr_approx(p, grid.beta_sq, n, _pilot_counts(pilot_count, n), tau_c)


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
# BLAS threads and the worker pool

# (get, set) symbol names, ILP64 scipy-openblas wheels first
_OPENBLAS_SYMBOLS = tuple(
    (f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
    for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", ""))


@functools.cache
def _openblas():
    """(get, set) thread-count functions of the OpenBLAS loaded in this process.

    Looks through the shared objects mapped into the process (Linux), as
    threadpoolctl does, so it finds the OpenBLAS numpy linked whether numpy
    vendors it or uses the system's.  None when there is no OpenBLAS.
    """
    paths = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split(None, 5)
                if len(fields) == 6 and "openblas" in fields[5].lower():
                    paths.add(fields[5].strip())
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def blas_threads() -> int | None:
    """OpenBLAS thread count of this process, or None when no OpenBLAS is loaded."""
    lib = _openblas()
    return None if lib is None else lib[0]()


def set_blas_threads(n: int) -> int | None:
    """Set this process's OpenBLAS thread count and return the previous one.

    A no-op returning None when no OpenBLAS is loaded.
    """
    lib = _openblas()
    if lib is None:
        return None
    previous = lib[0]()
    lib[1](n)
    return previous


class _WorkerPool:
    """One process pool of trial workers, reused by every parallel call.

    Created on first use, replaced when the worker count changes or a worker
    dies, and shut down at exit.  An initializer pins each worker to
    :data:`KERNEL_BLAS_THREADS`, so it holds under ``fork`` and ``spawn``
    and for library callers whose OpenBLAS started with more threads;
    ``mp_context`` picks the start method (None: the platform default).
    The process pool and ``multiprocessing`` are imported on first use, so
    a run that never goes parallel does not load them.
    """

    def __init__(self, mp_context=None) -> None:
        self._lock = threading.Lock()
        self._mp_context = mp_context
        self._executor = None
        self._workers = 0

    def map(self, fn, jobs: list, workers: int) -> list:
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        with self._lock:
            if self._executor is None or self._workers != workers:
                self.shutdown()
                if not self._workers:  # this process's first pool
                    atexit.register(self.shutdown)
                self._executor = ProcessPoolExecutor(
                    workers, mp_context=self._mp_context,
                    initializer=set_blas_threads, initargs=(KERNEL_BLAS_THREADS,))
                self._workers = workers
            try:
                return list(self._executor.map(fn, jobs))
            except BrokenProcessPool:
                self.shutdown()
                raise

    def shutdown(self) -> None:
        """Stop the workers; the next :meth:`map` starts a fresh pool."""
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)
            self._executor = None


_POOL = _WorkerPool()


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
    needs_vector = any(m != "mse_mat" for m in metrics)
    out = {(f, m): [] for f in flavors for m in metrics}
    for t in range(t_lo, t_hi):
        chan = draw_channel(params, (seed, t, 0), pilot_count=k)
        rx = backscatter(chan, pilots, params.tag_amp_ce, params.noise_var,
                         (seed, t, 1))
        est_ls = ls_matrix(rx)
        for flavor in flavors:
            est = (est_ls if flavor == LS
                   else lmmse_matrix(est_ls, params.beta, params.noise_var))
            if "mse_mat" in metrics:
                out[flavor, "mse_mat"].append(
                    _norm(est.h_hat_matrix - chan.cascaded) ** 2)
            if not needs_vector:
                continue
            vest = vector_estimate(est)
            beam = 0.0
            if not vest.degenerate:
                beam = float(abs(np.vdot(vest.h_hat, chan.h)) / _norm(vest.h_hat))
            if "p_r" in metrics:
                out[flavor, "p_r"].append(beam ** 2)
            if "snr" in metrics:
                out[flavor, "snr"].append(beam ** 4)
            if "mse_vec" in metrics:
                out[flavor, "mse_vec"].append(min(
                    _norm(chan.h - vest.h_hat) ** 2, _norm(chan.h + vest.h_hat) ** 2))
    return out


def _check_names(what: str, names: tuple[str, ...], allowed: tuple[str, ...]) -> None:
    if not names or len(set(names)) < len(names) or not set(names) <= set(allowed):
        raise ValueError(f"{what} must be distinct names from {allowed}, got {names!r}")


def _mc_samples(params: SystemParams, cfg: PilotConfig, flavors: tuple[str, ...],
                trials: int, seed: int, metrics: tuple[str, ...],
                workers: int = 1) -> dict[tuple[str, str], list[float]]:
    """Per-trial samples keyed by (flavor, metric), identical for any worker count.

    Every flavor sees the same channel, noise and LS estimate of each trial.
    Serial calls run with this process pinned to :data:`KERNEL_BLAS_THREADS`
    and restore its previous BLAS thread count on return; parallel calls
    run on the process's reusable worker pool.  The CLI starts its process
    at that count unless the user chose another; the pin covers that choice
    and library callers, whose numpy loaded before any count could be set.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _check_names("flavors", flavors, (LS, LMMSE))
    _check_names("metrics", metrics, METRICS)
    cfg.validate_against(params)

    if workers <= 1 or trials < 4 * workers:
        previous = set_blas_threads(KERNEL_BLAS_THREADS)
        try:
            return _trial_chunk((params, cfg, flavors, seed, 0, trials, metrics))
        finally:
            if previous is not None:
                set_blas_threads(previous)

    bounds = np.linspace(0, trials, workers + 1, dtype=int)
    jobs = [(params, cfg, flavors, seed, int(lo), int(hi), metrics)
            for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    out: dict[tuple[str, str], list[float]] = {}
    for chunk in _POOL.map(_trial_chunk, jobs, workers):
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


def mc_snr_scale(params: SystemParams, ce_time: float) -> float:
    """(tau - tau_c) p_t a_id^2 / N0, which turns the mean per-trial ``snr``
    sample into a decoding SNR.  The samples carry the channel gain, so
    this is the decoding scale at beta^2 = 1, and the exact factor 1.0
    leaves its bits as the plain product gives them."""
    return _decoding_scale(params, 1.0, params.coherence_time - ce_time)


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
        "snr": mc_snr_scale(params, cfg.ce_time),
        "mse_vec": 1.0,
        "mse_mat": 1.0,
    }
    out: dict[tuple[str, str], McEstimate] = {}
    for key, values in samples.items():
        mean, stderr = _mean_stderr(values)
        out[key] = McEstimate(scale[key[1]] * mean, scale[key[1]] * stderr, trials)
    return out
