"""Batch experiment runner: config parsing, sweep orchestration, CSV output.

Configs are flat ``key = value`` text with ``#`` comments.  Missing keys fall
back to the reference reader setup (20 antennas, 1 ms coherence time, 1 W
transmit power at 915 MHz over 100 m, 1e-20 J noise).  Every run is fully
determined by (config, seed): trials are sub-seeded by index and reductions
are order-exact, so identical runs produce byte-identical CSV files.

Sweep kinds, what their grids hold, and the rows they write:

  SNR_SWEEP  grid = training-phase SNR in dB (noise level derived per point);
             received power with benchmarks, vector MSE, Monte Carlo vs
             closed-form decoding SNR.
  TAU_SWEEP  grid = training times in seconds, > 0; decoding SNR across the
             time split plus the analytic optimal-time marker.
  K_SWEEP    grid = pilot counts, integers in [1, N]; received power
             normalized to one pilot and decoding SNR per count.
  N_SWEEP    grid = antenna counts, integers >= 1; jointly optimal design and
             the fixed / optimal-time / joint scheme SNRs.
  JOINT      grid = ranges in meters, > 0; the joint design versus distance.
  COMPARE    grid = ranges in meters, > 0; all scheme SNRs plus
             normalizations against the perfect-knowledge benchmark.

Monte Carlo sweeps call :func:`~bsc_estim.snr.mc_metrics` once per sweep
point for every flavor, so LS and LMMSE rows come from the same trials.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .channel import PilotConfig, SystemParams, quantize_ce_time
from .estimators import LMMSE, LS
from .optimizer import joint_optimize, optimal_ta
from .snr import mc_metrics, snr_approx, snr_isotropic, snr_perfect_csi

SWEEP_KINDS = ("SNR_SWEEP", "TAU_SWEEP", "K_SWEEP", "N_SWEEP", "JOINT", "COMPARE")
ESTIMATORS = (LS, LMMSE, "BOTH")

# Reference defaults used when a config omits a key.
DEFAULTS = {
    "n_antennas": 20,
    "coherence_time": 1e-3,
    "sample_len": 5e-6,
    "tx_power": 1.0,             # 30 dBm
    "tag_amp_ce": 0.78,
    "tag_amp_id": 0.3162,
    "noise_var": 1e-20,
    "carrier_freq": 915e6,
    "distance": 100.0,
    "pathloss_exp": 2.5,
    "pilot_count": 20,
    "ce_time": 1e-4,
    "sweep": "SNR_SWEEP",
    "trials": 10_000,
    "seed": 1,
    "estimator": "BOTH",
    "output_path": "results.csv",
    "workers": 0,                # 0 = use the hardware parallelism
    "has_prior_stats": True,
}

DEFAULT_GRIDS = {
    "SNR_SWEEP": [-20.0, -10.0, 0.0, 10.0, 20.0, 30.0, 40.0],
    "TAU_SWEEP": [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9],  # fractions of tau
    "K_SWEEP": None,             # 1..N, filled at load time
    "N_SWEEP": [2.0, 5.0, 10.0, 20.0, 50.0, 100.0],
    "JOINT": [60.0, 80.0, 100.0, 120.0, 150.0, 180.0],
    "COMPARE": [60.0, 80.0, 100.0, 120.0, 150.0, 180.0],
}

class ConfigError(ValueError):
    """Raised when a config file cannot be parsed or violates an invariant."""


@dataclass(frozen=True)
class ExperimentConfig:
    params: SystemParams
    pilot: PilotConfig
    sweep: str
    sweep_grid: tuple[float, ...]
    trials: int
    seed: int
    estimator: str
    output_path: str
    workers: int
    has_prior_stats: bool


@dataclass(frozen=True)
class ResultRow:
    sweep_value: float
    metric_name: str
    value: float
    std_error: float
    trials: int


_INT_KEYS = {"n_antennas", "pilot_count", "trials", "seed", "workers"}
_FLOAT_KEYS = {
    "coherence_time", "sample_len", "tx_power", "tx_power_dbm", "tag_amp_ce",
    "tag_amp_id", "noise_var", "carrier_freq", "distance", "pathloss_exp",
    "beta", "ce_time",
}
_BOOL_KEYS = {"has_prior_stats", "quantize_ce_time"}
_STR_KEYS = {"sweep", "estimator", "output_path"}
_LIST_KEYS = {"sweep_grid"}


def _parse_value(key: str, raw: str, lineno: int):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _BOOL_KEYS:
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(f"expected boolean, got {raw!r}")
        if key in _LIST_KEYS:
            return [float(tok) for tok in raw.replace(",", " ").split()]
        return raw
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a config file, filling defaults for absent keys."""
    raw: dict[str, object] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc

    known = _INT_KEYS | _FLOAT_KEYS | _BOOL_KEYS | _STR_KEYS | _LIST_KEYS
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {text!r}")
        key, _, value = text.partition("=")
        key, value = key.strip(), value.strip()
        if key not in known:
            warnings.warn(f"{path}:{lineno}: ignoring unknown key {key!r}")
            continue
        raw[key] = _parse_value(key, value, lineno)

    merged = {**DEFAULTS, **{k: v for k, v in raw.items() if k in DEFAULTS}}
    if "tx_power_dbm" in raw:
        merged["tx_power"] = 10.0 ** (float(raw["tx_power_dbm"]) / 10.0) / 1000.0

    try:
        params = SystemParams(
            n_antennas=merged["n_antennas"],
            coherence_time=merged["coherence_time"],
            sample_len=merged["sample_len"],
            tx_power=merged["tx_power"],
            tag_amp_ce=merged["tag_amp_ce"],
            tag_amp_id=merged["tag_amp_id"],
            noise_var=merged["noise_var"],
            carrier_freq=merged["carrier_freq"],
            distance=merged["distance"],
            pathloss_exp=merged["pathloss_exp"],
            beta=raw.get("beta"),
        )
        ce_time = merged["ce_time"]
        if raw.get("quantize_ce_time"):
            ce_time = quantize_ce_time(ce_time, params.sample_len)
        # the reference setup trains from every antenna
        pilot_count = raw.get("pilot_count", params.n_antennas)
        pilot = PilotConfig(pilot_count=pilot_count, ce_time=ce_time)
        pilot.validate_against(params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    sweep = merged["sweep"].upper()
    if sweep not in SWEEP_KINDS:
        raise ConfigError(f"sweep must be one of {SWEEP_KINDS}, got {sweep!r}")
    estimator = merged["estimator"].upper()
    if estimator not in ESTIMATORS:
        raise ConfigError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")

    grid = raw.get("sweep_grid")
    if grid is None:
        if sweep == "K_SWEEP":
            grid = [float(k) for k in range(1, params.n_antennas + 1)]
        elif sweep == "TAU_SWEEP":
            grid = [f * params.coherence_time for f in DEFAULT_GRIDS["TAU_SWEEP"]]
        else:
            grid = list(DEFAULT_GRIDS[sweep])
    if not grid:
        raise ConfigError("sweep_grid must be nonempty")
    if not all(np.isfinite(grid)):
        raise ConfigError("sweep_grid values must be finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("sweep_grid must be strictly increasing")
    _check_grid(sweep, grid, params.n_antennas)

    trials = merged["trials"]
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    workers = merged["workers"]
    if workers < 0:
        raise ConfigError(f"workers must be >= 0 (0 = auto), got {workers}")

    return ExperimentConfig(
        params=params,
        pilot=pilot,
        sweep=sweep,
        sweep_grid=tuple(grid),
        trials=trials,
        seed=merged["seed"],
        estimator=estimator,
        output_path=merged["output_path"],
        workers=workers,
        has_prior_stats=merged["has_prior_stats"],
    )


def _check_grid(sweep: str, grid: list[float], n_antennas: int) -> None:
    """Reject grid values the sweep kind cannot run, before any point runs."""
    if sweep == "K_SWEEP":
        bad = [v for v in grid if not (v.is_integer() and 1 <= v <= n_antennas)]
        want = f"integer pilot counts in [1, n_antennas={n_antennas}]"
    elif sweep == "N_SWEEP":
        bad = [v for v in grid if not (v.is_integer() and v >= 1)]
        want = "integer antenna counts >= 1"
    elif sweep in ("TAU_SWEEP", "JOINT", "COMPARE"):
        bad = [v for v in grid if v <= 0]
        want = "positive"
    else:
        return
    if bad:
        raise ConfigError(f"{sweep} sweep_grid values must be {want}, got {bad}")


def _flavors(cfg: ExperimentConfig) -> tuple[str, ...]:
    return (LS, LMMSE) if cfg.estimator == "BOTH" else (cfg.estimator,)


def _params_for_ce_snr_db(cfg: ExperimentConfig, gamma_e_db: float) -> SystemParams:
    """Adjust the noise level so the training-phase SNR hits ``gamma_e_db``."""
    gamma_e = 10.0 ** (gamma_e_db / 10.0)
    p = cfg.params
    noise = (p.beta ** 2 * p.tag_amp_ce ** 2 * p.tx_power
             * cfg.pilot.ce_time / gamma_e)
    return replace(p, noise_var=noise)


def iter_experiment(cfg: ExperimentConfig):
    """Yield result rows one sweep point at a time (lets callers flush early)."""
    if cfg.sweep == "SNR_SWEEP":
        yield from _run_snr_sweep(cfg)
    elif cfg.sweep == "TAU_SWEEP":
        yield from _run_tau_sweep(cfg)
    elif cfg.sweep == "K_SWEEP":
        yield from _run_k_sweep(cfg)
    elif cfg.sweep == "N_SWEEP":
        yield from _run_n_sweep(cfg)
    elif cfg.sweep == "JOINT":
        yield from _run_joint(cfg)
    elif cfg.sweep == "COMPARE":
        yield from _run_compare(cfg)
    else:  # pragma: no cover - guarded by load_config
        raise ValueError(f"unknown sweep {cfg.sweep!r}")


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """All rows for the configured sweep."""
    return list(iter_experiment(cfg))


def _run_snr_sweep(cfg: ExperimentConfig):
    flavors = _flavors(cfg)
    for ge_db in cfg.sweep_grid:
        params = _params_for_ce_snr_db(cfg, ge_db)
        # one kernel pass per point: every flavor and metric shares the
        # same seeded trials
        est = mc_metrics(params, cfg.pilot, flavors, cfg.trials, cfg.seed,
                         ("p_r", "mse_vec", "snr"), cfg.workers)
        for flavor in flavors:
            tag = flavor.lower()
            for metric, name in (("p_r", "p_r"), ("mse_vec", "mse"), ("snr", "snr_mc")):
                e = est[flavor, metric]
                yield ResultRow(ge_db, f"{name}_{tag}", e.value, e.std_error, e.trials)
        yield ResultRow(ge_db, "p_r_perfect",
                        params.n_antennas * params.tx_power * params.beta, 0.0, 0)
        yield ResultRow(ge_db, "p_r_isotropic", params.tx_power * params.beta, 0.0, 0)
        yield ResultRow(ge_db, "snr_approx",
                        snr_approx(cfg.pilot.ce_time, cfg.pilot.pilot_count, params),
                        0.0, 0)
        yield ResultRow(ge_db, "snr_perfect", snr_perfect_csi(params), 0.0, 0)
        yield ResultRow(ge_db, "snr_isotropic", snr_isotropic(params), 0.0, 0)


def _run_tau_sweep(cfg: ExperimentConfig):
    flavors = _flavors(cfg)
    for tau_c in cfg.sweep_grid:
        if tau_c >= cfg.params.coherence_time:
            # Training eats the whole block: nothing left to decode.
            for flavor in flavors:
                yield ResultRow(tau_c, f"snr_mc_{flavor.lower()}", 0.0, 0.0, 0)
            yield ResultRow(tau_c, "snr_approx", 0.0, 0.0, 0)
            continue
        pilot = PilotConfig(pilot_count=cfg.pilot.pilot_count, ce_time=tau_c)
        pilot.validate_against(cfg.params)
        est = mc_metrics(cfg.params, pilot, flavors, cfg.trials, cfg.seed,
                         ("snr",), cfg.workers)
        for flavor in flavors:
            e = est[flavor, "snr"]
            yield ResultRow(tau_c, f"snr_mc_{flavor.lower()}", e.value,
                            e.std_error, e.trials)
        yield ResultRow(tau_c, "snr_approx",
                        snr_approx(tau_c, cfg.pilot.pilot_count, cfg.params), 0.0, 0)
    tau_opt = optimal_ta(cfg.pilot.pilot_count, cfg.params)
    yield ResultRow(tau_opt, "tau_c_opt", tau_opt, 0.0, 0)
    yield ResultRow(tau_opt, "snr_approx_at_tau_opt",
                    snr_approx(tau_opt, cfg.pilot.pilot_count, cfg.params), 0.0, 0)


def _run_k_sweep(cfg: ExperimentConfig):
    flavors = _flavors(cfg)
    baseline: dict[str, float] = {}
    for k_val in cfg.sweep_grid:
        k = int(k_val)
        pilot = PilotConfig(pilot_count=k, ce_time=cfg.pilot.ce_time)
        pilot.validate_against(cfg.params)
        # p_r and snr in two passes: perfbench/run.py expects two per K_SWEEP trial
        power = mc_metrics(cfg.params, pilot, flavors, cfg.trials, cfg.seed,
                           ("p_r",), cfg.workers)
        snr = mc_metrics(cfg.params, pilot, flavors, cfg.trials, cfg.seed,
                         ("snr",), cfg.workers)
        for flavor in flavors:
            tag = flavor.lower()
            p_r, s = power[flavor, "p_r"], snr[flavor, "snr"]
            baseline.setdefault(tag, p_r.value)
            yield ResultRow(k, f"p_r_{tag}", p_r.value, p_r.std_error, p_r.trials)
            yield ResultRow(k, f"p_r_norm_{tag}", p_r.value / baseline[tag],
                            p_r.std_error / baseline[tag], p_r.trials)
            yield ResultRow(k, f"snr_mc_{tag}", s.value, s.std_error, s.trials)
        yield ResultRow(k, "snr_approx", snr_approx(pilot.ce_time, k, cfg.params), 0.0, 0)


def _scheme_rows(sweep_value: float, params: SystemParams, tau_c0: float):
    """Closed-form SNRs of the benchmark schemes at one parameter point."""
    n = params.n_antennas
    yield ResultRow(sweep_value, "snr_isotropic", snr_isotropic(params), 0.0, 0)
    yield ResultRow(sweep_value, "snr_fixed", snr_approx(tau_c0, n, params), 0.0, 0)
    tau_n = optimal_ta(n, params)
    yield ResultRow(sweep_value, "snr_opt_ta", snr_approx(tau_n, n, params), 0.0, 0)
    outcome = joint_optimize(params)
    yield ResultRow(sweep_value, "snr_joint", outcome.predicted_snr, 0.0, 0)
    yield ResultRow(sweep_value, "tau_c_joint", outcome.tau_c_opt, 0.0, 0)
    yield ResultRow(sweep_value, "k_joint", float(outcome.k_opt), 0.0, 0)
    yield ResultRow(sweep_value, "snr_perfect", snr_perfect_csi(params), 0.0, 0)


def _run_n_sweep(cfg: ExperimentConfig):
    for n_val in cfg.sweep_grid:
        n = int(n_val)
        params = replace(cfg.params, n_antennas=n)
        yield from _scheme_rows(n, params, cfg.pilot.ce_time)


def _run_joint(cfg: ExperimentConfig):
    for d in cfg.sweep_grid:
        params = replace(cfg.params, distance=d, beta=None)
        outcome = joint_optimize(params)
        yield ResultRow(d, "tau_c_joint", outcome.tau_c_opt, 0.0, 0)
        yield ResultRow(d, "k_joint", float(outcome.k_opt), 0.0, 0)
        yield ResultRow(d, "snr_joint", outcome.predicted_snr, 0.0, 0)


def _run_compare(cfg: ExperimentConfig):
    for d in cfg.sweep_grid:
        params = replace(cfg.params, distance=d, beta=None)
        rows = list(_scheme_rows(d, params, cfg.pilot.ce_time))
        yield from rows
        perfect = snr_perfect_csi(params)
        for row in rows:
            if row.metric_name.startswith("snr_"):
                yield ResultRow(d, f"norm_{row.metric_name[4:]}",
                                row.value / perfect, 0.0, 0)


def _fmt(value: float) -> str:
    """Decimal with 12 significant digits, positional (2.1488 -> 2.14880000000)."""
    if not np.isfinite(value):
        return str(value)
    return np.format_float_positional(value, precision=12, unique=False,
                                      fractional=False, trim="k")


def write_csv(rows: list[ResultRow], path: str) -> None:
    """Write rows as UTF-8 CSV with a fixed header and 12-digit values.

    A temporary file beside ``path`` replaces it, so ``path`` is never partial.
    """
    if not rows:
        raise ValueError("refusing to write an empty result set")
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"output directory does not exist: {directory!r}")
    lines = ["sweep_value,metric,value,std_error,trials"]
    for row in rows:
        lines.append(",".join([
            _fmt(row.sweep_value),
            row.metric_name,
            _fmt(row.value),
            _fmt(row.std_error),
            str(row.trials),
        ]))
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
