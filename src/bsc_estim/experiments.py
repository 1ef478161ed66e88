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
  K_SWEEP    grid = pilot counts, integers in [1, N]; received power, also
             relative to the grid's first pilot count, and decoding SNR per
             count.
  N_SWEEP    grid = antenna counts, integers >= 1; jointly optimal design and
             the fixed / optimal-time / joint scheme SNRs.
  JOINT      grid = ranges in meters, > 0; the joint design versus distance.
  COMPARE    grid = ranges in meters, > 0; all scheme SNRs plus
             normalizations against the perfect-knowledge benchmark.

Results travel as columns: a :class:`ResultTable` holds one array per CSV
field.  Monte Carlo sweeps call :func:`~bsc_estim.snr.mc_metrics` once per
sweep point for every flavor, so LS and LMMSE rows come from the same
trials, and yield one small table per point.  The closed-form sweeps
(N_SWEEP, JOINT, COMPARE) evaluate their whole grid in one array pass
through the ``*_grid`` functions, which run each formula's one body on
arrays and so equal the scalar functions bit for bit, and stack those
arrays into one table without a Python object per row.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .channel import (
    ParamGrid,
    PilotConfig,
    SystemParams,
    check_envelope,
    quantize_ce_time,
)
from .estimators import LMMSE, LS
from .optimizer import joint_optimize_grid, optimal_ta, optimal_ta_grid
from .snr import (
    mc_metrics,
    snr_approx,
    snr_approx_grid,
    snr_isotropic,
    snr_isotropic_grid,
    snr_perfect_csi,
    snr_perfect_csi_grid,
)

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
    "workers": 0,                # 0 = auto, see resolve_workers
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

# Most worker processes a run may use.  The pool starts every worker at its
# first parallel call, so a mistyped count would fork that many processes at
# once; Monte Carlo trials gain nothing from more workers than CPUs.
MAX_WORKERS = 256


class ConfigError(ValueError):
    """Raised when a config file cannot be parsed or violates an invariant."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated run.  Its run settings are checked whenever one is built,
    so ``dataclasses.replace`` holds a CLI override to the config's rules."""

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

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            # trial t seeds numpy from (seed, t, 0), which takes no negative entry
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.workers <= MAX_WORKERS:
            raise ConfigError(f"workers must be in [0, {MAX_WORKERS}] (0 = auto), "
                              f"got {self.workers}")


@dataclass(frozen=True)
class ResultTable:
    """Result rows held as columns, one read-only array per CSV field.

    Row i is (``sweep_value[i]``, ``metric[i]``, ``value[i]``,
    ``std_error[i]``, ``trials[i]``).  ``len()`` is the row count, and
    :meth:`concat` joins tables in order.
    """

    sweep_value: np.ndarray    # float64
    metric: np.ndarray         # str objects, so repeated names share one
    value: np.ndarray          # float64
    std_error: np.ndarray      # float64
    trials: np.ndarray         # int64

    def __post_init__(self) -> None:
        shapes = set()
        for name, dtype in _COLUMN_DTYPES.items():
            # a read-only view: no copy, and the caller's array keeps its flags
            column = np.asarray(getattr(self, name), dtype=dtype).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
            shapes.add(column.shape)
        if len(shapes) != 1 or len(shapes.pop()) != 1:
            raise ValueError("result columns must be 1-D and of one length")

    def __len__(self) -> int:
        return len(self.metric)

    @classmethod
    def from_rows(cls, rows) -> ResultTable:
        """A table of one or more (sweep_value, metric, value, std_error,
        trials) tuples."""
        return cls(*zip(*rows))

    @classmethod
    def concat(cls, tables) -> ResultTable:
        """The rows of one or more ``tables``, in order."""
        tables = list(tables)
        if len(tables) == 1:
            return tables[0]    # tables are immutable: nothing to copy
        return cls(*(np.concatenate([getattr(t, name) for t in tables])
                     for name in _COLUMN_DTYPES))


_COLUMN_DTYPES = {"sweep_value": np.float64, "metric": object, "value": np.float64,
                  "std_error": np.float64, "trials": np.int64}


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
    try:
        if "tx_power_dbm" in raw:
            check_envelope("tx_power_dbm", [raw["tx_power_dbm"]])
            merged["tx_power"] = 10.0 ** (raw["tx_power_dbm"] / 10.0) / 1000.0
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
        check_envelope("ce_time", [ce_time])
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
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("sweep_grid must be strictly increasing")
    _check_grid(sweep, grid, params, pilot.ce_time)

    return ExperimentConfig(
        params=params,
        pilot=pilot,
        sweep=sweep,
        sweep_grid=tuple(grid),
        trials=merged["trials"],
        seed=merged["seed"],
        estimator=estimator,
        output_path=merged["output_path"],
        workers=merged["workers"],
        has_prior_stats=merged["has_prior_stats"],
    )


# The envelope row each sweep kind's grid values lie in.
_GRID_ROWS = {"SNR_SWEEP": "training_snr_db", "TAU_SWEEP": "ce_time",
              "K_SWEEP": "n_antennas", "N_SWEEP": "n_antennas",
              "JOINT": "distance", "COMPARE": "distance"}


def _check_grid(sweep: str, grid: list[float], params: SystemParams,
                ce_time: float) -> None:
    """Reject grid values the sweep kind cannot run, before any point runs.

    Counts must be whole numbers, every value must lie in its envelope row,
    and each SNR_SWEEP point's derived noise level in the ``noise_var`` row.
    """
    n_antennas = params.n_antennas
    if sweep == "K_SWEEP":
        bad = [v for v in grid if not (v.is_integer() and 1 <= v <= n_antennas)]
        want = f"integer pilot counts in [1, n_antennas={n_antennas}]"
    elif sweep == "N_SWEEP":
        bad = [v for v in grid if not v.is_integer()]
        want = "integer antenna counts"
    else:
        bad = []
    if bad:
        raise ConfigError(f"{sweep} sweep_grid values must be {want}, got {bad}")
    try:
        check_envelope(_GRID_ROWS[sweep], grid)
        if sweep == "SNR_SWEEP":
            for v in grid:
                _params_for_ce_snr_db(params, ce_time, v)
    except ValueError as exc:
        raise ConfigError(f"{sweep} sweep_grid: {exc}") from exc


def _flavors(cfg: ExperimentConfig) -> tuple[str, ...]:
    return (LS, LMMSE) if cfg.estimator == "BOTH" else (cfg.estimator,)


def _params_for_ce_snr_db(params: SystemParams, ce_time: float,
                          gamma_e_db: float) -> SystemParams:
    """``params`` with the noise level at which a training slot of
    ``ce_time`` has training-phase SNR ``gamma_e_db``: the inverse of
    :func:`~bsc_estim.snr.ce_snr` in N0."""
    gamma_e = 10.0 ** (gamma_e_db / 10.0)
    noise = (params.beta ** 2 * params.tag_amp_ce ** 2 * params.tx_power
             * ce_time / gamma_e)
    return replace(params, noise_var=noise)


def resolve_workers(workers: int) -> int:
    """The worker count a run uses: ``workers``, or for 0 ("auto") the CPUs
    this process may run on, so a CPU-limited container is not oversubscribed,
    up to :data:`MAX_WORKERS`."""
    if workers > 0:
        return workers
    if hasattr(os, "sched_getaffinity"):
        return min(len(os.sched_getaffinity(0)), MAX_WORKERS)
    return min(os.cpu_count() or 1, MAX_WORKERS)


def iter_experiment(cfg: ExperimentConfig):
    """Yield result tables in row order: one per Monte Carlo sweep point
    (lets callers flush early), or one for a closed-form sweep's whole grid."""
    cfg = replace(cfg, workers=resolve_workers(cfg.workers))
    if cfg.sweep == "SNR_SWEEP":
        yield from _run_snr_sweep(cfg)
    elif cfg.sweep == "TAU_SWEEP":
        yield from _run_tau_sweep(cfg)
    elif cfg.sweep == "K_SWEEP":
        yield from _run_k_sweep(cfg)
    elif cfg.sweep == "N_SWEEP":
        yield _run_n_sweep(cfg)
    elif cfg.sweep == "JOINT":
        yield _run_joint(cfg)
    elif cfg.sweep == "COMPARE":
        yield _run_compare(cfg)
    else:  # pragma: no cover - guarded by load_config
        raise ValueError(f"unknown sweep {cfg.sweep!r}")


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    """All rows for the configured sweep."""
    return ResultTable.concat(iter_experiment(cfg))


def _run_snr_sweep(cfg: ExperimentConfig):
    flavors = _flavors(cfg)
    for ge_db in cfg.sweep_grid:
        params = _params_for_ce_snr_db(cfg.params, cfg.pilot.ce_time, ge_db)
        # one kernel pass per point: every flavor and metric shares the
        # same seeded trials
        est = mc_metrics(params, cfg.pilot, flavors, cfg.trials, cfg.seed,
                         ("p_r", "mse_vec", "snr"), cfg.workers)
        rows = []
        for flavor in flavors:
            tag = flavor.lower()
            for metric, name in (("p_r", "p_r"), ("mse_vec", "mse"), ("snr", "snr_mc")):
                e = est[flavor, metric]
                rows.append((ge_db, f"{name}_{tag}", e.value, e.std_error, e.trials))
        rows += [
            (ge_db, "p_r_perfect", params.n_antennas * params.tx_power * params.beta,
             0.0, 0),
            (ge_db, "p_r_isotropic", params.tx_power * params.beta, 0.0, 0),
            (ge_db, "snr_approx",
             snr_approx(cfg.pilot.ce_time, cfg.pilot.pilot_count, params), 0.0, 0),
            (ge_db, "snr_perfect", snr_perfect_csi(params), 0.0, 0),
            (ge_db, "snr_isotropic", snr_isotropic(params), 0.0, 0),
        ]
        yield ResultTable.from_rows(rows)


def _run_tau_sweep(cfg: ExperimentConfig):
    flavors = _flavors(cfg)
    for tau_c in cfg.sweep_grid:
        if tau_c >= cfg.params.coherence_time:
            # Training eats the whole block: nothing left to decode.
            yield ResultTable.from_rows(
                [(tau_c, f"snr_mc_{flavor.lower()}", 0.0, 0.0, 0) for flavor in flavors]
                + [(tau_c, "snr_approx", 0.0, 0.0, 0)])
            continue
        pilot = PilotConfig(pilot_count=cfg.pilot.pilot_count, ce_time=tau_c)
        pilot.validate_against(cfg.params)
        est = mc_metrics(cfg.params, pilot, flavors, cfg.trials, cfg.seed,
                         ("snr",), cfg.workers)
        rows = []
        for flavor in flavors:
            e = est[flavor, "snr"]
            rows.append((tau_c, f"snr_mc_{flavor.lower()}", e.value, e.std_error,
                         e.trials))
        rows.append((tau_c, "snr_approx",
                     snr_approx(tau_c, cfg.pilot.pilot_count, cfg.params), 0.0, 0))
        yield ResultTable.from_rows(rows)
    tau_opt = optimal_ta(cfg.pilot.pilot_count, cfg.params)
    yield ResultTable.from_rows([
        (tau_opt, "tau_c_opt", tau_opt, 0.0, 0),
        (tau_opt, "snr_approx_at_tau_opt",
         snr_approx(tau_opt, cfg.pilot.pilot_count, cfg.params), 0.0, 0),
    ])


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
        rows = []
        for flavor in flavors:
            tag = flavor.lower()
            p_r, s = power[flavor, "p_r"], snr[flavor, "snr"]
            baseline.setdefault(tag, p_r.value)
            rows += [
                (k, f"p_r_{tag}", p_r.value, p_r.std_error, p_r.trials),
                (k, f"p_r_norm_{tag}", p_r.value / baseline[tag],
                 p_r.std_error / baseline[tag], p_r.trials),
                (k, f"snr_mc_{tag}", s.value, s.std_error, s.trials),
            ]
        rows.append((k, "snr_approx", snr_approx(pilot.ce_time, k, cfg.params), 0.0, 0))
        yield ResultTable.from_rows(rows)


def _closed_form_table(sweep_values, columns: dict[str, np.ndarray]) -> ResultTable:
    """Closed-form rows point by point, each point's rows in ``columns`` order."""
    points, names = len(sweep_values), list(columns)
    size = points * len(names)
    return ResultTable(
        sweep_value=np.repeat(np.asarray(sweep_values, dtype=np.float64), len(names)),
        metric=np.tile(np.array(names, dtype=object), points),
        value=np.column_stack(list(columns.values())).ravel(),
        std_error=np.zeros(size),
        trials=np.zeros(size, dtype=np.int64),
    )


def _scheme_columns(grid: ParamGrid, tau_c0: float) -> dict[str, np.ndarray]:
    """Closed-form SNRs of the benchmark schemes over ``grid``, ending with
    ``snr_perfect``."""
    n = grid.n_antennas
    tau_n = optimal_ta_grid(n, grid)
    tau_c, k, snr = joint_optimize_grid(grid)
    return {
        "snr_isotropic": snr_isotropic_grid(grid),
        "snr_fixed": snr_approx_grid(tau_c0, n, grid),
        "snr_opt_ta": snr_approx_grid(tau_n, n, grid),
        "snr_joint": snr,
        "tau_c_joint": tau_c,
        "k_joint": k.astype(float),
        "snr_perfect": snr_perfect_csi_grid(grid),
    }


def _run_n_sweep(cfg: ExperimentConfig) -> ResultTable:
    counts = [int(v) for v in cfg.sweep_grid]
    grid = ParamGrid.over_antennas(cfg.params, counts)
    return _closed_form_table(counts, _scheme_columns(grid, cfg.pilot.ce_time))


def _run_joint(cfg: ExperimentConfig) -> ResultTable:
    tau_c, k, snr = joint_optimize_grid(ParamGrid.over_ranges(cfg.params, cfg.sweep_grid))
    return _closed_form_table(cfg.sweep_grid, {
        "tau_c_joint": tau_c, "k_joint": k.astype(float), "snr_joint": snr})


def _run_compare(cfg: ExperimentConfig) -> ResultTable:
    grid = ParamGrid.over_ranges(cfg.params, cfg.sweep_grid)
    columns = _scheme_columns(grid, cfg.pilot.ce_time)
    perfect = columns["snr_perfect"]
    # each scheme's SNR over the perfect-knowledge SNR at the same point
    norms = {f"norm_{name[4:]}": column / perfect
             for name, column in columns.items() if name.startswith("snr_")}
    return _closed_form_table(cfg.sweep_grid, {**columns, **norms})


def _fmt(value: float) -> str:
    """Decimal with 12 significant digits, positional (2.1488 -> 2.14880000000)."""
    if not math.isfinite(value):
        return str(value)
    return np.format_float_positional(value, precision=12, unique=False,
                                      fractional=False, trim="k")


# Rows per write: bounds the lines held in memory at once.
_BLOCK_ROWS = 4096


def _texts(column: np.ndarray, fmt) -> np.ndarray:
    """``fmt`` of every entry of ``column``, from one call per distinct entry.

    A float column is keyed on its 64-bit patterns, so -0.0 stays apart from
    0.0 and every NaN and infinity is formatted as itself.
    """
    floats = column.dtype == np.float64
    keys, inverse = np.unique(column.view(np.uint64) if floats else column,
                              return_inverse=True)
    if floats:
        keys = keys.view(np.float64)
    return np.array([fmt(key) for key in keys.tolist()], dtype=object)[inverse]


def write_csv(rows: ResultTable, path: str) -> None:
    """Write a result table as UTF-8 CSV with a fixed header and 12-digit values.

    Each field reads as :func:`_fmt` (or ``str`` for trial counts) writes
    that value alone, from one call per distinct value of its column.  Lines
    go out ``_BLOCK_ROWS`` at a time to a temporary file beside ``path``
    that then replaces it, so ``path`` is never partial.
    """
    if not len(rows):
        raise ValueError("refusing to write an empty result set")
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"output directory does not exist: {directory!r}")
    columns = (_texts(rows.sweep_value, _fmt), rows.metric, _texts(rows.value, _fmt),
               _texts(rows.std_error, _fmt), _texts(rows.trials, str))
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("sweep_value,metric,value,std_error,trials\n")
            for lo in range(0, len(rows), _BLOCK_ROWS):
                block = (column[lo:lo + _BLOCK_ROWS].tolist() for column in columns)
                fh.write("".join([f"{s},{m},{v},{e},{t}\n"
                                  for s, m, v, e, t in zip(*block)]))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
