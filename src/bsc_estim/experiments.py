"""Batch experiment runner: config parsing, sweep orchestration, CSV output.

Configs are flat ``key = value`` text with ``#`` comments.  Each key's
parser and default are stated once, in ``_KEYS``, which reads the reference
reader setup from the defaults of ``SystemParams`` and ``PilotConfig``; each
sweep kind's runner, envelope row and default grid once, in ``_SWEEPS``.
Checks that span more than one key are code in :func:`load_config`.  Every
run is fully determined by (config, seed): trials are sub-seeded by index and
reductions are order-exact, so identical runs produce byte-identical CSV
files.

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

JOINT and COMPARE derive beta at each range, so a config that gives them
``beta`` fails at load, as does one that sets both ``tx_power`` and
``tx_power_dbm``.

Results travel as columns: a :class:`ResultTable` holds one array per CSV
field.  Monte Carlo sweeps call :func:`~bsc_estim.snr.mc_metrics` at each
sweep point for every flavor at once, so LS and LMMSE rows come from the
same trials, and one builder, :func:`_point_table`, turns its estimates and
the point's closed forms into one small table per point.  The closed-form
sweeps (N_SWEEP, JOINT, COMPARE) evaluate their whole grid in one array
pass through the ``*_grid`` functions, which run each formula's one body on
arrays and so equal the scalar functions bit for bit, and stack those
arrays into one table without a Python object per row.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

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
    McEstimate,
    mc_metrics,
    snr_approx,
    snr_approx_grid,
    snr_isotropic,
    snr_isotropic_grid,
    snr_perfect_csi,
    snr_perfect_csi_grid,
)

ESTIMATORS = (LS, LMMSE, "BOTH")


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected boolean, got {raw!r}")


def _parse_grid(raw: str) -> list[float]:
    return [float(tok) for tok in raw.replace(",", " ").split()]


# Every config key: its parser, and the value it takes when a config omits
# it.  The physical keys are the fields of SystemParams and PilotConfig, whose
# defaults are the reference reader setup.  A None default means the key's
# absence has its own meaning: beta comes from the link budget, pilot_count
# is n_antennas, tx_power_dbm leaves tx_power as it is, and sweep_grid is
# the sweep kind's default grid.
_KEYS = {
    **{f.name: (int if f.name == "n_antennas" else float, f.default)
       for f in fields(SystemParams)},
    "tx_power_dbm": (float, None),
    "pilot_count": (int, None),
    "ce_time": (float, PilotConfig.ce_time),
    "quantize_ce_time": (_parse_bool, False),
    "sweep": (str, "SNR_SWEEP"),
    "sweep_grid": (_parse_grid, None),
    "trials": (int, 10_000),
    "seed": (int, 1),
    "estimator": (str, "BOTH"),
    "output_path": (str, "results.csv"),
    "workers": (int, 0),                   # 0 = auto, see resolve_workers
    "has_prior_stats": (_parse_bool, True),
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


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a config file, filling defaults for absent keys."""
    try:
        # utf-8-sig drops a leading byte-order mark, which would join the first key
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc

    given: dict[str, object] = {}
    set_on: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {text!r}")
        key, _, value = text.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            warnings.warn(f"{path}:{lineno}: ignoring unknown key {key!r}")
            continue
        if key in set_on:
            raise ConfigError(f"line {lineno}: {key!r} is already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            given[key] = _KEYS[key][0](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc

    values = {key: given.get(key, default) for key, (_, default) in _KEYS.items()}
    try:
        if values["tx_power_dbm"] is not None:
            if "tx_power" in given:
                raise ValueError("set tx_power or tx_power_dbm, not both")
            check_envelope("tx_power_dbm", [values["tx_power_dbm"]])
            values["tx_power"] = 10.0 ** (values["tx_power_dbm"] / 10.0) / 1000.0
        params = SystemParams(**{f.name: values[f.name] for f in fields(SystemParams)})
        ce_time = values["ce_time"]
        check_envelope("ce_time", [ce_time])
        if values["quantize_ce_time"]:
            ce_time = quantize_ce_time(ce_time, params.sample_len)
        # the reference setup trains from every antenna; pilot_count = 0 fails
        pilot_count = values["pilot_count"]
        if pilot_count is None:
            pilot_count = params.n_antennas
        pilot = PilotConfig(pilot_count=pilot_count, ce_time=ce_time)
        pilot.validate_against(params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    sweep = values["sweep"].upper()
    if sweep not in _SWEEPS:
        raise ConfigError(f"sweep must be one of {tuple(_SWEEPS)}, got {sweep!r}")
    estimator = values["estimator"].upper()
    if estimator not in ESTIMATORS:
        raise ConfigError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
    if _SWEEPS[sweep].row == "distance" and values["beta"] is not None:
        # a range sweep derives beta at each range and would ignore this one
        raise ConfigError(f"{sweep} derives beta from each range in sweep_grid; "
                          "remove the beta key")

    grid = values["sweep_grid"]
    if grid is None:
        grid = _SWEEPS[sweep].default_grid(params)
    if not grid:
        raise ConfigError("sweep_grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("sweep_grid must be strictly increasing")
    _check_grid(sweep, grid, params, pilot.ce_time)

    return ExperimentConfig(
        params=params, pilot=pilot, sweep=sweep, sweep_grid=tuple(grid),
        trials=values["trials"], seed=values["seed"], estimator=estimator,
        output_path=values["output_path"], workers=values["workers"],
        has_prior_stats=values["has_prior_stats"])


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
        check_envelope(_SWEEPS[sweep].row, grid)
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
    yield from _SWEEPS[cfg.sweep].run(cfg)


def _point_table(value: float, est: dict[tuple[str, str], McEstimate],
                 flavors: tuple[str, ...], names: tuple[tuple[str, str], ...],
                 closed: dict[str, float]) -> ResultTable:
    """One Monte Carlo sweep point's rows, at sweep value ``value``.

    For each flavor, ``est[flavor, metric]`` as row ``<prefix>_ls`` or
    ``<prefix>_lmmse``, for each ``(metric, prefix)`` of ``names`` in order;
    then each closed-form ``name: value`` of ``closed``, with std_error 0
    and trials 0.
    """
    rows = []
    for flavor in flavors:
        for metric, prefix in names:
            e = est[flavor, metric]
            rows.append((value, f"{prefix}_{flavor.lower()}", e.value, e.std_error,
                         e.trials))
    rows += [(value, name, v, 0.0, 0) for name, v in closed.items()]
    return ResultTable.from_rows(rows)


def _run_snr_sweep(cfg: ExperimentConfig):
    flavors = _flavors(cfg)
    for ge_db in cfg.sweep_grid:
        params = _params_for_ce_snr_db(cfg.params, cfg.pilot.ce_time, ge_db)
        # one kernel pass per point: every flavor and metric shares the
        # same seeded trials
        est = mc_metrics(params, cfg.pilot, flavors, cfg.trials, cfg.seed,
                         ("p_r", "mse_vec", "snr"), cfg.workers)
        closed = {
            "p_r_perfect": params.n_antennas * params.tx_power * params.beta,
            "p_r_isotropic": params.tx_power * params.beta,
            "snr_approx": snr_approx(cfg.pilot.ce_time, cfg.pilot.pilot_count, params),
            "snr_perfect": snr_perfect_csi(params),
            "snr_isotropic": snr_isotropic(params),
        }
        yield _point_table(ge_db, est, flavors,
                           (("p_r", "p_r"), ("mse_vec", "mse"), ("snr", "snr_mc")), closed)


def _run_tau_sweep(cfg: ExperimentConfig):
    flavors, k = _flavors(cfg), cfg.pilot.pilot_count
    for tau_c in cfg.sweep_grid:
        if tau_c < cfg.params.coherence_time:
            est = mc_metrics(cfg.params, PilotConfig(pilot_count=k, ce_time=tau_c),
                             flavors, cfg.trials, cfg.seed, ("snr",), cfg.workers)
            approx = snr_approx(tau_c, k, cfg.params)
        else:
            # Training eats the whole block: nothing left to decode.
            est = {(flavor, "snr"): McEstimate(0.0, 0.0, 0) for flavor in flavors}
            approx = 0.0
        yield _point_table(tau_c, est, flavors, (("snr", "snr_mc"),),
                           {"snr_approx": approx})
    tau_opt = optimal_ta(k, cfg.params)
    yield _point_table(tau_opt, {}, (), (), {
        "tau_c_opt": tau_opt, "snr_approx_at_tau_opt": snr_approx(tau_opt, k, cfg.params)})


def _run_k_sweep(cfg: ExperimentConfig):
    flavors = _flavors(cfg)
    baseline: dict[str, float] = {}
    for k_val in cfg.sweep_grid:
        k = int(k_val)
        pilot = PilotConfig(pilot_count=k, ce_time=cfg.pilot.ce_time)
        # p_r and snr in two passes: perfbench/run.py expects two per K_SWEEP trial
        est = {**mc_metrics(cfg.params, pilot, flavors, cfg.trials, cfg.seed,
                            ("p_r",), cfg.workers),
               **mc_metrics(cfg.params, pilot, flavors, cfg.trials, cfg.seed,
                            ("snr",), cfg.workers)}
        for flavor in flavors:
            # received power relative to the grid's first pilot count
            p_r = est[flavor, "p_r"]
            base = baseline.setdefault(flavor, p_r.value)
            est[flavor, "p_r_norm"] = McEstimate(p_r.value / base, p_r.std_error / base,
                                                 p_r.trials)
        yield _point_table(k, est, flavors,
                           (("p_r", "p_r"), ("p_r_norm", "p_r_norm"), ("snr", "snr_mc")),
                           {"snr_approx": snr_approx(pilot.ce_time, k, cfg.params)})


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


def _run_n_sweep(cfg: ExperimentConfig):
    counts = [int(v) for v in cfg.sweep_grid]
    grid = ParamGrid.over_antennas(cfg.params, counts)
    yield _closed_form_table(counts, _scheme_columns(grid, cfg.pilot.ce_time))


def _run_joint(cfg: ExperimentConfig):
    tau_c, k, snr = joint_optimize_grid(ParamGrid.over_ranges(cfg.params, cfg.sweep_grid))
    yield _closed_form_table(cfg.sweep_grid, {
        "tau_c_joint": tau_c, "k_joint": k.astype(float), "snr_joint": snr})


def _run_compare(cfg: ExperimentConfig):
    grid = ParamGrid.over_ranges(cfg.params, cfg.sweep_grid)
    columns = _scheme_columns(grid, cfg.pilot.ce_time)
    perfect = columns["snr_perfect"]
    # each scheme's SNR over the perfect-knowledge SNR at the same point
    norms = {f"norm_{name[4:]}": column / perfect
             for name, column in columns.items() if name.startswith("snr_")}
    yield _closed_form_table(cfg.sweep_grid, {**columns, **norms})


class _Sweep(NamedTuple):
    run: Callable            # ExperimentConfig -> result tables, in row order
    row: str                 # the ENVELOPE row every grid value lies in
    default_grid: Callable   # SystemParams -> the grid when a config gives none


_RANGES = [60.0, 80.0, 100.0, 120.0, 150.0, 180.0]

# Every sweep kind: load_config reads its row and default grid, and
# iter_experiment its runner.
_SWEEPS = {
    "SNR_SWEEP": _Sweep(_run_snr_sweep, "training_snr_db",
                        lambda p: [-20.0, -10.0, 0.0, 10.0, 20.0, 30.0, 40.0]),
    "TAU_SWEEP": _Sweep(_run_tau_sweep, "ce_time", lambda p: [
        f * p.coherence_time for f in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9)]),
    "K_SWEEP": _Sweep(_run_k_sweep, "n_antennas",
                      lambda p: [float(k) for k in range(1, p.n_antennas + 1)]),
    "N_SWEEP": _Sweep(_run_n_sweep, "n_antennas",
                      lambda p: [2.0, 5.0, 10.0, 20.0, 50.0, 100.0]),
    "JOINT": _Sweep(_run_joint, "distance", lambda p: list(_RANGES)),
    "COMPARE": _Sweep(_run_compare, "distance", lambda p: list(_RANGES)),
}


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
