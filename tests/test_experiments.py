import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from bsc_estim import cli, experiments, snr
from bsc_estim.channel import PilotConfig, SystemParams
from bsc_estim.estimators import LMMSE, LS
from bsc_estim.experiments import (
    MAX_WORKERS,
    ConfigError,
    ResultTable,
    iter_experiment,
    load_config,
    resolve_workers,
    write_csv,
)
from conftest import run_cli, run_python

DATA = Path(__file__).parent / "data"


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _shipped_configs():
    """Every config the repository ships: the benchmark workloads (read
    only), the fixtures and the README's example."""
    root = DATA.parents[1]
    paths = [*sorted(root.glob("perfbench/workloads/*.cfg")), *sorted(DATA.glob("*.cfg"))]
    configs = [pytest.param(p.read_text(encoding="utf-8"), id=p.name) for p in paths]
    readme = (root / "README.md").read_text(encoding="utf-8")
    example = readme.split("Example:\n\n```\n", 1)[1].split("```", 1)[0]
    return [*configs, pytest.param(example, id="README example")]


class TestLoadConfig:
    def test_empty_file_gives_reference_defaults(self, tmp_path):
        cfg = load_config(_write(tmp_path, ""))
        p = cfg.params
        assert p.n_antennas == 20
        assert p.coherence_time == pytest.approx(1e-3)
        assert p.tx_power == pytest.approx(1.0)          # 30 dBm
        assert p.tag_amp_ce == pytest.approx(0.78)
        assert p.tag_amp_id == pytest.approx(0.3162)
        assert p.carrier_freq == pytest.approx(915e6)
        assert p.distance == pytest.approx(100.0)
        assert p.pathloss_exp == pytest.approx(2.5)
        assert p.noise_var == pytest.approx(1e-20)
        assert cfg.pilot.ce_time == pytest.approx(1e-4)
        assert cfg.pilot.pilot_count == 20
        assert cfg.sweep == "SNR_SWEEP"
        assert cfg.trials == 10_000

    def test_empty_file_gives_the_dataclass_defaults(self, tmp_path):
        # the reference setup is stated once, as SystemParams and PilotConfig
        # defaults, and the config reader takes it from there
        cfg = load_config(_write(tmp_path, ""))
        assert cfg.params == SystemParams()
        assert cfg.pilot == PilotConfig(20)

    def test_comments_and_overrides(self, tmp_path):
        cfg = load_config(_write(tmp_path, """
            # reader setup
            n_antennas = 8
            trials = 250        # quick run
            sweep = K_SWEEP
            estimator = LS
        """))
        assert cfg.params.n_antennas == 8
        assert cfg.trials == 250
        assert cfg.sweep == "K_SWEEP"
        assert cfg.sweep_grid == tuple(float(k) for k in range(1, 9))

    def test_dbm_conversion(self, tmp_path):
        cfg = load_config(_write(tmp_path, "tx_power_dbm = 30\n"))
        assert cfg.params.tx_power == pytest.approx(1.0, rel=1e-12)
        cfg = load_config(_write(tmp_path, "tx_power_dbm = 20\n"))
        assert cfg.params.tx_power == pytest.approx(0.1, rel=1e-12)

    def test_pilot_count_defaults_to_n_antennas(self, tmp_path):
        assert load_config(_write(tmp_path, "n_antennas = 8\n")).pilot.pilot_count == 8
        # zero is a value, not an absent key
        with pytest.raises(ConfigError, match="pilot_count must be >= 1, got 0"):
            load_config(_write(tmp_path, "n_antennas = 8\npilot_count = 0\n"))

    @pytest.mark.parametrize("sweep", ["SNR_SWEEP", "K_SWEEP", "TAU_SWEEP", "N_SWEEP"])
    def test_given_beta_is_kept_outside_range_sweeps(self, tmp_path, sweep):
        cfg = load_config(_write(tmp_path, f"beta = 1e-3\nsweep = {sweep}\n"))
        assert cfg.params.beta == 1e-3

    def test_unknown_key_warns_not_errors(self, tmp_path):
        with pytest.warns(UserWarning, match="unknown key"):
            cfg = load_config(_write(tmp_path, "frobnicate = 7\n"))
        assert cfg.params.n_antennas == 20

    def test_byte_order_mark_keeps_first_key(self, tmp_path):
        # the mark used to join the first key, which then warned as unknown
        path = tmp_path / "bom.cfg"
        path.write_text("n_antennas = 4\nsweep = JOINT\n", encoding="utf-8-sig")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = load_config(str(path))
        assert cfg.params.n_antennas == 4

    def test_zero_trials_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="trials"):
            load_config(_write(tmp_path, "trials = 0\n"))

    def test_workers_above_cap_rejected(self, tmp_path):
        # the pool would fork every worker at its first call; none is started here
        with pytest.raises(ConfigError, match=rf"workers must be in \[0, {MAX_WORKERS}\]"):
            load_config(_write(tmp_path, f"workers = {MAX_WORKERS + 1}\n"))
        assert load_config(_write(tmp_path, f"workers = {MAX_WORKERS}\n")).workers == (
            MAX_WORKERS)

    def test_bad_value_names_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line 2"):
            load_config(_write(tmp_path, "# header\nn_antennas = lots\n"))

    def test_grid_must_increase(self, tmp_path):
        with pytest.raises(ConfigError, match="strictly increasing"):
            load_config(_write(tmp_path, "sweep_grid = 1, 1, 2\n"))

    def test_invalid_shape_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path, "pilot_count = 40\n"))

    def test_quantized_ce_time(self, tmp_path):
        cfg = load_config(_write(tmp_path,
                                 "ce_time = 1.02e-4\nquantize_ce_time = true\n"))
        assert cfg.pilot.ce_time == pytest.approx(1.0e-4)

    @pytest.mark.parametrize("text", _shipped_configs())
    def test_shipped_configs_lie_inside_the_envelope(self, tmp_path, text):
        assert load_config(_write(tmp_path, text)).sweep_grid

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.cfg")

    def test_readme_names_every_key(self):
        readme = (DATA.parents[1] / "README.md").read_text(encoding="utf-8")
        paragraph = readme.split("Config files are flat", 1)[1].split("Example:", 1)[0]
        assert [k for k in experiments._KEYS if f"`{k}`" not in paragraph] == []

    def test_readme_names_every_row_metric(self):
        # each sweep kind's bullet names the rows its fixture writes, in CSV
        # order, with <f> standing for either flavor
        readme = (DATA.parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\nSweep kinds", 1)[1].split("\nCSV rows are", 1)[0]
        bullets = {b.split("`", 2)[1]: b for b in section.split("\n- ")[1:]}
        for csv in sorted(DATA.glob("*.csv")):
            kind = load_config(str(csv.with_suffix(".cfg"))).sweep
            metrics = [line.split(",")[1]
                       for line in csv.read_text(encoding="utf-8").splitlines()[1:]]
            names = list(dict.fromkeys(re.sub(r"_(ls|lmmse)$", "_<f>", m) for m in metrics))
            at = [bullets[kind].find(f"`{name}`") for name in names]
            assert -1 not in at and at == sorted(at), (csv.name, names, at)


class TestResultTable:
    def test_tables_concatenate_in_order(self):
        a = ResultTable.from_rows([(1.0, "x", 2.0, 0.5, 3), (1.0, "y", -0.0, 0.0, 0)])
        b = ResultTable.from_rows([(2, "x", float("nan"), 0.0, 7)])
        both = ResultTable.concat([a, b])
        assert len(a) == 2 and len(both) == 3
        assert both.metric.tolist() == ["x", "y", "x"]
        assert both.sweep_value.tolist() == [1.0, 1.0, 2.0]
        assert both.trials.tolist() == [3, 0, 7]
        np.testing.assert_array_equal(both.value, [2.0, -0.0, np.nan])
        assert np.signbit(both.value[1])
        assert ResultTable.concat([a]) is a

    def test_columns_are_read_only_and_of_one_length(self):
        table = ResultTable(np.zeros(2), np.array(["a", "b"], dtype=object),
                            np.ones(2), np.zeros(2), np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError):
            table.value[0] = 5.0
        with pytest.raises(ValueError, match="one length"):
            ResultTable(np.zeros(2), np.array(["a"], dtype=object), np.zeros(2),
                        np.zeros(2), np.zeros(2, dtype=np.int64))


class TestWriteCsv:
    def test_single_row_two_lines(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_csv(ResultTable.from_rows([(1.0, "snr", 2.1488, 0.0, 100)]), path)
        lines = Path(path).read_text(encoding="utf-8").split("\n")
        assert lines[0] == "sweep_value,metric,value,std_error,trials"
        assert len(lines) == 3 and lines[2] == ""     # newline-terminated
        assert lines[1].split(",")[2] == "2.14880000000"

    def test_formatting_contract(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_csv(ResultTable.from_rows([(0.5, "x", 6.807389387418555e-9, 0.0, 1)]),
                  path)
        value = Path(path).read_text(encoding="utf-8").split("\n")[1].split(",")[2]
        assert float(value) == pytest.approx(6.807389387418555e-9, rel=1e-11)

    def test_repeated_values_write_exactly_as_fmt(self, tmp_path):
        # a column's distinct values are formatted once each, keyed on their
        # bits: -0.0 and 0.0, NaN, +-inf and int sweep values come out as
        # _fmt writes each alone, also where repeats are far apart and cross
        # the writer's blocks
        values = [0.0, 0.0, -0.0, -0.0, 0.0, float("nan"), float("nan"),
                  np.float64("nan"), float("inf"), float("inf"), -np.inf,
                  -np.inf, 2.5, np.float64(2.5), 2.5 + 2 ** -51, 3, 3.0, 20,
                  -0.0, 7, float("nan"), 2.5, 0.0, -np.inf]
        size = 2 * experiments._BLOCK_ROWS + 5
        rows = [(values[i % len(values)], f"m{i % 3}", values[(7 * i) % len(values)]
                 if i % 4 else i / 7, values[-1 - i % len(values)], i % 5)
                for i in range(size)]
        path = tmp_path / "out.csv"
        write_csv(ResultTable.from_rows(rows), str(path))
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        fmt = experiments._fmt
        assert lines == [f"{fmt(s)},{m},{fmt(v)},{fmt(e)},{t}" for s, m, v, e, t in rows]
        assert [ln.split(",")[0] for ln in lines[:len(values)]] == [
            "0.00000000000", "0.00000000000", "-0.00000000000", "-0.00000000000",
            "0.00000000000", "nan", "nan", "nan", "inf", "inf", "-inf", "-inf",
            "2.50000000000", "2.50000000000", "2.50000000000", "3.00000000000",
            "3.00000000000", "20.0000000000", "-0.00000000000", "7.00000000000",
            "nan", "2.50000000000", "0.00000000000", "-inf"]

    def test_missing_directory_named(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no/such"):
            write_csv(ResultTable.from_rows([(0, "x", 1.0, 0.0, 1)]),
                      str(tmp_path / "no" / "such" / "out.csv"))

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(ResultTable(*[()] * 5), str(tmp_path / "out.csv"))

    def test_replaces_existing_file_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("stale\n", encoding="utf-8")
        write_csv(ResultTable.from_rows([(1.0, "snr", 2.0, 0.0, 1)]), str(path))
        assert path.read_text(encoding="utf-8").startswith("sweep_value,")
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def _quick_cfg(tmp_path, body):
    return load_config(_write(tmp_path, body))


class TestRunExperiment:
    def test_snr_sweep_rows(self, tmp_path):
        cfg = _quick_cfg(tmp_path, """
            n_antennas = 4
            pilot_count = 4
            trials = 60
            sweep = SNR_SWEEP
            sweep_grid = 0, 10
            estimator = BOTH
        """)
        table = ResultTable.concat(iter_experiment(cfg))
        assert {"p_r_ls", "p_r_lmmse", "mse_ls", "snr_mc_ls", "snr_approx",
                "snr_perfect", "snr_isotropic", "p_r_perfect",
                "p_r_isotropic"} <= set(table.metric)
        assert set(table.sweep_value.tolist()) == {0.0, 10.0}
        # one table per sweep point
        assert [len(t) for t in iter_experiment(cfg)] == [len(table) // 2] * 2

    def test_tau_sweep_full_training_row_is_zero(self, tmp_path):
        cfg = _quick_cfg(tmp_path, """
            n_antennas = 3
            pilot_count = 3
            trials = 40
            sweep = TAU_SWEEP
            sweep_grid = 2e-4, 1e-3
            estimator = LS
        """)
        table = ResultTable.concat(iter_experiment(cfg))
        at_tau = table.value[np.isclose(table.sweep_value, 1e-3)
                             & np.char.startswith(table.metric.astype(str), "snr")]
        assert at_tau.size and np.all(at_tau == 0.0)
        assert list(table.metric).count("tau_c_opt") == 1

    @pytest.mark.parametrize("grid,first,last", [("1, 2, 3, 4", 1, 4), ("2, 4", 2, 4)])
    def test_k_sweep_normalization(self, tmp_path, grid, first, last):
        # p_r_norm is relative to the grid's first pilot count, not to K = 1
        cfg = _quick_cfg(tmp_path, f"""
            n_antennas = 4
            trials = 60
            sweep = K_SWEEP
            sweep_grid = {grid}
            estimator = LS
        """)
        table = ResultTable.concat(iter_experiment(cfg))

        def at(metric, k):
            (value,) = table.value[(table.metric == metric) & (table.sweep_value == k)]
            return value

        assert at("p_r_norm_ls", first) == 1.0
        assert at("p_r_norm_ls", last) == at("p_r_ls", last) / at("p_r_ls", first)

    def test_compare_reproduces_isotropic_normalization(self, tmp_path):
        cfg = _quick_cfg(tmp_path, """
            trials = 1
            sweep = COMPARE
            sweep_grid = 100
        """)
        table = ResultTable.concat(iter_experiment(cfg))
        norm = table.value[table.metric == "norm_isotropic"]
        assert norm.tolist() == [pytest.approx(2.0 / 420.0, abs=1e-5)]

    def test_n_sweep_emits_joint_design(self, tmp_path):
        cfg = _quick_cfg(tmp_path, """
            trials = 1
            sweep = N_SWEEP
            sweep_grid = 4, 8
        """)
        table = ResultTable.concat(iter_experiment(cfg))
        assert {"k_joint", "tau_c_joint", "snr_joint", "snr_fixed",
                "snr_opt_ta"} <= set(table.metric)

    def test_joint_sweep(self, tmp_path):
        cfg = _quick_cfg(tmp_path, """
            trials = 1
            sweep = JOINT
            sweep_grid = 80, 120
        """)
        # the whole grid comes as one table
        [table] = iter_experiment(cfg)
        ks = table.value[table.metric == "k_joint"]
        assert len(ks) == 2
        assert set(ks.tolist()) <= {1.0, 20.0}

    def test_both_flavors_share_each_draw(self, tmp_path, monkeypatch):
        calls = []
        draw = snr.draw_channel
        monkeypatch.setattr(snr, "draw_channel",
                            lambda *a, **kw: calls.append(a[1]) or draw(*a, **kw))
        cfg = _quick_cfg(tmp_path, """
            n_antennas = 3
            pilot_count = 3
            trials = 7
            sweep = SNR_SWEEP
            sweep_grid = 0, 10, 20
            estimator = BOTH
            workers = 1
        """)
        table = ResultTable.concat(iter_experiment(cfg))
        assert set(table.metric) >= {"snr_mc_ls", "snr_mc_lmmse"}
        assert len(calls) == 7 * 3

    def test_auto_workers_count_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert resolve_workers(0) == 2
        assert resolve_workers(5) == 5
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(MAX_WORKERS + 8)), raising=False)
        assert resolve_workers(0) == MAX_WORKERS
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert resolve_workers(0) == 64

    def test_library_run_resolves_auto_workers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 2, 5}, raising=False)
        seen = []
        mc = experiments.mc_metrics
        # record the worker count, then run serially
        monkeypatch.setattr(experiments, "mc_metrics",
                            lambda *a: seen.append(a[-1]) or mc(*a[:-1], 1))
        cfg = _quick_cfg(tmp_path, """
            n_antennas = 3
            pilot_count = 3
            trials = 20
            sweep = SNR_SWEEP
            sweep_grid = 0, 10
            estimator = LS
        """)
        assert cfg.workers == 0
        ResultTable.concat(iter_experiment(cfg))
        assert seen == [3, 3]

    @pytest.mark.parametrize("body", [
        "sweep = SNR_SWEEP\nsweep_grid = -5, 10\n",
        # the last point is the coherence time: zero rows, nothing decoded
        "sweep = TAU_SWEEP\nsweep_grid = 2e-4, 5e-4, 1e-3\n",
        # K = 1, mid-K refinement and K = N
        "sweep = K_SWEEP\n",
    ], ids=["SNR_SWEEP", "TAU_SWEEP", "K_SWEEP"])
    def test_single_flavor_writes_its_rows_of_both(self, tmp_path, body):
        def lines(estimator):
            cfg = _quick_cfg(tmp_path, f"n_antennas = 5\ntrials = 12\nseed = 4\n"
                                       f"workers = 1\nestimator = {estimator}\n{body}")
            out = tmp_path / f"{estimator}.csv"
            write_csv(ResultTable.concat(iter_experiment(cfg)), str(out))
            return out.read_text(encoding="utf-8").splitlines()

        both = lines("BOTH")
        for flavor, other in ((LS, LMMSE), (LMMSE, LS)):
            # that flavor's rows and the closed-form rows, in order, same bytes
            kept = [line for line in both
                    if not line.split(",")[1].endswith(f"_{other.lower()}")]
            assert len(kept) < len(both)
            assert lines(flavor) == kept

    def test_determinism_same_seed(self, tmp_path):
        body = """
            n_antennas = 3
            pilot_count = 3
            trials = 50
            sweep = SNR_SWEEP
            sweep_grid = 0, 20
            estimator = LS
            seed = 99
        """
        table_a = ResultTable.concat(iter_experiment(_quick_cfg(tmp_path, body)))
        table_b = ResultTable.concat(iter_experiment(_quick_cfg(tmp_path, body)))
        for column in ("sweep_value", "metric", "value", "std_error", "trials"):
            np.testing.assert_array_equal(getattr(table_a, column),
                                          getattr(table_b, column), strict=True)


class TestGoldenCsv:
    # Frozen CSV bytes; a change that moves them on purpose re-records the
    # fixture and says why.  k_sweep_n8 covers K = 1, mid-K refinement and
    # K = N for both estimators; compare_ranges, joint_n8 and n_sweep cover
    # both pilot-count corners of the closed-form design sweeps.
    @pytest.mark.parametrize("name", ["c11_snr_sweep", "k_sweep_n8",
                                      "compare_ranges", "joint_n8", "n_sweep",
                                      "tau_sweep_n4"])
    def test_cli_reproduces_fixture(self, tmp_path, name):
        out = tmp_path / f"{name}.csv"
        rc = cli.main(["run", "--config", str(DATA / f"{name}.cfg"),
                       "--out", str(out), "--workers", "1"])
        assert rc == 0
        assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()


def _fail_after_one_table(cfg):
    """Stand-in for iter_experiment: one one-row table, then a runtime error."""
    yield ResultTable.from_rows([(0.0, "p_r_ls", 1.0, 0.0, 5)])
    raise RuntimeError("injected failure after one table")


def _blas_build():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


# Keys that a sweep's grid or optimizer supplies itself, beside beta in a
# range sweep, as (sweep, config lines).  Each of these configs used to write
# the same bytes as the config without those lines.  The load error names
# the first line's key: the first of the given keys in the sweep's own order.
_SUPPLIED_KEYS = [
    ("SNR_SWEEP", "noise_var = 1e-15"),
    ("TAU_SWEEP", "ce_time = 3e-4"),
    ("TAU_SWEEP", "quantize_ce_time = true"),
    ("K_SWEEP", "pilot_count = 2"),
    ("N_SWEEP", "n_antennas = 7"),
    ("N_SWEEP", "pilot_count = 3"),
    ("JOINT", "distance = 7"),
    ("JOINT", "ce_time = 3e-4"),
    ("JOINT", "quantize_ce_time = true"),
    ("JOINT", "pilot_count = 3"),
    ("COMPARE", "distance = 7\npilot_count = 3"),
    ("COMPARE", "pilot_count = 3"),
]


def _supplied_key(given: str) -> str:
    return given.split(" =", 1)[0]


class TestCli:
    def test_run_writes_csv_and_exit_zero(self, tmp_path):
        cfg = _write(tmp_path, """
            n_antennas = 3
            pilot_count = 3
            trials = 30
            sweep = SNR_SWEEP
            sweep_grid = 0, 10
            estimator = LS
        """)
        out = str(tmp_path / "rows.csv")
        res = run_cli("run", "--config", cfg, "--out", out, "--workers", "1")
        assert res.returncode == 0, res.stderr
        header = Path(out).read_text(encoding="utf-8").split("\n", 1)[0]
        assert header == "sweep_value,metric,value,std_error,trials"

    @pytest.mark.parametrize("openblas", [True, False])
    def test_run_header_on_stderr(self, tmp_path, monkeypatch, capsys, openblas):
        if not openblas:
            monkeypatch.setattr(snr, "_openblas", lambda: None)
        elif snr.blas_threads() is None:
            pytest.skip("numpy loaded no OpenBLAS here")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        cfg = _write(tmp_path, """
            n_antennas = 3
            pilot_count = 3
            trials = 8
            sweep = SNR_SWEEP
            sweep_grid = 0, 10
            estimator = LS
        """)
        out = tmp_path / "rows.csv"
        # this process's own count, which the kernel pins down for its calls
        threads = (f"blas_threads_at_start={snr.blas_threads()}, "
                   f"kernel_blas_threads={snr.KERNEL_BLAS_THREADS}" if openblas
                   else "blas_threads=unpinned (no OpenBLAS loaded in this process)")
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"bsc-estim run: workers=1, blas={_blas_build()}, {threads}"]
        assert captured.out == f"wrote 16 rows to {out}\n"

    def test_workers_override_zero_means_auto(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        cfg = _write(tmp_path, """
            n_antennas = 3
            trials = 8
            sweep_grid = 0
            estimator = LS
        """)
        out = tmp_path / "rows.csv"
        assert cli.main(["run", "--config", cfg, "--out", str(out),
                         "--workers", "0"]) == 0
        assert "bsc-estim run: workers=1," in capsys.readouterr().err
        assert out.exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--trials", "0", "trials must be >= 1, got 0"),
        ("--workers", "-1", f"workers must be in [0, {MAX_WORKERS}] (0 = auto), got -1"),
        # refused before any worker process could start
        ("--workers", str(MAX_WORKERS + 1),
         f"workers must be in [0, {MAX_WORKERS}] (0 = auto), got {MAX_WORKERS + 1}"),
        ("--seed", "-5", "seed must be >= 0, got -5"),
    ])
    def test_override_follows_config_rule(self, tmp_path, capsys, monkeypatch, flag,
                                          value, message):
        monkeypatch.setattr("bsc_estim.experiments.iter_experiment", pytest.fail)
        out = tmp_path / "rows.csv"
        rc = cli.main(["run", "--config", _write(tmp_path, "trials = 3\n"),
                       "--out", str(out), flag, value])
        assert rc == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("body, message", [
        # a range sweep derives beta at each range: the given one was dropped
        ("beta = 1e-3\nsweep = JOINT\nsweep_grid = 60, 100\n",
         "JOINT supplies beta itself; remove the beta key"),
        ("beta = 1e-3\nsweep = COMPARE\nsweep_grid = 60, 100\n",
         "COMPARE supplies beta itself; remove the beta key"),
        # the dBm value won, so this ran at 0.1 W
        ("tx_power = 5\ntx_power_dbm = 20\nsweep = COMPARE\nsweep_grid = 60\n",
         "set tx_power or tx_power_dbm, not both"),
        # the last value used to win, so this ran at N = 8
        ("n_antennas = 4\n# resized\nn_antennas = 8\n",
         "line 3: 'n_antennas' is already set on line 1"),
        *[(f"{given}\nsweep = {sweep}\n", f"{sweep} supplies {_supplied_key(given)} "
           f"itself; remove the {_supplied_key(given)} key")
          for sweep, given in _SUPPLIED_KEYS],
    ], ids=["JOINT-beta", "COMPARE-beta", "tx_power-tx_power_dbm", "key-set-twice",
            *[f"{sweep}-{_supplied_key(given)}" for sweep, given in _SUPPLIED_KEYS]])
    def test_conflicting_keys_fail_at_load(self, tmp_path, capsys, monkeypatch, body,
                                           message):
        monkeypatch.setattr("bsc_estim.experiments.iter_experiment", pytest.fail)
        out = tmp_path / "rows.csv"
        rc = cli.main(["run", "--config", _write(tmp_path, body), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_validation_error_exit_one(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        # a bad value, and a file that is not UTF-8, which raised
        # UnicodeDecodeError with a traceback
        for body in (b"trials = 0\n", b"n_antennas = 4 # caf\xe9\n"):
            cfg.write_bytes(body)
            for command in ("run", "optimize"):
                res = run_cli(command, "--config", str(cfg))
                assert res.returncode == 1, (command, body)
                assert res.stderr.startswith("config error: "), (command, res.stderr)
                assert "Traceback" not in res.stderr

    def test_runtime_error_exit_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("bsc_estim.experiments.iter_experiment",
                            _fail_after_one_table)
        rc = cli.main(["run", "--config", _write(tmp_path, ""),
                       "--out", str(tmp_path / "rows.csv")])
        assert rc == 2
        assert "runtime error: injected failure after one table" in capsys.readouterr().err

    @pytest.mark.parametrize("command,target", [
        ("run", "bsc_estim.cli._run_header"),
        ("optimize", "bsc_estim.experiments.load_config"),
        ("selftest", "bsc_estim.cli._selftest_checks"),
    ], ids=["run", "optimize", "selftest"])
    def test_unplanned_failure_is_one_runtime_error_line(self, tmp_path, capsys,
                                                         monkeypatch, command, target):
        # a traceback would exit 1, which reads as a config error
        def boom(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(target, boom)
        argv = {"run": ["--config", _write(tmp_path, "trials = 3\n"),
                        "--out", str(tmp_path / "rows.csv")],
                "optimize": ["--config", _write(tmp_path, "")], "selftest": []}[command]
        assert cli.main([command, *argv]) == 2
        assert capsys.readouterr().err == "runtime error: boom\n"

    @pytest.mark.parametrize("via,empty", [
        ("--out", False), ("output_path", False),
        # an empty path ran every point, then failed to write with exit 2
        ("--out", True), ("output_path", True),
    ], ids=["--out", "output_path", "--out-empty", "output_path-empty"])
    def test_output_path_that_is_a_directory_fails_at_load(self, tmp_path, capsys,
                                                           monkeypatch, via, empty):
        monkeypatch.setattr("bsc_estim.experiments.iter_experiment", pytest.fail)
        if empty:
            out, message = "", "output path is empty"
        else:
            out = tmp_path / "rows.csv"
            out.mkdir()
            message = f"output path is a directory: {str(out)!r}"
        if via == "--out":
            argv = ["--config", _write(tmp_path, "trials = 3\n"), "--out", str(out)]
        else:
            argv = ["--config", _write(tmp_path, f"trials = 3\noutput_path = {out}\n")]
        rc = cli.main(["run", *argv])
        assert rc == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["exp.cfg"]

    @pytest.mark.parametrize("via", ["--out", "output_path"])
    def test_missing_output_directory_fails_at_load(self, tmp_path, capsys,
                                                    monkeypatch, via):
        monkeypatch.setattr("bsc_estim.experiments.iter_experiment", pytest.fail)
        missing = tmp_path / "missing_dir"
        out = missing / "rows.csv"
        if via == "--out":
            argv = ["--config", _write(tmp_path, "trials = 3\n"), "--out", str(out)]
        else:
            argv = ["--config", _write(tmp_path, f"trials = 3\noutput_path = {out}\n")]
        rc = cli.main(["run", *argv])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"config error: output directory does not exist: {str(missing)!r}\n")
        assert not missing.exists()

    def test_failed_run_leaves_nothing_at_output_path(self, tmp_path, monkeypatch):
        monkeypatch.setattr("bsc_estim.experiments.iter_experiment",
                            _fail_after_one_table)
        out = tmp_path / "rows.csv"
        rc = cli.main(["run", "--config", _write(tmp_path, ""), "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        partial = tmp_path / "rows.csv.partial"
        assert len(partial.read_text(encoding="utf-8").splitlines()) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "exp.cfg", "rows.csv.partial"]

    def test_failed_partial_write_is_reported(self, tmp_path, capsys, monkeypatch):
        out_dir = tmp_path / "out"
        out_dir.mkdir()

        def fail_after_losing_the_directory(cfg):
            yield ResultTable.from_rows([(0.0, "p_r_ls", 1.0, 0.0, 5)])
            out_dir.rmdir()
            raise RuntimeError("injected failure after one table")

        monkeypatch.setattr("bsc_estim.experiments.iter_experiment",
                            fail_after_losing_the_directory)
        partial = out_dir / "rows.csv.partial"
        rc = cli.main(["run", "--config", _write(tmp_path, ""),
                       "--out", str(out_dir / "rows.csv")])
        assert rc == 2
        # the header line, then the lost rows, then the runtime error
        assert capsys.readouterr().err.splitlines()[1:] == [
            f"could not write partial rows to {partial}: "
            f"output directory does not exist: {str(out_dir)!r}",
            "runtime error: injected failure after one table"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("line", [
        "noise_var = nan", "distance = inf", "beta = inf", "ce_time = nan",
        # ranges and carriers outside their rows; the derived path-loss gain
        # would overflow or underflow to zero
        "distance = 1e300", "carrier_freq = 1e200", "distance = 1e-300",
        # a gain below the beta row, given or derived at 1e79 m
        "beta = 1e-200", "distance = 1e79",
        # a subnormal float
        "noise_var = 1e-320",
        # powers and noise outside their rows: the design's SNR overflowed
        # (it printed Infinity) or underflowed to zero (-Infinity dB)
        "n_antennas = 20\ntx_power = 1e306\nsweep = COMPARE\nsweep_grid = 60, 100",
        "tx_power = 1e306", "noise_var = 1e306",
        # checked before the conversion, which would raise OverflowError
        "tx_power_dbm = 4000",
        # past the array-size row: it failed at run time in the optimizer
        "n_antennas = 4000000000",
        # a negative seed, which numpy's seeding refuses
        "seed = -1",
    ])
    def test_non_finite_input_fails_at_load(self, tmp_path, line):
        res = run_cli("optimize", "--config", _write(tmp_path, line + "\n"))
        assert res.returncode == 1, res.stdout + res.stderr
        assert "config error" in res.stderr

    def test_non_finite_sweep_grid_fails_at_load(self, tmp_path):
        cfg = _write(tmp_path, "n_antennas = 2\ntrials = 3\nsweep_grid = 0, nan\n")
        out = tmp_path / "rows.csv"
        res = run_cli("run", "--config", cfg, "--out", str(out), "--workers", "1")
        assert res.returncode == 1, res.stderr
        assert "config error" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("body", [
        "n_antennas = 4\nsweep = K_SWEEP\nsweep_grid = 1, 2, 30\n",
        "n_antennas = 4\nsweep = K_SWEEP\nsweep_grid = 0.4, 1.2\n",
        "n_antennas = 4\nsweep = K_SWEEP\nsweep_grid = 1.2, 1.4\n",
        "sweep = N_SWEEP\nsweep_grid = 0.2, 2\n",
        "sweep = TAU_SWEEP\nsweep_grid = -1e-4, 1e-4\n",
        "sweep = COMPARE\nsweep_grid = -5, 60\n",
        "sweep = JOINT\nsweep_grid = 0, 60\n",
        # ranges past their row, whose path-loss gain would underflow to zero
        # or overflow
        "sweep = COMPARE\nsweep_grid = 60, 1e300\n",
        "sweep = COMPARE\nsweep_grid = 1e-300, 60\n",
        "sweep = JOINT\nsweep_grid = 60, 1e300\n",
        "sweep = JOINT\nsweep_grid = 1e-130, 60\n",
        # array sizes past their row
        "sweep = N_SWEEP\nsweep_grid = 2, 4e9\n",
        "n_antennas = 4000000000\nsweep = COMPARE\nsweep_grid = 60\n",
        # refused before K_SWEEP's default grid lists 1..N
        "n_antennas = 1000000000\nsweep = K_SWEEP\n",
        # gains below the beta row: beta = 1e-200, given or derived at 1e79 m
        "beta = 1e-200\nsweep = N_SWEEP\nsweep_grid = 2, 4\n",
        "sweep = COMPARE\nsweep_grid = 60, 1e79\n",
        "sweep = JOINT\nsweep_grid = 60, 1e79\n",
        "n_antennas = 4\nbeta = 1e-200\nsweep = SNR_SWEEP\n",
        "n_antennas = 4\nbeta = 1e-200\nsweep = K_SWEEP\n",
        "n_antennas = 4\nbeta = 1e-200\nsweep = TAU_SWEEP\n",
        # training SNRs whose derived noise level is subnormal (3000 dB), or
        # whose 10 ** (dB / 10) under- or overflows
        "n_antennas = 2\nsweep = SNR_SWEEP\nsweep_grid = 0, 3000\n",
        "n_antennas = 2\nsweep = SNR_SWEEP\nsweep_grid = -4000, 0, 4000\n",
        # powers past their row, where SNRs overflowed: the closed forms, and
        # the Monte Carlo scale (tau - tau_c) p_t a_id^2 / N0 where snr_approx
        # is finite
        "n_antennas = 20\ntx_power = 1e306\nsweep = COMPARE\nsweep_grid = 60, 100\n",
        "n_antennas = 4\ntx_power = 1e306\nsweep = K_SWEEP\ntrials = 4\n"
        "sweep_grid = 1, 4\n",
        # snr_perfect rounds to the largest float, snr_fixed at tau_c -> 0 past it
        "n_antennas = 3\ntx_power = 3.233325267445485e307\nce_time = 1e-25\n"
        "sweep = N_SWEEP\nsweep_grid = 3\n",
        # snr_perfect underflowed to zero and the norm_* rows divided by it
        "noise_var = 1e306\nsweep = COMPARE\nsweep_grid = 60, 100\n",
        # p_r_perfect = N p_t beta overflowed to inf
        "n_antennas = 200\nbeta = 1\ntx_power = 1e306\nnoise_var = 1e300\n"
        "trials = 2\nsweep_grid = 0\n",
        "tx_power_dbm = 4000\n",
        # a negative seed: SNR_SWEEP failed at run time in numpy's seeding,
        # and COMPARE, which draws nothing, exited 0
        "n_antennas = 2\nseed = -1\nsweep_grid = 0\n",
        "seed = -1\nsweep = COMPARE\nsweep_grid = 60\n",
    ])
    def test_grid_outside_sweep_domain_fails_at_load(self, tmp_path, capsys, body):
        cfg = _write(tmp_path, "trials = 3\nestimator = LS\n" + body)
        out = tmp_path / "rows.csv"
        rc = cli.main(["run", "--config", cfg, "--out", str(out), "--workers", "1"])
        assert rc == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "rows.csv.partial").exists()

    def test_optimize_prints_outcome_block(self, tmp_path):
        import json
        cfg = _write(tmp_path, "")
        res = run_cli("optimize", "--config", cfg)
        assert res.returncode == 0, res.stderr
        block = json.loads(res.stdout)
        assert set(block) == {"tau_c_opt", "k_opt", "predicted_snr",
                              "predicted_snr_db", "decision_path",
                              "estimator_choice"}
        assert block["k_opt"] in (1, 20)
        assert block["estimator_choice"] == "LMMSE"   # prior stats default on

    def test_selftest_passes(self):
        res = run_cli("selftest")
        assert res.returncode == 0, res.stdout + res.stderr
        assert "FAIL" not in res.stdout


needs_openblas = pytest.mark.skipif(snr.blas_threads() is None,
                                    reason="numpy loaded no OpenBLAS here")


class TestBlasThreadDefault:
    """``bsc-estim`` starts OpenBLAS at the kernel's thread count before
    numpy loads, unless the user chose a count or numpy is loaded already."""

    TINY = """
        n_antennas = 3
        pilot_count = 3
        trials = 8
        sweep = SNR_SWEEP
        sweep_grid = 0
        estimator = LS
    """

    def test_importing_the_package_and_cli_loads_no_numpy(self):
        res = run_python("-c", (
            "import os, sys; before = dict(os.environ)\n"
            "import bsc_estim, bsc_estim.cli\n"
            "print('numpy' in sys.modules, dict(os.environ) == before)"))
        assert res.returncode == 0, res.stderr
        assert res.stdout == "False True\n"

    @needs_openblas
    @pytest.mark.parametrize("var,threads", [
        (None, snr.KERNEL_BLAS_THREADS),
        ("OPENBLAS_NUM_THREADS", 2),
        ("OMP_NUM_THREADS", 2),
    ])
    def test_cli_process_starts_openblas_at_kernel_count_unless_user_set(
            self, tmp_path, monkeypatch, var, threads):
        if threads > len(os.sched_getaffinity(0)):
            pytest.skip("OpenBLAS caps its threads at the CPUs this process may use")
        for name in cli._BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        if var is not None:
            monkeypatch.setenv(var, str(threads))
        res = run_cli("run", "--config", _write(tmp_path, self.TINY),
                      "--out", str(tmp_path / "rows.csv"), "--workers", "1")
        assert res.returncode == 0, res.stderr
        assert (f"blas_threads_at_start={threads}, "
                f"kernel_blas_threads={snr.KERNEL_BLAS_THREADS}") in res.stderr

    def test_in_process_main_leaves_environment_alone(self, tmp_path, monkeypatch,
                                                      capsys):
        # numpy is loaded here, so a variable could no longer act
        for name in cli._BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        before = dict(os.environ)
        threads = snr.blas_threads()
        assert cli.main(["run", "--config", _write(tmp_path, self.TINY),
                         "--out", str(tmp_path / "rows.csv"), "--workers", "1"]) == 0
        assert dict(os.environ) == before
        if threads is not None:
            assert f"blas_threads_at_start={threads}," in capsys.readouterr().err
