import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bsc_estim import cli, snr
from bsc_estim.experiments import (
    DEFAULTS,
    ConfigError,
    ResultRow,
    load_config,
    run_experiment,
    write_csv,
)

DATA = Path(__file__).parent / "data"


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


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

    def test_unknown_key_warns_not_errors(self, tmp_path):
        with pytest.warns(UserWarning, match="unknown key"):
            cfg = load_config(_write(tmp_path, "frobnicate = 7\n"))
        assert cfg.params.n_antennas == 20

    def test_zero_trials_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="trials"):
            load_config(_write(tmp_path, "trials = 0\n"))

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

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.cfg")


class TestWriteCsv:
    def test_single_row_two_lines(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_csv([ResultRow(1.0, "snr", 2.1488, 0.0, 100)], path)
        lines = open(path, encoding="utf-8").read().split("\n")
        assert lines[0] == "sweep_value,metric,value,std_error,trials"
        assert len(lines) == 3 and lines[2] == ""     # newline-terminated
        assert lines[1].split(",")[2] == "2.14880000000"

    def test_formatting_contract(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_csv([ResultRow(0.5, "x", 6.807389387418555e-9, 0.0, 1)], path)
        value = open(path, encoding="utf-8").read().split("\n")[1].split(",")[2]
        assert float(value) == pytest.approx(6.807389387418555e-9, rel=1e-11)

    def test_missing_directory_named(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no/such"):
            write_csv([ResultRow(0, "x", 1.0, 0.0, 1)],
                      str(tmp_path / "no" / "such" / "out.csv"))

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], str(tmp_path / "out.csv"))

    def test_replaces_existing_file_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("stale\n", encoding="utf-8")
        write_csv([ResultRow(1.0, "snr", 2.0, 0.0, 1)], str(path))
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
        rows = run_experiment(cfg)
        metrics = {r.metric_name for r in rows}
        assert {"p_r_ls", "p_r_lmmse", "mse_ls", "snr_mc_ls", "snr_approx",
                "snr_perfect", "snr_isotropic", "p_r_perfect",
                "p_r_isotropic"} <= metrics
        assert {r.sweep_value for r in rows} == {0.0, 10.0}

    def test_tau_sweep_full_training_row_is_zero(self, tmp_path):
        cfg = _quick_cfg(tmp_path, """
            n_antennas = 3
            pilot_count = 3
            trials = 40
            sweep = TAU_SWEEP
            sweep_grid = 2e-4, 1e-3
            estimator = LS
        """)
        rows = run_experiment(cfg)
        at_tau = [r for r in rows if r.sweep_value == pytest.approx(1e-3)
                  and r.metric_name.startswith("snr")]
        assert at_tau and all(r.value == 0.0 for r in at_tau)
        marker = [r for r in rows if r.metric_name == "tau_c_opt"]
        assert len(marker) == 1

    def test_k_sweep_normalization(self, tmp_path):
        cfg = _quick_cfg(tmp_path, """
            n_antennas = 4
            trials = 60
            sweep = K_SWEEP
            estimator = LS
        """)
        rows = run_experiment(cfg)
        norm1 = [r for r in rows
                 if r.metric_name == "p_r_norm_ls" and r.sweep_value == 1]
        assert norm1[0].value == pytest.approx(1.0, rel=1e-12)

    def test_compare_reproduces_isotropic_normalization(self, tmp_path):
        cfg = _quick_cfg(tmp_path, """
            trials = 1
            sweep = COMPARE
            sweep_grid = 100
        """)
        rows = run_experiment(cfg)
        norm = [r for r in rows if r.metric_name == "norm_isotropic"]
        assert len(norm) == 1
        assert norm[0].value == pytest.approx(2.0 / 420.0, abs=1e-5)

    def test_n_sweep_emits_joint_design(self, tmp_path):
        cfg = _quick_cfg(tmp_path, """
            trials = 1
            sweep = N_SWEEP
            sweep_grid = 4, 8
        """)
        rows = run_experiment(cfg)
        metrics = {r.metric_name for r in rows}
        assert {"k_joint", "tau_c_joint", "snr_joint", "snr_fixed",
                "snr_opt_ta"} <= metrics

    def test_joint_sweep(self, tmp_path):
        cfg = _quick_cfg(tmp_path, """
            trials = 1
            sweep = JOINT
            sweep_grid = 80, 120
        """)
        rows = run_experiment(cfg)
        ks = [r for r in rows if r.metric_name == "k_joint"]
        assert len(ks) == 2
        assert all(r.value in (1.0, 20.0) for r in ks)

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
        rows = run_experiment(cfg)
        assert {r.metric_name for r in rows} >= {"snr_mc_ls", "snr_mc_lmmse"}
        assert len(calls) == 7 * 3

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
        rows_a = run_experiment(_quick_cfg(tmp_path, body))
        rows_b = run_experiment(_quick_cfg(tmp_path, body))
        assert rows_a == rows_b


class TestGoldenCsv:
    # Frozen CSV bytes; a change that moves them on purpose re-records the
    # fixture and says why.  k_sweep_n8 covers K = 1, mid-K refinement and
    # K = N for both estimators.
    @pytest.mark.parametrize("name", ["c11_snr_sweep", "k_sweep_n8"])
    def test_cli_reproduces_fixture(self, tmp_path, name):
        out = tmp_path / f"{name}.csv"
        rc = cli.main(["run", "--config", str(DATA / f"{name}.cfg"),
                       "--out", str(out), "--workers", "1"])
        assert rc == 0
        assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()


class TestCli:
    def _run(self, *args):
        return subprocess.run([sys.executable, "-m", "bsc_estim.cli", *args],
                              capture_output=True, text=True)

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
        res = self._run("run", "--config", cfg, "--out", out, "--workers", "1")
        assert res.returncode == 0, res.stderr
        header = open(out, encoding="utf-8").readline().strip()
        assert header == "sweep_value,metric,value,std_error,trials"

    def test_validation_error_exit_one(self, tmp_path):
        cfg = _write(tmp_path, "trials = 0\n")
        res = self._run("run", "--config", cfg)
        assert res.returncode == 1
        assert "config error" in res.stderr

    def test_runtime_error_exit_two(self, tmp_path):
        cfg = _write(tmp_path, """
            n_antennas = 3
            pilot_count = 3
            trials = 5
            sweep = SNR_SWEEP
            sweep_grid = 0
            estimator = LS
        """)
        res = self._run("run", "--config", cfg, "--out",
                        str(tmp_path / "missing_dir" / "rows.csv"),
                        "--workers", "1")
        assert res.returncode == 2
        assert "runtime error" in res.stderr

    def test_failed_run_leaves_nothing_at_output_path(self, tmp_path, monkeypatch):
        def failing(cfg):
            yield ResultRow(0.0, "p_r_ls", 1.0, 0.0, 5)
            raise RuntimeError("injected failure after one row")

        monkeypatch.setattr("bsc_estim.experiments.iter_experiment", failing)
        out = tmp_path / "rows.csv"
        rc = cli.main(["run", "--config", _write(tmp_path, ""), "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        partial = tmp_path / "rows.csv.partial"
        assert len(partial.read_text(encoding="utf-8").splitlines()) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "exp.cfg", "rows.csv.partial"]

    @pytest.mark.parametrize("line", [
        "noise_var = nan", "distance = inf", "beta = inf", "ce_time = nan",
        # the derived path-loss gain overflows or underflows to zero
        "distance = 1e300", "carrier_freq = 1e200",
    ])
    def test_non_finite_input_fails_at_load(self, tmp_path, line):
        res = self._run("optimize", "--config", _write(tmp_path, line + "\n"))
        assert res.returncode == 1, res.stdout + res.stderr
        assert "config error" in res.stderr

    def test_non_finite_sweep_grid_fails_at_load(self, tmp_path):
        cfg = _write(tmp_path, "n_antennas = 2\ntrials = 3\nsweep_grid = 0, nan\n")
        out = tmp_path / "rows.csv"
        res = self._run("run", "--config", cfg, "--out", str(out), "--workers", "1")
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
        res = self._run("optimize", "--config", cfg)
        assert res.returncode == 0, res.stderr
        block = json.loads(res.stdout)
        assert set(block) == {"tau_c_opt", "k_opt", "predicted_snr",
                              "predicted_snr_db", "decision_path",
                              "estimator_choice"}
        assert block["k_opt"] in (1, 20)
        assert block["estimator_choice"] == "LMMSE"   # prior stats default on

    def test_selftest_passes(self):
        res = self._run("selftest")
        assert res.returncode == 0, res.stdout + res.stderr
        assert "FAIL" not in res.stdout
