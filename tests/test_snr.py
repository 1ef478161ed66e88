import json
import math
import multiprocessing
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from bsc_estim import (
    LMMSE,
    LS,
    PilotConfig,
    approx_moments,
    backscatter,
    build_pilots,
    ce_snr,
    draw_channel,
    ls_matrix,
    mc_metrics,
    snr_approx,
    snr_isotropic,
    snr_perfect_csi,
    vector_estimate,
)
from bsc_estim import snr
from bsc_estim.snr import (
    KERNEL_BLAS_THREADS,
    METRICS,
    _mc_samples,
    blas_threads,
    set_blas_threads,
)
from conftest import make_params, params_at_ce_snr_db, random_channel_vector, run_python
from _oracles import corner_received_power, effective_snr_sample

DATA = Path(__file__).parent / "data"

# Training SNR at the reference configuration (tau_c = 0.1 ms), frozen from
# a 40-digit evaluation of beta^2 a0^2 p_t tau_c / N0.
CE_SNR_REFERENCE = 0.2819359078544755


def _mc(params, cfg, flavor, metric, trials, seed, workers=1):
    """One flavor's Monte Carlo estimate of one metric."""
    est = mc_metrics(params, cfg, (flavor,), trials, seed, (metric,), workers)
    return est[flavor, metric]


class TestEffectiveSnrSample:
    def test_perfect_estimate(self):
        p = make_params(n_antennas=4, beta=1.0)
        rng = np.random.default_rng(0)
        h = random_channel_vector(rng, 4)
        got = effective_snr_sample(h, h, p, 1e-4)
        unit = (p.coherence_time - 1e-4) * p.tx_power * p.tag_amp_id ** 2 / p.noise_var
        assert got == pytest.approx(unit * np.linalg.norm(h) ** 4, rel=1e-12)

    def test_orthogonal_estimate_scores_zero(self):
        p = make_params(n_antennas=2, beta=1.0)
        h = np.array([1.0, 0.0], complex)
        g = np.array([0.0, 1.0], complex)
        assert effective_snr_sample(g, h, p, 1e-4) == 0.0

    def test_sign_flip_invariant(self):
        p = make_params(n_antennas=3, beta=1.0)
        rng = np.random.default_rng(1)
        h = random_channel_vector(rng, 3)
        g = random_channel_vector(rng, 3)
        assert effective_snr_sample(g, h, p, 1e-4) == pytest.approx(
            effective_snr_sample(-g, h, p, 1e-4), rel=1e-12)

    def test_no_decode_time_left(self):
        p = make_params()
        h = np.ones(20, complex)
        assert effective_snr_sample(h, h, p, p.coherence_time) == 0.0
        assert effective_snr_sample(h, h, p, 2 * p.coherence_time) == 0.0


class TestBenchmarks:
    def test_perfect_csi_single_antenna_equals_isotropic(self):
        p = make_params(n_antennas=1)
        assert snr_perfect_csi(p) == pytest.approx(
            snr_isotropic(p), rel=1e-12)

    def test_perfect_csi_reference_count(self):
        p = make_params(n_antennas=20)
        unit = p.coherence_time * p.tx_power * p.tag_amp_id ** 2 * p.beta ** 2 / p.noise_var
        assert snr_perfect_csi(p) == pytest.approx(420 * unit, rel=1e-12)

    def test_perfect_csi_monte_carlo(self):
        # genie beamformer, no training time: fourth-moment oracle N(N+1)beta^2
        p = make_params(n_antennas=6, beta=1.0)
        rng = np.random.default_rng(2)
        vals = []
        for _ in range(10_000):
            h = random_channel_vector(rng, 6)
            vals.append(effective_snr_sample(h, h, p, 0.0))
        assert np.mean(vals) == pytest.approx(snr_perfect_csi(p),
                                              rel=0.05)

    def test_isotropic_monte_carlo(self):
        p = make_params(n_antennas=6, beta=1.0)
        rng = np.random.default_rng(3)
        ones = np.ones(6, complex)
        vals = []
        for _ in range(10_000):
            h = random_channel_vector(rng, 6)
            vals.append(effective_snr_sample(ones, h, p, 0.0))
        assert np.mean(vals) == pytest.approx(snr_isotropic(p),
                                              rel=0.05)

    def test_isotropic_ratio_and_n_independence(self):
        p20 = make_params(n_antennas=20)
        p5 = make_params(n_antennas=5)
        ratio = snr_isotropic(p20) / snr_perfect_csi(p20)
        assert ratio == pytest.approx(2.0 / (20 * 21), abs=1e-15)
        assert snr_isotropic(p20) == pytest.approx(
            snr_isotropic(p5), rel=1e-12)


class TestSnrApprox:
    def test_vanishes_at_full_training(self):
        p = make_params()
        tau = p.coherence_time
        assert snr_approx(tau * (1 - 1e-9), 20, p) \
            == pytest.approx(0.0, abs=snr_approx(tau / 2, 20, p) * 1e-8)
        with pytest.raises(ValueError):
            snr_approx(tau, 20, p)
        with pytest.raises(ValueError):
            snr_approx(tau / 2, 21, p)

    def test_collapses_to_perfect_csi_shape(self):
        # infinite training energy: shape factor tends to N (N + 1)
        p = make_params(n_antennas=20, noise_var=1e-40)
        got = snr_approx(1e-4, 20, p)
        unit = ((p.coherence_time - 1e-4) * p.tx_power * p.tag_amp_id ** 2
                * p.beta ** 2 / p.noise_var)
        assert got == pytest.approx(unit * 420, rel=1e-10)

    def test_matches_variance_parameterized_form(self):
        # same closed form written through the estimate-variance parameter
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(1, n + 1))
            p = make_params(
                n_antennas=n,
                noise_var=10.0 ** rng.uniform(-22, -16),
                tx_power=10.0 ** rng.uniform(-1, 1),
                distance=rng.uniform(30, 300),
            )
            tau_c = rng.uniform(0.05, 0.95) * p.coherence_time
            e_c = p.tx_power * tau_c
            sigma2_hat = math.sqrt(p.beta ** 2 + k * p.noise_var
                                   / (p.tag_amp_ce ** 2 * e_c))
            x = p.beta / sigma2_hat
            shape = x * (n - 1) * (x * (n - 2) + 4) + 2
            expected = ((p.coherence_time - tau_c) * p.tx_power
                        * p.tag_amp_id ** 2 * p.beta ** 2 / p.noise_var) * shape
            got = snr_approx(tau_c, k, p)
            assert got == pytest.approx(expected, rel=1e-10)

    def test_concave_in_training_time(self):
        p = make_params()
        for k in (1, 10, 20):
            grid = np.linspace(0.01, 0.99, 100) * p.coherence_time
            vals = np.array([snr_approx(t, k, p) for t in grid])
            second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
            assert second.max() <= 1e-9 * np.abs(vals).max()

    def test_convex_in_relaxed_pilot_count(self):
        p = make_params()
        ks = np.linspace(1, 20, 39)
        rho0 = p.noise_var / (p.beta ** 2 * p.tag_amp_ce ** 2 * p.tx_power * 1e-4)
        unit = ((p.coherence_time - 1e-4) * p.tx_power * p.tag_amp_id ** 2
                * p.beta ** 2 / p.noise_var)
        vals = np.array([unit * (342 / (1 + rho0 * k)
                                 + 76 / math.sqrt(1 + rho0 * k) + 2) for k in ks])
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        assert second.min() >= -1e-9 * np.abs(vals).max()


class TestCeSnr:
    def test_reference_anchor(self):
        p = make_params()
        assert ce_snr(PilotConfig(20, 1e-4), p) == pytest.approx(
            CE_SNR_REFERENCE, rel=1e-12)

    def test_linear_in_training_time(self):
        p = make_params()
        one = ce_snr(PilotConfig(20, 1e-4), p)
        two = ce_snr(PilotConfig(20, 2e-4), p)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_independent_of_pilot_count(self):
        p = make_params()
        assert ce_snr(PilotConfig(1, 1e-4), p) == ce_snr(PilotConfig(20, 1e-4), p)


class TestApproxMoments:
    def test_limits(self):
        p = make_params(n_antennas=4)
        # huge energy: LS variance collapses
        rich = approx_moments(LS, PilotConfig(4, 1e-4),
                              make_params(n_antennas=4, noise_var=1e-40), 1.0)
        assert rich.sigma2 == pytest.approx(0.0, abs=1e-12 * p.beta)
        # vanishing energy: variance saturates at the prior power
        poor = approx_moments(LS, PilotConfig(4, 1e-12),
                              make_params(n_antennas=4, noise_var=1e-10), 1.0)
        assert poor.sigma2 == pytest.approx(p.beta, rel=1e-6)

    def test_sigma_bounded_by_beta(self):
        p = params_at_ce_snr_db(0.0)
        for flavor in (LS, LMMSE):
            mom = approx_moments(flavor, PilotConfig(20, 1e-4), p, 2.0)
            assert 0 <= mom.sigma2 <= p.beta

    def test_lmmse_mu_is_estimate_norm(self):
        p = params_at_ce_snr_db(10.0)
        mom = approx_moments(LMMSE, PilotConfig(20, 1e-4), p, 3.7)
        assert mom.mu == pytest.approx(3.7)

    def test_conditional_model_consistency(self):
        # sample the Gaussian conditional model at a fixed realized estimate
        # and check the closed-form moments reproduce its statistics
        p = params_at_ce_snr_db(20.0, n_antennas=8)
        cfg = PilotConfig(8, 1e-4)
        chan = draw_channel(p, (5, 0), pilot_count=8)
        rx = backscatter(chan, build_pilots(8, 1e-4, p.tx_power),
                         p.tag_amp_ce, p.noise_var, (5, 1))
        h_hat = vector_estimate(ls_matrix(rx)).h_hat
        nh = np.linalg.norm(h_hat)
        mom = approx_moments(LS, cfg, p, nh)
        ratio = mom.mu / nh
        rng = np.random.default_rng(6)
        draws = 10_000
        cond_mean = ratio * h_hat
        noise = np.sqrt(mom.sigma2 / 2) * (
            rng.standard_normal((draws, 8)) + 1j * rng.standard_normal((draws, 8)))
        h_samples = cond_mean[None, :] + noise
        upsilon = h_samples @ h_hat.conj() / nh
        assert np.mean(upsilon).real == pytest.approx(mom.mu, rel=0.05)
        emp_var = np.mean(np.abs(upsilon - np.mean(upsilon)) ** 2)
        assert emp_var == pytest.approx(mom.sigma2, rel=0.10)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 20, 40])
    def test_moments_are_the_rician_step_behind_snr_approx(self, n):
        # snr_approx is the decoding scale times E|upsilon|^4 = mu^4 +
        # 4 mu^2 sigma2 + 2 sigma2^2 for the Rician projection upsilon ~
        # CN(mu, sigma2) of approx_moments, averaged over mu = ||h_hat|| of an
        # estimate h_hat ~ CN(0, (beta - sigma2) I_N); LS and LMMSE share
        # sigma2
        for k in sorted({1, n}):
            cfg = PilotConfig(k, 1e-4)
            for gamma_e_db in range(-10, 31, 5):
                p = params_at_ce_snr_db(float(gamma_e_db), n_antennas=n)
                sigma2 = {flavor: approx_moments(flavor, cfg, p, 1.0).sigma2
                          for flavor in (LS, LMMSE)}
                assert sigma2[LMMSE] == pytest.approx(sigma2[LS], rel=1e-12)
                scale = ((p.coherence_time - cfg.ce_time) * p.tx_power
                         * p.tag_amp_id ** 2 / p.noise_var)
                for s2 in sigma2.values():
                    mu2 = n * (p.beta - s2)
                    mu4 = n * (n + 1) * (p.beta - s2) ** 2
                    assert scale * (mu4 + 4 * mu2 * s2 + 2 * s2 ** 2) == pytest.approx(
                        snr_approx(cfg.ce_time, k, p), rel=1e-12)


class TestMonteCarlo:
    def test_deterministic_same_seed(self):
        p = params_at_ce_snr_db(10.0, n_antennas=4)
        cfg = PilotConfig(4, 1e-4)
        a = _mc(p, cfg, LS, "snr", trials=50, seed=9)
        b = _mc(p, cfg, LS, "snr", trials=50, seed=9)
        assert a == b

    def test_worker_count_does_not_change_result(self):
        p = params_at_ce_snr_db(0.0, n_antennas=4)
        cfg = PilotConfig(4, 1e-4)
        serial = _mc(p, cfg, LS, "snr", trials=40, seed=10, workers=1)
        parallel = _mc(p, cfg, LS, "snr", trials=40, seed=10, workers=3)
        assert serial == parallel

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_flavors_share_trials_bitwise(self, k, workers):
        # one pass for both flavors gives each the samples of its own pass
        p = params_at_ce_snr_db(0.0, n_antennas=6)
        cfg = PilotConfig(k, 1e-4)
        both = _mc_samples(p, cfg, (LS, LMMSE), 12, 19, METRICS, workers)
        for flavor in (LS, LMMSE):
            alone = _mc_samples(p, cfg, (flavor,), 12, 19, METRICS, workers)
            for m in METRICS:
                assert np.array(both[flavor, m]).tobytes() \
                    == np.array(alone[flavor, m]).tobytes(), (flavor, m)

    def test_samples_match_frozen_fixture(self):
        # every per-trial sample, as float.hex, at N = 6 for K = 1, mid-K and
        # K = N, both flavors, every metric, at -5 and +10 dB; a mean over
        # many trials can hide a one-ulp move in one sample, this cannot
        fixture = json.loads((DATA / "trial_samples.json").read_text(encoding="utf-8"))
        assert len(fixture["cases"]) == 6
        for case in fixture["cases"]:
            p = params_at_ce_snr_db(case["ce_snr_db"], tau_c=fixture["ce_time"],
                                    n_antennas=fixture["n_antennas"])
            cfg = PilotConfig(case["pilot_count"], fixture["ce_time"])
            got = _mc_samples(p, cfg, (LS, LMMSE), fixture["trials"],
                              fixture["seed"], METRICS)
            assert len(case["samples"]) == len(got) == 8
            for key, want in case["samples"].items():
                flavor, metric = key.split("/")
                assert [float(x).hex() for x in got[flavor, metric]] == want, \
                    (case["ce_snr_db"], case["pilot_count"], key)

    @pytest.mark.parametrize("flavors,metrics", [
        ((), ("snr",)), (("LS", "LS"), ("snr",)), ("LS", ("snr",)),
        ((LS,), ()), ((LS,), ("snr", "snr")), ((LS,), ("beam2",)),
    ])
    def test_rejects_bad_flavors_and_metrics(self, flavors, metrics):
        p = make_params(n_antennas=2)
        with pytest.raises(ValueError):
            mc_metrics(p, PilotConfig(2, 1e-4), flavors, 4, 1, metrics)

    def test_lmmse_at_n_equals_k_128(self):
        # the NK x NK dense filter would take 4.3 GB here; the shrink is O(NK)
        p = params_at_ce_snr_db(0.0, n_antennas=128)
        cfg = PilotConfig(128, 1e-4)
        mse = mc_metrics(p, cfg, (LS, LMMSE), 20, 128, ("mse_mat",))
        ls_mse, mm_mse = mse[LS, "mse_mat"], mse[LMMSE, "mse_mat"]
        assert np.isfinite([ls_mse.value, mm_mse.value]).all()
        assert mm_mse.value <= ls_mse.value
        rep = _mc(p, cfg, LMMSE, "snr", trials=10, seed=128)
        assert np.isfinite(rep.value) and rep.value > 0

    def test_lmmse_flavor_runs(self):
        p = params_at_ce_snr_db(0.0, n_antennas=4)
        rep = _mc(p, PilotConfig(4, 1e-4), LMMSE, "snr", trials=100, seed=11)
        assert rep.value > 0
        assert rep.std_error > 0

    def test_low_snr_approaches_isotropic(self):
        p = params_at_ce_snr_db(-20.0)
        rep = _mc(p, PilotConfig(20, 1e-4), LS, "snr", trials=4000, seed=12)
        iso = snr_isotropic(p)
        assert abs(10 * math.log10(rep.value) - 10 * math.log10(iso)) <= 1.0

    def test_ordering_between_benchmarks(self):
        for ge_db in (-10.0, 0.0, 10.0, 30.0):
            p = params_at_ce_snr_db(ge_db)
            cfg = PilotConfig(20, 1e-4)
            rep = _mc(p, cfg, LS, "snr", trials=3000, seed=13)
            upper = (snr_perfect_csi(p)
                     * (p.coherence_time - cfg.ce_time) / p.coherence_time)
            band = 3 * rep.std_error
            assert snr_isotropic(p) <= rep.value + band
            assert rep.value - band <= upper


class TestReceivedPower:
    def test_low_snr_sanity_floor(self):
        p = params_at_ce_snr_db(-25.0, n_antennas=8)
        rep = _mc(p, PilotConfig(8, 1e-4), LS, "p_r", trials=2000, seed=15)
        assert rep.value >= 0.5 * p.tx_power * p.beta

    @pytest.mark.parametrize("gamma_e_db", [-5.0, 0.0, 5.0])
    @pytest.mark.parametrize("k", [1, 20])
    def test_corners_match_closed_form_beam_oracle(self, k, gamma_e_db):
        # the streams C09 uses: seed 909, tau_c = 0.1 ms, N = 20
        p = params_at_ce_snr_db(gamma_e_db)
        rep = _mc(p, PilotConfig(k, 1e-4), LS, "p_r", trials=200, seed=909)
        oracle = corner_received_power(p, 1e-4, k, trials=200, seed=909)
        assert rep.value == pytest.approx(oracle, rel=1e-12)


class TestEstimateMse:
    def test_noiseless_is_zero(self):
        p = make_params(n_antennas=4, noise_var=1e-45)
        mse = _mc(p, PilotConfig(4, 1e-4), LS, "mse_vec", trials=50, seed=16)
        assert mse.value <= 1e-12 * 4 * p.beta

    def test_monotone_in_training_snr(self):
        values = []
        for ge_db in (-10.0, 0.0, 10.0, 30.0):
            p = params_at_ce_snr_db(ge_db, n_antennas=6)
            values.append(_mc(p, PilotConfig(6, 1e-4), LS, "mse_vec",
                              trials=3000, seed=17).value)
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_lmmse_not_worse_at_unity_snr(self):
        p = params_at_ce_snr_db(0.0, n_antennas=6)
        cfg = PilotConfig(6, 1e-4)
        mse = mc_metrics(p, cfg, (LS, LMMSE), 5000, 18, ("mse_vec",))
        assert mse[LMMSE, "mse_vec"].value <= mse[LS, "mse_vec"].value * 1.02


def _worker_blas_threads(_):
    """A pool worker's OpenBLAS thread count."""
    return blas_threads()


def _bytes(samples):
    return {key: np.array(values).tobytes() for key, values in samples.items()}


needs_openblas = pytest.mark.skipif(
    blas_threads() is None,
    reason="numpy loaded no OpenBLAS here, so its thread count cannot be read")


class TestKernelThreadsAndPool:
    P = params_at_ce_snr_db(0.0, n_antennas=6)
    CFG = PilotConfig(3, 1e-4)
    ARGS = (P, CFG, (LS, LMMSE), 24, 21, METRICS)

    def test_loading_the_runner_imports_no_process_pool(self):
        # only a parallel call needs multiprocessing, whose import every run would pay
        res = run_python("-c", "import sys, bsc_estim.cli, bsc_estim.experiments; "
                         "print('multiprocessing' in sys.modules)")
        assert res.returncode == 0, res.stderr
        assert res.stdout == "False\n"

    @needs_openblas
    def test_serial_kernel_runs_pinned_and_restores_caller(self, monkeypatch):
        seen = []
        chunk = snr._trial_chunk
        monkeypatch.setattr(snr, "_trial_chunk",
                            lambda args: seen.append(blas_threads()) or chunk(args))
        previous = set_blas_threads(KERNEL_BLAS_THREADS + 1)
        try:
            caller = blas_threads()
            mc_metrics(*self.ARGS, workers=1)
            after_serial = blas_threads()
            monkeypatch.undo()  # workers cannot unpickle the spy
            mc_metrics(*self.ARGS, workers=2)
            after_parallel = blas_threads()
        finally:
            set_blas_threads(previous)
        assert caller == KERNEL_BLAS_THREADS + 1
        assert seen == [KERNEL_BLAS_THREADS]
        assert after_serial == after_parallel == caller

    @needs_openblas
    def test_pool_workers_run_pinned(self):
        # workers forked from an unpinned caller still run with one thread
        snr._POOL.shutdown()
        previous = set_blas_threads(KERNEL_BLAS_THREADS + 1)
        try:
            reports = snr._POOL.map(_worker_blas_threads, range(8), 2)
        finally:
            set_blas_threads(previous)
        assert set(reports) == {KERNEL_BLAS_THREADS}

    @needs_openblas
    def test_pool_workers_run_pinned_under_spawn(self):
        pool = snr._WorkerPool(mp_context=multiprocessing.get_context("spawn"))
        try:
            reports = pool.map(_worker_blas_threads, range(4), 2)
        finally:
            pool.shutdown()
        assert set(reports) == {KERNEL_BLAS_THREADS}

    def test_parallel_calls_reuse_one_pool_and_match_serial(self):
        serial = _bytes(_mc_samples(*self.ARGS, 1))
        for workers in (2, 3):
            first = _bytes(_mc_samples(*self.ARGS, workers))
            executor = snr._POOL._executor
            pids = set(executor._processes)
            second = _bytes(_mc_samples(*self.ARGS, workers))
            assert snr._POOL._executor is executor
            assert set(executor._processes) == pids and len(pids) == workers
            assert first == second == serial, workers

    def test_dead_worker_fails_the_call_and_the_next_call_starts_afresh(self):
        serial = _bytes(_mc_samples(*self.ARGS, 1))
        _mc_samples(*self.ARGS, 2)
        executor = snr._POOL._executor
        os.kill(next(iter(executor._processes)), signal.SIGKILL)
        deadline = time.monotonic() + 60
        while not executor._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(BrokenProcessPool):
            _mc_samples(*self.ARGS, 2)
        assert _bytes(_mc_samples(*self.ARGS, 2)) == serial
        assert snr._POOL._executor is not executor
