import re
from pathlib import Path

import numpy as np
import pytest

from bsc_estim import (
    LMMSE,
    LS,
    PilotConfig,
    backscatter,
    build_pilots,
    draw_channel,
    lmmse_matrix,
    ls_matrix,
    vector_estimate,
)
from bsc_estim import estimators
from bsc_estim.estimators import (
    MatrixEstimate,
    _candidate,
    _reduction_candidates,
    _takagi_pair,
    lmmse_gain,
    prior_covariance,
)
from bsc_estim.experiments import load_config
from bsc_estim.snr import mc_metrics
from conftest import make_params, params_at_ce_snr_db, random_channel_vector
from _oracles import (
    _objective_gradient,
    brute_force_min,
    dft_pilots,
    lmmse_spectral,
    numerical_gradient,
    rank_one_dual_bound,
    rank_one_objective,
    refine_reference,
    vector_crb,
)


# Pilot energy of hand-built LS estimates; vector_estimate does not read it.
E0 = 1.0


def _noisy_estimate(rng, n, k, noise_scale, beta=1.0):
    """Unit-scale matrix estimate: rank-one truth plus white complex noise."""
    h = random_channel_vector(rng, n, beta)
    truth = np.outer(h, h[:k])
    noise = noise_scale * (rng.standard_normal((n, k))
                           + 1j * rng.standard_normal((n, k))) / np.sqrt(2)
    return h, MatrixEstimate(h_hat_matrix=truth + noise, flavor=LS, pilot_energy=E0)


def _head_symmetric_part(m):
    """S = conj(M_K) + conj(M_K)^T of an N x K matrix M."""
    head = m[:m.shape[1]].conj()
    return head + head.T


def _top_sigma(m):
    """Top eigenvalue of the realified head of M at M's own scale, from the
    pair vector_estimate takes: the Takagi pair at K = 1 and K = N, the
    principal reduction pair in between, both of the unit-normalized M."""
    n, k = m.shape
    scale = np.linalg.norm(m)
    s = _head_symmetric_part(m / scale)
    pair = _takagi_pair(s) if k in (1, n) else _reduction_candidates(s)[0]
    return pair[0] * scale


def _eigenpath_oracle(m):
    """Top eigenpair of the 2K x 2K realified head: (h, eigenvalue, objective)."""
    scale = np.linalg.norm(m)
    lam, v = _reduction_candidates(_head_symmetric_part(m / scale))[0]
    h = _candidate(m / scale, lam, v) * np.sqrt(scale)
    return h, lam * scale, rank_one_objective(m, h)


def _rx_at_ce_snr(gamma_e_db, k, seed, n=20, tau_c=1e-4):
    params = params_at_ce_snr_db(gamma_e_db, tau_c=tau_c, n_antennas=n)
    chan = draw_channel(params, (seed, 0), pilot_count=k)
    pilots = build_pilots(k, tau_c, params.tx_power)
    rx = backscatter(chan, pilots, params.tag_amp_ce, params.noise_var, (seed, 1))
    return params, chan, rx, PilotConfig(k, tau_c)


def _seeded_estimates(k, gamma_e_db, seed, t):
    """LS and LMMSE estimates of one seeded N = 20 draw, the draw that
    trial t of a Monte Carlo run with this seed makes."""
    params = params_at_ce_snr_db(gamma_e_db)
    pilots = build_pilots(k, 1e-4, params.tx_power)
    chan = draw_channel(params, (seed, t, 0), pilot_count=k)
    rx = backscatter(chan, pilots, params.tag_amp_ce, params.noise_var, (seed, t, 1))
    ls = ls_matrix(rx)
    return [ls, lmmse_matrix(ls, params.beta, params.noise_var)]


class TestLsMatrix:
    def test_noiseless_recovers_cascaded(self):
        params, chan, rx, cfg = _rx_at_ce_snr(0.0, 3, seed=1, n=5)
        rx_clean = backscatter(chan, build_pilots(3, 1e-4, 1.0),
                               params.tag_amp_ce, 0.0, 0)
        est = ls_matrix(rx_clean)
        assert est.flavor == LS
        assert np.allclose(est.h_hat_matrix, chan.cascaded, rtol=1e-12, atol=0)

    def test_error_energy_matches_noise_through_pseudoinverse(self):
        n, k, trials = 4, 2, 10_000
        params = make_params(n_antennas=n, noise_var=1e-18)
        cfg = PilotConfig(k, 1e-4)
        pilots = build_pilots(k, cfg.ce_time, params.tx_power)
        e0 = cfg.pilot_energy(params)
        total = 0.0
        for t in range(trials):
            chan = draw_channel(params, (11, t, 0), pilot_count=k)
            rx = backscatter(chan, pilots, params.tag_amp_ce, params.noise_var,
                             (11, t, 1))
            est = ls_matrix(rx)
            total += np.linalg.norm(est.h_hat_matrix - chan.cascaded) ** 2
        assert total / trials == pytest.approx(n * k * params.noise_var / e0, rel=0.03)

    def test_doubling_ce_time_halves_error_energy(self):
        n, k, trials = 4, 4, 4000
        params = make_params(n_antennas=n, noise_var=1e-18)

        def error_energy(tau_c):
            pilots = build_pilots(k, tau_c, params.tx_power)
            total = 0.0
            for t in range(trials):
                chan = draw_channel(params, (13, t, 0), pilot_count=k)
                rx = backscatter(chan, pilots, params.tag_amp_ce,
                                 params.noise_var, (13, t, 1))
                total += np.linalg.norm(ls_matrix(rx).h_hat_matrix
                                        - chan.cascaded) ** 2
            return total / trials

        assert error_energy(2e-4) == pytest.approx(error_energy(1e-4) / 2, rel=0.05)

    def test_zero_pilot_energy_rejected(self):
        from bsc_estim.channel import ReceivedSignal
        rx = ReceivedSignal(y=np.zeros((3, 2), complex),
                            pilot_scaled=np.zeros((2, 2), complex))
        with pytest.raises(ValueError):
            ls_matrix(rx)


class TestPriorCovariance:
    def test_scalar_case(self):
        c = prior_covariance(2.0, 1, 1)
        assert c.shape == (1, 1)
        assert c[0, 0] == pytest.approx(2 * 2.0 ** 2)

    def test_diagonal_rule(self):
        beta, n, k = 1.5, 4, 3
        c = prior_covariance(beta, n, k)
        for j in range(k):
            for i in range(n):
                expected = 2 * beta ** 2 if i == j else beta ** 2
                assert c[j * n + i, j * n + i] == pytest.approx(expected)

    def test_hermitian_psd(self):
        c = prior_covariance(0.7, 5, 4)
        assert np.allclose(c, c.T)
        w = np.linalg.eigvalsh(c)
        assert w.min() >= -1e-10 * w.max()

    def test_monte_carlo_moments(self):
        beta, n, k, draws = 1.0, 3, 2, 100_000
        rng = np.random.default_rng(17)
        h = np.sqrt(beta / 2) * (rng.standard_normal((draws, n))
                                 + 1j * rng.standard_normal((draws, n)))
        hv = np.einsum("ti,tj->tji", h, h[:, :k]).reshape(draws, n * k)
        emp = (hv[:, :, None] * hv[:, None, :].conj()).mean(axis=0)
        c = prior_covariance(beta, n, k)
        assert np.abs(emp - c).max() <= 0.03 * c.max()

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            prior_covariance(0.0, 2, 1)
        with pytest.raises(ValueError):
            prior_covariance(1.0, 2, 3)


class TestLmmseMatrix:
    def test_matches_spectral_closed_form(self):
        # independent derivation: orthogonal pilots diagonalize the prior into
        # symmetric-head / antisymmetric-head / tail shrinkage factors
        for kind in ("identity", "dft"):
            params, chan, rx, cfg = _rx_at_ce_snr(5.0, 3, seed=21, n=5)
            pilots = (build_pilots if kind == "identity" else dft_pilots)(
                3, cfg.ce_time, params.tx_power)
            rx = backscatter(chan, pilots, params.tag_amp_ce, params.noise_var,
                             (21, 2))
            ls = ls_matrix(rx)
            est = lmmse_matrix(ls, params.beta, params.noise_var)
            assert est.flavor == LMMSE
            expected = lmmse_spectral(ls.h_hat_matrix, 3, params.beta,
                                      ls.pilot_energy, params.noise_var)
            assert np.linalg.norm(est.h_hat_matrix - expected) \
                <= 1e-10 * np.linalg.norm(expected)

    @pytest.mark.parametrize("kind", ["identity", "dft"])
    @pytest.mark.parametrize("n,k", [(1, 1), (5, 1), (5, 3), (5, 5), (8, 4)])
    def test_matches_dense_gain(self, n, k, kind):
        # differential check against the NK x NK solve of the full prior
        for gamma_e_db in (-5.0, 5.0, 20.0):
            params, chan, _, cfg = _rx_at_ce_snr(gamma_e_db, k, seed=22, n=n)
            pilots = (build_pilots if kind == "identity" else dft_pilots)(
                k, cfg.ce_time, params.tx_power)
            rx = backscatter(chan, pilots, params.tag_amp_ce, params.noise_var,
                             (22, 2))
            gain = lmmse_gain(rx.pilot_scaled, prior_covariance(params.beta, n, k),
                              params.noise_var)
            dense = (gain @ rx.y.ravel(order="F")).reshape((n, k), order="F")
            est = lmmse_matrix(ls_matrix(rx), params.beta, params.noise_var)
            assert np.linalg.norm(est.h_hat_matrix - dense) \
                <= 1e-10 * np.linalg.norm(dense), gamma_e_db

    def test_dense_gain_rejects_mismatched_shapes(self):
        # N and K come from the shapes, so a pilot matrix that does not fit
        # the prior fails instead of broadcasting; that includes a prior
        # whose size also splits as N x K for the pilots' K, but with K > N
        # (8 = 2 x 4, 4 = 1 x 4) or with another pairing of the head
        # (12 = 4 x 3)
        c_hv = prior_covariance(1.0, 4, 2)
        for pilots, prior in [(np.eye(3), c_hv), (np.ones((2, 3)), c_hv),
                              (np.eye(2), c_hv[:, :6]), (np.eye(3), c_hv[:4, :4]),
                              (np.eye(4), c_hv), (np.eye(4), prior_covariance(1.0, 2, 2)),
                              (np.eye(3), prior_covariance(1.0, 6, 2))]:
            with pytest.raises(ValueError, match="pilot matrix shape"):
                lmmse_gain(pilots, prior, 1.0)
        assert lmmse_gain(np.eye(2), c_hv, 1.0).shape == (8, 8)

    def test_vanishing_noise_collapses_to_ls(self):
        n, k = 4, 3
        params = make_params(n_antennas=n)
        cfg = PilotConfig(k, 1e-4)
        tiny = 1e-30 * params.beta ** 2 * cfg.pilot_energy(params)
        chan = draw_channel(params, 31, pilot_count=k)
        pilots = build_pilots(k, cfg.ce_time, params.tx_power)
        rx = backscatter(chan, pilots, params.tag_amp_ce, tiny, 32)
        ls = ls_matrix(rx)
        mm = lmmse_matrix(ls, params.beta, tiny).h_hat_matrix
        assert np.linalg.norm(mm - ls.h_hat_matrix) \
            <= 1e-6 * np.linalg.norm(ls.h_hat_matrix)

    def test_zero_prior_zeroes_estimate(self):
        params, chan, rx, cfg = _rx_at_ce_snr(10.0, 2, seed=33, n=4)
        ls = ls_matrix(rx)
        mm = lmmse_matrix(ls, 1e-12 * params.beta, params.noise_var).h_hat_matrix
        assert np.linalg.norm(mm) <= 1e-6 * np.linalg.norm(ls.h_hat_matrix)

    def test_paired_mse_beats_ls_at_unity_ce_snr(self):
        params = params_at_ce_snr_db(0.0, n_antennas=6)
        mse = mc_metrics(params, PilotConfig(6, 1e-4), (LS, LMMSE), 10_000, 41,
                         ("mse_mat",))
        assert mse[LMMSE, "mse_mat"].value <= mse[LS, "mse_mat"].value

    @pytest.mark.parametrize("gamma_e_db", [-10.0, 0.0, 10.0, 30.0])
    def test_paired_dominance_across_snr(self, gamma_e_db):
        params = params_at_ce_snr_db(gamma_e_db, n_antennas=4)
        mse = mc_metrics(params, PilotConfig(4, 1e-4), (LS, LMMSE), 3000, 43,
                         ("mse_mat",))
        assert mse[LMMSE, "mse_mat"].value <= mse[LS, "mse_mat"].value

    def test_rejects_nonpositive_noise(self):
        params, chan, rx, cfg = _rx_at_ce_snr(0.0, 2, seed=51, n=3)
        with pytest.raises(ValueError):
            lmmse_matrix(ls_matrix(rx), params.beta, 0.0)

    def test_rejects_nonpositive_beta_and_non_ls_input(self):
        params, chan, rx, cfg = _rx_at_ce_snr(0.0, 2, seed=52, n=3)
        ls = ls_matrix(rx)
        for beta in (0.0, -params.beta):
            with pytest.raises(ValueError, match="beta"):
                lmmse_matrix(ls, beta, params.noise_var)
        mm = lmmse_matrix(ls, params.beta, params.noise_var)
        with pytest.raises(ValueError, match="LS estimate"):
            lmmse_matrix(mm, params.beta, params.noise_var)


class TestVectorEstimate:
    def test_noiseless_exact_recovery(self):
        rng = np.random.default_rng(61)
        for n in [1, 2, 3, 5, 8, 13, 21, 32]:
            for k in {1, (n + 1) // 2, n}:
                h = random_channel_vector(rng, n)
                est = MatrixEstimate(np.outer(h, h[:k]), LS, E0)
                v = vector_estimate(est)
                err = min(np.linalg.norm(v.h_hat - h), np.linalg.norm(v.h_hat + h))
                assert err <= 1e-8 * np.linalg.norm(h), (n, k)
                assert not v.degenerate
                assert _top_sigma(est.h_hat_matrix) == pytest.approx(
                    2 * np.linalg.norm(h[:k]) ** 2, rel=1e-9)

    def test_noiseless_tail_from_linear_map(self):
        rng = np.random.default_rng(62)
        h = random_channel_vector(rng, 3)
        est = MatrixEstimate(np.outer(h, h[:1]), LS, E0)
        v = vector_estimate(est)
        err = min(np.linalg.norm(v.h_hat - h), np.linalg.norm(v.h_hat + h))
        assert err <= 1e-10 * np.linalg.norm(h)

    def test_objective_self_consistent(self):
        # the fitting error that scores mid-K candidates is the oracle's, bit
        # for bit, so the tests' objective is the one the estimator minimizes
        rng = np.random.default_rng(63)
        for n, k in [(2, 1), (3, 2), (4, 4), (20, 10)]:
            _, est = _noisy_estimate(rng, n, k, noise_scale=0.5)
            m = est.h_hat_matrix
            h = vector_estimate(est).h_hat
            assert estimators._rank_one_objective(m, h, k) == rank_one_objective(m, h)

    def test_matches_brute_force_on_noisy_instances(self):
        rng = np.random.default_rng(64)
        for trial in range(8):
            for n in (2, 3):
                for k in range(1, n + 1):
                    _, est = _noisy_estimate(rng, n, k, noise_scale=np.sqrt(k))
                    v = vector_estimate(est)
                    oracle = brute_force_min(est.h_hat_matrix, n_starts=30,
                                             seed=trial)
                    scale = np.linalg.norm(est.h_hat_matrix) ** 2
                    got = rank_one_objective(est.h_hat_matrix, v.h_hat)
                    assert got <= oracle + 1e-6 * scale, (n, k, trial)

    def test_reaches_brute_force_basin_at_n12_k6(self):
        # mid-K at a size where more than four candidates compete, so only the
        # principal pair and the two best unrefined fits are refined; the
        # LMMSE input has a symmetric head, unlike any LS draw
        n, k = 12, 6
        cfg = PilotConfig(k, 1e-4)
        for gamma_e_db in (-5.0, 5.0):
            params = params_at_ce_snr_db(gamma_e_db, n_antennas=n)
            pilots = build_pilots(k, cfg.ce_time, params.tx_power)
            for t in range(4):
                chan = draw_channel(params, (1206, t, 0), pilot_count=k)
                rx = backscatter(chan, pilots, params.tag_amp_ce,
                                 params.noise_var, (1206, t, 1))
                ls = ls_matrix(rx)
                mm = lmmse_matrix(ls, params.beta, params.noise_var)
                for est in (ls, mm):
                    scale = np.linalg.norm(est.h_hat_matrix) ** 2
                    oracle = brute_force_min(est.h_hat_matrix / np.sqrt(scale),
                                             n_starts=20, seed=t)
                    got = rank_one_objective(est.h_hat_matrix,
                                             vector_estimate(est).h_hat) / scale
                    assert got <= oracle + 1e-9, (gamma_e_db, t, est.flavor)

    def test_stationary_point(self):
        # central-difference gradient of the fitting error vanishes at h_hat
        rng = np.random.default_rng(65)
        for n, k in [(3, 2), (4, 2), (4, 3), (5, 5), (2, 1)]:
            _, est = _noisy_estimate(rng, n, k, noise_scale=1.0)
            v = vector_estimate(est)
            m = est.h_hat_matrix

            def fun(x):
                h = x[:n] + 1j * x[n:]
                return rank_one_objective(m, h)

            x = np.concatenate([v.h_hat.real, v.h_hat.imag])
            g = numerical_gradient(fun, x, step=1e-6)
            assert np.linalg.norm(g) <= 1e-6 * (1.0 + np.linalg.norm(m)), (n, k)

    @pytest.mark.parametrize("n, k, seed", [(4, 2, 0), (6, 3, 2), (8, 5, 0)])
    def test_mid_k_near_stationary_start_is_refined(self, n, k, seed):
        # a rank-one head plus noise 1e-12 relative puts the principal
        # candidate's unit-normalized gradient above _refine's stop rule
        # (1e-13 at unit scale) but far below the noise of any real draw;
        # the estimate must fit no worse than that candidate refined
        rng = np.random.default_rng(seed)
        h = random_channel_vector(rng, n)
        truth = np.outer(h, h[:k])
        noise = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        m = truth + 1e-12 * np.linalg.norm(truth) * noise / np.linalg.norm(noise)
        scale = np.linalg.norm(m)
        mn = m / scale
        h0 = _candidate(mn, *_reduction_candidates(_head_symmetric_part(mn))[0])
        grad = np.linalg.norm(_objective_gradient(mn, h0, k))
        assert 1e-13 < grad < 1e-11
        refined = estimators._refine(mn, h0, k)[0] * np.sqrt(scale)
        got = rank_one_objective(m, vector_estimate(MatrixEstimate(m, LS, E0)).h_hat)
        assert got <= rank_one_objective(m, refined) * (1 + 1e-9)
        assert got < rank_one_objective(m, h0 * np.sqrt(scale))

        # the noiseless input still recovers h to rounding
        exact = vector_estimate(MatrixEstimate(truth, LS, E0))
        err = min(np.linalg.norm(exact.h_hat - h), np.linalg.norm(exact.h_hat + h))
        assert err <= 1e-14 * np.linalg.norm(h)

    @pytest.mark.parametrize("corner", ["1", "N"])
    def test_corners_match_realified_eigenpath(self, corner):
        # K = 1 and K = N go through the K x K Takagi pair; the 2K x 2K
        # eigenpath it replaces is the oracle, on seeded LS and LMMSE draws
        for n in (1, 2, 3, 8, 20, 40):
            k = 1 if corner == "1" else n
            cfg = PilotConfig(k, 1e-4)
            for gamma_e_db in (-10.0, 0.0, 10.0, 20.0, 30.0):
                params = params_at_ce_snr_db(gamma_e_db, n_antennas=n)
                pilots = build_pilots(k, cfg.ce_time, params.tx_power)
                for t in range(40):
                    chan = draw_channel(params, (606, t, 0), pilot_count=k)
                    rx = backscatter(chan, pilots, params.tag_amp_ce,
                                     params.noise_var, (606, t, 1))
                    ls = ls_matrix(rx)
                    mm = lmmse_matrix(ls, params.beta, params.noise_var)
                    for est in (ls, mm):
                        case = (n, k, gamma_e_db, t, est.flavor)
                        got = vector_estimate(est)
                        h, lam, obj = _eigenpath_oracle(est.h_hat_matrix)
                        err = min(np.linalg.norm(got.h_hat - h),
                                  np.linalg.norm(got.h_hat + h))
                        assert err <= 1e-12 * np.linalg.norm(h), case
                        assert _top_sigma(est.h_hat_matrix) \
                            == pytest.approx(lam, rel=1e-12), case
                        assert rank_one_objective(est.h_hat_matrix, got.h_hat) \
                            == pytest.approx(obj, rel=1e-12), case

    @pytest.mark.parametrize("n", [3, 8, 20])
    @pytest.mark.parametrize("top", [(1.0, 1.0), (1.0, 1.0 - 1e-8), (1.0, 1.0, 1.0)],
                             ids=["exact", "near", "triple"])
    def test_k_equals_n_tied_top_value(self, n, top):
        # conj(M) + conj(M)^T = Q diag(top, 1/2, ...) Q^T: the top Takagi
        # value is tied, so its left singular vector u is not unique; the
        # pair built from u still solves S x = sigma conj(x)
        rng = np.random.default_rng(607 + n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))
        sigma = np.full(n, 0.5)
        sigma[:len(top)] = top
        m = ((q * sigma) @ q.T).conj() / 2.0
        mn = m / np.linalg.norm(m)
        s = _head_symmetric_part(mn)
        lam, v = _takagi_pair(s)
        x = (v[:n] + 1j * v[n:]) / np.linalg.norm(v)
        assert np.linalg.norm(s @ x - lam * x.conj()) <= 1e-12 * lam
        got = vector_estimate(MatrixEstimate(m, LS, E0))
        _, lam, obj = _eigenpath_oracle(m)
        assert _top_sigma(m) == pytest.approx(lam, rel=1e-12)
        assert rank_one_objective(m, got.h_hat) == pytest.approx(obj, rel=1e-12)

    def test_k_equals_n_antisymmetric_head_is_degenerate(self):
        # conj(M) + conj(M)^T = 0 exactly: no rank-one direction to recover
        rng = np.random.default_rng(608)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        v = vector_estimate(MatrixEstimate(a - a.T, LS, E0))
        assert v.degenerate
        assert np.all(v.h_hat == 0)

    def test_degenerate_zero_input(self):
        # K = 1, 1 < K < N and K = N all reach the one degenerate exit
        for n, k in [(3, 1), (3, 2), (4, 4)]:
            est = MatrixEstimate(np.zeros((n, k), complex), LS, E0)
            v = vector_estimate(est)
            assert v.degenerate
            assert np.all(v.h_hat == 0)

    def test_canonical_sign(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            h = random_channel_vector(rng, 4)
            est = MatrixEstimate(np.outer(h, h[:2]), LS, E0)
            v = vector_estimate(est)
            lead = next(x for x in v.h_hat
                        if abs(x) > 1e-12 * np.linalg.norm(v.h_hat))
            assert lead.real > 0 or (lead.real == 0 and lead.imag >= 0)

    @pytest.mark.parametrize("entries,flips", [
        ([1e-13, -1, 2], True), ([-1e-13, 1, -2], False),  # lead below 1e-12 ||h||
        ([-1j, 1], True), ([1j, -1], False),                # zero real part: Im decides
        ([-2 - 1j, 1], True), ([3 - 1j, -1], False),
        ([0, 0], False), ([-0.0 - 0.0j, 0], False),         # no significant entry
    ])
    def test_canonical_sign_rule(self, entries, flips):
        h = np.array(entries, dtype=complex)
        got = estimators._canonical_sign(h)
        assert (got is h) != flips
        assert np.array_equal(got, -h if flips else h)

    def test_sign_invariance_of_metrics(self):
        rng = np.random.default_rng(68)
        h, est = _noisy_estimate(rng, 4, 4, noise_scale=0.3)
        v = vector_estimate(est)
        obj_plus = rank_one_objective(est.h_hat_matrix, v.h_hat)
        obj_minus = rank_one_objective(est.h_hat_matrix, -v.h_hat)
        assert obj_plus == pytest.approx(obj_minus, rel=1e-12)
        beam_plus = abs(np.vdot(v.h_hat, h)) ** 4
        beam_minus = abs(np.vdot(-v.h_hat, h)) ** 4
        assert beam_plus == pytest.approx(beam_minus, rel=1e-12)

    def test_scale_equivariance(self):
        # physical-scale inputs (beta ~ 1e-9) go through the same path
        rng = np.random.default_rng(69)
        h = random_channel_vector(rng, 4, beta=6.8e-9)
        noise = 1e-9 * (rng.standard_normal((4, 2))
                        + 1j * rng.standard_normal((4, 2)))
        m = np.outer(h, h[:2]) + 1e-9 * noise
        v_small = vector_estimate(MatrixEstimate(m, LS, E0))
        v_big = vector_estimate(MatrixEstimate(m * 1e12, LS, E0))
        assert v_big.h_hat == pytest.approx(v_small.h_hat * 1e6, rel=1e-9)

    def test_refinement_bitwise_equal_to_reference(self, monkeypatch):
        # LS and LMMSE estimates at N = 20 from seeded draws; K = 2 refines
        # every candidate, K = 10 and 19 the principal pair plus the two best
        # fits.  The last draw is trial 63 of perfbench's k_sweep_mid (seed 1,
        # K = 10, 0 dB training SNR), where one start stops at
        # _refine's cap, estimators._REFINE_MAX_ITER = 60
        corpus = [est for k in (2, 10, 19) for gamma_e_db in (-5.0, 0.0, 5.0)
                  for t in range(12)
                  for est in _seeded_estimates(k, gamma_e_db, 2024, t)]
        corpus.append(_seeded_estimates(10, 0.0, 1, 63)[0])

        # every refinement, start by start: same vector and a cost equal to
        # the fitting error the oracle computes
        calls = []
        fast_refine = estimators._refine

        def spy(m, h0, k):
            h, cost = fast_refine(m, h0, k)
            calls.append((m, h0, k, h, cost))
            return h, cost

        monkeypatch.setattr(estimators, "_refine", spy)
        fast = [vector_estimate(est) for est in corpus[:-1]]
        pinned = len(calls)
        fast.append(vector_estimate(corpus[-1]))
        for m, h0, k, h, cost in calls:
            want = refine_reference(m, h0, k)
            assert h.tobytes() == want.tobytes()
            assert cost == rank_one_objective(m, want)
        # the pinned draw still reaches the cap: its 60th step moves h
        assert any(refine_reference(m, h0, k, max_iter=59).tobytes() != h.tobytes()
                   for m, h0, k, h, _ in calls[pinned:])

        refined = []

        def reference(m, h0, k):
            h = refine_reference(m, h0, k)
            refined.append(rank_one_objective(m, h))
            return h, refined[-1]

        monkeypatch.setattr(estimators, "_refine", reference)
        sibling_wins = 0
        for est, got in zip(corpus, fast):
            refined.clear()
            want = vector_estimate(est)
            assert got.h_hat.tobytes() == want.h_hat.tobytes()
            # the first refined start is the principal pair; a later start
            # wins when its fit is strictly better than every earlier one
            assert refined, "every noisy mid-K draw is refined"
            sibling_wins += int(np.argmin(refined)) != 0
        assert sibling_wins >= 5

    def test_refinement_singular_solve_retry_matches_reference(self, monkeypatch):
        # the first damped solve raises LinAlgError, so both refinements take
        # the lam *= 10 retry branch, which no seeded draw reaches
        _, est = _noisy_estimate(np.random.default_rng(71), 6, 3, noise_scale=0.3)
        mn = est.h_hat_matrix / np.linalg.norm(est.h_hat_matrix)
        h0 = _candidate(mn, *_reduction_candidates(_head_symmetric_part(mn))[0])
        solve = np.linalg.solve
        solves = []

        def first_solve_fails(a, b):
            solves.append(len(solves))
            if len(solves) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", first_solve_fails)
        got, cost = estimators._refine(mn, h0, 3)
        fast_solves = len(solves)
        solves.clear()
        want = refine_reference(mn, h0, 3)
        assert len(solves) == fast_solves > 2
        assert got.tobytes() == want.tobytes()
        assert cost == rank_one_objective(mn, want)

    @pytest.mark.parametrize("shape", [(3, 0), (3, 5), (0, 0)], ids=["n-by-0", "k-above-n", "0-by-0"])
    def test_rejects_shape_outside_n_by_k(self, shape):
        # 1 <= K <= N or nothing: no silent zero estimate, no numpy error
        est = MatrixEstimate(np.ones(shape, complex), LS, E0)
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            vector_estimate(est)


def _norm_cases():
    """name -> arrays for _norm: contiguous and strided, real and complex,
    1-D and 2-D.  The eigenvector columns are strided views like the ones
    the recovery path takes norms of."""
    rng = np.random.default_rng(72)
    z = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
    a = rng.standard_normal((40, 40))
    b = a + 1j * rng.standard_normal((40, 40))
    v_real = np.linalg.eigh(a + a.T)[1]
    v_complex = np.linalg.eigh(b @ b.conj().T)[1]
    return {
        "complex 1-D": [z[:, 0].copy()],
        "complex 2-D": [z, z.T],
        "real 1-D": [a[0], a[0, ::2]],
        "real 2-D": [a, a.T],
        "real part view": [z[:, 1].copy().real, z.real],
        "real eigh columns": list(v_real.T),
        "complex eigh columns": list(v_complex.T),
    }


@pytest.mark.parametrize("name", list(_norm_cases()))
def test_norm_equals_linalg_norm_bitwise(name):
    for i, x in enumerate(_norm_cases()[name]):
        got = estimators._norm(x)
        assert isinstance(got, float)
        assert got.hex() == float(np.linalg.norm(x)).hex(), (name, i)


class TestDualBound:
    # rank_one_dual_bound is a certified lower bound on the fit, up to
    # eigensolver rounding; no objective may lie below it by more than this,
    # relative to ||M||^2
    SLACK = 1e-10

    def test_matches_brute_force_on_small_draws(self):
        # the dual has no gap, so the bound is the minimum that a multi-start
        # descent finds, to the bound's stated 1e-12 and rounding
        rng = np.random.default_rng(2201)
        for trial in range(2):
            for n in (3, 5):
                for k in sorted({1, 2, n // 2 + 1, n}):
                    _, est = _noisy_estimate(rng, n, k, noise_scale=np.sqrt(k))
                    m = est.h_hat_matrix
                    scale = np.linalg.norm(m) ** 2
                    bound = rank_one_dual_bound(m)
                    oracle = brute_force_min(m, n_starts=20, seed=trial)
                    assert bound <= oracle + self.SLACK * scale, (n, k, trial)
                    assert oracle - bound <= self.SLACK * scale, (n, k, trial)

    @pytest.mark.parametrize("n", [2, 8, 20])
    def test_corner_estimates_reach_the_bound(self, n):
        # K = 1 and K = N have closed-form global fits
        rng = np.random.default_rng(2202 + n)
        for k in (1, n):
            for noise_scale in (0.1, 1.0, 3.0):
                _, est = _noisy_estimate(rng, n, k, noise_scale=noise_scale)
                m = est.h_hat_matrix
                got = rank_one_objective(m, vector_estimate(est).h_hat)
                assert abs(got - rank_one_dual_bound(m)) \
                    <= self.SLACK * np.linalg.norm(m) ** 2, (k, noise_scale)

    def test_report_k_sweep_mid_draws_against_bound(self):
        # reported, not asserted: the K = 10 draws of perfbench's k_sweep_mid
        # workload (N = 20, LS, its noise level and seed, 150 trials); a
        # printed draw is one where the estimate misses the global fit
        cfg = load_config(str(Path(__file__).resolve().parents[1] / "perfbench"
                              / "workloads" / "k_sweep_mid.cfg"))
        # the workload runs at 0 dB training SNR, the setup _seeded_estimates
        # draws from
        assert cfg.params == params_at_ce_snr_db(0.0) and cfg.pilot.ce_time == 1e-4
        k = 10
        below = []
        for t in range(cfg.trials):
            est = _seeded_estimates(k, 0.0, cfg.seed, t)[0]
            m = est.h_hat_matrix
            gap = ((rank_one_objective(m, vector_estimate(est).h_hat)
                    - rank_one_dual_bound(m)) / np.linalg.norm(m) ** 2)
            if gap > 1e-10:
                print(f"k_sweep_mid K = {k}, trial {t}: objective above the dual "
                      f"bound by {gap:.2e} of ||M||^2")
            if gap < -self.SLACK:
                below.append(t)
        assert below == []


class TestCramerRao:
    # With orthogonal pilots the LS matrix carries white error N0 / E0 per
    # entry, so the global rank-one fit of it is the ML estimate of h up to
    # sign: the LS vector estimate attains the Cramer-Rao bound at high
    # training SNR, at the corners and, when refinement finds the global
    # fit, at mid K
    @staticmethod
    def _mean_crb_ratio(n, k, gamma_e_db, flavor=LS, draws=1500, seed=6061):
        """Mean over seeded draws of min ||h -/+ h_hat||^2 / CRB(h), with
        h_hat from the ``flavor`` matrix estimate."""
        params = params_at_ce_snr_db(gamma_e_db, n_antennas=n)
        pilots = build_pilots(k, 1e-4, params.tx_power)
        ratios = np.empty(draws)
        for t in range(draws):
            chan = draw_channel(params, (seed, t, 0), pilot_count=k)
            rx = backscatter(chan, pilots, params.tag_amp_ce, params.noise_var,
                             (seed, t, 1))
            ls = ls_matrix(rx)
            est = ls if flavor == LS else lmmse_matrix(ls, params.beta, params.noise_var)
            h_hat = vector_estimate(est).h_hat
            err = min(np.linalg.norm(h_hat - chan.h),
                      np.linalg.norm(h_hat + chan.h)) ** 2
            ratios[t] = err / vector_crb(chan.h, k, params.noise_var / ls.pilot_energy)
        return float(ratios.mean())

    @pytest.mark.parametrize("gamma_e_db", [20.0, 30.0])
    @pytest.mark.parametrize("n,k", [(8, 1), (8, 8), (20, 20)])
    def test_ls_corners_attain_crb(self, n, k, gamma_e_db):
        ratio = self._mean_crb_ratio(n, k, gamma_e_db)
        print(f"N = {n}, K = {k}, {gamma_e_db:+.0f} dB: mean error / CRB = {ratio:.4f}")
        assert 0.9 <= ratio <= 1.1

    @pytest.mark.parametrize("gamma_e_db", [20.0, 30.0])
    def test_report_single_pilot_crb_ratio_at_n20(self, gamma_e_db):
        # reported, not banded: at K = 1, CRB(h) grows as 1 / |h_1|^2, so the
        # per-draw ratio has a heavy tail and its mean over 1500 draws is loose
        ratio = self._mean_crb_ratio(20, 1, gamma_e_db)
        print(f"N = 20, K = 1, {gamma_e_db:+.0f} dB: mean error / CRB = {ratio:.4f}")
        assert np.isfinite(ratio) and ratio > 0.0

    @pytest.mark.slow
    @pytest.mark.parametrize("gamma_e_db", [20.0, 30.0])
    def test_ls_mid_k_attains_crb_at_n20(self, gamma_e_db):
        ratio = self._mean_crb_ratio(20, 10, gamma_e_db)
        print(f"N = 20, K = 10, LS, {gamma_e_db:+.0f} dB: mean error / CRB = {ratio:.4f}")
        # reported, not banded: the LMMSE shrink is biased and may beat the bound
        lmmse = self._mean_crb_ratio(20, 10, gamma_e_db, flavor=LMMSE)
        print(f"N = 20, K = 10, LMMSE, {gamma_e_db:+.0f} dB: mean error / CRB = {lmmse:.4f}")
        assert 0.9 <= ratio <= 1.1
