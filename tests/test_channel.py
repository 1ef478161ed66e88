import numpy as np
import pytest

from bsc_estim import (
    ChannelRealization,
    PilotConfig,
    backscatter,
    build_pilots,
    draw_channel,
    path_loss_beta,
    quantize_ce_time,
)
from conftest import make_params
from _oracles import dft_pilots

# Reference gain at 915 MHz, 100 m, exponent 2.5, evaluated with 40-digit
# arithmetic and frozen here.
BETA_REFERENCE = 6.807389387418555e-9


class TestPathLoss:
    def test_reference_point(self):
        beta = path_loss_beta(915e6, 100.0, 2.5)
        assert beta == pytest.approx(BETA_REFERENCE, rel=1e-12)

    def test_unit_distance_closed_form(self):
        f = 2.4e9
        assert path_loss_beta(f, 1.0, 3.7) == pytest.approx(
            (3e8 / (4 * np.pi * f)) ** 2, rel=1e-14)

    def test_inverse_square_scaling(self):
        near = path_loss_beta(915e6, 50.0, 2.0)
        far = path_loss_beta(915e6, 100.0, 2.0)
        assert far == pytest.approx(near / 4.0, rel=1e-14)

    @pytest.mark.parametrize("f,d,rho", [(0, 1, 2), (1e9, -5, 2), (1e9, 10, 0)])
    def test_rejects_nonpositive(self, f, d, rho):
        with pytest.raises(ValueError):
            path_loss_beta(f, d, rho)


class TestSystemParams:
    def test_beta_derived_when_absent(self):
        p = make_params()
        assert p.beta == pytest.approx(BETA_REFERENCE, rel=1e-12)

    def test_explicit_beta_kept(self):
        p = make_params(beta=1e-8)
        assert p.beta == 1e-8

    def test_invalid_fields(self):
        with pytest.raises(ValueError):
            make_params(n_antennas=0)
        with pytest.raises(ValueError):
            make_params(tag_amp_ce=1.5)
        with pytest.raises(ValueError):
            make_params(noise_var=0.0)
        for bad in (dict(noise_var=float("nan")), dict(distance=float("inf")),
                    dict(beta=float("inf")), dict(tag_amp_id=float("nan")),
                    dict(distance=1e300), dict(carrier_freq=1e200)):
            with pytest.raises(ValueError):
                make_params(**bad)


class TestPilotConfig:
    def test_bounds(self):
        with pytest.raises(ValueError):
            PilotConfig(pilot_count=0, ce_time=1e-4)
        with pytest.raises(ValueError):
            PilotConfig(pilot_count=2, ce_time=0.0)
        with pytest.raises(ValueError):
            PilotConfig(pilot_count=2, ce_time=float("nan"))
        cfg = PilotConfig(pilot_count=30, ce_time=2e-3)
        p = make_params()
        with pytest.raises(ValueError):
            cfg.validate_against(p)
        with pytest.raises(ValueError):
            PilotConfig(pilot_count=4, ce_time=2e-3).validate_against(p)

    def test_energies(self):
        p = make_params()
        cfg = PilotConfig(pilot_count=4, ce_time=2e-4)
        assert cfg.ce_energy(p) == pytest.approx(2e-4)
        assert cfg.pilot_energy(p) == pytest.approx(0.78 ** 2 * 2e-4 / 4)

    def test_quantize(self):
        assert quantize_ce_time(1.01e-4, 5e-6) == pytest.approx(1.0e-4)
        assert quantize_ce_time(1e-7, 5e-6) == pytest.approx(5e-6)  # never zero


class TestDrawChannel:
    def test_moments(self):
        # 25k vector draws x 4 entries = 1e5 entry samples
        p = make_params(n_antennas=4)
        draws = 25_000
        h = np.stack([draw_channel(p, (42, i)).h for i in range(draws)])
        assert np.mean(np.abs(h) ** 2) == pytest.approx(p.beta, rel=0.02)
        # fourth moment of the norm: N (N + 1) beta^2
        norm4 = np.mean(np.sum(np.abs(h) ** 2, axis=1) ** 2)
        assert norm4 == pytest.approx(4 * 5 * p.beta ** 2, rel=0.03)

    def test_deterministic(self):
        p = make_params()
        a = draw_channel(p, 123)
        b = draw_channel(p, 123)
        assert np.array_equal(a.h, b.h)
        assert np.array_equal(a.cascaded, b.cascaded)

    def test_cascaded_rank_one(self):
        p = make_params(n_antennas=6)
        chan = draw_channel(p, 5, pilot_count=4)
        sv = np.linalg.svd(chan.cascaded, compute_uv=False)
        assert sv[0] > 0
        assert sv[1] <= 1e-10 * sv[0]
        for j in range(4):
            assert chan.cascaded[:, j] == pytest.approx(chan.h * chan.h[j])


class TestBuildPilots:
    def test_single_pilot_scalar(self):
        s = build_pilots(1, 2e-4, 0.5)
        assert s.shape == (1, 1)
        assert s[0, 0] == pytest.approx(np.sqrt(0.5 * 2e-4))

    @pytest.mark.parametrize("kind", ["identity", "dft"])
    @pytest.mark.parametrize("k", [1, 2, 4, 7, 20])
    def test_energy_and_orthogonality(self, kind, k):
        p_t, tau_c = 1.0, 1e-4
        s = (build_pilots if kind == "identity" else dft_pilots)(k, tau_c, p_t)
        assert np.linalg.norm(s) ** 2 == pytest.approx(p_t * tau_c, rel=1e-10)
        gram = s @ s.conj().T
        target = (p_t * tau_c / k) * np.eye(k)
        assert np.linalg.norm(gram - target) <= 1e-10 * np.linalg.norm(target)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-12 * (p_t * tau_c / k)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            build_pilots(0, 1e-4, 1.0)


class TestBackscatter:
    def test_noiseless_exact(self):
        p = make_params(n_antennas=5)
        chan = draw_channel(p, 1, pilot_count=3)
        s = build_pilots(3, 1e-4, 1.0)
        rx = backscatter(chan, s, 0.78, 0.0, 2)
        assert np.allclose(rx.y, chan.cascaded @ (0.78 * s), rtol=0, atol=0)

    def test_single_path_channel(self):
        n = 4
        e1 = np.zeros(n, complex)
        e1[0] = 1.0
        chan = ChannelRealization(h=e1, pilot_count=n)
        c = 0.3
        s = (c / 0.5) * np.eye(n, dtype=complex)
        rx = backscatter(chan, s, 0.5, 0.0, 0)
        expected = np.zeros((n, n), complex)
        expected[0, 0] = c
        assert np.allclose(rx.y, expected)

    def test_noise_floor(self):
        p = make_params(n_antennas=4)
        n0 = 1e-18
        chan = draw_channel(p, 9, pilot_count=2)
        s = build_pilots(2, 1e-4, 1.0)
        s0 = 0.78 * s
        sq = 0.0
        draws = 10_000
        for i in range(draws):
            rx = backscatter(chan, s, 0.78, n0, (77, i))
            sq += np.linalg.norm(rx.y - chan.cascaded @ s0) ** 2
        per_entry = sq / (draws * 4 * 2)
        assert per_entry == pytest.approx(n0, rel=0.03)

    def test_dimension_mismatch(self):
        p = make_params(n_antennas=4)
        chan = draw_channel(p, 1, pilot_count=2)
        with pytest.raises(ValueError):
            backscatter(chan, build_pilots(3, 1e-4, 1.0), 0.78, 0.0, 0)

    def test_pilot_scaled_gram(self):
        p = make_params(n_antennas=4)
        chan = draw_channel(p, 1, pilot_count=4)
        s = dft_pilots(4, 1e-4, 1.0)
        rx = backscatter(chan, s, 0.78, 1e-20, 3)
        e0 = 0.78 ** 2 * 1e-4 / 4
        gram = rx.pilot_scaled @ rx.pilot_scaled.conj().T
        assert np.allclose(gram, e0 * np.eye(4), rtol=1e-10, atol=1e-10 * e0)

    def test_reproducible(self):
        p = make_params(n_antennas=3)
        chan = draw_channel(p, 4, pilot_count=3)
        s = build_pilots(3, 1e-4, 1.0)
        a = backscatter(chan, s, 0.78, 1e-19, 55)
        b = backscatter(chan, s, 0.78, 1e-19, 55)
        assert np.array_equal(a.y, b.y)
