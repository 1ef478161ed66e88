import re
from dataclasses import replace

import numpy as np
import pytest

from bsc_estim import (
    LMMSE,
    LS,
    PilotConfig,
    ce_snr,
    decide,
    joint_optimize,
    optimal_pc,
    optimal_ta,
    snr_approx,
    snr_threshold,
)
from bsc_estim import optimizer, path_loss_beta, snr_isotropic, snr_perfect_csi
from bsc_estim.channel import ParamGrid
from bsc_estim.optimizer import (
    CORNER_K1,
    CORNER_KN,
    _snr_approx_slope,
    joint_optimize_grid,
    optimal_ta_grid,
)
from bsc_estim.snr import snr_approx_grid, snr_isotropic_grid, snr_perfect_csi_grid
from conftest import make_params
from _oracles import (
    grid_argmax,
    joint_design_reference,
    optimal_ta_reference,
    snr_approx_reference,
    snr_isotropic_reference,
    snr_perfect_csi_reference,
)


def _params_for_gamma_e1(gamma_e1_db: float, n_antennas: int):
    """Calibrate the noise level so the single-pilot optimal training time
    lands exactly at the requested training SNR (bisection on log N0)."""
    target = 10.0 ** (gamma_e1_db / 10.0)

    def gamma_e1(log_n0):
        p = make_params(n_antennas=n_antennas, noise_var=10.0 ** log_n0)
        return ce_snr(PilotConfig(1, optimal_ta(1, p)), p)

    lo, hi = -30.0, -6.0
    assert gamma_e1(lo) > target > gamma_e1(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gamma_e1(mid) > target:
            lo = mid
        else:
            hi = mid
    return make_params(n_antennas=n_antennas, noise_var=10.0 ** (0.5 * (lo + hi)))


class TestThreshold:
    def test_reference_values(self):
        assert snr_threshold(20) == pytest.approx(2.1488095238095237, rel=1e-12)
        assert 10 * np.log10(snr_threshold(20)) == pytest.approx(3.322, abs=0.01)
        assert snr_threshold(10) == pytest.approx(0.9204545454545454, rel=1e-12)

    def test_monotone_in_antennas(self):
        vals = [snr_threshold(n) for n in range(2, 200)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            snr_threshold(1)


class TestOptimalTa:
    def test_against_grid_search(self):
        rng = np.random.default_rng(20)
        p_base = make_params()
        for _ in range(10):
            n = int(rng.integers(2, 30))
            p = make_params(
                n_antennas=n,
                noise_var=10.0 ** rng.uniform(-22, -17),
                distance=rng.uniform(40, 250),
            )
            k = int(rng.integers(1, n + 1))
            tau = p.coherence_time
            got = optimal_ta(k, p)
            step = tau * (1 - 2e-9) / 9999
            best = grid_argmax(lambda t: snr_approx(t, k, p),
                               1e-9 * tau, (1 - 1e-9) * tau, 10_000)
            assert abs(got - best) <= step
        assert p_base.coherence_time == 1e-3  # guard the fixture

    def test_single_pilot_needs_less_training_time(self):
        p = make_params()
        assert optimal_ta(1, p) < optimal_ta(20, p)

    def test_longer_range_needs_more_training_time(self):
        # Holds on the link-rich side; past ~120 m at this budget the
        # allocation retreats again because training stops paying off.
        near = make_params(distance=60.0)
        far = make_params(distance=100.0)
        assert optimal_ta(20, far) > optimal_ta(20, near)

    def test_maximizer_dominates_grid(self):
        p = make_params()
        tau = p.coherence_time
        t_opt = optimal_ta(20, p)
        peak = snr_approx(t_opt, 20, p)
        grid = np.linspace(1e-6 * tau, (1 - 1e-6) * tau, 1000)
        vals = np.array([snr_approx(t, 20, p) for t in grid])
        assert peak >= vals.max() * (1 - 1e-9)

    def test_derivative_single_sign_change(self):
        p = make_params()
        tau = p.coherence_time
        grid = np.linspace(1e-6 * tau, (1 - 1e-6) * tau, 1000)
        signs = np.sign(_snr_approx_slope(p, p.beta ** 2, p.n_antennas, 20, grid))
        flips = np.sum(np.abs(np.diff(signs)) > 0)
        assert flips == 1

    def test_rejects_bad_pilot_count(self):
        with pytest.raises(ValueError):
            optimal_ta(0, make_params())
        with pytest.raises(ValueError):
            optimal_ta(21, make_params())


class TestOptimalPc:
    def test_corner_at_reference_snrs(self):
        p = make_params(n_antennas=20)
        # training SNR set through the energy argument
        e_c_at = lambda ge_db: (10 ** (ge_db / 10)) * p.noise_var / (
            p.beta ** 2 * p.tag_amp_ce ** 2)
        assert optimal_pc(e_c_at(0.0), p) == 1
        assert optimal_pc(e_c_at(5.0), p) == 20
        # the rule's body: a training SNR at the threshold keeps one pilot,
        # and one antenna has no count to choose
        assert optimizer._pilot_corner(20, optimizer._snr_threshold(20)) == 1
        assert optimizer._pilot_corner(1, 1e9) == 1
        assert optimal_pc(e_c_at(30.0), make_params(n_antennas=1)) == 1

    def test_massive_array_prefers_single_pilot(self):
        e_c = 1e-4
        small = make_params(n_antennas=4)
        big = make_params(n_antennas=4000)
        gamma_e = small.beta ** 2 * small.tag_amp_ce ** 2 * e_c / small.noise_var
        assert gamma_e > snr_threshold(4)       # favorable link for N=4
        assert optimal_pc(e_c, small) == 4
        assert optimal_pc(e_c, big) == 1        # threshold grows with N

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError):
            optimal_pc(0.0, make_params())


class TestJointOptimize:
    def test_outcome_self_consistent(self):
        p = make_params()
        out = joint_optimize(p)
        assert out.k_opt in (1, 20)
        assert 0 < out.tau_c_opt < p.coherence_time
        recomputed = snr_approx(out.tau_c_opt, out.k_opt, p)
        assert out.predicted_snr == pytest.approx(recomputed, rel=1e-9)
        assert out.decision_path == (CORNER_K1 if out.k_opt == 1 else CORNER_KN)

    def test_threshold_rule_applied(self):
        p = make_params()
        gamma_e1 = ce_snr(PilotConfig(1, optimal_ta(1, p)), p)
        out = joint_optimize(p)
        expected = 1 if gamma_e1 <= snr_threshold(20) else 20
        assert out.k_opt == expected

    def test_single_antenna(self):
        p = make_params(n_antennas=1)
        out = joint_optimize(p)
        assert out.k_opt == 1
        assert out.decision_path == CORNER_K1

    @pytest.mark.parametrize("gamma_e1_db,n,expected_k", [
        (10.0, 82, "N"),    # threshold(82) = 9.95 dB < 10 dB
        (10.0, 83, 1),      # threshold(83) = 10.00 dB >= 10 dB
        (20.0, 802, "N"),
        (20.0, 803, 1),
    ])
    def test_switch_boundary(self, gamma_e1_db, n, expected_k):
        p = _params_for_gamma_e1(gamma_e1_db, n)
        out = joint_optimize(p)
        want = n if expected_k == "N" else 1
        assert out.k_opt == want

    def test_corner_beats_interior_counts(self):
        for n in (4, 8, 20):
            p = make_params(n_antennas=n)
            corner_best = max(
                snr_approx(optimal_ta(1, p), 1, p),
                snr_approx(optimal_ta(n, p), n, p),
            )
            for k in range(2, n):
                interior = snr_approx(optimal_ta(k, p), k, p)
                assert interior <= corner_best * (1 + 1e-9)

    def test_joint_matches_exhaustive_grid_at_8(self):
        # The closed form is monotone decreasing in the pilot count, so the
        # exhaustive (tau_c x K) maximum always sits at K = 1; the joint rule
        # coincides with it whenever its threshold picks the single-pilot
        # corner.  (When the threshold picks K = N it is deliberately
        # overriding the closed form's K trend, trading predicted SNR for the
        # measured large-count advantage, so no closed-form oracle applies.)
        p = make_params(n_antennas=8, noise_var=2.5e-20)
        out = joint_optimize(p)
        assert out.k_opt == 1
        tau = p.coherence_time
        best = 0.0
        for k in range(1, 9):
            for t in np.linspace(1e-4 * tau, (1 - 1e-4) * tau, 500):
                best = max(best, snr_approx(t, k, p))
        assert 10 * np.log10(out.predicted_snr / best) >= -0.1

    def test_pilot_rule_overrides_closed_form_trend(self):
        # Above threshold the rule picks K = N even though the closed form
        # itself would rank K = 1 higher; pin that known tension here.
        p = make_params(n_antennas=8)
        out = joint_optimize(p)
        assert out.k_opt == 8
        k1 = snr_approx(optimal_ta(1, p), 1, p)
        assert k1 > out.predicted_snr


class TestDecide:
    def test_estimator_fork(self):
        p = make_params()
        assert decide(p, has_prior_stats=False).estimator_choice == LS
        assert decide(p, has_prior_stats=True).estimator_choice == LMMSE

    def test_matches_joint_design(self):
        p = make_params()
        out = decide(p, True)
        base = joint_optimize(p)
        assert out.tau_c_opt == base.tau_c_opt
        assert out.k_opt == base.k_opt

    def test_beats_fixed_benchmark_allocation(self):
        p = make_params()
        out = decide(p, False)
        assert out.predicted_snr >= snr_approx(1e-4, 20, p)


def _range_by_size_grid(ranges, sizes) -> ParamGrid:
    """Every (range, N) pair at the reference setup, ranges outermost."""
    base = make_params()
    beta = [path_loss_beta(base.carrier_freq, d, base.pathloss_exp) for d in ranges]
    return ParamGrid(base, [b for b in beta for _ in sizes],
                     [n for _ in beta for n in sizes])


def _point(grid: ParamGrid, i: int):
    """Point i of ``grid`` as scalar SystemParams."""
    return replace(grid.params, n_antennas=int(grid.n_antennas[i]),
                   beta=float(grid.beta[i]))


def _grid_vs_scalar_mismatches(grid: ParamGrid, tau_c0: float = 1e-4) -> list[int]:
    """Points where a grid function's or a scalar function's float.hex
    differs from the frozen scalar reference's."""
    n = grid.n_antennas
    tau_1 = optimal_ta_grid(1, grid)
    tau_n = optimal_ta_grid(n, grid)
    columns = [tau_1, tau_n]
    tau_c, k, snr = joint_optimize_grid(grid)
    columns += [tau_c, k.astype(float), snr]
    columns += [snr_approx_grid(tau_c0, n, grid), snr_approx_grid(tau_n, n, grid),
                snr_isotropic_grid(grid), snr_perfect_csi_grid(grid)]
    rows = zip(*(c.tolist() for c in columns))
    bad = []
    for i, got in enumerate(rows):
        p = _point(grid, i)
        n_p = p.n_antennas
        ref_1 = optimal_ta_reference(1, p)
        ref_n = optimal_ta_reference(n_p, p)
        tau_j, k_j = joint_design_reference(p)
        design = [tau_j, float(k_j), snr_approx_reference(tau_j, k_j, p)]
        closed = [snr_approx_reference(tau_c0, n_p, p), snr_approx_reference(ref_n, n_p, p),
                  snr_isotropic_reference(p), snr_perfect_csi_reference(p)]
        scalar = [snr_approx(tau_c0, n_p, p), snr_approx(ref_n, n_p, p),
                  snr_isotropic(p), snr_perfect_csi(p)]
        want = [ref_1, ref_n, *design, *closed]
        if [x.hex() for x in [*got, *scalar]] != [x.hex() for x in [*want, *closed]]:
            bad.append(i)
    return bad


class TestGridMatchesScalar:
    """The array-pass forms used by the design sweeps, and the scalar closed
    forms, reproduce the scalar bisection and closed forms frozen in
    ``_oracles`` bit for bit."""

    def test_bitwise_over_ranges_and_array_sizes(self):
        # 90 ranges from 1 m to 2 km times N = 1..128: 11 520 points, both
        # pilot-count corners, and training times pinned at the lower end
        grid = _range_by_size_grid(np.geomspace(1.0, 2000.0, 90).tolist(),
                                   range(1, 129))
        assert grid.n_antennas.size >= 10_000
        assert _grid_vs_scalar_mismatches(grid) == []

    def test_each_point_bisects_as_in_a_grid_of_one(self):
        grid = _range_by_size_grid([1.0, 30.0, 75.0, 76.0, 250.0, 2000.0],
                                   [1, 2, 3, 8, 20, 64, 128])
        n = grid.n_antennas
        whole = [optimal_ta_grid(1, grid), optimal_ta_grid(n, grid),
                 *joint_optimize_grid(grid)]
        for i in range(n.size):
            one = grid.take([i])
            alone = [optimal_ta_grid(1, one), optimal_ta_grid(n[i], one),
                     *joint_optimize_grid(one)]
            assert [c[i].tobytes() for c in whole] == [c.tobytes() for c in alone]
            # and the scalar forms are the same bisection at that point
            p = _point(grid, i)
            design = joint_optimize(p)
            assert optimal_ta(1, p) == whole[0][i]
            assert (design.tau_c_opt, design.k_opt) == (whole[2][i], whole[3][i])

    def test_slope_has_the_same_bits_on_floats_and_arrays(self):
        rng = np.random.default_rng(2026)
        base = make_params()
        size = 400
        beta = [path_loss_beta(base.carrier_freq, d, base.pathloss_exp)
                for d in np.geomspace(1.0, 2000.0, size)]
        beta_sq = np.array([b ** 2 for b in rng.permutation(beta).tolist()])
        n = rng.integers(1, 129, size)
        k = np.array([rng.integers(1, m + 1) for m in n.tolist()])
        tau_c = base.coherence_time * np.exp(rng.uniform(np.log(1e-12), 0.0, size))
        array = _snr_approx_slope(base, beta_sq, n, k, tau_c)
        floats = [_snr_approx_slope(base, *point)
                  for point in zip(beta_sq.tolist(), n.tolist(), k.tolist(),
                                   tau_c.tolist())]
        assert [float(x).hex() for x in floats] == [x.hex() for x in array.tolist()]

    def test_rejects_bad_pilot_count_and_training_time(self):
        grid = _range_by_size_grid([100.0], [4, 8])
        # the error names the first value out of range and that point's bound
        with pytest.raises(ValueError, match=re.escape("pilot_count=9 outside [1, 8]")):
            optimal_ta_grid([4, 9], grid)
        with pytest.raises(ValueError, match=re.escape("tau_c=0.001 outside (0, 0.001)")):
            snr_approx_grid([1e-4, 1e-3], 1, grid)
        # and so do the scalar forms, in the same words for float, int and
        # numpy scalar inputs
        p = _point(grid, 0)
        with pytest.raises(ValueError, match=re.escape("tau_c=0.5 outside (0, 0.001)")):
            snr_approx(0.5, 1, p)
        with pytest.raises(ValueError, match=re.escape("tau_c=0.0 outside (0, 0.001)")):
            snr_approx(0, 1, p)
        with pytest.raises(ValueError, match=re.escape("tau_c=0.002 outside (0, 0.001)")):
            snr_approx(np.float64(2e-3), 1, p)
        with pytest.raises(ValueError, match=re.escape("pilot_count=5 outside [1, 4]")):
            snr_approx(1e-4, 5, p)
        with pytest.raises(ValueError, match=re.escape("pilot_count=5 outside [1, 4]")):
            snr_approx(1e-4, np.int64(5), p)
        with pytest.raises(ValueError, match=re.escape("pilot_count=5 outside [1, 4]")):
            optimal_ta(5, p)

    def test_scalar_closed_forms_build_no_grid(self, monkeypatch):
        p = make_params()
        want = [snr_approx(1e-4, 20, p), snr_perfect_csi(p), snr_isotropic(p)]

        def no_grid(*args, **kwargs):
            raise AssertionError("a scalar closed form built a ParamGrid")

        monkeypatch.setattr(ParamGrid, "__init__", no_grid)
        assert [snr_approx(1e-4, 20, p), snr_perfect_csi(p), snr_isotropic(p)] == want
