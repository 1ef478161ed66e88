"""Equivariance of the recovery chain under the rank-one model's symmetries.

Four maps of M = h h_K^T + noise have known effects on the best rank-one fit:

- a unitary U on the tail rows sends h_tail to U h_tail;
- a phase e^{2i theta} on M sends h to e^{i theta} h;
- a permutation P of the head rows and of the columns sends h_K to P h_K;
- a scale c > 0 sends h to sqrt(c) h.

A correct estimator commutes with each of them, so these checks need no
oracle's arithmetic: a slip in conjugation, transposition or head/tail
indexing breaks them at every N.  The invariances are the Takagi
factorization's (Horn & Johnson, Matrix Analysis, section 4.4).

The bounds were fixed before the first run.  ``vector_estimate`` is held to
1e-14 relative at K in {1, N}, whose paths are closed forms, and to 1e-7 at
1 < K < N, where the damped Newton refinement stops at a tolerance (2.6e-8
was the largest distance measured on a wider seeded set).  ``lmmse_matrix``
is three elementwise shrinks, so it is held to 1e-14 at every K.
"""

from __future__ import annotations

import math

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
    snr,
    vector_estimate,
)
from bsc_estim.channel import ChannelRealization, ReceivedSignal
from bsc_estim.estimators import MatrixEstimate
from conftest import params_at_ce_snr_db

CE_TIME = 1e-4
SNRS_DB = (-10.0, -5.0, 0.0, 5.0, 10.0, 20.0)
DRAWS = 2
SAMPLE_METRICS = ("p_r", "snr", "mse_vec")
SIZES = (6, 8, 20)


def _bound(n: int, k: int) -> float:
    return 1e-14 if k in (1, n) else 1e-7


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _maps(rng: np.random.Generator, n: int, k: int) -> dict:
    """The four maps for one N x K shape, each as (on M, on h).  K = N has
    no tail, so no tail unitary."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    rows = np.concatenate([rng.permutation(k), np.arange(k, n)])
    c = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
    maps = {
        "phase": (lambda m: np.exp(2j * theta) * m, lambda h: np.exp(1j * theta) * h),
        "head permutation": (lambda m: m[rows][:, rows[:k]], lambda h: h[rows]),
        "scale": (lambda m: c * m, lambda h: math.sqrt(c) * h),
    }
    if k < n:
        u = _haar_unitary(rng, n - k)

        def on_tail(x):
            out = x.copy()
            out[k:] = u @ x[k:]
            return out

        maps["tail unitary"] = (on_tail, on_tail)
    return maps


def _distance(got: np.ndarray, want: np.ndarray) -> float:
    """Relative distance modulo the global sign."""
    return (min(np.linalg.norm(got - want), np.linalg.norm(got + want))
            / np.linalg.norm(want))


def _estimates(n: int, k: int, db: float, draw: int):
    """Seeded LS and LMMSE estimates of one pipeline draw at training SNR db."""
    params = params_at_ce_snr_db(db, tau_c=CE_TIME, n_antennas=n)
    seed = (n, k, SNRS_DB.index(db), draw)
    chan = draw_channel(params, (*seed, 0), pilot_count=k)
    pilots = build_pilots(k, CE_TIME, params.tx_power)
    rx = backscatter(chan, pilots, params.tag_amp_ce, params.noise_var, (*seed, 1))
    ls = ls_matrix(rx)
    return params, ls, lmmse_matrix(ls, params.beta, params.noise_var)


def _cases(n: int):
    for k in range(1, n + 1):
        for db in SNRS_DB:
            for draw in range(DRAWS):
                yield k, db, draw


@pytest.mark.parametrize("n", [6, 8, pytest.param(20, marks=pytest.mark.slow)])
def test_vector_estimate_commutes_with_each_map(n):
    rng = np.random.default_rng(9000 + n)
    broken = []
    for k, db, draw in _cases(n):
        _, ls, lmmse = _estimates(n, k, db, draw)
        maps = _maps(rng, n, k)
        for est in (ls, lmmse):
            base = vector_estimate(est)
            assert not base.degenerate
            for name, (on_m, on_h) in maps.items():
                mapped = vector_estimate(MatrixEstimate(
                    on_m(est.h_hat_matrix), est.flavor, est.pilot_energy))
                dist = _distance(mapped.h_hat, on_h(base.h_hat))
                if not dist <= _bound(n, k):
                    broken.append((k, db, draw, est.flavor, name, dist))
    assert broken == []


@pytest.mark.parametrize("n", SIZES)
def test_lmmse_matrix_commutes_with_tail_unitary_phase_and_scale(n):
    rng = np.random.default_rng(9100 + n)
    broken = []
    for k, db, draw in _cases(n):
        params, ls, lmmse = _estimates(n, k, db, draw)
        for name, (on_m, _) in _maps(rng, n, k).items():
            if name == "head permutation":
                continue
            mapped = lmmse_matrix(MatrixEstimate(on_m(ls.h_hat_matrix), LS,
                                                 ls.pilot_energy),
                                  params.beta, params.noise_var)
            dist = _distance(mapped.h_hat_matrix, on_m(lmmse.h_hat_matrix))
            if not dist <= 1e-14:
                broken.append((k, db, draw, name, dist))
    assert broken == []


@pytest.mark.parametrize("n", SIZES)
def test_trial_samples_unchanged_under_tail_unitary(n, monkeypatch):
    """The same tail unitary on h and on the noise leaves every per-trial
    p_r, snr and mse_vec sample in place.  Each is compared on its own
    scale: ||h||^2 for p_r, ||h||^4 for snr and ||h||^2 + mse_vec for
    mse_vec, which bound the sample and its sensitivity to the estimate."""
    rng = np.random.default_rng(9200 + n)
    draw, scatter = snr.draw_channel, snr.backscatter
    broken = []
    for k in range(1, n):
        u = _haar_unitary(rng, n - k)
        for db in SNRS_DB:
            params = params_at_ce_snr_db(db, tau_c=CE_TIME, n_antennas=n)
            cfg = PilotConfig(k, CE_TIME)
            seed = 9300 + SNRS_DB.index(db)
            with monkeypatch.context() as patch:
                drawn = []

                def mapped_draw(*args, **kwargs):
                    chan = draw(*args, **kwargs)
                    drawn.append(chan)
                    h = chan.h.copy()
                    h[k:] = u @ h[k:]
                    return ChannelRealization(h=h, pilot_count=chan.pilot_count)

                def mapped_scatter(chan, *args):
                    # U on the tail rows of the unmapped draw's block is the
                    # block of the mapped channel plus the mapped noise
                    rx = scatter(drawn[-1], *args)
                    y = rx.y.copy()
                    y[k:] = u @ y[k:]
                    return ReceivedSignal(y=y, pilot_scaled=rx.pilot_scaled)

                patch.setattr(snr, "draw_channel", mapped_draw)
                patch.setattr(snr, "backscatter", mapped_scatter)
                mapped = snr._mc_samples(params, cfg, (LS, LMMSE), DRAWS, seed,
                                         SAMPLE_METRICS)
            plain = snr._mc_samples(params, cfg, (LS, LMMSE), DRAWS, seed,
                                    SAMPLE_METRICS)
            power = [float(np.vdot(chan.h, chan.h).real) for chan in drawn]
            for (flavor, metric), values in plain.items():
                for t, (got, want) in enumerate(zip(mapped[flavor, metric], values)):
                    scale = {"p_r": power[t], "snr": power[t] ** 2,
                             "mse_vec": power[t] + want}[metric]
                    if not abs(got - want) <= _bound(n, k) * scale:
                        broken.append((k, db, t, flavor, metric, got, want))
    assert broken == []
