"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles, not by
calling the code under test: multi-start descent for the rank-one fitting
problem, a spectral closed form for the linear MMSE filter under orthogonal
pilots, the beams of the two pilot-count corners, the one-draw decoding SNR,
DFT pilots, and plain-grid maximizers.
The one exception is :func:`refine_reference`, a frozen copy of the
estimator's Newton refinement kept for bitwise regression checks.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import least_squares


def rank_one_objective(h_hat_matrix: np.ndarray, h: np.ndarray) -> float:
    k = h_hat_matrix.shape[1]
    return float(np.linalg.norm(h_hat_matrix - np.outer(h, h[:k])) ** 2)


def brute_force_min(h_hat_matrix: np.ndarray, n_starts: int = 50,
                    seed: int = 0) -> float:
    """Best objective over multi-start damped local descent on 2N real params."""
    n, k = h_hat_matrix.shape
    scale = np.linalg.norm(h_hat_matrix) ** 0.5
    rng = np.random.default_rng(seed)

    def fun(x):
        h = x[:n] + 1j * x[n:]
        r = np.outer(h, h[:k]) - h_hat_matrix
        return np.concatenate([r.real.ravel(), r.imag.ravel()])

    def jac(x):
        h = x[:n] + 1j * x[n:]
        d = np.zeros((n, k, n), dtype=complex)
        idx = np.arange(n)
        d[idx, :, idx] += h[:k]
        d[:, np.arange(k), np.arange(k)] += h[:, None]
        jc = d.reshape(n * k, n)
        return np.block([[jc.real, -jc.imag], [jc.imag, jc.real]])

    best = np.inf
    for _ in range(n_starts):
        x0 = scale * rng.standard_normal(2 * n)
        res = least_squares(fun, x0, jac=jac, method="lm",
                            xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=300)
        best = min(best, 2.0 * res.cost)
    return best


def lmmse_spectral(h_ls: np.ndarray, pilot_count: int, beta: float,
                   pilot_energy: float, noise_var: float) -> np.ndarray:
    """Closed-form MMSE filter for orthogonal pilots, applied to the LS estimate.

    Diagonalizing the prior (symmetric head pairs carry 2 beta^2, the
    antisymmetric head pairs 0, tail entries beta^2) turns the NK x NK solve
    into three scalar shrinkage factors.
    """
    k = pilot_count
    e0, n0 = pilot_energy, noise_var
    head = h_ls[:k, :]
    sym_part = 0.5 * (head + head.T)
    out = np.zeros_like(h_ls)
    out[:k, :] = sym_part * (2.0 * beta ** 2 * e0) / (2.0 * beta ** 2 * e0 + n0)
    out[k:, :] = h_ls[k:, :] * (beta ** 2 * e0) / (beta ** 2 * e0 + n0)
    return out


def corner_received_power(params, tau_c: float, pilot_count: int,
                          trials: int, seed: int) -> float:
    """Monte Carlo received power at the tag for K = 1 or K = N, LS front end.

    Trial t draws h ~ CN(0, beta I) from the stream (seed, t, 0) and the
    white pilot noise W from (seed, t, 1).  With identity pilots of energy
    a0^2 p_t tau_c / K each, the LS estimate is h h_K^T + W / sqrt(that).
    The rank-one fit has a closed-form beam at both corners:

    - K = 1: the estimate is one column, h times a scalar, plus noise, so
      the beam is that column, normalized;
    - K = N: only the symmetric part of the estimate carries h h^T, and the
      best symmetric rank-one fit is its top Takagi vector, which is the
      top left singular vector up to a phase.

    Returns p_t times the mean of |u^H h|^2 over trials, u the unit beam.
    The beam's phase and sign do not enter.
    """
    n, k = params.n_antennas, pilot_count
    if k not in (1, n):
        raise ValueError(f"corner oracle covers K = 1 and K = N = {n}, got K = {k}")
    pilot_amp = params.tag_amp_ce * np.sqrt(params.tx_power * tau_c / k)
    gains = np.empty(trials)
    for t in range(trials):
        rng_h = np.random.default_rng((seed, t, 0))
        h = np.sqrt(params.beta / 2.0) * (rng_h.standard_normal(n)
                                          + 1j * rng_h.standard_normal(n))
        rng_w = np.random.default_rng((seed, t, 1))
        w = np.sqrt(params.noise_var / 2.0) * (rng_w.standard_normal((n, k))
                                               + 1j * rng_w.standard_normal((n, k)))
        h_ls = np.outer(h, h[:k]) + w / pilot_amp
        if k == 1:
            beam = h_ls[:, 0]
        else:
            beam = np.linalg.svd(0.5 * (h_ls + h_ls.T))[0][:, 0]
        gains[t] = abs(np.vdot(beam, h)) ** 2 / np.vdot(beam, beam).real
    return params.tx_power * float(np.mean(gains))


def effective_snr_sample(h_hat: np.ndarray, h: np.ndarray, params,
                         tau_c: float) -> float:
    """One-draw decoding SNR ((tau - tau_c) p_t a_id^2 / N0) |h_hat^H h|^4 / ||h_hat||^4."""
    if tau_c >= params.coherence_time:
        return 0.0
    norm = np.linalg.norm(h_hat)
    if norm == 0:
        raise ValueError("h_hat must be nonzero")
    gain = abs(np.vdot(h_hat, h)) / norm
    return ((params.coherence_time - tau_c) * params.tx_power
            * params.tag_amp_id ** 2 / params.noise_var) * gain ** 4


def dft_pilots(pilot_count: int, tau_c: float, tx_power: float) -> np.ndarray:
    """Unitary-DFT pilots with S @ S^H = (tx_power / K) * tau_c * I up to round-off.

    They spread each antenna's energy over all K symbols, unlike the
    identity pilots the package builds.
    """
    k = pilot_count
    grid = np.arange(k)
    dft = np.exp(-2j * np.pi * np.outer(grid, grid) / k) / np.sqrt(k)
    return np.sqrt(tx_power * tau_c / k) * dft


def grid_argmax(fun, lo: float, hi: float, points: int) -> float:
    grid = np.linspace(lo, hi, points)
    vals = np.array([fun(x) for x in grid])
    return float(grid[int(np.argmax(vals))])


def numerical_gradient(fun, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += step
        xm[i] -= step
        g[i] = (fun(xp) - fun(xm)) / (2.0 * step)
    return g


def _objective_gradient(h_hat_matrix: np.ndarray, h: np.ndarray, k: int) -> np.ndarray:
    """Conjugate (Wirtinger) gradient of the rank-one fitting error."""
    r = np.outer(h, h[:k]) - h_hat_matrix
    g = r @ h[:k].conj()
    g[:k] += r.T @ h.conj()
    return g


def refine_reference(h_hat_matrix: np.ndarray, h0: np.ndarray, k: int,
                     max_iter: int = 60) -> np.ndarray:
    """Frozen copy of ``estimators._refine`` as it was before its buffers were
    preallocated: the Hessian is built with ``np.block`` and the gradient
    recomputes the residual.  The package's version must match it bit for bit.
    """
    n = h_hat_matrix.shape[0]
    h = h0.copy()
    r = np.outer(h, h[:k]) - h_hat_matrix
    cost = float(np.linalg.norm(r) ** 2)
    scale = max(cost, float(np.linalg.norm(h_hat_matrix) ** 2), 1e-300)
    lam = 1e-4
    eye = np.eye(2 * n)
    eye_head = np.zeros(n)
    eye_head[:k] = 1.0
    for _ in range(max_iter):
        g_c = _objective_gradient(h_hat_matrix, h, k)
        grad = np.concatenate([g_c.real, g_c.imag])
        if np.linalg.norm(grad) <= 1e-13 * scale ** 0.75:
            break
        # Gauss-Newton block in closed form: ||h_K||^2 I + ||h||^2 on the
        # head diagonal + rank-two coupling of h with its masked head.
        m_k = h * eye_head
        b = (np.linalg.norm(h[:k]) ** 2) * np.eye(n) \
            + np.diag(np.linalg.norm(h) ** 2 * eye_head) \
            + np.outer(h, m_k.conj()) + np.outer(m_k, h.conj())
        gauss = np.block([[b.real, -b.imag], [b.imag, b.real]])
        # exact Hessian adds the realified symmetrized residual
        r_emb = np.zeros((n, n), dtype=complex)
        r_emb[:, :k] = r
        a = r_emb.conj() + r_emb.conj().T
        hess = gauss + np.block([[a.real, -a.imag], [-a.imag, -a.real]])
        ridge = float(np.trace(gauss)) / (2.0 * n) + 1e-300
        stepped = False
        for _ in range(40):
            try:
                dx = np.linalg.solve(hess + lam * ridge * eye, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            h_new = h + dx[:n] + 1j * dx[n:]
            r_new = np.outer(h_new, h_new[:k]) - h_hat_matrix
            cost_new = float(np.linalg.norm(r_new) ** 2)
            if cost_new <= cost:
                improved = cost - cost_new
                h, r, cost = h_new, r_new, cost_new
                lam = max(lam / 3.0, 1e-12)
                stepped = improved > 1e-16 * scale or np.linalg.norm(dx) > 1e-12
                break
            lam *= 4.0
        else:
            break
        if not stepped:
            break
    return h
