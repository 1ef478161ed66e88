"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles, not by
calling the code under test: multi-start descent for the rank-one fitting
problem, a spectral closed form for the linear MMSE filter under orthogonal
pilots, the beams of the two pilot-count corners, the one-draw decoding SNR,
DFT pilots, plain-grid maximizers and the Cramer-Rao bound of the vector
estimate.
The exceptions are frozen copies kept for bitwise regression checks:
:func:`refine_reference`, the estimator's Newton refinement,
:func:`optimal_ta_reference` / :func:`joint_design_reference`, the scalar
training-time bisection and pilot-count rule, and
:func:`snr_approx_reference`, :func:`snr_perfect_csi_reference` and
:func:`snr_isotropic_reference`, the scalar closed forms.
"""

from __future__ import annotations

import math

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


def vector_crb(h: np.ndarray, k: int, var: float) -> float:
    """Cramer-Rao bound tr F^-1 on the squared error of h from M = h h_K^T + E.

    E has i.i.d. CN(0, var) entries: with orthogonal pilots that is the LS
    estimate's error, var = N0 / E0.  The parameter is theta = [Re h; Im h],
    J is the Jacobian of vec(h h_K^T) with respect to theta, and a complex
    Gaussian mean in white noise has Fisher information
    F = (2 / var) Re(J^H J).  The global sign of h is not identifiable, so
    the bound is on min ||h_hat -/+ h||^2.
    """
    n = h.size
    d = np.zeros((n, k, n), dtype=complex)   # d[i, j, l] = d(h_i h_j) / d h_l
    idx = np.arange(n)
    d[idx, :, idx] += h[:k]
    d[:, np.arange(k), np.arange(k)] += h[:, None]
    jac = d.reshape(n * k, n)
    jac = np.concatenate([jac, 1j * jac], axis=1)   # columns d / d Re h, d / d Im h
    fisher = (2.0 / var) * (jac.conj().T @ jac).real
    return float(np.trace(np.linalg.inv(fisher)))


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


def snr_perfect_csi_reference(params) -> float:
    """Frozen scalar ``snr.snr_perfect_csi``: tau p_t a_id^2 N(N+1) beta^2 / N0."""
    n = params.n_antennas
    return (params.coherence_time * params.tx_power * params.tag_amp_id ** 2
            * n * (n + 1) * params.beta ** 2 / params.noise_var)


def snr_isotropic_reference(params) -> float:
    """Frozen scalar ``snr.snr_isotropic``: 2 tau p_t a_id^2 beta^2 / N0."""
    return (2.0 * params.coherence_time * params.tx_power
            * params.tag_amp_id ** 2 * params.beta ** 2 / params.noise_var)


def snr_approx_reference(tau_c: float, pilot_count: int, params) -> float:
    """Frozen scalar ``snr.snr_approx``, one point with Python floats:
    (tau - tau_c) p_t a_id^2 beta^2 / N0 * [(N-1)(N-2)/rho + 4(N-1)/sqrt(rho) + 2]
    with rho = 1 + N0 K / (beta^2 a0^2 p_t tau_c)."""
    n = params.n_antennas
    rho = 1.0 + (params.noise_var * pilot_count
                 / (params.beta ** 2 * params.tag_amp_ce ** 2
                    * params.tx_power * tau_c))
    shape = ((n - 1) * (n - 2) / rho + 4.0 * (n - 1) / math.sqrt(rho) + 2.0)
    return ((params.coherence_time - tau_c) * params.tx_power
            * params.tag_amp_id ** 2 * params.beta ** 2 / params.noise_var) * shape


def _snr_approx_derivative_reference(tau_c: float, pilot_count: int, params) -> float:
    n = params.n_antennas
    a = (n - 1) * (n - 2)
    b = 4.0 * (n - 1)
    q = (params.noise_var * pilot_count
         / (params.beta ** 2 * params.tag_amp_ce ** 2 * params.tx_power))
    rho = 1.0 + q / tau_c
    f = a / rho + b / math.sqrt(rho) + 2.0
    df = a / rho ** 2 + b / (2.0 * rho ** 1.5)
    return -f + (params.coherence_time - tau_c) * (q / tau_c ** 2) * df


def optimal_ta_reference(pilot_count: int, params) -> float:
    """Frozen scalar form of the ``optimizer.optimal_ta`` bisection, one point
    at a time with Python floats; the array version must match it bit for bit."""
    tau = params.coherence_time
    lo, hi = 1e-12 * tau, (1.0 - 1e-12) * tau
    if _snr_approx_derivative_reference(lo, pilot_count, params) <= 0:
        return lo
    while hi - lo > 1e-9 * tau:
        mid = 0.5 * (lo + hi)
        if _snr_approx_derivative_reference(mid, pilot_count, params) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def joint_design_reference(params) -> tuple[float, int]:
    """Frozen scalar form of the ``optimizer.joint_optimize`` rule: the
    single-pilot optimal time's training SNR against (N-1)^2 / (8(N+1))
    picks K = 1 or K = N.  Returns (tau_c, K)."""
    n = params.n_antennas
    tau_c1 = optimal_ta_reference(1, params)
    if n == 1:
        return tau_c1, 1
    gamma_e1 = (params.beta ** 2 * params.tag_amp_ce ** 2
                * params.tx_power * tau_c1 / params.noise_var)
    if gamma_e1 <= (n - 1) ** 2 / (8.0 * (n + 1)):
        return tau_c1, 1
    return optimal_ta_reference(n, params), n
