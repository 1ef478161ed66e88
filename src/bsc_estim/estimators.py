"""Matrix- and vector-level estimators of the backscattered channel.

The pipeline splits in two stages.  Stage one produces a matrix estimate of
the rank-one cascaded channel from the received pilot block: either plain
least squares through the pilot pseudo-inverse, or the linear MMSE estimate,
which for the package's orthogonal pilots is three O(NK) scalar shrinks of
the LS estimate.  The LS estimate carries the per-pilot energy E0 it divided
by, and the LMMSE shrinks read E0 from there.  Stage two recovers the
channel vector itself from the matrix estimate by reducing the rank-one
fitting problem to a real symmetric eigenvalue problem of size 2K.  Both of
its paths start from the head's symmetric part S = conj(M_K) + conj(M_K)^T,
formed once.  At the pilot-count corners K = 1 and K = N only the top
eigenpair is used, and it comes from a K x K Hermitian eigenproblem instead
(the top Takagi pair of S).  1 < K < N solves the whole 2K spectrum of
phi(S), because every positive eigenpair seeds a candidate, and refines the
candidates of every estimate.

:func:`prior_covariance` and :func:`lmmse_gain` solve the same filter as a
dense NK x NK system; only tests call them, as the reference.  They stay
in this module rather than in the tests' oracles because
``perfbench/tracer.py`` wraps both by name, and ``tests/test_names.py``
guards every name it wraps: moving them would stop
``perfbench/run.py --trace 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ReceivedSignal
from .transforms import phi

LS = "LS"
LMMSE = "LMMSE"

# Top eigenvalue (of the unit-normalized system) below this is treated as an
# all-noise degenerate input rather than divided through.
_DEGENERATE_EIGENVALUE = 1e-30


@dataclass(frozen=True)
class MatrixEstimate:
    """Estimate of the N x K cascaded channel, the statistic used downstream."""

    h_hat_matrix: np.ndarray
    flavor: str                  # LS or LMMSE
    pilot_energy: float          # E0 = ||S0||_F^2 / K, the LS estimate's divisor


@dataclass(frozen=True)
class VectorEstimate:
    """Recovered channel vector.

    ``degenerate`` marks all-noise inputs where no direction could be
    recovered; ``h_hat`` is then zero, and callers treat it as zero
    beamforming gain.
    """

    h_hat: np.ndarray
    degenerate: bool = False


def ls_matrix(rx: ReceivedSignal) -> MatrixEstimate:
    """Least-squares matrix estimate Y @ S0^H / E0.

    E0 is the per-pilot energy read off the scaled pilot Gram,
    S0 @ S0^H = E0 I, and the estimate carries it.  For orthogonal pilots
    this is the pseudo-inverse solution; in the noiseless limit it
    reproduces the cascaded channel exactly.
    """
    s0 = rx.pilot_scaled
    k = s0.shape[0]
    if rx.y.shape[1] != k:
        raise ValueError(
            f"received block {rx.y.shape} inconsistent with {k} pilots")
    e0 = _norm(s0) ** 2 / k
    if e0 <= 0:
        raise ValueError("pilot energy is zero; cannot invert the pilot block")
    h_hat = rx.y @ s0.conj().T / e0
    return MatrixEstimate(h_hat_matrix=h_hat, flavor=LS, pilot_energy=e0)


def prior_covariance(beta: float, n_antennas: int, pilot_count: int) -> np.ndarray:
    """NK x NK covariance of vec(H_K) for Rayleigh h via the Gaussian fourth moment.

    With h_v element (i, j) equal to h_i * h_j, the entry indexed by row
    pair (i, j) and column pair (k, l) is beta**2 * (d_ik d_jl + d_il d_jk),
    i.e. beta**2 times identity plus the head-block transposition operator.
    Hermitian PSD.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    n, k = n_antennas, pilot_count
    if not 1 <= k <= n:
        raise ValueError(f"pilot_count={k} out of range for n_antennas={n}")
    dim = n * k
    c = np.eye(dim)
    # Transposition term d_il d_jk: pairs (i, j) <-> (j, i), needs i < K.
    for j in range(k):
        for i in range(k):
            c[j * n + i, i * n + j] += 1.0
    return beta ** 2 * c


def lmmse_gain(pilot_scaled: np.ndarray, c_hv: np.ndarray,
               noise_var: float) -> np.ndarray:
    """Linear MMSE gain W with vec(H_hat) = W @ vec(Y).

    ``c_hv`` is the NK x NK prior of :func:`prior_covariance`; K is read
    from the K x K pilot matrix and N = NK / K from the prior's size, and
    N >= K.  For K >= 2 the entries (1, 0) and (0, 1) of H_K are the same
    product h_1 h_0, so a prior of vec(H_K) correlates indices 1 and N; a
    prior that does not was built for another split of its size and is
    rejected.  Solves the NK x NK regularized system
    C S^H (S C S^H + N0 I)^{-1} through a Hermitian eigendecomposition.  The
    Gram matrix is floored at N0, its exact lower bound, so the prior's null
    directions stay harmless even when N0 is many orders below the signal
    scale.
    """
    if noise_var <= 0:
        raise ValueError(f"noise_var must be positive, got {noise_var}")
    s0 = np.asarray(pilot_scaled, dtype=complex)
    k, dim = len(s0), len(c_hv)
    n = dim // max(k, 1)
    if (not k or s0.shape != (k, k) or c_hv.shape != (dim, dim) or dim % k
            or n < k or (k > 1 and c_hv[1, n] == 0)):
        raise ValueError(
            f"pilot matrix shape {s0.shape} does not match prior shape {c_hv.shape}")
    s_v = np.kron(s0.T, np.eye(n))
    c_sh = c_hv @ s_v.conj().T
    gram = s_v @ c_sh + noise_var * np.eye(n * k)
    w_eig, u = np.linalg.eigh(gram)
    # The Gram is >= noise_var * I exactly; eigenvalues reported below that
    # (or below rounding noise of the dominant scale) are numerical zeros of
    # the prior's null space, whose numerators cancel, so cap their inverse.
    floor = max(noise_var, 16.0 * np.finfo(float).eps * float(w_eig[-1]))
    w_eig = np.maximum(w_eig, floor)
    return (c_sh @ u) @ (u.conj().T / w_eig[:, None])


def lmmse_matrix(ls: MatrixEstimate, beta: float, noise_var: float) -> MatrixEstimate:
    """Linear MMSE matrix estimate: three scalar shrinks of the LS estimate.

    Exact for orthogonal pilots, S0 @ S0^H = E0 I, which :func:`build_pilots`
    guarantees: the LS estimate is then a sufficient statistic with white
    error N0 / E0 per entry.  The filter scales the symmetric head part by
    2 beta^2 E0 / (2 beta^2 E0 + N0), the antisymmetric head part by 0 and
    the tail rows by beta^2 E0 / (beta^2 E0 + N0), with E0 read from
    ``ls.pilot_energy``, the energy the LS estimate divided by.  O(NK): no
    NK x NK system is formed.
    """
    if ls.flavor != LS:
        raise ValueError(f"lmmse_matrix shrinks an LS estimate, got {ls.flavor}")
    if beta <= 0 or noise_var <= 0:
        raise ValueError(f"beta and noise_var must be positive, got {beta}, {noise_var}")
    m = ls.h_hat_matrix
    k = m.shape[1]
    signal = beta ** 2 * ls.pilot_energy
    out = np.empty_like(m)
    # 0.5 (head + head^T) * 2 signal / (...), with the exact factors of 2 cancelled
    out[:k] = (m[:k] + m[:k].T) * (signal / (2.0 * signal + noise_var))
    out[k:] = m[k:] * (signal / (signal + noise_var))
    return MatrixEstimate(h_hat_matrix=out, flavor=LMMSE, pilot_energy=ls.pilot_energy)


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm`` of a real or complex array bit for bit.

    The same dots on the same flattened copy: a strided view is raveled
    first, since a dot over its strides can sum in another order, and a real
    array's zero imaginary part adds exactly 0.0.
    """
    flat = x.ravel(order="K")
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _rank_one_objective(h_hat_matrix: np.ndarray, h: np.ndarray, k: int) -> float:
    return _norm(h_hat_matrix - np.outer(h, h[:k])) ** 2


# Most damped Newton steps one refinement takes; see _refine.
_REFINE_MAX_ITER = 60


def _refine(h_hat_matrix: np.ndarray, h0: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """Descend the fitting error from h0 towards the nearby stationary point.

    Returns the refined vector and its fitting error, which is bit for bit
    the :func:`_rank_one_objective` of that vector.

    Used for every 1 < K < N estimate, where on noisy input the eigenvalue
    reduction satisfies the head and tail conditions separately but not
    their coupling; a start that already meets the stationarity test below
    is returned unchanged.  Damped Newton from the reduction's output stays
    within its basin, so the polished point keeps the reduction's global
    character; the cost never increases.  The fit is quadratic in h, so the exact
    Hessian is the Gauss-Newton matrix plus the realified symmetrized
    residual, and convergence is quadratic once the damping has shrunk.

    It returns after :data:`_REFINE_MAX_ITER` iterations wherever it
    stands, and that point need not be stationary.  On C09's study (N = 20,
    K = 2..19, -5, 0 and +5 dB, 1000 seeded trials) 1428 of 117891
    refinements (1.2%) stopped there, with a unit-normalized gradient up to
    0.55 and an objective up to 8.7 times the one 600 iterations reach; on
    239 of them the converged start would have beaten the candidate that
    won.  These figures hold for a cap of 60.

    The real 2N x 2N Hessian is [[B_re, -B_im], [B_im, B_re]] plus
    [[A_re, -A_im], [-A_im, -A_re]], with B the complex Gauss-Newton block
    and A = conj(C) for the symmetrized residual C = R + R^T, R embedded in
    N x N.  Each step forms B and C in preallocated buffers and writes the
    quadrant sums B_re + C_re, C_im - B_im, B_im + C_im and B_re - C_re.
    The complex products keep the loop shapes of ``np.outer``, the norms are
    the dots ``np.linalg.norm`` takes, and terms that are exactly zero are
    left out, which can only flip the sign of a zero entry; so the step is
    bit for bit the ``np.block`` form that ``tests/_oracles.py`` keeps as
    ``refine_reference``.  A trial step goes into the second of two (h, R)
    buffers, which swap when the step is accepted.
    """
    n = h_hat_matrix.shape[0]
    h, h_new = h0.copy(), np.empty(n, dtype=complex)
    r, r_new = np.empty((n, k), dtype=complex), np.empty((n, k), dtype=complex)
    np.multiply(h[:, None], h[None, :k], out=r)  # outer(h, h[:k]) - h_hat_matrix
    r -= h_hat_matrix
    cost = _norm(r) ** 2
    scale = max(cost, _norm(h_hat_matrix) ** 2, 1e-300)
    tol = 1e-13 * scale ** 0.75
    lam = 1e-4
    # buffers, and the loop's views of them, made once
    h_conj = np.empty(n, dtype=complex)
    m_conj = np.zeros(n, dtype=complex)        # conj(h) with its tail zeroed
    h_conj_k, m_conj_k = h_conj[:k], m_conj[:k]
    g, g_head = np.empty(n, dtype=complex), np.empty(k, dtype=complex)
    rhs = np.empty(2 * n)                      # minus the realified gradient
    b = np.empty((n, n), dtype=complex)
    b_diag = b.reshape(-1)[::n + 1].real       # writable view of Re diag(B)
    b_k, b_diag_k, b_diag_t = b[:k], b_diag[:k], b_diag[k:]
    b_swap = np.empty((k, n), dtype=complex)
    r_emb = np.zeros((n, n), dtype=complex)    # residual embedded in N x N
    r_emb_k, r_emb_t = r_emb[:, :k], r_emb.T
    c = np.empty((n, n), dtype=complex)
    hess = np.empty((2 * n, 2 * n))
    hess_11, hess_12 = hess[:n, :n], hess[:n, n:]
    hess_21, hess_22 = hess[n:, :n], hess[n:, n:]
    hess_diag = hess.reshape(-1)[::2 * n + 1]  # writable view of diag(hess)
    undamped, gauss_diag = np.empty(2 * n), np.empty(2 * n)
    for _ in range(_REFINE_MAX_ITER):
        # conjugate (Wirtinger) gradient R conj(h_K), plus R^T conj(h) on the head
        np.conjugate(h, out=h_conj)
        np.matmul(r, h_conj_k, out=g)
        g[:k] += np.matmul(r.T, h_conj, out=g_head)
        np.negative(g.real, out=rhs[:n])
        np.negative(g.imag, out=rhs[n:])
        if math.sqrt(rhs.dot(rhs)) <= tol:
            break
        # Gauss-Newton block in closed form: ||h_K||^2 I + ||h||^2 on the
        # head diagonal + rank-two coupling of h with its masked head; the
        # masked outer product is zero below the head rows
        m_conj_k[:] = h_conj_k
        np.multiply(h[:, None], m_conj, out=b)
        head_sq = _norm(h[:k]) ** 2
        b_diag_k += head_sq + _norm(h) ** 2
        b_diag_t += head_sq
        b_k += np.multiply(h[:k, None], h_conj, out=b_swap)
        # exact Hessian adds the realified symmetrized residual
        r_emb_k[:] = r
        np.add(r_emb, r_emb_t, out=c)
        np.add(b.real, c.real, out=hess_11)
        np.subtract(c.imag, b.imag, out=hess_12)
        np.add(b.imag, c.imag, out=hess_21)
        np.subtract(b.real, c.real, out=hess_22)
        # trace of the Gauss-Newton quadrants, summed as np.trace would
        gauss_diag.reshape(2, n)[:] = b_diag
        ridge = float(gauss_diag.sum()) / (2.0 * n) + 1e-300
        # hess + lam * ridge * eye adds +0.0 off the diagonal, which turns
        # -0.0 into +0.0; do that once, then each damping rewrites the diagonal
        np.add(hess, 0.0, out=hess)
        undamped[:] = hess_diag
        stepped = False
        for _ in range(40):
            np.add(undamped, lam * ridge, out=hess_diag)
            try:
                dx = np.linalg.solve(hess, rhs)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            # h + dx[:n] + 1j * dx[n:], one part at a time
            np.add(h.real, dx[:n], out=h_new.real)
            np.add(h.imag, dx[n:], out=h_new.imag)
            np.multiply(h_new[:, None], h_new[None, :k], out=r_new)
            r_new -= h_hat_matrix
            cost_new = _norm(r_new) ** 2
            if cost_new <= cost:
                improved = cost - cost_new
                h, h_new, r, r_new, cost = h_new, h, r_new, r, cost_new
                lam = max(lam / 3.0, 1e-12)
                stepped = improved > 1e-16 * scale or math.sqrt(dx.dot(dx)) > 1e-12
                break
            lam *= 4.0
        else:
            break
        if not stepped:
            break
    return h, cost


def _reduction_candidates(s: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Every positive eigenpair of the realified head phi(S), principal first.

    ``s`` is the head's symmetric part S = conj(M_K) + conj(M_K)^T, formed
    by :func:`vector_estimate`.  Each pair seeds one candidate vector through
    :func:`_candidate`.  The principal pair is the usual choice, but on about
    one noisy draw in seven a sibling pair sits in the better fitting basin
    (16 of 108 seeded LS draws at N = 20, -5 to +5 dB), so the caller keeps
    the best-objective candidate after refinement.  Only the head's operator
    z_a of :func:`~bsc_estim.transforms.build_realified` is formed; the tail
    is filled in from the eigenvector later.
    """
    w, v = np.linalg.eigh(phi(s))
    out = []
    for i in range(len(w) - 1, -1, -1):
        lam = float(w[i])
        if lam <= _DEGENERATE_EIGENVALUE:
            break
        out.append((lam, v[:, i]))
    return out


def _takagi_pair(s: np.ndarray) -> tuple[float, np.ndarray]:
    """Top eigenpair of the realified head block at K = 1 and K = N.

    ``s`` is the head's symmetric part S = conj(M_K) + conj(M_K)^T, formed
    by :func:`vector_estimate`.  S has a Takagi factorization
    S = U Sigma U^T (Horn & Johnson, Cor. 4.4.4), and the positive
    eigenpairs of phi(S) are exactly (sigma_j, [Re x_j; Im x_j]) with
    S x_j = sigma_j conj(x_j).  A top left singular vector u of S comes from
    the K x K Hermitian S S^H; then v = S^H u / sigma is its right partner,
    and both x = conj(u) + v and x = i (conj(u) - v) satisfy
    S x = sigma conj(x).  The longer of the two is returned, which has
    ||x||^2 >= 2.  Since v is built from u, this holds even when the top
    singular value is tied.
    """
    s_h = s.conj().T
    _, u = np.linalg.eigh(s @ s_h)
    u_top = u[:, -1]
    v = s_h @ u_top
    sigma = _norm(v)
    if sigma <= _DEGENERATE_EIGENVALUE:
        return sigma, np.zeros(2 * len(s))
    v /= sigma
    # ||conj(u) + v||^2 - ||conj(u) - v||^2 = 4 Re(u^T v)
    x = u_top.conj() + v if (u_top @ v).real >= 0 else 1j * (u_top.conj() - v)
    return sigma, np.concatenate([x.real, x.imag])


def _candidate(h_hat_matrix: np.ndarray, lam: float, v: np.ndarray) -> np.ndarray:
    """Candidate vector from one eigenpair (lambda, v) of the realified head block.

    The complex head is the unit eigenvector scaled by sqrt(lambda / 2), so
    ||head||^2 = lambda / 2; the tail rows against the conjugated head fill
    in the rest.  Serves the corners' Takagi pair and every mid-K pair.
    """
    n, k = h_hat_matrix.shape
    vec = v / _norm(v)
    h = np.zeros(n, dtype=complex)
    h[:k] = np.sqrt(lam / 2.0) * (vec[:k] + 1j * vec[k:])
    if k < n:
        h[k:] = h_hat_matrix[k:, :] @ h[:k].conj() / (lam / 2.0)
    return h


def _canonical_sign(h: np.ndarray) -> np.ndarray:
    """Fix the global sign: first significant entry gets Re >= 0, ties Im >= 0.

    An entry is significant when its modulus exceeds 1e-12 ||h||; the zero
    vector has none and comes back unchanged.  Purely cosmetic; every
    downstream metric is invariant under h -> -h.
    """
    x = h[np.argmax(np.abs(h) > 1e-12 * _norm(h))]
    return -h if x.real < 0 or (x.real == 0 and x.imag < 0) else h


# Refine every candidate when the positive spectrum is this small (covers
# the exhaustively-tested array sizes); larger problems refine the principal
# pair plus the two best unrefined fits.
_REFINE_ALL_LIMIT = 4


def vector_estimate(est: MatrixEstimate) -> VectorEstimate:
    """Recover the channel vector from a matrix estimate.

    The leading K entries come from the top eigenpair of the realified head
    block, scaled by sqrt(lambda / 2); the remaining entries follow from the
    tail rows against the conjugated head, with ||h_K||**2 evaluated as
    lambda / 2.  The '+' sign branch is taken and then canonicalized.

    There are two paths, and both start from the head's symmetric part
    S = conj(M_K) + conj(M_K)^T of the unit-normalized estimate, formed once
    here.  At K = 1 and K = N that top pair comes from the K x K Hermitian
    S S^H (see :func:`_takagi_pair`), rather than from the 2K x 2K real
    block phi(S), tied top values included.  For 1 < K < N the full 2K x 2K spectrum of
    phi(S) is solved, because every positive eigenpair seeds a candidate.

    For 1 < K < N the reduced solution is not exactly stationary on noisy
    input (the head eigenproblem and the tail fill-in decouple a coupled
    system), so every estimate is refined: each candidate is descended
    towards the nearby stationary point of the fitting error by at most 60
    damped Newton iterations, which do not always get there and which return
    a start that already meets their stationarity test unchanged (see
    :func:`_refine`).  Sibling eigenpairs are tried as well, because on about
    one noisy draw in seven the principal pair sits in a worse basin (see
    :func:`_reduction_candidates`); the lowest-objective candidate wins.  The
    K = 1 and K = N paths are exactly stationary and globally optimal.

    All-noise inputs with a vanishing top eigenvalue, the all-zero matrix
    among them, yield a flagged zero estimate instead of a division by zero.
    An estimate that is not N x K with 1 <= K <= N raises ``ValueError``.
    """
    m = np.asarray(est.h_hat_matrix, dtype=complex)
    if m.ndim != 2 or not 1 <= m.shape[1] <= m.shape[0]:
        raise ValueError(f"matrix estimate must be N x K with 1 <= K <= N, got {m.shape}")
    n, k = m.shape
    scale = _norm(m)
    if not math.isfinite(scale):
        raise ValueError("matrix estimate contains non-finite entries")
    mn = m / scale if scale else m
    s = mn[:k].conj()
    s = s + s.T
    pairs = [_takagi_pair(s)] if k in (1, n) else _reduction_candidates(s)
    if not pairs or pairs[0][0] <= _DEGENERATE_EIGENVALUE:
        return VectorEstimate(h_hat=np.zeros(n, dtype=complex), degenerate=True)

    candidates = [_candidate(mn, *pair) for pair in pairs]
    h = candidates[0]
    if 1 < k < n:
        if len(candidates) > _REFINE_ALL_LIMIT:
            scored = sorted((_rank_one_objective(mn, cand, k), i)
                            for i, cand in enumerate(candidates))
            candidates = [candidates[i] for i in sorted({0} | {i for _, i in scored[:2]})]
        # the first of equal objectives wins
        h, _ = min((_refine(mn, cand, k) for cand in candidates), key=lambda fit: fit[1])

    return VectorEstimate(h_hat=_canonical_sign(h) * np.sqrt(scale))
