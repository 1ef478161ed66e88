"""Complex-to-real machinery behind the rank-one recovery.

The stationarity conditions of the rank-one fitting problem couple a complex
matrix equation in h with its conjugate.  Splitting real and imaginary parts
turns them into a real symmetric eigenvalue problem over the leading block
(``z_a``) plus a linear fill-in map for the trailing entries (``z_b``).

The pipeline uses :func:`phi` alone.
:func:`bsc_estim.estimators.vector_estimate` forms the head's symmetric part
S = conj(M_K) + conj(M_K)^T once and hands it to both recovery paths; only
the 1 < K < N path maps it through :func:`phi`.  Only tests call
:func:`build_realified`.
"""

from __future__ import annotations

import numpy as np


def phi(m: np.ndarray) -> np.ndarray:
    """Real block map [[Re, -Im], [-Im, -Re]] of a complex p x q matrix.

    For complex symmetric M the image is real symmetric with zero trace, so
    its spectrum comes in +/- pairs and the top eigenvalue is nonnegative.
    The map turns an equation of the form ``M x = c * conj(x)`` into the
    real eigen-like relation ``phi(M) [Re x; Im x] = c [Re x; Im x]``.
    """
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    p, q = m.shape
    out = np.empty((2 * p, 2 * q))
    out[:p, :q] = m.real
    np.negative(m.imag, out=out[:p, q:])
    out[p:, :q] = out[:p, q:]
    np.negative(m.real, out=out[p:, q:])
    return out


def build_realified(h_hat_matrix: np.ndarray,
                    pilot_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Split an N x K matrix estimate into the (z_a, z_b) operator pair.

    ``z_a`` is the 2K x 2K real symmetric matrix whose top eigenpair carries
    the leading K channel entries; ``z_b`` is the 2(N-K) x 2K map recovering
    the remaining entries, empty for K = N.  The head block feeds
    ``z_a = phi(S)`` with S = conj(head) + conj(head)^T; the trailing rows
    are conjugated before mapping so that, for a noiseless rank-one input
    built from h, ``[Re h_K; Im h_K]`` is an eigenvector of ``z_a`` with
    eigenvalue ``2 * ||h_K||**2`` and ``z_b`` reproduces the tail exactly.

    Only tests call it: the pipeline forms S once in
    :func:`bsc_estim.estimators.vector_estimate`, and ``z_a`` only for
    1 < K < N.  It stays in the package because ``perfbench/tracer.py``
    wraps it by name, and ``tests/test_names.py`` guards every name the
    tracer wraps.
    """
    m = np.asarray(h_hat_matrix, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    n, k = m.shape
    if pilot_count != k:
        raise ValueError(f"pilot_count={pilot_count} does not match {k} columns")
    if k > n:
        raise ValueError(f"pilot_count={k} exceeds n_antennas={n}")
    head = m[:k].conj()
    return phi(head + head.T), phi(m[k:].conj())

