import numpy as np
import pytest

from bsc_estim.transforms import build_realified, phi
from conftest import random_channel_vector


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestPhi:
    def test_identity_block(self):
        assert np.array_equal(phi(np.eye(2)), np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_real_symmetric_eigen_mirror(self):
        # For real symmetric M, phi(M) carries the eigenvalues of M twice,
        # once with each sign; compare against a dense solve of M itself.
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rng.standard_normal((3, 3))
            m = a + a.T
            expected = np.sort(np.concatenate([np.linalg.eigvalsh(m),
                                               -np.linalg.eigvalsh(m)]))
            got = np.sort(np.linalg.eigvalsh(phi(m)))
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_complex_symmetric_gives_symmetric(self):
        rng = np.random.default_rng(3)
        m = _random_complex(rng, 4, 4)
        z = phi(m + m.T)
        assert np.array_equal(z, z.T)

    def test_trace_zero_and_pairing(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            a = _random_complex(rng, 4, 4)
            z = phi(a + a.T)
            assert abs(np.trace(z)) <= 1e-10 * max(1.0, np.linalg.norm(z))
            w = np.sort(np.linalg.eigvalsh(z))
            assert w == pytest.approx(-w[::-1], rel=1e-9, abs=1e-9 * np.linalg.norm(z))

    def test_rectangular_shape(self):
        z = phi(np.ones((2, 3)))
        assert z.shape == (4, 6)


class TestBuildRealified:
    def test_full_pilot_shapes(self):
        rng = np.random.default_rng(5)
        m = _random_complex(rng, 4, 4)
        z_a, z_b = build_realified(m, 4)
        assert z_a.shape == (8, 8)
        assert z_b.shape == (0, 8)
        head = m.conj()
        assert np.array_equal(z_a, phi(head + head.T))

    def test_identity_head(self):
        # S = conj(I) + conj(I)^T = 2I, so z_a = phi(2I)
        m = np.vstack([np.eye(3), np.ones((2, 3))]).astype(complex)
        z_a, _ = build_realified(m, 3)
        assert np.array_equal(z_a, phi(2 * np.eye(3)))

    def test_antisymmetric_head_cancels(self):
        # the head's symmetric part drops its antisymmetric component exactly
        rng = np.random.default_rng(0)
        a = _random_complex(rng, 4, 4)
        z_a, _ = build_realified(np.vstack([a - a.T, _random_complex(rng, 2, 4)]), 4)
        assert np.array_equal(z_a, np.zeros((8, 8)))

    def test_single_pilot_block(self):
        rng = np.random.default_rng(6)
        m = _random_complex(rng, 3, 1)
        z_a, z_b = build_realified(m, 1)
        assert z_a.shape == (2, 2)
        top = 2 * m[0, 0].conj()
        assert z_a == pytest.approx(np.array([[top.real, -top.imag],
                                              [-top.imag, -top.real]]))
        assert z_b.shape == (4, 2)

    def test_noiseless_top_eigenvalue(self):
        rng = np.random.default_rng(7)
        h = random_channel_vector(rng, 3)
        m = np.outer(h, h[:2])
        z_a, _ = build_realified(m, 2)
        lam = np.linalg.eigh(z_a)[0][-1]
        assert lam == pytest.approx(2 * np.linalg.norm(h[:2]) ** 2, rel=1e-12)

    def test_noiseless_eigenvector_residual(self):
        rng = np.random.default_rng(8)
        for n, k in [(2, 1), (3, 2), (5, 5), (6, 3)]:
            h = random_channel_vector(rng, n)
            z_a, _ = build_realified(np.outer(h, h[:k]), k)
            v = np.concatenate([h[:k].real, h[:k].imag])
            lam = 2 * np.linalg.norm(h[:k]) ** 2
            assert np.linalg.norm(z_a @ v - lam * v) < 1e-9 * np.linalg.norm(v)

    def test_symmetry_and_trace_invariants(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = _random_complex(rng, 5, 3)
            z_a, _ = build_realified(m, 3)
            assert np.linalg.norm(z_a - z_a.T) <= 1e-12 * np.linalg.norm(z_a)
            assert abs(np.trace(z_a)) <= 1e-10 * np.linalg.norm(z_a)
            lam = np.linalg.eigh(z_a)[0][-1]
            assert lam >= 0

    def test_rejects_bad_pilot_count(self):
        m = np.ones((2, 3), dtype=complex)
        with pytest.raises(ValueError):
            build_realified(m, 3)  # K exceeds N
        with pytest.raises(ValueError):
            build_realified(np.ones((3, 2), dtype=complex), 3)  # mismatch
