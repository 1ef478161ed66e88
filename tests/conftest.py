import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bsc_estim
from bsc_estim import SystemParams
from bsc_estim.experiments import _params_for_ce_snr_db


@pytest.fixture
def ref_params():
    """Reference reader setup used across the studies."""
    return SystemParams()


def make_params(**overrides):
    """The reference setup with ``overrides`` in place of its defaults."""
    return SystemParams(**overrides)


def params_at_ce_snr_db(gamma_e_db: float, tau_c: float = 1e-4, **overrides):
    """Reference params with the noise level set to hit a training SNR."""
    return _params_for_ce_snr_db(make_params(**overrides), tau_c, gamma_e_db)


def random_channel_vector(rng: np.random.Generator, n: int, beta: float = 1.0):
    return np.sqrt(beta / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a child that imports this checkout.

    pytest's ``pythonpath`` setting does not reach child interpreters, so
    the directory this process imported bsc_estim from goes on PYTHONPATH.
    """
    root = str(Path(bsc_estim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env)


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """Run ``python -m bsc_estim.cli`` in a child that imports this checkout."""
    return run_python("-m", "bsc_estim.cli", *args)
