"""Reader configuration, fading channel, pilots, and the backscattered signal.

The physical setup is a reader with ``n_antennas`` elements talking to a
single-antenna tag over a reciprocal Rayleigh block-fading link.  During the
training phase the first ``pilot_count`` antennas radiate mutually orthogonal
pilots; the tag holds a fixed reflection state, and the reader observes the
rank-one cascaded channel through the backscattered pilot block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Nominal propagation speed used by the link-budget convention (not CODATA c).
SPEED_OF_LIGHT = 3.0e8


def path_loss_beta(freq_hz: float, distance_m: float, exponent: float) -> float:
    """Average channel power gain for a carrier at ``freq_hz`` over ``distance_m``.

    Computes (c / (4*pi*f))**2 / d**exponent with c = 3e8 m/s.  All inputs
    must be strictly positive.
    """
    if freq_hz <= 0 or distance_m <= 0 or exponent <= 0:
        raise ValueError(
            "path_loss_beta requires positive inputs, got "
            f"freq_hz={freq_hz}, distance_m={distance_m}, exponent={exponent}"
        )
    return (SPEED_OF_LIGHT / (4.0 * np.pi * freq_hz)) ** 2 / distance_m ** exponent


@dataclass(frozen=True)
class SystemParams:
    """Physical constants and reader configuration.

    ``beta`` may be passed explicitly; when omitted it is derived from the
    carrier frequency, range and path-loss exponent.  Times are in seconds,
    powers in watts and the noise variance in joules, so products such as
    ``tx_power * coherence_time / noise_var`` are dimensionless.
    """

    n_antennas: int
    coherence_time: float        # tau
    sample_len: float            # L
    tx_power: float              # p_t
    tag_amp_ce: float            # |reflection contrast| during training
    tag_amp_id: float            # average modulation amplitude while decoding
    noise_var: float             # N0
    carrier_freq: float          # f
    distance: float              # d, reader-to-tag range
    pathloss_exp: float          # rho
    beta: float | None = None

    def __post_init__(self) -> None:
        if self.n_antennas < 1:
            raise ValueError(f"n_antennas must be >= 1, got {self.n_antennas}")
        for name in ("coherence_time", "sample_len", "tx_power", "noise_var",
                     "carrier_freq", "distance", "pathloss_exp"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {getattr(self, name)}")
        for name in ("tag_amp_ce", "tag_amp_id"):
            v = getattr(self, name)
            if not 0 < v <= 1:
                raise ValueError(f"{name} must lie in (0, 1], got {v}")
        if self.beta is None:
            try:
                beta = path_loss_beta(self.carrier_freq, self.distance,
                                      self.pathloss_exp)
            except OverflowError:           # distance ** exponent
                beta = 0.0
            if beta <= 0:
                raise ValueError("derived beta underflows to zero for carrier_freq="
                                 f"{self.carrier_freq}, distance={self.distance}")
            object.__setattr__(self, "beta", beta)
        elif not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")


@dataclass(frozen=True)
class PilotConfig:
    """Training-phase shape: how many orthogonal pilots, and for how long.

    ``ce_time`` is treated as continuous inside all math; quantization to a
    multiple of the sample length happens only at configuration boundaries,
    see :func:`quantize_ce_time`.
    """

    pilot_count: int             # K
    ce_time: float               # tau_c, seconds

    def __post_init__(self) -> None:
        if self.pilot_count < 1:
            raise ValueError(f"pilot_count must be >= 1, got {self.pilot_count}")
        if not 0 < self.ce_time < math.inf:
            raise ValueError(f"ce_time must be positive and finite, got {self.ce_time}")

    def validate_against(self, params: SystemParams) -> None:
        if self.pilot_count > params.n_antennas:
            raise ValueError(
                f"pilot_count={self.pilot_count} exceeds n_antennas={params.n_antennas}"
            )
        if self.ce_time >= params.coherence_time:
            raise ValueError(
                f"ce_time={self.ce_time} must be below coherence_time={params.coherence_time}"
            )

    def ce_energy(self, params: SystemParams) -> float:
        """Total energy radiated while training: p_t * tau_c."""
        return params.tx_power * self.ce_time

    def pilot_energy(self, params: SystemParams) -> float:
        """Per-pilot backscattered energy scale: a0**2 * E_c / K."""
        return params.tag_amp_ce ** 2 * self.ce_energy(params) / self.pilot_count


def quantize_ce_time(tau_c: float, sample_len: float) -> float:
    """Round ``tau_c`` to the nearest positive multiple of ``sample_len``."""
    if sample_len <= 0:
        raise ValueError("sample_len must be positive")
    n = max(1, round(tau_c / sample_len))
    return n * sample_len


@dataclass(frozen=True)
class ChannelRealization:
    """One fading draw: the vector channel and its rank-one cascaded matrix."""

    h: np.ndarray                # complex (N,)
    pilot_count: int
    cascaded: np.ndarray = None  # complex (N, K), filled in __post_init__

    def __post_init__(self) -> None:
        h = np.asarray(self.h, dtype=complex)
        if h.ndim != 1:
            raise ValueError("h must be a vector")
        if not 1 <= self.pilot_count <= h.size:
            raise ValueError(
                f"pilot_count={self.pilot_count} out of range for N={h.size}"
            )
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "cascaded", np.outer(h, h[: self.pilot_count]))

    @property
    def n_antennas(self) -> int:
        return self.h.size


@dataclass(frozen=True)
class ReceivedSignal:
    """Backscattered pilot observation Y together with the scaled pilots."""

    y: np.ndarray                # complex (N, K)
    pilot_scaled: np.ndarray     # complex (K, K), includes the tag contrast
    noise_var: float


def draw_channel(params: SystemParams, seed, pilot_count: int | None = None) -> ChannelRealization:
    """Draw one Rayleigh block-fading realization.

    Entries of ``h`` are i.i.d. circularly-symmetric complex Gaussian with
    variance ``params.beta`` (beta/2 per real component).  The same seed
    always reproduces the same draw.
    """
    rng = np.random.default_rng(seed)
    n = params.n_antennas
    scale = np.sqrt(params.beta / 2.0)
    h = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    k = params.n_antennas if pilot_count is None else pilot_count
    return ChannelRealization(h=h, pilot_count=k)


def build_pilots(pilot_count: int, tau_c: float, tx_power: float) -> np.ndarray:
    """Orthogonal pilot matrix S with S @ S^H = (tx_power / K) * tau_c * I.

    Each row is one antenna's pilot, collapsed to K symbols.  The pilots are
    a scaled identity, which keeps the product exact in floating point.
    """
    if pilot_count < 1:
        raise ValueError(f"pilot_count must be >= 1, got {pilot_count}")
    if tau_c <= 0 or tx_power <= 0:
        raise ValueError("tau_c and tx_power must be positive")
    return np.sqrt(tx_power * tau_c / pilot_count) * np.eye(pilot_count, dtype=complex)


def backscatter(chan: ChannelRealization, pilots: np.ndarray, tag_amp_ce: float,
                noise_var: float, seed) -> ReceivedSignal:
    """Received pilot block Y = H_K @ S0 + W with S0 = tag_amp_ce * S.

    The tag's complex reflection contrast is represented by its magnitude
    with zero phase; any fixed phase is indistinguishable downstream because
    the vector estimator carries a global sign/phase ambiguity anyway.
    W has i.i.d. complex Gaussian entries of total variance ``noise_var``.
    """
    if not 0 < tag_amp_ce <= 1:
        raise ValueError(f"tag_amp_ce must lie in (0, 1], got {tag_amp_ce}")
    if noise_var < 0:
        raise ValueError(f"noise_var must be >= 0, got {noise_var}")
    pilots = np.asarray(pilots, dtype=complex)
    k = chan.pilot_count
    if pilots.shape != (k, k):
        raise ValueError(
            f"pilot matrix shape {pilots.shape} does not match pilot_count={k}"
        )
    s0 = tag_amp_ce * pilots
    y = chan.cascaded @ s0
    if noise_var > 0:
        rng = np.random.default_rng(seed)
        n = chan.n_antennas
        w = np.sqrt(noise_var / 2.0) * (
            rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        )
        y = y + w
    return ReceivedSignal(y=y, pilot_scaled=s0, noise_var=noise_var)
