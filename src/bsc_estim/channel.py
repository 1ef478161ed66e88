"""Reader configuration, fading channel, pilots, and the backscattered signal.

The physical setup is a reader with ``n_antennas`` elements talking to a
single-antenna tag over a reciprocal Rayleigh block-fading link.  During the
training phase the first ``pilot_count`` antennas radiate mutually orthogonal
pilots; the tag holds a fixed reflection state, and the reader observes the
rank-one cascaded channel through the backscattered pilot block.

Operating envelope.  Every physical input lies in the closed interval of its
:data:`ENVELOPE` row: :class:`SystemParams` checks its own fields, and
``experiments.load_config`` checks ``tx_power_dbm`` before converting it,
the training slot, every sweep grid value, and each SNR_SWEEP point's
derived noise.  A derived gain (c / 4 pi f)**2 / d**rho then lies in
[5.7e-46, 5.7e14], inside the ``beta`` row.  A training slot tau_c lies in
[1e-18, tau): at least 1e-12 (its row) or 1e-12 tau (the optimizer's
bracket), so tau - tau_c >= 2**-54 tau.  With N(N+1) <= 1.0001e8, the
products the package forms then lie in

  decoding SNRs (snr_approx, snr_isotropic, snr_perfect_csi)  [4e-144, 1e106]
  Monte Carlo scale (tau - tau_c) p_t a_id**2 / N0            [2e-44, 1e68]
  p_r_perfect = N p_t beta                                    [1e-60, 1e25]
  ce_snr = beta**2 a0**2 p_t tau_c / N0                       [1e-140, 1e98]
  q = N0 K / (beta**2 a0**2 p_t), and q / tau_c**2            [1e-96, 1e162]
  derived noise beta**2 a0**2 p_t tau_c / 10**(dB / 10)       [1e-150, 1e48]

and so do their partial products: every one is a positive normal float,
over 140 decades from either end of the float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

# Nominal propagation speed used by the link-budget convention (not CODATA c).
SPEED_OF_LIGHT = 3.0e8

# The operating envelope: (lowest, highest) accepted value of each physical
# input, in SI units.  Wide enough for the paper's setups and beyond; narrow
# enough for the bound in the module docstring.
ENVELOPE = {
    "n_antennas": (1, 10_000),
    "tx_power": (1e-10, 1e6),            # W; -60 dBm converts to just under 1e-9
    "tx_power_dbm": (-60.0, 90.0),
    "coherence_time": (1e-6, 1e2),       # tau
    "sample_len": (1e-12, 1e2),
    "ce_time": (1e-12, 1e2),             # tau_c, and TAU_SWEEP grid values
    "tag_amp_ce": (1e-6, 1.0),
    "tag_amp_id": (1e-6, 1.0),
    "noise_var": (1e-60, 1.0),           # J
    "beta": (1e-50, 1e15),               # given, or derived from the next three
    "carrier_freq": (1e6, 1e12),         # Hz
    "distance": (1e-2, 1e6),             # m
    "pathloss_exp": (1.0, 6.0),
    "training_snr_db": (-100.0, 100.0),  # SNR_SWEEP grid values
}


def check_envelope(name: str, values) -> None:
    """Raise ValueError unless every value lies in ``ENVELOPE[name]``.

    NaN lies in no row, so it fails too.
    """
    lo, hi = ENVELOPE[name]
    bad = [v for v in values if not lo <= v <= hi]
    if bad:
        raise ValueError(f"{name} must lie in [{lo:g}, {hi:g}], got {bad}")


def path_loss_beta(freq_hz: float, distance_m: float, exponent: float) -> float:
    """Average channel power gain for a carrier at ``freq_hz`` over ``distance_m``.

    Computes (c / (4*pi*f))**2 / d**exponent with c = 3e8 m/s.  All inputs
    must be strictly positive, and the gain must come out positive and
    finite: a ValueError is raised when d**exponent or the quotient under-
    or overflows.
    """
    if freq_hz <= 0 or distance_m <= 0 or exponent <= 0:
        raise ValueError(
            "path_loss_beta requires positive inputs, got "
            f"freq_hz={freq_hz}, distance_m={distance_m}, exponent={exponent}"
        )
    try:
        beta = (SPEED_OF_LIGHT / (4.0 * np.pi * freq_hz)) ** 2 / distance_m ** exponent
    except (OverflowError, ZeroDivisionError):  # a power over- or underflows
        beta = math.nan
    if not 0 < beta < math.inf:
        raise ValueError(
            "path-loss gain is not a positive finite number for "
            f"freq_hz={freq_hz}, distance_m={distance_m}, exponent={exponent}")
    return beta


@dataclass(frozen=True)
class SystemParams:
    """Physical constants and reader configuration.

    ``beta`` may be passed explicitly; when omitted it is derived from the
    carrier frequency, range and path-loss exponent.  Times are in seconds,
    powers in watts and the noise variance in joules, so products such as
    ``tx_power * coherence_time / noise_var`` are dimensionless.

    Every field lies in its :data:`ENVELOPE` row.  A derived ``beta``
    lies in its row whenever the carrier, range and exponent lie in theirs.

    The defaults are the reference reader setup that every study starts
    from, and the values a config takes for the keys it omits.
    """

    n_antennas: int = 20
    coherence_time: float = 1e-3     # tau
    sample_len: float = 5e-6         # L
    tx_power: float = 1.0            # p_t, 30 dBm
    tag_amp_ce: float = 0.78         # |reflection contrast| during training
    tag_amp_id: float = 0.3162       # average modulation amplitude while decoding
    noise_var: float = 1e-20         # N0
    carrier_freq: float = 915e6      # f
    distance: float = 100.0          # d, reader-to-tag range
    pathloss_exp: float = 2.5        # rho
    beta: float | None = None

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if value is not None:
                check_envelope(field.name, [value])
        if self.beta is None:
            object.__setattr__(self, "beta", path_loss_beta(
                self.carrier_freq, self.distance, self.pathloss_exp))


class ParamGrid:
    """Sweep points that share one :class:`SystemParams` except for the
    path-loss gain or the array size.

    Point i is ``params`` with ``beta[i]`` and ``n_antennas[i]``; callers
    keep both inside the operating envelope, as ``load_config`` does.
    ``beta_sq[i]`` is ``beta[i] ** 2`` as the scalar formulas square it, so
    array formulas built on ``beta_sq`` round exactly as the scalar ones do.
    """

    def __init__(self, params: SystemParams, beta, n_antennas) -> None:
        beta = np.asarray(beta, dtype=float)
        n = np.asarray(n_antennas, dtype=np.int64)
        if n.ndim != 1 or beta.shape != n.shape:
            raise ValueError(f"beta {beta.shape} and n_antennas {n.shape} "
                             "must be vectors of one length")
        self.params = params
        self.beta = beta                                  # float (P,)
        self.n_antennas = n                               # int (P,)
        self.beta_sq = np.array([b ** 2 for b in beta.tolist()])

    @classmethod
    def at(cls, params: SystemParams) -> "ParamGrid":
        """``params`` as a grid of one point."""
        return cls(params, [params.beta], [params.n_antennas])

    @classmethod
    def over_ranges(cls, params: SystemParams, distances) -> "ParamGrid":
        """One point per range, each with its own derived path-loss gain."""
        beta = [path_loss_beta(params.carrier_freq, d, params.pathloss_exp)
                for d in distances]
        return cls(params, beta, [params.n_antennas] * len(beta))

    @classmethod
    def over_antennas(cls, params: SystemParams, counts) -> "ParamGrid":
        """One point per array size, all at ``params.beta``."""
        return cls(params, [params.beta] * len(counts), counts)

    def take(self, index) -> "ParamGrid":
        return ParamGrid(self.params, self.beta[index], self.n_antennas[index])

    def point(self, i: int) -> SystemParams:
        """Point i as scalar :class:`SystemParams`."""
        return replace(self.params, n_antennas=int(self.n_antennas[i]),
                       beta=float(self.beta[i]))


@dataclass(frozen=True)
class PilotConfig:
    """Training-phase shape: how many orthogonal pilots, and for how long.

    ``ce_time`` is treated as continuous inside all math; quantization to a
    multiple of the sample length happens only at configuration boundaries,
    see :func:`quantize_ce_time`.  The default slot is the reference setup's.
    """

    pilot_count: int             # K
    ce_time: float = 1e-4        # tau_c, seconds

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
    return ReceivedSignal(y=y, pilot_scaled=s0)
