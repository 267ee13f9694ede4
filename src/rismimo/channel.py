"""System configuration and Rayleigh channel generation.

Model: an N-antenna receiver serves M single-antenna transmitters, assisted
by an L-element reflecting surface applying per-element phase shifts. The
receiver sees

    Y = sqrt(p) (H_d + H diag(e^{j phi}) G) s + n

with H_d (N x M) the direct links, H (N x L) the surface-to-receiver links,
G (L x M) the transmitter-to-surface links, all i.i.d. circularly symmetric
complex Gaussian with per-link variances, and phi uniform on [0, 2pi).

Randomness is counter based: every (master_seed, stream_index) pair selects
an independent Philox stream, and each complex entry consumes exactly two
uniforms (polar transform), so a stream's draws are a fixed function of the
pair regardless of how work is scheduled across processes.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

# Scale conventions for the Gaussian stand-in of the cascaded channel.
# "derived" matches the second moment of H diag(e^{j phi}) G directly:
# each cascade entry is a sum of L independent products, so its variance is
# L * gain_ris_rx * gain_tx_ris[i]. "paper" divides by L instead of
# multiplying, as printed in the source expressions; it is kept selectable
# because the printed closed forms embed it.
SCALE_PAPER = "paper"
SCALE_DERIVED = "derived"
SCALE_MODES = (SCALE_PAPER, SCALE_DERIVED)
DEFAULT_SCALE_MODE = SCALE_DERIVED

_DOMAIN_CHANNEL = 0
_STREAM_BITS = 56


def _gain_vector(value, m, name):
    arr = np.atleast_1d(np.array(value, dtype=np.float64, copy=True))
    if arr.ndim != 1:
        raise ConfigurationError(f"{name} must be a scalar or 1-D list")
    if arr.size == 1:
        arr = np.full(m, float(arr[0]))
    if arr.size != m:
        raise ConfigurationError(
            f"{name} needs one entry per stream ({m}), got {arr.size}"
        )
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ConfigurationError(f"{name} entries must be finite and > 0")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class SystemConfig:
    """Static description of one simulated uplink.

    gain_direct[i] is the variance of each direct-link coefficient of
    stream i, gain_tx_ris[i] the variance of stream i's links onto the
    surface, and gain_ris_rx the (common) variance of each surface-to-
    receiver link. tx_snr is the linear transmit SNR p, rate the target
    spectral efficiency in bit/s/Hz.
    """

    rx_antennas: int
    streams: int
    ris_elements: int
    tx_snr: float = 1.0
    rate: float = 3.0
    gain_direct: np.ndarray = field(default=1.0)  # type: ignore[assignment]
    gain_tx_ris: np.ndarray = field(default=1.0)  # type: ignore[assignment]
    gain_ris_rx: float = 1.0

    def __post_init__(self):
        for name in ("rx_antennas", "streams", "ris_elements"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < 1:
                raise ConfigurationError(f"{name} must be a positive integer, got {v!r}")
        if self.streams > self.rx_antennas:
            raise ConfigurationError(
                f"need rx_antennas >= streams, got {self.rx_antennas} < {self.streams}"
            )
        if not (math.isfinite(self.tx_snr) and self.tx_snr > 0):
            raise ConfigurationError(f"tx_snr must be finite and > 0, got {self.tx_snr}")
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ConfigurationError(f"rate must be finite and > 0, got {self.rate}")
        if not (math.isfinite(self.gain_ris_rx) and self.gain_ris_rx > 0):
            raise ConfigurationError("gain_ris_rx must be finite and > 0")
        object.__setattr__(
            self, "gain_direct", _gain_vector(self.gain_direct, self.streams, "gain_direct")
        )
        object.__setattr__(
            self, "gain_tx_ris", _gain_vector(self.gain_tx_ris, self.streams, "gain_tx_ris")
        )


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one substream: (master_seed, stream_index) -> Philox key."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not (0 <= int(self.master_seed) < 2**64):
            raise ConfigurationError("master_seed must fit in 64 unsigned bits")
        if not (0 <= int(self.stream_index) < 2**_STREAM_BITS):
            raise ConfigurationError(
                f"stream_index must fit in {_STREAM_BITS} unsigned bits"
            )


def _generator(seed, domain):
    """Philox generator for (master_seed, stream_index) in a draw domain.

    The domain tag occupies the top bits of the second key word so draws
    in different domains with the same seed never share a stream.
    """
    key = [int(seed.master_seed), (domain << _STREAM_BITS) | int(seed.stream_index)]
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True, eq=False)
class ChannelBatch:
    """A stack of independent realizations (leading axis = trial)."""

    direct: np.ndarray    # (count, N, M)
    ris_rx: np.ndarray    # (count, N, L)
    tx_ris: np.ndarray    # (count, L, M)
    phases: np.ndarray    # (count, L)


def uniforms_per_trial(cfg):
    """Raw uniform draws one trial consumes; fixed so streams stay aligned."""
    n, m, l = cfg.rx_antennas, cfg.streams, cfg.ris_elements
    return 2 * n * m + 2 * n * l + 2 * l * m + l


def _polar_complex(u, variance):
    """Map uniform pairs to CN(0, variance) entries.

    z = sqrt(-variance * ln(1 - u1)) * exp(2j pi u2); exactly two uniforms
    per entry. 1 - u1 keeps the log argument in (0, 1].
    """
    radius = np.sqrt(-variance * np.log1p(-u[..., 0]))
    return radius * np.exp(2j * np.pi * u[..., 1])


def draw_channel_batch(cfg, seed, count):
    """Draw `count` i.i.d. realizations from one substream.

    The uniform block is laid out trial-major, so a shorter batch from the
    same (seed, stream) is a prefix of a longer one and per-trial content
    never depends on the batch split.
    """
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    n, m, l = cfg.rx_antennas, cfg.streams, cfg.ris_elements
    gen = _generator(seed, _DOMAIN_CHANNEL)
    u = gen.random((count, uniforms_per_trial(cfg)))
    o1 = 2 * n * m
    o2 = o1 + 2 * n * l
    o3 = o2 + 2 * l * m
    direct = _polar_complex(
        u[:, :o1].reshape(count, n, m, 2), cfg.gain_direct[np.newaxis, np.newaxis, :]
    )
    ris_rx = _polar_complex(u[:, o1:o2].reshape(count, n, l, 2), cfg.gain_ris_rx)
    tx_ris = _polar_complex(
        u[:, o2:o3].reshape(count, l, m, 2), cfg.gain_tx_ris[np.newaxis, np.newaxis, :]
    )
    phases = 2.0 * np.pi * u[:, o3:]
    return ChannelBatch(direct, ris_rx, tx_ris, phases)


def cascade_batch(batch):
    """Batched cascade H diag(e^{j phi}) G, (count, N, M)."""
    return (batch.ris_rx * np.exp(1j * batch.phases)[:, np.newaxis, :]) @ batch.tx_ris


def clt_psi2(cfg, mode):
    """Per-stream variance of the Gaussian cascade stand-in, by scale mode."""
    if mode not in SCALE_MODES:
        raise ConfigurationError(f"scale mode must be one of {SCALE_MODES}, got {mode!r}")
    base = cfg.gain_ris_rx * cfg.gain_tx_ris
    if mode == SCALE_DERIVED:
        return cfg.ris_elements * base
    return base / cfg.ris_elements
