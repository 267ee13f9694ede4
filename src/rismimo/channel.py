"""System configuration and Rayleigh channel generation.

Model: an N-antenna receiver serves M single-antenna transmitters, assisted
by an L-element reflecting surface applying per-element phase shifts. The
receiver sees

    Y = sqrt(p) (H_d + H diag(e^{j phi}) G) s + n

with H_d (N x M) the direct links, H (N x L) the surface-to-receiver links,
G (L x M) the transmitter-to-surface links, all i.i.d. circularly symmetric
complex Gaussian with per-link variances, and phi uniform on [0, 2pi).
`SystemConfig` is the system alone; a sweep or a law call supplies the
operating point, the transmit SNR p and the target rate.

Randomness is keyed: every (master_seed, stream_index) pair seeds one
SFC64 generator per draw domain through NumPy's SeedSequence. The entries
are NumPy's ziggurat normals, one per real or imaginary part, and the
phases are uniforms from a second domain, both trial-major, so a stream's
draws are a fixed function of the pair regardless of how work is scheduled
across processes, or of how many trials each call draws.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, check_count, check_index, check_positive

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

_DOMAIN_ENTRIES = 0    # draw domain of the channel entries
_DOMAIN_PHASES = 1     # of the surface phases
_DOMAIN_SURROGATE = 2  # of the Gaussian stand-in of the cascade (tests)
_STREAM_BITS = 56
# Bytes of channel variates one trial slice holds. Blocks are drawn and
# detected in slices of about this size, so a block's working set stays
# bounded as N and L grow; see `trial_slices`. At 4 MiB a slice's buffers
# and kernel stacks stay small enough for malloc to reuse them between
# curves; at 8 MiB they were handed back to the OS and faulted in again,
# about 6,800 pages per `paper-analytic` benchmark repetition. 2 MiB cost
# `fig1` about 3%.
SLICE_BYTES = 4 * 2**20


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
    check_positive(arr, name)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class SystemConfig:
    """The system of one simulated uplink, without an operating point.

    gain_direct[i] is the variance of each direct-link coefficient of
    stream i, gain_tx_ris[i] the variance of stream i's links onto the
    surface, and gain_ris_rx the (common) variance of each surface-to-
    receiver link.
    """

    rx_antennas: int
    streams: int
    ris_elements: int
    gain_direct: np.ndarray = field(default=1.0)  # type: ignore[assignment]
    gain_tx_ris: np.ndarray = field(default=1.0)  # type: ignore[assignment]
    gain_ris_rx: float = 1.0

    def __post_init__(self):
        for name in ("rx_antennas", "streams", "ris_elements"):
            check_count(getattr(self, name), name)
        if self.streams > self.rx_antennas:
            raise ConfigurationError(
                f"need rx_antennas >= streams, got {self.rx_antennas} < {self.streams}"
            )
        check_positive(self.gain_ris_rx, "gain_ris_rx")
        object.__setattr__(
            self, "gain_direct", _gain_vector(self.gain_direct, self.streams, "gain_direct")
        )
        object.__setattr__(
            self, "gain_tx_ris", _gain_vector(self.gain_tx_ris, self.streams, "gain_tx_ris")
        )

    @functools.cached_property
    def entry_scales(self):
        """Standard deviation of each real and imaginary part of a trial's
        channel entries, in draw order: built once per config, read-only."""
        n, l = self.rx_antennas, self.ris_elements
        scales = np.repeat(np.concatenate((
            np.tile(np.sqrt(0.5 * self.gain_direct), n),
            np.full(n * l, math.sqrt(0.5 * self.gain_ris_rx)),
            np.tile(np.sqrt(0.5 * self.gain_tx_ris), l),
        )), 2)
        scales.flags.writeable = False
        return scales


def check_stream(cfg, index):
    """``index`` as an int if it is an integer stream index of ``cfg``."""
    index = check_index(index, "stream index")
    if index >= cfg.streams:
        raise ConfigurationError(
            f"stream index {index} out of range for {cfg.streams} streams"
        )
    return index


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one substream: (master_seed, stream_index) -> generator key."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name, bits in (("master_seed", 64), ("stream_index", _STREAM_BITS)):
            value = check_index(getattr(self, name), name)
            if value >= 2**bits:
                raise ConfigurationError(f"{name} must fit in {bits} unsigned bits")
            object.__setattr__(self, name, value)


def _generator(seed, domain):
    """SFC64 generator for (master_seed, stream_index) in a draw domain.

    SeedSequence pads the master seed to its fixed pool width before it
    appends the spawn key (domain, stream_index), so no two triples share
    an input. A list key [master_seed, domain, stream_index] would not do:
    its ints become variable-length 32-bit words, and [2**32, 0, 5] is
    the same input as [0, 1, 5 * 2**32].
    """
    key = np.random.SeedSequence(seed.master_seed, spawn_key=(domain, seed.stream_index))
    return np.random.Generator(np.random.SFC64(key))


@dataclass(frozen=True, eq=False)
class ChannelBatch:
    """A stack of independent realizations (leading axis = trial)."""

    direct: np.ndarray    # (count, N, M)
    ris_rx: np.ndarray    # (count, N, L)
    tx_ris: np.ndarray    # (count, L, M)
    phases: np.ndarray    # (count, L)

    def __getitem__(self, trials):
        """The realizations of a slice of trials, as views."""
        return ChannelBatch(self.direct[trials], self.ris_rx[trials],
                            self.tx_ris[trials], self.phases[trials])


def uniforms_per_trial(cfg):
    """Variates per trial: two normals per entry and a uniform per phase."""
    n, m, l = cfg.rx_antennas, cfg.streams, cfg.ris_elements
    return 2 * n * m + 2 * n * l + 2 * l * m + l


def trial_slices(cfg, count):
    """Sizes of the consecutive slices that `count` trials are worked in.

    As few slices as keep each one's variates within SLICE_BYTES, with
    sizes that differ by at most one. A multi-trial batch never gets a
    one-trial slice: the detector kernels round a lone trial differently
    in the last bit, and every slice length of two or more gives the same
    bytes as one piece.
    """
    per = max(1, SLICE_BYTES // (8 * uniforms_per_trial(cfg)))
    pieces = max(1, min(-(-count // per), count // 2))
    size, extra = divmod(count, pieces)
    return [size + 1] * extra + [size] * (pieces - extra)


def channel_generators(seed):
    """The (entries, phases) generators of one substream. Successive
    `draw_channel_batch` calls on the pair continue its draws."""
    return _generator(seed, _DOMAIN_ENTRIES), _generator(seed, _DOMAIN_PHASES)


def draw_channel_batch(cfg, seed, count, out=None):
    """Draw `count` i.i.d. realizations from one substream.

    `seed` is a SeedSpec, which starts the substream, or the generator
    pair of `channel_generators`, which continues it. Entries and phases
    are laid out trial-major, so a shorter batch from the same (seed,
    stream) is a prefix of a longer one, consecutive draws from one pair
    concatenate to a single draw, and per-trial content never depends on
    the batch split.

    `out`, a C-ordered float64 array of `uniforms_per_trial(cfg)` columns
    and at least `count` rows, takes the variates in its first `count`
    rows (every trial's entries, then every trial's phases), and the batch
    views them; by default a new array is made. Filling a buffer draws
    the same values as a fresh draw.
    """
    count = check_count(count, "count")
    n, m, l = cfg.rx_antennas, cfg.streams, cfg.ris_elements
    entries, phases = channel_generators(seed) if isinstance(seed, SeedSpec) else seed
    if out is None:
        out = np.empty((count, uniforms_per_trial(cfg)))
    flat = out[:count].reshape(-1)
    width = 2 * (n * m + n * l + l * m)
    x = flat[:count * width].reshape(count, width)
    phi = flat[x.size:x.size + count * l].reshape(count, l)
    entries.standard_normal(out=x)
    x *= cfg.entry_scales
    d, h, g = np.split(x.view(np.complex128), (n * m, n * m + n * l), axis=1)
    phases.random(out=phi)
    phi *= 2.0 * np.pi
    return ChannelBatch(
        direct=d.reshape(count, n, m),
        ris_rx=h.reshape(count, n, l),
        tx_ris=g.reshape(count, l, m),
        phases=phi,
    )


def cascade_batch(batch):
    """Batched cascade H diag(e^{j phi}) G, (count, N, M).

    One float64 matmul on interleaved (re, im) views, with no copy of H:
    a stacked complex128 matmul spends its time in per-matrix call
    overhead at the paper's small arrays. The phases rotate the rows of
    G, never larger than H since N >= M, into W = diag(e^{j phi}) G.
    W and jW are written into one (count, L, 2, M) stack, whose float64
    view reshaped to (count, 2L, 2M) is the real form R of W: row 2l is
    (re w_l0, im w_l0, re w_l1, ...) and row 2l+1 is the same for j w_l,
    (-im w_l0, re w_l0, ...). A row of H's float64 view is
    (re h_0, im h_0, re h_1, ...), so its product with column 2k of R is
    sum_l re h_l re w_lk - im h_l im w_lk = re (HW)_k, and with column
    2k+1 it is im (HW)_k: H_f @ R, viewed as complex, is HW.
    """
    h, g = batch.ris_rx, batch.tx_ris
    if h.strides[-1] != h.itemsize:
        h = np.ascontiguousarray(h)
    count, l, m = g.shape
    w = np.empty((count, l, 2, m), dtype=np.complex128)
    np.multiply(np.exp(1j * batch.phases)[:, :, np.newaxis], g, out=w[:, :, 0])
    np.multiply(w[:, :, 0], 1j, out=w[:, :, 1])
    r = w.view(np.float64).reshape(count, 2 * l, 2 * m)
    return (h.view(np.float64) @ r).view(np.complex128)


def clt_psi2(cfg, mode):
    """Per-stream variance of the Gaussian cascade stand-in, by scale mode."""
    if mode not in SCALE_MODES:
        raise ConfigurationError(f"scale mode must be one of {SCALE_MODES}, got {mode!r}")
    base = cfg.gain_ris_rx * cfg.gain_tx_ris
    if mode == SCALE_DERIVED:
        return cfg.ris_elements * base
    return base / cfg.ris_elements
