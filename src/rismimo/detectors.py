"""Per-stream post-detection SNR under four CSI regimes.

All detectors are zero-forcing style linear front ends; they differ in which
part of the channel the receiver is assumed to know. With g_i(A) =
[(A^H A)^{-1}]_{ii} and B = H diag(e^{j phi}) G the cascade:

  DirectCsi  gamma_i = p / [(p L xi2_H sum_k xi2_G,k + 1) g_i(H_d)]; the
             unequalized cascade raises the noise floor by its average power.
  RisCsi     gamma_i = p / [(p sum_k xi2_D,k + 1) g_i(B)]; the unequalized
             direct path raises the noise floor. Needs L >= M.
  FullCsi    gamma_i = p / g_i(H_d + B), the exact composite channel (genie
             benchmark), never a Gaussian stand-in.
  Joint      with H_d = QR, gamma_i = p |r_ii + q_i^H b_i|^2: the rotated
             cascade adds a noncoherent term on each diagonal and
             off-diagonal leakage is ignored, as the SNR definition
             prescribes. Both addends pick up the same unit factor, so the
             value does not depend on the QR phase convention.

The kernels never factor A. Each block forms three trials-last Gram stacks,
G_d = H_d^H H_d, G_b = B^H B and X = H_d^H B, and one Gaussian elimination
serves all four schemes. The Gram products, like the cascade B itself
(`channel.cascade_batch`), are float64 matmuls on the interleaved (re, im)
views of the complex stacks (see `_gram`): at the paper's small arrays a
stacked complex128 matmul costs about five times as much per matrix in
call overhead.
Only the upper triangle is eliminated, since nothing reads the lower one
again. The elimination's pivots are the |r_kk|^2 of the QR factor with
the same column order. With column i put last, the last pivot of G_d, G_b
or G_d + G_b + X + X^H is 1/g_i. For Joint, G_d is bordered by the column
X[:, i] = H_d^H b_i; once pivots 0..i-1 are eliminated, row i holds
p_i = |r_ii|^2 and g_iM = conj(r_ii) q_i^H b_i, so
|r_ii + q_i^H b_i|^2 = |p_i + g_iM|^2 / p_i.
The schemes share one (M, M + 1, S * count) stack, one segment of
``count`` trials per requested scheme along its trials axis: a ZF
scheme's matrix with its stream moved last and a zero border column that
nothing reads, and Joint's G_d bordered by X[:, i]. The elimination works
on each trial's column alone, so one call gives every segment exactly
the bytes a call of its own would, and the NumPy call overhead of the
small row updates is paid once rather than once per scheme. A call for
every stream fills and eliminates the stack once per stream, so its
memory stays that of one stream. Rank deficiency is flagged per trial,
not raised, so failures get counted. Noise is never sampled: each gamma is a
deterministic function of the drawn channel blocks, which is what lets the
Monte Carlo engine reuse one draw across schemes (common random numbers).
`batch_gammas` returns every SNR at unit transmit power, p = 1: on the
Monte Carlo side p enters only through `montecarlo.threshold_at_unit_snr`.
"""

import enum

import numpy as np

from .channel import cascade_batch, trial_slices
from .errors import ConfigurationError, check_positive

# A matrix is treated as rank deficient unless its smallest elimination
# pivot exceeds RANK_RTOL times its largest, so the test is size- and
# unit-free. A Gram pivot is |r_kk|^2 and carries about eps times the largest
# pivot of rounding, so this bounds |r_kk| ratios at sqrt(1e-12) = 1e-6.
RANK_RTOL = 1e-12


class Scheme(enum.Enum):
    """Detection regime; values double as CLI tokens."""

    DirectCsi = "d"
    RisCsi = "ris"
    FullCsi = "full"
    Joint = "joint"

    # members are singletons, so identity is equality; Enum's own __hash__
    # hashes the name in Python on every dict and set lookup
    __hash__ = object.__hash__

    @classmethod
    def from_token(cls, token):
        for scheme in cls:
            if scheme.value == token:
                return scheme
        raise ConfigurationError(
            f"unknown scheme {token!r}; expected one of "
            f"{[s.value for s in cls]}"
        )


def threshold_from_rate(rate):
    """SNR threshold gamma_th = 2^rate - 1 for a target rate in bit/s/Hz."""
    rate = check_positive(rate, "rate")
    try:
        return 2.0**rate - 1.0
    except OverflowError:
        raise ConfigurationError(f"rate {rate} overflows a float threshold") from None


def interference_power(cfg, scheme, p=1.0):
    """p times the average power of the path a scheme leaves unequalized.

    DirectCsi does not equalize the cascade, of power L xi2_H sum_k xi2_G,k;
    RisCsi does not equalize the direct path, of power sum_k xi2_D,k. The
    other schemes equalize both paths (0). p is multiplied in first, so
    every caller rounds the product in the same order.
    """
    if scheme is Scheme.DirectCsi:
        return p * cfg.ris_elements * cfg.gain_ris_rx * float(cfg.gain_tx_ris.sum())
    if scheme is Scheme.RisCsi:
        return p * float(cfg.gain_direct.sum())
    return 0.0


def check_cascade_rank(cfg):
    """Cascade-CSI ZF needs L >= M for H Phi G to have full column rank."""
    if cfg.ris_elements < cfg.streams:
        raise ConfigurationError(
            "cascade-CSI detection needs ris_elements >= streams "
            f"({cfg.ris_elements} < {cfg.streams})"
        )


def _gram(a, *bs):
    """Trials-last stacks of A^H B, (m, m', count), one per B in ``bs``,
    from a (count, n, m) stack A and (count, n, m') stacks B, so each
    matrix entry is a contiguous run.

    Each product is one float64 matmul of the interleaved (re, im) views,
    P = A_f^T B_f of shape (count, 2m, 2m'): a stacked complex128 matmul
    costs about five times as much per matrix in call overhead at the
    paper's small arrays (0.31 against 0.06 us per 2x4 by 4x2 product).
    Viewed as complex along its rows, P holds Z_a = A_a^T B for the real
    (a = 0) and imaginary (a = 1) parts of A in alternate rows, and
    A^H B = Z_0 - j Z_1, which is re P[2i, 2j] + P[2i+1, 2j+1] and
    im P[2i, 2j+1] - P[2i+1, 2j]; for a self product the two halves of each
    imaginary diagonal entry are the same products, so it is exactly 0.

    The left operand is one C-ordered copy of A, shared by every product.
    The copy is what keeps a self product (B is A) on two buffers: numpy
    sends x^T @ x down a per-matrix syrk path, which took 1.7 times as
    long as gemm on a 342-trial (32, 12, 16) stack. A B whose last axis is
    not contiguous, such as a column permutation, is copied before its
    float64 view is taken.
    """
    left = np.array(a, order="C").view(np.float64).transpose(0, 2, 1)
    return [_interleaved_product(left, b) for b in bs]


def _interleaved_product(left, b):
    """Trials-last A^H B from the float64 view of A^T and the stack B.

    Z_0 - j Z_1 is written straight into the trials-last stack, one pass
    over P with no transposing copy after it; recombining in place in P's
    own rows measured 1.6 to 4 times as slow. P is freed on return, before
    the next product allocates its own.
    """
    if b.strides[-1] != b.itemsize:
        b = np.ascontiguousarray(b)
    p = (left @ b.view(np.float64)).view(np.complex128).transpose(1, 2, 0)
    g = np.empty((p.shape[0] // 2,) + p.shape[1:], dtype=np.complex128)
    np.multiply(p[1::2], -1j, out=g)
    g += p[0::2]
    return g


def _eliminate(g):
    """(pivots, ok) of Gaussian elimination, in place and without row
    exchanges, on a trials-last (k, k + c, count) stack whose leading (k, k)
    block is Hermitian.

    Row j ends as the Schur complement row left once pivots 0..j-1 are
    eliminated. Only the upper triangle is updated: the row and factor of
    step j both come from row j, and the pivots and the border lie on or
    above the diagonal, so the lower triangle is never read again. pivots
    is (k, count) and ok flags the trials whose smallest pivot exceeds
    RANK_RTOL times the largest; a NaN pivot fails the test.
    """
    k = g.shape[0]
    for j in range(k - 1):
        row = g[j, j + 1:]
        factor = row[:k - 1 - j].conj()
        factor *= 1.0 / g[j, j].real
        for r in range(k - 1 - j):
            g[j + 1 + r, j + 1 + r:] -= factor[r] * row[r:]
    # a copy, so that holding the pivots does not keep the whole stack alive
    pivots = np.diagonal(g).real.T.copy()
    return pivots, pivots.min(axis=0) > RANK_RTOL * pivots.max(axis=0)


def batch_gammas(batch, cfg, schemes, streams=None):
    """Per-stream unit-power SNRs for each requested scheme on a shared
    channel stack.

    Returns (gammas, ok) with ok a (count,) mask of trials where every
    requested elimination had full numerical rank. gammas[scheme] has
    shape (count, M); given ``streams``, a {scheme: stream index} dict, it
    has shape (count,) and holds that stream alone. Every requested
    scheme is one segment of a shared stack, eliminated once per slice for
    ``streams`` and once per stream per slice without it (see the module
    docstring). Flagged trials read 0. The trials are worked
    in the slices of `channel.trial_slices`, which bounds the working set
    and leaves every byte as one piece would give it; the benchmark's
    first-block check passes a whole block here.
    """
    if Scheme.RisCsi in schemes:
        check_cascade_rank(cfg)
    count = batch.direct.shape[0]
    shape = (count, cfg.streams) if streams is None else (count,)
    gammas = {s: np.empty(shape) for s in schemes}
    ok = np.empty(count, dtype=bool)
    lo = 0
    for size in trial_slices(cfg, count):
        part = slice(lo, lo + size)
        got, ok[part] = _slice_gammas(batch[part], cfg, schemes, streams)
        for s in schemes:
            gammas[s][part] = got[s]
        lo += size
    return gammas, ok


def _slice_gammas(batch, cfg, schemes, streams):
    """`batch_gammas` on a batch in one piece: one `_eliminate` call on
    the shared stack for ``streams``, or one per stream without it, each
    filling the same stack again."""
    wanted = set(schemes)
    m = cfg.streams
    direct = batch.direct
    count = direct.shape[0]
    cascade = cascade_batch(batch) if wanted - {Scheme.DirectCsi} else None
    gd = gb = cross = None
    if wanted & {Scheme.FullCsi, Scheme.Joint}:
        gd, cross = _gram(direct, direct, cascade)
    elif Scheme.DirectCsi in wanted:
        gd, = _gram(direct, direct)
    if wanted & {Scheme.RisCsi, Scheme.FullCsi}:
        gb, = _gram(cascade, cascade)
    del cascade
    zf = {Scheme.DirectCsi: gd, Scheme.RisCsi: gb}
    if Scheme.FullCsi in wanted:
        # summed in contiguous memory, then copied: adding in place into the
        # strided segment took about 1.5 times as long
        full = zf[Scheme.FullCsi] = gd + gb
        full += cross
        full += cross.conj().transpose(1, 0, 2)

    parts = {s: slice(n * count, (n + 1) * count)
             for n, s in enumerate(dict.fromkeys(schemes))}
    stack = np.empty((m, m + 1, len(parts) * count), dtype=np.complex128)
    requests = [streams] if streams is not None else [
        dict.fromkeys(schemes, i) for i in range(m)]
    runs = []
    # A rank-deficient trial may divide by a zero pivot. The inf or NaN stays
    # in that trial, fails the strict ratio test and is replaced by 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        for request in requests:
            for s in schemes:
                seg, i = stack[:, :, parts[s]], request[s]
                if s is Scheme.Joint:
                    seg[:, :m] = gd
                    seg[:, m] = cross[:, i]
                else:
                    seg[:, m] = 0.0
                    _write_moved_last(seg, i, zf[s])
            pivots, flags = _eliminate(stack)
            run = {}
            for s in schemes:
                part, i = parts[s], request[s]
                if s is Scheme.Joint:
                    # row i ends as (p_i, g_iM)
                    piv = pivots[i, part]
                    gam = np.abs(piv + stack[i, m, part]) ** 2 / piv
                else:
                    gam = (1.0 / (interference_power(cfg, s) + 1.0)) * pivots[-1, part]
                run[s] = gam, flags[part]
            runs.append(run)

    ok = np.ones(count, dtype=bool)
    gammas = {}
    for s in schemes:
        k = np.logical_and.reduce([run[s][1] for run in runs])
        gam = np.where(k, np.array([run[s][0] for run in runs]), 0.0).T
        gammas[s] = gam if streams is None else gam[:, 0]
        ok &= k
    return gammas, ok


def _write_moved_last(seg, i, gram):
    """Copy the trials-last (m, m, count) ``gram`` into seg[:, :m] with
    index i moved last, block by block: the rows and columns before i keep
    their place, those after it move up by one, and i goes last."""
    m = gram.shape[0]
    moves = [(src, dst) for src, dst in (
        (slice(0, i), slice(0, i)),
        (slice(i + 1, m), slice(i, m - 1)),
        (slice(i, i + 1), slice(m - 1, m)),
    ) if src.start < src.stop]
    for rows, rows_to in moves:
        for cols, cols_to in moves:
            seg[rows_to, cols_to] = gram[rows, cols]
