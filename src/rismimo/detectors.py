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

The kernels work on stacked arrays (leading axis = trial); one-stream
requests form R factors only. Rank deficiency is flagged per trial, not
raised, so failures get counted. Noise is never sampled: each gamma is a
deterministic function of the drawn channel blocks, which is what lets the
Monte Carlo engine reuse one draw across schemes (common random numbers).
"""

import enum

import numpy as np

from .channel import cascade_batch
from .errors import ConfigurationError

# Relative threshold on diag(R) below which a matrix is treated as rank
# deficient. Scaled by the largest diagonal so it is size- and unit-free.
RANK_RTOL = 1e-12


class Scheme(enum.Enum):
    """Detection regime; values double as CLI tokens."""

    DirectCsi = "d"
    RisCsi = "ris"
    FullCsi = "full"
    Joint = "joint"

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
    if not rate > 0:
        raise ConfigurationError(f"rate must be > 0, got {rate}")
    return float(2.0**rate - 1.0)


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


def _batch_rank_ok(rdiag_abs):
    top = rdiag_abs.max(axis=1)
    return rdiag_abs.min(axis=1) >= RANK_RTOL * top


def _batch_inverse_gram(a, stream=None):
    """(diag((A^H A)^{-1}), rank-ok flags) for a (count, n, m) stack.

    With ``stream`` given, only that entry is computed: with column i moved
    last, 1/[(A^H A)^{-1}]_{ii} = |r_mm|^2 is the squared distance of a_i
    from the span of the other columns. Otherwise entry i is the squared
    norm of row i of R^{-1}. Flagged trials get g = 1.
    """
    m = a.shape[2]
    if stream is not None:
        a = a[:, :, [k for k in range(m) if k != stream] + [stream]]
    r = np.linalg.qr(a, mode="r")
    d = np.abs(np.diagonal(r, axis1=1, axis2=2))
    ok = _batch_rank_ok(d)
    if stream is not None:
        return 1.0 / np.where(ok, d[:, -1], 1.0) ** 2, ok
    if not ok.all():
        r[~ok] = np.eye(m, dtype=r.dtype)
    return np.sum(np.abs(np.linalg.inv(r)) ** 2, axis=2), ok


def _batch_joint(direct, cascade, stream=None):
    """(|r_ii + q_i^H c_i|^2, rank-ok flags) with H_d = QR, per trial.

    With ``stream`` given, Q is never formed: the R factor of [H_d, c_i]
    holds R in its first M columns and Q^H c_i in the last, so
    t_i = R[i, M]. For all streams Q is formed instead: factoring all of
    [H_d, C] would compute the whole of Q^H C to use its diagonal.
    """
    m = direct.shape[2]
    if stream is None:
        q, r = np.linalg.qr(direct)
        t = np.einsum("bnm,bnm->bm", q.conj(), cascade)
    else:
        a = np.concatenate((direct, cascade[:, :, stream:stream + 1]), axis=2)
        r = np.linalg.qr(a, mode="r")
        t = r[:, stream, m]
    rdiag = np.diagonal(r[:, :m, :m], axis1=1, axis2=2)
    ok = _batch_rank_ok(np.abs(rdiag))
    if stream is not None:
        rdiag = rdiag[:, stream]
    return np.abs(rdiag + t) ** 2, ok


def batch_gammas(batch, cfg, schemes, streams=None):
    """Per-stream SNRs for each requested scheme on a shared channel stack.

    Returns (gammas, ok) with ok a (count,) mask of trials where every
    requested decomposition had full numerical rank. gammas[scheme] has
    shape (count, M); given ``streams``, a {scheme: stream index} dict, it
    has shape (count,) and holds that stream alone, which costs one R
    factor per scheme and no inverse.
    """
    if Scheme.RisCsi in schemes:
        check_cascade_rank(cfg)
    p = cfg.tx_snr
    ok = np.ones(batch.direct.shape[0], dtype=bool)
    gammas = {}
    need_cascade = any(s is not Scheme.DirectCsi for s in schemes)
    cascade = cascade_batch(batch) if need_cascade else None
    for s in schemes:
        i = None if streams is None else streams[s]
        if s is Scheme.Joint:
            g, k = _batch_joint(batch.direct, cascade, i)
            gammas[s] = p * g
        else:
            if s is Scheme.DirectCsi:
                a = batch.direct
            elif s is Scheme.RisCsi:
                a = cascade
            else:
                a = batch.direct + cascade
            g, k = _batch_inverse_gram(a, i)
            gammas[s] = p / ((interference_power(cfg, s, p) + 1.0) * g)
        ok &= k
    return gammas, ok
