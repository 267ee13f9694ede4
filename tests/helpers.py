"""Code that only the tests use: the per-stream outage estimator, the
composite channel, the Gaussian cascade surrogate, the conditional
joint-detection law, the QR formulation of the detector kernels, their
per-scheme elimination path, the full-update form of their elimination
and the manifest the CLI builds from its arguments.

Each is built from the package's own pieces, so what it checks is the
package: the same block loop, draws, threshold map and special functions
that a sweep runs.
"""

import math
from dataclasses import dataclass

import numpy as np

from rismimo import cli
from rismimo.channel import (
    DEFAULT_SCALE_MODE,
    _DOMAIN_SURROGATE,
    _generator,
    cascade_batch,
    check_stream,
    clt_psi2,
)
from rismimo.detectors import RANK_RTOL, Scheme, _eliminate, _gram, interference_power
from rismimo.errors import ConfigurationError, check_nonnegative, check_positive
from rismimo.montecarlo import (
    _collect,
    _estimate_from_count,
    _validate_trials,
    threshold_at_unit_snr,
)
from rismimo.specfun import marcum_q1_complement


def composite_batch(batch):
    """Batched composite channel H_d + H diag(e^{j phi}) G, (count, N, M)."""
    return batch.direct + cascade_batch(batch)


@dataclass(frozen=True, eq=False)
class CltSurrogate:
    """Gaussian stand-in A diag(psi) for the cascaded channel."""

    matrix: np.ndarray    # (N, M), column i ~ CN(0, psi2[i])
    psi2: np.ndarray      # (M,)
    mode: str


def clt_surrogate(cfg, seed, mode=DEFAULT_SCALE_MODE):
    """Draw the Gaussian surrogate of the cascade for (cfg, seed).

    Uses a draw domain distinct from draw_channel_batch, so surrogate and
    exact channels from the same seed are independent.
    """
    psi2 = clt_psi2(cfg, mode)
    n, m = cfg.rx_antennas, cfg.streams
    gen = _generator(seed, _DOMAIN_SURROGATE)
    # CN(0, 2) entries: N(0, 1) real and imaginary parts, in turn
    matrix = gen.standard_normal((n, 2 * m)).view(np.complex128) * np.sqrt(0.5 * psi2)
    return CltSurrogate(matrix, psi2, mode)


def estimate_outage(cfg, scheme, gamma_th, tx_snr, trials, master_seed, workers=1):
    """Empirical outage fraction per stream at transmit SNR tx_snr:
    P(gamma_i < gamma_th), over the trials of the integer ``master_seed``.

    Returns a list of OutageEstimate, indexed by stream.  gamma_th may be 0
    (estimate 0), a positive level, or inf (estimate 1).  Counting runs at
    unit transmit power against the mapped threshold, which is the same
    event trial for trial.
    """
    scheme = Scheme(scheme)
    g = float(gamma_th)
    if math.isnan(g) or g < 0.0:
        raise ConfigurationError(f"gamma_th must be >= 0 or inf, got {gamma_th}")
    trials = _validate_trials(trials, master_seed)
    thr = threshold_at_unit_snr(scheme, cfg, tx_snr, g)
    parts, failures = _collect(cfg, (scheme,), None, trials, master_seed, workers)
    counts = np.count_nonzero(np.concatenate(parts[scheme]) < thr, axis=0)
    valid = trials - failures
    return [_estimate_from_count(int(c), valid) for c in counts]


def outage_joint_conditional(y, cfg, i, gamma_th, tx_snr, mode=DEFAULT_SCALE_MODE):
    """Joint-detection outage at transmit SNR p = tx_snr, conditioned on
    the direct coherent power y.

    Given y = p |r_ii|^2 and the cascade variance held at its stand-in
    value psi2_i, gamma_i is noncentral chi-square (2 dof, noncentrality y,
    per-dimension variance sigma2 = p psi2_i / 2), so the conditional outage
    is 1 - Q1(sqrt(y/sigma2), sqrt(gamma_th/sigma2)). The exact derived-mode
    law in `analytic.outage_joint` averages this over the random cascade
    variance.
    """
    check_stream(cfg, i)
    g = check_nonnegative(gamma_th, "gamma_th")
    y = check_nonnegative(y, "conditional power")
    sigma2 = 0.5 * check_positive(tx_snr, "tx_snr") * clt_psi2(cfg, mode)[i]
    return marcum_q1_complement(math.sqrt(y / sigma2), math.sqrt(g / sigma2))


def _qr_rank_ok(rdiag_abs):
    # the kernels' test, on the pivots |r_kk|^2 that their elimination sees
    pivots = rdiag_abs**2
    return pivots.min(axis=1) > RANK_RTOL * pivots.max(axis=1)


def _qr_inverse_gram(a, stream=None):
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
    ok = _qr_rank_ok(d)
    if stream is not None:
        return 1.0 / np.where(ok, d[:, -1], 1.0) ** 2, ok
    if not ok.all():
        r[~ok] = np.eye(m, dtype=r.dtype)
    return np.sum(np.abs(np.linalg.inv(r)) ** 2, axis=2), ok


def _qr_joint(direct, cascade, stream=None):
    """(|r_ii + q_i^H c_i|^2, rank-ok flags) with H_d = QR, per trial.

    With ``stream`` given, Q is never formed: the R factor of [H_d, c_i]
    holds R in its first M columns and Q^H c_i in the last, so
    t_i = R[i, M]. For all streams Q is formed instead.
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
    ok = _qr_rank_ok(np.abs(rdiag))
    if stream is not None:
        rdiag = rdiag[:, stream]
    return np.abs(rdiag + t) ** 2, ok


def qr_gammas(batch, cfg, schemes, tx_snr, streams=None):
    """`detectors.batch_gammas` by batched QR factors, at transmit SNR
    p = tx_snr: the reference the Gram-domain kernels are checked against
    at p = 1. Same (gammas, ok) return, with flagged trials left at
    whatever the QR gives."""
    p = check_positive(tx_snr, "tx_snr")
    cascade = cascade_batch(batch)
    ok = np.ones(batch.direct.shape[0], dtype=bool)
    gammas = {}
    for s in schemes:
        i = None if streams is None else streams[s]
        if s is Scheme.Joint:
            g, k = _qr_joint(batch.direct, cascade, i)
            gammas[s] = p * g
        else:
            a = {
                Scheme.DirectCsi: batch.direct,
                Scheme.RisCsi: cascade,
                Scheme.FullCsi: batch.direct + cascade,
            }[s]
            g, k = _qr_inverse_gram(a, i)
            gammas[s] = p / ((interference_power(cfg, s, p) + 1.0) * g)
        ok &= k
    return gammas, ok


def _last_pivot(gram, i):
    """(1/[G^{-1}]_ii, ok) from a trials-last Gram stack: put index i last
    and eliminate the others."""
    order = [k for k in range(gram.shape[0]) if k != i] + [i]
    pivots, ok = _eliminate(gram[np.ix_(order, order)])
    return pivots[-1], ok


def per_scheme_gammas(batch, cfg, schemes, streams=None):
    """`detectors.batch_gammas` with one elimination per scheme and stream,
    on the batch in one piece: each ZF scheme's Gram matrix gathered with
    the stream last and eliminated alone, and G_d bordered by every
    requested column of X = H_d^H B eliminated once for Joint. The stacked
    kernel must match it byte for byte, rank flags included."""
    wanted = set(schemes)
    m = cfg.streams
    direct = batch.direct
    cascade = cascade_batch(batch) if wanted - {Scheme.DirectCsi} else None
    grams = {}
    if wanted & {Scheme.FullCsi, Scheme.Joint}:
        grams[Scheme.DirectCsi], cross = _gram(direct, direct, cascade)
    elif Scheme.DirectCsi in wanted:
        grams[Scheme.DirectCsi], = _gram(direct, direct)
    if wanted & {Scheme.RisCsi, Scheme.FullCsi}:
        grams[Scheme.RisCsi], = _gram(cascade, cascade)
    if Scheme.FullCsi in wanted:
        grams[Scheme.FullCsi] = (grams[Scheme.DirectCsi] + grams[Scheme.RisCsi]
                                 + cross + cross.conj().transpose(1, 0, 2))

    ok = np.ones(direct.shape[0], dtype=bool)
    gammas = {}
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in schemes:
            idx = list(range(m)) if streams is None else [streams[s]]
            if s is Scheme.Joint:
                # G_d bordered by X[:, i]; row i ends as (p_i, g_iM)
                g = np.concatenate((grams[Scheme.DirectCsi], cross[:, idx]), axis=1)
                pivots, k = _eliminate(g)
                piv = pivots[idx]
                gam = np.abs(piv + g[idx, m + np.arange(len(idx))]) ** 2 / piv
            else:
                runs = [_last_pivot(grams[s], i) for i in idx]
                gam = ((1.0 / (interference_power(cfg, s) + 1.0))
                       * np.array([r[0] for r in runs]))
                k = np.logical_and.reduce([r[1] for r in runs])
            gam = np.where(k, gam, 0.0).T
            gammas[s] = gam if streams is None else gam[:, 0]
            ok &= k
    return gammas, ok


def eliminate_full_update(g):
    """`detectors._eliminate` with the whole trailing block updated at each
    step, lower triangle included: the reference that the kernel's
    upper-triangle update must match bit for bit."""
    k = g.shape[0]
    for j in range(k - 1):
        row = g[j, j + 1:]
        factor = row[:k - 1 - j].conj()
        factor *= 1.0 / g[j, j].real
        g[j + 1:, j + 1:] -= factor[:, np.newaxis] * row
    pivots = np.diagonal(g).real.T.copy()
    return pivots, pivots.min(axis=0) > RANK_RTOL * pivots.max(axis=0)


def cli_manifest(*argv):
    """The RunManifest the CLI resolves from ``argv``, without a config file."""
    return cli.build_manifest(cli._PARSER.parse_args(argv), {})
