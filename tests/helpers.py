"""Code that only the tests use: the per-stream outage estimator, the
composite channel, the Gaussian cascade surrogate and the conditional
joint-detection law.

Each is built from the package's own pieces, so what it checks is the
package: the same block loop, draws, threshold map and special functions
that a sweep runs.
"""

import math
from dataclasses import dataclass

import numpy as np

from rismimo.analytic import _check_stream, _check_threshold
from rismimo.channel import (
    DEFAULT_SCALE_MODE,
    _generator,
    _polar_complex,
    cascade_batch,
    clt_psi2,
)
from rismimo.detectors import Scheme
from rismimo.errors import ConfigurationError
from rismimo.montecarlo import (
    _collect,
    _estimate_from_count,
    _unit_config,
    _validate_trials,
    threshold_at_unit_snr,
)
from rismimo.specfun import marcum_q1_complement

# draw domain of the surrogate; the channel draws use domain 0
_DOMAIN_SURROGATE = 1


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
    u = gen.random((n, m, 2))
    matrix = _polar_complex(u, psi2[np.newaxis, :])
    return CltSurrogate(matrix, psi2, mode)


def estimate_outage(cfg, scheme, gamma_th, trials, seed, workers=1):
    """Empirical outage fraction per stream: P(gamma_i < gamma_th).

    Returns a list of OutageEstimate, one per stream.  gamma_th may be 0
    (estimate 0), a positive level, or inf (estimate 1).  Counting runs at
    unit transmit power against the mapped threshold, which is the same
    event trial for trial.
    """
    scheme = Scheme(scheme)
    g = float(gamma_th)
    if math.isnan(g) or g < 0.0:
        raise ConfigurationError(f"gamma_th must be >= 0 or inf, got {gamma_th}")
    trials = _validate_trials(trials)
    thr = threshold_at_unit_snr(scheme, cfg, cfg.tx_snr, g)
    parts, failures = _collect(_unit_config(cfg), (scheme,), None, trials, seed, workers)
    counts = np.count_nonzero(np.concatenate(parts[scheme]) < thr, axis=0)
    valid = trials - failures
    return [
        _estimate_from_count(scheme, i, int(counts[i]), valid, failures)
        for i in range(cfg.streams)
    ]


def outage_joint_conditional(y, cfg, i, gamma_th, mode=DEFAULT_SCALE_MODE):
    """Joint-detection outage conditioned on the direct coherent power y.

    Given y = p |r_ii|^2 and the cascade variance held at its stand-in
    value psi2_i, gamma_i is noncentral chi-square (2 dof, noncentrality y,
    per-dimension variance sigma2 = p psi2_i / 2), so the conditional outage
    is 1 - Q1(sqrt(y/sigma2), sqrt(gamma_th/sigma2)). The exact derived-mode
    law in `analytic.outage_joint` averages this over the random cascade
    variance.
    """
    _check_stream(cfg, i)
    g = _check_threshold(gamma_th)
    if y < 0 or not math.isfinite(y):
        raise ConfigurationError(f"conditional power must be finite and >= 0, got {y}")
    sigma2 = 0.5 * cfg.tx_snr * clt_psi2(cfg, mode)[i]
    return marcum_q1_complement(math.sqrt(y / sigma2), math.sqrt(g / sigma2))
