"""Closed-form and quadrature outage probabilities per scheme.

Each function returns P(gamma_i < gamma_th) for one stream under one CSI
regime, matching the corresponding detector in `detectors`. DirectCsi and
RisCsi expressions are exact, and so is the Joint law in the derived scale
mode, which averages over the random cascade power. FullCsi, and the Joint
law in the paper scale mode, rest on the Gaussian stand-in for the cascade,
whose per-stream variance psi2 depends on the selected scale mode (see
`channel.clt_psi2`), so their accuracy improves with the number of surface
elements.
"""

import math

import numpy as np
from scipy.special import betainc, gammainc

from .channel import DEFAULT_SCALE_MODE, SCALE_PAPER, clt_psi2
from .detectors import Scheme, check_cascade_rank, interference_power
from .errors import ConfigurationError
from .specfun import (
    adaptive_quad,  # unused here; bench/tracing.py wraps analytic.adaptive_quad
    gamma_expectation_rule,
    marcum_complement_gamma_average,
    marcum_q1_complement,  # unused here; bench/tracing.py counts its calls
    product_gamma_cdf,
    regularized_lower_gamma,
)

JOINT_PRINTED = "printed"
JOINT_QUADRATURE = "quadrature"
JOINT_METHODS = (JOINT_PRINTED, JOINT_QUADRATURE)
DEFAULT_JOINT_METHOD = JOINT_QUADRATURE


def _check_stream(cfg, i):
    if not (0 <= i < cfg.streams):
        raise ConfigurationError(
            f"stream index {i} out of range for {cfg.streams} streams"
        )


def _check_threshold(gamma_th):
    g = float(gamma_th)
    if g < 0 or not math.isfinite(g):
        raise ConfigurationError(f"gamma_th must be finite and >= 0, got {gamma_th}")
    return g


def outage_direct(cfg, i, gamma_th):
    """Direct-CSI outage: P(n, gamma_th (p L xi2_H S_G + 1)/(p xi2_D,i)).

    n = N - M + 1 and S_G = sum_k xi2_G,k; exact for Rayleigh links because
    1/(xi2_D,i [(H_d^H H_d)^{-1}]_{ii}) is Gamma(n) distributed.
    """
    _check_stream(cfg, i)
    g = _check_threshold(gamma_th)
    p = cfg.tx_snr
    noise = interference_power(cfg, Scheme.DirectCsi, p) + 1.0
    shape = cfg.rx_antennas - cfg.streams + 1
    return regularized_lower_gamma(shape, g * noise / (p * cfg.gain_direct[i]))


def outage_direct_limit(cfg, i, gamma_th):
    """p -> inf limit of outage_direct (the outage floor)."""
    _check_stream(cfg, i)
    g = _check_threshold(gamma_th)
    scale = interference_power(cfg, Scheme.DirectCsi)
    shape = cfg.rx_antennas - cfg.streams + 1
    return regularized_lower_gamma(shape, g * scale / cfg.gain_direct[i])


def _ris_kappa(cfg, i, limit=False):
    denom = cfg.gain_ris_rx * cfg.gain_tx_ris[i]
    if limit:
        return interference_power(cfg, Scheme.RisCsi) / denom
    p = cfg.tx_snr
    return (interference_power(cfg, Scheme.RisCsi, p) + 1.0) / (p * denom)


def outage_ris(cfg, i, gamma_th):
    """Cascade-CSI outage via the product-of-gammas law.

    Given G, the rows of H Phi G are i.i.d. CN(0, xi2_H G^H G) (Phi is
    unitary), so the stream-i post-ZF numerator is xi2_H U / [(G^H G)^{-1}]_ii
    with U ~ Gamma(N-M+1) independent of G, and 1/[(G^H G)^{-1}]_ii is
    xi2_G,i V with V ~ Gamma(L-M+1). Hence P(out) = F_{UV}(kappa gamma_th),
    kappa = (p sum_k xi2_D,k + 1)/(p xi2_H xi2_G,i), for every N >= M and
    L >= M.
    """
    _check_stream(cfg, i)
    check_cascade_rank(cfg)
    g = _check_threshold(gamma_th)
    n1 = cfg.rx_antennas - cfg.streams + 1
    n2 = cfg.ris_elements - cfg.streams + 1
    return product_gamma_cdf(n1, n2, _ris_kappa(cfg, i) * g)


def outage_ris_limit(cfg, i, gamma_th):
    """p -> inf limit of outage_ris (the outage floor)."""
    _check_stream(cfg, i)
    check_cascade_rank(cfg)
    g = _check_threshold(gamma_th)
    n1 = cfg.rx_antennas - cfg.streams + 1
    n2 = cfg.ris_elements - cfg.streams + 1
    return product_gamma_cdf(n1, n2, _ris_kappa(cfg, i, limit=True) * g)


def outage_full_clt(cfg, i, gamma_th, mode=DEFAULT_SCALE_MODE):
    """Full-CSI outage with the cascade replaced by its Gaussian stand-in.

    Composite column i then has per-entry variance xi2_D,i + psi2_i, and ZF
    gives P(out) = P(N-M+1, gamma_th / (p (xi2_D,i + psi2_i))). No floor:
    the argument vanishes as p grows.
    """
    _check_stream(cfg, i)
    g = _check_threshold(gamma_th)
    psi2 = clt_psi2(cfg, mode)[i]
    shape = cfg.rx_antennas - cfg.streams + 1
    return regularized_lower_gamma(
        shape, g / (cfg.tx_snr * (cfg.gain_direct[i] + psi2))
    )


def outage_joint(
    cfg,
    i,
    gamma_th,
    mode=DEFAULT_SCALE_MODE,
    method=DEFAULT_JOINT_METHOD,
):
    """Unconditional joint-detection outage for stream i.

    With H_d = QR, gamma_i = p |r_ii + t_i|^2 where |r_ii|^2 ~ xi2_D,i
    Gamma(N-i) (Bartlett decomposition, 0-based i) and t_i = q_i^H (H Phi
    G)_i is independent of r_ii. Given the cascade, t_i ~ CN(0, psi2_i).

    mode="derived" (method "quadrature"): exact. psi2_i = xi2_H xi2_G,i V
    with V ~ Gamma(L), because q_i is independent of the cascade; the
    outage is the conditional series below averaged over V by a 48-node
    generalized Gauss-Laguerre rule.

    mode="paper": psi2_i is fixed at the 1/L-scaled stand-in value.
    method="quadrature" averages the Marcum-Q conditional outage over
    y = p |r_ii|^2 ~ p xi2_D,i Gamma(N-i) exactly: the average of the
    Marcum series is a negative-binomial series of positive terms
    (`specfun.marcum_complement_gamma_average`), and the QUADPACK integral
    of the conditional outage over y remains its oracle in the tests.
    method="printed" evaluates the paper's closed-form series; its
    constants hard-code the paper scaling, so it is only accepted with
    mode="paper".
    """
    _check_stream(cfg, i)
    g = _check_threshold(gamma_th)
    if method not in JOINT_METHODS:
        raise ConfigurationError(
            f"joint method must be one of {JOINT_METHODS}, got {method!r}"
        )
    psi2 = clt_psi2(cfg, mode)[i]
    if method == JOINT_PRINTED and mode != SCALE_PAPER:
        raise ConfigurationError(
            "the printed joint closed form embeds the paper cascade "
            "scaling; use mode='paper' with it or method='quadrature'"
        )
    if mode == SCALE_PAPER:
        if method == JOINT_QUADRATURE:
            return marcum_complement_gamma_average(
                cfg.rx_antennas - i, cfg.gain_direct[i] / psi2, g / (cfg.tx_snr * psi2)
            )
        return float(_joint_series(cfg, i, g, psi2))
    # the derived psi2_i = xi2_H xi2_G,i L is the mean of xi2_H xi2_G,i V
    v, weights = gamma_expectation_rule(cfg.ris_elements)
    law = _joint_series(cfg, i, g, psi2 * v / cfg.ris_elements)
    return min(max(float(weights @ law), 0.0), 1.0)


def _joint_series(cfg, i, gamma_th, psi2):
    """Stream-i joint outage given the cascade variance psi2 (elementwise).

    gamma_i = p |r + t|^2 with r^2 ~ xi2_D,i Gamma(n), n = N-i, and
    t ~ CN(0, psi2). With x = gamma_th/(p psi2), w = xi2_D,i/psi2,
    v = 1/(1+w) and z = x(1-v), the printed closed form (there n = N-M+1) is
        P = 1 - e^{-x} - sum_{l<n} z v^l e^{-xv} [e^{-z} 1F1(l+1; 2; z)].
    Expanding the terminating 1F1 factors and collecting powers of x v
    turns it into a sum of positive terms,
        P = P(n, xv) + sum_{k=1}^{n-1} e^{-xv} (xv)^k / k! * I_v(n-k, k),
    with P the regularized lower gamma and I_v the regularized incomplete
    beta function. This form neither cancels in the high-SNR tail nor
    overflows for large x, where z^l grows past the float range.
    """
    x = gamma_th / (cfg.tx_snr * psi2)
    v = psi2 / (psi2 + cfg.gain_direct[i])
    xv = x * v
    n = cfg.rx_antennas - i
    total = gammainc(n, xv)
    pois = np.exp(-xv)
    for k in range(1, n):
        pois = pois * xv / k
        total = total + pois * betainc(n - k, k, v)
    return np.clip(total, 0.0, 1.0)
