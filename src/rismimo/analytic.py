"""Closed-form and series outage probabilities per scheme.

Each law returns P(gamma_i < gamma_th) for one stream under one CSI
regime, matching the corresponding detector in `detectors`. DirectCsi and
RisCsi expressions are exact, and so is the Joint law in the derived scale
mode, which averages over the random cascade power. FullCsi, and the Joint
law in the paper scale mode, rest on the Gaussian stand-in for the cascade,
whose per-stream variance psi2 depends on the selected scale mode (see
`channel.clt_psi2`), so their accuracy improves with the number of surface
elements.

A law takes a threshold and a transmit SNR, with no config fallback, as
scalars or 1-D grids that broadcast against each other, and returns a
float or an array to match: a scalar call is a one-point grid. What does
not depend on the point (shapes, psi2, the interference power, the
quadrature rule, the incomplete-beta table of the joint series) is formed
once per call, and the rest is elementwise: the ZF gamma law is one
`gammainc` call over the grid, and the series laws call their scalar
`specfun` kernel once per point, so each point of a grid gets the bits of
a one-point call.
"""

import functools

import numpy as np
from scipy.special import betainc, gammainc

from .channel import DEFAULT_SCALE_MODE, SCALE_PAPER, check_stream, clt_psi2
from .detectors import Scheme, check_cascade_rank, interference_power
from .errors import ConfigurationError, check_nonnegative, check_positive
from .specfun import (
    adaptive_quad,  # unused here; bench/tracing.py wraps analytic.adaptive_quad
    gamma_expectation_rule,
    marcum_complement_gamma_average,
    marcum_q1_complement,  # unused here; bench/tracing.py counts its calls
    product_gamma_cdf,
)

JOINT_PRINTED = "printed"
JOINT_QUADRATURE = "quadrature"
JOINT_METHODS = (JOINT_PRINTED, JOINT_QUADRATURE)
DEFAULT_JOINT_METHOD = JOINT_QUADRATURE


def _grid(gamma_th, tx_snr):
    """(p, g, scalar): the transmit SNRs and the thresholds as 1-D float
    arrays of one length, and whether both were scalars."""
    p = check_positive(tx_snr, "tx_snr")
    g = check_nonnegative(gamma_th, "gamma_th")
    scalar = np.ndim(p) == 0 and np.ndim(g) == 0
    p, g = np.broadcast_arrays(np.atleast_1d(p), np.atleast_1d(g))
    if p.ndim != 1:
        raise ConfigurationError("tx_snr and gamma_th must be scalars or 1-D grids")
    return p, g, scalar


def _shaped(values, scalar):
    """A law's values over its grid, or the one value of a scalar call."""
    values = np.asarray(values, dtype=np.float64)
    return float(values[0]) if scalar else values


def _evaluate(kernel, scheme, cfg, i, gamma_th, tx_snr, mode=None):
    """``kernel`` over ``scheme``'s law argument on the grid of `_grid`, as a
    float or an array to match; with no kernel, the argument itself as a
    1-D array. A kernel takes the 1-D array of arguments and returns one
    value per entry. An overflowing argument is inf, without a warning."""
    i = check_stream(cfg, i)
    p, g, scalar = _grid(gamma_th, tx_snr)
    with np.errstate(over="ignore", divide="ignore"):
        if scheme is Scheme.DirectCsi:
            x = g * (interference_power(cfg, scheme, p) + 1.0) / (p * cfg.gain_direct[i])
        elif scheme is Scheme.RisCsi:
            x = _ris_kappa(cfg, i, p) * g
        elif scheme is Scheme.FullCsi:
            x = g / (p * (cfg.gain_direct[i] + clt_psi2(cfg, mode)[i]))
        else:
            x = g / (p * clt_psi2(cfg, mode)[i])
    if kernel is None:
        return x
    return _shaped(kernel(x), scalar)


def _limit(kernel, x):
    """``kernel`` at the scalar or 1-D argument x, as a float or an array."""
    return _shaped(kernel(np.atleast_1d(x)), np.ndim(x) == 0)


def _per_point(series, *shape):
    """A kernel that calls the scalar ``series(*shape, x)`` once per point."""
    return lambda x: [series(*shape, a) for a in x.tolist()]


def _zf_gamma(cfg):
    """The ZF gamma CDF P(N-M+1, .) of DirectCsi and FullCsi, one ufunc
    call over the grid."""
    return functools.partial(gammainc, cfg.rx_antennas - cfg.streams + 1)


def _product_gamma(cfg):
    """RisCsi's product-gamma CDF, of shapes N-M+1 and L-M+1; needs L >= M."""
    check_cascade_rank(cfg)
    n1 = cfg.rx_antennas - cfg.streams + 1
    return _per_point(product_gamma_cdf, n1, cfg.ris_elements - cfg.streams + 1)


def law_argument(scheme, cfg, i, gamma_th, tx_snr, mode=DEFAULT_SCALE_MODE):
    """The grid a scheme's law is a function of, as a 1-D array: the
    gamma-law argument of DirectCsi, RisCsi and FullCsi, and
    x = gamma_th / (p psi2_i) of Joint. An overflow gives inf, without a
    warning; `montecarlo.run_sweep` refuses such a point before any law
    runs."""
    return _evaluate(None, Scheme(scheme), cfg, i, gamma_th, tx_snr, mode)


def outage(scheme, cfg, i, gamma_th, tx_snr, mode=DEFAULT_SCALE_MODE,
           method=DEFAULT_JOINT_METHOD):
    """Closed-form outage of one scheme on stream i, over a grid when
    gamma_th or tx_snr is one: the one place a scheme picks its law. The
    laws are looked up on this module at each call, so a law replaced
    here is the one a sweep runs."""
    scheme = Scheme(scheme)
    if scheme is Scheme.DirectCsi:
        return outage_direct(cfg, i, gamma_th, tx_snr)
    if scheme is Scheme.RisCsi:
        return outage_ris(cfg, i, gamma_th, tx_snr)
    if scheme is Scheme.FullCsi:
        return outage_full_clt(cfg, i, gamma_th, tx_snr, mode=mode)
    return outage_joint(cfg, i, gamma_th, tx_snr, mode=mode, method=method)


def outage_direct(cfg, i, gamma_th, tx_snr):
    """Direct-CSI outage: P(n, gamma_th (p L xi2_H S_G + 1)/(p xi2_D,i)).

    n = N - M + 1 and S_G = sum_k xi2_G,k; exact for Rayleigh links because
    1/(xi2_D,i [(H_d^H H_d)^{-1}]_{ii}) is Gamma(n) distributed.
    """
    return _evaluate(_zf_gamma(cfg), Scheme.DirectCsi, cfg, i, gamma_th, tx_snr)


def outage_direct_limit(cfg, i, gamma_th):
    """p -> inf limit of outage_direct (the outage floor)."""
    i = check_stream(cfg, i)
    g = check_nonnegative(gamma_th, "gamma_th")
    scale = interference_power(cfg, Scheme.DirectCsi)
    return _limit(_zf_gamma(cfg), g * scale / cfg.gain_direct[i])


def _ris_kappa(cfg, i, p=None):
    """RisCsi's threshold scale at transmit SNR p; None is the p -> inf limit."""
    denom = cfg.gain_ris_rx * cfg.gain_tx_ris[i]
    if p is None:
        return interference_power(cfg, Scheme.RisCsi) / denom
    return (interference_power(cfg, Scheme.RisCsi, p) + 1.0) / (p * denom)


def outage_ris(cfg, i, gamma_th, tx_snr):
    """Cascade-CSI outage via the product-of-gammas law.

    Given G, the rows of H Phi G are i.i.d. CN(0, xi2_H G^H G) (Phi is
    unitary), so the stream-i post-ZF numerator is xi2_H U / [(G^H G)^{-1}]_ii
    with U ~ Gamma(N-M+1) independent of G, and 1/[(G^H G)^{-1}]_ii is
    xi2_G,i V with V ~ Gamma(L-M+1). Hence P(out) = F_{UV}(kappa gamma_th),
    kappa = (p sum_k xi2_D,k + 1)/(p xi2_H xi2_G,i), for every N >= M and
    L >= M.
    """
    return _evaluate(_product_gamma(cfg), Scheme.RisCsi, cfg, i, gamma_th, tx_snr)


def outage_ris_limit(cfg, i, gamma_th):
    """p -> inf limit of outage_ris (the outage floor)."""
    i = check_stream(cfg, i)
    kernel = _product_gamma(cfg)
    return _limit(kernel, _ris_kappa(cfg, i) * check_nonnegative(gamma_th, "gamma_th"))


def outage_full_clt(cfg, i, gamma_th, tx_snr, mode=DEFAULT_SCALE_MODE):
    """Full-CSI outage with the cascade replaced by its Gaussian stand-in.

    Composite column i then has per-entry variance xi2_D,i + psi2_i, and ZF
    gives P(out) = P(N-M+1, gamma_th / (p (xi2_D,i + psi2_i))). No floor:
    the argument vanishes as p grows.
    """
    return _evaluate(_zf_gamma(cfg), Scheme.FullCsi, cfg, i, gamma_th, tx_snr, mode)


def outage_joint(
    cfg,
    i,
    gamma_th,
    tx_snr,
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
    Marcum series is a negative-binomial series of positive terms, summed
    as a window of Poisson weights against the negative-binomial CDF
    (`specfun.marcum_complement_gamma_average`). It shares no step with
    the printed form, and the QUADPACK integral of the conditional outage
    over y remains its oracle in the tests.
    method="printed" evaluates the paper's closed-form series; its
    constants hard-code the paper scaling, so it is only accepted with
    mode="paper".
    """
    i = check_stream(cfg, i)
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
    if mode == SCALE_PAPER and method == JOINT_QUADRATURE:
        kernel = _per_point(marcum_complement_gamma_average, cfg.rx_antennas - i,
                            cfg.gain_direct[i] / psi2)
        return _evaluate(kernel, Scheme.Joint, cfg, i, gamma_th, tx_snr, mode)
    p, g, scalar = _grid(gamma_th, tx_snr)
    if mode == SCALE_PAPER:
        return _shaped(_joint_series(cfg, i, p, g, np.atleast_1d(psi2))[:, 0], scalar)
    # the derived psi2_i = xi2_H xi2_G,i L is the mean of xi2_H xi2_G,i V
    v, weights = gamma_expectation_rule(cfg.ris_elements)
    law = _joint_series(cfg, i, p, g, psi2 * v / cfg.ris_elements)
    return _shaped(np.clip([weights @ row for row in law], 0.0, 1.0), scalar)


def _joint_series(cfg, i, p, g, psi2):
    """Stream-i joint outage given the cascade variance: one row per grid
    point (p, g), one column per entry of the 1-D psi2.

    gamma_i = p |r + t|^2 with r^2 ~ xi2_D,i Gamma(n), n = N-i, and
    t ~ CN(0, psi2). With x = gamma_th/(p psi2), w = xi2_D,i/psi2,
    v = 1/(1+w) and z = x(1-v), the printed closed form (there n = N-M+1) is
        P = 1 - e^{-x} - sum_{l<n} z v^l e^{-xv} [e^{-z} 1F1(l+1; 2; z)].
    Expanding the terminating 1F1 factors and collecting powers of x v
    turns it into a sum of positive terms,
        P = P(n, xv) + sum_{k=1}^{n-1} e^{-xv} (xv)^k / k! * I_v(n-k, k),
    with P the regularized lower gamma and I_v the regularized incomplete
    beta function. This form neither cancels in the high-SNR tail nor
    overflows for large x, where z^l grows past the float range. Where x
    itself overflows, the terms would form 0 * inf; the limit there is 1.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = g[:, np.newaxis] / (p[:, np.newaxis] * psi2)
        v = psi2 / (psi2 + cfg.gain_direct[i])
        xv = x * v
        n = cfg.rx_antennas - i
        total = gammainc(n, xv)
        pois = np.exp(-xv)
        for k in range(1, n):
            pois = pois * xv / k
            total = total + pois * betainc(n - k, k, v)
    return np.clip(np.where(np.isinf(x), 1.0, total), 0.0, 1.0)
