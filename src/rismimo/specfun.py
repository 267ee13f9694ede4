"""Scalar special functions behind the outage expressions.

All of these have library equivalents, but the outage formulas live or die
on their tail behavior, so the package carries its own implementations with
known truncation rules and pairs each one with an independent oracle in the
test suite. Integer-order shortcuts are used throughout: every gamma shape
appearing in the model is an integer, which turns the incomplete gamma
functions into finite sums and the confluent hypergeometric function into a
terminating series.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammainc, gammainccinv, gammaln

from .errors import ConfigurationError, NumericError

# Longest k-grid marcum_complement_gamma_average may build: 8 MB per array.
_MAX_SERIES_TERMS = 1 << 20


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for the adaptive quadratures in this module."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ConfigurationError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ConfigurationError("max_subdivisions must be at least 1")


def _check_count(n, name):
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ConfigurationError(f"{name} must be a positive integer, got {n!r}")


def regularized_upper_gamma(n, x):
    """Q(n, x) = Gamma(n, x)/Gamma(n) for integer n >= 1.

    Equals exp(-x) * sum_{k=0}^{n-1} x^k / k!, the survival function of a
    unit-scale Gamma(n) variate at x.
    """
    _check_count(n, "shape")
    x = float(x)
    if x < 0 or not math.isfinite(x):
        raise ConfigurationError(f"argument must be finite and >= 0, got {x}")
    if x == 0.0:
        return 1.0
    if x < 700.0:
        term = 1.0
        total = 1.0
        for k in range(1, n):
            term *= x / k
            total += term
        return math.exp(-x) * total
    # Large x: individual terms x^k/k! overflow long before the weighted sum
    # matters, so assemble each weighted term in log space.
    lx = math.log(x)
    total = 0.0
    for k in range(n):
        total += math.exp(k * lx - x - math.lgamma(k + 1))
    return total


def regularized_lower_gamma(n, x):
    """P(n, x) = 1 - Q(n, x), evaluated without cancellation in the left tail.

    For x below the shape the complement 1 - Q(n, x) would lose everything
    under ~1e-16; the convergent tail series exp(-x) * sum_{k>=n} x^k / k!
    keeps full relative accuracy there.
    """
    _check_count(n, "shape")
    x = float(x)
    if x < 0 or not math.isfinite(x):
        raise ConfigurationError(f"argument must be finite and >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x >= n:
        return 1.0 - regularized_upper_gamma(n, x)
    term = math.exp(n * math.log(x) - x - math.lgamma(n + 1))
    total = term
    k = n
    while True:
        k += 1
        term *= x / k
        total += term
        if term <= total * 1e-17:
            return min(total, 1.0)


def _marcum_parts(a, b):
    """(Q1(a, b), 1 - Q1(a, b)) from one pass over the canonical series.

    Q1(a, b) = sum_k e^{-a^2/2} (a^2/2)^k / k! * Q(k+1, b^2/2). Both the
    Poisson weights and the gamma tails are tabulated in log space, so the
    series is usable far past the point where e^{-a^2/2} underflows. The
    k-grid extends 12 standard deviations past the Poisson mode, putting the
    neglected weight below 1e-14 as required, and the complement is summed
    from its own positive series rather than as 1 - Q.
    """
    a = float(a)
    b = float(b)
    if a < 0 or b < 0 or not (math.isfinite(a) and math.isfinite(b)):
        raise ConfigurationError("Marcum Q arguments must be finite and >= 0")
    h = 0.5 * a * a
    x = 0.5 * b * b
    if x == 0.0:
        return 1.0, 0.0
    kmax = int(math.ceil(h + 12.0 * math.sqrt(h + 1.0))) + 40
    mmax = max(kmax + 1, int(math.ceil(x + 12.0 * math.sqrt(x + 1.0))) + 60)

    m = np.arange(mmax + 1, dtype=np.float64)
    log_t = m * math.log(x) - x - gammaln(m + 1.0)
    t = np.exp(log_t)
    fwd = np.cumsum(t)                  # fwd[k] = Q(k+1, x) up to truncation
    rev = np.cumsum(t[::-1])[::-1]      # rev[k] = sum_{m>=k} t_m

    k = np.arange(kmax + 1, dtype=np.float64)
    if h == 0.0:
        pois = np.zeros(kmax + 1)
        pois[0] = 1.0
    else:
        pois = np.exp(k * math.log(h) - h - gammaln(k + 1.0))

    upper = fwd[: kmax + 1]
    # rev[k+1] is the lower regularized gamma P(k+1, x); mmax >= kmax + 1 by
    # construction so the slice always covers the weight support.
    lower = rev[1 : kmax + 2]
    q = float(np.dot(pois, upper))
    p = float(np.dot(pois, lower))
    return min(q, 1.0), min(p, 1.0)


def marcum_q1(a, b):
    """First-order Marcum Q function Q1(a, b)."""
    return _marcum_parts(a, b)[0]


def marcum_q1_complement(a, b):
    """1 - Q1(a, b) summed directly, accurate when the complement is tiny."""
    return _marcum_parts(a, b)[1]


def marcum_complement_gamma_average(n, w, x):
    """E[1 - Q1(sqrt(2 w G), sqrt(2 x))] for G ~ Gamma(n, 1), integer n >= 1.

    In the Marcum series 1 - Q1(a, b) = sum_k Pois(k; a^2/2) P(k+1, b^2/2)
    only the Poisson weight depends on a, and its average over a^2/2 = w G
    is the negative-binomial weight NB(k; n, w/(1+w)):
        sum_k C(n+k-1, k) (1+w)^{-n} (w/(1+w))^k P(k+1, x).
    Every term is positive, so the tail does not cancel. The weights are
    formed in log space. The k-grid ends 14 standard deviations plus 60
    terms past the mean of Pois(w g*), where P(G > g*) = 1e-16: the weight
    beyond it is at most P(G > g*) plus that Poisson tail. (A grid 14
    negative-binomial standard deviations past the mean leaves 3e-8 of
    the weight out at n = 1, w = 25.) A grid longer than _MAX_SERIES_TERMS
    raises NumericError before anything is allocated.
    """
    _check_count(n, "gamma shape")
    w = float(w)
    x = float(x)
    if not (w > 0) or not math.isfinite(w):
        raise ConfigurationError(f"weight ratio must be finite and > 0, got {w}")
    if x < 0 or not math.isfinite(x):
        raise ConfigurationError(f"argument must be finite and >= 0, got {x}")
    if x == 0.0:
        return 0.0
    rate = w * float(gammainccinv(n, 1e-16))
    kmax = rate + 14.0 * math.sqrt(rate) + 60.0
    if not kmax < _MAX_SERIES_TERMS:
        raise NumericError(
            f"negative-binomial series needs {kmax:.3g} terms "
            f"(n={n}, w={w:.3g}); the cap is {_MAX_SERIES_TERMS}"
        )
    k = np.arange(int(kmax) + 1, dtype=np.float64)
    log_nb = (gammaln(n + k) - gammaln(k + 1.0) - math.lgamma(n)
              - n * math.log1p(w) - k * math.log1p(1.0 / w))
    return min(float(np.exp(log_nb) @ gammainc(k + 1.0, x)), 1.0)


def _kummer_poly(a, x):
    """1F1(2-a; 2; -x) for integer a >= 2: a terminating series.

    Writing the Pochhammer products out gives all-positive terms
    sum_{j=0}^{a-2} [(a-2)!/(a-2-j)!] x^j / ((j+1)! j!), so there is no
    cancellation for x >= 0.
    """
    term = 1.0
    total = 1.0
    for j in range(a - 2):
        term *= x * (a - 2 - j) / ((j + 2) * (j + 1))
        total += term
    return total


def kummer_1f1_c2(a, x):
    """1F1(a; 2; x) for integer a >= 1 via the Kummer transformation.

    1F1(a; 2; x) = e^x * 1F1(2-a; 2; -x), and the right factor terminates
    after a-1 terms. a = 1 reduces to (e^x - 1)/x and a = 2 to e^x.
    """
    _check_count(a, "numerator parameter")
    x = float(x)
    if not math.isfinite(x):
        raise ConfigurationError(f"argument must be finite, got {x}")
    if a == 1:
        if x == 0.0:
            return 1.0
        return math.expm1(x) / x
    return math.exp(x) * _kummer_poly(a, x)


def adaptive_quad(f, lo, hi, spec, label):
    """One checked QUADPACK call; returns (value, abserr).

    Raises NumericError (with the achieved tolerance attached) when the
    integrator reports failure instead of silently returning its estimate.
    """
    out = integrate.quad(
        f,
        lo,
        hi,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        full_output=1,
    )
    if len(out) > 3:
        raise NumericError(
            f"{label}: quadrature on [{lo}, {hi}] failed: {out[3]}",
            achieved_tolerance=out[1],
        )
    return out[0], out[1]


def gamma_expectation_rule(shape):
    """Nodes v_k and weights w_k with sum_k w_k f(v_k) ~= E f(V), V ~ Gamma(shape, 1).

    The 48-node generalized Gauss-Laguerre rule with alpha = shape - 1, its
    weights divided by Gamma(shape). Built by Golub-Welsch from the
    three-term recurrence, whose eigenvector weights come out already
    normalized, so large shapes do not overflow (scipy's roots_genlaguerre
    returns non-finite weights once Gamma(shape) does, past shape 171).
    Exact for polynomials of degree < 96.
    """
    _check_count(shape, "gamma shape")
    k = np.arange(48, dtype=np.float64)
    nodes, vecs = eigh_tridiagonal(2.0 * k + shape, np.sqrt(k[1:] * (k[1:] + shape - 1)))
    weights = vecs[0] ** 2
    return nodes, weights / weights.sum()


def product_gamma_cdf(n1, n2, z, quad=None):
    """P(U * V <= z) for independent U ~ Gamma(n1, 1), V ~ Gamma(n2, 1).

    Conditioning on V gives
        int_0^inf P(n1, z/v) v^{n2-1} e^{-v} / (n2-1)! dv,
    integrated adaptively on [0, sqrt(z)] and [sqrt(z), inf): the split point
    is where the two tails trade dominance, and it keeps the quadrature from
    straddling the kink in resolution scale.
    """
    _check_count(n1, "first shape")
    _check_count(n2, "second shape")
    z = float(z)
    if z < 0 or not math.isfinite(z):
        raise ConfigurationError(f"threshold must be finite and >= 0, got {z}")
    if z == 0.0:
        return 0.0
    spec = quad if quad is not None else QuadratureSpec()
    lg = math.lgamma(n2)

    def integrand(v):
        if v <= 0.0:
            return 0.0
        weight = math.exp((n2 - 1) * math.log(v) - v - lg)
        return regularized_lower_gamma(n1, z / v) * weight

    split = math.sqrt(z)
    total = 0.0
    achieved = 0.0
    for lo, hi in ((0.0, split), (split, np.inf)):
        val, err = adaptive_quad(integrand, lo, hi, spec, "product-gamma CDF")
        total += val
        achieved += err
    if achieved > max(spec.abs_tol, spec.rel_tol * abs(total)) * 100:
        raise NumericError(
            "product-gamma quadrature did not reach the requested tolerance",
            achieved_tolerance=achieved,
        )
    return min(max(total, 0.0), 1.0)
