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
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammainc, gammainccinv, gammaln, kve

from .errors import ConfigurationError, NumericError

# Longest k-grid marcum_complement_gamma_average may build: 8 MB per array.
_MAX_SERIES_TERMS = 1 << 20

# ln 2 = _LN2_HI + _LN2_LO, with 21 trailing zero bits in _LN2_HI so that
# q * _LN2_HI is exact for integers q < 2^21 (the split of fdlibm's exp)
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
# the product-gamma recurrences move a power of two into an integer
# exponent once a value passes 2^_SCALE_BITS
_SCALE_BITS = 500
_SCALE_LIMIT = 2.0**_SCALE_BITS
# below this, 1 - (finite sum) has lost too many digits to cancellation
_PRODUCT_GAMMA_TAIL = 1e-3
# the product-gamma tail sum stops once what is left is below 1e-17 of it,
# or raises past this many terms
_TAIL_LOG_REL = math.log(1e-17)
_MAX_TAIL_TERMS = 1 << 16


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for `adaptive_quad`."""

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
    No law calls it: it is the tests' oracle. scipy.integrate is imported
    here, on first use, because importing it costs a few tenths of a
    second that no run of the program needs.
    """
    from scipy import integrate

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


def _scaled_bessel_k01(x):
    """(e^x K_0(x), e^x K_1(x)) for x > 0.

    scipy's kve returns nan from x ~ 1e10 on. Past 1e8 the Hankel
    expansion sqrt(pi / 2x) (1 + (4 nu^2 - 1) / 8x + ...) is used instead;
    its next term is below 2e-17 of the sum there.
    """
    if x < 1e8:
        return float(kve(0, x)), float(kve(1, x))
    lead = math.sqrt(math.pi / (2.0 * x))
    return lead * (1.0 - 0.125 / x), lead * (1.0 + 0.375 / x)


def _mixed_poisson_terms(shape, z, count):
    """[E Pois(k; z/V) for k < count] with V ~ Gamma(shape, 1), z > 0.

    Term k is z^k/k! E[V^-k e^{-z/V}], and E[V^-k e^{-z/V}] =
    2 z^{(m-k)/2} K_{m-k}(x) / Gamma(m) with m = shape and x = 2 sqrt(z)
    (Gradshteyn & Ryzhik 3.471.9; K_{-nu} = K_nu). So term k is
    c_k o_{|m-k|} e^{-x}, where the coefficients c_k step by ratios of
    integers and, scaled by e^x,
        o_0 = 2 K_0(x),   o_nu = 2 z^{nu/2} K_nu(x) / Gamma(nu)  (nu >= 1).
    o_nu e^{-x} is P(Gamma(nu) * Gamma(1) > z), so it stays in (0, 1], and
    K_{nu+1} = K_{nu-1} + (2 nu / x) K_nu turns into the upward recurrence
        o_2 = o_1 + z o_0,   o_{nu+1} = o_nu + z o_{nu-1} / (nu (nu-1)),
    of positive terms, seeded by kve(0, x) and kve(1, x). kve(nu, x) alone
    would overflow for large orders at small x. c_k and o_nu carry a
    power-of-two exponent, and e^{-x} enters as 2^-q e^r, so no logarithm
    of a large number is taken and rounded.
    """
    x = 2.0 * math.sqrt(z)
    q = round(x / math.log(2.0))
    # r = q ln 2 - x, exact to an ulp while q < 2^21 (q * _LN2_HI is exact);
    # past x = 2^52 the clamp only keeps exp finite, and 2^-q flushes every
    # term to zero there anyway
    r = (q * _LN2_HI - x) + q * _LN2_LO
    scale = math.exp(min(max(r, -1.0), 1.0))
    k0, k1 = _scaled_bessel_k01(x)
    o = [2.0 * k0, x * k1]
    o_exp = [0, 0]
    prev, cur, e = o[0], o[1], 0
    for nu in range(1, max(shape, count - 1 - shape)):
        step = z * prev if nu == 1 else z * prev / (nu * (nu - 1))
        prev, cur = cur, cur + step
        if cur > _SCALE_LIMIT:
            prev /= _SCALE_LIMIT
            cur /= _SCALE_LIMIT
            e += _SCALE_BITS
        o.append(cur)
        o_exp.append(e)
    terms = []
    c, c_exp = 1.0, 0
    for k in range(count):
        if 0 < k < shape:
            c *= z / (k * (shape - k))
        elif k == shape:
            c *= z / shape
        elif k == shape + 1:
            c /= shape + 1
        elif k > shape + 1:
            c *= (k - 1 - shape) / k
        if not 1.0 / _SCALE_LIMIT <= c <= _SCALE_LIMIT:
            c, shift = math.frexp(c)
            c_exp += shift
        nu = abs(shape - k)
        terms.append(math.ldexp(c * o[nu] * scale, c_exp + o_exp[nu] - q))
    return terms


def _log_markov_bound(n1, n2, z):
    """log of min_s z^s E[U^-s] E[V^-s] >= log P(U V <= z), over a few s in
    (0, min(n1, n2)); U ~ Gamma(n1, 1), V ~ Gamma(n2, 1)."""
    m = min(n1, n2)
    lz = math.log(z)
    return min(
        s * lz + math.lgamma(n1 - s) - math.lgamma(n1)
        + math.lgamma(n2 - s) - math.lgamma(n2)
        for s in (m * t for t in (0.25, 0.5, 0.75, 0.9, 0.99))
    )


def product_gamma_cdf(n1, n2, z):
    """P(U * V <= z) for independent U ~ Gamma(n1, 1), V ~ Gamma(n2, 1).

    The law is symmetric in the shapes; let a = min(n1, n2), b = max.
    Given V, P(U <= z/V) = P(N >= a) for N ~ Poisson(z/V), so
        P(U V <= z) = 1 - sum_{k<a} E Pois(k; z/V),   V ~ Gamma(b),
    a finite sum of Bessel-K terms (`_mixed_poisson_terms`). Where it
    leaves less than _PRODUCT_GAMMA_TAIL, the subtraction has cost digits,
    and the law is summed from the other side, sum_{k>=a} E Pois(k; z/V),
    whose terms are all positive. Those fall off only like k^-(b+1), so
    they are summed up to K = a + 64. What lies beyond is P(U' V <= z)
    with U' ~ Gamma(K), which by the same identity with the shapes swapped
    is sum_{j>=b} E Pois(j; z/W), W ~ Gamma(K): its terms fall off like
    j^-(K+1). That sum stops at j = J once Markov's inequality puts what
    is left, P(U'' W <= z) with U'' ~ Gamma(J), below 1e-17 of the total.
    """
    _check_count(n1, "first shape")
    _check_count(n2, "second shape")
    z = float(z)
    if z < 0 or not math.isfinite(z):
        raise ConfigurationError(f"threshold must be finite and >= 0, got {z}")
    if z == 0.0:
        return 0.0
    a, b = min(n1, n2), max(n1, n2)
    cdf = 1.0 - math.fsum(_mixed_poisson_terms(b, z, a))
    if cdf >= _PRODUCT_GAMMA_TAIL:
        return min(cdf, 1.0)
    big = a + 64
    head = _mixed_poisson_terms(b, z, big)[a:]
    extra = 64
    while extra <= _MAX_TAIL_TERMS:
        cdf = math.fsum(head + _mixed_poisson_terms(big, z, b + extra)[b:])
        if cdf == 0.0 or (_log_markov_bound(b + extra, big, z)
                          <= math.log(cdf) + _TAIL_LOG_REL):
            return min(cdf, 1.0)
        extra *= 2
    raise NumericError(
        f"product-gamma tail did not converge in {_MAX_TAIL_TERMS} terms "
        f"(shapes {n1}, {n2}, threshold {z:.6g})"
    )
