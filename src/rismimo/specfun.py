"""Scalar special functions behind the outage expressions.

All of these have library equivalents, but the outage formulas live or die
on their tail behavior, so the package carries its own implementations with
known truncation rules and pairs each one with an independent oracle in the
test suite. The regularized incomplete gamma functions themselves are
scipy.special's `gammainc` and `gammaincc`, which keep full relative
accuracy in both tails. Integer-order shortcuts are used throughout: every
gamma shape appearing in the model is an integer, which turns the
confluent hypergeometric function into a terminating series.
"""

import functools
import math

import numpy as np
from scipy.special import gammainc, gammaincc, gammainccinv, gammaln, kve

from .errors import (ConfigurationError, NumericError, check_count,
                     check_nonnegative, check_positive)

# Longest k-grid marcum_complement_gamma_average may build: 8 MB per array.
_MAX_SERIES_TERMS = 1 << 20
# log j! - log(sqrt(2 pi j) (j/e)^j) for j = 0..15 (j = 0 unused); past 15
# the Stirling series to j^-9 is off by less than 2e-16
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)

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
# adaptive_quad's tolerances and its QUADPACK subdivision limit
_QUAD_REL_TOL = 1e-10
_QUAD_ABS_TOL = 1e-14
_QUAD_SUBDIVISIONS = 200


def _marcum_parts(a, b):
    """(Q1(a, b), 1 - Q1(a, b)) from one pass over the canonical series.

    Q1(a, b) = sum_k e^{-a^2/2} (a^2/2)^k / k! * Q(k+1, b^2/2). Both the
    Poisson weights and the gamma tails are tabulated in log space, so the
    series is usable far past the point where e^{-a^2/2} underflows. The
    k-grid extends 12 standard deviations past the Poisson mode, putting the
    neglected weight below 1e-14 as required, and the complement is summed
    from its own positive series rather than as 1 - Q.
    """
    a = check_nonnegative(a, "Marcum Q argument a")
    b = check_nonnegative(b, "Marcum Q argument b")
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
        S(x) = sum_{k<K} NB(k) P(k+1, x).
    The k-grid ends 14 standard deviations plus 60 terms past the mean of
    Pois(w g*), where P(G > g*) = 1e-16: the weight beyond it is at most
    P(G > g*) plus that Poisson tail. (A grid 14 negative-binomial
    standard deviations past the mean leaves 3e-8 of the weight out at
    n = 1, w = 25.) A grid longer than _MAX_SERIES_TERMS raises
    NumericError before anything is allocated.

    Since P(k+1, x) = sum_{j>k} Pois(j; x), swapping the two sums gives
        S(x) = sum_{j=1}^{K} Pois(j; x) C_{j-1} + C_{K-1} P(K+1, x),
    with C the negative-binomial CDF over the grid. Every term is
    positive, so the tail does not cancel. C depends on (n, w) only, so a
    curve over x builds it once. Pois(j; x) is formed on a window
    [lo, hi] around the mode (`_poisson_window`); the window widens until
    what it leaves out, at most C_{lo-2} Q(lo, x) on the left and
    P(hi+1, x) on the right, is below 1e-17 of the sum. Where x lies past
    the grid the window is empty and S(x) = C_{K-1} P(K+1, x).
    """
    n = check_count(n, "gamma shape")
    w = check_positive(w, "weight ratio")
    x = check_nonnegative(x, "argument")
    if x == 0.0:
        return 0.0
    cdf = _negative_binomial_cdf(n, w)
    size = len(cdf)
    # the Poisson mode, held just past the grid where x lies beyond it
    mode = int(x) if x <= size else size + 1
    # ten Poisson standard deviations a side: one pass but in the deepest tails
    half = int(10.0 * math.sqrt(x)) + 30
    while True:
        lo = min(max(1, mode - half), size + 1)
        hi = min(size, mode + half)
        total = left = right = 0.0
        if lo <= hi:
            pmf = _poisson_window(x, lo, hi, min(max(mode, lo), hi))
            total = float(pmf @ cdf[lo - 1:hi])
            if lo > 1:
                # Q(lo, x) <= Pois(lo-1; x) / (1 - (lo-1)/x), as lo - 1 < x
                left = cdf[lo - 2] * pmf[0] * lo / (x - (lo - 1))
        else:
            left = cdf[-1] * float(gammaincc(lo, x))
        if hi == size:
            total += cdf[-1] * float(gammainc(size + 1, x))
        else:
            # P(hi+1, x) <= Pois(hi+1; x) / (1 - x/(hi+2)), as hi + 1 > x
            right = pmf[-1] * x / (hi + 1) / (1.0 - x / (hi + 2))
        if left + right <= 1e-17 * total:
            return min(total, 1.0)
        half *= 2


# a curve needs one (n, w); each entry may hold one 8 MB array
@functools.lru_cache(maxsize=4)
def _negative_binomial_cdf(n, w):
    """C_k = sum_{i<=k} NB(i; n, w/(1+w)) over the k-grid of
    `marcum_complement_gamma_average`, as a shared read-only array.

    The weights are formed in log space, whose rounding leaves their sum
    a few ulps off; the grid leaves out at most ~1e-16 of the weight, so
    C is divided by its last entry, and S(x) reaches exactly 1 as x grows.
    """
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
    cdf = np.cumsum(np.exp(log_nb))
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


def _stirlerr(j):
    """log j! - log(sqrt(2 pi j) (j/e)^j) for integer j >= 1."""
    if j < len(_STIRLERR):
        return _STIRLERR[j]
    jj = float(j) * j
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / jj) / jj) / jj) / jj) / j


def _bd0(j, lam):
    """j log(j/lam) + lam - j for j >= 1, lam > 0, by its series
    2 j v^3/3 + 2 j v^5/5 + ... (v = (j-lam)/(j+lam)) near j = lam."""
    if abs(j - lam) >= 0.1 * (j + lam):
        return j * math.log(j / lam) + lam - j
    v = (j - lam) / (j + lam)
    total = (j - lam) * v
    term = 2.0 * j * v
    v *= v
    odd = 1
    while True:
        odd += 2
        term *= v
        nxt = total + term / odd
        if nxt == total:
            return total
        total = nxt


def _poisson_window(lam, lo, hi, anchor):
    """[Pois(j; lam) for lo <= j <= hi], 1 <= lo <= anchor <= hi.

    Pois(anchor; lam) is taken in saddle-point form,
    exp(-stirlerr(j) - bd0(j, lam)) / sqrt(2 pi j) (Loader 2000), which
    does not cancel the way exp(j log lam - lam - log j!) does. The rest
    follows by the ratios lam/j to the right and j/lam to the left, as two
    cumulative products. With the anchor at the mode, or at the window's
    edge nearest to it, every ratio is at most 1, so nothing overflows.
    """
    j = np.arange(lo, hi + 1, dtype=np.float64)
    pmf = lam / j
    s = anchor - lo
    pmf[:s] = (j[:s] + 1.0) / lam
    pmf[s] = (math.exp(-_stirlerr(anchor) - _bd0(anchor, lam))
              / math.sqrt(2.0 * math.pi * anchor))
    np.cumprod(pmf[s:], out=pmf[s:])
    np.cumprod(pmf[s::-1], out=pmf[s::-1])
    return pmf


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
    a = check_count(a, "numerator parameter")
    x = float(x)
    if not math.isfinite(x):
        raise ConfigurationError(f"argument must be finite, got {x}")
    if a == 1:
        if x == 0.0:
            return 1.0
        return math.expm1(x) / x
    return math.exp(x) * _kummer_poly(a, x)


def adaptive_quad(f, lo, hi, label):
    """One checked QUADPACK call with the module's _QUAD_* tolerances and
    subdivision limit; returns (value, abserr).

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
        epsabs=_QUAD_ABS_TOL,
        epsrel=_QUAD_REL_TOL,
        limit=_QUAD_SUBDIVISIONS,
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
    Exact for polynomials of degree < 96. Built once per shape; the arrays
    are shared and read-only.
    """
    return _gamma_rule(check_count(shape, "gamma shape"))


@functools.lru_cache(maxsize=None)
def _gamma_rule(shape):
    """The rule's nodes and weights: the eigenvalues of the 48x48 Jacobi
    matrix and the squared first components of its eigenvectors.

    numpy's dense symmetric solver runs on the tridiagonal matrix, so no
    run loads scipy.linalg (about 7 MB and 50 ms for this one 48x48
    problem). With the OpenBLAS LAPACK that numpy and scipy wheels ship,
    its nodes and weights equal scipy.linalg.eigh_tridiagonal's bit for bit
    for every shape from 1 to 2048; the tests hold them within 2 ulp.
    """
    k = np.arange(48, dtype=np.float64)
    off = np.sqrt(k[1:] * (k[1:] + shape - 1))
    jacobi = np.diag(2.0 * k + shape) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vecs = np.linalg.eigh(jacobi)
    weights = vecs[0] ** 2
    weights /= weights.sum()
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


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
    n1 = check_count(n1, "first shape")
    n2 = check_count(n2, "second shape")
    z = check_nonnegative(z, "threshold")
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
