"""Special-function suite versus independent oracles.

Every routine here is a hand-rolled series or integral; the oracles are
either library implementations (scipy.special), direct quadrature of the
defining integral, or seeded Monte Carlo. Keeping both routes alive is
the point of the tests, so none of them call the implementation to check
itself.
"""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate, special, stats

from rismimo import specfun
from rismimo.analytic import _zf_gamma, law_argument
from rismimo.channel import SCALE_PAPER, SystemConfig, clt_psi2
from rismimo.detectors import Scheme
from rismimo.errors import ConfigurationError, NumericError
from rismimo.specfun import (
    adaptive_quad,
    gamma_expectation_rule,
    kummer_1f1_c2,
    marcum_complement_gamma_average,
    marcum_q1,
    marcum_q1_complement,
    product_gamma_cdf,
)

from helpers import cli_manifest


# --- ZF gamma law kernel ------------------------------------------------------

def test_zf_gamma_kernel_against_mpmath():
    # the d and full laws' P(N-M+1, x), one array call over the grid,
    # against a 40-digit reference; x = 1e-6 at shape 21 is P ~ 1e-145,
    # where forming 1 - Q would lose everything
    mpmath = pytest.importorskip("mpmath")
    xs = np.concatenate((np.logspace(-8, 3, 45), [1e-6, 0.5, 20.0, 21.0, 22.0]))
    worst = 0.0
    with mpmath.workdps(40):
        for shape in range(1, 34):
            kernel = _zf_gamma(SystemConfig(shape + 1, 2, 2))
            got = kernel(xs)
            assert got.shape == xs.shape and (got > 0).all()
            ref = np.array([float(mpmath.gammainc(shape, 0, mpmath.mpf(float(x)),
                                                  regularized=True)) for x in xs])
            worst = max(worst, float(np.max(np.abs(got - ref) / ref)))
    assert worst < 5e-13


# --- Marcum Q ----------------------------------------------------------------

def _marcum_oracle(a, b):
    # Q1(a, b) = int_b^inf t exp(-(t^2+a^2)/2) I0(at) dt, with the Bessel
    # factor folded into exp form so the integrand never overflows.
    def f(t):
        return t * special.i0e(a * t) * math.exp(-0.5 * (t - a) ** 2)

    val, err = integrate.quad(f, b, np.inf, epsabs=1e-13, epsrel=1e-12, limit=300)
    assert err < 1e-10
    return val


def test_marcum_q1_against_quadrature_grid():
    grid_a = np.linspace(0.1, 6.1, 10)
    grid_b = np.linspace(0.1, 6.7, 10)
    worst = 0.0
    for a in grid_a:
        for b in grid_b:
            worst = max(worst, abs(marcum_q1(a, b) - _marcum_oracle(a, b)))
    assert worst < 1e-10


def test_marcum_complement_pair_sums_to_one():
    for a in (0.0, 0.3, 2.0, 7.0):
        for b in (0.0, 0.9, 3.0, 11.0):
            q = marcum_q1(a, b)
            c = marcum_q1_complement(a, b)
            assert 0.0 <= q <= 1.0 and 0.0 <= c <= 1.0
            assert q + c == pytest.approx(1.0, abs=1e-12)


def test_marcum_complement_deep_tail():
    # complement computed from the positive series, not as 1 - Q
    def oracle(a, b):
        def f(t):
            return t * special.i0e(a * t) * math.exp(-0.5 * (t - a) ** 2)

        val, err = integrate.quad(f, 0.0, b, epsabs=1e-280, epsrel=1e-12, limit=300)
        assert err < max(1e-280, abs(val) * 1e-9)
        return val

    for a, b in ((6.0, 0.5), (10.0, 1.0), (14.0, 2.0)):
        got = marcum_q1_complement(a, b)
        want = oracle(a, b)
        assert got == pytest.approx(want, rel=1e-8)
        assert got < 1e-6  # genuinely in the tail


def test_marcum_edge_values():
    assert marcum_q1(0.0, 0.0) == 1.0
    assert marcum_q1_complement(3.0, 0.0) == 0.0
    # a = 0 reduces to exp(-b^2/2)
    assert marcum_q1(0.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)


# --- Marcum Q complement averaged over a gamma noncentrality ---------------

def _gamma_averaged_marcum_oracle(n, w, x):
    # E[P(chi'^2_2(2 w G) <= 2 x)], G ~ Gamma(n): library noncentral
    # chi-square CDF integrated against the gamma density
    def f(g):
        return float(stats.ncx2.cdf(2.0 * x, 2, 2.0 * w * g)) * stats.gamma.pdf(g, n)

    lo, hi = stats.gamma.ppf([1e-16, 1.0 - 1e-16], n)
    val, _ = integrate.quad(f, lo, hi, epsabs=1e-15, epsrel=1e-12, limit=400)
    return val


def test_gamma_averaged_marcum_against_ncx2_quadrature():
    for n, w, x in ((1, 0.5, 2.0), (3, 2.0, 1.0), (5, 16.0, 40.0),
                    (12, 0.05, 0.3), (21, 4.0, 150.0)):
        want = _gamma_averaged_marcum_oracle(n, w, x)
        got = marcum_complement_gamma_average(n, w, x)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-13), (n, w, x)


def test_gamma_averaged_marcum_rayleigh_closed_form():
    # n = 1: the coherent part is CN itself, so gamma is exponential with
    # mean 1 + w in units of the noncoherent variance
    for w in (1e-3, 0.7, 25.0, 3e3):
        for x in (1e-12, 0.2, 5.0, 400.0):
            want = -math.expm1(-x / (1.0 + w))
            assert marcum_complement_gamma_average(1, w, x) == pytest.approx(
                want, rel=1e-12), (w, x)


def test_gamma_averaged_marcum_edges_and_validation():
    assert marcum_complement_gamma_average(4, 2.0, 0.0) == 0.0
    assert marcum_complement_gamma_average(4, 2.0, 1e6) == 1.0
    for bad in ((0, 1.0, 1.0), (2, 0.0, 1.0), (2, math.inf, 1.0), (2, 1.0, -1.0)):
        with pytest.raises(ConfigurationError):
            marcum_complement_gamma_average(*bad)


def test_gamma_averaged_marcum_grid_cap_raises_before_allocating():
    # a k-grid of ~1e11 terms is refused up front, not attempted
    tracemalloc.start()
    try:
        with pytest.raises(NumericError):
            marcum_complement_gamma_average(32, 1e9, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _negative_binomial_series(n, w, x, digits=40):
    """sum_k NB(k; n, w/(1+w)) P(k+1, x) in mpmath at `digits` digits.

    Past the negative-binomial mode the terms fall by at least the ratio
    r = (n+k) p/(k+1) < 1 of the weights, so once term * r/(1-r) is below
    1e-45 of the sum, what is left is too.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        n, w, x = mpmath.mpf(n), mpmath.mpf(w), mpmath.mpf(x)
        p = w / (1 + w)
        weight = (1 - p) ** n
        total = mpmath.mpf(0)
        k = 0
        while True:
            term = weight * mpmath.gammainc(k + 1, 0, x, regularized=True)
            total += term
            r = (n + k) / (k + 1) * p
            if r < 1 and term * r / (1 - r) < total * mpmath.mpf(10) ** -45:
                return total
            weight *= r
            k += 1


def test_gamma_averaged_marcum_against_mpmath_series():
    # the paper-mode operating points of fig1 (n = 21, w = 16) and fig2
    # (n = 19), the Rayleigh case n = 1, a small shape and a deep tail
    points = [(21, 16.0, x) for x in (11.2, 112.0, 354.0, 1100.0, 1e-12)]
    points += [(19, 22.857142857142858, 6.7), (19, 22.857142857142858, 500.0),
               (1, 25.0, 400.0), (5, 16.0, 40.0)]
    for n, w, x in points:
        want = float(_negative_binomial_series(n, w, x))
        got = marcum_complement_gamma_average(n, w, x)
        assert abs(got - want) <= 5e-14 * want, (n, w, x, got, want)
        assert marcum_complement_gamma_average(n, w, 1e10) == 1.0, (n, w)


def _paper_joint_grid_points(*argv):
    """(n, w, x) of the paper-mode joint law at every stream and grid
    point of a CLI run."""
    manifest = cli_manifest(*argv, "--scale-mode", "paper")
    cfg = manifest.config
    sweep = manifest.sweep
    psi2 = clt_psi2(cfg, SCALE_PAPER)
    for i in range(cfg.streams):
        n, w = cfg.rx_antennas - i, cfg.gain_direct[i] / psi2[i]
        xs = law_argument(Scheme.Joint, cfg, i, sweep.gamma_th, sweep.tx_snr,
                          mode=SCALE_PAPER)
        yield from ((n, w, x) for x in xs.tolist())


def test_gamma_averaged_marcum_window_loses_nothing_on_figure_grids():
    # the windowed sum against the same resummation over all j = 1..K,
    # sum_j Pois(j; x) C_{j-1} + C_{K-1} P(K+1, x)
    checked = 0
    for argv in (("--preset", "fig1"), ("--preset", "fig2")):
        for n, w, x in _paper_joint_grid_points(*argv):
            cdf = specfun._negative_binomial_cdf(n, w)
            size = len(cdf)
            pmf = specfun._poisson_window(x, 1, size, min(max(int(x), 1), size))
            want = float(pmf @ cdf) + cdf[-1] * float(special.gammainc(size + 1, x))
            got = marcum_complement_gamma_average(n, w, x)
            assert got == pytest.approx(want, rel=1e-15, abs=0.0), (argv, n, w, x)
            checked += 1
    assert checked == 12 * 21 + 14 * 12


# --- Kummer 1F1(a; 2; x) ------------------------------------------------------

def test_kummer_identities():
    for x in (0.01, 0.5, 2.0, 13.7, 40.0):
        assert kummer_1f1_c2(2, x) == pytest.approx(math.exp(x), rel=1e-12)
        assert kummer_1f1_c2(1, x) == pytest.approx(math.expm1(x) / x, rel=1e-12)


def test_kummer_against_scipy():
    for a in (1, 3, 8, 21):
        for x in (0.1, 1.0, 9.0, 33.0):
            assert kummer_1f1_c2(a, x) == pytest.approx(
                float(special.hyp1f1(a, 2, x)), rel=1e-9
            )


# --- expectation rule over a gamma variate -----------------------------------

def test_gamma_expectation_rule_moments():
    # exact for polynomials of degree < 96; shape 512 is past the point where
    # Gamma(shape) itself overflows
    for shape in (1, 2, 16, 512):
        v, w = gamma_expectation_rule(shape)
        assert w.sum() == pytest.approx(1.0, rel=1e-13)
        for k in (1, 2, 5):
            want = math.exp(special.gammaln(shape + k) - special.gammaln(shape))
            assert w @ v**k == pytest.approx(want, rel=1e-11), (shape, k)
    with pytest.raises(ConfigurationError):
        gamma_expectation_rule(0)


def test_gamma_expectation_rule_is_built_once_and_read_only():
    # the derived-mode joint law asks for the same rule at every grid point
    v, w = gamma_expectation_rule(16)
    again = gamma_expectation_rule(np.int64(16))
    assert again[0] is v and again[1] is w
    assert not v.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        w *= 2.0
    with pytest.raises(ConfigurationError):
        gamma_expectation_rule(2.0)


def test_gamma_rule_matches_scipy_tridiagonal_reference():
    # the rule solves the Jacobi matrix densely with numpy; scipy's
    # tridiagonal solver is the reference, imported here only
    from scipy.linalg import eigh_tridiagonal

    for shape in (*range(1, 65), 512):
        k = np.arange(48, dtype=np.float64)
        nodes, vecs = eigh_tridiagonal(2.0 * k + shape,
                                       np.sqrt(k[1:] * (k[1:] + shape - 1)))
        weights = vecs[0] ** 2 / np.sum(vecs[0] ** 2)
        v, w = gamma_expectation_rule(shape)
        for got, want in ((v, nodes), (w, weights)):
            assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want))), shape


# --- adaptive quadrature wrapper ---------------------------------------------

def test_adaptive_quad_reports_label_and_tolerance():
    # 1/x on (0, 1) diverges, so QUADPACK spends all 200 subdivisions
    with pytest.raises(NumericError) as info:
        adaptive_quad(lambda x: 1.0 / x, 0.0, 1.0, "nasty test integral")
    assert "nasty test integral" in str(info.value)
    assert info.value.achieved_tolerance > 0


def test_adaptive_quad_simple_integral():
    val, err = adaptive_quad(math.exp, 0.0, 1.0, "exp")
    assert val == pytest.approx(math.e - 1.0, rel=1e-12)
    assert err < 1e-10


# --- product-gamma CDF ---------------------------------------------------------

def test_product_gamma_identity_with_bessel():
    # P(UV <= z) for unit-shape factors collapses to 1 - 2 sqrt(z) K1(2 sqrt(z))
    for z in (0.1, 1.0, 10.0):
        want = 1.0 - 2.0 * math.sqrt(z) * float(special.kv(1, 2.0 * math.sqrt(z)))
        assert product_gamma_cdf(1, 1, z) == pytest.approx(want, abs=1e-10)


def test_product_gamma_against_density_quadrature():
    # density of a product of independent Gamma(n1,1) and Gamma(n2,1):
    # f(z) = 2 z^((n1+n2)/2 - 1) K_{n1-n2}(2 sqrt(z)) / (Gamma(n1) Gamma(n2))
    def cdf_oracle(n1, n2, z):
        c = 2.0 / (special.gamma(n1) * special.gamma(n2))

        def f(t):
            return c * t ** (0.5 * (n1 + n2) - 1.0) * special.kv(n1 - n2, 2.0 * math.sqrt(t))

        val, err = integrate.quad(f, 0.0, z, epsabs=1e-12, epsrel=1e-11, limit=200)
        assert err < 1e-9
        return val

    for n1, n2, z in ((2, 3, 4.0), (5, 2, 1.5), (9, 9, 60.0), (21, 5, 40.0)):
        assert product_gamma_cdf(n1, n2, z) == pytest.approx(
            cdf_oracle(n1, n2, z), abs=1e-8
        )


def test_product_gamma_against_monte_carlo():
    rng = np.random.default_rng(1234)
    n1, n2 = 3, 7
    samples = rng.gamma(n1, size=200_000) * rng.gamma(n2, size=200_000)
    for z in (2.0, 10.0, 35.0):
        emp = float(np.mean(samples <= z))
        se = math.sqrt(emp * (1.0 - emp) / samples.size)
        assert abs(product_gamma_cdf(n1, n2, z) - emp) < 4.0 * se + 1e-4


def test_product_gamma_monotone_and_bounded():
    zs = np.linspace(0.01, 80.0, 40)
    vals = [product_gamma_cdf(4, 2, z) for z in zs]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert (np.diff(vals) >= -1e-12).all()
    assert product_gamma_cdf(4, 2, 1e-12) < 1e-10
    assert product_gamma_cdf(4, 2, 5e4) > 1.0 - 1e-9


# quantiles at which the oracle below splits its integral
_SPLIT_LEVELS = (1e-15, 1e-8, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-3, 1 - 1e-8, 1 - 1e-15)


def _product_gamma_by_quadrature(n1, n2, z):
    """P(UV <= z) by QUADPACK over v ~ Gamma(n2), or None where QUADPACK
    reports a failure.

    Integrates P(n1, z/v) f(v) and Q(n1, z/v) f(v), the latter giving
    1 - P(UV <= z), and keeps the smaller side, so the value is accurate
    to near epsrel in both tails. The integral is split at quantiles of V
    and where P(n1, z/v) steps from 1 to 0, near v = z/n1: a spike there
    is all of the law when z is small and n2 = 1.
    """
    step = [z / float(special.gammaincinv(n1, p)) for p in _SPLIT_LEVELS]
    bulk = [float(special.gammaincinv(n2, p)) for p in _SPLIT_LEVELS]
    cuts = sorted({c for c in step + bulk if 0.0 < c < math.inf})
    log_norm = math.lgamma(n2)
    sides = []
    for part in (special.gammainc, special.gammaincc):

        def integrand(v, part=part):
            if v <= 0.0:
                return 0.0
            return part(n1, z / v) * math.exp((n2 - 1) * math.log(v) - v - log_norm)

        total = 0.0
        for lo, hi in zip([0.0] + cuts, cuts + [math.inf]):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                out = integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=2e-14,
                                     limit=200, full_output=1)
            if len(out) > 3:
                total = None
                break
            total += out[0]
        sides.append(total)
    lower, upper = sides
    if lower is not None and (upper is None or lower <= upper):
        return lower
    return None if upper is None else 1.0 - upper


def test_product_gamma_small_threshold_with_unit_second_shape():
    # U ~ Gamma(61), V ~ Gamma(1) at z = 1e-5..1e-3: the law is z/60 to
    # first order and comes from a spike of width ~z/61 at v = 0, which an
    # adaptive quadrature over v can miss entirely
    for z in np.logspace(-5.0, -3.0, 9):
        want = _product_gamma_by_quadrature(61, 1, z)
        assert want is not None, z
        assert product_gamma_cdf(61, 1, z) == pytest.approx(want, rel=1e-8), z
        assert product_gamma_cdf(1, 61, z) == product_gamma_cdf(61, 1, z)


def test_product_gamma_sweep_over_shapes_and_thresholds():
    shapes = (1, 2, 3, 5, 21, 61, 150, 500)
    zs = np.logspace(-300.0, 6.0, 307)
    oracle_zs = (1e-300, 1e-30, 1e-8, 1e-3, 0.1, 10.0, 1e3, 1e5, 1e6)
    checked = 0
    for n1, n2 in itertools.product(shapes, shapes):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            vals = np.array([product_gamma_cdf(n1, n2, z) for z in zs])
            at_oracle = [product_gamma_cdf(n1, n2, z) for z in oracle_zs]
        assert np.all(np.isfinite(vals)), (n1, n2)
        assert np.all((vals >= 0.0) & (vals <= 1.0)), (n1, n2)
        assert np.all(np.diff(vals) >= 0.0), (n1, n2)
        for z, got in zip(oracle_zs, at_oracle):
            want = _product_gamma_by_quadrature(n1, n2, z)
            if want is None:
                continue
            checked += 1
            assert abs(got - want) <= 1e-13, (n1, n2, z, got, want)
    # the oracle converges at all but a few of the 576 points
    assert checked >= 0.95 * len(shapes) ** 2 * len(oracle_zs)


def test_product_gamma_huge_threshold():
    # scipy's kve returns nan from x = 2 sqrt(z) ~ 1e10 on; the law must
    # still come out as 1, not nan, and not hang in its tail loop
    for z in (1e20, 1e35, 1e300, 1.7e308):
        assert product_gamma_cdf(21, 5, z) == 1.0
        assert product_gamma_cdf(1, 1, z) == 1.0


def test_product_gamma_validation():
    with pytest.raises(ConfigurationError):
        product_gamma_cdf(0, 1, 1.0)
    with pytest.raises(ConfigurationError):
        product_gamma_cdf(1, 1, -1.0)
    assert product_gamma_cdf(2, 2, 0.0) == 0.0


# --- distributional sanity of the Marcum complement ---------------------------

def test_marcum_complement_is_noncentral_chi2_cdf():
    # 1 - Q1(a, b) is the CDF at b^2 of a noncentral chi-square with 2
    # degrees of freedom and noncentrality a^2
    for a in (0.5, 1.5, 3.0):
        for b in (0.4, 1.0, 2.5):
            want = float(stats.ncx2.cdf(b * b, 2, a * a))
            assert marcum_q1_complement(a, b) == pytest.approx(want, rel=1e-9, abs=1e-12)
