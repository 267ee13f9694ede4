"""Analytic outage laws against Monte Carlo and against each other."""

import math

import numpy as np
import pytest

from rismimo.analytic import (
    JOINT_PRINTED,
    JOINT_QUADRATURE,
    outage_direct,
    outage_direct_limit,
    outage_full_clt,
    outage_joint,
    outage_ris,
    outage_ris_limit,
)
from rismimo.channel import (
    SCALE_DERIVED,
    SCALE_PAPER,
    SeedSpec,
    SystemConfig,
    clt_psi2,
    draw_channel_batch,
)
from rismimo.detectors import Scheme, batch_gammas, threshold_from_rate
from rismimo.errors import ConfigurationError, NumericError
from rismimo.montecarlo import threshold_at_unit_snr
from rismimo.specfun import QuadratureSpec, adaptive_quad, marcum_q1_complement

from helpers import cli_manifest, estimate_outage, outage_joint_conditional


def _mc_outage(cfg, scheme, gamma_th, tx_snr, trials, seed, stream=0):
    batch = draw_channel_batch(cfg, SeedSpec(seed, 0), trials)
    gam, ok = batch_gammas(batch, cfg, (scheme,))
    vals = gam[scheme][ok, stream]
    p = float(np.mean(vals < threshold_at_unit_snr(scheme, cfg, tx_snr, gamma_th)))
    se = math.sqrt(max(p * (1 - p), 1e-12) / vals.size)
    return p, se


# each at transmit SNR 2 where it has one
ALL_LAWS = [
    lambda cfg, g: outage_direct(cfg, 0, g, 2.0),
    lambda cfg, g: outage_direct_limit(cfg, 0, g),
    lambda cfg, g: outage_ris(cfg, 0, g, 2.0),
    lambda cfg, g: outage_ris_limit(cfg, 0, g),
    lambda cfg, g: outage_full_clt(cfg, 0, g, 2.0),
    lambda cfg, g: outage_joint(cfg, 0, g, 2.0),
]


@pytest.mark.parametrize("law", ALL_LAWS)
def test_law_is_a_cdf_in_gamma_th(law):
    cfg = SystemConfig(6, 3, 4)
    assert law(cfg, 0.0) == 0.0
    grid = [0.1, 0.5, 1.0, 3.0, 7.0, 20.0, 100.0]
    vals = [law(cfg, g) for g in grid]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert law(cfg, 1e6) > 0.999


def test_direct_outage_matches_monte_carlo():
    cfg = SystemConfig(8, 2, 1)
    g = 2.0
    want = outage_direct(cfg, 0, g, 1.0)
    assert 0.05 < want < 0.99  # non-degenerate operating point
    got, se = _mc_outage(cfg, Scheme.DirectCsi, g, 1.0, 200_000, seed=31)
    assert abs(got - want) < 4 * se + 1e-4


def test_direct_outage_hand_value():
    # N=8, M=2, L=1, unit gains, p=1: noise = 1*1*1*2+1 = 3, shape 7,
    # argument 7*3/1 = 21
    from scipy.special import gammainc

    cfg = SystemConfig(8, 2, 1)
    assert outage_direct(cfg, 0, 7.0, 1.0) == pytest.approx(gammainc(7, 21.0), rel=1e-12)


def test_ris_outage_matches_monte_carlo():
    cfg = SystemConfig(8, 4, 8, gain_direct=0.5)
    g = 3.0
    want = outage_ris(cfg, 0, g, 2.0)
    assert 0.02 < want < 0.98
    got, se = _mc_outage(cfg, Scheme.RisCsi, g, 2.0, 200_000, seed=32)
    assert abs(got - want) < 4 * se + 1e-4


def test_full_clt_matches_zf_on_gaussian_standin():
    # The law is exact for the stand-in model it is built on: iid complex
    # normal composite entries at variance gain_direct + psi2. The true
    # cascade keeps a shared per-column covariance, so against the real
    # channel the match is a deep-tail statement until L is far above N
    # (the acceptance suite measures that gap). Here the stand-in is
    # sampled directly to pin down the law's algebra end to end.
    cfg, p = SystemConfig(32, 12, 32), 0.01
    g = 7.0
    want = outage_full_clt(cfg, 0, g, p, mode=SCALE_DERIVED)
    assert 0.05 < want < 0.95

    var = cfg.gain_direct + clt_psi2(cfg, SCALE_DERIVED)
    scale = np.sqrt(var / 2.0)[None, None, :, None]
    rng = np.random.default_rng(33)
    trials, chunk, hits = 50_000, 5_000, 0
    for _ in range(trials // chunk):
        c = rng.normal(size=(chunk, 32, 12, 2)) * scale
        c = c[..., 0] + 1j * c[..., 1]
        rinv = np.linalg.inv(np.linalg.qr(c, mode="r"))
        gram_inv_00 = np.sum(np.abs(rinv[:, 0, :]) ** 2, axis=-1)
        hits += int(np.count_nonzero(p / gram_inv_00 < g))
    got = hits / trials
    se = math.sqrt(got * (1 - got) / trials)
    assert abs(got - want) < max(4 * se, 5e-3)


def test_joint_quadrature_matches_monte_carlo_last_stream():
    # stream M-1, whose QR pivot has the N-M+1 shape, at a wide surface
    cfg = SystemConfig(32, 12, 32)
    g = 7.0
    want = outage_joint(cfg, 11, g, 1.0, mode=SCALE_DERIVED)
    assert 0.01 < want < 0.99
    got, se = _mc_outage(cfg, Scheme.Joint, g, 1.0, 50_000, seed=34, stream=11)
    assert abs(got - want) < max(4 * se, 5e-3)


def test_joint_law_matches_monte_carlo_first_and_last_stream():
    # the QR pivot of stream i has shape N - i, so at a narrow surface the
    # first and last streams have visibly different outage
    cfg = SystemConfig(8, 4, 8)
    g = 7.0
    mc = estimate_outage(cfg, Scheme.Joint, g, 1.0, 200_000, SeedSpec(35, 0))
    for i in (0, cfg.streams - 1):
        want = outage_joint(cfg, i, g, 1.0)
        assert abs(mc[i].probability - want) < 4 * mc[i].stderr + 1e-4, (i, want)


def test_joint_printed_agrees_with_quadrature():
    cfg = SystemConfig(8, 3, 16, gain_direct=0.8, gain_tx_ris=1.2, gain_ris_rx=0.6)
    for g in (0.5, 1.0, 3.0, 7.0, 15.0):
        a = outage_joint(cfg, 1, g, 2.0, mode=SCALE_PAPER, method=JOINT_PRINTED)
        b = outage_joint(cfg, 1, g, 2.0, mode=SCALE_PAPER, method=JOINT_QUADRATURE)
        assert a == pytest.approx(b, abs=1e-9), g


def _joint_paper_by_quadrature(cfg, i, gamma_th, p):
    """Paper-mode joint outage at transmit SNR p as a QUADPACK integral of
    the Marcum-Q conditional outage against the density of y = p |r_ii|^2,
        f(y) = y^{N-i-1} e^{-y/(p xi2_D,i)} / ((N-i-1)! (p xi2_D,i)^{N-i})."""
    spec = QuadratureSpec()
    sigma2 = 0.5 * p * clt_psi2(cfg, SCALE_PAPER)[i]
    beta = p * cfg.gain_direct[i]
    n = cfg.rx_antennas - i - 1
    log_norm = math.lgamma(n + 1) + (n + 1) * math.log(beta)
    b = math.sqrt(gamma_th / sigma2)

    def integrand(y):
        if y < 0.0:
            return 0.0
        if y == 0.0:
            log_pdf = -log_norm if n == 0 else -math.inf
        else:
            log_pdf = n * math.log(y) - y / beta - log_norm
        if log_pdf < -745.0:
            return 0.0
        return marcum_q1_complement(math.sqrt(y / sigma2), b) * math.exp(log_pdf)

    # Finite window: past u_pdf the Gamma weight underflows, past u_cond
    # the conditional term is below 1e-300 by the Gaussian tail bound
    # 1 - Q1(a, b) <= exp(-(a-b)^2/2) for a > b. A semi-infinite all-but-
    # zero tail makes QUADPACK report spurious divergence at high SNR.
    u_pdf = beta * (n + 1 + 40.0 * math.sqrt(n + 1.0) + 45.0)
    u_cond = (math.sqrt(gamma_th) + 42.0 * math.sqrt(sigma2)) ** 2
    upper = min(u_pdf, u_cond)
    mode_y = n * beta
    split = mode_y if 0.0 < mode_y < upper else 0.5 * upper
    total = 0.0
    for lo, hi in ((0.0, split), (split, upper)):
        total += adaptive_quad(integrand, lo, hi, spec, "joint outage oracle")[0]
    return min(max(total, 0.0), 1.0)


def _figure_points(manifest):
    """(tx_snr, gamma_th) at every grid point of a figure preset."""
    yield from zip(manifest.sweep.tx_snr, manifest.sweep.gamma_th)


def test_joint_paper_series_matches_quadrature_on_figure_grids():
    for argv in (("--preset", "fig1"), ("--preset", "fig1", "--l", "32"),
                 ("--preset", "fig2")):
        manifest = cli_manifest(*argv)
        cfg = manifest.config
        for p, g in _figure_points(manifest):
            for i in (0, cfg.streams - 1):
                got = outage_joint(cfg, i, g, p, mode=SCALE_PAPER, method=JOINT_QUADRATURE)
                want = _joint_paper_by_quadrature(cfg, i, g, p)
                assert abs(got - want) <= 1e-10, (argv, p, g, i, got, want)


def test_joint_paper_series_deep_tail_matches_printed():
    # at +40 dB the first stream's outage is far below what an absolute
    # bound can see, so the check is relative
    cfg = SystemConfig(32, 12, 16)
    got = [outage_joint(cfg, i, 7.0, 1e4, mode=SCALE_PAPER, method=JOINT_QUADRATURE)
           for i in (0, cfg.streams - 1)]
    want = [outage_joint(cfg, i, 7.0, 1e4, mode=SCALE_PAPER, method=JOINT_PRINTED)
            for i in (0, cfg.streams - 1)]
    assert got == pytest.approx(want, rel=1e-9)
    assert got[0] < 1e-30


def test_joint_paper_series_at_huge_threshold_and_low_power():
    # (64, 4, 1), -40 dB, rate 20: x = gamma_th / (p psi2) is ~1e10
    cfg, p = SystemConfig(64, 4, 1), 1e-4
    g = threshold_from_rate(20.0)
    for i in (0, cfg.streams - 1):
        got = outage_joint(cfg, i, g, p, mode=SCALE_PAPER, method=JOINT_QUADRATURE)
        want = outage_joint(cfg, i, g, p, mode=SCALE_PAPER, method=JOINT_PRINTED)
        assert math.isfinite(got)
        assert got == pytest.approx(want, rel=1e-9), i


def test_joint_paper_series_refuses_overlong_grid():
    cfg = SystemConfig(32, 12, 16, gain_direct=1e9)
    with pytest.raises(NumericError):
        outage_joint(cfg, 0, 7.0, 1.0, mode=SCALE_PAPER, method=JOINT_QUADRATURE)


def test_joint_printed_requires_paper_scaling():
    cfg = SystemConfig(8, 3, 16)
    with pytest.raises(ConfigurationError):
        outage_joint(cfg, 0, 1.0, 1.0, mode=SCALE_DERIVED, method=JOINT_PRINTED)
    with pytest.raises(ConfigurationError):
        outage_joint(cfg, 0, 1.0, 1.0, method="series")


def test_joint_conditional_edges():
    cfg = SystemConfig(6, 2, 8)
    # zero coherent power: gamma is central chi-square, outage in closed form
    sigma2 = 0.5 * 1.0 * 8.0  # p * psi2 / 2 with derived scaling, unit gains
    g = 3.0
    want = 1.0 - math.exp(-g / (2.0 * sigma2))
    assert outage_joint_conditional(0.0, cfg, 0, g, 1.0) == pytest.approx(want, rel=1e-12)
    # enormous coherent power: outage vanishes
    assert outage_joint_conditional(1e6, cfg, 0, g, 1.0) < 1e-12
    with pytest.raises(ConfigurationError):
        outage_joint_conditional(-1.0, cfg, 0, g, 1.0)


def test_limits_are_high_power_asymptotes():
    cfg = SystemConfig(6, 3, 4, gain_direct=(0.5, 1.0, 2.0))
    for g in (1.0, 7.0):
        assert outage_direct(cfg, 1, g, 1e9) == pytest.approx(
            outage_direct_limit(cfg, 1, g), rel=1e-6
        )
        assert outage_ris(cfg, 1, g, 1e9) == pytest.approx(
            outage_ris_limit(cfg, 1, g), rel=1e-6
        )


def test_full_and_joint_have_no_floor():
    cfg = SystemConfig(6, 3, 4)
    assert outage_full_clt(cfg, 0, 7.0, 1e9) < 1e-20
    assert outage_joint(cfg, 2, 7.0, 1e9) < 1e-3


def test_joint_tail_decays_like_one_over_power():
    # diversity order one: p * P(out) approaches a constant
    cfg = SystemConfig(6, 3, 4)
    vals = []
    for p in (1e5, 1e6, 1e7):
        vals.append(p * outage_joint(cfg, 2, 7.0, p))
    assert vals[1] == pytest.approx(vals[0], rel=0.01)
    assert vals[2] == pytest.approx(vals[1], rel=0.01)


def test_ris_dimension_requirements():
    with pytest.raises(ConfigurationError):
        outage_ris(SystemConfig(4, 3, 2), 0, 1.0, 1.0)  # L < M
    with pytest.raises(ConfigurationError):
        outage_ris_limit(SystemConfig(4, 3, 2), 0, 1.0)
    # L > N is allowed: the law needs only N >= M and L >= M
    assert 0.0 < outage_ris(SystemConfig(4, 2, 8), 0, 1.0, 1.0) < 1.0
    assert 0.0 < outage_ris_limit(SystemConfig(4, 2, 8), 0, 1.0) < 1.0
    # boundary case L = N = M is allowed
    assert outage_ris(SystemConfig(3, 3, 3), 0, 0.5, 1.0) > 0.0


def test_argument_validation():
    cfg = SystemConfig(4, 2, 2)
    for law in (outage_direct, outage_ris, outage_full_clt, outage_joint):
        with pytest.raises(ConfigurationError):
            law(cfg, 2, 1.0, 1.0)  # stream out of range
        with pytest.raises(ConfigurationError):
            law(cfg, -1, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            law(cfg, 0, -0.5, 1.0)
        with pytest.raises(ConfigurationError):
            law(cfg, 0, math.inf, 1.0)
        # the transmit SNR is the caller's, never the config's
        for p in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                law(cfg, 0, 1.0, p)
        with pytest.raises(TypeError):
            law(cfg, 0, 1.0)


def test_per_stream_gains_separate_streams():
    cfg = SystemConfig(6, 2, 4, gain_direct=(0.2, 5.0))
    weak = outage_direct(cfg, 0, 3.0, 1.0)
    strong = outage_direct(cfg, 1, 3.0, 1.0)
    assert weak > strong
    cfgr = SystemConfig(6, 2, 4, gain_tx_ris=(0.2, 5.0))
    assert outage_ris(cfgr, 0, 3.0, 1.0) > outage_ris(cfgr, 1, 3.0, 1.0)
