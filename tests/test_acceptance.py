"""Acceptance gate: nine verification criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The heavy fixtures draw 10^6-trial sample banks
once per configuration and reuse them across criteria (the engine's
unit-power threshold mapping makes one bank serve every transmit power).

Three criteria measure approximation claims that the exact-composite
simulation does not bear out at the stated tolerances; they fail honestly
rather than behind loosened bounds, and the printed lines carry the
measured numbers.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import gammaincinv, kv

import rismimo
from rismimo.analytic import (
    JOINT_PRINTED,
    JOINT_QUADRATURE,
    outage,
    outage_direct,
    outage_direct_limit,
    outage_joint,
    outage_ris,
    outage_ris_limit,
    outage_full_clt,
)
from rismimo.channel import (
    SCALE_DERIVED,
    SCALE_PAPER,
    SeedSpec,
    SystemConfig,
    clt_psi2,
    draw_channel_batch,
)
from rismimo.detectors import Scheme
from rismimo.montecarlo import snr_samples, threshold_at_unit_snr
from rismimo.specfun import (
    kummer_1f1_c2,
    marcum_q1,
    product_gamma_cdf,
)

from helpers import clt_surrogate, composite_batch

TRIALS = 10**6
POWERS_DB = (-5.0, 0.0, 5.0, 10.0)
GAMMA_TH = 7.0  # rate 3

CONFIGS = {
    (4, 2, 2): SystemConfig(4, 2, 2),
    (8, 4, 8): SystemConfig(8, 4, 8),
    (32, 12, 16): SystemConfig(32, 12, 16),
    (32, 12, 32): SystemConfig(32, 12, 32),
}


def _report(criterion, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {verdict} - {detail}")
    return ok


@pytest.fixture(scope="session")
def banks():
    """Unit-power SNR sample banks, all four schemes, 10^6 trials each."""
    out = {}
    for dims, cfg in CONFIGS.items():
        samples, failures = snr_samples(cfg, tuple(Scheme), TRIALS, SeedSpec(0, 0))
        assert failures == 0
        out[dims] = samples
    return out


@pytest.fixture(scope="session")
def thin_full_banks():
    """Full-CSI-only banks at the two narrow surfaces (for criterion 3)."""
    out = {}
    for l in (2, 8):
        cfg = SystemConfig(32, 12, l)
        samples, _ = snr_samples(cfg, (Scheme.FullCsi,), 200_000, SeedSpec(0, 0))
        out[l] = samples[Scheme.FullCsi]
    return out


def _empirical(samples, thr):
    return np.searchsorted(samples, thr, side="left") / samples.size


def test_criterion_1_analytic_vs_monte_carlo(banks):
    worst = (0.0, None)
    cells = 0
    failed = 0
    for dims, cfg in CONFIGS.items():
        streams = {s: (cfg.streams - 1 if s is Scheme.Joint else 0) for s in Scheme}
        for s in Scheme:
            samples = banks[dims][s]
            for snr_db in POWERS_DB:
                p = 10.0 ** (snr_db / 10.0)
                thr = threshold_at_unit_snr(s, cfg, p, GAMMA_TH)
                emp = _empirical(samples, thr)
                ana = outage(s, cfg, streams[s], GAMMA_TH, p)
                stderr = math.sqrt(emp * (1.0 - emp) / samples.size)
                tol = max(3.0 * stderr, 1e-3)
                gap = abs(emp - ana)
                cells += 1
                if gap > tol:
                    failed += 1
                if gap > worst[0]:
                    worst = (gap, f"{dims} {s.value} @{snr_db:+.0f}dB "
                                  f"emp={emp:.4g} ana={ana:.4g} tol={tol:.2g}")
    ok = failed == 0
    detail = (f"{cells - failed}/{cells} cells within max(3 stderr, 1e-3); "
              f"worst {worst[1]} gap={worst[0]:.4g}")
    assert _report(1, ok, detail), detail


def test_criterion_2_floor_behavior():
    cfg = SystemConfig(32, 12, 12)
    hot, cold = 10.0**6.0, 1.0  # 60 dB and 0 dB
    d_gap = abs(outage_direct(cfg, 0, GAMMA_TH, hot) - outage_direct_limit(cfg, 0, GAMMA_TH))
    r_gap = abs(outage_ris(cfg, 0, GAMMA_TH, hot) - outage_ris_limit(cfg, 0, GAMMA_TH))
    f_ratio = (outage_full_clt(cfg, 0, GAMMA_TH, hot)
               / outage_full_clt(cfg, 0, GAMMA_TH, cold))
    j_ratio = outage_joint(cfg, 11, GAMMA_TH, hot) / outage_joint(cfg, 11, GAMMA_TH, cold)
    ok = d_gap < 1e-6 and r_gap < 1e-6 and f_ratio < 1e-6 and j_ratio < 1e-6
    detail = (f"floor gaps at 60 dB: direct {d_gap:.2g}, cascade {r_gap:.2g}; "
              f"no-floor ratios: full {f_ratio:.2g}, joint {j_ratio:.2g} "
              f"(all required < 1e-6)")
    assert _report(2, ok, detail), detail


def test_criterion_3_clt_quality_over_elements(banks, thin_full_banks):
    gaps = {}
    for l in (2, 8, 16, 32):
        cfg = SystemConfig(32, 12, l)
        psi2 = clt_psi2(cfg, SCALE_DERIVED)[0]
        # thresholds spanning the law's own body: analytic outage runs
        # 0.01..0.985 across the grid, so every point clears the >= 1e-2 bar
        grid = (1.0 + psi2) * gammaincinv(21, np.linspace(0.01, 0.985, 12))
        samples = (
            thin_full_banks[l] if l in thin_full_banks
            else banks[(32, 12, l)][Scheme.FullCsi]
        )
        gaps[l] = max(
            abs(_empirical(samples, g) - outage_full_clt(cfg, 0, g, 1.0, mode=SCALE_DERIVED))
            for g in grid
        )
    ok = gaps[32] <= 0.02 and gaps[2] > gaps[32]
    seq = ", ".join(f"L={l}: {gaps[l]:.3f}" for l in (2, 8, 16, 32))
    detail = (f"max |mc - clt| over body grid: {seq} "
              f"(need <= 0.02 at L=32 and larger at L=2)")
    assert _report(3, ok, detail), detail


def test_criterion_4_joint_printed_vs_quadrature():
    cfg = SystemConfig(32, 12, 16)
    worst = 0.0
    for snr_db in POWERS_DB:
        p = 10.0 ** (snr_db / 10.0)
        for g in (0.5, 1.0, 3.0, 7.0, 15.0):
            a = outage_joint(cfg, 11, g, p, mode=SCALE_PAPER, method=JOINT_PRINTED)
            b = outage_joint(cfg, 11, g, p, mode=SCALE_PAPER, method=JOINT_QUADRATURE)
            worst = max(worst, abs(a - b))
    ok = worst <= 1e-8
    detail = f"20-point grid, max |printed - quadrature| = {worst:.3g} (need <= 1e-8)"
    assert _report(4, ok, detail), detail


def test_criterion_5_scale_mode_adjudication(banks):
    # (a) moment oracle: cascade entry variance at L = 16
    cfg16 = SystemConfig(1, 1, 16)
    acc = 0.0
    n_draws = 0
    for k in range(10):
        batch = draw_channel_batch(cfg16, SeedSpec(5, k), 100_000)
        casc = composite_batch(batch) - batch.direct
        acc += float(np.sum(np.abs(casc) ** 2))
        n_draws += casc.size
    var = acc / n_draws
    near_l = abs(var / 16.0 - 1.0) < 0.01
    near_inv = abs(var * 16.0 - 1.0) < 0.01
    moment_ok = near_l != near_inv  # within 1% of exactly one candidate

    # (b) the selected mode reproduces the agreement criterion for the two
    # approximation-based schemes where their validity regime is reached
    cfg32 = CONFIGS[(32, 12, 32)]
    agree = {SCALE_DERIVED: -math.inf, SCALE_PAPER: -math.inf}
    for mode in agree:
        for s, stream in ((Scheme.FullCsi, 0), (Scheme.Joint, 11)):
            samples = banks[(32, 12, 32)][s]
            for snr_db in POWERS_DB:
                p = 10.0 ** (snr_db / 10.0)
                emp = _empirical(samples, threshold_at_unit_snr(s, cfg32, p, GAMMA_TH))
                ana = outage(s, cfg32, stream, GAMMA_TH, p, mode=mode)
                stderr = math.sqrt(emp * (1.0 - emp) / samples.size)
                excess = abs(emp - ana) - max(3.0 * stderr, 1e-3)
                agree[mode] = max(agree[mode], excess)
    selected_ok = agree[SCALE_DERIVED] <= 0.0
    rejected_visibly = agree[SCALE_PAPER] > 0.1

    # (c) KS between true cascade entries and the surrogate at L = 32
    cfg = SystemConfig(32, 12, 32)
    batch = draw_channel_batch(cfg, SeedSpec(6, 0), 27)
    casc = (composite_batch(batch) - batch.direct).ravel()
    sur = np.concatenate(
        [clt_surrogate(cfg, SeedSpec(6, k)).matrix.ravel() for k in range(27)]
    )
    p_re = stats.ks_2samp(casc.real, sur.real).pvalue
    p_im = stats.ks_2samp(casc.imag, sur.imag).pvalue
    ks_ok = p_re >= 0.01 and p_im >= 0.01

    ok = moment_ok and near_l and selected_ok and rejected_visibly and ks_ok
    detail = (f"entry variance {var:.4f} vs candidates {{16, 1/16}} -> scale 'L'; "
              f"agreement excess derived {agree[SCALE_DERIVED]:.3g} vs "
              f"paper {agree[SCALE_PAPER]:.3g}; KS p-values re {p_re:.3f} / "
              f"im {p_im:.3f} (level 0.01)")
    assert _report(5, ok, detail), detail


def _crossing_db(grid_db, probs, level=1e-2):
    """dB abscissa where a decreasing outage curve crosses `level`,
    log-linear between grid points."""
    lv = math.log10(level)
    for (d0, p0), (d1, p1) in zip(zip(grid_db, probs), zip(grid_db[1:], probs[1:])):
        if p0 >= level > p1 and p1 > 0.0:
            l0, l1 = math.log10(p0), math.log10(p1)
            return d0 + (lv - l0) * (d1 - d0) / (l1 - l0)
    return math.nan


def test_criterion_6_benchmark_gap_at_one_percent(banks):
    cfg = CONFIGS[(32, 12, 32)]
    grid_db = [float(d) for d in range(-20, 14)]
    crossings = {}
    for s in (Scheme.FullCsi, Scheme.Joint):
        samples = banks[(32, 12, 32)][s]
        probs = [
            _empirical(samples, threshold_at_unit_snr(s, cfg, 10.0 ** (d / 10.0),
                                                      GAMMA_TH))
            for d in grid_db
        ]
        crossings[s] = _crossing_db(grid_db, probs)
    gap = abs(crossings[Scheme.Joint] - crossings[Scheme.FullCsi])
    ok = gap < 1.0
    detail = (f"10^-2 crossings: full {crossings[Scheme.FullCsi]:+.2f} dB, "
              f"joint {crossings[Scheme.Joint]:+.2f} dB, gap {gap:.2f} dB "
              f"(need < 1 dB; the paper-scaled analytic curves cross within "
              f"0.23 dB of each other)")
    assert _report(6, ok, detail), detail


def _marcum_oracle(a, b):
    def integrand(t):
        # i0e keeps the integrand bounded: i0e(at) e^{-(t-a)^2/2}
        from scipy.special import i0e

        return t * i0e(a * t) * math.exp(-0.5 * (t - a) ** 2)

    val, _ = integrate.quad(integrand, b, max(b + 40.0, a + 40.0),
                            epsabs=1e-14, epsrel=1e-12, limit=400)
    return val


def test_criterion_7_special_function_suite():
    grid_a = np.linspace(0.0, 6.0, 10)
    grid_b = np.linspace(0.1, 8.0, 10)
    worst_q = max(
        abs(marcum_q1(a, b) - _marcum_oracle(a, b)) for a in grid_a for b in grid_b
    )
    worst_pg = max(
        abs(product_gamma_cdf(1, 1, z) - (1.0 - 2.0 * math.sqrt(z) * kv(1, 2.0 * math.sqrt(z))))
        for z in (0.1, 1.0, 10.0)
    )
    worst_k = 0.0
    for x in np.linspace(0.1, 20.0, 25):
        worst_k = max(worst_k, abs(kummer_1f1_c2(2, x) / math.exp(x) - 1.0))
        worst_k = max(worst_k, abs(kummer_1f1_c2(1, x) / ((math.exp(x) - 1.0) / x) - 1.0))
    ok = worst_q <= 1e-10 and worst_pg <= 1e-10 and worst_k <= 1e-12
    detail = (f"marcum vs quadrature {worst_q:.2g} (<= 1e-10), product-gamma vs "
              f"bessel identity {worst_pg:.2g} (<= 1e-10), confluent identities "
              f"{worst_k:.2g} (<= 1e-12, relative)")
    assert _report(7, ok, detail), detail


def test_criterion_8_distributional_checks():
    # (a) direct-CSI normalized SNR is Gamma(N - M + 1)
    cfg = SystemConfig(32, 12, 16)
    samples, _ = snr_samples(cfg, (Scheme.DirectCsi,), 100_000, SeedSpec(8, 0))
    noise = cfg.ris_elements * cfg.gain_ris_rx * float(cfg.gain_tx_ris.sum()) + 1.0
    z = samples[Scheme.DirectCsi] * noise
    res_a = stats.kstest(z, lambda v: stats.gamma.cdf(v, a=21))

    # (b) joint-detector SNR conditioned on one direct channel is noncentral
    # chi-square with 2 degrees of freedom; the conditional law is exact in
    # the wide-surface limit, so test it where the surrogate variance holds
    l = 128
    cfgj = SystemConfig(32, 12, l)
    m = cfgj.streams
    first = draw_channel_batch(cfgj, SeedSpec(11, 0), 1)
    hd = first.direct[0]
    q, r = np.linalg.qr(hd)
    # align with the detector's phase convention (real positive pivot)
    phase = r[m - 1, m - 1] / abs(r[m - 1, m - 1])
    qcol = q[:, m - 1] * phase
    rmm = abs(r[m - 1, m - 1])
    gammas = []
    for k in range(98):
        batch = draw_channel_batch(cfgj, SeedSpec(11, k), 1024)
        casc = (batch.ris_rx * np.exp(1j * batch.phases)[:, np.newaxis, :]) @ (
            batch.tx_ris[:, :, m - 1 : m]
        )
        t = np.einsum("n,bn->b", qcol.conj(), casc[:, :, 0])
        gammas.append(np.abs(rmm + t) ** 2)
    gam = np.concatenate(gammas)[:100_000]
    sig2 = 0.5 * clt_psi2(cfgj, SCALE_DERIVED)[m - 1]
    res_b = stats.kstest(
        gam, lambda v: stats.ncx2.cdf(v, df=2, nc=rmm**2 / sig2, scale=sig2)
    )
    ok = res_a.pvalue >= 0.01 and res_b.pvalue >= 0.01
    detail = (f"KS p-values at 1e5 samples: direct-vs-gamma {res_a.pvalue:.3f}, "
              f"joint-conditional-vs-noncentral-chi2 {res_b.pvalue:.3f} "
              f"(level 0.01; conditional check at L = {l})")
    assert _report(8, ok, detail), detail


def test_criterion_9_worker_determinism(tmp_path):
    # The child runs in a temporary directory, so a relative PYTHONPATH (such
    # as "src") would not resolve there; lead with the absolute directory
    # that holds the rismimo package this test imported.
    src = str(Path(rismimo.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outputs = []
    for workers in (1, 2):
        d = tmp_path / f"w{workers}"
        d.mkdir()
        cmd = [
            sys.executable, "-m", "rismimo",
            "--preset", "fig1", "--l", "16",
            "--trials", "10000", "--workers", str(workers),
            "--output", "run.csv",
        ]
        proc = subprocess.run(cmd, cwd=d, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append((d / "run.csv").read_bytes())
    ok = outputs[0] == outputs[1]
    rows = outputs[0].decode().count("\n") - 1
    detail = (f"preset snr sweep, 10^4 trials, workers 1 vs 2: files "
              f"{'identical' if ok else 'differ'} ({rows} lines incl. header)")
    assert _report(9, ok, detail), detail
