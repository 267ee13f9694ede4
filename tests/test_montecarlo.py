"""Monte Carlo engine: estimator contract, power mapping, sweeps, determinism."""

import dataclasses
import math

import numpy as np
import pytest

from rismimo import analytic, montecarlo
from rismimo.analytic import outage_direct, outage_full_clt, outage_ris
from rismimo.channel import SeedSpec, SystemConfig, draw_channel_batch
from rismimo.detectors import Scheme, batch_gammas
from rismimo.errors import ConfigurationError, NumericalRankError, NumericError
from rismimo.montecarlo import (
    SweepSpec,
    _check_failures,
    canonical_schemes,
    default_report_stream,
    resolve_streams,
    run_sweep,
    snr_samples,
    threshold_at_unit_snr,
    wilson_interval,
)

from helpers import estimate_outage


SMALL = SystemConfig(4, 2, 2, tx_snr=1.0)


def test_threshold_sentinels():
    ests = estimate_outage(SMALL, Scheme.DirectCsi, 0.0, 500, SeedSpec(70, 0))
    assert len(ests) == SMALL.streams
    assert all(e.probability == 0.0 for e in ests)
    ests = estimate_outage(SMALL, Scheme.FullCsi, math.inf, 500, SeedSpec(70, 0))
    assert all(e.probability == 1.0 for e in ests)
    with pytest.raises(ConfigurationError):
        estimate_outage(SMALL, Scheme.FullCsi, -1.0, 500, SeedSpec(70, 0))
    with pytest.raises(ConfigurationError):
        estimate_outage(SMALL, Scheme.FullCsi, 1.0, 0, SeedSpec(70, 0))


def test_direct_estimate_within_three_stderr():
    cfg = SystemConfig(4, 2, 8, tx_snr=1.0)
    want = outage_direct(cfg, 0, 7.0)
    est = estimate_outage(cfg, Scheme.DirectCsi, 7.0, 100_000, SeedSpec(71, 0))[0]
    assert abs(est.probability - want) <= 3 * max(est.stderr, 1e-5)
    # non-degenerate operating point as well
    cfg2 = SystemConfig(8, 2, 1, tx_snr=1.0)
    want2 = outage_direct(cfg2, 0, 2.0)
    assert 0.2 < want2 < 0.6
    est2 = estimate_outage(cfg2, Scheme.DirectCsi, 2.0, 100_000, SeedSpec(71, 0))[0]
    assert abs(est2.probability - want2) <= 3 * est2.stderr


def test_ris_estimate_within_three_stderr():
    cfg = SystemConfig(8, 4, 8, tx_snr=2.0)
    want = outage_ris(cfg, 0, 3.0)
    est = estimate_outage(cfg, Scheme.RisCsi, 3.0, 100_000, SeedSpec(72, 0))[0]
    assert abs(est.probability - want) <= 3 * est.stderr


def test_stderr_halves_when_trials_quadruple():
    a = estimate_outage(SMALL, Scheme.FullCsi, 3.0, 10_000, SeedSpec(73, 0))[0]
    b = estimate_outage(SMALL, Scheme.FullCsi, 3.0, 40_000, SeedSpec(73, 0))[0]
    assert 0.05 < a.probability < 0.95
    assert b.stderr == pytest.approx(a.stderr / 2.0, rel=0.10)


def test_power_mapping_reproduces_per_trial_events():
    # the engine counts unit-power samples against a mapped threshold; the
    # slow route evaluates gammas at the actual power and compares directly.
    # The two must agree trial for trial, not just on average.
    cfg = SystemConfig(5, 3, 4, tx_snr=4.0, gain_direct=(0.5, 1.0, 2.0),
                       gain_ris_rx=0.7, gain_tx_ris=1.3)
    unit = dataclasses.replace(cfg, tx_snr=1.0)
    batch = draw_channel_batch(cfg, SeedSpec(74, 0), 300)
    gamma_th = 3.5
    hot, ok_h = batch_gammas(batch, cfg, tuple(Scheme))
    cold, ok_c = batch_gammas(batch, unit, tuple(Scheme))
    assert np.array_equal(ok_h, ok_c)
    for s in Scheme:
        thr = threshold_at_unit_snr(s, cfg, cfg.tx_snr, gamma_th)
        direct_events = hot[s][ok_h] < gamma_th
        mapped_events = cold[s][ok_c] < thr
        assert np.array_equal(direct_events, mapped_events), s


def test_threshold_map_edge_values():
    assert threshold_at_unit_snr(Scheme.FullCsi, SMALL, 4.0, 8.0) == 2.0
    assert threshold_at_unit_snr(Scheme.Joint, SMALL, 0.5, 8.0) == 16.0
    assert threshold_at_unit_snr(Scheme.DirectCsi, SMALL, 1e9, 7.0) == pytest.approx(
        7.0 * 4.0 / 5.0, rel=1e-6
    )  # p -> inf: gamma_th * c / (c + 1) with c = L * xi2_H * sum xi2_G = 4
    assert threshold_at_unit_snr(Scheme.RisCsi, SMALL, 1.0, 7.0) == 7.0
    assert math.isinf(threshold_at_unit_snr(Scheme.DirectCsi, SMALL, 2.0, math.inf))
    with pytest.raises(ConfigurationError):
        threshold_at_unit_snr(Scheme.FullCsi, SMALL, 0.0, 7.0)


def test_snr_samples_deterministic_and_sorted():
    a, fa = snr_samples(SMALL, (Scheme.FullCsi, Scheme.Joint), 2_000, SeedSpec(75, 0))
    b, fb = snr_samples(SMALL, (Scheme.Joint, Scheme.FullCsi), 2_000, SeedSpec(75, 0))
    assert fa == fb == 0
    for s in (Scheme.FullCsi, Scheme.Joint):
        assert np.array_equal(a[s], b[s])
        assert np.all(np.diff(a[s]) >= 0)
    c, _ = snr_samples(SMALL, (Scheme.FullCsi,), 2_000, SeedSpec(76, 0))
    assert not np.array_equal(a[Scheme.FullCsi], c[Scheme.FullCsi])


def test_worker_count_does_not_change_results():
    for workers in (2, 3):
        a, _ = snr_samples(SMALL, (Scheme.FullCsi,), 5_000, SeedSpec(77, 0), workers=1)
        b, _ = snr_samples(SMALL, (Scheme.FullCsi,), 5_000, SeedSpec(77, 0),
                           workers=workers)
        assert np.array_equal(a[Scheme.FullCsi], b[Scheme.FullCsi])
    e1 = estimate_outage(SMALL, Scheme.Joint, 2.0, 5_000, SeedSpec(77, 0), workers=1)
    e2 = estimate_outage(SMALL, Scheme.Joint, 2.0, 5_000, SeedSpec(77, 0), workers=2)
    assert [e.probability for e in e1] == [e.probability for e in e2]


def test_failure_rate_guard():
    _check_failures(0, 10**6)
    _check_failures(1, 10**6)  # exactly at the 1e-6 rate is tolerated
    with pytest.raises(NumericalRankError):
        _check_failures(2, 10**6)
    with pytest.raises(NumericalRankError):
        _check_failures(1, 10**3)


def test_wilson_interval_frozen_values():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0
    assert hi == pytest.approx(1.96**2 / (100 + 1.96**2), rel=1e-12)
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.40383, abs=1e-4)
    assert hi == pytest.approx(0.59617, abs=1e-4)
    assert lo + hi == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ConfigurationError):
        wilson_interval(1, 0)


def test_wilson_reported_only_for_sparse_counts():
    # high outage point: plain stderr only
    common = estimate_outage(SMALL, Scheme.FullCsi, 3.0, 4_000, SeedSpec(78, 0))[0]
    assert common.probability * common.trials >= 50
    assert common.wilson_low is None and common.wilson_high is None
    # deep tail: Wilson interval reported and bracketing the point estimate
    rare = estimate_outage(SMALL, Scheme.FullCsi, 0.01, 4_000, SeedSpec(78, 0))[0]
    assert rare.probability * rare.trials < 50
    assert rare.wilson_low is not None
    assert rare.wilson_low <= rare.probability <= rare.wilson_high


def test_estimates_are_per_stream():
    cfg = SystemConfig(6, 3, 2, gain_direct=(1.0, 3.0, 30.0))
    ests = estimate_outage(cfg, Scheme.DirectCsi, 1.0, 20_000, SeedSpec(79, 0))
    assert [e.stream_index for e in ests] == [0, 1, 2]
    probs = [e.probability for e in ests]
    assert probs[0] > probs[1] > probs[2]  # weaker stream, more outage
    for e in ests:
        want = outage_direct(cfg, e.stream_index, 1.0)
        assert abs(e.probability - want) <= 4 * max(e.stderr, 1e-4)


def test_scheme_and_stream_resolution():
    assert canonical_schemes({Scheme.Joint, Scheme.DirectCsi}) == (
        Scheme.DirectCsi,
        Scheme.Joint,
    )
    with pytest.raises(ConfigurationError):
        canonical_schemes(())
    cfg = SystemConfig(6, 4, 5)
    assert default_report_stream(cfg, Scheme.Joint) == 3
    assert default_report_stream(cfg, Scheme.FullCsi) == 0
    res = resolve_streams(cfg, (Scheme.FullCsi, Scheme.Joint))
    assert res == {Scheme.FullCsi: 0, Scheme.Joint: 3}
    res = resolve_streams(cfg, (Scheme.FullCsi, Scheme.Joint), {Scheme.FullCsi: 2})
    assert res == {Scheme.FullCsi: 2, Scheme.Joint: 3}
    assert resolve_streams(cfg, (Scheme.Joint,), 1) == {Scheme.Joint: 1}
    with pytest.raises(ConfigurationError):
        resolve_streams(cfg, (Scheme.Joint,), 4)


def test_sweep_spec_validation():
    SweepSpec("snr_db", (-5.0, 0.0, 5.0))
    with pytest.raises(ConfigurationError):
        SweepSpec("power", (1.0,))
    with pytest.raises(ConfigurationError):
        SweepSpec("snr_db", ())
    with pytest.raises(ConfigurationError):
        SweepSpec("snr_db", (0.0, 0.0))
    with pytest.raises(ConfigurationError):
        SweepSpec("rate", (0.0, 1.0))
    with pytest.raises(ConfigurationError):
        SweepSpec("snr_db", (0.0, math.inf))


def test_single_point_sweep_reduces_to_estimate():
    cfg = dataclasses.replace(SMALL, rate=2.0)
    curve = run_sweep(cfg, SweepSpec("snr_db", (3.0,)), (Scheme.FullCsi,),
                      3_000, SeedSpec(80, 0))
    point = curve.points[0]
    cfg_at = dataclasses.replace(cfg, tx_snr=10.0 ** 0.3)
    est = estimate_outage(cfg_at, Scheme.FullCsi, 3.0, 3_000, SeedSpec(80, 0))[0]
    got = point.empirical[Scheme.FullCsi]
    assert got.probability == est.probability  # same trials, same events
    assert got.stderr == est.stderr
    assert point.gamma_th == 3.0
    assert point.analytic[Scheme.FullCsi] == pytest.approx(
        outage_full_clt(cfg_at, 0, 3.0)
    )


def test_sweep_grid_columns():
    cfg = SystemConfig(4, 2, 2, tx_snr=2.0)
    curve = run_sweep(cfg, SweepSpec("rate", (1.0, 2.0, 3.0)), (Scheme.FullCsi,),
                      2_000, SeedSpec(81, 0))
    assert curve.sweep_variable == "rate"
    assert [p.gamma_th for p in curve.points] == [1.0, 3.0, 7.0]
    assert all(p.snr_db == pytest.approx(10 * math.log10(2.0)) for p in curve.points)
    snr_curve = run_sweep(cfg, SweepSpec("snr_db", (-2.0, 0.0, 2.0)),
                          (Scheme.FullCsi,), 2_000, SeedSpec(81, 0))
    assert [p.snr_db for p in snr_curve.points] == [-2.0, 0.0, 2.0]
    assert all(p.gamma_th == 7.0 for p in snr_curve.points)  # default rate 3


def test_sweep_empirical_curve_is_monotone_in_power():
    # common draws across grid points make the empirical curve exactly
    # monotone, not just statistically so
    curve = run_sweep(SMALL, SweepSpec("snr_db", tuple(range(-6, 7, 2))),
                      (Scheme.FullCsi, Scheme.Joint), 4_000, SeedSpec(82, 0))
    for s in (Scheme.FullCsi, Scheme.Joint):
        probs = [p.empirical[s].probability for p in curve.points]
        assert all(b <= a for a, b in zip(probs, probs[1:]))


def test_sweep_validates_inputs():
    with pytest.raises(ConfigurationError):
        run_sweep(SMALL, ("snr_db", (0.0,)), (Scheme.FullCsi,), 100, SeedSpec(83, 0))
    cfg = SystemConfig(4, 3, 2)
    with pytest.raises(ConfigurationError):
        run_sweep(cfg, SweepSpec("snr_db", (0.0,)), (Scheme.RisCsi,), 100,
                  SeedSpec(83, 0))
    with pytest.raises(ConfigurationError):
        run_sweep(SMALL, SweepSpec("snr_db", (0.0,)), (Scheme.Joint,), 100,
                  SeedSpec(83, 0), joint_method="printed", scale_mode="derived")
    for workers in (0, -2):
        with pytest.raises(ConfigurationError):
            run_sweep(SMALL, SweepSpec("snr_db", (0.0,)), (Scheme.FullCsi,), 100,
                      SeedSpec(83, 0), workers=workers)
        with pytest.raises(ConfigurationError):
            estimate_outage(SMALL, Scheme.FullCsi, 1.0, 100, SeedSpec(83, 0),
                            workers=workers)


def test_sweep_ris_law_matches_monte_carlo_when_elements_exceed_antennas():
    # L > N: given G the rows of H Phi G are i.i.d. CN(0, xi2_H G^H G), so
    # the product-gamma law holds for every N >= M and L >= M
    for dims in ((4, 2, 8), (8, 4, 16)):
        cfg = SystemConfig(*dims, tx_snr=1.0)
        curve = run_sweep(cfg, SweepSpec("snr_db", (0.0, 10.0, 20.0)),
                          (Scheme.RisCsi,), 102_400, SeedSpec(84, 0))
        for point in curve.points:
            want = point.analytic[Scheme.RisCsi]
            est = point.empirical[Scheme.RisCsi]
            assert 0.01 < want < 0.99
            assert abs(est.probability - want) <= 4.0 * est.stderr, (dims, point.snr_db)


def test_sweep_law_failure_stops_before_sampling(monkeypatch):
    # the law fails only at the last grid point, so every analytic value
    # has to be in hand before the first Monte Carlo block is drawn
    def failing_law(cfg, i, gamma_th):
        if cfg.tx_snr > 5.0:
            raise NumericError("law did not converge")
        return outage_ris(cfg, i, gamma_th)

    sampled = []

    def recording_samples(*args, **kwargs):
        sampled.append(args)
        raise AssertionError("sampling started before the analytic column")

    monkeypatch.setattr(analytic, "outage_ris", failing_law)
    monkeypatch.setattr(montecarlo, "snr_samples", recording_samples)
    with pytest.raises(NumericError):
        run_sweep(SMALL, SweepSpec("snr_db", (0.0, 5.0, 10.0)),
                  (Scheme.DirectCsi, Scheme.RisCsi), 1_000, SeedSpec(86, 0))
    assert sampled == []


def test_curve_metadata():
    curve = run_sweep(SMALL, SweepSpec("snr_db", (0.0, 5.0)),
                      (Scheme.Joint, Scheme.DirectCsi), 1_500, SeedSpec(85, 0))
    assert curve.schemes == (Scheme.DirectCsi, Scheme.Joint)
    assert curve.stream_index == {Scheme.DirectCsi: 0, Scheme.Joint: 1}
    assert curve.trials == 1_500
    assert curve.seed == SeedSpec(85, 0)
    assert curve.scale_mode == "derived"
    assert curve.joint_method == "quadrature"
