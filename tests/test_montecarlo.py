"""Monte Carlo engine: estimator contract, power mapping, sweeps, determinism."""

import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

from rismimo import analytic, channel, montecarlo
from rismimo.analytic import outage_direct, outage_full_clt, outage_ris
from rismimo.channel import (
    SeedSpec,
    SystemConfig,
    channel_generators,
    draw_channel_batch,
    trial_slices,
    uniforms_per_trial,
)
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
)

from helpers import estimate_outage, qr_gammas


SMALL = SystemConfig(4, 2, 2)


def test_threshold_sentinels():
    ests = estimate_outage(SMALL, Scheme.DirectCsi, 0.0, 1.0, 500, 70)
    assert len(ests) == SMALL.streams
    assert all(e.probability == 0.0 for e in ests)
    ests = estimate_outage(SMALL, Scheme.FullCsi, math.inf, 1.0, 500, 70)
    assert all(e.probability == 1.0 for e in ests)
    with pytest.raises(ConfigurationError):
        estimate_outage(SMALL, Scheme.FullCsi, -1.0, 1.0, 500, 70)
    with pytest.raises(ConfigurationError):
        estimate_outage(SMALL, Scheme.FullCsi, 1.0, 1.0, 0, 70)


def test_direct_estimate_within_three_stderr():
    cfg = SystemConfig(4, 2, 8)
    want = outage_direct(cfg, 0, 7.0, 1.0)
    est = estimate_outage(cfg, Scheme.DirectCsi, 7.0, 1.0, 100_000, 71)[0]
    assert abs(est.probability - want) <= 3 * max(est.stderr, 1e-5)
    # non-degenerate operating point as well
    cfg2 = SystemConfig(8, 2, 1)
    want2 = outage_direct(cfg2, 0, 2.0, 1.0)
    assert 0.2 < want2 < 0.6
    est2 = estimate_outage(cfg2, Scheme.DirectCsi, 2.0, 1.0, 100_000, 71)[0]
    assert abs(est2.probability - want2) <= 3 * est2.stderr


def test_ris_estimate_within_three_stderr():
    cfg = SystemConfig(8, 4, 8)
    want = outage_ris(cfg, 0, 3.0, 2.0)
    est = estimate_outage(cfg, Scheme.RisCsi, 3.0, 2.0, 100_000, 72)[0]
    assert abs(est.probability - want) <= 3 * est.stderr


def test_stderr_halves_when_trials_quadruple():
    a = estimate_outage(SMALL, Scheme.FullCsi, 3.0, 1.0, 10_000, 73)[0]
    b = estimate_outage(SMALL, Scheme.FullCsi, 3.0, 1.0, 40_000, 73)[0]
    assert 0.05 < a.probability < 0.95
    assert b.stderr == pytest.approx(a.stderr / 2.0, rel=0.10)


def test_power_mapping_reproduces_per_trial_events():
    # the engine counts unit-power samples against a mapped threshold; the
    # slow route evaluates gammas at the actual power, by QR factors, and
    # compares directly. The two must agree trial for trial, not just on
    # average.
    cfg = SystemConfig(5, 3, 4, gain_direct=(0.5, 1.0, 2.0),
                       gain_ris_rx=0.7, gain_tx_ris=1.3)
    p = 4.0
    batch = draw_channel_batch(cfg, SeedSpec(74, 0), 300)
    gamma_th = 3.5
    hot, ok_h = qr_gammas(batch, cfg, tuple(Scheme), p)
    cold, ok_c = batch_gammas(batch, cfg, tuple(Scheme))
    assert np.array_equal(ok_h, ok_c)
    for s in Scheme:
        thr = threshold_at_unit_snr(s, cfg, p, gamma_th)
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
    a, fa = snr_samples(SMALL, (Scheme.FullCsi, Scheme.Joint), 2_000, 75)
    b, fb = snr_samples(SMALL, (Scheme.Joint, Scheme.FullCsi), 2_000, 75)
    assert fa == fb == 0
    for s in (Scheme.FullCsi, Scheme.Joint):
        assert np.array_equal(a[s], b[s])
        assert np.all(np.diff(a[s]) >= 0)
    c, _ = snr_samples(SMALL, (Scheme.FullCsi,), 2_000, 76)
    assert not np.array_equal(a[Scheme.FullCsi], c[Scheme.FullCsi])


def test_worker_count_does_not_change_results():
    for workers in (2, 3):
        a, _ = snr_samples(SMALL, (Scheme.FullCsi,), 5_000, 77, workers=1)
        b, _ = snr_samples(SMALL, (Scheme.FullCsi,), 5_000, 77,
                           workers=workers)
        assert np.array_equal(a[Scheme.FullCsi], b[Scheme.FullCsi])
    e1 = estimate_outage(SMALL, Scheme.Joint, 2.0, 1.0, 5_000, 77, workers=1)
    e2 = estimate_outage(SMALL, Scheme.Joint, 2.0, 1.0, 5_000, 77, workers=2)
    assert [e.probability for e in e1] == [e.probability for e in e2]


def test_pool_starts_one_process_per_payload(monkeypatch):
    # an in-process stand-in records the pool size and starts no process;
    # the pool never outgrows the CPUs, and runs in-process when their
    # count is unknown
    sizes = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingExecutor)
    trials = 4 * montecarlo.TRIALS_PER_BLOCK
    a, _ = snr_samples(SMALL, (Scheme.FullCsi,), trials, 77, workers=1)
    for cpus, pool in ((8, [4]), (2, [2]), (None, [])):
        sizes.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        b, _ = snr_samples(SMALL, (Scheme.FullCsi,), trials, 77,
                           workers=64)
        assert sizes == pool, cpus
        assert np.array_equal(a[Scheme.FullCsi], b[Scheme.FullCsi])


def test_failure_rate_guard():
    _check_failures(0, 10**6)
    _check_failures(1, 10**6)  # exactly at the 1e-6 rate is tolerated
    with pytest.raises(NumericalRankError):
        _check_failures(2, 10**6)
    with pytest.raises(NumericalRankError):
        _check_failures(1, 10**3)


def test_estimates_are_per_stream():
    cfg = SystemConfig(6, 3, 2, gain_direct=(1.0, 3.0, 30.0))
    ests = estimate_outage(cfg, Scheme.DirectCsi, 1.0, 1.0, 20_000, 79)
    assert len(ests) == 3
    probs = [e.probability for e in ests]
    assert probs[0] > probs[1] > probs[2]  # weaker stream, more outage
    for i, e in enumerate(ests):
        want = outage_direct(cfg, i, 1.0, 1.0)
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
    SweepSpec("snr_db", (-5.0, 0.0, 5.0), 3.0)
    with pytest.raises(ConfigurationError):
        SweepSpec("power", (1.0,), 3.0)
    with pytest.raises(ConfigurationError):
        SweepSpec("snr_db", (), 3.0)
    with pytest.raises(ConfigurationError):
        SweepSpec("snr_db", (0.0, 0.0), 3.0)
    with pytest.raises(ConfigurationError):
        SweepSpec("rate", (0.0, 1.0), 3.0)
    with pytest.raises(ConfigurationError):
        SweepSpec("snr_db", (0.0, math.inf), 3.0)


def test_sweep_spec_checks_its_fixed_value():
    # the rate of an SNR sweep, the transmit SNR in dB of a rate sweep,
    # each with the rule and message of the quantity it stands for
    for variable, fixed, rule in (
        ("snr_db", math.nan, "rate must be finite and > 0"),
        ("snr_db", math.inf, "rate must be finite and > 0"),
        ("snr_db", 0.0, "rate must be finite and > 0"),
        ("snr_db", -1.0, "rate must be finite and > 0"),
        ("rate", math.nan, "tx_snr must be finite and > 0"),
        ("rate", math.inf, "tx_snr must be finite and > 0"),
        ("rate", -4000.0, "tx_snr must be finite and > 0"),
        ("rate", 4000.0, "4000.0 dB overflows a float power"),
    ):
        with pytest.raises(ConfigurationError, match=re.escape(rule)):
            SweepSpec(variable, (1.0, 2.0), fixed)
    # so does every point of an SNR sweep's grid, not only the first
    with pytest.raises(ConfigurationError, match="tx_snr must be finite and > 0"):
        SweepSpec("snr_db", (-4000.0, 0.0), 3.0)
    with pytest.raises(ConfigurationError, match="4000.0 dB overflows a float power"):
        SweepSpec("snr_db", (0.0, 4000.0), 3.0)
    # and a rate whose threshold 2^rate - 1 overflows, fixed or in the grid
    for sweep in (("snr_db", (0.0,), 1100.0), ("rate", (1.0, 1100.0), 3.0)):
        with pytest.raises(ConfigurationError,
                           match=re.escape("rate 1100.0 overflows a float threshold")):
            SweepSpec(*sweep)


def test_single_point_sweep_reduces_to_estimate():
    sweep = SweepSpec("snr_db", (3.0,), 2.0)
    (point,) = run_sweep(SMALL, sweep, (Scheme.FullCsi,), 3_000, 80)
    p = 10.0 ** 0.3
    est = estimate_outage(SMALL, Scheme.FullCsi, 3.0, p, 3_000, 80)[0]
    got = point.empirical[Scheme.FullCsi]
    assert got.probability == est.probability  # same trials, same events
    assert got.stderr == est.stderr
    assert sweep.gamma_th == (3.0,)
    assert point.analytic[Scheme.FullCsi] == pytest.approx(
        outage_full_clt(SMALL, 0, 3.0, p)
    )


def test_sweep_grid_columns():
    # a point carries only its outages; the sweep holds its operating point
    rates = SweepSpec("rate", (1.0, 2.0, 3.0), 10 * math.log10(2.0))
    points = run_sweep(SMALL, rates, (Scheme.FullCsi,), 2_000, 81)
    assert len(points) == 3
    assert list(rates.gamma_th) == [1.0, 3.0, 7.0]
    assert all(v == pytest.approx(10 * math.log10(2.0)) for v in rates.snr_db)
    snrs = SweepSpec("snr_db", (-2.0, 0.0, 2.0), 3.0)
    snr_points = run_sweep(SMALL, snrs, (Scheme.FullCsi,), 2_000, 81)
    assert len(snr_points) == 3
    assert list(snrs.snr_db) == [-2.0, 0.0, 2.0]
    assert all(g == 7.0 for g in snrs.gamma_th)  # rate 3


def test_sweep_empirical_curve_is_monotone_in_power():
    # common draws across grid points make the empirical curve exactly
    # monotone, not just statistically so
    points = run_sweep(SMALL, SweepSpec("snr_db", tuple(range(-6, 7, 2)), 3.0),
                       (Scheme.FullCsi, Scheme.Joint), 4_000, 82)
    for s in (Scheme.FullCsi, Scheme.Joint):
        probs = [p.empirical[s].probability for p in points]
        assert all(b <= a for a, b in zip(probs, probs[1:]))


def test_sweep_validates_inputs():
    one = SweepSpec("snr_db", (0.0,), 3.0)
    with pytest.raises(ConfigurationError, match="sweep must be a SweepSpec"):
        run_sweep(SMALL, ("snr_db", (0.0,)), (Scheme.FullCsi,), 100, 83)
    cfg = SystemConfig(4, 3, 2)
    with pytest.raises(ConfigurationError, match="needs ris_elements >= streams"):
        run_sweep(cfg, one, (Scheme.RisCsi,), 100, 83)
    with pytest.raises(ConfigurationError, match="printed joint closed form"):
        run_sweep(SMALL, one, (Scheme.Joint,), 100, 83,
                  joint_method="printed", scale_mode="derived")
    # the last block's index must fit a seed key
    most = 2**56 * montecarlo.TRIALS_PER_BLOCK
    assert montecarlo._validate_trials(most, 83) == most
    with pytest.raises(ConfigurationError, match="need more blocks than a seed key"):
        run_sweep(SMALL, one, (Scheme.FullCsi,), most + 1, 83)
    for workers in (0, -2):
        with pytest.raises(ConfigurationError, match="workers must be a positive integer"):
            run_sweep(SMALL, one, (Scheme.FullCsi,), 100, 83, workers=workers)
        with pytest.raises(ConfigurationError, match="workers must be a positive integer"):
            estimate_outage(SMALL, Scheme.FullCsi, 1.0, 1.0, 100, 83, workers=workers)
    # no count or index is truncated: trials 2.9 would run 2 trials
    for bad, rule in (({"trials": 2.9}, "trials must be"), ({"trials": True}, "trials must be"),
                      ({"workers": 1.5}, "workers must be"),
                      ({"stream": 1.7}, "stream index must be")):
        args = {"trials": 100, **bad}
        trials = args.pop("trials")
        with pytest.raises(ConfigurationError, match=rule):
            run_sweep(SMALL, one, (Scheme.FullCsi,), trials, 83, **args)
        with pytest.raises(ConfigurationError, match=rule):
            snr_samples(SMALL, (Scheme.FullCsi,), trials, 83, **args)
    samples, _ = snr_samples(SMALL, (Scheme.FullCsi,), np.int64(3), 83,
                             stream=np.int64(1), workers=np.int64(1))
    assert samples[Scheme.FullCsi].size == 3


def test_engine_takes_the_master_seed_as_an_integer():
    # a SeedSpec's stream_index would be ignored, so the engine refuses it,
    # and checks the seed by SeedSpec's own rules
    one = SweepSpec("snr_db", (0.0,), 3.0)
    for seed, rule in ((SeedSpec(5, 3), "master_seed must be an integer >= 0, got SeedSpec"),
                       (-1, "master_seed must be an integer >= 0, got -1"),
                       (2.0, "master_seed must be an integer >= 0, got 2.0"),
                       (2**64, "master_seed must fit in 64 unsigned bits")):
        with pytest.raises(ConfigurationError, match=re.escape(rule)):
            run_sweep(SMALL, one, (Scheme.FullCsi,), 100, seed)
        with pytest.raises(ConfigurationError, match=re.escape(rule)):
            snr_samples(SMALL, (Scheme.FullCsi,), 100, seed)
    # the largest seed runs, and a NumPy integer draws the bytes of its int
    a, _ = snr_samples(SMALL, (Scheme.FullCsi,), 100, 2**64 - 1)
    b, _ = snr_samples(SMALL, (Scheme.FullCsi,), 100, np.uint64(2**64 - 1))
    assert a[Scheme.FullCsi].tobytes() == b[Scheme.FullCsi].tobytes()


def test_sweep_ris_law_matches_monte_carlo_when_elements_exceed_antennas():
    # L > N: given G the rows of H Phi G are i.i.d. CN(0, xi2_H G^H G), so
    # the product-gamma law holds for every N >= M and L >= M
    for dims in ((4, 2, 8), (8, 4, 16)):
        cfg = SystemConfig(*dims)
        sweep = SweepSpec("snr_db", (0.0, 10.0, 20.0), 3.0)
        points = run_sweep(cfg, sweep, (Scheme.RisCsi,), 102_400, 84)
        for snr_db, point in zip(sweep.values, points):
            want = point.analytic[Scheme.RisCsi]
            est = point.empirical[Scheme.RisCsi]
            assert 0.01 < want < 0.99
            assert abs(est.probability - want) <= 4.0 * est.stderr, (dims, snr_db)


def test_sweep_columns_equal_per_point_law_calls():
    # each law runs once over the whole grid, and every point of its column
    # keeps the bits of a one-point call at that point
    schemes = tuple(Scheme)
    unequal = SystemConfig(6, 2, 2, gain_direct=[0.3, 2.0])
    sweeps = (SweepSpec("snr_db", tuple(np.arange(-10.0, 10.5, 0.5)), 2.0),
              SweepSpec("rate", tuple(np.arange(0.25, 8.25, 0.25)), 0.0))
    for cfg in (SystemConfig(4, 2, 2), SystemConfig(8, 4, 8), unequal):
        for sweep in sweeps:
            for mode, method in (("derived", "quadrature"), ("paper", "quadrature"),
                                 ("paper", "printed")):
                points = run_sweep(cfg, sweep, schemes, 1024, 97,
                                   scale_mode=mode, joint_method=method)
                streams = resolve_streams(cfg, schemes)
                for s in schemes:
                    want = []
                    for value, g in zip(sweep.values, sweep.gamma_th):
                        p = 10.0 ** (value / 10.0) if sweep.variable == "snr_db" else 1.0
                        want.append(analytic.outage(s, cfg, streams[s], g, p,
                                                    mode=mode, method=method))
                    got = [point.analytic[s] for point in points]
                    assert np.array_equal(got, want), (cfg, sweep.variable, mode, method, s)


def test_sweep_law_failure_stops_before_sampling(monkeypatch):
    # the law fails only at the last grid point, so every analytic value
    # has to be in hand before the first Monte Carlo block is drawn
    def failing_law(cfg, i, gamma_th, tx_snr=None):
        if np.max(tx_snr) > 5.0:
            raise NumericError("law did not converge")
        return outage_ris(cfg, i, gamma_th, tx_snr=tx_snr)

    sampled = []

    def recording_samples(*args, **kwargs):
        sampled.append(args)
        raise AssertionError("sampling started before the analytic column")

    monkeypatch.setattr(analytic, "outage_ris", failing_law)
    monkeypatch.setattr(montecarlo, "snr_samples", recording_samples)
    with pytest.raises(NumericError):
        run_sweep(SMALL, SweepSpec("snr_db", (0.0, 5.0, 10.0), 3.0),
                  (Scheme.DirectCsi, Scheme.RisCsi), 1_000, 86)
    assert sampled == []


# --- trial slices -------------------------------------------------------------

ALL = tuple(Scheme)
SLICED = SystemConfig(8, 4, 8)


def _slice_budget(monkeypatch, per):
    """Set the slice budget to ``per`` trials of SLICED."""
    monkeypatch.setattr(channel, "SLICE_BYTES", per * 8 * uniforms_per_trial(SLICED))


@pytest.mark.parametrize("per", (2, 256))
@pytest.mark.parametrize("size", (1, 2, 3, 257, 1000, 1024))
def test_slices_give_the_bytes_of_one_piece(monkeypatch, size, per):
    seed = SeedSpec(91, 4)
    assert trial_slices(SLICED, size) == [size]  # one piece at the default budget
    whole = draw_channel_batch(SLICED, seed, size)
    paths = (resolve_streams(SLICED, ALL), None)
    want = [batch_gammas(whole, SLICED, ALL, streams) for streams in paths]

    _slice_budget(monkeypatch, per)
    sizes = trial_slices(SLICED, size)
    assert size == 1 or min(sizes) >= 2, sizes
    if size > max(per, 3):  # three trials make one slice, never 2 + 1
        assert len(sizes) > 1
    gens = channel_generators(seed)
    drawn = [draw_channel_batch(SLICED, gens, k) for k in sizes]
    assert np.concatenate([b.direct for b in drawn]).tobytes() == whole.direct.tobytes()
    assert np.concatenate([b.phases for b in drawn]).tobytes() == whole.phases.tobytes()
    for streams, (ref, ref_ok) in zip(paths, want):
        # the kernels, worked through the one-piece draw in slices
        got, ok = batch_gammas(whole, SLICED, ALL, streams)
        assert ok.tobytes() == ref_ok.tobytes()
        for s in ALL:
            assert got[s].shape == ref[s].shape
            assert got[s].tobytes() == ref[s].tobytes(), (s, streams is None)
        # the block loop: each slice drawn and detected in turn
        trials = 4 * montecarlo.TRIALS_PER_BLOCK + size  # block 4 is the last
        parts, failures = montecarlo._chunk((SLICED, ALL, streams, 91, 4, 5, trials))
        assert failures == int(size - ref_ok.sum())
        for s in ALL:
            joined = np.concatenate(parts[s])
            assert joined.tobytes() == ref[s][ref_ok].tobytes(), (s, streams is None)


def test_block_working_set_is_bounded_by_the_slice_budget():
    # a whole (64,8,64) block of variates is 84 MB; its slices hold one
    # budget of variates plus the cascade and Gram stacks made from them
    cfg = SystemConfig(64, 8, 64)
    payload = (cfg, ALL, resolve_streams(cfg, ALL), 92, 0, 1, montecarlo.TRIALS_PER_BLOCK)
    tracemalloc.start()
    try:
        montecarlo._chunk(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * channel.SLICE_BYTES, peak


def test_sampling_calls_the_traced_names_once_per_slice(monkeypatch):
    # bench/tracing.py times montecarlo.draw_channel_batch and
    # montecarlo.batch_gammas by patching those names, reads the trial
    # count as the draw's third argument and the mask as the second result
    _slice_budget(monkeypatch, 300)
    draws, calls = [], []
    draw, gammas = montecarlo.draw_channel_batch, montecarlo.batch_gammas

    def counted_draw(*args):
        draws.append(args[2])
        return draw(*args)

    def counted_gammas(*args):
        result = gammas(*args)
        calls.append(result)
        return result

    monkeypatch.setattr(montecarlo, "draw_channel_batch", counted_draw)
    monkeypatch.setattr(montecarlo, "batch_gammas", counted_gammas)
    trials = 2 * montecarlo.TRIALS_PER_BLOCK + 301
    samples, failures = snr_samples(SLICED, ALL, trials, 93)
    assert sum(draws) == trials
    assert len(draws) == 2 * len(trial_slices(SLICED, montecarlo.TRIALS_PER_BLOCK)) + 2
    assert len(calls) == len(draws)
    for count, (gams, ok) in zip(draws, calls):
        assert ok.size == count
        assert all(gams[s].shape == (count,) for s in ALL)
    assert all(v.size == trials - failures for v in samples.values())


# --- the draw-ahead thread ----------------------------------------------------

@pytest.mark.parametrize("failing", ("draw_channel_batch", "batch_gammas"))
def test_a_failing_slice_reraises_and_leaves_no_thread(monkeypatch, failing):
    # the helper thread draws the second slice while the kernels run on the
    # first; a failure on either side reaches the caller, and the helper is
    # joined before it does
    _slice_budget(monkeypatch, 300)
    original = getattr(montecarlo, failing)
    calls = []

    def fail_on_second(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError(f"{failing} failed")
        return original(*args)

    monkeypatch.setattr(montecarlo, failing, fail_on_second)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{failing} failed"):
        snr_samples(SLICED, ALL, 2 * montecarlo.TRIALS_PER_BLOCK, 94)
    assert threading.active_count() == threads
    assert len(calls) >= 2


def test_a_drawn_slice_leaves_no_thread():
    threads = threading.active_count()
    snr_samples(SMALL, ALL, 3000, 95)
    run_sweep(SMALL, SweepSpec("snr_db", (0.0,), 3.0), ALL, 3000, 95)
    assert threading.active_count() == threads


def test_a_draw_into_a_reused_buffer_gives_the_bytes_of_a_fresh_draw():
    seed = SeedSpec(96, 3)
    fresh = channel_generators(seed)
    out = np.full((40, uniforms_per_trial(SLICED)), np.nan)
    gens = channel_generators(seed)
    for count in (37, 5, 23):  # a larger draw first, so the buffer holds old values
        want = draw_channel_batch(SLICED, fresh, count)
        got = draw_channel_batch(SLICED, gens, count, out)
        for name in ("direct", "ris_rx", "tx_ris", "phases"):
            a, b = getattr(want, name), getattr(got, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (count, name)
        assert np.shares_memory(got.direct, out) and np.shares_memory(got.phases, out)
