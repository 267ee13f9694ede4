"""Channel draw statistics, determinism, and the scale-mode adjudication."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from rismimo import channel
from rismimo.channel import (
    _DOMAIN_ENTRIES,
    _DOMAIN_PHASES,
    _DOMAIN_SURROGATE,
    SCALE_DERIVED,
    SCALE_PAPER,
    SeedSpec,
    SystemConfig,
    _generator,
    channel_generators,
    clt_psi2,
    cascade_batch,
    draw_channel_batch,
    trial_slices,
    uniforms_per_trial,
)
from rismimo.errors import ConfigurationError

from helpers import clt_surrogate, composite_batch


CFG = SystemConfig(rx_antennas=4, streams=2, ris_elements=3)


# --- config and seed validation ------------------------------------------------

def test_config_rejects_more_streams_than_antennas():
    with pytest.raises(ConfigurationError):
        SystemConfig(rx_antennas=2, streams=3, ris_elements=4)


def test_config_rejects_bad_scalars():
    with pytest.raises(ConfigurationError):
        SystemConfig(4, 2, 0)
    # the operating point is the sweep's (SweepSpec.fixed), not the system's
    for point in ({"tx_snr": 1.0}, {"rate": 3.0}):
        with pytest.raises(TypeError):
            SystemConfig(4, 2, 3, **point)
    with pytest.raises(ConfigurationError):
        SystemConfig(4, 2, 3, gain_ris_rx=math.inf)


def test_config_gain_vectors_broadcast_and_validate():
    cfg = SystemConfig(4, 3, 2, gain_direct=0.5, gain_tx_ris=(1.0, 2.0, 3.0))
    assert np.allclose(cfg.gain_direct, [0.5, 0.5, 0.5])
    assert np.allclose(cfg.gain_tx_ris, [1.0, 2.0, 3.0])
    assert not cfg.gain_direct.flags.writeable
    with pytest.raises(ConfigurationError):
        SystemConfig(4, 3, 2, gain_direct=(1.0, 2.0))  # wrong length
    with pytest.raises(ConfigurationError):
        SystemConfig(4, 3, 2, gain_tx_ris=(1.0, -2.0, 3.0))


def test_config_does_not_capture_caller_array():
    gains = np.array([1.0, 2.0])
    cfg = SystemConfig(4, 2, 3, gain_direct=gains)
    gains[0] = 99.0
    assert cfg.gain_direct[0] == 1.0


def test_seed_spec_bit_limits():
    SeedSpec(2**64 - 1, 2**56 - 1)  # largest representable pair
    with pytest.raises(ConfigurationError):
        SeedSpec(2**64)
    with pytest.raises(ConfigurationError):
        SeedSpec(0, 2**56)
    with pytest.raises(ConfigurationError):
        SeedSpec(-1)


def test_seed_spec_refuses_what_it_would_truncate():
    # a float key would address the stream or seed below it
    for master_seed, stream_index in ((3, 1.7), (2.9, 0), (3, True), ("3", 0), (3, -1)):
        with pytest.raises(ConfigurationError):
            SeedSpec(master_seed, stream_index)
    seed = SeedSpec(np.uint64(2**64 - 1), np.int64(5))
    assert (type(seed.master_seed), type(seed.stream_index)) == (int, int)
    assert seed == SeedSpec(2**64 - 1, 5)


# --- determinism and substream layout -------------------------------------------

def test_draws_are_deterministic_per_seed():
    a = draw_channel_batch(CFG, SeedSpec(5, 0), 1)
    b = draw_channel_batch(CFG, SeedSpec(5, 0), 1)
    c = draw_channel_batch(CFG, SeedSpec(5, 1), 1)
    assert np.array_equal(a.direct, b.direct)
    assert np.array_equal(a.phases, b.phases)
    assert not np.array_equal(a.direct, c.direct)


def test_batch_is_prefix_stable():
    # a shorter batch must be the leading slice of a longer one so that
    # truncated runs agree with full runs trial for trial
    small = draw_channel_batch(CFG, SeedSpec(9, 3), 10)
    large = draw_channel_batch(CFG, SeedSpec(9, 3), 64)
    assert np.array_equal(small.direct, large.direct[:10])
    assert np.array_equal(small.ris_rx, large.ris_rx[:10])
    assert np.array_equal(small.tx_ris, large.tx_ris[:10])
    assert np.array_equal(small.phases, large.phases[:10])


def test_single_draw_matches_batch_head():
    # a one-trial batch is the single-realization draw; it must equal trial 0
    one = draw_channel_batch(CFG, SeedSpec(7, 2), 1)
    batch = draw_channel_batch(CFG, SeedSpec(7, 2), 5)
    assert np.array_equal(one.direct, batch.direct[:1])
    assert np.array_equal(one.ris_rx, batch.ris_rx[:1])
    assert np.array_equal(one.tx_ris, batch.tx_ris[:1])
    assert np.array_equal(one.phases, batch.phases[:1])


def test_continued_draws_concatenate_to_one_draw():
    # a block drawn slice by slice from its generator pair is the block
    # drawn in one piece, byte for byte
    cfg = SystemConfig(5, 2, 3, gain_direct=[0.5, 2.0], gain_tx_ris=[1.5, 0.3],
                       gain_ris_rx=0.7)
    whole = draw_channel_batch(cfg, SeedSpec(8, 6), 23)
    gens = channel_generators(SeedSpec(8, 6))
    parts = [draw_channel_batch(cfg, gens, k) for k in (1, 7, 2, 13)]
    for name in ("direct", "ris_rx", "tx_ris", "phases"):
        joined = np.concatenate([getattr(b, name) for b in parts])
        assert joined.tobytes() == getattr(whole, name).tobytes(), name
    head = whole[3:9]
    assert np.array_equal(head.tx_ris, whole.tx_ris[3:9])
    assert np.array_equal(head.phases, whole.phases[3:9])


def test_trial_slices_are_near_equal_and_within_budget(monkeypatch):
    # one slice for small arrays at the default budget, so their kernels
    # keep whole-block calls; several for large ones
    assert trial_slices(SystemConfig(4, 2, 2), 1024) == [1024]
    assert trial_slices(SystemConfig(8, 4, 8), 1024) == [1024]
    assert len(trial_slices(SystemConfig(32, 12, 16), 1024)) > 1
    cfg = SystemConfig(8, 4, 8)
    trial_bytes = 8 * uniforms_per_trial(cfg)
    for per in (1, 2, 3, 7, 256):
        monkeypatch.setattr(channel, "SLICE_BYTES", per * trial_bytes)
        for count in (1, 2, 3, 4, 5, 7, 255, 256, 257, 1000, 1023, 1024):
            sizes = trial_slices(cfg, count)
            assert sum(sizes) == count
            assert max(sizes) - min(sizes) <= 1
            # no one-trial slice in a multi-trial batch, even where the
            # budget holds fewer than two trials
            assert count == 1 or min(sizes) >= 2, (per, count, sizes)
            if per >= 3:
                assert len(sizes) == -(-count // per), (per, count, sizes)


def test_draw_domains_are_distinct():
    tags = (_DOMAIN_ENTRIES, _DOMAIN_PHASES, _DOMAIN_SURROGATE)
    assert len(set(tags)) == len(tags)
    seed = SeedSpec(55, 4)
    heads = [_generator(seed, tag).random(4) for tag in tags]
    assert not np.array_equal(heads[0], heads[1])
    assert not np.array_equal(heads[0], heads[2])
    assert not np.array_equal(heads[1], heads[2])
    # the phases are not the entries' stream, and the surrogate, drawn by
    # the same normal map as H_d, is not H_d rescaled
    cfg = SystemConfig(3, 2, 4, gain_direct=(0.5, 2.0))
    batch = draw_channel_batch(cfg, seed, 1)
    assert not np.allclose(batch.phases[0] / (2.0 * math.pi), heads[0])
    sur = clt_surrogate(cfg, seed)
    assert not np.allclose(sur.matrix / np.sqrt(sur.psi2),
                           batch.direct[0] / np.sqrt(cfg.gain_direct))


def test_generator_keys_are_one_to_one():
    # as 32-bit words, [2**32, 0, 5] and [0, 1, 5 * 2**32] are one list key
    a = _generator(SeedSpec(2**32, 5), _DOMAIN_ENTRIES).random(4)
    b = _generator(SeedSpec(0, 5 * 2**32), _DOMAIN_PHASES).random(4)
    assert not np.array_equal(a, b)
    heads = {
        tuple(_generator(SeedSpec(seed, index), tag).bit_generator.random_raw(2))
        for seed in (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
        for tag in (_DOMAIN_ENTRIES, _DOMAIN_PHASES, _DOMAIN_SURROGATE)
        for index in (0, 1, 2**32 - 1, 2**32, 5 * 2**32, 2**56 - 1)
    }
    assert len(heads) == 5 * 3 * 6


def test_uniforms_per_trial_formula():
    n, m, l = CFG.rx_antennas, CFG.streams, CFG.ris_elements
    assert uniforms_per_trial(CFG) == 2 * n * m + 2 * n * l + 2 * l * m + l


def test_entry_scales_are_built_once_per_config():
    # one read-only array per config scales every draw: each real and
    # imaginary part of H_d (stream gains along rows), H, then G
    cfg = SystemConfig(3, 2, 2, gain_direct=(0.5, 2.0), gain_tx_ris=(1.5, 0.3),
                       gain_ris_rx=0.7)
    scales = cfg.entry_scales
    assert cfg.entry_scales is scales and not scales.flags.writeable
    variances = np.concatenate((np.tile([0.5, 2.0], 3), np.full(6, 0.7),
                                np.tile([1.5, 0.3], 2)))
    assert np.array_equal(scales, np.repeat(np.sqrt(0.5 * variances), 2))
    # a draw is its standard normals times those scales
    batch = draw_channel_batch(cfg, SeedSpec(44, 0), 5)
    normals = channel_generators(SeedSpec(44, 0))[0].standard_normal((5, scales.size))
    entries = np.concatenate([a.reshape(5, -1) for a in
                              (batch.direct, batch.ris_rx, batch.tx_ris)], axis=1)
    assert entries.view(np.float64).tobytes() == (normals * scales).tobytes()
    # a changed config builds its own
    other = dataclasses.replace(cfg, gain_ris_rx=4.0)
    assert other.entry_scales is not scales
    assert np.array_equal(other.entry_scales[12:24], np.full(12, math.sqrt(2.0)))


# --- marginal statistics ----------------------------------------------------------

def test_entry_moments():
    cfg = SystemConfig(2, 2, 2, gain_direct=(0.5, 2.0), gain_tx_ris=1.5, gain_ris_rx=0.7)
    batch = draw_channel_batch(cfg, SeedSpec(40, 0), 200_000)
    # column-wise variances of the direct link follow the per-stream gains
    var_d = np.mean(np.abs(batch.direct) ** 2, axis=(0, 1))
    assert np.allclose(var_d, [0.5, 2.0], rtol=0.02)
    assert abs(np.mean(np.abs(batch.ris_rx) ** 2) - 0.7) < 0.01
    assert abs(np.mean(np.abs(batch.tx_ris) ** 2) - 1.5) < 0.02
    # zero mean, circular symmetry: real/imaginary parts uncorrelated
    entries = batch.direct[:, 0, 0]
    assert abs(entries.mean()) < 0.01
    corr = np.corrcoef(entries.real, entries.imag)[0, 1]
    assert abs(corr) < 0.01


def test_link_column_variances_follow_stream_gains():
    # L = M, so gains broadcast along the wrong axis of tx_ris would not raise
    cfg = SystemConfig(3, 3, 3, gain_tx_ris=(0.5, 1.0, 3.0), gain_ris_rx=0.7)
    batch = draw_channel_batch(cfg, SeedSpec(43, 0), 100_000)
    power = np.abs(batch.tx_ris) ** 2
    assert np.allclose(power.mean(axis=(0, 1)), [0.5, 1.0, 3.0], rtol=0.02)
    assert np.allclose(power.mean(axis=(0, 2)), 1.5, rtol=0.02)
    assert np.allclose(np.mean(np.abs(batch.ris_rx) ** 2, axis=(0, 1)), 0.7, rtol=0.02)


def test_link_entries_gaussian():
    cfg = SystemConfig(4, 2, 3, gain_tx_ris=(0.4, 2.5), gain_ris_rx=0.7)
    batch = draw_channel_batch(cfg, SeedSpec(44, 0), 20_000)
    for x, var in ((batch.ris_rx[:, 2, 1], 0.7), (batch.tx_ris[:, 1, 1], 2.5)):
        for part in (x.real, x.imag):
            res = stats.kstest(part, stats.norm(scale=math.sqrt(var / 2)).cdf)
            assert res.pvalue > 0.01


def test_phases_uncorrelated_with_entries():
    count = 100_000
    batch = draw_channel_batch(CFG, SeedSpec(45, 0), count)
    bound = 5.0 / math.sqrt(count)
    for phi in batch.phases.T:
        for x in (batch.direct[:, 0, 0], batch.ris_rx[:, 3, 2], batch.tx_ris[:, 2, 1]):
            for v in (x.real, x.imag, np.abs(x) ** 2):
                assert abs(np.corrcoef(phi, v)[0, 1]) < bound


def test_phases_uniform():
    batch = draw_channel_batch(CFG, SeedSpec(41, 0), 30_000)
    flat = batch.phases.ravel()
    assert flat.min() >= 0.0 and flat.max() < 2.0 * math.pi
    res = stats.kstest(flat / (2.0 * math.pi), "uniform")
    assert res.pvalue > 0.01


def test_real_and_imag_parts_gaussian():
    batch = draw_channel_batch(CFG, SeedSpec(42, 0), 20_000)
    x = batch.direct[:, 1, 1]
    for part in (x.real, x.imag):
        res = stats.kstest(part, lambda v: stats.norm.cdf(v, scale=math.sqrt(0.5)))
        assert res.pvalue > 0.01


# --- composite channel -------------------------------------------------------------

def test_composite_matches_hand_assembly():
    # CFG and the shapes of the detectors' per-trial oracle: L = M, L > N
    # and L < M
    for dims in ((4, 2, 3), (5, 3, 4), (4, 2, 2), (3, 2, 6), (4, 2, 1)):
        batch = draw_channel_batch(SystemConfig(*dims), SeedSpec(50, 0), 3)
        cascade, composite = cascade_batch(batch), composite_batch(batch)
        assert cascade.shape == batch.direct.shape, dims
        for t in range(3):
            casc = (batch.ris_rx[t] @ np.diag(np.exp(1j * batch.phases[t]))
                    @ batch.tx_ris[t])
            np.testing.assert_allclose(cascade[t], casc, rtol=1e-12, err_msg=str(dims))
            np.testing.assert_allclose(composite[t], batch.direct[t] + casc,
                                       rtol=1e-12, err_msg=str(dims))


def test_composite_entry_variance():
    # every composite entry carries direct-gain plus L * (link product) power,
    # independent of the random phase values
    cfg = SystemConfig(2, 1, 6, gain_direct=0.8, gain_tx_ris=1.2, gain_ris_rx=0.9)
    batch = draw_channel_batch(cfg, SeedSpec(51, 0), 150_000)
    comp = composite_batch(batch)
    var = np.mean(np.abs(comp) ** 2)
    want = 0.8 + 6 * 1.2 * 0.9
    assert abs(var / want - 1.0) < 0.02


# --- surrogate scale modes -----------------------------------------------------------

def test_clt_psi2_modes():
    cfg = SystemConfig(4, 2, 8, gain_tx_ris=(1.0, 0.5), gain_ris_rx=0.7)
    derived = clt_psi2(cfg, SCALE_DERIVED)
    paper = clt_psi2(cfg, SCALE_PAPER)
    assert np.allclose(derived, [8 * 0.7 * 1.0, 8 * 0.7 * 0.5])
    assert np.allclose(paper, [0.7 * 1.0 / 8, 0.7 * 0.5 / 8])
    with pytest.raises(ConfigurationError):
        clt_psi2(cfg, "neither")


def test_scale_mode_moment_adjudication():
    # the sample variance of a cascade entry sits at L * xi_H^2 * xi_G^2,
    # i.e. a factor L^2 away from the other convention
    cfg = SystemConfig(1, 1, 16)
    batch = draw_channel_batch(cfg, SeedSpec(52, 0), 200_000)
    casc = composite_batch(batch) - batch.direct
    var = float(np.mean(np.abs(casc) ** 2))
    derived = clt_psi2(cfg, SCALE_DERIVED)[0]
    paper = clt_psi2(cfg, SCALE_PAPER)[0]
    assert abs(var / derived - 1.0) < 0.02
    assert abs(var / paper - 1.0) > 100.0


def test_surrogate_draws():
    cfg = SystemConfig(3, 2, 32, gain_direct=0.5)
    sur = clt_surrogate(cfg, SeedSpec(53, 0))
    assert sur.matrix.shape == (3, 2)
    assert np.allclose(sur.psi2, clt_psi2(cfg, SCALE_DERIVED))
    # surrogate substream is separate from the channel substream
    chan = draw_channel_batch(cfg, SeedSpec(53, 0), 1)
    assert not np.allclose(sur.matrix, chan.direct[0])
    # deterministic
    again = clt_surrogate(cfg, SeedSpec(53, 0))
    assert np.array_equal(sur.matrix, again.matrix)


def test_surrogate_variance():
    cfg = SystemConfig(1, 1, 16)
    mats = np.array(
        [clt_surrogate(cfg, SeedSpec(54, k)).matrix[0, 0] for k in range(40_000)]
    )
    var = float(np.mean(np.abs(mats) ** 2))
    assert abs(var / 16.0 - 1.0) < 0.03


def test_config_replace_keeps_gain_semantics():
    cfg = SystemConfig(4, 2, 3, gain_direct=(0.3, 0.6))
    swapped = dataclasses.replace(cfg, gain_ris_rx=4.0)
    assert swapped.gain_ris_rx == 4.0
    assert np.allclose(swapped.gain_direct, cfg.gain_direct)
