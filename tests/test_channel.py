"""Channel draw statistics, determinism, and the scale-mode adjudication."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from rismimo.channel import (
    SCALE_DERIVED,
    SCALE_PAPER,
    SeedSpec,
    SystemConfig,
    clt_psi2,
    cascade_batch,
    draw_channel_batch,
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
    with pytest.raises(ConfigurationError):
        SystemConfig(4, 2, 3, tx_snr=0.0)
    with pytest.raises(ConfigurationError):
        SystemConfig(4, 2, 3, rate=-1.0)
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


def test_uniforms_per_trial_formula():
    n, m, l = CFG.rx_antennas, CFG.streams, CFG.ris_elements
    assert uniforms_per_trial(CFG) == 2 * n * m + 2 * n * l + 2 * l * m + l


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
    batch = draw_channel_batch(CFG, SeedSpec(50, 0), 3)
    for t in range(3):
        casc = batch.ris_rx[t] @ np.diag(np.exp(1j * batch.phases[t])) @ batch.tx_ris[t]
        assert np.allclose(cascade_batch(batch)[t], casc, atol=1e-14)
        assert np.allclose(composite_batch(batch)[t], batch.direct[t] + casc, atol=1e-14)


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
    swapped = dataclasses.replace(cfg, tx_snr=4.0)
    assert swapped.tx_snr == 4.0
    assert np.allclose(swapped.gain_direct, cfg.gain_direct)
