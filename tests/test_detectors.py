"""Detector SNR kernels: hand-built cases, distributions, an independent
per-trial oracle, the QR reference, the per-scheme elimination path, the
one-stream path, the shared stack's call count and memory, and the Gram
product and elimination they are built from."""

import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from rismimo import detectors
from rismimo.channel import (
    ChannelBatch,
    SeedSpec,
    SystemConfig,
    draw_channel_batch,
    trial_slices,
)
from rismimo.detectors import Scheme, _eliminate, _gram, batch_gammas, threshold_from_rate
from rismimo.errors import ConfigurationError
from rismimo.montecarlo import resolve_streams

from helpers import eliminate_full_update, per_scheme_gammas, qr_gammas


ALL = tuple(Scheme)


def test_threshold_from_rate():
    assert threshold_from_rate(3.0) == 7.0
    assert threshold_from_rate(1.0) == 1.0
    # 2**1100 overflows a float, and inf has no threshold
    for rate in (0.0, -2.0, math.inf, math.nan, 1100.0):
        with pytest.raises(ConfigurationError):
            threshold_from_rate(rate)


def test_scheme_tokens_round_trip():
    for s in Scheme:
        assert Scheme.from_token(s.value) is s
        # hashed by identity: a pickle round trip (as to a pool worker) gives
        # the member itself, which finds its set and dict entries
        back = pickle.loads(pickle.dumps(s))
        assert back is s
        assert back in set(Scheme) and {m: m.value for m in Scheme}[back] == s.value
    with pytest.raises(ConfigurationError):
        Scheme.from_token("zf")


def _scalar_batch(hd, h, g, phi):
    """One trial of a 1x1 system with a single reflecting element."""
    return ChannelBatch(
        direct=np.array([[[hd]]], dtype=complex),
        ris_rx=np.array([[[h]]], dtype=complex),
        tx_ris=np.array([[[g]]], dtype=complex),
        phases=np.array([[phi]], dtype=float),
    )


def test_scalar_case_all_schemes():
    # N = M = L = 1 lets every formula be checked by hand
    hd, h, g, phi = 2.0 + 0.0j, 1.0j, 3.0, math.pi / 2
    batch = _scalar_batch(hd, h, g, phi)
    cfg = SystemConfig(1, 1, 1, gain_direct=1.0, gain_tx_ris=1.0, gain_ris_rx=2.0)
    casc = h * np.exp(1j * phi) * g  # = -3
    comp = hd + casc                 # = -1
    gam, ok = batch_gammas(batch, cfg, ALL)  # at unit transmit power
    assert ok.all()

    got_d = gam[Scheme.DirectCsi][0, 0]
    assert got_d == pytest.approx(abs(hd) ** 2 / (1 * 2.0 * 1.0 + 1.0))

    got_ris = gam[Scheme.RisCsi][0, 0]
    assert got_ris == pytest.approx(abs(casc) ** 2 / (1.0 + 1.0))

    got_full = gam[Scheme.FullCsi][0, 0]
    assert got_full == pytest.approx(abs(comp) ** 2)

    # QR of a scalar gives r = |hd|, q = hd/|hd|; the rotated cascade is
    # conj(q) * casc
    qc = np.conj(hd / abs(hd)) * casc
    got_j = gam[Scheme.Joint][0, 0]
    assert got_j == pytest.approx(abs(abs(hd) + qc) ** 2)


def test_full_reduces_to_plain_zf_when_surface_silent():
    # zero reflected path: full-CSI gamma is 1 / [(H_d^H H_d)^{-1}]_ii and the
    # joint gamma is |r_ii|^2, at unit transmit power
    cfg = SystemConfig(5, 3, 2)
    rng = np.random.default_rng(8)
    hd = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    batch = ChannelBatch(
        direct=hd[np.newaxis],
        ris_rx=np.zeros((1, 5, 2), dtype=complex),
        tx_ris=np.zeros((1, 2, 3), dtype=complex),
        phases=np.zeros((1, 2)),
    )
    gam, ok = batch_gammas(batch, cfg, (Scheme.FullCsi, Scheme.Joint))
    assert ok.all()
    ginv = np.diag(np.linalg.inv(hd.conj().T @ hd)).real
    assert np.allclose(gam[Scheme.FullCsi][0], 1.0 / ginv, rtol=1e-12)

    r = np.linalg.qr(hd)[1]
    want_j = np.abs(np.diagonal(r)) ** 2
    assert np.allclose(gam[Scheme.Joint][0], want_j, rtol=1e-12)


def test_direct_gamma_is_gamma_distributed():
    # 1 / [(H^H H)^{-1}]_ii for an N x M complex Gaussian H is Gamma(N - M + 1)
    # in the unit-gain case; this is the analytic backbone of the direct and
    # full-CSI outage laws, so check it against the drawn ensemble
    n, m = 6, 3
    cfg = SystemConfig(n, m, 2)
    batch = draw_channel_batch(cfg, SeedSpec(22, 0), 20_000)
    gam, ok = batch_gammas(batch, cfg, (Scheme.DirectCsi,))
    assert ok.all()
    noise = 1.0 * 2 * 1.0 * m + 1.0  # p L xi2_H sum xi2_G + 1
    z = gam[Scheme.DirectCsi][:, 0] * noise / 1.0
    res = stats.kstest(z, lambda v: stats.gamma.cdf(v, a=n - m + 1))
    assert res.pvalue > 0.01


def test_stream_permutation_covariance():
    # relabeling the streams permutes pseudoinverse-based gammas but not the
    # joint ones: successive QR cancellation is order sensitive
    cfg = SystemConfig(6, 4, 5)
    batch = draw_channel_batch(cfg, SeedSpec(23, 0), 1)
    perm = np.array([2, 0, 3, 1])
    permuted = ChannelBatch(
        direct=batch.direct[:, :, perm],
        ris_rx=batch.ris_rx,
        tx_ris=batch.tx_ris[:, :, perm],
        phases=batch.phases,
    )
    base, _ = batch_gammas(batch, cfg, ALL)
    swapped, _ = batch_gammas(permuted, cfg, ALL)
    for scheme in (Scheme.DirectCsi, Scheme.RisCsi, Scheme.FullCsi):
        assert np.allclose(swapped[scheme], base[scheme][:, perm], rtol=1e-9)
    assert not np.allclose(swapped[Scheme.Joint], base[Scheme.Joint][:, perm], rtol=1e-3)


def test_ris_requires_enough_elements():
    cfg = SystemConfig(4, 3, 2)
    batch = draw_channel_batch(cfg, SeedSpec(24, 0), 1)
    with pytest.raises(ConfigurationError):
        batch_gammas(batch, cfg, (Scheme.RisCsi,))
    with pytest.raises(ConfigurationError):
        batch_gammas(batch, cfg, (Scheme.RisCsi,), {Scheme.RisCsi: 0})
    # the other schemes do not need L >= M
    _, ok = batch_gammas(batch, cfg, (Scheme.DirectCsi, Scheme.FullCsi, Scheme.Joint))
    assert ok.all()


def _oracle_gammas(batch, cfg, t):
    """Trial t's per-stream unit-power SNRs in plain numpy:
    1 / diag(inv(A^H A)) with the interference floors written out for the
    ZF schemes, and |r_ii + q_i^H c_i|^2 from numpy's QR of H_d for the
    joint one."""
    hd = batch.direct[t]
    casc = batch.ris_rx[t] @ np.diag(np.exp(1j * batch.phases[t])) @ batch.tx_ris[t]

    def gram_inv_diag(a):
        return np.diag(np.linalg.inv(a.conj().T @ a)).real

    noise_d = cfg.ris_elements * cfg.gain_ris_rx * cfg.gain_tx_ris.sum() + 1.0
    noise_ris = cfg.gain_direct.sum() + 1.0
    q, r = np.linalg.qr(hd)
    gammas = {
        Scheme.DirectCsi: 1.0 / (noise_d * gram_inv_diag(hd)),
        Scheme.FullCsi: 1.0 / gram_inv_diag(hd + casc),
        Scheme.Joint: np.abs(np.diagonal(r) + np.sum(q.conj() * casc, axis=0)) ** 2,
    }
    if cfg.ris_elements >= cfg.streams:  # else B^H B is singular
        gammas[Scheme.RisCsi] = 1.0 / (noise_ris * gram_inv_diag(casc))
    return gammas


ORACLE_CONFIGS = (
    SystemConfig(5, 3, 4, gain_direct=(0.5, 1.0, 1.5),
                 gain_tx_ris=0.7, gain_ris_rx=1.3),
    SystemConfig(4, 2, 2),
    SystemConfig(3, 2, 6),  # L > N
    SystemConfig(4, 2, 1),  # L < M: no cascade-CSI detector
)


def _dims(cfg):
    return "x".join(str(v) for v in (cfg.rx_antennas, cfg.streams, cfg.ris_elements))


def test_batch_matches_single_trial_loop():
    # the vectorized kernels against a per-trial numpy oracle, trial for
    # trial and stream for stream; the oracle forms each trial's cascade
    # itself, apart from channel.cascade_batch
    count = 50
    for cfg in ORACLE_CONFIGS:
        batch = draw_channel_batch(cfg, SeedSpec(25, 0), count)
        schemes = ALL if cfg.ris_elements >= cfg.streams else tuple(
            s for s in ALL if s is not Scheme.RisCsi)
        gam, ok = batch_gammas(batch, cfg, schemes)
        assert ok.all(), _dims(cfg)
        for t in range(count):
            for scheme, want in _oracle_gammas(batch, cfg, t).items():
                np.testing.assert_allclose(gam[scheme][t], want, rtol=1e-12,
                                           err_msg=f"{_dims(cfg)} {scheme} trial {t}")


RANK_CFG = SystemConfig(4, 2, 3)


def _rank_deficient(zero_pivot):
    """(batch, broken copy) of six (4,2,3) trials: trial 2's direct channel
    has a duplicate column and, with ``zero_pivot``, trial 4's first
    column is zero, an exactly zero pivot."""
    batch = draw_channel_batch(RANK_CFG, SeedSpec(26, 0), 6)
    direct = batch.direct.copy()
    direct[2, :, 1] = direct[2, :, 0]  # duplicate column in trial 2
    if zero_pivot:
        direct[4, :, 0] = 0.0  # exactly zero pivot in trial 4
    broken = ChannelBatch(direct=direct, ris_rx=batch.ris_rx,
                          tx_ris=batch.tx_ris, phases=batch.phases)
    return batch, broken


def test_batch_flags_rank_deficient_trials():
    cfg = RANK_CFG
    batch, broken = _rank_deficient(zero_pivot=False)
    gam, ok = batch_gammas(broken, cfg, (Scheme.DirectCsi, Scheme.FullCsi))
    assert not ok[2]
    assert ok.sum() == 5
    # healthy trials are untouched by the flagging path
    ref, _ = batch_gammas(batch, cfg, (Scheme.DirectCsi,))
    good = np.arange(6) != 2
    assert np.allclose(gam[Scheme.DirectCsi][good], ref[Scheme.DirectCsi][good])


PARITY_CONFIGS = (
    SystemConfig(5, 3, 4, gain_direct=(0.5, 1.0, 1.5), gain_tx_ris=(2.0, 0.7, 1.1),
                 gain_ris_rx=1.3),
    SystemConfig(3, 3, 4),  # N = M: the last pivot has no spare rows
    SystemConfig(8, 4, 8),
)


@pytest.mark.parametrize("cfg", PARITY_CONFIGS, ids=_dims)
def test_single_stream_kernels_match_all_stream_columns(cfg):
    # the one-stream path must reproduce the all-stream columns for every
    # scheme; both fill the same stack for stream i and eliminate it once,
    # so they agree byte for byte
    batch = draw_channel_batch(cfg, SeedSpec(28, 0), 64)
    full, ok_full = batch_gammas(batch, cfg, ALL)
    assert ok_full.all()
    for i in range(cfg.streams):
        one, ok = batch_gammas(batch, cfg, ALL, dict.fromkeys(ALL, i))
        assert ok.all()
        for scheme in ALL:
            assert one[scheme].shape == (64,)
            assert one[scheme].tobytes() == full[scheme][:, i].tobytes(), (scheme, i)


def test_single_stream_kernels_flag_rank_deficient_trials():
    cfg = RANK_CFG
    _, broken = _rank_deficient(zero_pivot=True)
    for scheme in ALL:
        _, want = batch_gammas(broken, cfg, (scheme,))
        for i in range(cfg.streams):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                gam, ok = batch_gammas(broken, cfg, (scheme,), {scheme: i})
            np.testing.assert_array_equal(ok, want)
            assert np.all(np.isfinite(gam[scheme]))
        # the direct channel alone is degenerate; the composite ones are not
        bad = {2, 4} if scheme in (Scheme.DirectCsi, Scheme.Joint) else set()
        assert set(np.flatnonzero(~ok)) == bad


def test_all_zero_matrix_is_flagged():
    # a zero matrix has every pivot 0: 0 > RANK_RTOL * 0 must fail
    cfg = SystemConfig(4, 2, 3)
    batch = draw_channel_batch(cfg, SeedSpec(26, 0), 6)
    direct, tx_ris = batch.direct.copy(), batch.tx_ris.copy()
    direct[1] = 0.0
    tx_ris[1] = 0.0  # zero cascade, so every scheme's matrix is zero
    broken = ChannelBatch(direct=direct, ris_rx=batch.ris_rx,
                          tx_ris=tx_ris, phases=batch.phases)
    for scheme in ALL:
        for streams in (None, {scheme: 0}, {scheme: 1}):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                gam, ok = batch_gammas(broken, cfg, (scheme,), streams)
            assert np.flatnonzero(~ok).tolist() == [1], (scheme, streams)
            assert np.all(np.isfinite(gam[scheme]))


ORACLE_SCHEME_SETS = ((Scheme.DirectCsi,), (Scheme.Joint,),
                      (Scheme.RisCsi, Scheme.FullCsi), ALL)


def _scheme_ids(schemes):
    return ",".join(s.value for s in schemes)


def _stream_requests(cfg, schemes):
    """Every stream at once, each stream for every scheme, and the schemes
    on different streams."""
    m = cfg.streams
    return ([None] + [dict.fromkeys(schemes, i) for i in range(m)]
            + [{s: (m - 1 - n) % m for n, s in enumerate(schemes)}])


def _assert_same_bytes(got, want, schemes, what):
    (gam, ok), (ref, ref_ok) = got, want
    assert ok.tobytes() == ref_ok.tobytes(), what
    for s in schemes:
        assert gam[s].shape == ref[s].shape, (s, what)
        assert gam[s].tobytes() == ref[s].tobytes(), (s, what)


STACK_CONFIGS = PARITY_CONFIGS + (
    SystemConfig(4, 2, 2),
    SystemConfig(32, 14, 16, gain_direct=0.7, gain_tx_ris=0.7, gain_ris_rx=0.7),
)


@pytest.mark.parametrize("schemes", ORACLE_SCHEME_SETS, ids=_scheme_ids)
@pytest.mark.parametrize("cfg", STACK_CONFIGS, ids=_dims)
def test_stacked_kernel_matches_per_scheme_eliminations(cfg, schemes):
    # one elimination of the shared stack against one per scheme and
    # stream, byte for byte in the gammas and the rank flags; 300 trials
    # of (32,14,16) are two slices, the oracle takes them in one piece
    batch = draw_channel_batch(cfg, SeedSpec(33, 0), 300)
    for streams in _stream_requests(cfg, schemes):
        _assert_same_bytes(batch_gammas(batch, cfg, schemes, streams),
                           per_scheme_gammas(batch, cfg, schemes, streams),
                           schemes, streams)


@pytest.mark.parametrize("zero_pivot", (False, True), ids=("duplicate", "zero-pivot"))
def test_stacked_kernel_matches_per_scheme_eliminations_when_rank_deficient(zero_pivot):
    # the rank-deficient batches above: the same bytes, the same flags
    _, broken = _rank_deficient(zero_pivot)
    degenerate = [2, 4] if zero_pivot else [2]
    for schemes in ORACLE_SCHEME_SETS:
        for streams in _stream_requests(RANK_CFG, schemes):
            got = batch_gammas(broken, RANK_CFG, schemes, streams)
            _assert_same_bytes(got, per_scheme_gammas(broken, RANK_CFG, schemes, streams),
                               schemes, streams)
            # only the direct channel is degenerate
            uses_direct = not {Scheme.DirectCsi, Scheme.Joint}.isdisjoint(schemes)
            assert np.flatnonzero(~got[1]).tolist() == (degenerate if uses_direct else [])


def test_one_elimination_per_slice(monkeypatch):
    # a stream request eliminates the shared stack once per slice, and an
    # every-stream call once per stream per slice: never once per scheme
    cfg = SystemConfig(32, 12, 16)
    count = 600
    sizes = trial_slices(cfg, count)
    assert len(sizes) > 1
    shapes = []
    eliminate = detectors._eliminate

    def counted(g):
        shapes.append(g.shape)
        return eliminate(g)

    monkeypatch.setattr(detectors, "_eliminate", counted)
    batch = draw_channel_batch(cfg, SeedSpec(34, 0), count)
    m = cfg.streams
    for schemes in ORACLE_SCHEME_SETS:
        stacks = [(m, m + 1, len(schemes) * size) for size in sizes]
        shapes.clear()
        batch_gammas(batch, cfg, schemes, resolve_streams(cfg, schemes))
        assert shapes == stacks, _scheme_ids(schemes)
        shapes.clear()
        batch_gammas(batch, cfg, schemes)
        assert shapes == [shape for shape in stacks for _ in range(m)], _scheme_ids(schemes)


# tracemalloc peak, after the draw, of an every-stream call on one whole
# 1024-trial block under the earlier kernel that eliminated once per scheme
# and stream (numpy 2.4, seed 30)
PER_SCHEME_PEAK_BYTES = {(32, 12, 16): 5_482_033, (32, 14, 16): 6_926_968}


@pytest.mark.parametrize("dims", sorted(PER_SCHEME_PEAK_BYTES), ids=str)
def test_every_stream_block_stays_within_the_per_scheme_peak(dims):
    # bench/checks.py::check_first_block makes this call, and its peak sets
    # the fig1 benchmark's peak_rss_mb: the shared stack, filled once per
    # stream, may hold at most 5% more than the per-scheme eliminations
    cfg = SystemConfig(*dims)
    batch = draw_channel_batch(cfg, SeedSpec(30, 0), 1024)
    tracemalloc.start()
    try:
        batch_gammas(batch, cfg, ALL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * PER_SCHEME_PEAK_BYTES[dims], peak


QR_CASES = {
    # L = M: the cascade's Gram is the ill-conditioned case of the squared
    # formulation
    "4x2x2": (SystemConfig(4, 2, 2), 64),
    "32x14x16": (SystemConfig(32, 14, 16, gain_direct=np.linspace(0.4, 1.7, 14),
                              gain_tx_ris=np.linspace(1.5, 0.3, 14),
                              gain_ris_rx=0.8), 1),
}


@pytest.mark.parametrize("case", sorted(QR_CASES))
def test_kernels_match_qr_reference(case):
    # the elimination against batched QR, every stream of every scheme on
    # both paths, with the same rank flags
    cfg, blocks = QR_CASES[case]
    for b in range(blocks):
        batch = draw_channel_batch(cfg, SeedSpec(29, b), 1024)
        requests = [None] + [dict.fromkeys(ALL, i) for i in range(cfg.streams)]
        for streams in requests:
            got, ok = batch_gammas(batch, cfg, ALL, streams)
            want, want_ok = qr_gammas(batch, cfg, ALL, 1.0, streams)
            np.testing.assert_array_equal(ok, want_ok)
            for scheme in ALL:
                np.testing.assert_allclose(got[scheme], want[scheme], rtol=1e-9,
                                           err_msg=f"{scheme} block {b} {streams}")


def test_batch_requested_schemes_only():
    cfg = SystemConfig(4, 2, 2)
    batch = draw_channel_batch(cfg, SeedSpec(27, 0), 3)
    gam, _ = batch_gammas(batch, cfg, (Scheme.Joint,))
    assert set(gam) == {Scheme.Joint}
    assert gam[Scheme.Joint].shape == (3, 2)


def _complex_stack(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _complex_gram(a, b):
    """Trials-last A^H B by numpy's complex matmul."""
    return (a.conj().transpose(0, 2, 1) @ b).transpose(1, 2, 0)


@pytest.mark.parametrize("shape", ((4, 2, 2), (32, 12, 16)), ids=str)
@pytest.mark.parametrize("kind", ("contiguous", "column-permuted", "one-trial"))
def test_gram_matches_complex_matmul(kind, shape):
    # the interleaved float64 products against the complex ones, for a self
    # and a cross product sharing one left operand
    n, m, m2 = shape
    rng = np.random.default_rng(31)
    count = 1 if kind == "one-trial" else 257
    a = _complex_stack(rng, count, n, m)
    b = _complex_stack(rng, count, n, m2)
    if kind == "column-permuted":
        # a stack whose last axis is not contiguous, as a column
        # permutation of the channel gives
        a = a[:, :, rng.permutation(m)]
        b = b[:, :, rng.permutation(m2)]
        assert a.strides[-1] != a.itemsize and b.strides[-1] != b.itemsize
    g_self, g_cross = _gram(a, a, b)
    for got, want in ((g_self, _complex_gram(a, a)), (g_cross, _complex_gram(a, b))):
        assert got.shape == want.shape and got.flags.c_contiguous
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
    # the two halves of each imaginary diagonal entry are the same products
    assert np.all(np.diagonal(g_self).imag == 0.0)


@pytest.mark.parametrize("kind", ("hermitian", "rank-deficient", "bordered"))
def test_elimination_matches_full_update(kind):
    # updating only the upper triangle leaves every value the kernels read
    # (pivots, rank flags and the upper triangle with its border) bit-equal
    rng = np.random.default_rng(32)
    for n, k in ((4, 2), (8, 4), (32, 12), (32, 14)):
        a = _complex_stack(rng, 64, n, k)
        if kind == "rank-deficient":
            a[3, :, 1] = a[3, :, 0]
            a[5] = 0.0
            a[7, :, k - 1] = 2j * a[7, :, 0]
        g = _complex_gram(a, a)
        if kind == "bordered":
            # the joint form: G_d bordered by one column of X = H_d^H B
            x = _complex_gram(a, _complex_stack(rng, 64, n, k))
            g = np.concatenate((g, x[:, k - 1:]), axis=1)
        got_g, want_g = np.array(g, order="C"), np.array(g, order="C")
        with np.errstate(divide="ignore", invalid="ignore"):
            got, got_ok = _eliminate(got_g)
            want, want_ok = eliminate_full_update(want_g)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_ok, want_ok)
        for r in range(k):
            np.testing.assert_array_equal(got_g[r, r:], want_g[r, r:])
        if kind == "rank-deficient":
            assert np.flatnonzero(~got_ok).tolist() == [3, 5, 7]
        else:
            assert got_ok.all()
