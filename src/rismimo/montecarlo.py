"""Trial-loop engine: empirical outage with uncertainty, and parameter sweeps.

All requested detection schemes are evaluated on the same channel draws
(common random numbers).  Trials run in fixed-size blocks, one RNG
substream per block, and block results are reduced in index order, so the
outcome is bit-identical for any worker count.

Transmit power enters every per-stream SNR through a fixed strictly
monotone scalar map (gamma is proportional to p for the full-CSI and
QR-based schemes, and equals p*z/(p*c+1) with a power-free z for the two
interference-floor schemes).  The engine therefore samples SNRs once at
unit transmit power and counts against the inverse-mapped threshold;
the counted event is identical per trial, and a whole power sweep costs
one sample collection.
"""

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .channel import DEFAULT_SCALE_MODE, SeedSpec, SystemConfig, draw_channel_batch
from .detectors import Scheme, batch_gammas, interference_power, threshold_from_rate
from .errors import ConfigurationError, NumericalRankError
from . import analytic

TRIALS_PER_BLOCK = 1024
# Detector rank failures above this rate mean the run is numerically sick
# rather than unlucky; the estimate aborts instead of quietly skewing.
MAX_FAILURE_RATE = 1e-6

_SCHEME_ORDER = (Scheme.DirectCsi, Scheme.RisCsi, Scheme.FullCsi, Scheme.Joint)


@dataclasses.dataclass(frozen=True)
class OutageEstimate:
    """Empirical outage for one scheme and stream.

    ``trials`` is the number of valid trials actually counted (requested
    trials minus rank failures).  ``wilson_low``/``wilson_high`` carry a
    95% Wilson score interval when the success count is small enough
    (p_hat * trials < 50) that the normal-approximation standard error
    thins out; otherwise they are None.
    """

    scheme: Scheme
    stream_index: int
    probability: float
    stderr: float
    trials: int
    failures: int = 0
    wilson_low: float = None
    wilson_high: float = None


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    variable: str
    values: tuple

    def __post_init__(self):
        if self.variable not in ("snr_db", "rate"):
            raise ConfigurationError(
                f"sweep variable must be 'snr_db' or 'rate', got {self.variable!r}"
            )
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ConfigurationError("sweep grid is empty")
        if any(not math.isfinite(v) for v in vals):
            raise ConfigurationError("sweep grid contains non-finite values")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ConfigurationError("sweep values must be strictly increasing")
        if self.variable == "rate" and vals[0] <= 0.0:
            raise ConfigurationError("rate sweep values must be positive")
        object.__setattr__(self, "values", vals)


@dataclasses.dataclass(frozen=True)
class CurvePoint:
    sweep_value: float
    snr_db: float
    rate: float
    gamma_th: float
    analytic: dict
    empirical: dict


@dataclasses.dataclass(frozen=True)
class OutageCurve:
    sweep_variable: str
    points: tuple
    config: SystemConfig
    schemes: tuple
    stream_index: dict
    trials: int
    seed: SeedSpec
    scale_mode: str
    joint_method: str


def canonical_schemes(schemes):
    chosen = set(schemes)
    unknown = chosen - set(_SCHEME_ORDER)
    if unknown:
        raise ConfigurationError(f"unknown schemes: {sorted(s for s in unknown)}")
    if not chosen:
        raise ConfigurationError("at least one scheme is required")
    return tuple(s for s in _SCHEME_ORDER if s in chosen)


def default_report_stream(cfg, scheme):
    """Stream whose statistics the per-scheme reports use by default.

    The QR-based scheme is the one whose per-stream law differs: the
    triangular pivot for stream i has 2(N - i) degrees of freedom. Its
    closed form covers every stream; the default stays at the last one,
    the weakest, whose N - M + 1 shape matches the other detectors' ZF
    diversity. The other detectors are exchangeable across streams under
    equal gains, so stream 0 is representative.
    """
    if scheme is Scheme.Joint:
        return cfg.streams - 1
    return 0


def resolve_streams(cfg, schemes, stream=None):
    """Normalize a stream request into a per-scheme index dict."""
    out = {}
    for s in schemes:
        if stream is None:
            idx = default_report_stream(cfg, s)
        elif isinstance(stream, dict):
            idx = stream.get(s, default_report_stream(cfg, s))
        else:
            idx = stream
        idx = int(idx)
        if not 0 <= idx < cfg.streams:
            raise ConfigurationError(
                f"stream index {idx} out of range for {cfg.streams} streams"
            )
        out[s] = idx
    return out


def wilson_interval(count, n, z=1.96):
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ConfigurationError("wilson_interval needs at least one trial")
    phat = count / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def threshold_at_unit_snr(scheme, cfg, tx_snr, gamma_th):
    """Outage threshold mapped to the unit-transmit-power sample scale.

    Counting unit-power SNR samples against this value reproduces, trial
    for trial, the event {gamma_i(p) < gamma_th}.
    """
    p = float(tx_snr)
    if p <= 0.0 or not math.isfinite(p):
        raise ConfigurationError(f"transmit SNR must be positive, got {p}")
    if gamma_th == math.inf:
        return math.inf
    c = interference_power(cfg, scheme)
    return gamma_th * (p * c + 1.0) / (p * (c + 1.0))


def _block_plan(trials):
    full, rem = divmod(trials, TRIALS_PER_BLOCK)
    sizes = [TRIALS_PER_BLOCK] * full
    if rem:
        sizes.append(rem)
    return sizes


def _chunk_ranges(n_blocks, workers):
    per = -(-n_blocks // workers)
    return [
        (lo, min(lo + per, n_blocks))
        for lo in range(0, n_blocks, per)
    ]


def _chunk(payload):
    """(parts, failures) for a contiguous range of trial blocks.

    parts[scheme] has one entry per block: the valid trials' SNRs at the
    scheme's stream, or at every stream when ``streams`` is None.
    Rank-failed trials are dropped from every scheme alike so the common
    draws stay aligned.
    """
    cfg, schemes, streams, master_seed, first, sizes = payload
    parts = {s: [] for s in schemes}
    failures = 0
    for off, size in enumerate(sizes):
        batch = draw_channel_batch(cfg, SeedSpec(master_seed, first + off), size)
        gammas, ok = batch_gammas(batch, cfg, schemes, streams)
        bad = size - int(ok.sum())
        failures += bad
        for s in schemes:
            parts[s].append(gammas[s][ok] if bad else gammas[s])
    return parts, failures


def _collect(cfg, schemes, streams, trials, seed, workers):
    """All trial blocks through `_chunk` on ``workers`` processes:
    ({scheme: block results in index order}, failures)."""
    workers = int(workers)
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    sizes = _block_plan(trials)
    payloads = [
        (cfg, schemes, streams, seed.master_seed, lo, sizes[lo:hi])
        for lo, hi in _chunk_ranges(len(sizes), workers)
    ]
    if workers == 1 or len(payloads) == 1:
        results = [_chunk(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_chunk, payloads))
    failures = sum(r[1] for r in results)
    _check_failures(failures, trials)
    return {s: [x for r in results for x in r[0][s]] for s in schemes}, failures


def _check_failures(failures, trials):
    if failures > MAX_FAILURE_RATE * trials:
        raise NumericalRankError(
            f"{failures} of {trials} trials hit a rank failure "
            f"(rate {failures / trials:.2e} > {MAX_FAILURE_RATE:.0e}); aborting"
        )


def _validate_trials(trials):
    trials = int(trials)
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    return trials


def _unit_config(cfg):
    if cfg.tx_snr == 1.0:
        return cfg
    return dataclasses.replace(cfg, tx_snr=1.0)


def snr_samples(cfg, schemes, trials, seed, stream=None, workers=1):
    """Per-trial SNR samples at the config's transmit power, one stream per
    scheme (default: each scheme's reporting stream).

    Returns ({scheme: sorted 1-D array}, failures).  Deterministic for a
    given seed and independent of ``workers``.
    """
    schemes = canonical_schemes(schemes)
    trials = _validate_trials(trials)
    streams = resolve_streams(cfg, schemes, stream)
    parts, failures = _collect(cfg, schemes, streams, trials, seed, workers)
    return {s: np.sort(np.concatenate(parts[s])) for s in schemes}, failures


def _estimate_from_count(scheme, stream_index, count, valid, failures):
    phat = count / valid
    stderr = math.sqrt(phat * (1.0 - phat) / valid)
    lo = hi = None
    if phat * valid < 50:
        lo, hi = wilson_interval(count, valid)
    return OutageEstimate(
        scheme=scheme,
        stream_index=stream_index,
        probability=phat,
        stderr=stderr,
        trials=valid,
        failures=failures,
        wilson_low=lo,
        wilson_high=hi,
    )


def analytic_outage(
    scheme,
    cfg,
    stream,
    gamma_th,
    scale_mode=DEFAULT_SCALE_MODE,
    joint_method=analytic.DEFAULT_JOINT_METHOD,
):
    """Closed-form outage for one scheme, dispatching on the scheme enum."""
    scheme = Scheme(scheme)
    if scheme is Scheme.DirectCsi:
        return analytic.outage_direct(cfg, stream, gamma_th)
    if scheme is Scheme.RisCsi:
        return analytic.outage_ris(cfg, stream, gamma_th)
    if scheme is Scheme.FullCsi:
        return analytic.outage_full_clt(cfg, stream, gamma_th, mode=scale_mode)
    return analytic.outage_joint(
        cfg, stream, gamma_th, mode=scale_mode, method=joint_method
    )


def _point_config(cfg, sweep_variable, value):
    if sweep_variable == "snr_db":
        return dataclasses.replace(cfg, tx_snr=10.0 ** (value / 10.0))
    return dataclasses.replace(cfg, rate=value)


def run_sweep(
    cfg,
    sweep,
    schemes,
    trials,
    seed,
    stream=None,
    workers=1,
    scale_mode=DEFAULT_SCALE_MODE,
    joint_method=analytic.DEFAULT_JOINT_METHOD,
):
    """Outage curve over an SNR or rate grid, analytic and empirical side
    by side.

    One unit-power sample collection serves every grid point (the draws
    are common across points and schemes), so the empirical curve is
    smooth in the sweep variable and the cost does not scale with grid
    size.  The cascade-CSI law holds for every N >= M and L >= M, the
    range its detector accepts, so every analytic value is a number.
    """
    if not isinstance(sweep, SweepSpec):
        raise ConfigurationError("sweep must be a SweepSpec")
    schemes = canonical_schemes(schemes)
    trials = _validate_trials(trials)
    streams = resolve_streams(cfg, schemes, stream)
    if (
        Scheme.Joint in schemes
        and joint_method == analytic.JOINT_PRINTED
        and scale_mode != "paper"
    ):
        raise ConfigurationError(
            "the printed closed form is only meaningful with scale_mode='paper'"
        )

    # Closed forms first, so a failing law stops the run before the Monte
    # Carlo work instead of after it.
    laws = []
    for value in sweep.values:
        cfg_point = _point_config(cfg, sweep.variable, value)
        gamma_th = threshold_from_rate(cfg_point.rate)
        ana = {
            s: analytic_outage(
                s, cfg_point, streams[s], gamma_th,
                scale_mode=scale_mode, joint_method=joint_method,
            )
            for s in schemes
        }
        laws.append((value, cfg_point, gamma_th, ana))

    base = _unit_config(cfg)
    samples, failures = snr_samples(base, schemes, trials, seed, streams, workers)
    valid = next(iter(samples.values())).size

    points = []
    for value, cfg_point, gamma_th, ana in laws:
        snr_db = value if sweep.variable == "snr_db" else 10.0 * math.log10(cfg.tx_snr)
        emp = {}
        for s in schemes:
            thr = threshold_at_unit_snr(s, cfg_point, cfg_point.tx_snr, gamma_th)
            count = int(np.searchsorted(samples[s], thr, side="left"))
            emp[s] = _estimate_from_count(s, streams[s], count, valid, failures)
        points.append(
            CurvePoint(
                sweep_value=float(value),
                snr_db=snr_db,
                rate=cfg_point.rate,
                gamma_th=gamma_th,
                analytic=ana,
                empirical=emp,
            )
        )
    return OutageCurve(
        sweep_variable=sweep.variable,
        points=tuple(points),
        config=cfg,
        schemes=schemes,
        stream_index=streams,
        trials=trials,
        seed=seed,
        scale_mode=scale_mode,
        joint_method=joint_method,
    )
