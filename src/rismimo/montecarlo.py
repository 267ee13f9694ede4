"""Trial-loop engine: empirical outage with uncertainty, and parameter sweeps.

All requested detection schemes are evaluated on the same channel draws
(common random numbers).  Trials run in fixed-size blocks, one RNG
substream per block, and block results are reduced in index order, so the
outcome is bit-identical for any worker count.  Each block is drawn and
detected in slices sized by a byte budget, which bounds the memory a
block holds and changes no output byte.  One helper thread draws the next
slice into the second of two reused variate buffers while the detector
kernels run on the current one; NumPy fills the variates without holding
the GIL, so the draw and the kernels share two cores.  The helper draws
the slices in the order a lone thread would, from the same generators
that only it touches, so no byte depends on the overlap.

Transmit power enters every per-stream SNR through a fixed strictly
monotone scalar map (gamma is proportional to p for the full-CSI and
joint schemes, and equals p*z/(p*c+1) with a power-free z for the two
interference-floor schemes).  The engine therefore samples SNRs once at
unit transmit power and counts against the inverse-mapped threshold;
the counted event is identical per trial, and a whole power sweep costs
one sample collection.  The operating points are a `SweepSpec`'s, and it
alone converts them: it forms each point's dB value, transmit power, rate
and threshold once, and `run_sweep` reads them.
"""

import dataclasses
import math
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np

from .channel import (
    DEFAULT_SCALE_MODE,
    SeedSpec,
    channel_generators,
    check_stream,
    draw_channel_batch,
    trial_slices,
    uniforms_per_trial,
)
from .detectors import Scheme, batch_gammas, interference_power, threshold_from_rate
from .errors import ConfigurationError, NumericalRankError, check_count, check_positive
from . import analytic

TRIALS_PER_BLOCK = 1024
# Detector rank failures above this rate mean the run is numerically sick
# rather than unlucky; the estimate aborts instead of quietly skewing.
MAX_FAILURE_RATE = 1e-6


@dataclasses.dataclass(frozen=True)
class OutageEstimate:
    """Empirical outage for one scheme and stream.

    ``trials`` is the number of valid trials actually counted (requested
    trials minus rank failures), and ``stderr`` the normal-approximation
    binomial standard error.
    """

    probability: float
    stderr: float
    trials: int


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """Operating points: a grid of one variable, the other held at fixed.

    ``fixed`` is the rate in bit/s/Hz of an "snr_db" sweep, or the transmit
    SNR in dB of a "rate" sweep. Construction forms every point's
    quantities once, in grid order, and checks each by the rule of what it
    stands for: ``snr_db`` (the dB value as given), ``tx_snr`` (its linear
    power), ``rate`` and ``gamma_th`` (its threshold 2^rate - 1). Each is a
    read-only tuple with one float per grid point, the fixed value
    repeated at every point.
    """

    variable: str
    values: tuple
    fixed: float

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
        fixed = float(self.fixed)
        snr_db, rate = (vals, [fixed]) if self.variable == "snr_db" else ([fixed], vals)
        gamma_th = [threshold_from_rate(r) for r in rate]
        tx_snr = [check_positive(db_to_power(v), "tx_snr") for v in snr_db]
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "fixed", fixed)
        for name, column in (("snr_db", snr_db), ("tx_snr", tx_snr),
                             ("rate", rate), ("gamma_th", gamma_th)):
            object.__setattr__(self, name, tuple(column) * (len(vals) // len(column)))


@dataclasses.dataclass(frozen=True)
class CurvePoint:
    """One grid point's outage per scheme; its operating point is the sweep's."""

    analytic: dict
    empirical: dict


def canonical_schemes(schemes):
    chosen = set(schemes)
    unknown = chosen - set(Scheme)
    if unknown:
        raise ConfigurationError(f"unknown schemes: {sorted(s for s in unknown)}")
    if not chosen:
        raise ConfigurationError("at least one scheme is required")
    return tuple(s for s in Scheme if s in chosen)


def default_report_stream(cfg, scheme):
    """Stream whose statistics the per-scheme reports use by default.

    The joint scheme is the one whose per-stream law differs: the
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
        out[s] = check_stream(cfg, idx)
    return out


def threshold_at_unit_snr(scheme, cfg, tx_snr, gamma_th):
    """Outage threshold mapped to the unit-transmit-power sample scale.

    Counting unit-power SNR samples against this value reproduces, trial
    for trial, the event {gamma_i(p) < gamma_th}. tx_snr and gamma_th may
    be grids; a threshold that overflows is inf.
    """
    p = check_positive(tx_snr, "tx_snr")
    c = interference_power(cfg, scheme)
    with np.errstate(over="ignore"):
        return gamma_th * (p * c + 1.0) / (p * (c + 1.0))


def _chunk_ranges(n_blocks, workers):
    per = -(-n_blocks // workers)
    return [
        (lo, min(lo + per, n_blocks))
        for lo in range(0, n_blocks, per)
    ]


def _slice_draws(cfg, master_seed, first, counts, buffers):
    """`draw_channel_batch` arguments for every slice of the blocks first,
    first + 1, ... of counts[0], counts[1], ... trials, in draw order; the
    slices take the buffers in turn."""
    k = 0
    for b, count in enumerate(counts, first):
        gens = channel_generators(SeedSpec(master_seed, b))
        for size in trial_slices(cfg, count):
            yield cfg, gens, size, buffers[k % 2]
            k += 1


def _chunk(payload):
    """(parts, failures) for the blocks first..stop-1 of a ``trials``-trial run.

    Each block is drawn and detected in the slices of
    `channel.trial_slices`, which continue the block's generators, so its
    working set stays bounded and its bytes do not depend on the slicing.
    One helper thread draws the next slice while the kernels run on this
    one, into the other of two variate buffers; the draws keep their order
    and only the helper touches the generators.
    parts[scheme] has one entry per slice: the valid trials' SNRs at the
    scheme's stream, or at every stream when ``streams`` is None.
    Rank-failed trials are dropped from every scheme alike so the common
    draws stay aligned.
    """
    cfg, schemes, streams, master_seed, first, stop, trials = payload
    counts = [min(TRIALS_PER_BLOCK, trials - b * TRIALS_PER_BLOCK)
              for b in range(first, stop)]
    # every block but the last is full, and a block's first slice is its longest
    rows = max(trial_slices(cfg, counts[0])[0], trial_slices(cfg, counts[-1])[0])
    buffers = [np.empty((rows, uniforms_per_trial(cfg))) for _ in range(2)]
    draws = _slice_draws(cfg, master_seed, first, counts, buffers)
    parts = {s: [] for s in schemes}
    failures = 0
    with ThreadPoolExecutor(max_workers=1) as helper:
        pending = helper.submit(draw_channel_batch, *next(draws))
        while pending is not None:
            batch = pending.result()
            ahead = next(draws, None)
            if ahead is not None:
                pending = helper.submit(draw_channel_batch, *ahead)
            else:
                pending = None
            gammas, ok = batch_gammas(batch, cfg, schemes, streams)
            bad = ok.size - int(ok.sum())
            failures += bad
            for s in schemes:
                parts[s].append(gammas[s][ok] if bad else gammas[s])
    return parts, failures


def _collect(cfg, schemes, streams, trials, seed, workers):
    """All trial blocks through `_chunk` in ``workers`` payloads:
    ({scheme: block results in index order}, failures)."""
    workers = check_count(workers, "workers")
    payloads = [
        (cfg, schemes, streams, seed.master_seed, lo, hi, trials)
        for lo, hi in _chunk_ranges(-(-trials // TRIALS_PER_BLOCK), workers)
    ]
    # at most one process per payload and per CPU: the executor may start
    # every worker it is allowed, and fewer blocks than workers leave the
    # rest idle
    processes = min(len(payloads), os.cpu_count() or 1)
    if processes == 1:
        results = [_chunk(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=processes) as pool:
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
    trials = check_count(trials, "trials")
    try:
        SeedSpec(0, (trials - 1) // TRIALS_PER_BLOCK)  # the last block's key
    except ConfigurationError as exc:
        raise ConfigurationError(
            f"trials {trials} need more blocks than a seed key addresses: {exc}"
        ) from None
    return trials


def snr_samples(cfg, schemes, trials, seed, stream=None, workers=1):
    """Per-trial SNR samples at unit transmit power, one stream per scheme
    (default: each scheme's reporting stream).

    Returns ({scheme: sorted 1-D array}, failures).  Deterministic for a
    given seed and independent of ``workers``.
    """
    schemes = canonical_schemes(schemes)
    trials = _validate_trials(trials)
    streams = resolve_streams(cfg, schemes, stream)
    parts, failures = _collect(cfg, schemes, streams, trials, seed, workers)
    banks = {s: np.concatenate(parts[s]) for s in schemes}
    for bank in banks.values():
        bank.sort()  # in place: np.sort would copy each bank once more
    return banks, failures


def _estimate_from_count(count, valid):
    phat = count / valid
    return OutageEstimate(phat, math.sqrt(phat * (1.0 - phat) / valid), valid)


def db_to_power(db):
    """Linear power of a dB value; ConfigurationError where it overflows."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ConfigurationError(f"{db} dB overflows a float power") from None


def _refuse_overflow(grids, sweep, what):
    """ConfigurationError at the first point of ``sweep`` where a scheme's
    entry of ``grids`` ({scheme: array}) is not finite, naming every such
    scheme."""
    finite = np.logical_and.reduce([np.isfinite(v) for v in grids.values()])
    if not finite.all():
        j = int(np.argmin(finite))
        names = ", ".join(s.value for s, v in grids.items() if not np.isfinite(v[j]))
        raise ConfigurationError(
            f"rate {sweep.rate[j]} at {sweep.snr_db[j]} dB overflows {what} of {names}"
        )


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
    by side: one CurvePoint per grid value, in grid order.

    One unit-power sample collection serves every grid point (the draws
    are common across points and schemes), so the empirical curve is
    smooth in the sweep variable and the cost does not scale with grid
    size.  Each scheme's law runs once, over the whole grid.  The
    cascade-CSI law holds for every N >= M and L >= M, the range its
    detector accepts, so every analytic value is a number.
    """
    if not isinstance(sweep, SweepSpec):
        raise ConfigurationError("sweep must be a SweepSpec")
    schemes = canonical_schemes(schemes)
    trials = _validate_trials(trials)
    workers = check_count(workers, "workers")
    streams = resolve_streams(cfg, schemes, stream)

    p, g = np.array(sweep.tx_snr), np.array(sweep.gamma_th)
    # Every threshold and law argument, then the laws, so an overflow or a
    # failing law stops the run before the Monte Carlo work instead of
    # after it.
    thresholds = {s: threshold_at_unit_snr(s, cfg, p, g) for s in schemes}
    _refuse_overflow(thresholds, sweep, "the outage threshold")
    arguments = {s: analytic.law_argument(s, cfg, streams[s], g, tx_snr=p, mode=scale_mode)
                 for s in schemes}
    _refuse_overflow(arguments, sweep, "the law argument")
    laws = {s: analytic.outage(s, cfg, streams[s], g, p, mode=scale_mode,
                               method=joint_method).tolist()
            for s in schemes}

    samples, _ = snr_samples(cfg, schemes, trials, seed, streams, workers)
    valid = next(iter(samples.values())).size
    counts = {s: np.searchsorted(samples[s], thresholds[s], side="left").tolist()
              for s in schemes}
    return tuple(
        CurvePoint(
            analytic={s: laws[s][j] for s in schemes},
            empirical={s: _estimate_from_count(counts[s][j], valid) for s in schemes},
        )
        for j in range(len(sweep.values))
    )
