"""Output checks, computed apart from the program under test.

Each check raises ``CheckFailed`` with a message naming the curve, the
scheme and the point.  The references are textbook formulas evaluated with
scipy and numpy, never the program's own special functions:

* direct-CSI law: Gamma(N-M+1) CDF (``scipy.special.gammainc``);
* cascade-CSI law: CDF of a product of independent Gamma(N-M+1) and
  Gamma(L-M+1) variates in its Bessel-K closed form;
* per-trial SNRs: inverse-Gram diagonal from ``np.linalg.pinv`` and the
  joint detector from ``np.linalg.qr``.

Monte Carlo columns are compared with a reference law by an exact binomial
test.  A curve has up to 81 points and a set of benchmark runs checks
thousands of curves, so a per-point false-alarm rate of 1e-9 keeps the
chance of a spurious failure negligible while a wrong law, off by several
standard errors, still fails.
"""

import math

import numpy as np
from scipy.special import bdtr, bdtrc, gammainc, gammaln, kve

BINOMIAL_ALPHA = 1e-9
LAW_ATOL = 1e-8
SNR_RTOL = 1e-8


class CheckFailed(Exception):
    pass


def read_csv(path):
    """(manifest dict, {scheme: list of row dicts}) of a CLI CSV file."""
    manifest = {}
    rows = {}
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    header = None
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            manifest[key] = value
        elif header is None:
            header = line.split(",")
        else:
            row = dict(zip(header, line.split(",")))
            for key in header:
                if key != "scheme" and key != "sweep_variable":
                    row[key] = float(row[key])
            rows.setdefault(row["scheme"], []).append(row)
    return manifest, rows


def direct_law(curve, p, gamma_th):
    n, m, l, g = curve.n, curve.m, curve.l, curve.gain
    noise = p * l * g * (m * g) + 1.0
    return gammainc(n - m + 1, gamma_th * noise / (p * g))


def ris_law(curve, p, gamma_th):
    """P(U V <= z), U ~ Gamma(N-M+1), V ~ Gamma(L-M+1), z = kappa gamma_th.

    P(U V > z) = sum_{k<n1} z^k/k! E[V^-k e^(-z/V)]
               = sum_{k<n1} z^k/k! 2 z^((n2-k)/2) K_{n2-k}(2 sqrt z) / Gamma(n2),
    summed in log space with the exponentially scaled Bessel function.
    """
    n, m, l, g = curve.n, curve.m, curve.l, curve.gain
    n1, n2 = n - m + 1, l - m + 1
    z = np.atleast_1d((p * m * g + 1.0) / (p * g * g) * gamma_th)
    k = np.arange(n1)[:, None]
    root = 2.0 * np.sqrt(z)
    log_terms = (
        k * np.log(z) - gammaln(k + 1.0) + math.log(2.0) - gammaln(n2)
        + 0.5 * (n2 - k) * np.log(z) + np.log(kve(np.abs(n2 - k), root)) - root
    )
    return 1.0 - np.exp(log_terms).sum(axis=0)


def _point_params(curve, values):
    values = np.asarray(values)
    if curve.sweep == "snr_db":
        p = 10.0 ** (values / 10.0)
        rate = np.full_like(values, curve.rate_fixed)
    else:
        p = np.full_like(values, 10.0 ** (curve.snr_db_fixed / 10.0))
        rate = values
    return p, 2.0**rate - 1.0


def _binomial_ok(count, trials, prob):
    """Two-sided exact binomial test of ``count`` successes at ``prob``."""
    prob = float(min(max(prob, 0.0), 1.0))
    if prob in (0.0, 1.0):
        return count == prob * trials
    low = bdtr(count, trials, prob)            # P(X <= count)
    high = bdtrc(count - 1, trials, prob) if count > 0 else 1.0  # P(X >= count)
    return min(low, high) >= BINOMIAL_ALPHA / 2.0


def check_curve(curve, rep, seed_value, path):
    """Check one CLI output file; returns its rows by scheme."""
    manifest, rows = read_csv(path)
    where = f"{curve.label} rep {rep}"
    expect = {"rx_antennas": str(curve.n), "streams": str(curve.m),
              "ris_elements": str(curve.l), "trials": str(curve.trials),
              "seed": str(seed_value), "sweep_variable": curve.sweep}
    for key, value in expect.items():
        if manifest.get(key) != value:
            raise CheckFailed(f"{where}: manifest {key}={manifest.get(key)!r}, "
                              f"expected {value!r}")
    grid = np.array(curve.grid(rep))
    if sorted(rows) != sorted(["d", "ris", "full", "joint"]):
        raise CheckFailed(f"{where}: schemes {sorted(rows)}")
    p, gamma_th = _point_params(curve, grid)
    for scheme, srows in rows.items():
        values = np.array([r["sweep_value"] for r in srows])
        if values.shape != grid.shape or np.any(values != grid):
            raise CheckFailed(f"{where} {scheme}: sweep values differ from the grid")
        stream = curve.m - 1 if scheme == "joint" else 0
        mc = np.array([r["mc_outage"] for r in srows])
        ana = np.array([r["analytic_outage"] for r in srows])
        trials = {int(r["trials"]) for r in srows}
        if trials != {curve.trials}:
            raise CheckFailed(f"{where} {scheme}: valid trials {trials}")
        if any(int(r["stream_index"]) != stream for r in srows):
            raise CheckFailed(f"{where} {scheme}: stream index is not {stream}")
        for name, col in (("mc", mc), ("analytic", ana)):
            if not np.all((col >= 0.0) & (col <= 1.0)):
                raise CheckFailed(f"{where} {scheme}: {name} value outside [0, 1]")
        # common samples make the Monte Carlo curve exactly monotone
        steps = np.diff(mc) if curve.sweep == "rate" else -np.diff(mc)
        if np.any(steps < 0.0):
            raise CheckFailed(f"{where} {scheme}: Monte Carlo outage not monotone")
        if scheme in ("d", "ris"):
            law = direct_law if scheme == "d" else ris_law
            ref = law(curve, p, gamma_th)
            worst = np.max(np.abs(ana - ref))
            if not worst <= LAW_ATOL:
                raise CheckFailed(f"{where} {scheme}: analytic column off the "
                                  f"reference law by {worst:.3g}")
            for k, (phat, pref) in enumerate(zip(mc, ref)):
                count = int(round(phat * curve.trials))
                if not _binomial_ok(count, curve.trials, pref):
                    raise CheckFailed(
                        f"{where} {scheme} point {k}: Monte Carlo {phat:.6g} "
                        f"against law {pref:.6g} at {curve.trials} trials")
    return rows


def check_printed_matches_quadrature(where, quad_rows, printed_rows):
    a = np.array([r["analytic_outage"] for r in quad_rows["joint"]])
    b = np.array([r["analytic_outage"] for r in printed_rows["joint"]])
    worst = np.max(np.abs(a - b))
    if not worst <= LAW_ATOL:
        raise CheckFailed(f"{where}: printed and quadrature joint laws differ "
                          f"by {worst:.3g}")


def textbook_gammas(direct, ris_rx, tx_ris, phases, curve):
    """Unit-power SNRs of the four schemes, trial by trial along the
    leading axis: H_d, H, G and phi of each trial in, one SNR per stream out."""
    m, l, g = curve.m, curve.l, curve.gain
    cascade = ris_rx @ (np.exp(1j * phases)[..., :, None] * tx_ris)

    def inverse_gram_diag(a):
        pinv = np.linalg.pinv(a)
        return np.real(np.sum(pinv * pinv.conj(), axis=-1))

    q, r = np.linalg.qr(direct)
    return {
        "d": 1.0 / ((l * g * m * g + 1.0) * inverse_gram_diag(direct)),
        "ris": 1.0 / ((m * g + 1.0) * inverse_gram_diag(cascade)),
        "full": 1.0 / inverse_gram_diag(direct + cascade),
        "joint": np.abs(np.diagonal(r, axis1=-2, axis2=-1)
                        + np.sum(q.conj() * cascade, axis=-2)) ** 2,
    }


def check_first_block(curve, seed_value, chunk=64):
    """The program's SNRs of block 0 against a per-trial recomputation."""
    from rismimo.channel import SeedSpec, SystemConfig, draw_channel_batch
    from rismimo.detectors import Scheme, batch_gammas

    cfg = SystemConfig(curve.n, curve.m, curve.l, gain_direct=curve.gain,
                       gain_tx_ris=curve.gain, gain_ris_rx=curve.gain)
    size = min(curve.trials, 1024)
    batch = draw_channel_batch(cfg, SeedSpec(seed_value, 0), size)
    got, ok = batch_gammas(batch, cfg, tuple(Scheme))
    if not ok.all():
        raise CheckFailed(f"{curve.label}: rank failures in block 0")
    for lo in range(0, size, chunk):
        part = slice(lo, lo + chunk)
        want = textbook_gammas(batch.direct[part], batch.ris_rx[part],
                               batch.tx_ris[part], batch.phases[part], curve)
        for scheme in Scheme:
            ref = want[scheme.value]
            rel = np.max(np.abs(got[scheme][part] - ref) / np.abs(ref))
            if not rel <= SNR_RTOL:
                raise CheckFailed(f"{curve.label} {scheme.value}: block-0 SNRs "
                                  f"off the textbook recomputation by {rel:.3g}")
