"""Command-line front end: scenario configs, figure presets, sweep runs,
pilot-overhead reporting, and CSV/JSON emission.

Everything result-determining lives in the RunManifest and is echoed into
the output header, so a run can be reproduced from its own file.  Worker
count is deliberately not part of the manifest: block-indexed substreams
make the numbers identical for any worker split.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

from .channel import DEFAULT_SCALE_MODE, SCALE_MODES, SeedSpec, SystemConfig
from .detectors import Scheme
from .errors import ConfigurationError, NumericalRankError, NumericError
from .analytic import DEFAULT_JOINT_METHOD, JOINT_METHODS
from .montecarlo import (
    SweepSpec,
    canonical_schemes,
    resolve_streams,
    run_sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

DEFAULT_TRIALS = 1_000_000
DEFAULT_SEED = 0

CSV_COLUMNS = (
    "scheme",
    "sweep_variable",
    "sweep_value",
    "snr_db",
    "rate_bps_hz",
    "gamma_th",
    "stream_index",
    "analytic_outage",
    "mc_outage",
    "mc_stderr",
    "trials",
    "seed",
)

_FLOAT_COLUMNS = frozenset(
    ("sweep_value", "snr_db", "rate_bps_hz", "gamma_th",
     "analytic_outage", "mc_outage", "mc_stderr")
)


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """Fully resolved description of one run; no implicit defaults left."""

    config: SystemConfig
    sweep: SweepSpec
    schemes: tuple
    trials: int
    master_seed: int
    scale_mode: str
    joint_method: str
    stream: dict
    workers: int
    output: str
    fmt: str


def _grid(start, stop, step):
    if step <= 0:
        raise ConfigurationError(f"grid step must be > 0, got {step}")
    if stop < start:
        raise ConfigurationError(f"grid stop {stop} is below start {start}")
    n = int(math.floor((stop - start) / step + 1e-9))
    return tuple(start + k * step for k in range(n + 1))


def parse_grid(text):
    """'start:stop:step' inclusive grid, or a single value."""
    parts = str(text).split(":")
    try:
        nums = [float(p) for p in parts]
    except ValueError:
        raise ConfigurationError(
            f"expected a number or 'start:stop:step' numbers, got {text!r}"
        ) from None
    if len(nums) == 1:
        return (nums[0],)
    if len(nums) == 3:
        return _grid(*nums)
    raise ConfigurationError(f"grid must be 'value' or 'start:stop:step', got {text!r}")


def parse_gains(text):
    """Scalar or comma-separated per-stream variance list."""
    parts = str(text).split(",")
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise ConfigurationError(
            f"expected a number or a comma list of numbers, got {text!r}"
        ) from None
    return vals[0] if len(vals) == 1 else tuple(vals)


def parse_schemes(text):
    tokens = [t.strip() for t in str(text).split(",") if t.strip()]
    if not tokens:
        raise ConfigurationError("empty scheme list")
    return canonical_schemes(Scheme.from_token(t) for t in tokens)


def _parse_int(text):
    """An integer literal, parsed exactly: no float round trip, no truncation."""
    try:
        return int(str(text).strip())
    except ValueError:
        raise ConfigurationError(f"expected an integer, got {text!r}") from None


def _parse_bool(text):
    if isinstance(text, bool):
        return text
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"expected a boolean, got {text!r}")


def preset_fig1(l):
    """Reference scenario: 32 antennas, 12 streams, unit gains, rate 3,
    SNR swept over the low-to-moderate range, all four schemes."""
    if l not in (16, 32):
        raise ConfigurationError(f"this preset supports l in {{16, 32}}, got {l}")
    cfg = SystemConfig(rx_antennas=32, streams=12, ris_elements=l, tx_snr=1.0, rate=3.0)
    schemes = canonical_schemes(Scheme)
    return RunManifest(
        config=cfg,
        sweep=SweepSpec("snr_db", _grid(-10.0, 10.0, 1.0)),
        schemes=schemes,
        trials=DEFAULT_TRIALS,
        master_seed=DEFAULT_SEED,
        scale_mode=DEFAULT_SCALE_MODE,
        joint_method=DEFAULT_JOINT_METHOD,
        stream=resolve_streams(cfg, schemes),
        workers=1,
        output="outage_snr_db.csv",
        fmt="csv",
    )


def preset_fig2(gain_d=0.7):
    """Rate-sweep scenario: 32 antennas, 14 streams, 16 elements, RIS-link
    variances 0.7, transmit SNR fixed at 3 dB.  The direct-link variance
    is a parameter (default 0.7, matching the weaker-direct-path case)."""
    cfg = SystemConfig(
        rx_antennas=32,
        streams=14,
        ris_elements=16,
        tx_snr=10.0**0.3,
        rate=3.0,
        gain_direct=gain_d,
        gain_tx_ris=0.7,
        gain_ris_rx=0.7,
    )
    schemes = canonical_schemes(Scheme)
    return RunManifest(
        config=cfg,
        sweep=SweepSpec("rate", _grid(0.5, 6.0, 0.5)),
        schemes=schemes,
        trials=DEFAULT_TRIALS,
        master_seed=DEFAULT_SEED,
        scale_mode=DEFAULT_SCALE_MODE,
        joint_method=DEFAULT_JOINT_METHOD,
        stream=resolve_streams(cfg, schemes),
        workers=1,
        output="outage_rate.csv",
        fmt="csv",
    )


def pilot_overhead_counts(n, m, l):
    """(channel uses to sound every link, channel uses for the direct link
    alone) for an n-antenna, m-stream, l-element system."""
    if min(n, m) < 1 or l < 0:
        raise ConfigurationError("pilot counts need n, m >= 1 and l >= 0")
    return n * l * m + n * m, n * m


def _fmt(value, column):
    if column in _FLOAT_COLUMNS:
        return format(float(value), ".17g")
    return str(value)


def curve_rows(curve):
    """Flatten an OutageCurve into one dict per (point, scheme), scheme
    order fixed so files are deterministic."""
    rows = []
    for point in curve.points:
        for s in curve.schemes:
            est = point.empirical[s]
            rows.append(
                {
                    "scheme": s.value,
                    "sweep_variable": curve.sweep_variable,
                    "sweep_value": point.sweep_value,
                    "snr_db": point.snr_db,
                    "rate_bps_hz": point.rate,
                    "gamma_th": point.gamma_th,
                    "stream_index": est.stream_index,
                    "analytic_outage": point.analytic[s],
                    "mc_outage": est.probability,
                    "mc_stderr": est.stderr,
                    "trials": est.trials,
                    "seed": curve.seed.master_seed,
                }
            )
    return rows


def manifest_items(manifest):
    """Stable (key, value-string) pairs echoed into every output file."""
    cfg = manifest.config
    gains_d = ",".join(format(g, ".17g") for g in cfg.gain_direct)
    gains_g = ",".join(format(g, ".17g") for g in cfg.gain_tx_ris)
    items = [
        ("rx_antennas", str(cfg.rx_antennas)),
        ("streams", str(cfg.streams)),
        ("ris_elements", str(cfg.ris_elements)),
        ("sweep_variable", manifest.sweep.variable),
        ("sweep_values", ",".join(format(v, ".17g") for v in manifest.sweep.values)),
        ("gain_d", gains_d),
        ("gain_g", gains_g),
        ("gain_h", format(cfg.gain_ris_rx, ".17g")),
        ("schemes", ",".join(s.value for s in manifest.schemes)),
        ("trials", str(manifest.trials)),
        ("seed", str(manifest.master_seed)),
        ("scale_mode", manifest.scale_mode),
        ("joint_method", manifest.joint_method),
        ("stream", ",".join(f"{s.value}:{i}" for s, i in manifest.stream.items())),
        ("format", manifest.fmt),
        ("output", manifest.output),
    ]
    if manifest.sweep.variable == "snr_db":
        items.insert(5, ("rate_fixed_bps_hz", format(cfg.rate, ".17g")))
    else:
        items.insert(
            5, ("snr_db_fixed", format(10.0 * math.log10(cfg.tx_snr), ".17g"))
        )
    return items


def write_csv(path, manifest, rows):
    lines = [f"# {k} = {v}" for k, v in manifest_items(manifest)]
    lines.append(",".join(CSV_COLUMNS))
    for row in rows:
        lines.append(",".join(_fmt(row[c], c) for c in CSV_COLUMNS))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, manifest, rows):
    # JSON has no NaN: a value without a law in range is written as null
    rows = [
        {k: None if isinstance(v, float) and not math.isfinite(v) else v
         for k, v in row.items()}
        for row in rows
    ]
    doc = {
        "manifest": dict(manifest_items(manifest)),
        "columns": list(CSV_COLUMNS),
        "rows": rows,
    }
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(doc, fh, indent=1, allow_nan=False)
        fh.write("\n")


def _print_summary(curve, out=None):
    out = out if out is not None else sys.stdout
    head = f"{curve.sweep_variable:>10}"
    for s in curve.schemes:
        head += f"  {s.value + ':analytic':>14}  {s.value + ':mc':>10}"
    print(head, file=out)
    for point in curve.points:
        line = f"{point.sweep_value:>10.3g}"
        for s in curve.schemes:
            line += (
                f"  {point.analytic[s]:>14.4e}"
                f"  {point.empirical[s].probability:>10.4e}"
            )
        print(line, file=out)


def run(manifest):
    """Execute a manifest: sweep, write the output file, print a summary.

    Returns a process exit status (0 ok, 2 configuration, 3 numerics,
    4 file I/O); a missing or read-only output directory fails before the sweep."""
    try:
        folder = os.path.dirname(os.path.abspath(manifest.output))
        if not os.access(folder, os.W_OK):
            raise OSError(f"output directory missing or not writable: {folder}")
        curve = run_sweep(
            manifest.config,
            manifest.sweep,
            manifest.schemes,
            manifest.trials,
            SeedSpec(manifest.master_seed),
            stream=manifest.stream,
            workers=manifest.workers,
            scale_mode=manifest.scale_mode,
            joint_method=manifest.joint_method,
        )
        rows = curve_rows(curve)
        if manifest.fmt == "csv":
            write_csv(manifest.output, manifest, rows)
        else:
            write_json(manifest.output, manifest, rows)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, NumericalRankError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    _print_summary(curve)
    print(f"wrote {manifest.output}")
    return EXIT_OK


_CONVERTERS = {
    "preset": str,
    "n": _parse_int,
    "m": _parse_int,
    "l": _parse_int,
    "snr_db": parse_grid,
    "rate": parse_grid,
    "rate_fixed": float,
    "snr_db_fixed": float,
    "gain_d": parse_gains,
    "gain_g": parse_gains,
    "gain_h": float,
    "schemes": parse_schemes,
    "trials": _parse_int,
    "seed": _parse_int,
    "scale_mode": str,
    "joint_method": str,
    "stream": _parse_int,
    "workers": _parse_int,
    "output": str,
    "format": str,
    "overhead_report": _parse_bool,
}


def _flag_type(convert):
    """A converter as an argparse type. argparse prints the text of an
    ArgumentTypeError but replaces a ValueError's with the type's name."""

    def parse(text):
        try:
            return convert(text)
        except ConfigurationError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _build_parser():
    as_int, as_grid, as_gains, as_schemes = map(
        _flag_type, (_parse_int, parse_grid, parse_gains, parse_schemes)
    )
    ap = argparse.ArgumentParser(
        prog="rismimo",
        exit_on_error=False,
        description="Outage-probability simulator for a blind-RIS multiuser "
        "MIMO uplink: Monte Carlo plus closed forms for four detectors.",
    )
    ap.add_argument("--preset", choices=("fig1", "fig2"), default=None,
                    help="named scenario; individual flags override its fields")
    ap.add_argument("--n", type=as_int, default=None, help="receive antennas")
    ap.add_argument("--m", type=as_int, default=None, help="transmit streams")
    ap.add_argument("--l", type=as_int, default=None, help="surface elements")
    ap.add_argument("--snr-db", type=as_grid, default=None, metavar="START:STOP:STEP",
                    help="sweep transmit SNR in dB (inclusive grid, or one value)")
    ap.add_argument("--rate", type=as_grid, default=None, metavar="START:STOP:STEP",
                    help="sweep target rate in bit/s/Hz")
    ap.add_argument("--rate-fixed", type=float, default=None,
                    help="rate held fixed during an SNR sweep (default 3)")
    ap.add_argument("--snr-db-fixed", type=float, default=None,
                    help="transmit SNR in dB held fixed during a rate sweep (default 0)")
    ap.add_argument("--gain-d", type=as_gains, default=None,
                    help="direct-link variance, scalar or per-stream comma list")
    ap.add_argument("--gain-g", type=as_gains, default=None,
                    help="transmitter-to-surface variance, scalar or per-stream comma list")
    ap.add_argument("--gain-h", type=float, default=None,
                    help="surface-to-receiver variance (scalar)")
    ap.add_argument("--schemes", type=as_schemes, default=None,
                    help="comma list out of d,ris,full,joint (default: all)")
    ap.add_argument("--trials", type=as_int, default=None,
                    help=f"Monte Carlo trials per sweep (default {DEFAULT_TRIALS})")
    ap.add_argument("--seed", type=as_int, default=None,
                    help=f"master seed (default {DEFAULT_SEED})")
    ap.add_argument("--scale-mode", choices=SCALE_MODES, default=None,
                    help=f"cascade surrogate variance convention (default {DEFAULT_SCALE_MODE})")
    ap.add_argument("--joint-method", choices=JOINT_METHODS, default=None,
                    help=f"joint-detector outage evaluation (default {DEFAULT_JOINT_METHOD})")
    ap.add_argument("--stream", type=as_int, default=None,
                    help="report this stream for every scheme "
                    "(default: 0, and the last stream for the joint detector)")
    ap.add_argument("--workers", type=as_int, default=None,
                    help="parallel worker processes (default 1; results identical)")
    ap.add_argument("--output", default=None, help="output file path")
    ap.add_argument("--format", choices=("csv", "json"), default=None)
    ap.add_argument("--overhead-report", action="store_true", default=None,
                    help="print pilot-overhead channel uses for the config and exit")
    ap.add_argument("--config", default=None, metavar="FILE",
                    help="flat key=value file supplying any of the above flags")
    return ap


def _read_config_file(path):
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected key=value, got {line!r}"
                )
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key == "config":
                raise ConfigurationError(f"{path}:{lineno}: nested config files")
            if key not in _CONVERTERS:
                raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = _CONVERTERS[key](value)
    return out


def build_manifest(ns, file_values):
    """Resolve precedence (explicit flag > config file > preset > default)
    into a RunManifest."""

    def pick(name, default=None):
        v = getattr(ns, name)
        if v is None:
            v = file_values.get(name)
        return default if v is None else v

    preset_name = pick("preset")
    if preset_name == "fig1":
        base = preset_fig1(pick("l", 16))
    elif preset_name == "fig2":
        base = preset_fig2(pick("gain_d", 0.7))
    elif preset_name is None:
        base = None
    else:
        raise ConfigurationError(f"unknown preset {preset_name!r}")

    if base is not None:
        cfg = base.config
        n = pick("n", cfg.rx_antennas)
        m = pick("m", cfg.streams)
        l = pick("l", cfg.ris_elements)
        gain_d = pick("gain_d", tuple(cfg.gain_direct))
        gain_g = pick("gain_g", tuple(cfg.gain_tx_ris))
        gain_h = pick("gain_h", cfg.gain_ris_rx)
    else:
        n, m, l = pick("n"), pick("m"), pick("l")
        if None in (n, m, l):
            raise ConfigurationError(
                "provide --preset, or all of --n, --m and --l"
            )
        gain_d = pick("gain_d", 1.0)
        gain_g = pick("gain_g", 1.0)
        gain_h = pick("gain_h", 1.0)

    snr_grid = pick("snr_db")
    rate_grid = pick("rate")
    if snr_grid is not None and rate_grid is not None:
        raise ConfigurationError("sweep either --snr-db or --rate, not both")
    if snr_grid is None and rate_grid is None:
        if base is not None:
            sweep = base.sweep
        else:
            sweep = SweepSpec("snr_db", _grid(-10.0, 10.0, 1.0))
    elif snr_grid is not None:
        sweep = SweepSpec("snr_db", snr_grid)
    else:
        sweep = SweepSpec("rate", rate_grid)

    if sweep.variable == "snr_db":
        rate_fixed = pick("rate_fixed")
        if rate_fixed is None:
            rate_fixed = base.config.rate if base is not None else 3.0
        # tx_snr is swept per point; the stored value is the first grid point.
        tx_snr = 10.0 ** (sweep.values[0] / 10.0)
    else:
        snr_fixed = pick("snr_db_fixed")
        if snr_fixed is None:
            snr_fixed = (
                10.0 * math.log10(base.config.tx_snr) if base is not None else 0.0
            )
        tx_snr = 10.0 ** (snr_fixed / 10.0)
        rate_fixed = sweep.values[0]

    cfg = SystemConfig(
        rx_antennas=n,
        streams=m,
        ris_elements=l,
        tx_snr=tx_snr,
        rate=rate_fixed,
        gain_direct=gain_d,
        gain_tx_ris=gain_g,
        gain_ris_rx=gain_h,
    )

    schemes = pick("schemes", base.schemes if base else canonical_schemes(Scheme))
    scale_mode = pick("scale_mode", base.scale_mode if base else DEFAULT_SCALE_MODE)
    if scale_mode not in SCALE_MODES:
        raise ConfigurationError(f"scale_mode must be one of {SCALE_MODES}")
    joint_method = pick(
        "joint_method", base.joint_method if base else DEFAULT_JOINT_METHOD
    )
    if joint_method not in JOINT_METHODS:
        raise ConfigurationError(f"joint_method must be one of {JOINT_METHODS}")
    fmt = pick("format", base.fmt if base else "csv")
    output = pick("output", f"outage_{sweep.variable}.{fmt}")
    trials = pick("trials", base.trials if base else DEFAULT_TRIALS)
    seed = pick("seed", base.master_seed if base else DEFAULT_SEED)
    workers = pick("workers", 1)
    stream = pick("stream")

    return RunManifest(
        config=cfg,
        sweep=sweep,
        schemes=schemes,
        trials=trials,
        master_seed=seed,
        scale_mode=scale_mode,
        joint_method=joint_method,
        stream=resolve_streams(cfg, schemes, stream),
        workers=workers,
        output=output,
        fmt=fmt,
    )


def main(argv=None):
    ap = _build_parser()
    try:
        ns = ap.parse_args(argv)
        file_values = _read_config_file(ns.config) if ns.config else {}
        if ns.overhead_report or file_values.get("overhead_report"):
            cfg = build_manifest(ns, file_values).config
            full, direct = pilot_overhead_counts(
                cfg.rx_antennas, cfg.streams, cfg.ris_elements
            )
            print(
                f"pilot overhead (rx_antennas={cfg.rx_antennas}, "
                f"streams={cfg.streams}, ris_elements={cfg.ris_elements}): "
                f"every link {full} channel uses, direct link only {direct}"
            )
            return EXIT_OK
        manifest = build_manifest(ns, file_values)
    except (ConfigurationError, argparse.ArgumentError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return run(manifest)


if __name__ == "__main__":
    sys.exit(main())
