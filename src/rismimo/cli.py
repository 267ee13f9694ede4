"""Command-line front end: scenario configs, figure presets, sweep runs,
pilot-overhead reporting, and CSV/JSON emission.

One table, FLAGS, names every flag and config-file key with the converter
that checks it.  Explicit flags, config files, presets and defaults are all
dicts of flag values run through those converters, layered in that order.

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
import types

from .channel import DEFAULT_SCALE_MODE, SCALE_MODES, SeedSpec, SystemConfig
from .detectors import Scheme
from .errors import ConfigurationError, NumericalRankError, NumericError
from .errors import check_count, check_index
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
# One CSV row: a float column as float(v) to 17 significant digits, which
# round-trips, and any other column as str(v).
_CSV_ROW = ",".join("%.17g" if c in _FLOAT_COLUMNS else "%s" for c in CSV_COLUMNS)


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


# The most points one sweep grid may have; every point costs a law per scheme.
GRID_MAX_POINTS = 10_000


def _grid(start, stop, step):
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigurationError(f"grid values must be finite, got {start}:{stop}:{step}")
    if step <= 0:
        raise ConfigurationError(f"grid step must be > 0, got {step}")
    if stop < start:
        raise ConfigurationError(f"grid stop {stop} is below start {start}")
    steps = (stop - start) / step + 1e-9  # may overflow to inf
    if not steps < GRID_MAX_POINTS:
        raise ConfigurationError(
            f"grid {start}:{stop}:{step} has more than {GRID_MAX_POINTS} points"
        )
    return tuple(start + k * step for k in range(math.floor(steps) + 1))


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
    return canonical_schemes(Scheme.from_token(t) for t in tokens)


def _parse_int(text):
    """An integer literal, parsed exactly: no float round trip, no truncation."""
    try:
        return int(str(text).strip())
    except ValueError:
        raise ConfigurationError(f"expected an integer, got {text!r}") from None


def _parse_float(text):
    try:
        return float(text)
    except ValueError:
        raise ConfigurationError(f"expected a number, got {text!r}") from None


def _parse_bool(text):
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"expected a boolean, got {text!r}")


def _parse_path(text):
    if not text:
        raise ConfigurationError("expected a file path, got ''")
    return text


def _choice(values):
    """Converter that accepts exactly one of ``values``; its metavar lists them."""

    def convert(text):
        if text not in values:
            raise ConfigurationError(f"expected one of {', '.join(values)}, got {text!r}")
        return text

    convert.metavar = "{" + ",".join(values) + "}"
    return convert


# Named scenarios, each exactly the flag values it lists.  fig1 is outage
# against transmit SNR, run with l 16 or 32; fig2 is outage against target
# rate at 3 dB.
PRESETS = {
    "fig1": {"n": "32", "m": "12", "l": "16", "snr_db": "-10:10:1"},
    "fig2": {"n": "32", "m": "14", "l": "16", "gain_d": "0.7", "gain_g": "0.7",
             "gain_h": "0.7", "rate": "0.5:6:0.5", "snr_db_fixed": "3"},
}
FIG1_ELEMENTS = (16, 32)

DEFAULTS = {
    "snr_db": "-10:10:1", "rate_fixed": "3", "snr_db_fixed": "0",
    "gain_d": "1", "gain_g": "1", "gain_h": "1",
    "schemes": ",".join(s.value for s in Scheme), "trials": "1000000", "seed": "0",
    "scale_mode": DEFAULT_SCALE_MODE, "joint_method": DEFAULT_JOINT_METHOD,
    "workers": "1", "format": "csv",
}

# name -> (converter, help) of every flag, and of the config-file key of the
# same name; a converter raises ConfigurationError on a value it rejects.
FLAGS = {
    "preset": (_choice(tuple(PRESETS)), "named scenario, exactly these flag values, "
               "which flags and config keys override: " + "; ".join(
                   f"{name}: " + " ".join(f"{k}={x}" for k, x in values.items())
                   for name, values in PRESETS.items())),
    "n": (_parse_int, "receive antennas"),
    "m": (_parse_int, "transmit streams"),
    "l": (_parse_int, "surface elements"),
    "snr_db": (parse_grid, "sweep transmit SNR in dB: inclusive START:STOP:STEP "
               f"grid of at most {GRID_MAX_POINTS} points, or one value"),
    "rate": (parse_grid, "sweep target rate in bit/s/Hz: START:STOP:STEP, or one value"),
    "rate_fixed": (_parse_float, "rate held fixed during an SNR sweep"),
    "snr_db_fixed": (_parse_float, "transmit SNR in dB held fixed during a rate sweep"),
    "gain_d": (parse_gains, "direct-link variance, scalar or per-stream comma list"),
    "gain_g": (parse_gains,
               "transmitter-to-surface variance, scalar or per-stream comma list"),
    "gain_h": (_parse_float, "surface-to-receiver variance, a scalar"),
    "schemes": (parse_schemes, "comma list out of d,ris,full,joint"),
    "trials": (_parse_int, "Monte Carlo trials per sweep"),
    "seed": (_parse_int, "master seed"),
    "scale_mode": (_choice(SCALE_MODES), "cascade surrogate variance convention"),
    "joint_method": (_choice(JOINT_METHODS), "joint-detector outage evaluation"),
    "stream": (_parse_int, "report this stream for every scheme "
               "(default: 0, and the last stream for the joint detector)"),
    "workers": (_parse_int, "parallel worker processes, at most one per CPU; "
                "any count gives the same results"),
    "output": (_parse_path, "output file path (default outage_<sweep>.<format>)"),
    "format": (_choice(("csv", "json")), "output file format"),
    "overhead_report": (_parse_bool,
                        "print pilot-overhead channel uses for the config and exit"),
}


def pilot_overhead_counts(n, m, l):
    """(channel uses to sound every link, channel uses for the direct link
    alone) for an n-antenna, m-stream, l-element system."""
    n, m, l = check_count(n, "n"), check_count(m, "m"), check_index(l, "l")
    return n * l * m + n * m, n * m


def curve_rows(manifest, points):
    """Flatten a sweep's points into one tuple per (point, scheme), in
    CSV_COLUMNS order and in the manifest's canonical scheme order so files
    are deterministic."""
    sweep = manifest.sweep
    seed = manifest.master_seed
    rows = []
    for point, *where in zip(points, sweep.values, sweep.snr_db, sweep.rate,
                             sweep.gamma_th):
        for s in manifest.schemes:
            est = point.empirical[s]
            rows.append((s.value, sweep.variable, *where, manifest.stream[s],
                         point.analytic[s], est.probability, est.stderr, est.trials,
                         seed))
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
    key = "rate_fixed_bps_hz" if manifest.sweep.variable == "snr_db" else "snr_db_fixed"
    items.insert(5, (key, format(manifest.sweep.fixed, ".17g")))
    return items


def write_csv(path, manifest, rows):
    lines = [f"# {k} = {v}" for k, v in manifest_items(manifest)]
    lines.append(",".join(CSV_COLUMNS))
    lines.extend(_CSV_ROW % row for row in rows)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, manifest, rows):
    # JSON has no NaN: a value without a law in range is written as null
    rows = [
        {k: None if isinstance(v, float) and not math.isfinite(v) else v
         for k, v in zip(CSV_COLUMNS, row)}
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


def _grid_labels(values):
    """The grid values with the fewest significant digits, at least 3, that
    tell neighbouring points apart."""
    for digits in range(3, 18):
        labels = [format(v, f".{digits}g") for v in values]
        if all(a != b for a, b in zip(labels, labels[1:])):
            break
    return labels


def _print_summary(manifest, points):
    labels = _grid_labels(manifest.sweep.values)
    width = max([10, *map(len, labels)])
    head = f"{manifest.sweep.variable:>{width}}"
    for s in manifest.schemes:
        head += f"  {s.value + ':analytic':>14}  {s.value + ':mc':>10}"
    lines = [head]
    for label, point in zip(labels, points):
        line = f"{label:>{width}}"
        for s in manifest.schemes:
            line += (
                f"  {point.analytic[s]:>14.4e}"
                f"  {point.empirical[s].probability:>10.4e}"
            )
        lines.append(line)
    sys.stdout.write("\n".join(lines) + "\n")


def _probe_output(path):
    """Open the output for append, as the write will open it, and remove it
    again if it was absent: whatever the file system refuses (a missing or
    read-only folder, a name too long) raises OSError here, before the
    sweep, and an existing file keeps its bytes."""
    if os.path.isdir(path):
        raise IsADirectoryError(f"output path is a directory: {path}")
    existed = os.path.lexists(path)
    with open(path, "a", encoding="ascii"):
        pass
    if not existed:
        os.remove(path)


def run(manifest):
    """Execute a manifest: sweep, write the output file, print a summary.

    An output the file system would refuse raises OSError before the sweep."""
    _probe_output(manifest.output)
    points = run_sweep(
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
    rows = curve_rows(manifest, points)
    if manifest.fmt == "csv":
        write_csv(manifest.output, manifest, rows)
    else:
        write_json(manifest.output, manifest, rows)
    _print_summary(manifest, points)
    print(f"wrote {manifest.output}")


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
    ap = argparse.ArgumentParser(
        prog="rismimo",
        exit_on_error=False,
        description="Outage-probability simulator for a blind-RIS multiuser "
        "MIMO uplink: Monte Carlo plus closed forms for four detectors.",
    )
    for name, (convert, text) in FLAGS.items():
        flag = "--" + name.replace("_", "-")
        if name in DEFAULTS:
            text += f" (default {DEFAULTS[name]})"
        if convert is _parse_bool:
            ap.add_argument(flag, action="store_true", default=None, help=text)
        else:
            ap.add_argument(flag, type=_flag_type(convert), help=text,
                            metavar=getattr(convert, "metavar", None))
    ap.add_argument("--config", metavar="FILE",
                    help="flat key=value file supplying any of the above flags")
    return ap


_PARSER = _build_parser()


def _layer(texts):
    """Flag texts run through their converters, as a read-only mapping of
    immutable values."""
    return types.MappingProxyType({k: FLAGS[k][0](text) for k, text in texts.items()})


# the layers below a run's config file and flags, converted once
_DEFAULT_LAYER = _layer(DEFAULTS)
_PRESET_LAYERS = {name: _layer(texts) for name, texts in PRESETS.items()}


def _read_config_file(path):
    """Flag values from a key=value file, each checked by its flag's converter.
    A line whose first non-blank character is '#' is a comment; a '#'
    anywhere else is refused rather than cutting the value short. A
    leading UTF-8 byte-order mark is dropped."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ConfigurationError(f"{path}: not UTF-8 text") from None
    out = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{lineno}"
        if "#" in line:
            raise ConfigurationError(f"{where}: '#' after a value; comments take whole lines")
        if "=" not in line:
            raise ConfigurationError(f"{where}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key == "config":
            raise ConfigurationError(f"{where}: nested config files")
        if key not in FLAGS:
            raise ConfigurationError(f"{where}: unknown key {key!r}")
        try:
            out[key] = FLAGS[key][0](value)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{where}: {key}: {exc}") from None
    return out


def build_manifest(ns, file_values):
    """Layer defaults < preset < config file < explicit flags into a
    RunManifest.  A layer that sets a sweep (snr_db or rate) replaces the
    sweep of the layers below it.  A flag or config key that fixes the
    swept variable is refused; a preset's or default's is not used."""
    given = dict(file_values)
    given.update((k, x) for k, x in vars(ns).items() if x is not None and k != "config")
    v = {}
    for layer in (_DEFAULT_LAYER, _PRESET_LAYERS.get(given.get("preset"), {}), given):
        if {"snr_db", "rate"} & layer.keys():
            v.pop("snr_db", None)
            v.pop("rate", None)
        v.update(layer)

    if not {"n", "m", "l"} <= v.keys():
        raise ConfigurationError("provide --preset, or all of --n, --m and --l")
    if v.get("preset") == "fig1" and v["l"] not in FIG1_ELEMENTS:
        raise ConfigurationError(f"preset fig1 needs l in {FIG1_ELEMENTS}, got {v['l']}")
    if "snr_db" in v and "rate" in v:
        raise ConfigurationError("sweep either --snr-db or --rate, not both")
    if "rate" in v:
        variable, fixed, unused = "rate", "snr_db_fixed", "rate_fixed"
    else:
        variable, fixed, unused = "snr_db", "rate_fixed", "snr_db_fixed"
    if unused in given:
        raise ConfigurationError(
            f"{unused} is given, but the {variable} sweep does not use it")
    sweep = SweepSpec(variable, v[variable], v[fixed])

    cfg = SystemConfig(
        rx_antennas=v["n"],
        streams=v["m"],
        ris_elements=v["l"],
        gain_direct=v["gain_d"],
        gain_tx_ris=v["gain_g"],
        gain_ris_rx=v["gain_h"],
    )
    return RunManifest(
        config=cfg,
        sweep=sweep,
        schemes=v["schemes"],
        trials=v["trials"],
        master_seed=v["seed"],
        scale_mode=v["scale_mode"],
        joint_method=v["joint_method"],
        stream=resolve_streams(cfg, v["schemes"], v.get("stream")),
        workers=v["workers"],
        output=v.get("output", f"outage_{sweep.variable}.{v['format']}"),
        fmt=v["format"],
    )


def main(argv=None):
    """Run the command line; returns a process exit status (0 ok,
    2 configuration, 3 numerics, 4 file I/O)."""
    try:
        ns = _PARSER.parse_args(argv)
        file_values = _read_config_file(ns.config) if ns.config else {}
        manifest = build_manifest(ns, file_values)
        if ns.overhead_report or file_values.get("overhead_report"):
            cfg = manifest.config
            full, direct = pilot_overhead_counts(
                cfg.rx_antennas, cfg.streams, cfg.ris_elements
            )
            print(
                f"pilot overhead (rx_antennas={cfg.rx_antennas}, "
                f"streams={cfg.streams}, ris_elements={cfg.ris_elements}): "
                f"every link {full} channel uses, direct link only {direct}"
            )
        else:
            run(manifest)
    except (ConfigurationError, argparse.ArgumentError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, NumericalRankError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
