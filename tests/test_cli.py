"""Command-line front end: presets, parsing, precedence, files, exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rismimo
from rismimo import analytic, cli, montecarlo
from rismimo.cli import (
    CSV_COLUMNS,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    main,
    parse_gains,
    parse_grid,
    parse_schemes,
    pilot_overhead_counts,
)
from rismimo.channel import SystemConfig
from rismimo.detectors import Scheme
from rismimo.errors import ConfigurationError, NumericalRankError, NumericError

from helpers import cli_manifest


def test_preset_snr_sweep_structure():
    man = cli_manifest("--preset", "fig1")
    cfg = man.config
    assert (cfg.rx_antennas, cfg.streams, cfg.ris_elements) == (32, 12, 16)
    assert man.sweep.fixed == 3.0  # the rate held fixed
    assert np.allclose(cfg.gain_direct, 1.0)
    assert np.allclose(cfg.gain_tx_ris, 1.0)
    assert cfg.gain_ris_rx == 1.0
    assert man.sweep.variable == "snr_db"
    assert man.sweep.values[0] == -10.0
    assert man.sweep.values[-1] == 10.0
    assert len(man.sweep.values) == 21
    assert man.schemes == tuple(Scheme)
    assert man.trials == 1_000_000
    assert man.stream[Scheme.Joint] == 11
    assert man.stream[Scheme.FullCsi] == 0
    assert cli_manifest("--preset", "fig1", "--l", "32").config.ris_elements == 32
    # the preset sets scalar gains, so a different stream count fits them
    assert cli_manifest("--preset", "fig1", "--m", "4").config.streams == 4
    with pytest.raises(ConfigurationError):
        cli_manifest("--preset", "fig1", "--l", "17")


def test_preset_rate_sweep_structure():
    man = cli_manifest("--preset", "fig2")
    cfg = man.config
    assert (cfg.rx_antennas, cfg.streams, cfg.ris_elements) == (32, 14, 16)
    assert cfg.gain_ris_rx == 0.7
    assert np.allclose(cfg.gain_tx_ris, 0.7)
    assert np.allclose(cfg.gain_direct, 0.7)
    assert man.sweep.fixed == 3.0  # the transmit SNR in dB held fixed
    assert man.sweep.tx_snr == (pytest.approx(10.0**0.3),) * 12
    assert man.sweep.variable == "rate"
    assert man.sweep.values == tuple(np.arange(1, 13) * 0.5)
    assert man.schemes == tuple(Scheme)
    assert man.trials == 1_000_000
    # the equal-gains variant
    equal = cli_manifest("--preset", "fig2", "--gain-d", "1")
    assert np.allclose(equal.config.gain_direct, 1.0)
    # an explicit sweep replaces the preset's
    snr = cli_manifest("--preset", "fig2", "--snr-db", "3").sweep
    assert (snr.variable, snr.values) == ("snr_db", (3.0,))


def test_pilot_overhead_counts():
    assert pilot_overhead_counts(32, 12, 16) == (6528, 384)
    assert pilot_overhead_counts(32, 12, 0) == (384, 384)
    assert pilot_overhead_counts(1, 1, 1) == (2, 1)
    with pytest.raises(ConfigurationError):
        pilot_overhead_counts(0, 1, 1)
    with pytest.raises(ConfigurationError):
        pilot_overhead_counts(4, 2, -1)


def test_parse_grid():
    assert parse_grid("3") == (3.0,)
    assert parse_grid("-10:10:5") == (-10.0, -5.0, 0.0, 5.0, 10.0)
    assert parse_grid("0:1:0.3") == pytest.approx((0.0, 0.3, 0.6, 0.9))
    assert parse_grid("2:2:1") == (2.0,)
    cap = cli.GRID_MAX_POINTS
    assert len(parse_grid(f"1:{cap}:1")) == cap
    for bad in ("a", "1:2", "1:2:3:4", "0:5:0", "5:0:1",
                "0:inf:1", "nan:1:1", "0:1:nan", f"0:{cap}:1",
                "0:1e300:1e-300", "0:1e9:1e-3"):
        with pytest.raises(ConfigurationError):
            parse_grid(bad)


def test_parse_gains():
    assert parse_gains("0.7") == 0.7
    assert parse_gains("1,2,3") == (1.0, 2.0, 3.0)
    with pytest.raises(ConfigurationError):
        parse_gains("x")


def test_parse_schemes():
    assert parse_schemes("d,joint") == (Scheme.DirectCsi, Scheme.Joint)
    assert parse_schemes("full,d") == (Scheme.DirectCsi, Scheme.FullCsi)
    assert parse_schemes("ris") == (Scheme.RisCsi,)
    with pytest.raises(ConfigurationError):
        parse_schemes("zf")
    with pytest.raises(ConfigurationError):
        parse_schemes(",")


def _run_small(tmp_path, name, extra=()):
    out = tmp_path / name
    argv = [
        "--n", "6", "--m", "2", "--l", "2",
        "--snr-db=-2:2:2",
        "--schemes", "d,full",
        "--trials", "1500",
        "--seed", "5",
        "--output", str(out),
    ]
    argv += list(extra)
    status = main(argv)
    return status, out


def test_main_writes_csv(tmp_path, capsys):
    status, out = _run_small(tmp_path, "run.csv")
    assert status == EXIT_OK
    text = out.read_text()
    lines = text.strip().split("\n")
    header = [ln for ln in lines if ln.startswith("# ")]
    data = [ln for ln in lines if not ln.startswith("# ")]
    assert data[0] == ",".join(CSV_COLUMNS)
    assert len(data) - 1 == 2 * 3  # schemes x grid points
    echoed = dict(ln[2:].split(" = ", 1) for ln in header)
    assert echoed["rx_antennas"] == "6"
    assert echoed["trials"] == "1500"
    assert echoed["seed"] == "5"
    assert echoed["schemes"] == "d,full"
    assert echoed["scale_mode"] == "derived"
    assert echoed["sweep_values"] == "-2,0,2"
    captured = capsys.readouterr()
    assert "wrote" in captured.out
    assert "d:analytic" in captured.out


def _data_lines(path):
    return [ln for ln in path.read_text().split("\n") if not ln.startswith("# ")]


def test_main_reruns_byte_identical(tmp_path):
    # the header echoes the output path, so whole-file identity needs the
    # same name; data rows must agree regardless
    (tmp_path / "x").mkdir()
    (tmp_path / "y").mkdir()
    _, a = _run_small(tmp_path / "x", "run.csv")
    _, b = _run_small(tmp_path / "y", "run.csv")
    assert _data_lines(a) == _data_lines(b)
    first = a.read_bytes()
    _, again = _run_small(tmp_path / "x", "run.csv")
    assert again.read_bytes() == first


def _header(path):
    """The '# key = value' manifest lines of a CSV output as a dict."""
    return dict(ln[2:].split(" = ", 1)
                for ln in path.read_text().split("\n") if ln.startswith("# "))


def test_once_built_cli_state_leaks_nothing_between_runs(tmp_path):
    # the parser and the default and preset layers are built once per
    # process: a preset run leaves nothing behind for the next run, and the
    # same argv writes the same bytes however many runs came between
    fig2 = ["--preset", "fig2", "--trials", "64", "--seed", "3",
            "--output", str(tmp_path / "fig2.csv")]
    plain = ["--n", "4", "--m", "2", "--l", "2", "--schemes", "d,full",
             "--trials", "64", "--output", str(tmp_path / "plain.csv")]
    assert main(fig2) == EXIT_OK
    first = (tmp_path / "fig2.csv").read_bytes()
    assert main(plain) == EXIT_OK
    head = _header(tmp_path / "plain.csv")
    assert (head["gain_d"], head["gain_g"], head["gain_h"]) == ("1,1", "1,1", "1")
    assert head["sweep_variable"] == "snr_db"
    assert head["sweep_values"] == ",".join(str(v) for v in range(-10, 11))
    assert head["rate_fixed_bps_hz"] == "3"
    assert main(fig2) == EXIT_OK
    assert (tmp_path / "fig2.csv").read_bytes() == first
    assert main(plain) == EXIT_OK
    assert _header(tmp_path / "plain.csv") == head
    with pytest.raises(TypeError):
        cli._PRESET_LAYERS["fig2"]["n"] = 4


def test_main_worker_count_invisible_in_output(tmp_path):
    _, a = _run_small(tmp_path, "w1.csv", ("--workers", "1"))
    _, b = _run_small(tmp_path, "w2.csv", ("--workers", "2"))
    assert _data_lines(a) == _data_lines(b)
    a_head = [ln for ln in a.read_text().split("\n") if ln.startswith("# ")]
    assert not any("workers" in ln for ln in a_head)


def test_csv_and_json_agree_to_17_digits(tmp_path):
    _, csv_path = _run_small(tmp_path, "x.csv")
    status, json_path = _run_small(tmp_path, "x.json", ("--format", "json"))
    assert status == EXIT_OK
    doc = json.loads(json_path.read_text())
    assert doc["columns"] == list(CSV_COLUMNS)
    csv_rows = [
        ln.split(",")
        for ln in csv_path.read_text().strip().split("\n")
        if not ln.startswith("#")
    ][1:]
    assert len(csv_rows) == len(doc["rows"])
    float_cols = ("analytic_outage", "mc_outage", "mc_stderr", "gamma_th")
    for text_row, json_row in zip(csv_rows, doc["rows"]):
        named = dict(zip(CSV_COLUMNS, text_row))
        assert named["scheme"] == json_row["scheme"]
        for col in float_cols:
            assert named[col] == format(float(json_row[col]), ".17g")


def test_csv_cells_are_float_17g_and_str(tmp_path):
    # each float column reads format(float(v), ".17g") and every other one
    # str(v), for the special values and random bit patterns alike
    manifest = cli_manifest("--n", "4", "--m", "2", "--l", "2")
    special = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
               2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3, 3,
               np.float64(2.5), np.float64(-0.0), np.float64(np.nan)]
    bits = np.random.default_rng(3).integers(0, 2**64, 2000, dtype=np.uint64)
    values = special + bits.view(np.float64).tolist()
    floats = [c for c in CSV_COLUMNS if c in cli._FLOAT_COLUMNS]
    others = {"scheme": "full", "sweep_variable": "snr_db", "stream_index": 1,
              "trials": np.int64(1024), "seed": 2**64 - 1}
    named = [dict(others, **{c: values[(k + j) % len(values)]
                             for j, c in enumerate(floats)})
             for k in range(len(values))]
    # curve_rows gives the writer tuples in CSV_COLUMNS order
    rows = [tuple(row[c] for c in CSV_COLUMNS) for row in named]
    path = tmp_path / "cells.csv"
    cli.write_csv(path, manifest, rows)
    data = _data_lines(path)
    assert data[0] == ",".join(CSV_COLUMNS)
    want = [",".join(format(float(row[c]), ".17g") if c in floats else str(row[c])
                     for c in CSV_COLUMNS) for row in named]
    assert data[1:-1] == want
    assert data[-1] == ""


def test_json_manifest_is_fully_resolved(tmp_path):
    _, json_path = _run_small(tmp_path, "m.json", ("--format", "json"))
    man = json.loads(json_path.read_text())["manifest"]
    for key in (
        "rx_antennas", "streams", "ris_elements", "sweep_variable",
        "sweep_values", "rate_fixed_bps_hz", "gain_d", "gain_g", "gain_h",
        "schemes", "trials", "seed", "scale_mode", "joint_method", "stream",
        "format", "output",
    ):
        assert key in man, key
        assert isinstance(man[key], str)
    assert man["stream"] == "d:0,full:0"


def test_exit_code_for_bad_configuration(tmp_path, capsys):
    assert main(["--n", "4", "--m", "3", "--l", "2", "--schemes", "ris",
                 "--trials", "100", "--output", str(tmp_path / "n.csv")]) == EXIT_CONFIG
    assert main(["--preset", "fig1", "--l", "9"]) == EXIT_CONFIG
    assert main(["--m", "2", "--l", "2", "--trials", "10"]) == EXIT_CONFIG  # no --n
    err = capsys.readouterr().err
    assert "configuration error" in err


def test_extreme_snr_db_is_a_configuration_error(tmp_path, capsys):
    # 10**400 overflows a float and 10**-400 rounds to zero
    for sweep, rule in (
        (("--snr-db", "4000"), "4000.0 dB overflows a float power"),
        (("--snr-db=0:4000:1000",), "4000.0 dB overflows a float power"),
        (("--rate", "1", "--snr-db-fixed", "4000"), "4000.0 dB overflows a float power"),
        (("--snr-db=-4000",), "tx_snr must be finite and > 0"),
        (("--rate", "1", "--snr-db-fixed=-4000"), "tx_snr must be finite and > 0"),
    ):
        out = tmp_path / "extreme.csv"
        argv = ["--n", "6", "--m", "2", "--l", "2", "--trials", "100",
                "--output", str(out), *sweep]
        assert main(argv) == EXIT_CONFIG, sweep
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and rule in err, err
        assert "Traceback" not in err, err


def test_overflowing_rate_is_a_configuration_error(tmp_path, capsys, monkeypatch):
    # 2**1100 overflows a float; the threshold is worked out before sampling
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling ran before the rate was checked")

    monkeypatch.setattr(montecarlo, "snr_samples", no_sampling)
    for sweep in (("--rate", "1100"), ("--snr-db", "0", "--rate-fixed", "1100")):
        out = tmp_path / "rate.csv"
        argv = ["--n", "6", "--m", "2", "--l", "2", "--trials", "100",
                "--output", str(out), *sweep]
        assert main(argv) == EXIT_CONFIG, sweep
        assert not out.exists()
        err = capsys.readouterr().err
        assert "configuration error: rate 1100.0 overflows a float threshold" in err, err
        assert "Traceback" not in err, err


def test_overflowing_threshold_names_the_rate_and_snr(tmp_path, capsys, monkeypatch):
    # 2**1023 is a float, but the direct and cascade thresholds, 5 and 3
    # times it at 0 dB, are not; refused before any law or sampling runs
    def no_work(*args, **kwargs):
        raise AssertionError("a law or the sampling ran before the threshold check")

    for name in ("outage_direct", "outage_ris", "outage_full_clt", "outage_joint"):
        monkeypatch.setattr(analytic, name, no_work)
    monkeypatch.setattr(montecarlo, "snr_samples", no_work)
    out = tmp_path / "rate.csv"
    argv = ["--n", "6", "--m", "2", "--l", "2", "--snr-db", "0", "--rate-fixed", "1023",
            "--trials", "100", "--output", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert ("configuration error: rate 1023.0 at 0.0 dB overflows the outage "
            "threshold of d, ris") in err, err


def test_overflowing_law_argument_names_the_rate_and_snr(tmp_path, capsys, monkeypatch):
    # the thresholds at rate 1000 are floats, but with 1e-10 link gains
    # every law's argument is past the float range; refused before any law
    # or sampling runs
    def no_work(*args, **kwargs):
        raise AssertionError("a law or the sampling ran before the argument check")

    for name in ("outage_direct", "outage_ris", "outage_full_clt", "outage_joint"):
        monkeypatch.setattr(analytic, name, no_work)
    monkeypatch.setattr(montecarlo, "snr_samples", no_work)
    out = tmp_path / "rate.csv"
    argv = ["--n", "6", "--m", "2", "--l", "2", "--snr-db", "0", "--rate-fixed", "1000",
            "--gain-d", "1e-10", "--gain-g", "1e-10", "--trials", "100",
            "--output", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert ("configuration error: rate 1000.0 at 0.0 dB overflows the law "
            "argument of d, ris, full, joint") in err, err


def test_joint_law_is_one_where_its_series_argument_overflows(tmp_path):
    # at rate 1023 the derived joint law's lower quadrature nodes put
    # x = gamma_th / (p psi2) past the float range, where the series' limit
    # is 1; every cell is 1, and nothing warns
    out = tmp_path / "joint.csv"
    argv = ["--n", "6", "--m", "2", "--l", "2", "--snr-db", "0", "--rate-fixed", "1023",
            "--schemes", "full,joint", "--trials", "100", "--output", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_OK
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    rows = [dict(zip(CSV_COLUMNS, ln.split(","))) for ln in lines[1:]]
    assert [r["scheme"] for r in rows] == ["full", "joint"]
    for r in rows:
        assert (r["analytic_outage"], r["mc_outage"], r["mc_stderr"]) == ("1", "1", "0"), r


def test_integer_flags_reject_non_integers(tmp_path, capsys):
    # the message states the rule the value broke, not the converter's name
    integer = "expected an integer, got"
    for flag, value, rule in (
        ("--trials", "2.7", integer), ("--seed", "1e3", integer),
        ("--n", "six", integer), ("--workers", "1.0", integer),
        ("--snr-db", "1:x:1", "expected a number or 'start:stop:step' numbers"),
        ("--gain-d", "a,b", "expected a number or a comma list of numbers"),
        ("--schemes", "zf", "unknown scheme 'zf'"),
    ):
        status, out = _run_small(tmp_path, "bad.csv", (flag, value))
        assert status == EXIT_CONFIG, flag
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"argument {flag}: {rule}" in err, err
        assert "invalid" not in err, err
    cfgfile = tmp_path / "bad.conf"
    cfgfile.write_text("trials = 2.7\n")
    assert main(["--config", str(cfgfile)]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_zero_trials_and_workers_are_rejected(tmp_path, capsys):
    for flag in ("--trials", "--workers"):
        status, out = _run_small(tmp_path, "zero.csv", (flag, "0"))
        assert status == EXIT_CONFIG, flag
        assert not out.exists()
    assert "configuration error" in capsys.readouterr().err


def test_trial_count_beyond_the_seed_key_fails_before_any_law(tmp_path, capsys,
                                                              monkeypatch):
    def no_law(*args, **kwargs):
        raise AssertionError("a law ran before the trial count was checked")

    for name in ("outage_direct", "outage_ris", "outage_full_clt", "outage_joint"):
        monkeypatch.setattr(analytic, name, no_law)
    status, out = _run_small(tmp_path, "huge.csv", ("--trials", str(10**24)))
    assert status == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert "configuration error: trials 1000000000000000000000000" in err, err


def test_zero_workers_fail_before_any_law(tmp_path, capsys, monkeypatch):
    def no_law(*args, **kwargs):
        raise AssertionError("a law ran before the worker count was checked")

    for name in ("outage_direct", "outage_ris", "outage_full_clt", "outage_joint"):
        monkeypatch.setattr(analytic, name, no_law)
    status, out = _run_small(tmp_path, "idle.csv", ("--workers", "0"))
    assert status == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert "configuration error: workers must be a positive integer, got 0" in err, err


def test_seed_beyond_float_precision_is_kept_exactly(tmp_path):
    # 2^53 + 1 has no float representation; a float round trip gives 2^53
    status, out = _run_small(tmp_path, "seed.csv", ("--seed", "9007199254740993"))
    assert status == EXIT_OK
    assert "# seed = 9007199254740993" in out.read_text().split("\n")


def test_numeric_failure_exits_3_without_a_traceback(tmp_path, capsys, monkeypatch):
    for error in (NumericError("quadrature did not converge"),
                  NumericalRankError("2 of 1500 trials hit a rank failure")):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "run_sweep", fail)
        status, out = _run_small(tmp_path, "numeric.csv")
        assert status == EXIT_NUMERIC, error
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == f"numeric error: {error}\n", err


def test_exit_code_for_unwritable_output(tmp_path, capsys):
    status, _ = _run_small(tmp_path, "ignored.csv",
                           ("--output", str(tmp_path / "no" / "dir" / "x.csv")))
    assert status == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_unwritable_output_fails_before_sampling(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("run_sweep ran before the output was checked")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    (tmp_path / "file").write_text("")
    for output, status, error in (
        (str(tmp_path / "no" / "dir" / "x.csv"), EXIT_IO, "i/o error"),
        # os.access alone accepts a regular file as the parent
        (str(tmp_path / "file" / "x.csv"), EXIT_IO, "i/o error"),
        # abspath('') is the working directory, whose parent exists
        ("", EXIT_CONFIG, "configuration error: argument --output: expected a file path"),
        # a writable folder, but a name too long for the file system
        (str(tmp_path / ("x" * 300 + ".csv")), EXIT_IO, "i/o error"),
    ):
        argv = ["--preset", "fig1", "--trials", "20480", "--output", output]
        assert main(argv) == status, output
        err = capsys.readouterr().err
        assert err.startswith(error), err


def test_directory_output_fails_before_sampling(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("run_sweep ran before the output was checked")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    argv = ["--preset", "fig1", "--trials", "20480", "--output", str(tmp_path)]
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err
    assert err == f"i/o error: output path is a directory: {tmp_path}\n", err


def test_config_file_supplies_and_flags_override(tmp_path):
    cfgfile = tmp_path / "run.conf"
    cfgfile.write_text(
        "# small smoke scenario\n"
        "n = 6\n"
        "m = 2\n"
        "l = 2\n"
        "snr-db = -2:2:2\n"
        "schemes = d,full\n"
        "trials = 1500\n"
        "seed = 5\n"
        f"output = {tmp_path / 'from_file.csv'}\n"
    )
    assert main(["--config", str(cfgfile)]) == EXIT_OK

    # identical settings spelled as flags give identical data rows
    _, flagged = _run_small(tmp_path, "from_flags.csv")
    assert _data_lines(tmp_path / "from_file.csv") == _data_lines(flagged)

    # an explicit flag wins over the file
    assert main(["--config", str(cfgfile), "--trials", "800",
                 "--output", str(tmp_path / "override.csv")]) == EXIT_OK
    text = (tmp_path / "override.csv").read_text()
    assert "# trials = 800" in text


def test_config_file_rejects_unknown_and_nested_keys(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("frobnicate = 1\n")
    assert main(["--config", str(bad)]) == EXIT_CONFIG
    nested = tmp_path / "nested.conf"
    nested.write_text(f"config = {bad}\n")
    assert main(["--config", str(nested)]) == EXIT_CONFIG
    noequals = tmp_path / "noeq.conf"
    noequals.write_text("trials\n")
    assert main(["--config", str(noequals)]) == EXIT_CONFIG
    capsys.readouterr()
    binary = tmp_path / "bin.conf"
    binary.write_bytes(b"n = \xff\n")
    assert main(["--config", str(binary)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"configuration error: {binary}: not UTF-8 text\n", err
    # a '#' after a value is refused, not taken as the start of a comment
    hashed = tmp_path / "hashed.conf"
    hashed.write_text("n = 6\nm = 2\nl = 2\ntrials = 100\n  # an indented comment\n"
                      f"output = {tmp_path / 'run#1.csv'}\n")
    assert main(["--config", str(hashed)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {hashed}:6: '#' after a value"), err
    assert not (tmp_path / "run").exists() and not (tmp_path / "run#1.csv").exists()


def test_config_file_with_a_byte_order_mark_runs(tmp_path):
    # an editor may start a UTF-8 file with U+FEFF; it is not part of a key
    text = f"n = 6\nm = 2\nl = 2\ntrials = 1500\noutput = {tmp_path / 'run.csv'}\n"
    written = []
    for name, bom in (("plain.conf", b""), ("bom.conf", b"\xef\xbb\xbf")):
        (tmp_path / name).write_bytes(bom + text.encode())
        assert main(["--config", str(tmp_path / name)]) == EXIT_OK, name
        written.append((tmp_path / "run.csv").read_bytes())
    assert written[0] == written[1]


def test_fixed_value_of_the_swept_variable_is_refused(tmp_path, capsys):
    # a rate sweep has no fixed rate and an SNR sweep no fixed SNR; the
    # value would be dropped without a word
    small = ["--n", "6", "--m", "2", "--l", "2", "--trials", "100"]
    for sweep, key in ((("--rate", "1", "--rate-fixed", "1100"), "rate_fixed"),
                       (("--snr-db", "0", "--snr-db-fixed", "4000"), "snr_db_fixed")):
        out = tmp_path / "fixed.csv"
        assert main([*small, *sweep, "--output", str(out)]) == EXIT_CONFIG, sweep
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {key} is given"), err
    cfgfile = tmp_path / "fixed.conf"
    cfgfile.write_text("n = 6\nm = 2\nl = 2\nsnr_db = 0\nsnr_db_fixed = 3\n")
    assert main(["--config", str(cfgfile)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: snr_db_fixed is given"), err
    # a preset's fixed value is not the user's: an SNR sweep over fig2 runs
    assert main(["--preset", "fig2", "--snr-db=0:5:1", "--trials", "1024",
                 "--output", str(tmp_path / "fig2.csv")]) == EXIT_OK


def test_summary_first_column_is_the_sweep_grid(tmp_path, capsys):
    for variable, sweep, values in (("snr_db", ("--snr-db=-2:2:2",), [-2.0, 0.0, 2.0]),
                                    ("rate", ("--rate", "0.5:1.5:0.5"), [0.5, 1.0, 1.5]),
                                    # three digits would print 10 five times
                                    ("snr_db", ("--snr-db=10:10.04:0.01",),
                                     [10.0, 10.01, 10.02, 10.03, 10.04])):
        out = tmp_path / "summary.csv"
        argv = ["--n", "6", "--m", "2", "--l", "2", "--schemes", "d,full",
                "--trials", "1500", "--output", str(out), *sweep]
        assert main(argv) == EXIT_OK
        head, *lines, wrote = capsys.readouterr().out.splitlines()
        assert head.split() == [variable, "d:analytic", "d:mc", "full:analytic", "full:mc"]
        assert [float(line.split()[0]) for line in lines] == values
        assert wrote == f"wrote {out}"


def test_config_file_values_are_checked_like_flags(tmp_path, capsys):
    for line in ("format = xml", "scale_mode = bogus", "rate_fixed = abc",
                 "snr_db = nan:1:1"):
        cfgfile = tmp_path / "bad.conf"
        cfgfile.write_text(f"n = 6\nm = 2\nl = 2\n{line}\n")
        assert main(["--config", str(cfgfile), "--output",
                     str(tmp_path / "bad.xml")]) == EXIT_CONFIG, line
        assert not (tmp_path / "bad.xml").exists()
        err = capsys.readouterr().err
        assert err.startswith("configuration error: "), err
        assert f"{cfgfile}:4: {line.split()[0]}: " in err, err
        assert "Traceback" not in err, err


def test_help_lists_every_choice_set(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    out = capsys.readouterr().out
    for choices in ("{fig1,fig2}", "{paper,derived}", "{printed,quadrature}",
                    "{csv,json}"):
        assert choices in out, choices


def test_missing_config_file_is_io_error(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "absent.conf")]) == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_overhead_report(capsys):
    status = main(["--n", "32", "--m", "12", "--l", "16", "--overhead-report"])
    assert status == EXIT_OK
    out = capsys.readouterr().out
    assert "6528" in out and "384" in out


def test_overhead_report_via_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "oh.conf"
    cfgfile.write_text("n = 1\nm = 1\nl = 1\noverhead-report = yes\n")
    assert main(["--config", str(cfgfile)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "2 channel uses" in out


def test_rate_sweep_via_flags(tmp_path):
    out = tmp_path / "rate.csv"
    status = main([
        "--n", "6", "--m", "2", "--l", "2", "--rate", "1:3:1",
        "--snr-db-fixed", "3", "--schemes", "full", "--trials", "1000",
        "--output", str(out),
    ])
    assert status == EXIT_OK
    lines = [ln for ln in out.read_text().strip().split("\n") if not ln.startswith("#")]
    rows = [dict(zip(CSV_COLUMNS, ln.split(","))) for ln in lines[1:]]
    assert [float(r["gamma_th"]) for r in rows] == [1.0, 3.0, 7.0]
    # the fixed SNR is echoed as given, not as 10 log10 of its power
    assert [r["snr_db"] for r in rows] == ["3"] * 3
    assert "# snr_db_fixed = 3" in out.read_text().split("\n")


def test_json_out_of_range_law_is_null(tmp_path, monkeypatch):
    # a law with no value writes null, since JSON has no NaN token; the law
    # patched on `analytic` is the one analytic.outage, and so the run, calls
    monkeypatch.setattr(analytic, "outage_ris", lambda cfg, i, gamma_th, tx_snr=None:
                        np.full(np.shape(gamma_th), math.nan))
    assert math.isnan(analytic.outage(Scheme.RisCsi, SystemConfig(8, 4, 16), 0, 1.0, 1.0))
    out = tmp_path / "ris.json"
    status = main([
        "--n", "8", "--m", "4", "--l", "16", "--snr-db", "0",
        "--schemes", "ris", "--trials", "1024", "--format", "json",
        "--output", str(out),
    ])
    assert status == EXIT_OK

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    with open(out, encoding="ascii") as fh:
        doc = json.load(fh, parse_constant=reject)
    assert [row["analytic_outage"] for row in doc["rows"]] == [None]
    assert 0.0 <= doc["rows"][0]["mc_outage"] <= 1.0


def test_ris_law_at_small_rates_completes(tmp_path):
    # (48, 4, 8) at 20 dB and rates 0.05-0.1 put the cascade-CSI law at
    # shapes 45 and 5 and thresholds 0.14-0.28, deep in its lower tail,
    # where an adaptive quadrature of the law reports failure
    out = tmp_path / "ris.csv"
    status = main([
        "--n", "48", "--m", "4", "--l", "8", "--rate", "0.05:0.1:0.01",
        "--snr-db-fixed", "20", "--schemes", "ris", "--trials", "1024",
        "--output", str(out),
    ])
    assert status == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()
            if not line.startswith("#")][1:]
    assert len(rows) == 6
    assert all(0.0 <= float(row[CSV_COLUMNS.index("analytic_outage")]) < 1e-6
               for row in rows)


def _run_fresh_interpreter(tmp_path, code):
    """Run ``code`` in a new interpreter that imports rismimo from this tree."""
    src = str(Path(rismimo.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_run_does_not_import_scipy_integrate(tmp_path):
    # scipy.integrate costs a few tenths of a second to import, and only the
    # tests' quadrature oracles use it
    _run_fresh_interpreter(tmp_path, (
        "import sys\n"
        "import rismimo.cli\n"
        "assert 'scipy.integrate' not in sys.modules, 'at import'\n"
        "status = rismimo.cli.main(['--preset', 'fig1', '--trials', '1024',\n"
        "                           '--output', 'run.csv'])\n"
        "assert status == 0, status\n"
        "assert 'scipy.integrate' not in sys.modules, 'after a run'\n"
    ))


def test_paper_mode_run_does_not_import_scipy_linalg(tmp_path):
    # scipy.linalg costs about 7 MB and tens of milliseconds to import
    _run_fresh_interpreter(tmp_path, (
        "import sys\n"
        "import rismimo.cli\n"
        "assert 'scipy.linalg' not in sys.modules, 'at import'\n"
        "for method in ('quadrature', 'printed'):\n"
        "    status = rismimo.cli.main(['--preset', 'fig1', '--scale-mode', 'paper',\n"
        "                               '--joint-method', method, '--trials', '256',\n"
        "                               '--output', 'run.csv'])\n"
        "    assert status == 0, status\n"
        "assert 'scipy.linalg' not in sys.modules, 'after a run'\n"
    ))


def test_derived_mode_run_does_not_import_scipy_linalg(tmp_path):
    # the derived-mode joint law's Gauss-Laguerre rule is solved with numpy
    _run_fresh_interpreter(tmp_path, (
        "import sys\n"
        "import rismimo.cli\n"
        "status = rismimo.cli.main(['--preset', 'fig1', '--scale-mode', 'derived',\n"
        "                           '--schemes', 'd,ris,full,joint', '--trials', '256',\n"
        "                           '--output', 'run.csv'])\n"
        "assert status == 0, status\n"
        "assert 'scipy.linalg' not in sys.modules, 'after a run'\n"
    ))
