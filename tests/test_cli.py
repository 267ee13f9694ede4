"""Command-line front end: presets, parsing, precedence, files, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rismimo
from rismimo import analytic
from rismimo.cli import (
    CSV_COLUMNS,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    main,
    parse_gains,
    parse_grid,
    parse_schemes,
    pilot_overhead_counts,
    preset_fig1,
    preset_fig2,
)
from rismimo.detectors import Scheme
from rismimo.errors import ConfigurationError


def test_preset_snr_sweep_structure():
    man = preset_fig1(16)
    cfg = man.config
    assert (cfg.rx_antennas, cfg.streams, cfg.ris_elements) == (32, 12, 16)
    assert cfg.rate == 3.0
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
    assert preset_fig1(32).config.ris_elements == 32
    with pytest.raises(ConfigurationError):
        preset_fig1(17)


def test_preset_rate_sweep_structure():
    man = preset_fig2()
    cfg = man.config
    assert (cfg.rx_antennas, cfg.streams, cfg.ris_elements) == (32, 14, 16)
    assert cfg.gain_ris_rx == 0.7
    assert np.allclose(cfg.gain_tx_ris, 0.7)
    assert np.allclose(cfg.gain_direct, 0.7)
    assert cfg.tx_snr == pytest.approx(10.0**0.3)
    assert man.sweep.variable == "rate"
    assert man.sweep.values == tuple(np.arange(1, 13) * 0.5)
    # the equal-gains variant
    assert np.allclose(preset_fig2(1.0).config.gain_direct, 1.0)


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
    for bad in ("a", "1:2", "1:2:3:4", "0:5:0", "5:0:1"):
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
    _, again = _run_small(tmp_path / "x", "run.csv")
    assert a.read_bytes() == again.read_bytes()


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


def test_seed_beyond_float_precision_is_kept_exactly(tmp_path):
    # 2^53 + 1 has no float representation; a float round trip gives 2^53
    status, out = _run_small(tmp_path, "seed.csv", ("--seed", "9007199254740993"))
    assert status == EXIT_OK
    assert "# seed = 9007199254740993" in out.read_text().split("\n")


def test_exit_code_for_unwritable_output(tmp_path, capsys):
    status, _ = _run_small(tmp_path, "ignored.csv",
                           ("--output", str(tmp_path / "no" / "dir" / "x.csv")))
    assert status == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


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
    assert all(float(r["snr_db"]) == pytest.approx(3.0) for r in rows)
    echoed = dict(
        ln[2:].split(" = ", 1)
        for ln in out.read_text().split("\n")
        if ln.startswith("# ")
    )
    assert float(echoed["snr_db_fixed"]) == pytest.approx(3.0)


def test_json_out_of_range_law_is_null(tmp_path, monkeypatch):
    # a law with no value writes null, since JSON has no NaN token
    monkeypatch.setattr(analytic, "outage_ris", lambda cfg, i, gamma_th: math.nan)
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


def test_cli_run_does_not_import_scipy_integrate(tmp_path):
    # scipy.integrate costs a few tenths of a second to import, and only the
    # tests' quadrature oracles use it
    src = str(Path(rismimo.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import rismimo.cli\n"
        "assert 'scipy.integrate' not in sys.modules, 'at import'\n"
        "status = rismimo.cli.main(['--preset', 'fig1', '--trials', '1024',\n"
        "                           '--output', 'run.csv'])\n"
        "assert status == 0, status\n"
        "assert 'scipy.integrate' not in sys.modules, 'after a run'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
