"""The benchmark's output checks still accept the program's output.

bench/checks.py builds a SystemConfig and calls draw_channel_batch and
batch_gammas by position, and reads the CSV that bench/workloads.py asks
the CLI for.  A refactor that renames those names, reorders their
arguments or changes what the CLI writes fails here, not only under
``bench/run.py``.
"""

import importlib.util
from pathlib import Path

import pytest

from rismimo import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    path = BENCH / f"{name}.py"
    if not path.is_file():
        pytest.skip("bench/ is not in this checkout")
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_checks_pass_on_cli_curves(tmp_path):
    checks, workloads = _load("checks"), _load("workloads")
    seed, rep, index = 5, 1, 0
    for curve in (
        workloads.Curve("n4m2l2-snr", 4, 2, 2, "snr_db", -10.0, 10.0, 5.0, trials=2048),
        workloads.Curve("n4m2l2-rate", 4, 2, 2, "rate", 0.5, 3.0, 0.5, trials=2048),
    ):
        argv = curve.argv(seed, rep, index, str(tmp_path))
        assert cli.main(argv) == cli.EXIT_OK, curve.label
        seed_value = workloads.cli_seed(seed, rep, index)
        rows = checks.check_curve(curve, rep, seed_value, curve.output(str(tmp_path)))
        assert sorted(rows) == ["d", "full", "joint", "ris"]
        checks.check_first_block(curve, seed_value)
