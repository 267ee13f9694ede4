"""The benchmark's tracing hooks still bind the program's names.

bench/tracing.py wraps functions by their module attribute path and reads
some of their arguments by position.  A refactor that renames a hooked
name or reorders those arguments fails here, not only under
``bench/run.py --trace 1``.
"""

import collections
import importlib.util
from pathlib import Path

import pytest

from rismimo import analytic, cli, montecarlo, specfun

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    if not TRACING.is_file():
        pytest.skip("bench/ is not in this checkout")
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_fire_on_a_cli_sweep(tmp_path):
    tracer = _load_tracing().Tracer(str(tmp_path))
    tracer.install({"cli": cli, "montecarlo": montecarlo,
                    "analytic": analytic, "specfun": specfun})
    try:
        # one block, so two workers still run in this process
        status = cli.main(["--n", "4", "--m", "2", "--l", "2", "--snr-db=0:2:2",
                           "--trials", "1000", "--workers", "2",
                           "--output", str(tmp_path / "out.csv")])
    finally:
        tracer.uninstall()
    assert status == cli.EXIT_OK
    names = {s["name"] for s in tracer.spans}
    assert {"montecarlo.run_sweep", "montecarlo.snr_samples", "channel.draw",
            "detectors.batch_gammas", "cli.write"} <= names, names
    # each law runs once per curve, over both grid points
    laws = collections.Counter(s["name"] for s in tracer.spans
                               if s["name"].startswith("analytic."))
    assert laws == {"analytic.d": 1, "analytic.ris": 1, "analytic.full": 1,
                    "analytic.joint": 1}, laws
    (sampling,) = [s for s in tracer.spans if s["name"] == "montecarlo.snr_samples"]
    assert sampling["attrs"]["trials"] == 1000
    assert sampling["attrs"]["workers"] == 2
