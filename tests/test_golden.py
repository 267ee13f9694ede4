"""Golden output: two small fixed-seed CLI runs keep their exact bytes.

The digests were taken with numpy 2.4.6 and its bundled LAPACK. Another
numpy build may round the QR kernels differently in the last bit, which
can move an analytic or Monte Carlo value, so the test skips there.
"""

import hashlib

import numpy as np
import pytest

from rismimo.cli import EXIT_OK, main

PINNED_NUMPY = "2.4.6"

RUNS = {
    "golden_4_2_2.csv": ("--n", "4", "--m", "2", "--l", "2"),
    "golden_32_12_16.csv": ("--n", "32", "--m", "12", "--l", "16"),
    "golden_32_12_16.json": ("--n", "32", "--m", "12", "--l", "16",
                             "--format", "json"),
}

SHA256 = {
    "golden_4_2_2.csv":
        "b38f472e2c9cf9b5f6a43866d87deeccca6b81245d83312f998a7d3de730a4bf",
    "golden_32_12_16.csv":
        "1b95813b73df8392a0d03ef2aeee000cbc0a8c9d413d38f1b41519c84393add7",
    "golden_32_12_16.json":
        "b603578ee7eb6b40653b1cfef2cecd9eff1dcb9639b4d47a3686eae5c4ab75ce",
}


@pytest.mark.skipif(
    np.__version__ != PINNED_NUMPY,
    reason=f"digests pinned under numpy {PINNED_NUMPY}, found {np.__version__}",
)
@pytest.mark.parametrize("name", sorted(RUNS))
def test_fixed_seed_run_bytes(name, tmp_path, monkeypatch):
    # relative --output keeps the echoed "# output" line independent of tmp_path
    monkeypatch.chdir(tmp_path)
    argv = list(RUNS[name]) + [
        "--schemes", "d,ris,full,joint",
        "--trials", "2048",
        "--seed", "20211",
        "--output", name,
    ]
    assert main(argv) == EXIT_OK
    digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest == SHA256[name]
