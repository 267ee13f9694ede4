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
        "6c92ddad47b5cd34c58a6809d6af87ba7c4933fc194676b39bf88fb44aa8d5aa",
    "golden_32_12_16.csv":
        "43669f053b9597c61e95aa2fe4ae4dd58b73421eef5f6d6fb14a7ba9a3041a8d",
    "golden_32_12_16.json":
        "fdaecc3bff9e22c9ad030742f644aeb4b9b8ae5bb6a421671861c0f67d8a1bfa",
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
