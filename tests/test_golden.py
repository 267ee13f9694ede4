"""Golden output: two small fixed-seed CLI runs keep their exact bytes.

Each run pins two SHA-256 digests. LAWS covers the file with the Monte
Carlo columns taken out, so it moves only when a law, a threshold or the
format does; it was taken before the channel draw moved to ziggurat
normals and held across that change. SHA256 covers the whole file.

The digests were taken with numpy 2.4.6 and its bundled LAPACK. The
ziggurat normals are numpy's `Generator.standard_normal`, which another
numpy version may draw differently, and another numpy build may round the
Gram products of the detector kernels differently in the last bit, which
can move an analytic or Monte Carlo value, so the test skips there.
"""

import hashlib
import json

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

MONTE_CARLO_COLUMNS = ("mc_outage", "mc_stderr", "trials")

LAWS = {
    "golden_4_2_2.csv":
        "2502af2482ddb37c89ad7588eaa619a6f174d02f79f1b98a7bd21d69fb32fc17",
    "golden_32_12_16.csv":
        "ded1837facb56effa794834fe973e5f01d41b80f2a47cdeb7c420bddb8a10881",
    "golden_32_12_16.json":
        "4fd1b1e90ce90451c03e519c4d77f3657aabc94f38cadfff558296875617a3f8",
}

SHA256 = {
    "golden_4_2_2.csv":
        "a38f5190154039886ecdaf4a4321318df1ddd9460e2feaae89268cbc422e0e64",
    "golden_32_12_16.csv":
        "b0fcde4aade2ff6a18e158d9083b88fed999d85b8b082f142b584e782ff91608",
    "golden_32_12_16.json":
        "da7602b2ab2c1f100052d589d7a0170ef93f14319af55df65e74bfcb30760d94",
}


def without_monte_carlo(name, data):
    """Output bytes with the MONTE_CARLO_COLUMNS taken out of every row."""
    if name.endswith(".json"):
        doc = json.loads(data)
        doc["columns"] = [c for c in doc["columns"] if c not in MONTE_CARLO_COLUMNS]
        doc["rows"] = [{k: v for k, v in row.items() if k not in MONTE_CARLO_COLUMNS}
                       for row in doc["rows"]]
        return json.dumps(doc, indent=1).encode()
    lines = data.decode("ascii").splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    keep = [j for j, c in enumerate(lines[head].split(","))
            if c not in MONTE_CARLO_COLUMNS]
    table = [",".join(line.split(",")[j] for j in keep) for line in lines[head:]]
    return "\n".join(lines[:head] + table).encode("ascii")


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
    data = (tmp_path / name).read_bytes()
    assert hashlib.sha256(without_monte_carlo(name, data)).hexdigest() == LAWS[name]
    assert hashlib.sha256(data).hexdigest() == SHA256[name]
