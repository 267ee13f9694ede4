"""Golden output: small fixed-seed CLI runs keep their exact bytes.

Each run pins two SHA-256 digests. LAWS covers the file with the Monte
Carlo columns taken out, so it moves only when a law, a threshold or the
format does; the three plain runs' LAWS were taken before the channel draw
moved to ziggurat normals and held across that change. The fig1-preset
and rate-sweep digests were taken before the flags, presets and config
keys moved to one table and held across that change. All five LAWS held
when the draws moved from keyed Philox to SFC64 substreams. The two
paper-scale fig1 runs, one per joint method, were taken before the laws
moved to one evaluation per curve and held across that change. Both
digests of the paper-scale quadrature run were re-pinned, for that one
cause, when its Marcum average moved to the swapped sum over a Poisson
window: its 21 joint analytic cells moved in the last digits, and every
other cell of the seven runs kept its bytes. Both digests of the rate
sweep were re-pinned, for that one cause, when a rate sweep began to echo
its fixed SNR as given: its snr_db_fixed line and its 48 snr_db cells
moved from 2.9999999999999991 to 3, and every other cell of the seven
runs kept its bytes. SHA256 covers the whole file.

The digests were taken with numpy 2.4.6 and its bundled LAPACK. The
ziggurat normals are numpy's `Generator.standard_normal`, which another
numpy version may draw differently, and another numpy build may round the
cascade product or the Gram products of the detector kernels differently in
the last bit, which can move an analytic or Monte Carlo value, so the test
skips there.
"""

import hashlib
import json

import numpy as np
import pytest

from rismimo.cli import EXIT_OK, main

PINNED_NUMPY = "2.4.6"

# the fig2 preset spelled out as flags
FIG2_FLAGS = ("--n", "32", "--m", "14", "--l", "16", "--gain-d", "0.7",
              "--gain-g", "0.7", "--gain-h", "0.7", "--rate", "0.5:6:0.5",
              "--snr-db-fixed", "3")

RUNS = {
    "golden_4_2_2.csv": ("--n", "4", "--m", "2", "--l", "2"),
    "golden_32_12_16.csv": ("--n", "32", "--m", "12", "--l", "16"),
    "golden_32_12_16.json": ("--n", "32", "--m", "12", "--l", "16",
                             "--format", "json"),
    "golden_fig1.csv": ("--preset", "fig1"),
    "golden_rate_32_14_16.csv": FIG2_FLAGS,
    "golden_fig1_paper_quadrature.csv": ("--preset", "fig1", "--scale-mode", "paper",
                                         "--joint-method", "quadrature"),
    "golden_fig1_paper_printed.csv": ("--preset", "fig1", "--scale-mode", "paper",
                                      "--joint-method", "printed"),
}

MONTE_CARLO_COLUMNS = ("mc_outage", "mc_stderr", "trials")

LAWS = {
    "golden_4_2_2.csv":
        "2502af2482ddb37c89ad7588eaa619a6f174d02f79f1b98a7bd21d69fb32fc17",
    "golden_32_12_16.csv":
        "ded1837facb56effa794834fe973e5f01d41b80f2a47cdeb7c420bddb8a10881",
    "golden_32_12_16.json":
        "4fd1b1e90ce90451c03e519c4d77f3657aabc94f38cadfff558296875617a3f8",
    "golden_fig1.csv":
        "d3e23705a52a2a22049818e58c6af8596d9af6f5ceae89faae25f04d00341a50",
    "golden_rate_32_14_16.csv":
        "dfefa778f0863f0f0965736e1ada41d1ea16d4954d8ebd4d2972e2a3fc3f8a06",
    "golden_fig1_paper_quadrature.csv":
        "4cb3202ae4ee1cc191e48766e21ef4dd9993775e34c3191bc41bd6a7847ac822",
    "golden_fig1_paper_printed.csv":
        "78255befa630ae543ed916fc1defbd59d8275ed9415222f176c68204bb8bc0b4",
}

SHA256 = {
    "golden_4_2_2.csv":
        "4e1970b1850158d1859d01f0ac1dc6044080791f1653c032b460aea8a3734b24",
    "golden_32_12_16.csv":
        "d8a666666815a124f6dedbef5f06ab464a3b814db6176a49ed290439219c9537",
    "golden_32_12_16.json":
        "0d2eae07152fadd1643eaf94104a49a03429c4bafa93a9f6f63f709156996251",
    "golden_fig1.csv":
        "fa7ed1b2fea5269df4d915928a3d61e688942e79b905e532ac18a3a13775c63d",
    "golden_rate_32_14_16.csv":
        "a0be3d2c14febb6be4abb090b175938c2a42e344bfa4e580846e468f0fd5e4e7",
    "golden_fig1_paper_quadrature.csv":
        "9e18cd2273c0508b6d516384eef9c647174d8bbc8b16661b582a4d5c4f73788d",
    "golden_fig1_paper_printed.csv":
        "a08b18d3d7bb72bad7e865ebccbcfc53b7b0fb33558c038aa990d9d59a9bda50",
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


def test_fig2_preset_is_its_spelled_out_flags(tmp_path, monkeypatch):
    # the same relative --output in two folders, since the file echoes it
    tail = ["--trials", "1024", "--seed", "20211", "--output", "fig2.csv"]
    data = []
    for folder, args in (("preset", ("--preset", "fig2")), ("flags", FIG2_FLAGS)):
        (tmp_path / folder).mkdir()
        monkeypatch.chdir(tmp_path / folder)
        assert main(list(args) + tail) == EXIT_OK
        data.append((tmp_path / folder / "fig2.csv").read_bytes())
    assert data[0] == data[1]
