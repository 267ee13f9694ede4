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
runs kept its bytes. Both digests of all seven runs were re-pinned, for
that one cause, when the ZF gamma law of the d and full laws moved from a
hand-rolled incomplete-gamma series to scipy.special.gammainc: 12 to 19
full analytic cells per run moved, by at most 9.2e-15 relative, and every
other cell and header line of the seven runs kept its bytes. SHA256 covers
the whole file.

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
        "cd4cd74c8c9c25f2ac14b8393ef731d9e46190d8960489496e70ca3ed400cd84",
    "golden_32_12_16.csv":
        "74de1986cd241058dc33c0b41702795ebed8b04316851208b3b2ccc7565148f6",
    "golden_32_12_16.json":
        "5278810ce002b156098bb74246abe8dafd263672627061a09972178dcd42789a",
    "golden_fig1.csv":
        "abceb6ced620cf962639ae2e834c90355c72440d706421860e1a99718db91990",
    "golden_rate_32_14_16.csv":
        "35da9010fae3bde01fb4ea35e2383d647948718f1f30dec26cf6cf8e6b04e1a6",
    "golden_fig1_paper_quadrature.csv":
        "ec3d21a001e74c18fe5fc1c0cceca59592560fcfbc42b4308b9eb6f00afd21df",
    "golden_fig1_paper_printed.csv":
        "1ad3bc6d24caafdb4a03a29c5310c8890d371462f72459044045742d7e345b23",
}

SHA256 = {
    "golden_4_2_2.csv":
        "7a29a045b2cbabc544140237b6ff5962c0e65599ef832feed629bc74e78efd23",
    "golden_32_12_16.csv":
        "dcdf5533d72a1f15beb4f3fbac5428d4ec6e2f24349c490119215f610f6215bc",
    "golden_32_12_16.json":
        "13ee89d133afcf0cb3834bc5a939bef96fa0093ddb3115959380de964fcf9517",
    "golden_fig1.csv":
        "14e2a546341926176975046d549c412464069185cb8e96c034733402a0ed2808",
    "golden_rate_32_14_16.csv":
        "6fa2c06c0342e4993c78fa218640c6e725517163e226a1b68e1763b3de7a6b0d",
    "golden_fig1_paper_quadrature.csv":
        "b02681d180e8313ee8f90cbd71145173bbb94b681636261e320b83eeb17d4285",
    "golden_fig1_paper_printed.csv":
        "8802338f61e3f2dc645797e2cf6344f23ba6cf70010f4630d7125ed644dab465",
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
