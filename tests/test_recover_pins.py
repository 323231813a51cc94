"""Byte pins for the grids of ``recover``.

``recovery_rates.csv`` and ``recovery_summary.json`` hold every cell's
success count, stalls, hand-overs and largest iteration count, so their
bytes move when a draw, a stream or a solve's outcome does.  Each case
compares their sha256 with the digest of the code they were written against
(numpy with OpenBLAS on x86-64), at one and two workers, on two runs:

- the README run (fourier8, n_a and n_b in 0..4, 50 trials, seed 3), whose
  16 columns are at most twice its 8 rows, so ADMM projects with one
  N x N product;
- the three-strategy mub7 run of the CI (n_a in 0..3, n_b in 0..4, 10
  trials, seed 5), whose 56 columns are more than twice its 7 rows, so ADMM
  projects with the two thin products through pinv(D).
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from sparsethresh.cli import main

RUNS = {
    "readme": (
        ["--two-onb", "8"],
        ["--na-range", "0:4", "--nb-range", "0:4", "--trials", "50", "--seed", "3"],
    ),
    "strategies": (
        ["--mub", "7"],
        ["--na-range", "0:3", "--nb-range", "0:4", "--strategies",
         "first-n,spread,random-baseline", "--trials", "10", "--seed", "5"],
    ),
}

DIGESTS = {
    ("readme", "recovery_rates.csv"):
        "f868d48f2154986b7e84d5fc02cce389e66243c13729fd3b204e66cbc570413d",
    ("readme", "recovery_summary.json"):
        "f1d24cc12610398e546ac47ae5ce2839aa2c079e8b7d8ce291dede92effc175a",
    ("strategies", "recovery_rates.csv"):
        "49551d93af96d6fc19635643ccf5bf7541730d9729b316168ab430ff92847865",
    ("strategies", "recovery_summary.json"):
        "4521888dcf9fb535d661c9a462a465c38a10c87e4509fb8ff504ee9e84115f84",
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("run", RUNS)
def test_recover_bytes_are_pinned(tmp_path, run, threads):
    build, grid = RUNS[run]
    dict_path, out = str(tmp_path / "d.dict.json"), tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["build-dict", *build, "-o", dict_path]) == 0
        assert main([
            "recover", "--dict", dict_path, *grid, "--threads", threads, "--out", str(out),
        ]) == 0
    for name in ("recovery_rates.csv", "recovery_summary.json"):
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == DIGESTS[run, name], name
