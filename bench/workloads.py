"""The three benchmark workloads: inputs, CLI command lines and output checks.

Each workload is one ``sparsethresh`` subcommand on one dictionary file that
the benchmark writes itself.  A pass is ``pass_commands`` commands, the
parts ``0 .. pass_commands - 1``; a run repeats the same pass, so every
repeat of a part must write the same bytes.  The workload seed picks the
inputs: the command ``--seed`` of ``smin`` and ``report`` comes from
``command_seed(seed, name)``, and ``recover`` runs on the two-basis
dictionary turned by a unitary drawn from the seed (see
``recover_dictionary``).

The checks hold for any seed.  They return a list of problems (empty when
the outputs are right).  WORKLOADS.md says why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from sparsethresh import PartitionedDictionary, build_mub, build_two_onb
from sparsethresh.recovery import RECOVERY_CSV_HEADER

__all__ = ["Workload", "WORKLOADS", "command_seed"]


def command_seed(seed: int, name: str) -> int:
    """A 31-bit command seed from the workload seed and the workload."""
    digest = hashlib.sha256(f"{name}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


# ============================================================
# recover-two_onb8
# ============================================================

# The README grid (n_a, n_b in 0..4, strategies first-n and random-baseline)
# at 10 trials per cell, as one command per n_a row, so a pass of 5 commands
# is 500 solves.  Every command uses the same --seed: the instances are
# fixed, and the workload seed only turns the dictionary.  Solve costs are
# heavy-tailed (about 6% of solves take 60% of the ADMM iterations): over 16
# fresh draws of 500 solves the total iterations had an IQR of 0.38 of
# their median, so a fresh draw per seed would change the work itself.
RECOVER_TRIALS = 10
RECOVER_SEED = 0
RECOVER_ROWS = 5
RECOVER_ROW_CELLS = 10  # 2 strategies x n_b 0..4


def recover_dictionary(seed: int) -> PartitionedDictionary:
    """``build_two_onb(8)`` turned by a Haar-random unitary Q drawn from ``seed``.

    Basis pursuit on Q D with y = Q D x is the same problem as on D (Q
    keeps every column norm and inner product), so every seed does the same
    solver work up to rounding, while the dictionary file differs.
    """
    D = build_two_onb(8)
    rng = np.random.default_rng([seed, 8])
    z = rng.standard_normal((D.m, D.m)) + 1j * rng.standard_normal((D.m, D.m))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return PartitionedDictionary(q @ D.matrix, D.Na)


def _recover_argv(dict_path, out, seed, part):
    return [
        "recover", "--dict", dict_path, "--na-range", f"{part}:{part}", "--nb-range", "0:4",
        "--strategies", "first-n,random-baseline", "--trials", str(RECOVER_TRIALS),
        "--threads", "1", "--seed", str(RECOVER_SEED), "--out", out,
    ]


def _recover_check(out, seed, part) -> list[str]:
    rows = _csv_rows(os.path.join(out, "recovery_rates.csv"))
    problems = []
    if rows[0] != RECOVERY_CSV_HEADER:
        problems.append(f"recovery_rates.csv header is {rows[0]!r}")
    body = [r.split(",") for r in rows[1:]]
    if len(body) != RECOVER_ROW_CELLS:
        problems.append(
            f"recovery_rates.csv has {len(body)} rows, expected {RECOVER_ROW_CELLS}"
        )
    for n_a, n_b, strategy, trials, successes, _rate in body:
        if n_a != str(part):
            problems.append(f"row for n_a={n_a} in the command for n_a={part}")
        if not 0 <= int(successes) <= int(trials):
            problems.append(f"cell ({n_a},{n_b},{strategy}) has {successes} of {trials}")
        if (n_a, n_b) == ("0", "0") and successes != trials:
            problems.append(f"empty support cell ({strategy}) is {successes}/{trials}, not 100%")
    return problems


# ============================================================
# smin-mub7
# ============================================================

MUB7_TRIALS = 2_500


def _smin_argv(dict_path, out, seed, part):
    return [
        "smin", "--dict", dict_path, "--na", "2", "--nb", "3", "--strategy", "first-n",
        "--trials", str(MUB7_TRIALS), "--threads", "1",
        "--seed", str(command_seed(seed, "smin-mub7")), "--out", out,
    ]


def _smin_check(out, seed, part) -> list[str]:
    summary = _load_json(os.path.join(out, "smin_summary.json"))
    problems = []
    if summary["violation_count"] != 0:
        problems.append(f"smin violation_count = {summary['violation_count']}")
    rows = _csv_rows(os.path.join(out, "smin_trials.csv"))
    if len(rows) != MUB7_TRIALS + 1:
        problems.append(f"smin_trials.csv has {len(rows)} lines")
    return problems


# ============================================================
# report-mub61
# ============================================================

MUB_P = 61


def _report_budget(seed) -> tuple[int, int]:
    cmd_seed = command_seed(seed, "report-mub61")
    return cmd_seed % 3, (cmd_seed // 3) % 3


def _report_argv(dict_path, out, seed, part):
    n_a, n_b = _report_budget(seed)
    return [
        "report", "--dict", dict_path, "--na", str(n_a), "--nb", str(n_b),
        "--out", os.path.join(out, "report.json"),
    ]


def _report_check(out, seed, part) -> list[str]:
    doc = _load_json(os.path.join(out, "report.json"))
    stats = doc["stats"]
    problems = []
    if abs(stats["mu"] - 1.0 / math.sqrt(MUB_P)) > 1e-9:
        problems.append(f"report mu = {stats['mu']!r}, expected 1/sqrt({MUB_P})")
    if abs(stats["specD"] ** 2 - (MUB_P + 1)) > 1e-9:
        problems.append(f"report specD^2 = {stats['specD'] ** 2!r}, expected {MUB_P + 1}")
    if (doc["params"]["n_a"], doc["params"]["n_b"]) != _report_budget(seed):
        problems.append(f"report params {doc['params']} do not match the command")
    return problems


# ============================================================
# table
# ============================================================


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``build`` makes the dictionary from the workload seed, and ``argv`` and
    ``check`` take the workload seed and the part.  ``units`` is the work in
    one pass (Monte Carlo trials, BP solves or reports) that
    ``trials_per_s`` counts.  ``hashed`` names the artifacts whose bytes
    make the determinism contract.  ``count_linalg`` turns on LAPACK call
    counting in the traced run, and ``probes`` names the extra measurements
    the traced run makes for this workload.
    """

    name: str
    dict_file: str
    build: Callable
    argv: Callable
    check: Callable
    units: int
    hashed: tuple[str, ...]
    pass_commands: int = 1
    count_linalg: bool = False
    probes: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="recover-two_onb8",
            dict_file="two_onb8.dict.json",
            build=recover_dictionary,
            argv=_recover_argv,
            check=_recover_check,
            units=RECOVER_ROWS * RECOVER_ROW_CELLS * RECOVER_TRIALS,
            hashed=("recovery_rates.csv",),
            pass_commands=RECOVER_ROWS,
            probes=("solve_setup",),
        ),
        Workload(
            name="smin-mub7",
            dict_file="mub7.dict.json",
            build=lambda seed: build_mub(7),
            argv=_smin_argv,
            check=_smin_check,
            units=MUB7_TRIALS,
            hashed=("smin_trials.csv",),
            count_linalg=True,
            probes=("fanout", "bootstrap"),
        ),
        Workload(
            name="report-mub61",
            dict_file="mub61.dict.json",
            build=lambda seed: build_mub(MUB_P),
            argv=_report_argv,
            check=_report_check,
            units=1,
            hashed=("report.json",),
        ),
    )
}
