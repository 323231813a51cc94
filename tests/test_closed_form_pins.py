"""Byte pins for the closed-form documents of the CLI.

``analyze --json``, ``check --json``, ``check --maximize --json`` and
``report`` print only what ``dictionary.analyze`` measures and what
``threshold`` derives from it, so their bytes change only when a statistic,
a condition or the budget search does.  Each case compares the sha256 of the
printed text with the digest of the code it was written against (numpy
with OpenBLAS on x86-64), on three dictionaries: mub7, two_onb8, and a
random 6 x 12 dictionary whose one-column block A has no sub-coherence
(``muADefined: false``) and a tight-frame gap of 5/6.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from sparsethresh.cli import main

BUILDS = {
    "mub7": ["--mub", "7"],
    "two_onb8": ["--two-onb", "8"],
    "random6x12": ["--random", "6", "12", "--split", "1", "--seed", "3"],
}

COMMANDS = {
    "analyze": ["analyze", "--json"],
    "check": ["check", "--json", "--na", "1", "--nb", "1"],
    "maximize": ["check", "--maximize", "--json"],
    "report": ["report", "--na", "1", "--nb", "1"],
}

DIGESTS = {
    ("mub7", "analyze"): "67dfa5cbf766a9f659e515bc6c0c6d400e4a4d15a64dcedaf83135e03234baa9",
    ("mub7", "check"): "efb6611fa3334d58457367197cf5893036ccaa3fa90dd0a4c9f4d7d64b9efad5",
    ("mub7", "maximize"): "ea43a8e316f6840529ca894ee712987b1debe47d766cc48265a0279a7ae9ae8c",
    ("mub7", "report"): "925fb98211790975444814c1b1642aa57150868cf967ddf9eed272c1c58c55b5",
    ("two_onb8", "analyze"): "0a9ae6bc9935084a7caecb174c23928134526b16eaf6dfbe4cf9ad4e21b30ff8",
    ("two_onb8", "check"): "8f31ede9d9e705fa8f227870e71366fc017788a992ba41678cb067d75a19314d",
    ("two_onb8", "maximize"): "99da83526ff07b445e3b90c47101b3d25972020039129ce2fe45933454e1c43b",
    ("two_onb8", "report"): "1329228f1d00f3cdf5b882c93f6216455b8b49c41cf48702ad7face972f82c35",
    ("random6x12", "analyze"): "12d3c1c352bbf0d56f5bdea9e3dbfa11ab3bcc3172d5edfe054e3c9800c895c3",
    ("random6x12", "check"): "dade147f9c95690506ffb9e782c611a588fe4a6ecd2eec049216a4fbd686eea3",
    ("random6x12", "maximize"): "24e41f8dbf1187db15e133b343ef5f0e41786365c5acaa5d4aaa58d5e689e94a",
    ("random6x12", "report"): "b2ed0c8e6e84f2c8feb4f845a1dc8436868d3948e4c231d4bc39f19cd4098cd1",
}


@pytest.fixture(scope="module")
def dict_paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("pinned")
    paths = {}
    for name, flags in BUILDS.items():
        paths[name] = str(base / f"{name}.dict.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["build-dict", *flags, "-o", paths[name]]) == 0
    return paths


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", BUILDS)
def test_document_bytes_are_pinned(dict_paths, name, command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main([*COMMANDS[command], "--dict", dict_paths[name]])
    assert rc in (0, 3)  # check exits 3 where a condition fails
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == DIGESTS[name, command]
