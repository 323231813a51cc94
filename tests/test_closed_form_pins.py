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
    ("mub7", "analyze"): "5bc90bc43a2a713ea2a8670abc8dd01696d4a460cd39d5c74129b18e1915036f",
    ("mub7", "check"): "efb6611fa3334d58457367197cf5893036ccaa3fa90dd0a4c9f4d7d64b9efad5",
    ("mub7", "maximize"): "ea43a8e316f6840529ca894ee712987b1debe47d766cc48265a0279a7ae9ae8c",
    ("mub7", "report"): "9eadb5d93a3e5390a21489baaff4b913e012a39c13b581b664a4703565bec094",
    ("two_onb8", "analyze"): "392e9b8a94668c1377c29a2a0ac68957441a01fef5d1b9e8588beec96b92cbe1",
    ("two_onb8", "check"): "8f31ede9d9e705fa8f227870e71366fc017788a992ba41678cb067d75a19314d",
    ("two_onb8", "maximize"): "99da83526ff07b445e3b90c47101b3d25972020039129ce2fe45933454e1c43b",
    ("two_onb8", "report"): "956047786f1f46525b42271c06522c0d73cdbf9b6084d9d394e7bd57940f4ddc",
    ("random6x12", "analyze"): "b3e46759115cb7ea6f8084d18a1a2aca95a71ca88f9f04eb484346bd12b7d27f",
    ("random6x12", "check"): "dade147f9c95690506ffb9e782c611a588fe4a6ecd2eec049216a4fbd686eea3",
    ("random6x12", "maximize"): "24e41f8dbf1187db15e133b343ef5f0e41786365c5acaa5d4aaa58d5e689e94a",
    ("random6x12", "report"): "ac61281249492a53bda235c610a9e48016b5029f95903aa60ded766253026956",
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
