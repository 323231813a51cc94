"""The package imports cleanly, every module exports only names it has and
no name another module exports, and the README's library example runs."""

import importlib
import re
from pathlib import Path

import pytest

MODULES = (
    "dictionary", "rng", "model", "threshold", "concentration", "recovery", "svg", "cli",
)


def test_package_imports():
    package = importlib.import_module("sparsethresh")
    assert package.__version__


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry breaks ``from sparsethresh.<name> import *`` and
    # every tool that walks the exports with getattr
    module = importlib.import_module(f"sparsethresh.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_no_name_is_exported_by_two_modules():
    # each public name has one home, which the package re-exports
    homes = {}
    for name in MODULES:
        for attr in importlib.import_module(f"sparsethresh.{name}").__all__:
            homes.setdefault(attr, []).append(name)
    assert {attr: names for attr, names in homes.items() if len(names) > 1} == {}


def test_readme_library_example_runs():
    # the example imports public names by hand; a renamed or deleted one
    # would break it with nothing else noticing
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
