"""The package imports cleanly and every module exports only names it has."""

import importlib

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
