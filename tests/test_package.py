"""The package imports cleanly, every module exports only names it has and
no name another module exports, the README's library example runs, and
every package name the benchmark scripts use still exists."""

import ast
import importlib
import re
from types import ModuleType
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
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
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def _from_import(module: str, name: str):
    """What ``from module import name`` binds, or None: an attribute of the
    module, or else a submodule of that name, as the statement finds it."""
    if not hasattr(importlib.import_module(module), name):
        try:
            importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            return None
    return getattr(importlib.import_module(module), name, None)


def _package_names(path: Path) -> list[str]:
    """The ``sparsethresh`` names that ``path`` imports, or reads as
    ``module.attr`` of a name an import bound to a ``sparsethresh`` module,
    which are missing: its AST is read, none of its code runs."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sparsethresh":
                    # ``import a.b`` binds a, ``import a.b as c`` binds c to a.b
                    bound = alias.name if alias.asname else "sparsethresh"
                    modules[alias.asname or bound] = importlib.import_module(bound)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sparsethresh"):
            for alias in node.names:
                value = _from_import(node.module, alias.name)
                if value is None:
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(value, ModuleType):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)):
            missing.append(f"{modules[node.value.id].__name__}.{node.attr}")
    return missing


@pytest.mark.parametrize("script", ["run.py", "workloads.py", "tracing.py"])
def test_every_package_name_the_bench_uses_resolves(script):
    # a deleted name (recovery.solve_bp, concentration.estimate_moment) breaks
    # the benchmark only when it runs; the imports it reads tell at once
    assert _package_names(ROOT / "bench" / script) == []


@pytest.fixture
def bench_modules(monkeypatch):
    """Import a bench script as ``bench/run.py`` does: ``bench`` on sys.path."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return importlib.import_module


def test_the_bench_tracer_patches_only_names_that_exist_and_restores_them(bench_modules):
    # the tracer patches methods by name, MomentEstimate.csv_rows among them,
    # which no import of the scripts names; no command runs inside
    from sparsethresh.concentration import MomentEstimate

    tracer = bench_modules("tracing").Tracer(count_linalg=True)
    with tracer:
        patches = list(tracer._patches)
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, (owner, attr)
    assert (MomentEstimate, "csv_rows", MomentEstimate.csv_rows) in patches
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, (owner, attr)


def test_the_bench_bootstrap_probe_call_runs(bench_modules, mub7):
    # bench/run.py's _bootstrap_seconds, on the smin-mub7 dictionary at seed 1
    from sparsethresh import concentration

    workloads = bench_modules("workloads")
    seed = workloads.command_seed(1, "smin-mub7")
    for n_boot in (1000, 1):
        est = concentration.estimate_moment(
            mub7, 2, 3, 8.0, workloads.MUB7_TRIALS, master_seed=seed, n_boot=n_boot
        )
        assert est.trials == workloads.MUB7_TRIALS
