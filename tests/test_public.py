"""The package root exports exactly what the README example and the benchmark use; the
installed `dualguide` script runs `dualguide.cli.main`."""

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

import dualguide
from dualguide.cli import main

ROOT = Path(__file__).resolve().parents[1]
ERRORS = {"ConfigurationError", "ContractError", "DataFormatError"}


def readme_example() -> str:
    found = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert found, "README.md has no python example"
    return found.group(1)


def dualguide_imports(source: str) -> set[tuple[str, str]]:
    """(module, name) for every `from dualguide... import name` in the source."""
    return {
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and (node.module == "dualguide" or node.module.startswith("dualguide."))
        for alias in node.names
    }


BENCH_IMPORTS = sorted(
    set().union(*(dualguide_imports(p.read_text()) for p in (ROOT / "perfbench").glob("*.py")))
)


def test_readme_library_example_runs(capsys):
    exec(compile(readme_example(), "README.md", "exec"), {})
    assert "easy pairs" in capsys.readouterr().out


@pytest.mark.parametrize("module, name", BENCH_IMPORTS, ids=[f"{m}.{n}" for m, n in BENCH_IMPORTS])
def test_benchmark_imports_resolve(module, name):
    assert hasattr(__import__(module, fromlist=[name]), name)


def test_root_exports_only_what_is_used():
    used = {name for module, name in dualguide_imports(readme_example()) if module == "dualguide"}
    used |= {name for module, name in BENCH_IMPORTS if module == "dualguide"}
    exported = {
        name for name, value in vars(dualguide).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == used | ERRORS


def test_the_dualguide_script_runs_cli_main():
    # Read with a pattern, not tomllib, which Python 3.10 lacks.
    toml = (ROOT / "pyproject.toml").read_text()
    (scripts,) = re.findall(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", toml, re.S | re.M)
    (target,) = re.findall(r'^dualguide = "(.+)"$', scripts, re.M)
    module, name = target.split(":")
    assert getattr(importlib.import_module(module), name) is main
