"""Every ``from repro... import name`` in the example and benchmark
scripts resolves.

The scripts are parsed with :mod:`ast`, never run, so a module or name
deleted from the package fails here instead of in a script nobody ran.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(
    p for pattern in ("examples/*.py", "benchmarks/*.py", "benchmarks/e2e/*.py")
    for p in ROOT.glob(pattern)
)


def repro_imports(path: Path):
    """``(module, name)`` for every absolute import of the package;
    ``name`` is ``None`` for a plain ``import repro.x``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
            node.module == "repro" or node.module.startswith("repro.")
        ):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    yield alias.name, None


def test_scripts_found():
    assert any(p.parent.name == "examples" for p in SCRIPTS)
    assert any(p.parent.name == "e2e" for p in SCRIPTS)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: str(p.relative_to(ROOT)))
def test_repro_imports_resolve(path):
    for module, name in repro_imports(path):
        mod = importlib.import_module(module)
        if name is None or name == "*" or hasattr(mod, name):
            continue
        # ``from repro.pkg import submodule``
        importlib.import_module(f"{module}.{name}")
