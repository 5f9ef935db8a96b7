"""The closed-form engines are plain arithmetic: no oracle, no numpy, no scipy;
the oracle, in turn, imports no closed-form engine."""

import ast
from pathlib import Path

import pytest

import mfbwalk

PACKAGE = Path(mfbwalk.__file__).parent
FORBIDDEN = {"oracle", "numpy", "scipy"}


def _imported_modules(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            if node.module:  # "mfbwalk.oracle" names the package and the module
                names.update(node.module.split("."))
            if node.level:  # "from . import oracle" names a sibling module
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["walk_model", "visit_engine", "absorption_engine"])
def test_engine_imports_no_oracle_or_numeric_library(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert not _imported_modules(tree) & FORBIDDEN


def test_the_check_sees_the_oracle_imports_of_the_cli():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert "oracle" in _imported_modules(tree)


def test_oracle_imports_no_closed_form_engine():
    # the oracles solve the defining systems; they never call a closed form
    tree = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    assert not _imported_modules(tree) & {"visit_engine", "absorption_engine"}


def test_golden_record_format_lives_in_the_oracle():
    # the CLI reads and writes golden records only through oracle.py
    text = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    for name in ("truncated_solver", "periodic_solve", "truncated_derivative"):
        assert name not in text
