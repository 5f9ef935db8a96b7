"""The closed-form engines are plain arithmetic: no oracle, no numpy, no scipy;
the oracle, in turn, imports no closed-form engine."""

import ast
import importlib
import subprocess
import sys
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


def test_verify_reaches_the_oracles_through_the_battery():
    # cli.py names no oracle solve and calls the walker itself only for the
    # simulate command: verify runs every oracle through one Battery
    text = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    for name in ("truncated_visits", "periodic_mean_times", "derivatives"):
        assert name not in text
    tree = ast.parse(text)
    callers = [fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Attribute) and node.attr == "simulate"
               and isinstance(node.value, ast.Name) and node.value.id == "oracle"]
    assert callers == ["_cmd_simulate"]


def test_no_module_imports_scipy():
    # the oracles solve in numpy and plain Python; scipy is a test reference
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert "scipy" not in _imported_modules(tree), path.name


def test_closed_form_commands_never_load_scipy():
    # numpy loads with the oracle module, never with the package or a
    # closed-form command, and scipy never; the package's oracle names
    # import the oracle module on first use
    model = "--p .3 --q .25 --p0 .3 --q0 .3 --s0 .2 --N 10 --i0 0"
    commands = ["reach --from 0 --to 3", "visits", "absorb-dist",
                "mean-time", "mean-time --i 4", "barrier-time"]
    code = ("import sys, mfbwalk, mfbwalk.cli\n"
            "assert not {'numpy', 'scipy'} & set(sys.modules)\n"
            "from mfbwalk.cli import main\n"
            f"for command in {commands!r}:\n"
            f"    assert main([*command.split(), *{model!r}.split()]) == 0\n"
            "    assert not {'numpy', 'scipy'} & set(sys.modules), command\n"
            "from mfbwalk import simulate\n"
            "assert simulate is sys.modules['mfbwalk.oracle'].simulate\n"
            "assert not hasattr(mfbwalk, 'no_such_name')\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=PACKAGE.parent, timeout=120)
    assert done.returncode == 0, done.stderr


def test_simulate_sizes_its_step_cap_without_scipy():
    # the default step cap comes from periodic_mean_times, solved by the
    # numpy GTH reduction
    model = "--p .4 --q .2 --p0 .2 --q0 .2 --s0 .2 --N 2 --i0 0"
    code = ("import sys\n"
            "from mfbwalk.cli import main\n"
            f"assert main(['simulate', '--walks', '1000', *{model!r}.split()]) == 0\n"
            "assert 'numpy' in sys.modules\n"
            "assert 'scipy' not in sys.modules\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=PACKAGE.parent, timeout=120)
    assert done.returncode == 0, done.stderr


def test_verify_never_loads_scipy():
    # the truncated lattice is solved by cyclic reduction in numpy: neither
    # the golden batteries nor the Monte-Carlo rows load scipy
    root = PACKAGE.parents[1]
    runs = [["verify", "--model", str(root / "models" / f"{name}.json"),
             "--golden", str(root / "goldens" / f"{name}.json")]
            for name in ("cfg-drift", "cfg-sym")]
    runs.append(["verify", "--model", str(root / "models" / "cfg-drift.json"),
                 "--walks", "1000"])
    code = ("import sys\n"
            "from mfbwalk.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "assert 'numpy' in sys.modules\n"
            "assert 'scipy' not in sys.modules\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=PACKAGE.parent, timeout=300)
    assert done.returncode == 0, done.stderr


def test_per_model_caches_are_known_by_name():
    # every lru_cache wrapper among the attributes of the package's modules:
    # the three per-model caches, of 512 entries (the mean-time record also
    # holds the model's period), and the CLI's one parser, which holds the
    # row layouts too.  A cache added or dropped fails here until this
    # list, which names what a clear of the per-model caches must reach,
    # changes with it
    caches = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"mfbwalk.{path.stem}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_parameters", None)):
                name = f"{value.__module__}.{value.__qualname__}"
                caches[name.removeprefix("mfbwalk.")] = \
                    value.cache_parameters()["maxsize"]
    assert caches == {"walk_model.barrier_spectrum": 512,
                      "visit_engine.boundary_coefficients": 512,
                      "absorption_engine._mean_time_constants": 512,
                      "cli.build_parser": None}


@pytest.mark.parametrize("module", ["visit_engine", "absorption_engine"])
def test_the_drift_enters_the_engines_through_the_spectrum(module):
    # the log ratio of the drift and every power of rho are derived in
    # walk_model.barrier_spectrum alone; an engine takes no log and forms
    # no rho ** n of its own
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    logs = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr.startswith("log")
            and isinstance(node.value, ast.Name) and node.value.id == "math"]
    powers = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
              and getattr(node.left, "id", getattr(node.left, "attr", None))
              == "rho"]
    assert (logs, powers) == ([], [])
