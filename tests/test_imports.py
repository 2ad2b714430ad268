"""The package modules each command loads, seen from a fresh process.

Only ``hierarchy`` and ``compare`` run the hierarchy and evaluation layers,
so only they import those modules; every other command, and the
benchmark's set-up statement, loads neither. Each case runs its statement
in a fresh interpreter, which then lists its ``patterngrid`` modules.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import patterngrid

from .golden_cases import write_inputs

ROOT = Path(__file__).resolve().parents[1]
LAZY = {"patterngrid.hierarchy", "patterngrid.evaluate"}
# the package this test imports, from any working directory
ENV = dict(os.environ, PYTHONPATH=str(Path(patterngrid.__file__).resolve().parents[1]))
_COMPARE = ("--label-policy", "members", "--input", "hierarchy_rules.data", "--reference", "ref.json")


def _setup_statement() -> str:
    """``SETUP_PROBE``, the statement perfbench times as ``setup_s``."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "SETUP_PROBE":
            return node.value.value
    raise AssertionError("perfbench/run.py has no SETUP_PROBE")


# ends each statement: the patterngrid modules loaded, as stderr's last line
_LIST = "\nimport sys\nprint(*(m for m in sys.modules if m.startswith('patterngrid')), file=sys.stderr)"
# a command run through the CLI's in-process entry, argv from the command line
_CLI = "import sys\nfrom patterngrid.cli import entry\nassert entry(sys.argv[1:]) == 0"


def _loaded(tmp_path, statement: str, *argv: str) -> set[str]:
    """The patterngrid modules loaded once ``statement`` has run with ``argv``."""
    write_inputs(argv, tmp_path)
    done = subprocess.run(
        [sys.executable, "-c", statement + _LIST, *argv],
        cwd=tmp_path, env=ENV, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stderr.splitlines()[-1].split())


@pytest.mark.parametrize(
    "argv",
    [
        ("cluster", "--method", "grid", "--fixture", "seven_event", "--format", "json"),
        ("cluster", "--method", "cm", "--fixture", "seven_event", "--format", "csv"),
        ("cluster", "--method", "reinforce", "--fixture", "seven_event"),
        ("tables",),
    ],
    ids=["grid", "cm", "reinforce", "tables"],
)
def test_engine_commands_load_no_hierarchy_or_evaluation(tmp_path, argv):
    loaded = _loaded(tmp_path, _CLI, *argv)
    assert {"patterngrid.cli", "patterngrid.grid"} <= loaded
    assert loaded & LAZY == set()


def test_benchmark_setup_loads_no_hierarchy_or_evaluation(tmp_path):
    loaded = _loaded(tmp_path, _setup_statement())
    assert "patterngrid.cli" in loaded
    assert loaded & LAZY == set()


def test_hierarchy_loads_no_evaluation(tmp_path):
    loaded = _loaded(tmp_path, _CLI, "hierarchy", "--fixture", "seven_event")
    assert loaded & LAZY == {"patterngrid.hierarchy"}


def test_compare_loads_no_hierarchy(tmp_path):
    loaded = _loaded(tmp_path, _CLI, "compare", "--method", "reinforce,cm,grid", *_COMPARE)
    assert loaded & LAZY == {"patterngrid.evaluate"}


def test_star_import_binds_every_exported_name(tmp_path):
    statement = (
        "from patterngrid import *\n"
        "import patterngrid\n"
        "missing = [name for name in patterngrid.__all__ if name not in globals()]\n"
        "assert missing == [], missing"
    )
    assert _loaded(tmp_path, statement) >= {"patterngrid"} | LAZY
