"""The names that code outside the package reaches patterngrid by: the
package's ``__all__``, and what the tracer in ``perfbench/tracing.py``
wraps and ``perfbench/inproc.py`` reads. A name deleted here would
otherwise fail only in a traced benchmark run. Also the names the package
no longer has, and a check that each module uses what it imports."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import patterngrid
from patterngrid import cli, counting, grid, hierarchy, ingest, reinforce
from patterngrid.synth import synthetic_plants_text

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
SRC = ROOT / "src" / "patterngrid"


def test_every_exported_name_resolves():
    assert [name for name in patterngrid.__all__ if not hasattr(patterngrid, name)] == []


def test_reference_functions_are_not_exported():
    # the one-event references and head_set live in tests/oracles.py and the
    # shard merges are gone; each engine keeps its batch call
    names = {"grid_update", "present", "present_pattern", "grid_merge", "head_set"}
    assert names & set(patterngrid.__all__) == set()
    gone = [
        (grid, "grid_update"),
        (grid, "grid_merge"),
        (grid, "head_set"),
        (reinforce, "merge"),
        (counting, "present"),
        (reinforce, "update"),
        (hierarchy, "present_pattern"),
        (hierarchy, "Extension"),
        (counting.InstanceStore, "_postings"),
    ]
    assert [f"{owner.__name__}.{attr}" for owner, attr in gone if hasattr(owner, attr)] == []


# names a module imports for code outside the package to reach through it
REEXPORTED = {("ingest", "build_vocabulary")}  # perfbench traces ingest.build_vocabulary


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name a module-level import binds, with the import's line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(), str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        f"{path.name}:{line}: {name}"
        for name, line in _imported_names(tree).items()
        if name not in used and (path.stem, name) not in REEXPORTED
    ]
    assert unused == []


@pytest.fixture()
def tracing(monkeypatch):
    """``perfbench/tracing.py`` loaded by path, writing no bytecode beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are created
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_exists(tracing):
    targets = [target for targets in tracing.SPANS.values() for target in targets]
    missing = [
        f"{module}.{attr}"
        for module, attr in targets
        if not callable(getattr(importlib.import_module(f"patterngrid.{module}"), attr, None))
    ]
    assert missing == []


def test_every_attribute_read_after_a_job_exists():
    reads = [
        (hierarchy, "walk"),
        (grid.CountMatrix, "cells"),
        (grid.CountMatrix, "increments"),
        (grid.CountMatrix, "n"),
        (grid.GridClusterResult, "links"),
        (patterngrid.Event, "member_set"),
        (patterngrid.Event, "members"),
        (patterngrid.Dataset, "events"),
        (patterngrid.Dataset, "diagnostics"),
        (reinforce.ReinforceState, "n"),
        (counting.InstanceStore, "records"),
        (counting.InstanceRecord, "global_count"),
        (hierarchy.PatternNode, "subset_counts"),
    ]
    assert [f"{owner.__name__}.{attr}" for owner, attr in reads if not hasattr(owner, attr)] == []


def test_traced_jobs_record_their_spans(tracing, capsys, tmp_path):
    path = tmp_path / "corpus.data"
    path.write_text(synthetic_plants_text(200, 3))
    modules = {
        "cli": cli, "counting": counting, "grid": grid,
        "hierarchy": hierarchy, "ingest": ingest, "reinforce": reinforce,
    }
    originals = {name: vars(module).copy() for name, module in modules.items()}
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        for argv in (
            ["cluster", "--method", "grid", "--format", "json"],
            ["cluster", "--method", "cm"],
            ["cluster", "--method", "reinforce"],
            ["hierarchy", "--format", "json"],
            ["compare", "--method", "grid", "--reference", "plants_reference"],
        ):
            assert cli.entry([*argv, "--input", str(path)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert {name: vars(module) for name, module in modules.items()} == originals
    spans, calls = tracer.take()
    # every span but the unused model.vocab wraps a call some job makes;
    # every call but a renderer's returns what perfbench reads its counts from
    assert {span.name for span in spans} == set(tracing.SPANS) - {"model.vocab"}
    assert all(call.result is not None for call in calls if not call.name.endswith(".render"))
