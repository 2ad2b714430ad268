"""The names that code outside the package reaches patterngrid by: the
package's ``__all__``, and what the tracer in ``perfbench/tracing.py``
wraps and ``perfbench/inproc.py`` reads. A name deleted here would
otherwise fail only in a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import patterngrid
from patterngrid import cli, counting, grid, hierarchy, ingest, reinforce
from patterngrid.synth import synthetic_plants_text

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_exported_name_resolves():
    assert [name for name in patterngrid.__all__ if not hasattr(patterngrid, name)] == []


def test_reference_functions_are_not_exported():
    # the one-event grid count lives with the other references in tests/oracles.py
    assert "grid_update" not in patterngrid.__all__
    assert not hasattr(grid, "grid_update")


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
    # every span but the unused model.vocab wraps a call some job makes
    assert {span.name for span in spans} == set(tracing.SPANS) - {"model.vocab"}
    assert all(call.result is not None for call in calls)
