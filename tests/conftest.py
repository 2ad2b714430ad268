import os
import sys

import pytest

# no run leaves bytecode in src/: the benchmark and its memory guard measure
# a checkout without it, and CI fails a tier-1 run that writes any
sys.dont_write_bytecode = True
os.environ.setdefault("PYTHONDONTWRITEBYTECODE", "1")

from patterngrid.ingest import load_fixture
from patterngrid.model import Dataset
from patterngrid.synth import write_synthetic_plants


@pytest.fixture()
def seven() -> Dataset:
    dataset = load_fixture("seven_event")
    assert isinstance(dataset, Dataset)
    return dataset


@pytest.fixture(scope="session")
def plants_path(tmp_path_factory) -> str:
    """Path to a full-size plants transaction file.

    Set PLANTS_FILE to run the performance and agreement tests against the
    real distributed file; otherwise a deterministic synthetic corpus of
    the same shape is generated once per session.
    """
    override = os.environ.get("PLANTS_FILE")
    if override:
        return override
    path = tmp_path_factory.mktemp("plants") / "plants.data"
    write_synthetic_plants(str(path))
    return str(path)
