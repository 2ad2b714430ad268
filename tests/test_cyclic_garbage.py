"""What a CLI run leaves for the cyclic garbage collector does not grow with
its input.

``cli.main`` runs ``entry`` with the collector off, so an engine that built
one reference cycle per event would leak memory in proportion to its
input. Each command here runs in process with the collector off, on two
corpora of different sizes, and ``gc.collect()`` must then find the same
number of unreachable objects after both.
"""

import gc
import os
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from patterngrid.cli import METHODS, entry

BLOCKS, BLOCK_SIZE = 30, 12
CODES = [[f"b{b:02d}c{c:02d}" for c in range(BLOCK_SIZE)] for b in range(BLOCKS)]


def _lowdup_text(records: int, seed: int) -> str:
    """Mostly distinct records: each keeps about half of one block's codes
    and adds up to two codes from anywhere. One full row per block comes
    first, so every corpus has the same vocabulary."""
    rng = random.Random(seed)
    everything = [code for block in CODES for code in block]
    lines = [",".join(block) for block in CODES]
    while len(lines) < records:
        members = [code for code in rng.choice(CODES) if rng.random() < 0.55]
        members += rng.sample(everything, rng.randint(0, 2))
        lines.append(",".join(dict.fromkeys(members)) or CODES[0][0])
    return "".join(f"r{i:05d},{line}\n" for i, line in enumerate(lines))


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    directory = tmp_path_factory.mktemp("lowdup")
    paths = []
    for records in (500, 4000):
        path = directory / f"lowdup{records}.data"
        path.write_text(_lowdup_text(records, records))
        paths.append(str(path))
    reference = directory / "blocks.json"
    reference.write_text('{"clusters": [%s]}' % ",".join(
        "[" + ",".join(f'"{code}"' for code in block) + "]" for block in CODES
    ))
    return paths, str(reference)


def _left_for_the_collector(argv) -> int:
    """Unreachable objects ``gc.collect()`` finds after ``entry(argv)`` ran
    with the collector off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        with open(os.devnull, "w") as sink, redirect_stdout(sink), redirect_stderr(sink):
            assert entry(list(argv)) == 0
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize(
    "command",
    [("cluster", "--method", method) for method in METHODS]
    + [("hierarchy",), ("compare", "--method", ",".join(METHODS))],
    ids=[*METHODS, "hierarchy", "compare"],
)
def test_cyclic_garbage_does_not_grow_with_the_input(corpora, command):
    (small, large), reference = corpora
    if command[0] == "compare":
        command = (*command, "--reference", reference)
    runs = {path: (*command, "--input", path, "--format", "json") for path in (small, large)}
    # a first run fills what the process caches once, such as compiled regexes
    _left_for_the_collector(runs[small])
    counts = [_left_for_the_collector(runs[path]) for path in (small, large)]
    assert counts[0] == counts[1], counts
    assert gc.isenabled()
