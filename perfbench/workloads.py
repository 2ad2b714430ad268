"""The benchmark's three corpora and the CLI jobs run on each.

Every corpus is a pure function of the workload name, the seed and the
scale, so the same arguments always give byte-identical files. Generation
happens once per benchmark run, before any timing starts.

Why these three workloads:

* ``plants`` is the default synthetic species-by-region corpus from
  ``patterngrid.synth`` (34,781 records over 70 region codes). Only about
  2% of its records are distinct member sets, so it is where caching or
  compressing by distinct set pays off. Parsing, the hierarchy's
  presentation walk and the ``--delta`` absence loop dominate.
* ``lowdup`` comes from the block generator below: a few hundred codes in
  blocks, at least 90% distinct member sets. Anything keyed on repeated
  sets is bypassed here, so such a change should show no gain. The cm
  presentation loop and hierarchy consolidation do most of the work.
* ``transpose`` pivots a 1,200-record synthetic corpus: the record labels
  become the vocabulary and each region code one long event. The grid is
  wide and dense, so extraction, the dense renderers and memory dominate
  while parsing and counting are nearly free. Records grouped by their
  home region serve as the reference. (At 2,000 records one grid job
  takes 7-8 s, too long for enough repeats in one run.)

Importing this module imports nothing from ``patterngrid``; generation
does, lazily, so the process that spawns timed jobs stays small.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

PLANTS_SEED = 77201  # patterngrid.synth.DEFAULT_SEED; seed 0 gives the default corpus
PLANTS_RECORDS = 34781
TRANSPOSE_RECORDS = 1200
# lowdup shape: BLOCKS blocks of BLOCK_SIZE codes; each record keeps every
# code of its home block with probability KEEP and adds SPILL_MAX or fewer
# codes drawn from the whole vocabulary.
LOWDUP_RECORDS = 8000
BLOCKS = 30
BLOCK_SIZE = 12
KEEP = 0.55
SPILL_MAX = 2

WORKLOADS = ("plants", "lowdup", "transpose")

# The defining property each corpus must have; checked at set-up.
MAX_PLANTS_DISTINCT_RATIO = 0.1
MIN_LOWDUP_DISTINCT_RATIO = 0.9


def _records(workload: str, scale: float) -> int:
    base = {"plants": PLANTS_RECORDS, "lowdup": LOWDUP_RECORDS, "transpose": TRANSPOSE_RECORDS}
    return max(40, round(base[workload] * scale))


def _lowdup_text(records: int, seed: int) -> tuple[str, list[list[str]]]:
    rng = random.Random(seed)
    blocks = [[f"b{b:02d}c{c:02d}" for c in range(BLOCK_SIZE)] for b in range(BLOCKS)]
    codes = [code for block in blocks for code in block]
    # one full row per block pins every code into the vocabulary
    lines = [f"r{b:05d}," + ",".join(block) for b, block in enumerate(blocks)]
    while len(lines) < records:
        block = blocks[int(rng.random() * BLOCKS)]
        members = [code for code in block if rng.random() < KEEP]
        if not members:
            members = [block[int(rng.random() * BLOCK_SIZE)]]
        for _ in range(int(rng.random() * (SPILL_MAX + 1))):
            extra = codes[int(rng.random() * len(codes))]
            if extra not in members:
                members.append(extra)
        lines.append(f"r{len(lines):05d}," + ",".join(members))
    return "\n".join(lines) + "\n", blocks


def _home_groups(text: str, groups) -> list[list[str]]:
    """Record labels grouped by home region. ``synth`` lists a record's
    home-group codes first and appends any spill code last, so the first
    code names the home group."""
    group_of = {code: gi for gi, group in enumerate(groups) for code in group}
    by_group: dict[int, list[str]] = {}
    for line in text.splitlines():
        label, first = line.split(",")[:2]
        by_group.setdefault(group_of[first], []).append(label)
    return [by_group[gi] for gi in sorted(by_group)]


def read_events(path: Path, transpose: bool) -> tuple[list[str], list[list[str]]]:
    """The vocabulary in first-seen order and the events as label lists,
    read without patterngrid so invariant checks stay independent of it."""
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines() if line]
    if transpose:
        by_member: dict[str, list[str]] = {}
        for row in rows:
            for member in row[1:]:
                by_member.setdefault(member, []).append(row[0])
        events = list(by_member.values())
    else:
        events = [row[1:] for row in rows]
    seen: dict[str, None] = {}
    for event in events:
        for label in event:
            seen.setdefault(label)
    return list(seen), events


def work_dir(workload: str, seed: int) -> Path:
    """Where a run keeps its corpus, relative to the checkout root. The CLI
    echoes input paths in its output, so the path must not depend on the
    checkout's location or the process for output digests to repeat."""
    return Path(".perfbench-work") / f"{workload}-{seed}"


def remove_work_dir(path: Path) -> None:
    """Delete a run's directory, and its parent once no run uses it."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass


def generate(workload: str, seed: int, scale: float, out: Path) -> dict:
    """Write ``corpus.txt`` (and ``reference.json`` where the reference is
    generated) under ``out``; check the workload's defining property and
    return its description, including the argv of every job."""
    from patterngrid import synth

    records = _records(workload, scale)
    corpus = out / "corpus.txt"
    reference = "plants_reference"
    generator_seed = seed if workload == "lowdup" else PLANTS_SEED + seed
    if workload == "plants":
        text = synth.synthetic_plants_text(records, generator_seed)
    elif workload == "lowdup":
        text, blocks = _lowdup_text(records, generator_seed)
        reference = str(out / "reference.json")
        Path(reference).write_text(json.dumps({"clusters": blocks}), encoding="utf-8")
    elif workload == "transpose":
        text = synth.synthetic_plants_text(records, generator_seed)
        groups = synth.load_fixture("plants_reference").cluster_label_sets
        reference = str(out / "reference.json")
        Path(reference).write_text(json.dumps({"clusters": _home_groups(text, groups)}), encoding="utf-8")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    corpus.write_text(text, encoding="utf-8")

    transpose = workload == "transpose"
    vocab, events = read_events(corpus, transpose)
    distinct = len({frozenset(e) for e in events})
    ratio = distinct / len(events)
    if workload == "plants" and not ratio <= MAX_PLANTS_DISTINCT_RATIO:
        raise SystemExit(f"plants: distinct ratio {ratio:.3f} above {MAX_PLANTS_DISTINCT_RATIO}")
    if workload == "lowdup" and not ratio >= MIN_LOWDUP_DISTINCT_RATIO:
        raise SystemExit(f"lowdup: distinct ratio {ratio:.3f} below {MIN_LOWDUP_DISTINCT_RATIO}")
    if transpose and not (len(vocab) == records and len(events) == 70):
        raise SystemExit(f"transpose: {len(vocab)} variables over {len(events)} events, "
                         f"expected {records} over 70")

    source = ["--input", str(corpus)] + (["--transpose"] if transpose else [])
    jobs = {
        "grid": ["cluster", "--method", "grid", *source, "--format", "json"],
        "cm": ["cluster", "--method", "cm", *source, "--format", "json"],
        "reinforce": ["cluster", "--method", "reinforce", "--delta", "1", *source, "--format", "json"],
        "hierarchy": ["hierarchy", *source, "--format", "json"],
        "compare": ["compare", "--method", "reinforce,cm,grid", *source,
                    "--reference", reference, "--format", "json"],
    }
    return {
        "workload": workload,
        "seed": seed,
        "generator_seed": generator_seed,
        "scale": scale,
        "records": records,
        "corpus": str(corpus),
        "transpose": transpose,
        "reference": reference,
        "variables": len(vocab),
        "events": len(events),
        "distinct_sets": distinct,
        "pair_work": sum(len(e) * (len(e) - 1) for e in events),
        "distinct_ratio": ratio,
        "jobs": jobs,
    }
