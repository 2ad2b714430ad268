"""Correctness checks on the JSON each job prints.

Each invariant is computed from the corpus file with the benchmark's own
reader and loops, not with the engine under test; only the compare check
calls ``patterngrid.evaluate.pairwise_agreement``, on partitions taken
from the other jobs' outputs and from a banding done here.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import read_events


def _eager_reinforce(vocab: list[str], events: list[list[str]], delta: int) -> dict[str, int]:
    """Per-variable counts with the absence decrement applied to every
    absent variable after every event, floored at zero."""
    index = {label: i for i, label in enumerate(vocab)}
    counts = [0] * len(vocab)
    for event in events:
        present = {index[label] for label in event}
        for v in present:
            counts[v] += 1
        if delta:
            for v in range(len(counts)):
                if v not in present:
                    counts[v] = max(0, counts[v] - delta)
    return dict(zip(vocab, counts))


def _band_clusters(counts: dict[str, int]) -> list[list[str]]:
    """Equal-count bands with two or more members, as reinforce makes them."""
    bands: dict[int, list[str]] = {}
    for label, count in counts.items():
        bands.setdefault(count, []).append(label)
    return [members for members in bands.values() if len(members) >= 2]


def _check_grid(payload, vocab, events) -> list[str]:
    matrix = payload["detail"]["matrix"]
    cells = matrix["cells"]
    problems = []
    if matrix["labels"] != vocab:
        problems.append("grid labels differ from the vocabulary")
    n = len(vocab)
    if len(cells) != n or any(len(row) != n for row in cells):
        return problems + [f"grid is not {n}x{n}"]
    if any(cells[i][i] for i in range(n)):
        problems.append("grid diagonal is not empty")
    if any(cells[i][j] != cells[j][i] for i in range(n) for j in range(i + 1, n)):
        problems.append("grid is not symmetric")
    pair_work = sum(len(e) * (len(e) - 1) for e in events)
    total = sum(map(sum, cells))
    if total != pair_work:
        problems.append(f"grid cells sum to {total}, expected sum k(k-1) = {pair_work}")
    return problems


def _check_cm(payload, events) -> list[str]:
    instances = payload["detail"]["instances"]
    problems = []
    local = sum(inst["local"] for inst in instances)
    if local != len(events):
        problems.append(f"cm local counts sum to {local}, expected {len(events)} events")
    distinct = len({frozenset(e) for e in events})
    if len(instances) != distinct:
        problems.append(f"cm stored {len(instances)} instances, expected {distinct} distinct sets")
    return problems


def _check_reinforce(payload, vocab, events) -> list[str]:
    expected = _eager_reinforce(vocab, events, delta=payload["parameters"]["delta"])
    if payload["detail"]["counts"] != expected:
        return ["reinforce counts differ from the eager absence loop"]
    return []


def _check_hierarchy(payload, events) -> list[str]:
    if not payload["mass"] == payload["presentations"] == len(events):
        return [
            f"hierarchy mass {payload['mass']}, presentations {payload['presentations']},"
            f" events {len(events)} are not all equal"
        ]
    return []


def _check_compare(payload, payloads, vocab, events, reference) -> list[str]:
    from patterngrid.evaluate import pairwise_agreement
    from patterngrid.ingest import load_fixture, load_reference_path
    from patterngrid.model import partition_from_label_sets

    if reference == "plants_reference":
        truth = load_fixture(reference).align(vocab)
    else:
        truth = load_reference_path(reference).align(vocab)
    clusters = {
        "reinforce": _band_clusters(_eager_reinforce(vocab, events, delta=0)),
        "cm": payloads["cm"]["clusters"],
        "grid": payloads["grid"]["clusters"],
    }
    problems = []
    for method, groups in clusters.items():
        report = pairwise_agreement(partition_from_label_sets(vocab, groups), truth)
        printed = payload["reports"][method]["pairwise_f1"]
        if printed != report.pairwise_f1:
            problems.append(f"compare {method} F1 {printed} != in-process {report.pairwise_f1}")
    return problems


def check_outputs(meta: dict, outputs: dict[str, bytes]) -> dict[str, list[str]]:
    """Problems found in each job's output; an empty list means it passed."""
    vocab, events = read_events(Path(meta["corpus"]), meta["transpose"])
    payloads = {}
    problems: dict[str, list[str]] = {}
    for job, data in outputs.items():
        try:
            payloads[job] = json.loads(data)
        except ValueError as exc:
            problems[job] = [f"output is not JSON: {exc}"]
    checks = {
        "grid": lambda p: _check_grid(p, vocab, events),
        "cm": lambda p: _check_cm(p, events),
        "reinforce": lambda p: _check_reinforce(p, vocab, events),
        "hierarchy": lambda p: _check_hierarchy(p, events),
        "compare": lambda p: _check_compare(p, payloads, vocab, events, meta["reference"]),
    }
    for job, payload in payloads.items():
        if job == "compare" and not {"cm", "grid"} <= payloads.keys():
            problems[job] = ["compare cannot be checked without the cm and grid outputs"]
            continue
        try:
            problems[job] = checks[job](payload)
        except (KeyError, TypeError, IndexError) as exc:
            problems[job] = [f"output lacks an expected field: {exc!r}"]
    return problems
