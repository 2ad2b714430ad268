"""Transaction-file parsing and built-in fixtures.

The transaction format is UTF-8 text, one record per line, fields separated
by commas; one leading byte-order mark is dropped. Depending on the label
policy the first field is either a record label (the species name in the
plants file, dropped from membership) or an ordinary member. Malformed
lines are collected as diagnostics and skipped, never silently repaired;
only a file with zero parseable records is fatal, a ``DataError``.

Parsing is one pass: each line is tokenised, checked and encoded to dense
ids in the same loop, and the Dataset is built once. The checks happen at
this boundary, so the parser builds its Events and Dataset through the
trusted constructors in ``model``; the public ``Event(...)``,
``Dataset(...)`` and ``build_vocabulary`` keep every check for all other
callers.

Real corpora repeat a few member lists many times, so the parser does
that work once per distinct member text: it builds one Event object for
each and appends that same object for every line that repeats the text.
``Dataset.events`` may therefore hold one Event more than once; Events are
frozen, and no engine tells two equal Events apart.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import BinaryIO, Iterable

from .model import (
    ConfigError,
    DataError,
    Dataset,
    Event,
    Partition,
    _trusted_event,
    build_vocabulary,  # noqa: F401  re-exported; perfbench traces ingest.build_vocabulary
    partition_from_label_sets,
)


class LabelPolicy(Enum):
    # first field names the record and is not a member
    RECORD_LABEL = "record-label"
    # every field is a member
    MEMBERS = "members"


def parse_transactions(
    source: BinaryIO, policy: LabelPolicy = LabelPolicy.RECORD_LABEL, *, transpose: bool = False
) -> Dataset:
    """Parse a byte stream of transaction lines into a Dataset.

    One pass over the lines tokenises each one, rejects it with a
    diagnostic (empty field, no members, duplicate member) or hands its
    members dense ids in first-seen order. Rows are checked here, at the
    boundary, so the Events and the Dataset are built without checking
    them again; ``Event(...)``, ``Dataset(...)`` and ``build_vocabulary``
    keep their own checks for every other caller.

    A member text is the text after the record label, or the whole line
    under the members policy. It is split, checked and encoded the first
    time it parses; a later line with the same text only has its label
    checked and shares the first line's Event object. The memo lives for
    this call only.

    With ``transpose`` the file is flipped before encoding: record labels
    become the vocabulary and each member token becomes one event listing
    the records it appeared in (cluster species by state instead of states
    by species). Requires the record-label policy.
    """
    if transpose and policy is not LabelPolicy.RECORD_LABEL:
        raise ConfigError("transpose needs a record label to pivot on")

    # tolerant decoding: species names in the plants file carry non-ASCII
    # bytes; member tokens are plain ASCII either way. "utf-8-sig" drops
    # one leading byte-order mark, which would otherwise join the first token
    text = str(source.read(), "utf-8-sig", "replace")
    # lines end only at "\n", "\r\n" and "\r"; str.splitlines would also
    # break at U+0085, U+2028, "\x1c", "\v" and others inside a line
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    labelled = policy is LabelPolicy.RECORD_LABEL
    ids: dict[str, int] = {}
    events: list[Event] = []
    # member text -> the Event of the first line that parsed with it
    memo: dict[str, Event] = {}
    # transpose: each member's records, first appearance first; the inner
    # dict drops a repeated record label in constant time
    by_member: dict[str, dict[str, None]] = {}
    diagnostics: list[str] = []
    empty_label = False  # the members policy has no label
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        key = line
        if labelled:
            cut = line.find(",")
            if cut < 0:  # a label alone
                diagnostics.append(f"line {lineno}: no members")
                continue
            # the line is stripped, so a label is empty here or starts
            # with a non-space and stays non-empty once stripped itself
            key, empty_label = line[cut + 1 :], cut == 0
        event = memo.get(key)
        if event is not None and not empty_label:
            events.append(event)
            continue
        members = list(map(str.strip, key.split(",")))
        if empty_label or "" in members:
            diagnostics.append(f"line {lineno}: empty field")
            continue
        if len(set(members)) != len(members):
            diagnostics.append(f"line {lineno}: duplicate member")
            continue
        if transpose:
            label = line[:cut].strip()
            for m in members:
                by_member.setdefault(m, {})[label] = None
        else:
            event = memo[key] = _trusted_event(_encode(members, ids))
            events.append(event)
    if transpose:
        events = [_trusted_event(_encode(group, ids)) for group in by_member.values()]

    if not events:
        raise DataError("no parseable records in the source")
    return Dataset._trusted(tuple(ids), tuple(events), tuple(diagnostics))


def _encode(tokens: Iterable[str], ids: dict[str, int]) -> tuple[int, ...]:
    """The ids of distinct ``tokens``; a token not in ``ids`` gets the next
    dense id there, so every id is below ``len(ids)`` by construction."""
    try:
        return tuple(map(ids.__getitem__, tokens))
    except KeyError:
        return tuple([ids.setdefault(t, len(ids)) for t in tokens])


def parse_transactions_path(
    path: str, policy: LabelPolicy = LabelPolicy.RECORD_LABEL, *, transpose: bool = False
) -> Dataset:
    with open(path, "rb") as source:
        return parse_transactions(source, policy, transpose=transpose)


@dataclass(frozen=True, slots=True)
class ReferenceClusters:
    """A published reference clustering, kept as label sets so it can be
    re-indexed against whatever vocabulary a run produced."""

    labels: tuple[str, ...]
    cluster_label_sets: tuple[tuple[str, ...], ...]

    def align(self, labels) -> Partition:
        """The reference as a Partition over someone else's vocabulary."""
        return partition_from_label_sets(labels, self.cluster_label_sets)


FIXTURES = ("seven_event", "plants_reference")


def _data_bytes(name: str) -> bytes:
    return resources.files("patterngrid.data").joinpath(name).read_bytes()


def reference_from_clusters(cluster_label_sets) -> ReferenceClusters:
    """Build a ReferenceClusters whose universe is exactly the labels the
    clusters mention, in first-mention order."""
    clusters = tuple(tuple(c) for c in cluster_label_sets)
    labels: list[str] = []
    seen: dict[str, int] = {}  # label -> the index of its cluster
    for i, cluster in enumerate(clusters):
        if not cluster:
            raise DataError("reference contains an empty cluster")
        for label in cluster:
            try:
                where = seen.get(label)
            except TypeError:
                raise DataError(f"reference label {label!r} is not hashable") from None
            if where == i:
                raise DataError(f"label {label!r} repeats within one reference cluster")
            if where is not None:
                raise DataError(f"label {label!r} appears in two reference clusters")
            seen[label] = i
            labels.append(label)
    if not clusters:
        raise DataError("reference contains no clusters")
    return ReferenceClusters(tuple(labels), clusters)


def load_reference_path(path: str) -> ReferenceClusters:
    """Read a reference clustering from a JSON file shaped like
    {"clusters": [["label", ...], ...]}, with or without a leading
    byte-order mark."""
    with open(path, "rb") as source:
        raw = source.read()
    try:
        payload = json.loads(str(raw, "utf-8-sig"))
    except ValueError as exc:
        raise DataError(f"{path}: not a UTF-8 JSON file ({exc})") from None
    except RecursionError:
        raise DataError(f"{path}: JSON nested too deeply to read") from None
    clusters = payload.get("clusters") if isinstance(payload, dict) else None
    # a string is iterable too, and would split into one-letter labels
    if not isinstance(clusters, list) or not all(
        isinstance(c, list) and all(isinstance(label, str) for label in c) for c in clusters
    ):
        raise DataError(f'{path}: expected {{"clusters": [["label", ...], ...]}}')
    try:
        return reference_from_clusters(clusters)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def load_fixture(name: str) -> Dataset | ReferenceClusters:
    """Built-in inputs: ``seven_event`` is the worked seven-line example as
    a Dataset; ``plants_reference`` is the published 31-cluster plants
    reference as ReferenceClusters."""
    if name == "seven_event":
        raw = _data_bytes("seven_event.txt")
        return parse_transactions(io.BytesIO(raw), LabelPolicy.MEMBERS)
    if name == "plants_reference":
        payload = json.loads(_data_bytes("plants_reference.json"))
        return reference_from_clusters(payload["clusters"])
    raise DataError(f"unknown fixture {name!r}; have {', '.join(FIXTURES)}")
