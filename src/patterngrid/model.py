"""Shared data model: events, datasets, weights, partitions.

A variable is a dense integer id. Everything downstream (the three
counting engines, the hierarchy and the evaluation code) works on those
ids alone. Labels are kept only on the Dataset, as one tuple indexed by
id, so results can be rendered back as text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, repeat
from typing import Iterable, NamedTuple, Sequence


class DataError(ValueError):
    """Invalid input data: bad events, unknown ids, mismatched universes."""


class ConfigError(ValueError):
    """Invalid parameter or option value."""


@dataclass(frozen=True, slots=True)
class Event:
    """One presentation of a set of co-occurring variables.

    Presentation order is kept. The counting engines only look at the
    member set, but keeping the order makes ingestion lossless.
    """

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise DataError("event has no members")
        for m in self.members:
            # exactly int: a float or bool id would hash equal to an int one
            if type(m) is not int:
                raise DataError(f"event member {m!r} is not an int id")
        if len(set(self.members)) != len(self.members):
            raise DataError(f"duplicate members in event {self.members!r}")

    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)


_set_members = Event.members.__set__


def _trusted_event(members: tuple[int, ...]) -> Event:
    """An Event built without ``Event.__post_init__``'s checks.

    The caller guarantees that ``members`` is a non-empty tuple of distinct
    ints: only a parser that has already rejected empty and duplicate rows
    may use it, and everyone else calls ``Event(...)``.
    """
    event = object.__new__(Event)
    _set_members(event, members)
    return event


def validate_event(event: Event, n: int) -> None:
    """Reject events that mention ids outside the vocabulary 0..n-1."""
    for m in event.members:
        if not 0 <= m < n:
            raise DataError(f"event member id {m} outside vocabulary of size {n}")


@dataclass(frozen=True, slots=True)
class Dataset:
    """An ordered event list over a fixed vocabulary.

    ``labels[i]`` is the label of id ``i``. Immutable after construction;
    safe to share across readers. Rejected input rows are reported in
    ``diagnostics``, never silently repaired.
    """

    labels: tuple[str, ...]
    events: tuple[Event, ...]
    diagnostics: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for event in self.events:
            validate_event(event, len(self.labels))

    @classmethod
    def _trusted(
        cls, labels: tuple[str, ...], events: tuple[Event, ...], diagnostics: tuple[str, ...]
    ) -> Dataset:
        """A Dataset built without ``__post_init__``'s range check.

        The caller guarantees that every member id of every event lies in
        ``0..len(labels)-1``, for instance because the ids were handed out
        by the caller's own label dict, as ``labels`` lists them.
        """
        dataset = object.__new__(cls)
        object.__setattr__(dataset, "labels", labels)
        object.__setattr__(dataset, "events", events)
        object.__setattr__(dataset, "diagnostics", diagnostics)
        return dataset

    @property
    def n(self) -> int:
        return len(self.labels)


def build_vocabulary(raw_events: Iterable[Sequence[str]]) -> Dataset:
    """Assign dense ids in first-seen order and re-encode the events.

    An event containing a duplicate token (or no tokens at all) is rejected
    with a diagnostic; its tokens do not enter the vocabulary.
    """
    ids: dict[str, int] = {}
    events: list[Event] = []
    diagnostics: list[str] = []
    for pos, tokens in enumerate(raw_events):
        tokens = list(tokens)
        if not tokens:
            diagnostics.append(f"event {pos}: no tokens")
            continue
        if len(set(tokens)) != len(tokens):
            diagnostics.append(f"event {pos}: duplicate token in {tokens!r}")
            continue
        events.append(Event(tuple(ids.setdefault(tok, len(ids)) for tok in tokens)))
    return Dataset(tuple(ids), tuple(events), tuple(diagnostics))


@dataclass(frozen=True, slots=True)
class Weights:
    """Increment sizes shared by the counting engines.

    ``omega_i`` is added for a present variable, ``omega_g`` for a group
    overlap, and ``delta`` is the optional absence decrement used only by
    the per-variable reinforcement engine.
    """

    omega_i: int | float = 1
    omega_g: int | float = 1
    delta: int | float = 0

    def __post_init__(self) -> None:
        if not 0 < self.omega_i < math.inf:
            raise ConfigError("omega_i must be positive and finite")
        if not 0 < self.omega_g < math.inf:
            raise ConfigError("omega_g must be positive and finite")
        if not 0 <= self.delta < math.inf:
            raise ConfigError("delta must be non-negative and finite")


def fold(value, step, times: int):
    """``value`` after ``times`` steps of ``value += step``, the sum a batch
    count must give to match one ``+=`` per event. The closed form is used
    only for int + int, where it is exact; floats round at every step, so
    they are added one by one."""
    if type(value) is int and type(step) is int:
        return value + times * step
    for value in accumulate(repeat(step, times), initial=value):
        pass
    return value


def folds(step, counts) -> dict:
    """``fold(0, step, k)`` for each distinct count k in ``counts``. Each
    continues the fold of the next smaller count, so only the largest count's
    steps are taken, and no value is held for a count that does not occur."""
    values, value, done = {}, 0, 0
    for k in sorted(set(counts)):
        value = values[k] = fold(value, step, k - done)
        done = k
    return values


@dataclass(frozen=True, slots=True)
class Partition:
    """Disjoint clusters over ids 0..n-1 plus explicitly unassigned ids."""

    n: int
    clusters: tuple[frozenset[int], ...]
    unassigned: frozenset[int]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for cluster in self.clusters:
            if not cluster:
                raise DataError("empty cluster in partition")
            if seen & cluster:
                raise DataError("clusters are not disjoint")
            seen |= cluster
        if seen & self.unassigned:
            raise DataError("unassigned ids overlap a cluster")
        if seen | self.unassigned != set(range(self.n)):
            raise DataError("partition does not cover the vocabulary")

    def label_clusters(self, labels: Sequence[str]) -> list[list[str]]:
        return [sorted(labels[i] for i in cluster) for cluster in self.clusters]

    def label_unassigned(self, labels: Sequence[str]) -> list[str]:
        return sorted(labels[i] for i in self.unassigned)

    def cluster_ids(self) -> list[int]:
        """Each id's index in ``clusters``, or -1 for an unassigned id."""
        ids = [-1] * self.n
        for ci, cluster in enumerate(self.clusters):
            for v in cluster:
                ids[v] = ci
        return ids

    def with_singleton_clusters(self) -> Partition:
        """Move every unassigned id into its own one-member cluster."""
        extra = tuple(frozenset({v}) for v in sorted(self.unassigned))
        return Partition(self.n, self.clusters + extra, frozenset())


def partition_from_label_sets(
    labels: Sequence[str], cluster_label_sets: Iterable[Iterable[str]]
) -> Partition:
    """Build a Partition over ``labels`` from clusters given as label sets.

    Labels not mentioned by any cluster fall into ``unassigned``. Unknown
    labels raise DataError (a universe mismatch).
    """
    index = {label: i for i, label in enumerate(labels)}
    if len(index) != len(labels):
        raise DataError("vocabulary labels are not unique")
    clusters = []
    for group in cluster_label_sets:
        members = set()
        for label in group:
            if label not in index:
                raise DataError(f"label {label!r} not in the vocabulary")
            members.add(index[label])
        clusters.append(frozenset(members))
    covered: set[int] = set()
    for cluster in clusters:
        covered |= cluster
    unassigned = frozenset(range(len(labels))) - covered
    return Partition(len(labels), tuple(clusters), unassigned)


class _Link(NamedTuple):
    a: int
    b: int
    strength: int | float


class InterPatternLink(_Link):
    """A residual cross-cluster co-occurrence, reported rather than merged."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, strength: int | float) -> InterPatternLink:
        if a == b:
            raise DataError("link endpoints must differ")
        if strength <= 0:
            raise DataError("link strength must be positive")
        return super().__new__(cls, a, b, strength)

    @classmethod
    def _make(cls, iterable) -> InterPatternLink:
        """namedtuple's ``_make``, which ``_replace`` calls, with the checks."""
        return cls(*iterable)


# unchecked, for grid extraction, whose positive off-diagonal cells make valid links
_trusted_link = partial(tuple.__new__, InterPatternLink)
