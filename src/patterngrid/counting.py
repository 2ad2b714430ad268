"""Unique-instance counting with local and global counters.

Every distinct member set presented becomes a stored instance of its own.
The local count I tracks exact re-presentations of the instance's set; the
global count G tracks every event from the instance's creation onward
(creation included) that shares at least one member with it. The gap
between G and I measures coherence: a group whose members rarely fire
without the whole group keeps G close to I, and such groups make the best
cluster candidates.

Presentation is strictly sequential: results depend on event order through
the creation indices, so the contract is single writer, deterministic given
the event sequence. Reads are safe once presentation completes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import Event, Partition, Weights, validate_event


@dataclass(slots=True)
class InstanceRecord:
    """A unique pattern instance with its two counters.

    ``local_count`` is bumped only by exact-set presentations and
    ``global_count`` by any overlapping presentation since creation, so
    ``global_count >= local_count >= 1`` always holds.
    """

    pattern: frozenset[int]
    local_count: int | float
    global_count: int | float
    created_at: int


@dataclass(slots=True, eq=False)
class InstanceStore:
    """Unique instances keyed by pattern set, in creation order."""

    n: int
    records: list[InstanceRecord] = field(default_factory=list)
    event_counter: int = 0
    _by_pattern: dict[frozenset[int], int] = field(default_factory=dict)
    _postings: dict[int, list[int]] = field(default_factory=dict)

    @classmethod
    def empty(cls, n: int) -> InstanceStore:
        return cls(n)

    def find(self, pattern: frozenset[int]) -> InstanceRecord | None:
        idx = self._by_pattern.get(pattern)
        return None if idx is None else self.records[idx]


def present(store: InstanceStore, event: Event, weights: Weights = Weights()) -> InstanceStore:
    """Present one event to the store.

    Every pre-existing instance sharing at least one member with the event
    gains omega_g on its global count (an exact match is also an overlap of
    itself). An exact-set match gains omega_i on its local count; otherwise
    a new instance is created with I = omega_i and G = omega_g, the creation
    event counting as the instance's first overlap exactly once.
    """
    validate_event(event, store.n)
    key = event.member_set()
    touched: set[int] = set()
    for v in key:
        touched.update(store._postings.get(v, ()))
    for idx in touched:
        store.records[idx].global_count += weights.omega_g
    hit = store._by_pattern.get(key)
    if hit is not None:
        store.records[hit].local_count += weights.omega_i
    else:
        record = InstanceRecord(key, weights.omega_i, weights.omega_g, store.event_counter)
        store._by_pattern[key] = len(store.records)
        for v in sorted(key):
            store._postings.setdefault(v, []).append(len(store.records))
        store.records.append(record)
    store.event_counter += 1
    return store


def present_all(store: InstanceStore, events, weights: Weights = Weights()) -> InstanceStore:
    for event in events:
        present(store, event, weights)
    return store


def coherence(record: InstanceRecord) -> int | float:
    """How far the global count has drifted from the local count (0 is perfect)."""
    return record.global_count - record.local_count


def selection_key(record: InstanceRecord):
    """Deterministic sort key: best coherence first, then larger I, smaller
    pattern, and finally the sorted id tuple."""
    return (coherence(record), -record.local_count, len(record.pattern), tuple(sorted(record.pattern)))


def select_clusters(store: InstanceStore) -> Partition:
    """Greedy disjoint cover: instances are taken in coherence order and
    accepted when they share no member with anything already accepted."""
    accepted: list[frozenset[int]] = []
    taken: set[int] = set()
    for record in sorted(store.records, key=selection_key):
        if taken.isdisjoint(record.pattern):
            accepted.append(record.pattern)
            taken |= record.pattern
    return Partition(store.n, tuple(accepted), frozenset(range(store.n)) - taken)
