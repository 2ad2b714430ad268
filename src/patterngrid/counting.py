"""Unique-instance counting with local and global counters.

Every distinct member set presented becomes a stored instance of its own,
kept as its member ids in an ascending tuple. The local count I tracks
exact re-presentations of the instance's set; the global count G tracks
every event from the instance's creation onward (creation included) that
shares at least one member with it. The gap between G and I measures
coherence: a group whose members rarely fire without the whole group keeps
G close to I, and such groups make the best cluster candidates.

Presentation is strictly sequential: results depend on event order through
the creation indices, so the contract is single writer, deterministic given
the event sequence. Reads are safe once presentation completes.

``present_all`` is the package's only presentation path. It leaves the
store that the per-event reference ``present`` in ``tests/oracles.py``
does, but works from a vertical layout, the tid bitmaps of Eclat (Zaki,
TKDE 2000) and MAFIA (Burdick, Calimlim & Gehrke, ICDE 2001): bit t of
``occ[v]`` is set when event t holds v, so the events overlapping a
pattern created at event c are the set bits of the OR of its members' rows
from bit c on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import or_

from .model import Partition, Weights, fold, folds, validate_event

# Bytes of occurrence bitsets ``present_all`` holds at once. Past it, the
# events are taken in consecutive blocks of at most this many bytes of rows.
OCCURRENCE_BUDGET = 32 << 20


@dataclass(slots=True)
class InstanceRecord:
    """A unique pattern instance with its two counters.

    ``pattern`` is the instance's member ids as an ascending tuple, which
    holds a set of five or more ids in a fraction of a frozenset's memory.
    ``local_count`` is bumped only by exact-set presentations and
    ``global_count`` by any overlapping presentation since creation, so
    counted in events ``global_count / omega_g >= local_count / omega_i >= 1``
    always holds; the counts themselves obey ``global_count >= local_count``
    only when ``omega_g >= omega_i``.
    """

    pattern: tuple[int, ...]
    local_count: int | float
    global_count: int | float
    created_at: int


@dataclass(slots=True, eq=False)
class InstanceStore:
    """Unique instances in creation order, indexed by their ascending id tuples."""

    n: int
    records: list[InstanceRecord] = field(default_factory=list)
    event_counter: int = 0
    _by_pattern: dict[tuple[int, ...], int] = field(default_factory=dict)

    @classmethod
    def empty(cls, n: int) -> InstanceStore:
        return cls(n)


def present_all(store: InstanceStore, events, weights: Weights = Weights()) -> InstanceStore:
    """Fold ``events`` into ``store``, one event after another.

    Every pre-existing record sharing at least one member with an event
    gains omega_g on its global count (an exact match is also an overlap of
    itself). An exact-set match gains omega_i on its local count; otherwise
    a new record is created with I = omega_i and G = omega_g, the creation
    event counting as the record's first overlap exactly once.

    One pass over the events creates the new records, tallies each record's
    exact repeats and sets bit t of ``rows[v]`` for every member v of block
    event t. Each distinct member tuple is looked up once, its ids checked in C. Each
    block then adds to a record's overlap count the popcount of its members'
    rows ORed, shifted past its creation if that lies in the block. Counters
    are written last, as left folds of the weight, so float sums round as
    the per-event ``+=`` does. The write is in a ``finally``: a bad event
    part-way leaves the store the fold over the events before it. ``events``
    is read into a tuple first, so an error raised while reading it leaves
    the store as it was.
    """
    n, records = store.n, store.records
    by_pattern = store._by_pattern
    omega_i, omega_g = weights.omega_i, weights.omega_g
    size = max(8, OCCURRENCE_BUDGET // max(n, 1) * 8)  # events per block
    old = len(records)
    hits = [0] * old  # exact repeats in this call, per record
    overlaps = [0] * old  # overlapping events in this call, per record
    start = store.event_counter  # the current block's first event
    first = old  # the first record created in the current block
    rows: list = []
    t = 0  # events of the current block applied so far
    seen: dict[tuple[int, ...], int] = {}  # member tuple -> its record, checked once
    in_range = frozenset(range(n)).issuperset
    events = tuple(events)  # a tuple is not copied, nor is its one-block slice
    try:
        for begin in range(0, len(events), size):
            block = events[begin : begin + size]
            rows = [bytearray((len(block) + 7) >> 3) for _ in range(n)]
            for event in block:
                members = event.members
                idx = seen.get(members)
                if idx is None:
                    if not in_range(members):
                        validate_event(event, n)
                    key = tuple(sorted(members))
                    idx = by_pattern.get(key)
                    if idx is None:
                        idx = len(records)
                        by_pattern[key] = idx
                        records.append(InstanceRecord(key, omega_i, omega_g, start + t))
                        hits.append(0)
                        overlaps.append(0)
                    seen[members] = idx
                byte, bit = t >> 3, 1 << (t & 7)
                for v in members:
                    rows[v][byte] |= bit
                hits[idx] += 1
                t += 1
            _count_block(rows, records, overlaps, first, start)
            # drop this block's rows before the next block's are made
            start, first, t, rows = start + t, len(records), 0, []
    finally:
        if t:  # a DataError cut the block short
            _count_block(rows, records, overlaps, first, start)
        store.event_counter = start + t
        for idx in range(old):
            record = records[idx]
            record.local_count = fold(record.local_count, omega_i, hits[idx])
            record.global_count = fold(record.global_count, omega_g, overlaps[idx])
        # a new record's counts fold from 0: 0 + w is w, its creation's weight
        local = folds(omega_i, hits[old:])
        global_ = folds(omega_g, overlaps[old:])
        for record, h, k in zip(records[old:], hits[old:], overlaps[old:]):
            record.local_count, record.global_count = local[h], global_[k]
    return store


def _count_block(
    rows: list, records: list[InstanceRecord], overlaps: list[int], first: int, start: int
) -> None:
    """Add one block's overlapping events to ``overlaps``.

    ``rows[v]`` holds bit t for block event t holding v; each row is turned
    into an int in place, so the bytes held never double. Records from index
    ``first`` on were created in this block, at event ``start + shift``.
    """
    for v, row in enumerate(rows):
        rows[v] = int.from_bytes(row, "little")
    for idx, record in enumerate(records):
        mask = reduce(or_, map(rows.__getitem__, record.pattern))
        if idx >= first:
            mask >>= record.created_at - start
        overlaps[idx] += mask.bit_count()


def coherence(record: InstanceRecord) -> int | float:
    """How far the global count has drifted from the local count (0 is perfect)."""
    return record.global_count - record.local_count


def selection_key(record: InstanceRecord):
    """Deterministic sort key: best coherence first, then larger I, smaller
    pattern, and finally the pattern's ascending id tuple itself."""
    return (coherence(record), -record.local_count, len(record.pattern), record.pattern)


def select_clusters(store: InstanceStore) -> Partition:
    """Greedy disjoint cover: instances are taken in coherence order and
    accepted when they share no member with anything already accepted."""
    accepted: list[frozenset[int]] = []
    taken: set[int] = set()
    for record in sorted(store.records, key=selection_key):
        if taken.isdisjoint(record.pattern):
            accepted.append(frozenset(record.pattern))
            taken.update(record.pattern)
    return Partition(store.n, tuple(accepted), frozenset(range(store.n)) - taken)
