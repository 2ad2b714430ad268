"""Per-variable reinforcement counts and the equal-count bands they induce.

The simplest of the three engines: one counter per variable, incremented
when the variable appears in an event and optionally decremented when it
does not. Grouping variables into bands of equal count is kept as the
comparison baseline; it deliberately ignores any structure inside the
events, which is exactly why its clusters come out wrong on structured
input.

``count_events`` is the package's only counting path. It applies absence
decrements late: a variable's missed steps are applied when it next appears
and once at the end, so absent variables are never visited per event. The
counts equal the fold of the eager one-event reference ``update`` in
``tests/oracles.py``, value and type, for integer and float weights alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import DataError, Partition, Weights, validate_event

Band = tuple[float, frozenset[int]]


@dataclass(slots=True)
class ReinforceState:
    """Per-variable counters over a fixed vocabulary of n ids.

    Counts are additive and mergeable: disjoint event shards may be counted
    independently and summed (valid as long as delta is 0; the absence
    decrement is order sensitive because of the floor at zero). A single
    state is not safe for simultaneous writers; shard, then merge.
    """

    counts: list[int | float]

    @classmethod
    def empty(cls, n: int) -> ReinforceState:
        return cls([0] * n)

    @property
    def n(self) -> int:
        return len(self.counts)


def _decay(count: int | float, steps: int, delta: int | float) -> int | float:
    """Apply ``steps >= 1`` eager absence steps, stopping once floored.

    ``max(0, x)`` returns the int 0 whenever ``x <= 0``, and every later
    step leaves that 0 unchanged, so the early stop is exact.
    """
    count = max(0, count - delta)
    while steps > 1 and count > 0:
        count = max(0, count - delta)
        steps -= 1
    return count


def count_events(state: ReinforceState, events, weights: Weights = Weights()) -> ReinforceState:
    """Fold ``events`` into ``state``; equal to the eager one-event fold.

    Absence decrements are applied late: ``seen[v]`` is how many events have
    been applied to ``v``, and its pending steps run when it next appears
    and, for every variable, once after the loop. That last step is in a
    ``finally``, so a DataError part-way through leaves the state the eager
    fold over the events before the bad one would.
    """
    counts = state.counts
    n = state.n
    omega_i, delta = weights.omega_i, weights.delta
    if not delta:
        for event in events:
            validate_event(event, n)
            for v in event.members:
                counts[v] += omega_i
        return state
    seen = [0] * n
    applied = 0
    try:
        for t, event in enumerate(events):
            validate_event(event, n)
            for v in event.members:
                if seen[v] < t:
                    counts[v] = _decay(counts[v], t - seen[v], delta)
                counts[v] += omega_i
                seen[v] = t + 1
            applied = t + 1
    finally:
        for v in range(n):
            if seen[v] < applied:
                counts[v] = _decay(counts[v], applied - seen[v], delta)
    return state


def merge(a: ReinforceState, b: ReinforceState) -> ReinforceState:
    """Sum two shard states counted over the same vocabulary."""
    if a.n != b.n:
        raise DataError(f"cannot merge states over {a.n} and {b.n} variables")
    return ReinforceState([x + y for x, y in zip(a.counts, b.counts)])


def band_clusters(state: ReinforceState) -> list[Band]:
    """Group variables by exact count value, largest count first.

    Band equality is exact, never fuzzy: integral weights keep the counts
    integral, and reproducibility beats tolerance here.
    """
    if state.n == 0:
        return []
    by_value: dict[int | float, set[int]] = {}
    for v, count in enumerate(state.counts):
        by_value.setdefault(count, set()).add(v)
    return [(value, frozenset(by_value[value])) for value in sorted(by_value, reverse=True)]


def bands_to_partition(bands: list[Band], n: int) -> Partition:
    """Multi-member bands become clusters; one-member bands stay unassigned."""
    clusters = []
    unassigned: set[int] = set()
    for _, members in bands:
        if len(members) >= 2:
            clusters.append(members)
        else:
            unassigned |= members
    return Partition(n, tuple(clusters), frozenset(unassigned))
