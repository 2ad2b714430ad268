"""Per-variable reinforcement counts and the equal-count bands they induce.

The simplest of the three engines: one counter per variable, incremented
when the variable appears in an event and optionally decremented when it
does not. Grouping variables into bands of equal count is kept as the
comparison baseline; it deliberately ignores any structure inside the
events, which is exactly why its clusters come out wrong on structured
input.

``count_events`` is the package's only counting path. It applies absence
decrements late: a variable's missed steps are applied when it next appears
and once at the end, so absent variables are never visited per event. One
loop serves every nonzero ``delta``; how it takes the missed steps is picked
once per call. With an int ``delta`` they are taken in closed form, as one
subtraction floored at zero, on int counts and on float counts below 2**53,
where no step rounds; with a float ``delta``, and on a float count at or
above 2**53, they are taken one by one, so they round as the eager loop does.
The counts equal the fold of the eager one-event reference ``update`` in
``tests/oracles.py``, value and type, for integer and float weights alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import Partition, Weights, validate_event

Band = tuple[float, frozenset[int]]


@dataclass(slots=True)
class ReinforceState:
    """Per-variable counters over a fixed vocabulary of n ids.

    ``count_events`` may be called on a state again with later events:
    counting ``events[:cut]`` and then ``events[cut:]`` gives the counts of
    one pass over ``events``, for any ``delta``. A single state is not safe
    for simultaneous writers.
    """

    counts: list[int | float]

    @classmethod
    def empty(cls, n: int) -> ReinforceState:
        return cls([0] * n)

    @property
    def n(self) -> int:
        return len(self.counts)


def _decay(count: int | float, steps: int, delta: int | float) -> int | float:
    """Apply ``steps >= 1`` eager absence steps one by one, stopping once
    floored; the path for a float ``delta`` or a float count from 2**53 on.

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
    and, for every variable, once after the loop. A zero ``delta`` only
    adds; every other ``delta`` runs one loop, whose bound for taking
    missed steps in closed form is picked once per call: with an int
    ``delta`` a count below it takes one floored subtraction, which no int
    step rounds, and every other count goes through ``_decay``.
    The last steps are in a ``finally``, so a DataError part-way through
    leaves the state the eager fold over the events before the bad one would.

    Each event's ids are checked against the vocabulary by one set lookup
    in C; ``validate_event`` runs only to raise for an event that fails it.
    """
    counts = state.counts
    n = state.n
    omega_i, delta = weights.omega_i, weights.delta
    in_range = frozenset(range(n)).issuperset
    if not delta:
        for event in events:
            members = event.members
            if not in_range(members):
                validate_event(event, n)
            for v in members:
                counts[v] += omega_i
        return state
    seen = [0] * n
    applied = 0
    # a count below ``exact`` takes its missed steps as one floored
    # subtraction; the bounds are compared like with like, ints with ints
    if type(delta) is not int:
        exact = -math.inf
    elif type(omega_i) is int and all(type(c) is int for c in counts):
        exact = 1 << 2048  # past any count a run reaches; ints never round
    else:
        exact = 2.0**53  # below it, a float less an int is exact
    try:
        for t, event in enumerate(events):
            members = event.members
            if not in_range(members):
                validate_event(event, n)
            applied = t + 1
            for v in members:
                s = seen[v]
                c = counts[v]
                if s < t:
                    if c < exact:
                        k = (t - s) * delta
                        c = c - k if c > k else 0
                    else:
                        c = _decay(c, t - s, delta)
                counts[v] = c + omega_i
                seen[v] = applied
    finally:
        for v in range(n):
            if seen[v] < applied:
                c, missed = counts[v], applied - seen[v]
                k = missed * delta
                counts[v] = (c - k if c > k else 0) if c < exact else _decay(c, missed, delta)
    return state


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
