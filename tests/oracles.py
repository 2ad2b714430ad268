"""Brute-force reference implementations the engines are checked against.

Everything here is written the slow, obvious way on purpose: membership
tests over whole event lists, pair loops, and exhaustive enumeration. None
of it shares code with the engines beyond their data types, the parse
oracle's use of the public, fully checked ``build_vocabulary``, the
consolidation oracle's use of the hierarchy's ``_merge`` and ``_split``
(it checks which rule is applied, not how), and the sparse grid
references' use of ``grid.count_events`` and of the ``model.fold`` a
grid cell takes.

The per-event references each engine's batch call is compared with live
here too, not in the package:

- ``update`` applies one event to a ``reinforce.ReinforceState`` eagerly,
  every absence step at once; ``reinforce.count_events`` must equal its
  fold. It shares only ``model.validate_event`` with the engine.
- ``present`` presents events to a ``counting.InstanceStore`` one at a
  time with ``+=``; ``counting.present_all`` must equal it. It shares
  ``model.validate_event`` and the store's own pattern index
  ``_by_pattern``, so the two may take turns on one store.
- ``grid_update`` counts one event into a sparse ``grid.CountMatrix``
  through ``grid.count_events``.

The hierarchy has none: one event is ``hierarchy.present_all(store,
(event,))``, and ``hierarchy_walk_oracle`` is its reference.
"""

from __future__ import annotations

import math
import re
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations

from patterngrid.counting import InstanceRecord, InstanceStore
from patterngrid.grid import CountMatrix, GridClusterResult, count_events
from patterngrid.hierarchy import Extension, PatternNode, _merge, _split
from patterngrid.ingest import LabelPolicy
from patterngrid.model import (
    ConfigError,
    DataError,
    Dataset,
    Event,
    InterPatternLink,
    Partition,
    Weights,
    build_vocabulary,
    fold,
    folds,
    validate_event,
)
from patterngrid.reinforce import ReinforceState


def frequency_oracle(events, n: int, omega_i=1, delta=0) -> list:
    """Per-variable counts by direct replay, one variable at a time. The
    absence decrement is optional: a zero ``delta`` applies no step at all,
    so counts stay ints when ``delta`` is ``0.0``."""
    counts = []
    for v in range(n):
        value = 0
        for event in events:
            if v in event.members:
                value += omega_i
            elif delta:
                value = max(0, value - delta)
        counts.append(value)
    return counts


def update(state: ReinforceState, event: Event, weights: Weights = Weights()) -> ReinforceState:
    """Apply one event: members gain omega_i, absentees lose delta, floored at 0."""
    validate_event(event, state.n)
    for v in event.members:
        state.counts[v] += weights.omega_i
    if weights.delta:
        members = event.member_set()
        for w in range(state.n):
            if w not in members:
                state.counts[w] = max(0, state.counts[w] - weights.delta)
    return state


def cooccurrence_oracle(events, n: int, weight=1) -> list[list]:
    """Pairwise co-occurrence counts by membership tests per pair."""
    cells = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            for event in events:
                if a in event.members and b in event.members:
                    cells[a][b] += weight
    return cells


@dataclass(slots=True)
class DenseGrid:
    """The co-occurrence grid as a dense n x n list of lists, with the
    ``increments`` audit of ``grid.CountMatrix``."""

    cells: list[list[int | float]]
    increments: int = field(default=0, compare=False)

    @classmethod
    def zeros(cls, n: int) -> DenseGrid:
        return cls([[0] * n for _ in range(n)])

    @property
    def n(self) -> int:
        return len(self.cells)


def count_matrix(cells) -> CountMatrix:
    """The sparse ``grid.CountMatrix`` of a dense n x n layout, which must
    have an empty diagonal and no negative cells."""
    rows = []
    for v, row in enumerate(cells):
        assert row[v] == 0 and min(row) >= 0, f"not a grid row: {row}"
        rows.append({w: c for w, c in enumerate(row) if c})
    return CountMatrix(rows)


def grid_update(grid: CountMatrix, event: Event, weight: int | float = 1) -> CountMatrix:
    """Count one event into a sparse grid: each unordered member pair gains
    ``weight`` in both orientations. Singleton events leave the matrix
    unchanged."""
    return count_events(grid, (event,), weight)


def pair_count_sets(grid: CountMatrix, sets: dict[tuple[int, ...], int], weight) -> None:
    """``grid._count_sets`` by pair tuples: one ``Counter`` of every member
    pair (a, b), a < b, then each pair's fold written into both rows."""
    together = Counter(
        chain.from_iterable(combinations(sorted(m), 2) for m, times in sets.items() if times == 1)
    )
    for members, times in sets.items():
        if times > 1:
            for pair in combinations(sorted(members), 2):
                together[pair] += times
        grid.increments += times * len(members) * (len(members) - 1)
    fresh = folds(weight, together.values())
    rows = grid.rows
    for (a, b), k in together.items():
        row_a, row_b = rows[a], rows[b]
        row_a[b] = fold(row_a[b], weight, k) if b in row_a else fresh[k]
        row_b[a] = fold(row_b[a], weight, k) if a in row_b else fresh[k]


def dense_grid_update(grid: DenseGrid, event: Event, weight: int | float = 1) -> DenseGrid:
    """Count one event: each unordered member pair gains ``weight`` in both
    orientations. Singleton events leave the matrix unchanged."""
    validate_event(event, grid.n)
    members = event.members
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            a, b = members[i], members[j]
            grid.cells[a][b] += weight
            grid.cells[b][a] += weight
            grid.increments += 2
    return grid


def dense_count_events(grid: DenseGrid, events, weight: int | float = 1) -> DenseGrid:
    """The fold of ``dense_grid_update`` over the events, one at a time."""
    for event in events:
        dense_grid_update(grid, event, weight)
    return grid


def dense_head_set(grid: DenseGrid, v: int, *, ties: str = "high") -> frozenset[int]:
    """The variables above the largest gap in row v's sorted nonzero counts,
    scanning every cell of the row."""
    if ties not in ("high", "low"):
        raise ConfigError(f"unknown gap tie rule {ties!r}")
    row = grid.cells[v]
    entries = sorted(
        ((row[w], w) for w in range(grid.n) if w != v and row[w] > 0),
        key=lambda e: (-e[0], e[1]),
    )
    if not entries:
        return frozenset()
    counts = [c for c, _ in entries]
    gaps = [counts[k] - counts[k + 1] for k in range(len(counts) - 1)]
    if not gaps or max(gaps) == 0:
        return frozenset(w for _, w in entries)
    best = max(gaps)
    if ties == "high":
        cut = gaps.index(best)
    else:
        cut = len(gaps) - 1 - gaps[::-1].index(best)
    threshold = counts[cut]
    return frozenset(w for c, w in entries if c >= threshold)


def dense_extract_clusters(
    grid: DenseGrid, tau_link: int | float = 2, *, ties: str = "high"
) -> GridClusterResult:
    """Clusters and links from a dense grid: head sets from full row scans,
    links from a scan of every cell above the diagonal."""
    if not 1 <= tau_link < math.inf:
        raise ConfigError("tau_link must be at least 1 and finite")
    n = grid.n
    heads = {v: dense_head_set(grid, v, ties=ties) for v in range(n)}
    neighbours = {v: {w for w in heads[v] if v in heads[w]} for v in range(n)}

    component_of: dict[int, int] = {}
    components: list[list[int]] = []
    for start in range(n):
        if start in component_of:
            continue
        comp = [start]
        component_of[start] = len(components)
        queue = [start]
        while queue:
            node = queue.pop()
            for w in sorted(neighbours[node]):
                if w not in component_of:
                    component_of[w] = len(components)
                    comp.append(w)
                    queue.append(w)
        components.append(sorted(comp))

    clusters = tuple(frozenset(c) for c in components if len(c) >= 2)
    unassigned = frozenset(c[0] for c in components if len(c) == 1)
    partition = Partition(n, clusters, unassigned)

    cluster_of: dict[int, int] = {}
    for ci, cluster in enumerate(clusters):
        for v in cluster:
            cluster_of[v] = ci
    links = []
    for a in range(n):
        for b in range(a + 1, n):
            if a in cluster_of and b in cluster_of and cluster_of[a] != cluster_of[b]:
                if grid.cells[a][b] >= tau_link:
                    links.append(InterPatternLink(a, b, grid.cells[a][b]))
    return GridClusterResult(partition, tuple(links))


def dense_matrix_json(grid: DenseGrid, labels) -> dict:
    """Dense JSON form; diagonal cells are structural zeros (never written)."""
    return {"labels": list(labels), "cells": [list(row) for row in grid.cells]}


def _dense_rendered(grid: DenseGrid) -> list[list[str]]:
    return [
        ["x" if j == i else str(c) for j, c in enumerate(row)] for i, row in enumerate(grid.cells)
    ]


def dense_matrix_csv(grid: DenseGrid, labels) -> str:
    """The CSV rendering built as one string, "x" on the diagonal."""
    lines = ["," + ",".join(labels)]
    for label, cells in zip(labels, _dense_rendered(grid)):
        lines.append(label + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def dense_matrix_text(grid: DenseGrid, labels) -> str:
    """The aligned text rendering built as one string: each column as wide
    as its widest label or rendered cell."""
    rendered = _dense_rendered(grid)
    label_w = max((len(l) for l in labels), default=0)
    col_w = [max([len(labels[j])] + [len(row[j]) for row in rendered]) for j in range(grid.n)]
    lines = [" " * label_w + "  " + "  ".join(labels[j].rjust(col_w[j]) for j in range(grid.n))]
    for i, row in enumerate(rendered):
        cells = "  ".join(c.rjust(col_w[j]) for j, c in enumerate(row))
        lines.append(labels[i].ljust(label_w) + "  " + cells)
    return "\n".join(lines) + "\n"


def cm_replay_oracle(events, omega_i=1, omega_g=1) -> dict[frozenset[int], tuple]:
    """(local, global) per distinct pattern, straight from the definitions:
    local counts exact-set presentations, global counts overlapping events
    from the pattern's first presentation onward, that one included."""
    patterns: list[frozenset[int]] = []
    first_seen: dict[frozenset[int], int] = {}
    for pos, event in enumerate(events):
        key = event.member_set()
        if key not in first_seen:
            first_seen[key] = pos
            patterns.append(key)
    result = {}
    for pattern in patterns:
        # += folds left to right as the engine does; sum() of floats may
        # round differently (it compensates from Python 3.12 on)
        local = global_ = 0
        for pos, e in enumerate(events):
            if e.member_set() == pattern:
                local += omega_i
            if pos >= first_seen[pattern] and pattern & e.member_set():
                global_ += omega_g
        result[pattern] = (local, global_)
    return result


def present(store: InstanceStore, events, weights: Weights = Weights()) -> InstanceStore:
    """Present each event to the store in turn, with ``+=`` on the counters.

    Every pre-existing instance sharing at least one member with the event
    gains omega_g on its global count (an exact match is also an overlap of
    itself). An exact-set match gains omega_i on its local count; otherwise
    a new instance is created with I = omega_i and G = omega_g, the creation
    event counting as the instance's first overlap exactly once. The
    per-variable postings that find the overlapping instances are built
    from ``store.records`` when the call starts and kept for this call only.
    """
    records, by_pattern = store.records, store._by_pattern
    postings: dict[int, list[int]] = {}
    for idx, record in enumerate(records):
        for v in record.pattern:
            postings.setdefault(v, []).append(idx)
    for event in events:
        validate_event(event, store.n)
        key = event.member_set()
        touched: set[int] = set()
        for v in key:
            touched.update(postings.get(v, ()))
        for idx in touched:
            records[idx].global_count += weights.omega_g
        hit = by_pattern.get(key)
        if hit is not None:
            records[hit].local_count += weights.omega_i
        else:
            by_pattern[key] = len(records)
            for v in key:
                postings.setdefault(v, []).append(len(records))
            records.append(InstanceRecord(key, weights.omega_i, weights.omega_g, store.event_counter))
        store.event_counter += 1
    return store


def sort_group_oracle(counts) -> list[tuple]:
    """Equal-count bands by sorting (value, id) pairs and grouping runs."""
    ordered = sorted(((value, v) for v, value in enumerate(counts)), key=lambda p: (-p[0], p[1]))
    bands = []
    for value, v in ordered:
        if bands and bands[-1][0] == value:
            bands[-1][1].add(v)
        else:
            bands.append((value, {v}))
    return [(value, frozenset(members)) for value, members in bands]


def maximal_disjoint_families(patterns: list[frozenset[int]]):
    """Every maximal family of pairwise-disjoint patterns (as index tuples
    into ``patterns``)."""

    def extend(chosen: list[int], taken: frozenset[int], start: int):
        grew = False
        for i in range(start, len(patterns)):
            if taken.isdisjoint(patterns[i]):
                grew = True
                yield from extend(chosen + [i], taken | patterns[i], i + 1)
        if not grew:
            # nothing later fits; maximal only if nothing earlier fits either
            if all(
                not taken.isdisjoint(patterns[i]) for i in range(len(patterns)) if i not in chosen
            ):
                yield tuple(chosen)

    yield from extend([], frozenset(), 0)


def lexmin_selection_oracle(patterns: list[frozenset[int]], key) -> list[frozenset[int]]:
    """The maximal disjoint family whose key-sorted member sequence is
    lexicographically smallest; ``key`` maps a pattern to its sort key."""
    best = None
    best_keys = None
    for family in maximal_disjoint_families(patterns):
        members = sorted((patterns[i] for i in family), key=key)
        keys = [key(p) for p in members]
        if best_keys is None or keys < best_keys:
            best, best_keys = members, keys
    assert best is not None
    return best


def _preorder(store) -> list:
    """Every hierarchy node, roots in order, each followed by its extension
    subtrees in order."""
    nodes = []

    def visit(node):
        nodes.append(node)
        for ext in node.extensions:
            visit(ext.node)

    for root in store.roots:
        visit(root)
    return nodes


def hierarchy_walk_oracle(store, event):
    """One hierarchy presentation by scanning every stored node: the best
    covered node by size, else the best overlap, ties to walk order."""
    members = event.member_set()
    store.presentations += 1
    nodes = _preorder(store)

    covered = [n for n in nodes if n.pattern <= members]
    if covered:
        best = max(covered, key=lambda n: len(n.pattern))
        if best.pattern == members:
            best.occurrences += 1
            return store
        adds = frozenset(members - best.pattern)
        for ext in best.extensions:
            if ext.adds == adds:
                ext.node.occurrences += 1
                return store
        best.extensions.append(Extension(adds, PatternNode(members, 1)))
        return store

    if nodes:
        best = max(nodes, key=lambda n: len(n.pattern & members) / len(members))
        fraction = len(best.pattern & members) / len(members)
        if fraction >= store.theta_new:
            key = frozenset(best.pattern & members)
            best.subset_counts[key] = best.subset_counts.get(key, 0) + 1
            return store

    store.roots.append(PatternNode(frozenset(members), 1))
    return store


def find_merge_oracle(store):
    """The hierarchy merge candidate by scanning every node's extensions in
    walk order: (parent, extension) or None."""
    for node in _preorder(store):
        for ext in node.extensions:
            if ext.node.occurrences >= store.theta_merge * node.occurrences:
                return node, ext
    return None


def find_split_oracle(store):
    """The hierarchy split candidate by sorting every node's subsets and
    scanning in walk order: (parent or None, node, subset) or None."""
    parents = {}
    for node in _preorder(store):
        for ext in node.extensions:
            parents[id(ext.node)] = node
    for node in _preorder(store):
        for subset in sorted(node.subset_counts, key=sorted):
            if node.subset_counts[subset] >= store.theta_split * node.occurrences:
                return parents.get(id(node)), node, subset
    return None


def consolidate_oracle(store):
    """Hierarchy merge and split to a fixed point, rescanning the whole
    forest for each rule: the first merge candidate, else the first split
    candidate."""
    store._index = None
    while True:
        merge = find_merge_oracle(store)
        if merge is not None:
            _merge(store, *merge)
            continue
        split = find_split_oracle(store)
        if split is not None:
            _split(store, *split)
            continue
        return store


def tree_json(store, labels) -> dict:
    """The hierarchy's JSON-ready dict, built recursively: a forest of
    ``{"pattern", "occurrences", "parts", "extensions"}`` node objects, each
    label list sorted by id and the parts by their sorted ids."""

    def name(ids: frozenset[int]) -> list:
        return [labels[i] for i in sorted(ids)]

    def node_dict(node) -> dict:
        return {
            "pattern": name(node.pattern),
            "occurrences": node.occurrences,
            "parts": [
                {"members": name(s), "count": node.subset_counts[s]}
                for s in sorted(node.subset_counts, key=sorted)
            ],
            "extensions": [
                {"adds": name(e.adds), "node": node_dict(e.node)} for e in node.extensions
            ],
        }

    return {"roots": [node_dict(r) for r in store.roots], "presentations": store.presentations}


def tree_text_oracle(store, labels) -> list[str]:
    """The hierarchy's indented text lines, one per node, part and extension
    link, sorting each part's ids to order the parts and again to name them."""

    def name(ids: frozenset[int]) -> str:
        return "{" + ",".join(labels[i] for i in sorted(ids)) + "}"

    lines: list[str] = []
    # (depth, node, the adds of the link it hangs from, None for a root)
    stack = [(0, root, None) for root in reversed(store.roots)]
    while stack:
        depth, node, adds = stack.pop()
        if adds is not None:
            lines.append(f"{'  ' * (depth - 1)}+{name(adds)} ->")
        lines.append(f"{'  ' * depth}{name(node.pattern)} x{node.occurrences}")
        for subset in sorted(node.subset_counts, key=sorted):
            lines.append(
                f"{'  ' * (depth + 1)}part {name(subset)} x{node.subset_counts[subset]}"
            )
        stack.extend((depth + 2, e.node, e.adds) for e in reversed(node.extensions))
    return lines


def instances_json_oracle(store, labels) -> list:
    """The cm instances as JSON-ready dicts, each pattern's labels sorted."""
    return [
        {
            "pattern": sorted(labels[v] for v in r.pattern),
            "local": r.local_count,
            "global": r.global_count,
            "coherence": r.global_count - r.local_count,
        }
        for r in store.records
    ]


def best_matches_oracle(report, labels) -> list:
    """An agreement report's best matches as JSON-ready dicts, each
    cluster's labels sorted and None for no reference."""
    def names(ids):
        return sorted(labels[i] for i in ids)

    return [
        {
            "produced": names(row.produced),
            "reference": None if row.reference is None else names(row.reference),
            "overlap": row.overlap,
        }
        for row in report.per_cluster_table
    ]


def transpose_oracle(records: list[list[str]]) -> list[list[str]]:
    """The transpose pivot the obvious way: for each member in first-seen
    order, the record labels it appears under, a repeated label dropped
    after a scan of the labels kept so far. Each record is
    ``[label, member, ...]``."""
    by_member: dict[str, list[str]] = {}
    for label, *members in records:
        for m in members:
            group = by_member.setdefault(m, [])
            if label not in group:
                group.append(label)
    return list(by_member.values())


def parse_oracle(
    source, policy: LabelPolicy = LabelPolicy.RECORD_LABEL, *, transpose: bool = False
) -> Dataset:
    """The transaction parser in two passes: tokenise and check every line
    into rows, pivot them for ``transpose``, then encode the rows with
    ``build_vocabulary``, whose Events and Dataset check everything again."""
    if transpose and policy is not LabelPolicy.RECORD_LABEL:
        raise ConfigError("transpose needs a record label to pivot on")

    # as parse_transactions decodes, one leading byte-order mark dropped
    text = str(source.read(), "utf-8-sig", "replace")
    diagnostics: list[str] = []
    rows: list[tuple[str | None, list[str]]] = []
    # a line ends at "\r\n", "\r" or "\n" and at no other break
    for lineno, line in enumerate(re.split("\r\n|\r|\n", text), start=1):
        line = line.strip()
        if not line:
            continue
        tokens = [t.strip() for t in line.split(",")]
        if any(not t for t in tokens):
            diagnostics.append(f"line {lineno}: empty field")
            continue
        if policy is LabelPolicy.RECORD_LABEL:
            label, members = tokens[0], tokens[1:]
        else:
            label, members = None, tokens
        if not members:
            diagnostics.append(f"line {lineno}: no members")
            continue
        if len(set(members)) != len(members):
            diagnostics.append(f"line {lineno}: duplicate member")
            continue
        rows.append((label, members))

    if transpose:
        by_member: dict[str, dict[str, None]] = {}
        for label, members in rows:
            for m in members:
                by_member.setdefault(m, {})[label] = None
        raw = [list(group) for group in by_member.values()]
    else:
        raw = [members for _, members in rows]

    if not raw:
        raise DataError("no parseable records in the source")
    dataset = build_vocabulary(raw)
    return Dataset(dataset.labels, dataset.events, tuple(diagnostics) + dataset.diagnostics)


def random_dataset(seed: int, max_vars: int = 12, max_events: int = 50) -> Dataset:
    """A small random dataset; sizes and members drawn only via random()."""
    rng = random.Random(seed)
    n = 2 + int(rng.random() * (max_vars - 1))
    n = min(n, max_vars)
    count = 1 + int(rng.random() * max_events)
    events = []
    for _ in range(count):
        size = 1 + int(rng.random() * n)
        pool = list(range(n))
        members = []
        for _ in range(size):
            members.append(pool.pop(int(rng.random() * len(pool))))
        events.append(Event(tuple(members)))
    return Dataset(tuple(f"v{i}" for i in range(n)), tuple(events))


def permute_events(dataset: Dataset, seed: int) -> Dataset:
    """Same events, new presentation order."""
    rng = random.Random(seed)
    events = list(dataset.events)
    shuffled = []
    while events:
        shuffled.append(events.pop(int(rng.random() * len(events))))
    return Dataset(dataset.labels, tuple(shuffled))


def relabel_dataset(dataset: Dataset, seed: int) -> tuple[Dataset, list[int]]:
    """Apply a random id permutation; returns the new dataset and the map
    old id -> new id. Labels follow their variables."""
    rng = random.Random(seed)
    ids = list(range(dataset.n))
    mapping = []
    while ids:
        mapping.append(ids.pop(int(rng.random() * len(ids))))
    labels = [""] * dataset.n
    for old, new in enumerate(mapping):
        labels[new] = dataset.labels[old]
    events = tuple(Event(tuple(mapping[v] for v in e.members)) for e in dataset.events)
    return Dataset(tuple(labels), events), mapping
