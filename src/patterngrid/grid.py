"""Cross-referenced co-occurrence grid and cluster extraction.

The grid is a square count matrix over the whole vocabulary, every variable
listed both as a row and as a column. Presenting an event bumps the cell
for each unordered pair of its members in both orientations, so the matrix
stays symmetric; a variable's relation to itself is never kept, leaving
the diagonal empty. Counting is a single pass over the events and is
order independent.

The matrix is stored sparse, one dict of nonzero cells per row, since wide
grids (a ``--transpose`` pivot) are mostly zeros. Counting takes each
distinct member set once, weighted by how often it occurs, as an FP-tree
does (Han, Pei & Yin, SIGMOD 2000), and counts a row at a time: each
member's row tallies the set's members, its own entry included and
dropped at the end. With the weight 1 the tallies of a row that starts
empty are its cells; any other weight is folded in from them row by row,
each row's tallies freed once written, so the counts are never held
twice. No reader depends on the order a row's cells were inserted in.
The renderers lay the matrix out densely one row at a time, so no n x n
text or list of cells is held at once: CSV and text pass each row to a
``write`` callable as it is made, JSON its rows in blocks of 64 KiB or more.
All three write a cell as ``str`` of its count and an empty one as "0",
each distinct value's text made once, an int's apart from an equal float's.

Extraction reads the finished grid. Each row nominates the variables above
the largest gap in its sorted nonzero counts (its head set, the cells at or
above the row's floor); clusters are the connected components of mutual
nominations, found from the floors alone; and leftover cross-cluster counts
at or above a threshold are reported as inter-pattern links rather than
merged away, derived a row at a time as a reader takes them. This is a
frequency measurement over the whole dataset, not a similarity measure,
and it needs no prior classification of the categories.
"""

from __future__ import annotations

import math
from collections import _count_elements
from dataclasses import dataclass, field
from itertools import chain
from operator import sub
from typing import Sequence

from . import jsonout
from .model import (
    ConfigError,
    InterPatternLink,
    Partition,
    _trusted_link,
    fold,
    folds,
    validate_event,
)


@dataclass(slots=True)
class CountMatrix:
    """Symmetric co-occurrence counts with an unused diagonal.

    ``rows[v]`` maps each w != v whose cell (v, w) is positive to its
    count; every cell missing from it is 0. ``increments`` audits the
    one-pass cost: every cell write adds one, so after counting events
    with sizes k_1..k_m it equals the pair work sum(k_i * (k_i - 1)).
    """

    rows: list[dict[int, int | float]]
    increments: int = field(default=0, compare=False)

    @classmethod
    def zeros(cls, n: int) -> CountMatrix:
        return cls([{} for _ in range(n)])

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def cells(self) -> list[list[int | float]]:
        """A dense n x n copy of the counts, built on each access."""
        n = len(self.rows)
        dense = []
        for row in self.rows:
            line = [0] * n
            for w, c in row.items():
                line[w] = c
            dense.append(line)
        return dense


@dataclass(slots=True)
class GridClusterResult:
    """Extraction output: the partition and the residual links between its clusters."""

    partition: Partition
    links: tuple[InterPatternLink, ...]


def _check_weight(weight) -> None:
    if not 0 < weight < math.inf:
        raise ConfigError("grid weight must be positive and finite")


def _check_ties(ties: str) -> None:
    if ties not in ("high", "low"):
        raise ConfigError(f"unknown gap tie rule {ties!r}")


def count_events(grid: CountMatrix, events, weight: int | float = 1) -> CountMatrix:
    """Count the events in one pass: each unordered member pair of an event
    gains ``weight`` in both orientations, and a singleton leaves the matrix
    unchanged.

    Equal member tuples are grouped first, in first-appearance order, and
    each distinct one is checked once, in C. A pair's cell then takes the ``+=``
    fold of ``weight``, once per event holding the pair. An event outside
    the vocabulary raises ``DataError`` with every event before it counted.
    """
    _check_weight(weight)
    n = grid.n
    sets: dict[tuple[int, ...], int] = {}
    in_range = frozenset(range(n)).issuperset
    try:
        for event in events:
            members = event.members
            if members in sets:
                sets[members] += 1
            else:
                if not in_range(members):
                    validate_event(event, n)
                sets[members] = 1
    finally:
        _count_sets(grid, sets, weight)
    return grid


def _count_sets(grid: CountMatrix, sets: dict[tuple[int, ...], int], weight) -> None:
    """Add each member set's pairs, ``sets`` giving how often it occurs.

    Each row is counted on its own: a member's row gains one per member of
    a set seen once, in C, and ``times`` per member of a repeated set. The
    row's own entry, its count of sets, is dropped afterwards.
    """
    rows = grid.rows
    # k folds of the int 1 from 0 are k, so a row that starts empty is
    # counted in place; any other row is counted aside and folded in
    unit = type(weight) is int and weight == 1
    counts = [row if unit and not row else {} for row in rows]
    for members, times in sets.items():
        grid.increments += times * len(members) * (len(members) - 1)
        if len(members) < 2:
            continue
        if times == 1:
            for v in members:
                _count_elements(counts[v], members)
        else:
            for v in members:
                counted = counts[v]
                for w in members:
                    counted[w] = counted.get(w, 0) + times
    for v, counted in enumerate(counts):
        counted.pop(v, None)
    aside = [v for v, counted in enumerate(counts) if counted is not rows[v]]
    # fresh[k]: k folds of weight from 0, for every cell that starts empty
    fresh = folds(weight, chain.from_iterable(counts[v].values() for v in aside))
    for v in aside:
        row, counted = rows[v], counts[v]
        # released once written, so the counts are never held beside the rows
        counts[v] = None
        if row:
            for w, k in counted.items():
                row[w] = fold(row[w], weight, k) if w in row else fresh[k]
        else:
            row.update(zip(counted, map(fresh.__getitem__, counted.values())))


def _floor(row: dict[int, int | float], ties: str) -> int | float:
    """The smallest count in the row's head set, or ``math.inf`` for an
    empty row. The head set is the cells above the largest drop between
    consecutive counts, sorted descending; equal drops tie toward the larger
    counts, or the smaller with ``ties="low"``. So a row of equal counts
    keeps them all."""
    # a gap between equal counts is 0, the largest only when all counts are
    # equal, so the cut is found among the distinct counts
    counts = sorted(set(row.values()), reverse=True)
    if len(counts) < 2:
        return counts[0] if counts else math.inf
    gaps = list(map(sub, counts, counts[1:]))
    best = max(gaps)
    if ties == "high":
        cut = gaps.index(best)
    else:
        cut = len(gaps) - 1 - gaps[::-1].index(best)
    return counts[cut]


def extract_clusters(
    grid: CountMatrix, tau_link: int | float = 2, *, ties: str = "high", links: bool = True
) -> GridClusterResult:
    """Read clusters and residual links out of a finished grid.

    Two variables belong together only when each sits in the other's head
    set; clusters are the connected components of that mutual agreement,
    size one components staying unassigned (no fallback reassignment is
    attempted). Links are ``iter_links``'s, gathered into a tuple. With
    ``links=False`` the rows are not scanned for them and the result's
    ``links`` is empty; ``tau_link`` is checked all the same.
    """
    if not 1 <= tau_link < math.inf:
        raise ConfigError("tau_link must be at least 1 and finite")
    _check_ties(ties)
    n = grid.n
    rows = grid.rows
    floors = [_floor(row, ties) for row in rows]

    seen = bytearray(n)
    components: list[list[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = 1
        comp, queue = [start], [start]
        while queue:
            # w's missing cell counts 0, which no row's floor admits
            for w, c in rows[v := queue.pop()].items():
                if c >= floors[v] and not seen[w] and rows[w].get(v, 0) >= floors[w]:
                    seen[w] = 1
                    comp.append(w)
                    queue.append(w)
        components.append(sorted(comp))

    clusters = tuple(frozenset(c) for c in components if len(c) >= 2)
    unassigned = frozenset(c[0] for c in components if len(c) == 1)
    partition = Partition(n, clusters, unassigned)
    found = tuple(iter_links(grid, partition, tau_link)) if links else ()
    return GridClusterResult(partition, found)


def iter_links(grid: CountMatrix, partition: Partition, tau_link: int | float = 2):
    """Yield the residual links between ``partition``'s clusters: every
    cross-cluster pair whose cell reaches ``tau_link``, with the cell value
    as strength, in (a, b) order with a < b. Each pass scans the rows
    afresh, so a caller that writes the links as they come never holds
    them all. ``tau_link`` must be at least 1, as ``extract_clusters``
    checks."""
    rows = grid.rows
    cluster_of = partition.cluster_ids()
    for a, ca in enumerate(cluster_of):
        if ca < 0:
            continue
        row = rows[a]
        ids = [b for b, c in row.items() if b > a and c >= tau_link and -1 < cluster_of[b] != ca]
        ids.sort()
        # off-diagonal cells >= tau_link >= 1: each makes a valid link
        for b in ids:
            yield _trusted_link((a, b, row[b]))


def _rows(grid: CountMatrix, heads: Sequence[str], sep: str, diagonal: str, end: str):
    """Each row as ``heads[i]``, its cell texts with ``sep`` between them,
    ``diagonal`` on the diagonal, and ``end``: the CSV and JSON rows. A row
    is one join of a copy of a list of cell texts, each with ``sep`` in
    front. As in every matrix format, a cell writes as ``str`` of its count,
    "0" when empty: one text serves every zero, and each distinct value's is
    made once, ints and floats apart, since 2 == 2.0 but they write 2 and 2.0."""
    zeros = [sep + "0"] * grid.n + [end]
    mark, cut = sep + diagonal, len(sep)
    ints, floats = {}, {}
    for i, row in enumerate(grid.rows):
        line = zeros.copy()
        for w, c in row.items():
            texts = ints if type(c) is int else floats
            try:
                line[w] = texts[c]
            except KeyError:
                line[w] = texts[c] = sep + str(c)
        line[i] = mark
        # the first cell's text has the row's head, not a separator, in front
        line[0] = heads[i] + line[0][cut:]
        yield "".join(line)


def csv_field(text: str, sep: str = ",") -> str:
    """``text`` as ``csv.writer``'s ``QUOTE_MINIMAL`` writes a field: quoted,
    each ``"`` doubled, when it holds ``sep``, ``"``, ``\\r`` or ``\\n``."""
    if sep in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def matrix_csv(grid: CountMatrix, labels: Sequence[str], write) -> None:
    """Write the CSV rendering, a label header row and column with "x" on
    the empty diagonal, one line per ``write`` call."""
    labels = list(map(csv_field, labels))
    write("," + ",".join(labels) + "\n")
    for line in _rows(grid, [label + "," for label in labels], ",", "x", "\n"):
        write(line)


def matrix_json(grid: CountMatrix, labels: Sequence[str], write, depth: int = 2) -> None:
    """Write ``{"labels": [...], "cells": [[...]]}`` ``depth`` levels in of
    ``json.dumps(payload, indent=2)`` (by default a cluster payload's
    ``detail.matrix``): the labels in one ``write`` call, then the rows by
    ``jsonout.write_list``, in blocks of ``jsonout.BLOCK`` characters or
    more, the last closing the object; diagonal cells are structural zeros."""
    head, tail = jsonout.template(depth, "labels", "cells").rsplit("%s", 1)
    write(head % jsonout.array(list(map(jsonout.quote, labels)), depth + 1))
    inner = jsonout.pad(depth + 3)
    rows = _rows(grid, ["[" + inner] * grid.n, "," + inner, "0", jsonout.pad(depth + 2) + "]")
    jsonout.write_list(rows, depth + 1, write, tail)


def matrix_text(grid: CountMatrix, labels: Sequence[str], write) -> None:
    """Write the aligned text rendering for terminals, "x" on the diagonal,
    one line per ``write`` call."""
    # column widths come from the labels and the nonzero cells before any
    # row is made, since "0" and "x" are one character wide
    label_w = max((len(l) for l in labels), default=0)
    col_w = [max(len(label), 1) for label in labels]
    ints, floats = {}, {}
    for row in grid.rows:
        for w, c in row.items():
            texts = ints if type(c) is int else floats
            try:
                text = texts[c]
            except KeyError:
                text = texts[c] = str(c)
            if len(text) > col_w[w]:
                col_w[w] = len(text)
    write(" " * label_w + "  " + "  ".join(map(str.rjust, labels, col_w)) + "\n")
    zeros = ["0".rjust(w) for w in col_w]
    for i, row in enumerate(grid.rows):
        cells = zeros.copy()
        for w, c in row.items():
            cells[w] = (ints if type(c) is int else floats)[c].rjust(col_w[w])
        cells[i] = "x".rjust(col_w[i])
        write(labels[i].ljust(label_w) + "  " + "  ".join(cells) + "\n")
