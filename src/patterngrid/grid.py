"""Cross-referenced co-occurrence grid and cluster extraction.

The grid is a square count matrix over the whole vocabulary, every variable
listed both as a row and as a column. Presenting an event bumps the cell
for each unordered pair of its members in both orientations, so the matrix
stays symmetric; a variable's relation to itself is never written, leaving
the diagonal empty. Counting is a single pass over the events and is
order independent, so shards counted separately merge into the same matrix.

Extraction reads the finished grid. Each row nominates the variables above
the largest gap in its sorted nonzero counts (the row's head set); clusters
are the connected components of mutual nominations; and leftover
cross-cluster counts at or above a threshold are reported as inter-pattern
links rather than merged away. This is a frequency measurement over the
whole dataset, not a similarity measure, and it needs no prior
classification of the categories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .model import (
    ConfigError,
    DataError,
    Event,
    InterPatternLink,
    Partition,
    validate_event,
)


@dataclass(slots=True)
class CountMatrix:
    """Symmetric co-occurrence counts with an unused diagonal.

    ``increments`` audits the one-pass cost: every cell write adds one, so
    after counting events with sizes k_1..k_m it equals the pair work
    sum(k_i * (k_i - 1)).
    """

    cells: list[list[int | float]]
    increments: int = field(default=0, compare=False)

    @classmethod
    def zeros(cls, n: int) -> CountMatrix:
        return cls([[0] * n for _ in range(n)])

    @property
    def n(self) -> int:
        return len(self.cells)


@dataclass(slots=True)
class GridClusterResult:
    """Extraction output: the partition, the residual links between its
    clusters, and the per-variable head sets kept for audit."""

    partition: Partition
    links: tuple[InterPatternLink, ...]
    head_sets: dict[int, frozenset[int]]


def grid_update(grid: CountMatrix, event: Event, weight: int | float = 1) -> CountMatrix:
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


def count_events(grid: CountMatrix, events, weight: int | float = 1) -> CountMatrix:
    for event in events:
        grid_update(grid, event, weight)
    return grid


def grid_merge(a: CountMatrix, b: CountMatrix) -> CountMatrix:
    """Cellwise sum of two grids over the same vocabulary."""
    if a.n != b.n:
        raise DataError(f"cannot merge grids over {a.n} and {b.n} variables")
    merged = CountMatrix([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.cells, b.cells)])
    merged.increments = a.increments + b.increments
    return merged


def head_set(grid: CountMatrix, v: int, *, ties: str = "high") -> frozenset[int]:
    """The variables above the largest gap in row v's sorted nonzero counts.

    The cut rule is parameter free: sort the nonzero counts descending,
    cut where consecutive counts drop the most, keep everything above the
    cut. Ties between equal gaps go toward the larger counts by default
    (``ties="low"`` flips that). A row whose nonzero counts are all equal
    keeps all of them; an all-zero row nominates nothing.
    """
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


def extract_clusters(
    grid: CountMatrix, tau_link: int | float = 2, *, ties: str = "high"
) -> GridClusterResult:
    """Read clusters and residual links out of a finished grid.

    Two variables belong together only when each sits in the other's head
    set; clusters are the connected components of that mutual agreement,
    size one components staying unassigned (no fallback reassignment is
    attempted). Links are every cross-cluster pair whose cell reaches
    ``tau_link``, reported with the cell value as strength.
    """
    if not 1 <= tau_link < math.inf:
        raise ConfigError("tau_link must be at least 1 and finite")
    n = grid.n
    heads = {v: head_set(grid, v, ties=ties) for v in range(n)}
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
    return GridClusterResult(partition, tuple(links), heads)


def matrix_csv(grid: CountMatrix, labels: Sequence[str]) -> str:
    """CSV rendering with a label header row and column; the empty diagonal
    is shown as "x"."""
    lines = ["," + ",".join(labels)]
    for i, label in enumerate(labels):
        cells = [label]
        for j in range(grid.n):
            cells.append("x" if i == j else str(grid.cells[i][j]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def matrix_json(grid: CountMatrix, labels: Sequence[str]) -> dict:
    """Dense JSON form; diagonal cells are structural zeros (never written)."""
    return {"labels": list(labels), "cells": [list(row) for row in grid.cells]}


def matrix_text(grid: CountMatrix, labels: Sequence[str]) -> str:
    """Aligned text rendering for terminals, "x" on the diagonal."""
    rendered = [
        ["x" if i == j else str(grid.cells[i][j]) for j in range(grid.n)] for i in range(grid.n)
    ]
    label_w = max((len(l) for l in labels), default=0)
    col_w = [
        max([len(labels[j])] + [len(rendered[i][j]) for i in range(grid.n)])
        for j in range(grid.n)
    ]
    lines = [" " * label_w + "  " + "  ".join(labels[j].rjust(col_w[j]) for j in range(grid.n))]
    for i in range(grid.n):
        cells = "  ".join(rendered[i][j].rjust(col_w[j]) for j in range(grid.n))
        lines.append(labels[i].ljust(label_w) + "  " + cells)
    return "\n".join(lines) + "\n"
