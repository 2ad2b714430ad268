"""Incremental pattern hierarchy with merge and split maintenance.

Patterns are stored as nodes holding the full variable set and a count of
exact presentations. An event that extends a stored pattern does not grow
the pattern in place; it hangs a child node off it, which names the
variables its link adds. An event that only partially covers a pattern is
recorded as bookkeeping on the best-overlapping node, and an event too far
from everything starts a fresh root.

Maintenance is explicit rather than continuous: ``consolidate`` applies the
merge rule (an extension presented often enough relative to its parent
becomes the whole pattern and the link disappears) and the split rule (a
sub-pattern presented often enough relative to the full pattern becomes its
own node, the remainder demoted to an extension of it) until neither fires.
Every presentation contributes exactly one unit of occurrence mass and both
rules conserve it, so the tree can always be audited against the number of
presentations. Consolidation walks the forest once: it keys every node in
walk order and keeps the merge and split candidates on two heaps; after each
rule it re-tests only the nodes the rule touched and re-keys only the nodes
it moved.

Every order that decides a tie is the one preorder walk, ``_preorder``:
roots in order, each followed by its extension subtrees in order. It
yields each node with its parent and its path ``(root index, extension
index, ...)``; paths compare in walk order, and appending a root or an
extension gives the new node a fresh path without moving any other.

Presentation never walks the forest per event. ``present_all`` builds an
index from the walk when it starts and drops it when it returns, so a
store edited by hand between calls needs no reset. The index has four
parts: a dict from each pattern to the first node in walk order that holds
it, per-variable postings listing the nodes whose pattern holds that
variable, each node's pattern size, and each node's path. Presentation
extends it in place as it adds nodes. An event is looked up in the dict
first; otherwise counting its members through the postings gives every
node's overlap with it, a node being covered when the overlap is its size.
Nodes the event does not touch have zero overlap and cannot reach
``theta_new``, so skipping them picks the same node the full walk would;
paths are compared only when several nodes share the largest overlap.

A presentation's outcome (which node gains an occurrence, or which part
count it bumps) depends on the nodes and their patterns, never on their
counts, and presentation only ever adds nodes. So ``present_all`` keeps a
memo from member tuple to outcome for the length of one call and replays a
repeated event from it, and clears the memo whenever a presentation adds a
node. ``present_all`` is the package's only presentation path; one event
is presented as ``present_all(store, (event,))``, though each call indexes
the whole store first, so many events belong in one call.
"""

from __future__ import annotations

import math
from collections import _count_elements, defaultdict
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain, count
from operator import countOf
from typing import Iterator, Sequence

from . import jsonout
from .model import ConfigError


@dataclass(slots=True)
class PatternNode:
    pattern: frozenset[int]
    occurrences: int = 0
    # the child nodes that extend this one, each linked by its ``adds``
    extensions: list[PatternNode] = field(default_factory=list)
    # Partial presentations recorded against this node, keyed by the part of
    # the event that fell inside the pattern, as its ascending id tuple. Only
    # presented subsets are tracked, never the full powerset.
    subset_counts: dict[tuple[int, ...], int] = field(default_factory=dict)
    # what the link into this node adds to its parent's pattern; unread on a root
    adds: frozenset[int] = frozenset()


@dataclass(slots=True)
class HierarchyStore:
    """Forest of pattern nodes plus the maintenance thresholds.

    theta_merge and theta_split are dominance ratios (how much more often
    the extension or subset must appear than its host) and must exceed 1;
    theta_new is the minimum overlap fraction an event must share with some
    stored pattern to avoid spawning a new root.
    """

    roots: list[PatternNode] = field(default_factory=list)
    theta_merge: float = 2.0
    theta_split: float = 2.0
    theta_new: float = 0.5
    presentations: int = 0

    def __post_init__(self) -> None:
        if not 1 < self.theta_merge < math.inf:
            raise ConfigError("theta_merge must be greater than 1 and finite")
        if not 1 < self.theta_split < math.inf:
            raise ConfigError("theta_split must be greater than 1 and finite")
        if not 0 < self.theta_new <= 1:
            raise ConfigError("theta_new must be in (0, 1]")


def _preorder(store: HierarchyStore, start: int = 0) -> Iterator[tuple]:
    """``(path, parent, node)`` for every node under the roots from index
    ``start`` on, in walk order, the parent ``None`` for a root. Walks with
    its own stack, so any depth is walked."""
    stack = [((i,), None, store.roots[i]) for i in reversed(range(start, len(store.roots)))]
    while stack:
        path, _, node = item = stack.pop()
        yield item
        exts = node.extensions
        stack.extend(((*path, j), node, exts[j]) for j in reversed(range(len(exts))))


def walk(store: HierarchyStore) -> Iterator[PatternNode]:
    """All nodes, depth first, roots in creation order. This is the tie
    order everywhere a best node is chosen."""
    return (node for _, _, node in _preorder(store))


def present_all(store: HierarchyStore, events) -> HierarchyStore:
    """Record a presentation of each event in turn.

    Priority order: exact match on a stored pattern, extension of the most
    specific stored pattern the event covers, partial-overlap bookkeeping
    on the best-overlapping node when the fraction reaches theta_new, and
    finally a brand-new root. Outcomes are memoised by member tuple until
    a node is added (see the module docstring).
    """
    # the index of the module docstring, by slot in the order nodes were
    # added, which is not walk order once presentation adds nodes
    exact: dict[frozenset[int], int] = {}
    postings: defaultdict[int, list[int]] = defaultdict(list)
    nodes: list[PatternNode] = []
    paths: list[tuple[int, ...]] = []
    sizes: list[int] = []

    def add(path: tuple[int, ...], node: PatternNode) -> None:
        exact.setdefault(node.pattern, len(nodes))
        for v in node.pattern:
            postings[v].append(len(nodes))
        nodes.append(node)
        paths.append(path)
        sizes.append(len(node.pattern))

    for path, _, node in _preorder(store):
        add(path, node)
    posting = postings.__getitem__
    # member tuple -> (node, None) to count an occurrence of node, or
    # (node, key) to count key in node.subset_counts
    memo: dict[tuple[int, ...], tuple[PatternNode, tuple[int, ...] | None]] = {}
    for event in events:
        store.presentations += 1
        outcome = memo.get(members := event.members)
        if outcome is None:
            member_set = frozenset(members)
            slot = exact.get(member_set)
            if slot is not None:
                outcome = nodes[slot], None
            else:
                # the private C loop behind Counter.update, into a plain dict:
                # building a Counter per event cost a quarter of this loop
                overlap: dict[int, int] = {}
                _count_elements(overlap, chain.from_iterable(map(posting, member_set)))
                covered = [s for s, k in overlap.items() if k == sizes[s]]
                # the largest overlap, ties to walk order (a tie with a node
                # outside the pool costs only the path lookups); a covered
                # node's overlap is its size, so among them the largest pattern
                if pool := covered or overlap:
                    slot = max(pool, key=overlap.__getitem__)
                    if countOf(overlap.values(), top := overlap[slot]) > 1:
                        slot = min([s for s in pool if overlap[s] == top], key=paths.__getitem__)
                    best = nodes[slot]
                if covered:
                    adds = member_set - best.pattern
                    outcome = next(((e, None) for e in best.extensions if e.adds == adds), None)
                    if outcome is None:
                        best.extensions.append(child := PatternNode(member_set, 1, adds=adds))
                        add((*paths[slot], len(best.extensions) - 1), child)
                elif pool and top / len(member_set) >= store.theta_new:
                    outcome = best, tuple(sorted(best.pattern & member_set))
                else:
                    store.roots.append(PatternNode(member_set, 1))
                    add((len(store.roots) - 1,), store.roots[-1])
            if outcome is None:
                memo.clear()
                continue
            memo[members] = outcome
        node, key = outcome
        if key is None:
            node.occurrences += 1
        else:
            node.subset_counts[key] = node.subset_counts.get(key, 0) + 1
    return store


def total_mass(store: HierarchyStore) -> int:
    """Occurrence mass over the whole forest; always equals the number of
    presentations."""
    mass = 0
    for node in walk(store):
        mass += node.occurrences + sum(node.subset_counts.values())
    return mass


def _merge(store: HierarchyStore, parent: PatternNode, child: PatternNode) -> None:
    """The extension becomes the whole pattern and the link is removed.

    Other extensions of the parent are about the pattern as it was, not
    the grown one, so rewriting them in place would falsify what was seen;
    they are detached and continue as roots.
    """
    for other in parent.extensions:
        if other is not child:
            store.roots.append(other)
    parent.pattern = child.pattern
    parent.occurrences += child.occurrences
    parent.extensions = child.extensions
    for subset, count in child.subset_counts.items():
        parent.subset_counts[subset] = parent.subset_counts.get(subset, 0) + count


def _split(
    store: HierarchyStore,
    grand: PatternNode | None,
    node: PatternNode,
    subset: tuple[int, ...],
) -> PatternNode:
    """The dominant subset becomes its own node, which is returned; the full
    pattern stays as an extension of it, keeping its own count and children."""
    count = node.subset_counts.pop(subset)
    pattern = frozenset(subset)
    head = PatternNode(pattern, count, [node])
    node.adds = node.pattern - pattern
    if grand is None:
        store.roots[store.roots.index(node)] = head
    elif grand.pattern < pattern:
        head.adds = pattern - grand.pattern
        grand.extensions = [head if e is node else e for e in grand.extensions]
    else:
        # The subset does not extend the old parent, so the promoted node
        # cannot hang where the old one did.
        grand.extensions = [e for e in grand.extensions if e is not node]
        store.roots.append(head)
    return head


def consolidate(store: HierarchyStore) -> HierarchyStore:
    """Run merge and split to a fixed point.

    Applies the first merge candidate in walk order, or else the first
    split candidate, until neither exists (see ``_rules``), so the result is
    order deterministic. Terminates because a split always retires one
    tracked subset entry and a merge always retires one node while creating
    no subset entries.
    """
    for _rule in _rules(store):
        pass
    return store


def _rules(store: HierarchyStore) -> Iterator[tuple]:
    """Each rule ``consolidate`` applies, yielded before it is applied and
    applied when the next one is asked for: ``(_merge, parent, child)``
    for the first merge candidate in walk order, or else ``(_split, parent
    or None, node, subset)`` for the first split candidate, its smallest
    dominant subset in ascending id-tuple order.

    One walk gives every node a key that sorts in walk order and queues it
    on a heap per rule when it passes that rule's test. A rule changes the
    tests of a few nodes and moves a few subtrees, so only those are
    re-tested and re-keyed; a heap entry whose key is no longer its node's,
    or whose node no longer passes, is dropped when it reaches the top.

    Keys: the first walk keys every node by its path from ``_preorder``,
    and a root a rule appends has its subtree keyed the same way; roots
    are only appended or replaced in place, so no other key moves. Merging
    keeps the walk order of every node that stays in place, so the moved-up
    extensions keep their keys, though not their paths. A head that takes
    a node's place takes its key, and the node gets that key extended by a
    negative number, each one smaller than the last, which sorts it after
    the head and before everything that sorted after it; its subtree keeps
    its keys. So no rule re-keys more than the subtrees it moves to the end.

    A node's dominant subsets are listed once, in reverse id-tuple order,
    and listed again only when a merge changes its counts; a split
    retires the last of them.
    """
    keys: dict[int, tuple[int, ...]] = {}
    parents: dict[int, PatternNode | None] = {}
    dominant: dict[int, list[tuple[int, ...]]] = {}
    merges: list[tuple[tuple[int, ...], int, PatternNode]] = []
    splits: list[tuple[tuple[int, ...], int, PatternNode]] = []
    tiebreak, below_head = count(), count(-1, -1)

    def merge_child(node: PatternNode) -> PatternNode | None:
        limit = store.theta_merge * node.occurrences
        return next((e for e in node.extensions if e.occurrences >= limit), None)

    def split_subset(node: PatternNode) -> tuple[int, ...] | None:
        subsets = dominant[id(node)]
        return subsets[-1] if subsets else None

    def retest(node: PatternNode) -> None:
        key = keys[id(node)]
        if merge_child(node) is not None:
            heappush(merges, (key, next(tiebreak), node))
        if split_subset(node) is not None:
            heappush(splits, (key, next(tiebreak), node))

    def place(node: PatternNode, parent: PatternNode | None, key: tuple[int, ...]) -> None:
        keys[id(node)], parents[id(node)] = key, parent
        if id(node) not in dominant:
            limit = store.theta_split * node.occurrences
            hits = [subset for subset, n in node.subset_counts.items() if n >= limit]
            dominant[id(node)] = sorted(hits, reverse=True)
        retest(node)

    def place_roots(start: int) -> None:
        for path, parent, node in _preorder(store, start):
            place(node, parent, path)

    def first(heap: list, test) -> tuple | None:
        while heap:
            key, _, node = heap[0]
            if keys.get(id(node)) == key and (found := test(node)) is not None:
                return node, found
            heappop(heap)
        return None

    place_roots(0)
    while True:
        if (rule := first(merges, merge_child)) is not None:
            parent, child = rule
            yield _merge, parent, child
            for table in (keys, parents, dominant):
                del table[id(child)]
            del dominant[id(parent)]
            roots = len(store.roots)
            _merge(store, parent, child)
            # the child's extensions now hang from the parent, whose counts
            # changed, and its other extensions became new roots; its own
            # parent's test sees its larger count
            for e in parent.extensions:
                parents[id(e)] = parent
            grand = parents[id(parent)]
            place(parent, grand, keys[id(parent)])
            if grand is not None:
                retest(grand)
            place_roots(roots)
        elif (rule := first(splits, split_subset)) is not None:
            node, subset = rule
            grand = parents[id(node)]
            yield _split, grand, node, subset
            key, roots = keys[id(node)], len(store.roots)
            head = _split(store, grand, node, subset)
            dominant[id(node)].pop()
            # the head takes the node's place or is detached as a new root
            # with the node's subtree under it; the grandparent's extension
            # changed or went
            if len(store.roots) > roots:
                place_roots(roots)
            else:
                place(head, grand, key)
                place(node, head, (*key, next(below_head)))
            if grand is not None:
                retest(grand)
        else:
            return


def tree_text(store: HierarchyStore, labels: Sequence[str]) -> list[str]:
    """Indented text rendering, one line per node, part and extension link,
    in walk order, so any depth renders."""

    def name(ids: Sequence[int]) -> str:
        return "{" + ",".join([labels[i] for i in ids]) + "}"

    lines: list[str] = []
    for path, parent, node in _preorder(store):
        pad = "    " * (len(path) - 1)
        if parent is not None:
            lines.append(f"{pad[2:]}+{name(sorted(node.adds))} ->")
        lines.append(f"{pad}{name(sorted(node.pattern))} x{node.occurrences}")
        lines += [f"{pad}  part {name(ids)} x{n}" for ids, n in sorted(node.subset_counts.items())]
    return lines


def tree_json(store: HierarchyStore, labels: Sequence[str], write, depth: int = 1) -> None:
    """Write the forest as the ``"roots"`` list ``depth`` levels in of
    ``json.dumps(payload, indent=2)``, a node per ``write`` call, in walk
    order, so any depth is written."""
    quoted, pad, template, array = list(map(jsonout.quote, labels)), jsonout.pad, jsonout.template, jsonout.array

    def name(ids: frozenset[int], depth: int) -> str:
        return array([quoted[i] for i in sorted(ids)], depth)

    # the text that closes each node on the path to the last one written
    closing: list[str] = []
    for path, _, node in _preorder(store):
        d, level = depth + 3 * len(path) - 2, len(path) - 1
        item = "".join(reversed(closing[level:])) + ("," if path[-1] else "[")
        del closing[level:]
        head, tail = template(d, "pattern", "occurrences", "parts", "extensions").rsplit("%s", 1)
        if level:
            adds, link_tail = template(d - 1, "adds", "node").rsplit("%s", 1)
            item += pad(d - 1) + adds % name(node.adds, d)
            tail += link_tail
        else:
            item += pad(d)
        # each part's members from its sorted ids, as ``array`` would write them
        part, inner = template(d + 2, "members", "count"), pad(d + 4)
        opening, comma, shut = "[" + inner, "," + inner, pad(d + 3) + "]"
        parts = [
            part % (opening + comma.join(map(quoted.__getitem__, ids)) + shut if ids else "[]", n)
            for ids, n in sorted(node.subset_counts.items())
        ]
        item += head % (name(node.pattern, d + 1), node.occurrences, array(parts, d + 1))
        if node.extensions:
            closing.append(pad(d + 1) + "]" + tail)
        else:
            item += "[]" + tail
        write(item)
    write("".join(reversed(closing)) + (pad(depth) + "]" if store.roots else "[]"))
