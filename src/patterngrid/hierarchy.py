"""Incremental pattern hierarchy with merge and split maintenance.

Patterns are stored as nodes holding the full variable set and a count of
exact presentations. An event that extends a stored pattern does not grow
the pattern in place; it hangs a linked child node off it, the link naming
the added variables. An event that only partially covers a pattern is
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

Presentation never walks the forest. The store keeps a private index with
four parts: a dict from each pattern to the first node in walk order that
holds it, per-variable postings listing the nodes whose pattern holds that
variable, each node's pattern size, and each node's walk-order key, its path
tuple ``(root index, extension index, ...)``. Path tuples compare in the
order ``walk`` visits nodes, and appending a root or an extension gives the
new node a fresh path without moving any other, so presentation extends the
index in place. An event is looked up in the dict first; otherwise counting
its members through the postings gives every node's overlap with it, a node
being covered when the overlap is its size. Nodes the event does not touch
have zero overlap and cannot reach ``theta_new``, so skipping them picks the
same node the full walk would; paths are compared only when several nodes
share the largest overlap. The index is built from ``walk`` when
``present_all`` starts on a store without one, so hand-built stores work, and
``consolidate`` drops it, to be rebuilt on the next presentation. Code that
changes ``roots``, ``extensions`` or a node's pattern by hand after
presenting must set ``store._index = None`` the same way.

A presentation's outcome (which node gains an occurrence, or which part
count it bumps) depends on the nodes and their patterns, never on their
counts, and presentation only ever adds nodes. So ``present_all`` keeps a
memo from member tuple to outcome for the length of one call and replays a
repeated event from it, and clears the memo whenever a presentation adds a
node. ``present_all`` is the package's only presentation path; one event
is presented as ``present_all(store, (event,))``.
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
class Extension:
    """Link from a pattern node to the child that extends it.

    The child's full pattern is always parent pattern | adds; the child's
    occurrence count is the link's count.
    """

    adds: frozenset[int]
    node: PatternNode


@dataclass(slots=True)
class PatternNode:
    pattern: frozenset[int]
    occurrences: int = 0
    extensions: list[Extension] = field(default_factory=list)
    # Partial presentations recorded against this node, keyed by the part
    # of the event that fell inside the pattern. Only presented subsets are
    # tracked, never the full powerset.
    subset_counts: dict[frozenset[int], int] = field(default_factory=dict)


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
    _index: _Index | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 < self.theta_merge < math.inf:
            raise ConfigError("theta_merge must be greater than 1 and finite")
        if not 1 < self.theta_split < math.inf:
            raise ConfigError("theta_split must be greater than 1 and finite")
        if not 0 < self.theta_new <= 1:
            raise ConfigError("theta_new must be in (0, 1]")


@dataclass(slots=True)
class _Index:
    """Presentation lookup over a store's nodes; see the module docstring.

    Nodes are numbered by slot in the order they were indexed, which is not
    walk order once presentation has added nodes; ``paths`` holds walk
    order and ``sizes`` each pattern's length.
    """

    exact: dict[frozenset[int], int] = field(default_factory=dict)
    postings: defaultdict[int, list[int]] = field(default_factory=lambda: defaultdict(list))
    nodes: list[PatternNode] = field(default_factory=list)
    paths: list[tuple[int, ...]] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)

    def add(self, node: PatternNode, path: tuple[int, ...]) -> None:
        slot = len(self.nodes)
        self.nodes.append(node)
        self.paths.append(path)
        self.sizes.append(len(node.pattern))
        self.exact.setdefault(node.pattern, slot)
        for v in node.pattern:
            self.postings[v].append(slot)


def walk(store: HierarchyStore) -> Iterator[PatternNode]:
    """All nodes, depth first, roots in creation order. This is the tie
    order everywhere a best node is chosen.

    A node's path tuple ``(root index, extension index, ...)`` sorts in this
    order, which is how the presentation index breaks ties without walking.
    That index is rebuilt from this walk after ``consolidate``.
    """
    stack = list(reversed(store.roots))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed([e.node for e in node.extensions]))


def _build_index(store: HierarchyStore) -> _Index:
    index = _Index()
    stack = [((i,), root) for i, root in reversed(list(enumerate(store.roots)))]
    while stack:
        path, node = stack.pop()
        index.add(node, path)
        stack.extend(((*path, j), e.node) for j, e in reversed(list(enumerate(node.extensions))))
    return index


def present_all(store: HierarchyStore, events) -> HierarchyStore:
    """Record a presentation of each event in turn.

    Priority order: exact match on a stored pattern, extension of the most
    specific stored pattern the event covers, partial-overlap bookkeeping
    on the best-overlapping node when the fraction reaches theta_new, and
    finally a brand-new root. Outcomes are memoised by member tuple until
    a node is added (see the module docstring).
    """
    index = store._index
    if index is None:
        index = store._index = _build_index(store)
    exact, posting, nodes, paths, sizes = (
        index.exact, index.postings.__getitem__, index.nodes, index.paths, index.sizes
    )
    # member tuple -> (node, None) to count an occurrence of node, or
    # (node, key) to count key in node.subset_counts
    memo: dict[tuple[int, ...], tuple[PatternNode, frozenset[int] | None]] = {}
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
                    outcome = next(((e.node, None) for e in best.extensions if e.adds == adds), None)
                    if outcome is None:
                        best.extensions.append(Extension(adds, PatternNode(member_set, 1)))
                        index.add(best.extensions[-1].node, (*paths[slot], len(best.extensions) - 1))
                elif pool and top / len(member_set) >= store.theta_new:
                    outcome = best, best.pattern & member_set
                else:
                    store.roots.append(PatternNode(member_set, 1))
                    index.add(store.roots[-1], (len(store.roots) - 1,))
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


def _merge(store: HierarchyStore, parent: PatternNode, ext: Extension) -> None:
    """The extension becomes the whole pattern and the link is removed.

    Other extensions of the parent are about the pattern as it was, not
    the grown one, so rewriting them in place would falsify what was seen;
    they are detached and continue as roots.
    """
    child = ext.node
    for other in parent.extensions:
        if other is not ext:
            store.roots.append(other.node)
    parent.pattern = child.pattern
    parent.occurrences += child.occurrences
    parent.extensions = child.extensions
    for subset, count in child.subset_counts.items():
        parent.subset_counts[subset] = parent.subset_counts.get(subset, 0) + count


def _split(
    store: HierarchyStore,
    grand: PatternNode | None,
    node: PatternNode,
    subset: frozenset[int],
) -> PatternNode:
    """The dominant subset becomes its own node, which is returned; the full
    pattern stays as an extension of it, keeping its own count and children."""
    count = node.subset_counts.pop(subset)
    head = PatternNode(subset, count, [Extension(frozenset(node.pattern - subset), node)])
    if grand is None:
        store.roots[store.roots.index(node)] = head
    elif grand.pattern < subset:
        for ext in grand.extensions:
            if ext.node is node:
                ext.adds = frozenset(subset - grand.pattern)
                ext.node = head
                break
    else:
        # The subset does not extend the old parent, so the promoted node
        # cannot hang where the old one did.
        grand.extensions = [e for e in grand.extensions if e.node is not node]
        store.roots.append(head)
    return head


def consolidate(store: HierarchyStore) -> HierarchyStore:
    """Run merge and split to a fixed point.

    Applies the first merge candidate in walk order, or else the first
    split candidate, until neither exists (see ``_rules``), so the result is
    order deterministic. Terminates because a split always retires one
    tracked subset entry and a merge always retires one node while creating
    no subset entries. Drops the presentation index, since both rules move
    nodes.
    """
    store._index = None
    for _rule in _rules(store):
        pass
    return store


def _rules(store: HierarchyStore) -> Iterator[tuple]:
    """Each rule ``consolidate`` applies, yielded before it is applied and
    applied when the next one is asked for: ``(_merge, parent, extension)``
    for the first merge candidate in walk order, or else ``(_split, parent
    or None, node, subset)`` for the first split candidate, its smallest
    dominant subset in sorted-member order.

    One walk gives every node a key that sorts in walk order and queues it
    on a heap per rule when it passes that rule's test. A rule changes the
    tests of a few nodes and moves a few subtrees, so only those are
    re-tested and re-keyed; a heap entry whose key is no longer its node's,
    or whose node no longer passes, is dropped when it reaches the top.

    Keys: root ``i`` is keyed ``(i,)``, since roots are only appended or
    replaced in place, and the nodes under it ``(i, 0)``, ``(i, 1)``, ...
    in walk order; a new root's subtree is keyed the same way. Merging
    keeps the walk order of every node that stays in place, so the moved-up
    extensions keep their keys. A head that takes a node's place takes its
    key, and the node gets that key extended by a negative number, each one
    smaller than the last, which sorts it after the head and before
    everything that sorted after it; its subtree keeps its keys. So no rule
    re-keys more than the subtrees it moves to the end.

    A node's dominant subsets are listed once, in reverse sorted-member
    order, and listed again only when a merge changes its counts; a split
    retires the last of them.
    """
    keys: dict[int, tuple[int, ...]] = {}
    parents: dict[int, PatternNode | None] = {}
    dominant: dict[int, list[frozenset[int]]] = {}
    merges: list[tuple[tuple[int, ...], int, PatternNode]] = []
    splits: list[tuple[tuple[int, ...], int, PatternNode]] = []
    tiebreak, below_head = count(), count(-1, -1)

    def merge_ext(node: PatternNode) -> Extension | None:
        limit = store.theta_merge * node.occurrences
        return next((e for e in node.extensions if e.node.occurrences >= limit), None)

    def split_subset(node: PatternNode) -> frozenset[int] | None:
        subsets = dominant[id(node)]
        return subsets[-1] if subsets else None

    def retest(node: PatternNode) -> None:
        key = keys[id(node)]
        if merge_ext(node) is not None:
            heappush(merges, (key, next(tiebreak), node))
        if split_subset(node) is not None:
            heappush(splits, (key, next(tiebreak), node))

    def place(node: PatternNode, parent: PatternNode | None, key: tuple[int, ...]) -> None:
        keys[id(node)], parents[id(node)] = key, parent
        if id(node) not in dominant:
            limit = store.theta_split * node.occurrences
            hits = [subset for subset, n in node.subset_counts.items() if n >= limit]
            dominant[id(node)] = sorted(hits, key=sorted, reverse=True)
        retest(node)

    def place_roots(start: int) -> None:
        for i in range(start, len(store.roots)):
            walked, key = count(), (i,)
            stack = [(None, store.roots[i])]
            while stack:
                parent, node = stack.pop()
                place(node, parent, key)
                key = (i, next(walked))
                stack.extend((node, e.node) for e in reversed(node.extensions))

    def first(heap: list, test) -> tuple | None:
        while heap:
            key, _, node = heap[0]
            if keys.get(id(node)) == key and (found := test(node)) is not None:
                return node, found
            heappop(heap)
        return None

    place_roots(0)
    while True:
        if (rule := first(merges, merge_ext)) is not None:
            parent, ext = rule
            yield _merge, parent, ext
            for table in (keys, parents, dominant):
                del table[id(ext.node)]
            del dominant[id(parent)]
            roots = len(store.roots)
            _merge(store, parent, ext)
            # the child's extensions now hang from the parent, whose counts
            # changed, and its other extensions became new roots; its own
            # parent's test sees its larger count
            for e in parent.extensions:
                parents[id(e.node)] = parent
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


def _parts(node: PatternNode) -> list[tuple[list[int], int | float]]:
    """A node's parts as ``(sorted ids, count)`` pairs, in sorted-ids order."""
    counts = node.subset_counts
    return sorted(zip(map(sorted, counts), counts.values()))


def tree_text(store: HierarchyStore, labels: Sequence[str]) -> list[str]:
    """Indented text rendering, one line per node, part and extension link.
    Walks with its own stack, so any depth renders."""

    def name(ids: list[int]) -> str:
        return "{" + ",".join([labels[i] for i in ids]) + "}"

    lines: list[str] = []
    # (depth, node, the adds of the link it hangs from, None for a root)
    stack = [(0, root, None) for root in reversed(store.roots)]
    while stack:
        depth, node, adds = stack.pop()
        if adds is not None:
            lines.append(f"{'  ' * (depth - 1)}+{name(sorted(adds))} ->")
        lines.append(f"{'  ' * depth}{name(sorted(node.pattern))} x{node.occurrences}")
        lines += [f"{'  ' * (depth + 1)}part {name(ids)} x{n}" for ids, n in _parts(node)]
        stack.extend((depth + 2, e.node, e.adds) for e in reversed(node.extensions))
    return lines


def tree_json(store: HierarchyStore, labels: Sequence[str], write, depth: int = 1) -> int:
    """Write the forest as the ``"roots"`` list ``depth`` levels in of
    ``json.dumps(payload, indent=2)``, a node per ``write`` call, walking
    with its own stack so any depth is written; returns the characters written."""
    quoted, pad, template, array = list(map(jsonout.quote, labels)), jsonout.pad, jsonout.template, jsonout.array

    def name(ids: frozenset[int], depth: int) -> str:
        return array([quoted[i] for i in sorted(ids)], depth)

    roots = [(depth + 1, r, ("," if i else "[") + pad(depth + 1)) for i, r in enumerate(store.roots)]
    # text to write as it stands, or (depth, node, the text ahead of it)
    stack: list = [pad(depth) + "]" if roots else "[]", *reversed(roots)]
    written = 0
    while stack:
        item = stack.pop()
        if not isinstance(item, str):
            d, node, item = item
            head, tail = template(d, "pattern", "occurrences", "parts", "extensions").rsplit("%s", 1)
            # each part's members from its sorted ids, as ``array`` would write them
            part, inner = template(d + 2, "members", "count"), pad(d + 4)
            opening, comma, closing = "[" + inner, "," + inner, pad(d + 3) + "]"
            parts = [
                part % (opening + comma.join(map(quoted.__getitem__, ids)) + closing if ids else "[]", n)
                for ids, n in _parts(node)
            ]
            item += head % (name(node.pattern, d + 1), node.occurrences, array(parts, d + 1))
            exts = node.extensions
            if not exts:
                item += "[]" + tail
            else:
                stack.append(pad(d + 1) + "]" + tail)
                adds, ext_tail = template(d + 2, "adds", "node").rsplit("%s", 1)
                for i in reversed(range(len(exts))):
                    ahead = ("," if i else "[") + pad(d + 2) + adds % name(exts[i].adds, d + 3)
                    stack += (ext_tail, (d + 3, exts[i].node, ahead))
        write(item)
        written += len(item)
    return written
