import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from patterngrid import hierarchy
from patterngrid.hierarchy import (
    HierarchyStore,
    PatternNode,
    consolidate,
    present_all,
    total_mass,
    tree_text,
    walk,
)
from patterngrid.model import ConfigError, DataError, Event

from .oracles import (
    consolidate_oracle,
    find_merge_oracle,
    find_split_oracle,
    hierarchy_walk_oracle,
    random_dataset,
    tree_json,
    tree_text_oracle,
)

A, B, C, D, E, F, G = range(7)
LABELS = ["A", "B", "C", "D", "E", "F", "G"]


def _store(*events: tuple, **thetas) -> HierarchyStore:
    store = HierarchyStore(**thetas)
    present_all(store, [Event(e) for e in events])
    return store


class TestPresent:
    def test_extension_hangs_off_covered_pattern(self):
        store = _store((A, B, C, D), (A, B, C, D, E))
        (root,) = store.roots
        assert root.pattern == {A, B, C, D}
        assert root.occurrences == 1
        (ext,) = root.extensions
        assert ext.adds == {E}
        assert ext.pattern == {A, B, C, D, E}
        assert ext.occurrences == 1

    def test_repeat_presentation_increments(self):
        store = _store((A, B, C, D), (A, B, C, D))
        (root,) = store.roots
        assert root.occurrences == 2
        assert not root.extensions

    def test_low_overlap_spawns_new_root(self):
        store = _store((A, B, C, D), (A, F, G))
        assert [r.pattern for r in store.roots] == [{A, B, C, D}, {A, F, G}]

    def test_partial_overlap_is_bookkept_not_extended(self):
        store = _store((A, B, C, D), (A, B, C))
        (root,) = store.roots
        assert root.subset_counts == {(A, B, C): 1}
        assert root.occurrences == 1
        assert not root.extensions

    def test_bookkeeping_targets_best_overlap(self):
        store = _store((A, B, C, D), (E, F, G), (A, B, E))
        first, second = store.roots
        # 2/3 against the first root beats 1/3 against the second
        assert first.subset_counts == {(A, B): 1}
        assert second.subset_counts == {}

    def test_exact_match_on_extension_node(self):
        store = _store((A, B), (A, B, C), (A, B, C))
        (root,) = store.roots
        assert root.extensions[0].occurrences == 2

    def test_most_specific_covered_pattern_wins(self):
        store = _store((A, B), (A, B, C), (A, B, C, D))
        (root,) = store.roots
        (ext,) = root.extensions
        # {A,B,C,D} extends {A,B,C}, not the smaller {A,B}
        assert ext.extensions[0].adds == {D}
        assert ext.extensions[0].pattern == {A, B, C, D}

    def test_covered_tie_goes_to_walk_order(self):
        store = _store((A, B), (C, D), (A, B, C, D))
        first, second = store.roots
        assert first.extensions[0].adds == {C, D}
        assert not second.extensions

    def test_presentations_counted(self):
        store = _store((A, B), (A, B), (C, D))
        assert store.presentations == 3
        assert total_mass(store) == 3


class TestConsolidateMerge:
    def test_dominant_extension_merges(self):
        store = _store(*([(A, B, C, D)] * 2 + [(A, B, C, D, E)] * 6))
        consolidate(store)
        (root,) = store.roots
        assert root.pattern == {A, B, C, D, E}
        assert root.occurrences == 8
        assert not root.extensions

    def test_below_threshold_is_a_fixed_point(self):
        store = _store(*([(A, B, C, D)] * 2 + [(A, B, C, D, E)] * 3))
        before = tree_json(store, LABELS)
        consolidate(store)
        assert tree_json(store, LABELS) == before

    def test_narrative_boundary(self):
        for k in range(1, 6):
            store = _store((A, B, C, D), *([(A, B, C, D, E)] * k))
            consolidate(store)
            merged = store.roots[0].pattern == {A, B, C, D, E}
            assert merged == (k >= 2), f"k={k}"
            assert total_mass(store) == 1 + k

    def test_merge_absorbs_grandchildren(self):
        store = _store((A, B), (A, B, C), (A, B, C), (A, B, C, D))
        consolidate(store)
        (root,) = store.roots
        assert root.pattern == {A, B, C}
        assert root.occurrences == 3
        (ext,) = root.extensions
        assert ext.adds == {D}
        assert ext.pattern == {A, B, C, D}

    def test_merge_detaches_siblings_unchanged(self):
        store = _store(*([(A, B)] * 3 + [(A, B, C)] * 6 + [(A, B, D)]))
        consolidate(store)
        assert [r.pattern for r in store.roots] == [{A, B, C}, {A, B, D}]
        assert [r.occurrences for r in store.roots] == [9, 1]
        assert total_mass(store) == 10


class TestConsolidateSplit:
    def test_dominant_subset_splits(self):
        store = _store((A, B, C, D), (A, B, C), (A, B, C), (A, B, C))
        consolidate(store)
        (root,) = store.roots
        assert root.pattern == {A, B, C}
        assert root.occurrences == 3
        (ext,) = root.extensions
        assert ext.adds == {D}
        assert ext.pattern == {A, B, C, D}
        assert ext.occurrences == 1
        assert ext.subset_counts == {}
        assert total_mass(store) == 4

    def test_subset_below_threshold_stays_bookkept(self):
        store = _store((A, B, C, D), (A, B, C, D), (A, B, C))
        consolidate(store)
        (root,) = store.roots
        assert root.pattern == {A, B, C, D}
        assert root.subset_counts == {(A, B, C): 1}

    def test_split_replaces_child_in_place_when_it_still_extends(self):
        # hand-built store: bookkeeping that still contains the parent
        # pattern can only arise through direct construction
        deep = PatternNode(
            frozenset({0, 1, 2, 3}), 1, subset_counts={(0, 1, 2): 2}, adds=frozenset({2, 3})
        )
        top = PatternNode(frozenset({0, 1}), 5, [deep])
        store = HierarchyStore(roots=[top], presentations=8)
        consolidate(store)
        (ext,) = top.extensions
        assert ext.adds == {2}
        assert ext.pattern == {0, 1, 2}
        assert ext.occurrences == 2
        assert ext.extensions[0] is deep
        assert total_mass(store) == 8

    def test_split_detaches_when_subset_leaves_the_parent(self):
        store = _store((A, B), (A, B, C, D), (A, C, D), (A, C, D))
        consolidate(store)
        assert [r.pattern for r in store.roots] == [{A, B}, {A, C, D}]
        promoted = store.roots[1]
        assert promoted.occurrences == 2
        assert promoted.extensions[0].adds == {B}
        assert promoted.extensions[0].pattern == {A, B, C, D}
        # the old parent keeps its own count but loses the link
        assert store.roots[0].extensions == []
        assert total_mass(store) == 4


class TestInvariants:
    def test_mass_equals_presentations_on_random_stores(self):
        for seed in range(25):
            dataset = random_dataset(seed, max_vars=8, max_events=30)
            store = HierarchyStore()
            present_all(store, dataset.events)
            assert total_mass(store) == len(dataset.events)
            consolidate(store)
            assert total_mass(store) == len(dataset.events)

    def test_consolidate_idempotent_on_random_stores(self):
        for seed in range(25):
            dataset = random_dataset(seed, max_vars=8, max_events=30)
            store = HierarchyStore()
            present_all(store, dataset.events)
            consolidate(store)
            snapshot = tree_json(store, dataset.labels)
            consolidate(store)
            assert tree_json(store, dataset.labels) == snapshot, f"seed {seed}"

    def test_fixed_point_property(self):
        for seed in range(25):
            dataset = random_dataset(seed, max_vars=8, max_events=30)
            store = HierarchyStore()
            present_all(store, dataset.events)
            consolidate(store)
            for node in walk(store):
                for ext in node.extensions:
                    assert ext.pattern == node.pattern | ext.adds
                    assert ext.occurrences < store.theta_merge * node.occurrences
                for subset, count in node.subset_counts.items():
                    assert subset == tuple(sorted(set(subset))) and set(subset) < node.pattern
                    assert count < store.theta_split * node.occurrences

    @given(st.integers(0, 10_000))
    def test_extension_invariant_holds_while_presenting(self, seed):
        dataset = random_dataset(seed, max_vars=8, max_events=30)
        store = HierarchyStore()
        present_all(store, dataset.events)
        for node in walk(store):
            for ext in node.extensions:
                assert ext.pattern == node.pattern | ext.adds
                assert node.pattern < ext.pattern

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="merging a node that is not a root grows its pattern, but its"
        " adds still names the old difference from its parent",
    )
    def test_extension_invariant_after_a_non_root_merge(self):
        # {A} x2, extended by {A,B} x1, extended by {A,B,C} x2: the merge
        # rule folds {A,B,C} into {A,B}, which hangs from the root {A}
        store = _store((A,), (A,), (A, B), (A, B, C), (A, B, C))
        consolidate(store)
        (root,) = store.roots
        (ext,) = root.extensions
        assert (root.pattern, ext.pattern, ext.occurrences) == ({A}, {A, B, C}, 3)
        assert ext.pattern == root.pattern | ext.adds


def _oracle_present_all(store: HierarchyStore, events) -> HierarchyStore:
    for event in events:
        hierarchy_walk_oracle(store, event)
    return store


def _hand_built_store() -> HierarchyStore:
    # extension links, bookkeeping and two roots sharing a pattern, which
    # presentation alone never produces
    deep = PatternNode(
        frozenset({0, 1, 2, 3}), 1, subset_counts={(0, 1, 2): 2}, adds=frozenset({2, 3})
    )
    top = PatternNode(frozenset({0, 1}), 5, [deep])
    twin = PatternNode(frozenset({4, 5}), 1)
    again = PatternNode(
        frozenset({4, 5}), 2, [PatternNode(frozenset({0, 4, 5}), 1, adds=frozenset({0}))]
    )
    return HierarchyStore(roots=[top, twin, again], presentations=13)


events_over_six = st.lists(
    st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True).map(
        lambda members: Event(tuple(members))
    ),
    max_size=40,
)

# theta_merge and theta_split
dominance_ratios = st.floats(1.0, 4.0, exclude_min=True)


@st.composite
def repeated_events(draw) -> list[Event]:
    """A long stream over a few member tuples, each presented in its own
    order and reversed, as shared Event objects."""
    pool = draw(
        st.lists(
            st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True).map(tuple),
            min_size=1,
            max_size=6,
        )
    )
    shared = [Event(m) for m in pool] + [Event(m[::-1]) for m in pool]
    return draw(st.lists(st.sampled_from(shared), max_size=200))


def _json_text(store: HierarchyStore, labels) -> str:
    pieces: list[str] = []
    hierarchy.tree_json(store, labels, pieces.append)
    return "".join(pieces)


class TestPresentAll:
    """``present_all`` is the one presentation loop; these tests also call
    it on one event at a time and compare with one batch call."""

    @given(st.integers(0, 10_000), st.integers(0, 60), st.booleans())
    def test_raising_events_leave_k_presentations(self, seed, k, hand_built):
        # the k events before the failure are each presented once, and the
        # store is the one those k events alone give
        dataset = random_dataset(seed, max_vars=6, max_events=60)
        head = dataset.events[:k]

        def events():
            yield from head
            raise DataError("the source failed")

        store, expected = (_hand_built_store() if hand_built else HierarchyStore() for _ in range(2))
        presented, mass = store.presentations, total_mass(store)
        with pytest.raises(DataError):
            present_all(store, events())
        assert store.presentations - presented == total_mass(store) - mass == len(head)
        assert repr(store) == repr(present_all(expected, head))

    @given(
        st.one_of(repeated_events(), events_over_six),
        st.sampled_from([0.25, 0.5, 1.0]),
        st.booleans(),
    )
    def test_one_event_calls_folded_equal_present_all(self, events, theta_new, hand_built):
        folded, batch = (_hand_built_store() if hand_built else HierarchyStore() for _ in range(2))
        folded.theta_new = batch.theta_new = theta_new
        for event in events:
            assert present_all(folded, (event,)) is folded
        assert present_all(batch, events) is batch
        assert repr(folded) == repr(batch)
        assert tree_json(folded, LABELS) == tree_json(batch, LABELS)
        assert _json_text(folded, LABELS) == _json_text(batch, LABELS)


class TestMemoMatchesWalk:
    """``present_all`` replays memoised outcomes; the per-event walk in
    tests/oracles.py applies every presentation afresh."""

    @given(repeated_events(), st.sampled_from([0.25, 0.5, 1.0]), st.booleans())
    # {A,B,E} is bookkept on {A,B,C,D} until the root {E} appears; from then
    # on it extends {E}
    @example([Event((A, B, C, D)), Event((A, B, E)), Event((E,)), Event((A, B, E))], 0.5, False)
    def test_repeated_member_tuples(self, events, theta_new, hand_built):
        fast, slow = (
            _hand_built_store() if hand_built else HierarchyStore() for _ in range(2)
        )
        fast.theta_new = slow.theta_new = theta_new

        def same() -> bool:
            return (tree_json(fast, LABELS), repr(fast), fast.presentations) == (
                tree_json(slow, LABELS), repr(slow), slow.presentations
            )

        present_all(fast, events)
        _oracle_present_all(slow, events)
        assert same()
        consolidate(fast)
        consolidate_oracle(slow)
        assert same()


class TestIndexMatchesWalk:
    """The indexed presentation and the rule finder against the full scans
    in tests/oracles.py."""

    @given(st.integers(0, 10_000), st.sampled_from([0.25, 0.5, 1.0]))
    def test_random_datasets(self, seed, theta_new):
        dataset = random_dataset(seed, max_vars=8, max_events=60)
        fast = present_all(HierarchyStore(theta_new=theta_new), dataset.events)
        slow = _oracle_present_all(HierarchyStore(theta_new=theta_new), dataset.events)
        assert tree_json(fast, dataset.labels) == tree_json(slow, dataset.labels)
        assert fast.presentations == slow.presentations == len(dataset.events)

    @given(
        st.integers(0, 10_000),
        st.sampled_from([0.25, 0.5, 1.0]),
        st.floats(0.0, 1.0),
    )
    def test_present_consolidate_present(self, seed, theta_new, cut):
        # consolidate moves nodes, so the second round runs on a rebuilt
        # index over a forest that may hold one pattern twice
        dataset = random_dataset(seed, max_vars=8, max_events=60)
        head = dataset.events[: int(cut * len(dataset.events))]
        tail = dataset.events[len(head) :]
        fast = present_all(HierarchyStore(theta_new=theta_new), head)
        slow = _oracle_present_all(HierarchyStore(theta_new=theta_new), head)
        consolidate(fast)
        consolidate_oracle(slow)
        assert tree_json(fast, dataset.labels) == tree_json(slow, dataset.labels)
        present_all(fast, tail)
        _oracle_present_all(slow, tail)
        assert tree_json(fast, dataset.labels) == tree_json(slow, dataset.labels)
        assert fast.presentations == slow.presentations == len(dataset.events)
        consolidate(fast)
        consolidate_oracle(slow)
        assert tree_json(fast, dataset.labels) == tree_json(slow, dataset.labels)

    @given(events_over_six)
    def test_hand_built_store(self, events):
        fast = present_all(_hand_built_store(), events)
        slow = _oracle_present_all(_hand_built_store(), events)
        assert tree_json(fast, LABELS) == tree_json(slow, LABELS)
        assert fast.presentations == slow.presentations == 13 + len(events)

    @given(st.integers(0, 10_000))
    def test_split_candidate_on_every_pass(self, seed):
        # the worklist's rule is the oracles' on every pass: the same node
        # and extension or parent objects, and an equal subset
        dataset = random_dataset(seed, max_vars=8, max_events=60)
        store = present_all(HierarchyStore(), dataset.events)
        for rule in hierarchy._rules(store):
            merge, split = find_merge_oracle(store), find_split_oracle(store)
            if merge is not None:
                expected = (hierarchy._merge, *merge)
            else:
                assert split is not None
                expected = (hierarchy._split, *split)
            assert len(rule) == len(expected)
            assert all(a is b for a, b in zip(rule[:-1], expected[:-1]))
            if merge is not None:
                assert rule[-1] is expected[-1]
            else:
                assert rule[-1] == expected[-1]
        assert find_merge_oracle(store) is None
        assert find_split_oracle(store) is None

    @given(events_over_six, dominance_ratios, dominance_ratios, st.sampled_from([0.25, 0.5, 1.0]))
    # {A,B,C} splits off {B,C} as a new root before {D,E} merges, which
    # detaches {A,D,E} to the end; the other order swaps those two roots
    @example(
        [Event(m) for m in [(A, B), (A, B, C), (B, C), (B, C)]]
        + [Event(m) for m in [(D, E), (D, E, F), (D, E, F), (A, D, E)]],
        2.0, 2.0, 0.5,
    )
    # a root splits in place
    @example([Event((D, E, F)), Event((D, E)), Event((D, E))], 2.0, 2.0, 0.5)
    # two heads that do not extend their old parents, detached in walk order
    @example(
        [Event(m) for m in [(A, B), (A, B, C), (B, C), (B, C)]]
        + [Event(m) for m in [(D, E), (D, E, F), (E, F), (E, F)]],
        2.0, 2.0, 0.5,
    )
    # {A,B} merges {A,B,C}, which makes {A} a merge candidate
    @example([Event(m) for m in [(A,), (A, B), (A, B, C), (A, B, C)]], 2.0, 2.0, 0.5)
    # the root {A,B,C,D} splits off {A,B} in place, then {A,B,C} in place
    # under it, which makes {A,B} a merge candidate
    @example(
        [Event((A, B, C, D))] + [Event((A, B))] * 2 + [Event((A, B, C))] * 4, 2.0, 2.0, 0.5
    )
    # {A,B,C,D} splits off {A,C,D} as a new root after {E,F}, so its split
    # on {C,D} now comes after the split of {E,F}
    @example(
        [Event(m) for m in [(A, B), (A, B, C, D), (E, F), (A, C, D), (A, C, D)]]
        + [Event(m) for m in [(C, D), (C, D), (E,), (E,)]],
        2.0, 2.0, 0.5,
    )
    # {A} merges {A,B} and detaches {A,C}, so {F} merges {B,F} before {A,C}
    # merges {A,C,D}, and {E,F} is detached before {A,C,E}
    @example(
        [Event(m) for m in [(A,), (A, B), (A, B), (A, C), (A, C, D), (A, C, D), (A, C, E)]]
        + [Event(m) for m in [(F,), (B, F), (B, F), (E, F)]],
        2.0, 2.0, 0.5,
    )
    # the root {A,B,C,D} splits off {A,B} in place, then splits off {B,C,D}
    # before its extension {A,B,C,D,E} splits off {C,D,E}, so those two heads
    # become roots in that order
    @example(
        [Event(m) for m in [(A, B, C, D), (A, B, C, D, E), (A, B), (A, B)]]
        + [Event(m) for m in [(B, C, D), (B, C, D), (C, D, E), (C, D, E)]],
        2.0, 2.0, 0.5,
    )
    # {A} merges {A,B}, and {A,B,C}, which now hangs from {A}, splits off {B,C}
    @example([Event(m) for m in [(A,), (A, B), (A, B), (A, B, C), (B, C), (B, C)]], 2.0, 2.0, 0.5)
    def test_consolidate_matches_oracle(self, events, theta_merge, theta_split, theta_new):
        fast, slow = (
            present_all(HierarchyStore([], theta_merge, theta_split, theta_new), events)
            for _ in range(2)
        )
        consolidate(fast)
        consolidate_oracle(slow)
        assert repr(fast) == repr(slow)
        assert tree_json(fast, LABELS) == tree_json(slow, LABELS)
        assert total_mass(fast) == total_mass(slow) == len(events)

    @given(
        events_over_six,
        events_over_six,
        dominance_ratios,
        dominance_ratios,
        st.sampled_from([0.25, 0.5, 1.0]),
    )
    def test_consolidate_twice_matches_oracle(self, head, tail, theta_merge, theta_split, theta_new):
        # the second consolidation starts from a consolidated forest with new
        # nodes and counts presented on top of it
        fast, slow = (HierarchyStore([], theta_merge, theta_split, theta_new) for _ in range(2))
        for events in (head, tail):
            present_all(fast, events)
            _oracle_present_all(slow, events)
            consolidate(fast)
            consolidate_oracle(slow)
            assert repr(fast) == repr(slow)
        assert total_mass(fast) == len(head) + len(tail)

    def test_present_after_consolidate(self):
        store = _store(*([(A, B, C, D)] * 2 + [(A, B, C, D, E)] * 6))
        consolidate(store)
        present_all(store, (Event((A, B, C, D, E)),))
        (root,) = store.roots
        assert root.occurrences == 9

    def test_present_after_a_root_added_by_hand(self):
        # each presentation indexes the store as it finds it, so the root
        # added between the two calls takes the exact match
        fast, slow = HierarchyStore(), HierarchyStore()
        present_all(fast, (Event((A, B)),))
        hierarchy_walk_oracle(slow, Event((A, B)))
        for store in (fast, slow):
            store.roots.append(PatternNode(frozenset({C, D})))
        present_all(fast, (Event((C, D)),))
        hierarchy_walk_oracle(slow, Event((C, D)))
        assert repr(fast) == repr(slow)
        assert [root.occurrences for root in fast.roots] == [1, 1]


def test_seven_event_fixture_tree(seven):
    store = HierarchyStore()
    present_all(store, seven.events)
    consolidate(store)
    assert total_mass(store) == 7
    assert tree_text(store, seven.labels) == [
        "{A,B,C,D} x3",
        "  +{E} ->",
        "    {A,B,C,D,E} x1",
        "      part {A,E} x1",
        "{E,F,G} x2",
    ]


class TestConfig:
    @pytest.mark.parametrize(
        "bad",
        [dict(theta_merge=1.0), dict(theta_split=0.5), dict(theta_new=0.0), dict(theta_new=1.5)]
        + [{name: float(v)} for name in ("theta_merge", "theta_split") for v in ("nan", "inf")],
    )
    def test_threshold_validation(self, bad):
        with pytest.raises(ConfigError):
            HierarchyStore(**bad)

    def test_theta_new_covers_interval_edge(self):
        # at theta_new=1 only full-coverage events avoid a new root
        store = HierarchyStore(theta_new=1.0)
        present_all(store, [Event((A, B, C, D)), Event((A, B, C))])
        (root,) = store.roots
        assert root.subset_counts == {(A, B, C): 1}


class TestRendering:
    def test_tree_text(self):
        # {A,B,F} overlaps root and child equally at 2/3, so the part lands
        # on the root by walk order
        store = _store((A, B, C, D), (A, B, C, D, E), (A, B, F))
        assert tree_text(store, LABELS) == [
            "{A,B,C,D} x1",
            "  part {A,B} x1",
            "  +{E} ->",
            "    {A,B,C,D,E} x1",
        ]

    @given(st.integers(0, 10_000), st.sampled_from([0.25, 0.5, 1.0]), st.booleans())
    def test_tree_text_matches_oracle(self, seed, theta_new, consolidated):
        # ids up to 23, so a frozenset does not iterate in sorted order
        dataset = random_dataset(seed, max_vars=24, max_events=60)
        store = present_all(HierarchyStore(theta_new=theta_new), dataset.events)
        if consolidated:
            consolidate(store)
        assert tree_text(store, dataset.labels) == tree_text_oracle(store, dataset.labels)

    @given(events_over_six)
    def test_tree_text_matches_oracle_on_hand_built_store(self, events):
        store = present_all(_hand_built_store(), events)
        # parts over ids the store does not hold, one with a float count
        store.roots[0].subset_counts.update({(1, 8): 2.5, (0, 9, 16): 1})
        labels = [f"v{i}" for i in range(17)]
        assert tree_text(store, labels) == tree_text_oracle(store, labels)

    def test_tree_text_any_depth(self):
        # a chain of single-member extensions 2,000 levels deep, beyond
        # Python's default recursion limit
        labels = [f"v{i}" for i in range(2_001)]
        node = PatternNode(frozenset(range(2_001)), 1)
        for depth in range(2_000, 0, -1):
            node.adds = frozenset({depth})
            node = PatternNode(frozenset(range(depth)), 1, [node])
        store = HierarchyStore(roots=[node], presentations=2_001)
        lines = tree_text(store, labels)
        assert len(lines) == 2 * 2_001 - 1
        assert lines[:3] == ["{v0} x1", "  +{v1} ->", "    {v0,v1} x1"]
        assert lines[-2] == "  " * 3_999 + "+{v2000} ->"
        assert lines[-1].startswith("  " * 4_000 + "{v0,v1,")
        # presentation, consolidation and every walk run at this depth too:
        # a second count on the deepest node merges the chain bottom up
        present_all(store, (Event(tuple(range(2_001))),))
        assert len(list(walk(store))) == 2_001
        consolidate(store)
        assert len(list(walk(store))) == 1
        assert total_mass(store) == store.roots[0].occurrences == 2_002

    def test_tree_json(self):
        store = _store((A, B), (A, B, C))
        pieces = []
        hierarchy.tree_json(store, LABELS, pieces.append)
        payload = json.loads('{"roots": ' + "".join(pieces) + ', "presentations": 2}')
        assert payload == tree_json(store, LABELS) == {
            "presentations": 2,
            "roots": [
                {
                    "pattern": ["A", "B"],
                    "occurrences": 1,
                    "parts": [],
                    "extensions": [
                        {
                            "adds": ["C"],
                            "node": {
                                "pattern": ["A", "B", "C"],
                                "occurrences": 1,
                                "parts": [],
                                "extensions": [],
                            },
                        }
                    ],
                }
            ],
        }
