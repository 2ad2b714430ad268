from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from patterngrid import counting
from patterngrid.counting import (
    InstanceRecord,
    InstanceStore,
    coherence,
    present_all,
    select_clusters,
    selection_key,
)
from patterngrid.model import DataError, Event, Weights

from .oracles import cm_replay_oracle, lexmin_selection_oracle, present, random_dataset


def _table(store: InstanceStore, labels) -> dict:
    return {
        "".join(sorted(labels[v] for v in r.pattern)): (r.local_count, r.global_count)
        for r in store.records
    }


def test_seven_event_instance_counts(seven):
    store = present_all(InstanceStore.empty(seven.n), seven.events)
    assert _table(store, seven.labels) == {
        "ABCDE": (1, 7),
        "ABCD": (3, 4),
        "AEFG": (1, 3),
        "EFG": (2, 2),
    }


def test_seven_event_selection(seven):
    store = present_all(InstanceStore.empty(seven.n), seven.events)
    partition = select_clusters(store)
    assert [
        set(seven.labels[v] for v in cluster) for cluster in partition.clusters
    ] == [{"E", "F", "G"}, {"A", "B", "C", "D"}]
    assert partition.unassigned == frozenset()


def test_creation_counts_overlap_once():
    store = InstanceStore.empty(3)
    present(store, [Event((0, 1))])
    record = store.records[0]
    assert (record.local_count, record.global_count) == (1, 1)


def test_exact_match_bumps_both_counts():
    store = InstanceStore.empty(3)
    present_all(store, [Event((0, 1)), Event((1, 0))])
    record = store.records[0]
    assert len(store.records) == 1
    assert (record.local_count, record.global_count) == (2, 2)


def test_overlap_bumps_only_global():
    store = InstanceStore.empty(4)
    present_all(store, [Event((0, 1)), Event((1, 2))])
    first, second = store.records
    assert (first.local_count, first.global_count) == (1, 2)
    assert (second.local_count, second.global_count) == (1, 1)


def test_disjoint_instances_ignore_each_other():
    store = InstanceStore.empty(4)
    present_all(store, [Event((0, 1)), Event((2, 3)), Event((0, 1))])
    first, second = store.records
    assert (first.local_count, first.global_count) == (2, 2)
    assert (second.local_count, second.global_count) == (1, 1)


def test_earlier_events_do_not_count():
    # the instance created last overlaps everything before it, but its
    # global count starts at its own creation
    store = InstanceStore.empty(3)
    present_all(store, [Event((0, 1)), Event((0, 1)), Event((0, 2))])
    late = store.records[-1]
    assert late.pattern == (0, 2)
    assert (late.local_count, late.global_count) == (1, 1)


def test_weights_scale_counts():
    store = InstanceStore.empty(3)
    weights = Weights(omega_i=2, omega_g=3)
    present_all(store, [Event((0, 1)), Event((1, 2)), Event((0, 1))], weights)
    first = store.records[0]
    assert first.pattern == (0, 1)
    assert (first.local_count, first.global_count) == (4, 9)


def test_counts_match_replay_oracle():
    for seed in range(30):
        dataset = random_dataset(seed)
        store = present_all(InstanceStore.empty(dataset.n), dataset.events)
        expected = cm_replay_oracle(dataset.events)
        got = {r.pattern: (r.local_count, r.global_count) for r in store.records}
        assert got == expected, f"seed {seed}"


def test_coherence_measures():
    store = InstanceStore.empty(3)
    present_all(store, [Event((0, 1)), Event((1, 2))])
    record = store.records[0]
    assert coherence(record) == 1


def test_selection_is_lexmin_maximal_family():
    for seed in range(40):
        dataset = random_dataset(seed, max_vars=8, max_events=15)
        store = present_all(InstanceStore.empty(dataset.n), dataset.events)
        partition = select_clusters(store)
        patterns = [frozenset(r.pattern) for r in store.records]
        by_pattern = {frozenset(r.pattern): r for r in store.records}
        expected = lexmin_selection_oracle(
            patterns, key=lambda p: selection_key(by_pattern[p])
        )
        assert list(partition.clusters) == expected, f"seed {seed}"


def test_selection_key_tie_order():
    # equal coherence: larger local count first, then smaller pattern, then ids
    strong = InstanceRecord((1, 2), 2, 3, 0)
    weak = InstanceRecord((0, 1), 1, 2, 1)
    small = InstanceRecord((3,), 1, 2, 2)
    early_ids = InstanceRecord((0, 4), 1, 2, 3)
    late_ids = InstanceRecord((0, 5), 1, 2, 4)
    assert selection_key(strong) < selection_key(weak)
    assert selection_key(small) < selection_key(weak)
    assert selection_key(early_ids) < selection_key(late_ids)


@given(st.integers(0, 10_000))
def test_global_never_below_local(seed):
    dataset = random_dataset(seed, max_vars=8, max_events=25)
    store = present_all(InstanceStore.empty(dataset.n), dataset.events)
    assert store.event_counter == len(dataset.events)
    patterns = [r.pattern for r in store.records]
    assert len(set(patterns)) == len(patterns)
    for record in store.records:
        assert record.global_count >= record.local_count >= 1


@given(st.integers(0, 10_000))
def test_selection_is_maximal_and_disjoint(seed):
    dataset = random_dataset(seed, max_vars=8, max_events=25)
    store = present_all(InstanceStore.empty(dataset.n), dataset.events)
    partition = select_clusters(store)
    taken: set[int] = set()
    for cluster in partition.clusters:
        assert not (taken & cluster)
        taken |= cluster
    for record in store.records:
        assert not taken.isdisjoint(record.pattern)


def test_validates_event_range():
    store = InstanceStore.empty(2)
    with pytest.raises(DataError):
        present(store, [Event((5,))])


def _store_state(store: InstanceStore) -> str:
    return repr((store.records, store._by_pattern, store.event_counter))


@st.composite
def _batch_cases(draw):
    """A vocabulary size, events presented before the batch, the batch
    (maybe with one out-of-range event in it), events presented after,
    the weights and a bitset budget, small enough to split the batch into
    blocks of 8, 16 or 24 events or the default."""
    n = draw(st.integers(1, 8))
    event = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True).map(
        lambda members: Event(tuple(members))
    )
    before = draw(st.lists(event, max_size=8))
    batch = draw(st.lists(event, max_size=60))
    bad = draw(st.none() | st.integers(0, len(batch)))
    if bad is not None:
        batch.insert(bad, Event((n,)))
    after = draw(st.lists(event, max_size=4))
    weight = st.integers(1, 4) | st.floats(1e-3, 1e3)
    weights = Weights(draw(weight), draw(weight))
    budget = draw(st.sampled_from([counting.OCCURRENCE_BUDGET, n, 2 * n, 3 * n]))
    return n, before, batch, bad, after, weights, budget


@given(_batch_cases())
def test_present_all_equals_fold_of_present_and_oracle(case):
    n, before, batch, bad, after, weights, budget = case
    folded, batched = InstanceStore.empty(n), InstanceStore.empty(n)
    present(folded, before, weights)
    present(batched, before, weights)

    errors = []
    try:
        present(folded, batch, weights)
    except DataError as exc:
        errors.append(str(exc))
    with mock.patch.object(counting, "OCCURRENCE_BUDGET", budget):
        try:
            present_all(batched, batch, weights)
        except DataError as exc:
            errors.append(str(exc))
    assert len(errors) == (0 if bad is None else 2) and len(set(errors)) <= 1
    assert _store_state(batched) == _store_state(folded)

    applied = before + batch[:bad]
    expected = cm_replay_oracle(applied, weights.omega_i, weights.omega_g)
    got = {r.pattern: (r.local_count, r.global_count) for r in batched.records}
    assert repr(got) == repr(expected)

    present(folded, after, weights)
    present(batched, after, weights)
    assert _store_state(batched) == _store_state(folded)


def test_bitsets_stay_within_budget():
    n, budget = 5, 15  # blocks of 15 // 5 * 8 = 24 events
    events = [Event((t % n, (t + 1) % n)) for t in range(60)]
    held = []

    def count_block(rows, *args):
        held.append(sum(len(row) for row in rows))
        return count(rows, *args)

    count = counting._count_block
    with mock.patch.object(counting, "OCCURRENCE_BUDGET", budget), mock.patch.object(
        counting, "_count_block", count_block
    ):
        store = present_all(InstanceStore.empty(n), events)
    assert held == [15, 15, 10]  # 24, 24 and 12 events, one bit each per variable
    folded = present(InstanceStore.empty(n), events)
    assert _store_state(store) == _store_state(folded)
