import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from patterngrid.model import DataError, Event, Weights
from patterngrid.reinforce import (
    ReinforceState,
    band_clusters,
    bands_to_partition,
    count_events,
    merge,
)

from .oracles import frequency_oracle, random_dataset, sort_group_oracle, update

# integers and non-integral floats, so an int count turning into a float
# (0 into 0.0) shows up in a repr comparison
_fractions = st.floats(0.05, 3.0).filter(lambda x: not x.is_integer())
_omega_i = st.one_of(st.integers(1, 3), _fractions)
_delta = st.one_of(st.just(0), st.integers(1, 3), _fractions)
_hand_built_count = st.one_of(st.integers(-2, 4), st.sampled_from([0.0, -0.5, 0.25, 2.5]))


@st.composite
def _events(draw):
    n = draw(st.integers(1, 8))
    members = st.permutations(range(n)).flatmap(
        lambda order: st.integers(1, n).map(lambda size: Event(tuple(order[:size])))
    )
    return n, draw(st.lists(members, max_size=40))


def _eager(state, events, weights):
    for event in events:
        update(state, event, weights)
    return state


def test_seven_event_counts(seven):
    state = count_events(ReinforceState.empty(seven.n), seven.events)
    assert state.counts == [5, 4, 4, 4, 4, 3, 3]


def test_seven_event_bands(seven):
    state = count_events(ReinforceState.empty(seven.n), seven.events)
    bands = band_clusters(state)
    by_label = [(value, {seven.labels[v] for v in members}) for value, members in bands]
    assert by_label == [(5, {"A"}), (4, {"B", "C", "D", "E"}), (3, {"F", "G"})]


def test_update_adds_omega_i():
    state = ReinforceState.empty(3)
    update(state, Event((0, 2)), Weights(omega_i=2))
    assert state.counts == [2, 0, 2]


def test_delta_floors_at_zero():
    state = ReinforceState.empty(2)
    weights = Weights(delta=1)
    update(state, Event((0,)), weights)
    assert state.counts == [1, 0]
    update(state, Event((0,)), weights)
    assert state.counts == [2, 0]
    update(state, Event((1,)), weights)
    assert state.counts == [1, 1]


def test_merge_identity_and_mismatch():
    state = count_events(ReinforceState.empty(2), [Event((0,))])
    merged = merge(state, ReinforceState.empty(2))
    assert merged.counts == state.counts
    with pytest.raises(DataError):
        merge(state, ReinforceState.empty(3))


def test_split_merge_equals_single_pass():
    for seed in range(10):
        dataset = random_dataset(seed)
        whole = count_events(ReinforceState.empty(dataset.n), dataset.events)
        for cut in {1, len(dataset.events) // 2, len(dataset.events) - 1} - {0}:
            left = count_events(ReinforceState.empty(dataset.n), dataset.events[:cut])
            right = count_events(ReinforceState.empty(dataset.n), dataset.events[cut:])
            assert merge(left, right).counts == whole.counts


def test_counts_match_frequency_oracle():
    for seed in range(30):
        dataset = random_dataset(seed)
        state = count_events(ReinforceState.empty(dataset.n), dataset.events)
        assert state.counts == frequency_oracle(dataset.events, dataset.n)


def test_delta_matches_frequency_oracle():
    for seed in range(10):
        dataset = random_dataset(seed)
        weights = Weights(omega_i=2, delta=1)
        state = count_events(ReinforceState.empty(dataset.n), dataset.events, weights)
        assert state.counts == frequency_oracle(dataset.events, dataset.n, omega_i=2, delta=1)


def test_bands_match_sort_group_oracle():
    for seed in range(30):
        dataset = random_dataset(seed)
        state = count_events(ReinforceState.empty(dataset.n), dataset.events)
        assert band_clusters(state) == sort_group_oracle(state.counts)


def test_bands_to_partition_splits_singletons():
    bands = [(5.0, frozenset({0})), (3.0, frozenset({1, 2}))]
    partition = bands_to_partition(bands, 3)
    assert partition.clusters == (frozenset({1, 2}),)
    assert partition.unassigned == frozenset({0})


def test_empty_state_has_no_bands():
    assert band_clusters(ReinforceState.empty(0)) == []


@given(st.data())
def test_bands_cover_vocabulary_once(data):
    seed = data.draw(st.integers(0, 10_000))
    dataset = random_dataset(seed)
    state = count_events(ReinforceState.empty(dataset.n), dataset.events)
    bands = band_clusters(state)
    seen: set[int] = set()
    values = [value for value, _ in bands]
    assert values == sorted(values, reverse=True)
    assert len(set(values)) == len(values)
    for _, members in bands:
        assert members
        assert not (seen & members)
        seen |= members
    assert seen == set(range(dataset.n))


@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_merge_commutes(seed_a, seed_b):
    a = count_events(ReinforceState.empty(6), random_dataset(seed_a, max_vars=6).events[:5])
    b = count_events(ReinforceState.empty(6), random_dataset(seed_b, max_vars=6).events[:5])
    assert merge(a, b).counts == merge(b, a).counts


@given(_events(), _omega_i, st.one_of(_delta, st.just(0.0)))
@example((2, [Event((0,)), Event((1,))]), 1, 0.0)  # a zero float delta keeps int counts
def test_lazy_decrement_matches_eager_fold(drawn, omega_i, delta):
    n, events = drawn
    weights = Weights(omega_i=omega_i, delta=delta)
    lazy = count_events(ReinforceState.empty(n), events, weights).counts
    eager = _eager(ReinforceState.empty(n), events, weights).counts
    oracle = frequency_oracle(events, n, omega_i=omega_i, delta=delta)
    assert [repr(c) for c in lazy] == [repr(c) for c in eager]
    assert [repr(c) for c in lazy] == [repr(c) for c in oracle]


@given(_events(), _omega_i, st.one_of(_delta, st.just(0.0)), st.data())
def test_lazy_decrement_from_any_start(drawn, omega_i, delta, data):
    # a state built by hand may hold 0.0 or negative counts; the first
    # absence step turns those into the int 0, as the eager loop does, and
    # a delta of 0.0 applies no step at all
    n, events = drawn
    start = data.draw(st.lists(_hand_built_count, min_size=n, max_size=n))
    weights = Weights(omega_i=omega_i, delta=delta)
    lazy = count_events(ReinforceState(list(start)), events, weights).counts
    eager = _eager(ReinforceState(list(start)), events, weights).counts
    assert [repr(c) for c in lazy] == [repr(c) for c in eager]


@given(_events(), _omega_i, _delta, st.data())
def test_bad_event_leaves_eager_prefix(drawn, omega_i, delta, data):
    n, events = drawn
    cut = data.draw(st.integers(0, len(events)))
    bad = Event((data.draw(st.integers(0, n - 1)), n))
    weights = Weights(omega_i=omega_i, delta=delta)
    lazy = ReinforceState.empty(n)
    with pytest.raises(DataError):
        count_events(lazy, [*events[:cut], bad, *events[cut:]], weights)
    eager = _eager(ReinforceState.empty(n), events[:cut], weights)
    assert [repr(c) for c in lazy.counts] == [repr(c) for c in eager.counts]
