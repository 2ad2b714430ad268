import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from patterngrid.model import DataError, Event, Weights
from patterngrid.reinforce import (
    ReinforceState,
    band_clusters,
    bands_to_partition,
    count_events,
)

from .oracles import frequency_oracle, random_dataset, sort_group_oracle, update

# integers and non-integral floats, so an int count turning into a float
# (0 into 0.0) shows up in a repr comparison
_fractions = st.floats(0.05, 3.0).filter(lambda x: not x.is_integer())
_omega_i = st.one_of(st.integers(1, 3), _fractions)
_delta = st.one_of(st.just(0), st.integers(1, 3), _fractions)
_hand_built_count = st.one_of(st.integers(-2, 4), st.sampled_from([0.0, -0.5, 0.25, 2.5]))
# counts about 2**53, where a float less an int starts to round, and past it
_large_count = st.sampled_from(
    [2**53 - 1, 2**53, 2**53 + 1, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, 2.0**53 + 6, 1e20, 1e20 + 1]
)


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


@pytest.mark.parametrize("weights", [Weights(), Weights(delta=1)])
def test_seven_event_counts_in_two_calls(seven, weights):
    state = count_events(ReinforceState.empty(seven.n), seven.events[:3], weights)
    count_events(state, [], weights)  # a call without events changes nothing
    count_events(state, seven.events[3:], weights)
    whole = _eager(ReinforceState.empty(seven.n), seven.events, weights)
    assert state.counts == whole.counts
    if not weights.delta:
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


@pytest.mark.parametrize("omega_i", [1, 0.5])
def test_large_float_count_decays_step_by_step(omega_i):
    # 1e20 - 1 rounds back to 1e20 at every step, so 100,000 missed steps
    # leave it where it was; 1e20 - 100000 would not
    state = ReinforceState([1e20, 0])
    count_events(state, [Event((1,))] * 100_000, Weights(omega_i=omega_i, delta=1))
    assert [repr(c) for c in state.counts] == ["1e+20", repr(100_000 * omega_i)]


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


@given(_events(), _omega_i, _delta, st.data())
def test_resumed_count_equals_single_pass(drawn, omega_i, delta, data):
    # counting events[:cut] and then events[cut:] into the same state gives
    # one pass's counts: each call ends with its pending absence steps taken
    n, events = drawn
    cut = data.draw(st.integers(0, len(events)))
    weights = Weights(omega_i=omega_i, delta=delta)
    resumed = count_events(ReinforceState.empty(n), events[:cut], weights)
    count_events(resumed, events[cut:], weights)
    whole = count_events(ReinforceState.empty(n), events, weights)
    assert [repr(c) for c in resumed.counts] == [repr(c) for c in whole.counts]


@st.composite
def _events_from_start(draw):
    n, events = draw(_events())
    start = st.one_of(_hand_built_count, _large_count)
    return n, events, draw(st.lists(start, min_size=n, max_size=n))


@given(_events_from_start(), _omega_i, st.one_of(_delta, st.just(0.0)))
# int weights and int starts take the closed form: a negative start stays
# negative while its variable misses no event, and gaps outlast the counts
@example((3, [Event((0,)), Event((0, 1)), Event((0, 1)), Event((0, 2))], [-3, -1, 2]), 1, 1)
# float starts with int weights: 0.0 becomes the int 0, and 2.0 less its
# two missed steps floors at 0.0, which becomes the int 0
@example((4, [Event((0,)), Event((1,)), Event((0, 3))], [2.5, 0.0, 0.0, 2.0]), 1, 1)
# a float delta with an int omega_i: three steps of 0.1 from 3 are not
# 3 - 0.3, nor four steps 3 - 0.4
@example((3, [Event((1,)), Event((1,)), Event((1,)), Event((0, 1))], [3, 0, 3]), 1, 0.1)
# one float start among ints: 2.0 floors at the int 0 before it gains 1 in
# the last event, where 2.0 - 2 is 0.0
@example((3, [Event((0,)), Event((0,)), Event((1, 2))], [4, 2.0, -1]), 1, 1)
# a float omega_i with int delta and int starts: the catch-up takes 3.0 to
# exactly zero, which leaves the int 0
@example((2, [Event((0,)), Event((0,)), Event((1,)), Event((1,)), Event((1,))], [0, 0]), 1.5, 1)
# a float at 2**53 + 2 rounds at each step: two steps of 1 give 2**53 - 1,
# not 2**53
@example((2, [Event((1,)), Event((1,))], [2.0**53 + 2, 2.0**53 - 1]), 0.5, 1)
# an int count at 2**53 + 1 with a float omega_i: int steps never round
@example((2, [Event((1,)), Event((1,)), Event((0,))], [2**53 + 1, 0]), 0.5, 1)
def test_lazy_decrement_from_any_start(drawn, omega_i, delta):
    # a state built by hand may hold 0.0 or negative counts; the first
    # absence step turns those into the int 0, as the eager loop does, and
    # a delta of 0.0 applies no step at all
    n, events, start = drawn
    weights = Weights(omega_i=omega_i, delta=delta)
    lazy = count_events(ReinforceState(list(start)), events, weights).counts
    eager = _eager(ReinforceState(list(start)), events, weights).counts
    assert [repr(c) for c in lazy] == [repr(c) for c in eager]


@st.composite
def _events_with_bad(draw):
    n, events = draw(_events())
    cut = draw(st.integers(0, len(events)))
    bad = draw(st.one_of(st.just(n), st.integers(-3, -1)))
    return n, events, cut, Event((draw(st.integers(0, n - 1)), bad))


@given(_events_with_bad(), _omega_i, _delta)
# the bad event follows a repeated valid tuple
@example((2, [Event((0, 1)), Event((1,)), Event((0, 1))], 3, Event((0, 2))), 1, 1)
# a negative id would index the counts from the end
@example((2, [Event((0, 1)), Event((1,))], 1, Event((0, -1))), 1, 0)
# the bad event right after variable 0 took three float steps, with one
# step of variable 1 still pending: 1 - 3 * 0.1 is not three steps of 0.1
@example(
    (2, [Event((0,)), Event((1,)), Event((1,)), Event((1,)), Event((0,))], 5, Event((0, 2))), 1, 0.1
)
def test_bad_event_leaves_eager_prefix(drawn, omega_i, delta):
    n, events, cut, bad = drawn
    weights = Weights(omega_i=omega_i, delta=delta)
    lazy = ReinforceState.empty(n)
    with pytest.raises(DataError):
        count_events(lazy, [*events[:cut], bad, *events[cut:]], weights)
    eager = _eager(ReinforceState.empty(n), events[:cut], weights)
    assert [repr(c) for c in lazy.counts] == [repr(c) for c in eager.counts]
