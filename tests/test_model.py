import io

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from patterngrid import grid
from patterngrid.ingest import parse_transactions
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
    partition_from_label_sets,
    validate_event,
)
from patterngrid.synth import synthetic_plants_text


class TestEvent:
    def test_keeps_order_and_source(self):
        event = Event((3, 0, 2))
        assert event.members == (3, 0, 2)
        assert event.member_set() == {0, 2, 3}

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            Event(())

    def test_rejects_duplicates(self):
        with pytest.raises(DataError):
            Event((1, 2, 1))

    @pytest.mark.parametrize("member", [1.0, "a", True])
    def test_rejects_non_int_member(self, member):
        # 1.0 and True would share a dict key with the int id 1
        with pytest.raises(DataError, match="not an int id"):
            Event((member, 2))
        with pytest.raises(DataError, match="not an int id"):
            Event((0, member))

    def test_validate_event_range(self):
        validate_event(Event((0, 2)), 3)
        with pytest.raises(DataError):
            validate_event(Event((0, 3)), 3)
        with pytest.raises(DataError):
            validate_event(Event((-1,)), 3)


class TestBuildVocabulary:
    def test_first_seen_ids(self):
        dataset = build_vocabulary([["b", "a"], ["c", "a"]])
        assert dataset.labels == ("b", "a", "c")
        assert [e.members for e in dataset.events] == [(0, 1), (2, 1)]

    def test_rejected_rows_leave_no_trace(self):
        dataset = build_vocabulary([["a", "a"], [], ["b"]])
        assert dataset.labels == ("b",)
        assert len(dataset.events) == 1
        assert len(dataset.diagnostics) == 2

    def test_dataset_helpers(self):
        dataset = build_vocabulary([["x", "y"]])
        assert dataset.n == 2
        assert dataset.labels == ("x", "y")

    @given(
        st.lists(
            st.lists(st.text(alphabet="abcdef", min_size=1, max_size=3), min_size=1, max_size=5)
            .map(lambda row: list(dict.fromkeys(row))),
            min_size=1,
            max_size=20,
        )
    )
    def test_decode_round_trips_tokens(self, rows):
        dataset = build_vocabulary(rows)
        decoded = [[dataset.labels[v] for v in e.members] for e in dataset.events]
        assert decoded == rows


class TestWeights:
    def test_defaults(self):
        w = Weights()
        assert (w.omega_i, w.omega_g, w.delta) == (1, 1, 0)

    @pytest.mark.parametrize(
        "bad",
        [dict(omega_i=0), dict(omega_g=-1), dict(delta=-0.5)]
        + [{name: float(v)} for name in ("omega_i", "omega_g", "delta") for v in ("nan", "inf")],
    )
    def test_validation(self, bad):
        with pytest.raises(ConfigError):
            Weights(**bad)


def plus_equals(value, step, times):
    for _ in range(times):
        value += step
    return value


numbers = st.one_of(st.integers(-10**6, 10**6), st.floats(-1e6, 1e6, allow_nan=False))
steps = st.one_of(st.integers(1, 10**6), st.floats(1e-3, 1e6))


class TestFold:
    @given(numbers, steps, st.integers(0, 200))
    @example(3, 0.1, 7)  # int then float
    @example(0.1, 3, 7)
    @example(5, 7, 9)
    def test_fold_is_a_plus_equals_loop(self, value, step, times):
        assert repr(fold(value, step, times)) == repr(plus_equals(value, step, times))

    @given(steps, st.lists(st.integers(0, 200), max_size=12))
    @example(0.1, [7, 3, 3, 1])
    @example(7, [9, 0, 2])
    def test_folds_is_a_plus_equals_loop_from_zero(self, step, counts):
        assert repr(folds(step, counts)) == repr(
            {k: plus_equals(0, step, k) for k in sorted(set(counts))}
        )


class TestPartition:
    def test_valid(self):
        p = Partition(4, (frozenset({0, 1}),), frozenset({2, 3}))
        assert p.label_clusters("wxyz") == [["w", "x"]]
        assert p.label_unassigned("wxyz") == ["y", "z"]

    def test_rejects_overlap(self):
        with pytest.raises(DataError):
            Partition(3, (frozenset({0, 1}), frozenset({1, 2})), frozenset())

    def test_rejects_gap(self):
        with pytest.raises(DataError):
            Partition(3, (frozenset({0, 1}),), frozenset())

    def test_rejects_unassigned_in_cluster(self):
        with pytest.raises(DataError):
            Partition(2, (frozenset({0, 1}),), frozenset({1}))

    def test_with_singleton_clusters(self):
        p = Partition(3, (frozenset({0, 1}),), frozenset({2}))
        expanded = p.with_singleton_clusters()
        assert expanded.clusters == (frozenset({0, 1}), frozenset({2}))
        assert expanded.unassigned == frozenset()

    def test_cluster_ids(self):
        p = Partition(4, (frozenset({1, 3}), frozenset({0})), frozenset({2}))
        assert p.cluster_ids() == [1, 0, -1, 0]

    def test_from_label_sets(self):
        p = partition_from_label_sets(["a", "b", "c"], [["b", "a"]])
        assert p.clusters == (frozenset({0, 1}),)
        assert p.unassigned == frozenset({2})
        with pytest.raises(DataError):
            partition_from_label_sets(["a"], [["nope"]])


class TestInterPatternLink:
    def test_valid(self):
        link = InterPatternLink(0, 4, 2)
        assert link.strength == 2

    def test_rejects_self_link(self):
        with pytest.raises(DataError):
            InterPatternLink(1, 1, 2)
        with pytest.raises(DataError):
            InterPatternLink(a=3, b=3, strength=0.5)

    def test_rejects_nonpositive_strength(self):
        for strength in (0, -1, 0.0, -0.5):
            with pytest.raises(DataError):
                InterPatternLink(0, 1, strength)
        with pytest.raises(DataError):
            InterPatternLink(a=0, b=1, strength=0)

    def test_make_and_replace_check(self):
        # namedtuple's own constructors go through the checked one
        link = InterPatternLink(0, 1, 2)
        assert InterPatternLink._make((0, 1, 2.5)) == (0, 1, 2.5)
        assert type(InterPatternLink._make([0, 1, 2])) is InterPatternLink
        assert repr(link._replace(b=3)) == "InterPatternLink(a=0, b=3, strength=2)"
        for bad in ((3, 3, 1), (3, 4, -1), (0, 1, 0)):
            with pytest.raises(DataError):
                InterPatternLink._make(bad)
        with pytest.raises(DataError):
            link._replace(b=0)
        with pytest.raises(DataError):
            link._replace(strength=0)
        with pytest.raises(TypeError):
            InterPatternLink._make((0, 1))
        with pytest.raises(ValueError):
            link._replace(c=1)

    def test_fixture_link_repr(self, seven):
        matrix = grid.count_events(grid.CountMatrix.zeros(seven.n), seven.events)
        assert repr(grid.extract_clusters(matrix, 2).links) == (
            "(InterPatternLink(a=0, b=4, strength=2),)"
        )

    @given(st.integers(0, 10_000), st.sampled_from([1, 0.7, 2.5]), st.sampled_from([1, 2, 2.5]))
    def test_extracted_links_equal_checked_ones(self, seed, weight, tau):
        # extraction builds links unchecked; each must pass the checks. A
        # small synthetic corpus has clusters, and so links between them
        dataset = parse_transactions(io.BytesIO(synthetic_plants_text(120, seed).encode()))
        matrix = grid.count_events(grid.CountMatrix.zeros(dataset.n), dataset.events, weight)
        links = grid.extract_clusters(matrix, tau).links
        assert all(type(link) is InterPatternLink for link in links)
        assert repr(links) == repr(tuple(InterPatternLink(a, b, c) for a, b, c in links))


def test_dataset_rejects_out_of_range_events():
    with pytest.raises(DataError):
        Dataset(("a",), (Event((0, 1)),))
