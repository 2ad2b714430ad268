import io
import json
import math
import random
from contextlib import suppress

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from patterngrid import counting, hierarchy, jsonout, reinforce
from patterngrid.grid import (
    CountMatrix,
    GridClusterResult,
    _count_sets,
    count_events,
    extract_clusters,
    iter_links,
    matrix_csv,
    matrix_json,
    matrix_text,
)
from patterngrid.model import ConfigError, DataError, Event, Weights

from .oracles import (
    DenseGrid,
    cooccurrence_oracle,
    count_matrix,
    dense_count_events,
    dense_extract_clusters,
    dense_head_set,
    dense_matrix_csv,
    dense_matrix_json,
    dense_matrix_text,
    grid_update,
    head_set,
    pair_count_sets,
    random_dataset,
    relabel_dataset,
)

SEVEN_MATRIX = [
    [0, 4, 4, 4, 2, 1, 1],
    [4, 0, 4, 4, 1, 0, 0],
    [4, 4, 0, 4, 1, 0, 0],
    [4, 4, 4, 0, 1, 0, 0],
    [2, 1, 1, 1, 0, 3, 3],
    [1, 0, 0, 0, 3, 0, 3],
    [1, 0, 0, 0, 3, 3, 0],
]


def _seven_matrix(seven) -> CountMatrix:
    return count_events(CountMatrix.zeros(seven.n), seven.events)


def test_seven_event_matrix(seven):
    matrix = _seven_matrix(seven)
    assert matrix.cells == SEVEN_MATRIX


def test_increments_audit(seven):
    matrix = _seven_matrix(seven)
    assert matrix.increments == sum(len(e.members) * (len(e.members) - 1) for e in seven.events)


def test_singleton_event_is_a_no_op():
    matrix = CountMatrix.zeros(3)
    grid_update(matrix, Event((1,)))
    assert matrix.cells == CountMatrix.zeros(3).cells
    assert matrix.increments == 0


def test_update_weight():
    matrix = CountMatrix.zeros(3)
    grid_update(matrix, Event((0, 2)), weight=3)
    assert matrix.cells[0][2] == matrix.cells[2][0] == 3


def test_fixture_counted_in_two_calls_is_full_matrix(seven):
    matrix = count_events(CountMatrix.zeros(seven.n), seven.events[:3])
    count_events(matrix, seven.events[3:])
    assert matrix.cells == SEVEN_MATRIX
    assert matrix.increments == _seven_matrix(seven).increments


@pytest.mark.parametrize("weight", [1, 3, 0.1])
def test_resumed_count_equals_single_pass(weight):
    # counting events[:cut] and then events[cut:] into the same matrix is one pass
    for seed in range(15):
        dataset = random_dataset(seed)
        whole = count_events(CountMatrix.zeros(dataset.n), dataset.events, weight)
        for cut in (1, len(dataset.events) // 2, len(dataset.events) - 1):
            resumed = count_events(CountMatrix.zeros(dataset.n), dataset.events[:cut], weight)
            count_events(resumed, dataset.events[cut:], weight)
            assert repr(resumed.cells) == repr(whole.cells)
            assert resumed.increments == whole.increments


@pytest.mark.parametrize("weight", [1, 3, 0.1])
def test_batch_count_equals_one_update_per_event(weight):
    for seed in range(15):
        dataset = random_dataset(seed)
        whole = count_events(CountMatrix.zeros(dataset.n), dataset.events, weight)
        per_event = CountMatrix.zeros(dataset.n)
        for event in dataset.events:
            grid_update(per_event, event, weight)
        assert repr(per_event.cells) == repr(whole.cells), f"seed {seed}"
        assert per_event.increments == whole.increments


def test_cells_match_cooccurrence_oracle():
    for seed in range(30):
        dataset = random_dataset(seed)
        matrix = count_events(CountMatrix.zeros(dataset.n), dataset.events)
        assert matrix.cells == cooccurrence_oracle(dataset.events, dataset.n), f"seed {seed}"


class TestHeadSet:
    def test_fixture_rows(self, seven):
        matrix = _seven_matrix(seven)
        label = {name: v for v, name in enumerate(seven.labels)}
        assert head_set(matrix, label["A"]) == {label["B"], label["C"], label["D"]}
        assert head_set(matrix, label["E"]) == {label["F"], label["G"]}
        assert head_set(matrix, label["B"]) == {label["A"], label["C"], label["D"]}
        assert head_set(matrix, label["F"]) == {label["E"], label["G"]}

    def test_all_equal_keeps_all(self):
        matrix = count_matrix([[0, 2, 2], [2, 0, 2], [2, 2, 0]])
        assert head_set(matrix, 0) == {1, 2}

    def test_all_zero_keeps_none(self):
        assert head_set(CountMatrix.zeros(3), 0) == frozenset()

    def test_cut_at_largest_gap(self):
        matrix = count_matrix([[0, 9, 8, 3, 2], [9, 0, 0, 0, 0], [8, 0, 0, 0, 0], [3, 0, 0, 0, 0], [2, 0, 0, 0, 0]])
        assert head_set(matrix, 0) == {1, 2}

    def test_gap_tie_high_and_low(self):
        # sorted counts 5,3,1: both gaps are 2
        matrix = count_matrix([[0, 5, 3, 1], [5, 0, 0, 0], [3, 0, 0, 0], [1, 0, 0, 0]])
        assert head_set(matrix, 0, ties="high") == {1}
        assert head_set(matrix, 0, ties="low") == {1, 2}

    def test_equal_counts_never_straddle_the_cut(self):
        # counts 4,2,2,1: the maximal gap is after the 4; the pair of 2s
        # must stay together on the low side
        matrix = count_matrix(
            [
                [0, 4, 2, 2, 1],
                [4, 0, 0, 0, 0],
                [2, 0, 0, 0, 0],
                [2, 0, 0, 0, 0],
                [1, 0, 0, 0, 0],
            ]
        )
        assert head_set(matrix, 0) == {1}

    @pytest.mark.parametrize("v", [-1, 3, 4])
    def test_rejects_an_id_outside_the_vocabulary(self, v):
        matrix = count_matrix([[0, 2, 1], [2, 0, 0], [1, 0, 0]])
        with pytest.raises(DataError, match=f"variable id {v} outside vocabulary of size 3"):
            head_set(matrix, v)

    def test_rejects_unknown_tie_rule(self):
        with pytest.raises(ConfigError):
            head_set(CountMatrix.zeros(2), 0, ties="sideways")

    @given(st.integers(0, 10_000))
    def test_threshold_semantics(self, seed):
        dataset = random_dataset(seed, max_vars=8, max_events=25)
        matrix = count_events(CountMatrix.zeros(dataset.n), dataset.events)
        for v in range(dataset.n):
            heads = head_set(matrix, v)
            assert v not in heads
            if heads:
                row = matrix.cells[v]
                floor = min(row[w] for w in heads)
                for w in range(dataset.n):
                    if w == v:
                        continue
                    # every variable at or above the floor is in, below is out
                    assert (row[w] >= floor) == (w in heads)


class TestExtraction:
    def test_fixture_clusters_and_link(self, seven):
        matrix = _seven_matrix(seven)
        result = extract_clusters(matrix, 2)
        clusters = [set(seven.labels[v] for v in c) for c in result.partition.clusters]
        assert clusters == [{"A", "B", "C", "D"}, {"E", "F", "G"}]
        assert result.partition.unassigned == frozenset()
        assert len(result.links) == 1
        link = result.links[0]
        assert {seven.labels[link.a], seven.labels[link.b]} == {"A", "E"}
        assert link.strength == 2

    def test_higher_tau_drops_the_link(self, seven):
        result = extract_clusters(_seven_matrix(seven), 3)
        assert result.links == ()

    def test_tau_must_be_at_least_one(self, seven):
        with pytest.raises(ConfigError):
            extract_clusters(_seven_matrix(seven), 0)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_tau_must_be_finite(self, seven, tau):
        with pytest.raises(ConfigError):
            extract_clusters(_seven_matrix(seven), tau)

    def test_one_sided_nomination_does_not_cluster(self):
        # 0 nominates 1 (its only partner), but 1's head set is {2} only;
        # mutual agreement fails so 0 stays out, and links never attach to
        # unclustered variables
        matrix = count_matrix([[0, 1, 0], [1, 0, 9], [0, 9, 0]])
        result = extract_clusters(matrix, tau_link=1)
        assert result.partition.clusters == (frozenset({1, 2}),)
        assert result.partition.unassigned == frozenset({0})
        assert result.links == ()

    def test_isolated_variables_stay_unassigned(self):
        matrix = CountMatrix.zeros(4)
        grid_update(matrix, Event((0, 1)))
        result = extract_clusters(matrix, 1)
        assert result.partition.clusters == (frozenset({0, 1}),)
        assert result.partition.unassigned == frozenset({2, 3})

    @given(st.integers(0, 10_000))
    def test_partition_is_valid_and_links_cross_clusters(self, seed):
        dataset = random_dataset(seed, max_vars=8, max_events=25)
        matrix = count_events(CountMatrix.zeros(dataset.n), dataset.events)
        result = extract_clusters(matrix, 2)
        cells = matrix.cells
        cluster_of = {}
        for ci, cluster in enumerate(result.partition.clusters):
            assert len(cluster) >= 2
            for v in cluster:
                cluster_of[v] = ci
        for link in result.links:
            assert cluster_of[link.a] != cluster_of[link.b]
            assert cells[link.a][link.b] >= 2

    @given(
        st.integers(0, 10_000),
        st.sampled_from([1, 3, 0.1]),
        st.sampled_from([1, 2, 2.5, 1e6]),
        st.sampled_from(["high", "low"]),
    )
    def test_without_links_same_partition(self, seed, weight, tau, ties):
        dataset = random_dataset(seed, max_vars=12, max_events=40)
        matrix = count_events(CountMatrix.zeros(dataset.n), dataset.events, weight)
        full = extract_clusters(matrix, tau, ties=ties)
        bare = extract_clusters(matrix, tau, ties=ties, links=False)
        assert repr(bare) == repr(GridClusterResult(full.partition, ()))

    @given(
        st.integers(0, 10_000),
        st.sampled_from([1, 3, 0.1, 0.7]),
        st.integers(1, 3),
        st.sampled_from(["high", "low"]),
    )
    def test_one_pass_of_iter_links_gives_the_links(self, seed, weight, tau, ties):
        dataset = random_dataset(seed, max_vars=12, max_events=40)
        matrix = count_events(CountMatrix.zeros(dataset.n), dataset.events, weight)
        full = extract_clusters(matrix, tau, ties=ties)
        passes = iter_links(matrix, full.partition, tau)
        assert repr(tuple(passes)) == repr(full.links)
        # each call starts a fresh pass, and a spent one yields nothing more
        assert repr(tuple(iter_links(matrix, full.partition, tau))) == repr(full.links)
        assert next(passes, None) is None
        dense = dense_count_events(DenseGrid.zeros(dataset.n), dataset.events, weight)
        assert repr(full.links) == repr(dense_extract_clusters(dense, tau, ties=ties).links)


@given(st.integers(0, 10_000))
def test_matrix_is_symmetric_with_empty_diagonal(seed):
    dataset = random_dataset(seed, max_vars=8, max_events=25)
    cells = count_events(CountMatrix.zeros(dataset.n), dataset.events).cells
    for i in range(dataset.n):
        assert cells[i][i] == 0
        for j in range(dataset.n):
            assert cells[i][j] == cells[j][i]


@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 3))
def test_grid_is_a_compact_form_of_the_counting_mechanism(seed, omega_i, omega_g):
    """With int weights and no decay, the grid and reinforce's counts are
    sums of the cm records' local counts I, and G >= I for every record when
    counted in events: G / omega_g >= I / omega_i."""
    dataset = random_dataset(seed, max_vars=12, max_events=40)
    weights = Weights(omega_i, omega_g)
    records = counting.present_all(
        counting.InstanceStore.empty(dataset.n), dataset.events, weights
    ).records
    matrix = count_events(CountMatrix.zeros(dataset.n), dataset.events, omega_i)
    counts = reinforce.count_events(
        reinforce.ReinforceState.empty(dataset.n), dataset.events, weights
    ).counts
    for a in range(dataset.n):
        holding_a = [r for r in records if a in r.pattern]
        assert counts[a] == sum(r.local_count for r in holding_a)
        for b in range(dataset.n):
            if b != a:
                together = sum(r.local_count for r in holding_a if b in r.pattern)
                assert matrix.rows[a].get(b, 0) == together
    assert sum(r.local_count for r in records) == omega_i * len(dataset.events)
    assert all(r.global_count * omega_i >= r.local_count * omega_g for r in records)


def _engines(events, n: int, weights: Weights):
    """Each engine's counts and partition, and the consolidated hierarchy's
    patterns in preorder, over ``events``."""
    matrix = count_events(CountMatrix.zeros(n), events, weights.omega_i)
    store = counting.present_all(counting.InstanceStore.empty(n), events, weights)
    state = reinforce.count_events(reinforce.ReinforceState.empty(n), events, weights)
    tree = hierarchy.consolidate(hierarchy.present_all(hierarchy.HierarchyStore(), events))
    partitions = (
        extract_clusters(matrix, 1).partition,
        counting.select_clusters(store),
        reinforce.bands_to_partition(reinforce.band_clusters(state), n),
    )
    counts = (
        [dict(row) for row in matrix.rows],
        [(r.pattern, r.local_count, r.global_count) for r in store.records],
        list(state.counts),
    )
    return counts, partitions, [sorted(node.pattern) for node in hierarchy.walk(tree)]


@given(
    st.integers(0, 10_000), st.sampled_from([2, 3]), st.integers(1, 3), st.integers(1, 3)
)
def test_counts_scale_with_repetition(seed, k, omega_i, omega_g):
    """Presenting every event k times in place multiplies every count by k,
    with int weights and no decay, and so leaves every partition and the
    consolidated hierarchy's patterns unchanged."""
    dataset = random_dataset(seed, max_vars=12, max_events=40)
    repeated = [event for event in dataset.events for _ in range(k)]
    weights = Weights(omega_i, omega_g)
    (cells, records, counts), partitions, patterns = _engines(dataset.events, dataset.n, weights)
    (cells_k, records_k, counts_k), partitions_k, patterns_k = _engines(repeated, dataset.n, weights)
    assert cells_k == [{w: k * c for w, c in row.items()} for row in cells]
    assert records_k == [(pattern, k * i, k * g) for pattern, i, g in records]
    assert counts_k == [k * c for c in counts]
    assert repr(partitions_k) == repr(partitions)
    assert patterns_k == patterns


# The seeds below 300 whose consolidated hierarchy a renumbering changes
# (renumbered by relabel_dataset(dataset, seed + 2)). At each, a split
# chooses among more than one dominant subset, and ``hierarchy._rules``
# takes the first in ascending id-tuple order, an order that renumbering
# the ids changes. The subsets' counts are equal at seeds 33 and 196, and
# 2 and 3 at seed 142.
SPLIT_CHOICES_UNDER_RELABELLING = {33, 142, 196}


def test_relabelling_keeps_cm_partition_and_hierarchy_but_at_split_choices(monkeypatch):
    """Renumbering the ids, labels following them, leaves cm's partition
    unchanged on every store. It leaves the consolidated hierarchy's
    patterns in preorder unchanged too, except where a split picks one of
    several dominant subsets: the pick follows the ids. So the hierarchy
    may differ only on a store where some split had such a choice, and the
    stores where it does are pinned."""
    choices = []  # per split, the dominant subsets it picked among
    split = hierarchy._split

    def counted(store, parent, node, subset):
        limit = store.theta_split * node.occurrences
        choices.append(sum(n >= limit for n in node.subset_counts.values()))
        return split(store, parent, node, subset)

    monkeypatch.setattr(hierarchy, "_split", counted)
    differ, chose = set(), set()
    for seed in range(300):
        dataset = random_dataset(seed, max_vars=10, max_events=30)
        renamed, mapping = relabel_dataset(dataset, seed + 2)
        choices.clear()
        _, (_, cm, _), patterns = _engines(dataset.events, dataset.n, Weights())
        _, (_, cm_renamed, _), patterns_renamed = _engines(renamed.events, renamed.n, Weights())
        moved = sorted(sorted(mapping[v] for v in cluster) for cluster in cm.clusters)
        assert moved == sorted(map(sorted, cm_renamed.clusters)), f"seed {seed}"
        if [sorted(mapping[v] for v in p) for p in patterns] != patterns_renamed:
            differ.add(seed)
        if max(choices, default=1) > 1:
            chose.add(seed)
    assert differ <= chose
    assert differ == SPLIT_CHOICES_UNDER_RELABELLING


def _as_detail_matrix(doc) -> str:
    """The text ``json.dumps(..., indent=2)`` gives ``doc`` as the
    ``detail.matrix`` value of a payload, where the CLI puts the grid."""
    text = json.dumps({"detail": {"matrix": doc}}, indent=2)
    head, tail = '{\n  "detail": {\n    "matrix": ', "\n  }\n}"
    assert text.startswith(head) and text.endswith(tail)
    return text[len(head) : -len(tail)]


def _render(renderer, matrix: CountMatrix, labels) -> str:
    """What a renderer writes, its pieces joined through ``io.StringIO().write``."""
    out = io.StringIO()
    renderer(matrix, labels, out.write)
    return out.getvalue()


class TestRendering:
    def test_csv(self):
        matrix = count_events(CountMatrix.zeros(2), [Event((0, 1))])
        assert _render(matrix_csv, matrix, ["a", "b"]) == ",a,b\na,x,1\nb,1,x\n"

    def test_json(self):
        matrix = count_events(CountMatrix.zeros(2), [Event((0, 1))])
        expected = {"labels": ["a", "b"], "cells": [[0, 1], [1, 0]]}
        assert _render(matrix_json, matrix, ["a", "b"]) == _as_detail_matrix(expected)

    def test_json_float_cells(self, seven):
        matrix = count_events(CountMatrix.zeros(seven.n), seven.events, 0.1)
        expected = {"labels": list(seven.labels), "cells": matrix.cells}
        assert _render(matrix_json, matrix, seven.labels) == _as_detail_matrix(expected)

    def test_json_empty(self):
        expected = _as_detail_matrix({"labels": [], "cells": []})
        assert _render(matrix_json, CountMatrix.zeros(0), []) == expected

    def test_text_has_x_diagonal(self, seven):
        text = _render(matrix_text, _seven_matrix(seven), seven.labels)
        lines = text.splitlines()
        assert lines[0].split() == list(seven.labels)
        assert lines[1].split() == ["A", "x", "4", "4", "4", "2", "1", "1"]


class TestArguments:
    @pytest.mark.parametrize("weight", [0, -1, -0.5, math.nan, math.inf])
    def test_weight_must_be_positive_and_finite(self, weight):
        matrix = CountMatrix.zeros(3)
        with pytest.raises(ConfigError):
            grid_update(matrix, Event((0, 1)), weight)
        with pytest.raises(ConfigError):
            count_events(matrix, [Event((0, 1))], weight)
        assert matrix == CountMatrix.zeros(3) and matrix.increments == 0

    @pytest.mark.parametrize("n", [0, 2])
    def test_ties_checked_up_front(self, n):
        with pytest.raises(ConfigError):
            extract_clusters(CountMatrix.zeros(n), ties="sideways")

    @pytest.mark.parametrize(
        ("tau", "ties"), [(0, "high"), (math.inf, "high"), (math.nan, "low"), (2, "sideways")]
    )
    def test_without_links_same_checks(self, seven, tau, ties):
        # the link threshold is checked even when no link is derived
        matrix = _seven_matrix(seven)
        errors = []
        for links in (True, False):
            with pytest.raises(ConfigError) as raised:
                extract_clusters(matrix, tau, ties=ties, links=links)
            errors.append(str(raised.value))
        assert errors[0] == errors[1]


@st.composite
def _grid_cases(draw):
    """A vocabulary size and labels, events counted first at one weight,
    then a batch at another (repeated sets likely, maybe one out-of-range
    event in it), a link threshold and a gap tie rule."""
    n = draw(st.integers(1, 8))
    labels = draw(st.lists(st.text(max_size=4) | st.just('"cells": []'), min_size=n, max_size=n))
    event = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True).map(
        lambda members: Event(tuple(members))
    )
    pool = draw(st.lists(event, min_size=1, max_size=4))
    weight = st.integers(1, 4) | st.floats(1e-3, 1e3)
    before = draw(st.lists(event, max_size=6)), draw(weight)
    batch = draw(st.lists(event | st.sampled_from(pool), max_size=40))
    bad = draw(st.none() | st.integers(0, len(batch)))
    if bad is not None:
        batch.insert(bad, Event((n,)))
    tau = draw(st.sampled_from([1, 2, 3, 2.5]) | st.floats(1, 20))
    ties = draw(st.sampled_from(["high", "low"]))
    return n, labels, before, (batch, draw(weight)), bad, tau, ties


@given(_grid_cases())
@example((3, ["a", "b", "c"], ([Event((0, 1))], 1), ([Event((0, 1, 2))] * 3, 0.1), None, 1, "high"))
# ten folds of 0.1 from 0 give 0.9999999999999999, not 10 * 0.1
@example((2, ["a", "b"], ([], 1), ([Event((0, 1))] * 10, 0.1), None, 1, "high"))
@example((2, ["a", "b"], ([], 1), ([Event((0, 1)), Event((0, 2)), Event((0, 1))], 1), 1, 2, "low"))
# row 0 is {1: 2, 2: 2.0}: equal counts of two types, written 2 and 2.0
@example((3, ["a", "b", "c"], ([Event((0, 1))] * 2 + [Event((0, 2))], 1), ([Event((0, 2))], 1.0), None, 1, "high"))
def test_sparse_grid_equals_dense_oracle(case):
    n, labels, (before, w0), (batch, w1), bad, tau, ties = case
    sparse, dense = CountMatrix.zeros(n), DenseGrid.zeros(n)
    count_events(sparse, before, w0)
    dense_count_events(dense, before, w0)

    errors = []
    for count, matrix in ((count_events, sparse), (dense_count_events, dense)):
        try:
            count(matrix, batch, w1)
        except DataError as exc:
            errors.append(str(exc))
    assert len(errors) == (0 if bad is None else 2) and len(set(errors)) <= 1
    assert repr(sparse.cells) == repr(dense.cells)
    assert sparse.increments == dense.increments

    assert repr(extract_clusters(sparse, tau, ties=ties)) == repr(
        dense_extract_clusters(dense, tau, ties=ties)
    )
    expected = _as_detail_matrix(dense_matrix_json(dense, labels))
    assert _render(matrix_json, sparse, labels) == expected


@st.composite
def _count_cases(draw):
    """A grid with some cells already set (to ints or floats, not
    symmetric), distinct member sets each with how often it occurs, and a
    weight."""
    n = draw(st.integers(1, 8))
    value = st.integers(1, 50) | st.floats(1e-3, 1e3)
    rows = [
        {w: c for w, c in draw(st.dictionaries(st.integers(0, n - 1), value, max_size=n)).items() if w != v}
        for v in range(n)
    ]
    member_set = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True).map(tuple)
    sets = draw(st.dictionaries(member_set, st.integers(1, 12) | st.just(1), max_size=12))
    weight = draw(st.just(1) | st.integers(1, 4) | st.floats(1e-3, 1e3) | st.sampled_from([0.1, 1.0]))
    return rows, sets, weight


@given(_count_cases())
# ten folds of 0.1 from 0 give 0.9999999999999999, not 10 * 0.1
@example(([{}, {}], {(0, 1): 10, (1,): 3}, 0.1))
@example(([{1: 2}, {}, {}], {(0, 1, 2): 1, (1, 2): 4}, 1))
@example(([{1: 0.5}, {0: 3}, {}], {(0, 1, 2): 1, (2, 0): 2}, 0.1))
def test_row_count_equals_pair_count_oracle(case):
    """Counting a row at a time gives the cells and increments the pair
    tuples of the reference give, on empty and prefilled rows alike."""
    rows, sets, weight = case
    counted = CountMatrix([dict(row) for row in rows], 5)
    reference = CountMatrix([dict(row) for row in rows], 5)
    _count_sets(counted, sets, weight)
    pair_count_sets(reference, sets, weight)
    assert repr(counted.cells) == repr(reference.cells)
    assert counted.increments == reference.increments
    assert all(v not in row for v, row in enumerate(counted.rows))


def _shuffled_rows(matrix: CountMatrix, seed: int) -> CountMatrix:
    """The same cells with each row's entries inserted in a random order."""
    rng = random.Random(seed)
    rows = []
    for row in matrix.rows:
        items = list(row.items())
        rng.shuffle(items)
        rows.append(dict(items))
    return CountMatrix(rows, matrix.increments)


@given(
    st.integers(0, 10_000),
    st.integers(0, 10_000),
    st.sampled_from([1, 3, 0.1, 2.5]),
    st.sampled_from([1, 2, 2.5, 4]),
    st.sampled_from(["high", "low"]),
)
def test_readers_ignore_row_order(seed, shuffle, weight, tau, ties):
    """Extraction and every renderer read a row's cells, never the order
    they were inserted in."""
    dataset = random_dataset(seed, max_vars=12, max_events=40)
    labels = [f"v{v}" for v in range(dataset.n)]
    matrix = count_events(CountMatrix.zeros(dataset.n), dataset.events, weight)
    shuffled = _shuffled_rows(matrix, shuffle)
    assert repr(extract_clusters(shuffled, tau, ties=ties)) == repr(extract_clusters(matrix, tau, ties=ties))
    for renderer in (matrix_text, matrix_json, matrix_csv):
        assert _render(renderer, shuffled, labels) == _render(renderer, matrix, labels)


@given(_grid_cases())
def test_head_sets_equal_dense_oracle(case):
    n, _, (before, w0), (batch, w1), _, _, _ = case
    sparse, dense = CountMatrix.zeros(n), DenseGrid.zeros(n)
    for events, weight in ((before, w0), (batch, w1)):
        # an out-of-range event stops both counts after the same events
        with suppress(DataError):
            count_events(sparse, events, weight)
        with suppress(DataError):
            dense_count_events(dense, events, weight)
    for ties in ("high", "low"):
        for v in range(n):
            assert head_set(sparse, v, ties=ties) == dense_head_set(dense, v, ties=ties)


# labels of any width, quoted by json where needed; none breaks a line, so
# the CSV and text renderings keep one line per row
_LABEL = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), max_size=6)


@given(
    st.integers(0, 10_000),
    st.sampled_from([1, 3, 0.1, 2.5, 1e-3]),
    st.lists(_LABEL, min_size=12, max_size=12),
    st.sampled_from([None, 1.0, 0.5]),
)
@example(0, 1, [""] * 12, None)
# row 4 holds 2 and 2.0: equal counts of two types, written 2 and 2.0
@example(50, 1, list("abcdefghijkl"), 1.0)
def test_renderers_write_one_row_per_piece(seed, weight, names, then):
    """Joined, the CSV and text pieces equal the dense oracles' strings;
    and no piece is longer than the label header plus the longest row.
    With ``then``, every other event is counted again at that weight, so
    a row may hold ints and floats side by side."""
    dataset = random_dataset(seed, max_vars=12, max_events=30)
    labels = names[: dataset.n]
    sparse, dense = CountMatrix.zeros(dataset.n), DenseGrid.zeros(dataset.n)
    for events, w in [(dataset.events, weight)] + ([(dataset.events[::2], then)] if then else []):
        count_events(sparse, events, w)
        dense_count_events(dense, events, w)
    csv_text, text = dense_matrix_csv(dense, labels), dense_matrix_text(dense, labels)
    # rows are lines, each piece holding its newline
    csv_head, csv_rows = csv_text.split("\n", 1)
    text_head, text_rows = text.split("\n", 1)
    cases = (
        (matrix_csv, csv_text, csv_head, csv_rows.split("\n"), 1),
        (matrix_text, text, text_head, text_rows.split("\n"), 1),
    )
    for renderer, expected, header, rows, extra in cases:
        pieces = []
        renderer(sparse, labels, pieces.append)
        assert "".join(pieces) == expected
        assert max(map(len, pieces)) <= len(header) + max(map(len, rows)) + extra


@given(
    st.integers(0, 10_000),
    st.sampled_from([1, 3, 0.1, 2.5, 1e-3]),
    st.lists(_LABEL, min_size=12, max_size=12),
)
@example(0, 1, [""] * 12)
# 196 variables: the rows take about 750,000 characters, eleven full blocks
@example(103, 0.1, [f"v{i}" for i in range(200)])
def test_json_matrix_writes_rows_in_blocks(seed, weight, names):
    """Joined, the pieces equal the dense oracle's text. The first runs to
    the "cells" key; the rest follow ``jsonout.write_list``: each but the
    last holds at least ``BLOCK`` characters, and none more than ``BLOCK``
    plus the longest row and its separator."""
    dataset = random_dataset(seed, max_vars=len(names), max_events=30)
    labels = names[: dataset.n]
    sparse = count_events(CountMatrix.zeros(dataset.n), dataset.events, weight)
    dense = dense_count_events(DenseGrid.zeros(dataset.n), dataset.events, weight)
    expected = _as_detail_matrix(dense_matrix_json(dense, labels))
    pieces = []
    matrix_json(sparse, labels, pieces.append)
    assert "".join(pieces) == expected
    assert pieces[0] == expected[: expected.index('"cells": ') + len('"cells": ')]
    # a row, its separator in front, ends at a bracket eight spaces in,
    # which the split drops
    close = "\n        ]"
    longest = max(map(len, expected[len(pieces[0]) :].split(close))) + len(close)
    blocks = pieces[1:]
    assert all(len(piece) >= jsonout.BLOCK for piece in blocks[:-1])
    assert max(map(len, blocks)) <= jsonout.BLOCK + longest
