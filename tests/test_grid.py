import pytest
from hypothesis import given
from hypothesis import strategies as st

from patterngrid.grid import (
    CountMatrix,
    count_events,
    extract_clusters,
    grid_merge,
    grid_update,
    head_set,
    matrix_csv,
    matrix_json,
    matrix_text,
)
from patterngrid.model import ConfigError, DataError, Event

from .oracles import cooccurrence_oracle, random_dataset

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


def test_merge_identity(seven):
    matrix = _seven_matrix(seven)
    merged = grid_merge(matrix, CountMatrix.zeros(seven.n))
    assert merged.cells == matrix.cells


def test_merge_of_fixture_shards_is_full_matrix(seven):
    left = count_events(CountMatrix.zeros(seven.n), seven.events[:3])
    right = count_events(CountMatrix.zeros(seven.n), seven.events[3:])
    merged = grid_merge(left, right)
    assert merged.cells == SEVEN_MATRIX
    assert merged.increments == left.increments + right.increments


def test_merge_rejects_size_mismatch():
    with pytest.raises(DataError):
        grid_merge(CountMatrix.zeros(2), CountMatrix.zeros(3))


def test_random_split_merge_equals_single_pass():
    for seed in range(15):
        dataset = random_dataset(seed)
        whole = count_events(CountMatrix.zeros(dataset.n), dataset.events)
        cut = len(dataset.events) // 2
        left = count_events(CountMatrix.zeros(dataset.n), dataset.events[:cut])
        right = count_events(CountMatrix.zeros(dataset.n), dataset.events[cut:])
        assert grid_merge(left, right).cells == whole.cells


def test_cells_match_cooccurrence_oracle():
    for seed in range(30):
        dataset = random_dataset(seed)
        matrix = count_events(CountMatrix.zeros(dataset.n), dataset.events)
        assert matrix.cells == cooccurrence_oracle(dataset.events, dataset.n), f"seed {seed}"


class TestHeadSet:
    def test_fixture_rows(self, seven):
        matrix = _seven_matrix(seven)
        label = {v.label: v.id for v in seven.variables}
        assert head_set(matrix, label["A"]) == {label["B"], label["C"], label["D"]}
        assert head_set(matrix, label["E"]) == {label["F"], label["G"]}
        assert head_set(matrix, label["B"]) == {label["A"], label["C"], label["D"]}
        assert head_set(matrix, label["F"]) == {label["E"], label["G"]}

    def test_all_equal_keeps_all(self):
        matrix = CountMatrix([[0, 2, 2], [2, 0, 2], [2, 2, 0]])
        assert head_set(matrix, 0) == {1, 2}

    def test_all_zero_keeps_none(self):
        assert head_set(CountMatrix.zeros(3), 0) == frozenset()

    def test_cut_at_largest_gap(self):
        matrix = CountMatrix([[0, 9, 8, 3, 2], [9, 0, 0, 0, 0], [8, 0, 0, 0, 0], [3, 0, 0, 0, 0], [2, 0, 0, 0, 0]])
        assert head_set(matrix, 0) == {1, 2}

    def test_gap_tie_high_and_low(self):
        # sorted counts 5,3,1: both gaps are 2
        matrix = CountMatrix([[0, 5, 3, 1], [5, 0, 0, 0], [3, 0, 0, 0], [1, 0, 0, 0]])
        assert head_set(matrix, 0, ties="high") == {1}
        assert head_set(matrix, 0, ties="low") == {1, 2}

    def test_equal_counts_never_straddle_the_cut(self):
        # counts 4,2,2,1: the maximal gap is after the 4; the pair of 2s
        # must stay together on the low side
        matrix = CountMatrix(
            [
                [0, 4, 2, 2, 1],
                [4, 0, 0, 0, 0],
                [2, 0, 0, 0, 0],
                [2, 0, 0, 0, 0],
                [1, 0, 0, 0, 0],
            ]
        )
        assert head_set(matrix, 0) == {1}

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
                floor = min(matrix.cells[v][w] for w in heads)
                for w in range(dataset.n):
                    if w == v:
                        continue
                    # every variable at or above the floor is in, below is out
                    assert (matrix.cells[v][w] >= floor) == (w in heads)


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
        matrix = CountMatrix([[0, 1, 0], [1, 0, 9], [0, 9, 0]])
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

    def test_head_sets_are_reported(self, seven):
        result = extract_clusters(_seven_matrix(seven), 2)
        assert set(result.head_sets) == set(range(seven.n))

    @given(st.integers(0, 10_000))
    def test_partition_is_valid_and_links_cross_clusters(self, seed):
        dataset = random_dataset(seed, max_vars=8, max_events=25)
        matrix = count_events(CountMatrix.zeros(dataset.n), dataset.events)
        result = extract_clusters(matrix, 2)
        cluster_of = {}
        for ci, cluster in enumerate(result.partition.clusters):
            assert len(cluster) >= 2
            for v in cluster:
                cluster_of[v] = ci
        for link in result.links:
            assert cluster_of[link.a] != cluster_of[link.b]
            assert matrix.cells[link.a][link.b] >= 2


@given(st.integers(0, 10_000))
def test_matrix_is_symmetric_with_empty_diagonal(seed):
    dataset = random_dataset(seed, max_vars=8, max_events=25)
    matrix = count_events(CountMatrix.zeros(dataset.n), dataset.events)
    for i in range(dataset.n):
        assert matrix.cells[i][i] == 0
        for j in range(dataset.n):
            assert matrix.cells[i][j] == matrix.cells[j][i]


class TestRendering:
    def test_csv(self):
        matrix = count_events(CountMatrix.zeros(2), [Event((0, 1))])
        assert matrix_csv(matrix, ["a", "b"]) == ",a,b\na,x,1\nb,1,x\n"

    def test_json(self):
        matrix = count_events(CountMatrix.zeros(2), [Event((0, 1))])
        assert matrix_json(matrix, ["a", "b"]) == {"labels": ["a", "b"], "cells": [[0, 1], [1, 0]]}

    def test_text_has_x_diagonal(self, seven):
        text = matrix_text(_seven_matrix(seven), seven.labels)
        lines = text.splitlines()
        assert lines[0].split() == list(seven.labels)
        assert lines[1].split() == ["A", "x", "4", "4", "4", "2", "1", "1"]
