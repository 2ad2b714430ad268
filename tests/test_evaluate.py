import json
import random
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from patterngrid.evaluate import (
    MatchRow,
    agreement_json,
    agreement_text,
    best_matches_json,
    pairwise_agreement,
)
from patterngrid.model import DataError, Partition

from .oracles import agreement_oracle

A, B, C, D, E, F, G = range(7)


def _partition(n: int, *clusters) -> Partition:
    cs = tuple(frozenset(c) for c in clusters)
    covered = frozenset().union(*cs) if cs else frozenset()
    return Partition(n, cs, frozenset(range(n)) - covered)


def _random_partition(rng: random.Random, n: int) -> Partition:
    ids = [int(rng.random() * 3) for _ in range(n)]
    groups: dict[int, set[int]] = {}
    for v, g in enumerate(ids):
        groups.setdefault(g, set()).add(v)
    return _partition(n, *groups.values())


class TestPairwise:
    def test_identity_is_perfect(self):
        p = _partition(7, {A, B, C, D}, {E, F, G})
        report = pairwise_agreement(p, p)
        assert (report.produced_pairs, report.reference_pairs, report.shared_pairs) == (9, 9, 9)
        assert report.pairwise_precision == 1.0
        assert report.pairwise_recall == 1.0
        assert report.pairwise_f1 == 1.0
        assert report.rand_index == 1.0
        assert report.exact_cluster_matches == 2

    def test_hand_worked_overlap(self):
        produced = _partition(7, {A, B, C, D}, {E, F, G})
        reference = _partition(7, {A, B, C, D, E}, {F, G})
        report = pairwise_agreement(produced, reference)
        assert (report.produced_pairs, report.reference_pairs, report.shared_pairs) == (9, 11, 7)
        assert report.pairwise_precision == pytest.approx(7 / 9)
        assert report.pairwise_recall == pytest.approx(7 / 11)
        assert report.pairwise_f1 == pytest.approx(0.7)
        assert report.rand_index == pytest.approx(15 / 21)
        assert report.exact_cluster_matches == 0

    def test_all_unassigned_claims_nothing(self):
        produced = _partition(4)
        reference = _partition(4, {0, 1, 2, 3})
        report = pairwise_agreement(produced, reference)
        assert report.produced_pairs == 0
        assert report.pairwise_precision == 1.0
        assert report.pairwise_recall == 0.0
        assert report.pairwise_f1 == 0.0

    def test_empty_universe(self):
        report = pairwise_agreement(_partition(0), _partition(0))
        assert report.pairwise_f1 == 1.0
        assert report.rand_index == 1.0

    def test_universe_mismatch(self):
        with pytest.raises(DataError):
            pairwise_agreement(_partition(3, {0, 1}), _partition(4, {0, 1}))

    def test_swap_exchanges_precision_and_recall(self):
        for seed in range(20):
            rng = random.Random(seed)
            a = _random_partition(rng, 9)
            b = _random_partition(rng, 9)
            ab = pairwise_agreement(a, b)
            ba = pairwise_agreement(b, a)
            assert ab.shared_pairs == ba.shared_pairs
            assert ab.pairwise_precision == ba.pairwise_recall
            assert ab.pairwise_recall == ba.pairwise_precision
            assert ab.pairwise_f1 == ba.pairwise_f1
            assert ab.rand_index == ba.rand_index

    def test_relabelling_variables_does_not_change_scores(self):
        produced = _partition(7, {A, B, C, D}, {E, F, G})
        reference = _partition(7, {A, B, C, D, E}, {F, G})
        before = pairwise_agreement(produced, reference)
        perm = [3, 6, 0, 4, 1, 5, 2]

        def relabel(p: Partition) -> Partition:
            return _partition(p.n, *({perm[v] for v in c} for c in p.clusters))

        after = pairwise_agreement(relabel(produced), relabel(reference))
        assert after.pairwise_f1 == before.pairwise_f1
        assert after.rand_index == before.rand_index
        assert after.shared_pairs == before.shared_pairs

    def test_cluster_order_does_not_change_scores(self):
        produced = _partition(7, {E, F, G}, {A, B, C, D})
        reference = _partition(7, {A, B, C, D, E}, {F, G})
        report = pairwise_agreement(produced, reference)
        assert report.pairwise_f1 == pytest.approx(0.7)

    def test_scores_stay_in_bounds(self):
        for seed in range(30):
            rng = random.Random(seed)
            a = _random_partition(rng, 11)
            b = _random_partition(rng, 11)
            report = pairwise_agreement(a, b)
            for value in (
                report.pairwise_precision,
                report.pairwise_recall,
                report.pairwise_f1,
                report.rand_index,
            ):
                assert 0.0 <= value <= 1.0
            assert report.shared_pairs <= min(report.produced_pairs, report.reference_pairs)


class TestMatchTable:
    def test_best_match_per_produced_cluster(self):
        produced = _partition(7, {A, B, C, D}, {E, F, G})
        reference = _partition(7, {A, B, C, D, E}, {F, G})
        rows = pairwise_agreement(produced, reference).per_cluster_table
        assert rows[0] == MatchRow(frozenset({A, B, C, D}), frozenset({A, B, C, D, E}), 4)
        assert rows[1] == MatchRow(frozenset({E, F, G}), frozenset({F, G}), 2)

    def test_unassigned_variables_appear_as_singleton_rows(self):
        produced = _partition(3, {0, 1})
        reference = _partition(3, {0, 1, 2})
        rows = pairwise_agreement(produced, reference).per_cluster_table
        assert rows == (
            MatchRow(frozenset({0, 1}), frozenset({0, 1, 2}), 2),
            MatchRow(frozenset({2}), frozenset({0, 1, 2}), 1),
        )


@st.composite
def _partition_pairs(draw):
    """Two partitions over up to 40 ids, each id unassigned (likely) or in
    one of a few clusters, the clusters in a drawn order."""
    n = draw(st.integers(0, 40))

    def partition():
        groups: dict[int, set[int]] = {}
        for v, g in enumerate(draw(st.lists(st.integers(-3, 4), min_size=n, max_size=n))):
            if g >= 0:
                groups.setdefault(g, set()).add(v)
        return _partition(n, *draw(st.permutations(list(groups.values()))))

    return partition(), partition()


@given(_partition_pairs())
# equal overlaps with two reference clusters, in either reference order
@example((_partition(5, {0, 1, 2, 3}), _partition(5, {0, 1}, {2, 3})))
@example((_partition(5, {0, 1, 2, 3}), _partition(5, {2, 3, 4}, {0, 1})))
@example((_partition(6, {0, 1, 2, 3}), _partition(6, {2, 3, 4, 5}, {0, 1})))
def test_best_matches_equal_oracle(case):
    produced, reference = case
    assert repr(pairwise_agreement(produced, reference)) == repr(agreement_oracle(produced, reference))


def test_best_matches_scale_with_ids():
    # nearly every id unassigned on both sides: thousands of singleton
    # clusters, whose pairwise intersections took about a second for 3,000 ids
    n = 4096
    produced = _partition(n, {0, 1, 2}, {3, 4})
    reference = _partition(n, {1, 2, 3}, {5, 6})
    started = time.perf_counter()
    report = pairwise_agreement(produced, reference)
    elapsed = time.perf_counter() - started
    assert elapsed < 0.5, f"pairwise_agreement over {n} ids took {elapsed:.2f}s"
    assert len(report.per_cluster_table) == n - 3
    assert report.per_cluster_table[:2] == (
        MatchRow(frozenset({0, 1, 2}), frozenset({1, 2, 3}), 2),
        MatchRow(frozenset({3, 4}), frozenset({1, 2, 3}), 1),
    )


class TestRendering:
    # {C,D} overlaps {A,B,C} and {D} by one each and takes the earlier one;
    # E is unassigned on both sides
    REPORT = pairwise_agreement(_partition(5, {A, B}, {C, D}), _partition(5, {A, B, C}))

    def test_text(self):
        assert agreement_text(self.REPORT, "ABCDE") == [
            "pairs: produced=2 reference=3 shared=1",
            "pairwise: precision=0.5000 recall=0.3333 f1=0.4000",
            "rand_index=0.7000 exact_cluster_matches=1",
            "best matches:",
            "  {A,B} ~ {A,B,C} overlap=2",
            "  {C,D} ~ {A,B,C} overlap=1",
            "  {E} ~ {E} overlap=1",
        ]

    def test_json(self):
        payload = agreement_json(self.REPORT)
        assert payload["pairwise_f1"] == pytest.approx(0.4)
        assert payload["best_matches"] is None
        pieces = []
        best_matches_json(self.REPORT, "ABCDE", pieces.append, 0)
        assert json.loads("".join(pieces)) == [
            {"produced": ["A", "B"], "reference": ["A", "B", "C"], "overlap": 2},
            {"produced": ["C", "D"], "reference": ["A", "B", "C"], "overlap": 1},
            {"produced": ["E"], "reference": ["E"], "overlap": 1},
        ]
