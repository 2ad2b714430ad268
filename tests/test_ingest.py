import io
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from patterngrid.ingest import (
    FIXTURES,
    IngestError,
    LabelPolicy,
    ReferenceClusters,
    TransactionFormat,
    load_fixture,
    load_reference_path,
    parse_transactions,
    parse_transactions_path,
    reference_from_clusters,
    serialize_transactions,
)
from patterngrid.model import ConfigError, DataError, Dataset, build_vocabulary

from .oracles import transpose_oracle

MEMBERS = TransactionFormat(label_policy=LabelPolicy.MEMBERS)


def _parse(text: str, fmt: TransactionFormat = TransactionFormat(), **kw) -> Dataset:
    return parse_transactions(io.BytesIO(text.encode()), fmt, **kw)


class TestParse:
    def test_record_label_is_dropped(self):
        dataset = _parse("abies,al,ak\n")
        assert dataset.labels == ("al", "ak")
        assert dataset.events[0].members == (0, 1)

    def test_members_policy_keeps_first_token(self):
        dataset = _parse("al,ak\n", MEMBERS)
        assert dataset.labels == ("al", "ak")

    def test_vocabulary_in_first_seen_order(self):
        dataset = _parse("r1,b,a\nr2,c,a\n")
        assert dataset.labels == ("b", "a", "c")
        assert [e.members for e in dataset.events] == [(0, 1), (2, 1)]

    def test_blank_lines_skipped_silently(self):
        dataset = _parse("\nr1,a,b\n\n\nr2,b\n")
        assert len(dataset.events) == 2
        assert dataset.diagnostics == ()

    def test_tokens_are_trimmed(self):
        dataset = _parse(" r1 , a , b \n")
        assert dataset.labels == ("a", "b")

    @pytest.mark.parametrize(
        "line,expected",
        [
            ("r1,a,,b", "line 2: empty field"),
            ("r1", "line 2: no members"),
            ("r1,a,a", "line 2: duplicate member"),
        ],
    )
    def test_bad_lines_become_diagnostics(self, line, expected):
        dataset = _parse(f"r0,a\n{line}\nr2,b\n")
        assert dataset.diagnostics == (expected,)
        assert len(dataset.events) == 2

    def test_empty_source_is_fatal(self):
        with pytest.raises(IngestError):
            _parse("")

    def test_all_lines_bad_is_fatal(self):
        with pytest.raises(IngestError):
            _parse("r1,a,a\nr2,b,b\n")

    def test_custom_delimiter(self):
        dataset = _parse("r1;a;b\n", TransactionFormat(delimiter=";"))
        assert dataset.labels == ("a", "b")

    def test_delimiter_must_be_one_character(self):
        with pytest.raises(ConfigError):
            TransactionFormat(delimiter=", ")

    def test_undecodable_bytes_are_replaced_not_fatal(self):
        # latin-1 e-acute in the label position; members stay ASCII
        dataset = parse_transactions(io.BytesIO(b"caf\xe9,al,ak\n"))
        assert dataset.labels == ("al", "ak")

    def test_path_matches_stream(self, tmp_path):
        text = "r1,a,b\nr2,b,c\n"
        path = tmp_path / "t.data"
        path.write_text(text)
        assert parse_transactions_path(str(path)) == _parse(text)


class TestTranspose:
    def test_pivots_members_into_records(self):
        dataset = _parse("s1,al,ak\ns2,al\n", transpose=True)
        assert dataset.labels == ("s1", "s2")
        assert [e.members for e in dataset.events] == [(0, 1), (0,)]

    def test_repeated_record_labels_listed_once(self):
        dataset = _parse("s1,al,ak\ns2,al\ns1,ak,fl\ns2,al,fl\n", transpose=True)
        assert dataset.labels == ("s1", "s2")
        assert [e.members for e in dataset.events] == [(0, 1), (0,), (0, 1)]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["s1", "s2", "s3"]),
                st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, unique=True),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_pivot_matches_list_scan(self, records):
        rows = [[label, *members] for label, members in records]
        dataset = _parse("".join(",".join(row) + "\n" for row in rows), transpose=True)
        expected = build_vocabulary(transpose_oracle(rows))
        assert dataset.variables == expected.variables
        assert dataset.events == expected.events

    def test_requires_record_labels(self):
        with pytest.raises(ConfigError):
            _parse("a,b\n", MEMBERS, transpose=True)


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", [TransactionFormat(), MEMBERS])
    def test_serialize_then_parse_restores_dataset(self, fmt):
        dataset = _parse("q,al,ak,fl\nw,ak,fl\ne,mi\n", fmt)
        again = _parse(serialize_transactions(dataset, fmt), fmt)
        assert again.variables == dataset.variables
        assert again.events == dataset.events

    def test_synthetic_labels_under_record_policy(self):
        dataset = _parse("a,b\n", MEMBERS)
        assert serialize_transactions(dataset) == "r0,a,b\n"


class TestReference:
    def test_universe_is_first_mention_order(self):
        ref = reference_from_clusters([("b", "a"), ("c",)])
        assert ref.labels == ("b", "a", "c")
        assert ref.partition.clusters == (frozenset({0, 1}), frozenset({2}))
        assert ref.partition.unassigned == frozenset()

    def test_duplicate_label_rejected(self):
        with pytest.raises(DataError, match="^label 'b' appears in two reference clusters$"):
            reference_from_clusters([("a", "b"), ("b",)])

    def test_unhashable_label_rejected(self):
        with pytest.raises(DataError, match="not hashable"):
            reference_from_clusters([("a", ["b"])])

    def test_full_size_reference_is_linear(self):
        # one label per record of the full-size corpus, as --transpose makes them
        labels = [f"r{i}" for i in range(34_781)]
        clusters = [labels[i : i + 7] for i in range(0, len(labels), 7)]
        started = time.perf_counter()
        ref = reference_from_clusters(clusters)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"building the reference took {elapsed:.2f}s"
        assert ref.labels == tuple(labels)
        with pytest.raises(DataError, match="^label 'r0' appears in two reference clusters$"):
            reference_from_clusters(clusters + [["r0"]])

    def test_empty_cluster_rejected(self):
        with pytest.raises(DataError):
            reference_from_clusters([("a",), ()])

    def test_no_clusters_rejected(self):
        with pytest.raises(DataError):
            reference_from_clusters([])

    def test_align_reindexes_and_leaves_rest_unassigned(self):
        ref = reference_from_clusters([("a", "b")])
        partition = ref.align(("x", "b", "a"))
        assert partition.clusters == (frozenset({1, 2}),)
        assert partition.unassigned == frozenset({0})

    def test_align_missing_label_is_a_mismatch(self):
        ref = reference_from_clusters([("a", "b")])
        with pytest.raises(DataError):
            ref.align(("a", "c"))

    def test_load_reference_path(self, tmp_path):
        path = tmp_path / "ref.json"
        path.write_text('{"clusters": [["a", "b"], ["c"]]}')
        assert load_reference_path(str(path)) == reference_from_clusters([("a", "b"), ("c",)])

    def test_load_reference_path_bad_shape(self, tmp_path):
        path = tmp_path / "ref.json"
        path.write_text('[["a"]]')
        with pytest.raises(DataError):
            load_reference_path(str(path))


class TestFixtures:
    def test_listing(self):
        assert FIXTURES == ("seven_event", "plants_reference")

    def test_seven_event(self, seven):
        assert isinstance(seven, Dataset)
        assert seven.labels == ("A", "B", "C", "D", "E", "F", "G")
        assert len(seven.events) == 7
        assert seven.decode(seven.events[0]) == ["A", "B", "C", "D", "E"]
        assert [seven.labels[e.source] for e in seven.events] == list("ABCDEFG")

    def test_plants_reference(self):
        ref = load_fixture("plants_reference")
        assert isinstance(ref, ReferenceClusters)
        assert len(ref.cluster_label_sets) == 31
        assert ref.cluster_label_sets[0] == ("fl", "hi", "pr")
        assert len(ref.labels) == 70
        singletons = [c for c in ref.cluster_label_sets if len(c) == 1]
        assert len(singletons) == 10

    def test_unknown_name(self):
        with pytest.raises(DataError):
            load_fixture("nope")
