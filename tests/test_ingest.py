import io
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patterngrid import counting, grid, hierarchy, ingest, model, reinforce
from patterngrid.ingest import (
    FIXTURES,
    LabelPolicy,
    ReferenceClusters,
    load_fixture,
    load_reference_path,
    parse_transactions,
    parse_transactions_path,
    reference_from_clusters,
)
from patterngrid.model import ConfigError, DataError, Dataset, Event, build_vocabulary
from patterngrid.synth import synthetic_plants_text

from .oracles import parse_oracle, transpose_oracle

MEMBERS = LabelPolicy.MEMBERS
BOM = b"\xef\xbb\xbf"


def _parse(text: str, policy: LabelPolicy = LabelPolicy.RECORD_LABEL, **kw) -> Dataset:
    return parse_transactions(io.BytesIO(text.encode()), policy, **kw)


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

    def test_only_newlines_end_a_line(self):
        # U+0085, U+2028, "\x1c", "\v" and "\f" are line breaks to
        # str.splitlines, but inside a line they belong to its token
        dataset = _parse("r1,a\x85b\nr2,,c\rr3,a\u2028\x1c\x0b\x0cb,c\r\nr4,a\x85b\n")
        assert dataset.labels == ("a\x85b", "a\u2028\x1c\x0b\x0cb", "c")
        assert [e.members for e in dataset.events] == [(0,), (1, 2), (0,)]
        assert dataset.diagnostics == ("line 2: empty field",)

    def test_empty_source_is_fatal(self):
        with pytest.raises(DataError, match="no parseable records"):
            _parse("")

    def test_all_lines_bad_is_fatal(self):
        with pytest.raises(DataError, match="no parseable records"):
            _parse("r1,a,a\nr2,b,b\n")

    @pytest.mark.parametrize(
        "policy, transpose",
        [(LabelPolicy.RECORD_LABEL, False), (LabelPolicy.RECORD_LABEL, True), (MEMBERS, False)],
    )
    def test_leading_byte_order_mark_is_dropped(self, policy, transpose):
        data = b"a,b\nb,a\nc,a\n"
        plain = parse_transactions(io.BytesIO(data), policy, transpose=transpose)
        marked = parse_transactions(io.BytesIO(BOM + data), policy, transpose=transpose)
        assert repr(marked) == repr(plain)

    def test_only_one_byte_order_mark_is_dropped(self):
        dataset = parse_transactions(io.BytesIO(BOM + BOM + b"a,b\n"), MEMBERS)
        assert dataset.labels == ("\ufeffa", "b")

    def test_undecodable_bytes_are_replaced_not_fatal(self):
        # latin-1 e-acute in the label position; members stay ASCII
        dataset = parse_transactions(io.BytesIO(b"caf\xe9,al,ak\n"))
        assert dataset.labels == ("al", "ak")

    def test_path_matches_stream(self, tmp_path):
        text = "r1,a,b\nr2,b,c\n"
        path = tmp_path / "t.data"
        path.write_text(text)
        assert parse_transactions_path(str(path)) == _parse(text)


def _outcome(parse, data: bytes, policy: LabelPolicy, transpose: bool):
    """The parsed Dataset's repr, or the type and message of the error."""
    try:
        return repr(parse(io.BytesIO(data), policy, transpose=transpose))
    except (ConfigError, DataError) as exc:
        return type(exc), str(exc)


# no-break space, U+0085 and "\v" are whitespace to str.strip
_PADS = [b"", b"", b" ", b"\t", b"\xc2\xa0", b"\xc2\x85", b"\x0b"]
# U+0085, U+2028, "\x1c", "\v" and "\f" break lines for str.splitlines only
_TOKENS = [
    b"a", b"b", b"c", b"s1", b"s2", b"", b"caf\xc3\xa9", b"caf\xe9", b"\xff",
    b"a\xc2\x85b", b"a\xe2\x80\xa8b", b"\x1c", b"a\x0bb", b"\x0c",
]
_ENDS = [b"\n", b"\n", b"\r\n", b"\r"]


@st.composite
def _field(draw) -> bytes:
    pad, token, tail = (draw(st.sampled_from(pieces)) for pieces in (_PADS, _TOKENS, _PADS))
    return pad + token + tail


@st.composite
def _bad_line(draw) -> bytes:
    """A line rejected under both label policies: an empty field, or a
    repeated member after a label."""
    a, b = draw(st.sampled_from([b"a", b"b", b"s1"])), draw(st.sampled_from([b"a", b"s2"]))
    empty_last, empty_inside = a + b",", a + b",," + b
    repeated = b"r," + a + b"," + a
    return draw(st.sampled_from([empty_last, empty_inside, repeated]))


@st.composite
def _transaction_bytes(draw) -> bytes:
    sep = b","
    fields = st.lists(_field(), min_size=1, max_size=5).map(sep.join)
    # a few member texts that many lines repeat, with or without a label in
    # front, so lines share a member text under different labels; most of
    # them parse, so a repeat reaches the parser's memo
    members = st.lists(st.sampled_from(_TOKENS[:5]), min_size=1, max_size=4, unique=True)
    pool = draw(st.lists(st.one_of(fields, members.map(sep.join)), min_size=1, max_size=3))
    labels = st.one_of(st.sampled_from([b"", b" ", b"r1", b"r2 "]), _field())
    repeated = st.one_of(
        st.tuples(labels, st.sampled_from(pool)).map(sep.join), st.sampled_from(pool)
    )
    blank = st.sampled_from([b"", b"  ", b"\t"])
    if draw(st.booleans()):
        lines = draw(st.lists(st.one_of(repeated, fields, blank, _bad_line()), max_size=12))
        lines += draw(st.lists(repeated, min_size=2, max_size=6))
    else:
        lines = draw(st.lists(st.one_of(_bad_line(), blank), max_size=6))
    # a byte-order mark, or a stray one, in front of the first line
    head = draw(st.sampled_from([b"", BOM, BOM + BOM]))
    return head + b"".join(line + draw(st.sampled_from(_ENDS)) for line in lines)


class TestOnePassMatchesOracle:
    """The one-pass parser against the two-pass one it replaced."""

    @settings(max_examples=300)
    @given(_transaction_bytes(), st.sampled_from(list(LabelPolicy)), st.booleans())
    @example(b"r1,a,a\nr2,,b\nr3\n", LabelPolicy.RECORD_LABEL, False)
    @example(b"r1,a,a\nr2,,b\nr3\n", LabelPolicy.RECORD_LABEL, True)
    @example(b"s1, a ,b\r\ns2,a\n\ns1,b,c\n", LabelPolicy.RECORD_LABEL, True)
    @example(b"a,b\n", LabelPolicy.MEMBERS, True)
    # a member text seen before, under an empty label, under a
    # whitespace-only label, and between lines holding a label only
    @example(b"r1,a,b\n,a,b\nr3,a,b\n", LabelPolicy.RECORD_LABEL, False)
    @example(b"r1,a,b\n \t ,a,b\nr3 ,a,b\n", LabelPolicy.RECORD_LABEL, False)
    @example(b"r1,a\nr2\nr3,\nr1,a\na\n", LabelPolicy.RECORD_LABEL, False)
    @example(BOM + b"r1,a\n" + BOM + b"r2,a\n", LabelPolicy.RECORD_LABEL, True)
    # one record, not two, and the next lines keep their numbers
    @example(b"r1,a\xc2\x85b\nr2,,c\nr3,a,b\n", LabelPolicy.RECORD_LABEL, False)
    def test_same_dataset_or_error(self, data, policy, transpose):
        expected = _outcome(parse_oracle, data, policy, transpose)
        assert _outcome(parse_transactions, data, policy, transpose) == expected

    @pytest.mark.parametrize("transpose", [False, True])
    def test_synthetic_corpus(self, transpose):
        data = synthetic_plants_text(500, 11).encode()
        policy = LabelPolicy.RECORD_LABEL
        expected = _outcome(parse_oracle, data, policy, transpose)
        assert _outcome(parse_transactions, data, policy, transpose) == expected


class TestSharedEvents:
    """Lines that repeat a member text share one Event object, and no
    engine tells it apart from fresh equal Events."""

    def test_repeated_text_shares_one_event(self):
        dataset = _parse("r1,a,b\nr2,a,b\nr3, a,b\nr4,b,a\n,a,b\nr6,a,b\n")
        first, second, spaced, reversed_, last = dataset.events
        assert first is second is last
        assert spaced == first and spaced is not first
        assert reversed_.members == (1, 0)
        assert dataset.diagnostics == ("line 5: empty field",)

    @pytest.mark.parametrize("weights", [model.Weights(delta=1), model.Weights(0.1, 0.3, 1)])
    def test_engines_ignore_event_identity(self, weights):
        shared = _parse(synthetic_plants_text(400, 9))
        assert len(set(map(id, shared.events))) < len(shared.events)
        fresh = Dataset(shared.labels, tuple(Event(e.members) for e in shared.events))
        assert len(set(map(id, fresh.events))) == len(fresh.events)

        def results(dataset):
            n, events = dataset.n, dataset.events
            store = hierarchy.present_all(hierarchy.HierarchyStore(), events)
            presented = repr(store)
            hierarchy.consolidate(store)
            return (
                repr(grid.count_events(grid.CountMatrix.zeros(n), events, weights.omega_i)),
                repr(counting.present_all(counting.InstanceStore.empty(n), events, weights)),
                repr(reinforce.count_events(reinforce.ReinforceState.empty(n), events, weights)),
                presented,
                repr(store),
            )

        assert results(shared) == results(fresh)


class TestValidatedOnce:
    """A parsed line is checked once, at the boundary: the parser builds its
    Events and its Dataset without checking them again."""

    def test_parse_runs_no_second_check(self, monkeypatch):
        data = (synthetic_plants_text(200, 3) + "bad,,line\nlabel-only\nr,a,a\n").encode()
        policy = LabelPolicy.RECORD_LABEL
        expected = {t: _outcome(parse_oracle, data, policy, t) for t in (False, True)}

        def refused(*args, **kwargs):
            raise AssertionError("a parsed row was checked a second time")

        monkeypatch.setattr(model, "build_vocabulary", refused)
        monkeypatch.setattr(ingest, "build_vocabulary", refused)
        monkeypatch.setattr(model, "validate_event", refused)
        monkeypatch.setattr(Event, "__post_init__", refused)
        for transpose in (False, True):
            assert _outcome(parse_transactions, data, policy, transpose) == expected[transpose]

    def test_public_constructors_keep_their_checks(self):
        with pytest.raises(DataError, match="duplicate members"):
            Event((1, 1))
        with pytest.raises(DataError, match="outside vocabulary"):
            Dataset(("a",), (Event((0, 1)),))
        dataset = build_vocabulary([["a", "a"], [], ["b"]])
        assert dataset.diagnostics == (
            "event 0: duplicate token in ['a', 'a']",
            "event 1: no tokens",
        )


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
        assert dataset.labels == expected.labels
        assert dataset.events == expected.events

    def test_requires_record_labels(self):
        with pytest.raises(ConfigError):
            _parse("a,b\n", MEMBERS, transpose=True)


class TestReference:
    def test_universe_is_first_mention_order(self):
        ref = reference_from_clusters([("b", "a"), ("c",)])
        assert ref.labels == ("b", "a", "c")
        partition = ref.align(ref.labels)
        assert partition.clusters == (frozenset({0, 1}), frozenset({2}))
        assert partition.unassigned == frozenset()

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

    def test_load_reference_path_drops_byte_order_mark(self, tmp_path):
        path = tmp_path / "ref.json"
        path.write_bytes(BOM + b'{"clusters": [["a", "b"], ["c"]]}')
        assert load_reference_path(str(path)) == reference_from_clusters([("a", "b"), ("c",)])

    def test_load_reference_path_bad_shape(self, tmp_path):
        path = tmp_path / "ref.json"
        path.write_text('[["a"]]')
        with pytest.raises(DataError):
            load_reference_path(str(path))

    @pytest.mark.parametrize(
        "text",
        [
            '{"clusters": null}',
            '{"clusters": [["a", "b"], 5]}',
            '{"clusters": ["ab", "cd"]}',
            '{"clusters": "abcd"}',
            '{"clusters": [["a", 1]]}',
            "not json",
            '{"clusters": ' + "[" * 100_000 + "]" * 100_000 + "}",
        ],
        ids=[
            "null", "non-list-cluster", "string-clusters", "string", "non-string-label",
            "not-json", "nested-too-deep",
        ],
    )
    def test_load_reference_path_rejects_shape(self, tmp_path, text):
        path = tmp_path / "ref.json"
        path.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "):
            load_reference_path(str(path))

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"clusters": []}', "reference contains no clusters"),
            ('{"clusters": [["a"], []]}', "reference contains an empty cluster"),
            ('{"clusters": [["a", "b"], ["b"]]}', "label 'b' appears in two reference clusters"),
            ('{"clusters": [["A", "A"]]}', "label 'A' repeats within one reference cluster"),
        ],
        ids=["no-clusters", "empty-cluster", "repeated-label", "label-repeated-in-cluster"],
    )
    def test_load_reference_path_names_file_on_content_error(self, tmp_path, text, message):
        path = tmp_path / "ref.json"
        path.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_reference_path(str(path))


class TestFixtures:
    def test_listing(self):
        assert FIXTURES == ("seven_event", "plants_reference")

    def test_seven_event(self, seven):
        assert isinstance(seven, Dataset)
        assert seven.labels == ("A", "B", "C", "D", "E", "F", "G")
        assert len(seven.events) == 7
        assert [seven.labels[v] for v in seven.events[0].members] == ["A", "B", "C", "D", "E"]
        assert [seven.labels[e.members[0]] for e in seven.events] == list("ABCDEFG")

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
