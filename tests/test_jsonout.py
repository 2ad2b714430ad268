"""Each streamed JSON section, spliced into its payload, is the text
``json.dumps(payload, indent=2)`` gives for the dict the oracles build;
and a record list reaches ``write`` in blocks."""

import io
import json
from functools import partial
from operator import mul

from hypothesis import example, given
from hypothesis import strategies as st

from patterngrid import cli, hierarchy, jsonout
from patterngrid.counting import InstanceRecord, InstanceStore
from patterngrid.evaluate import AgreementReport, MatchRow, best_matches_json
from patterngrid.hierarchy import HierarchyStore, PatternNode
from patterngrid.model import InterPatternLink

from .oracles import best_matches_oracle, instances_json_oracle, tree_json

# labels json must escape (quotes, backslashes, control characters) and
# non-ASCII ones, whose quoted text sorts unlike the label itself
LABELS = st.lists(
    st.text(st.sampled_from('ab"\\\x01\x1fé☃𝄞/ z'), max_size=3),
    min_size=1, max_size=8, unique=True,
)
COUNTS = st.one_of(st.integers(0, 10**6), st.floats(-1e6, 1e20, allow_nan=False))
# sorted by the raw label, "é" would come before "z"; quoted, after it
ESCAPED = ["z", "é", 'a"', "b\\", "\x01", "𝄞"]


def _written(payload: dict, fills) -> str:
    out = io.StringIO()
    jsonout.write_payload(payload, fills, out.write)
    return out.getvalue()


def _ids(labels):
    return st.frozensets(st.integers(0, len(labels) - 1), max_size=len(labels))


@st.composite
def _stores(draw):
    labels = draw(LABELS)
    store = InstanceStore(len(labels))
    for pattern in draw(st.lists(_ids(labels), max_size=6)):
        record = InstanceRecord(tuple(sorted(pattern)), draw(COUNTS), draw(COUNTS), 0)
        store.records.append(record)
    return labels, store


@given(_stores())
@example((ESCAPED, InstanceStore(6, [InstanceRecord(tuple(range(6)), 1, 2.5, 0)])))
@example((ESCAPED, InstanceStore(6)))
def test_instances(case):
    labels, store = case
    expected = {"method": "cm", "detail": {"instances": instances_json_oracle(store, labels)}}
    fills = [("instances", partial(cli._instances_json, store, labels))]
    text = _written({"method": "cm", "detail": {"instances": None}}, fills)
    assert text == json.dumps(expected, indent=2) + "\n"


@st.composite
def _forests(draw):
    labels = draw(LABELS)
    ids = _ids(labels)

    def node(depth, adds=frozenset()):
        parts = draw(st.dictionaries(ids.map(sorted).map(tuple), st.integers(1, 9), max_size=3))
        children = draw(st.lists(ids, max_size=0 if depth > 3 else 3))
        extensions = [node(depth + 1, adds) for adds in children]
        return PatternNode(draw(ids), draw(st.integers(0, 9)), extensions, parts, adds)

    roots = [node(0) for _ in range(draw(st.integers(0, 3)))]
    return labels, HierarchyStore(roots=roots, presentations=draw(st.integers(0, 99)))


@given(_forests())
@example((["A"], HierarchyStore()))
def test_hierarchy_forest(case):
    labels, store = case
    expected = {"method": "hierarchy", "mass": 0, **tree_json(store, labels)}
    fills = [("roots", partial(hierarchy.tree_json, store, labels))]
    payload = {
        "method": "hierarchy", "mass": 0, "roots": None, "presentations": store.presentations,
    }
    assert _written(payload, fills) == json.dumps(expected, indent=2) + "\n"


@st.composite
def _reports(draw):
    labels = draw(LABELS)
    ids = _ids(labels)
    rows = draw(st.lists(st.builds(MatchRow, ids, ids, st.integers(0, 9)), max_size=4))
    return labels, AgreementReport(0, 0, 0, 1.0, 1.0, 1.0, 1.0, 0, tuple(rows))


@given(st.lists(_reports(), min_size=1, max_size=3))
def test_best_matches(cases):
    # one slot per method, all under the same key, filled in turn
    names = [f"m{i}" for i in range(len(cases))]
    expected = {
        m: {"f1": 1.0, "best_matches": best_matches_oracle(r, l)} for m, (l, r) in zip(names, cases)
    }
    payload = {m: {"f1": 1.0, "best_matches": None} for m in names}
    fills = [("best_matches", partial(best_matches_json, r, l)) for l, r in cases]
    text = _written({"reports": payload}, fills)
    assert text == json.dumps({"reports": expected}, indent=2) + "\n"


@st.composite
def _links(draw):
    labels = draw(LABELS.filter(lambda labels: len(labels) > 1))
    ends = st.integers(0, len(labels) - 1)
    strength = st.one_of(st.integers(1, 10**6), st.floats(1e-3, 1e20))
    pair = st.tuples(ends, ends, strength).filter(lambda t: t[0] != t[1])
    pairs = draw(st.lists(pair, max_size=5))
    return labels, [InterPatternLink(*pair) for pair in pairs]


@given(_links())
def test_links(case):
    labels, links = case
    rows = [{"a": labels[l.a], "b": labels[l.b], "strength": l.strength} for l in links]
    fills = [("links", partial(cli._links_json, links, labels))]
    text = _written({"method": "grid", "links": None, "detail": {}}, fills)
    assert text == json.dumps({"method": "grid", "links": rows, "detail": {}}, indent=2) + "\n"


# values long enough that a few fill a block, built by repetition so that
# drawing them stays cheap
_VALUES = st.lists(
    st.builds(mul, st.sampled_from(["0", '"ab"', "{}"]), st.integers(0, jsonout.BLOCK // 4)),
    max_size=12,
)


@given(_VALUES, st.integers(0, 4))
@example(["0"] * 10_000, 1)
@example(["0" * (jsonout.BLOCK - 4)], 0)  # fills the block exactly: the close goes alone
@example([], 2)
def test_write_list_writes_blocks(values, depth):
    pieces = []
    jsonout.write_list(iter(values), depth, pieces.append)
    assert "".join(pieces) == jsonout.array(values, depth)
    # only the last piece, which closes the list, may fall short of a block
    assert all(len(piece) >= jsonout.BLOCK for piece in pieces[:-1])
    separator = len("," + jsonout.pad(depth + 1))
    longest = max(map(len, values), default=0)
    assert max(map(len, pieces)) <= jsonout.BLOCK + longest + separator
