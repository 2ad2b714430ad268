"""The CLI end to end against a reference pipeline built from the oracles.

``cluster`` with each method runs in process through ``cli.entry`` on small
generated files, in every format, and its exit code, stdout bytes and
stderr lines (all but the ``timing:`` line) must equal those of a pipeline
that parses with ``parse_oracle`` and renders with the plain writers below,
``csv_line`` (``csv.writer``) and ``json.dumps(indent=2)``. For reinforce
it counts by folding the one-event ``update`` and groups with
``sort_group_oracle``; for the grid it counts into a ``DenseGrid`` one
event at a time, extracts with ``dense_extract_clusters`` and writes the
matrix with ``dense_matrix_text``, ``dense_matrix_csv`` and
``dense_matrix_json``; for cm it counts with ``cm_replay_oracle`` and
selects with ``lexmin_selection_oracle`` under the selection order that
``counting`` documents.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from patterngrid.cli import entry
from patterngrid.ingest import LabelPolicy
from patterngrid.model import ConfigError, DataError, Weights
from patterngrid.reinforce import ReinforceState

from .oracles import (
    DenseGrid,
    cm_replay_oracle,
    csv_line,
    dense_count_events,
    dense_extract_clusters,
    dense_matrix_csv,
    dense_matrix_json,
    dense_matrix_text,
    lexmin_selection_oracle,
    parse_oracle,
    sort_group_oracle,
    update,
)

BOM = "\ufeff"
# non-ASCII labels, one outside the BMP and one holding a space
_TOKENS = ["a", "b", "c", "é", "Ω", "日本", "𝄞", "x y"]
_RECORDS = ["r1", "r2", "ü", "r3"]
# labels CSV quotes: a field holding '"' or ';' (a cm pattern's separator)
_QUOTED_TOKENS = ["a", "b", "c", '"q"', "x;y", 'é"f;g', "Ω"]
_QUOTED_RECORDS = ["r1", '"r2"', "r;3", "ü"]
_BAD_LINES = ["r9", ",a", "r8,a,,b", "r7,b,b", " , "]


@st.composite
def _transaction_text(draw, tokens=_TOKENS, records=_RECORDS, max_lines=10) -> str:
    members = st.lists(st.sampled_from(tokens), min_size=1, max_size=4, unique=True)
    labelled = st.tuples(st.sampled_from(records), members).map(
        lambda lm: ",".join([lm[0], *lm[1]])
    )
    blank = st.sampled_from(["", "  "])
    line = st.one_of(labelled, labelled, blank, st.sampled_from(_BAD_LINES))
    lines = draw(st.lists(line, max_size=max_lines))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    head = draw(st.sampled_from(["", BOM]))
    return head + "".join(line + draw(ends) for line in lines)


_weight = st.sampled_from([1, 2, 3, 0.25, 0.5, 1.5, 0.1])
_delta = st.one_of(st.sampled_from([0, 0.0]), _weight)


def _cli(argv: list[str]) -> tuple[int, str, list[str]]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = entry(argv)
    lines = [line for line in err.getvalue().splitlines() if not line.startswith("timing:")]
    return code, out.getvalue(), lines


def _listed(title: str, rows: list[str]) -> list[str]:
    return [f"{title}:", *(f"  {row}" for row in rows)] if rows else [f"{title}: (none)"]


def _text(dataset, counts, bands, clusters, unassigned) -> str:
    labels = dataset.labels
    width = max(len(label) for label in labels)
    lines = ["method: reinforce", f"variables: {len(labels)}", f"events: {len(dataset.events)}"]
    lines.append("counts:")
    lines += [f"  {label.ljust(width)} {count}" for label, count in zip(labels, counts)]
    lines.append("bands:")
    lines += [f"  {value}: {','.join(members)}" for value, members in bands]
    lines += _listed("clusters", [",".join(cluster) for cluster in clusters])
    lines.append(f"unassigned: {','.join(unassigned) or '(none)'}")
    lines += _listed("links", [])
    return "\n".join(lines) + "\n"


def _csv(dataset, counts, clusters) -> str:
    labels = dataset.labels
    cluster_of = {label: str(ci) for ci, cluster in enumerate(clusters) for label in cluster}
    lines = ["variable,count", *(f"{label},{count}" for label, count in zip(labels, counts))]
    lines += ["", "variable,cluster", *(f"{label},{cluster_of.get(label, '')}" for label in labels)]
    return "\n".join(lines) + "\n"


def _reference(data: bytes, path: str, policy, transpose, omega_i, delta, fmt):
    """The exit code, stdout and stderr lines the CLI should give."""
    try:
        dataset = parse_oracle(io.BytesIO(data), policy, transpose=transpose)
    except ConfigError as exc:
        return 2, "", [f"config error: {exc}"]
    except DataError as exc:
        return 1, "", [f"input error: {exc}"]
    diagnostics = dataset.diagnostics
    err = [f"diagnostics: {len(diagnostics)} lines skipped", *(f"  {d}" for d in diagnostics)]
    state = ReinforceState.empty(dataset.n)
    for event in dataset.events:
        update(state, event, Weights(omega_i, 1, delta))
    labels, counts = dataset.labels, state.counts
    bands = [(value, sorted(labels[v] for v in ids)) for value, ids in sort_group_oracle(counts)]
    clusters = [members for _, members in bands if len(members) >= 2]
    unassigned = sorted(label for _, members in bands if len(members) == 1 for label in members)
    if fmt == "text":
        out = _text(dataset, counts, bands, clusters, unassigned)
    elif fmt == "csv":
        out = _csv(dataset, counts, clusters)
    else:
        payload = {
            "method": "reinforce",
            "parameters": {
                "source": path,
                "label_policy": policy.value,
                "transpose": transpose,
                "omega_i": omega_i,
                "omega_g": 1,
                "delta": delta,
                "tau_link": 2,
                "gap_ties": "high",
                "singletons": "unassigned",
            },
            "clusters": clusters,
            "unassigned": unassigned,
            "links": [],
            "detail": {
                "counts": dict(zip(labels, counts)),
                "bands": [{"count": value, "members": members} for value, members in bands],
            },
        }
        out = json.dumps(payload, indent=2) + "\n"
    return 0, out, err if diagnostics else []


@settings(max_examples=80, deadline=None)
@given(_transaction_text(), st.sampled_from(list(LabelPolicy)), st.booleans(), _weight, _delta)
# a BOM, "\r" and "\r\n" ends, a blank and a bad line, non-ASCII labels
@example(BOM + "r1,a,é\r\n\r\nr2,é,𝄞\rr7,b,b\nr3,a\n", LabelPolicy.RECORD_LABEL, False, 1, 1)
# float decay from int counts, pivoted
@example("r1,a,b\nr2,b\nr3,a,c\nr2,c\n", LabelPolicy.RECORD_LABEL, True, 1, 0.5)
# only bad lines, and a pivot the members policy refuses
@example("r9\n,a\n", LabelPolicy.RECORD_LABEL, False, 1, 0)
@example("a,b\n", LabelPolicy.MEMBERS, True, 1, 0)
def test_cluster_reinforce_matches_reference_pipeline(text, policy, transpose, omega_i, delta):
    data = text.encode()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.data"
        path.write_bytes(data)
        for fmt in ("text", "csv", "json"):
            argv = [
                "cluster", "--method", "reinforce", "--input", str(path),
                "--label-policy", policy.value, "--omega-i", repr(omega_i), "--delta", repr(delta),
                "--format", fmt,
            ]
            if transpose:
                argv.append("--transpose")
            expected = _reference(data, str(path), policy, transpose, omega_i, delta, fmt)
            assert _cli(argv) == expected, fmt


def _grid_reference(data: bytes, path: str, policy, transpose, omega_i, tau, ties, singletons, fmt):
    """The exit code, stdout and stderr lines ``cluster --method grid`` should give."""
    try:
        dataset = parse_oracle(io.BytesIO(data), policy, transpose=transpose)
    except ConfigError as exc:
        return 2, "", [f"config error: {exc}"]
    except DataError as exc:
        return 1, "", [f"input error: {exc}"]
    diagnostics = dataset.diagnostics
    err = [f"diagnostics: {len(diagnostics)} lines skipped", *(f"  {d}" for d in diagnostics)]
    err = err if diagnostics else []
    dense = dense_count_events(DenseGrid.zeros(dataset.n), dataset.events, omega_i)
    try:
        found = dense_extract_clusters(dense, tau, ties=ties)
    except ConfigError as exc:
        return 2, "", [*err, f"config error: {exc}"]
    labels = dataset.labels
    groups = [sorted(cluster) for cluster in found.partition.clusters]
    unassigned = sorted(found.partition.unassigned)
    if singletons == "clusters":
        groups += [[v] for v in unassigned]
        unassigned = []
    clusters = [sorted(labels[v] for v in group) for group in groups]
    unassigned_labels = sorted(labels[v] for v in unassigned)
    links = [(labels[l.a], labels[l.b], l.strength) for l in found.links]
    if fmt == "text":
        lines = ["method: grid", f"variables: {dataset.n}", f"events: {len(dataset.events)}"]
        lines += dense_matrix_text(dense, labels).splitlines()
        lines += _listed("clusters", [",".join(c) for c in clusters])
        lines.append(f"unassigned: {','.join(unassigned_labels) or '(none)'}")
        lines += _listed("links", [f"{a}-{b} strength {s}" for a, b, s in links])
        out = "\n".join(lines) + "\n"
    elif fmt == "csv":
        cluster_of = {v: str(ci) for ci, group in enumerate(groups) for v in group}
        lines = ["", "variable,cluster"]
        lines += [csv_line([label, cluster_of.get(v, "")]) for v, label in enumerate(labels)]
        lines += ["", "a,b,strength", *map(csv_line, links)]
        out = dense_matrix_csv(dense, labels) + "\n".join(lines) + "\n"
    else:
        payload = {
            "method": "grid",
            "parameters": {
                "source": path,
                "label_policy": policy.value,
                "transpose": transpose,
                "omega_i": omega_i,
                "omega_g": 1,
                "delta": 0,
                "tau_link": tau,
                "gap_ties": ties,
                "singletons": singletons,
            },
            "clusters": clusters,
            "unassigned": unassigned_labels,
            "links": [{"a": a, "b": b, "strength": s} for a, b, s in links],
            "detail": {"matrix": dense_matrix_json(dense, labels)},
        }
        out = json.dumps(payload, indent=2) + "\n"
    return 0, out, err


@settings(max_examples=60, deadline=None)
@given(
    _transaction_text(_QUOTED_TOKENS, _QUOTED_RECORDS, max_lines=14),
    st.sampled_from(list(LabelPolicy)),
    st.booleans(),
    _weight,
    st.sampled_from([1, 2, 3, 1.5, 2.5]),
    st.sampled_from(["high", "low"]),
    st.sampled_from(["unassigned", "clusters"]),
)
# two clusters and a link between them, every label quoted in CSV
@example(
    '"a;b,c,d\n"a;b,c,d\n"a;b,c,d\nx;y,"q",z\nx;y,"q",z\nx;y,"q",z\n"a;b,x;y\n"a;b,x;y\nc,"q"\n',
    LabelPolicy.MEMBERS, False, 1, 2, "high", "unassigned",
)
# float cells pivoted, int zeros beside them; a link at a float threshold
@example(
    'r1,a,"q"\n"r2",a,"q",x;y\nr;3,x;y,b\nü,b,a\nr1,b\n', LabelPolicy.RECORD_LABEL, True, 0.1, 1.5,
    "low", "clusters",
)
# a threshold below 1 is refused after the skipped lines are reported
@example("r1,a,b\nr7,b,b\n", LabelPolicy.RECORD_LABEL, False, 1, 0.5, "high", "unassigned")
# only bad lines, and a pivot the members policy refuses
@example("r9\n,a\n", LabelPolicy.RECORD_LABEL, False, 1, 2, "high", "unassigned")
@example("a,b\n", LabelPolicy.MEMBERS, True, 1, 2, "high", "unassigned")
def test_cluster_grid_matches_reference_pipeline(
    text, policy, transpose, omega_i, tau, ties, singletons
):
    data = text.encode()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.data"
        path.write_bytes(data)
        for fmt in ("text", "csv", "json"):
            argv = [
                "cluster", "--method", "grid", "--input", str(path),
                "--label-policy", policy.value, "--omega-i", repr(omega_i),
                "--tau-link", repr(tau), "--gap-ties", ties, "--singletons", singletons,
                "--format", fmt,
            ]
            if transpose:
                argv.append("--transpose")
            expected = _grid_reference(
                data, str(path), policy, transpose, omega_i, tau, ties, singletons, fmt
            )
            assert _cli(argv) == expected, fmt


def _cm_reference(data: bytes, path: str, policy, transpose, omega_i, omega_g, singletons, fmt):
    """The exit code, stdout and stderr lines ``cluster --method cm`` should give."""
    try:
        dataset = parse_oracle(io.BytesIO(data), policy, transpose=transpose)
    except ConfigError as exc:
        return 2, "", [f"config error: {exc}"]
    except DataError as exc:
        return 1, "", [f"input error: {exc}"]
    diagnostics = dataset.diagnostics
    err = [f"diagnostics: {len(diagnostics)} lines skipped", *(f"  {d}" for d in diagnostics)]
    err = err if diagnostics else []
    labels = dataset.labels
    # (I, G) per distinct member set, keyed by its ascending id tuple, in
    # the order the sets first appear
    counts = cm_replay_oracle(dataset.events, omega_i, omega_g)

    def key(pattern: frozenset[int]):
        # best coherence (G - I, lowest first), then larger I, then the
        # smaller pattern, then the ascending id tuple
        ids = tuple(sorted(pattern))
        local, global_ = counts[ids]
        return (global_ - local, -local, len(ids), ids)

    groups = [sorted(p) for p in lexmin_selection_oracle(list(map(frozenset, counts)), key)]
    taken = {v for group in groups for v in group}
    unassigned = [v for v in range(dataset.n) if v not in taken]
    if singletons == "clusters":
        groups += [[v] for v in unassigned]
        unassigned = []
    clusters = [sorted(labels[v] for v in group) for group in groups]
    unassigned_labels = sorted(labels[v] for v in unassigned)
    instances = [
        (sorted(labels[v] for v in ids), local, global_, global_ - local)
        for ids, (local, global_) in counts.items()
    ]
    if fmt == "text":
        names = [",".join(pattern) for pattern, *_ in instances]
        width = max(map(len, names), default=0)
        rows = [
            f"{name.ljust(width)}  I={local}  G={global_}  coherence={coherence}"
            for name, (_, local, global_, coherence) in zip(names, instances)
        ]
        lines = ["method: cm", f"variables: {dataset.n}", f"events: {len(dataset.events)}"]
        lines += _listed("instances", rows)
        lines += _listed("clusters", [",".join(c) for c in clusters])
        lines.append(f"unassigned: {','.join(unassigned_labels) or '(none)'}")
        lines += _listed("links", [])
        out = "\n".join(lines) + "\n"
    elif fmt == "csv":
        # a pattern is one field: its members as a ';' record of their own
        lines = ["pattern,local,global,coherence"]
        lines += [csv_line([csv_line(pattern, ";"), *numbers]) for pattern, *numbers in instances]
        cluster_of = {v: str(ci) for ci, group in enumerate(groups) for v in group}
        lines += ["", "variable,cluster"]
        lines += [csv_line([label, cluster_of.get(v, "")]) for v, label in enumerate(labels)]
        out = "\n".join(lines) + "\n"
    else:
        payload = {
            "method": "cm",
            "parameters": {
                "source": path,
                "label_policy": policy.value,
                "transpose": transpose,
                "omega_i": omega_i,
                "omega_g": omega_g,
                "delta": 0,
                "tau_link": 2,
                "gap_ties": "high",
                "singletons": singletons,
            },
            "clusters": clusters,
            "unassigned": unassigned_labels,
            "links": [],
            "detail": {
                "instances": [
                    {"pattern": pattern, "local": local, "global": global_, "coherence": coherence}
                    for pattern, local, global_, coherence in instances
                ]
            },
        }
        out = json.dumps(payload, indent=2) + "\n"
    return 0, out, err


@settings(max_examples=60, deadline=None)
@given(
    _transaction_text(_QUOTED_TOKENS, _QUOTED_RECORDS),
    st.sampled_from(list(LabelPolicy)),
    st.booleans(),
    _weight,
    _weight,
    st.sampled_from(["unassigned", "clusters"]),
)
# patterns whose fields CSV quotes, a tie on coherence broken by the larger I
@example(
    '"a;b,c,d\n"a;b,c,d\n"a;b,c,d\nx;y,"q",z\nx;y,"q",z\nx;y,"q",z\n"a;b,x;y\n"a;b,x;y\nc,"q"\n',
    LabelPolicy.MEMBERS, False, 1, 1, "unassigned",
)
# float counts pivoted, G below I where omega_g < omega_i
@example(
    'r1,a,"q"\n"r2",a,"q",x;y\nr;3,x;y,b\nü,b,a\nr1,b\n', LabelPolicy.RECORD_LABEL, True,
    1.5, 0.1, "clusters",
)
# one-member patterns, one of them a label holding both '"' and ';', and a skipped line
@example("r1,b\nr2,a,b\nr7,b,b\nr1,é\"f;g\n", LabelPolicy.RECORD_LABEL, False, 0.25, 3, "unassigned")
# only bad lines, and a pivot the members policy refuses
@example("r9\n,a\n", LabelPolicy.RECORD_LABEL, False, 1, 1, "unassigned")
@example("a,b\n", LabelPolicy.MEMBERS, True, 1, 1, "unassigned")
def test_cluster_cm_matches_reference_pipeline(
    text, policy, transpose, omega_i, omega_g, singletons
):
    data = text.encode()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.data"
        path.write_bytes(data)
        for fmt in ("text", "csv", "json"):
            argv = [
                "cluster", "--method", "cm", "--input", str(path),
                "--label-policy", policy.value, "--omega-i", repr(omega_i),
                "--omega-g", repr(omega_g), "--singletons", singletons, "--format", fmt,
            ]
            if transpose:
                argv.append("--transpose")
            expected = _cm_reference(
                data, str(path), policy, transpose, omega_i, omega_g, singletons, fmt
            )
            assert _cli(argv) == expected, fmt
