"""The CLI end to end against a reference pipeline built from the oracles.

``cluster --method reinforce`` runs in process through ``cli.entry`` on
small generated files, in every format, and its exit code, stdout bytes and
stderr lines (all but the ``timing:`` line) must equal those of a pipeline
that parses with ``parse_oracle``, counts by folding the one-event
``update``, groups with ``sort_group_oracle`` and renders with the plain
writers below and ``json.dumps(indent=2)``.
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

from .oracles import parse_oracle, sort_group_oracle, update

BOM = "\ufeff"
# non-ASCII labels, one outside the BMP and one holding a space
_TOKENS = ["a", "b", "c", "é", "Ω", "日本", "𝄞", "x y"]
_BAD_LINES = ["r9", ",a", "r8,a,,b", "r7,b,b", " , "]


@st.composite
def _transaction_text(draw) -> str:
    members = st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=4, unique=True)
    labelled = st.tuples(st.sampled_from(["r1", "r2", "ü", "r3"]), members).map(
        lambda lm: ",".join([lm[0], *lm[1]])
    )
    blank = st.sampled_from(["", "  "])
    line = st.one_of(labelled, labelled, blank, st.sampled_from(_BAD_LINES))
    lines = draw(st.lists(line, max_size=10))
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


def _text(dataset, counts, bands, clusters, unassigned) -> str:
    labels = dataset.labels
    width = max(len(label) for label in labels)
    lines = ["method: reinforce", f"variables: {len(labels)}", f"events: {len(dataset.events)}"]
    lines.append("counts:")
    lines += [f"  {label.ljust(width)} {count}" for label, count in zip(labels, counts)]
    lines.append("bands:")
    lines += [f"  {value}: {','.join(members)}" for value, members in bands]
    rows = [f"  {','.join(cluster)}" for cluster in clusters]
    lines += ["clusters:", *rows] if rows else ["clusters: (none)"]
    lines.append(f"unassigned: {','.join(unassigned) or '(none)'}")
    lines.append("links: (none)")
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
