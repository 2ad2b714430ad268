import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import patterngrid
from patterngrid import cli, grid, hierarchy, jsonout
from patterngrid.cli import entry
from patterngrid.ingest import LabelPolicy, parse_transactions_path
from patterngrid.synth import synthetic_plants_text

from . import golden_cases
from .golden_cases import GOLDEN
from .oracles import tree_json

# each golden file's argv, by the file's name
GOLDEN_ARGV = dict(golden_cases.CASES)

SCHEMA = json.loads(
    resources.files("patterngrid.data").joinpath("result_schema.json").read_text()
)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = entry(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv: str) -> dict:
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return payload


# seven_event's lines with most labels renamed to ones json escapes
_ESCAPED = str.maketrans({"A": 'A"', "B": "B\\", "C": "Cé", "D": "D\x01", "E": "E𝄞", "G": "G☃"})
SEVEN_ESCAPED = [
    line.translate(_ESCAPED)
    for line in (resources.files("patterngrid.data") / "seven_event.txt").read_text().splitlines()
]


def _plants_with_bad_lines() -> tuple[bytes, bytes, list[str]]:
    good = synthetic_plants_text(60, 2).splitlines()
    bad = {3: "r,al,al", 10: ",al,ak", 11: "  ,al,ak", 25: "label-only", 40: "r,,ak"}
    lines = list(good)
    for lineno in sorted(bad):
        lines.insert(lineno - 1, bad[lineno])
    reported = [
        "  line 3: duplicate member",
        "  line 10: empty field",
        "  line 11: empty field",
        "  line 25: no members",
        "  line 40: empty field",
    ]
    return ("\n".join(good) + "\n").encode(), ("\n".join(lines) + "\n").encode(), reported


_LINE_ENDS = golden_cases.INPUTS["line_ends.data"]
# each corpus without and with its bad lines, and the diagnostics those give
SKIPPED_LINES = {
    "plants": _plants_with_bad_lines(),
    # line 5 among a BOM, "\r\n" and "\r" line ends, U+2028 and an invalid byte
    "line-ends": (_LINE_ENDS.replace(b"bad,,line\n", b""), _LINE_ENDS, ["  line 5: empty field"]),
}


@pytest.fixture()
def small_corpus(tmp_path):
    path = tmp_path / "small.data"
    path.write_text(synthetic_plants_text(300, 5))
    return str(path)


class TestGolden:
    @pytest.mark.parametrize(("name", "argv"), golden_cases.CASES, ids=[n for n, _ in golden_cases.CASES])
    def test_golden_file(self, capsys, monkeypatch, tmp_path, name, argv):
        monkeypatch.chdir(tmp_path)
        golden_cases.write_inputs(argv, tmp_path)
        code, out, _ = run(capsys, *argv)
        assert (code, out.encode()) == (0, (GOLDEN / name).read_bytes())

    def test_manifest_covers_every_golden_file_and_ci_runs_it(self):
        # tests/golden/ holds only golden files, each with one manifest case
        assert sorted(name for name, _ in golden_cases.CASES) == sorted(p.name for p in GOLDEN.iterdir())
        workflow = (Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml").read_text()
        assert 'python "$GITHUB_WORKSPACE/tests/golden_cases.py" patterngrid\n' in workflow
        # in every tier-1 matrix job, with standard output buffered and unbuffered
        assert workflow.count('python tests/golden_cases.py "python -m patterngrid"\n') == 2
        assert "tests/golden/" not in workflow

    @pytest.mark.parametrize(
        "argv",
        [("cluster", "--method", "cm"), ("compare", "--reference", "ref.json"), ("hierarchy",)],
        ids=["cluster", "compare", "hierarchy"],
    )
    @pytest.mark.parametrize("flag", [(), ("--label-policy", "record-label")])
    def test_fixture_reports_the_members_policy(self, capsys, monkeypatch, tmp_path, argv, flag):
        # a fixture is parsed with the members policy, whatever the flag says
        monkeypatch.chdir(tmp_path)
        Path("ref.json").write_text('{"clusters": [["A", "B"]]}')
        payload = run_json(capsys, *argv, "--fixture", "seven_event", *flag, "--format", "json")
        assert payload["parameters"]["label_policy"] == "members"


class TestRenderOnce:
    """Each engine result is rendered only in the format asked for."""

    # each format's engine renderers: reinforce's, cm's and the grid's
    RENDERERS = {
        "text": ((cli, "_reinforce_text"), (cli, "_instances_text"), (grid, "matrix_text")),
        "json": ((cli, "_reinforce_json"), (cli, "_instances_json"), (grid, "matrix_json")),
        "csv": ((cli, "_counts_csv"), (cli, "_instances_csv"), (grid, "matrix_csv")),
    }

    @classmethod
    def refuse(cls, monkeypatch, *formats):
        def refused(*args, **kwargs):
            raise AssertionError("renderer called for a format nobody asked for")

        for fmt in formats:
            for module, name in cls.RENDERERS[fmt]:
                monkeypatch.setattr(module, name, refused)

    def check_cluster(self, capsys, monkeypatch, method, fmt):
        self.refuse(monkeypatch, *(other for other in self.RENDERERS if other != fmt))
        name = f"cluster_{method}.{'txt' if fmt == 'text' else fmt}"
        assert run(capsys, *GOLDEN_ARGV[name])[:2] == (0, (GOLDEN / name).read_text())

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("method", ["grid", "reinforce", "cm"])
    def test_cluster_renders_no_text(self, capsys, monkeypatch, method, fmt):
        # and no CSV renderer for json, nor a JSON one for csv
        self.check_cluster(capsys, monkeypatch, method, fmt)

    @pytest.mark.parametrize("method", ["grid", "reinforce", "cm"])
    def test_cluster_text_renders_no_json_or_csv(self, capsys, monkeypatch, method):
        self.check_cluster(capsys, monkeypatch, method, "text")

    def test_tables_renders_no_json_or_csv(self, capsys, monkeypatch):
        self.refuse(monkeypatch, "json", "csv")
        assert run(capsys, *GOLDEN_ARGV["tables.txt"])[:2] == (0, (GOLDEN / "tables.txt").read_text())

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_compare_renders_no_engine_result(self, capsys, monkeypatch, small_corpus, fmt):
        argv = (
            "compare", "--input", small_corpus, "--method", "reinforce,cm,grid",
            "--reference", "plants_reference", "--format", fmt,
        )
        expected = run(capsys, *argv)[:2]
        self.refuse(monkeypatch, *self.RENDERERS)
        assert run(capsys, *argv)[:2] == expected
        assert expected[0] == 0


class TestJson:
    def test_grid(self, capsys):
        payload = run_json(capsys, *GOLDEN_ARGV["cluster_grid.json"])
        assert payload["method"] == "grid"
        assert payload["clusters"] == [["A", "B", "C", "D"], ["E", "F", "G"]]
        assert payload["unassigned"] == []
        assert payload["links"] == [{"a": "A", "b": "E", "strength": 2}]
        assert payload["detail"]["matrix"]["cells"][0][1] == 4
        assert payload["parameters"]["source"] == "seven_event"
        assert "timing_ms" not in payload

    # member names json must escape: quotes, backslashes, a control
    # character, non-ASCII and a character outside the BMP
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.text('ab"\\é☃\x01𝄞/ ', min_size=1, max_size=3).map(str.strip).filter(bool),
                min_size=1, max_size=4, unique=True,
            ),
            min_size=1, max_size=12,
        ),
        st.sampled_from(["1", "3", "0.1", "2.5", "1e-3"]),
        st.sampled_from(["1", "2", "1.5"]),
    )
    # the seven-event fixture under such names: one link, int and float
    @example([line.split(",") for line in SEVEN_ESCAPED], "1", "2")
    @example([line.split(",") for line in SEVEN_ESCAPED], "2.5", "1")
    def test_grid_output_is_what_json_dumps_gives(self, lines, omega_i, tau_link):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "members.data"
            path.write_text("".join(",".join(line) + "\n" for line in lines), encoding="utf-8")
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = entry([
                    "cluster", "--method", "grid", "--input", str(path),
                    "--label-policy", "members", "--omega-i", omega_i, "--tau-link", tau_link,
                    "--format", "json",
                ])
        assert code == 0
        text = out.getvalue()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_reinforce(self, capsys):
        payload = run_json(capsys, *GOLDEN_ARGV["cluster_reinforce.json"])
        assert payload["clusters"] == [["B", "C", "D", "E"], ["F", "G"]]
        assert payload["unassigned"] == ["A"]
        assert payload["detail"]["counts"] == {"A": 5, "B": 4, "C": 4, "D": 4, "E": 4, "F": 3, "G": 3}
        assert payload["detail"]["bands"][0] == {"count": 5, "members": ["A"]}

    def test_cm(self, capsys):
        payload = run_json(capsys, *GOLDEN_ARGV["cluster_cm.json"])
        assert payload["clusters"] == [["E", "F", "G"], ["A", "B", "C", "D"]]
        assert payload["detail"]["instances"][0] == {
            "pattern": ["A", "B", "C", "D", "E"],
            "local": 1,
            "global": 7,
            "coherence": 6,
        }

    def test_timing_flag_embeds_numbers(self, capsys):
        with_timing = run_json(
            capsys,
            "cluster", "--method", "grid", "--fixture", "seven_event",
            "--format", "json", "--timing",
        )
        assert set(with_timing["timing_ms"]) == {"parse", "count", "extract"}

    def test_compare_rejects_foreign_vocabulary(self, capsys):
        # seven_event labels are not plant codes; alignment must fail loudly
        code, _, err = run(
            capsys,
            "compare", "--fixture", "seven_event",
            "--reference", "plants_reference", "--format", "json",
        )
        assert code == 1
        assert "input error" in err

    def test_hierarchy(self, capsys):
        payload = run_json(
            capsys, "hierarchy", "--fixture", "seven_event", "--format", "json", "--timing"
        )
        assert payload["method"] == "hierarchy"
        assert payload["mass"] == 7
        assert payload["presentations"] == 7
        assert payload["roots"][0]["pattern"] == ["A", "B", "C", "D"]
        assert payload["roots"][0]["occurrences"] == 3
        assert set(payload["timing_ms"]) == {"parse", "present", "consolidate"}
        assert payload["parameters"]["theta_merge"] == 2.0


class TestSingletons:
    def test_promoted_to_clusters(self, capsys):
        payload = run_json(
            capsys,
            "cluster", "--method", "reinforce", "--fixture", "seven_event",
            "--format", "json", "--singletons", "clusters",
        )
        assert payload["clusters"] == [["B", "C", "D", "E"], ["F", "G"], ["A"]]
        assert payload["unassigned"] == []


def _csv_sections(payload: dict, labels) -> list[list[list[str]]]:
    """The rows a CSV reader should give back for a cluster payload, built
    from its JSON; a cm pattern's field is read back as a ';' record."""
    detail = payload["detail"]
    if payload["method"] == "reinforce":
        first = [["variable", "count"], *([l, str(c)] for l, c in detail["counts"].items())]
    elif payload["method"] == "cm":
        first = [["pattern", "local", "global", "coherence"]]
        for r in detail["instances"]:
            first.append([r["pattern"], str(r["local"]), str(r["global"]), str(r["coherence"])])
    else:
        matrix = detail["matrix"]
        first = [["", *matrix["labels"]]]
        for i, (label, cells) in enumerate(zip(matrix["labels"], matrix["cells"])):
            first.append([label, *("x" if i == j else str(c) for j, c in enumerate(cells))])
    cluster_of = {l: str(ci) for ci, cluster in enumerate(payload["clusters"]) for l in cluster}
    sections = [first, [["variable", "cluster"], *([l, cluster_of.get(l, "")] for l in labels)]]
    if payload["method"] == "grid":
        links = ([k["a"], k["b"], str(k["strength"])] for k in payload["links"])
        sections.append([["a", "b", "strength"], *links])
    return sections


@st.composite
def _quoting_lines(draw):
    """Input lines whose members hold '"' and ';'."""
    names = draw(st.lists(st.text('ab";', min_size=1, max_size=4), min_size=2, max_size=6, unique=True))
    members = st.lists(st.sampled_from(names), min_size=1, unique=True)
    return draw(st.lists(members, min_size=1, max_size=8))


def _read_patterns(sections):
    """The cm section with each pattern field read as a ';' record."""
    head, *rows = sections[0]
    return [head, *([next(csv.reader([row[0]], delimiter=";")), *row[1:]] for row in rows)]


class TestCsv:
    def test_grid_sections(self, capsys):
        code, out, _ = run(capsys, *GOLDEN_ARGV["cluster_grid.csv"])
        assert code == 0
        matrix, assignment, links = out.rstrip("\n").split("\n\n")
        assert matrix.splitlines()[0] == ",A,B,C,D,E,F,G"
        assert matrix.splitlines()[1] == "A,x,4,4,4,2,1,1"
        assert assignment.splitlines()[0] == "variable,cluster"
        assert "A,0" in assignment.splitlines()
        assert links.splitlines() == ["a,b,strength", "A,E,2"]

    def test_reinforce_sections(self, capsys):
        code, out, _ = run(capsys, *GOLDEN_ARGV["cluster_reinforce.csv"])
        counts, assignment = out.rstrip("\n").split("\n\n")
        assert counts.splitlines()[:2] == ["variable,count", "A,5"]
        # A is unassigned so its cluster column is empty
        assert "A," in assignment.splitlines()

    def test_cm_sections(self, capsys):
        code, out, _ = run(capsys, *GOLDEN_ARGV["cluster_cm.csv"])
        instances, assignment = out.rstrip("\n").split("\n\n")
        assert instances.splitlines()[0] == "pattern,local,global,coherence"
        assert instances.splitlines()[1] == "A;B;C;D;E,1,7,6"

    @given(_quoting_lines())
    @example([['"a;b', "c"], ['"a;b', "c"], ["x", "y"]])
    @settings(max_examples=40, deadline=None)
    def test_csv_reader_reads_each_section_back(self, lines):
        # labels holding '"' and ';' read back from every section, and each
        # cm pattern's field, itself read as a ';' record, gives its members
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "labels.data"
            path.write_text("".join(",".join(line) + "\n" for line in lines))
            labels = parse_transactions_path(str(path), LabelPolicy.MEMBERS).labels
            for method in ("reinforce", "cm", "grid"):
                argv = ["cluster", "--method", method, "--label-policy", "members", "--input", str(path)]
                outputs = []
                for fmt in ("csv", "json"):
                    out = io.StringIO()
                    with redirect_stdout(out), redirect_stderr(io.StringIO()):
                        assert entry([*argv, "--format", fmt]) == 0
                    outputs.append(out.getvalue())
                sections = [[]]
                for row in csv.reader(io.StringIO(outputs[0], newline="")):
                    if row:
                        sections[-1].append(row)
                    else:
                        sections.append([])
                if method == "cm":
                    sections[0] = _read_patterns(sections)
                assert sections == _csv_sections(json.loads(outputs[1]), labels)

    def test_grid_without_links_keeps_its_links_section(self, capsys):
        # no link reaches tau_link; a grid still reports its empty links, in
        # every format, unlike reinforce and cm, which report none
        argv = ("cluster", "--method", "grid", "--fixture", "seven_event", "--tau-link", "100")
        assert run(capsys, *argv, "--format", "csv")[1].endswith("\nG,1\n\na,b,strength\n")
        assert run(capsys, *argv)[1].endswith("\nlinks: (none)\n")
        assert run_json(capsys, *argv, "--format", "json")["links"] == []


class TestComparisons:
    def test_compare_text_on_corpus(self, capsys, small_corpus):
        code, out, _ = run(
            capsys, "compare", "--input", small_corpus, "--reference", "plants_reference"
        )
        assert code == 0
        assert out.startswith("reference: plants_reference (31 clusters)")
        assert "method: grid" in out
        assert "method: reinforce" in out

    def test_compare_json_on_corpus(self, capsys, small_corpus):
        payload = run_json(
            capsys,
            "compare", "--input", small_corpus, "--method", "grid,cm,reinforce",
            "--reference", "plants_reference", "--format", "json",
        )
        assert payload["methods"] == ["grid", "cm", "reinforce"]
        assert set(payload["reports"]) == {"grid", "cm", "reinforce"}
        for report in payload["reports"].values():
            assert 0.0 <= report["pairwise_f1"] <= 1.0

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_compare_output_ignores_tau_link(self, capsys, small_corpus, fmt):
        # compare scores partitions only, and tau_link moves no cluster; the
        # JSON payload's parameters echo it, so that one value is masked
        outputs = set()
        for tau in ("1", "2", "1000000"):
            code, out, _ = run(
                capsys,
                "compare", "--input", small_corpus, "--method", "reinforce,cm,grid",
                "--reference", "plants_reference", "--tau-link", tau, "--format", fmt,
            )
            assert code == 0
            outputs.add(out.replace(f'"tau_link": {tau},', '"tau_link": T,'))
        assert len(outputs) == 1

    def test_reference_from_json_file(self, capsys, small_corpus, tmp_path):
        ref = tmp_path / "ref.json"
        ref.write_text(json.dumps({"clusters": [["al", "ak"]]}))
        code, out, _ = run(
            capsys,
            "compare", "--input", small_corpus, "--method", "grid",
            "--reference", str(ref), "--format", "json",
        )
        assert code == 0


class TestTimingFormat:
    """The stderr timing lines and the ``--timing`` payload, numbers masked."""

    @staticmethod
    def masked(text: str) -> str:
        return re.sub(r"\d+\.\d(?=ms)", "N", text)

    def test_cluster_stderr_line(self, capsys):
        _, _, err = run(capsys, "cluster", "--method", "grid", "--fixture", "seven_event")
        assert self.masked(err) == "timing: parse=Nms count=Nms extract=Nms\n"

    def test_hierarchy_stderr_line(self, capsys):
        _, _, err = run(capsys, "hierarchy", "--fixture", "seven_event")
        assert self.masked(err) == "timing: parse=Nms present=Nms consolidate=Nms\n"

    def test_compare_stderr_lines_follow_method_order(self, capsys, small_corpus):
        _, _, err = run(
            capsys,
            "compare", "--input", small_corpus, "--method", "reinforce,grid,cm",
            "--reference", "plants_reference",
        )
        assert self.masked(err) == (
            "timing: parse=Nms\n"
            "timing[reinforce]: count=Nms extract=Nms\n"
            "timing[grid]: count=Nms extract=Nms\n"
            "timing[cm]: count=Nms extract=Nms\n"
        )

    def test_compare_json_nests_timing_by_method(self, capsys, small_corpus):
        payload = run_json(
            capsys,
            "compare", "--input", small_corpus, "--method", "cm,grid",
            "--reference", "plants_reference", "--format", "json", "--timing",
        )
        timing = payload["timing_ms"]
        assert list(timing) == ["parse", "cm", "grid"]
        assert isinstance(timing["parse"], float)
        for method in ("cm", "grid"):
            assert list(timing[method]) == ["count", "extract"]
            assert all(isinstance(ms, float) for ms in timing[method].values())

    @pytest.mark.parametrize("methods", ["cm,reinforce,grid", "reinforce,grid,cm", "grid,reinforce"])
    def test_compare_writes_in_method_order_not_run_order(self, capsys, small_corpus, methods):
        # the engines run grid first; the timing lines, the timing_ms keys
        # and the reports keep the order asked for
        code, out, err = run(
            capsys,
            "compare", "--input", small_corpus, "--method", methods,
            "--reference", "plants_reference", "--format", "json", "--timing",
        )
        order = methods.split(",")
        assert code == 0
        assert self.masked(err) == "timing: parse=Nms\n" + "".join(
            f"timing[{m}]: count=Nms extract=Nms\n" for m in order
        )
        payload = json.loads(out)
        assert list(payload["timing_ms"]) == ["parse", *order]
        assert payload["methods"] == order and list(payload["reports"]) == order

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("cluster", "--method", "cm"), ["timing: parse=Nms count=Nms extract=Nms"]),
            (
                ("compare", "--method", "grid,reinforce"),
                [
                    "timing: parse=Nms",
                    "timing[grid]: count=Nms extract=Nms",
                    "timing[reinforce]: count=Nms extract=Nms",
                ],
            ),
            (("hierarchy",), ["timing: parse=Nms present=Nms consolidate=Nms"]),
        ],
        ids=["cluster", "compare", "hierarchy"],
    )
    def test_cluster_text_timing_repeats_stderr_line(self, capsys, tmp_path, argv, expected):
        ref = tmp_path / "ref.json"
        ref.write_text('{"clusters": [["A", "B", "C", "D"], ["E", "F", "G"]]}')
        extra = ("--reference", str(ref)) if argv[0] == "compare" else ()
        code, out, err = run(capsys, *argv, *extra, "--fixture", "seven_event", "--timing")
        assert code == 0
        assert out.splitlines()[-len(expected) :] == err.splitlines()
        assert [self.masked(line) for line in err.splitlines()] == expected


class TestDeterminism:
    def test_repeat_runs_identical(self, capsys, small_corpus):
        first = run(capsys, "cluster", "--method", "grid", "--input", small_corpus)
        second = run(capsys, "cluster", "--method", "grid", "--input", small_corpus)
        assert first[1] == second[1]


class TestInputHandling:
    def test_transpose_and_label_policy(self, capsys, tmp_path):
        path = tmp_path / "t.data"
        path.write_text("s1,al,ak\ns2,al\n")
        payload = run_json(
            capsys,
            "cluster", "--method", "grid", "--input", str(path), "--format", "json",
            "--transpose",
        )
        assert payload["detail"]["matrix"]["labels"] == ["s1", "s2"]

    def test_grid_json_with_slot_text_as_a_label(self, capsys, tmp_path):
        # the links and the matrix are written into the "links": null and
        # "matrix": null slots; a label with that text is escaped, so the
        # splice still finds each slot
        path = tmp_path / "t.data"
        path.write_text('al,"matrix": null\n"matrix": null,ak\n"links": null,al\n')
        code, out, _ = run(
            capsys,
            "cluster", "--method", "grid", "--input", str(path), "--format", "json",
            "--label-policy", "members",
        )
        assert code == 0
        payload = json.loads(out)
        labels = ["al", '"matrix": null', "ak", '"links": null']
        assert payload["detail"]["matrix"]["labels"] == labels
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_line_break_characters_stay_in_their_label(self, capsys, tmp_path):
        # U+0085 breaks a line for str.splitlines, but not in an input file,
        # so every text rendering keeps it inside the label
        path = tmp_path / "t.data"
        path.write_text("r1,a\x85b,c\nr2,a\x85b,c\nr3,c,d\n", encoding="utf-8")
        ref = tmp_path / "ref.json"
        ref.write_text(json.dumps({"clusters": [["a\x85b", "c"]]}))
        for argv in (
            ("cluster", "--method", "grid"),
            ("cluster", "--method", "cm"),
            ("hierarchy",),
            ("compare", "--method", "cm", "--reference", str(ref)),
        ):
            code, out, _ = run(capsys, *argv, "--input", str(path))
            assert code == 0
            assert "a\x85b" in out, argv

    def test_members_policy(self, capsys, tmp_path):
        path = tmp_path / "t.data"
        path.write_text("al,ak\nak,fl\n")
        payload = run_json(
            capsys,
            "cluster", "--method", "reinforce", "--input", str(path), "--format", "json",
            "--label-policy", "members",
        )
        assert set(payload["detail"]["counts"]) == {"al", "ak", "fl"}

    @pytest.mark.parametrize(
        "argv",
        [
            ("cluster", "--method", "grid", "--label-policy", "members"),
            ("cluster", "--method", "cm", "--transpose"),
            ("compare", "--method", "reinforce,cm,grid", "--reference", "plants_reference",
             "--label-policy", "members"),
        ],
        ids=["members", "transpose", "compare"],
    )
    def test_leading_byte_order_mark_changes_nothing(self, capsys, tmp_path, argv):
        # a byte-order mark would otherwise join the first member or label;
        # without the species names, the first member is a region code
        text = synthetic_plants_text(300, 5)
        if "members" in argv:
            text = "".join(line.partition(",")[2] + "\n" for line in text.splitlines())
        plain, marked = tmp_path / "plain.data", tmp_path / "marked.data"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        code, expected, _ = run(capsys, *argv, "--input", str(plain))
        assert code == 0
        assert run(capsys, *argv, "--input", str(marked))[:2] == (0, expected)

    def test_diagnostics_reported_on_stderr(self, capsys, tmp_path):
        path = tmp_path / "t.data"
        path.write_text("r1,a,b\nr2,c,c\n")
        _, _, err = run(capsys, "cluster", "--method", "grid", "--input", str(path))
        assert "diagnostics: 1 lines skipped" in err

    @pytest.mark.parametrize(
        ("argv", "corpus"),
        [
            (("cluster", "--method", "grid", "--format", "json"), "plants"),
            (("cluster", "--method", "cm"), "plants"),
            (("hierarchy", "--format", "json"), "plants"),
            (("compare", "--method", "grid,reinforce", "--reference", "plants_reference"), "plants"),
            (("cluster", "--method", "cm", "--label-policy", "members"), "line-ends"),
        ],
        ids=["cluster-grid", "cluster-cm", "hierarchy", "compare", "cluster-cm-line-ends"],
    )
    def test_each_skipped_line_reported_on_stderr(self, capsys, tmp_path, argv, corpus):
        clean, dirty, reported = SKIPPED_LINES[corpus]

        def source(text: bytes):
            # the source path is echoed in JSON parameters; keep it equal
            target = tmp_path / "run.data"
            target.write_bytes(text)
            return str(target)

        code, expected, _ = run(capsys, *argv, "--input", source(clean))
        assert code == 0
        code, out, err = run(capsys, *argv, "--input", source(dirty))
        assert (code, out) == (0, expected)
        lines = err.splitlines()
        assert lines[0] == f"diagnostics: {len(reported)} lines skipped"
        assert lines[1 : 1 + len(reported)] == reported


class TestExitCodes:
    def test_missing_input_file(self, capsys):
        code, _, err = run(capsys, "cluster", "--method", "grid", "--input", "/nope/missing.data")
        assert code == 1
        assert "input error" in err

    def test_unparseable_input_file(self, capsys, tmp_path):
        path = tmp_path / "empty.data"
        path.write_text("")
        code, _, err = run(capsys, "cluster", "--method", "grid", "--input", str(path))
        assert code == 1

    def test_reference_fixture_is_not_a_dataset(self, capsys):
        code, _, err = run(capsys, "cluster", "--method", "grid", "--fixture", "plants_reference")
        assert code == 2
        assert "config error" in err

    @pytest.mark.parametrize(
        "argv",
        [("cluster", "--method", "grid"), ("compare", "--reference", "ref.json"), ("hierarchy",)],
        ids=["cluster", "compare", "hierarchy"],
    )
    def test_transpose_refused_with_a_fixture(self, capsys, monkeypatch, tmp_path, argv):
        # a fixture is parsed without a pivot, so --transpose would be ignored
        monkeypatch.chdir(tmp_path)
        Path("ref.json").write_text('{"clusters": [["A", "B"]]}')
        code, out, err = run(
            capsys, *argv, "--fixture", "seven_event", "--transpose", "--format", "json"
        )
        assert (code, out) == (2, "")
        assert err == "config error: --transpose pivots an input file, not a fixture\n"

    def test_deep_hierarchy_json_is_written(self, capsys, tmp_path):
        # line i lists v0 ... v(i-1): one chain of extensions 60 deep. Under a
        # recursion limit 150 frames above this one, json.dumps cannot reach
        # its end, but the streamed writer walks with its own stack
        path = tmp_path / "chain.data"
        path.write_text("".join(",".join(f"v{j}" for j in range(i)) + "\n" for i in range(1, 61)))
        argv = ("hierarchy", "--label-policy", "members", "--input", str(path), "--format", "json")
        dataset = parse_transactions_path(str(path), LabelPolicy.MEMBERS)
        store = hierarchy.HierarchyStore()
        hierarchy.consolidate(hierarchy.present_all(store, dataset.events))
        expected = tree_json(store, dataset.labels)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 150)
        try:
            with pytest.raises(RecursionError):
                json.dumps(expected, indent=2)
            code, out, err = run(capsys, *argv)
        finally:
            sys.setrecursionlimit(limit)
        assert code == 0
        assert "Traceback" not in err
        payload = json.loads(out)
        assert {k: payload[k] for k in ("roots", "presentations")} == expected
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_dataset_fixture_is_not_a_reference(self, capsys, small_corpus):
        code, _, err = run(
            capsys, "compare", "--input", small_corpus, "--reference", "seven_event"
        )
        assert code == 2

    def test_unknown_compare_method(self, capsys, small_corpus):
        code, _, err = run(
            capsys,
            "compare", "--input", small_corpus, "--method", "grid,bogus",
            "--reference", "plants_reference",
        )
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("cluster", "--method", "grid", "--input", "/nope/missing.data", "--shards", "4"),
            ("cluster", "--method", "reinforce", "--fixture", "seven_event",
             "--delta", "1", "--shards", "4"),
            ("compare", "--input", "/nope/missing.data", "--reference", "plants_reference",
             "--shards", "2"),
            # seven_event does not align with plants_reference: exit 1 once read
            ("compare", "--fixture", "seven_event", "--reference", "plants_reference",
             "--shards", "0"),
        ],
        ids=["cluster-missing-input", "cluster-delta", "compare-missing-input", "compare-unaligned"],
    )
    def test_shards_is_not_an_option(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            entry(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments: --shards" in capsys.readouterr().err

    def test_grid_past_the_cell_limit_is_refused(self, capsys, tmp_path):
        # the benchmark's transposed grid, 1,200 variables, stays within it
        assert cli.GRID_CELL_LIMIT >= 1200**2
        # one member per line: 4,097 variables and no pair to count
        path = tmp_path / "wide.data"
        path.write_text("".join(f"v{i}\n" for i in range(4097)))
        argv = ("cluster", "--input", str(path), "--label-policy", "members")
        code, out, err = run(capsys, *argv, "--method", "grid")
        assert (code, out) == (2, "")
        assert err == (
            f"config error: a grid over 4097 variables has {4097**2} cells,"
            f" more than the {cli.GRID_CELL_LIMIT} it renders\n"
        )
        # only the grid grows as n squared
        assert run(capsys, *argv, "--method", "reinforce")[0] == 0

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_grid_at_the_cell_limit_runs(self, capsys, monkeypatch, fmt):
        name = f"cluster_grid.{'txt' if fmt == 'text' else fmt}"
        argv = GOLDEN_ARGV[name]
        monkeypatch.setattr(cli, "GRID_CELL_LIMIT", 7 * 7)
        assert run(capsys, *argv)[:2] == (0, (GOLDEN / name).read_text())
        monkeypatch.setattr(cli, "GRID_CELL_LIMIT", 7 * 7 - 1)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("config error: a grid over 7 variables has 49 cells")

    def test_bad_weight_rejected(self, capsys):
        code, _, err = run(
            capsys, "cluster", "--method", "grid", "--fixture", "seven_event", "--omega-i", "0"
        )
        assert code == 2

    def test_argparse_errors_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            entry(["cluster", "--method", "nonsense", "--fixture", "seven_event"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("cluster", "--method", "reinforce", "--omega-i", "nan"),
            ("cluster", "--method", "cm", "--omega-g", "inf"),
            ("cluster", "--method", "reinforce", "--delta=-inf"),
            ("cluster", "--method", "grid", "--tau-link", "1e999"),
            ("compare", "--reference", "plants_reference", "--omega-i", "NaN"),
            ("hierarchy", "--theta-merge", "inf"),
            ("hierarchy", "--theta-split", "Infinity"),
            ("hierarchy", "--theta-new", "nan"),
            # an int past the float range: its counts could not be printed
            ("cluster", "--method", "reinforce", "--format", "json", "--omega-i", "9" * 4300),
            ("cluster", "--method", "grid", "--tau-link", str(-(10**309))),
        ],
        ids=[
            "omega-i-nan", "omega-g-inf", "delta-minus-inf", "tau-link-overflow",
            "compare-omega-i-nan", "theta-merge-inf", "theta-split-inf", "theta-new-nan",
            "omega-i-int-past-float-range", "tau-link-int-past-float-range",
        ],
    )
    def test_non_finite_number_refused_before_input_is_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            entry([*argv, "--input", "/nope/missing.data"])
        assert exc.value.code == 2
        assert "not a finite number" in capsys.readouterr().err

    def test_theta_flags_stay_floats(self, capsys):
        code, out, _ = run(
            capsys, "hierarchy", "--fixture", "seven_event", "--format", "json",
            "--theta-merge", "3",
        )
        assert code == 0
        assert '"theta_merge": 3.0,' in out

    def test_repeated_compare_method(self, capsys, small_corpus):
        code, out, err = run(
            capsys,
            "compare", "--input", small_corpus, "--method", "grid,cm,grid",
            "--reference", "plants_reference",
        )
        assert (code, out) == (2, "")
        assert err == "config error: method 'grid' is repeated\n"

    @pytest.mark.parametrize("method", ["grid", "reinforce", "cm"])
    def test_compare_checks_tau_link_only_for_grid(self, capsys, tmp_path, method):
        # only grid extraction reads --tau-link; the other engines ignore it
        ref = tmp_path / "ref.json"
        ref.write_text('{"clusters": [["A", "B", "C", "D"], ["E", "F", "G"]]}')
        code, out, err = run(
            capsys, "compare", "--fixture", "seven_event", "--reference", str(ref),
            "--method", method, "--tau-link", "0",
        )
        if method == "grid":
            assert (code, out) == (2, "")
            assert err.endswith("\nconfig error: tau_link must be at least 1 and finite\n")
        else:
            assert code == 0
            assert out.startswith(f"reference: {ref} (2 clusters)\nmethod: {method}\n")

    def test_bad_reference_shape_is_an_input_error(self, capsys, small_corpus, tmp_path):
        ref = tmp_path / "ref.json"
        ref.write_text('{"clusters": null}')
        code, out, err = run(
            capsys, "compare", "--input", small_corpus, "--reference", str(ref)
        )
        assert (code, out) == (1, "")
        assert f"input error: {ref}: " in err


    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("cluster", "--method", "cm", "--format", "json", "--omega-g", "1e308"), "--omega-g"),
            (("cluster", "--method", "cm", "--omega-i", "1e308"), "--omega-i"),
            (("cluster", "--method", "reinforce", "--format", "json", "--omega-i", "1e308"),
             "--omega-i"),
            (("cluster", "--method", "grid", "--format", "csv", "--omega-i", "1e308"), "--omega-i"),
            (("compare", "--method", "grid,cm", "--omega-g", "1e308"), "--omega-g"),
            (("compare", "--method", "reinforce", "--format", "json", "--omega-i", "1e308"),
             "--omega-i"),
        ],
        ids=["cluster-cm-omega-g", "cluster-cm-omega-i", "cluster-reinforce", "cluster-grid",
             "compare-cm-omega-g", "compare-reinforce"],
    )
    def test_weight_overflowing_to_infinity_refused(self, capsys, tmp_path, argv, flag):
        # finite weights whose sums overflow; JSON has no Infinity to print
        ref = tmp_path / "ref.json"
        ref.write_text('{"clusters": [["A", "B", "C", "D"], ["E", "F", "G"]]}')
        extra = ("--reference", str(ref)) if argv[0] == "compare" else ()
        code, out, err = run(capsys, *argv, *extra, "--fixture", "seven_event")
        assert (code, out) == (2, "")
        assert err.endswith(f"config error: {flag} 1e+308 makes a count overflow to infinity\n")

    @pytest.mark.parametrize(
        "methods, weights, before, flag",
        [
            ("cm,grid", ("--omega-i", "1e308", "--omega-g", "1e308"), [], "--omega-g"),
            ("grid,cm", ("--omega-i", "1e308", "--omega-g", "1e308"), [], "--omega-i"),
            ("reinforce,cm,grid", ("--omega-g", "1e308"), ["reinforce"], "--omega-g"),
            ("cm,reinforce,grid", ("--omega-i", "1e308"), ["cm"], "--omega-i"),
        ],
    )
    def test_compare_refuses_as_the_first_refusing_method_asked_for(
        self, capsys, tmp_path, methods, weights, before, flag
    ):
        # grid runs first, but the error and the timing lines before it are
        # those of the engines in --method order, up to the first that refuses
        data, ref = tmp_path / "ov.data", tmp_path / "ref.json"
        data.write_text("r1,A,B,C\nr2,A,B\n")
        ref.write_text('{"clusters": [["A", "B", "C"]]}')
        code, out, err = run(
            capsys, "compare", "--method", methods, *weights, "--input", str(data),
            "--reference", str(ref),
        )
        assert (code, out) == (2, "")
        assert TestTimingFormat.masked(err) == (
            "timing: parse=Nms\n"
            + "".join(f"timing[{m}]: count=Nms extract=Nms\n" for m in before)
            + f"config error: {flag} 1e+308 makes a count overflow to infinity\n"
        )

    def test_large_finite_weight_still_runs(self, capsys):
        payload = run_json(
            capsys, "cluster", "--method", "cm", "--fixture", "seven_event", "--format", "json",
            "--omega-g", "1e307",
        )
        seven_overlaps = 0.0
        for _ in range(7):
            seven_overlaps += 1e307
        assert max(i["global"] for i in payload["detail"]["instances"]) == seven_overlaps

    @pytest.mark.parametrize("reference", ["plants_reference", "file"])
    def test_unknown_reference_label_names_the_reference(self, capsys, tmp_path, reference):
        if reference == "file":
            path = tmp_path / "ref.json"
            path.write_text('{"clusters": [["A", "B"], ["fl"]]}')
            reference = str(path)
        code, out, err = run(
            capsys, "compare", "--fixture", "seven_event", "--reference", reference
        )
        assert (code, out) == (1, "")
        assert err == f"input error: {reference}: label 'fl' not in the vocabulary\n"

    def test_reference_content_error_names_the_file(self, capsys, small_corpus, tmp_path):
        ref = tmp_path / "ref.json"
        ref.write_text('{"clusters": []}')
        code, out, err = run(
            capsys, "compare", "--input", small_corpus, "--reference", str(ref)
        )
        assert (code, out) == (1, "")
        assert err == f"input error: {ref}: reference contains no clusters\n"


class _CountingStdout(io.StringIO):
    """A standard output that counts its ``write`` calls."""

    calls = 0

    def write(self, text: str) -> int:
        self.calls += 1
        return super().write(text)


@pytest.fixture()
def distinct(tmp_path):
    # 3,000 records, each a distinct pair of 110 variables: cm's JSON
    # holds thousands of instances and is several blocks long
    path = tmp_path / "distinct.data"
    path.write_text("".join(f"r{i},a{i % 60},b{i // 60}\n" for i in range(3000)))
    return str(path)


class TestStdoutWrites:
    def test_cm_instances_go_out_in_blocks(self, distinct):
        out = _CountingStdout()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = entry(["cluster", "--method", "cm", "--input", distinct, "--format", "json"])
        assert code == 0
        text = out.getvalue()
        assert len(json.loads(text)["detail"]["instances"]) >= 3000
        blocks = -(-len(text.encode()) // jsonout.BLOCK)
        assert out.calls <= blocks + 4

    def test_grid_matrix_goes_out_in_blocks(self, tmp_path):
        # transposed, 300 records are the variables of a 300 x 300 matrix,
        # about 1.2 MB of JSON that one write per row would take 300 calls for
        path = tmp_path / "wide.data"
        path.write_text("".join(f"r{i},a{i % 10},b{i % 7}\n" for i in range(300)))
        argv = ["cluster", "--method", "grid", "--input", str(path), "--transpose", "--format", "json"]
        out = _CountingStdout()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = entry(argv)
        assert code == 0
        text = out.getvalue()
        assert len(json.loads(text)["detail"]["matrix"]["cells"]) == 300
        blocks = -(-len(text.encode()) // jsonout.BLOCK)
        # beside the blocks: the links' and the matrix's slots, their
        # closing blocks, the matrix labels and the payload's end
        assert out.calls <= blocks + 6

    @staticmethod
    def _env(unbuffered: bool) -> dict:
        env = dict(os.environ, PYTHONPATH=str(Path(patterngrid.__file__).resolve().parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return env

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_141_quietly(self, distinct, unbuffered):
        # the reader takes a few bytes of several blocks and closes the pipe,
        # as ``| head -c 100`` does; the write that then fails is no input
        # error, and the interpreter's last flush raises nothing either
        argv = ["cluster", "--method", "cm", "--input", distinct, "--format", "json"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "patterngrid", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self._env(unbuffered),
        )
        assert proc.stdout.read(100).startswith(b"{")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err.startswith("timing: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_small_output_to_a_closed_pipe_exits_141_quietly(self, unbuffered):
        # the pipe has no reader from the start; buffered, the whole output
        # waits in the buffer, so only the flush at the end can fail
        read, write = os.pipe()
        os.close(read)
        argv = ["cluster", "--method", "cm", "--fixture", "seven_event", "--format", "json"]
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "patterngrid", *argv],
                stdout=write,
                stderr=subprocess.PIPE,
                env=self._env(unbuffered),
                timeout=60,
            )
        finally:
            os.close(write)
        err = proc.stderr.decode()
        assert proc.returncode == 141
        assert err.startswith("timing: ") and err.count("\n") == 1, err


class TestProcessEntry:
    """``python -m patterngrid`` runs ``cli.main``, which ends the process
    with ``os._exit`` once both streams are flushed; what reaches them and
    the exit code must be what ``cli.entry`` gives in process."""

    @staticmethod
    def _in_process(capsys, argv) -> tuple[int, str, str]:
        try:
            code = entry(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def _process(argv, unbuffered: bool) -> subprocess.CompletedProcess:
        # argparse wraps its usage text to COLUMNS, in process and out
        env = dict(TestStdoutWrites._env(unbuffered), COLUMNS="80")
        return subprocess.run(
            [sys.executable, "-m", "patterngrid", *argv],
            capture_output=True,
            env=env,
            timeout=60,
        )

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        ("argv", "expected"),
        [
            (("cluster", "--method", "grid", "--input", "/nope/missing.data"), 1),
            (("cluster", "--method", "grid", "--fixture", "seven_event", "--tau-link", "0"), 2),
            # argparse's usage error leaves entry as SystemExit
            (("cluster", "--method", "nope", "--fixture", "seven_event"), 2),
        ],
        ids=["missing-input", "config-error", "usage-error"],
    )
    def test_error_exits_with_its_whole_message(self, capsys, monkeypatch, argv, expected, unbuffered):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = self._in_process(capsys, argv)
        assert (code, out) == (expected, "")
        assert err.endswith("\n") and "Traceback" not in err
        proc = self._process(argv, unbuffered)
        assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (expected, b"", err)

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("method", ["cm", "grid"])
    def test_json_output_matches_entry(self, capsys, distinct, method, unbuffered):
        argv = ("cluster", "--method", method, "--input", distinct, "--format", "json")
        code, out, _ = self._in_process(capsys, argv)
        assert code == 0 and len(out) > jsonout.BLOCK
        proc = self._process(argv, unbuffered)
        assert proc.returncode == 0
        assert proc.stdout == out.encode()
        err = proc.stderr.decode()
        assert err.startswith("timing: ") and err.count("\n") == 1, err


def test_cli_import_loads_no_thread_pool_or_logging():
    # every CLI process pays for what importing the CLI loads; and the runtime
    # is stdlib only, so every module of the package loads nothing else
    package_root = str(Path(patterngrid.__file__).resolve().parents[1])
    probe = (
        "import sys, patterngrid.cli; patterngrid.cli.build_parser(); "
        "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules)); "
        "import importlib, pkgutil; "
        "[importlib.import_module(m.name) for m in "
        "pkgutil.walk_packages(patterngrid.__path__, 'patterngrid.')]; "
        "print(sorted({m.partition('.')[0] for m in sys.modules}"
        " - {'__main__', 'patterngrid'} - sys.stdlib_module_names))"
    )
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root}
    # a run that writes no bytecode leaves none beside the package either
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"
