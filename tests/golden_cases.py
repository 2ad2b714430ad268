"""The command behind each file in ``tests/golden/``, written once.

``CASES`` pairs each golden file with the argv whose stdout it holds; an
argv item named in ``INPUTS`` is an input file written into the working
directory first, by its relative name, so the ``source`` a JSON payload
echoes stays fixed. Every case exits 0. The tier-1 test runs the cases in
process; run as a script, this module runs them through a command:

    python tests/golden_cases.py patterngrid
    PYTHONPATH=$PWD/src python3.12 tests/golden_cases.py "python3.12 -m patterngrid"

Each case runs in a fresh temporary directory. The script names every file
whose stdout bytes or exit code differ, with the first line that differs,
expected and actual, and exits 1 if any does. It needs
only the standard library and an importable ``patterngrid``, whose
``synth`` builds ``transpose80.data``.
"""

from __future__ import annotations

import shlex
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

from patterngrid.synth import synthetic_plants_text

GOLDEN = Path(__file__).resolve().parent / "golden"

_SEVEN = ("--fixture", "seven_event")
# one merge, one root split and one split whose head becomes a new root
_RULES = ("--label-policy", "members", "--input", "hierarchy_rules.data")
_COMPARE = ("compare", "--method", "reinforce,cm,grid", *_RULES, "--reference", "ref.json")
# the engines run grid first whatever the order asked for; output keeps that order
_GRID_FIRST = ("--method", "grid,cm,reinforce")
_GRID_LAST = ("--method", "cm,reinforce,grid")
_ESCAPED = ("--label-policy", "members", "--input", "escaped.data")
_PLANTS = ("--input", "transpose80.data", "--reference", "plants_reference")
_TRANSPOSE = ("cluster", "--method", "grid", "--transpose", "--input", "transpose80.data")
_QUOTED = ("--label-policy", "members", "--input", "quoted.data", "--format", "csv")

INPUTS = {
    # ids follow first appearance, so E,C,A,D,B takes ids 0-4: each cm
    # pattern is written in label order, not in its id tuple's order
    "cm_order.data": b"E,C,A,D,B\nC,A\nE,C,A,D,B\nA,D,B\nD,B\nF,E\nF,E,G\nC,A\nB,F\n",
    # lines end at "\r\n", "\r" and "\n" only: U+2028 stays inside the label
    # B C; the BOM is dropped, the invalid byte reads as U+FFFD and line 5's
    # empty field is skipped with a diagnostic on stderr
    "line_ends.data": (
        b"\xef\xbb\xbfA,B\xe2\x80\xa8C,D\r\nA,B\xe2\x80\xa8C,D\rE,F\xff\nE,F\xff,G\r\n"
        b"bad,,line\nA,B\xe2\x80\xa8C,D\nE,F\xff\r\nA,B\xe2\x80\xa8C\n"
    ),
    "hierarchy_rules.data": b"D,E,F\nD,E\nD,E\nA,B\nA,B,C\nA,B,C\nG,H\nG,H,I\nH,I\nH,I\n",
    # the root splits off {B}, then {A,B,C} splits off {B,C}, which extends
    # {B} and so takes {A,B,C}'s place under it
    "hierarchy_inplace_split.data": b"A,B,C\nB,C\nB,C\nB,C\nB\nB\n",
    # {A,B} merges with its extension {A,B,C}; the link into it keeps its
    # adds {B}
    "hierarchy_stale_link.data": b"A\nA\nA,B\nA,B,C\nA,B,C\n",
    "ref.json": b'{"clusters": [["A","B","C"],["D","E","F"],["G","H","I"]]}',
    # labels json escapes: non-ASCII (one outside the BMP), a quote and a
    # backslash; first seen in an order unlike their sorted one, and one
    # member written with spaces around it
    "escaped.data": (
        'ž,é"\n a\\b ,Ω,ž\n"q",ü\\,Ω\nž,é",a\\b\nΩ,"q",𝄞\nž,é"\n'.encode()
    ),
    "escaped_ref.json": (
        '{"clusters": [["ž", "é\\"", "Ω"], ["a\\\\b", "\\"q\\"", "ü\\\\"], ["𝄞"]]}'.encode()
    ),
    # a wide sparse grid with links
    "transpose80.data": synthetic_plants_text(80, 4).encode(),
    # labels holding '"' and ';', which CSV quotes, and a link between two
    "quoted.data": b'"a;b,c,d\n"a;b,c,d\n"a;b,c,d\nx;y,"q",z\nx;y,"q",z\nx;y,"q",z\n'
    b'"a;b,x;y\n"a;b,x;y\nc,"q"\n',
}

CASES = (
    ("tables.txt", ("tables",)),
    # each engine's renderers are bound where its result is made; the text
    # and CSV link writers read each link's fields by name
    ("cluster_grid.txt", ("cluster", "--method", "grid", *_SEVEN)),
    ("cluster_grid.json", ("cluster", "--method", "grid", *_SEVEN, "--format", "json")),
    ("cluster_grid.csv", ("cluster", "--method", "grid", *_SEVEN, "--format", "csv")),
    # float cells beside the int zeros of untouched cells, of unequal widths
    ("cluster_grid_float.json",
     ("cluster", "--method", "grid", *_SEVEN, "--omega-i", "0.1", "--format", "json")),
    ("cluster_grid_float.txt", ("cluster", "--method", "grid", *_SEVEN, "--omega-i", "0.1")),
    ("cluster_grid_float.csv",
     ("cluster", "--method", "grid", *_SEVEN, "--omega-i", "0.1", "--format", "csv")),
    ("cluster_grid_transpose.json", (*_TRANSPOSE, "--format", "json")),
    # a wide matrix: text columns take the width of their widest cell
    ("cluster_grid_transpose.txt", _TRANSPOSE),
    ("cluster_grid_transpose.csv", (*_TRANSPOSE, "--format", "csv")),
    ("cluster_cm.txt", ("cluster", "--method", "cm", *_SEVEN)),
    ("cluster_cm.json", ("cluster", "--method", "cm", *_SEVEN, "--format", "json")),
    ("cluster_cm.csv", ("cluster", "--method", "cm", *_SEVEN, "--format", "csv")),
    ("cluster_cm_members.txt",
     ("cluster", "--method", "cm", "--label-policy", "members", "--input", "cm_order.data")),
    ("cluster_cm_members.csv",
     ("cluster", "--method", "cm", "--label-policy", "members", "--input", "cm_order.data",
      "--format", "csv")),
    # a label field holding '"' or ';' is quoted as csv.writer quotes it; a cm
    # pattern's field is a ';' record of its members, quoted the same way
    ("cluster_grid_quoted.csv", ("cluster", "--method", "grid", *_QUOTED)),
    ("cluster_cm_quoted.csv", ("cluster", "--method", "cm", *_QUOTED)),
    ("cluster_reinforce_quoted.csv", ("cluster", "--method", "reinforce", *_QUOTED)),
    ("cluster_cm_line_ends.txt",
     ("cluster", "--method", "cm", "--label-policy", "members", "--input", "line_ends.data")),
    ("cluster_reinforce.txt", ("cluster", "--method", "reinforce", *_SEVEN)),
    ("cluster_reinforce.json", ("cluster", "--method", "reinforce", *_SEVEN, "--format", "json")),
    ("cluster_reinforce.csv", ("cluster", "--method", "reinforce", *_SEVEN, "--format", "csv")),
    # absence decay: int weights in closed form, float weights step by step
    ("cluster_reinforce_delta.json",
     ("cluster", "--method", "reinforce", "--delta", "1", *_SEVEN, "--format", "json")),
    ("cluster_reinforce_float_delta.json",
     ("cluster", "--method", "reinforce", "--omega-i", "0.5", "--delta", "0.3", *_SEVEN,
      "--format", "json")),
    ("hierarchy.txt", ("hierarchy", *_SEVEN)),
    ("hierarchy_rules.json", ("hierarchy", *_RULES, "--format", "json")),
    # the same forest as text: a detached root and two extension links
    ("hierarchy_rules.txt", ("hierarchy", *_RULES)),
    # a split head replacing its node under the grandparent it extends
    ("hierarchy_inplace_split.txt",
     ("hierarchy", "--label-policy", "members", "--input", "hierarchy_inplace_split.data")),
    ("hierarchy_inplace_split.json",
     ("hierarchy", "--label-policy", "members", "--input", "hierarchy_inplace_split.data",
      "--format", "json")),
    # the link a non-root merge leaves as it was stored
    ("hierarchy_stale_link.txt",
     ("hierarchy", "--label-policy", "members", "--input", "hierarchy_stale_link.data")),
    # each instance and best match lists its labels sorted by label
    ("cluster_cm_escaped.json", ("cluster", "--method", "cm", *_ESCAPED, "--format", "json")),
    ("compare_cm_escaped.json",
     ("compare", "--method", "cm", *_ESCAPED, "--reference", "escaped_ref.json",
      "--format", "json")),
    ("compare.json", (*_COMPARE, "--format", "json")),
    # the best-match lines, ties going to the earlier reference cluster
    ("compare.txt", _COMPARE),
    ("compare_grid_first.txt", ("compare", *_GRID_FIRST, *_RULES, "--reference", "ref.json")),
    ("compare_grid_first.json",
     ("compare", *_GRID_FIRST, *_RULES, "--reference", "ref.json", "--format", "json")),
    ("compare_grid_last.txt", ("compare", *_GRID_LAST, *_RULES, "--reference", "ref.json")),
    ("compare_grid_last.json",
     ("compare", *_GRID_LAST, *_RULES, "--reference", "ref.json", "--format", "json")),
    ("compare_plants_grid_first.txt", ("compare", *_GRID_FIRST, *_PLANTS)),
    ("compare_plants_grid_first.json", ("compare", *_GRID_FIRST, *_PLANTS, "--format", "json")),
    ("compare_plants_grid_last.txt", ("compare", *_GRID_LAST, *_PLANTS)),
    ("compare_plants_grid_last.json", ("compare", *_GRID_LAST, *_PLANTS, "--format", "json")),
)


def write_inputs(argv, directory: Path) -> None:
    """Write each input file that ``argv`` names into ``directory``."""
    for arg in argv:
        if arg in INPUTS:
            (directory / arg).write_bytes(INPUTS[arg])


def first_difference(expected: bytes, actual: bytes) -> str:
    """The first line at which ``actual`` differs from ``expected``: its
    number and both lines, a missing one shown as the end of the output."""
    pairs = zip_longest(expected.split(b"\n"), actual.split(b"\n"))
    for number, lines in enumerate(pairs, 1):
        if lines[0] != lines[1]:
            want, got = (
                "(end of output)" if line is None else repr(line.decode(errors="backslashreplace"))
                for line in lines
            )
            return f"line {number}: expected {want}, got {got}"
    return "no line differs"


def main(args: list[str]) -> int:
    if len(args) != 1:
        print("usage: golden_cases.py COMMAND, e.g. patterngrid or 'python3 -m patterngrid'",
              file=sys.stderr)
        return 2
    command = shlex.split(args[0])
    failed = []
    for name, argv in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            write_inputs(argv, Path(tmp))
            done = subprocess.run([*command, *argv], cwd=tmp, capture_output=True)
        if done.returncode != 0:
            err = done.stderr.decode(errors="replace").rstrip()
            failed.append(f"{name}: exit code {done.returncode}\n{err}")
        elif done.stdout != (expected := (GOLDEN / name).read_bytes()):
            failed.append(f"{name}: stdout differs at {first_difference(expected, done.stdout)}")
    for line in failed:
        print("FAIL " + line, file=sys.stderr)
    print(f"{len(CASES) - len(failed)} of {len(CASES)} golden files match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
