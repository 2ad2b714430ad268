"""The README's "Library use" example runs as written, on a synthetic
corpus saved under the file name it reads."""

import re
from pathlib import Path

from patterngrid import grid, parse_transactions_path
from patterngrid.synth import synthetic_plants_text

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use_block() -> str:
    section = README.read_text().split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    (tmp_path / "plants.data").write_text(synthetic_plants_text(2000))
    monkeypatch.chdir(tmp_path)
    exec(compile(_library_use_block(), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()

    dataset = parse_transactions_path("plants.data")
    result = grid.extract_clusters(
        grid.count_events(grid.CountMatrix.zeros(dataset.n), dataset.events), tau_link=2
    )
    clusters = result.partition.label_clusters(dataset.labels)
    assert clusters and result.links
    assert lines == [",".join(group) for group in clusters] + [
        f"{dataset.labels[a]} {dataset.labels[b]} {strength}" for a, b, strength in result.links
    ]
