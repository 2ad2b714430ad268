"""End-to-end acceptance gate.

One test per contract line, in order, so a verbose run reads as a checklist:
exact worked-example tables, oracle equivalence on random data, ordering
invariance, corpus-scale performance, reference agreement, hierarchy fixed
point, byte determinism, corpus-scale hierarchy performance,
corpus-scale reinforcement with the absence decrement, cm counting
on a corpus of mostly distinct event sets, the grid on a wide sparse
transposed corpus, the hierarchy on the corpus of mostly distinct
event sets, the memory each stage peaks at or holds, the grid links
written as they are derived, and the grid as a compact form of the
counting mechanism at corpus scale.
"""

import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import patterngrid
from patterngrid import counting, grid, hierarchy, reinforce
from patterngrid.cli import entry
from patterngrid.evaluate import pairwise_agreement
from patterngrid.ingest import load_fixture, parse_transactions, parse_transactions_path
from patterngrid.model import Event, Weights
from patterngrid.synth import synthetic_plants_text

from .oracles import (
    DenseGrid,
    cm_replay_oracle,
    cooccurrence_oracle,
    count_matrix,
    dense_count_events,
    dense_extract_clusters,
    find_merge_oracle,
    find_split_oracle,
    frequency_oracle,
    permute_events,
    present,
    relabel_dataset,
    random_dataset,
    tree_json,
    update,
)

A, B, C, D, E, F, G = range(7)

TABLE_COUNTS = [5, 4, 4, 4, 4, 3, 3]
TABLE_MATRIX = [
    [0, 4, 4, 4, 2, 1, 1],
    [4, 0, 4, 4, 1, 0, 0],
    [4, 4, 0, 4, 1, 0, 0],
    [4, 4, 4, 0, 1, 0, 0],
    [2, 1, 1, 1, 0, 3, 3],
    [1, 0, 0, 0, 3, 0, 3],
    [1, 0, 0, 0, 3, 3, 0],
]


def _label_sets(partition, labels):
    return {frozenset(group) for group in partition.label_clusters(labels)}


def _first_difference(got: str, expected: str, context: int = 100) -> str:
    """Where two long texts first differ, with ``context`` characters each
    side: an assertion message that pytest need not build by diffing them."""
    at = len(os.path.commonprefix([got, expected]))
    window = slice(max(0, at - context), at + context)
    return (
        f"texts of {len(got)} and {len(expected)} characters differ at offset {at}:\n"
        f"got      {got[window]!r}\nexpected {expected[window]!r}"
    )


def test_01_variable_counts_and_bands_exact(seven):
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        state = reinforce.count_events(reinforce.ReinforceState.empty(seven.n), seven.events)
        bands = reinforce.band_clusters(state)
        best = min(best, time.perf_counter() - started)
    assert state.counts == TABLE_COUNTS
    assert [(value, set(members)) for value, members in bands] == [
        (5, {A}),
        (4, {B, C, D, E}),
        (3, {F, G}),
    ]
    assert best < 0.001, f"counting took {best * 1000:.3f}ms"


def test_02_instance_counts_and_selection_exact(seven):
    store = counting.present_all(counting.InstanceStore.empty(seven.n), seven.events, Weights())
    table = {r.pattern: (r.local_count, r.global_count) for r in store.records}
    assert table == {
        (A, B, C, D, E): (1, 7),
        (A, B, C, D): (3, 4),
        (A, E, F, G): (1, 3),
        (E, F, G): (2, 2),
    }
    selected = counting.select_clusters(store)
    assert set(selected.clusters) == {frozenset({A, B, C, D}), frozenset({E, F, G})}
    assert selected.unassigned == frozenset()


def test_03_grid_matrix_and_extraction_exact(seven):
    matrix = grid.count_events(grid.CountMatrix.zeros(seven.n), seven.events)
    assert matrix.cells == TABLE_MATRIX
    result = grid.extract_clusters(matrix, 2)
    assert set(result.partition.clusters) == {frozenset({A, B, C, D}), frozenset({E, F, G})}
    assert result.partition.unassigned == frozenset()
    assert [(l.a, l.b, l.strength) for l in result.links] == [(A, E, 2)]


def test_04_counts_match_brute_force_oracles():
    for seed in range(120):
        dataset = random_dataset(seed, max_vars=12, max_events=50)

        matrix = grid.count_events(grid.CountMatrix.zeros(dataset.n), dataset.events)
        assert matrix.cells == cooccurrence_oracle(dataset.events, dataset.n), f"grid seed {seed}"

        state = reinforce.count_events(reinforce.ReinforceState.empty(dataset.n), dataset.events)
        assert state.counts == frequency_oracle(dataset.events, dataset.n), f"reinforce seed {seed}"

        store = counting.present_all(
            counting.InstanceStore.empty(dataset.n), dataset.events, Weights()
        )
        got = {r.pattern: (r.local_count, r.global_count) for r in store.records}
        assert got == cm_replay_oracle(dataset.events), f"cm seed {seed}"


def test_05_order_and_relabelling_invariance():
    for seed in range(40):
        dataset = random_dataset(seed, max_vars=10, max_events=30)
        labels = dataset.labels
        matrix = grid.count_events(grid.CountMatrix.zeros(dataset.n), dataset.events)
        state = reinforce.count_events(reinforce.ReinforceState.empty(dataset.n), dataset.events)
        grid_sets = _label_sets(grid.extract_clusters(matrix, 2).partition, labels)
        band_sets = _label_sets(
            reinforce.bands_to_partition(reinforce.band_clusters(state), state.n), labels
        )

        shuffled = permute_events(dataset, seed + 1)
        matrix2 = grid.count_events(grid.CountMatrix.zeros(shuffled.n), shuffled.events)
        state2 = reinforce.count_events(reinforce.ReinforceState.empty(shuffled.n), shuffled.events)
        assert matrix2.cells == matrix.cells
        assert state2.counts == state.counts
        assert _label_sets(grid.extract_clusters(matrix2, 2).partition, labels) == grid_sets
        assert (
            _label_sets(
                reinforce.bands_to_partition(reinforce.band_clusters(state2), state2.n), labels
            )
            == band_sets
        )

        renamed, mapping = relabel_dataset(dataset, seed + 2)
        matrix3 = grid.count_events(grid.CountMatrix.zeros(renamed.n), renamed.events)
        state3 = reinforce.count_events(reinforce.ReinforceState.empty(renamed.n), renamed.events)
        cells, cells3 = matrix.cells, matrix3.cells
        for i in range(dataset.n):
            assert state3.counts[mapping[i]] == state.counts[i]
            for j in range(dataset.n):
                assert cells3[mapping[i]][mapping[j]] == cells[i][j]
        assert _label_sets(grid.extract_clusters(matrix3, 2).partition, renamed.labels) == grid_sets
        assert (
            _label_sets(
                reinforce.bands_to_partition(reinforce.band_clusters(state3), state3.n),
                renamed.labels,
            )
            == band_sets
        )


def test_06_corpus_single_pass_under_ten_seconds(plants_path):
    started = time.perf_counter()
    dataset = parse_transactions_path(plants_path)
    matrix = grid.count_events(grid.CountMatrix.zeros(dataset.n), dataset.events)
    result = grid.extract_clusters(matrix, 2)
    elapsed = time.perf_counter() - started

    assert elapsed < 10.0, f"parse+count+extract took {elapsed:.2f}s"
    # every event contributes each of its pairs exactly twice (one per
    # orientation), so this equality fails if anything is counted twice
    expected_increments = sum(len(e.members) * (len(e.members) - 1) for e in dataset.events)
    assert matrix.increments == expected_increments
    assert result.partition.n == dataset.n


def test_07_reference_agreement_ranks_grid_first(plants_path):
    reference = load_fixture("plants_reference")
    dataset = parse_transactions_path(plants_path)
    assert set(dataset.labels) == set(reference.labels)
    assert dataset.n == 70
    reference_partition = reference.align(dataset.labels)

    matrix = grid.count_events(grid.CountMatrix.zeros(dataset.n), dataset.events)
    grid_partition = grid.extract_clusters(matrix, 2).partition

    state = reinforce.count_events(reinforce.ReinforceState.empty(dataset.n), dataset.events)
    band_partition = reinforce.bands_to_partition(reinforce.band_clusters(state), state.n)

    grid_report = pairwise_agreement(grid_partition, reference_partition)
    band_report = pairwise_agreement(band_partition, reference_partition)
    assert grid_report.per_cluster_table
    assert band_report.per_cluster_table
    assert grid_report.pairwise_f1 > band_report.pairwise_f1, (
        f"grid f1={grid_report.pairwise_f1:.4f}"
        f" not above bands f1={band_report.pairwise_f1:.4f}"
    )


def test_08_hierarchy_consolidation_fixed_point():
    from patterngrid.model import Event

    for k in range(1, 6):
        store = hierarchy.HierarchyStore(theta_merge=2.0)
        hierarchy.present_all(
            store, [Event((A, B, C, D))] + [Event((A, B, C, D, E))] * k
        )
        hierarchy.consolidate(store)
        merged = store.roots[0].pattern == {A, B, C, D, E}
        assert merged == (k >= 2), f"k={k}"

    for seed in range(100):
        dataset = random_dataset(seed, max_vars=9, max_events=40)
        store = hierarchy.HierarchyStore()
        hierarchy.present_all(store, dataset.events)
        assert hierarchy.total_mass(store) == len(dataset.events)
        hierarchy.consolidate(store)
        assert hierarchy.total_mass(store) == len(dataset.events), f"seed {seed}"
        snapshot = tree_json(store, dataset.labels)
        hierarchy.consolidate(store)
        assert tree_json(store, dataset.labels) == snapshot, f"seed {seed}"


def test_09_byte_identical_output(tmp_path):
    corpus = tmp_path / "corpus.data"
    corpus.write_text(synthetic_plants_text(400, 11))
    reference = tmp_path / "ref.json"
    reference.write_text(json.dumps({"clusters": [["al", "ak", "az"]]}))

    commands = [
        ["tables"],
        ["cluster", "--method", "grid", "--input", str(corpus), "--format", "json"],
        ["cluster", "--method", "cm", "--input", str(corpus), "--format", "json"],
        ["cluster", "--method", "reinforce", "--input", str(corpus), "--format", "csv"],
        ["compare", "--input", str(corpus), "--reference", str(reference), "--format", "json"],
        ["hierarchy", "--input", str(corpus), "--format", "json"],
    ]

    # the package under test, whether installed or run from the source tree
    package_root = str(Path(patterngrid.__file__).resolve().parents[1])
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root}
    # a run that writes no bytecode leaves none beside the package either
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]

    def run(argv, hashseed):
        proc = subprocess.run(
            [sys.executable, "-m", "patterngrid", *argv],
            capture_output=True,
            env={"PYTHONHASHSEED": hashseed, **env},
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    for argv in commands:
        outputs = {run(argv, "1"), run(argv, "2"), run(argv, "1")}
        assert len(outputs) == 1, f"unstable output for {argv}"


def test_10_corpus_hierarchy_under_one_second(plants_path):
    dataset = parse_transactions_path(plants_path)
    started = time.perf_counter()
    store = hierarchy.present_all(hierarchy.HierarchyStore(), dataset.events)
    hierarchy.consolidate(store)
    elapsed = time.perf_counter() - started

    assert elapsed < 1.0, f"present+consolidate took {elapsed:.2f}s"
    assert hierarchy.total_mass(store) == len(dataset.events)


def test_11_corpus_reinforce_with_delta_under_point_two_seconds(plants_path):
    dataset = parse_transactions_path(plants_path)
    weights = Weights(delta=1)
    started = time.perf_counter()
    state = reinforce.count_events(reinforce.ReinforceState.empty(dataset.n), dataset.events, weights)
    elapsed = time.perf_counter() - started

    assert elapsed < 0.2, f"count_events with delta=1 took {elapsed:.2f}s"
    eager = reinforce.ReinforceState.empty(dataset.n)
    for event in dataset.events:
        update(eager, event, weights)
    assert [repr(c) for c in state.counts] == [repr(c) for c in eager.counts]


def _block_events(count: int, seed: int, blocks: int = 30, width: int = 12) -> list[Event]:
    """Events over ``blocks`` blocks of ``width`` ids: each keeps every id
    of one block with probability 0.55 and adds up to two ids from
    anywhere, so almost every member set is distinct."""
    rng = random.Random(seed)
    n = blocks * width
    events = []
    for _ in range(count):
        home = int(rng.random() * blocks) * width
        members = [home + c for c in range(width) if rng.random() < 0.55] or [home]
        for _ in range(int(rng.random() * 3)):
            extra = int(rng.random() * n)
            if extra not in members:
                members.append(extra)
        events.append(Event(tuple(members)))
    return events


def test_12_low_duplication_cm_under_point_three_seconds():
    events = _block_events(8000, seed=3)
    n = 360
    assert len({e.member_set() for e in events}) > 0.9 * len(events)
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        store = counting.present_all(counting.InstanceStore.empty(n), events)
        best = min(best, time.perf_counter() - started)

    assert best < 0.3, f"present_all took {best:.2f}s"
    folded = present(counting.InstanceStore.empty(n), events)
    # about a million characters each: compared to a bool, so pytest does
    # not diff them on a mismatch
    got, expected = repr(store.records), repr(folded.records)
    same = got == expected
    assert same, _first_difference(got, expected)
    assert store.event_counter == folded.event_counter == len(events)


def test_13_transposed_grid_count_and_extract_under_one_second():
    # 3,000 variables over 70 long events: 9 M cells, about 4% of them nonzero
    text = synthetic_plants_text(3000).encode()
    dataset = parse_transactions(io.BytesIO(text), transpose=True)
    assert dataset.n == 3000
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        matrix = grid.count_events(grid.CountMatrix.zeros(dataset.n), dataset.events)
        result = grid.extract_clusters(matrix, 2)
        best = min(best, time.perf_counter() - started)

    assert best < 1.0, f"count and extract took {best:.2f}s"
    dense = dense_count_events(DenseGrid.zeros(dataset.n), dataset.events)
    assert count_matrix(dense.cells) == matrix
    assert matrix.increments == dense.increments
    # over a million characters each: compared to a bool, so pytest does
    # not diff them on a mismatch
    got, expected = repr(result), repr(dense_extract_clusters(dense, 2))
    same = got == expected
    assert same, _first_difference(got, expected)


def test_14_low_duplication_hierarchy_under_point_six_seconds():
    events = _block_events(8000, seed=3)
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        store = hierarchy.present_all(hierarchy.HierarchyStore(), events)
        hierarchy.consolidate(store)
        best = min(best, time.perf_counter() - started)

    assert best < 0.6, f"present+consolidate took {best:.2f}s"
    assert hierarchy.total_mass(store) == len(events)
    assert find_merge_oracle(store) is None
    assert find_split_oracle(store) is None


def test_15_low_duplication_grid_count_peak_under_one_and_a_half_times_its_rows():
    # counted a row at a time, the counts are never held beside the rows
    # they become; a table of pairs kept beside the rows would double the peak
    events = _block_events(8000, seed=3)
    matrix = grid.CountMatrix.zeros(360)
    tracemalloc.start()
    try:
        grid.count_events(matrix, events)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert matrix.increments == sum(len(e.members) * (len(e.members) - 1) for e in events)
    assert peak < 1.5 * retained, f"peak {peak:,} B for {retained:,} B of rows"


def test_16_low_duplication_cm_store_under_400_bytes_per_instance():
    # a pattern of five or more ids takes 728 B as a frozenset (a 32-slot
    # table), and 40 B plus 8 B per id as an ascending tuple
    events = _block_events(8000, seed=3)
    store = counting.InstanceStore.empty(360)
    tracemalloc.start()
    try:
        counting.present_all(store, events)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    instances = len(store.records)
    assert instances > 0.9 * len(events)
    for record in store.records:
        pattern = record.pattern
        assert type(pattern) is tuple and all(type(v) is int for v in pattern), pattern
        assert all(a < b for a, b in zip(pattern, pattern[1:])), pattern
    assert retained < 400 * instances, f"store holds {retained / instances:.0f} B per instance"
    assert peak < 500 * instances, f"present_all peaked at {peak / instances:.0f} B per instance"


def test_17_corpus_parse_peaks_under_twice_its_input():
    # read a line at a time, the parse holds one chunk of text and the
    # Dataset it builds, never the whole decoded text and its lines
    text = synthetic_plants_text(34781).encode()
    source = io.BytesIO(text)
    tracemalloc.start()
    try:
        dataset = parse_transactions(source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dataset.events) == 34781
    assert peak < 2 * len(text), f"parse peaked at {peak / len(text):.2f} times its input"


def test_18_low_duplication_hierarchy_under_300_bytes_per_part():
    # a part of five or more ids takes 728 B as a frozenset key, and 40 B
    # plus 8 B per id as an ascending tuple
    events = _block_events(8000, seed=3)
    store = hierarchy.HierarchyStore()
    tracemalloc.start()
    try:
        hierarchy.present_all(store, events)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    keys = [key for node in hierarchy.walk(store) for key in node.subset_counts]
    assert len(keys) > 0.5 * len(events)
    for key in keys:
        assert type(key) is tuple and all(type(v) is int for v in key), key
        assert all(a < b for a, b in zip(key, key[1:])), key
    assert retained < 300 * len(keys), f"store holds {retained / len(keys):.0f} B per part"


def test_19_transposed_grid_extract_peak_under_4_bytes_per_cell():
    # one floor per row, and no head set or neighbour set per row
    text = synthetic_plants_text(3000).encode()
    dataset = parse_transactions(io.BytesIO(text), transpose=True)
    matrix = grid.count_events(grid.CountMatrix.zeros(dataset.n), dataset.events)
    cells = sum(map(len, matrix.rows))
    tracemalloc.start()
    try:
        result = grid.extract_clusters(matrix, 2, links=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.partition.n == 3000 and result.partition.clusters
    assert peak < 4 * cells, f"extraction peaked at {peak / cells:.1f} B per nonzero cell"


class _RenderPeak:
    """A standard output that keeps nothing written to it, and restarts
    tracemalloc's peak at its first write, so the peak after the run is
    the rendering's."""

    started = False

    def write(self, text: str) -> int:
        if not self.started:
            self.started = True
            tracemalloc.reset_peak()
        return len(text)

    def flush(self) -> None:
        pass


def test_20_low_duplication_grid_json_never_holds_all_its_links(tmp_path):
    # the links are written as each row yields them; a tuple of them all
    # held while they are written would add its whole size to the peak
    events = _block_events(8000, seed=3)
    path = tmp_path / "blocks.data"
    path.write_text("".join(",".join(f"v{v}" for v in e.members) + "\n" for e in events))
    matrix = grid.count_events(grid.CountMatrix.zeros(360), events)
    tracemalloc.start()
    try:
        links = grid.extract_clusters(matrix, 2).links
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(links) > 10_000
    del links, matrix

    def render_peak(tau_link: str) -> int:
        sink = _RenderPeak()
        argv = ["cluster", "--method", "grid", "--label-policy", "members", "--input", str(path),
                "--format", "json", "--tau-link", tau_link]
        tracemalloc.start()
        try:
            with redirect_stdout(sink), redirect_stderr(io.StringIO()):
                assert entry(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.started
        return peak

    # a tau_link above every cell: the same run and rendering, with no links
    extra = render_peak("2") - render_peak("1000000")
    # measured: 0.27 times the links' size written as derived (a block of
    # link texts), 1.26 times with every link derived before the first write
    assert extra < 0.5 * held, f"writing the links took {extra:,} B more; all of them take {held:,} B"


def test_21_low_duplication_grid_is_a_compact_form_of_the_counting_mechanism():
    # tests/test_grid.py's identities once at corpus scale: each grid cell
    # and reinforce count is a sum of the cm records' local counts I
    events = _block_events(8000, seed=3)
    n = 360
    weights = Weights(2, 3)
    records = counting.present_all(counting.InstanceStore.empty(n), events, weights).records
    matrix = grid.count_events(grid.CountMatrix.zeros(n), events, weights.omega_i)
    counts = reinforce.count_events(reinforce.ReinforceState.empty(n), events, weights).counts
    cells: list[dict[int, int]] = [{} for _ in range(n)]
    holding = [0] * n
    for r in records:
        for a in r.pattern:
            holding[a] += r.local_count
            row = cells[a]
            for b in r.pattern:
                if b != a:
                    row[b] = row.get(b, 0) + r.local_count
    assert len(records) > 0.9 * len(events)
    assert matrix.rows == cells
    assert list(counts) == holding
    assert sum(r.local_count for r in records) == weights.omega_i * len(events)
    # G >= I counted in events
    assert all(r.global_count * weights.omega_i >= r.local_count * weights.omega_g for r in records)
