"""Command line driver tying the engines together.

Subcommands: ``cluster`` runs one engine end to end, ``compare`` scores one
or more engines against a reference clustering, ``tables`` renders the
three worked-example tables from the built-in fixture, and ``hierarchy``
builds and consolidates a pattern hierarchy.

Each engine run yields one ``EngineRun``: what it found, and renderers that
``_run_method`` binds to the engine's result, so nothing else reads it. Only
the requested format's renderer runs; ``compare`` runs none. JSON output
is ``json.dumps(payload, indent=2)`` text, its large sections written to
standard output as they are made: record lists (links, cm instances, best
matches) and matrix rows in blocks of ``jsonout.BLOCK`` characters or
more, and hierarchy nodes one per ``write`` call. The grid's links are
derived as they are written, so JSON output never holds them all, and the
``extract`` time of a grid run does not include their scan.

``compare`` runs the engines grid first (``COMPUTE_ORDER``), which peaks
lowest in memory, and writes everything in ``--method`` order: standard
output, the ``timing[<method>]`` lines, the ``timing_ms`` keys, and the
configuration error of the first engine in that order that refuses.

Output determinism is a hard contract: the same command on the same input
produces byte-identical standard output. Timing always goes to standard
error; ``--timing`` additionally embeds the (necessarily unstable) numbers
in the payload for whoever asks for them.

Exit codes: 0 success, 1 input error, 2 configuration error, 141 (128 +
SIGPIPE) standard output closed by its reader, which is not reported.

``main``, the process entry, runs ``entry`` without the cyclic garbage
collector and ends the process without interpreter teardown once standard
output and standard error are flushed. ``entry`` is the in-process API: it
returns the exit code and leaves the collector's state alone.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, NoReturn, Sequence

from . import counting, grid, jsonout, reinforce
from .ingest import (
    FIXTURES,
    LabelPolicy,
    ReferenceClusters,
    load_fixture,
    load_reference_path,
    parse_transactions_path,
)
from .model import ConfigError, DataError, Dataset, InterPatternLink, Partition, Weights

METHODS = ("reinforce", "cm", "grid")
# The order ``compare`` runs the engines in, whatever order it reports them
# in. The grid's row dicts are the largest thing any engine builds, and the
# C heap hands their memory back once they are freed, so the smaller stages
# after them stay under their peak. The pages cm's many small records leave
# resident once freed cannot hold those rows, so a grid run after cm peaks
# that much higher: on the 8,000-event low-duplication corpus, 23.4-23.6 MB
# against 21.5-21.7 MB, under PYTHONMALLOC=malloc as well.
COMPUTE_ORDER = ("grid", "cm", "reinforce")

# the most cells ``cluster --method grid`` renders: 4,096 variables. The
# matrix is made a row at a time, but its text still grows as n squared
GRID_CELL_LIMIT = 1 << 24


def _number(text: str):
    """Numeric flag values; integers stay integers so rendered counts do
    not grow a spurious decimal point. An integer past the float range is
    refused as ``inf`` is, so no count nears ``int``'s digit limit for
    ``str``."""
    try:
        value = int(text)
    except ValueError:
        return _finite_float(text)
    if abs(value) > sys.float_info.max:
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _finite_float(text: str) -> float:
    """A float flag value; nan and infinities are refused, since no count
    or threshold can use them and JSON cannot carry them."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="path to a transaction file")
    source.add_argument("--fixture", choices=FIXTURES, help="built-in input")
    sub.add_argument(
        "--label-policy",
        choices=[p.value for p in LabelPolicy],
        default=LabelPolicy.RECORD_LABEL.value,
        help="whether an input file's first field is a record label or a member",
    )
    sub.add_argument(
        "--transpose",
        action="store_true",
        help="pivot an input file: record labels become the vocabulary",
    )


def _add_weight_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--omega-i", type=_number, default=1, help="increment per appearance")
    sub.add_argument("--omega-g", type=_number, default=1, help="global increment per overlap")
    sub.add_argument("--delta", type=_number, default=0, help="decrement per absence")


def _add_grid_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--tau-link", type=_number, default=2, help="minimum cross-cluster count to report"
    )
    sub.add_argument(
        "--gap-ties",
        choices=["high", "low"],
        default="high",
        help="on equal gaps, cut toward the larger (high) or smaller (low) counts",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patterngrid",
        description="Count-based clustering of categorical event data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cluster = sub.add_parser("cluster", help="run one engine end to end")
    cluster.add_argument("--method", choices=METHODS, required=True)
    _add_input_flags(cluster)
    cluster.add_argument("--format", choices=["text", "json", "csv"], default="text")
    _add_weight_flags(cluster)
    _add_grid_flags(cluster)
    cluster.add_argument(
        "--singletons",
        choices=["unassigned", "clusters"],
        default="unassigned",
        help="report unclustered variables as unassigned or as one-member clusters",
    )
    cluster.add_argument("--timing", action="store_true", help="embed timing in the output")
    cluster.set_defaults(func=cmd_cluster)

    compare = sub.add_parser("compare", help="score engines against a reference")
    compare.add_argument(
        "--method",
        default="grid,reinforce",
        help="comma-separated subset of reinforce,cm,grid",
    )
    _add_input_flags(compare)
    compare.add_argument(
        "--reference",
        required=True,
        help="fixture name or path to a JSON reference clustering",
    )
    compare.add_argument("--format", choices=["text", "json"], default="text")
    _add_weight_flags(compare)
    _add_grid_flags(compare)
    compare.add_argument("--timing", action="store_true", help="embed timing in the output")
    compare.set_defaults(func=cmd_compare)

    tables = sub.add_parser("tables", help="render the worked-example tables")
    # the worked example runs every engine at its defaults
    tables.set_defaults(func=cmd_tables, tau_link=2, gap_ties="high")

    hier = sub.add_parser("hierarchy", help="build and consolidate a pattern hierarchy")
    _add_input_flags(hier)
    hier.add_argument("--format", choices=["text", "json"], default="text")
    hier.add_argument("--theta-merge", type=_finite_float, default=2.0)
    hier.add_argument("--theta-split", type=_finite_float, default=2.0)
    hier.add_argument("--theta-new", type=_finite_float, default=0.5)
    hier.add_argument("--timing", action="store_true", help="embed timing in the output")
    hier.set_defaults(func=cmd_hierarchy)

    return parser


class Timing(dict):
    """Wall milliseconds per stage, in run order: the ``timing_ms`` payload
    as it stands, and the source of every ``timing:`` line. ``compare``
    nests one record per method under the method's name."""

    @contextmanager
    def stage(self, name: str):
        started = time.perf_counter()
        yield
        self[name] = (time.perf_counter() - started) * 1000

    def line(self, label: str = "timing") -> str:
        """``<label>: <stage>=<ms>ms ...``, taken before any record is nested."""
        return f"{label}: " + " ".join(f"{name}={ms:.1f}ms" for name, ms in self.items())


def _load_dataset(args, timing: Timing) -> tuple[Dataset, str]:
    if args.fixture and args.transpose:
        raise ConfigError("--transpose pivots an input file, not a fixture")
    with timing.stage("parse"):
        if args.fixture:
            loaded = load_fixture(args.fixture)
            if not isinstance(loaded, Dataset):
                raise ConfigError(
                    f"fixture {args.fixture!r} is a reference clustering, not an event dataset"
                )
            dataset, source = loaded, args.fixture
        else:
            policy = LabelPolicy(args.label_policy)
            dataset = parse_transactions_path(args.input, policy, transpose=args.transpose)
            source = args.input
    if dataset.diagnostics:
        print(f"diagnostics: {len(dataset.diagnostics)} lines skipped", file=sys.stderr)
        print("\n".join(f"  {d}" for d in dataset.diagnostics), file=sys.stderr)
    return dataset, source


def _listed(title: str, rows) -> list[str]:
    """``title:`` over the rows, indented, or ``title: (none)`` when there are none."""
    rows = [f"  {row}" for row in rows]
    return [f"{title}:", *rows] if rows else [f"{title}: (none)"]


def _cluster_section(partition: Partition, links, labels: Sequence[str]) -> list[str]:
    unassigned = partition.label_unassigned(labels)
    link_rows = (f"{labels[l.a]}-{labels[l.b]} strength {l.strength}" for l in links or ())
    return [
        *_listed("clusters", map(",".join, partition.label_clusters(labels))),
        f"unassigned: {','.join(unassigned) if unassigned else '(none)'}",
        *_listed("links", link_rows),
    ]


def _reinforce_text(state: reinforce.ReinforceState, bands, labels, write) -> None:
    width = max(len(l) for l in labels)
    counts = (f"{labels[v].ljust(width)} {state.counts[v]}" for v in range(state.n))
    groups = (f"{value}: {','.join(sorted(labels[v] for v in group))}" for value, group in bands)
    write("\n".join([*_listed("counts", counts), *_listed("bands", groups)]) + "\n")


def _instances_text(store: counting.InstanceStore, labels, write) -> None:
    names = [",".join(sorted(labels[v] for v in r.pattern)) for r in store.records]
    width = max((len(n) for n in names), default=0)
    rows = (
        f"{name.ljust(width)}  I={r.local_count}  G={r.global_count}  coherence={counting.coherence(r)}"
        for name, r in zip(names, store.records)
    )
    write("\n".join(_listed("instances", rows)) + "\n")


@dataclass(frozen=True, slots=True)
class EngineRun:
    """One engine's count and extract: what it found, and renderers bound to its
    result, called as ``text(labels, write)``, ``detail(labels)`` and ``csv(labels,
    write)``. ``links()`` starts a fresh pass over the grid's links, derived as
    they are taken; ``links`` is None for an engine that reports none (reinforce,
    cm)."""

    partition: Partition
    links: Callable[[], Iterator[InterPatternLink]] | None
    text: Callable[..., object]
    detail: Callable[..., tuple[dict, list]]
    csv: Callable[..., object]


def _run_method(method: str, dataset: Dataset, weights: Weights, args, timing: Timing) -> EngineRun:
    """Count and extract with one engine, timing each stage. Renders nothing,
    and derives no grid link until a renderer takes them."""
    n = dataset.n
    if method == "reinforce":
        with timing.stage("count"):
            state = reinforce.count_events(reinforce.ReinforceState.empty(n), dataset.events, weights)
        _refuse_overflow("omega_i", weights, state.counts)
        with timing.stage("extract"):
            bands = reinforce.band_clusters(state)
            partition = reinforce.bands_to_partition(bands, state.n)
        return EngineRun(
            partition, None, partial(_reinforce_text, state, bands),
            partial(_reinforce_json, state, bands), partial(_counts_csv, state),
        )
    if method == "cm":
        with timing.stage("count"):
            store = counting.present_all(counting.InstanceStore.empty(n), dataset.events, weights)
        _refuse_overflow("omega_i", weights, (r.local_count for r in store.records))
        _refuse_overflow("omega_g", weights, (r.global_count for r in store.records))
        with timing.stage("extract"):
            partition = counting.select_clusters(store)
        return EngineRun(
            partition, None, partial(_instances_text, store),
            partial(_streamed, "instances", _instances_json, store), partial(_instances_csv, store),
        )
    with timing.stage("count"):
        matrix = grid.count_events(grid.CountMatrix.zeros(n), dataset.events, weights.omega_i)
    _refuse_overflow("omega_i", weights, (c for row in matrix.rows for c in row.values()))
    with timing.stage("extract"):
        extracted = grid.extract_clusters(matrix, args.tau_link, ties=args.gap_ties, links=False)
    partition = extracted.partition
    return EngineRun(
        partition, partial(grid.iter_links, matrix, partition, args.tau_link),
        partial(grid.matrix_text, matrix),
        partial(_streamed, "matrix", grid.matrix_json, matrix), partial(grid.matrix_csv, matrix),
    )


def _refuse_overflow(name: str, weights: Weights, counts) -> None:
    """Refuse a float weight whose sums overflowed to infinity, which JSON
    cannot carry. Integer sums are exact and never overflow, so only a float
    weight is checked, against the counts it was summed into."""
    value = getattr(weights, name)
    if isinstance(value, float) and math.isinf(max(counts, default=0)):
        flag = "--" + name.replace("_", "-")
        raise ConfigError(f"{flag} {value:g} makes a count overflow to infinity")


def _reinforce_json(state: reinforce.ReinforceState, bands, labels) -> tuple[dict, list]:
    return {
        "counts": {labels[v]: state.counts[v] for v in range(state.n)},
        "bands": [
            {"count": value, "members": sorted(labels[v] for v in members)}
            for value, members in bands
        ],
    }, []


def _streamed(key: str, writer, result, labels) -> tuple[dict, list]:
    """A payload's ``detail`` of one section ``key``, which ``writer`` streams."""
    return {key: None}, [(key, partial(writer, result, labels))]


def _instances_json(store: counting.InstanceStore, labels, write, depth: int) -> None:
    """Write the instances as a JSON list ``depth`` levels in, in blocks."""
    name = jsonout.names(labels, depth + 2)
    record = jsonout.template(depth + 1, "pattern", "local", "global", "coherence")
    texts = (
        record % (name(r.pattern), r.local_count, r.global_count, counting.coherence(r))
        for r in store.records
    )
    jsonout.write_list(texts, depth, write)


def _links_json(links, labels, write, depth: int) -> None:
    """Write a grid's links as a JSON list ``depth`` levels in, in blocks."""
    quoted = list(map(jsonout.quote, labels))
    link = jsonout.template(depth + 1, "a", "b", "strength")
    texts = (link % (quoted[l.a], quoted[l.b], l.strength) for l in links)
    jsonout.write_list(texts, depth, write)


def _parameters(args, source: str) -> dict:
    """Result-shaping parameters only."""
    params = {"source": source}
    for name in (
        "label_policy",
        "transpose",
        "omega_i",
        "omega_g",
        "delta",
        "tau_link",
        "gap_ties",
        "singletons",
        "theta_merge",
        "theta_split",
        "theta_new",
        "reference",
    ):
        if hasattr(args, name):
            params[name] = getattr(args, name)
    if args.fixture:
        # a fixture is parsed with the members policy, whatever the flag says
        params["label_policy"] = LabelPolicy.MEMBERS.value
    return params


def _csv_section(header: str, lines, write) -> None:
    """Write one CSV section: ``header``, then one line per row, each its
    fields with a comma between, a label already quoted by ``grid.csv_field``."""
    write("\n".join([header, *lines]) + "\n")


def _counts_csv(state: reinforce.ReinforceState, labels, write) -> None:
    rows = [f"{grid.csv_field(l)},{c}" for l, c in zip(labels, state.counts)]
    _csv_section("variable,count", rows, write)


def _instances_csv(store: counting.InstanceStore, labels, write) -> None:
    """A pattern is one field: its members, sorted by label, as a CSV record
    of their own with ``;`` between them."""
    members = [grid.csv_field(label, ";") for label in labels]
    by_label = labels.__getitem__
    rows = []
    for r in store.records:
        pattern = grid.csv_field(";".join(members[v] for v in sorted(r.pattern, key=by_label)))
        rows.append(f"{pattern},{r.local_count},{r.global_count},{counting.coherence(r)}")
    _csv_section("pattern,local,global,coherence", rows, write)


def cmd_cluster(args) -> int:
    weights = Weights(args.omega_i, args.omega_g, args.delta)
    timing = Timing()
    dataset, source = _load_dataset(args, timing)
    labels = dataset.labels
    if args.method == "grid" and dataset.n**2 > GRID_CELL_LIMIT:
        raise ConfigError(
            f"a grid over {dataset.n} variables has {dataset.n**2} cells,"
            f" more than the {GRID_CELL_LIMIT} it renders"
        )
    run = _run_method(args.method, dataset, weights, args, timing)
    partition = run.partition
    links = run.links() if run.links else None
    if args.singletons == "clusters":
        partition = partition.with_singleton_clusters()
    print(timing.line(), file=sys.stderr)

    if args.format == "json":
        detail, fills = run.detail(labels)
        payload = {
            "method": args.method,
            "parameters": _parameters(args, source),
            "clusters": partition.label_clusters(labels),
            "unassigned": partition.label_unassigned(labels),
            "links": None,
            "detail": detail,
        }
        if args.timing:
            payload["timing_ms"] = timing
        fills = [("links", partial(_links_json, links or (), labels)), *fills]
        jsonout.write_payload(payload, fills, sys.stdout.write)
    elif args.format == "csv":
        run.csv(labels, sys.stdout.write)
        quoted = list(map(grid.csv_field, labels))
        ids = partition.cluster_ids()
        # each section after the engine's has a blank line before its header
        rows = [f"{label},{ci if ci >= 0 else ''}" for label, ci in zip(quoted, ids)]
        _csv_section("\nvariable,cluster", rows, sys.stdout.write)
        if links is not None:
            rows = [f"{quoted[l.a]},{quoted[l.b]},{l.strength}" for l in links]
            _csv_section("\na,b,strength", rows, sys.stdout.write)
    else:
        print(f"method: {args.method}\nvariables: {dataset.n}\nevents: {len(dataset.events)}")
        run.text(labels, sys.stdout.write)
        lines = _cluster_section(partition, links, labels)
        if args.timing:
            lines.append(timing.line())
        print("\n".join(lines))
    return 0


def _load_reference(ref: str) -> ReferenceClusters:
    if ref == "plants_reference":
        loaded = load_fixture(ref)
        assert isinstance(loaded, ReferenceClusters)
        return loaded
    if ref in FIXTURES:
        raise ConfigError(f"fixture {ref!r} is an event dataset, not a reference clustering")
    return load_reference_path(ref)


def pairwise_agreement(produced: Partition, reference: Partition):
    """``evaluate.pairwise_agreement`` under the name ``perfbench/tracing.py`` wraps."""
    from . import evaluate

    return evaluate.pairwise_agreement(produced, reference)


def cmd_compare(args) -> int:
    from .evaluate import agreement_json, agreement_text, best_matches_json

    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}")
        if m in methods[:i]:
            raise ConfigError(f"method {m!r} is repeated")
    if not methods:
        raise ConfigError("no methods requested")
    weights = Weights(args.omega_i, args.omega_g, args.delta)
    timing = Timing()
    dataset, source = _load_dataset(args, timing)
    labels = dataset.labels
    reference = _load_reference(args.reference)
    try:
        reference_partition = reference.align(labels)
    except DataError as exc:
        raise DataError(f"{args.reference}: {exc}") from None

    timing_lines = [timing.line()]
    print(timing_lines[0], file=sys.stderr)
    reports, refused = {}, {}
    for method in methods:
        timing[method] = Timing()
    # run in COMPUTE_ORDER; what is written, a refusal included, keeps --method order
    for method in sorted(methods, key=COMPUTE_ORDER.index):
        try:
            # only the partition is kept, so each engine's result is freed here
            partition = _run_method(method, dataset, weights, args, timing[method]).partition
        except ConfigError as exc:
            refused[method] = exc
        else:
            reports[method] = pairwise_agreement(partition, reference_partition)
    for method in methods:
        if method in refused:
            raise refused[method]
        timing_lines.append(timing[method].line(f"timing[{method}]"))
        print(timing_lines[-1], file=sys.stderr)

    if args.format == "json":
        payload = {
            "reference": args.reference,
            "parameters": _parameters(args, source),
            "methods": methods,
            "reports": {m: agreement_json(reports[m]) for m in methods},
        }
        if args.timing:
            payload["timing_ms"] = timing
        fills = [("best_matches", partial(best_matches_json, reports[m], labels)) for m in methods]
        jsonout.write_payload(payload, fills, sys.stdout.write)
    else:
        lines = [f"reference: {args.reference} ({len(reference.cluster_label_sets)} clusters)"]
        for method in methods:
            lines.append(f"method: {method}")
            lines.extend("  " + row for row in agreement_text(reports[method], labels))
        if args.timing:
            lines += timing_lines
        print("\n".join(lines))
    return 0


def cmd_tables(args) -> int:
    dataset = load_fixture("seven_event")
    assert isinstance(dataset, Dataset)
    labels = dataset.labels
    runs = {m: _run_method(m, dataset, Weights(), args, Timing()) for m in METHODS}

    print("== variable counts ==")
    runs["reinforce"].text(labels, sys.stdout.write)
    print("\n== unique instances ==")
    runs["cm"].text(labels, sys.stdout.write)
    selected = map(",".join, runs["cm"].partition.label_clusters(labels))
    print("\n".join(_listed("selected", selected)))
    print("\n== co-occurrence grid ==")
    runs["grid"].text(labels, sys.stdout.write)
    print("\n".join(_cluster_section(runs["grid"].partition, runs["grid"].links(), labels)))
    return 0


def cmd_hierarchy(args) -> int:
    from . import hierarchy

    timing = Timing()
    dataset, source = _load_dataset(args, timing)
    labels = dataset.labels
    store = hierarchy.HierarchyStore(
        theta_merge=args.theta_merge, theta_split=args.theta_split, theta_new=args.theta_new
    )
    with timing.stage("present"):
        hierarchy.present_all(store, dataset.events)
    with timing.stage("consolidate"):
        hierarchy.consolidate(store)
    print(timing.line(), file=sys.stderr)

    if args.format == "json":
        payload = {
            "method": "hierarchy",
            "parameters": _parameters(args, source),
            "mass": hierarchy.total_mass(store),
            "roots": None,
            "presentations": store.presentations,
        }
        if args.timing:
            payload["timing_ms"] = timing
        fills = [("roots", partial(hierarchy.tree_json, store, labels))]
        jsonout.write_payload(payload, fills, sys.stdout.write)
    else:
        lines = [
            f"presentations: {store.presentations}",
            f"mass: {hierarchy.total_mass(store)}",
        ]
        lines += hierarchy.tree_text(store, labels)
        if args.timing:
            lines.append(timing.line())
        print("\n".join(lines))
    return 0


def entry(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone; point fd 1 at devnull, so the interpreter's
        # final flush of what is still buffered cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return 141
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


def main() -> NoReturn:
    """Run ``entry`` as a one-shot process and end it with ``os._exit``.

    The engines' structures hold no reference cycles, so reference counting
    frees them: what a run leaves for the cyclic collector is a few hundred
    objects, however large the input (``tests/test_cyclic_garbage.py``).
    Collections during the run and the interpreter's teardown after it only
    cost time. An exception that escapes ``entry``, argparse's
    ``SystemExit`` included, and a flush that fails here leave through the
    normal exit, which reports them as it would without ``main``.
    """
    gc.disable()
    code = entry()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    main()
