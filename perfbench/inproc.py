"""The benchmark's in-process side, run as a child of ``run.py``.

Subcommands, each writing one JSON result to ``--result``:

* ``generate``: write a workload's corpus, check its defining property and
  describe it (sizes and the argv of every job).
* ``check``: run the invariant checks on job outputs saved as files.
* ``trace``: call ``patterngrid.cli.entry(argv)`` in this process for
  every job, alternating untraced and traced calls in round robin until
  the time is up, and report per-layer self times, counts, the tracing
  overhead, the digest of every output and every span (name, start, end,
  parent index, job), with seconds from the start of the run. Self times
  are scaled to the reference speed as in ``pacing.py``; span times are
  raw.
* ``record``: compute the output digests of the given seeds at full scale
  and store them in ``digests.json``, refusing any output that fails a
  check. Run it by hand when the expected output legitimately changes.

Every subcommand refuses to run unless ``patterngrid`` is imported from
the ``src`` directory of the checkout this file belongs to.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import digest
import pacing
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"


def import_checked():
    """``patterngrid.cli`` and its engine modules, imported from SRC only."""
    from patterngrid import cli, counting, grid, hierarchy, ingest, reinforce

    location = Path(cli.__file__).resolve()
    if location.parent.parent != SRC:
        raise SystemExit(f"patterngrid imported from {location}, not from {SRC}")
    return {
        "cli": cli,
        "counting": counting,
        "grid": grid,
        "hierarchy": hierarchy,
        "ingest": ingest,
        "reinforce": reinforce,
    }


def run_job(cli, argv: list[str]) -> tuple[int, bytes]:
    """Run one CLI job in this process: exit code and stdout bytes."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.entry(argv)
    return code, out.getvalue().encode("utf-8")


def timed_job(cli, argv: list[str], tracer: tracing.Tracer | None = None) -> tuple[int, bytes, float]:
    """``run_job`` timed in wall seconds, inside a root span when traced."""
    gc.collect()
    started = time.perf_counter()
    if tracer is None:
        code, data = run_job(cli, argv)
    else:
        code, data = tracer.span(tracing.ROOT, run_job, cli, argv)
    return code, data, time.perf_counter() - started


def _counts(calls: list[tracing.Call], data: bytes, job: str) -> dict[str, float]:
    """Work counts read from the objects each layer returned."""
    from patterngrid import hierarchy

    counts: dict[str, float] = {"cli.stdout_bytes": len(data)}
    for call in calls:
        args = call.arguments.arguments
        if call.name == "ingest.parse":
            events = call.result.events
            distinct = len({e.member_set() for e in events})
            counts["ingest.events"] = len(events)
            counts["ingest.distinct_sets"] = distinct
            counts["ingest.distinct_ratio"] = distinct / len(events)
            counts["ingest.skipped_lines"] = len(call.result.diagnostics)
        elif call.name == "reinforce.count":
            weights = args.get("weights")
            n = call.result.n
            updates = sum(n - len(e.members) for e in args["events"]) if weights and weights.delta else 0
            counts["reinforce.absence_updates"] = updates
        elif call.name == "counting.present":
            records = call.result.records
            counts["counting.instances"] = len(records)
            counts["counting.postings_touched"] = sum(r.global_count - 1 for r in records)
        elif call.name == "grid.count":
            matrix = call.result
            nonzero = sum(1 for row in matrix.cells for c in row if c)
            counts["grid.increments"] = matrix.increments
            counts["grid.nonzero_cells"] = nonzero
            counts["grid.fill_ratio"] = nonzero / (matrix.n * matrix.n)
        elif call.name == "grid.extract":
            counts["grid.links"] = len(call.result.links)
        elif call.name == "hierarchy.consolidate":
            nodes = list(hierarchy.walk(call.result))
            counts["hierarchy.nodes"] = len(nodes)
            counts["hierarchy.parts"] = sum(len(node.subset_counts) for node in nodes)
    if job == "compare":
        for method, report in json.loads(data)["reports"].items():
            counts[f"evaluate.f1.{method}"] = report["pairwise_f1"]
    return counts


def cmd_generate(args) -> dict:
    import_checked()
    out = Path(args.out)
    return workloads.generate(args.workload, args.seed, args.scale, out)


def cmd_check(args) -> dict:
    import_checked()
    meta = json.loads(Path(args.meta).read_text())
    outputs = {job: Path(args.outputs, f"{job}.out").read_bytes() for job in meta["jobs"]}
    return {"problems": checks.check_outputs(meta, outputs)}


def _trace_job(modules, tracer, calibrator, job: str, argv, loop_before: float):
    """One job run untraced, then traced, each timed between two reference
    loops. Returns the run's record, its output, the spans, self times and
    counts of the traced call, and the last loop time."""
    cli = modules["cli"]
    code, data, untraced = timed_job(cli, argv)
    loop_between = calibrator.measure()
    tracer.install(modules)
    try:
        traced_code, traced_data, traced = timed_job(cli, argv, tracer)
    finally:
        tracer.uninstall()
    loop_after = calibrator.measure()
    factor = pacing.speed_factor(loop_between, loop_after)
    spans, calls = tracer.take()
    layer_ms = {name: ms * factor for name, ms in tracing.self_times_ms(spans).items()}
    run = {
        "code": code or traced_code,
        "digest": digest.of_bytes(data),
        "traced_digest": digest.of_bytes(traced_data),
        "untraced_s": untraced * pacing.speed_factor(loop_before, loop_between),
        "traced_s": traced * factor,
    }
    counts = _counts(calls, traced_data, job) if not run["code"] else {}
    return run, data, spans, layer_ms, counts, loop_after


def cmd_trace(args) -> dict:
    modules = import_checked()
    meta = json.loads(Path(args.meta).read_text())
    tracer = tracing.Tracer()
    rounds = []
    spans: list[tuple] = []
    first_outputs: dict[str, bytes] = {}
    calibrator = pacing.Calibrator()
    try:
        started = time.perf_counter()
        loop = calibrator.measure()
        while pacing.another_round(len(rounds), time.perf_counter() - started, args.seconds):
            r = len(rounds)
            layer_ms: dict[str, float] = {}
            counts: dict[str, float] = {}
            runs = {}
            for job in pacing.rotated(meta["jobs"], r):
                tracer.job = f"{job}#{r}"
                runs[job], data, job_spans, job_ms, job_counts, loop = _trace_job(
                    modules, tracer, calibrator, job, meta["jobs"][job], loop)
                offset = len(spans)
                spans += [(sp.name, sp.start - started, sp.end - started,
                           None if sp.parent is None else sp.parent + offset, sp.job)
                          for sp in job_spans]
                first_outputs.setdefault(job, data)
                for name, ms in job_ms.items():
                    layer_ms[name] = layer_ms.get(name, 0.0) + ms
                for name, value in job_counts.items():
                    if name == "cli.stdout_bytes":
                        counts[name] = counts.get(name, 0) + value
                    else:
                        counts[name] = max(counts.get(name, value), value)
            rounds.append({"layer_ms": layer_ms, "counts": counts, "runs": runs})
    finally:
        calibrator.close()
    problems = checks.check_outputs(meta, first_outputs)
    # the layer counters must agree with the corpus as well as the output
    counts = rounds[0]["counts"]
    if counts.get("grid.increments") != meta["pair_work"]:
        problems["grid"].append(f"grid increments {counts.get('grid.increments')},"
                                f" expected sum k(k-1) = {meta['pair_work']}")
    if counts.get("counting.instances") != meta["distinct_sets"]:
        problems["cm"].append(f"cm stored {counts.get('counting.instances')} instances,"
                              f" expected {meta['distinct_sets']} distinct sets")
    return {"rounds": rounds, "problems": problems, "spans": spans}


def cmd_record(args) -> dict:
    cli = import_checked()["cli"]
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for workload in args.workloads:
        for seed in args.seeds:
            out = workloads.work_dir(workload, seed)
            out.mkdir(parents=True, exist_ok=True)
            try:
                meta = workloads.generate(workload, seed, 1.0, out)
                outputs = {}
                for job, argv in meta["jobs"].items():
                    code, data = run_job(cli, argv)
                    if code:
                        raise SystemExit(f"{workload} seed {seed} {job}: exit {code}")
                    outputs[job] = data
                problems = checks.check_outputs(meta, outputs)
            finally:
                workloads.remove_work_dir(out)
            if any(problems.values()):
                raise SystemExit(f"{workload} seed {seed}: {problems}")
            recorded.setdefault(workload, {})[str(seed)] = {
                job: digest.of_bytes(data) for job, data in outputs.items()
            }
            DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    return {"recorded": {w: sorted(recorded[w], key=int) for w in recorded}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    gen = sub.add_parser("generate")
    gen.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--scale", type=float, default=1.0)
    gen.add_argument("--out", required=True)
    chk = sub.add_parser("check")
    chk.add_argument("--meta", required=True)
    chk.add_argument("--outputs", required=True)
    trc = sub.add_parser("trace")
    trc.add_argument("--meta", required=True)
    trc.add_argument("--seconds", type=float, required=True)
    rec = sub.add_parser("record")
    rec.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS, default=workloads.WORKLOADS)
    rec.add_argument("--seeds", nargs="+", type=int, required=True)
    for p in (gen, chk, trc, rec):
        p.add_argument("--result", help="write the JSON result here instead of stdout")
    args = parser.parse_args()
    os.chdir(HERE.parent)  # job argv and corpus paths are relative to the checkout root
    handler = {"generate": cmd_generate, "check": cmd_check, "trace": cmd_trace, "record": cmd_record}
    result = json.dumps(handler[args.command](args))
    if args.result:
        Path(args.result).write_text(result)
    else:
        print(result)


if __name__ == "__main__":
    main()
