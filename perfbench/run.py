#!/usr/bin/env python3
"""End-to-end benchmark of the patterngrid CLI.

    python3 perfbench/run.py --workload plants --seed 1 --seconds 35 --trace 0

A user runs one CLI command on a transaction file and waits for the whole
result, so the load is a closed loop with one client: every job is a fresh
``python -m patterngrid`` process and the next starts only after the
previous one exits. Each round runs the set-up probe a few times and then
each of the five jobs once, in an order rotated every round; rounds repeat
for about ``--seconds``, so speed drift of the machine falls on every
metric alike. A job's time is the median over rounds of its wall time
scaled to a reference machine speed (see ``pacing.py``); the raw wall
medians are in the record. All processes run on one CPU.

With ``--trace 1`` no process is timed. Instead ``inproc.py trace`` calls
the CLI in one process, with and without timing wrappers around each
layer, and the run reports per-layer self times and work counts, and the
tracing overhead.

Every output is checked: the exit code, the same digest on every repeat,
the digest recorded in ``digests.json`` for this workload and seed when
there is one, and the invariants in ``checks.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full record of the run. The run exits with a non-zero code, and
prints no result, when it cannot measure at all, for example when the
checkout has no ``src/patterngrid``.

This process spawns every timed job, and on Linux a child's peak RSS
includes the pages it inherits from its parent, so it imports nothing from
``patterngrid``, sends job output to files, and hashes them in chunks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import digest
import pacing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
HARD_LIMIT_S = 170  # a run must end within 180 s
SETUP_PROBES_PER_ROUND = 2
SETUP_PROBE = "import patterngrid.cli as cli; cli.build_parser(); print(cli.__file__)"

END_TO_END = {
    "grid_s": "s",
    "cm_s": "s",
    "reinforce_s": "s",
    "hierarchy_s": "s",
    "compare_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# per-layer metric name -> (unit, span name for a self time)
PER_LAYER = {
    "ingest.parse_ms": ("ms", "ingest.parse"),
    "model.vocab_ms": ("ms", "model.vocab"),
    "reinforce.count_ms": ("ms", "reinforce.count"),
    "reinforce.band_ms": ("ms", "reinforce.band"),
    "counting.present_ms": ("ms", "counting.present"),
    "counting.select_ms": ("ms", "counting.select"),
    "grid.count_ms": ("ms", "grid.count"),
    "grid.extract_ms": ("ms", "grid.extract"),
    "grid.render_ms": ("ms", "grid.render"),
    "hierarchy.present_ms": ("ms", "hierarchy.present"),
    "hierarchy.consolidate_ms": ("ms", "hierarchy.consolidate"),
    "hierarchy.render_ms": ("ms", "hierarchy.render"),
    "evaluate.agreement_ms": ("ms", "evaluate.agreement"),
    "cli.self_ms": ("ms", "cli.entry"),
    "ingest.events": ("count", None),
    "ingest.distinct_sets": ("count", None),
    "ingest.distinct_ratio": ("ratio", None),
    "reinforce.absence_updates": ("count", None),
    "counting.instances": ("count", None),
    "counting.postings_touched": ("count", None),
    "grid.increments": ("count", None),
    "grid.nonzero_cells": ("count", None),
    "grid.fill_ratio": ("ratio", None),
    "grid.links": ("count", None),
    "hierarchy.nodes": ("count", None),
    "hierarchy.parts": ("count", None),
    "cli.stdout_bytes": ("bytes", None),
    "trace.overhead": ("ratio", None),
}


class BenchError(Exception):
    """The run cannot produce a measurement."""


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


class Runner:
    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.calibrator = pacing.Calibrator()

    def close(self) -> None:
        self.calibrator.close()

    def _remaining(self) -> int:
        remaining = int(self.deadline - time.monotonic())
        if remaining < 1:
            raise BenchError(f"run exceeded its {HARD_LIMIT_S} s limit")
        return remaining

    def spawn(self, argv: list[str], stdout: Path) -> tuple[int, float, float]:
        """Run one child to completion: exit code, wall seconds, peak RSS
        in MB from the child's own rusage."""
        with open(stdout, "wb") as out, open(self.work / "stderr.txt", "wb") as err:
            signal.alarm(self._remaining())
            started = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except Timeout:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise BenchError(f"run exceeded its {HARD_LIMIT_S} s limit in {argv[1:4]}") from None
            finally:
                signal.alarm(0)
            elapsed = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, elapsed, usage.ru_maxrss / 1024

    def helper(self, command: str, *args: str) -> dict:
        """Run an ``inproc.py`` subcommand and return its JSON result."""
        result = self.work / f"{command}.json"
        argv = [sys.executable, str(HERE / "inproc.py"), command, *args, "--result", str(result)]
        try:
            proc = subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=self._remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"inproc.py {command} exceeded the run's time limit") from None
        if proc.returncode:
            raise BenchError(f"inproc.py {command} failed: {proc.stderr.strip()[-2000:]}")
        return json.loads(result.read_text())


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def recorded_digests(workload: str, seed: int, scale: float) -> dict[str, str] | None:
    if scale != 1.0 or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def judge(runs: list[tuple[str, str | None, str]], recorded, problems) -> list[str]:
    """One reason per failed job run, from (job, error or None, digest)."""
    first: dict[str, str] = {}
    failures = []
    for i, (job, error, output) in enumerate(runs):
        first.setdefault(job, output)
        if error:
            failures.append(f"{job} run {i}: {error}")
        elif output != first[job]:
            failures.append(f"{job} run {i}: output differs from its first run")
        elif recorded is not None and output != recorded[job]:
            failures.append(f"{job} run {i}: output differs from the recorded digest")
        elif problems.get(job):
            failures.append(f"{job} run {i}: {'; '.join(problems[job])}")
    return failures


def median(values) -> float:
    # not statistics.median: that module adds 0.5 MB to this process
    ordered = sorted(values)
    return (ordered[len(ordered) // 2] + ordered[(len(ordered) - 1) // 2]) / 2


def summary(values: list[float]) -> dict:
    """Median with its sample count. No tail percentile is claimed: that
    needs ten samples beyond it, which no run collects."""
    return {"median": median(values), "samples": len(values),
            "min": min(values), "max": max(values)}


def measure_end_to_end(runner: Runner, meta: dict, seconds: float, recorded) -> tuple[dict, dict]:
    python = [sys.executable, "-m", "patterngrid"]
    outputs = runner.work / "out"
    outputs.mkdir()
    wall: dict[str, list[float]] = {job: [] for job in [*meta["jobs"], "setup"]}
    scaled: dict[str, list[float]] = {job: [] for job in wall}
    factors: list[float] = []
    runs: list[tuple[str, str | None, str]] = []
    rss_mb: list[float] = []
    started = time.perf_counter()
    loop_before = runner.calibrator.measure()
    r = 0
    while pacing.another_round(r, time.perf_counter() - started, seconds):
        schedule = [("setup", [sys.executable, "-c", SETUP_PROBE], runner.work / "probe.out")]
        schedule *= SETUP_PROBES_PER_ROUND
        for job in pacing.rotated(meta["jobs"], r):
            path = outputs / (f"{job}.out" if r == 0 else "next.out")
            schedule.append((job, python + meta["jobs"][job], path))
        for name, argv, path in schedule:
            code, elapsed, peak = runner.spawn(argv, path)
            loop_after = runner.calibrator.measure()
            factor = pacing.speed_factor(loop_before, loop_after)
            loop_before = loop_after
            wall[name].append(elapsed)
            scaled[name].append(elapsed * factor)
            factors.append(factor)
            if name == "setup":
                if code:
                    raise BenchError("the set-up probe failed")
                continue
            rss_mb.append(peak)
            error = None
            if code:
                stderr = (runner.work / "stderr.txt").read_text(errors="replace").strip()
                error = f"exit code {code}: {stderr[-300:]}"
            runs.append((name, error, digest.of_file(path)))
        r += 1
    # A child's peak RSS counts the pages it inherits from this process
    # (with vfork, this process's own peak), so it must stay below them all.
    # VmHWM is the peak of this process's own memory; ru_maxrss would also
    # count whatever process started this one.
    status = Path("/proc/self/status").read_text()
    spawner_mb = int(status.split("VmHWM:")[1].split()[0]) / 1024
    if spawner_mb >= min(rss_mb):
        raise BenchError(f"the spawning process peaked at {spawner_mb:.1f} MB, not below"
                         f" the smallest job's {min(rss_mb):.1f} MB")
    problems = runner.helper("check", "--meta", str(runner.work / "meta.json"),
                             "--outputs", str(outputs))["problems"]
    failures = judge(runs, recorded, problems)

    medians = {job: median(scaled[job]) for job in meta["jobs"]}
    metrics = {f"{job}_s": medians[job] for job in meta["jobs"]}
    metrics["events_per_s"] = meta["events"] * len(medians) / sum(medians.values())
    metrics["peak_rss_mb"] = max(rss_mb)
    metrics["setup_s"] = median(scaled["setup"])
    record = {
        "rounds": r,
        "wall_s": {job: summary(t) for job, t in wall.items()},
        "scaled_s": {job: summary(t) for job, t in scaled.items()},
        "speed_factors": summary(factors),
        "spawner_rss_mb": spawner_mb,
        "job_rss_mb": summary(rss_mb),
        "attempted": len(runs),
        "failed": len(failures),
        "error_rate": len(failures) / len(runs),
        "failures": failures[:20],
        "problems": problems,
    }
    return metrics, record


def measure_layers(runner: Runner, meta: dict, seconds: float, recorded) -> tuple[dict, dict]:
    result = runner.helper("trace", "--meta", str(runner.work / "meta.json"), "--seconds", str(seconds))
    rounds, problems = result["rounds"], result["problems"]
    runs = []
    for r, rnd in enumerate(rounds):
        for job, run in rnd["runs"].items():
            if run["code"]:
                error = f"exit code {run['code']}"
            elif run["digest"] != run["traced_digest"]:
                error = "traced output differs from the untraced one"
            else:
                error = None
            runs.append((job, error, run["digest"]))
    failures = judge(runs, recorded, problems)

    metrics = {}
    for name, (_, span) in PER_LAYER.items():
        if span is not None:
            metrics[name] = median(rnd["layer_ms"].get(span, 0.0) for rnd in rounds)
        elif name != "trace.overhead":
            metrics[name] = median(rnd["counts"].get(name, 0) for rnd in rounds)
    overhead = {
        job: median(rnd["runs"][job]["traced_s"] / rnd["runs"][job]["untraced_s"] for rnd in rounds)
        for job in meta["jobs"]
    }
    metrics["trace.overhead"] = median(
        sum(run["traced_s"] for run in rnd["runs"].values())
        / sum(run["untraced_s"] for run in rnd["runs"].values())
        for rnd in rounds
    )
    record = {
        "rounds": len(rounds),
        "overhead_by_job": overhead,
        "untraced_s": {job: summary([rnd["runs"][job]["untraced_s"] for rnd in rounds]) for job in meta["jobs"]},
        "layer_ms_by_round": [rnd["layer_ms"] for rnd in rounds],
        "spans": result["spans"],
        # correctness readings rather than speed readings, so not metrics
        "skipped_lines": rounds[0]["counts"].get("ingest.skipped_lines", 0),
        "f1": {name: value for name, value in rounds[0]["counts"].items() if name.startswith("evaluate.f1.")},
        "attempted": len(runs),
        "failed": len(failures),
        "error_rate": len(failures) / len(runs),
        "failures": failures[:20],
        "problems": problems,
    }
    return metrics, record


def run(args) -> dict:
    if not (SRC / "patterngrid" / "__init__.py").is_file():
        raise BenchError(f"no patterngrid package under {SRC}")
    deadline = time.monotonic() + HARD_LIMIT_S
    work = ROOT / workloads.work_dir(args.workload, args.seed)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _alarm)
    pacing.pin_to_one_cpu()
    runner = None
    try:
        runner = Runner(work, deadline)
        meta = runner.helper("generate", "--workload", args.workload, "--seed", str(args.seed),
                             "--scale", str(args.scale), "--out", str(work.relative_to(ROOT)))
        (work / "meta.json").write_text(json.dumps(meta))
        # Warm-up and location check: compiles the bytecode caches, and the
        # children must import patterngrid from this checkout's src.
        code, _, _ = runner.spawn([sys.executable, "-c", SETUP_PROBE], work / "probe.out")
        location = Path((work / "probe.out").read_text().strip()).resolve()
        if code or location != SRC / "patterngrid" / "cli.py":
            raise BenchError(f"children import patterngrid from {location}, not from {SRC}")
        recorded = recorded_digests(args.workload, args.seed, args.scale)
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, record = measure(runner, meta, args.seconds, recorded)
    finally:
        if runner is not None:
            runner.close()
        workloads.remove_work_dir(work)
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "seconds": args.seconds,
        "corpus": {k: meta[k] for k in ("generator_seed", "records", "variables", "events",
                                         "distinct_sets", "distinct_ratio")},
        "digest_source": "recorded" if recorded else "repeat-consistency only",
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
    })
    units = {name: unit for name, (unit, _) in PER_LAYER.items()} if args.trace else END_TO_END
    return {
        "record": record,
        "result": {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus size relative to the full workload (for smoke tests)")
    args = parser.parse_args()
    try:
        out = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out["record"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
