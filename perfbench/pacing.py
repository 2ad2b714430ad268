"""How a run spends its seconds, and how fast the machine was meanwhile.

The shared 2-vCPU virtual machine this benchmark was built on changes
speed by up to 1.6x for minutes at a time, and by 10-20% from one second
to the next (other tenants share its cores and caches), so the same job's
wall time moves with it. Every timed job is therefore bracketed by a fixed reference loop
run on the same CPU just before and just after it, and its time is
reported both raw and scaled to the speed at which that loop takes
``REFERENCE_LOOP_S``: wall seconds x ``REFERENCE_LOOP_S`` / the mean of
the two loop times.

The loop has two halves: small frozenset and dict work, the kind the
CLI does, and random reads and writes over an 8 MiB buffer, because some
jobs slow down with cache contention that the first half does not feel.
Over ten plants runs, the spread of job medians across runs (quartile
distance over median) was 0.16-0.41 raw, 0.09-0.16 scaled by the first
half alone, 0.09-0.13 by the second alone and 0.02-0.11 by both. The loop
runs in a process of its own, so its buffer never counts toward the peak
RSS of a job (see ``run.py``).

Run as a script, this file is that process: it times one loop for every
line it reads and prints the seconds.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

REFERENCE_LOOP_S = 0.06
OBJECT_STEPS = 50_000
BUFFER_BYTES = 8 << 20
BUFFER_STEPS = 150_000


class Calibrator:
    """The reference loop, run on request in a child process."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )

    def measure(self) -> float:
        self._proc.stdin.write(b"\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the calibration process exited")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)
        self._proc.stdout.close()


def _serve() -> None:
    import random
    from array import array

    rng = random.Random(0)
    buffer = bytearray(BUFFER_BYTES)
    offsets = array("I", (int(rng.random() * BUFFER_BYTES) for _ in range(BUFFER_STEPS)))
    for _ in sys.stdin:
        started = time.perf_counter()
        seen: dict[frozenset[int], int] = {}
        for i in range(OBJECT_STEPS):
            key = frozenset((i % 7, i % 11, i % 13))
            seen[key] = seen.get(key, 0) + 1
        for i in offsets:
            buffer[i] = (buffer[i] + i) & 255
        sys.stdout.write(f"{time.perf_counter() - started!r}\n")
        sys.stdout.flush()


def pin_to_one_cpu() -> None:
    """Run this process, and every child it starts, on one CPU, so the loop
    and the jobs it calibrates share a core."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def speed_factor(loop_before: float, loop_after: float) -> float:
    """Multiplier taking the wall seconds of a job run between two loops
    to seconds at the reference speed."""
    return REFERENCE_LOOP_S / ((loop_before + loop_after) / 2)


def rotated(jobs, r: int) -> list[str]:
    """The jobs in the order of round ``r``: each round starts one later."""
    jobs = list(jobs)
    return jobs[r % len(jobs):] + jobs[: r % len(jobs)]


def another_round(rounds: int, elapsed: float, seconds: float) -> bool:
    """Whether a round of every job fits: always the first, then only while
    the mean round so far still ends within ``seconds``, so a run lasts
    about ``seconds`` whatever its round length."""
    return rounds == 0 or elapsed * (rounds + 1) / rounds <= seconds


if __name__ == "__main__":
    _serve()
