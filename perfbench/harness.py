"""Closed-loop task runner and the statistics the benchmark reports.

A workload hands out rounds of tasks.  Each task calls the program (timed)
and then checks what came back (not timed).  Rounds are always run whole,
so every run attempts the same mix of operations whatever its length.

Task times are CPU seconds of this process (``time.process_time``).  The
program is single-threaded and never waits on I/O here, so that is the
wall time it needs, without the time another tenant of a shared machine
holds the core; on a 2-core VM that waiting moved wall-clock figures by
10-15% from minute to minute.
"""

from __future__ import annotations

import math
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Callable

from oracle import CheckFailure


@dataclass
class Task:
    """One program operation and the check of its output.

    ``fault`` names a known defect of the program: the task states the
    correct outcome, fails today, and is counted in ``failed`` instead of
    making the run incorrect.
    """

    family: str
    run: Callable[[], object]
    check: Callable[[object], None]
    fault: str | None = None


@dataclass
class RunStats:
    round_durations: list[list[float]] = field(default_factory=list)  # task CPU seconds
    family_time: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    faults: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.errors

    @property
    def rounds(self) -> int:
        return len(self.round_durations)

    @property
    def round_times(self) -> list[float]:
        return [sum(r) for r in self.round_durations]


def run_task(task: Task, stats: RunStats) -> float:
    start = process_time()
    try:
        out = task.run()
    except Exception as exc:  # the check decides whether this was expected
        out = exc
    elapsed = process_time() - start
    stats.attempted += 1
    try:
        task.check(out)
    except CheckFailure as exc:
        if task.fault:
            stats.failed += 1
            stats.faults[task.fault] = stats.faults.get(task.fault, 0) + 1
        else:
            if isinstance(out, BaseException):
                detail = "".join(traceback.format_exception_only(type(out), out)).strip()
                exc = CheckFailure(f"{exc} [{detail}]")
            stats.errors.append(f"{task.family}: {exc}")
    stats.family_time[task.family] = stats.family_time.get(task.family, 0.0) + elapsed
    return elapsed


def run_rounds(workload, seconds: float, min_rounds: int = 1,
               max_rounds: int | None = None) -> RunStats:
    """Run whole rounds, from round 0, until ``seconds`` of wall time have
    passed and at least ``min_rounds`` are done, or ``max_rounds`` are."""
    stats = RunStats()
    start = perf_counter()
    while True:
        stats.round_durations.append([run_task(task, stats) for task in workload.round(stats.rounds)])
        if max_rounds is not None and stats.rounds >= max_rounds:
            break
        if stats.rounds >= min_rounds and perf_counter() - start >= seconds:
            break
    return stats


def tail(durations: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(durations)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def summarize(stats: RunStats, tail_percentile: float) -> dict[str, float]:
    """Figures pooled over every task of the run.

    The machine this was tuned on switched between a slow and a 30-40%
    faster state that could last a whole 20 s run.  A median over rounds
    then jumps between the two states from run to run; pooled figures move
    with the share of the run spent in each, which spreads less.
    """
    durations = [d for r in stats.round_durations for d in r]
    value, beyond = tail(durations, tail_percentile)
    if beyond < 10:
        print(f"note: only {beyond} samples beyond p{tail_percentile:g}", file=sys.stderr)
    return {
        "tasks_per_s": len(durations) / sum(durations),
        "task_p50_s": statistics.median(durations),
        "task_tail_s": value,
        "tail_beyond": beyond,
    }
