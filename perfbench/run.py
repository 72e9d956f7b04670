"""foliatk benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload exact_ladder --seed 1 --seconds 20 --trace 0

Run from the root of a foliatk checkout; the program is imported from its
``src/``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones from a separate traced pass.  Inputs come from ``--seed``
only.  Diagnostics go to stderr, and the full result, with per-family
times, to ``perfbench/out/``.  The last line of stdout is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import RunStats, Task, run_rounds, run_task, summarize
from tracing import LAYER_METRICS, Tracer, import_probe_code

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = {
    "exact_ladder": ("exact_ladder", "ExactLadder"),
    "cli_session": ("cli_session", "CliSession"),
    "residue_quadrature": ("residue_quadrature", "ResidueQuadrature"),
}
END_TO_END = [("setup_s", "s"), ("tasks_per_s", "1/s"), ("task_p50_s", "s"),
              ("task_tail_s", "s"), ("peak_rss_mb", "MB")]
SETUP_PROBES = 5
IMPORT_PROBES = 5
PROBE_TIMEOUT = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one probe and at most two traced rounds: a quick end-to-end check")
    parser.add_argument("--setup-probe", action="store_true", dest="setup_probe",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_workload(name: str, seed: int):
    module_name, class_name = WORKLOADS[name]
    cls = getattr(importlib.import_module(module_name), class_name)
    return cls(seed, ROOT) if name == "cli_session" else cls(seed)


def warm_up(workload):
    stats = RunStats()
    for task in workload.warmup():
        run_task(task, stats)
    return stats.errors


def setup_probe(name: str, seed: int) -> float:
    """CPU seconds a fresh interpreter spends from its start until it has
    imported the program, made round 0's inputs and warmed up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT)
    word, _, seconds = done.stdout.strip().partition(" ")
    if done.returncode != 0 or word != "ready":
        raise RuntimeError(f"setup probe failed (exit {done.returncode}): {done.stderr[-500:]}")
    return float(seconds)


def import_probe() -> tuple[float, int]:
    done = subprocess.run([sys.executable, "-c", import_probe_code(str(SRC))],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT, check=True)
    seconds, modules = done.stdout.split()
    return float(seconds), int(modules)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, args):
    probes = 1 if args.smoke else SETUP_PROBES
    setup = statistics.median(setup_probe(workload.name, args.seed) for _ in range(probes))
    errors = warm_up(workload)
    stats = run_rounds(workload, args.seconds)
    stats.errors[:0] = errors
    summary = summarize(stats, workload.tail_percentile)
    values = {"setup_s": setup, **summary, "peak_rss_mb": peak_rss_mb()}
    detail = {
        "rounds": stats.rounds,
        "tail_percentile": workload.tail_percentile,
        "tail_samples_beyond": summary["tail_beyond"],
        "family_s_per_round": {f: t / stats.rounds for f, t in sorted(stats.family_time.items())},
        "faults": stats.faults,
        "round_times": stats.round_times,
    }
    return stats, values, detail


def per_layer(workload, args):
    rounds = min(2, workload.trace_rounds) if args.smoke else workload.trace_rounds
    errors = warm_up(workload)
    plain = run_rounds(workload, args.seconds / 2, min_rounds=rounds)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_rounds(_TracedRounds(workload, tracer), math.inf, max_rounds=rounds)
    finally:
        tracer.uninstall()
    imports = [import_probe() for _ in range(1 if args.smoke else IMPORT_PROBES)]
    values = tracer.layer_values(rounds)
    values["cli.import_s"] = statistics.median(s for s, _ in imports)
    values["cli.import_modules"] = imports[0][1]
    values["trace.overhead_s"] = (sum(traced.round_times) - sum(plain.round_times[:rounds])) / rounds

    stats = plain
    stats.errors[:0] = errors
    stats.errors += traced.errors
    stats.attempted += traced.attempted
    stats.failed += traced.failed
    detail = {"traced_rounds": rounds, "untraced_rounds": plain.rounds,
              "spans_kept": len(tracer.spans),
              "spans": [list(s) for s in tracer.spans[:20000]]}
    return stats, values, detail


class _TracedRounds:
    """The workload's rounds with every task run inside a root span."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer

    def round(self, r):
        return [Task(t.family, self.tracer.task(t.family, t.run), t.check, t.fault)
                for t in self.workload.round(r)]


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (SRC / "foliatk" / "__init__.py", ROOT / "tests" / "golden")
               if not p.exists()]
    if missing:
        print(f"error: run from a foliatk checkout; missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = load_workload(args.workload, args.seed)

    if args.setup_probe:
        workload.round(0)
        if warm_up(workload):
            return 1
        print("ready", time.process_time(), flush=True)
        return 0

    if args.trace:
        stats, values, detail = per_layer(workload, args)
        units = LAYER_METRICS
    else:
        stats, values, detail = end_to_end(workload, args)
        units = END_TO_END
    for error in stats.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": stats.correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**result, "detail": detail, "errors": stats.errors[:100]},
                                 indent=1) + "\n", encoding="utf-8")
    print(json.dumps({k: v for k, v in detail.items() if k not in ("spans", "round_times")}),
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
