"""Tests of the benchmark itself: a smoke run of every workload, and each
correctness check rejecting a corrupted output.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cli_session  # noqa: E402
import exact_ladder  # noqa: E402
import residue_quadrature  # noqa: E402
from harness import RunStats, Task, run_task  # noqa: E402
from oracle import KUPKA, NON_KUPKA, REGULAR, CheckFailure, flatten_report  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def outcome(task: Task):
    """Run a task's program call and return its output, checked clean."""
    out = task.run()
    task.check(out)
    return out


def rejects(task: Task, out) -> bool:
    try:
        task.check(out)
    except CheckFailure:
        return True
    return False


# -- the benchmark as the driver runs it -----------------------------------

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True, done.stderr
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    faults = len(cli_session.FAULTS) if workload == "cli_session" else 0
    per_round = len(load(workload).round(0))
    assert result["failed"] * per_round == result["attempted"] * faults
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:  # every traced round is traced whole
        calls = values["cli.run_command.calls"]
        assert calls == (per_round if workload == "cli_session" else 0)
    else:
        assert all(v > 0 for v in values.values())


def test_refuses_to_run_outside_a_checkout(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_session", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == LAYER_METRICS


def test_goldens_are_the_manifest_of_the_cli_tests():
    spec = importlib.util.spec_from_file_location("test_cli", ROOT / "tests" / "test_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert cli_session.GOLDENS == module.MANIFEST


def load(name, seed=1):
    if name == "cli_session":
        return cli_session.CliSession(seed, ROOT)
    return {"exact_ladder": exact_ladder.ExactLadder,
            "residue_quadrature": residue_quadrature.ResidueQuadrature}[name](seed)


# -- corrupted outputs are rejected ----------------------------------------

def test_flipped_first_integral_verdicts_are_rejected():
    rng = random.Random(1)
    positive = exact_ladder.fibration_task(rng, 4, (1, 2), (3, 3))
    negative = exact_ladder.fibration_negative_task(rng, 4, (2, 2), (4, 4))
    assert outcome(positive) is True and outcome(negative) is False
    assert rejects(positive, False) and rejects(negative, True)


@pytest.mark.parametrize("scenario", [REGULAR, KUPKA, NON_KUPKA])
def test_flipped_kupka_verdicts_are_rejected(scenario):
    rng = random.Random(2)
    for task in (exact_ladder.kupka_task(rng, 4, (2, 2), scenario),
                 exact_ladder.kupka_distribution_task(rng, 5, 2, scenario)):
        verdict = outcome(task)
        for other in {REGULAR, KUPKA, NON_KUPKA} - {scenario}:
            assert rejects(task, dataclasses.replace(verdict, classification=other))
        assert rejects(task, dataclasses.replace(verdict, scale_consistent=False))


def test_wrong_class_and_darboux_verdicts_are_rejected():
    task = exact_ladder.class_task(random.Random(3), 5, 2, 1, 3)
    cls, report = outcome(task)
    assert rejects(task, (cls - 1, report))
    assert rejects(task, (cls, dataclasses.replace(report, radial_ok=False)))


def test_wrong_normal_form_outputs_are_rejected():
    rng = random.Random(4)
    task = exact_ladder.normal_form_task(rng, 4)
    part, data, verified = outcome(task)
    assert rejects(task, (part, data, False))
    bad = dict(part.relations)
    slot = next(iter(bad))
    bad[slot] = bad[slot][:-1] + ((99,) * len(part.nr_values),)
    assert rejects(task, (dataclasses.replace(part, relations=bad), data, verified))
    linear = exact_ladder.linear_part_task(rng, 4, True)
    analysis = outcome(linear)
    assert rejects(linear, dataclasses.replace(analysis, diagonalizable=True))


@pytest.mark.parametrize("slot", range(12))
def test_residue_off_by_1e_6_is_rejected(slot):
    task = load("residue_quadrature").round(0)[slot]
    report = outcome(task)
    assert rejects(task, dataclasses.replace(report, numeric=report.numeric + 1e-6))
    assert rejects(task, dataclasses.replace(report, numeric=complex("nan")))


def test_one_changed_byte_of_a_golden_is_rejected():
    for task in load("cli_session").round(0)[:len(cli_session.GOLDENS)]:
        code, out, err = outcome(task)
        i = len(out) // 2
        changed = out[:i] + chr(ord(out[i]) ^ 1) + out[i + 1:]
        assert rejects(task, (code, changed, err))


def test_cli_variant_checks_reject_corrupted_reports():
    tasks = [t for t in load("cli_session", 7).round(0) if t.family not in (
        "golden", "rejection", "fault")]
    assert len(tasks) == len(cli_session.VARIANTS)
    for task in tasks:
        code, out, err = outcome(task)
        assert rejects(task, (1, out, err))
        for old, new in (("Regular", "Kupka"), ("Kupka", "NonKupkaSingular"), ("true", "false"),
                         ("\"re\": 4", "\"re\": 5")):
            if old in out:
                assert rejects(task, (code, out.replace(old, new, 1), err)), old


def test_residue_report_off_by_1e_6_is_rejected():
    task = cli_session.residue_lambda_variant(random.Random(5), True)
    code, out, err = outcome(task)
    report = json.loads(out)
    report["result"]["numeric"]["re"] += 1e-6
    assert rejects(task, (code, json.dumps(report, indent=2) + "\n", err))


def test_rejections_must_exit_2_and_faults_count_as_failed():
    stats = RunStats()
    for name, argv in cli_session.FAULTS:
        run_task(cli_session.rejection_task(argv, fault=name), stats)
    assert stats.failed == len(cli_session.FAULTS) and not stats.errors
    accepted = cli_session.rejection_task(["sections-dim", "--n", "3", "--k", "2", "--c", "2"])
    assert rejects(accepted, accepted.run())


def test_text_and_json_reports_flatten_alike():
    for _name, argv in cli_session.GOLDENS:
        plain = [a for a in argv if a != "--json"]
        _, text, _ = cli_session.invoke(plain)
        _, js, _ = cli_session.invoke(plain + ["--json"])
        assert flatten_report(text, False) == flatten_report(js, True), argv
