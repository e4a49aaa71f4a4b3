"""Self-tests of the benchmark's correctness gate.

    python3 -m pytest perfbench/tests -q

A wrong output must count as a failed operation, so a perturbed reference
drives a workload's fail ratio to 1.0; without its sources the benchmark
must refuse to run.
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402


def run_bench(script: Path, workload: str, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "0", *extra],
        capture_output=True, text=True, timeout=170,
    )


def last_json(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_reference_passes_on_the_program():
    result = last_json(run_bench(HERE / "run.py", "bundled"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2


def copy_benchmark(root: Path) -> Path:
    """The benchmark and BENCHMARK.json copied under root; returns the copied run.py."""
    shutil.copy(HERE.parent / "BENCHMARK.json", root)
    shutil.copytree(HERE, root / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    return root / HERE.name / "run.py"


def test_perturbed_reference_fails_every_operation(tmp_path):
    script = copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(HERE.parent / "src", target_is_directory=True)
    path = script.parent / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8"))
    reference["bundled"]["files"]["audit_report.txt"] = "0" * 64
    path.write_text(json.dumps(reference), encoding="utf-8")

    result = last_json(run_bench(script, "bundled"))
    assert result["correct"] is False
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"]  # fail ratio 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    done = run_bench(copy_benchmark(tmp_path), "bundled")
    assert done.returncode != 0
    assert done.stdout == ""


def test_law_check_tolerance():
    expected = {"values": oracle.law_table()}
    actual = copy.deepcopy(expected)
    assert oracle.compare(expected, actual, rel_tol=1e-15) is None
    actual["values"][6][3] += 4e-15
    assert oracle.compare(expected, actual, rel_tol=1e-15)


def test_law_oracle_matches_direct_sum():
    direct = math.fsum(math.log10(1 + 1 / (10 * k + 7)) for k in range(10, 100))
    assert abs(oracle.nth_digit_law(7, 3) - direct) < 1e-15


def test_battery_check_catches_counts_statistics_and_verdicts():
    years = [1, 2, 3, 4, 5, 6]
    columns = {"a": ["7123.5", "81234.25", "1999.0", "3500.125", "123456.5", "9000.75"]}
    regimes = [("first", 1, 3), ("second", 4, 6)]
    expected = oracle.battery(years, columns, regimes)
    assert oracle.compare(expected, copy.deepcopy(expected)) is None

    wrong_count = copy.deepcopy(expected)
    wrong_count["a"]["raw"]["histograms"]["1"]["counts"]["7"] += 1
    assert oracle.compare(expected, wrong_count)

    wrong_statistic = copy.deepcopy(expected)
    wrong_statistic["a"]["theil-natural"]["tests"]["first_benford"][0] *= 1 + 1e-9
    assert oracle.compare(expected, wrong_statistic)

    wrong_verdict = copy.deepcopy(expected)
    test = wrong_verdict["a"]["raw"]["tests"]["second_uniform"]
    test[1] = "consistent" if test[1] == "rejected" else "rejected"
    assert oracle.compare(expected, wrong_verdict)
