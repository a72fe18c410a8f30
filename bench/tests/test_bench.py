"""Tests of the benchmark itself.

Run from the root of a checkout: ``python3 -m pytest bench/tests -q``.
The last test runs every workload end to end and takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_operations(workload):
    assert workloads.build(workload, 7) == workloads.build(workload, 7)
    assert workloads.build(workload, 7) != workloads.build(workload, 8)


def test_matmuls_hand_counted():
    # gates 1 and 2 each fold into the running product with 1 + 2 + 3
    # products for derivative orders 0, 1 and 2
    assert spans.matmuls(batch=1, gates=3, order=2) == 12


def test_oracle_does_not_import_the_program():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import oracle, workloads; "
        "print(any(m.split('.')[0] == 'cpgates' for m in sys.modules))"
    )
    done = subprocess.run([sys.executable, "-c", code, str(BENCH)], capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"


def _scan_files(tmp_path):
    from cpgates.cli import main

    assert main(["catalog", "--entry", "bb2", "--theta-over-pi", "0.3",
                 "--out", str(tmp_path / "bb2.csv")]) == 0
    assert main(["scan", "--seq", str(tmp_path / "bb2.csv"), "--min", "-1", "--max", "1",
                 "--steps", "201", "--out", str(tmp_path / "scan.csv")]) == 0
    return ("scan", "scan.csv", "bb2.csv", -1.0, 1.0, 201, 0.0, False, (37, 120))


def test_corrupted_scan_row_is_caught(tmp_path):
    check = _scan_files(tmp_path)
    assert oracle.run_check(tmp_path, check) == []

    path = tmp_path / "scan.csv"
    lines = path.read_text().splitlines()
    eps, fid, infid = lines[1 + 120].split(",")
    digit = fid.index(".") + 6
    changed = fid[:digit] + str((int(fid[digit]) + 1) % 10) + fid[digit + 1:]
    lines[1 + 120] = ",".join([eps, changed, infid])
    path.write_text("\n".join(lines) + "\n")
    failures = oracle.run_check(tmp_path, check)
    assert len(failures) == 1 and "row 120" in failures[0]


def test_residual_check_rejects_a_wrong_phase(tmp_path):
    from cpgates.cli import main

    path = tmp_path / "bb1.csv"
    assert main(["catalog", "--entry", "bb1", "--theta-over-pi", "0.3", "--out", str(path)]) == 0
    assert oracle.run_check(tmp_path, ("residual", "bb1.csv", 1, 0, 1.3)) == []
    lines = path.read_text().splitlines()
    index, theta, phi = lines[2].split(",")
    lines[2] = ",".join([index, theta, repr(float(phi) + 1e-6)])
    path.write_text("\n".join(lines) + "\n")
    assert oracle.run_check(tmp_path, ("residual", "bb1.csv", 1, 0, 1.3))


def _declared_metrics(trace: int) -> set:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_run_emits_every_declared_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert set(result["metrics"]) == _declared_metrics(trace)
