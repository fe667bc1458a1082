"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

Each run uses a tiny deployment (``--scale 0.005``) so the whole file takes
well under a minute.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = "0.005"

#: Defects of the program that the tiny deployment exposes.  The benchmark
#: must keep reporting them as failures until the program is fixed; then
#: the entry goes.
KNOWN_DEFECTS = {
    # The WAL record of create_dataset/upload that triggers an automatic
    # checkpoint is covered by the snapshot, which is taken inside the
    # mutation before the dataset's preview is filled.  Recovery skips the
    # record, so the recovered dataset has no preview (at scale 0.005, the
    # 400th record creates geno_subset_90).
    "ingest_history": "recovered state differs from the live state",
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def run_bench(workload, trace, work_dir, *extra, cwd=ROOT, script=None):
    command = [sys.executable, script or os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "3", "--seconds", "0.2",
               "--trace", str(trace), "--scale", TINY,
               "--work-dir", str(work_dir)] + list(extra)
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def last_json(completed):
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted_finite_with_its_unit(workload, trace,
                                                            tmp_path):
    completed = run_bench(workload, trace, tmp_path)
    result = last_json(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    if workload in KNOWN_DEFECTS:
        assert result["correct"] is False and result["failed"] >= 1
        assert KNOWN_DEFECTS[workload] + ": FAILED" in completed.stdout
    else:
        assert result["correct"] is True and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def tiny_references(tmp_path):
    """References written by make_reference.py at the tests' scale."""
    sys.path.insert(0, HERE)
    import make_reference

    out_dir = tmp_path / "reference"
    assert make_reference.main(["--scale", TINY, "--out-dir", str(out_dir),
                                "--work-dir", str(tmp_path)]) == 0
    return out_dir


def plant(path, change):
    reference = json.loads(path.read_text())
    change(reference)
    path.write_text(json.dumps(reference))


def test_planted_wrong_reference_digest_is_reported_as_failure(tmp_path):
    out_dir = tiny_references(tmp_path)
    plant(out_dir / "replay_cold.json",
          lambda ref: ref["digests"].update({min(ref["digests"]): "0" * 16}))
    result = last_json(run_bench("replay_cold", 0, tmp_path,
                                 "--reference-dir", str(out_dir)))
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["failed"] < result["attempted"]


def test_query_missing_from_the_replay_is_reported_as_failure(tmp_path):
    out_dir = tiny_references(tmp_path)
    plant(out_dir / "replay_cold.json",
          lambda ref: ref["digests"].update({"f" * 16: "0" * 16}))
    completed = run_bench("replay_cold", 0, tmp_path,
                          "--reference-dir", str(out_dir))
    result = last_json(completed)
    assert result["correct"] is False and result["failed"] >= 1
    assert ("replayed queries differ from the reference's: FAILED"
            in completed.stdout)


def test_history_figures_are_checked_against_the_reference(tmp_path):
    out_dir = tiny_references(tmp_path)
    message = "history figures differ from the reference's: FAILED"
    completed = run_bench("ingest_history", 0, tmp_path,
                          "--reference-dir", str(out_dir))
    last_json(completed)
    assert message not in completed.stdout
    # One more upload than committed, as if an upload stopped failing or
    # the history changed, must fail.
    plant(out_dir / "ingest_history.json",
          lambda ref: ref["calls"].update(upload=ref["calls"]["upload"] + 1))
    completed = run_bench("ingest_history", 0, tmp_path,
                          "--reference-dir", str(out_dir))
    result = last_json(completed)
    assert result["correct"] is False
    assert message in completed.stdout


def test_ledger_balance_fails_when_an_operation_is_lost():
    sys.path.insert(0, HERE)
    from ledger import Ledger, ledger_balances

    ledger = Ledger()
    wall = 0.0
    for _ in range(3):
        with ledger.op() as span:
            pass
        wall += span.end - span.start
    totals = ledger.totals()
    assert ledger_balances(totals, 3, wall)
    assert not ledger_balances(totals, 4, wall)
    assert not ledger_balances(totals, 3, wall + 0.01)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench("replay_cold", 0, tmp_path / "work", cwd=tmp_path,
                          script=str(tmp_path / "perfbench" / "run.py"))
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
