"""Schema self-test (outside tier-1 ``testpaths``):

    PYTHONPATH=src python -m pytest benchmarks/trex_bench -q

Runs ``run.py --quick`` and checks that every workload and metric named
in BENCHMARK.json comes out, with a unit, and that nothing failed.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(HERE.parent.parent / "BENCHMARK.json") as _handle:
    CONTRACT = json.load(_handle)


def run(out_dir, *flags):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--out", str(out_dir),
         *flags], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def check_metrics(metrics, listed, allow_null):
    for entry in listed:
        got = metrics[entry["name"]]
        assert got["unit"] == entry["unit"]
        assert UNIT.match(got["unit"])
        if got["value"] is None:
            assert allow_null and got["reason"]
        else:
            assert isinstance(got["value"], (int, float))
    for name in metrics:
        assert NAME.match(name), name


def test_contract_file_names_are_well_formed():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in CONTRACT[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert "setup_s" in names


def test_quick_run_reports_every_workload_and_end_to_end_metric(tmp_path):
    run(tmp_path, "--quick")
    with open(tmp_path / "all.json") as handle:
        record = json.load(handle)
    for key in ("git_sha", "python", "numpy", "nproc", "cpu_model", "seed"):
        assert key in record["run"]
    for workload in CONTRACT["workloads"]:
        outcome = record["workloads"][workload["name"]]
        assert outcome["correct"], outcome["failures"]
        assert outcome["sizes"]["operations_per_pass"] > 0
        check_metrics(outcome["metrics"], CONTRACT["end_to_end"],
                      allow_null=False)
        assert outcome["metrics"]["failed_share"]["value"] == 0
        assert outcome["metrics"]["match_digest_ok"]["value"] == 1


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    stdout = run(tmp_path, "--quick", "--traced", "--workload", "plan_cold")
    with open(tmp_path / "plan_cold-traced.json") as handle:
        outcome = json.load(handle)["workloads"]["plan_cold"]
    check_metrics(outcome["metrics"], CONTRACT["per_layer"], allow_null=True)
    assert (tmp_path / "plan_cold.trace.jsonl").stat().st_size > 0
    line = json.loads(stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {e["name"] for e in CONTRACT["per_layer"]}
    assert line["correct"] and line["failed"] == 0
