"""Smoke test of the benchmark itself: ``python -m pytest perf/ -q``.

Tier-1 (``testpaths = ["tests"]``) does not collect this file. It runs the
``--quick`` configuration (100-item document, sub-second windows) end to
end and checks that the result carries every metric ``BENCHMARK.json``
names, for every workload, and that the answer checks actually ran.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    DECLARED = json.load(_handle)
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
END_TO_END = {m["name"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"] for m in DECLARED["per_layer"]}


def test_quick_run_reports_every_declared_metric(tmp_path):
    out = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, RUN, "--quick", "--seed", "0", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    report = json.loads(out.read_text())
    assert set(report["workloads"]) == set(WORKLOADS)
    assert report["environment"]["cpu_count"] == os.cpu_count()
    for name, entry in report["workloads"].items():
        untraced, traced = entry["untraced"], entry["traced"]
        assert set(untraced["metrics"]) == END_TO_END, name
        assert set(traced["metrics"]) == PER_LAYER, name
        for run in (untraced, traced):
            assert run["correct"] and run["failed"] == 0, (name, run["problems"])
            assert run["attempted"] > 0
        assert untraced["store"]["distinct_reads"] > 0  # answers were compared
        assert all(m["value"] > 0 for m in untraced["metrics"].values()), name
        assert os.path.exists(os.path.join(ROOT, traced["trace_file"]))
    hot = report["workloads"]["twig-hot"]["untraced"]
    cold = report["workloads"]["twig-cold"]["untraced"]
    assert hot["answers_digest"] == cold["answers_digest"]


def test_driver_mode_prints_one_result_object_last():
    declared_units = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    done = subprocess.run(
        [sys.executable, RUN, "--quick", "--workload", "serve-rw", "--seed", "3",
         "--seconds", "0.2", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared_units
