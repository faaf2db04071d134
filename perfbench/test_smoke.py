"""Smoke test of the benchmark itself: every workload at toy size.

Checks that each workload runs and passes its correctness checks, that the
untraced and traced measurements produce every metric ``BENCHMARK.json``
lists, that the command line prints the result object with every
end-to-end metric and its unit, that it refuses to run without the
program's sources, and the self-time arithmetic on a hand-built span tree.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.run import Runner, measure
from perfbench.tracing import Span, covered_length, outermost_seconds, self_times
from perfbench.workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TOY = 0.05

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


def test_spec_lists_the_implemented_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    with open(os.path.join(HERE, "targets.json"), encoding="utf-8") as handle:
        targets = json.load(handle)
    layers = {metric["name"] for metric in SPEC["per_layer"]}
    assert set(targets["per_layer"]) == layers
    for target in targets["per_layer"].values():
        assert set(target["workloads"]) <= set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_at_toy_size(name, tmp_path):
    workload = WORKLOADS[name](seed=0, workdir=str(tmp_path), scale=TOY)
    runner = Runner(workload)
    workload.generate()
    workload.setup()
    try:
        workload.reference()
        untraced = measure(workload, runner, seconds=0, trace=False)
        traced = measure(workload, runner, seconds=0, trace=True)
        reported = workload.reported()
    finally:
        workload.teardown()
    assert runner.failed == 0, runner.problems
    assert untraced["candidates_per_s"] > 0 and untraced["peak_rss_mb"] > 0
    for metric in SPEC["per_layer"]:
        assert metric["name"] in traced
    assert traced["labeling.chunks"] > 0
    for metric, (value, unit) in reported.items():
        assert unit and value == value, metric


def test_cli_prints_every_end_to_end_metric():
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "relation_lfdev",
               "--seed", "3", "--seconds", "0", "--trace", "0", "--scale", str(TOY)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    record, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert result["metrics"] == {
        metric["name"]: {"value": result["metrics"][metric["name"]]["value"],
                         "unit": metric["unit"]}
        for metric in SPEC["end_to_end"]
    }
    for key in ("seed", "sizes", "available_cpus", "nproc", "python", "numpy", "scipy",
                "input_generation_s", "candidates_per_s_tail",
                "candidates_per_s_unscaled", "host_probe_s"):
        assert key in record
    assert record["reported"]["failed_frac"] == {"value": 0.0, "unit": "frac"}


def test_cli_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "text_stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_self_time_subtracts_child_coverage():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping: cover 5) and
    # [8, 12] (clipped to 2); the [2, 3] grandchild is inside [1, 4] already.
    spans = [
        Span("pipeline.run", 0.0, 10.0, -1),
        Span("labeling.apply", 1.0, 4.0, 0),
        Span("labeling.apply", 3.0, 6.0, 0),
        Span("labelmodel.fit", 8.0, 12.0, 0),
        Span("labeling.apply", 2.0, 3.0, 1),
    ]
    assert covered_length([(1, 4), (3, 6), (8, 12)], 0.0, 10.0) == 7.0
    assert self_times(spans) == [3.0, 2.0, 3.0, 4.0, 1.0]
    # Nested same-name spans count once.
    assert outermost_seconds(spans, "labeling.apply") == 6.0
