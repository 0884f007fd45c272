"""Smoke test for the benchmark harness: every workload at tiny sizes,
untraced and traced. It checks that every metric named in
BENCHMARK.json appears and that no op failed; it has no timing gate.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_runs_clean(workload, trace, tmp_path):
    record, code = run.run_workload(workload, seed=5, seconds=0.0, trace=trace, tiny=True,
                                    out_dir=str(tmp_path))
    assert code == 0, record["problems"]
    assert record["fail_ratio"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(record["metrics"]) == sorted(m["name"] for m in wanted)
    for metric in wanted:
        assert record["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        assert (tmp_path / f"spans-{workload}-seed5.json").is_file()
