"""Committed benchmark records: every BENCH_*.json at the repository root
holds a parent and a change median for each workload and end-to-end metric
that BENCHMARK.json declares."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]], [m["name"] for m in spec["end_to_end"]]


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_has_every_median(path):
    record = json.loads(path.read_text())
    workloads, metrics = declared()
    for workload in workloads:
        for metric in metrics:
            entry = record["workloads"][workload][metric]
            for side in ("parent", "change"):
                median = entry[side]["median"]
                assert isinstance(median, (int, float)) and not isinstance(median, bool), \
                    (workload, metric, side)
                assert math.isfinite(median), (workload, metric, side)
