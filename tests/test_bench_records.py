"""Every committed BENCH_*.json record is complete enough to check a claim.

A record compares the parent commit with a change on the workloads of
BENCHMARK.json: it names the parent commit and the machine, and summarizes
each end-to-end metric of each workload over the parent/change pairs run.
"""

import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.stem)
def test_record_names_parent_environment_and_summary(path):
    record = json.loads(path.read_text())
    assert re.fullmatch(r"[0-9a-f]{40}", record["parent_commit"])
    environment = record["environment"]
    assert environment["nproc"] >= 1 and environment["python"]
    for workload in WORKLOADS:
        summary = record["summary"][workload]
        for metric in END_TO_END:
            stats = summary[metric]
            assert stats["pairs"] >= 1
            for key in ("parent_median", "change_median"):
                assert isinstance(stats[key], (int, float))
