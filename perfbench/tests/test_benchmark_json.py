"""BENCHMARK.json names exactly what run.py prints."""
import json
from pathlib import Path

import run
from workloads import WORKLOADS

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        n: run.unit(n) for n in run.per_layer_names()}


def test_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
