"""Shuffle bytes and GC time per Spark job group, from a local event log.

The run enables ``spark.eventLog`` into a ``file:`` directory; after the
session stops, the finished log (one JSON event per line) is read here.
Each stage is attributed to the job group in its submission properties,
and each finished task adds its stage's shuffle bytes written and its
JVM GC time to that group. In local mode every task runs in the driver
JVM, so concurrent tasks each report a GC pause they overlapped: ``gc_s``
is task-seconds of GC, not wall time.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

GROUP_KEY = "spark.jobGroup.id"


def group_metrics(lines: Iterable[str]) -> dict[str, dict[str, float]]:
    """group -> {"shuffle_mb": MB written (1e6 B), "gc_s": GC seconds, "tasks": n}."""
    stage_group: dict[int, str] = {}
    out: dict[str, dict[str, float]] = {}
    for line in lines:
        if not line.strip():
            continue
        ev = json.loads(line)
        kind = ev.get("Event")
        if kind == "SparkListenerJobStart":
            group = (ev.get("Properties") or {}).get(GROUP_KEY)
            if group is not None:
                for sid in ev.get("Stage IDs", []):
                    stage_group.setdefault(sid, group)
        elif kind == "SparkListenerStageSubmitted":
            group = (ev.get("Properties") or {}).get(GROUP_KEY)
            if group is not None:
                stage_group[ev["Stage Info"]["Stage ID"]] = group
        elif kind == "SparkListenerTaskEnd":
            group = stage_group.get(ev.get("Stage ID"))
            metrics = ev.get("Task Metrics")
            if group is None or not metrics:
                continue
            g = out.setdefault(group, {"shuffle_mb": 0.0, "gc_s": 0.0, "tasks": 0})
            written = (metrics.get("Shuffle Write Metrics") or {}).get("Shuffle Bytes Written", 0)
            g["shuffle_mb"] += written / 1e6
            g["gc_s"] += metrics.get("JVM GC Time", 0) / 1e3
            g["tasks"] += 1
    return out


def read_dir(path: Path) -> dict[str, dict[str, float]]:
    """Parse the one finished event log in ``path``."""
    logs = [p for p in Path(path).iterdir() if p.is_file() and not p.name.endswith(".inprogress")]
    if len(logs) != 1:
        raise FileNotFoundError(f"expected one finished event log in {path}, found {len(logs)}")
    with logs[0].open() as f:
        return group_metrics(f)
