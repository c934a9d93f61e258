import json

import pytest

from eventlog import group_metrics, read_dir


def ev(kind, **fields):
    return json.dumps({"Event": kind, **fields})


def task_end(stage, written, gc_ms):
    return ev("SparkListenerTaskEnd", **{
        "Stage ID": stage, "Stage Attempt ID": 0,
        "Task Metrics": {"JVM GC Time": gc_ms,
                         "Shuffle Write Metrics": {"Shuffle Bytes Written": written}},
    })


LOG = [
    ev("SparkListenerApplicationStart", **{"App Name": "x"}),
    ev("SparkListenerJobStart", **{"Job ID": 0, "Stage IDs": [0, 1],
                                   "Properties": {"spark.jobGroup.id": "span-3"}}),
    ev("SparkListenerStageSubmitted", **{"Stage Info": {"Stage ID": 0},
                                         "Properties": {"spark.jobGroup.id": "span-3"}}),
    task_end(0, 2_000_000, 40),
    task_end(0, 500_000, 10),
    # stage 1 is only known from the job start: still span-3's
    task_end(1, 0, 5),
    # a job with no group (e.g. between spans) is not attributed
    ev("SparkListenerJobStart", **{"Job ID": 1, "Stage IDs": [2], "Properties": {}}),
    task_end(2, 9_999_999, 999),
    ev("SparkListenerStageSubmitted", **{"Stage Info": {"Stage ID": 3},
                                         "Properties": {"spark.jobGroup.id": "span-7"}}),
    task_end(3, 1_000, 0),
    ev("SparkListenerTaskEnd", **{"Stage ID": 3, "Task Metrics": None}),  # failed task
    "",
]


def test_shuffle_and_gc_per_group():
    m = group_metrics(LOG)
    assert set(m) == {"span-3", "span-7"}
    assert m["span-3"]["shuffle_mb"] == pytest.approx(2.5)
    assert m["span-3"]["gc_s"] == pytest.approx(0.055)
    assert m["span-3"]["tasks"] == 3
    assert m["span-7"] == {"shuffle_mb": pytest.approx(0.001), "gc_s": 0.0, "tasks": 1}


def test_read_dir_takes_the_finished_log(tmp_path):
    (tmp_path / "local-1.inprogress").write_text(task_end(9, 1, 1))
    with pytest.raises(FileNotFoundError):
        read_dir(tmp_path)
    (tmp_path / "local-2").write_text("\n".join(LOG))
    assert read_dir(tmp_path)["span-3"]["tasks"] == 3
