#!/usr/bin/env python3
"""MinoanER benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload match-restaurant --seed 42 --seconds 10 --trace 0

Run from the repository root. One driver process builds its session with
``jobs._session.get_spark`` (conf pinned through that function's
environment variables), generates the workload's KB pair from ``--seed``
and calls the entry point in a closed loop, one call at a time:

1. set-up: session start, then the pair generated and cached
   ``SETUPS`` times (the median counts);
2. the first call in the fresh session (``first_call_s``);
3. warm calls until ``--seconds`` have passed, at least ``MIN_WARM``
   (``wall_s`` is their median);
4. with ``--trace 1``, one traced load and one traced call, whose spans
   give the per-layer metrics (see ``spans.py``).

Every call passes the correctness gate (``gate.py``) or counts as failed.
The last line of stdout is the result; the line before it is a report
with the run environment and every sample.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT)]

from eventlog import read_dir  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 3
MAX_CORES = 2  # of nproc: leaves cores for the JVM's JIT and GC threads
MIN_WARM = 1
DRIVER_MEM = "2g"
SHUFFLE_PARTITIONS = "8"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def configure(work: Path, trace: bool) -> dict[str, str]:
    """Pin the session's environment before the JVM starts; keep every
    file the run writes under ``work``."""
    for d in ("local", "tmp", "conf", "events"):
        (work / d).mkdir(parents=True, exist_ok=True)
    env = {
        "SPARK_MASTER": f"local[{min(MAX_CORES, nproc())}]",
        "SPARK_DRIVER_MEM": DRIVER_MEM,
        "SPARK_SHUFFLE_PARTITIONS": SHUFFLE_PARTITIONS,
        "SPARK_LOCAL_DIRS": str(work / "local"),
        "SPARK_CONF_DIR": str(work / "conf"),
        "TMPDIR": str(work / "tmp"),
        "SPARK_LAUNCHER_OPTS": "-XX:-UsePerfData",  # no hsperfdata file in /tmp
    }
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)  # get_spark builds its own
    os.environ.update(env)
    tempfile.tempdir = env["TMPDIR"]
    # -Xms = the heap cap: left to grow on its own, the heap stopped at ~1.8 GB
    # in some runs and reached the cap in others, and peak RSS was bimodal.
    conf = {"spark.driver.extraJavaOptions":
            f"-Xms{DRIVER_MEM} -XX:-UsePerfData -Djava.io.tmpdir={work / 'tmp'}"}
    if trace:
        conf |= {
            "spark.eventLog.enabled": "true",
            "spark.eventLog.dir": (work / "events").as_uri(),
            "spark.eventLog.compress": "false",
            "spark.eventLog.rolling.enabled": "false",
        }
    (work / "conf" / "spark-defaults.conf").write_text(
        "".join(f"{k} {v}\n" for k, v in conf.items())
    )
    return env


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True, timeout=30)
    return r.stdout.strip() or "unknown"


def mem_total_mb() -> float:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / 1024
    return 0.0


def peak_rss_mb(pid: int) -> float:
    """VmHWM (peak resident set) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def jobs_in(sc, group: str) -> int:
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return len(sc.statusTracker().getJobIdsForGroup(group))


class Runner:
    """Times entry-point calls and gates each one."""

    def __init__(self, spark, workload, pair):
        self.spark, self.sc, self.wl, self.pair = spark, spark.sparkContext, workload, pair
        self.gate = workload.gate()
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.quality: dict | None = None

    def call(self, group: str) -> tuple[float, int] | None:
        """One gated call; (wall seconds, Spark jobs), or None if it failed."""
        self.attempted += 1
        try:
            self.sc.setJobGroup(group, group)
            t = time.perf_counter()
            out = self.wl.call(self.pair)
            wall = time.perf_counter() - t
            jobs = jobs_in(self.sc, group)
            self.sc.setJobGroup("gate", "gate")
            self.quality = self.wl.check(self.gate, self.pair, out)
            return wall, jobs
        except Exception as e:  # a failed call is counted, and the loop goes on
            self.failed += 1
            self.errors.append(f"{group}: {type(e).__name__}: {e}")
            traceback.print_exc(file=sys.stderr)
            return None


def traced_run(runner: Runner, seed: int) -> tuple[list[str], list, float]:
    """One traced load and one traced call; (targets found, spans, call wall)."""
    tracer = Tracer(runner.sc)
    found = tracer.install()
    try:
        tpair = runner.wl.setup(runner.spark, seed)  # kb.load span
        for df in (tpair.kb1.triples, tpair.kb2.triples, tpair.ground_truth):
            df.unpersist()
        call = tracer.open("call")
        try:
            ok = runner.call(call.group)
        finally:
            tracer.close(call)
        tracer.release()
    finally:
        tracer.uninstall()
    for s in tracer.spans:
        s.jobs = jobs_in(runner.sc, s.group)
    return found, tracer.spans, ok[0] if ok else 0.0


def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


END_TO_END = {
    "wall_s": "s", "first_call_s": "s", "setup_s": "s", "spark_jobs": "count",
    "peak_rss_mb": "MiB", "f1": "%", "recall": "%",
}


def per_layer_names() -> list[str]:
    """Every metric a traced run prints."""
    return list(layer_metrics([])) + [
        "trace.traced_wall_s", "trace.untraced_wall_s", "trace.overhead_s"]


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    field = name.rsplit(".", 1)[1]
    if field == "shuffle_mb":
        return "MB"
    if field == "s" or field.endswith("_s"):
        return "s"
    return "ratio" if field.endswith(("frac", "per_value_pair")) else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    work = ROOT / ".bench_build" / "perfbench" / f"{wl.name}-{args.seed}-{os.getpid()}"
    env = configure(work, bool(args.trace))
    try:
        return measure(wl, args, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(wl, args, env, work: Path) -> int:
    t = time.perf_counter()
    from jobs._session import get_spark

    spark = get_spark("perfbench")
    session_s = time.perf_counter() - t
    sc = spark.sparkContext
    jvm_pid = sc._jvm.java.lang.ProcessHandle.current().pid()
    gateway = sc._gateway
    try:
        loads, pair = [], None
        for _ in range(SETUPS):
            if pair is not None:
                for df in (pair.kb1.triples, pair.kb2.triples, pair.ground_truth):
                    df.unpersist()
            t = time.perf_counter()
            pair = wl.setup(spark, args.seed)
            loads.append(time.perf_counter() - t)

        runner = Runner(spark, wl, pair)
        first = runner.call("first")
        warm: list[tuple[float, int]] = []
        t0 = time.perf_counter()
        while runner.attempted - 1 < MIN_WARM or time.perf_counter() - t0 < args.seconds:
            r = runner.call(f"warm-{runner.attempted}")
            if r is not None:
                warm.append(r)
        walls = [w for w, _ in warm]

        if args.trace:
            found, spans, traced_wall = traced_run(runner, args.seed)
        rss = peak_rss_mb(jvm_pid)
        conf = {k: sc.getConf().get(k, "unset") for k in ("spark.master", "spark.driver.memory")}
        conf |= {k: spark.conf.get(k) for k in (
            "spark.sql.shuffle.partitions", "spark.sql.adaptive.enabled",
            "spark.sql.autoBroadcastJoinThreshold",
        )}
        spark_version = spark.version
    finally:
        spark.stop()
        proc = getattr(gateway, "proc", None)
        gateway.shutdown()
        if proc is not None:
            proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    quality = runner.quality or {}
    report = {
        "workload": wl.name, "preset": wl.preset, "scale": wl.scale, "seed": args.seed,
        "commit": git_commit(),
        "env": {"nproc": nproc(), "mem_total_mb": round(mem_total_mb()),
                "python": platform.python_version(), "spark": spark_version,
                "conf": conf, "env": {k: env[k] for k in (
                    "SPARK_MASTER", "SPARK_DRIVER_MEM", "SPARK_SHUFFLE_PARTITIONS")}},
        "session_s": session_s, "load_s": loads,
        "first_call_s": first[0] if first else None,
        "first_call_jobs": first[1] if first else None,
        "warm_wall_s": walls, "warm_jobs": [j for _, j in warm],
        "wall_s_samples": len(walls),
        "quality": quality, "errors": runner.errors,
    }
    metrics = {
        "wall_s": median(walls),
        "first_call_s": first[0] if first else 0.0,
        "setup_s": session_s + median(loads),
        "spark_jobs": median([j for _, j in warm]),
        "peak_rss_mb": rss,
        "f1": quality.get("f1", 0.0),
        "recall": quality.get("recall", 0.0),
    }
    if args.trace:
        overhead = traced_wall - median(walls) if traced_wall else 0.0
        report["trace"] = {"targets_found": found, "spans": len(spans)}
        metrics = layer_metrics(spans, events=read_dir(work / "events")) | {
            "trace.traced_wall_s": traced_wall,
            "trace.untraced_wall_s": median(walls),
            "trace.overhead_s": overhead,
        }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
