"""A local-mode SparkSession that keeps its files in one directory and is
stopped completely: session, Py4J gateway, JVM and the JVM's Python workers.
"""
from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path


def _children(pid: int) -> list[int]:
    """Every descendant of ``pid``, read from /proc."""
    parent: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        parent[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        kids = [c for c, pp in parent.items() if pp == p]
        out += kids
        todo += kids
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def start(workdir: Path, slots: int, pythonpath: list[str]):
    """Start a session with ``slots`` task slots and its files in ``workdir``.

    ``pythonpath`` is prepended to the Python workers' import path. Must run
    before pyspark launches a JVM in this process: the temporary directories
    and driver options are read at JVM launch.
    """
    tmp = workdir / "tmp"
    local = workdir / "spark-local"
    for d in (tmp, local):
        d.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        pythonpath + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    # Every JVM (launcher and driver) keeps temporary files under ``tmp``
    # and writes no hsperfdata to the system temporary directory.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{slots}] --driver-memory 2g "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.master(f"local[{slots}]")
        .appName("dgcbench")
        .config("spark.local.dir", str(local))
        .config("spark.sql.warehouse.dir", str(workdir / "warehouse"))
        .config("spark.sql.shuffle.partitions", str(slots))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop(spark, timeout_s: float = 30.0) -> None:
    """Stop ``spark`` and wait until its JVM and worker processes have ended."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    procs = _children(proc.pid) if proc is not None else []
    try:
        spark.stop()
    finally:
        if gateway is not None:
            gateway.shutdown()
        SparkContext._gateway = None
        SparkContext._jvm = None
        if proc is not None:
            if proc.stdin is not None:
                proc.stdin.close()  # the launcher exits on EOF
            try:
                proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=timeout_s)
        deadline = time.monotonic() + timeout_s
        while any(_alive(p) for p in procs) and time.monotonic() < deadline:
            time.sleep(0.1)
        for p in procs:
            if _alive(p):
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
