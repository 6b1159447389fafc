"""Process environment and provenance of a benchmark run.

``configure`` must run before numpy or pyspark is imported: BLAS thread
counts and the Spark submit arguments are read once, at import or JVM
launch. Everything the run writes (Spark scratch, temp files, traces)
goes under ``<root>/.bench_build/perfbench``.
"""
from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DRIVER_MEM = "1g"


def n_slots() -> int:
    """Spark slots: one per usable core, at most four."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


def configure(root: Path) -> Path:
    """Point imports, Spark and temp files at this checkout; return the
    directory the run may write to."""
    out = root / ".bench_build" / "perfbench"
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    # One BLAS thread per process: Spark runs one Python worker per slot,
    # so the load never exceeds the slot count.
    for var in BLAS_VARS:
        os.environ[var] = "1"
    src = str(root / "src")
    sys.path.insert(0, src)
    # Spark's Python workers import repro from the same tree.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["SPARK_LOCAL_DIRS"] = str(out / "spark-local")
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts  # the JVM that builds the command
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{n_slots()}]",
            f"--driver-memory {DRIVER_MEM}",
            f"--driver-java-options {shlex.quote(java_opts)}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.sql.warehouse.dir={shlex.quote(str(out / 'warehouse'))}",
            "pyspark-shell",
        ]
    )
    return out


def _git_sha(root: Path) -> str:
    try:
        r = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def _tree_sha(src: Path) -> str:
    """Hash of every source file, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(str(p.relative_to(src)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def provenance(root: Path, **extra) -> dict:
    import numpy
    import pyspark

    return {
        "git_sha": _git_sha(root),
        "src_sha256": _tree_sha(root / "src" / "repro"),
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "spark_master": f"local[{n_slots()}]",
        "spark_driver_memory": DRIVER_MEM,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "pyspark": pyspark.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        **extra,
    }
