"""Self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

Checks that:
- BENCHMARK.json keeps to its format's limits (keys, counts, names,
  units, bounds);
- each correctness check rejects a broken output (a NaN score, an
  ungated E-AFE run, a missing grid cell, an FPE model breaking Eq. 6, a
  pass that does not repeat) and accepts a good one;
- a pass whose output is broken makes the whole run incorrect;
- every workload, at toy size, emits every end-to-end metric (trace 0)
  and every per-layer metric (trace 1) with its unit;
- the command fails, printing nothing, in a directory that holds only
  BENCHMARK.json and perfbench/.
Exits 1 on the first failure.
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _fail(msg: str) -> None:
    print(f"SELFTEST FAILED: {msg}")
    sys.exit(1)


def check_spec(spec: dict) -> None:
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != want:
        _fail(f"BENCHMARK.json keys {sorted(spec)}")
    if not 2 <= len(spec["workloads"]) <= 8 or not 1 <= len(spec["per_layer"]) <= 128:
        _fail("workload or per-layer count out of range")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        _fail("run_seconds out of range")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(set(names)) != len(names) or not all(NAME.match(n) for n in names):
        _fail("names must be unique and match the name pattern")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            _fail(f"workload {w['name']}")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            _fail(f"end-to-end metric {m['name']}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            _fail(f"per-layer metric {m['name']}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            _fail(f"unit or direction of {m['name']}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        _fail("setup_s must be an end-to-end metric in s, lower is better")
    if setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        _fail("setup_s must have the largest bound")


def check_checks() -> None:
    from perfbench import checks

    good = {"dataset": "d", "method": "E-AFE", "score": 0.8, "base_score": 0.7,
            "n_generated": 10, "n_evaluated": 4}
    nfs = {**good, "method": "NFS", "n_evaluated": 10}
    fpe = {"variant": "ccws", "d": 32, "precision": 0.5, "recall": 0.5, "threshold": 0.4}
    cases = [
        ("good E-AFE run", checks.check_afe(good), False),
        ("good NFS run", checks.check_afe(nfs), False),
        ("good FPE model", checks.check_fpe(fpe), False),
        ("NaN score", checks.check_afe({**good, "score": math.nan}), True),
        ("score below base", checks.check_afe({**good, "score": 0.6}), True),
        ("ungated E-AFE", checks.check_afe({**good, "n_evaluated": 10}), True),
        ("NFS skipping", checks.check_afe({**nfs, "n_evaluated": 9}), True),
        ("grid missing cell", checks.check_grid([good], ["d"], ["E-AFE", "NFS"]), True),
        ("grid NaN cell", checks.check_grid(
            [{**good, "score": math.nan}], ["d"], ["E-AFE"]), True),
        ("Eq. 6 recall 1", checks.check_fpe({**fpe, "recall": 1.0}), True),
        ("Eq. 6 precision 0", checks.check_fpe({**fpe, "precision": 0.0}), True),
        ("repeat", checks.check_repeat([good], [dict(good)]), False),
        ("no repeat", checks.check_repeat([good], [{**good, "n_evaluated": 5}]), True),
    ]
    for label, problems, broken in cases:
        if bool(problems) != broken:
            _fail(f"check on {label}: got {problems}")
    print(f"ok: {len(cases)} check cases")


def check_broken_pass() -> None:
    """A NaN score coming out of a real pass makes the run incorrect."""
    from perfbench.run import measure
    from perfbench.workloads import NFS

    class Broken(NFS):
        def run_pass(self, run):
            recs, extra = super().run_pass(run)
            recs[0]["score"] = math.nan
            return recs, extra

    result, _ = measure(Broken(0, toy=True), 0.0, False, time.perf_counter())
    if result["correct"]:
        _fail("a NaN score did not fail the correctness check")
    print("ok: broken pass is reported incorrect")


def check_workloads(spec: dict) -> None:
    from perfbench.run import measure
    from perfbench.workloads import WORKLOADS

    for name, cls in WORKLOADS.items():
        for trace in (0, 1):
            wl = cls(0, toy=True)
            try:
                result, _ = measure(wl, 0.0, bool(trace), time.perf_counter())
            finally:
                wl.close()
            wanted = spec["per_layer" if trace else "end_to_end"]
            got = result.get("metrics", {})
            if not result["correct"] or result["failed"]:
                _fail(f"{name} trace {trace}: {result}")
            if list(got) != [m["name"] for m in wanted]:
                _fail(f"{name} trace {trace}: metrics {sorted(got)}")
            for m in wanted:
                v = got[m["name"]]
                if v["unit"] != m["unit"] or not math.isfinite(v["value"]):
                    _fail(f"{name} trace {trace}: {m['name']} = {v}")
            print(f"ok: {name} trace {trace} emits {len(got)} metrics")


def check_bare_directory(out: Path) -> None:
    bare = out / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [*json.loads((ROOT / "BENCHMARK.json").read_text())["command"],
           "--workload", "nfs", "--seed", "0", "--seconds", "1", "--trace", "0"]
    r = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if r.returncode == 0 or r.stdout.strip():
        _fail(f"bare directory: exit {r.returncode}, stdout {r.stdout!r}")
    print("ok: fails without the source tree")


def main() -> None:
    from perfbench import env

    out = env.configure(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    print("ok: BENCHMARK.json")
    check_checks()
    check_bare_directory(out)
    check_broken_pass()
    check_workloads(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
