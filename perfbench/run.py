"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload eafe --seed 0 --seconds 10 --trace 0

Run from the repository root. The workload is set up at least
SETUP_REPS times and until SETUP_MIN_S have passed (``setup_s`` is the
median), then timed passes run back to back until ``--seconds`` have
passed and at least MIN_PASSES have run. A pass is a fixed list of AFE
runs; ``wall_s`` is the sum over the runs of
each run's median time across the passes. A speed.Clock times every
set-up and run and calibrates after each; ``setup_s`` and ``wall_s``
are scaled to its reference host speed (see speed.py), and the raw
times are per-layer metrics. Every
pass's output is checked (see checks.py); set-ups and passes of one
seed must agree exactly. With ``--trace 0`` the last stdout line carries
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` at least
MIN_TRACE_PAIRS pairs of untraced and traced passes run, then any
untimed work the per-layer metrics need, and it carries the per-layer
metrics, including the tracing overhead. The exit code is 1 when a
check fails, 2 when the source tree is missing.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
# A set-up that takes milliseconds (nfs loads its datasets only) is
# repeated until this long has passed, so its median is not one timer tick.
SETUP_MIN_S = 1.0
# At least this many passes, so that every run is checked to repeat.
MIN_PASSES = 2
MIN_TRACE_PAIRS = 2
# Stop starting passes after this long, to stay inside a 180 s run.
PASS_DEADLINE_S = 120.0


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


def _sum(recs, key, methods=("E-AFE", "NFS")):
    return sum(r[key] for r in recs if r.get("method") in methods and key in r)


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def outcome_metrics(recs: list[dict]) -> dict:
    """Per-layer values read from a pass's outputs rather than from spans."""
    return {
        "score": statistics.fmean(r["score"] for r in recs),
        "engine.n_generated": _sum(recs, "n_generated"),
        "engine.n_evaluated": _sum(recs, "n_evaluated"),
        "engine.accept_ratio": _div(_sum(recs, "n_selected"), _sum(recs, "n_evaluated")),
    }


def wall_of_runs(run_times: list[list[float]]) -> float:
    """Pass time as the sum over runs of each run's median over passes."""
    return sum(statistics.median(ts) for ts in zip(*run_times))


def _walls(passes, traced: bool) -> list[list[float]]:
    """Per-run raw times of the untraced or the traced passes."""
    return [p[4] for p in passes if p[1] == traced]


def measure(wl, seconds: float, trace: bool, started: float) -> tuple[dict, dict]:
    """Set up, run timed passes, check them; return (result, trace info)."""
    from perfbench import checks
    from perfbench.speed import Clock
    from perfbench.trace import Tracer, layer_metrics, setup_metrics

    setups = []
    problems: list[str] = []
    tracer = Tracer()
    clock = Clock()
    t_setup = time.perf_counter()
    while len(setups) < SETUP_REPS or time.perf_counter() - t_setup < SETUP_MIN_S:
        # A traced run also traces its second set-up (the first starts
        # Spark): FPE training (signatures, MLP fits) happens only there.
        traced = trace and len(setups) == 1
        with clock.segment("setup") as seg, tracer if traced else nullcontext():
            phases = wl.setup()
        phases["total"] = seg[0]
        setups.append(phases)
        if len(setups) == 1:
            first = wl.fingerprint()
        elif wl.fingerprint() != first:
            problems.append("set-up of one seed gave different inputs on repeat")

    setup_spans = list(tracer.spans)
    # (elapsed with calibrations, traced, records, values, run times)
    passes: list[tuple[float, bool, list, dict, list]] = []
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        # Traced and untraced passes come in pairs, each pair in the
        # opposite order to the one before, so a warm-up or a drift in
        # machine speed does not land on one side only.
        traced = trace and (attempted % 2) != (attempted // 2) % 2
        attempted += 1
        run_times: list[float] = []

        @contextlib.contextmanager
        def run(name):
            """One run of the pass: timed, and a span when traced."""
            with clock.segment("pass") as seg:
                with tracer.span(name) if traced else nullcontext():
                    yield
            run_times.append(seg[0])

        try:
            with tracer if traced else nullcontext():
                t0 = time.perf_counter()
                recs, extra = wl.run_pass(run)
                wall = time.perf_counter() - t0
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
        else:
            problems += wl.check(recs)
            if passes:
                problems += checks.check_repeat(passes[0][2], recs)
            passes.append((wall, traced, recs, extra, run_times))
        now = time.perf_counter()
        enough = now - t_start >= seconds and (
            attempted >= MIN_PASSES if not trace
            else attempted >= MIN_TRACE_PAIRS * 2 and attempted % 2 == 0
        )
        if enough or now - started > PASS_DEADLINE_S:
            break

    # Untimed work some workloads run once for their per-layer metrics.
    after_values: dict = {}
    try:
        after = wl.after_passes() if passes and trace else None
    except Exception:
        traceback.print_exc(file=sys.stderr)
        attempted += 1
        failed += 1
    else:
        if after is not None:
            attempted += 1
            after_values, after_problems = after
            problems += after_problems

    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    # A pass's wall time is the sum of its runs', without the calibrations.
    walls = [sum(ts) for ts in _walls(passes, False)]
    traced_walls = [sum(ts) for ts in _walls(passes, True)]
    complete = bool(walls) and (bool(traced_walls) or not trace)
    result = {"correct": not problems and complete, "attempted": attempted,
              "failed": failed}
    if not complete:
        return result, {}
    if not trace:
        values = {
            "wall_s": wall_of_runs(_walls(passes, False)) * clock.factor("pass"),
            "setup_s": statistics.median(s["total"] for s in setups) * clock.factor("setup"),
            "peak_rss_mb": _peak_rss_mb(),
        }
    else:
        mean_traced = statistics.fmean(traced_walls)
        values = {
            "fpe_recall": 0.0, "speedup_vs_nfs": 0.0, "eval_ratio_vs_nfs": 0.0,
            "spark.child_rss_mb": 0.0, "spark.cells": 0, "spark.makespan_s": 0.0,
            "spark.cell_s_sum": 0.0, "spark.cell_s_max": 0.0, "spark.idle_frac": 0.0,
            "spark.critical_frac": 0.0,
        }
        values.update(outcome_metrics(passes[0][2]))
        pass_spans = tracer.spans[len(setup_spans):]
        values.update(layer_metrics(pass_spans, len(traced_walls), mean_traced))
        for p in passes:
            if p[1]:
                values.update(p[3])  # workload values of the last traced pass
        values.update(after_values)
        values["trace.overhead"] = statistics.median(traced_walls) / statistics.median(walls) - 1
        values["trace.wall_s"] = mean_traced
        values["raw.wall_s"] = wall_of_runs(_walls(passes, False))
        values["raw.setup_s"] = statistics.median(s["total"] for s in setups)
        values["host.slowdown"] = clock.slowdown()
        values["fpe.pass_ratio"] = _div(
            _sum(passes[0][2], "n_evaluated", ("E-AFE",)), values["fpe.predict_calls"]
        )
        values.update(setup_metrics(setup_spans))
        values["fpe.label_s"] = statistics.median(s.get("label_s", 0.0) for s in setups)
        values["spark.start_s"] = setups[0].get("spark_s", 0.0)
    spec = _spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    result["metrics"] = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                         for m in wanted}
    info = {"setups": setups, "calibrations": clock.refs,
            "walls": [(p[0], p[1], p[4]) for p in passes],
            "records": passes[0][2], "problems": problems}
    return result, {"info": info, "tracer": tracer}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT))
    from perfbench import env

    out_dir = env.configure(ROOT)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    try:
        result, extra = measure(wl, args.seconds, bool(args.trace), started)
    finally:
        wl.close()
    if args.trace and "metrics" in result:
        # Spark's JVM and its Python workers have been reaped by close().
        result["metrics"]["spark.child_rss_mb"]["value"] = _peak_rss_mb(
            resource.RUSAGE_CHILDREN)
    prov = env.provenance(ROOT, **wl.config(), seconds=args.seconds, trace=args.trace)
    if extra:
        run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        meta = {"provenance": prov, "result": result, **extra["info"]}
        extra["tracer"].dump(out_dir / f"{run_name}.json", meta)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
