"""The benchmark workloads.

All are closed loops with one client: a pass starts when the previous
one ends. ``setup`` builds a pass's inputs (Spark session, datasets,
labelled corpus, FPE model) and returns its phase times; ``run_pass``
runs one timed pass, wrapping each of its runs in ``run(name)`` so the
benchmark can time it, and returns (records, workload-specific
per-layer values); in a traced run, ``after_passes`` runs the untimed
work that only per-layer metrics need, if any, and returns (per-layer
values, check violations). Sizes are set so that 22 runs of each
workload fit the benchmark's time budget; ``toy`` shrinks them further
for the self-test.
"""
from __future__ import annotations

import contextlib
import subprocess
import time

import numpy as np

from . import checks

# The engine's default AFEConfig with fewer formal epochs: one stage-1
# epoch (FPE pseudo-rewards only) and one stage-2 epoch per run. A pass
# runs each dataset several times; run i of a pass has
# AFEConfig.seed = seed * n_runs + i. How much work a run does (how many
# candidates it generates and evaluates) moves with its seed by +-25%;
# many short independent runs average that out, where a few long ones
# did not.
AFE_EPOCHS = {"epochs_stage1": 1, "epochs_stage2": 1}
AFE_DATASETS = ("labor", "fertility", "hepatitis")
EAFE_REPEATS = 4
NFS_REPEATS = 5
# FPE corpus: the same four datasets for every seed. A corpus drawn per
# seed moved set-up time and the FPE model (its d, so its signature cost)
# with the seed, by more than any bound the metrics could keep. Four
# datasets labelled by two-tree forests is the smallest corpus on which
# every MinHash family met Eq. 6 on all 60 corpus seeds tried; three
# datasets or one-tree labels broke it on some. The repo's own jobs
# label 24 datasets with ten trees.
CORPUS_SIZE = 4
CORPUS_SEED = 1000
LABEL_CV = {"k": 3, "n_trees": 2}
# The FPE is fit in set-up at seed 0 with the paper's signature size
# d = 48 rather than a search over four d, which doubles the fit time.
FPE_SEED = 0
FPE_D = 48
FPE_THRE = 0.01
# The Spark fan-out is measured, untimed, after the passes of a traced
# eafe run: one run_grid call with twice as many cells as a 4-core
# machine has Spark slots, so cells queue, with costs skewed from DL_N
# (~0.1 s) to E-AFE on Lymphography (~5 s), then a reference call of NFS
# on labor (~5 s; NFS takes 10 s or more on the other datasets) for the
# ratios to E-AFE. (run_grid hashes cells to partitions, and two NFS
# cells shared one partition, doubling the call.) A timed workload of
# such calls spread by 25% over five seeds, as much as the bound: its
# time is the longest cell's, and the cells run on all cores while the
# calibration (speed.py) samples one.
FANOUT_METHODS = ("E-AFE", "DL_N")
FANOUT_DATASETS = ("labor", "fertility", "hepatitis", "Lymphography")
REF_METHODS = ("NFS",)
REF_DATASETS = ("labor",)


@contextlib.contextmanager
def _timed(phases: dict, key: str):
    """Add the wall time of a ``with`` block to ``phases[key]``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        phases[key] = phases.get(key, 0.0) + time.perf_counter() - t0


def _afe_record(method: str, dataset: str, res) -> dict:
    return {
        "dataset": dataset,
        "method": method,
        "score": float(res.best_score),
        "base_score": float(res.base_score),
        "n_generated": int(res.n_generated),
        "n_evaluated": int(res.n_evaluated),
        "n_selected": len(res.selected_specs),
        "time_s": float(res.total_time),
    }


def _corpus_provenance() -> dict:
    return {"corpus_size": CORPUS_SIZE, "corpus_seed": CORPUS_SEED, "label_cv": LABEL_CV}


def _fpe_record(model) -> dict:
    return {
        "variant": model.variant,
        "d": int(model.d),
        "precision": float(model.precision_),
        "recall": float(model.recall_),
        "threshold": float(model.threshold_),
    }


class Workload:
    name = ""

    def __init__(self, seed: int, toy: bool = False):
        self.seed = seed
        self.toy = toy
        self.spark = None

    # -- shared set-up steps ---------------------------------------------------

    def _start_spark(self, phases: dict) -> None:
        from repro.bench.session import get_spark

        with _timed(phases, "spark_s"):
            self.spark = get_spark("perfbench")

    def _datasets(self, names, phases: dict) -> list:
        from repro.bench.datasets import by_name, load_dataset

        out = []
        with _timed(phases, "data_s"):
            for name in names:
                spec = by_name(name)
                X, y = load_dataset(spec)
                out.append((name, X.values.astype(np.float64), y, spec.task))
        return out

    def _label(self, phases: dict) -> None:
        from repro.core.fpe import label_corpus
        from repro.synth_data import fpe_corpus

        with _timed(phases, "data_s"):
            self.corpus = fpe_corpus(CORPUS_SIZE, seed=CORPUS_SEED)
        with _timed(phases, "label_s"):
            self.labels = label_corpus(self.spark, self.corpus, thre=FPE_THRE, cv_cfg=LABEL_CV)

    def _fit_ccws(self, phases: dict) -> None:
        from repro.core.fpe import FPEModel

        with _timed(phases, "fit_s"):
            self.fpe = FPEModel.fit(
                self.corpus, self.labels, fixed_variant="ccws", d_options=(FPE_D,),
                thre=FPE_THRE, seed=FPE_SEED,
            )

    def _afe_runs(self, repeats: int, phases: dict) -> list:
        """(dataset name, X, y, task, AFEConfig) for each run of a pass."""
        from repro.core.eafe import AFEConfig

        names = AFE_DATASETS[:1] if self.toy else AFE_DATASETS * repeats
        epochs = {"epochs_stage1": 1, "epochs_stage2": 1, "steps_per_agent": 2} \
            if self.toy else AFE_EPOCHS
        return [
            (*d, AFEConfig(seed=self.seed * len(names) + i, **epochs))
            for i, d in enumerate(self._datasets(names, phases))
        ]

    def _afe_provenance(self) -> dict:
        runs = getattr(self, "runs", [])
        cfgs = [vars(r[4]).copy() for r in runs]
        return {"datasets": [r[0] for r in runs],
                "afe_seeds": [c.pop("seed") for c in cfgs],
                "afe_config": cfgs[0] if cfgs else None}

    # -- interface -------------------------------------------------------------

    def config(self) -> dict:
        """Workload inputs, for the provenance record."""
        return {"workload": self.name, "seed": self.seed, "toy": self.toy}

    def setup(self) -> dict:
        raise NotImplementedError

    def fingerprint(self):
        """What set-up produced, compared across set-ups of one seed."""
        parts = [(r[0], r[1].tobytes(), r[2].tobytes()) for r in getattr(self, "runs", ())]
        if hasattr(self, "labels"):
            parts.append(self.labels.to_csv())
        if hasattr(self, "fpe"):
            parts.append(_fpe_record(self.fpe))
        return parts

    def run_pass(self, run) -> tuple[list[dict], dict]:
        raise NotImplementedError

    def after_passes(self) -> tuple[dict, list[str]] | None:
        return None

    def check(self, records: list[dict]) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        """Stop Spark and wait for its JVM to exit.

        ``SparkSession.stop`` leaves the JVM running until the Python
        process exits; closing the gateway's stdin ends it now, so the
        benchmark ends with no process of its own left and the JVM's
        memory shows in ``RUSAGE_CHILDREN``. pyspark has no public call
        for this, hence the private ``SparkContext._gateway``.
        """
        if self.spark is None:
            return
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        self.spark.stop()
        self.spark = None
        if gateway is None:
            return
        gateway.shutdown()
        SparkContext._gateway = None
        SparkContext._jvm = None
        proc = gateway.proc
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class EAFE(Workload):
    """run_afe (E-AFE, CCWS FPE) over small roster datasets."""

    name = "eafe"

    def __init__(self, seed: int, toy: bool = False):
        super().__init__(seed, toy)
        self.fanout_datasets = FANOUT_DATASETS[:1] if toy else FANOUT_DATASETS

    def config(self):
        return {**super().config(), **self._afe_provenance(),
                **_corpus_provenance(), "fpe_seed": FPE_SEED, "fpe_d": FPE_D,
                "fanout": [FANOUT_METHODS, self.fanout_datasets],
                "reference": [REF_METHODS, REF_DATASETS]}

    def setup(self):
        ph: dict = {}
        self._start_spark(ph)
        self.runs = self._afe_runs(EAFE_REPEATS, ph)
        self._label(ph)
        self._fit_ccws(ph)
        return ph

    def run_pass(self, run):
        from repro.core.eafe import run_afe

        recs = []
        for name, X, y, task, cfg in self.runs:
            with run("engine"):
                res = run_afe(X, y, task, self.fpe, cfg)
            recs.append(_afe_record("E-AFE", name, res))
        return recs, {"fpe_recall": float(self.fpe.recall_)}

    def _grid(self, methods, datasets) -> list[dict]:
        from repro.bench.harness import run_grid

        df = run_grid(self.spark, list(methods), {"ccws": self.fpe},
                      datasets=list(datasets), seed=self.seed)
        return df[["dataset", "method", "score", "base_score", "n_generated",
                   "n_evaluated", "time_s"]].to_dict("records")

    def after_passes(self):
        """The Spark fan-out call and the NFS reference call, untimed."""
        t0 = time.perf_counter()
        fanout = self._grid(FANOUT_METHODS, self.fanout_datasets)
        makespan = time.perf_counter() - t0
        ref = self._grid(REF_METHODS, REF_DATASETS)

        def total(method, key):
            return sum(r[key] for r in fanout + ref
                       if r["method"] == method and r["dataset"] in REF_DATASETS)

        cell_s = [r["time_s"] for r in fanout]
        slots = self.spark.sparkContext.defaultParallelism
        values = {
            "speedup_vs_nfs": total("NFS", "time_s") / total("E-AFE", "time_s"),
            "eval_ratio_vs_nfs": total("E-AFE", "n_evaluated") / total("NFS", "n_evaluated"),
            "spark.cells": len(fanout),
            "spark.makespan_s": makespan,
            "spark.cell_s_sum": sum(cell_s),
            "spark.cell_s_max": max(cell_s),
            "spark.idle_frac": 1.0 - sum(cell_s) / (slots * makespan),
            "spark.critical_frac": max(cell_s) / makespan,
        }
        return values, (checks.check_grid(fanout, self.fanout_datasets, FANOUT_METHODS)
                        + checks.check_grid(ref, REF_DATASETS, REF_METHODS))

    def check(self, records):
        out = checks.check_fpe(_fpe_record(self.fpe))
        for r in records:
            out += checks.check_afe(r)
        return out


class NFS(Workload):
    """run_nfs on the eafe datasets: every candidate is evaluated."""

    name = "nfs"

    def config(self):
        return {**super().config(), **self._afe_provenance()}

    def setup(self):
        ph: dict = {}
        self.runs = self._afe_runs(NFS_REPEATS, ph)
        return ph

    def run_pass(self, run):
        from repro.baselines.nfs import run_nfs

        recs = []
        for name, X, y, task, cfg in self.runs:
            with run("engine"):
                res = run_nfs(X, y, task, cfg)
            recs.append(_afe_record("NFS", name, res))
        return recs, {}

    def check(self, records):
        return [v for r in records for v in checks.check_afe(r)]


WORKLOADS = {w.name: w for w in (EAFE, NFS)}
