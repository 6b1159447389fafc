"""Span recorder that wraps the program's public functions from outside.

While a ``Tracer`` is active, each target below is replaced, where it is
looked up, by a wrapper that records a span (id, parent id, name, start,
end, run id). Spans stay in memory and are written out when the run
ends. Nothing inside ``repro`` is edited; leaving the ``with`` block
restores every original attribute. Spark worker processes are not
traced.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

# (module, attribute path, span name). Module-level names are patched in
# the module that calls them, because that is where they are looked up.
TARGETS = (
    ("repro.core.eafe", "cross_val_score", "forest.cv"),
    ("repro.ml.forest", "RandomForest.predict", "forest.predict"),
    ("repro.ml.tree", "DecisionTree.fit", "tree.fit"),
    ("repro.core.fpe", "select_indices", "minhash"),
    ("repro.core.fpe", "feature_signature", "fpe.signature"),
    ("repro.core.fpe", "FPEModel.predict_proba", "fpe.predict"),
    ("repro.core.fpe", "FPEModel.fit", "fpe.fit"),
    ("repro.ml.mlp", "MLP.fit", "mlp.fit"),
    ("repro.core.policy", "AgentPolicy.act", "policy.act"),
    ("repro.core.policy", "AgentPolicy.update", "policy.update"),
    ("repro.core.transform", "FeatureSpec.to_numpy", "transform"),
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    run: int

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans for one benchmark run, grouped by pass (``run``)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0
        self._run = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _open(self, name: str) -> None:
        parent = self._stack[-1].id if self._stack else None
        s = Span(self._next_id, parent, name, time.perf_counter(), 0.0, self._run)
        self._next_id += 1
        self._stack.append(s)

    def _close(self) -> None:
        s = self._stack.pop()
        s.end = time.perf_counter()
        self.spans.append(s)

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # A recursive call (FeatureSpec.to_numpy on a sub-tree) is
            # part of its caller's span, not a new call into the layer.
            if tracer._stack and tracer._stack[-1].name == name:
                return fn(*args, **kwargs)
            tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()

        return wrapper

    # -- patching ------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self._run += 1
        for module, path, name in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name))
            else:
                new = self._wrap(raw, name)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def dump(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({"meta": meta, "spans": [asdict(s) for s in self.spans]}, f)


# -- per-layer metrics ----------------------------------------------------------


def self_time(spans: list[Span], name: str) -> float:
    """Total duration of spans ``name`` minus the time their direct
    children cover (children of one span never overlap: one thread)."""
    ids = {s.id for s in spans if s.name == name}
    child = sum(s.dur for s in spans if s.parent in ids)
    return sum(s.dur for s in spans if s.name == name) - child


def layer_metrics(spans: list[Span], n_passes: int, wall_s: float) -> dict[str, float]:
    """Per-pass counts and seconds of each traced layer.

    ``n_passes`` is the number of traced passes the spans cover and
    ``wall_s`` the mean wall time of one traced pass.
    """
    by: dict[str, list[float]] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s.dur)

    def calls(name):
        return len(by.get(name, ())) / n_passes

    def secs(name):
        return sum(by.get(name, ())) / n_passes

    def p50(name, scale):
        d = by.get(name)
        return float(np.median(d)) * scale if d else 0.0

    return {
        "tree.fit_calls": calls("tree.fit"),
        "tree.fit_s": secs("tree.fit"),
        "tree.fit_ms_p50": p50("tree.fit", 1e3),
        "forest.cv_calls": calls("forest.cv"),
        "forest.cv_s": secs("forest.cv"),
        "forest.cv_ms_p50": p50("forest.cv", 1e3),
        "forest.predict_s": secs("forest.predict"),
        "forest.share": secs("forest.cv") / wall_s,
        "minhash.calls": calls("minhash"),
        "minhash.s": secs("minhash"),
        "minhash.us_p50": p50("minhash", 1e6),
        "fpe.predict_calls": calls("fpe.predict"),
        "fpe.predict_s": secs("fpe.predict"),
        "fpe.signature_s": secs("fpe.signature"),
        "fpe.share": secs("fpe.predict") / wall_s,
        "fpe.signature_share": secs("fpe.signature") / wall_s,
        "policy.act_calls": calls("policy.act"),
        "policy.act_s": secs("policy.act"),
        "policy.update_calls": calls("policy.update"),
        "policy.update_s": secs("policy.update"),
        "transform.calls": calls("transform"),
        "transform.s": secs("transform"),
        "engine.self_s": self_time(spans, "engine") / n_passes,
    }


def setup_metrics(spans: list[Span]) -> dict[str, float]:
    """FPE training in one traced set-up: the only place MLP.fit runs."""
    fit_ids = {s.id for s in spans if s.name == "fpe.fit"}
    # Signatures computed inside FPEModel.fit, at any depth below it.
    parent = {s.id: s.parent for s in spans}

    def under_fit(s: Span) -> bool:
        p = s.parent
        while p is not None and p not in fit_ids:
            p = parent.get(p)
        return p is not None

    return {
        "fpe.fit_s": sum(s.dur for s in spans if s.name == "fpe.fit"),
        "fpe.fit_signature_s": sum(
            s.dur for s in spans if s.name == "fpe.signature" and under_fit(s)
        ),
        "mlp.fit_calls": sum(1 for s in spans if s.name == "mlp.fit"),
        "mlp.fit_s": sum(s.dur for s in spans if s.name == "mlp.fit"),
    }
