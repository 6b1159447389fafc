"""Correctness checks on the outputs of one benchmark pass.

Each check returns a list of violations; an empty list means the output
is correct. A pass's output is a list of records (plain dicts), one per
AFE run or grid cell; ``check_fpe`` takes the record of an FPE model.
"""
from __future__ import annotations

import math

# Fields that must repeat exactly across passes of one seed.
REPEAT_KEYS = ("score", "n_generated", "n_evaluated")


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_afe(rec: dict) -> list[str]:
    """Invariants of one E-AFE or NFS run."""
    tag = f"{rec['method']}/{rec['dataset']}"
    out = []
    if not _finite(rec["score"]):
        out.append(f"{tag}: score {rec['score']!r} is not finite")
    if rec["method"] == "DL_N":
        return out
    if not _finite(rec["base_score"]):
        out.append(f"{tag}: base_score {rec['base_score']!r} is not finite")
    elif _finite(rec["score"]) and rec["score"] < rec["base_score"]:
        out.append(f"{tag}: score {rec['score']} < base_score {rec['base_score']}")
    gen, ev = rec["n_generated"], rec["n_evaluated"]
    if rec["method"] == "NFS" and ev != gen:
        out.append(f"{tag}: NFS evaluated {ev} of {gen} generated features")
    if rec["method"] == "E-AFE" and not ev < gen:
        out.append(f"{tag}: E-AFE evaluated {ev} of {gen}; the FPE gate let all through")
    return out


def check_grid(recs: list[dict], datasets, methods) -> list[str]:
    """Every (dataset, method) cell is present once, with a score."""
    out = []
    seen = [(r["dataset"], r["method"]) for r in recs]
    for cell in ((d, m) for d in datasets for m in methods):
        if seen.count(cell) != 1:
            out.append(f"grid cell {cell} appears {seen.count(cell)} times")
    for r in recs:
        out += check_afe(r)
    return out


def check_fpe(rec: dict) -> list[str]:
    """Eq. 6: the selected FPE model has Prec > 0 and Rec < 1."""
    p, r = rec["precision"], rec["recall"]
    if not (_finite(p) and _finite(r) and p > 0.0 and r < 1.0):
        return [f"FPE {rec['variant']}: precision {p}, recall {r} break Eq. 6"]
    return []


def check_repeat(first: list[dict], other: list[dict]) -> list[str]:
    """A later pass of the same seed reproduces the first exactly."""
    if len(first) != len(other):
        return [f"pass produced {len(other)} records, first pass {len(first)}"]
    out = []
    for a, b in zip(first, other):
        for k in REPEAT_KEYS:
            if a[k] != b[k]:
                out.append(f"{a['method']}/{a['dataset']}: {k} {a[k]!r} then {b[k]!r}")
    return out
