"""Timings scaled to a reference host speed.

The benchmark runs on shared hosts whose speed drifts: a fixed piece of
work takes up to 50% longer for tens of seconds at a time, a whole
process can stay in a slow or a fast phase, and the guest sees no steal
time (CPU time grows with wall time). A median over a run's passes
cannot remove a slow phase that lasts the whole run.

So every timed segment of work (one set-up, one run of a pass) is
followed by ``calibrate()``, a fixed computation written here, with no
code from ``repro``: a depth-limited histogram split search on a small
fixed matrix of bin codes, the same kind of short numpy calls
(``np.add.at``, cumulative sums) and Python recursion that dominate the
program's tree fitting. A phase's times (the set-ups, or
the passes) are scaled by ``REF_S`` over the median calibration of that
phase: the time the work would have taken on a host where
``calibrate()`` takes ``REF_S``. One calibration is too short to place
the host's speed during the segment before it, so a phase is scaled by
the median over all its calibrations. A change to the program moves the
raw times and not the calibrations, so it shows in full in the scaled
times.
"""
from __future__ import annotations

import contextlib
import time

import numpy as np

# Typical time of calibrate() on a 4-core Xeon (2.1 GHz) container.
REF_S = 0.035

_G = np.random.default_rng(0)
_BINS = 32
_XB = _G.integers(0, _BINS, (120, 8)).astype(np.uint8)
_Y = ((_XB[:, 0] + 8 * _G.random(120)) > 20).astype(np.int64)
_REPS = 16
# Calibrations after a segment: one, and one more per this many seconds
# of the segment, so that the host's speed is sampled all through a phase.
CALIBRATE_EVERY_S = 0.5


def _split(idx: np.ndarray, depth: int) -> int:
    """Leaves of a Gini histogram-split search to ``depth`` over rows ``idx``."""
    n = len(idx)
    if depth == 0 or n < 4:
        return 1
    xs, y = _XB[idx], _Y[idx]
    nf = xs.shape[1]
    counts = np.zeros((nf, _BINS, 2))
    np.add.at(counts, (np.broadcast_to(np.arange(nf), (n, nf)), xs, y[:, None]), 1.0)
    left = np.cumsum(counts, axis=1)[:, :-1, :]
    right = counts.sum(axis=1, keepdims=True) - left
    ln, rn = left.sum(-1), right.sum(-1)
    gl = 1.0 - np.sum((left / np.maximum(ln, 1)[..., None]) ** 2, -1)
    gr = 1.0 - np.sum((right / np.maximum(rn, 1)[..., None]) ** 2, -1)
    impurity = np.where((ln > 0) & (rn > 0), ln * gl + rn * gr, np.inf)
    f, b = np.unravel_index(np.argmin(impurity), impurity.shape)
    if not np.isfinite(impurity[f, b]):
        return 1
    mask = xs[:, f] <= b
    return _split(idx[mask], depth - 1) + _split(idx[~mask], depth - 1)


def calibrate() -> float:
    """Seconds taken by the fixed reference computation."""
    t0 = time.perf_counter()
    leaves = sum(_split(np.arange(len(_Y)), 6) for _ in range(_REPS))
    dt = time.perf_counter() - t0
    if leaves <= _REPS:
        raise RuntimeError("calibration split search found no split")
    return dt


class Clock:
    """Times segments of work, calibrating after each, per phase."""

    def __init__(self):
        self.refs: dict[str, list[float]] = {}

    @contextlib.contextmanager
    def segment(self, phase: str):
        """Time the ``with`` block; the yielded list gets its raw seconds."""
        out: list[float] = []
        t0 = time.perf_counter()
        yield out
        out.append(time.perf_counter() - t0)
        refs = self.refs.setdefault(phase, [])
        refs.extend(calibrate() for _ in range(1 + int(out[0] / CALIBRATE_EVERY_S)))

    def factor(self, phase: str) -> float:
        """Scale from raw seconds in ``phase`` to reference seconds."""
        return REF_S / float(np.median(self.refs[phase]))

    def slowdown(self) -> float:
        """Median calibration time over REF_S: 1.0 on the reference host."""
        return float(np.median([r for v in self.refs.values() for r in v])) / REF_S
