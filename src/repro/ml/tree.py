"""Histogram-based CART decision trees (classifier + regressor), numpy only.

This is the substrate under ``repro.ml.forest`` — the paper's downstream
evaluation task is Random-Forest cross-validation, and the box has no
sklearn, so the tree is built from scratch. Features are quantile-binned
to uint8 once per fit. ``grow_trees`` grows any number of trees in
lock-step: each round takes the next split-searching node of every tree
and builds all their (tree, feature, bin, class) histograms with one
``np.bincount``; the gini (or variance) scan and the argmin then run
once over the stacked arrays. AFE evaluates hundreds of candidate
features per epoch, each a cross-validation of tens of small trees, so
the per-node cost is numpy call overhead, which the lock-step shares
across trees.

Each tree still pops its nodes in its own depth-first pre-order and
draws its candidate features from its own ``default_rng(seed)`` stream,
so every split, node value and importance is the one a tree grown alone
by recursion would get. ``DecisionTree.fit`` is the one-tree case.
"""
from __future__ import annotations

import numpy as np

__all__ = ["bin_features", "apply_bins", "finite", "DecisionTree", "grow_trees", "leaf_indices"]

_LEAF = -1


def bin_features(X: np.ndarray, n_bins: int = 32) -> np.ndarray:
    """Quantile bin edges per feature; shape (F, n_bins - 1).

    Edges are interior cut points; values are later assigned with
    ``searchsorted`` so constant features collapse to a single bin.
    The edges equal ``np.quantile(X, qs, axis=0).T`` (linear method) bit
    for bit: this is numpy's interpolation, read off sorted columns in
    place of numpy's partition, which costs ~15x more on small columns.
    """
    qs = np.linspace(0, 1, n_bins + 1)[1:-1]
    S = np.sort(np.asarray(X, dtype=np.float64).T, axis=1)  # (F, n)
    n = S.shape[1]
    pos = (n - 1) * qs
    lo = np.floor(pos)
    gamma = pos - lo
    lo = lo.astype(np.intp)
    a, b = S[:, lo], S[:, np.minimum(lo + 1, n - 1)]
    d = b - a
    edges = np.where(gamma >= 0.5, b - d * (1 - gamma), a + d * gamma)
    edges[np.isnan(S[:, -1])] = np.nan  # as np.quantile: NaN column, NaN edges
    return edges


def apply_bins(X: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Map raw values to uint8 bin codes using per-feature ``edges``.

    The codes are built column by column and returned as a transposed
    view of an (F, n) array, so ``.T`` of the result is contiguous.
    """
    XT = np.asarray(X, dtype=np.float64).T
    out = np.empty(XT.shape, dtype=np.uint8)
    for f, (col, e) in enumerate(zip(XT, edges)):
        out[f] = e.searchsorted(col, side="right")
    return out.T


def finite(X: np.ndarray) -> np.ndarray:
    """``X`` as float64 with NaN and +-inf replaced by 0 (what trees see)."""
    return np.nan_to_num(np.asarray(X, dtype=np.float64), nan=0.0, posinf=0.0, neginf=0.0)


class DecisionTree:
    """CART over pre-binned features.

    Parameters
    ----------
    task : 'C' (gini) or 'R' (variance reduction).
    max_depth, min_leaf : usual stopping rules.
    max_features : number of candidate features per node (random-forest
        style column subsampling); ``None`` means all.
    """

    def __init__(
        self,
        task: str = "C",
        max_depth: int = 6,
        min_leaf: int = 2,
        max_features: int | None = None,
        n_bins: int = 32,
        seed: int = 0,
    ):
        if task not in ("C", "R"):
            raise ValueError("task must be 'C' or 'R'")
        self.task = task
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.max_features = max_features
        self.n_bins = n_bins
        self.seed = seed
        self._edges: np.ndarray | None = None
        self.n_classes_ = 0

    # -- fitting -----------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        X = finite(X)
        self._edges = bin_features(X, self.n_bins)
        codes = apply_bins(X, self._edges).T
        grow_trees([self], codes, self._encode(np.asarray(y)), np.array([0, len(X)]))
        return self

    def _encode(self, y: np.ndarray) -> np.ndarray:
        """Targets as the grower takes them: class codes into ``classes_``
        (set here) for classification, float64 for regression."""
        if self.task == "C":
            self.classes_, y_enc = np.unique(y, return_inverse=True)
            self.n_classes_ = len(self.classes_)
            return y_enc
        return y.astype(np.float64)

    # -- prediction --------------------------------------------------------

    def _leaf_values(self, X: np.ndarray) -> np.ndarray:
        return self._value[leaf_indices([self], X)[0]]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability matrix (classification only)."""
        if self.task != "C":
            raise ValueError("predict_proba is classification-only")
        return self._leaf_values(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.task == "C":
            return self.classes_[np.argmax(self.predict_proba(X), axis=1)]
        return self._leaf_values(X)


def leaf_indices(trees: list[DecisionTree], X: np.ndarray) -> np.ndarray:
    """Leaf node id of every row of ``X`` in every fitted tree; (T, n).

    All trees descend together: ``X`` is binned once against every
    tree's edges, and leaves point to themselves, so one step moves
    every (row, tree) pair down a level or leaves it where it is.
    """
    X = finite(X)
    n, F = X.shape
    T = len(trees)
    edges = np.concatenate([t._edges for t in trees])
    # (tree, feature, row) codes, flat: X's columns once per tree.
    codes = apply_bins(np.tile(X.T, (T, 1)).T, edges).T.ravel()
    starts = np.cumsum([0] + [len(t._feat_a) for t in trees])
    owner = np.repeat(np.arange(T), np.diff(starts))  # tree of each node
    feat = np.concatenate([t._feat_a for t in trees])
    leaf = feat == _LEAF
    ids = np.arange(len(feat))
    left = np.where(leaf, ids, np.concatenate([t._left_a for t in trees]) + starts[owner])
    right = np.where(leaf, ids, np.concatenate([t._right_a for t in trees]) + starts[owner])
    thr = np.concatenate([t._thr_a for t in trees])
    pos = (owner * F + np.where(leaf, 0, feat)) * n  # where a node's feature starts in codes
    row = np.arange(n)[:, None]
    node = np.broadcast_to(starts[:-1], (n, T))
    while not leaf[node].all():
        node = np.where(codes[pos[node] + row] <= thr[node], left[node], right[node])
    return (node - starts[:-1]).T


class _FeatureDraws:
    """The candidate-feature subsets ``default_rng(seed)`` gives a tree.

    ``sample(n, k)`` returns what successive calls of
    ``default_rng(seed).choice(n, size=k, replace=False)`` return. For
    all but huge n that is numpy's Floyd sampling and shuffle, each draw
    bounded by Lemire's method, which this runs in Python over the
    generator's raw 32-bit stream (low half of each 64-bit output
    first) at a third of ``choice``'s per-call overhead, a node's
    largest fixed cost. Where numpy shuffles a tail instead, ``choice``
    itself is called (n is fixed for a tree, so one tree never mixes
    the two).
    """

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self._buf: list[int] = []

    def _next32(self) -> int:
        if not self._buf:
            raw = self._rng.bit_generator.random_raw(16)
            halves = np.stack([raw & np.uint64(0xFFFFFFFF), raw >> np.uint64(32)], 1)
            self._buf = halves.ravel()[::-1].tolist()
        return self._buf.pop()

    def _bounded(self, hi: int) -> int:
        """Uniform integer in [0, hi]."""
        if hi == 0:
            return 0
        span = hi + 1
        m = self._next32() * span
        if (m & 0xFFFFFFFF) < span:
            threshold = (0xFFFFFFFF - hi) % span
            while (m & 0xFFFFFFFF) < threshold:
                m = self._next32() * span
        return m >> 32

    def sample(self, n: int, k: int) -> list[int]:
        if n > 10000 and k > n // 50:
            return self._rng.choice(n, size=k, replace=False).tolist()
        out: list[int] = []
        for j in range(n - k, n):
            v = self._bounded(j)
            out.append(j if v in out else v)
        for i in range(k - 1, 0, -1):
            j = self._bounded(i)
            out[i], out[j] = out[j], out[i]
        return out


class _Growth:
    """One tree's state while it grows: node arrays under construction and
    a depth-first stack of pending nodes."""

    def __init__(self, tree: DecisionTree, rows: np.ndarray, counts, n_features: int):
        self.tree = tree
        self.draws = _FeatureDraws(tree.seed)
        self.feat: list[int] = []
        self.thr: list[int] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list = []  # class counts (C) or mean (R) per node
        self.size: list[int] = []
        self.importances = np.zeros(n_features)
        # (rows, depth, link to the parent's child slot, class counts)
        self.stack: list[tuple] = [(rows, 0, None, counts)]

    def add_node(self, link, rows, value) -> int:
        node = len(self.feat)
        if link is not None:
            link[0][link[1]] = node
        self.feat.append(_LEAF)
        self.thr.append(0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(value)
        self.size.append(len(rows))
        return node

    def finish(self) -> None:
        t = self.tree
        t._feat_a = np.array(self.feat, dtype=np.int32)
        t._thr_a = np.array(self.thr, dtype=np.int32)
        t._left_a = np.array(self.left, dtype=np.int32)
        t._right_a = np.array(self.right, dtype=np.int32)
        if t.task == "C":
            t._value = np.array(self.value) / np.array(self.size)[:, None]
        else:
            t._value = np.array(self.value, dtype=np.float64)
        t.feature_importances_ = self.importances


def grow_trees(
    trees: list[DecisionTree], codes: np.ndarray, y: np.ndarray, offsets: np.ndarray
) -> None:
    """Grow ``trees`` in lock-step on binned data.

    ``codes`` holds uint8 bin codes, one row per feature and one column
    per sample. Tree ``i`` owns columns ``offsets[i]:offsets[i + 1]`` of
    ``codes`` and the same entries of ``y``, its ``_encode``-d targets
    (``classes_`` already set for classification). All trees share
    ``task``, ``n_bins``, ``min_leaf``, ``max_features`` and the feature
    count. Each round pops, from every tree, nodes in depth-first
    pre-order until one needs a split search, then searches all those
    nodes at once; a tree whose stack empties drops out.
    """
    first = trees[0]
    task = first.task
    n_features = len(codes)
    mf = first.max_features
    growths = []
    for t, lo, hi in zip(trees, offsets[:-1], offsets[1:]):
        counts = np.bincount(y[lo:hi], minlength=t.n_classes_) if task == "C" else None
        growths.append(_Growth(t, np.arange(lo, hi), counts, n_features))
    active = growths
    while active:
        # (growth, node, rows, depth, candidate features, class counts or variance)
        batch = []
        for g in active:
            t = g.tree
            while g.stack:
                rows, depth, link, counts = g.stack.pop()
                if task == "C":
                    node = g.add_node(link, rows, counts)
                    stop = np.count_nonzero(counts) == 1
                else:
                    y_node = y[rows]
                    node = g.add_node(link, rows, float(y_node.mean()))
                    stop = False
                if stop or depth >= t.max_depth or len(rows) < 2 * t.min_leaf:
                    continue
                if mf is None or mf >= n_features:
                    feats = range(n_features)
                else:
                    feats = g.draws.sample(n_features, mf)
                stat = counts if task == "C" else float(y_node.var())
                batch.append((g, node, rows, depth, feats, stat))
                break
        if not batch:
            break
        # A bootstrap can miss a class, so trees can differ in class count.
        # Each count is searched on its own: zero-padded classes would
        # change how numpy groups a sum over 8 or more classes.
        by_classes: dict[int, list] = {}
        for entry in batch:
            by_classes.setdefault(entry[0].tree.n_classes_, []).append(entry)
        for n_cls, part in by_classes.items():
            _split_batch(part, codes, y, task, first.n_bins, first.min_leaf, n_cls)
        active = [g for g in active if g.stack]
    for g in growths:
        g.finish()


def _class_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the leading class axis, adding in the order ``np.sum``
    over a trailing class axis does: left to right below 8 classes,
    numpy's pairwise blocks from 8 up."""
    if len(a) < 8:
        return a.sum(0)
    return np.moveaxis(a, 0, -1).copy().sum(-1)


def _split_batch(batch, codes, y, task, n_bins, min_leaf, n_cls) -> None:
    """Best split of every node in ``batch``, applied to its tree.

    The per-node arithmetic is the single-node CART scan with a leading
    batch axis: counts are exact integers and each float sum adds the
    same values in the same order, so a node's split does not depend on
    what else is in the batch. Arrays are laid out with the small axes
    (class, candidate) first, so numpy's inner loops run over rows and
    bins rather than over two or three classes at a time.
    """
    B = len(batch)
    sizes = np.array([len(b[2]) for b in batch])
    rows = np.concatenate([b[2] for b in batch])
    feats = np.array([b[4] for b in batch]).T  # (nf, B)
    nf = len(feats)
    slot = np.repeat(np.arange(B), sizes)
    cand = codes[feats[:, slot], rows]  # (nf, N)
    cells = B * nf * n_bins
    key = (slot * nf + np.arange(nf)[:, None]) * n_bins + cand  # cell (slot, cand, bin)
    n = sizes[:, None, None]
    if task == "C":
        key = key + y[rows] * cells
        counts = np.bincount(key.ravel(), minlength=n_cls * cells)
        left = np.cumsum(counts.reshape(n_cls, B, nf, n_bins), axis=3)[..., :-1]
        total = np.array([b[5] for b in batch]).T  # (C, B): each node's class counts
        right = total[:, :, None, None] - left
        ln = left.sum(0)  # (B, nf, bins-1)
        rn = n - ln
        side = np.stack([left, right], axis=1)  # (C, 2, B, nf, bins-1)
        gini = 1.0 - _class_sum((side / np.maximum(np.stack([ln, rn]), 1)) ** 2)
        impurity = (ln * gini[0] + rn * gini[1]) / n
        parent = 1.0 - _class_sum((total / sizes) ** 2)
    else:
        key = key.ravel()
        w = y[rows]
        cnt = np.bincount(key, minlength=cells).reshape(B, nf, n_bins)
        s1 = np.bincount(key, np.tile(w, nf), cells).reshape(B, nf, n_bins)
        s2 = np.bincount(key, np.tile(w**2, nf), cells).reshape(B, nf, n_bins)
        ln = np.cumsum(cnt, 2)[..., :-1]
        l1 = np.cumsum(s1, 2)[..., :-1]
        l2 = np.cumsum(s2, 2)[..., :-1]
        rn = n - ln
        r1 = s1.sum(2, keepdims=True) - l1
        r2 = s2.sum(2, keepdims=True) - l2
        var_l = l2 - l1**2 / np.maximum(ln, 1)
        var_r = r2 - r1**2 / np.maximum(rn, 1)
        impurity = (var_l + var_r) / n
        parent = np.array([b[5] for b in batch])
    valid = (ln >= min_leaf) & (rn >= min_leaf)
    impurity = np.where(valid, impurity, np.inf).reshape(B, -1)
    best = np.argmin(impurity, axis=1)
    gain = parent - impurity[np.arange(B), best]
    fi, bi = np.divmod(best, n_bins - 1)
    split = ~(gain <= 1e-12)  # a NaN gain (overflowing targets) also splits
    if not split.any():
        return
    # Stable partition of every node's rows into (left, right).
    go_right = cand[fi[slot], np.arange(len(rows))] > bi[slot]
    rows = rows[np.argsort(slot * 2 + go_right, kind="stable")]
    n_left = ln[np.arange(B), fi, bi]
    ends = np.cumsum(sizes)
    mids = ends - sizes + n_left
    split = np.flatnonzero(split)
    if task == "C":  # children's class counts, copied out of the round's arrays
        at = (slice(None), split, fi[split], bi[split])
        child = zip(left[at].T, right[at].T)
    else:
        child = ((None, None) for _ in split)
    for b, (lc, rc) in zip(split.tolist(), child):
        g, node, _, depth, feats_b, _ = batch[b]
        f = feats_b[fi[b]]
        # Impurity-decrease importance, weighted by the node's sample share.
        g.importances[f] += gain[b] * sizes[b]
        g.feat[node] = f
        g.thr[node] = int(bi[b])
        g.stack.append((rows[mids[b] : ends[b]], depth + 1, (g.right, node), rc))
        g.stack.append((rows[ends[b] - sizes[b] : mids[b]], depth + 1, (g.left, node), lc))
