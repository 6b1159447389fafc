"""Random Forest + cross-validation — the paper's downstream task.

Following NFS (and E-AFE, which keeps NFS's protocol for fairness), every
feature evaluation is a Random-Forest cross-validation score: F1 for
classification, 1-rae for regression. ``cross_val_score`` is the single
choke point all methods call, so its call count is also where Table IV's
"feature evaluation numbers" are measured (see ``repro.bench.harness``).
"""
from __future__ import annotations

import numpy as np

from .metrics import score as metric_score
from .tree import DecisionTree, apply_bins, bin_features, finite, grow_trees, leaf_indices

__all__ = ["RandomForest", "kfold_indices", "cross_val_score"]


class RandomForest:
    """Bagged histogram-CART ensemble; deterministic in ``seed``.

    Its trees grow together (``repro.ml.tree.grow_trees``), and
    ``cross_val_score`` grows the trees of all its folds together.
    """

    def __init__(
        self,
        task: str = "C",
        n_trees: int = 10,
        max_depth: int = 6,
        min_leaf: int = 2,
        max_features: str | int | None = "sqrt",
        n_bins: int = 32,
        seed: int = 0,
    ):
        self.task = task
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.max_features = max_features
        self.n_bins = n_bins
        self.seed = seed

    def _resolve_max_features(self, n_features: int) -> int | None:
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        return self.max_features

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        _fit_forests([self], [(X, y)])
        return self

    def _plant(self, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Draw the bootstraps, make the (unfitted) trees and bin their
        data; returns the trees' bin codes, (F, n_trees * n), and their
        encoded targets, as ``grow_trees`` takes them."""
        X = finite(X)
        y = np.asarray(y)
        rng = np.random.default_rng(self.seed)
        mf = self._resolve_max_features(X.shape[1])
        if self.task == "C":
            self.classes_ = np.unique(y)
        boots = []
        for _ in range(self.n_trees):
            boot = rng.integers(0, len(y), len(y))
            if self.task == "C" and len(np.unique(y[boot])) < 2:
                boot = np.arange(len(y))  # degenerate bootstrap: fall back
            boots.append(boot)
        self.trees_ = [
            DecisionTree(
                task=self.task,
                max_depth=self.max_depth,
                min_leaf=self.min_leaf,
                max_features=mf,
                n_bins=self.n_bins,
                seed=self.seed * 1000 + t,
            )
            for t in range(self.n_trees)
        ]
        # Every tree bins its own bootstrap; one quantile and one binning
        # call cover all of them, column by column as a tree alone would.
        n, F = X.shape
        cols = X.T[:, np.stack(boots)].transpose(1, 0, 2).reshape(-1, n)  # (T*F, n)
        edges = bin_features(cols.T, self.n_bins)
        codes = apply_bins(cols.T, edges).T.reshape(self.n_trees, F, n)
        ys = []
        for t, (tree, boot) in enumerate(zip(self.trees_, boots)):
            tree._edges = edges[t * F : (t + 1) * F]
            ys.append(tree._encode(y[boot]))
        return codes.transpose(1, 0, 2).reshape(F, -1), np.concatenate(ys)

    def _finish(self) -> None:
        imp = np.sum([t.feature_importances_ for t in self.trees_], axis=0)
        total = imp.sum()
        self.feature_importances_ = imp / total if total > 0 else imp

    def predict(self, X: np.ndarray) -> np.ndarray:
        leaves = leaf_indices(self.trees_, X)
        if self.task == "C":
            # Average per-tree class distributions over the union of classes.
            probs = np.zeros((len(X), len(self.classes_)))
            cls_pos = {c: i for i, c in enumerate(self.classes_)}
            for tree, leaf in zip(self.trees_, leaves):
                cols = [cls_pos[c] for c in tree.classes_]
                probs[:, cols] += tree._value[leaf]
            return self.classes_[np.argmax(probs, axis=1)]
        return np.mean([t._value[leaf] for t, leaf in zip(self.trees_, leaves)], axis=0)


def _fit_forests(forests: list[RandomForest], data: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """Fit each forest on its own (X, y), growing all their trees in
    lock-step (see ``repro.ml.tree.grow_trees``). The forests must share
    ``task``, ``min_leaf``, ``max_features``, ``n_bins`` and the feature
    count."""
    parts = [rf._plant(X, y) for rf, (X, y) in zip(forests, data)]
    sizes = [len(y) // rf.n_trees for rf, (_, y) in zip(forests, parts) for _ in rf.trees_]
    grow_trees(
        [t for rf in forests for t in rf.trees_],
        np.concatenate([codes for codes, _ in parts], axis=1),
        np.concatenate([y for _, y in parts]),
        np.concatenate([[0], np.cumsum(sizes)]),
    )
    for rf in forests:
        rf._finish()


def kfold_indices(
    y: np.ndarray, k: int, task: str, seed: int = 0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """K-fold splits; stratified by label for classification."""
    y = np.asarray(y)
    n = len(y)
    rng = np.random.default_rng(seed)
    if task == "C":
        order = np.empty(0, dtype=np.int64)
        for c in np.unique(y):
            idx = np.flatnonzero(y == c)
            rng.shuffle(idx)
            order = np.concatenate([order, idx])
        # Deal round-robin so each fold gets ~equal class mix.
        folds = [order[i::k] for i in range(k)]
    else:
        perm = rng.permutation(n)
        folds = [perm[i::k] for i in range(k)]
    out = []
    for i in range(k):
        test = folds[i]
        train = np.concatenate([folds[j] for j in range(k) if j != i])
        out.append((train, test))
    return out


def cross_val_score(
    X: np.ndarray,
    y: np.ndarray,
    task: str,
    *,
    k: int = 3,
    n_trees: int = 8,
    max_depth: int = 6,
    seed: int = 0,
) -> float:
    """Mean RF cross-validation score (F1 or 1-rae) — the downstream task.

    This is the expensive call whose invocation count Table IV reports and
    whose share of wall-clock Table I reports.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    folds = kfold_indices(y, k, task, seed)
    forests = [
        RandomForest(task=task, n_trees=n_trees, max_depth=max_depth, seed=seed + fold)
        for fold in range(len(folds))
    ]
    # The k forests are independent, so their trees grow together.
    _fit_forests(forests, [(X[tr], y[tr]) for tr, _ in folds])
    scores = [
        metric_score(y[te], rf.predict(X[te]), task) for rf, (_, te) in zip(forests, folds)
    ]
    return float(np.mean(scores))
