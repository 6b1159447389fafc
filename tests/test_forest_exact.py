"""The lock-step tree grower against the recursive CART it replaced.

``_RefTree`` and the ``_ref_*`` functions below are the recursive
decision tree, forest and cross-validation that ``repro.ml`` used before
trees were grown in lock-step, kept frozen as the reference. The new
grower keeps each tree's depth-first node order and RNG stream and runs
the same arithmetic per node, so every array, importance, prediction
and score must match bit for bit, not within a tolerance.
"""
import numpy as np
import pytest

from repro.ml.forest import RandomForest, cross_val_score, kfold_indices
from repro.ml.metrics import score as metric_score
from repro.ml.tree import DecisionTree, _FeatureDraws, bin_features

_LEAF = -1


def _ref_bin_features(X, n_bins=32):
    X = np.asarray(X, dtype=np.float64)
    qs = np.linspace(0, 1, n_bins + 1)[1:-1]
    return np.quantile(X, qs, axis=0).T.copy()


def _ref_apply_bins(X, edges):
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape, dtype=np.uint8)
    for f in range(X.shape[1]):
        out[:, f] = np.searchsorted(edges[f], X[:, f], side="right")
    return out


class _RefTree:
    """The recursive histogram CART, one ``np.add.at`` per node."""

    def __init__(self, task="C", max_depth=6, min_leaf=2, max_features=None,
                 n_bins=32, seed=0):
        self.task = task
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.max_features = max_features
        self.n_bins = n_bins
        self.seed = seed
        self._edges = None
        self.n_classes_ = 0

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        X = np.nan_to_num(X, nan=0.0, posinf=0.0, neginf=0.0)
        self._edges = _ref_bin_features(X, self.n_bins)
        Xb = _ref_apply_bins(X, self._edges)
        if self.task == "C":
            self.classes_, y_enc = np.unique(y, return_inverse=True)
            self.n_classes_ = len(self.classes_)
        else:
            y_enc = y.astype(np.float64)
        self._rng = np.random.default_rng(self.seed)
        self.feature_importances_ = np.zeros(X.shape[1])
        self._feat, self._thr, self._left, self._right, self._value = [], [], [], [], []
        self._grow(Xb, y_enc, np.arange(len(y_enc)), depth=0)
        self._feat_a = np.array(self._feat, dtype=np.int32)
        self._thr_a = np.array(self._thr, dtype=np.int32)
        self._left_a = np.array(self._left, dtype=np.int32)
        self._right_a = np.array(self._right, dtype=np.int32)
        return self

    def _leaf_value(self, y):
        if self.task == "C":
            return np.bincount(y, minlength=self.n_classes_) / len(y)
        return float(y.mean())

    def _new_node(self):
        self._feat.append(_LEAF)
        self._thr.append(0)
        self._left.append(_LEAF)
        self._right.append(_LEAF)
        self._value.append(0.0)
        return len(self._feat) - 1

    def _grow(self, Xb, y, idx, depth):
        node = self._new_node()
        y_node = y[idx]
        self._value[node] = self._leaf_value(y_node)
        if depth >= self.max_depth or len(idx) < 2 * self.min_leaf:
            return node
        if self.task == "C" and len(np.unique(y_node)) == 1:
            return node
        split = self._best_split(Xb[idx], y_node)
        if split is None:
            return node
        f, b, gain = split
        go_left = Xb[idx, f] <= b
        left_idx, right_idx = idx[go_left], idx[~go_left]
        if len(left_idx) < self.min_leaf or len(right_idx) < self.min_leaf:
            return node
        self.feature_importances_[f] += gain * len(idx)
        self._feat[node] = f
        self._thr[node] = b
        self._left[node] = self._grow(Xb, y, left_idx, depth + 1)
        self._right[node] = self._grow(Xb, y, right_idx, depth + 1)
        return node

    def _candidate_features(self, n_features):
        if self.max_features is None or self.max_features >= n_features:
            return np.arange(n_features)
        return self._rng.choice(n_features, size=self.max_features, replace=False)

    def _best_split(self, Xb, y):
        n, n_features = Xb.shape
        feats = self._candidate_features(n_features)
        Xs = Xb[:, feats]
        nf = len(feats)
        if self.task == "C":
            counts = np.zeros((nf, self.n_bins, self.n_classes_))
            np.add.at(counts, (np.broadcast_to(np.arange(nf), (n, nf)), Xs, y[:, None]), 1.0)
            left = np.cumsum(counts, axis=1)[:, :-1, :]
            total = counts.sum(axis=1, keepdims=True)
            right = total - left
            ln = left.sum(-1)
            rn = right.sum(-1)
            with np.errstate(divide="ignore", invalid="ignore"):
                gl = 1.0 - np.sum((left / np.maximum(ln, 1)[..., None]) ** 2, -1)
                gr = 1.0 - np.sum((right / np.maximum(rn, 1)[..., None]) ** 2, -1)
            impurity = (ln * gl + rn * gr) / n
            p = total[:, 0, :] / n
            parent = 1.0 - np.sum(p**2, -1)[0]
        else:
            s1 = np.zeros((nf, self.n_bins))
            s2 = np.zeros((nf, self.n_bins))
            cnt = np.zeros((nf, self.n_bins))
            fidx = np.broadcast_to(np.arange(nf), (n, nf))
            np.add.at(s1, (fidx, Xs), y[:, None])
            np.add.at(s2, (fidx, Xs), (y**2)[:, None])
            np.add.at(cnt, (fidx, Xs), 1.0)
            ln = np.cumsum(cnt, 1)[:, :-1]
            l1 = np.cumsum(s1, 1)[:, :-1]
            l2 = np.cumsum(s2, 1)[:, :-1]
            tn, t1, t2 = cnt.sum(1, keepdims=True), s1.sum(1, keepdims=True), s2.sum(1, keepdims=True)
            rn, r1, r2 = tn - ln, t1 - l1, t2 - l2
            with np.errstate(divide="ignore", invalid="ignore"):
                var_l = l2 - l1**2 / np.maximum(ln, 1)
                var_r = r2 - r1**2 / np.maximum(rn, 1)
            impurity = (var_l + var_r) / n
            parent = float(y.var())
        valid = (ln >= self.min_leaf) & (rn >= self.min_leaf)
        if not valid.any():
            return None
        impurity = np.where(valid, impurity, np.inf)
        fi, bi = np.unravel_index(np.argmin(impurity), impurity.shape)
        gain = parent - impurity[fi, bi]
        if gain <= 1e-12:
            return None
        return int(feats[fi]), int(bi), float(gain)

    def _leaf_of(self, Xb):
        node = np.zeros(len(Xb), dtype=np.int32)
        active = self._feat_a[node] != _LEAF
        while active.any():
            cur = node[active]
            f = self._feat_a[cur]
            go_left = Xb[active, f] <= self._thr_a[cur]
            node[active] = np.where(go_left, self._left_a[cur], self._right_a[cur])
            active = self._feat_a[node] != _LEAF
        return node

    def predict_proba(self, X):
        X = np.nan_to_num(np.asarray(X, dtype=np.float64), nan=0.0, posinf=0.0, neginf=0.0)
        leaves = self._leaf_of(_ref_apply_bins(X, self._edges))
        return np.stack([np.asarray(self._value[i]) for i in leaves])

    def predict(self, X):
        if self.task == "C":
            return self.classes_[np.argmax(self.predict_proba(X), axis=1)]
        X = np.nan_to_num(np.asarray(X, dtype=np.float64), nan=0.0, posinf=0.0, neginf=0.0)
        leaves = self._leaf_of(_ref_apply_bins(X, self._edges))
        return np.array([self._value[i] for i in leaves], dtype=np.float64)


def _ref_forest(X, y, task, n_trees=10, max_depth=6, min_leaf=2, max_features="sqrt",
                n_bins=32, seed=0):
    """The forest's fit: (trees, normalized importances, forest classes)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    rng = np.random.default_rng(seed)
    mf = max(1, int(np.sqrt(X.shape[1]))) if max_features == "sqrt" else max_features
    trees = []
    classes = np.unique(y) if task == "C" else None
    for t in range(n_trees):
        boot = rng.integers(0, len(y), len(y))
        if task == "C" and len(np.unique(y[boot])) < 2:
            boot = np.arange(len(y))
        tree = _RefTree(task=task, max_depth=max_depth, min_leaf=min_leaf,
                        max_features=mf, n_bins=n_bins, seed=seed * 1000 + t)
        trees.append(tree.fit(X[boot], y[boot]))
    imp = np.sum([t.feature_importances_ for t in trees], axis=0)
    total = imp.sum()
    return trees, (imp / total if total > 0 else imp), classes


def _ref_forest_predict(trees, classes, task, X):
    if task == "C":
        probs = np.zeros((len(X), len(classes)))
        cls_pos = {c: i for i, c in enumerate(classes)}
        for tree in trees:
            probs[:, [cls_pos[c] for c in tree.classes_]] += tree.predict_proba(X)
        return classes[np.argmax(probs, axis=1)]
    return np.mean([t.predict(X) for t in trees], axis=0)


def _ref_cross_val_score(X, y, task, k=3, n_trees=8, max_depth=6, seed=0):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    scores = []
    for fold, (tr, te) in enumerate(kfold_indices(y, k, task, seed)):
        trees, _, classes = _ref_forest(X[tr], y[tr], task, n_trees=n_trees,
                                        max_depth=max_depth, seed=seed + fold)
        scores.append(metric_score(y[te], _ref_forest_predict(trees, classes, task, X[te]), task))
    return float(np.mean(scores))


def _data(case: int, task: str):
    """Random data of one of many shapes; some cells NaN or +-inf."""
    g = np.random.default_rng(case)
    n = int(g.integers(4, 130))
    F = int(g.integers(1, 7))
    X = g.normal(size=(n, F))
    X[:, 0] = np.round(X[:, 0])  # ties, so bins collapse
    if task == "C":
        n_cls = int(g.integers(1, 5))
        y = (X[:, -1] > 0).astype(int) + g.integers(0, n_cls, n)
        y = np.minimum(y, n_cls - 1) if n_cls > 1 else np.zeros(n, dtype=int)
        y = np.array(["a", "b", "c", "d"])[y] if case % 3 == 0 else y
    else:
        y = X[:, 0] * 2.0 - X[:, -1] + g.normal(size=n)
    if g.random() < 0.5:
        bad = g.random(size=X.shape) < 0.05
        X[bad] = g.choice([np.nan, np.inf, -np.inf], size=int(bad.sum()))
    return X, y, g


def _params(g):
    mf = [None, int(g.integers(1, 4)), "sqrt"][int(g.integers(0, 3))]
    return dict(max_depth=int(g.integers(0, 9)), min_leaf=int(g.integers(1, 4)), max_features=mf)


def _assert_same_tree(new, ref):
    np.testing.assert_array_equal(new._edges, ref._edges)
    for a in ("_feat_a", "_thr_a", "_left_a", "_right_a"):
        np.testing.assert_array_equal(getattr(new, a), getattr(ref, a))
    ref_values = (np.stack(ref._value) if ref.task == "C"
                  else np.array(ref._value, dtype=np.float64))
    np.testing.assert_array_equal(new._value, ref_values)
    np.testing.assert_array_equal(new.feature_importances_, ref.feature_importances_)
    if ref.task == "C":
        np.testing.assert_array_equal(new.classes_, ref.classes_)


@pytest.mark.parametrize("task", ["C", "R"])
@pytest.mark.parametrize("case", range(40))
def test_tree_matches_recursive(task, case):
    X, y, g = _data(case, task)
    p = _params(g)
    if p["max_features"] == "sqrt":
        p["max_features"] = max(1, int(np.sqrt(X.shape[1])))
    seed = int(g.integers(0, 100))
    new = DecisionTree(task=task, seed=seed, **p).fit(X, y)
    ref = _RefTree(task=task, seed=seed, **p).fit(X, y)
    _assert_same_tree(new, ref)
    Xq = np.r_[X, g.normal(size=(7, X.shape[1])) * 3]
    np.testing.assert_array_equal(new.predict(Xq), ref.predict(Xq))
    if task == "C":
        np.testing.assert_array_equal(new.predict_proba(Xq), ref.predict_proba(Xq))


@pytest.mark.parametrize("task", ["C", "R"])
@pytest.mark.parametrize("case", range(40, 80))
def test_forest_matches_recursive(task, case):
    X, y, g = _data(case, task)
    p = _params(g)
    n_trees = int(g.integers(1, 10))
    new = RandomForest(task=task, n_trees=n_trees, seed=case, **p).fit(X, y)
    trees, imp, classes = _ref_forest(X, y, task, n_trees=n_trees, seed=case, **p)
    for a, b in zip(new.trees_, trees):
        _assert_same_tree(a, b)
    np.testing.assert_array_equal(new.feature_importances_, imp)
    np.testing.assert_array_equal(new.predict(X), _ref_forest_predict(trees, classes, task, X))


@pytest.mark.parametrize("n_cls", [8, 9, 12])
def test_many_classes_match_recursive(n_cls):
    # Rare classes, so bootstraps miss some: trees of one forest then
    # differ in class count, on both sides of numpy's 8-element
    # pairwise-summation block.
    g = np.random.default_rng(n_cls)
    X = g.normal(size=(90, 5))
    y = (X[:, 0] > 0) + 2 * (X[:, 1] > 0)
    y[: 2 * (n_cls - 4)] = np.repeat(np.arange(4, n_cls), 2)  # classes of two rows
    new = RandomForest(task="C", n_trees=9, seed=n_cls, min_leaf=1, max_depth=7).fit(X, y)
    trees, imp, classes = _ref_forest(X, y, "C", n_trees=9, seed=n_cls, min_leaf=1, max_depth=7)
    assert len({len(t.classes_) for t in trees}) > 1
    for a, b in zip(new.trees_, trees):
        _assert_same_tree(a, b)
    np.testing.assert_array_equal(new.feature_importances_, imp)
    np.testing.assert_array_equal(new.predict(X), _ref_forest_predict(trees, classes, "C", X))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_overflowing_regression_targets_match_recursive():
    # Squared targets overflow to inf, so impurities and gains are NaN;
    # the recursive tree split on a NaN gain.
    g = np.random.default_rng(5)
    X = g.normal(size=(40, 3))
    y = g.normal(size=40) * 1e300
    new = DecisionTree(task="R", max_depth=4, min_leaf=1).fit(X, y)
    ref = _RefTree(task="R", max_depth=4, min_leaf=1).fit(X, y)
    assert len(ref._feat_a) > 1
    _assert_same_tree(new, ref)


def test_degenerate_bootstrap_falls_back_to_all_rows():
    # One minority row: most bootstraps miss it and see a single class.
    X = np.random.default_rng(0).normal(size=(12, 3))
    y = np.zeros(12, dtype=int)
    y[5] = 1
    new = RandomForest(task="C", n_trees=8, seed=1, min_leaf=1).fit(X, y)
    trees, imp, classes = _ref_forest(X, y, "C", n_trees=8, seed=1, min_leaf=1)
    assert any(len(t.classes_) == 2 for t in trees)
    for a, b in zip(new.trees_, trees):
        _assert_same_tree(a, b)
    np.testing.assert_array_equal(new.feature_importances_, imp)
    np.testing.assert_array_equal(new.predict(X), _ref_forest_predict(trees, classes, "C", X))


@pytest.mark.parametrize("task", ["C", "R"])
@pytest.mark.parametrize("case", range(80, 86))
def test_cross_val_score_matches_recursive(task, case):
    X, y, g = _data(case, task)
    if len(y) < 30 or (task == "C" and len(np.unique(y)) < 2):
        X, y = np.r_[X, X, X], np.r_[y, y, y]
    k, n_trees, depth = int(g.integers(2, 5)), int(g.integers(1, 8)), int(g.integers(1, 8))
    new = cross_val_score(X, y, task, k=k, n_trees=n_trees, max_depth=depth, seed=case)
    ref = _ref_cross_val_score(X, y, task, k=k, n_trees=n_trees, max_depth=depth, seed=case)
    assert new == ref


@pytest.mark.parametrize("n", [1, 2, 3, 7, 31, 32, 33, 64, 200])
def test_bin_edges_equal_numpy_quantile(n):
    g = np.random.default_rng(n)
    X = np.c_[g.normal(size=n), np.round(g.normal(size=n)), np.full(n, 1 / 3),
              np.exp(g.normal(size=n) * 30), g.normal(size=n) * 1e-300]
    X[g.random(size=n) < 0.2, 1] = np.nan
    for n_bins in (2, 8, 32, 256):
        np.testing.assert_array_equal(bin_features(X, n_bins), _ref_bin_features(X, n_bins))


@pytest.mark.parametrize("n,k", [(2, 1), (5, 2), (9, 8), (33, 5), (64, 63), (20000, 100), (20000, 401)])
def test_feature_draws_equal_generator_choice(n, k):
    for seed in range(5):
        rng, draws = np.random.default_rng(seed), _FeatureDraws(seed)
        for _ in range(30):
            assert draws.sample(n, k) == rng.choice(n, size=k, replace=False).tolist()


# Engine results on labor at seed 0, recorded with the recursive tree. The
# forest decides every accept/reject, the FPE labels and the final score,
# so any change in a split shows here.
LABOR_PINS = {
    "NFS": (0.6596825396825396, 0.6596825396825396, 142, 142),
    "E-AFE": (0.6596825396825396, 0.6596825396825396, 171, 45),
}


def test_fixed_seed_pins(spark):
    from repro.baselines.nfs import run_nfs
    from repro.bench.datasets import by_name, load_dataset
    from repro.core.eafe import AFEConfig, run_afe
    from repro.core.fpe import FPEModel, label_corpus
    from repro.synth_data import fpe_corpus

    X, y = load_dataset(by_name("labor"))
    X = X.values.astype(np.float64)
    corpus = fpe_corpus(4, seed=1000)
    labels = label_corpus(spark, corpus, thre=0.01, cv_cfg={"k": 3, "n_trees": 2})
    fpe = FPEModel.fit(corpus, labels, fixed_variant="ccws", d_options=(16,), seed=0)
    got = {}
    for method, res in (("NFS", run_nfs(X, y, "C", AFEConfig(seed=0))),
                        ("E-AFE", run_afe(X, y, "C", fpe, AFEConfig(seed=0)))):
        got[method] = (res.best_score, res.base_score, res.n_generated, res.n_evaluated)
    assert got == LABOR_PINS
