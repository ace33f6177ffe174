import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmecon.errors import ValidationError
from pdmecon.models import (
    BoostHyperparams,
    ForestHyperparams,
    TreeParams,
    fit_boost,
    fit_forest,
    fit_tree,
    predict_tree,
    rmse,
)
from pdmecon.models.io import _tree_to_dict


def brute_force_best_split(X, y, min_samples_leaf=1):
    """Enumerate every candidate (feature, midpoint) and return the min child SSE."""
    best = (np.inf, None, None)
    n, p = X.shape
    for f in range(p):
        values = np.unique(X[:, f])
        for a, b in zip(values, values[1:]):
            thr = 0.5 * (a + b)
            left = y[X[:, f] <= thr]
            right = y[X[:, f] > thr]
            if len(left) < min_samples_leaf or len(right) < min_samples_leaf:
                continue
            sse = ((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()
            if sse < best[0]:
                best = (sse, f, thr)
    return best


def test_constant_target_single_leaf():
    X = np.arange(10.0).reshape(-1, 1)
    tree = fit_tree(X, np.full(10, 4.0))
    assert tree.root.is_leaf
    assert tree.root.value == 4.0


def test_step_data_depth_one():
    X = np.arange(10.0).reshape(-1, 1)
    y = np.where(X[:, 0] < 5, 0.0, 10.0)
    tree = fit_tree(X, y, TreeParams(max_depth=1))
    assert not tree.root.is_leaf
    assert 4.0 < tree.root.threshold < 5.0
    assert tree.root.left.value == 0.0
    assert tree.root.right.value == 10.0
    sse, f, thr = brute_force_best_split(X, y)
    assert f == 0
    assert tree.root.threshold == pytest.approx(thr)
    assert sse == pytest.approx(0.0)


def test_chosen_split_minimizes_sse_random_sweep():
    rng = np.random.default_rng(19)
    for _ in range(25):
        n = int(rng.integers(6, 40))
        p = int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        tree = fit_tree(X, y, TreeParams(max_depth=1))
        if tree.root.is_leaf:
            continue
        best_sse, _, _ = brute_force_best_split(X, y)
        left = y[X[:, tree.root.feature] <= tree.root.threshold]
        right = y[X[:, tree.root.feature] > tree.root.threshold]
        got = ((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()
        assert got == pytest.approx(best_sse, abs=1e-9)


def test_memorizes_distinct_inputs():
    rng = np.random.default_rng(2)
    X = rng.permutation(50).astype(float).reshape(-1, 1)
    y = rng.normal(size=50)
    tree = fit_tree(X, y, TreeParams(max_depth=None, min_samples_leaf=1))
    assert rmse(y, predict_tree(tree, X)) == pytest.approx(0.0, abs=1e-12)


def test_min_samples_leaf_respected():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(60, 2))
    y = rng.normal(size=60)
    tree = fit_tree(X, y, TreeParams(min_samples_leaf=7))

    def leaf_sizes(node, rows):
        if node.is_leaf:
            yield len(rows)
            return
        mask = X[rows, node.feature] <= node.threshold
        yield from leaf_sizes(node.left, rows[mask])
        yield from leaf_sizes(node.right, rows[~mask])

    assert min(leaf_sizes(tree.root, np.arange(60))) >= 7


def test_deterministic_structure():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(80, 3))
    y = rng.normal(size=80)
    t1 = fit_tree(X, y, TreeParams(max_depth=5))
    t2 = fit_tree(X, y, TreeParams(max_depth=5))
    assert _tree_to_dict(t1) == _tree_to_dict(t2)


def test_leaf_values_are_means():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([1.0, 3.0, 10.0, 20.0])
    tree = fit_tree(X, y, TreeParams(max_depth=1))
    left = y[X[:, 0] <= tree.root.threshold]
    right = y[X[:, 0] > tree.root.threshold]
    assert tree.root.left.value == pytest.approx(left.mean())
    assert tree.root.right.value == pytest.approx(right.mean())


def test_empty_data_error():
    with pytest.raises(ValidationError, match="empty"):
        fit_tree(np.zeros((0, 1)), np.zeros(0))


def test_predict_feature_mismatch():
    tree = fit_tree(np.arange(6.0).reshape(-1, 1), np.arange(6.0))
    with pytest.raises(ValidationError, match="features"):
        predict_tree(tree, np.zeros((2, 3)))


@pytest.mark.parametrize(
    "below, above",
    [(1 + 2**-52, 1 + 2**-51), (1e308, 1.5e308), (-1.5e308, -1e308)],
    ids=["adjacent", "overflow", "negative-overflow"],
)
@pytest.mark.parametrize("max_depth", [3, None])
def test_split_between_adjacent_or_huge_values_falls_back_to_the_lower(below, above, max_depth):
    # the midpoint rounds up to `above` (or overflows), which would send both rows left
    tree = fit_tree(np.array([[below], [above]]), np.array([0.0, 1.0]), TreeParams(max_depth=max_depth))
    assert tree.root.threshold == below
    assert (tree.root.left.value, tree.root.right.value) == (0.0, 1.0)
    assert tree.n_nodes == 3 and not np.isnan(tree.value).any()


# --- reference: the per-node-argsort engine the presorted fit replaced -------


@dataclass
class RefNode:
    # leaf when left is None; internal nodes route x[feature] <= threshold left
    feature: int = -1
    threshold: float = 0.0
    value: float = 0.0
    left: "RefNode | None" = None
    right: "RefNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def reference_best_split(X, y, min_samples_leaf):
    n = len(y)
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    ys = y[order]
    cum = np.cumsum(ys, axis=0)
    cum2 = np.cumsum(ys * ys, axis=0)
    total, total2 = cum[-1, :], cum2[-1, :]
    nl = np.arange(1, n, dtype=np.float64)[:, None]
    nr = n - nl
    sl, sl2 = cum[:-1, :], cum2[:-1, :]
    sse = (sl2 - sl * sl / nl) + (total2 - sl2) - (total - sl) ** 2 / nr
    valid = xs[:-1, :] < xs[1:, :]
    if min_samples_leaf > 1:
        valid &= (nl >= min_samples_leaf) & (nr >= min_samples_leaf)
    if not valid.any():
        return None
    sse = np.where(valid, sse, np.inf)
    feature, pos = divmod(int(np.argmin(sse.T)), n - 1)
    below, above = float(xs[pos, feature]), float(xs[pos + 1, feature])
    threshold = 0.5 * (below + above)
    return feature, below if threshold == above or math.isinf(threshold) else threshold


def reference_fit(X, y, params):
    root = RefNode()
    stack = [(root, np.arange(len(y)), 0)]
    while stack:
        node, idx, depth = stack.pop()
        y_node = y[idx]
        node.value = float(y_node.mean())
        if (
            (params.max_depth is not None and depth >= params.max_depth)
            or len(idx) < 2 * params.min_samples_leaf
            or np.ptp(y_node) == 0.0
        ):
            continue
        split = reference_best_split(X[idx], y_node, params.min_samples_leaf)
        if split is None:
            continue
        node.feature, node.threshold = split
        mask = X[idx, node.feature] <= node.threshold
        node.left, node.right = RefNode(), RefNode()
        stack.append((node.left, idx[mask], depth + 1))
        stack.append((node.right, idx[~mask], depth + 1))
    return root


def reference_predict(root, X):
    out = np.empty(len(X))
    for i, x in enumerate(X):
        node = root
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        out[i] = node.value
    return out


def preorder(root):
    """(feature, threshold, value) per node, leaves as (value,), in preorder."""
    nodes, stack = [], [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            nodes.append((node.value,))
        else:
            nodes.append((node.feature, node.threshold, node.value))
            stack += (node.right, node.left)
    return nodes


@st.composite
def tree_data(draw):
    """Small X and y with heavy ties, constant columns and, optionally, duplicated rows."""
    n = draw(st.integers(1, 30))
    p = draw(st.integers(1, 4))
    if draw(st.booleans()):
        X = np.array(draw(st.lists(st.integers(0, 3), min_size=n * p, max_size=n * p)), dtype=float)
    else:
        X = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n * p, max_size=n * p)))
    X = X.reshape(n, p)
    constant = draw(st.lists(st.integers(0, p - 1), max_size=p))
    X[:, constant] = 1.5
    y = np.array(draw(st.lists(st.integers(-3, 3) | st.floats(-1e3, 1e3), min_size=n, max_size=n)), dtype=float)
    if draw(st.booleans()):  # a bootstrap resample: rows repeat, and their order is scrambled
        idx = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
        X, y = X[idx], y[idx]
    params = TreeParams(
        max_depth=draw(st.sampled_from([0, 1, 3, None])),
        min_samples_leaf=draw(st.integers(1, 5)),
    )
    return X, y, params


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tree_data())
def test_presorted_fit_matches_per_node_argsort(case):
    X, y, params = case
    reference = reference_fit(X, y, params)
    expected = preorder(reference)
    assert preorder(fit_tree(X, y, params).root) == expected
    # every tree of a forest without bootstrap shares one presort
    forest = fit_forest(X, y, ForestHyperparams(
        n_trees=2, max_depth=params.max_depth, min_samples_leaf=params.min_samples_leaf, bootstrap=False
    ))
    assert [preorder(t.root) for t in forest.trees] == [expected, expected]
    per_tree = np.stack([reference_predict(reference, X)] * 2)
    np.testing.assert_array_equal(forest.predict(X), per_tree.mean(axis=0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tree_data(), st.sampled_from([0.1, 0.5, 1.0]))
def test_boost_stages_sharing_one_presort_match_reference(case, learning_rate):
    X, y, params = case
    model = fit_boost(X, y, BoostHyperparams(
        n_stages=4, learning_rate=learning_rate, max_depth=params.max_depth, min_samples_leaf=params.min_samples_leaf
    ))
    F = np.full(len(y), model.init_value)
    for stage in model.stages:
        reference = reference_fit(X, y - F, params)
        assert preorder(stage.root) == preorder(reference)
        F = F + learning_rate * reference_predict(reference, X)
    np.testing.assert_array_equal(predict_tree(model.stages[-1], X), reference_predict(reference, X))
