import math
import tracemalloc
from dataclasses import dataclass
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdmecon.errors import ValidationError
from pdmecon.jsonio import plain
from pdmecon.models import ensemble as ensemble_module
from pdmecon.models import tree as tree_module
from pdmecon.models import (
    BoostHyperparams,
    ForestHyperparams,
    RegressionTree,
    TreeParams,
    fit_boost,
    fit_forest,
    fit_tree,
    predict_tree,
    rmse,
)


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
    assert arrays(tree) == ([-1], [], [4.0])  # the root is a leaf


def test_step_data_depth_one():
    X = np.arange(10.0).reshape(-1, 1)
    y = np.where(X[:, 0] < 5, 0.0, 10.0)
    tree = fit_tree(X, y, TreeParams(max_depth=1))
    assert tree.feature.tolist() == [0, -1, -1]  # a split, then its left and right leaves
    assert 4.0 < tree.threshold[0] < 5.0
    assert tree.value.tolist() == [0.0, 10.0]
    sse, f, thr = brute_force_best_split(X, y)
    assert f == 0
    assert tree.threshold[0] == pytest.approx(thr)
    assert sse == pytest.approx(0.0)


def test_chosen_split_minimizes_sse_random_sweep():
    rng = np.random.default_rng(19)
    for _ in range(25):
        n = int(rng.integers(6, 40))
        p = int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        tree = fit_tree(X, y, TreeParams(max_depth=1))
        if tree.feature[0] == -1:
            continue
        best_sse, _, _ = brute_force_best_split(X, y)
        left = y[X[:, tree.feature[0]] <= tree.threshold[0]]
        right = y[X[:, tree.feature[0]] > tree.threshold[0]]
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
    left, right, threshold, _ = tree.per_node()

    def leaf_sizes(node, rows):
        if tree.feature[node] == -1:
            yield len(rows)
            return
        mask = X[rows, tree.feature[node]] <= threshold[node]
        yield from leaf_sizes(left[node], rows[mask])
        yield from leaf_sizes(right[node], rows[~mask])

    assert min(leaf_sizes(0, np.arange(60))) >= 7


def test_deterministic_structure():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(80, 3))
    y = rng.normal(size=80)
    t1 = fit_tree(X, y, TreeParams(max_depth=5))
    t2 = fit_tree(X, y, TreeParams(max_depth=5))
    assert plain(t1) == plain(t2)


def test_leaf_values_are_means():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([1.0, 3.0, 10.0, 20.0])
    tree = fit_tree(X, y, TreeParams(max_depth=1))
    assert tree.feature.tolist() == [0, -1, -1]
    left = y[X[:, 0] <= tree.threshold[0]]
    right = y[X[:, 0] > tree.threshold[0]]
    assert tree.value[0] == pytest.approx(left.mean())
    assert tree.value[1] == pytest.approx(right.mean())


def test_empty_data_error():
    with pytest.raises(ValidationError, match="empty"):
        fit_tree(np.zeros((0, 1)), np.zeros(0))
    with pytest.raises(ValidationError, match="X has 3 rows but y has 2 entries"):
        fit_tree(np.zeros((3, 1)), np.zeros(2))


def test_targets_beyond_the_overflow_bound_are_refused():
    # 1e200 squared overflows: the split search used to pick the first NaN SSE
    X = np.arange(8.0).reshape(-1, 1)
    y = np.array([0.0] * 4 + [1e200] * 4)
    bound = math.sqrt(np.finfo(np.float64).max) / 16
    with pytest.raises(ValidationError, match=f"as large as \\|y\\| = 1e\\+200: with 8 rows") as error:
        fit_tree(X, y)
    assert f"beyond |y| = {bound:.6g}" in str(error.value)
    for fit in (fit_forest, fit_boost):
        with pytest.raises(ValidationError, match="split search overflows"):
            fit(X, y)
    # at the bound the same shape still fits: one split between the two levels
    tree = fit_tree(X, np.where(y > 0, bound, 0.0))
    assert arrays(tree) == ([0, -1, -1], [3.5], [0.0, bound])


def test_targets_at_the_overflow_bound_fit_as_the_reference_does():
    # every |y| sits exactly at check_target's bound; any overflow warning fails the test
    rng = np.random.default_rng(27)
    n = 240
    bound = math.sqrt(np.finfo(np.float64).max) / (2 * n)
    X = rng.integers(0, 8, size=(n, 3)).astype(float)
    y = bound * np.where(X[:, 1] + rng.integers(0, 3, size=n) > 5, 1.0, -1.0)
    params = TreeParams(max_depth=4)
    tree = fit_tree(X, y, params)
    assert tree.n_nodes > 3
    assert arrays(tree) == preorder(reference_fit(X, y, params))


def test_predict_feature_mismatch():
    tree = fit_tree(np.arange(6.0).reshape(-1, 1), np.arange(6.0))
    with pytest.raises(ValidationError, match="features"):
        predict_tree(tree, np.zeros((2, 3)))


# preorder: x0 <= 0.5 -> leaf 1.0; else x1 <= -1.0 -> leaf 2.0, else leaf 3.0
FIVE_NODES = {
    "feature": [0, -1, 1, -1, -1],
    "threshold": [0.5, -1.0],
    "value": [1.0, 2.0, 3.0],
}


# (id, arrays changed from FIVE_NODES, text the error must hold)
TREE_DEFECTS = [
    ("zero-nodes", {name: [] for name in FIVE_NODES}, "feature must hold at least one node"),
    ("unequal-lengths", {"threshold": [0.5]}, "threshold has 1 entries but the tree has 2 splits"),
    ("value-count", {"value": [1.0, 2.0, 3.0, 4.0]}, "value has 4 entries but the tree has 3 leaves"),
    ("feature-minus-2", {"feature": [0, -1, -2, -1, -1]}, "feature[2] -2 is not -1 or a feature index below 2"),
    ("feature-out-of-range", {"feature": [0, -1, 2, -1, -1]}, "feature[2] 2 is not -1 or a feature index"),
    ("leaf-ends-early", {"feature": [0, -1, -1, 1, -1]}, "node 2 completes the tree, but 2 more node(s) follow it"),
    # the split at node 2 has a left child and no right one
    ("one-child", {"feature": [0, -1, 1, -1], "value": [1.0, 2.0]}, "node 3 is the last, but 1 open subtree(s)"),
]


@pytest.mark.parametrize("changes, expected", [c[1:] for c in TREE_DEFECTS], ids=[c[0] for c in TREE_DEFECTS])
def test_tree_rejects_arrays_that_do_not_describe_a_tree(changes, expected):
    arrays = {**FIVE_NODES, **changes}
    RegressionTree(**FIVE_NODES, n_features=2)
    with pytest.raises(ValidationError) as error:
        RegressionTree(**arrays, n_features=2)
    assert expected in str(error.value)


def stack_walk(splits):
    """Read a split/leaf sequence as one tree in preorder with an explicit stack.

    Returns the (left, right) children per node, a leaf its own, or None
    when the sequence is not exactly one tree.
    """
    left, right = list(range(len(splits))), list(range(len(splits)))
    slots = [(None, None)]  # (parent, side) of each subtree still waiting for its root
    for i, split in enumerate(splits):
        if not slots:
            return None
        parent, side = slots.pop()
        if parent is not None:
            (left if side == "left" else right)[parent] = i
        if split:
            slots += [(i, "right"), (i, "left")]
    return (left, right) if splits and not slots else None


@st.composite
def split_sequences(draw):
    """Random split (True) / leaf (False) sequences, half of them grown as one tree and then perhaps edited."""
    if draw(st.booleans()):
        return draw(st.lists(st.booleans(), max_size=40))
    splits, open_subtrees = [], 1
    while open_subtrees and len(splits) < 40:
        splits.append(draw(st.booleans()))
        open_subtrees += 1 if splits[-1] else -1
    if draw(st.booleans()):  # cut nodes off the end, add some, or both
        splits = splits[: len(splits) - draw(st.integers(0, 2))] + draw(st.lists(st.booleans(), max_size=2))
    return splits


@settings(max_examples=400, deadline=None, derandomize=True)
@given(split_sequences())
def test_a_node_sequence_is_accepted_iff_a_stack_walk_finds_one_tree(splits):
    n_splits = sum(splits)
    arrays = {
        "feature": [0 if split else -1 for split in splits],
        "threshold": np.arange(n_splits, dtype=float),
        "value": np.arange(len(splits) - n_splits, dtype=float),
    }
    children = stack_walk(splits)
    if children is None:
        with pytest.raises(ValidationError):
            RegressionTree(**arrays, n_features=1)
        return
    tree = RegressionTree(**arrays, n_features=1)
    left, right, threshold, value = tree.per_node()
    assert (left.tolist(), right.tolist()) == children
    split = np.array(splits, dtype=bool)
    assert threshold[split].tolist() == arrays["threshold"].tolist()
    assert value[~split].tolist() == arrays["value"].tolist()


@pytest.mark.parametrize(
    "below, above",
    [(1 + 2**-52, 1 + 2**-51), (1e308, 1.5e308), (-1.5e308, -1e308), (-math.inf, math.inf)],
    ids=["adjacent", "overflow", "negative-overflow", "infinities"],
)
@pytest.mark.parametrize("max_depth", [3, None])
def test_split_between_adjacent_or_huge_values_falls_back_to_the_lower(below, above, max_depth):
    # the midpoint rounds up to `above` or overflows, which would send both rows left,
    # or is NaN (-inf + inf), which would send both right
    tree = fit_tree(np.array([[below], [above]]), np.array([0.0, 1.0]), TreeParams(max_depth=max_depth))
    assert arrays(tree) == ([0, -1, -1], [below], [0.0, 1.0])


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


def reference_sse(X, y):
    """(xs, sse): each column of X sorted, and the child SSE of every boundary, ties included, (rows - 1, features)."""
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
    return xs, (sl2 - sl * sl / nl) + (total2 - sl2) - (total - sl) ** 2 / nr


def reference_best_split(X, y, min_samples_leaf):
    n = len(y)
    xs, sse = reference_sse(X, y)
    nl = np.arange(1, n, dtype=np.float64)[:, None]
    nr = n - nl
    valid = xs[:-1, :] < xs[1:, :]
    if min_samples_leaf > 1:
        valid &= (nl >= min_samples_leaf) & (nr >= min_samples_leaf)
    if not valid.any():
        return None
    sse = np.where(valid, sse, np.inf)
    feature, pos = divmod(int(np.argmin(sse.T)), n - 1)
    below, above = float(xs[pos, feature]), float(xs[pos + 1, feature])
    threshold = 0.5 * (below + above)
    return feature, below if threshold == above or not math.isfinite(threshold) else threshold


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
    """The reference tree as RegressionTree's arrays: (feature per node, threshold per split, value per leaf)."""
    feature, threshold, value, stack = [], [], [], [root]
    while stack:
        node = stack.pop()
        feature.append(node.feature)
        if node.is_leaf:
            value.append(node.value)
        else:
            threshold.append(node.threshold)
            stack += (node.right, node.left)
    return feature, threshold, value


def arrays(tree):
    return tree.feature.tolist(), tree.threshold.tolist(), tree.value.tolist()


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
@given(tree_data(), st.lists(st.integers(0, 29), min_size=1, max_size=30))
def test_presorted_fit_matches_per_node_argsort(case, picks):
    X, y, params = case
    reference = reference_fit(X, y, params)
    expected = preorder(reference)
    assert arrays(fit_tree(X, y, params)) == expected
    # a forest's tree fits X[rows] without building it, from its own presort or from shared ranks
    rows = np.array(picks, dtype=np.intp) % len(y)
    on_rows = preorder(reference_fit(X[rows], y[rows], params))
    assert arrays(fit_tree(X, y, params, rows=rows)) == on_rows
    assert arrays(fit_tree(X, y, params, rows=rows, ranks=tree_module.dense_ranks(X))) == on_rows
    # every tree of a forest without bootstrap shares one presort
    forest = fit_forest(X, y, ForestHyperparams(
        n_trees=2, max_depth=params.max_depth, min_samples_leaf=params.min_samples_leaf, bootstrap=False
    ))
    assert [arrays(t) for t in forest.trees] == [expected, expected]
    per_tree = np.stack([reference_predict(reference, X)] * 2)
    np.testing.assert_array_equal(forest.predict(X), per_tree.mean(axis=0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tree_data(), st.sampled_from([0.1, 0.5, 1.0]))
def test_boost_stages_sharing_one_presort_match_reference(case, learning_rate):
    X, y, params = case
    fresh = tree_module.presort(X)

    def stage_leaving_the_presort_intact(*args, presorted, **kwargs):
        stage = fit_tree(*args, presorted=presorted, **kwargs)
        for shared, expected in zip(presorted, fresh):
            np.testing.assert_array_equal(shared, expected)
        return stage

    with patch.object(ensemble_module, "fit_tree", stage_leaving_the_presort_intact):
        model = fit_boost(X, y, BoostHyperparams(
            n_stages=4, learning_rate=learning_rate, max_depth=params.max_depth,
            min_samples_leaf=params.min_samples_leaf,
        ))
    F = np.full(len(y), model.init_value)
    for stage in model.stages:
        reference = reference_fit(X, y - F, params)
        assert arrays(stage) == preorder(reference)
        F = F + learning_rate * reference_predict(reference, X)
    np.testing.assert_array_equal(predict_tree(model.stages[-1], X), reference_predict(reference, X))


@st.composite
def sort_columns(draw):
    """Columns of heavy ties, signed zeros, infinities and NaNs of both signs; rows may repeat."""
    n, p = draw(st.integers(1, 40)), draw(st.integers(1, 3))
    special = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan])
    cells = st.lists(st.integers(-2, 2).map(float) | special | st.floats(), min_size=n * p, max_size=n * p)
    X = np.array(draw(cells)).reshape(n, p)
    if draw(st.booleans()):  # a bootstrap draw: rows repeat in scrambled order
        X = X[np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))]
    return X


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sort_columns(), st.lists(st.integers(0, 39), max_size=40))
@example(np.array([[-math.nan, -0.0, 1.0]]), [0, 0])
@example(np.array([[0.0, math.nan], [-0.0, -math.nan]]), [1, 0, 1])
@example(np.array([[1.0, 0.0], [1.0, -0.0]]), [1, 1, 0])
def test_presort_equals_a_stable_argsort_bit_for_bit(X, picks):
    # all of X, then X[rows] for rows drawn with repeats, straight from X and through shared ranks
    rows = np.array(picks, dtype=np.intp) % len(X)
    for sample, order in (
        (X, tree_module.presort(X)),
        (X[rows], tree_module.presort(X, rows)),
        (X[rows], tree_module.presort(X, rows, tree_module.dense_ranks(X))),
    ):
        assert order.dtype == np.int32  # half the workspace of 8-byte positions
        np.testing.assert_array_equal(order, np.argsort(sample.T, axis=1, kind="stable"))


def test_reference_properties_hold_with_one_feature_per_block():
    # the hypothesis nodes are at most 30 x 4, so at the default block size each fits in one block
    with patch.object(tree_module, "_BLOCK_CELLS", 1):
        test_presorted_fit_matches_per_node_argsort()
        test_boost_stages_sharing_one_presort_match_reference()


def test_fit_spanning_several_blocks_matches_reference():
    rng = np.random.default_rng(16)
    n, p = 3000, 26
    assert p * n > 2 * tree_module._BLOCK_CELLS  # the root's split search takes three blocks or more
    X = rng.normal(size=(n, p))
    X[:, ::3] = rng.integers(0, 40, size=X[:, ::3].shape)  # ties, so invalid boundaries
    y = X[:, 5] - 0.5 * X[:, 12] + rng.normal(size=n)
    params = TreeParams(max_depth=6, min_samples_leaf=3)
    assert arrays(fit_tree(X, y, params)) == preorder(reference_fit(X, y, params))


@pytest.mark.parametrize("block_cells", [tree_module._BLOCK_CELLS, 1])
def test_a_tie_at_the_sse_minimum_falls_back_to_the_first_valid_boundary(block_cells):
    X, y = np.array([[0.0, 3.0], [0.0, 2.0], [1.0, 1.0], [1.0, 0.0]]), np.array([0.0, 10.0, 10.0, 10.0])
    # with ties allowed, the first minimum in feature-major order sits between feature 0's two zeros
    xs, sse = reference_sse(X, y)
    feature, pos = divmod(int(np.argmin(sse.T)), len(y) - 1)
    assert (feature, pos) == (0, 0) and xs[pos, feature] == xs[pos + 1, feature]
    params = TreeParams(max_depth=1)
    expected = preorder(reference_fit(X, y, params))
    assert expected == ([1, -1, -1], [2.5], [10.0, 0.0])
    with patch.object(tree_module, "_BLOCK_CELLS", block_cells):
        assert arrays(fit_tree(X, y, params)) == expected


def test_split_search_allocates_a_bounded_multiple_of_its_sse_array():
    rng = np.random.default_rng(8)
    X, y = rng.normal(size=(8192, 26)), rng.normal(size=8192)
    order, rows = tree_module.presort(X), np.arange(8192)
    pairs = np.empty(8192, dtype=np.complex128)  # fit_tree's targets: y + i y^2
    pairs.real, pairs.imag = y, y * y
    tracemalloc.start()
    try:
        feature, pos, threshold = tree_module._best_split(X, rows, order, pairs, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (feature, threshold) == reference_best_split(X, y, 1)
    assert X[order[feature, pos], feature] <= threshold < X[order[feature, pos + 1], feature]
    # the size of an SSE array over every candidate boundary, which the running minimum never builds
    sse_bytes = 26 * 8191 * 8
    assert peak < sse_bytes, f"peak {peak} bytes is {peak / sse_bytes:.2f} x the sse array"


@pytest.mark.parametrize("fit", [
    lambda X, y: fit_forest(X, y, ForestHyperparams(n_trees=2, max_depth=6), 1),
    lambda X, y: fit_tree(X, y),
    lambda X, y: fit_boost(X, y, BoostHyperparams(n_stages=5)),
], ids=["forest_2_trees_depth_6", "full_depth_tree", "boost_5_stages"])
def test_a_fit_peaks_below_twice_its_matrix(fit):
    # the workspace is the presorted order, int32 positions, 0.5 x X.nbytes; a forest adds
    # its ranks, 0.5 x, and boosting keeps its shared presort beside each stage's workspace
    rng = np.random.default_rng(8)
    X, y = rng.normal(size=(8192, 26)), rng.normal(size=8192)
    tracemalloc.start()
    try:
        fit(X, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * X.nbytes, f"peak {peak} bytes is {peak / X.nbytes:.2f} x X.nbytes"


def test_a_fit_of_too_many_rows_for_int32_positions_is_refused():
    X, y = np.arange(16.0).reshape(8, 2), np.arange(8.0)
    with patch.object(tree_module, "_MAX_ROWS", 8):
        with pytest.raises(ValidationError, match="cannot fit a tree on 8 rows"):
            fit_tree(X, y)
        with pytest.raises(ValidationError, match="cannot fit a tree on 8 rows"):
            fit_tree(X[:4], y[:4], rows=np.arange(8) % 4)  # a bootstrap sample counts its draws
        with pytest.raises(ValidationError, match="cannot fit a tree on 8 rows"):
            tree_module.presort(X)
        assert fit_tree(X[:7], y[:7]).n_nodes > 1
