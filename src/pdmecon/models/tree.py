"""CART-style regression tree grown by variance reduction, stored as flat arrays.

A fitted tree is five parallel arrays, the layout of scikit-learn's Tree: node
i routes x[feature[i]] <= threshold[i] to left[i] and the rest to right[i];
a leaf has left = right = -1 (and feature -1) and predicts value[i]. Internal
nodes keep the mean of their rows in value too (0.0 in trees read from
version-1 model files, which did not store it). Children always come after
their parent, so a walk down the arrays always ends. Prediction stacks the
trees of a model into one node array and walks all of them level by level.

Fitting argsorts X once per feature (stable) and stably partitions that order
into the children at each split, so every node sees its rows sorted by each
feature with ties in row order, exactly as a stable argsort of the node's own
rows would give. Split search is vectorized over all features at once: prefix
sums of y and y^2 along the sorted order, then the child SSE for every
candidate boundary. Candidate thresholds sit at midpoints between consecutive
distinct sorted values, or at the lower value where the midpoint rounds up to
the upper one or overflows, as in scikit-learn; ties in reduction resolve to
the lowest (feature index, threshold) so fitting is deterministic. The build
loop uses an explicit stack, pathological data can produce trees deeper than
Python's recursion limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError


@dataclass(frozen=True)
class TreeParams:
    max_depth: int | None = None  # None = unlimited
    min_samples_leaf: int = 1

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 0:
            raise ValidationError("max_depth must be >= 0 or None")
        if self.min_samples_leaf < 1:
            raise ValidationError("min_samples_leaf must be >= 1")

    def to_dict(self) -> dict:
        return {"max_depth": self.max_depth, "min_samples_leaf": self.min_samples_leaf}


@dataclass(frozen=True, eq=False)
class RegressionTree:
    feature: np.ndarray  # intp; -1 at leaves
    threshold: np.ndarray  # float64
    left: np.ndarray  # intp; -1 at leaves
    right: np.ndarray  # intp; -1 at leaves
    value: np.ndarray  # float64; the mean of the node's training targets
    params: TreeParams
    n_features: int

    @property
    def n_nodes(self) -> int:
        return len(self.value)

    @property
    def root(self) -> "NodeView":
        return NodeView(self, 0)


@dataclass(frozen=True, eq=False)
class NodeView:
    """Read-only view of one node of a RegressionTree."""

    tree: RegressionTree
    index: int

    @property
    def is_leaf(self) -> bool:
        return bool(self.tree.left[self.index] < 0)

    @property
    def left(self) -> "NodeView | None":
        return None if self.is_leaf else NodeView(self.tree, int(self.tree.left[self.index]))

    @property
    def right(self) -> "NodeView | None":
        return None if self.is_leaf else NodeView(self.tree, int(self.tree.right[self.index]))

    @property
    def feature(self) -> int:
        return int(self.tree.feature[self.index])

    @property
    def threshold(self) -> float:
        return float(self.tree.threshold[self.index])

    @property
    def value(self) -> float:
        return float(self.tree.value[self.index])


class NodeLists:
    """A tree under construction: node 0 is the root, every new node a leaf."""

    def __init__(self):
        self.feature, self.threshold, self.left, self.right, self.value = [-1], [0.0], [-1], [-1], [0.0]

    def split(self, node: int, feature: int, threshold: float) -> tuple[int, int]:
        """Turn leaf `node` into a split over two new leaves; returns their indices."""
        lnode = len(self.value)
        for column, fill in (
            (self.feature, -1), (self.threshold, 0.0), (self.left, -1), (self.right, -1), (self.value, 0.0)
        ):
            column += (fill, fill)
        self.feature[node], self.threshold[node] = feature, threshold
        self.left[node], self.right[node] = lnode, lnode + 1
        return lnode, lnode + 1

    def tree(self, params: TreeParams, n_features: int) -> RegressionTree:
        return RegressionTree(
            feature=np.array(self.feature, dtype=np.intp),
            threshold=np.array(self.threshold, dtype=np.float64),
            left=np.array(self.left, dtype=np.intp),
            right=np.array(self.right, dtype=np.intp),
            value=np.array(self.value, dtype=np.float64),
            params=params,
            n_features=n_features,
        )


def presort(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort of X's rows by each feature, feature-major.

    Returns (order, values): order[f] lists the row indices by X[:, f], ties
    in row order, and values[f] = X[order[f], f].
    """
    order = np.argsort(X.T, axis=1, kind="stable")
    return order, np.take_along_axis(X.T, order, axis=1)


def _best_split(xs: np.ndarray, ys: np.ndarray, min_samples_leaf: int):
    """Return (feature, threshold) minimizing child SSE, or None if no valid split.

    xs and ys are (features, rows): each row holds the node's X values of one
    feature in sorted order and the targets in that same order.
    """
    n = xs.shape[1]
    cum = np.cumsum(ys, axis=1)
    cum2 = np.cumsum(ys * ys, axis=1)
    total, total2 = cum[:, -1:], cum2[:, -1:]

    # boundary after sorted position i puts i+1 rows on the left
    nl = np.arange(1, n, dtype=np.float64)
    nr = n - nl
    sl, sl2 = cum[:, :-1], cum2[:, :-1]
    sse = (sl2 - sl * sl / nl) + (total2 - sl2) - (total - sl) ** 2 / nr

    valid = xs[:, :-1] < xs[:, 1:]
    if min_samples_leaf > 1:
        valid &= (nl >= min_samples_leaf) & (nr >= min_samples_leaf)
    if not valid.any():
        return None
    sse = np.where(valid, sse, np.inf)
    # feature-major flatten: first minimum = lowest feature, then lowest threshold
    feature, pos = divmod(int(np.argmin(sse)), n - 1)
    below, above = float(xs[feature, pos]), float(xs[feature, pos + 1])
    threshold = 0.5 * (below + above)
    # the midpoint of adjacent floats can round up to `above`, and below + above
    # can overflow; either would send every row left, so split at `below`
    if threshold == above or math.isinf(threshold):
        threshold = below
    return feature, threshold


def fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    params: TreeParams | None = None,
    presorted: tuple[np.ndarray, np.ndarray] | None = None,
) -> RegressionTree:
    """Grow a regression tree; leaves hold the mean of their training targets.

    Recursion stops at max_depth, when a node cannot host two leaves of
    min_samples_leaf rows, at zero target variance, or when every feature is
    constant within the node. `presorted` is presort(X), passed by callers
    that fit several trees on the same X.
    """
    params = params or TreeParams()
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    if len(y) == 0:
        raise ValidationError("cannot fit a tree on empty data")
    if X.shape[0] != len(y):
        raise ValidationError(f"X has {X.shape[0]} rows but y has {len(y)} entries")
    min_leaf, max_depth = params.min_samples_leaf, params.max_depth

    def splittable(rows: np.ndarray, depth: int) -> bool:
        return (max_depth is None or depth < max_depth) and len(rows) >= 2 * min_leaf

    nodes = NodeLists()
    goes_left = np.zeros(len(y), dtype=bool)
    # (node, its rows ascending, (their per-feature sorted order, sorted X), depth)
    stack = [(0, np.arange(len(y)), presort(X) if presorted is None else presorted, 0)]
    while stack:
        node, idx, sorted_rows, depth = stack.pop()
        y_node = y[idx]  # ascending rows: the mean's pairwise sum sees the same order
        nodes.value[node] = float(y_node.mean())
        if not splittable(idx, depth) or np.ptp(y_node) == 0.0:
            continue
        order, xs = sorted_rows
        split = _best_split(xs, y.take(order), min_leaf)
        if split is None:
            continue
        mask = X[idx, split[0]] <= split[1]
        lrows, rrows = idx[mask], idx[~mask]
        # a stable partition keeps each feature's sorted order within both children
        goes_left[lrows] = True
        side = goes_left.take(order)
        goes_left[lrows] = False
        for child, child_rows, here in zip(nodes.split(node, *split), (lrows, rrows), (side, ~side)):
            child_sorted = None  # a child that cannot split needs no sorted arrays
            if splittable(child_rows, depth + 1):
                at = np.flatnonzero(here)
                shape = (len(order), len(child_rows))
                child_sorted = order.take(at).reshape(shape), xs.take(at).reshape(shape)
            stack.append((child, child_rows, child_sorted, depth + 1))
    return nodes.tree(params, X.shape[1])


def stack_trees(trees: list[RegressionTree]) -> tuple:
    """Concatenate trees into one node array for walk_stacked.

    Returns (feature, threshold, left, right, value, roots, depth). A leaf's
    children point at the leaf itself, so every row that walks `depth` levels
    down from a root ends on its leaf.
    """
    sizes = [tree.n_nodes for tree in trees]
    roots = np.cumsum([0] + sizes[:-1], dtype=np.intp)
    offset = np.repeat(roots, sizes)

    def joined(name: str) -> np.ndarray:
        return np.concatenate([getattr(tree, name) for tree in trees])

    leaf = joined("left") < 0
    itself = np.arange(len(leaf))
    left = np.where(leaf, itself, joined("left") + offset)
    right = np.where(leaf, itself, joined("right") + offset)
    depth, level = 0, roots[~leaf[roots]]
    while level.size:
        level = np.concatenate([left[level], right[level]])
        level = level[~leaf[level]]
        depth += 1
    feature = np.where(leaf, 0, joined("feature"))
    return feature, joined("threshold"), left, right, joined("value"), roots, depth


def walk_stacked(stacked: tuple, X: np.ndarray) -> np.ndarray:
    """Every stacked tree's prediction for every row of X, shape (trees, rows).

    All trees are walked level by level together: each step moves every
    (tree, row) pair one level down.
    """
    feature, threshold, left, right, value, roots, depth = stacked
    n_rows, n_features = X.shape
    x = np.ascontiguousarray(X).ravel()
    node = np.repeat(roots, n_rows)
    row_start = np.tile(np.arange(0, n_rows * n_features, n_features), len(roots))
    for _ in range(depth):
        node = np.where(x[row_start + feature[node]] <= threshold[node], left[node], right[node])
    return value[node].reshape(len(roots), n_rows)


def as_rows(X: np.ndarray, n_features: int) -> np.ndarray:
    """X as a float64 matrix of rows, checked against a model's feature count."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != n_features:
        raise ValidationError(f"model was trained on {n_features} features, got {X.shape[1]}")
    return X


def predict_tree(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    return walk_stacked(stack_trees([tree]), as_rows(X, tree.n_features))[0]
