"""CART-style regression tree grown by variance reduction.

Split search is vectorized over all features at once: one argsort per node,
prefix sums of y and y^2, then the child SSE for every candidate boundary.
Candidate thresholds sit at midpoints between consecutive distinct sorted
values; ties in reduction resolve to the lowest (feature index, threshold) so
fitting is deterministic. The build loop uses an explicit stack, pathological
data can produce trees deeper than Python's recursion limit.
"""

from __future__ import annotations

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


@dataclass
class TreeNode:
    # leaf when left is None; internal nodes route x[feature] <= threshold left
    feature: int = -1
    threshold: float = 0.0
    value: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class RegressionTree:
    root: TreeNode
    params: TreeParams
    n_features: int


def _best_split(X: np.ndarray, y: np.ndarray, min_samples_leaf: int):
    """Return (feature, threshold) minimizing child SSE, or None if no valid split."""
    n = len(y)
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    ys = y[order]
    cum = np.cumsum(ys, axis=0)
    cum2 = np.cumsum(ys * ys, axis=0)
    total, total2 = cum[-1, :], cum2[-1, :]

    # boundary after sorted position i puts i+1 rows on the left
    nl = np.arange(1, n, dtype=np.float64)[:, None]
    nr = n - nl
    sl, sl2 = cum[:-1, :], cum2[:-1, :]
    sse = (sl2 - sl * sl / nl) + (total2 - sl2) - (total - sl) ** 2 / nr

    valid = xs[:-1, :] < xs[1:, :]
    if min_samples_leaf > 1:
        ok = (nl >= min_samples_leaf) & (nr >= min_samples_leaf)
        valid &= ok
    if not valid.any():
        return None
    sse = np.where(valid, sse, np.inf)
    # feature-major flatten: first minimum = lowest feature, then lowest threshold
    flat = int(np.argmin(sse.T))
    feature, pos = divmod(flat, n - 1)
    threshold = 0.5 * (xs[pos, feature] + xs[pos + 1, feature])
    return feature, float(threshold)


def fit_tree(X: np.ndarray, y: np.ndarray, params: TreeParams | None = None) -> RegressionTree:
    """Grow a regression tree; leaves hold the mean of their training targets.

    Recursion stops at max_depth, when a node cannot host two leaves of
    min_samples_leaf rows, at zero target variance, or when every feature is
    constant within the node.
    """
    params = params or TreeParams()
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    if len(y) == 0:
        raise ValidationError("cannot fit a tree on empty data")
    if X.shape[0] != len(y):
        raise ValidationError(f"X has {X.shape[0]} rows but y has {len(y)} entries")

    root = TreeNode()
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
        split = _best_split(X[idx], y_node, params.min_samples_leaf)
        if split is None:
            continue
        node.feature, node.threshold = split
        mask = X[idx, node.feature] <= node.threshold
        node.left, node.right = TreeNode(), TreeNode()
        stack.append((node.left, idx[mask], depth + 1))
        stack.append((node.right, idx[~mask], depth + 1))
    return RegressionTree(root=root, params=params, n_features=X.shape[1])


def predict_tree(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != tree.n_features:
        raise ValidationError(
            f"tree was grown on {tree.n_features} features, got {X.shape[1]}"
        )
    out = np.empty(X.shape[0], dtype=np.float64)
    stack = [(tree.root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if len(idx) == 0:
            continue
        if node.is_leaf:
            out[idx] = node.value
            continue
        mask = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))
    return out
