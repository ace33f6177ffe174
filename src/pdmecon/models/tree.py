"""CART-style regression tree grown by variance reduction, stored as flat arrays.

A fitted tree is its nodes in preorder: feature[i] is the feature node i
splits on, or -1 at a leaf; threshold holds one entry per split and value one
per leaf, both in node order. A split sends x[feature] <= threshold to its
left child, the next node, and the rest to its right child, the node after
the left subtree. Every tree, fitted, built by hand or read from a model file,
is checked on construction: features are -1 or in range, the counts match,
and the open-subtree count (1 + splits - leaves so far) stays at 1 or more
before the last node and reaches 0 at it, so the nodes are exactly one tree.
Prediction stacks the trees of a model into one node array and walks all of
them level by level.

Fitting grows a tree in one workspace: the rows sorted by each feature
(order), feature-major, as int32 positions, half the size of X, plus one row
array; a fit of 2**31 rows or more is refused, as its positions would not
fit. A node is a column range [a, b) of the workspace, with its rows
ascending in the row array; a split stably partitions that range in place,
a block of features at a time, so every node sees its rows sorted by each
feature with ties in row order, exactly as a stable argsort of the node's
own rows would give. A split whose children are both too small or too deep
to split leaves the order as it is. The left child
is the node's first rows by the split feature, so growth reads X only to
check a boundary for a tie and to take a threshold. Boosting shares one
presort across its stages: a stage's root partitions it into a fresh
workspace, leaving it intact. The presort gets the stable order from two
quicksorts per feature (numpy's quicksort is a SIMD sort where the CPU has
one): the first ranks the values, the second sorts the unique keys
rank << 32 | row; a forest ranks X once for all its trees, and each tree
sorts its bootstrap rows' keys without building X[rows]. Split search takes
prefix sums of y and y^2 along the sorted order, both from one cumsum over
complex targets y + i y^2, then the child SSE for every candidate boundary.
It runs over blocks of features whose temporaries stay under 256 KB each, in
a few reused buffers, and keeps a running minimum across the blocks, so no
SSE array over all features is built. A boundary between tied values is no
candidate; a block checks only its SSE minimum for a tie, and only where it
is one does it rule out every tied boundary of the block and take the
minimum again, which gives the same first valid minimum. Each SSE comes from
the same operations in the same order as over all features at once, and the
first minimum in feature-major order wins, so blocking changes no bit of any
tree. Targets are refused where those sums could overflow float64. Candidate
thresholds sit at midpoints between consecutive distinct sorted values, or at
the lower value where the midpoint rounds up to the upper one or is not
finite, as in scikit-learn; ties in reduction resolve to the lowest (feature
index, threshold) so fitting is deterministic. The
build loop uses an explicit stack that pops nodes in preorder; pathological
data can produce trees deeper than Python's recursion limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from ..errors import ValidationError


@dataclass(frozen=True, kw_only=True)
class TreeParams:
    max_depth: int | None = None  # None = unlimited
    min_samples_leaf: int = 1

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 0:
            raise ValidationError("max_depth must be >= 0 or None")
        if self.min_samples_leaf < 1:
            raise ValidationError("min_samples_leaf must be >= 1")


@dataclass(frozen=True, eq=False)
class RegressionTree:
    feature: Annotated[np.ndarray, np.intp]  # per node in preorder, -1 at a leaf
    threshold: Annotated[np.ndarray, np.float64]  # per split, in node order
    value: Annotated[np.ndarray, np.float64]  # per leaf, in node order: the mean of its training targets
    n_features: int

    def __post_init__(self):
        object.__setattr__(self, "feature", np.asarray(self.feature, dtype=np.intp))
        for name in ("threshold", "value"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        feature, n = self.feature, len(self.feature)
        if n == 0:
            raise ValidationError("feature must hold at least one node")

        def first(bad: np.ndarray) -> int | None:
            return int(np.argmax(bad)) if bad.any() else None

        leaf = feature == -1
        if (i := first(~leaf & ~((0 <= feature) & (feature < self.n_features)))) is not None:
            raise ValidationError(f"feature[{i}] {feature[i]} is not -1 or a feature index below {self.n_features}")
        for name, count, what in (("threshold", n - leaf.sum(), "splits"), ("value", leaf.sum(), "leaves")):
            if len(getattr(self, name)) != count:
                raise ValidationError(f"{name} has {len(getattr(self, name))} entries but the tree has {count} {what}")
        # subtrees still open after each node: a split opens two in place of its own, a leaf closes its own
        open_after = 1 + np.cumsum(np.where(leaf, -1, 1))
        if (i := first(open_after[:-1] < 1)) is not None:
            raise ValidationError(f"node {i} completes the tree, but {n - 1 - i} more node(s) follow it")
        if open_after[-1] != 0:
            raise ValidationError(f"node {n - 1} is the last, but {open_after[-1]} open subtree(s) have no nodes")

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def root(self) -> "NodeView":
        return NodeView(self, 0, self.per_node())

    def per_node(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(left, right, threshold, value) for every node; a leaf is its own left and right child.

        A split's left child is the next node, and its right child the next
        node that starts with as many open subtrees as the split did. threshold
        is 0.0 at a leaf and value 0.0 at a split.
        """
        leaf = self.feature == -1
        step = np.where(leaf, -1, 1)
        order = np.argsort(np.cumsum(step) - step, kind="stable")  # by the subtrees open before each node
        left, right = np.arange(len(leaf)) + ~leaf, np.arange(len(leaf))
        node, after = order[:-1], order[1:]
        split = ~leaf[node]
        right[node[split]] = after[split]
        threshold, value = np.zeros(len(leaf)), np.zeros(len(leaf))
        threshold[~leaf], value[leaf] = self.threshold, self.value
        return left, right, threshold, value


@dataclass(frozen=True, eq=False)
class NodeView:
    """One node of a RegressionTree, linked to its children. Only the benchmark tracer's
    node count walks these links; the view goes once it reads n_nodes (ROADMAP item 1)."""

    tree: RegressionTree
    index: int
    nodes: tuple  # the tree's per_node(), computed once for the whole walk

    @property
    def is_leaf(self) -> bool:
        return bool(self.tree.feature[self.index] == -1)

    @property
    def left(self) -> "NodeView | None":
        return None if self.is_leaf else NodeView(self.tree, self.index + 1, self.nodes)

    @property
    def right(self) -> "NodeView | None":
        return None if self.is_leaf else NodeView(self.tree, int(self.nodes[1][self.index]), self.nodes)


def dense_ranks(X: np.ndarray) -> np.ndarray:
    """Each value's dense rank within its column, as a (features, rows) uint32 array.

    Equal values share a rank, -0.0 ties with 0.0, and NaNs, which sort last,
    share the highest. A forest ranks X once and hands the ranks to every
    tree's presort, which then skips the first of its two sorts.
    """
    ranks = np.empty((X.shape[1], X.shape[0]), dtype=np.uint32)
    for f, column in enumerate(X.T):
        first = np.argsort(column, kind="quicksort")
        ranked = column[first]
        # a rank starts wherever the sorted value differs from the one before it, except among the NaNs
        starts = ranked[1:] != ranked[:-1]
        starts &= ~np.isnan(ranked[:-1])
        ranks[f, first[:1]] = 0  # the first sorted row ranks 0; first[:1] is empty when X has no rows
        ranks[f, first[1:]] = np.cumsum(starts)
    return ranks


# a fit's positions are int32, and presort's keys keep a position in their low 32 bits
_MAX_ROWS = 2**31


def presort(X: np.ndarray, rows: np.ndarray | None = None, ranks: np.ndarray | None = None) -> np.ndarray:
    """Stable sort of the rows of X[rows] (all of X by default) by each feature, feature-major.

    Returns order, int32: order[f] lists positions in X[rows] by their value
    of feature f, ties in position order, equal to a stable argsort of X[rows]
    bit for bit, without X[rows] being built. Each feature takes two
    quicksorts, several times faster than numpy's stable sort: one gives
    every row of X its dense rank (see dense_ranks; `ranks`, if given, is
    dense_ranks(X) and saves this one), the other sorts the unique keys
    rank << 32 | position, whose low 32 bits are the position. Fewer than
    2**31 rows are taken (_MAX_ROWS), so every position fits in int32; more
    raise ValidationError.
    """
    n = X.shape[0] if rows is None else len(rows)
    if n >= _MAX_ROWS:
        raise ValidationError(f"cannot fit a tree on {n} rows: positions are int32, so a fit takes fewer than {_MAX_ROWS}")
    order = np.empty((X.shape[1], n), dtype=np.int32)
    positions, key = np.arange(n), np.empty(n, dtype=np.int64)
    for f, column in enumerate(X.T):
        rank = dense_ranks(column[:, None])[0] if ranks is None else ranks[f]
        key[:] = rank if rows is None else rank[rows]
        key <<= 32
        key |= positions
        key.sort(kind="quicksort")
        np.bitwise_and(key, 2**32 - 1, out=order[f])
    return order


# complex cells per temporary of the split search: 2**14 of them (256 KB) hold
# the paired prefix sums of a block. Temporaries that size stay in cache and
# are reused from malloc's heap; full-size (features x rows) temporaries are
# fresh mmaps that page-fault on first touch.
_BLOCK_CELLS = 2**14


def _best_split(X: np.ndarray, rows: np.ndarray, order: np.ndarray, pairs: np.ndarray, min_samples_leaf: int):
    """Return (feature, pos, threshold) minimizing child SSE, or None if no valid split.

    order is (features, node rows): each row lists the node's positions in
    sorted order of one feature, and rows[position] is that row of X. pairs
    is fit_tree's complex target array, y + i y^2 per position. The split
    puts the first pos + 1 positions of order[feature] on the left. The child
    SSE of every candidate boundary is computed a block of features at a time
    in a few reused buffers, and a running minimum over the blocks keeps the
    first minimum in feature-major order. A boundary between equal values is
    invalid: X is read for the one boundary at a block's minimum, and only
    where that is a tie are the block's values gathered to rule out every
    tied boundary before the minimum is taken again.
    """
    n_features, n = order.shape

    def value(f: int, p: int) -> float:  # X at the p-th position of order[f]
        return float(X[rows[order[f, p]], f])

    # boundary after sorted position i puts i+1 rows on the left
    nl = np.arange(1, n, dtype=np.float64)
    nr = n - nl
    width = min(n_features, max(1, _BLOCK_CELLS // n))  # features per block
    cum, right = np.empty((width, n), dtype=np.complex128), np.empty((width, n - 1), dtype=np.complex128)
    a, b = np.empty((width, n - 1)), np.empty((width, n - 1))
    best, feature, pos = np.inf, 0, 0
    for start in range(0, n_features, width):
        if start + width > n_features:  # the last block can be narrower: trim the buffers to it
            k = n_features - start
            cum, right, a, b = cum[:k], right[:k], a[:k], b[:k]
        block = slice(start, start + width)
        # mode="wrap" writes straight into cum (the default "raise" buffers); order is always in range.
        # Complex addition is componentwise, so one cumsum gives the prefix sums of y and of y^2
        np.take(pairs, order[block], out=cum, mode="wrap")
        np.cumsum(cum, axis=1, out=cum)
        np.subtract(cum[:, -1:], cum[:, :-1], out=right)
        sl, sl2 = cum.real[:, :-1], cum.imag[:, :-1]  # right is (total - sl) + i (total2 - sl2)
        # (sl2 - sl * sl / nl) + (total2 - sl2) - (total - sl) ** 2 / nr, one
        # operation at a time in that order: cumsum adds along a row in
        # sequence, so every SSE has the bits of the unblocked expression
        np.multiply(sl, sl, out=a)
        np.divide(a, nl, out=a)
        np.subtract(sl2, a, out=a)
        np.add(a, right.imag, out=a)
        np.square(right.real, out=b)
        np.divide(b, nr, out=b)
        np.subtract(a, b, out=a)
        if min_samples_leaf > 1:
            a[:, : min_samples_leaf - 1] = a[:, n - min_samples_leaf :] = np.inf
        # row-major argmin: first minimum = lowest feature, then lowest
        # threshold; a later block must be strictly lower to take over
        at = int(np.argmin(a))
        f, p = divmod(at, n - 1)
        if a.flat[at] < best and not value(start + f, p) < value(start + f, p + 1):
            # the minimum is a tie: rule out every tied boundary of the block and
            # take it again. A valid minimum needs no such pass: ruling out ties
            # only raises other boundaries to inf, so the first minimum stays put
            xs = X[rows[order[block]], np.arange(start, start + len(a))[:, None]]  # the block's sorted values
            a[~(xs[:, :-1] < xs[:, 1:])] = np.inf
            at = int(np.argmin(a))
        if a.flat[at] < best:
            best, (feature, pos) = a.flat[at], divmod(at, n - 1)
            feature += start
    # fit_tree's target bound keeps every valid SSE finite, so an infinite
    # minimum means no valid boundary
    if best == np.inf:
        return None
    below, above = value(feature, pos), value(feature, pos + 1)
    threshold = 0.5 * (below + above)
    # the midpoint of adjacent floats can round up to `above`, and below + above
    # can overflow, sending every row left; -inf + inf is NaN, sending every row
    # right, and a child that keeps all its parent's rows would split forever
    if threshold == above or not math.isfinite(threshold):
        threshold = below
    return feature, pos, threshold


def check_target(y: np.ndarray) -> None:
    """Refuse empty targets, and targets that would overflow the split search.

    The search squares sums of up to len(y) targets, so every |y| must be at
    most sqrt(float64 max) / (2 * len(y)); NaN fails the check too.
    """
    if len(y) == 0:
        raise ValidationError("cannot fit a tree on empty data")
    bound = math.sqrt(np.finfo(np.float64).max) / (2 * len(y))
    largest = float(np.max(np.abs(y)))
    if not largest <= bound:
        raise ValidationError(
            f"cannot fit a tree on targets as large as |y| = {largest:.6g}: with {len(y)} rows, "
            f"split search overflows float64 beyond |y| = {bound:.6g}"
        )


def _partition(source: np.ndarray, dest: np.ndarray, goes_right: np.ndarray, n_left: int) -> None:
    """Stably move the n_left cells per row that goes_right leaves False to the front of each row of dest.

    dest may be source itself, partitioned in place.
    """
    stays = ~goes_right
    left, right = source[stays], source[goes_right]  # copies, taken before dest is written
    dest[:, :n_left] = left.reshape(len(source), n_left)
    dest[:, n_left:] = right.reshape(len(source), -1)


def fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    params: TreeParams | None = None,
    presorted: np.ndarray | None = None,
    rows: np.ndarray | None = None,
    ranks: np.ndarray | None = None,
) -> RegressionTree:
    """Grow a regression tree; leaves hold the mean of their training targets.

    Recursion stops at max_depth, when a node cannot host two leaves of
    min_samples_leaf rows, at zero target variance, or when every feature is
    constant within the node. The tree fits X[rows], y[rows] (all rows by
    default) without building X[rows]. `presorted` is presort(X), passed by
    callers that fit several trees on the same rows of X; it is read, never
    written. `ranks` is dense_ranks(X), passed by callers that fit several
    trees on different rows. The workspace is the sorted order alone, int32
    positions: X is read only to check a split's boundary for a tie and to take
    its threshold. A fit of 2**31 rows or more raises ValidationError from
    presort, as its positions would not fit in int32.
    """
    params = params or TreeParams()
    X, y = as_training(X, y)
    if rows is None:
        rows = np.arange(len(y))
    else:
        y = y[rows]
    check_target(y)
    min_leaf, max_depth = params.min_samples_leaf, params.max_depth

    def splittable(n_rows: int, depth: int) -> bool:
        # X without columns has nothing to split on: the root is the one leaf
        return X.shape[1] > 0 and (max_depth is None or depth < max_depth) and n_rows >= 2 * min_leaf

    pairs = np.empty(len(y), dtype=np.complex128)
    pairs.real, pairs.imag = y, y * y
    # the workspace: a node is a column range [a, b) of it, holding the node's
    # positions ascending in node_rows and sorted by each feature in order; a
    # split partitions its range in place, except that the root partitions a
    # shared presort into a fresh array
    order = presort(X, rows, ranks) if presorted is None else presorted
    node_rows = np.arange(len(y))
    goes_right = np.zeros(len(y), dtype=bool)
    feature, threshold, value = [], [], []
    stack = [(0, len(y), 0)]  # (a, b, depth) of the nodes to grow; popped in preorder
    while stack:
        a, b, depth = stack.pop()
        y_node = y[node_rows[a:b]]  # ascending rows: the mean's pairwise sum sees the same order
        split = None
        # the ufunc reductions are the ones ptp() and mean() make, without their Python wrappers
        if splittable(b - a, depth) and np.maximum.reduce(y_node) != np.minimum.reduce(y_node):
            split = _best_split(X, rows, order[:, a:b], pairs, min_leaf)
        if split is None:
            feature.append(-1)
            value.append(float(np.add.reduce(y_node)) / (b - a))
            continue
        f, pos, t = split
        feature.append(f)
        threshold.append(t)
        # the left child is the node's first pos + 1 rows by feature f
        mid = a + pos + 1
        node_rows[a:mid], node_rows[mid:b] = np.sort(order[f, a:mid]), np.sort(order[f, mid:b])
        if splittable(mid - a, depth + 1) or splittable(b - mid, depth + 1):
            # a child that cannot split never reads the order
            dest = np.empty_like(order) if order is presorted else order
            goes_right[node_rows[mid:b]] = True
            width = min(len(order), max(1, _BLOCK_CELLS // (b - a)))
            for start in range(0, len(order), width):
                block = order[start : start + width, a:b]
                _partition(block, dest[start : start + width, a:b], goes_right.take(block), mid - a)
            goes_right[node_rows[mid:b]] = False
            order = dest
        # the right child goes on the stack first, so the left one pops next
        stack += ((mid, b, depth + 1), (a, mid, depth + 1))
    del order  # the workspace goes before the tree's arrays are built
    return RegressionTree(feature, threshold, value, n_features=X.shape[1])


def stack_trees(trees: list[RegressionTree]) -> tuple:
    """Concatenate trees into one node array for walk_stacked.

    Returns (feature, threshold, left, right, value, roots, depth), the first
    five per node as in each tree's per_node(). A leaf is its own child, so
    every row that walks `depth` levels down from a root ends on its leaf.
    """
    sizes = [tree.n_nodes for tree in trees]
    roots = np.cumsum([0] + sizes[:-1], dtype=np.intp)
    offset = np.repeat(roots, sizes)
    left, right, threshold, value = (np.concatenate(column) for column in zip(*(tree.per_node() for tree in trees)))
    left, right = left + offset, right + offset
    feature = np.concatenate([tree.feature for tree in trees])
    leaf = feature == -1
    depth, level = 0, roots[~leaf[roots]]
    while level.size:
        level = np.concatenate([left[level], right[level]])
        level = level[~leaf[level]]
        depth += 1
    return np.where(leaf, 0, feature), threshold, left, right, value, roots, depth


def walk_stacked(stacked: tuple, X: np.ndarray) -> np.ndarray:
    """Every stacked tree's prediction for every row of X, shape (trees, rows).

    All trees are walked level by level together: each step moves every
    (tree, row) pair one level down.
    """
    feature, threshold, left, right, value, roots, depth = stacked
    n_rows, n_features = X.shape
    x = np.ascontiguousarray(X).ravel()
    node = np.repeat(roots, n_rows)
    row_start = np.tile(np.arange(n_rows) * n_features, len(roots))
    for _ in range(depth):
        node = np.where(x[row_start + feature[node]] <= threshold[node], left[node], right[node])
    return value[node].reshape(len(roots), n_rows)


def as_rows(X: np.ndarray, n_features: int) -> np.ndarray:
    """X as a float64 matrix of rows, checked against a model's feature count."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != n_features:
        raise ValidationError(f"model was trained on {n_features} features, got {X.shape[1]}")
    return X


def as_training(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X as a float64 matrix of rows and y as a float64 vector, one target per row."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    if X.shape[0] != len(y):
        raise ValidationError(f"X has {X.shape[0]} rows but y has {len(y)} entries")
    return X, y


def predict_tree(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    return walk_stacked(stack_trees([tree]), as_rows(X, tree.n_features))[0]
