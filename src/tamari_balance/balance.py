"""Balance calculus: rotation effects on imbalances and height words.

A tree is balanced when every node's imbalance lies in {-1, 0, 1}.  A
right rotation at a node y with left child x changes only the imbalances
at those two positions; the classification table below maps the prior
pair ``(i(x), i(y))`` to its kind and to the resulting pair, valid
whenever both prior values lie in {-1, 0, 1}.

The height word of a node x lists the heights of the right subtrees
hanging off the path that goes from x up through strictly-rightward
ancestors: first the height of x's own right subtree, then, bottom to
top, the heights of the right subtrees of each ancestor with a larger
infix rank.  A rewrite step merges the word's first two letters: they
become ``max+1`` when they differ by at most one and ``max`` otherwise.
Words whose rewrite stages never let the first letter exceed the second
by more than one are admissible; admissible height words certify that an
imbalance at a witness node survives every later rotation.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Sequence

from . import limits
from ._record import frozen
from .families import ImbalanceSet, _family, imbalance_family
from .tamari import RotationError
from .trees import (
    LEAF,
    BinaryTree,
    _Path,
    _path_to,
    iter_subtrees,
    nodes_over,
    sorted_by_text,
    subtree_at,
)


def is_balanced(t: BinaryTree) -> bool:
    """Whether every node's imbalance lies in {-1, 0, 1}."""
    stack = [t]
    while stack:
        cur = stack.pop()
        if cur.left is None or cur.right is None:
            continue
        if not -1 <= cur.right.height - cur.left.height <= 1:
            return False
        stack.append(cur.left)
        stack.append(cur.right)
    return True


_BALANCED = ImbalanceSet.of(-1, 0, 1)


def balanced_trees(n: int) -> tuple[BinaryTree, ...]:
    """All balanced trees with ``n`` nodes, sorted by tree string: the
    ``{-1, 0, 1}`` imbalance family, so ``n`` is bounded by its cap."""
    return imbalance_family(n, _BALANCED)


def balanced_trees_of_height(h: int) -> tuple[BinaryTree, ...]:
    """All balanced trees of height exactly ``h``, sorted by tree string.

    Each is a node over two balanced trees of heights ``h - 2`` or
    ``h - 1``, at least one of them ``h - 1``, and those have fewer than
    ``2**(h - 1)`` nodes.  They are taken from the ``{-1, 0, 1}`` family,
    sorted once, and paired in that order, which is tree-string order for
    the pairs.  The counts grow doubly exponentially (1, 1, 3, 15, 315,
    108675, ...), so ``h`` is capped by :data:`limits.HEIGHT`.
    """
    if h < 0:
        raise ValueError("height must be nonnegative")
    limits.HEIGHT.check(h)
    if h == 0:
        return (LEAF,)
    # The height window is exact: smaller heights cannot reach h, and
    # trees of height h and up also occur below 2**(h - 1) nodes.  Those
    # sizes stay under the family's cap, so its cache is read directly.
    fits = _BALANCED._fits
    below = sorted_by_text(
        t
        for a in range(2 ** (h - 1))
        for t in _family(a, fits)
        if h - 2 <= t.height <= h - 1
    )
    tall = [t for t in below if t.height == h - 1]
    out: list[BinaryTree] = []
    for left in below:
        out += nodes_over(left, below if left.height == h - 1 else tall)
    return tuple(out)


class RotationKind(enum.Enum):
    """Effect of a right rotation on balance around its two moving nodes."""

    CONSERVATIVE_BALANCING = "conservative-balancing"
    SIMPLY_UNBALANCING = "simply-unbalancing"
    FULLY_UNBALANCING = "fully-unbalancing"
    OUTSIDE_TABLE = "outside-table"


_ROTATION_TABLE: dict[tuple[int, int], tuple[RotationKind, tuple[int, int]]] = {
    (-1, -1): (RotationKind.CONSERVATIVE_BALANCING, (1, 1)),
    (0, -1): (RotationKind.CONSERVATIVE_BALANCING, (1, 0)),
    (0, 0): (RotationKind.SIMPLY_UNBALANCING, (2, 1)),
    (1, -1): (RotationKind.SIMPLY_UNBALANCING, (2, 0)),
    (1, 0): (RotationKind.SIMPLY_UNBALANCING, (3, 1)),
    (-1, 0): (RotationKind.FULLY_UNBALANCING, (2, 2)),
    (-1, 1): (RotationKind.FULLY_UNBALANCING, (3, 3)),
    (0, 1): (RotationKind.FULLY_UNBALANCING, (3, 2)),
    (1, 1): (RotationKind.FULLY_UNBALANCING, (4, 2)),
}


@frozen
class RotationClassification:
    """Imbalance bookkeeping for one right rotation.

    ``before`` is ``(i(x), i(y))`` read off the tree; ``after`` is the
    pair at the same two positions once the rotation is applied (the
    rewritten subtree's new top node first).
    """

    kind: RotationKind
    before: tuple[int, int]
    after: tuple[int, int]


def classify_rotation(t: BinaryTree, rank: int) -> RotationClassification:
    """Classify the right rotation at ``rank`` by its imbalance effect."""
    sub = subtree_at(t, rank)
    x = sub.left
    if not x.node_count:
        raise RotationError(f"right rotation needs a left subtree at rank {rank}")
    a, b, c = x.left.height, x.right.height, sub.right.height
    before = (b - a, c - x.height)
    after = (1 + max(b, c) - a, c - b)
    entry = _ROTATION_TABLE.get(before)
    if entry is None:
        return RotationClassification(RotationKind.OUTSIDE_TABLE, before, after)
    kind, table_after = entry
    if table_after != after:
        raise AssertionError(f"table disagrees at {before}: {table_after} vs {after}")
    return RotationClassification(kind, before, after)


def _right_flank(t: BinaryTree, rank: int) -> list[BinaryTree]:
    """Right subtree of the node at ``rank``, then the right subtrees of
    its larger-rank ancestors, bottom to top: those the walk to ``rank``
    left by their left child."""
    path: _Path = []
    sub = _path_to(t, rank, path)
    return [sub.right, *(a.right for a, went_left in reversed(path) if went_left)]


def height_word(t: BinaryTree, rank: int) -> tuple[int, ...]:
    """Heights of the right subtrees flanking the node at ``rank``.

    The first letter is the height of the node's own right subtree, the
    rest are the right-subtree heights of its larger-rank ancestors read
    bottom to top.
    """
    return tuple(sub.height for sub in _right_flank(t, rank))


def rewrite_step(word: Sequence[int]) -> tuple[int, ...]:
    """Merge the first two letters: ``max+1`` if they differ by at most
    one, else ``max``."""
    if len(word) < 2:
        raise ValueError("rewrite step needs at least two letters")
    a, b, rest = word[0], word[1], tuple(word[2:])
    merged = max(a, b) + 1 if abs(a - b) <= 1 else max(a, b)
    return (merged,) + rest


def rewrite_stages(word: Sequence[int]) -> list[tuple[int, ...]]:
    """The full rewrite chain from ``word`` down to a single letter."""
    if len(word) == 0:
        raise ValueError("empty word")
    stages = [tuple(word)]
    while len(stages[-1]) > 1:
        stages.append(rewrite_step(stages[-1]))
    return stages


def rewrite_closure(word: Sequence[int]) -> int:
    """Single letter left after merging the whole word."""
    return rewrite_stages(word)[-1][0]


def is_admissible(word: Sequence[int]) -> bool:
    """Whether no rewrite stage of length two or more starts with a
    letter exceeding its second letter by more than one.

    Words of length at most one are admissible.
    """
    current = tuple(word)
    while len(current) >= 2:
        if current[0] - 1 > current[1]:
            return False
        current = rewrite_step(current)
    return True


def witnesses(t: BinaryTree) -> Iterator[tuple[int, int]]:
    """Yield witness pairs ``(x_rank, y_rank)`` by decreasing ``x_rank``.

    A witness is a node x with imbalance at least 2 whose left subtree is
    balanced and whose leftmost descendant y sees only balanced trees on
    its right flank.
    """
    positions = list(iter_subtrees(t))
    for rank, sub in reversed(positions):
        if sub.right.height - sub.left.height < 2:
            continue
        if not is_balanced(sub.left):
            continue
        y_rank = rank - sub.left.node_count
        if all(is_balanced(s) for s in _right_flank(t, y_rank)):
            yield (rank, y_rank)


def find_witness(t: BinaryTree) -> tuple[int, int] | None:
    """First witness pair by decreasing node rank, or ``None``."""
    return next(witnesses(t), None)


def has_imbalance_invariant(t: BinaryTree) -> bool:
    """Whether some witness sees an admissible height word at its
    leftmost descendant.

    Such a certificate pins an imbalance that no sequence of right
    rotations can repair, so no tree above this one is balanced.
    """
    return any(
        is_admissible(height_word(t, y_rank)) for _, y_rank in witnesses(t)
    )
