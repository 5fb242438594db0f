"""Imbalance patterns and the classification of balanced trees.

An imbalance pattern is an incomplete binary tree whose nodes carry
integer labels.  It occurs in a tree when some node maps onto the
pattern root so that labels equal the imbalances and pattern children
map to existing child nodes; positions the pattern leaves out are
unconstrained.

Two-node patterns relating a node to one child sort the balanced trees
into three camps on each side: trees avoiding the right-unbalancing
patterns (every right rotation keeps balance), trees avoiding the
right-conserving patterns (no right rotation keeps balance), and mixed
trees.  The fully right-conserving trees factor over their root, which
yields a doubly exponential count by height.
"""

from __future__ import annotations

import enum
from functools import lru_cache

from . import limits
from ._record import frozen
from .balance import balanced_trees_of_height, is_balanced
from .trees import LEAF, BinaryTree, iter_subtrees, node, nodes_over


@frozen
class ImbalancePattern:
    """Labeled incomplete binary tree; absent children match anything."""

    label: int
    left: "ImbalancePattern | None" = None
    right: "ImbalancePattern | None" = None

    def __str__(self) -> str:
        left = "_" if self.left is None else str(self.left)
        right = "_" if self.right is None else str(self.right)
        return f"[{left} {self.label} {right}]"


class PatternParseError(ValueError):
    """Malformed pattern literal."""


def _parse_items(tokens: list[str], pos: int) -> tuple[ImbalancePattern, int]:
    if pos >= len(tokens) or tokens[pos] != "[":
        raise PatternParseError("pattern nodes start with '['")
    pos += 1
    label: int | None = None
    children: list[ImbalancePattern | None] = []
    while pos < len(tokens) and tokens[pos] != "]":
        tok = tokens[pos]
        if tok == "_":
            children.append(None)
            pos += 1
        elif tok == "[":
            child, pos = _parse_items(tokens, pos)
            children.append(child)
        else:
            try:
                value = int(tok)
            except ValueError:
                raise PatternParseError(f"unexpected token {tok!r}") from None
            if label is not None:
                raise PatternParseError("a pattern node has a single label")
            label = value
            pos += 1
    if pos >= len(tokens):
        raise PatternParseError("missing ']'")
    if label is None:
        raise PatternParseError("a pattern node needs an integer label")
    if len(children) != 2:
        raise PatternParseError("a pattern node has exactly two child slots")
    return ImbalancePattern(label, children[0], children[1]), pos + 1


def parse_pattern(text: str) -> ImbalancePattern:
    """Parse a pattern literal such as ``[[_ -1 _] -1 _]``.

    Each bracketed node lists one integer label and two child slots
    (``_`` or a nested node); the label may sit in any of the three
    positions.
    """
    tokens = text.replace("[", " [ ").replace("]", " ] ").split()
    pattern, pos = _parse_items(tokens, 0)
    if pos != len(tokens):
        raise PatternParseError(f"trailing tokens in {text!r}")
    return pattern


def matches_at(t: BinaryTree, pattern: ImbalancePattern) -> bool:
    """Whether the root of ``t`` maps onto the pattern root."""
    if t.node_count == 0:
        return False
    if t.right.height - t.left.height != pattern.label:
        return False
    if pattern.left is not None and not matches_at(t.left, pattern.left):
        return False
    if pattern.right is not None and not matches_at(t.right, pattern.right):
        return False
    return True


def occurs(t: BinaryTree, pattern: ImbalancePattern) -> bool:
    """Whether the pattern occurs at some node of ``t``."""
    return any(matches_at(sub, pattern) for _, sub in iter_subtrees(t))


# Pairs (left-child imbalance, node imbalance) after which a right
# rotation keeps the tree balanced, and their complement within the
# balanced range; dually for (node imbalance, right-child imbalance)
# and left rotations.
MAXIMAL_RIGHT_PAIRS = ((-1, -1), (0, -1))
RIGHT_INTERIOR_PAIRS = ((-1, 0), (-1, 1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1))
MINIMAL_LEFT_PAIRS = ((1, 1), (1, 0))
LEFT_INTERIOR_PAIRS = ((0, 1), (-1, 1), (0, 0), (-1, 0), (1, -1), (0, -1), (-1, -1))


def _left_child_pattern(child: int, parent: int) -> ImbalancePattern:
    return ImbalancePattern(parent, ImbalancePattern(child), None)


def _right_child_pattern(parent: int, child: int) -> ImbalancePattern:
    return ImbalancePattern(parent, None, ImbalancePattern(child))


_PATTERN_SETS = {
    "max": tuple(_left_child_pattern(c, p) for c, p in MAXIMAL_RIGHT_PAIRS),
    "rint": tuple(_left_child_pattern(c, p) for c, p in RIGHT_INTERIOR_PAIRS),
    "min": tuple(_right_child_pattern(p, c) for p, c in MINIMAL_LEFT_PAIRS),
    "lint": tuple(_right_child_pattern(p, c) for p, c in LEFT_INTERIOR_PAIRS),
}


def pattern_set(name: str) -> tuple[ImbalancePattern, ...]:
    """Named two-node pattern families: max, min, rint, lint."""
    if name not in _PATTERN_SETS:
        raise ValueError(
            f"unknown pattern set {name!r}; choose from {sorted(_PATTERN_SETS)}"
        )
    return _PATTERN_SETS[name]


class BalanceFlag(enum.Enum):
    MAXIMAL_RIGHT = "maximal-right"
    MINIMAL_LEFT = "minimal-left"
    RIGHT_INTERIOR = "right-interior"
    LEFT_INTERIOR = "left-interior"
    RIGHT_MIXED = "right-mixed"
    LEFT_MIXED = "left-mixed"


def classify_balanced(t: BinaryTree) -> frozenset[BalanceFlag]:
    """Pattern-avoidance flags of a balanced tree.

    Raises ``ValueError`` on unbalanced input.  A maximal-right tree
    avoids the conserving pairs, so every right rotation unbalances it;
    a right-interior tree avoids the complementary pairs, so every
    right rotation keeps balance; a tree with occurrences of both kinds
    is right-mixed.  The left-hand flags tell the mirror story with
    left rotations.
    """
    if not is_balanced(t):
        raise ValueError("classification is defined for balanced trees")
    left_pairs: set[tuple[int, int]] = set()
    right_pairs: set[tuple[int, int]] = set()
    for _, sub in iter_subtrees(t):
        own = sub.right.height - sub.left.height
        if sub.left.node_count:
            left_pairs.add((sub.left.right.height - sub.left.left.height, own))
        if sub.right.node_count:
            right_pairs.add((own, sub.right.right.height - sub.right.left.height))
    has_max = not left_pairs.isdisjoint(MAXIMAL_RIGHT_PAIRS)
    has_rint = not left_pairs.isdisjoint(RIGHT_INTERIOR_PAIRS)
    has_min = not right_pairs.isdisjoint(MINIMAL_LEFT_PAIRS)
    has_lint = not right_pairs.isdisjoint(LEFT_INTERIOR_PAIRS)
    flags = set()
    if not has_max:
        flags.add(BalanceFlag.MAXIMAL_RIGHT)
    if not has_rint:
        flags.add(BalanceFlag.RIGHT_INTERIOR)
    if has_max and has_rint:
        flags.add(BalanceFlag.RIGHT_MIXED)
    if not has_min:
        flags.add(BalanceFlag.MINIMAL_LEFT)
    if not has_lint:
        flags.add(BalanceFlag.LEFT_INTERIOR)
    if has_min and has_lint:
        flags.add(BalanceFlag.LEFT_MIXED)
    return frozenset(flags)


@lru_cache(maxsize=None)
def interior_trees(h: int) -> tuple[BinaryTree, ...]:
    """Right-interior trees of height exactly ``h``.

    Heights up to 3 are found exhaustively; from height 4 on, every
    such tree splits at the root into a right-interior tree of height
    h - 1 on the left and one of height h - 2 on the right, and every
    such pairing works.
    """
    if h < 0:
        raise ValueError("height must be nonnegative")
    limits.INTERIOR_HEIGHT.check(h)
    if h <= 3:
        return tuple(
            t
            for t in balanced_trees_of_height(h)
            if BalanceFlag.RIGHT_INTERIOR in classify_balanced(t)
        )
    rights = interior_trees(h - 2)
    out: list[BinaryTree] = []
    for left in interior_trees(h - 1):
        out += nodes_over(left, rights)
    return tuple(out)


@lru_cache(maxsize=None)
def interior_count(h: int) -> int:
    """Number of right-interior trees of height ``h``."""
    if h < 0:
        raise ValueError("height must be nonnegative")
    if h <= 3:
        return len(interior_trees(h))
    return interior_count(h - 1) * interior_count(h - 2)


@lru_cache(maxsize=None)
def fibonacci_tree(i: int) -> BinaryTree:
    """The i-th Fibonacci tree: two empty seeds, then left-biased sums.

    For ``i >= 2`` its height is ``i - 1`` and it is right-interior.
    """
    if i < 0:
        raise ValueError("index must be nonnegative")
    limits.FIBONACCI_INDEX.check(i)
    if i <= 1:
        return LEAF
    return node(fibonacci_tree(i - 1), fibonacci_tree(i - 2))
