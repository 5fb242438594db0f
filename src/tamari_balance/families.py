"""Tree families carved out by imbalance rules and their order structure.

Generalizes the height-difference condition to an arbitrary set of allowed
imbalance values, decides which interval-shaped sets give families closed
by interval in the rotation order, and covers the companion families:
weight-balanced trees, trees with a fixed canopy, and trees with a fixed
number of right children.

:func:`closure_check` works from a family's own members and their
bracket vectors: it builds only the covers that leave the family and asks
:func:`~tamari_balance.tamari.comparable_pairs` which members lie above
them.

This is the one generator of imbalance families, the balanced trees of
:mod:`~tamari_balance.balance` (by size and by height) included.  It
builds each size once, from the smaller sizes, already sorted by tree
string: it pairs left subtrees in tree-string order with right subtrees
in the order of their own cached size, so the only sort is
:func:`~tamari_balance.trees.sorted_by_text` over the distinct left
subtrees, still the library's one tree-string sort.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from functools import lru_cache

from . import limits
from ._record import frozen
from .tamari import _vector_moves, bracket_vector, comparable_pairs, phi, right_rotation
from .trees import (
    LEAF,
    BinaryTree,
    all_trees,
    canopy,
    iter_subtrees,
    nar,
    nodes_over,
    parse,
    sorted_by_text,
    subtree_at,
)

_INTERVAL_RE = re.compile(r"^(-?\d+)?\.\.(-?\d+)?$")


@frozen
class ImbalanceSet:
    """Allowed imbalance values: an explicit finite set or an interval.

    ``values`` holds an explicit finite set; otherwise ``lower`` and
    ``upper`` bound a contiguous integer interval, with ``None`` marking
    an unbounded end.  Zero must always be a member, since every tree with
    at most one node forces the imbalance 0.
    """

    values: frozenset[int] | None = None
    lower: int | None = None
    upper: int | None = None

    def __post_init__(self) -> None:
        if self.values is not None and not (
            self.lower is None and self.upper is None
        ):
            raise ValueError("give either an explicit set or interval bounds")
        if (
            self.lower is not None
            and self.upper is not None
            and self.lower > self.upper
        ):
            raise ValueError(f"empty interval {self.lower}..{self.upper}")
        if 0 not in self:
            raise ValueError("an imbalance set must contain 0")

    @classmethod
    def of(cls, *values: int) -> "ImbalanceSet":
        """Explicit finite set, e.g. ``ImbalanceSet.of(-1, 0, 1)``."""
        return cls(values=frozenset(values))

    @classmethod
    def between(cls, lower: int | None, upper: int | None) -> "ImbalanceSet":
        """Contiguous interval; ``None`` leaves that side unbounded."""
        return cls(lower=lower, upper=upper)

    @classmethod
    def parse(cls, text: str) -> "ImbalanceSet":
        """Read ``a..b`` (either bound optional) or a comma list of values."""
        text = text.strip()
        match = _INTERVAL_RE.match(text)
        if match:
            low, high = match.groups()
            return cls.between(
                None if low is None else int(low),
                None if high is None else int(high),
            )
        try:
            values = frozenset(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"cannot read imbalance set from {text!r}") from None
        return cls(values=values)

    def __contains__(self, value: int) -> bool:
        if self.values is not None:
            return value in self.values
        if self.lower is not None and value < self.lower:
            return False
        if self.upper is not None and value > self.upper:
            return False
        return True

    def __str__(self) -> str:
        if self.values is not None:
            return ",".join(str(v) for v in sorted(self.values))
        low = "" if self.lower is None else str(self.lower)
        high = "" if self.upper is None else str(self.upper)
        return f"{low}..{high}"

    def bounds(self) -> tuple[int | None, int | None] | None:
        """Interval bounds, or ``None`` when the set is not contiguous."""
        if self.values is None:
            return (self.lower, self.upper)
        ordered = sorted(self.values)
        if ordered == list(range(ordered[0], ordered[-1] + 1)):
            return (ordered[0], ordered[-1])
        return None

    def mirrored(self) -> "ImbalanceSet":
        """The negated set, matching the left-right reflection of trees."""
        if self.values is not None:
            return ImbalanceSet(values=frozenset(-v for v in self.values))
        return ImbalanceSet(
            lower=None if self.upper is None else -self.upper,
            upper=None if self.lower is None else -self.lower,
        )


def imbalances_within(t: BinaryTree, allowed: ImbalanceSet) -> bool:
    """Whether every node's imbalance belongs to the allowed set."""
    return all(
        sub.right.height - sub.left.height in allowed
        for _, sub in iter_subtrees(t)
    )


def imbalance_family(n: int, allowed: ImbalanceSet) -> tuple[BinaryTree, ...]:
    """All trees with ``n`` nodes whose imbalances stay in ``allowed``,
    sorted by tree string.

    Built bottom-up by size, so the cost scales with the family rather
    than with the Catalan numbers, and built in tree-string order, so no
    level is sorted after it is built.  The tuple is cached and shared
    between calls.
    """
    if n < 0:
        raise ValueError("node count must be nonnegative")
    limits.IMBALANCE_FAMILY.check(n)
    return _family(n, allowed)


@lru_cache(maxsize=None)
def _family(n: int, allowed: ImbalanceSet) -> tuple[BinaryTree, ...]:
    """The family's members of size ``n``, built in tree-string order.

    Tree strings are prefix-free, so ``"(" + L + R + ")"`` strings compare
    by ``L`` first, then by ``R``.  The members are ``node(L, R)`` for the
    left subtrees ``L`` in tree-string order, each followed by its
    partners ``R`` in the order of the smaller family: only the distinct
    left subtrees that have a partner are sorted.
    """
    if n == 0:
        return (LEAF,)
    # The allowed values among the height differences two subtrees of an
    # n-node tree can have.
    fits = {d for d in range(-n, n + 1) if d in allowed}
    # heights[m] holds the heights of the members with m nodes: a member
    # is a node over two members whose heights differ by an allowed value.
    heights = [{0}]
    for m in range(1, n):
        heights.append({
            1 + max(h_left, h_right)
            for n_left in range(m)
            for h_left in heights[n_left]
            for h_right in heights[m - 1 - n_left]
            if h_right - h_left in fits
        })
    # The right subtrees that pair with each (left size, left height),
    # in tree-string order; filtered only when some heights do not pair.
    # Sizes that pair with nothing are never built.
    partners: dict[tuple[int, int], tuple[BinaryTree, ...]] = {}
    for n_left in range(n):
        reached = heights[n - 1 - n_left]
        for h_left in heights[n_left]:
            pair = {h for h in reached if h - h_left in fits}
            if not pair:
                continue
            rights = _family(n - 1 - n_left, allowed)
            if pair == reached:
                partners[n_left, h_left] = rights
            else:
                partners[n_left, h_left] = tuple(t for t in rights if t.height in pair)
    left_sizes = {n_left for n_left, _ in partners}
    lefts = sorted_by_text(
        t
        for n_left in left_sizes
        for t in _family(n_left, allowed)
        if (n_left, t.height) in partners
    )
    out: list[BinaryTree] = []
    for left in lefts:
        out += nodes_over(left, partners[left.node_count, left.height])
    return tuple(out)


@frozen
class ClosureCounterexample:
    """Cover chain between two family members through a non-member.

    ``chain`` steps through single rotations; both ends belong to the
    family and ``chain[failing_index]`` does not.  Other inner trees carry
    no promise either way.
    """

    chain: tuple[BinaryTree, ...]
    failing_index: int

    @property
    def lower(self) -> BinaryTree:
        return self.chain[0]

    @property
    def middle(self) -> BinaryTree:
        return self.chain[self.failing_index]

    @property
    def upper(self) -> BinaryTree:
        return self.chain[-1]


def closure_check(
    members: Iterable[BinaryTree],
) -> ClosureCounterexample | None:
    """Whether a family of same-size trees is closed by interval.

    Returns ``None`` when every tree between two members is a member,
    otherwise a witness chain whose second tree leaves the family.  It
    looks for an *escape*: a member ``s``, a cover ``u`` of ``s`` outside
    the family, and a member ``v >= u``.  Every counterexample gives one:
    on a saturated chain from a member through a non-member up to a member
    ``v``, the first non-member and the tree before it form an escape with
    ``v``.  Members are walked in the given order, covers in rank order,
    ``v`` is the first member above ``u``, and the chain climbs to ``v`` by
    the lowest-rank cover below ``v``.
    """
    members = tuple(members)
    if len({t.node_count for t in members}) > 1:
        raise ValueError("closure check needs trees of one size")
    vectors = [bracket_vector(t) for t in members]
    # Member vectors map to None, each leaving cover's vector to the first
    # member that reached it.  Only leaving covers are built, each once: no
    # member was above one the first time, so none is above it later.
    reached: dict[tuple[int, ...], BinaryTree | None] = dict.fromkeys(vectors)

    def leaving():
        for t, vector in zip(members, vectors):
            for rank, i, value in _vector_moves(t):
                raised = vector[:i] + (value,) + vector[i + 1 :]
                if raised not in reached:
                    reached[raised] = t
                    yield right_rotation(t, rank)

    for u, v in comparable_pairs(leaving(), members):
        upper = bracket_vector(v)
        chain = [reached[bracket_vector(u)], u]
        while chain[-1] != v:
            # The lowest-rank cover still below v: its raised entry is at most v's.
            rank = next(r for r, i, x in _vector_moves(chain[-1]) if x <= upper[i])
            chain.append(right_rotation(chain[-1], rank))
        return ClosureCounterexample(tuple(chain), failing_index=1)
    return None


@frozen
class ClosureVerdict:
    """Whether an imbalance interval yields an interval-closed family.

    For non-closed families ``lemma`` names the reusable witness chain by
    the interval's top value (``upper-0`` through ``upper-3-plus``), and
    ``mirrored`` records that the chain applies to the reflected family.
    """

    closed: bool
    lemma: str | None = None
    mirrored: bool = False


_CLOSED_BOUNDS = {(0, 0), (-1, 0), (0, 1), (-1, 1), (None, None)}


def classify_interval_closure(allowed: ImbalanceSet) -> ClosureVerdict:
    """Decide interval closure for a contiguous set of imbalance values.

    The closed families are exactly those allowing {0}, {-1,0}, {0,1},
    {-1,0,1}, or every integer.  Anything else is refuted by one of four
    fixed three-tree chains, applied directly when the set reaches down
    to -2 and has a finite top, and to the reflected family otherwise.
    """
    bounds = allowed.bounds()
    if bounds is None:
        raise ValueError("closure classification needs a contiguous interval")
    lower, upper = bounds
    if (lower, upper) in _CLOSED_BOUNDS:
        return ClosureVerdict(closed=True)
    if (lower is None or lower <= -2) and upper is not None:
        return ClosureVerdict(closed=False, lemma=_chain_id(upper))
    assert lower is not None
    return ClosureVerdict(closed=False, lemma=_chain_id(-lower), mirrored=True)


def _chain_id(top: int) -> str:
    return f"upper-{top}" if top <= 2 else "upper-3-plus"


def weight_imbalance(t: BinaryTree, rank: int | None = None) -> int:
    """Node-count difference (right minus left) at a node.

    With ``rank`` omitted, the root's value; the tree must be nonempty.
    """
    sub = t if rank is None else subtree_at(t, rank)
    if sub.left is None or sub.right is None:
        raise ValueError("the empty tree has no weight imbalance")
    return sub.right.node_count - sub.left.node_count


def is_weight_balanced(t: BinaryTree) -> bool:
    """Whether every node's subtree sizes differ by at most one."""
    return all(
        abs(sub.right.node_count - sub.left.node_count) <= 1
        for _, sub in iter_subtrees(t)
    )


@lru_cache(maxsize=None)
def weight_balanced_trees(n: int) -> tuple[BinaryTree, ...]:
    """All weight-balanced trees with ``n`` nodes, sorted by tree string."""
    if n < 0:
        raise ValueError("node count must be nonnegative")
    limits.WEIGHT_BALANCED.check(n)
    if n == 0:
        return (LEAF,)
    rest = n - 1
    splits = (
        [(rest // 2, rest // 2)]
        if rest % 2 == 0
        else [(rest // 2, rest // 2 + 1), (rest // 2 + 1, rest // 2)]
    )
    built: list[BinaryTree] = []
    for n_left, n_right in splits:
        rights = weight_balanced_trees(n_right)
        for left in weight_balanced_trees(n_left):
            built += nodes_over(left, rights)
    return tuple(sorted_by_text(built))


@lru_cache(maxsize=None)
def weight_balanced_count(n: int) -> int:
    """Number of weight-balanced trees, by the split recurrence.

    Counts double up at even sizes and square at odd ones, because the
    subtree sizes of a weight-balanced root are forced up to swapping.
    """
    if n < 0:
        raise ValueError("node count must be nonnegative")
    if n <= 1:
        return 1
    half = n // 2
    if n % 2 == 0:
        return 2 * weight_balanced_count(half) * weight_balanced_count(half - 1)
    return weight_balanced_count(half) ** 2


_RANK_SHAPE = parse("(.(..))")


def weight_rank(t: BinaryTree) -> int:
    """Number of subtrees equal to the two-node right chain.

    Each cover between weight-balanced trees raises this count by exactly
    one, so it grades the weight-balanced subposet.
    """
    return sum(1 for _, sub in iter_subtrees(t) if sub == _RANK_SHAPE)


@frozen
class CanopyClass:
    """All trees sharing one orientation word, with the class extremes."""

    word: str
    members: tuple[BinaryTree, ...]
    lower: BinaryTree
    upper: BinaryTree


def canopy_class(u: str, n: int) -> CanopyClass:
    """Trees with ``n`` nodes whose canopy equals ``u``.

    The word must have length ``n - 1``.  The class is never empty and
    forms an interval of the rotation order; the extremes returned here
    are its unique rotation-count minimizer and maximizer, which the
    interval property makes the least and greatest members.
    """
    if n < 1:
        raise ValueError("canopy classes need at least one node")
    if len(u) != n - 1:
        raise ValueError(f"word length {len(u)} does not match {n} nodes")
    if set(u) - {"0", "1"}:
        raise ValueError(f"canopy words use letters 0 and 1 only: {u!r}")
    members = tuple(sorted_by_text(t for t in all_trees(n) if canopy(t) == u))
    if not members:
        raise AssertionError(f"no tree has canopy {u!r}")
    by_phi = sorted(members, key=phi)
    if len(by_phi) > 1:
        if phi(by_phi[0]) >= phi(by_phi[1]):
            raise AssertionError(f"least member of canopy {u!r} is not unique")
        if phi(by_phi[-1]) <= phi(by_phi[-2]):
            raise AssertionError(f"greatest member of canopy {u!r} is not unique")
    return CanopyClass(
        word=u, members=members, lower=by_phi[0], upper=by_phi[-1]
    )


def narayana_class(n: int, k: int) -> tuple[BinaryTree, ...]:
    """Trees with ``n`` nodes, exactly ``k`` of which have a right child.

    Equals the union of the canopy classes whose word has ``k`` ones.
    """
    if n == 0:
        if k != 0:
            raise ValueError("the empty tree has no right children")
        return (LEAF,)
    if not 0 <= k <= n - 1:
        raise ValueError(f"right-child count {k} out of range 0..{n - 1}")
    return tuple(sorted_by_text(t for t in all_trees(n) if nar(t) == k))


def narayana_row(n: int) -> tuple[int, ...]:
    """Class sizes for ``k = 0 .. n - 1`` at a fixed node count.

    Counted without building a tree: ``node(L, R)`` has the right
    children of ``L`` and of ``R``, plus its own root when ``R`` is
    nonempty, so each row sums products of two smaller rows, one per
    split of the nodes below the root.  ``rows[m][k]`` counts the trees
    with ``m`` nodes and ``k`` right children.
    """
    if n < 1:
        raise ValueError("rows start at one node")
    rows = [[1]]
    for m in range(1, n + 1):
        row = [0] * m
        for n_left in range(m):
            n_right = m - 1 - n_left
            root = 1 if n_right else 0
            for k_left, x in enumerate(rows[n_left]):
                for k_right, y in enumerate(rows[n_right]):
                    row[k_left + k_right + root] += x * y
        rows.append(row)
    return tuple(rows[n])
