"""Immutable binary trees with infix-rank addressing.

A tree is either the empty tree (a leaf slot, drawn ``.``) or an internal
node with two subtrees, drawn ``(<left><right>)``.  Internal nodes are
numbered 1..n by infix order (left subtree, node, right subtree); all
node-addressed operations take these 1-based ranks.  One walk,
:func:`_path_to`, goes from the root to a rank, and every function that
finds a node by its rank reads it; the rotations have it record the
path and rebuild that bottom-up with :func:`_graft`.  Rotations and
:func:`mirror` work at any depth: no function here recurses by height.

Heights count internal nodes on a longest root-to-leaf path: the empty
tree has height 0 and a single node has height 1.  The imbalance of a
node is the height of its right subtree minus the height of its left
subtree.

Trees are hash-consed.  :func:`nodes_over` is the one function that
makes an internal node: it builds ``node(L, R)`` for a whole row of
right subtrees ``R`` and interns each under its children's identities.
:func:`node` takes it on a miss, and every other constructor of the
library (:func:`parse`, the rotations, the generators of families)
goes through one of the two, so structurally equal trees are the same
object and equality is identity.  The hash stays structural, so set
orders do not depend on addresses, and it is computed on first use:
:func:`nodes_over` leaves it empty, and :func:`_fill_hash` fills it for
a tree and its unhashed descendants, bottom-up, when something first
puts the tree in a set or a dict.  Enumerations that never hash their
trees never pay for it.  Instances are immutable and safe to share.

:func:`sorted_by_text` is the library's one tree-string sort: the order
of ``sorted(trees, key=serialize)``, reached without building a string.
Every list of trees the library returns "sorted by tree string" comes
from it, directly or by construction: the imbalance families of
:mod:`~tamari_balance.families` and the balanced trees of one height are
built in that order from subtrees it sorted, since tree strings are
prefix-free and so ``node(L, R)`` strings compare by ``L`` first, then
by ``R``.

The preorder code of a tree writes ``0`` for each node and ``1`` for
each leaf; like tree strings, these codes are prefix-free and put a node
before a leaf (``(`` sorts before ``.``), so both give the same order.
Each distinct subtree's code is computed once per call as an integer,
from its children's codes, with no recursion by height.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import chain

from . import limits


class TreeParseError(ValueError):
    """Raised for malformed tree strings; ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class BinaryTree:
    """An immutable binary tree node (or the empty tree).

    Nodes are made in one place, :func:`nodes_over`, which fills these
    slots and interns the result; :data:`LEAF` is made once at import.
    Build trees with :func:`node`, :func:`nodes_over` or :func:`parse`;
    calling ``BinaryTree(...)`` raises :class:`TypeError`.  The
    ``_hash`` slot stays ``None`` until the first :func:`hash`, which
    fills it through :func:`_fill_hash`.
    """

    __slots__ = ("left", "right", "node_count", "height", "_hash")

    left: "BinaryTree | None"
    right: "BinaryTree | None"
    node_count: int
    height: int

    def __init__(self, *args):
        raise TypeError(
            "build trees with node(), nodes_over() or parse(); LEAF is the empty tree"
        )

    def __hash__(self) -> int:
        h = self._hash
        return _fill_hash(self) if h is None else h

    def __repr__(self) -> str:
        return f"parse({serialize(self)!r})"

    def __reduce__(self):
        return (parse, (serialize(self),))

    def __copy__(self) -> "BinaryTree":
        return self

    def __deepcopy__(self, memo) -> "BinaryTree":
        return self


LEAF = BinaryTree.__new__(BinaryTree)
"""The empty tree."""
LEAF.left = LEAF.right = None
LEAF.node_count = LEAF.height = 0
LEAF._hash = hash(("tree", 0))

_SPREAD = 2 * (sys.maxsize + 1) + 0x9E3779B97F4A7C15
"""Larger than every id (a pointer, below ``2 * (sys.maxsize + 1)``), so
``id(left) * _SPREAD + id(right)`` is injective.

An int hashes to itself modulo a Mersenne prime (``2**61 - 1`` on 64-bit
builds), under which a plain shift by 64 bits multiplies the left id by
8 only, and ids, multiples of 16, then collide: the keys of the 161,622
trees of the balanced families up to n=22 had 21,277 distinct hashes.
The odd part added here gives each its own.
"""

_INTERN: dict[int, BinaryTree] = {}


def _fill_hash(t: BinaryTree) -> int:
    """Fill the empty ``_hash`` slots of ``t`` and its descendants, and
    return ``t``'s.

    Each node gets ``hash((hash(left), node_count, hash(right)))``, after
    its children.  The stack holds a path from ``t`` down: the top goes
    down to a child whose slot is still empty, or is filled and popped.
    Every subtree is filled at most once, however many paths reach it.
    """
    stack = [t]
    while stack:
        cur = stack[-1]
        left_hash = cur.left._hash
        if left_hash is None:
            stack.append(cur.left)
            continue
        right_hash = cur.right._hash
        if right_hash is None:
            stack.append(cur.right)
            continue
        cur._hash = hash((left_hash, cur.node_count, right_hash))
        stack.pop()
    return t._hash


def node(left: BinaryTree = LEAF, right: BinaryTree = LEAF) -> BinaryTree:
    """Return the (interned) tree with the given subtrees.

    Looks the pair up in the intern table and, on a miss, has
    :func:`nodes_over` make the node.
    """
    t = _INTERN.get(id(left) * _SPREAD + id(right))
    if t is None:
        t, = nodes_over(left, (right,))
    return t


def nodes_over(left: BinaryTree, rights: Iterable[BinaryTree]) -> list[BinaryTree]:
    """The (interned) trees ``node(left, right)`` for each of ``rights``, in order.

    The one function that makes an internal node.  The intern table is
    keyed by one int made of the children's ids, ``id(left) * _SPREAD +
    id(right)``: smaller than a tuple of two ids, and distinct for
    distinct pairs.  Interned trees are never freed, so the ids of the
    children, themselves interned, are never reused.  The left child's
    part of the key and its count and height are read once per row; a
    miss fills the slots of a new :class:`BinaryTree` directly and
    leaves its hash empty, for :func:`_fill_hash` to compute on first
    use.
    """
    base = id(left) * _SPREAD
    count = 1 + left.node_count
    left_height = left.height
    out: list[BinaryTree] = []
    for right in rights:
        key = base + id(right)
        t = _INTERN.get(key)
        if t is None:
            t = BinaryTree.__new__(BinaryTree)
            t.left = left
            t.right = right
            t.node_count = count + right.node_count
            right_height = right.height
            t.height = 1 + (left_height if left_height > right_height else right_height)
            t._hash = None
            _INTERN[key] = t
        out.append(t)
    return out


def parse(text: str) -> BinaryTree:
    """Parse a tree string: ``.`` is empty, ``(<left><right>)`` is a node.

    Whitespace is ignored.  Raises :class:`TreeParseError` with the byte
    offset of the first offending character.
    """
    stack: list[list[BinaryTree]] = []
    root: BinaryTree | None = None
    for i, c in enumerate(text):
        if c.isspace():
            continue
        if root is not None:
            raise TreeParseError(f"trailing input {c!r}", i)
        if c == "(":
            stack.append([])
            continue
        if c == ".":
            done = LEAF
        elif c == ")":
            if not stack:
                raise TreeParseError("unmatched ')'", i)
            frame = stack.pop()
            if len(frame) != 2:
                raise TreeParseError(
                    f"node needs exactly 2 subtrees, found {len(frame)}", i
                )
            done = node(frame[0], frame[1])
        else:
            raise TreeParseError(f"unexpected character {c!r}", i)
        if not stack:
            root = done
        else:
            stack[-1].append(done)
            if len(stack[-1]) > 2:
                raise TreeParseError("node has more than 2 subtrees", i)
    if stack:
        raise TreeParseError("unclosed '('", len(text))
    if root is None:
        raise TreeParseError("empty input", len(text))
    return root


def serialize(t: BinaryTree) -> str:
    """Render a tree string; ``parse(serialize(t)) == t``."""
    out: list[str] = []
    # ``None`` on the stack stands for the ``)`` that closes a node.
    stack: list[BinaryTree | None] = [t]
    while stack:
        cur = stack.pop()
        if cur is None:
            out.append(")")
        elif cur.left is None:
            out.append(".")
        else:
            out.append("(")
            stack += (None, cur.right, cur.left)
    return "".join(out)


def sorted_by_text(trees: Iterable[BinaryTree]) -> list[BinaryTree]:
    """The trees sorted by tree string, as ``sorted(trees, key=serialize)``.

    Sorts by preorder code (see the module docstring), an integer of
    ``2n + 1`` bits for a tree of ``n`` nodes: a node's code is its left
    child's code followed by its right child's, after an implicit
    leading ``0``.  Each distinct proper subtree's code is computed once,
    in a memo local to the call and keyed by object identity; the trees
    in hand keep every memoized object alive until the sort ends.  A
    tree's own code is joined from its children's when the sort asks for
    its key.  Codes of mixed sizes are left-aligned, shifted up by
    ``2 * (N - n)`` bits with ``N`` the largest size, so integer order is
    bit-string order.
    """
    trees = list(trees)
    code: dict[int, int] = {id(LEAF): 1}
    for t in trees:
        if t.left is None:
            continue
        stack = [t.right, t.left]
        while stack:
            cur = stack.pop()
            key = id(cur)
            if key in code:
                continue
            left = code.get(id(cur.left))
            right = code.get(id(cur.right))
            if left is None or right is None:
                # Come back once both children have their codes.
                stack += (cur, cur.right, cur.left)
                continue
            code[key] = left << 2 * cur.right.node_count + 1 | right
    width = max((t.node_count for t in trees), default=0)

    def aligned_code(t: BinaryTree) -> int:
        if t.left is None:
            return 1 << 2 * width
        own = code[id(t.left)] << 2 * t.right.node_count + 1 | code[id(t.right)]
        return own << 2 * (width - t.node_count)

    return sorted(trees, key=aligned_code)


def leaf_count(t: BinaryTree) -> int:
    """Number of empty positions; always ``node_count + 1``."""
    return t.node_count + 1


_Path = list[tuple[BinaryTree, bool]]


def _path_to(t: BinaryTree, rank: int, path: _Path | None = None) -> BinaryTree:
    """The subtree of ``t`` at infix ``rank``: the walk from the root to
    it.  Given a list as ``path``, the walk also appends the subtree's
    ancestors to it, from the root down, each with whether the walk went
    left there.  Identity cannot tell the side: trees are hash-consed, so
    a node with two equal children has ``left is right``.
    """
    if not 1 <= rank <= t.node_count:
        raise ValueError(f"rank {rank} out of range 1..{t.node_count}")
    cur = t
    while True:
        root_rank = cur.left.node_count + 1
        if rank == root_rank:
            return cur
        went_left = rank < root_rank
        if path is not None:
            path.append((cur, went_left))
        if went_left:
            cur = cur.left
        else:
            rank -= root_rank
            cur = cur.right


def _graft(path: _Path, sub: BinaryTree) -> BinaryTree:
    """The tree ``path`` leads down from, with ``sub`` put where the path
    ends; ``path`` is as :func:`_path_to` fills it.  Rebuilt bottom-up,
    one :func:`node` per ancestor."""
    for parent, went_left in reversed(path):
        sub = node(sub, parent.right) if went_left else node(parent.left, sub)
    return sub


def subtree_at(t: BinaryTree, rank: int) -> BinaryTree:
    """Subtree rooted at the node with the given infix rank (1-based)."""
    return _path_to(t, rank)


def child_ranks(t: BinaryTree, rank: int) -> tuple[int | None, int | None]:
    """Infix ranks of the children of the node at ``rank``.

    Returns ``(left_rank, right_rank)`` with ``None`` for an empty child:
    for children ``L`` and ``R``, ``rank - |L.right| - 1`` and
    ``rank + |R.left| + 1``.
    """
    sub = subtree_at(t, rank)
    left, right = sub.left, sub.right
    return (
        rank - left.right.node_count - 1 if left.node_count else None,
        rank + right.left.node_count + 1 if right.node_count else None,
    )


def imbalance(t: BinaryTree, rank: int | None = None) -> int:
    """Imbalance (right height minus left height) of a node.

    With ``rank`` omitted, the root's imbalance; the tree must be nonempty.
    """
    sub = t if rank is None else subtree_at(t, rank)
    if sub.left is None or sub.right is None:
        raise ValueError("the empty tree has no imbalance")
    return sub.right.height - sub.left.height


def is_right_of(t: BinaryTree, x: int, y: int) -> bool:
    """Whether the node at rank ``x`` lies strictly right of the one at ``y``.

    Infix ranks order nodes left to right, so this is a rank comparison
    once both ranks are validated against the tree.
    """
    n = t.node_count
    for r in (x, y):
        if not 1 <= r <= n:
            raise ValueError(f"rank {r} out of range 1..{n}")
    return x > y


def mirror(t: BinaryTree) -> BinaryTree:
    """Reflect left-right; an involution.

    Each distinct subtree is mirrored once, bottom-up, in a memo local to
    the call and keyed by identity (``t`` keeps its subtrees alive).
    """
    image: dict[int, BinaryTree] = {id(LEAF): LEAF}
    stack = [t]
    while stack:
        cur = stack.pop()
        if id(cur) in image:
            continue
        left = image.get(id(cur.left))
        right = image.get(id(cur.right))
        if left is None or right is None:
            # Come back once both children have their images.
            stack += (cur, cur.right, cur.left)
            continue
        image[id(cur)] = node(right, left)
    return image[id(t)]


def iter_subtrees(t: BinaryTree) -> Iterator[tuple[int, BinaryTree]]:
    """Yield ``(rank, subtree)`` for every internal node in infix order."""
    rank = 0
    stack: list[BinaryTree] = []
    cur: BinaryTree | None = t
    while stack or (cur is not None and cur.left is not None):
        while cur is not None and cur.left is not None:
            stack.append(cur)
            cur = cur.left
        cur = stack.pop()
        rank += 1
        yield (rank, cur)
        cur = cur.right


def canopy(t: BinaryTree) -> str:
    """Orientation word of the inner leaves, left to right.

    Every empty position except the leftmost and rightmost contributes one
    letter: ``1`` if it is a left child, ``0`` if it is a right child.
    Trees with at most one node have the empty word.
    """
    if t.node_count <= 1:
        return ""
    bits: list[str] = []
    stack: list[tuple[BinaryTree, str]] = [(t, "")]
    while stack:
        cur, bit = stack.pop()
        if cur.left is None:
            bits.append(bit)
            continue
        stack.append((cur.right, "0"))
        stack.append((cur.left, "1"))
    return "".join(bits[1:-1])


def nar(t: BinaryTree) -> int:
    """Number of nodes with a nonempty right subtree.

    Equals the number of ``1`` letters in :func:`canopy` of the tree.
    """
    return sum(1 for _, sub in iter_subtrees(t) if sub.right.node_count)


@lru_cache(maxsize=None)
def all_trees(n: int) -> tuple[BinaryTree, ...]:
    """All trees with ``n`` nodes, in a fixed deterministic order.

    Subtrees are shared across the memoized tables, so enumerating up to
    moderate sizes is cheap; ``n`` is capped by :data:`limits.ALL_TREES`.
    """
    if n < 0:
        raise ValueError("node count must be nonnegative")
    limits.ALL_TREES.check(n)
    if n == 0:
        return (LEAF,)
    # Rows go straight into the tuple: a list first would hold a second
    # copy of every reference at the peak (79 MB against 77 MB at n=12).
    return tuple(
        chain.from_iterable(
            nodes_over(left, all_trees(n - 1 - k))
            for k in range(n)
            for left in all_trees(k)
        )
    )
