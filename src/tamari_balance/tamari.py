"""The rotation (Tamari) order on binary trees.

A right rotation rewrites a subtree ``(A ^ B) ^ C`` into ``A ^ (B ^ C)``;
it is addressed by the infix rank of the rewritten subtree's root, which
is stable under the rotation (the node at that rank becomes the root of
``B ^ C``).  Covers of the order are exactly single right rotations, and
``T0 <= T1`` holds when some chain of right rotations leads from ``T0``
to ``T1``.  Both rotations are the one walk to a rank of
:mod:`~tamari_balance.trees` plus a bottom-up rebuild, at any depth;
where a right rotation applies is stated once, by :func:`_vector_moves`.

The order is decided without search by the bracket-vector criterion of
Huang and Tamari (1972): ``T0 <= T1`` exactly when every entry of
:func:`bracket_vector` of ``T0``, the right-subtree sizes in infix order,
is at most the same entry for ``T1``.  Which trees of one list lie
above which trees of another is decided by :func:`comparable_pairs`.
:func:`interval` splits the endpoints' vectors at the root: a member's
vector is its left part's, its root's entry, then its right part's, so
the members are built from the members of smaller segments, each once.
Walks through the order, which the Hasse diagrams need, step by
:func:`_vector_moves`.
:func:`tamari_poset` materializes all trees of one size with their cover
edges and reachability masks; it is the test oracle for these routes.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from functools import lru_cache
from operator import le

from . import limits
from .trees import (
    LEAF,
    BinaryTree,
    _Path,
    _graft,
    _path_to,
    all_trees,
    iter_subtrees,
    node,
    nodes_over,
    serialize,
)


class RotationError(ValueError):
    """Raised when a rotation is not applicable at the requested rank."""


class IncomparableError(ValueError):
    """Raised when an interval's endpoints are not ordered."""


def right_rotation(t: BinaryTree, rank: int) -> BinaryTree:
    """Rotate right at the node with the given infix rank.

    The node's left subtree must be nonempty; ranks of all nodes are
    preserved, and the node at ``rank`` ends up rooting ``B ^ C``.
    """
    path: _Path = []
    y = _path_to(t, rank, path)
    x = y.left
    if not x.node_count:
        raise RotationError(f"right rotation needs a left subtree at rank {rank}")
    return _graft(path, node(x.left, node(x.right, y.right)))


def left_rotation(t: BinaryTree, rank: int) -> BinaryTree:
    """Rotate left at the node with the given infix rank; inverse of
    :func:`right_rotation` at the same rank.

    The node must be the right child of its parent; the parent's subtree
    ``A ^ (B ^ C)`` becomes ``(A ^ B) ^ C``.
    """
    path: _Path = []
    y = _path_to(t, rank, path)
    if not path or path[-1][1]:
        raise RotationError(
            f"left rotation needs the node at rank {rank} to be a right child"
        )
    parent, _ = path.pop()
    return _graft(path, node(node(parent.left, y.left), y.right))


def bracket_vector(t: BinaryTree) -> tuple[int, ...]:
    """Right-subtree size of every node, in infix order.

    A right rotation raises one entry and leaves the others unchanged,
    and ``T0 <= T1`` exactly when the vectors compare entrywise.
    """
    out = []
    stack = []
    cur = t
    while True:
        while cur.left is not None:
            stack.append(cur)
            cur = cur.left
        if not stack:
            return tuple(out)
        cur = stack.pop()
        out.append(cur.right.node_count)
        cur = cur.right


def phi(t: BinaryTree) -> int:
    """Total weight of right subtrees; strictly increases per rotation."""
    return sum(sub.right.node_count for _, sub in iter_subtrees(t))


def rotation_ranks(t: BinaryTree) -> tuple[int, ...]:
    """Ranks where a right rotation applies (nodes with a left subtree),
    read off :func:`_vector_moves`."""
    return tuple(rank for rank, _, _ in _vector_moves(t))


def _vector_moves(t: BinaryTree) -> Iterator[tuple[int, int, int]]:
    """Yield ``(rank, index, value)`` for every right rotation of ``t``,
    in increasing rank order.

    Rotating at ``rank`` sets :func:`bracket_vector` entry ``index``
    (counted from 0) to ``value`` and leaves every other entry as it was.
    At a node y with left child x = (A, B) and right subtree C, only x's
    right subtree grows, from B to B ^ C, so the entry of x, at rank
    ``rank - |B| - 1``, rises by ``|C| + 1`` (Huang and Tamari, 1972).
    """
    for rank, sub in iter_subtrees(t):
        x = sub.left
        if x.node_count:
            b = x.right.node_count
            yield rank, rank - b - 2, b + sub.right.node_count + 1


def covers(t: BinaryTree) -> tuple[BinaryTree, ...]:
    """All single right rotations of ``t``, in increasing rank order."""
    return tuple(right_rotation(t, rank) for rank in rotation_ranks(t))


def _size_mismatch(n0: int, n1: int) -> ValueError:
    return ValueError(f"cannot compare trees with {n0} and {n1} nodes")


def tamari_leq(t0: BinaryTree, t1: BinaryTree) -> bool:
    """Whether ``t0 <= t1`` in the rotation order.

    The trees must have the same node count; their bracket vectors are
    compared entrywise.
    """
    if t0.node_count != t1.node_count:
        raise _size_mismatch(t0.node_count, t1.node_count)
    return all(map(le, bracket_vector(t0), bracket_vector(t1)))


def comparable_pairs(
    lowers: Iterable[BinaryTree], uppers: Iterable[BinaryTree]
) -> Iterator[tuple[BinaryTree, BinaryTree]]:
    """Yield ``(lower, upper)`` for every ``lower <= upper``.

    Lowers are read lazily in the order given; for each, the uppers above
    it come in their own order, picked by ANDing one mask per vector entry
    from an index over the uppers (dominance counting after Bentley,
    1980).  The index is built when the first lower arrives.  A tree of
    another size than the first upper raises :class:`ValueError` naming
    both sizes.
    """
    uppers = tuple(uppers)
    for lower, above in _masks_above(lowers, uppers):
        for i in mask_indices(above):
            yield lower, uppers[i]


def _comparable_count(
    lowers: Iterable[BinaryTree], uppers: Iterable[BinaryTree]
) -> int:
    """How many pairs :func:`comparable_pairs` yields, counted by the
    set bits of each lower tree's mask, with no pair built."""
    return sum(above.bit_count() for _, above in _masks_above(lowers, tuple(uppers)))


def _masks_above(
    lowers: Iterable[BinaryTree], uppers: tuple[BinaryTree, ...]
) -> Iterator[tuple[BinaryTree, int]]:
    """Each lower tree, in order, with the mask of the uppers above it,
    as :func:`comparable_pairs` describes."""
    if not uppers:
        return
    size = uppers[0].node_count
    at_least: list[list[int]] | None = None
    for lower in lowers:
        if lower.node_count != size:
            raise _size_mismatch(lower.node_count, size)
        if at_least is None:
            at_least = _dominance_index(uppers)
        above = (1 << len(uppers)) - 1
        for row, entry in zip(at_least, bracket_vector(lower)):
            above &= row[entry]
        yield lower, above


def _dominance_index(trees: tuple[BinaryTree, ...]) -> list[list[int]]:
    """Bitmasks ``index[i][x]`` of the trees whose vector entry ``i`` is ``>= x``.

    ANDing the masks picked by the entries of a vector selects the trees
    above it in the rotation order.
    """
    size = trees[0].node_count
    index = [[0] * (size + 1) for _ in range(size)]
    for bit, t in enumerate(trees):
        if t.node_count != size:
            raise _size_mismatch(size, t.node_count)
        for row, entry in zip(index, bracket_vector(t)):
            row[entry] |= 1 << bit
    for row in index:
        for x in reversed(range(size)):
            row[x] |= row[x + 1]
    return index


def interval(t0: BinaryTree, t1: BinaryTree) -> tuple[BinaryTree, ...]:
    """All trees ``t`` with ``t0 <= t <= t1``, sorted by tree string.

    Raises :class:`IncomparableError` when the endpoints are not ordered
    (so an unordered pair is distinguishable from a singleton interval).
    The members are built by :func:`_root_split`, each once.
    """
    if t0.node_count != t1.node_count:
        raise _size_mismatch(t0.node_count, t1.node_count)
    lower = bracket_vector(t0)
    upper = bracket_vector(t1)
    if not all(map(le, lower, upper)):
        raise IncomparableError(f"{serialize(t0)} is not below {serialize(t1)}")
    return tuple(_root_split(lower, upper))


def _enclosing(vector: tuple[int, ...]) -> list[int]:
    """For each position ``q`` of a bracket vector, the largest ``q' < q``
    whose span ``[q', q' + vector[q']]`` holds ``q``, or -1.

    A tree's spans (a node and its right subtree) nest, so the spans
    still open at ``q`` form a stack, the innermost on top.
    """
    out = []
    open_spans: list[int] = []
    for q in range(len(vector)):
        while open_spans and open_spans[-1] + vector[open_spans[-1]] < q:
            open_spans.pop()
        out.append(open_spans[-1] if open_spans else -1)
        open_spans.append(q)
    return out


def _root_split(lower: tuple[int, ...], upper: tuple[int, ...]) -> list[BinaryTree]:
    """The trees whose bracket vectors lie entrywise between ``lower`` and
    ``upper``, two vectors of trees with ``lower <= upper``, sorted by
    tree string.

    A tree's vector on positions ``[off, end)`` is its left part's, then
    ``end - 1 - p`` at its root's position ``p``, then its right part's.
    So the members on a segment are ``node(A, B)``, for each root ``p``
    whose bounds admit ``end - 1 - p`` and that no span of ``lower``
    starting in ``[off, p)`` covers, with ``A`` a member on ``[off, p)``
    and ``B`` one on ``[p + 1, end)`` (the root split of Huang and
    Tamari, 1972).  The roots are the positions on both the chain of
    ``lower``'s spans from ``off`` and the chain of ``upper``'s spans
    that hold ``end - 1``; the two chains are walked in lockstep until
    one runs out, and that one's positions are tested against the other
    chain, so a segment costs the shorter chain.

    Each segment is solved once, bottom-up on an explicit stack, into
    its members and their preorder codes (as :func:`sorted_by_text`
    computes them), sorted; one :func:`nodes_over` row per left part
    ``A`` makes its members, and the left parts of all roots are sorted
    by code, left-aligned, so the rows come in tree-string order.
    """
    n = len(lower)
    up_holder = _enclosing(upper)
    low_holder = _enclosing(lower)
    solved = {(off, off): ([1], [LEAF]) for off in range(n + 1)}
    # A segment comes off the stack first with no roots, then again, with
    # its roots, once the segments it splits into are solved.
    stack: list[tuple[int, int, list[int] | None]] = [(0, n, None)]
    while stack:
        off, end, roots = stack.pop()
        if (off, end) in solved:
            continue
        if roots is None:
            last = end - 1
            lows: list[int] = []
            highs: list[int] = []
            p, q = off, last
            while p <= last and q >= off:
                lows.append(p)
                highs.append(q)
                p += lower[p] + 1
                q = up_holder[q]
            # On lower's chain its own bound holds: a segment reached by
            # the split holds every lower span that starts in it.
            if p > last:
                roots = [r for r in lows if r + upper[r] >= last]
            else:
                roots = [r for r in reversed(highs) if low_holder[r] < off]
            stack.append((off, end, roots))
            for p in roots:
                stack += ((off, p, None), (p + 1, end, None))
            continue
        rows = []
        for p in roots:
            size = end - 1 - p
            right = solved[p + 1, end]
            rows += [
                (code << 2 * size, code, left, size, right)
                for code, left in zip(*solved[off, p])
            ]
        if len(roots) > 1:
            # Left-aligned codes of distinct left parts differ, since
            # codes are prefix-free, so the sort never compares trees.
            rows.sort()
        codes: list[int] = []
        members: list[BinaryTree] = []
        for _, code, left, size, (right_codes, right_trees) in rows:
            shift = 2 * size + 1
            codes += [code << shift | right for right in right_codes]
            members += nodes_over(left, right_trees)
        solved[off, end] = codes, members
    return solved[0, n][1]


def _interval_members(
    t0: BinaryTree, t1: BinaryTree
) -> tuple[set[BinaryTree], list[tuple[BinaryTree, BinaryTree]]]:
    """The set of trees ``t`` with ``t0 <= t <= t1``, for ``t0 <= t1``,
    and the ``(member, cover)`` pairs among them: the interval's Hasse
    diagram, which only ``hasse`` draws.  See :func:`_members_between`.
    """
    edges: list[tuple[BinaryTree, BinaryTree]] = []
    members = _members_between(t0, bracket_vector(t0), bracket_vector(t1), edges)
    return set(members.values()), edges


def _members_between(
    t0: BinaryTree,
    start: tuple[int, ...],
    upper: tuple[int, ...],
    edges: list[tuple[BinaryTree, BinaryTree]] | None = None,
) -> dict[tuple[int, ...], BinaryTree]:
    """The trees from ``t0``, whose bracket vector is ``start``, up to the
    tree whose vector is ``upper``, keyed by bracket vector.  Given a list
    as ``edges``, the walk also appends each ``(member, cover)`` pair to it.

    Every member lies on a chain of covers from ``t0`` that stays below
    the upper end.  A cover changes one vector entry, so the walk
    compares that entry with ``upper``'s before it builds the cover, and
    keys the members by vector, which determines the tree, so no member
    is built twice.

    :func:`interval` splits at the root instead; two callers stay on the
    walk.  :func:`_interval_members` needs the covers, the edges of the
    Hasse diagram.  The hypercube check's cross-check,
    ``intervals._verify_cube``, meets mostly tiny intervals: 408 of the
    534 comparable balanced pairs with n <= 10 have 1 or 2 members, and
    over those pairs the walk takes about 9 us a pair, the split 37-39 us.
    """
    members = {start: t0}
    stack = [(t0, start)]
    while stack:
        t, vector = stack.pop()
        for rank, i, value in _vector_moves(t):
            if value > upper[i]:
                continue
            raised = vector[:i] + (value,) + vector[i + 1 :]
            nxt = members.get(raised)
            if nxt is None:
                nxt = right_rotation(t, rank)
                members[raised] = nxt
                stack.append((nxt, raised))
            if edges is not None:
                edges.append((t, nxt))
    return members


class TamariPoset:
    """All trees of one size with cover edges and cached reachability.

    Elements are indexed in the :func:`~tamari_balance.trees.all_trees`
    order.  Reachability sets are integer bitmasks over those indices,
    computed on demand per queried source by breadth-first search and
    then cached.  No library route uses it; it is a test oracle.
    """

    def __init__(self, n: int):
        self.n = n
        self.elements: tuple[BinaryTree, ...] = all_trees(n)
        self._index: dict[BinaryTree, int] = {
            t: i for i, t in enumerate(self.elements)
        }
        self.cover_edges: list[tuple[int, ...]] = [
            tuple(self._index[c] for c in covers(t)) for t in self.elements
        ]
        self._reverse: list[tuple[int, ...]] | None = None
        self._up: dict[int, int] = {}
        self._down: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, t: BinaryTree) -> int:
        try:
            return self._index[t]
        except KeyError:
            raise ValueError(
                f"{serialize(t)} has {t.node_count} nodes, poset holds {self.n}"
            ) from None

    def _reverse_edges(self) -> list[tuple[int, ...]]:
        if self._reverse is None:
            rev: list[list[int]] = [[] for _ in self.elements]
            for i, outs in enumerate(self.cover_edges):
                for j in outs:
                    rev[j].append(i)
            self._reverse = [tuple(r) for r in rev]
        return self._reverse

    def _reach_mask(self, source: int, edges: list[tuple[int, ...]]) -> int:
        size = len(self.elements)
        seen = bytearray(size)
        seen[source] = 1
        queue = deque([source])
        while queue:
            cur = queue.popleft()
            for nxt in edges[cur]:
                if not seen[nxt]:
                    seen[nxt] = 1
                    queue.append(nxt)
        packed = bytearray((size + 7) // 8)
        for idx in range(size):
            if seen[idx]:
                packed[idx >> 3] |= 1 << (idx & 7)
        return int.from_bytes(bytes(packed), "little")

    def up_mask(self, i: int) -> int:
        """Bitmask of indices ``j`` with ``elements[i] <= elements[j]``."""
        mask = self._up.get(i)
        if mask is None:
            mask = self._reach_mask(i, self.cover_edges)
            self._up[i] = mask
        return mask

    def down_mask(self, j: int) -> int:
        """Bitmask of indices ``i`` with ``elements[i] <= elements[j]``."""
        mask = self._down.get(j)
        if mask is None:
            mask = self._reach_mask(j, self._reverse_edges())
            self._down[j] = mask
        return mask


def mask_indices(mask: int) -> list[int]:
    """Indices of set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@lru_cache(maxsize=3)
def tamari_poset(n: int) -> TamariPoset:
    """Materialized rotation order on all trees with ``n`` nodes.

    Capped by :data:`limits.TAMARI_POSET`: the Catalan growth makes the
    materialized poset unreasonable beyond it.
    """
    if n < 0:
        raise ValueError("node count must be nonnegative")
    limits.TAMARI_POSET.check(n)
    return TamariPoset(n)


def hasse_dot(
    trees, edges, highlight=frozenset(), graph_name: str = "hasse"
) -> str:
    """Render a Hasse diagram as DOT.

    Nodes are labeled with tree strings and listed in sorted tree-string
    order; each edge points from the smaller to the larger tree.
    """
    labels = {t: serialize(t) for t in {*trees, *(a for e in edges for a in e)}}
    ordered = sorted(labels, key=labels.__getitem__)
    position = {t: i for i, t in enumerate(ordered)}
    lines = [f"digraph {graph_name} {{", "  rankdir=BT;"]
    for t, i in position.items():
        style = ' style=filled fillcolor="lightblue"' if t in highlight else ""
        lines.append(f'  n{i} [label="{labels[t]}"{style}];')
    # Node numbers count up in tree-string order, so sorting the edges by
    # the numbers of their ends sorts them by the ends' tree strings.
    for a, b in sorted((position[a], position[b]) for a, b in edges):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines)
