"""Shared strategies and helpers for the test suite."""

from operator import le

from hypothesis import strategies as st

from tamari_balance.tamari import bracket_vector, covers
from tamari_balance.trees import LEAF, all_trees, node


def trees_with_up_to(max_nodes: int):
    """Strategy drawing a tree with at most ``max_nodes`` nodes."""
    return st.integers(0, max_nodes).flatmap(
        lambda n: st.sampled_from(all_trees(n))
    )


small_trees = trees_with_up_to(9)
tiny_trees = trees_with_up_to(6)


def cover_walk_interval(t0, t1):
    """The trees between ``t0 <= t1``: every cover of every member is
    built, and kept when its whole vector stays at or below ``t1``'s."""
    upper = bracket_vector(t1)
    members = {t0}
    stack = [t0]
    while stack:
        for nxt in covers(stack.pop()):
            if nxt not in members and all(map(le, bracket_vector(nxt), upper)):
                members.add(nxt)
                stack.append(nxt)
    return members


def deep_trees(n: int = 5000):
    """Trees far deeper than the interpreter's recursion limit:
    ``(left_comb, right_comb, below)`` with ``n`` nodes each, where
    ``below`` is the right comb with its deepest node moved to the left
    of its parent, so the right comb is ``below``'s one cover (a right
    rotation at rank ``n``)."""
    left_comb = right_comb = LEAF
    for _ in range(n):
        left_comb = node(left_comb, LEAF)
        right_comb = node(LEAF, right_comb)
    below = node(node(), LEAF)
    for _ in range(n - 2):
        below = node(LEAF, below)
    return left_comb, right_comb, below
