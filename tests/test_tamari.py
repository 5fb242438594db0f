import random
import time
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cover_walk_interval, deep_trees, small_trees
from tamari_balance import cli, families, fixtures, intervals, tamari
from tamari_balance.balance import balanced_trees
from tamari_balance.families import closure_check
from tamari_balance.tamari import (
    IncomparableError,
    RotationError,
    TamariPoset,
    bracket_vector,
    comparable_pairs,
    covers,
    hasse_dot,
    interval,
    left_rotation,
    mask_indices,
    phi,
    right_rotation,
    rotation_ranks,
    tamari_leq,
    tamari_poset,
)
from tamari_balance.trees import (
    LEAF,
    all_trees,
    child_ranks,
    iter_subtrees,
    mirror,
    node,
    parse,
    serialize,
    sorted_by_text,
    subtree_at,
)


def test_right_rotation_examples():
    assert right_rotation(parse("((..).)"), 2) == parse("(.(..))")
    assert right_rotation(parse("(((..).).)"), 3) == parse("((..)(..))")
    assert right_rotation(parse("(((..).).)"), 2) == parse("((.(..)).)")
    assert right_rotation(parse("((.(..)).)"), 3) == parse("(.((..).))")
    assert right_rotation(parse("((..)(..))"), 2) == parse("(.(.(..)))")


def test_right_rotation_errors():
    with pytest.raises(RotationError):
        right_rotation(parse("(.(..))"), 1)
    with pytest.raises(ValueError):
        right_rotation(parse("(..)"), 2)


def test_left_rotation_examples():
    assert left_rotation(parse("(.(..))"), 2) == parse("((..).)")
    assert left_rotation(parse("((..)(..))"), 3) == parse("(((..).).)")


def test_left_rotation_errors():
    with pytest.raises(RotationError):
        left_rotation(parse("((..).)"), 1)
    with pytest.raises(RotationError):
        left_rotation(parse("(.(..))"), 1)


def test_rotations_are_inverse_exhaustively():
    # Trees node(c, c) put one object on both sides of the root; rotating
    # inside either copy must rebuild the side the walk took.  The seven
    # with a rotation inside c are among those checked here and in
    # test_rotation_preserves_ranks_structurally.
    twin_roots = 0
    for n in range(8):
        for t in all_trees(n):
            twin_roots += t.node_count > 3 and t.left is t.right
            for rank in rotation_ranks(t):
                rotated = right_rotation(t, rank)
                assert left_rotation(rotated, rank) is t
    assert twin_roots == 7


def test_rotation_preserves_ranks_structurally():
    for n in range(8):
        for t in all_trees(n):
            for rank in rotation_ranks(t):
                sub = subtree_at(t, rank)
                x_rank = child_ranks(t, rank)[0]
                rotated = right_rotation(t, rank)
                assert subtree_at(rotated, rank) == parse(
                    f"({serialize(sub.left.right)}{serialize(sub.right)})"
                )
                new_top = subtree_at(rotated, x_rank)
                assert new_top.left == sub.left.left
                assert new_top.right == subtree_at(rotated, rank)


def test_phi_examples():
    assert phi(parse("((((..).).).)")) == 0
    assert phi(parse("(.(.(..)))")) == 3
    assert phi(parse("((..)(..))")) == 1


def test_phi_strictly_increases():
    for n in range(8):
        for t in all_trees(n):
            for succ in covers(t):
                assert phi(succ) > phi(t)


def test_covers_counts_left_children():
    for n in range(8):
        for t in all_trees(n):
            succs = covers(t)
            expected = sum(
                1 for _, sub in iter_subtrees(t) if sub.left.node_count
            )
            assert len(succs) == expected
            assert len(set(succs)) == len(succs)


def _closure_oracle(n):
    """Transitive closure of the cover relation, computed independently."""
    reach = {t: {t} | set(covers(t)) for t in all_trees(n)}
    changed = True
    while changed:
        changed = False
        for t, seen in reach.items():
            extended = set().union(*(reach[s] for s in seen))
            if not extended <= seen:
                seen |= extended
                changed = True
    return reach


@pytest.mark.parametrize("n", range(6))
def test_leq_matches_transitive_closure(n):
    oracle = _closure_oracle(n)
    for t0 in all_trees(n):
        for t1 in all_trees(n):
            assert tamari_leq(t0, t1) == (t1 in oracle[t0])


def test_leq_examples():
    assert tamari_leq(parse("((..).)"), parse("(.(..))"))
    assert not tamari_leq(parse("(.(..))"), parse("((..).)"))
    assert tamari_leq(parse("(((..).).)"), parse("(.(.(..)))"))
    with pytest.raises(ValueError):
        tamari_leq(parse("(..)"), parse("((..).)"))


@settings(max_examples=150)
@given(small_trees, st.data())
def test_leq_duality_under_mirror(t0, data):
    t1 = data.draw(st.sampled_from(all_trees(t0.node_count)))
    assert tamari_leq(t0, t1) == tamari_leq(mirror(t1), mirror(t0))


def test_interval_singleton_and_error_are_distinct():
    t = parse("((..)(..))")
    assert interval(t, t) == (t,)
    with pytest.raises(IncomparableError):
        interval(parse("(.(..))"), parse("((..).)"))


def _recursive_bracket_vector(t):
    if t.left is None:
        return ()
    return (
        _recursive_bracket_vector(t.left)
        + (t.right.node_count,)
        + _recursive_bracket_vector(t.right)
    )


def test_bracket_vector_is_the_infix_right_sizes():
    for n in range(9):
        for t in all_trees(n):
            assert bracket_vector(t) == _recursive_bracket_vector(t)


def test_order_queries_on_a_deep_comb():
    left_comb, right_comb, below = deep_trees(5000)
    assert bracket_vector(right_comb) == tuple(range(4999, -1, -1))
    assert tamari_leq(right_comb, right_comb)
    assert tamari_leq(below, right_comb)
    assert covers(below) == (right_comb,)
    # The left comb's segments each hold a lower chain as long as the
    # segment, the right comb's an upper chain: a root search from one
    # side only would be quadratic on one of them.
    for lower, upper, expected in [
        (left_comb, left_comb, (left_comb,)),
        (right_comb, right_comb, (right_comb,)),
        (below, right_comb, (below, right_comb)),
    ]:
        start = time.perf_counter()
        assert interval(lower, upper) == expected
        assert time.perf_counter() - start < 1.0
    assert right_rotation(below, 5000) is right_comb
    assert left_rotation(right_comb, 5000) is below
    assert left_rotation(right_rotation(left_comb, 2), 2) is left_comb
    assert right_rotation(left_rotation(right_comb, 2), 2) is right_comb
    with pytest.raises(RotationError):
        right_rotation(left_comb, 1)
    with pytest.raises(RotationError):
        left_rotation(below, 4999)


def test_interval_of_extremes_is_everything():
    bottom = parse("((((..).).).)")
    top = parse("(.(.(.(..))))")
    assert len(interval(bottom, top)) == 14


def test_interval_three_nodes():
    members = interval(parse("(((..).).)"), parse("(.(.(..)))"))
    assert members == tuple(sorted(all_trees(3), key=serialize))


def test_interval_agrees_with_poset_route():
    poset = tamari_poset(5)
    elements = poset.elements
    for i in range(0, len(elements), 3):
        for j in range(0, len(elements), 4):
            members = mask_indices(poset.up_mask(i) & poset.down_mask(j))
            if not members:
                with pytest.raises(IncomparableError):
                    interval(elements[i], elements[j])
                continue
            expected = sorted((elements[k] for k in members), key=serialize)
            assert interval(elements[i], elements[j]) == tuple(expected)


def test_vector_moves_are_the_covers():
    for n in range(8):
        for t in all_trees(n):
            vector = bracket_vector(t)
            moves = list(tamari._vector_moves(t))
            assert [rank for rank, _, _ in moves] == list(rotation_ranks(t))
            for rank, i, value in moves:
                raised = vector[:i] + (value,) + vector[i + 1 :]
                assert bracket_vector(right_rotation(t, rank)) == raised


def assert_hasse_edges(members, edges):
    """``edges`` are the covers inside ``members``, each pair once."""
    expected = {(t, c) for t in members for c in covers(t) if c in members}
    assert len(edges) == len(expected)
    assert set(edges) == expected


def test_interval_walk_matches_the_cover_walk_exhaustively():
    for n in range(7):
        trees = all_trees(n)
        for lower, upper in comparable_pairs(trees, trees):
            expected = cover_walk_interval(lower, upper)
            members, edges = tamari._interval_members(lower, upper)
            assert members == expected
            assert_hasse_edges(members, edges)
            assert interval(lower, upper) == tuple(sorted_by_text(expected))


def _random_tree(rng, n):
    if n == 0:
        return LEAF
    k = rng.randrange(n)
    return node(_random_tree(rng, k), _random_tree(rng, n - 1 - k))


def _random_pair(rng, n):
    lower = upper = _random_tree(rng, n)
    for _ in range(rng.randrange(1, 3 * n)):
        if not covers(upper):
            break
        upper = rng.choice(covers(upper))
    return lower, upper


@pytest.mark.parametrize("n", [10, 11, 12])
def test_interval_walk_matches_the_cover_walk_on_random_pairs(n):
    rng = random.Random(n)
    pairs = [_random_pair(rng, n) for _ in range(12)]
    if n == 10:
        left_comb = right_comb = LEAF
        for _ in range(n):
            left_comb = node(left_comb, LEAF)
            right_comb = node(LEAF, right_comb)
        pairs.append((left_comb, right_comb))
    for lower, upper in pairs:
        expected = cover_walk_interval(lower, upper)
        members, edges = tamari._interval_members(lower, upper)
        assert members == expected
        assert_hasse_edges(members, edges)
        assert interval(lower, upper) == tuple(sorted_by_text(expected))


def test_poset_three_nodes_has_five_cover_edges():
    poset = tamari_poset(3)
    assert len(poset) == 5
    edges = {
        (serialize(poset.elements[i]), serialize(poset.elements[j]))
        for i, outs in enumerate(poset.cover_edges)
        for j in outs
    }
    assert edges == {
        ("(((..).).)", "((.(..)).)"),
        ("(((..).).)", "((..)(..))"),
        ("((.(..)).)", "(.((..).))"),
        ("((..)(..))", "(.(.(..)))"),
        ("(.((..).))", "(.(.(..)))"),
    }


def test_poset_sizes_and_masks():
    poset = tamari_poset(4)
    assert len(poset) == 14
    bottom = poset.index(parse("((((..).).).)"))
    top = poset.index(parse("(.(.(.(..))))"))
    assert poset.up_mask(bottom).bit_count() == 14
    assert poset.down_mask(top).bit_count() == 14
    assert poset.up_mask(bottom) >> top & 1
    assert not poset.up_mask(top) >> bottom & 1
    whole = poset.up_mask(bottom) & poset.down_mask(top)
    assert mask_indices(whole) == list(range(14))


def test_poset_zero_and_guard():
    assert len(tamari_poset(0)) == 1
    with pytest.raises(ValueError):
        tamari_poset(15)
    with pytest.raises(ValueError):
        tamari_poset(-1)


def test_poset_index_rejects_other_sizes():
    poset = tamari_poset(3)
    with pytest.raises(ValueError):
        poset.index(parse("(..)"))


def test_leq_with_poset_matches_plain():
    for n in range(8):
        poset = tamari_poset(n)
        for i, t0 in enumerate(poset.elements):
            up = poset.up_mask(i)
            for j, t1 in enumerate(poset.elements):
                assert tamari_leq(t0, t1) == bool(up >> j & 1)


@pytest.mark.parametrize("n", range(9))
def test_comparable_pairs_match_chapoton_count(n):
    trees = all_trees(n)
    pairs = sum(tamari_leq(t0, t1) for t0 in trees for t1 in trees)
    assert pairs == 2 * factorial(4 * n + 1) // (
        factorial(n + 1) * factorial(3 * n + 2)
    )


@pytest.mark.parametrize("n", range(8))
def test_comparable_pairs_match_up_masks(n):
    poset = tamari_poset(n)
    expected = [
        (t0, t1)
        for i, t0 in enumerate(poset.elements)
        for j, t1 in enumerate(poset.elements)
        if poset.up_mask(i) >> j & 1
    ]
    assert list(comparable_pairs(poset.elements, poset.elements)) == expected


def test_comparable_pairs_keep_both_orders():
    lowers = balanced_trees(5)
    uppers = tuple(reversed(all_trees(5)))
    expected = [
        (lower, upper)
        for lower in lowers
        for upper in uppers
        if tamari_leq(lower, upper)
    ]
    assert list(comparable_pairs(lowers, uppers)) == expected
    assert list(comparable_pairs(iter(lowers), iter(uppers))) == expected


def test_comparable_pairs_edge_cases():
    assert list(comparable_pairs([], all_trees(3))) == []
    assert list(comparable_pairs(all_trees(3), [])) == []
    leaf = parse(".")
    assert list(comparable_pairs([leaf], [leaf])) == [(leaf, leaf)]


def test_comparable_pairs_reject_other_sizes():
    with pytest.raises(ValueError, match="cannot compare trees with 1 and 3 nodes"):
        list(comparable_pairs([parse("(..)")], all_trees(3)))
    with pytest.raises(ValueError, match="cannot compare trees with 3 and 2 nodes"):
        list(comparable_pairs(all_trees(3), all_trees(3) + all_trees(2)))
    with pytest.raises(ValueError, match="cannot compare trees with 1 and 3 nodes"):
        tamari._comparable_count([parse("(..)")], all_trees(3))
    with pytest.raises(ValueError, match="cannot compare trees with 3 and 2 nodes"):
        tamari._comparable_count(all_trees(3), all_trees(3) + all_trees(2))


@pytest.mark.parametrize(
    "lowers, uppers",
    [
        (all_trees(6), all_trees(6)),
        (balanced_trees(7), tuple(reversed(all_trees(7)))),
        (all_trees(5), balanced_trees(5)),
        ([], all_trees(3)),
        (all_trees(3), []),
        ([LEAF], [LEAF]),
    ],
    ids=["all-6", "balanced-7", "balanced-5", "no-lowers", "no-uppers", "leaf"],
)
def test_comparable_count_counts_the_pairs(lowers, uppers):
    want = len(list(comparable_pairs(lowers, uppers)))
    assert tamari._comparable_count(lowers, uppers) == want
    assert tamari._comparable_count(iter(lowers), iter(uppers)) == want


def test_brute_interval_counts_build_no_pair(monkeypatch):
    def refuse(mask):
        raise AssertionError("a pair was built only to be counted")

    monkeypatch.setattr(tamari, "mask_indices", refuse)
    assert intervals._balanced_pair_count(9) == fixtures.BALANCED_INTERVAL_COUNTS[9]
    assert intervals._maximal_pair_count(9) == fixtures.MAXIMAL_INTERVAL_COUNTS[9]


def test_comparable_pairs_build_the_index_on_the_first_lower(monkeypatch):
    def refuse(trees):
        raise AssertionError("index built with no lower to compare")

    monkeypatch.setattr(tamari, "_dominance_index", refuse)
    assert closure_check(all_trees(6)) is None
    assert list(comparable_pairs([], all_trees(4))) == []
    assert list(comparable_pairs(iter(()), all_trees(4))) == []


def hasse_tamari(capsys, n):
    assert cli.main(["hasse", "tamari", str(n)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("n", range(8))
def test_hasse_tamari_matches_the_poset_oracle(capsys, n):
    poset = tamari_poset(n)
    edges = [
        (t, poset.elements[j])
        for t, outs in zip(poset.elements, poset.cover_edges)
        for j in outs
    ]
    assert hasse_tamari(capsys, n) == hasse_dot(poset.elements, edges) + "\n"


def test_dot_output_is_deterministic_and_complete(capsys):
    dot = hasse_tamari(capsys, 3)
    assert dot == hasse_tamari(capsys, 3)
    assert dot.startswith("digraph hasse {")
    assert dot.count(" -> ") == 5
    assert dot.count("label=") == 5
    ordered = [line for line in dot.splitlines() if "label=" in line]
    labels = [line.split('"')[1] for line in ordered]
    assert labels == sorted(labels)


def test_hasse_dot_highlights():
    t = parse("(..)")
    dot = hasse_dot([t], [], highlight={t})
    assert "fillcolor" in dot


@pytest.mark.parametrize("module", [cli, families, intervals])
def test_production_modules_walk_the_order_without_covers_or_posets(module):
    names = {"covers", "tamari_poset", "TamariPoset"}
    assert names.isdisjoint(vars(module))
