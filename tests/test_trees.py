import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import small_trees, tiny_trees
from tamari_balance.balance import balanced_trees
from tamari_balance.families import weight_balanced_trees
from tamari_balance.tamari import left_rotation, right_rotation, rotation_ranks
from tamari_balance.trees import (
    LEAF,
    TreeParseError,
    all_trees,
    canopy,
    child_ranks,
    imbalance,
    is_right_of,
    iter_subtrees,
    leaf_count,
    mirror,
    nar,
    node,
    parse,
    serialize,
    sorted_by_text,
    subtree_at,
)

WIDE_EXAMPLE = "((.((..).))(((..).)(..)))"

CANOPY_EXAMPLE = "(((..)((..).))((..)(..)))"


def test_parse_basic_shapes():
    assert parse(".") is LEAF
    assert parse("(..)") == node()
    assert parse("((..).)") == node(node(), LEAF)
    assert parse("(.(..))") == node(LEAF, node())


def test_parse_ignores_whitespace():
    assert parse(" ( . ( . . ) )\n") == parse("(.(..))")


def test_parse_is_interned():
    assert parse(WIDE_EXAMPLE) is parse(WIDE_EXAMPLE)


@pytest.mark.parametrize(
    "text,offset",
    [
        ("", 0),
        ("((..)", 5),
        ("(..))", 4),
        ("(.)", 2),
        ("x", 0),
        ("(..)x", 4),
        ("((..)(..)(..))", 12),
        (")", 0),
        ("..", 1),
    ],
)
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(TreeParseError) as exc:
        parse(text)
    assert exc.value.offset == offset
    assert f"offset {offset}" in str(exc.value)


def test_counts_and_heights():
    assert (LEAF.node_count, LEAF.height, leaf_count(LEAF)) == (0, 0, 1)
    single = parse("(..)")
    assert (single.node_count, single.height, leaf_count(single)) == (1, 1, 2)
    comb = parse("((((..).).).)")
    assert (comb.node_count, comb.height) == (4, 4)
    perfect = parse("((..)(..))")
    assert (perfect.node_count, perfect.height) == (3, 2)
    wide = parse(WIDE_EXAMPLE)
    assert (wide.node_count, wide.height) == (8, 4)


def test_imbalance_per_rank_on_worked_tree():
    t = parse(WIDE_EXAMPLE)
    assert [imbalance(t, r) for r in range(1, 9)] == [2, 0, -1, 0, 0, -1, -1, 0]


def test_imbalance_defaults_to_root():
    t = parse(WIDE_EXAMPLE)
    assert imbalance(t) == 0
    assert imbalance(parse("(.(..))")) == 1
    assert imbalance(parse("((..).)")) == -1
    with pytest.raises(ValueError):
        imbalance(LEAF)


def test_subtree_at_and_child_ranks():
    t = parse(WIDE_EXAMPLE)
    assert subtree_at(t, 1) == parse("(.((..).))")
    assert subtree_at(t, 4) is t
    assert subtree_at(t, 8) == parse("(..)")
    assert child_ranks(t, 4) == (1, 7)
    assert child_ranks(t, 1) == (None, 3)
    assert child_ranks(t, 8) == (None, None)
    with pytest.raises(ValueError):
        subtree_at(t, 0)
    with pytest.raises(ValueError):
        subtree_at(t, 9)
    with pytest.raises(ValueError):
        child_ranks(t, 9)


@given(small_trees)
def test_subtree_at_agrees_with_infix_iteration(t):
    for rank, sub in iter_subtrees(t):
        assert subtree_at(t, rank) is sub
    assert sum(1 for _ in iter_subtrees(t)) == t.node_count


@given(small_trees)
def test_child_ranks_agree_with_subtrees(t):
    for rank, sub in iter_subtrees(t):
        lr, rr = child_ranks(t, rank)
        if lr is None:
            assert sub.left.node_count == 0
        else:
            assert subtree_at(t, lr) is sub.left
        if rr is None:
            assert sub.right.node_count == 0
        else:
            assert subtree_at(t, rr) is sub.right


def test_is_right_of_compares_ranks():
    t = parse(WIDE_EXAMPLE)
    assert is_right_of(t, 6, 2)
    assert not is_right_of(t, 2, 6)
    assert not is_right_of(t, 3, 3)
    with pytest.raises(ValueError):
        is_right_of(t, 0, 3)
    with pytest.raises(ValueError):
        is_right_of(t, 1, 9)


def test_mirror_examples():
    assert mirror(parse("(.(..))")) == parse("((..).)")
    assert mirror(parse(WIDE_EXAMPLE)) == parse("(((..)(.(..)))((.(..)).))")
    assert mirror(LEAF) is LEAF


@given(small_trees)
def test_mirror_is_an_involution(t):
    assert mirror(mirror(t)) is t


@given(small_trees)
def test_mirror_swaps_canopy_letters(t):
    flipped = canopy(mirror(t))
    expected = "".join("1" if c == "0" else "0" for c in reversed(canopy(t)))
    assert flipped == expected


def test_canopy_worked_example():
    assert canopy(parse(CANOPY_EXAMPLE)) == "0100101"
    assert canopy(parse("((..)(..))")) == "01"
    assert canopy(parse("(..)")) == ""
    assert canopy(LEAF) == ""


@given(tiny_trees, tiny_trees)
def test_canopy_recursion(left, right):
    t = node(left, right)
    if left.node_count and right.node_count:
        expected = canopy(left) + "0" + "1" + canopy(right)
    elif right.node_count:
        expected = "1" + canopy(right)
    elif left.node_count:
        expected = canopy(left) + "0"
    else:
        expected = ""
    assert canopy(t) == expected


@given(small_trees)
def test_canopy_length(t):
    assert len(canopy(t)) == max(0, t.node_count - 1)


@given(small_trees)
def test_nar_counts_canopy_ones(t):
    assert nar(t) == canopy(t).count("1")


def test_nar_on_combs():
    left_comb = parse("((((..).).).)")
    right_comb = parse("(.(.(.(..))))")
    assert nar(left_comb) == 0
    assert nar(right_comb) == 3


def test_all_trees_counts_are_catalan():
    assert [len(all_trees(n)) for n in range(9)] == [
        1, 1, 2, 5, 14, 42, 132, 429, 1430,
    ]


def test_all_trees_distinct_and_sized():
    for n in range(7):
        trees = all_trees(n)
        assert len(set(trees)) == len(trees)
        assert all(t.node_count == n for t in trees)


def test_all_trees_guard():
    with pytest.raises(ValueError):
        all_trees(-1)
    with pytest.raises(ValueError):
        all_trees(17)


def test_serialize_round_trip_exhaustive():
    for n in range(11):
        for t in all_trees(n):
            assert parse(serialize(t)) is t


def test_pickle_round_trip():
    t = parse(WIDE_EXAMPLE)
    assert pickle.loads(pickle.dumps(t)) is t


@given(st.text(alphabet="(.) ", max_size=12))
def test_parse_rejects_or_round_trips(text):
    try:
        t = parse(text)
    except TreeParseError:
        return
    assert serialize(t) == "".join(text.split())


def test_sorted_by_text_matches_serialize_order():
    pooled = [t for n in range(9) for t in all_trees(n)]
    random.Random(12).shuffle(pooled)
    assert sorted_by_text(pooled) == sorted(pooled, key=serialize)
    assert sorted_by_text(iter(pooled)) == sorted(pooled, key=serialize)
    assert sorted_by_text([]) == []


def test_sorted_by_text_on_a_deep_comb():
    comb = LEAF
    for _ in range(5000):
        comb = node(LEAF, comb)
    trees = [comb, comb.right.right, node(comb, LEAF), LEAF, comb]
    assert sorted_by_text(trees) == sorted(trees, key=serialize)


def test_sorted_by_text_on_mixed_sizes_and_repeats():
    left_comb = right_comb = LEAF
    for _ in range(5000):
        left_comb = node(left_comb, LEAF)
        right_comb = node(LEAF, right_comb)
    pooled = [t for n in range(13) for t in balanced_trees(n)]
    pooled += [t for n in range(16) for t in weight_balanced_trees(n)]
    pooled += [left_comb, right_comb, left_comb.left, right_comb.right.right]
    pooled += [t for n in range(5) for t in all_trees(n)]
    pooled += pooled[::7]
    random.Random(18).shuffle(pooled)
    assert sorted_by_text(pooled) == sorted(pooled, key=serialize)


def test_hash_is_structural():
    assert hash(LEAF) == hash(("tree", 0))
    for t in (t for n in range(1, 7) for t in all_trees(n)):
        assert hash(t) == hash((hash(t.left), t.node_count, hash(t.right)))


def test_intern_table_holds_one_entry_per_shape():
    script = "\n".join(
        [
            "from tamari_balance import trees",
            "trees.all_trees(8)",
            "print(len(trees._INTERN))",
        ]
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    # C1 + ... + C8: every nonempty tree of at most 8 nodes, once.
    assert int(result.stdout) == 1 + 2 + 5 + 14 + 42 + 132 + 429 + 1430


def test_constructors_return_the_interned_object():
    def mirrored_text(t):
        if t.left is None:
            return "."
        return "(" + mirrored_text(t.right) + mirrored_text(t.left) + ")"

    for t in (t for n in range(1, 7) for t in all_trees(n)):
        assert parse(serialize(t)) is t
        assert node(t.left, t.right) is t
        assert mirror(mirror(t)) is t
        assert mirror(t) is parse(mirrored_text(t))
        for rank in rotation_ranks(t):
            rotated = right_rotation(t, rank)
            assert right_rotation(t, rank) is rotated
            assert parse(serialize(rotated)) is rotated
            assert left_rotation(rotated, rank) is t
