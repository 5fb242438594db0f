import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import deep_trees, small_trees
from tamari_balance.balance import (
    RotationKind,
    balanced_trees,
    balanced_trees_of_height,
    classify_rotation,
    find_witness,
    has_imbalance_invariant,
    height_word,
    is_admissible,
    is_balanced,
    rewrite_closure,
    rewrite_stages,
    rewrite_step,
    witnesses,
)
from tamari_balance.fixtures import BALANCED_COUNTS
from tamari_balance.tamari import (
    RotationError,
    covers,
    right_rotation,
    rotation_ranks,
    tamari_poset,
)
from tamari_balance.trees import (
    all_trees,
    child_ranks,
    imbalance,
    parse,
    serialize,
)

NARROW_EXAMPLE = "(((.((..).))(.(..)))(..))"
DEEP_EXAMPLE = (
    "(((..)((.(..))(((..)((..).))((..).))))(((..)(.(..)))((..).)))"
)


def test_is_balanced_examples():
    assert is_balanced(parse("."))
    assert is_balanced(parse("((..)(..))"))
    assert not is_balanced(parse("(((..).).)"))
    assert not is_balanced(parse(NARROW_EXAMPLE))
    assert not is_balanced(parse("((.((..).))(((..).)(..)))"))
    assert is_balanced(parse("(((..)(..))((..)(..)))"))


def test_balanced_counts_match_reference():
    assert [len(balanced_trees(n)) for n in range(20)] == BALANCED_COUNTS


@pytest.mark.parametrize("n", [20, 21, 22])
def test_large_balanced_families_are_sorted_without_repeats(n):
    trees = balanced_trees(n)
    assert trees == tuple(sorted(trees, key=serialize))
    assert len(set(trees)) == len(trees)
    assert all(t.node_count == n and is_balanced(t) for t in trees)


def test_balanced_counts_by_height():
    counts = [1, 1]
    while len(counts) < 6:
        counts.append(counts[-1] ** 2 + 2 * counts[-1] * counts[-2])
    assert counts == [1, 1, 3, 15, 315, 108675]
    for h, expected in enumerate(counts):
        trees = balanced_trees_of_height(h)
        assert len(trees) == len(set(trees)) == expected
        assert all(t.height == h and is_balanced(t) for t in trees)
        assert trees == tuple(sorted(trees, key=serialize))


def test_classification_against_measured_imbalances():
    for n in range(9):
        for t in all_trees(n):
            for rank in rotation_ranks(t):
                x_rank = child_ranks(t, rank)[0]
                info = classify_rotation(t, rank)
                assert info.before == (imbalance(t, x_rank), imbalance(t, rank))
                rotated = right_rotation(t, rank)
                assert info.after == (
                    imbalance(rotated, x_rank),
                    imbalance(rotated, rank),
                )
                in_table = all(v in (-1, 0, 1) for v in info.before)
                assert (info.kind == RotationKind.OUTSIDE_TABLE) == (not in_table)


def test_classification_covers_all_table_rows():
    expected = {
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
    seen = {}
    for n in range(9):
        for t in all_trees(n):
            for rank in rotation_ranks(t):
                info = classify_rotation(t, rank)
                if info.kind != RotationKind.OUTSIDE_TABLE:
                    seen.setdefault(info.before, (info.kind, info.after))
                    assert expected[info.before] == (info.kind, info.after)
    assert seen.keys() == expected.keys()


def test_classify_requires_applicable_rotation():
    with pytest.raises(RotationError):
        classify_rotation(parse("(.(..))"), 1)


def test_conservative_rotations_are_exactly_balance_preserving():
    for n in range(10):
        for t in balanced_trees(n):
            for rank in rotation_ranks(t):
                info = classify_rotation(t, rank)
                stays = is_balanced(right_rotation(t, rank))
                assert stays == (info.kind == RotationKind.CONSERVATIVE_BALANCING)


def test_balanced_covers_share_heights():
    for n in range(11):
        for t in balanced_trees(n):
            for succ in covers(t):
                if is_balanced(succ):
                    assert succ.height == t.height


def test_height_word_figure_values():
    t = parse(NARROW_EXAMPLE)
    assert height_word(t, 1) == (2, 2, 1)
    assert height_word(t, 2) == (0, 0, 2, 1)
    assert height_word(t, 6) == (0, 1)
    with pytest.raises(ValueError, match=r"^rank 9 out of range 1\.\.8$"):
        height_word(t, 9)


def test_height_words_and_classification_on_deep_combs():
    left_comb, right_comb, below = deep_trees(5000)
    assert height_word(left_comb, 1) == (0,) * 5000
    assert height_word(right_comb, 1) == (4999,)
    assert height_word(right_comb, 5000) == (0,)
    assert height_word(below, 4999) == (0, 0)
    for t, rank in ((below, 5000), (left_comb, 2)):
        got = classify_rotation(t, rank)
        assert got.kind is RotationKind.CONSERVATIVE_BALANCING
        assert (got.before, got.after) == ((0, -1), (1, 0))
    at_root = classify_rotation(left_comb, 5000)
    assert at_root.kind is RotationKind.OUTSIDE_TABLE
    assert (at_root.before, at_root.after) == ((-4998, -4999), (-4997, 0))
    with pytest.raises(RotationError):
        classify_rotation(right_comb, 5000)


def test_rewrite_step_and_stages():
    assert rewrite_step((0, 0, 1, 2, 2)) == (1, 1, 2, 2)
    assert rewrite_step((3, 4, 4, 4)) == (5, 4, 4)
    assert rewrite_step((6, 4)) == (6,)
    with pytest.raises(ValueError):
        rewrite_step((3,))
    assert rewrite_stages((0, 0, 1, 2, 2)) == [
        (0, 0, 1, 2, 2),
        (1, 1, 2, 2),
        (2, 2, 2),
        (3, 2),
        (4,),
    ]


def test_rewrite_chain_long_example():
    stages = rewrite_stages((0, 1, 2, 3, 3, 7, 7, 8))
    assert stages == [
        (0, 1, 2, 3, 3, 7, 7, 8),
        (2, 2, 3, 3, 7, 7, 8),
        (3, 3, 3, 7, 7, 8),
        (4, 3, 7, 7, 8),
        (5, 7, 7, 8),
        (7, 7, 8),
        (8, 8),
        (9,),
    ]
    assert rewrite_closure((0, 1, 2, 3, 3, 7, 7, 8)) == 9
    assert is_admissible((0, 1, 2, 3, 3, 7, 7, 8))


def test_admissibility_worked_examples():
    assert is_admissible((0, 0, 1, 2, 2))
    assert rewrite_closure((0, 0, 1, 2, 2)) == 4
    assert not is_admissible((3, 4, 4, 4))
    assert rewrite_closure((3, 4, 4, 4)) == 6
    assert is_admissible(())
    assert is_admissible((5,))


def _admissible_oracle(word):
    """Split characterization: every proper prefix closes to at most one
    more than the letter that follows it."""
    for i in range(1, len(word)):
        if rewrite_closure(word[:i]) - 1 > word[i]:
            return False
    return True


def test_admissibility_matches_split_characterization():
    from itertools import product

    for length in range(6):
        for word in product(range(5), repeat=length):
            assert is_admissible(word) == _admissible_oracle(word)


def test_admissible_words_are_almost_nondecreasing():
    from itertools import product

    for length in range(6):
        for word in product(range(5), repeat=length):
            if is_admissible(word):
                assert all(word[i] - 1 <= word[i + 1] for i in range(length - 1))


def test_admissible_words_close_under_affixes_and_rewrites():
    from itertools import product

    for length in range(2, 6):
        for word in product(range(4), repeat=length):
            if not is_admissible(word):
                continue
            for i in range(length + 1):
                assert is_admissible(word[:i])
                assert is_admissible(word[i:])
            for i in range(length - 1):
                assert is_admissible(word[:i] + rewrite_step(word[i:]))


def test_balanced_trees_have_admissible_height_words():
    for n in range(11):
        for t in balanced_trees(n):
            for rank in range(1, n + 1):
                word = height_word(t, rank)
                assert is_admissible(word)
                assert rewrite_closure(word) <= t.height


def test_balanced_trees_have_no_witness():
    for n in range(10):
        for t in balanced_trees(n):
            assert find_witness(t) is None
            assert not has_imbalance_invariant(t)


def test_worked_witness_example():
    t = parse(DEEP_EXAMPLE)
    assert t.node_count == 20
    assert find_witness(t) == (5, 3)
    assert list(witnesses(t)) == [(5, 3)]
    assert height_word(t, 3) == (1, 4, 4)
    assert is_admissible(height_word(t, 3))
    assert has_imbalance_invariant(t)


def test_right_comb_witness():
    t = parse("(.(.(..)))")
    assert find_witness(t) == (1, 1)
    assert height_word(t, 1) == (2,)
    assert has_imbalance_invariant(t)


def test_unbalanced_covers_of_balanced_trees_carry_the_invariant():
    for n in range(10):
        for t in balanced_trees(n):
            for succ in covers(t):
                if not is_balanced(succ):
                    assert has_imbalance_invariant(succ)


def test_invariant_propagates_along_rotations():
    for n in range(10):
        for t in all_trees(n):
            if has_imbalance_invariant(t):
                for succ in covers(t):
                    assert has_imbalance_invariant(succ)


def test_invariant_blocks_balanced_trees_above():
    poset = tamari_poset(8)
    balanced_mask = sum(1 << poset.index(t) for t in balanced_trees(8))
    for i, t in enumerate(poset.elements):
        if has_imbalance_invariant(t):
            above = poset.up_mask(i) & ~(1 << i)
            assert above & balanced_mask == 0


@given(small_trees, st.integers(1, 20))
def test_height_word_first_letter_is_right_subtree_height(t, rank):
    if t.node_count == 0:
        return
    rank = 1 + (rank - 1) % t.node_count
    from tamari_balance.trees import subtree_at

    assert height_word(t, rank)[0] == subtree_at(t, rank).right.height
