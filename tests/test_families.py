"""Tests for imbalance-set families, weight balance, canopy and right-child classes."""

import random
from math import comb

import pytest

from tamari_balance import limits
from tamari_balance.balance import balanced_trees, is_balanced
from tamari_balance.families import (
    CanopyClass,
    ClosureCounterexample,
    ClosureVerdict,
    ImbalanceSet,
    canopy_class,
    classify_interval_closure,
    closure_check,
    imbalance_family,
    imbalances_within,
    is_weight_balanced,
    narayana_class,
    narayana_row,
    weight_balanced_count,
    weight_balanced_trees,
    weight_imbalance,
    weight_rank,
)
from tamari_balance.fixtures import (
    NARAYANA_ROWS,
    WEIGHT_BALANCED_COUNTS,
    ZERO_ONE_BALANCED_COUNTS,
)
from tamari_balance.tamari import (
    comparable_pairs,
    covers,
    mask_indices,
    right_rotation,
    rotation_ranks,
    tamari_leq,
    tamari_poset,
)
from tamari_balance.trees import (
    LEAF,
    all_trees,
    canopy,
    child_ranks,
    iter_subtrees,
    mirror,
    nar,
    node,
    parse,
    serialize,
)


@pytest.fixture(scope="module")
def small_posets():
    return {n: tamari_poset(n) for n in range(10)}


def left_comb(n):
    t = LEAF
    for _ in range(n):
        t = node(t, LEAF)
    return t


def right_comb(n):
    t = LEAF
    for _ in range(n):
        t = node(LEAF, t)
    return t


class TestImbalanceSet:
    def test_parse_interval_forms(self):
        assert ImbalanceSet.parse("-2..0") == ImbalanceSet.between(-2, 0)
        assert ImbalanceSet.parse("..0") == ImbalanceSet.between(None, 0)
        assert ImbalanceSet.parse("-1..") == ImbalanceSet.between(-1, None)
        assert ImbalanceSet.parse("..") == ImbalanceSet.between(None, None)

    def test_parse_explicit_forms(self):
        assert ImbalanceSet.parse("0,1") == ImbalanceSet.of(0, 1)
        assert ImbalanceSet.parse("-1, 0, 1") == ImbalanceSet.of(-1, 0, 1)
        assert ImbalanceSet.parse("0") == ImbalanceSet.of(0)

    def test_str_round_trip(self):
        for text in ("-2..0", "..0", "-1..", "..", "0", "-2,0,1"):
            v = ImbalanceSet.parse(text)
            assert ImbalanceSet.parse(str(v)) == v

    def test_membership(self):
        v = ImbalanceSet.between(None, 1)
        assert -100 in v and 1 in v and 2 not in v
        w = ImbalanceSet.of(-1, 0, 3)
        assert 3 in w and 1 not in w

    def test_zero_is_required(self):
        with pytest.raises(ValueError):
            ImbalanceSet.of(1, 2)
        with pytest.raises(ValueError):
            ImbalanceSet.between(1, None)
        with pytest.raises(ValueError):
            ImbalanceSet.parse("-3..-1")

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            ImbalanceSet.between(2, -2)

    def test_values_and_bounds_conflict(self):
        with pytest.raises(ValueError):
            ImbalanceSet(values=frozenset({0}), lower=0)

    def test_parse_garbage(self):
        with pytest.raises(ValueError):
            ImbalanceSet.parse("trees")

    def test_bounds(self):
        assert ImbalanceSet.of(-1, 0, 1).bounds() == (-1, 1)
        assert ImbalanceSet.of(0, 2).bounds() is None
        assert ImbalanceSet.between(None, 0).bounds() == (None, 0)

    def test_mirrored(self):
        assert ImbalanceSet.of(0, 1).mirrored() == ImbalanceSet.of(-1, 0)
        assert ImbalanceSet.between(-3, 1).mirrored() == ImbalanceSet.between(-1, 3)
        assert ImbalanceSet.between(None, 2).mirrored() == ImbalanceSet.between(
            -2, None
        )


class TestImbalanceFamilies:
    @pytest.mark.parametrize(
        "text",
        ["-1..1", "0..1", "-2..0", "..", "0..0", "-2..2", "-3,0,3", "0,2", "0,1,3"],
    )
    def test_family_matches_brute_filter(self, text):
        v = ImbalanceSet.parse(text)
        for n in range(9):
            brute = sorted(
                (t for t in all_trees(n) if imbalances_within(t, v)),
                key=serialize,
            )
            assert list(imbalance_family(n, v)) == brute

    def test_unrestricted_set_accepts_everything(self):
        v = ImbalanceSet.between(None, None)
        for n in range(8):
            assert all(imbalances_within(t, v) for t in all_trees(n))

    def test_balanced_family_matches_balanced_trees(self):
        for n in range(12):
            brute = sorted(
                (t for t in all_trees(n) if is_balanced(t)), key=serialize
            )
            assert balanced_trees(n) == tuple(brute)

    @pytest.mark.parametrize("n", [0, 1, 5, 12])
    def test_spellings_of_one_set_share_one_family(self, n):
        assert imbalance_family(n, ImbalanceSet.parse("-1..1")) is balanced_trees(n)
        assert imbalance_family(n, ImbalanceSet.parse("0..1")) is imbalance_family(
            n, ImbalanceSet.of(0, 1)
        )

    def test_zero_only_gives_perfect_trees(self):
        v = ImbalanceSet.of(0)
        for n in range(16):
            members = imbalance_family(n, v)
            if (n + 1) & n == 0:
                assert len(members) == 1
                assert members[0].height == (n + 1).bit_length() - 1
            else:
                assert members == ()

    def test_zero_one_counts_match_fixture(self):
        v = ImbalanceSet.of(0, 1)
        counts = [len(imbalance_family(n, v)) for n in range(len(ZERO_ONE_BALANCED_COUNTS))]
        assert counts == ZERO_ONE_BALANCED_COUNTS

    @pytest.mark.parametrize("text", ["0..1", "-2..0", "-2..3"])
    def test_mirror_bijection(self, text):
        v = ImbalanceSet.parse(text)
        for n in range(11):
            mirrored = {mirror(t) for t in imbalance_family(n, v)}
            assert mirrored == set(imbalance_family(n, v.mirrored()))

    def test_zero_one_trees_pairwise_incomparable(self):
        v = ImbalanceSet.of(0, 1)
        for n in range(11):
            members = imbalance_family(n, v)
            for a in members:
                for b in members:
                    if a != b:
                        assert not tamari_leq(a, b)

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            imbalance_family(27, ImbalanceSet.of(0, 1))
        with pytest.raises(ValueError):
            imbalance_family(-1, ImbalanceSet.of(0))


# The four reusable counterexample chains, keyed by the witness family id.
# Endpoints stay within the family reaching down to -2 and up to the
# chain's top value; the middle tree escapes it.
REFERENCE_CHAINS = {
    "upper-0": (
        "((((..).).)(((..).).))",
        "(((..)(..))(((..).).))",
        "(((..)(..))((..)(..)))",
    ),
    "upper-1": (
        "((((..).)(..))(((..).).))",
        "(((..).)((..)(((..).).)))",
        "(((..).)((..)((..)(..))))",
    ),
    "upper-2": (
        "(((..).)(((..).).))",
        "((..)(.(((..).).)))",
        "((..)(.((..)(..))))",
    ),
    "upper-3-plus": (
        "((..)(((..).).))",
        "(.(.(((..).).)))",
        "(.(.((..)(..))))",
    ),
}

CHAIN_TOPS = {"upper-0": 0, "upper-1": 1, "upper-2": 2, "upper-3-plus": 3}

# Smallest node count at which the exhaustive sweep finds a violation.
FIRST_FAILING = {
    "-2..0": 7,
    "-2..1": 8,
    "-2..2": 6,
    "-2..3": 4,
    "-1..2": 8,
    "0..2": 7,
    "-3..0": 6,
    "..0": 6,
    "-2..": 4,
    "0..": 6,
    "..1": 5,
    "-3..3": 5,
}


def generic_chain(beta):
    """The three-tree witness for families topping out at ``beta >= 3``."""
    pair = node(LEAF, LEAF)

    def hang(tail, count):
        for _ in range(count):
            tail = node(LEAF, tail)
        return tail

    deep = node(node(pair, LEAF), LEAF)
    flat = node(pair, pair)
    t0 = node(pair, hang(deep, beta - 3))
    t1 = node(LEAF, node(LEAF, hang(deep, beta - 3)))
    t2 = node(LEAF, node(LEAF, hang(flat, beta - 3)))
    return t0, t1, t2


class TestClosureCheck:
    @pytest.mark.parametrize("n", range(10))
    def test_balanced_trees_are_interval_closed(self, n):
        assert closure_check(balanced_trees(n)) is None

    @pytest.mark.parametrize("text", ["0..0", "-1..0", "0..1", "-1..1", ".."])
    def test_closed_families_have_no_counterexample(self, text):
        v = ImbalanceSet.parse(text)
        for n in range(9):
            assert closure_check(imbalance_family(n, v)) is None

    @pytest.mark.parametrize("text,first", sorted(FIRST_FAILING.items()))
    def test_first_failing_size(self, text, first):
        v = ImbalanceSet.parse(text)
        for n in range(first):
            assert closure_check(imbalance_family(n, v)) is None
        assert closure_check(imbalance_family(first, v)) is not None

    def test_counterexample_structure(self):
        v = ImbalanceSet.parse("-2..0")
        pred = lambda t: imbalances_within(t, v)
        cex = closure_check(imbalance_family(7, v))
        assert isinstance(cex, ClosureCounterexample)
        assert pred(cex.lower) and pred(cex.upper)
        assert not pred(cex.middle)
        assert cex.middle == cex.chain[cex.failing_index]
        assert 0 < cex.failing_index < len(cex.chain) - 1
        for a, b in zip(cex.chain, cex.chain[1:]):
            assert b in covers(a)

    def test_counterexample_is_deterministic(self):
        v = ImbalanceSet.parse("-2..2")
        first = closure_check(imbalance_family(6, v))
        second = closure_check(imbalance_family(6, v))
        assert first == second

    def test_verdict_matches_exhaustive_search(self):
        for lower in (0, -1, -2, -3, None):
            for upper in (0, 1, 2, 3, None):
                v = ImbalanceSet.between(lower, upper)
                verdict = classify_interval_closure(v)
                failed = any(
                    closure_check(imbalance_family(n, v)) is not None
                    for n in range(9)
                )
                assert verdict.closed == (not failed), (lower, upper)

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError):
            closure_check(balanced_trees(3) + balanced_trees(4))


BOUNDS = (-3, -2, -1, 0, 1, 2, 3, None)

# Every contiguous set with bounds in BOUNDS, and every {0, b}.
ORACLE_SETS = sorted(
    {
        str(ImbalanceSet.between(lower, upper))
        for lower in BOUNDS
        for upper in BOUNDS
        if (lower is None or lower <= 0) and (upper is None or upper >= 0)
    }
    | {str(ImbalanceSet.of(0, beta)) for beta in range(-4, 5)}
)


def assert_matches_definition(poset, members):
    """Compare ``closure_check`` with the definition of closure by interval.

    The family is closed when, for members s and v, every tree of
    ``[s, v]`` is a member; a returned chain must be a valid certificate.
    """
    indices = [poset.index(t) for t in members]
    inside = sum(1 << i for i in indices)
    closed = all(
        poset.up_mask(i) & poset.down_mask(j) & ~inside == 0
        for i in indices
        for j in indices
    )
    found = closure_check(members)
    assert (found is None) == closed
    if found is not None:
        assert found.failing_index == 1
        assert found.lower in members and found.upper in members
        assert found.middle not in members
        for a, b in zip(found.chain, found.chain[1:]):
            assert b in covers(a)


class TestClosureOracle:
    @pytest.mark.parametrize("text", ORACLE_SETS)
    def test_imbalance_families(self, text, small_posets):
        v = ImbalanceSet.parse(text)
        for n in range(9):
            assert_matches_definition(small_posets[n], imbalance_family(n, v))

    def test_narayana_classes(self, small_posets):
        for n in range(9):
            for k in range(max(n, 1)):
                assert_matches_definition(small_posets[n], narayana_class(n, k))


def closure_check_by_covers(members):
    """The cover-building closure check that ``closure_check`` replaced."""
    members = tuple(members)
    inside = set(members)
    leaving = (u for t in members for u in covers(t) if u not in inside)
    for u, v in comparable_pairs(leaving, members):
        s = next(t for t in members if u in covers(t))
        chain = [s, u]
        while chain[-1] != v:
            chain.append(next(c for c in covers(chain[-1]) if tamari_leq(c, v)))
        return ClosureCounterexample(tuple(chain), failing_index=1)
    return None


REFERENCE_SETS = [
    "..", "-2..2", "-1..1", "0..2", "-2..0", "-3..1", "-5..5",
    "0", "0,1", "-1,0", "0,2", "-3,0,3",
]


@pytest.mark.parametrize("text", REFERENCE_SETS)
def test_closure_check_matches_the_cover_reference(text):
    # The chain depends on the member order, so both orders are compared.
    rng = random.Random(text)
    v = ImbalanceSet.parse(text)
    for n in range(10):
        members = list(imbalance_family(n, v))
        shuffled = rng.sample(members, len(members))
        for order in (members, shuffled):
            assert closure_check(order) == closure_check_by_covers(order)


class TestReferenceChains:
    @pytest.mark.parametrize("lemma", sorted(REFERENCE_CHAINS))
    def test_chain_is_two_rotations(self, lemma):
        t0, t1, t2 = (parse(s) for s in REFERENCE_CHAINS[lemma])
        assert t1 in covers(t0)
        assert t2 in covers(t1)

    @pytest.mark.parametrize("lemma", sorted(REFERENCE_CHAINS))
    def test_chain_membership_pattern(self, lemma):
        t0, t1, t2 = (parse(s) for s in REFERENCE_CHAINS[lemma])
        top = CHAIN_TOPS[lemma]
        for lower in (-2, -3, None):
            v = ImbalanceSet.between(lower, top)
            assert imbalances_within(t0, v)
            assert imbalances_within(t2, v)
            assert not imbalances_within(t1, v)

    @pytest.mark.parametrize("beta", [3, 4, 5, 6])
    def test_generic_chain_for_large_tops(self, beta):
        t0, t1, t2 = generic_chain(beta)
        assert t0.node_count == beta + 2
        assert t1 in covers(t0)
        assert t2 in covers(t1)
        for lower in (-2, -4, None):
            v = ImbalanceSet.between(lower, beta)
            assert imbalances_within(t0, v)
            assert imbalances_within(t2, v)
            assert not imbalances_within(t1, v)

    def test_generic_chain_starts_at_the_frozen_one(self):
        frozen = tuple(parse(s) for s in REFERENCE_CHAINS["upper-3-plus"])
        assert generic_chain(3) == frozen


class TestClassification:
    @pytest.mark.parametrize("text", ["0..0", "-1..0", "0..1", "-1..1", ".."])
    def test_closed_cases(self, text):
        verdict = classify_interval_closure(ImbalanceSet.parse(text))
        assert verdict == ClosureVerdict(closed=True)

    def test_contiguous_explicit_sets_accepted(self):
        assert classify_interval_closure(ImbalanceSet.of(-1, 0, 1)).closed

    @pytest.mark.parametrize(
        "text,lemma,mirrored",
        [
            ("-5..2", "upper-2", False),
            ("-2..0", "upper-0", False),
            ("..1", "upper-1", False),
            ("-4..7", "upper-3-plus", False),
            ("-1..3", "upper-1", True),
            ("0..2", "upper-0", True),
            ("-2..", "upper-2", True),
            ("-3..", "upper-3-plus", True),
            ("0..", "upper-0", True),
        ],
    )
    def test_open_cases(self, text, lemma, mirrored):
        verdict = classify_interval_closure(ImbalanceSet.parse(text))
        assert verdict == ClosureVerdict(closed=False, lemma=lemma, mirrored=mirrored)

    def test_non_contiguous_rejected(self):
        with pytest.raises(ValueError):
            classify_interval_closure(ImbalanceSet.of(-2, 0))


class TestWeightBalance:
    def test_weight_imbalance_values(self):
        t = parse("((..)((..)(..)))")
        assert weight_imbalance(t) == 3 - 1
        assert weight_imbalance(t, 1) == 0
        assert weight_imbalance(t, 4) == 1 - 1

    def test_weight_imbalance_errors(self):
        with pytest.raises(ValueError):
            weight_imbalance(LEAF)
        with pytest.raises(ValueError):
            weight_imbalance(parse("(..)"), 2)

    def test_predicate_examples(self):
        assert is_weight_balanced(parse("(.(..))"))
        assert is_weight_balanced(parse("((..)(..))"))
        assert not is_weight_balanced(left_comb(3))

    def test_enumeration_matches_brute_filter(self):
        for n in range(9):
            brute = sorted(
                (t for t in all_trees(n) if is_weight_balanced(t)), key=serialize
            )
            assert list(weight_balanced_trees(n)) == brute

    def test_counts_match_fixture(self):
        enumerated = [len(weight_balanced_trees(n)) for n in range(16)]
        assert enumerated == WEIGHT_BALANCED_COUNTS[:16]
        recurred = [weight_balanced_count(n) for n in range(len(WEIGHT_BALANCED_COUNTS))]
        assert recurred == WEIGHT_BALANCED_COUNTS

    def test_weight_balanced_implies_balanced(self):
        for n in range(16):
            assert all(is_balanced(t) for t in weight_balanced_trees(n))

    def test_subset_is_strict_somewhere(self):
        assert len(weight_balanced_trees(5)) < len(balanced_trees(5))

    def test_height_is_forced_by_node_count(self):
        for n in range(1, 16):
            for t in weight_balanced_trees(n):
                assert t.height == n.bit_length()

    def test_rank_seed_values(self):
        assert weight_rank(LEAF) == 0
        assert weight_rank(parse("((..).)")) == 0
        assert weight_rank(parse("(.(..))")) == 1
        assert weight_rank(parse("((.(..))(.(..)))")) == 2
        assert weight_rank(left_comb(6)) == 0

    @pytest.mark.parametrize("n", range(11))
    def test_rank_grades_weight_balanced_covers(self, n):
        for t in weight_balanced_trees(n):
            for successor in covers(t):
                if is_weight_balanced(successor):
                    assert weight_rank(successor) == weight_rank(t) + 1

    def test_graded_covers_exist(self):
        found = 0
        for n in range(11):
            for t in weight_balanced_trees(n):
                found += sum(1 for c in covers(t) if is_weight_balanced(c))
        assert found > 0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_rotation_raises_weight_imbalance_of_moved_nodes(self, n):
        for t in all_trees(n):
            for y in rotation_ranks(t):
                x = child_ranks(t, y)[0]
                rotated = right_rotation(t, y)
                assert weight_imbalance(rotated, y) > weight_imbalance(t, y)
                assert weight_imbalance(rotated, x) > weight_imbalance(t, x)

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            weight_balanced_trees(16)


class TestCanopyClasses:
    def test_single_node_class(self):
        cls = canopy_class("", 1)
        assert cls.members == (parse("(..)"),)
        assert cls.lower == cls.upper == parse("(..)")

    def test_known_class(self):
        cls = canopy_class("10", 3)
        assert all(canopy(t) == "10" for t in cls.members)
        assert cls.lower in cls.members and cls.upper in cls.members

    def test_errors(self):
        with pytest.raises(ValueError):
            canopy_class("01", 2)
        with pytest.raises(ValueError):
            canopy_class("02", 3)
        with pytest.raises(ValueError):
            canopy_class("", 0)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_class_count_is_a_power_of_two(self, n):
        words = {canopy(t) for t in all_trees(n)}
        assert len(words) == 2 ** (n - 1)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_classes_are_intervals(self, n, small_posets):
        poset = small_posets[n]
        groups: dict[str, list] = {}
        for t in all_trees(n):
            groups.setdefault(canopy(t), []).append(t)
        for word, members in groups.items():
            cls = canopy_class(word, n)
            assert set(cls.members) == set(members)
            i, j = poset.index(cls.lower), poset.index(cls.upper)
            span = mask_indices(poset.up_mask(i) & poset.down_mask(j))
            inside = {poset.elements[k] for k in span}
            assert inside == set(members)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_extremes_have_the_forced_shape(self, n):
        for word in {canopy(t) for t in all_trees(n)}:
            cls = canopy_class(word, n)
            for _, sub in iter_subtrees(cls.upper):
                if sub.left.node_count:
                    assert sub.left.right.node_count == 0
            for _, sub in iter_subtrees(cls.lower):
                if sub.right.node_count:
                    assert sub.right.left.node_count == 0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_maximal_shapes_count_like_classes(self, n):
        maximal = [
            t
            for t in all_trees(n)
            if all(
                sub.left.node_count == 0 or sub.left.right.node_count == 0
                for _, sub in iter_subtrees(t)
            )
        ]
        assert len(maximal) == 2 ** (n - 1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_canopy_grows_lexicographically_under_rotation(self, n):
        for t in all_trees(n):
            word = canopy(t)
            for successor in covers(t):
                assert canopy(successor) >= word


class TestNarayana:
    @pytest.mark.parametrize("n", sorted(NARAYANA_ROWS))
    def test_rows_match_fixture(self, n):
        assert list(narayana_row(n)) == NARAYANA_ROWS[n]

    def test_rows_are_symmetric_and_sum_to_all_trees(self):
        for n in range(1, 10):
            row = narayana_row(n)
            assert row == row[::-1]
            assert sum(row) == len(all_trees(n))

    def test_rows_match_the_enumerated_tally(self):
        for n in range(1, 11):
            tally = [0] * n
            for t in all_trees(n):
                tally[nar(t)] += 1
            assert list(narayana_row(n)) == tally

    def test_rows_match_the_closed_form(self):
        for n in range(1, 41):
            expected = [comb(n, k) * comb(n, k + 1) // n for k in range(n)]
            assert list(narayana_row(n)) == expected

    def test_rows_pass_the_all_trees_cap(self):
        assert limits.ALL_TREES.bound < 14
        assert narayana_row(14) == tuple(
            comb(14, k) * comb(14, k + 1) // 14 for k in range(14)
        )

    def test_extreme_classes_are_combs(self):
        for n in range(1, 9):
            assert narayana_class(n, 0) == (left_comb(n),)
            assert narayana_class(n, n - 1) == (right_comb(n),)
        assert narayana_class(0, 0) == (LEAF,)

    def test_errors(self):
        with pytest.raises(ValueError):
            narayana_class(3, 3)
        with pytest.raises(ValueError):
            narayana_class(0, 1)
        with pytest.raises(ValueError):
            narayana_row(0)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_classes_decompose_by_canopy_ones(self, n):
        for t in all_trees(n):
            assert nar(t) == canopy(t).count("1")

    @pytest.mark.parametrize("n", range(1, 10))
    def test_class_is_union_of_canopy_classes(self, n):
        by_word: dict[str, set] = {}
        for t in all_trees(n):
            by_word.setdefault(canopy(t), set()).add(t)
        for k in range(n):
            expected: set = set()
            for word, members in by_word.items():
                if word.count("1") == k:
                    expected |= members
            assert expected == set(narayana_class(n, k))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_right_child_count_grows_under_rotation(self, n):
        for t in all_trees(n):
            for successor in covers(t):
                assert nar(successor) >= nar(t)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_classes_are_interval_closed(self, n):
        for k in range(n):
            assert closure_check(narayana_class(n, k)) is None
