"""Acceptance suite: one test per release criterion.

Each test is self-contained and reads as a single pass or fail line
under ``pytest -v``.  Criteria with pinned runtimes assert them with
``time.perf_counter`` around the whole computation, poset construction
included.
"""

import itertools
import time
from collections import Counter

from test_grammars import _series_from_generation

from tamari_balance.balance import (
    is_admissible,
    is_balanced,
    rewrite_closure,
    rewrite_stages,
    rewrite_step,
)
from tamari_balance.balance import balanced_trees
from tamari_balance.families import (
    ImbalanceSet,
    canopy_class,
    classify_interval_closure,
    closure_check,
    imbalance_family,
    is_weight_balanced,
    narayana_class,
    narayana_row,
    weight_balanced_count,
    weight_balanced_trees,
    weight_rank,
)
from tamari_balance.fixtures import (
    BALANCED_COUNTS,
    BALANCED_INTERVAL_COUNTS,
    INTERIOR_BY_HEIGHT,
    MAXIMAL_BALANCED_COUNTS,
    MAXIMAL_INTERVAL_COUNTS,
    NARAYANA_ROWS,
    WEIGHT_BALANCED_COUNTS,
    ZERO_ONE_BALANCED_COUNTS,
    fib,
)
from tamari_balance.grammars import (
    builtin_grammar,
    builtin_names,
    iterate_sum,
    iterates,
    series,
)
from tamari_balance.intervals import (
    count_balanced_intervals,
    count_maximal_balanced_intervals,
    hypercube_histogram,
    verify_hypercube,
)
from tamari_balance.patterns import BalanceFlag, classify_balanced, interior_count
from tamari_balance.polynomials import Monomial, Polynomial
from tamari_balance.tamari import (
    TamariPoset,
    covers,
    left_rotation,
    mask_indices,
    phi,
    right_rotation,
    rotation_ranks,
    tamari_poset,
)
from tamari_balance.trees import (
    all_trees,
    canopy,
    child_ranks,
    mirror,
    parse,
    serialize,
    subtree_at,
)

_POSETS: dict[int, TamariPoset] = {}


def poset_for(n: int) -> TamariPoset:
    """Shared posets; the first criterion to need one pays for the build."""
    if n not in _POSETS:
        _POSETS[n] = tamari_poset(n)
    return _POSETS[n]


def poly(entries: dict[tuple[tuple[str, int], ...], int]) -> Polynomial:
    return Polynomial({Monomial(dict(mono)): c for mono, c in entries.items()})


def test_ac01_balanced_counts_by_enumeration_and_series():
    start = time.perf_counter()
    enumerated = [len(balanced_trees(n)) for n in range(13)]
    assert enumerated == BALANCED_COUNTS[:13]
    leaf_series = series(builtin_grammar("bal"), 20).specialize({"y": 0})
    by_series = [leaf_series.coefficient({"x": n + 1}) for n in range(20)]
    assert by_series == BALANCED_COUNTS
    assert time.perf_counter() - start < 30.0


def test_ac02_balanced_family_is_closed_under_the_order():
    start = time.perf_counter()
    for n in range(12):
        assert closure_check(balanced_trees(n)) is None
    assert time.perf_counter() - start < 60.0


def test_ac03_balanced_intervals_are_hypercubes():
    start = time.perf_counter()
    for n in range(12):
        poset = poset_for(n)
        trees = balanced_trees(n)
        indices = [poset.index(t) for t in trees]
        histogram: Counter[int] = Counter()
        weighted = 0
        cells = 0
        for j, upper in zip(indices, trees):
            down = poset.down_mask(j)
            for i, lower in zip(indices, trees):
                if not down >> i & 1:
                    continue
                k, ok = verify_hypercube(lower, upper)
                assert ok, f"[{serialize(lower)}, {serialize(upper)}]"
                size = (poset.up_mask(i) & poset.down_mask(j)).bit_count()
                assert size == 1 << k
                histogram[k] += 1
                weighted += 1 << k
                cells += size
        assert weighted == cells
        assert dict(histogram) == hypercube_histogram(n)
    assert time.perf_counter() - start < 60.0


def test_ac04_interval_counts_brute_force_and_series():
    for n in range(12):
        assert count_balanced_intervals(n) == BALANCED_INTERVAL_COUNTS[n]
        assert count_maximal_balanced_intervals(n) == MAXIMAL_INTERVAL_COUNTS[n]
    refined = count_maximal_balanced_intervals(11, by_dimension=True)
    assert refined == poly(
        {
            (("xi", 1),): 1,
            (("xi", 2),): 13,
            (("xi", 3),): 2,
            (("xi", 4),): 1,
        }
    )


def test_ac05_maximal_balanced_counts():
    leaf_series = series(builtin_grammar("max"), 14).specialize({"y": 0, "z": 0})
    by_series = [leaf_series.coefficient({"x": n + 1}) for n in range(14)]
    assert by_series == MAXIMAL_BALANCED_COUNTS[:14]
    for n in range(13):
        brute = sum(
            1
            for t in balanced_trees(n)
            if BalanceFlag.MAXIMAL_RIGHT in classify_balanced(t)
        )
        assert brute == MAXIMAL_BALANCED_COUNTS[n]


def test_ac06_interior_tree_counts():
    assert [interior_count(h) for h in range(13)] == INTERIOR_BY_HEIGHT
    for h in range(3, 13):
        assert interior_count(h) == 2 ** fib(h - 3)


def test_ac07_grammar_engine_goldens():
    assert iterate_sum(builtin_grammar("epl"), 2) == poly(
        {
            (("x", 1),): 1,
            (("x", 1), ("y", 1)): 1,
            (("x", 2), ("y", 1)): 2,
            (("x", 3), ("y", 1)): 1,
            (("x", 3), ("y", 2)): 1,
            (("x", 4), ("y", 2)): 2,
            (("x", 5), ("y", 2)): 1,
        }
    )
    assert series(builtin_grammar("perf"), 8) == poly(
        {(("x", 1),): 1, (("x", 2),): 1, (("x", 4),): 1, (("x", 8),): 1}
    )
    assert iterates(builtin_grammar("bal23"), 2)[2] == poly(
        {
            (("x", 4),): 1,
            (("x", 5),): 2,
            (("x", 6),): 2,
            (("x", 7),): 3,
            (("x", 8),): 3,
            (("x", 9),): 1,
        }
    )
    levels = iterates(builtin_grammar("bal"), 2)
    assert levels[1] == poly({(("x", 1), ("y", 1)): 2, (("x", 2),): 1})
    assert levels[2] == poly(
        {
            (("x", 2), ("y", 1)): 4,
            (("x", 3),): 2,
            (("x", 2), ("y", 2)): 4,
            (("x", 3), ("y", 1)): 4,
            (("x", 4),): 1,
        }
    )
    for name in builtin_names():
        grammar = builtin_grammar(name)
        assert series(grammar, 8) == _series_from_generation(grammar, 8), name


def test_ac08_admissible_word_lemmas():
    for length in range(7):
        for word in itertools.product(range(6), repeat=length):
            if not is_admissible(word):
                continue
            assert all(word[i] - 1 <= word[i + 1] for i in range(length - 1))
            for i in range(length + 1):
                assert is_admissible(word[:i])
                assert is_admissible(word[i:])
            for i in range(length - 1):
                assert is_admissible(word[:i] + rewrite_step(word[i:]))
    assert is_admissible((0, 0, 1, 2, 2))
    assert rewrite_closure((0, 0, 1, 2, 2)) == 4
    assert not is_admissible((3, 4, 4, 4))
    assert rewrite_closure((3, 4, 4, 4)) == 6
    assert rewrite_stages((0, 1, 2, 3, 3, 7, 7, 8)) == [
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


FIRST_BREAK = {"-2..0": 7, "-2..1": 8, "-2..2": 6, "-2..3": 4, "-1..2": 8}


def test_ac09_tree_families():
    assert [weight_balanced_count(n) for n in range(22)] == WEIGHT_BALANCED_COUNTS
    assert (
        [len(weight_balanced_trees(n)) for n in range(16)]
        == WEIGHT_BALANCED_COUNTS[:16]
    )
    for n in range(16):
        for t in weight_balanced_trees(n):
            assert is_balanced(t)
            assert t.height == n.bit_length()
    graded_cover_seen = False
    for n in range(11):
        for t in weight_balanced_trees(n):
            for successor in covers(t):
                if is_weight_balanced(successor):
                    graded_cover_seen = True
                    assert weight_rank(successor) == weight_rank(t) + 1
    assert graded_cover_seen

    zero_one = ImbalanceSet.of(0, 1)
    assert (
        [len(imbalance_family(n, zero_one)) for n in range(18)]
        == ZERO_ONE_BALANCED_COUNTS[:18]
    )
    for n in range(11):
        poset = poset_for(n)
        indices = [poset.index(t) for t in imbalance_family(n, zero_one)]
        for i in indices:
            up = poset.up_mask(i)
            for j in indices:
                if j != i:
                    assert not up >> j & 1

    # Each canopy class is built once and read by both loops below.
    classes = {
        n: [
            canopy_class(word, n)
            for word in sorted({canopy(t) for t in all_trees(n)})
        ]
        for n in range(1, 10)
    }
    for n, row in classes.items():
        poset = poset_for(n)
        assert len(row) == 2 ** (n - 1)
        covered = 0
        for cls in row:
            members = set(cls.members)
            covered += len(members)
            span = mask_indices(
                poset.up_mask(poset.index(cls.lower))
                & poset.down_mask(poset.index(cls.upper))
            )
            assert members == {poset.elements[i] for i in span}
        assert covered == len(poset)

    for n in range(1, 9):
        assert list(narayana_row(n)) == NARAYANA_ROWS[n]
    for n, row in classes.items():
        for k in range(n):
            union: set = set()
            for cls in row:
                if cls.word.count("1") == k:
                    union.update(cls.members)
            assert set(narayana_class(n, k)) == union

    for text in (
        "0", "-1,0", "0,1", "-1,0,1",
        "-2..0", "-2..1", "-2..2", "-2..3", "-1..2",
    ):
        allowed = ImbalanceSet.parse(text)
        verdict = classify_interval_closure(allowed)
        first_break = None
        for n in range(9):
            found = closure_check(imbalance_family(n, allowed))
            if found is not None:
                first_break = n
                break
        assert (first_break is None) == verdict.closed, text
        if not verdict.closed:
            assert first_break == FIRST_BREAK[text], text


def test_ac10_property_micro_suite():
    start = time.perf_counter()
    for n in range(8):
        for t in all_trees(n):
            assert parse(serialize(t)) is t
            assert mirror(mirror(t)) is t
            for rank in rotation_ranks(t):
                rotated = right_rotation(t, rank)
                x_rank = child_ranks(t, rank)[0]
                assert left_rotation(rotated, rank) is t
                assert phi(rotated) > phi(t)
                assert mirror(rotated) == left_rotation(mirror(t), n + 1 - x_rank)
                moved = subtree_at(t, rank)
                assert subtree_at(rotated, x_rank).left == moved.left.left
                assert subtree_at(rotated, x_rank).right == subtree_at(rotated, rank)
                assert subtree_at(rotated, rank).left == moved.left.right
                assert subtree_at(rotated, rank).right == moved.right
    assert time.perf_counter() - start < 10.0
