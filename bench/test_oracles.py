"""Tests of the benchmark's oracles.

Each oracle is checked against a source that shares no code with it: a
published sequence, a closed form, brute force, or (for the order test)
the library's materialized poset, which the oracle itself never calls.
"""

import pytest

import oracles as o


def all_vectors(n):
    return list(o.vectors_between((0,) * n, o.top_vector(n)))


@pytest.mark.parametrize("n", range(9))
def test_bracket_vectors_are_the_trees(n):
    vectors = all_vectors(n)
    assert len(vectors) == o.catalan(n)
    trees = [o.from_bracket_vector(v) for v in vectors]
    assert len({o.render(t) for t in trees}) == len(trees)
    assert all(o.size(t) == n and o.bracket_vector(t) == v for t, v in zip(trees, vectors))


@pytest.mark.parametrize("n", range(1, 9))
def test_bracket_order_matches_the_poset(n):
    from tamari_balance import serialize, tamari_poset

    poset = tamari_poset(n)
    vectors = [o.bracket_vector(o.parse(serialize(t))) for t in poset.elements]
    for i, v in enumerate(vectors):
        up = poset.up_mask(i)
        for j, w in enumerate(vectors):
            assert o.below(v, w) == bool(up >> j & 1)


@pytest.mark.parametrize("n", range(9))
def test_bracket_order_counts_chapoton_intervals(n):
    intervals = sum(
        sum(1 for _ in o.vectors_between((0,) * n, v)) for v in all_vectors(n)
    )
    assert intervals == o.chapoton(n)
    assert [o.chapoton(k) for k in range(6)] == [1, 1, 3, 13, 68, 399]


def test_interval_enumeration_matches_filtering():
    n = 6
    vectors = all_vectors(n)
    for lo in vectors[::7]:
        for hi in vectors[::5]:
            want = [v for v in vectors if o.below(lo, v) and o.below(v, hi)]
            assert sorted(o.vectors_between(lo, hi)) == sorted(want)
            light = [v for v in want if sum(v) <= sum(hi) - 2]
            assert sorted(o.vectors_between(lo, hi, sum(hi) - 2)) == sorted(light)


def test_rotations_raise_bracket_vectors():
    for v in all_vectors(6):
        t = o.from_bracket_vector(v)
        for rank in o.rotation_ranks(t):
            w = o.bracket_vector(o.right_rotation(t, rank))
            assert o.below(v, w) and sum(w) > sum(v)


def test_family_recurrence_gives_the_reference_sequences():
    assert o.family_counts(len(o.BALANCED_COUNTS) - 1, {-1, 0, 1}) == list(o.BALANCED_COUNTS)
    assert o.family_counts(len(o.ZERO_ONE_BALANCED_COUNTS) - 1, {0, 1}) == list(
        o.ZERO_ONE_BALANCED_COUNTS
    )


@pytest.mark.parametrize("n", range(9))
def test_family_recurrence_matches_brute_force(n):
    trees = [o.from_bracket_vector(v) for v in all_vectors(n)]
    for allowed in ({-1, 0, 1}, {0, 1}, {-1, 0}, {0}):
        brute = sum(1 for t in trees if set(o.imbalances(o.render(t))[2]) <= allowed)
        assert o.family_counts(n, allowed)[n] == brute
    balanced = {o.render(t) for t in trees if o.is_balanced(t)}
    assert {o.render(t) for t in o.balanced_trees(n)} == balanced


def test_two_three_recurrence_gives_oeis_a014535():
    assert o.two_three_counts(len(o.TWO_THREE_COUNTS) - 1) == list(o.TWO_THREE_COUNTS)


@pytest.mark.parametrize("n", range(1, 9))
def test_narayana_closed_form_counts_right_children(n):
    row = [0] * n
    for v in all_vectors(n):
        row[sum(1 for r in v if r)] += 1
    assert row == [o.narayana(n, k) for k in range(n)]
    assert sum(row) == o.catalan(n)


def test_interior_closed_form_matches_brute_force():
    by_height = {}
    for n in range(16):
        for t in o.balanced_trees(n):
            if len(o.balanced_covers(t)) == len(o.rotation_ranks(t)):
                by_height[o.height(t)] = by_height.get(o.height(t), 0) + 1
    assert [by_height[h] for h in range(5)] == [o.interior_count(h) for h in range(5)]
    assert [o.interior_count(h) for h in range(3, 10)] == [1, 2, 2, 4, 8, 32, 256]


def test_grammar_series_slices_match_the_reference_sequences():
    def x_only(series, k):
        return series.get((("x", k),), 0)

    bal = o.grammar_series("bal", 16)
    assert [x_only(bal, n + 1) for n in range(16)] == list(o.BALANCED_COUNTS[:16])
    bal01 = o.grammar_series("bal01", 16)
    assert [x_only(bal01, n + 1) for n in range(16)] == list(o.ZERO_ONE_BALANCED_COUNTS[:16])
    mx = o.grammar_series("max", 12)
    assert [x_only(mx, n + 1) for n in range(12)] == list(o.MAXIMAL_BALANCED_COUNTS[:12])
    bi = o.grammar_series("bi", 12)
    assert [x_only(bi, n + 1) for n in range(12)] == list(o.BALANCED_INTERVAL_COUNTS[:12])
    mbi = o.grammar_series("mbi", 12)
    assert [x_only(mbi, n + 1) for n in range(12)] == list(o.MAXIMAL_INTERVAL_COUNTS[:12])
    bal23 = o.grammar_series("bal23", 20)
    assert [x_only(bal23, k) for k in range(21)] == list(o.TWO_THREE_COUNTS)
    perf = o.grammar_series("perf", 20)
    assert perf == {(("x", 2**h),): 1 for h in range(5)}


def test_marked_grammar_refines_by_dimension():
    refined = o.grammar_series("mbi_xi", 10)
    for leaves, dims in o.MAXIMAL_INTERVAL_DIMENSIONS.items():
        if leaves <= 10:
            got = {
                dict(m).get("xi", 0): c
                for m, c in refined.items()
                if {v for v, _ in m} <= {"x", "xi"} and dict(m).get("x") == leaves
            }
            assert got == dims


def test_random_trees_have_the_requested_shape():
    import random

    rng = random.Random(0)
    for n in range(0, 17):
        t = o.random_balanced_tree(rng, n)
        assert o.size(t) == n and o.is_balanced(t)
        assert o.size(o.random_tree(rng, n)) == n
