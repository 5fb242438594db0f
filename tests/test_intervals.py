"""Tests for the hypercube structure of balanced intervals."""

import subprocess
import sys

import pytest

from conftest import cover_walk_interval
from tamari_balance import intervals
from tamari_balance.balance import (
    RotationKind,
    balanced_trees,
    classify_rotation,
    is_balanced,
)
from tamari_balance.fixtures import (
    BALANCED_INTERVAL_COUNTS,
    MAXIMAL_INTERVAL_COUNTS,
    MAXIMAL_INTERVAL_DIMENSIONS,
    SUBPOSET_STRUCTURE,
)
from tamari_balance.intervals import (
    CrossCheckError,
    RotationRootSet,
    balanced_subposet,
    count_balanced_intervals,
    count_maximal_balanced_intervals,
    hypercube_histogram,
    rotation_root_set,
    verify_hypercube,
)
from tamari_balance.polynomials import Monomial, Polynomial
from tamari_balance.tamari import (
    IncomparableError,
    bracket_vector,
    comparable_pairs,
    covers,
    interval,
    right_rotation,
    rotation_ranks,
    tamari_leq,
    tamari_poset,
)
from tamari_balance.trees import parse, serialize


def balanced_comparable_pairs(n, poset):
    for upper in balanced_trees(n):
        j = poset.index(upper)
        mask = poset.down_mask(j)
        for lower in balanced_trees(n):
            if mask >> poset.index(lower) & 1:
                yield lower, upper


def greedy_root_set(t0, t1):
    """The root set by greedy search: apply any conservative balancing
    rotation whose image stays below ``t1`` until ``t1`` is reached,
    rereading every move of each new tree."""
    ranks = []
    cur = t0
    while cur != t1:
        for rank in rotation_ranks(cur):
            nxt = right_rotation(cur, rank)
            if (
                tamari_leq(nxt, t1)
                and classify_rotation(cur, rank).kind
                is RotationKind.CONSERVATIVE_BALANCING
            ):
                ranks.append(rank)
                cur = nxt
                break
        else:
            raise AssertionError("the greedy search is stuck")
    assert len(set(ranks)) == len(ranks)
    return frozenset(ranks)


class TestRotationRootSet:
    def test_identity_interval(self):
        t = parse("((..)(..))")
        assert rotation_root_set(t, t).ranks == frozenset()

    def test_balanced_cover_has_one_root(self):
        t0 = parse("(((..).)(..))")
        candidates = [
            (rank, right_rotation(t0, rank))
            for rank in rotation_ranks(t0)
            if is_balanced(right_rotation(t0, rank))
        ]
        assert candidates
        for rank, t1 in candidates:
            assert rotation_root_set(t0, t1).ranks == {rank}

    def test_requires_balanced_endpoints(self):
        with pytest.raises(ValueError):
            rotation_root_set(parse("(.(.(..)))"), parse("(.(.(..)))"))
        with pytest.raises(ValueError):
            verify_hypercube(parse("(.(.(..)))"), parse("(.(.(..)))"))

    @pytest.mark.parametrize("n", range(13))
    def test_matches_greedy_search(self, n):
        trees = balanced_trees(n)
        for lower, upper in comparable_pairs(trees, trees):
            assert rotation_root_set(lower, upper).ranks == greedy_root_set(
                lower, upper
            )

    def test_non_conservative_root_raises_under_optimize(self):
        script = "\n".join(
            [
                "from tamari_balance import intervals",
                "from tamari_balance.balance import RotationKind",
                "from tamari_balance.tamari import right_rotation",
                "from tamari_balance.trees import parse",
                "from tamari_balance._record import replace",
                "real = intervals.classify_rotation",
                "def simply_unbalancing(t, rank):",
                "    return replace(",
                "        real(t, rank), kind=RotationKind.SIMPLY_UNBALANCING",
                "    )",
                "intervals.classify_rotation = simply_unbalancing",
                "t0 = parse('(((..).)(..))')",
                "t1 = right_rotation(t0, 3)",
                "for check in (",
                "    lambda: intervals.rotation_root_set(t0, t1),",
                "    lambda: intervals.verify_hypercube(t0, t1),",
                "    lambda: intervals.hypercube_histogram(5),",
                "):",
                "    try:",
                "        check()",
                "    except AssertionError as exc:",
                "        print(exc)",
                "    else:",
                "        raise SystemExit('no error raised')",
            ]
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert lines[:2] == ["the root at rank 3 is not conservative"] * 2
        assert len(lines) == 3 and lines[2].endswith("is not conservative")

    def test_requires_comparability(self):
        t0 = parse("((..)(.(..)))")
        t1 = parse("((.(..))(..))")
        with pytest.raises(IncomparableError):
            rotation_root_set(t0, t1)

    @pytest.mark.parametrize("n", range(9))
    def test_replay_reaches_upper_endpoint(self, n):
        poset = tamari_poset(n)
        for lower, upper in balanced_comparable_pairs(n, poset):
            roots = rotation_root_set(lower, upper)
            assert roots.apply(roots.ranks) == upper
            assert roots.apply(()) == lower

    def test_apply_rejects_foreign_ranks(self):
        t = parse("((..)(..))")
        roots = rotation_root_set(t, t)
        with pytest.raises(ValueError):
            roots.apply([1])


def verify_by_subsets(t0, t1):
    """A second hypercube verification: each subset's image by
    :meth:`RotationRootSet.apply`, the interval by the cover walk, and the
    order among the images by :func:`comparable_pairs`."""
    roots = rotation_root_set(t0, t1)
    ranks = sorted(roots.ranks)
    k = len(ranks)
    trees = [
        roots.apply([ranks[i] for i in range(k) if bits >> i & 1])
        for bits in range(1 << k)
    ]
    if len(set(trees)) != 1 << k or set(trees) != cover_walk_interval(t0, t1):
        return k, False
    contained = {
        (trees[lo], trees[hi])
        for hi in range(1 << k)
        for lo in range(1 << k)
        if lo & hi == lo
    }
    return k, set(comparable_pairs(trees, trees)) == contained


class TestVerifyHypercube:
    @pytest.mark.parametrize("n", range(10))
    def test_matches_subset_by_subset_verification(self, n):
        trees = balanced_trees(n)
        for lower, upper in comparable_pairs(trees, trees):
            assert verify_hypercube(lower, upper) == verify_by_subsets(lower, upper)

    def test_a_dropped_root_is_not_a_cube(self, monkeypatch):
        real = intervals._root_set
        dropped = []

        def one_short(t0, t1, lower, upper):
            roots = real(t0, t1, lower, upper)
            return RotationRootSet(t0, roots.ranks - {dropped[-1]})

        monkeypatch.setattr(intervals, "_root_set", one_short)
        trees = balanced_trees(8)
        checked = 0
        for lower, upper in comparable_pairs(trees, trees):
            vectors = bracket_vector(lower), bracket_vector(upper)
            ranks = real(lower, upper, *vectors).ranks
            for rank in ranks:
                dropped.append(rank)
                assert verify_hypercube(lower, upper) == (len(ranks) - 1, False)
                checked += 1
        assert checked > 100

    def test_singleton(self):
        t = parse("((..)(..))")
        assert verify_hypercube(t, t) == (0, True)

    @pytest.mark.parametrize("n", range(10))
    def test_exhaustive_small(self, n):
        poset = tamari_poset(n)
        for lower, upper in balanced_comparable_pairs(n, poset):
            k, ok = verify_hypercube(lower, upper)
            assert ok, (serialize(lower), serialize(upper))
            assert len(interval(lower, upper)) == 2**k

    def test_three_cube_exists_at_seven_nodes(self):
        poset = tamari_poset(7)
        dimensions = {}
        for lower, upper in balanced_comparable_pairs(7, poset):
            k, ok = verify_hypercube(lower, upper)
            assert ok
            dimensions[k] = dimensions.get(k, 0) + 1
        assert 3 in dimensions

    def test_sweep_leaves_the_balance_check_to_the_public_doors(
        self, monkeypatch
    ):
        calls = []

        def counting(t):
            calls.append(t)
            return is_balanced(t)

        monkeypatch.setattr(intervals, "is_balanced", counting)
        histogram = hypercube_histogram(10)
        assert sum(histogram.values()) == BALANCED_INTERVAL_COUNTS[10]
        assert calls == []

    def test_histogram_consistency(self):
        poset = tamari_poset(8)
        histogram = hypercube_histogram(8)
        assert sum(histogram.values()) == count_balanced_intervals(8)
        total_elements = sum(count * 2**k for k, count in histogram.items())
        check = 0
        for lower, upper in balanced_comparable_pairs(8, poset):
            check += len(interval(lower, upper))
        assert total_elements == check


class TestIntervalCounts:
    @pytest.mark.parametrize("n", range(10))
    def test_balanced_interval_counts(self, n):
        assert count_balanced_intervals(n) == BALANCED_INTERVAL_COUNTS[n]

    @pytest.mark.parametrize("n", range(10))
    def test_maximal_interval_counts(self, n):
        assert count_maximal_balanced_intervals(n) == MAXIMAL_INTERVAL_COUNTS[n]

    @pytest.mark.parametrize("n", range(10))
    def test_maximal_interval_dimensions(self, n):
        refined = count_maximal_balanced_intervals(n, by_dimension=True)
        expected = Polynomial(
            {
                Monomial({"xi": k} if k else {}): count
                for k, count in MAXIMAL_INTERVAL_DIMENSIONS[n + 1].items()
            },
            markers=("xi",),
        )
        assert refined == expected
        assert refined.specialize({"xi": 1}) == Polynomial.constant(
            MAXIMAL_INTERVAL_COUNTS[n]
        )

    def test_four_node_dimension_polynomial(self):
        refined = count_maximal_balanced_intervals(4, by_dimension=True)
        assert refined == Polynomial({Monomial({"xi": 1}): 3}, markers=("xi",))

    def test_route_disagreement_raises_under_optimize(self):
        script = "\n".join(
            [
                "from tamari_balance import balance, intervals",
                "from tamari_balance.polynomials import Polynomial",
                "from tamari_balance.trees import parse",
                "real = intervals.counting_series",
                "def wrong_at_four(g, max_degree):",
                "    poly = real(g, max_degree)",
                "    x5 = poly.coefficient({'x': 5}) * Polynomial.variable('x') ** 5",
                "    return poly - x5",
                "intervals.counting_series = wrong_at_four",
                "real_verify = intervals._verify_cube",
                "def one_too_many(lower, upper, *vectors):",
                "    k, _ = real_verify(lower, upper, *vectors)",
                "    return k + 1, False",
                "intervals._verify_cube = one_too_many",
                "balance._ROTATION_TABLE[(0, 0)] = (",
                "    balance.RotationKind.SIMPLY_UNBALANCING, (9, 9)",
                ")",
                "for check in (",
                "    lambda: intervals.count_balanced_intervals(4),",
                "    lambda: intervals.hypercube_histogram(4),",
                "    lambda: intervals.count_maximal_balanced_intervals(4, True),",
                "    lambda: balance.classify_rotation(parse('((..)(..))'), 2),",
                "):",
                "    try:",
                "        check()",
                "    except AssertionError as exc:",
                "        print(exc)",
                "    else:",
                "        raise SystemExit('no error raised')",
            ]
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert "routes disagree at n=4" in result.stdout
        assert (
            "[(((..).)(..)), (((..).)(..))] is not a hypercube: 2 vs 1"
            in result.stdout
        )
        assert result.stdout.count("is not a hypercube") == 2
        assert "table disagrees at (0, 0): (9, 9) vs (2, 1)" in result.stdout


    def test_dimension_routes_disagree_under_optimize(self):
        script = "\n".join(
            [
                "from tamari_balance import intervals",
                "real = intervals._vector_moves",
                "intervals._vector_moves = lambda t: list(real(t))[1:]",
                "try:",
                "    intervals.hypercube_histogram(4)",
                "except intervals.CrossCheckError as exc:",
                "    print(exc.routes, exc.values)",
                "    print(exc)",
                "else:",
                "    raise SystemExit('no error raised')",
            ]
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "('root set', 'bracket vectors') (0, 1)",
            "cube dimension routes disagree on "
            "[(((..).)(..)), ((.(..))(..))]: 0 vs 1",
        ]


class TestUnbalancingPersistence:
    @pytest.mark.parametrize("n", range(4, 10))
    def test_unbalancing_roots_stay_unbalancing(self, n):
        for t in balanced_trees(n):
            moves = {
                rank: classify_rotation(t, rank).kind
                for rank in rotation_ranks(t)
            }
            for rank, kind in moves.items():
                if kind is RotationKind.CONSERVATIVE_BALANCING:
                    successor = right_rotation(t, rank)
                    for other, other_kind in moves.items():
                        if (
                            other == rank
                            or other_kind
                            is RotationKind.CONSERVATIVE_BALANCING
                        ):
                            continue
                        assert other in rotation_ranks(successor)
                        assert (
                            classify_rotation(successor, other).kind
                            is not RotationKind.CONSERVATIVE_BALANCING
                        )


# Component sizes and edge counts of the balanced subposets up to n=15,
# as the component search that scanned every edge once per component
# gave them.
STRUCTURE_TO_15 = {
    0: ((1,), (0,)),
    1: ((1,), (0,)),
    2: ((2,), (1,)),
    3: ((1,), (0,)),
    4: ((4,), (3,)),
    5: ((4, 2), (4, 1)),
    6: ((2, 2), (1, 1)),
    7: ((16, 1), (24, 0)),
    8: ((16, 8, 8), (32, 9, 9)),
    9: ((16, 8, 8, 8, 4), (24, 12, 12, 12, 3)),
    10: ((16, 16, 8, 8, 4, 4, 4), (28, 28, 10, 10, 4, 4, 4)),
    11: ((16, 8, 8, 8, 8, 8, 8, 4, 2), (32, 12, 12, 10, 10, 10, 10, 4, 1)),
    12: (
        (128, 8, 8, 8, 8, 4, 4, 4, 4, 4, 4),
        (320, 12, 12, 12, 12, 4, 4, 4, 4, 3, 3),
    ),
    13: (
        (128, 128, 64, 64, 64, 4, 4, 4, 4, 4, 4, 2, 2),
        (368, 368, 140, 140, 136, 4, 4, 4, 4, 4, 4, 1, 1),
    ),
    14: (
        (128, 128, 64, 64, 64, 64, 64, 64, 64, 64, 32, 32, 32, 2, 2, 2, 2),
        (416, 352, 164, 164, 156, 156, 152, 152, 152, 152, 60, 58, 58, 1, 1, 1, 1),
    ),
    15: (
        (256, 128, 128, 128, 64, 64, 64, 64, 64, 64, 64, 64)
        + (32,) * 12 + (16, 1),
        (768, 384, 384, 384, 176, 176, 176, 176, 176, 160, 160, 160)
        + (68, 68, 66, 66, 66, 66, 62, 62, 62, 62, 60, 60, 24, 0),
    ),
}


class TestBalancedSubposet:
    @pytest.mark.parametrize("n", sorted(STRUCTURE_TO_15))
    def test_component_structure(self, n):
        structure = balanced_subposet(n).structure()
        assert structure == STRUCTURE_TO_15[n]
        assert structure == SUBPOSET_STRUCTURE.get(n, structure)

    def test_edges_are_balanced_covers(self):
        sub = balanced_subposet(8)
        for src, dst in sub.edges:
            assert is_balanced(src) and is_balanced(dst)
            assert dst in covers(src)

    def test_every_balanced_cover_is_an_edge(self):
        for n in range(9):
            sub = balanced_subposet(n)
            edge_set = set(sub.edges)
            for t in balanced_trees(n):
                for successor in covers(t):
                    if is_balanced(successor):
                        assert (t, successor) in edge_set

    @pytest.mark.parametrize("n", range(13))
    def test_components_share_height(self, n):
        for members, _ in balanced_subposet(n).components():
            heights = {t.height for t in members}
            assert len(heights) == 1

    def test_component_intervals_are_connected_orderwise(self):
        sub = balanced_subposet(7)
        (largest, edge_count), *rest = sub.components()
        assert len(largest) == 16
        assert edge_count == 24
        for lower in largest:
            for upper in largest:
                if tamari_leq(lower, upper):
                    k, ok = verify_hypercube(lower, upper)
                    assert ok

    @pytest.mark.parametrize(
        "misread, claimed, image",
        [
            pytest.param(
                "is", "SIMPLY_UNBALANCING", "balanced",
                id="conservative-read-as-unbalancing",
            ),
            pytest.param(
                "is not", "CONSERVATIVE_BALANCING", "unbalanced",
                id="unbalancing-read-as-conservative",
            ),
        ],
    )
    def test_misread_rotation_raises_under_optimize(self, misread, claimed, image):
        # The first move that is (or is not) conservative reads as `claimed`.
        script = "\n".join(
            [
                "from tamari_balance import intervals",
                "from tamari_balance.balance import RotationKind",
                "from tamari_balance._record import replace",
                "real = intervals.classify_rotation",
                "flipped = []",
                "def misread(t, rank):",
                "    found = real(t, rank)",
                f"    if not flipped and found.kind {misread}"
                " RotationKind.CONSERVATIVE_BALANCING:",
                "        flipped.append(rank)",
                f"        return replace(found, kind=RotationKind.{claimed})",
                "    return found",
                "intervals.classify_rotation = misread",
                "try:",
                "    intervals.balanced_subposet(5)",
                "except intervals.CrossCheckError as exc:",
                "    print(exc.routes, exc.values)",
                "else:",
                "    raise SystemExit('no error raised')",
            ]
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        kind = getattr(RotationKind, claimed).value
        assert result.stdout.splitlines() == [
            f"('rotation table', 'balanced trees') ('{kind}', '{image}')"
        ]

    def test_dot_output_is_stable(self):
        sub = balanced_subposet(5)
        dot = sub.to_dot()
        assert dot == sub.to_dot()
        assert dot.startswith("digraph balanced_5 {")
        assert dot.count(" -> ") == len(sub.edges)
