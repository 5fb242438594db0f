"""Hypercube structure of balanced intervals in the rotation order.

Every interval between comparable balanced trees is a Boolean lattice:
the lower endpoint carries a set of conservative rotation roots, the
rotations at those roots commute, and applying an arbitrary subset gives
the elements of the interval.  This module computes the root sets,
verifies the hypercube isomorphism explicitly, counts balanced and
maximal balanced intervals along two independent routes (brute force
over the balanced trees, and the counting series of the ``bi``, ``mbi``
and ``mbi_xi`` grammars from :func:`.grammars.counting_series`), and
builds the balanced subposet.  Every cube dimension it reports comes
from a pair that :func:`verify_hypercube` has just verified.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import le

from ._record import frozen
from .balance import RotationKind, classify_rotation, balanced_trees, is_balanced
from .grammars import builtin_grammar, counting_series
from .patterns import BalanceFlag, classify_balanced
from .polynomials import Monomial, Polynomial
from .tamari import (
    IncomparableError,
    _members_between,
    _size_mismatch,
    _vector_moves,
    bracket_vector,
    comparable_pairs,
    hasse_dot,
    right_rotation,
    rotation_ranks,
)
from .trees import BinaryTree, child_ranks, serialize, sorted_by_text


class CrossCheckError(AssertionError):
    """Two independent routes to one count disagree.

    ``routes`` names the two routes and ``values`` holds what each gave,
    in the same order.  Raised explicitly, so it holds under ``python -O``.
    """

    def __init__(self, what: str, routes: tuple[str, str], values: tuple):
        super().__init__(f"{what}: {values[0]} vs {values[1]}")
        self.routes = routes
        self.values = values


@frozen
class RotationRootSet:
    """Lower endpoint plus the ranks of the rotations reaching the upper."""

    base: BinaryTree
    ranks: frozenset[int]

    def apply(self, ranks: Iterable[int]) -> BinaryTree:
        """Tree obtained by rotating the base at a subset of the roots.

        The rotations commute; this applies them in ascending rank order
        and checks that descending order agrees.
        """
        chosen = sorted(set(ranks))
        if not set(chosen) <= self.ranks:
            raise ValueError("ranks outside the root set")
        ascending = self.base
        for rank in chosen:
            ascending = right_rotation(ascending, rank)
        descending = self.base
        for rank in reversed(chosen):
            descending = right_rotation(descending, rank)
        if ascending != descending:
            raise AssertionError("root rotations failed to commute")
        return ascending


# The private helpers below take the endpoints' bracket vectors
# ``lower`` and ``upper`` along with the endpoints, so a sweep over many
# pairs computes each tree's vector once.


def _require_balanced_pair(
    t0: BinaryTree, t1: BinaryTree, lower: tuple[int, ...], upper: tuple[int, ...]
) -> None:
    if not is_balanced(t0) or not is_balanced(t1):
        raise ValueError("both interval endpoints must be balanced")
    if len(lower) != len(upper):
        raise _size_mismatch(len(lower), len(upper))
    if not all(map(le, lower, upper)):
        raise IncomparableError(
            f"{serialize(t0)} is not below {serialize(t1)}"
        )


def rotation_root_set(t0: BinaryTree, t1: BinaryTree) -> RotationRootSet:
    """Roots of the conservative rotations transforming ``t0`` into ``t1``.

    Greedy: repeatedly apply any conservative balancing rotation that
    stays below ``t1``; a rotation stays below exactly when the one
    vector entry it raises stays at or below ``t1``'s.  The root set is
    order-independent; a replay in the opposite order is checked.
    Endpoints must be balanced and comparable.
    """
    return _root_set(t0, t1, bracket_vector(t0), bracket_vector(t1))


def _root_set(
    t0: BinaryTree, t1: BinaryTree, lower: tuple[int, ...], upper: tuple[int, ...]
) -> RotationRootSet:
    """:func:`rotation_root_set`, given the endpoints' bracket vectors."""
    _require_balanced_pair(t0, t1, lower, upper)
    ranks: list[int] = []
    cur = t0
    while cur != t1:
        for rank, i, value in _vector_moves(cur):
            if (
                value <= upper[i]
                and classify_rotation(cur, rank).kind
                is RotationKind.CONSERVATIVE_BALANCING
            ):
                ranks.append(rank)
                cur = right_rotation(cur, rank)
                break
        else:
            raise AssertionError(
                "no conservative rotation advances toward the upper endpoint"
            )
    if len(set(ranks)) != len(ranks):
        raise AssertionError("a root repeated")
    result = RotationRootSet(t0, frozenset(ranks))
    replay = t0
    for rank in sorted(ranks, reverse=True):
        replay = right_rotation(replay, rank)
    if replay != t1:
        raise AssertionError("root set is order-dependent")
    for rank in result.ranks:
        if child_ranks(t0, rank)[0] in result.ranks:
            raise AssertionError("left child of a root cannot be a root")
    return result


def verify_hypercube(t0: BinaryTree, t1: BinaryTree) -> tuple[int, bool]:
    """Dimension of the interval and whether it is a genuine hypercube.

    Builds the image of every subset of the rotation root set, rotating
    in ascending and in descending rank order, and checks that the two
    orders agree, that the images are distinct, and that they are the
    interval that the cover walk finds.  Subset inclusion coincides with
    the rotation order when each root raises one vector entry from
    ``t0``'s to ``t1``'s, the roots raise every entry where the endpoints
    differ, and each image's vector mixes the endpoints on its subset's
    entries (Huang and Tamari, 1972).
    """
    return _verify_cube(t0, t1, bracket_vector(t0), bracket_vector(t1))


def _verify_cube(
    t0: BinaryTree, t1: BinaryTree, lower: tuple[int, ...], upper: tuple[int, ...]
) -> tuple[int, bool]:
    """:func:`verify_hypercube`, given the endpoints' bracket vectors."""
    roots = _root_set(t0, t1, lower, upper)
    ranks = sorted(roots.ranks)
    k = len(ranks)
    # The image of S rotated in ascending and in descending rank order:
    # each rotates the image of S without its last root in that order.
    images = [t0] * (1 << k)
    descending = [t0] * (1 << k)
    for subset in range(1, 1 << k):
        top = subset.bit_length() - 1
        bottom = (subset & -subset).bit_length() - 1
        images[subset] = right_rotation(images[subset ^ (1 << top)], ranks[top])
        descending[subset] = right_rotation(
            descending[subset ^ (1 << bottom)], ranks[bottom]
        )
        if images[subset] is not descending[subset]:
            raise AssertionError("root rotations failed to commute")
    if len(set(images)) != 1 << k:
        return k, False
    if set(images) != set(_members_between(t0, lower, upper).values()):
        return k, False
    vectors = [bracket_vector(image) for image in images]
    # Each root raises one entry, from the lower endpoint's to the upper's.
    entries = []
    for j in range(k):
        changed = _differing_entries(lower, vectors[1 << j])
        if len(changed) != 1 or vectors[1 << j][changed[0]] != upper[changed[0]]:
            return k, False
        entries += changed
    if sorted(entries) != _differing_entries(lower, upper):
        return k, False
    # The image of S takes the upper endpoint's entries at S's roots.
    for subset, vector in enumerate(vectors):
        mixed = list(lower)
        for j in range(k):
            if subset >> j & 1:
                mixed[entries[j]] = upper[entries[j]]
        if vector != tuple(mixed):
            return k, False
    return k, True


def _differing_entries(lower: tuple[int, ...], upper: tuple[int, ...]) -> list[int]:
    """Indices where two bracket vectors differ, ascending."""
    return [i for i, (a, b) in enumerate(zip(lower, upper)) if a != b]


def _dimension_histogram(
    pairs: Iterable[tuple[BinaryTree, BinaryTree]]
) -> dict[int, int]:
    """Cube dimension counts over ``pairs``, smallest first, each pair
    verified by :func:`verify_hypercube`: a non-cube raises
    :class:`CrossCheckError`, its ``2^k`` subset images against the
    interval that the cover walk finds, and so does a dimension other
    than the number of entries where the endpoints' bracket vectors
    differ.  Each tree's vector is computed once per call."""
    histogram: dict[int, int] = {}
    vectors: dict[BinaryTree, tuple[int, ...]] = {}
    for lower, upper in pairs:
        low = vectors.get(lower)
        if low is None:
            low = vectors[lower] = bracket_vector(lower)
        high = vectors.get(upper)
        if high is None:
            high = vectors[upper] = bracket_vector(upper)
        k, ok = _verify_cube(lower, upper, low, high)
        if not ok:
            raise CrossCheckError(
                f"[{serialize(lower)}, {serialize(upper)}] is not a hypercube",
                ("subset images", "cover walk"),
                (1 << k, len(_members_between(lower, low, high))),
            )
        differing = len(_differing_entries(low, high))
        if k != differing:
            raise CrossCheckError(
                f"cube dimension routes disagree on "
                f"[{serialize(lower)}, {serialize(upper)}]",
                ("root set", "bracket vectors"),
                (k, differing),
            )
        histogram[k] = histogram.get(k, 0) + 1
    return dict(sorted(histogram.items()))


def hypercube_histogram(n: int) -> dict[int, int]:
    """Dimension counts over all comparable balanced pairs at size ``n``,
    each verified a hypercube; a non-cube raises :class:`CrossCheckError`."""
    trees = balanced_trees(n)
    return _dimension_histogram(comparable_pairs(trees, trees))


def count_balanced_intervals(n: int) -> int:
    """Number of comparable balanced pairs at size ``n``.

    Computed by brute force over the balanced trees and, independently,
    as a grammar series coefficient; the two must agree and the brute
    count is returned.
    """
    brute = _balanced_pair_count(n)
    bi = counting_series(builtin_grammar("bi"), n + 1)
    via_grammar = bi.coefficient({"x": n + 1})
    if brute != via_grammar:
        raise CrossCheckError(
            f"balanced interval routes disagree at n={n}",
            ("brute", "series"),
            (brute, via_grammar),
        )
    return brute


def _balanced_pair_count(n: int) -> int:
    """Comparable balanced pairs at size ``n``, by brute force alone."""
    trees = balanced_trees(n)
    return sum(1 for _ in comparable_pairs(trees, trees))


def _maximal_interval_pairs(n: int) -> list[tuple[BinaryTree, BinaryTree]]:
    flags = [(t, classify_balanced(t)) for t in balanced_trees(n)]
    lowers = [t for t, flag in flags if BalanceFlag.MINIMAL_LEFT in flag]
    uppers = [t for t, flag in flags if BalanceFlag.MAXIMAL_RIGHT in flag]
    return list(comparable_pairs(lowers, uppers))


def _maximal_pair_count(n: int) -> int:
    """Maximal balanced intervals at size ``n``, by brute force alone."""
    return len(_maximal_interval_pairs(n))


def count_maximal_balanced_intervals(
    n: int, by_dimension: bool = False
) -> int | Polynomial:
    """Maximal balanced intervals at size ``n``.

    An interval is maximal when its lower endpoint admits no balanced
    predecessor and its upper endpoint no balanced successor.  Returns
    the total count, or with ``by_dimension`` the polynomial whose
    ``xi^k`` coefficient counts the verified dimension-k cubes.  Both
    forms are cross-checked against the corresponding grammar series.
    """
    if not by_dimension:
        brute = _maximal_pair_count(n)
        mbi = counting_series(builtin_grammar("mbi"), n + 1)
        via_grammar = mbi.coefficient({"x": n + 1})
        if brute != via_grammar:
            raise CrossCheckError(
                f"maximal interval routes disagree at n={n}",
                ("brute", "series"),
                (brute, via_grammar),
            )
        return brute
    counts = _dimension_histogram(_maximal_interval_pairs(n))
    brute_poly = Polynomial(
        {Monomial({"xi": k} if k else {}): c for k, c in counts.items()},
        markers=("xi",),
    )
    refined = counting_series(builtin_grammar("mbi_xi"), n + 1)
    via_grammar = Polynomial(
        {
            mono.without("x"): coeff
            for mono, coeff in refined.items()
            if mono.exponent("x") == n + 1
        },
        markers=("xi",),
    )
    if brute_poly != via_grammar:
        raise CrossCheckError(
            f"refined maximal interval routes disagree at n={n}",
            ("brute", "series"),
            (brute_poly, via_grammar),
        )
    return brute_poly


@frozen
class BalancedSubposet:
    """Balanced trees of one size with the covers that stay balanced."""

    n: int
    trees: tuple[BinaryTree, ...]
    edges: tuple[tuple[BinaryTree, BinaryTree], ...]

    def components(self) -> list[tuple[tuple[BinaryTree, ...], int]]:
        """Connected components with their edge counts, largest first."""
        neighbors: dict[BinaryTree, set[BinaryTree]] = {
            t: set() for t in self.trees
        }
        # Positions in tree-string order: members and ties sort by them.
        position = {t: i for i, t in enumerate(sorted_by_text(self.trees))}
        for src, dst in self.edges:
            neighbors[src].add(dst)
            neighbors[dst].add(src)
        seen: set[BinaryTree] = set()
        components = []
        for start in self.trees:
            if start in seen:
                continue
            stack = [start]
            members = []
            seen.add(start)
            while stack:
                cur = stack.pop()
                members.append(cur)
                for nxt in neighbors[cur]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            member_set = set(members)
            edge_count = sum(
                1 for src, dst in self.edges if src in member_set
            )
            members.sort(key=position.__getitem__)
            components.append((tuple(members), edge_count))
        components.sort(key=lambda item: (-len(item[0]), -item[1], position[item[0][0]]))
        return components

    def structure(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Component sizes and edge counts, aligned and largest first."""
        comps = self.components()
        return (
            tuple(len(members) for members, _ in comps),
            tuple(edge_count for _, edge_count in comps),
        )

    def to_dot(self) -> str:
        return hasse_dot(
            self.trees, self.edges, graph_name=f"balanced_{self.n}"
        )


def balanced_subposet(n: int) -> BalancedSubposet:
    """Restriction of the rotation order to the balanced trees of size ``n``.

    Edges are the covers with both ends balanced; by the closure theorem
    these generate the full restricted order.
    """
    trees = balanced_trees(n)
    edges = []
    for t in trees:
        for rank in rotation_ranks(t):
            if (
                classify_rotation(t, rank).kind
                is RotationKind.CONSERVATIVE_BALANCING
            ):
                edges.append((t, right_rotation(t, rank)))
    for src, dst in edges:
        if not is_balanced(dst):
            raise AssertionError(
                f"conservative rotation left the balanced trees: "
                f"{serialize(src)} -> {serialize(dst)}"
            )
    return BalancedSubposet(n, trees, tuple(edges))
