"""Hypercube structure of balanced intervals in the rotation order.

Every interval between comparable balanced trees is a Boolean lattice:
the lower endpoint carries a set of conservative rotation roots, the
rotations at those roots commute, and applying an arbitrary subset gives
the elements of the interval.  This module reads the root set off the
lower endpoint's moves: the roots are the rotations that raise a bracket
vector entry straight to the upper endpoint's value.  It verifies the
hypercube isomorphism explicitly, each subset's image against the
bracket vector that mixes the endpoints' entries, counts balanced and
maximal balanced intervals along two independent routes (brute force
over the balanced trees, and the counting series of the ``bi``, ``mbi``
and ``mbi_xi`` grammars from :func:`.grammars.counting_series`), and
builds the balanced subposet.  Every cube dimension it reports comes
from a pair that :func:`verify_hypercube` has just verified.

The brute-versus-series cross-check lives here alone, in the private
record ``_SeriesCounts``: the interval counts below and every
series-backed family of the CLI's ``enum`` read their counts through it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from operator import le, ne

from . import limits
from ._record import frozen
from .balance import RotationKind, classify_rotation, balanced_trees, is_balanced
from .grammars import builtin_grammar, counting_series
from .patterns import BalanceFlag, classify_balanced
from .polynomials import Monomial, Polynomial
from .tamari import (
    IncomparableError,
    _comparable_count,
    _members_between,
    _size_mismatch,
    _vector_moves,
    bracket_vector,
    comparable_pairs,
    hasse_dot,
    right_rotation,
)
from .trees import BinaryTree, serialize, sorted_by_text


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
# pairs computes each tree's vector once.  They trust that both
# endpoints are balanced and comparable; the public doors check it.


def _require_balanced_pair(
    t0: BinaryTree, t1: BinaryTree
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The endpoints' bracket vectors, once both are known balanced and
    comparable."""
    if not is_balanced(t0) or not is_balanced(t1):
        raise ValueError("both interval endpoints must be balanced")
    lower, upper = bracket_vector(t0), bracket_vector(t1)
    if len(lower) != len(upper):
        raise _size_mismatch(len(lower), len(upper))
    if not all(map(le, lower, upper)):
        raise IncomparableError(
            f"{serialize(t0)} is not below {serialize(t1)}"
        )
    return lower, upper


def rotation_root_set(t0: BinaryTree, t1: BinaryTree) -> RotationRootSet:
    """Roots of the conservative rotations transforming ``t0`` into ``t1``.

    Read off ``t0``'s moves in one pass: a right rotation raises one
    bracket vector entry, and each entry has at most one rotation that
    raises it, so the roots are the rotations of ``t0`` that raise an
    entry straight to ``t1``'s value.  They must number the entries where
    the endpoints differ, or :class:`CrossCheckError` names the routes
    ``root set`` and ``bracket vectors``; they must also be conservative
    balancing, include no left child of another root, and, applied, reach
    ``t1``.  Endpoints must be balanced and comparable.
    """
    return _root_set(t0, t1, *_require_balanced_pair(t0, t1))


def _root_set(
    t0: BinaryTree, t1: BinaryTree, lower: tuple[int, ...], upper: tuple[int, ...]
) -> RotationRootSet:
    """:func:`rotation_root_set`, given the endpoints' bracket vectors."""
    # A rotation raises its entry strictly, so a root's entry differs.
    roots = [(rank, i) for rank, i, value in _vector_moves(t0) if value == upper[i]]
    differing = sum(map(ne, lower, upper))
    if len(roots) != differing:
        raise CrossCheckError(
            f"cube dimension routes disagree on [{serialize(t0)}, {serialize(t1)}]",
            ("root set", "bracket vectors"),
            (len(roots), differing),
        )
    ranks = frozenset(rank for rank, _ in roots)
    for rank, i in roots:
        if classify_rotation(t0, rank).kind is not RotationKind.CONSERVATIVE_BALANCING:
            raise AssertionError(f"the root at rank {rank} is not conservative")
        # The left child of the node at ``rank`` is the node of entry i,
        # at rank i + 1.
        if i + 1 in ranks:
            raise AssertionError("left child of a root cannot be a root")
    reached = t0
    for rank, _ in roots:
        reached = right_rotation(reached, rank)
    if reached != t1:
        raise AssertionError("the root rotations miss the upper endpoint")
    return RotationRootSet(t0, ranks)


def verify_hypercube(t0: BinaryTree, t1: BinaryTree) -> tuple[int, bool]:
    """Dimension of the interval and whether it is a genuine hypercube.

    Builds the image of every subset of the rotation root set, rotating
    in ascending and in descending rank order, and checks that the two
    orders agree, that each image's bracket vector is ``t0``'s with
    ``t1``'s entries at its subset's roots, and that the images are the
    interval that the cover walk finds.  Those vectors are distinct, so
    the images are, and subset inclusion is the rotation order among
    them (Huang and Tamari, 1972).  Endpoints must be balanced and
    comparable.
    """
    return _verify_cube(t0, t1, *_require_balanced_pair(t0, t1))


def _verify_cube(
    t0: BinaryTree, t1: BinaryTree, lower: tuple[int, ...], upper: tuple[int, ...]
) -> tuple[int, bool]:
    """:func:`verify_hypercube`, given the endpoints' bracket vectors."""
    ranks = sorted(_root_set(t0, t1, lower, upper).ranks)
    entry = {rank: i for rank, i, _ in _vector_moves(t0)}
    k = len(ranks)
    # The image of S rotated in ascending and in descending rank order:
    # each rotates the image of S without its last root in that order.
    # The image's expected vector takes the upper entry at that root.
    images = [t0] * (1 << k)
    descending = [t0] * (1 << k)
    expected = [lower] * (1 << k)
    for subset in range(1, 1 << k):
        top = subset.bit_length() - 1
        bottom = (subset & -subset).bit_length() - 1
        images[subset] = right_rotation(images[subset ^ (1 << top)], ranks[top])
        descending[subset] = right_rotation(
            descending[subset ^ (1 << bottom)], ranks[bottom]
        )
        if images[subset] is not descending[subset]:
            raise AssertionError("root rotations failed to commute")
        i = entry[ranks[top]]
        below = expected[subset ^ (1 << top)]
        expected[subset] = below[:i] + (upper[i],) + below[i + 1 :]
    if list(map(bracket_vector, images)) != expected:
        return k, False
    if set(images) != set(_members_between(t0, lower, upper).values()):
        return k, False
    return k, True


def _dimension_histogram(
    pairs: Iterable[tuple[BinaryTree, BinaryTree]]
) -> dict[int, int]:
    """Cube dimension counts over ``pairs``, smallest first, each pair
    verified by :func:`verify_hypercube`: a non-cube raises
    :class:`CrossCheckError`, its ``2^k`` subset images against the
    interval that the cover walk finds, and so does a root set that does
    not number the entries where the endpoints' bracket vectors differ.
    Each tree's vector is computed once per call."""
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
        histogram[k] = histogram.get(k, 0) + 1
    return dict(sorted(histogram.items()))


def hypercube_histogram(n: int) -> dict[int, int]:
    """Dimension counts over all comparable balanced pairs at size ``n``,
    each verified a hypercube; a non-cube raises :class:`CrossCheckError`."""
    trees = balanced_trees(n)
    return _dimension_histogram(comparable_pairs(trees, trees))


@frozen
class _SeriesCounts:
    """A family's counts read off a builtin grammar's counting series.

    The count at size ``n`` is the ``x^(n+1)`` row of
    :func:`.grammars.counting_series`: an ``int``, or a polynomial in
    the grammar's markers.  ``brute`` computes the same row by brute
    force; a disagreement raises :class:`CrossCheckError` naming the
    count ``what`` and the routes ``brute_route`` and ``series``.
    Called with ``max_n``, the record reads sizes 0..max_n off one series
    and checks those up to ``row``'s bound; :meth:`at` reads and checks
    one size, whatever the bound.
    """

    grammar: str
    what: str
    brute_route: str
    brute: Callable[[int], int | Polynomial]
    row: limits.Limit

    def __call__(self, max_n: int) -> tuple[int | Polynomial, ...]:
        poly = counting_series(builtin_grammar(self.grammar), max_n + 1)
        return tuple(
            self._read(poly, n, n <= self.row.bound) for n in range(max_n + 1)
        )

    def at(self, n: int) -> int | Polynomial:
        poly = counting_series(builtin_grammar(self.grammar), n + 1)
        return self._read(poly, n, True)

    def _read(self, poly: Polynomial, n: int, check: bool) -> int | Polynomial:
        if poly.markers:
            count = poly.collect("x").get(n + 1, Polynomial.zero(poly.markers))
        else:
            count = poly.coefficient({"x": n + 1})
        if check:
            brute = self.brute(n)
            if brute != count:
                raise CrossCheckError(
                    f"{self.what} routes disagree at n={n}",
                    (self.brute_route, "series"),
                    (brute, count),
                )
        return count


def _balanced_pair_count(n: int) -> int:
    """Comparable balanced pairs at size ``n``, by brute force alone."""
    trees = balanced_trees(n)
    return _comparable_count(trees, trees)


def _maximal_interval_ends(n: int) -> tuple[list[BinaryTree], list[BinaryTree]]:
    """The balanced trees of size ``n`` that are minimal to the left, and
    those that are maximal to the right: the ends of maximal intervals."""
    flags = [(t, classify_balanced(t)) for t in balanced_trees(n)]
    lowers = [t for t, flag in flags if BalanceFlag.MINIMAL_LEFT in flag]
    uppers = [t for t, flag in flags if BalanceFlag.MAXIMAL_RIGHT in flag]
    return lowers, uppers


def _maximal_pair_count(n: int) -> int:
    """Maximal balanced intervals at size ``n``, by brute force alone."""
    return _comparable_count(*_maximal_interval_ends(n))


def _maximal_dimension_counts(n: int) -> Polynomial:
    """Maximal balanced intervals at size ``n`` by verified cube
    dimension, as a polynomial in ``xi``, by brute force alone."""
    counts = _dimension_histogram(comparable_pairs(*_maximal_interval_ends(n)))
    return Polynomial(
        {Monomial({"xi": k} if k else {}): c for k, c in counts.items()},
        markers=("xi",),
    )


_BALANCED_INTERVALS = _SeriesCounts(
    "bi", "balanced interval", "brute", _balanced_pair_count, limits.BRUTE_INTERVALS
)
_MAXIMAL_INTERVALS = _SeriesCounts(
    "mbi", "maximal interval", "brute", _maximal_pair_count, limits.BRUTE_INTERVALS
)
_MAXIMAL_DIMENSIONS = _SeriesCounts(
    "mbi_xi", "refined maximal interval", "brute", _maximal_dimension_counts,
    limits.BRUTE_INTERVALS,
)


def count_balanced_intervals(n: int) -> int:
    """Number of comparable balanced pairs at size ``n``.

    Computed by brute force over the balanced trees and, independently,
    as a grammar series coefficient; the two must agree.
    """
    return _BALANCED_INTERVALS.at(n)


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
    return (_MAXIMAL_DIMENSIONS if by_dimension else _MAXIMAL_INTERVALS).at(n)


@frozen
class BalancedSubposet:
    """Balanced trees of one size with the covers that stay balanced."""

    n: int
    trees: tuple[BinaryTree, ...]
    edges: tuple[tuple[BinaryTree, BinaryTree], ...]

    def components(self) -> list[tuple[tuple[BinaryTree, ...], int]]:
        """Connected components with their edge counts, largest first."""
        neighbors: dict[BinaryTree, list[BinaryTree]] = {t: [] for t in self.trees}
        # Positions in tree-string order: members and ties sort by them.
        position = {t: i for i, t in enumerate(sorted_by_text(self.trees))}
        for src, dst in self.edges:
            neighbors[src].append(dst)
            neighbors[dst].append(src)
        # Each tree's component index, given as the search reaches it.
        index: dict[BinaryTree, int] = {}
        groups: list[list[BinaryTree]] = []
        for start in self.trees:
            if start in index:
                continue
            index[start] = len(groups)
            members = [start]
            for cur in members:  # reads the members as the search adds them
                for nxt in neighbors[cur]:
                    if nxt not in index:
                        index[nxt] = len(groups)
                        members.append(nxt)
            groups.append(members)
        edge_counts = [0] * len(groups)
        for src, _ in self.edges:
            edge_counts[index[src]] += 1
        components = []
        for members, edge_count in zip(groups, edge_counts):
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
    these generate the full restricted order.  The trees are keyed by
    bracket vector, and a move is an edge when the vector it raises is a
    key.  Those must be exactly the moves that :func:`.classify_rotation`
    calls conservative balancing, or :class:`CrossCheckError` names the
    routes ``rotation table`` and ``balanced trees``.
    """
    trees = balanced_trees(n)
    by_vector = {bracket_vector(t): t for t in trees}
    edges = []
    for vector, t in by_vector.items():
        for rank, i, value in _vector_moves(t):
            dst = by_vector.get(vector[:i] + (value,) + vector[i + 1 :])
            kind = classify_rotation(t, rank).kind
            if (kind is RotationKind.CONSERVATIVE_BALANCING) != (dst is not None):
                raise CrossCheckError(
                    f"rotation at rank {rank} of {serialize(t)}",
                    ("rotation table", "balanced trees"),
                    (kind.value, "balanced" if dst is not None else "unbalanced"),
                )
            if dst is not None:
                edges.append((t, dst))
    return BalancedSubposet(n, trees, tuple(edges))
