"""Synchronous grammars over bud trees and their counting series.

A grammar rewrites every frontier bud of a tree simultaneously, one rule
choice per bud occurrence.  The evaluation of a tree is the product of
its frontier bud variables; summing evaluations over all trees derivable
in exactly ``k`` steps gives the k-th iterate of the grammar's
substitution polynomials.  When the grammar carries a strictness
certificate, iterating the substitution with truncation computes the
generating series of the produced tree family up to any degree.

One engine serves :func:`series`, :func:`iterates` and
:func:`counting_series`: the grammar's fixed-point equation, read as an
iteration.  Each step rewrites every bud at once, as the sum over its
rules of the marker times the product of the previous step's values of
the buds on the rule's frontier.  Started with every bud as itself, the
k-th step is the k-th substitution iterate; started with every bud but
the axiom at 0, it is that iterate at that point, whose ``x^(n+1)``
coefficients are the counts the library checks.

The engine keys each monomial by one packed int (after Monagan and
Pearce, 2009): the counting degree in the top field, then one field per
bud and then per marker, in the order ``(*g.buds, *g.markers)``, so
multiplying two monomials is one integer add, and integer order sorts
by degree first.  Each field is as wide as a proved bound needs, so
none carries into the next (:func:`_layout`): with every degree at most
``d`` over ``s`` steps, a bud's field holds ``d`` and a marker's
``d * s``, since a marker on a one-bud rule grows with the step count.
The series cut gives ``d``; :func:`iterates`, with no cut, takes for
``d`` the largest rule frontier to the power of the step count.

Rules may tag internal nodes with integer labels and a marked flag, and
may attach a marker variable that multiplies into the series without
counting toward truncation degrees.

:func:`imbalance_grammar` builds the grammar of the trees whose every
imbalance lies in a finite set: a value ``v`` becomes a node whose
shorter child is a bud delayed by ``|v|`` steps.  The builtins ``bal``
and ``bal01`` are its ``{-1, 0, 1}`` and ``{0, 1}`` instances; the
others are written out rule by rule.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Iterator
from functools import cache
from itertools import product
from operator import attrgetter

from ._record import frozen, replace
from .polynomials import Monomial, Polynomial


class GrammarError(ValueError):
    """Malformed grammar or grammar text."""


class CertificateError(GrammarError):
    """A required grammar certificate does not hold."""


class GenerationLimitError(RuntimeError):
    """Generation exceeded the configured result budget."""


@frozen
class Bud:
    """A frontier leaf awaiting substitution."""

    name: str

    def __str__(self) -> str:
        return f"<{self.name}>"


@frozen
class BudNode:
    """A node with an optional integer label and a mark flag.

    Children may be empty: a childless node is a finished leaf that
    contributes nothing to the frontier.
    """

    label: int | None
    children: tuple["BudTree", ...]
    marked: bool = False

    def __str__(self) -> str:
        head = "" if self.label is None else str(self.label)
        if self.marked:
            head += "*"
        parts = ([head] if head else []) + [str(c) for c in self.children]
        return "[" + " ".join(parts) + "]"


BudTree = Bud | BudNode


def frontier(tree: BudTree) -> tuple[str, ...]:
    """Bud names on the frontier, left to right."""
    if isinstance(tree, Bud):
        return (tree.name,)
    out: list[str] = []
    for child in tree.children:
        out.extend(frontier(child))
    return tuple(out)


def evaluation(tree: BudTree) -> Monomial:
    """Product of the frontier bud variables."""
    exps: dict[str, int] = {}
    for name in frontier(tree):
        exps[name] = exps.get(name, 0) + 1
    return Monomial(exps)


def marked_count(tree: BudTree) -> int:
    """Number of marked internal nodes."""
    if isinstance(tree, Bud):
        return 0
    return int(tree.marked) + sum(marked_count(c) for c in tree.children)


@frozen
class Rule:
    """One substitution alternative for a bud."""

    bud: str
    tree: BudTree
    marker: str | None = None


_compared = attrgetter("buds", "axiom", "rules", "markers", "merges")


@frozen
class SynchronousGrammar:
    """Bud alphabet, axiom, rules, markers, and presentation renames.

    ``merges`` lists ``(old, new)`` variable renames applied to displayed
    series (the derivation semantics always uses the bud names).
    ``name`` is left out of equality and hashing.  Each bud's rules, in
    rule order, are tabled once at construction for :meth:`rules_for`.
    """

    buds: tuple[str, ...]
    axiom: str
    rules: tuple[Rule, ...]
    markers: tuple[str, ...] = ()
    merges: tuple[tuple[str, str], ...] = ()
    name: str | None = None

    def __post_init__(self):
        if len(set(self.buds)) != len(self.buds):
            raise GrammarError("duplicate bud names")
        if self.axiom not in self.buds:
            raise GrammarError(f"axiom {self.axiom!r} is not a bud")
        bud_set = set(self.buds)
        if bud_set & set(self.markers):
            raise GrammarError("markers must be distinct from buds")
        by_bud: dict[str, list[Rule]] = {}
        for rule in self.rules:
            if rule.bud not in bud_set:
                raise GrammarError(f"rule for unknown bud {rule.bud!r}")
            if rule.marker is not None and rule.marker not in self.markers:
                raise GrammarError(f"unknown marker {rule.marker!r}")
            stray = set(frontier(rule.tree)) - bud_set
            if stray:
                raise GrammarError(f"rule uses unknown buds {sorted(stray)}")
            by_bud.setdefault(rule.bud, []).append(rule)
        missing = bud_set - set(by_bud)
        if missing:
            raise GrammarError(f"buds without rules: {sorted(missing)}")
        for old, new in self.merges:
            if old not in bud_set:
                raise GrammarError(f"merge source {old!r} is not a bud")
            if new in bud_set:
                raise GrammarError(f"merge target {new!r} collides with a bud")
        table = {bud: tuple(rules) for bud, rules in by_bud.items()}
        object.__setattr__(self, "_rules_by_bud", table)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _compared(self) == _compared(other)
        return NotImplemented

    def __hash__(self):
        return hash(_compared(self))

    def rules_for(self, bud: str) -> tuple[Rule, ...]:
        return self._rules_by_bud[bud]


def derive_all(g: SynchronousGrammar, tree: BudTree) -> list[BudTree]:
    """Every one-step derivation: substitute all frontier buds at once.

    Choices are enumerated in frontier order with rule order within each
    position, so the output order is deterministic.  A tree with an empty
    frontier has no derivations.
    """
    names = frontier(tree)
    if not names:
        return []
    choice_lists = [g.rules_for(name) for name in names]
    results: list[BudTree] = []
    for combo in product(*choice_lists):
        chosen = iter(combo)

        def build(t: BudTree) -> BudTree:
            if isinstance(t, Bud):
                return next(chosen).tree
            return BudNode(t.label, tuple(build(c) for c in t.children), t.marked)

        results.append(build(tree))
    return results


def generate(
    g: SynchronousGrammar, steps: int, max_results: int = 10**6
) -> tuple[BudTree, ...]:
    """Trees derivable from the axiom in exactly ``steps`` steps.

    Duplicates are removed (first occurrence kept).  Raises
    :class:`GenerationLimitError` if any level would exceed
    ``max_results`` trees.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    level: list[BudTree] = [Bud(g.axiom)]
    for _ in range(steps):
        nxt: list[BudTree] = []
        seen: set[BudTree] = set()
        for tree in level:
            for derived in derive_all(g, tree):
                if derived not in seen:
                    seen.add(derived)
                    nxt.append(derived)
                    if len(nxt) > max_results:
                        raise GenerationLimitError(
                            f"more than {max_results} trees at one level"
                        )
        level = nxt
    return tuple(level)


def substitution_polynomial(g: SynchronousGrammar, bud: str) -> Polynomial:
    """Sum of rule evaluations for a bud, markers multiplied in."""
    if bud not in g.buds:
        raise GrammarError(f"unknown bud {bud!r}")
    total = Polynomial.zero(g.markers)
    for rule in g.rules_for(bud):
        mono = evaluation(rule.tree)
        if rule.marker is not None:
            mono = mono * Monomial({rule.marker: 1})
        total = total + Polynomial({mono: 1}, g.markers)
    return total


def check_strict(g: SynchronousGrammar) -> bool:
    """Whether a strictness certificate exists.

    Every rule must keep at least one bud on its frontier, and the
    single-bud rules must admit a bud order that strictly increases
    along them (no cycles among ``b -> c`` replacements).
    """
    constraints: set[tuple[str, str]] = set()
    for rule in g.rules:
        names = frontier(rule.tree)
        if not names:
            return False
        if len(names) == 1:
            if names[0] == rule.bud:
                return False
            constraints.add((rule.bud, names[0]))
    adjacency: dict[str, set[str]] = {b: set() for b in g.buds}
    for a, b in constraints:
        adjacency[a].add(b)
    state: dict[str, int] = {}

    def has_cycle(n: str) -> bool:
        state[n] = 1
        for m in adjacency[n]:
            mark = state.get(m, 0)
            if mark == 1 or (mark == 0 and has_cycle(m)):
                return True
        state[n] = 2
        return False

    return not any(state.get(b, 0) == 0 and has_cycle(b) for b in g.buds)


def _shapes_differ(t0: BudTree, t1: BudTree) -> bool:
    """Whether some common internal position distinguishes the trees."""
    if isinstance(t0, Bud) or isinstance(t1, Bud):
        return False
    if (
        t0.label != t1.label
        or len(t0.children) != len(t1.children)
        or t0.marked != t1.marked
    ):
        return True
    return any(_shapes_differ(a, b) for a, b in zip(t0.children, t1.children))


def check_unambiguous(g: SynchronousGrammar) -> bool:
    """Whether distinct rules of each bud differ at a common internal
    position (label, arity, or mark), so derivations never collide."""
    for bud in g.buds:
        rules = g.rules_for(bud)
        for i in range(len(rules)):
            for j in range(i + 1, len(rules)):
                if not _shapes_differ(rules[i].tree, rules[j].tree):
                    return False
    return True


_Items = Iterable[tuple[int, int]]
_Terms = list[tuple[int, int]]


def _layout(g: SynchronousGrammar, cut: int, steps: int) -> tuple[int, ...]:
    """Bit offsets of the engine's packed monomial keys.

    A key is one int holding a monomial's counting degree (the sum of
    its bud exponents) and its exponents over ``(*g.buds, *g.markers)``,
    each in a field of its own: the degree's starts at ``shifts[0]`` and
    has no upper end, and the ``i``-th variable's starts at
    ``shifts[i]``, each field below the one before.  While no field
    carries into the next, adding two keys multiplies their monomials,
    and integer order is the order of the tuples ``(degree, *exponents)``,
    so by degree first.

    A bud's field is ``cut.bit_length()`` bits wide and a marker's
    ``(cut * steps).bit_length()`` (one bit at least, for the marker
    variables themselves).  No field carries on a run of steps
    ``0 .. steps`` in which every term and every partial product within
    the cut has degree at most ``cut`` and marker exponents at most
    ``k * cut`` at step ``k``: a bud's exponent is at most the degree.
    :func:`_summed_iterates` and :func:`iterates` each prove both bounds
    for their runs.
    """
    widths = [max(cut, 1).bit_length()] * len(g.buds)
    widths += [max(cut * steps, 1).bit_length()] * len(g.markers)
    shifts = [0]
    for width in reversed(widths):
        shifts.append(shifts[-1] + width)
    return tuple(reversed(shifts))


def _multiply_into(
    out: dict[int, int], left: _Items, right: _Terms, ceiling: int
) -> None:
    """Add ``left * right`` into ``out``, skipping every product whose
    key is at least ``ceiling``, the key of degree one above the cut
    with all exponent fields 0.

    Adding two keys multiplies their monomials.  ``right`` is sorted, so
    once ``k0 + k1`` reaches ``ceiling``, so does every later product;
    its degree is then above the cut, and below it otherwise, since the
    exponent fields of a product within the cut never carry.
    """
    for k0, c0 in left:
        room = ceiling - k0
        for k1, c1 in right:
            if k1 >= room:
                break
            key = k0 + k1
            out[key] = out.get(key, 0) + c0 * c1


def _substitution_iterates(
    g: SynchronousGrammar, cut: int, shifts: tuple[int, ...], start: Iterable[str]
) -> Iterator[list[_Terms]]:
    """The fixed-point iterates ``Q_0, Q_1, ...``, one term list per bud.

    ``Q_0(b)`` is the variable ``b`` for a bud in ``start`` and 0 for the
    others.  ``Q_k(b)`` sums, over the rules of ``b``, the rule's marker
    times the product of ``Q_(k-1)(c)`` over the buds ``c`` on its
    frontier.  With every bud started, ``Q_k(b)`` is the k-th
    substitution iterate of ``b``; with only the axiom started, it is
    that iterate with every other bud set to 0.

    A term is ``(key, coefficient)``, its key packed by the offsets
    ``shifts`` of :func:`_layout`, which the caller lays out for ``cut``
    and for as many steps as it draws.  Every term list is sorted, so by
    degree.  Terms of degree above ``cut`` are dropped inside every
    multiply, which is exact: no factor has negative degree, so a
    dropped partial product has no completion within ``cut``.  Rules
    share frontiers, so each multiset of factors is multiplied out once
    per step.
    """
    top = shifts[0]
    ceiling = (cut + 1) << top
    order = (*g.buds, *g.markers)
    index = {var: i for i, var in enumerate(order)}

    def variable(var: str) -> _Terms:
        degree = int(var in g.buds)
        key = degree << top | 1 << shifts[index[var] + 1]
        return [(key, 1)] if degree <= cut else []

    def factors(rule: Rule) -> tuple[int, ...]:
        names = frontier(rule.tree) + ((rule.marker,) if rule.marker else ())
        return tuple(sorted(index[var] for var in names))

    rules = [[factors(r) for r in g.rules_for(bud)] for bud in g.buds]
    unit = [(0, 1)]
    markers = [variable(m) for m in g.markers]
    live = set(start)
    current = [variable(b) if b in live else [] for b in g.buds]
    while True:
        yield current
        values = current + markers
        products: dict[tuple[int, ...], _Items] = {(): unit}

        def product(key: tuple[int, ...]) -> _Items:
            if len(key) == 1:
                return values[key[0]]
            if key not in products:
                out: dict[int, int] = {}
                _multiply_into(out, product(key[:-1]), values[key[-1]], ceiling)
                products[key] = out.items()
            return products[key]

        nxt = []
        for bud_rules in rules:
            total: dict[int, int] = {}
            for key in bud_rules:
                for term, coeff in product(key):
                    total[term] = total.get(term, 0) + coeff
            nxt.append(sorted(total.items()))
        current = nxt


def _to_polynomial(
    g: SynchronousGrammar, terms: _Items, shifts: tuple[int, ...]
) -> Polynomial:
    """Packed terms, laid out by ``shifts``, as a :class:`Polynomial`,
    merges applied."""
    renames = dict(g.merges)
    fields = [
        (renames.get(var, var), shift, (1 << (above - shift)) - 1)
        for var, above, shift in zip((*g.buds, *g.markers), shifts, shifts[1:])
    ]
    out: dict[Monomial, int] = {}
    for key, coeff in terms:
        exps: dict[str, int] = {}
        for name, shift, mask in fields:
            exp = key >> shift & mask
            if exp:
                exps[name] = exps.get(name, 0) + exp
        mono = Monomial(exps)
        out[mono] = out.get(mono, 0) + coeff
    return Polynomial._from_terms(out, g.markers)


def iterates(g: SynchronousGrammar, count: int) -> list[Polynomial]:
    """Exact substitution iterates ``S^(0) .. S^(count)``.

    ``S^(0)`` is the axiom variable and each step substitutes every bud
    by its rule-evaluation sum.  Presentation renames are applied to the
    returned polynomials.  Runs the engine of :func:`series` with a cut
    that no term reaches, ``cut = max(1, F) ** count`` for ``F`` the
    largest rule frontier, and lays its keys out for that cut:

    - a term of step ``k`` is a marker times at most ``F`` terms of step
      ``k - 1``, so its degree is at most ``max(1, F) ** k <= cut``;
    - its marker exponents are at most ``m_k``, where ``m_0 = 0`` and
      ``m_k <= F * m_(k-1) + 1``, so
      ``m_k <= max(1, F) ** 0 + .. + max(1, F) ** (k-1) <= k * cut``.

    A partial product is a factor of such a term, so within both bounds.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    widest = max(1, *(len(frontier(rule.tree)) for rule in g.rules))
    cut = widest**count
    shifts = _layout(g, cut, count)
    axiom = g.buds.index(g.axiom)
    steps = _substitution_iterates(g, cut, shifts, g.buds)
    return [_to_polynomial(g, next(steps)[axiom], shifts) for _ in range(count + 1)]


def iterate_sum(g: SynchronousGrammar, count: int) -> Polynomial:
    """Sum of the exact iterates ``S^(0) + ... + S^(count)``."""
    total = Polynomial.zero(g.markers)
    for p in iterates(g, count):
        total = total + p
    return total


def _summed_iterates(
    g: SynchronousGrammar, max_degree: int, start: Iterable[str]
) -> tuple[_Items, tuple[int, ...]]:
    """Sum of the axiom's iterates ``Q_k(axiom)`` cut at ``max_degree``,
    as packed terms and the offsets that lay them out.

    Stops once every bud's iterate is empty: with only the axiom started,
    the axiom's iterate can be empty at one step and not at the next.
    The strictness certificate bounds the steps by ``limit`` below, and
    past it :class:`AssertionError` is raised, not asserted, so the
    bound holds under ``python -O``.

    The keys are laid out for degrees at most ``max_degree`` and
    ``limit`` steps.  The cut bounds every degree.  Every rule keeps a
    bud, so a frontier never shrinks: a term of step ``k - 1`` of degree
    ``D`` had at most ``D`` buds rewritten at each of its steps, so its
    marker exponents are at most ``(k - 1) * D``.  A term or partial
    product of step ``k`` within the cut multiplies such terms of total
    degree at most ``max_degree`` by at most one rule marker, so its
    marker exponents are at most ``(k - 1) * max_degree + 1``, which is
    at most ``k * max_degree`` for ``max_degree >= 1``; at
    ``max_degree = 0`` no term of a bud is built at all.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    if not check_strict(g):
        raise CertificateError("grammar carries no strictness certificate")
    axiom = g.buds.index(g.axiom)
    total: dict[int, int] = {}
    limit = (max_degree + 2) * (len(g.buds) + 1)
    shifts = _layout(g, max_degree, limit)
    steps = _substitution_iterates(g, max_degree, shifts, start)
    for _, current in zip(range(limit), steps):
        if not any(current):
            return total.items(), shifts
        for key, coeff in current[axiom]:
            total[key] = total.get(key, 0) + coeff
    raise AssertionError("certified series iteration failed to terminate")


def series(g: SynchronousGrammar, max_degree: int) -> Polynomial:
    """Generating series of the grammar, truncated at ``max_degree``.

    Sums the substitution iterates of the axiom, each truncated at
    ``max_degree``, every bud started as itself.  The iterates live in
    lists of packed monomial keys, one int each (see :func:`_layout`),
    every multiply drops the terms above ``max_degree`` as it goes, and
    the sum becomes a :class:`Polynomial` once, with the presentation
    renames applied.  Requires a strictness certificate: without it the
    iteration need not terminate, and :class:`CertificateError` is
    raised up front.
    """
    return _to_polynomial(g, *_summed_iterates(g, max_degree, g.buds))


def _specialized_series(
    g: SynchronousGrammar, max_degree: int, assignments: dict[str, int]
) -> Polynomial:
    """``series(g, max_degree).specialize(assignments)``, whose keys name
    the series' variables: buds under their merged names, and markers.

    A bud whose name is set to 0 is started at 0, which is that
    specialization of every iterate, so its terms are never built; the
    specialization then applies every assignment, markers included.
    """
    renames = dict(g.merges)
    start = [b for b in g.buds if assignments.get(renames.get(b, b)) != 0]
    poly = _to_polynomial(g, *_summed_iterates(g, max_degree, start))
    return poly.specialize(assignments) if assignments else poly


def counting_series(g: SynchronousGrammar, max_degree: int) -> Polynomial:
    """The series with every bud but the axiom set to 0, markers kept.

    Equals ``series(g, max_degree)`` specialized at 0 on every other bud,
    but starts the iteration at that point, so each iterate is a
    polynomial in the axiom and the markers alone.  Presentation renames
    are not applied: the one bud left is the axiom, under its own name.
    For the builtin grammars, the ``x^(n+1)`` coefficients are the counts
    the library checks.  Requires a strictness certificate, as
    :func:`series` does.
    """
    terms = _summed_iterates(g, max_degree, (g.axiom,))
    return _to_polynomial(replace(g, merges=()), *terms)


def imbalance_grammar(values: Iterable[int]) -> SynchronousGrammar:
    """Grammar of the trees whose every imbalance lies in ``values``.

    ``values`` is a finite set of integers containing 0.  With ``k`` the
    largest ``|v|``, the buds are the axiom ``x`` and the delay buds
    ``y``, ``y2`` .. ``yk``, with rules ``y -> <x>`` and
    ``yi -> <y(i-1)>``: a delay bud of depth ``d`` becomes ``x`` after
    ``d`` steps, so its subtree is ``d`` levels shorter than its sibling's.
    Each value ``v``, in ascending order, gives one rule of ``x``: a
    node labeled ``v`` whose lower child is the bud of depth ``|v|``
    (``x`` itself for 0), on the right for ``v < 0`` and on the left
    otherwise.  Raises :class:`GrammarError` when 0 is missing, since a
    tree with at most one node has imbalance 0.
    """
    values = sorted(set(values))
    if 0 not in values:
        raise GrammarError(f"an imbalance set must contain 0, got {values}")
    depth = max(-values[0], values[-1])
    buds = ("x", "y", *(f"y{d}" for d in range(2, depth + 1)))
    x = Bud("x")
    rules = []
    for v in values:
        lower = Bud(buds[abs(v)])
        rules.append(Rule("x", BudNode(v, (x, lower) if v < 0 else (lower, x))))
    rules.extend(Rule(buds[d], Bud(buds[d - 1])) for d in range(1, depth + 1))
    return SynchronousGrammar(buds=buds[: depth + 1], axiom="x", rules=tuple(rules))


def _node(label, *children, marked=False) -> BudNode:
    return BudNode(label, tuple(children), marked)


def _epl() -> SynchronousGrammar:
    x, y = Bud("x"), Bud("y")
    return SynchronousGrammar(
        buds=("x", "y"),
        axiom="x",
        rules=(
            Rule("x", _node(2, x, y)),
            Rule("x", _node(3, x, y, x)),
            Rule("y", x),
        ),
        name="epl",
    )


def _perf() -> SynchronousGrammar:
    x = Bud("x")
    return SynchronousGrammar(
        buds=("x",),
        axiom="x",
        rules=(Rule("x", _node(None, x, x)),),
        name="perf",
    )


def _bal23() -> SynchronousGrammar:
    x = Bud("x")
    return SynchronousGrammar(
        buds=("x",),
        axiom="x",
        rules=(
            Rule("x", _node(2, x, x)),
            Rule("x", _node(3, x, x, x)),
        ),
        name="bal23",
    )


def _max() -> SynchronousGrammar:
    x, y, z = Bud("x"), Bud("y"), Bud("z")
    return SynchronousGrammar(
        buds=("x", "y", "z"),
        axiom="x",
        rules=(
            Rule("x", _node(0, x, x)),
            Rule("x", _node(1, y, x)),
            Rule("x", _node(-1, z, y)),
            Rule("y", x),
            Rule("z", _node(1, y, x)),
        ),
        name="max",
    )


def _bi() -> SynchronousGrammar:
    x, y, z = Bud("x"), Bud("y"), Bud("z")
    return SynchronousGrammar(
        buds=("x", "y", "z"),
        axiom="x",
        rules=(
            Rule("x", _node(-1, x, y)),
            Rule("x", _node(0, x, x)),
            Rule("x", _node(1, y, x)),
            Rule("x", _node(-1, z, y, marked=True)),
            Rule("y", x),
            Rule("z", _node(0, x, x)),
            Rule("z", _node(-1, x, y)),
        ),
        name="bi",
    )


def _mbi_rules() -> tuple[Rule, ...]:
    x, y, z, u, v = Bud("x"), Bud("y"), Bud("z"), Bud("u"), Bud("v")
    return (
        Rule("x", _node(-1, v, y)),
        Rule("x", _node(0, x, x)),
        Rule("x", _node(1, y, u)),
        Rule("x", _node(-1, z, y, marked=True)),
        Rule("y", x),
        Rule("z", _node(-1, x, y)),
        Rule("z", _node(0, x, x)),
        Rule("u", _node(-1, v, y)),
        Rule("u", _node(-1, z, y, marked=True)),
        Rule("v", _node(1, y, u)),
        Rule("v", _node(-1, z, y, marked=True)),
    )


def _mbi() -> SynchronousGrammar:
    return SynchronousGrammar(
        buds=("x", "y", "z", "u", "v"),
        axiom="x",
        rules=_mbi_rules(),
        merges=(("u", "t"), ("v", "t")),
        name="mbi",
    )


def _mbi_xi() -> SynchronousGrammar:
    return SynchronousGrammar(
        buds=("x", "y", "z", "u", "v"),
        axiom="x",
        rules=tuple(
            Rule(r.bud, r.tree, "xi" if _is_marked_root(r.tree) else None)
            for r in _mbi_rules()
        ),
        markers=("xi",),
        merges=(("u", "t"), ("v", "t")),
        name="mbi_xi",
    )


def _is_marked_root(tree: BudTree) -> bool:
    return isinstance(tree, BudNode) and tree.marked


_BUILDERS: dict[str, Callable[[], SynchronousGrammar]] = {
    "epl": _epl,
    "perf": _perf,
    "bal23": _bal23,
    "bal": lambda: replace(imbalance_grammar({-1, 0, 1}), name="bal"),
    "max": _max,
    "bi": _bi,
    "mbi": _mbi,
    "mbi_xi": _mbi_xi,
    "bal01": lambda: replace(imbalance_grammar({0, 1}), name="bal01"),
}


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


@cache
def builtin_grammar(name: str) -> SynchronousGrammar:
    """Look up a packaged grammar by id, building it on first use.

    Available ids: epl, perf, bal23, bal, max, bi, mbi, mbi_xi, bal01.
    """
    build = _BUILDERS.get(name)
    if build is None:
        raise GrammarError(
            f"unknown builtin {name!r}; choose from {', '.join(builtin_names())}"
        )
    return build()


_LABEL_RE = re.compile(r"-?\d+\*?$")


def _parse_bud_tree(tokens: list[str], pos: int, where: str) -> tuple[BudTree, int]:
    if pos >= len(tokens):
        raise GrammarError(f"unexpected end of rule in {where}")
    tok = tokens[pos]
    if tok.startswith("<") and tok.endswith(">") and len(tok) > 2:
        return Bud(tok[1:-1]), pos + 1
    if tok != "[":
        raise GrammarError(f"unexpected token {tok!r} in {where}")
    pos += 1
    label: int | None = None
    marked = False
    if pos < len(tokens) and (tokens[pos] == "*" or _LABEL_RE.match(tokens[pos])):
        head = tokens[pos]
        marked = head.endswith("*")
        if head != "*":
            label = int(head.rstrip("*"))
        pos += 1
    children: list[BudTree] = []
    while pos < len(tokens) and tokens[pos] != "]":
        child, pos = _parse_bud_tree(tokens, pos, where)
        children.append(child)
    if pos >= len(tokens):
        raise GrammarError(f"missing ']' in {where}")
    return BudNode(label, tuple(children), marked), pos + 1


def parse_bud_tree(text: str) -> BudTree:
    """Parse one bud-tree literal, e.g. ``[0 <x> [1* <y> <x>]]``."""
    tokens = text.replace("[", " [ ").replace("]", " ] ").split()
    tree, pos = _parse_bud_tree(tokens, 0, repr(text))
    if pos != len(tokens):
        raise GrammarError(f"trailing tokens in {text!r}")
    return tree


def parse_grammar(text: str) -> SynchronousGrammar:
    """Parse the grammar file format.

    Header lines ``buds:``, ``axiom:``, then optional ``counting:``,
    ``markers:`` and ``merge:`` lines, then rule lines like
    ``x -> [0 <x> <x>] | [1 <y> <x>] @xi``.  Blank lines and ``#``
    comments are ignored.
    """
    buds: tuple[str, ...] | None = None
    axiom: str | None = None
    counting: tuple[str, ...] | None = None
    markers: tuple[str, ...] = ()
    merges: list[tuple[str, str]] = []
    rules: list[Rule] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        if line.startswith("buds:"):
            buds = tuple(line[len("buds:"):].split())
        elif line.startswith("axiom:"):
            parts = line[len("axiom:"):].split()
            if len(parts) != 1:
                raise GrammarError(f"axiom needs one bud ({where})")
            axiom = parts[0]
        elif line.startswith("counting:"):
            counting = tuple(line[len("counting:"):].split())
        elif line.startswith("markers:"):
            markers = tuple(line[len("markers:"):].split())
        elif line.startswith("merge:"):
            parts = line[len("merge:"):].split()
            if len(parts) != 2:
                raise GrammarError(f"merge needs two names ({where})")
            merges.append((parts[0], parts[1]))
        elif "->" in line:
            head, _, body = line.partition("->")
            bud = head.strip()
            if not bud:
                raise GrammarError(f"rule without a bud ({where})")
            for alt in body.split("|"):
                alt = alt.strip()
                marker = None
                if "@" in alt:
                    alt, _, marker_text = alt.partition("@")
                    alt = alt.strip()
                    marker = marker_text.strip()
                    if not marker:
                        raise GrammarError(f"empty marker name ({where})")
                if not alt:
                    raise GrammarError(f"empty rule alternative ({where})")
                rules.append(Rule(bud, parse_bud_tree(alt), marker))
        else:
            raise GrammarError(f"unrecognized line {line!r} ({where})")
    if buds is None:
        raise GrammarError("missing buds: header")
    if axiom is None:
        raise GrammarError("missing axiom: header")
    if counting is not None and set(counting) != set(buds):
        raise GrammarError("counting: must list exactly the buds")
    return SynchronousGrammar(
        buds=buds,
        axiom=axiom,
        rules=tuple(rules),
        markers=markers,
        merges=tuple(merges),
    )


def render_grammar(g: SynchronousGrammar) -> str:
    """Canonical grammar file text; ``parse_grammar`` inverts it."""
    lines = [
        "buds: " + " ".join(g.buds),
        "axiom: " + g.axiom,
        "counting: " + " ".join(g.buds),
    ]
    if g.markers:
        lines.append("markers: " + " ".join(g.markers))
    for old, new in g.merges:
        lines.append(f"merge: {old} {new}")
    for bud in g.buds:
        alts = []
        for rule in g.rules_for(bud):
            alt = str(rule.tree)
            if rule.marker is not None:
                alt += f" @{rule.marker}"
            alts.append(alt)
        lines.append(f"{bud} -> " + " | ".join(alts))
    return "\n".join(lines) + "\n"
