"""Independent oracles and reference data for the benchmark.

Nothing in this module imports ``tamari_balance``: every value the
benchmark checks the library against is recomputed here from the
definitions, from closed forms, or copied from a published table.

Trees are handled as tree strings in the library's public format (``.``
for the empty tree, ``(<left><right>)`` for a node) and, internally, as
nested tuples: ``None`` is the empty tree and ``(left, right)`` a node.
"""

from __future__ import annotations

import random
from math import comb, factorial

# ---------------------------------------------------------------------------
# Reference sequences, indexed by node count unless stated otherwise.

# Balanced (AVL) binary trees by node count: OEIS A006265.
BALANCED_COUNTS = (
    1, 1, 2, 1, 4, 6, 4, 17, 32, 44, 60, 70, 184, 476, 872, 1553, 2720,
    4288, 6312, 9004,
)

# The paper's tables.  Maximal balanced trees (no conservative rotation
# keeps them balanced), by node count.
MAXIMAL_BALANCED_COUNTS = (
    1, 1, 1, 1, 2, 2, 2, 4, 6, 9, 11, 13, 22, 38, 60, 89, 128, 183, 256,
    353, 512, 805, 1336, 2221, 3594, 5665, 8774, 13433, 20359, 30550,
    45437, 67086, 98491, 144492, 213876,
)

# Intervals of the rotation order whose members are all balanced.
BALANCED_INTERVAL_COUNTS = (
    1, 1, 3, 1, 7, 12, 6, 52, 119, 137, 195, 231, 1019, 3503, 6593,
    12616, 26178, 43500, 64157, 94688, 232560, 817757, 2233757, 5179734,
    11676838, 24867480,
)

# Balanced intervals with a minimal lower end and a maximal upper end.
MAXIMAL_INTERVAL_COUNTS = (
    1, 1, 1, 1, 3, 2, 2, 6, 9, 15, 15, 17, 41, 77, 125, 178, 252, 376,
    531, 740, 1192, 2179, 4273, 7738, 13012, 20776, 32389, 49841, 75457,
    113011, 168888, 252881, 379348,
)

# Maximal balanced intervals by hypercube dimension, keyed by leaf count
# (node count + 1): {dimension: count}.
MAXIMAL_INTERVAL_DIMENSIONS = {
    1: {0: 1}, 2: {0: 1}, 3: {1: 1}, 4: {0: 1}, 5: {1: 3},
    6: {1: 1, 2: 1}, 7: {1: 2}, 8: {0: 1, 2: 4, 3: 1},
    9: {1: 4, 2: 4, 4: 1}, 10: {1: 3, 2: 9, 3: 3}, 11: {2: 9, 3: 6},
    12: {1: 1, 2: 13, 3: 2, 4: 1}, 13: {1: 6, 2: 4, 3: 16, 4: 15},
    14: {1: 2, 2: 18, 3: 31, 4: 12, 5: 14},
}

# Trees whose every imbalance lies in {0, 1}, by node count.
ZERO_ONE_BALANCED_COUNTS = (
    1, 1, 1, 1, 1, 2, 2, 2, 3, 5, 7, 9, 11, 13, 17, 26, 42, 66, 97, 134,
    180, 241, 321, 424, 564, 774, 1111,
)

# 2-3 trees (all leaves at one depth) by leaf count: OEIS A014535.
TWO_THREE_COUNTS = (
    0, 1, 1, 1, 1, 2, 2, 3, 4, 5, 8, 14, 23, 32, 43, 63, 97, 149, 224,
    332, 489,
)


# ---------------------------------------------------------------------------
# Closed forms


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def narayana(n: int, k: int) -> int:
    """Trees with ``n`` nodes of which ``k`` have a nonempty right subtree."""
    return comb(n, k + 1) * comb(n, k) // n


def chapoton(n: int) -> int:
    """Number of intervals of the rotation order on ``n``-node trees."""
    return 2 * factorial(4 * n + 1) // (factorial(n + 1) * factorial(3 * n + 2))


def fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def interior_count(h: int) -> int:
    """Right-interior balanced trees of height ``h``: 2^fib(h-3) from h=3."""
    return (1, 1, 2)[h] if h < 3 else 2 ** fib(h - 3)


# ---------------------------------------------------------------------------
# Trees


def parse(text: str):
    stack: list[list] = [[]]
    for c in text:
        if c == "(":
            stack.append([])
        elif c == ".":
            stack[-1].append(None)
        elif c == ")":
            left, right = stack.pop()
            stack[-1].append((left, right))
        else:
            raise ValueError(f"bad character {c!r} in tree string")
    (tree,) = stack.pop()
    if stack:
        raise ValueError("unbalanced tree string")
    return tree


def render(t) -> str:
    return "." if t is None else "(" + render(t[0]) + render(t[1]) + ")"


def size(t) -> int:
    return 0 if t is None else 1 + size(t[0]) + size(t[1])


def height(t) -> int:
    return 0 if t is None else 1 + max(height(t[0]), height(t[1]))


def imbalances(text: str) -> tuple[int, int, list[int]]:
    """Node count, height and the imbalance of every node of a tree string.

    One pass over the string, so large families check quickly.
    """
    heights: list[int] = []
    out: list[int] = []
    nodes = 0
    for c in text:
        if c == ".":
            heights.append(0)
        elif c == ")":
            right = heights.pop()
            left = heights.pop()
            out.append(right - left)
            heights.append(1 + (left if left > right else right))
            nodes += 1
    (h,) = heights
    return nodes, h, out


def bracket_vector(t) -> tuple[int, ...]:
    """Right-subtree size of every node, nodes in infix order.

    Huang and Tamari (1972): ``s <= t`` in the rotation order exactly when
    the vector of ``s`` is componentwise at most that of ``t``.
    """
    out: list[int] = []

    def walk(u) -> int:
        if u is None:
            return 0
        left = walk(u[0])
        slot = len(out)
        out.append(0)
        right = walk(u[1])
        out[slot] = right
        return left + 1 + right

    walk(t)
    return tuple(out)


def below(v, w) -> bool:
    return all(a <= b for a, b in zip(v, w))


def from_bracket_vector(v) -> object:
    """The tree whose bracket vector is ``v``."""

    def build(a: int, b: int):
        # Nodes a..b (1-based) form a subtree; its root is the leftmost
        # node whose right subtree reaches b.
        if a > b:
            return None
        k = next(i for i in range(a, b + 1) if i + v[i - 1] == b)
        return (build(a, k - 1), build(k + 1, b))

    return build(1, len(v))


def vectors_between(lo, hi, max_sum: int | None = None):
    """Every bracket vector ``v`` with ``lo <= v <= hi`` componentwise,
    and with ``sum(v) <= max_sum`` when that is given.

    A vector is a bracket vector when ``v[i] <= n - i`` and the spans
    ``[i, i + v[i]]`` are nested or disjoint.  The sum of a bracket
    vector is the right-subtree weight that every rotation increases.
    """
    n = len(lo)
    v = [0] * n
    rest = [sum(lo[i:]) for i in range(n + 1)]
    budget = rest[0] + n * n if max_sum is None else max_sum

    def extend(i: int, ends: list[int], used: int):
        if i == n:
            yield tuple(v)
            return
        pos = i + 1
        open_ends = [e for e in ends if e >= pos]
        cap = min(open_ends) if open_ends else n
        top = min(hi[i], cap - pos, budget - used - rest[i + 1])
        for r in range(lo[i], top + 1):
            v[i] = r
            yield from extend(
                i + 1, open_ends + [pos + r] if r else open_ends, used + r
            )

    yield from extend(0, [], 0)


def top_vector(n: int) -> tuple[int, ...]:
    """Bracket vector of the right comb, the greatest tree."""
    return tuple(n - 1 - i for i in range(n))


def right_rotation(t, rank: int):
    """Rotate ``((A x B) y C)`` into ``(A x (B y C))`` at the node ``y``."""
    left, right = t
    here = size(left) + 1
    if rank < here:
        return (right_rotation(left, rank), right)
    if rank > here:
        return (left, right_rotation(right, rank - here))
    a, b = left
    return (a, (b, right))


def rotation_ranks(t) -> list[int]:
    """Infix ranks of the nodes with a nonempty left subtree."""
    out: list[int] = []

    def walk(u, base: int) -> int:
        if u is None:
            return 0
        left = walk(u[0], base)
        if left:
            out.append(base + left + 1)
        return left + 1 + walk(u[1], base + left + 1)

    walk(t, 0)
    return out


def is_balanced(t) -> bool:
    return all(-1 <= i <= 1 for i in imbalances(render(t))[2])


def balanced_covers(t) -> list:
    """Right rotations of a balanced tree that leave it balanced."""
    out = []
    for rank in rotation_ranks(t):
        u = right_rotation(t, rank)
        if is_balanced(u):
            out.append(u)
    return out


# ---------------------------------------------------------------------------
# Imbalance families by (size, height)


def family_table(n_max: int, allowed) -> dict[tuple[int, int], int]:
    """Number of trees with each (node count, height) whose imbalances
    all lie in ``allowed``."""
    table = {(0, 0): 1}
    for n in range(1, n_max + 1):
        for nl in range(n):
            nr = n - 1 - nl
            for (a, hl), cl in list(table.items()):
                if a != nl:
                    continue
                for (b, hr), cr in list(table.items()):
                    if b != nr or hr - hl not in allowed:
                        continue
                    key = (n, 1 + max(hl, hr))
                    table[key] = table.get(key, 0) + cl * cr
    return table


def family_counts(n_max: int, allowed) -> list[int]:
    table = family_table(n_max, allowed)
    totals = [0] * (n_max + 1)
    for (n, _), count in table.items():
        totals[n] += count
    return totals


def _balanced_splits(m: int, h: int):
    """``(left size, left height, right height)`` of the balanced trees
    with ``m`` nodes and height ``h``."""
    for ml in range(m):
        for hl in (h - 1, h - 2):
            for hr in (h - 1, h - 2):
                if max(hl, hr) == h - 1 and min(hl, hr) >= 0:
                    yield ml, hl, hr


def _pick(rng: random.Random, weighted):
    """One item of ``(weight, item)`` pairs, drawn by weight."""
    weighted = list(weighted)
    pick = rng.randrange(sum(w for w, _ in weighted))
    for w, item in weighted:
        if pick < w:
            return item
        pick -= w
    raise AssertionError("unreachable")


def balanced_trees(n: int) -> list:
    """All balanced trees with ``n`` nodes, built by height."""
    memo: dict[tuple[int, int], list] = {(0, 0): [None]}

    def of(m: int, h: int) -> list:
        if (m, h) not in memo:
            memo[m, h] = [
                (left, right)
                for ml, hl, hr in (_balanced_splits(m, h) if m else ())
                for left in of(ml, hl)
                for right in of(m - 1 - ml, hr)
            ]
        return memo[m, h]

    return [t for h in range(n + 1) for t in of(n, h)]


def random_balanced_tree(rng: random.Random, n: int):
    """A uniformly drawn balanced tree with ``n`` nodes."""
    table = family_table(n, {-1, 0, 1})

    def draw(m: int, h: int):
        if m == 0:
            return None
        ml, hl, hr = _pick(
            rng,
            (
                (table.get((ml, hl), 0) * table.get((m - 1 - ml, hr), 0), (ml, hl, hr))
                for ml, hl, hr in _balanced_splits(m, h)
            ),
        )
        return (draw(ml, hl), draw(m - 1 - ml, hr))

    return draw(n, _pick(rng, ((c, h) for (m, h), c in sorted(table.items()) if m == n)))


def random_tree(rng: random.Random, n: int):
    """A uniformly drawn tree with ``n`` nodes (Catalan-weighted splits)."""
    if n == 0:
        return None
    nl = _pick(rng, ((catalan(nl) * catalan(n - 1 - nl), nl) for nl in range(n)))
    return (random_tree(rng, nl), random_tree(rng, n - 1 - nl))


# ---------------------------------------------------------------------------
# 2-3 trees


def two_three_counts(max_leaves: int) -> list[int]:
    """2-3 trees by leaf count, one level at a time: a tree one level
    taller replaces every leaf by two or three leaves."""
    totals = [0] * (max_leaves + 1)
    level = {1: 1}
    while level:
        for leaves, count in level.items():
            totals[leaves] += count
        nxt: dict[int, int] = {}
        for leaves, count in level.items():
            # Each of the `leaves` leaves splits in 2 or 3: choose how
            # many split in 3.
            for threes in range(leaves + 1):
                total = 2 * leaves + threes
                if total <= max_leaves:
                    nxt[total] = nxt.get(total, 0) + count * comb(leaves, threes)
        level = nxt
    return totals


# ---------------------------------------------------------------------------
# Grammar series


# The builtin grammars as substitution data: for each bud, the frontier of
# every rule (bud names left to right) and the marker the rule carries.
# Copied from the grammar definitions in the paper, not from the library.
_MBI_RULES = {
    "x": [("vy", None), ("xx", None), ("yu", None), ("zy", "xi")],
    "y": [("x", None)],
    "z": [("xy", None), ("xx", None)],
    "u": [("vy", None), ("zy", "xi")],
    "v": [("yu", None), ("zy", "xi")],
}
GRAMMARS = {
    "epl": {"x": [("xy", None), ("xyx", None)], "y": [("x", None)]},
    "perf": {"x": [("xx", None)]},
    "bal23": {"x": [("xx", None), ("xxx", None)]},
    "bal": {"x": [("xy", None), ("xx", None), ("yx", None)], "y": [("x", None)]},
    "max": {
        "x": [("xx", None), ("yx", None), ("zy", None)],
        "y": [("x", None)],
        "z": [("yx", None)],
    },
    "bi": {
        "x": [("xy", None), ("xx", None), ("yx", None), ("zy", None)],
        "y": [("x", None)],
        "z": [("xx", None), ("xy", None)],
    },
    "mbi": {b: [(f, None) for f, _ in rules] for b, rules in _MBI_RULES.items()},
    "mbi_xi": _MBI_RULES,
    "bal01": {"x": [("xx", None), ("yx", None)], "y": [("x", None)]},
}
# Buds shown under one name in the series of a grammar.
GRAMMAR_MERGES = {"mbi": {"u": "t", "v": "t"}, "mbi_xi": {"u": "t", "v": "t"}}
MARKERS = frozenset({"xi"})


def grammar_series(name: str, max_degree: int) -> dict[tuple, int]:
    """Generating series of a builtin grammar up to ``max_degree``.

    Sums the iterates of the simultaneous substitution of every bud by
    the evaluations of its rules, starting from the bud ``x``, dropping
    terms whose degree in the buds exceeds ``max_degree``.  Keys are
    monomials as sorted ``(variable, exponent)`` tuples.
    """
    rules = GRAMMARS[name]
    names = sorted(rules) + sorted(MARKERS)
    index = {v: i for i, v in enumerate(names)}
    counting = [v not in MARKERS for v in names]

    def degree(mono) -> int:
        return sum(e for e, c in zip(mono, counting) if c)

    def mul(p, q):
        out: dict[tuple, int] = {}
        for m0, c0 in p.items():
            d0 = degree(m0)
            for m1, c1 in q.items():
                if d0 + degree(m1) > max_degree:
                    continue
                m = tuple(a + b for a, b in zip(m0, m1))
                out[m] = out.get(m, 0) + c0 * c1
        return out

    def mono(**exps):
        m = [0] * len(names)
        for v, e in exps.items():
            m[index[v]] += e
        return tuple(m)

    subs = {}
    for bud, alternatives in rules.items():
        poly: dict[tuple, int] = {}
        for frontier, marker in alternatives:
            m = [0] * len(names)
            for b in frontier:
                m[index[b]] += 1
            if marker:
                m[index[marker]] += 1
            poly[tuple(m)] = poly.get(tuple(m), 0) + 1
        subs[bud] = poly
    powers: dict[tuple[str, int], dict] = {}

    def power(bud: str, e: int):
        if e == 0:
            return {mono(): 1}
        if (bud, e) not in powers:
            powers[bud, e] = mul(power(bud, e - 1), subs[bud])
        return powers[bud, e]

    total: dict[tuple, int] = {}
    current = {mono(x=1): 1} if max_degree >= 1 else {}
    while current:
        for m, c in current.items():
            total[m] = total.get(m, 0) + c
        nxt: dict[tuple, int] = {}
        for m, c in current.items():
            term = {tuple(e if v in MARKERS else 0 for v, e in zip(names, m)): c}
            for v, e in zip(names, m):
                if e and v not in MARKERS:
                    term = mul(term, power(v, e))
            for k, val in term.items():
                nxt[k] = nxt.get(k, 0) + val
        current = {k: v for k, v in nxt.items() if v}
    merges = GRAMMAR_MERGES.get(name, {})
    out: dict[tuple, int] = {}
    for m, c in total.items():
        exps: dict[str, int] = {}
        for v, e in zip(names, m):
            if e:
                key = merges.get(v, v)
                exps[key] = exps.get(key, 0) + e
        k = tuple(sorted(exps.items()))
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}
