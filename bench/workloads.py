"""The benchmark's workloads: the jobs each one runs and how each job's
output is checked.

A job is one call into the library (or into ``cli.main``) made in a fresh
interpreter by ``job.py``.  Every job here carries a check that recomputes
the expected answer with ``oracles`` or tests a property the answer must
have; none of them compares against a saved copy of an earlier output.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from itertools import islice
from typing import Callable

import oracles as o

WORKLOADS = ("poset-sweep", "grammar-series", "tree-enumeration", "order-queries")


@dataclass(frozen=True)
class Job:
    """One operation: what ``job.py`` runs and how its output is judged.

    ``check`` returns a list of problems; an empty list means correct.
    """

    name: str
    spec: dict
    check: Callable[[object], list[str]]


def _cli(name: str, argv: list[str], check: Callable[[dict], list[str]]) -> Job:
    def judge(output) -> list[str]:
        if output["code"] != 0:
            return [f"exit code {output['code']}"]
        try:
            payload = json.loads(output["stdout"])
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        return check(payload)

    return Job(name, {"kind": "cli", "argv": argv}, judge)


def _expect(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, expected {want!r}"]


# ---------------------------------------------------------------------------
# poset-sweep


def _check_closure(max_n: int):
    def check(payload: dict) -> list[str]:
        problems = _expect("verdict", payload.get("verdict"), "PASS")
        rows = payload.get("results", [])
        problems += _expect("sizes", [r["n"] for r in rows], list(range(max_n + 1)))
        bad = [r["n"] for r in rows if r["counterexample"] is not None]
        return problems + _expect("sizes with a counterexample", bad, [])

    return check


def _check_hypercube(max_n: int):
    def check(payload: dict) -> list[str]:
        problems = _expect("verdict", payload.get("verdict"), "PASS")
        rows = payload.get("results", [])
        problems += _expect("sizes", [r["n"] for r in rows], list(range(max_n + 1)))
        for r in rows:
            n = r["n"]
            problems += _expect(f"trees at n={n}", r["trees"], o.BALANCED_COUNTS[n])
            problems += _expect(
                f"intervals at n={n}", r["intervals"], o.BALANCED_INTERVAL_COUNTS[n]
            )
            total = sum(d["count"] for d in r["dimensions"])
            problems += _expect(f"dimension total at n={n}", total, r["intervals"])
            problems += _expect(f"failing at n={n}", r["failing"], None)
        return problems

    return check


def _check_enum(family: str, expected: list[int]):
    def check(payload: dict) -> list[str]:
        computed = [row["computed"] for row in payload.get("rows", [])]
        return _expect(f"{family} counts", computed, expected)

    return check


def poset_sweep(max_n: int = 10) -> list[Job]:
    top = max_n + 1
    return [
        _cli(
            "check-closure-balanced",
            ["check", "closure-balanced", "--max-n", str(max_n), "--json"],
            _check_closure(max_n),
        ),
        _cli(
            "check-hypercube",
            ["check", "hypercube", "--max-n", str(max_n), "--json"],
            _check_hypercube(max_n),
        ),
        _cli(
            "enum-balanced-intervals",
            ["enum", "balanced-intervals", "--max-n", str(max_n), "--json"],
            _check_enum("balanced-intervals", list(o.BALANCED_INTERVAL_COUNTS[:top])),
        ),
        _cli(
            "enum-maximal-intervals",
            ["enum", "maximal-intervals", "--max-n", str(max_n), "--json"],
            _check_enum("maximal-intervals", list(o.MAXIMAL_INTERVAL_COUNTS[:top])),
        ),
    ]


# ---------------------------------------------------------------------------
# grammar-series

# Degrees chosen so each series takes a share of the round; mbi_xi and mbi
# dominate, as they do for the interval counters.
SERIES_DEGREES = {
    "mbi_xi": 10, "mbi": 11, "bi": 13, "max": 15, "bal": 26, "epl": 24,
    "bal23": 40, "perf": 64, "bal01": 26,
}
_BALANCED_ENUM_MAX = 19
_MAXIMAL_ENUM_MAX = 13


def _terms(payload: dict) -> dict[tuple, int]:
    out: dict[tuple, int] = {}
    for term in payload["terms"]:
        key = tuple(sorted(term["monomial"].items()))
        out[key] = out.get(key, 0) + term["coefficient"]
    return out


def _x_only(terms: dict[tuple, int]) -> dict[int, int]:
    """Coefficients of the pure powers of ``x`` (every other variable
    set to 0), by exponent."""
    return {
        dict(mono)["x"]: c
        for mono, c in terms.items()
        if mono and all(v == "x" for v, _ in mono)
    }


def _slice(what: str, terms, reference, degree: int, shift: int = 1) -> list[str]:
    """Compare ``x^(n + shift)`` coefficients against ``reference[n]``."""
    got = _x_only(terms)
    problems = []
    for n, want in enumerate(reference):
        if n + shift <= degree and got.get(n + shift, 0) != want:
            problems.append(f"{what} at n={n}: got {got.get(n + shift, 0)}, expected {want}")
    return problems


def _check_series(name: str, degree: int):
    expected = o.grammar_series(name, degree)

    def check(payload: dict) -> list[str]:
        terms = _terms(payload)
        problems = []
        if terms != expected:
            diff = sorted(set(terms.items()) ^ set(expected.items()))[:3]
            problems.append(f"series {name} differs from the oracle, e.g. {diff}")
        if name == "bal":
            bal = o.family_counts(degree - 1, {-1, 0, 1})
            problems += _slice("balanced trees", terms, bal, degree)
        elif name == "bal01":
            zo = o.family_counts(degree - 1, {0, 1})
            problems += _slice("{0,1} trees", terms, zo, degree)
        elif name == "max":
            problems += _slice("maximal balanced", terms, o.MAXIMAL_BALANCED_COUNTS, degree)
        elif name == "bi":
            problems += _slice("balanced intervals", terms, o.BALANCED_INTERVAL_COUNTS, degree)
        elif name == "mbi":
            problems += _slice("maximal intervals", terms, o.MAXIMAL_INTERVAL_COUNTS, degree)
        elif name == "mbi_xi":
            # xi marks the dimension: summing it out gives the mbi series.
            summed: dict[tuple, int] = {}
            by_dim: dict[int, dict[int, int]] = {}
            for mono, c in terms.items():
                exps = dict(mono)
                xi = exps.pop("xi", 0)
                key = tuple(sorted(exps.items()))
                summed[key] = summed.get(key, 0) + c
                if set(exps) == {"x"}:
                    by_dim.setdefault(exps["x"], {})[xi] = c
            if summed != o.grammar_series("mbi", degree):
                problems.append("mbi_xi at xi=1 differs from the mbi series")
            for leaves, dims in o.MAXIMAL_INTERVAL_DIMENSIONS.items():
                if leaves <= degree and by_dim.get(leaves, {}) != dims:
                    problems.append(f"dimensions at {leaves} leaves: {by_dim.get(leaves)}")
        elif name == "bal23":
            problems += _slice(
                "2-3 trees", terms, o.two_three_counts(degree), degree, shift=0
            )
        elif name == "perf":
            powers = {2**h: 1 for h in range(degree.bit_length()) if 2**h <= degree}
            problems += _expect("perfect trees", _x_only(terms), powers)
        return problems

    return check


def grammar_series(degrees: dict[str, int] = SERIES_DEGREES) -> list[Job]:
    jobs = [
        _cli(
            f"series-{name}",
            ["series", "--builtin", name, "--degree", str(d), "--json"],
            _check_series(name, d),
        )
        for name, d in degrees.items()
    ]
    bal = o.family_counts(_BALANCED_ENUM_MAX, {-1, 0, 1})
    jobs.append(
        _cli(
            "enum-balanced",
            ["enum", "balanced", "--max-n", str(_BALANCED_ENUM_MAX), "--json"],
            _check_enum("balanced", bal),
        )
    )
    jobs.append(
        _cli(
            "enum-maximal-balanced",
            ["enum", "maximal-balanced", "--max-n", str(_MAXIMAL_ENUM_MAX), "--json"],
            _check_enum(
                "maximal-balanced", list(o.MAXIMAL_BALANCED_COUNTS[: _MAXIMAL_ENUM_MAX + 1])
            ),
        )
    )
    return jobs


# ---------------------------------------------------------------------------
# tree-enumeration

_DOT_NODE = re.compile(r'^\s*(n\d+) \[label="([().]*)"')
_DOT_EDGE = re.compile(r"^\s*(n\d+) -> (n\d+);")


def _check_hasse_balanced(n: int):
    trees = o.balanced_trees(n)
    want_nodes = {o.render(t) for t in trees}
    want_edges = {
        (o.render(t), o.render(u)) for t in trees for u in o.balanced_covers(t)
    }

    def check(payload: dict) -> list[str]:
        names: dict[str, str] = {}
        edges = set()
        for line in payload["dot"].splitlines():
            if m := _DOT_NODE.match(line):
                names[m.group(1)] = m.group(2)
            elif m := _DOT_EDGE.match(line):
                edges.add((names.get(m.group(1)), names.get(m.group(2))))
        problems = _expect("node count", payload["nodes"], o.BALANCED_COUNTS[n])
        problems += _expect("edge count", payload["edges"], len(want_edges))
        if len(set(names.values())) != len(names):
            problems.append("a tree is listed twice")
        if set(names.values()) != want_nodes:
            problems.append("nodes are not the balanced trees")
        if edges != want_edges:
            problems.append("edges are not the balance-preserving rotations")
        return problems

    return check


def _check_family(max_n: int, allowed: set[int]):
    counts = o.family_counts(max_n, allowed)

    def check(rows: list[list[str]]) -> list[str]:
        problems = _expect("sizes listed", len(rows), max_n + 1)
        for n, members in enumerate(rows):
            if len(members) != counts[n]:
                problems.append(f"n={n}: {len(members)} trees, expected {counts[n]}")
            if len(set(members)) != len(members):
                problems.append(f"n={n}: a tree is listed twice")
            if members != sorted(members):
                problems.append(f"n={n}: trees are not sorted by tree string")
            for text in members:
                nodes, _, imb = o.imbalances(text)
                if nodes != n or not set(imb) <= allowed:
                    problems.append(f"n={n}: {text} breaks the size or imbalance rule")
                    break
        return problems

    return check


def _check_narayana(n: int):
    def check(row: list[int]) -> list[str]:
        problems = _expect(f"Narayana row {n}", row, [o.narayana(n, k) for k in range(n)])
        return problems + _expect("row total", sum(row), o.catalan(n))

    return check


def tree_enumeration(
    hasse_n: int = 12, family_max: int = 22, narayana_n: int = 12
) -> list[Job]:
    zero_one = o.family_counts(len(o.ZERO_ONE_BALANCED_COUNTS) - 1, {0, 1})
    heights = range(13)
    return [
        _cli(
            "hasse-balanced",
            ["hasse", "balanced", str(hasse_n), "--json"],
            _check_hasse_balanced(hasse_n),
        ),
        _cli(
            "enum-zero-one-balanced",
            ["enum", "zero-one-balanced", "--json"],
            _check_enum("zero-one-balanced", zero_one),
        ),
        _cli(
            "enum-interior-by-height",
            ["enum", "interior-by-height", "--json"],
            _check_enum("interior-by-height", [o.interior_count(h) for h in heights]),
        ),
        Job(
            "imbalance-family",
            {"kind": "family", "max_n": family_max, "allowed": [-1, 0, 1]},
            _check_family(family_max, {-1, 0, 1}),
        ),
        Job(
            "narayana-row",
            {"kind": "narayana", "n": narayana_n},
            _check_narayana(narayana_n),
        ),
    ]


# ---------------------------------------------------------------------------
# order-queries
#
# Query cost varies by orders of magnitude between random pairs, so each
# query set is drawn until a fixed work budget is spent.  The work of a
# query is predicted from bracket vectors alone (``_search_work``): the
# number of trees a rotation search from the lower tree may visit below
# the upper tree's weight, summed over the searches the query implies.
# Different seeds then give different pairs but nearly equal work.

INTERVAL_BUDGET = 60_000
INCOMPARABLE_BUDGET = 30_000
HYPERCUBE_BUDGET = 25_000
_REGION_LIMIT = 200  # walk pairs whose search region is larger are redrawn
_CHAIN = 4  # rotations from the lower to the upper end of a hypercube pair


def _upset(v, max_sum: int, limit: int | None = None) -> list[tuple[int, ...]]:
    found = o.vectors_between(v, o.top_vector(len(v)), max_sum)
    return list(islice(found, limit))


def _search_work(region, bound: int) -> int:
    """Pairs ``v <= u`` of the search region with ``u`` lighter than the
    bound: what the order tests from every ``v`` may visit."""
    lighter = [u for u in region if sum(u) < bound]
    return sum(1 for v in region for u in lighter if o.below(v, u))


def _walk(rng: random.Random, t, steps: int):
    for _ in range(steps):
        ranks = o.rotation_ranks(t)
        if not ranks:
            break
        t = o.right_rotation(t, rng.choice(ranks))
    return t


def walk_pairs(rng: random.Random, budget: int, band=(600, 2400)) -> list[list[str]]:
    """Pairs ``(t, t')`` on 10 and 11 nodes, ``t'`` a random walk of right
    rotations above ``t``, until their predicted work reaches ``budget``."""
    pairs, spent = [], 0
    while spent < budget:
        n = 10 + len(pairs) % 2
        t = o.random_tree(rng, n)
        u = _walk(rng, t, rng.randint(4, 16))
        lo, hi = o.bracket_vector(t), o.bracket_vector(u)
        region = _upset(lo, sum(hi), limit=_REGION_LIMIT + 1)
        if len(region) > _REGION_LIMIT:
            continue
        work = _search_work(region, sum(hi))
        if band[0] <= work <= band[1]:
            pairs.append([o.render(t), o.render(u)])
            spent += work
    return pairs


def incomparable_pairs(rng: random.Random, budget: int, band=(150, 600)) -> list[list[str]]:
    """Pairs on 10 and 11 nodes ordered by rotation weight but not by the
    rotation order, so a rotation search must exhaust its space."""
    pairs, spent = [], 0
    while spent < budget:
        n = 10 + len(pairs) % 2
        t, u = o.random_tree(rng, n), o.random_tree(rng, n)
        lo, hi = o.bracket_vector(t), o.bracket_vector(u)
        if sum(lo) >= sum(hi) or o.below(lo, hi):
            continue
        work = len(_upset(lo, sum(hi) - 1))
        if band[0] <= work <= band[1]:
            pairs.append([o.render(t), o.render(u)])
            spent += work
    return pairs


def hypercube_pairs(rng: random.Random, budget: int) -> list[list[str]]:
    """Balanced pairs on 13 to 16 nodes joined by a chain of ``_CHAIN``
    balance-preserving rotations, until their predicted work reaches
    ``budget``."""
    pairs, spent = [], 0
    while spent < budget:
        n = 13 + len(pairs) % 4
        t = u = o.random_balanced_tree(rng, n)
        for _ in range(_CHAIN):
            covers = o.balanced_covers(u)
            if not covers:
                break
            u = rng.choice(covers)
        else:
            lo, hi = o.bracket_vector(t), o.bracket_vector(u)
            cube = list(o.vectors_between(lo, hi))
            work = sum(len(_upset(a, sum(b) - 1)) for a in cube for b in cube)
            pairs.append([o.render(t), o.render(u)])
            spent += work
    return pairs


def _check_answers(what: str, want: list):
    def check(got: list) -> list[str]:
        wrong = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
        return _expect(f"number of {what}", len(got), len(want)) + (
            [f"wrong {what} for queries {wrong[:5]}"] if wrong else []
        )

    return check


def _vectors(pair):
    return [o.bracket_vector(o.parse(text)) for text in pair]


def _check_leq(pairs):
    return _check_answers("order answers", [o.below(*_vectors(p)) for p in pairs])


def _check_interval(pairs):
    return _check_answers(
        "interval members",
        [
            sorted(o.render(o.from_bracket_vector(v)) for v in o.vectors_between(*_vectors(p)))
            for p in pairs
        ],
    )


def order_queries(seed: int, share: float = 1.0) -> list[Job]:
    """Order queries drawn from ``seed``; ``share`` scales the budgets."""
    rng = random.Random(seed)
    walks = walk_pairs(rng, INTERVAL_BUDGET * share)
    apart = incomparable_pairs(rng, INCOMPARABLE_BUDGET * share)
    left, right = o.from_bracket_vector((0,) * 10), o.from_bracket_vector(o.top_vector(10))
    combs = [[o.render(left), o.render(right)]]
    cubes = hypercube_pairs(rng, HYPERCUBE_BUDGET * share)
    leq_pairs = walks + apart
    return [
        Job("tamari-leq", {"kind": "leq", "pairs": leq_pairs}, _check_leq(leq_pairs)),
        # A process of its own: the trees of this fixed query do not add to
        # the intern table, and so to the peak memory, of the seeded ones.
        Job("tamari-leq-combs", {"kind": "leq", "pairs": combs}, _check_leq(combs)),
        Job("interval", {"kind": "interval", "pairs": walks}, _check_interval(walks)),
        # Every maximal chain of a k-cube has length k.
        Job(
            "verify-hypercube",
            {"kind": "hypercube", "pairs": cubes},
            _check_answers("hypercube results", [[_CHAIN, True]] * len(cubes)),
        ),
    ]


def build(workload: str, seed: int) -> list[Job]:
    """The jobs of one round, in the order the seed gives them."""
    if workload == "order-queries":
        jobs = order_queries(seed)
    else:
        jobs = {
            "poset-sweep": poset_sweep,
            "grammar-series": grammar_series,
            "tree-enumeration": tree_enumeration,
        }[workload]()
    random.Random(seed).shuffle(jobs)
    return jobs

