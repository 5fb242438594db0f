"""Command-line front end for the library.

Four subcommands:

``enum``
    Recompute a counting sequence and compare it against the embedded
    reference values, row by row.
``series``
    Render the truncated generating series of a builtin or user grammar,
    optionally with variables assigned integer values.
``check``
    Run a structural sweep (closure of a family under the rotation
    order, or the hypercube shape of balanced intervals) and report
    PASS or FAIL with a machine-readable witness.
``hasse``
    Export a Hasse diagram (whole rotation order, balanced subposet, or
    a single interval) in DOT format.

Every command accepts ``--json`` for scripting.  Exit codes: 0 for
success or PASS, 1 for a mismatch or FAIL, 2 for usage errors.  A FAIL
is a closure counterexample, a reference mismatch, or a
:class:`CrossCheckError`: two counting routes that disagree, or a
balanced interval that is not a hypercube.  Any other exception is a
bug and escapes as a traceback.
"""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401  argparse's gettext needs it; load it here, not in main
import re
import sys
from collections.abc import Callable, Sequence

from . import fixtures, limits
from ._record import frozen
from .balance import balanced_trees
from .families import (
    ClosureCounterexample,
    ImbalanceSet,
    closure_check,
    imbalance_family,
    narayana_row,
    weight_balanced_count,
)
from .grammars import (
    GrammarError,
    _specialized_series,
    builtin_grammar,
    builtin_names,
    counting_series,
    parse_grammar,
)
from .intervals import (
    CrossCheckError,
    _balanced_pair_count,
    _maximal_pair_count,
    balanced_subposet,
    hypercube_histogram,
)
from .patterns import BalanceFlag, classify_balanced, interior_count
from .polynomials import Polynomial
from .tamari import _interval_members, hasse_dot, tamari_leq
from .trees import LEAF, TreeParseError, node, parse, serialize


class UsageError(ValueError):
    """Bad command-line input (unknown id, bound exceeded, parse error)."""


# ---------------------------------------------------------------------------
# Sequence regression


@frozen
class SequenceReport:
    """Computed-versus-reference table for one counting sequence."""

    family: str
    label: str
    indices: tuple[int, ...]
    computed: tuple[int, ...]
    expected: tuple[int, ...]

    @property
    def matches(self) -> tuple[bool, ...]:
        return tuple(c == e for c, e in zip(self.computed, self.expected))

    @property
    def ok(self) -> bool:
        return all(self.matches)

    def lines(self) -> list[str]:
        width = max(
            len(str(v)) for v in (*self.computed, *self.expected, *self.indices)
        )
        out = [f"{self.family}"]
        head = f"  {self.label:>{width}}  {'computed':>{width + 8}}  {'expected':>{width + 8}}"
        out.append(head)
        for idx, comp, exp, match in zip(
            self.indices, self.computed, self.expected, self.matches
        ):
            mark = "" if match else "  MISMATCH"
            out.append(f"  {idx:>{width}}  {comp:>{width + 8}}  {exp:>{width + 8}}{mark}")
        good = sum(self.matches)
        verdict = "PASS" if self.ok else "FAIL"
        out.append(f"{verdict} ({good}/{len(self.indices)} match)")
        return out

    def payload(self) -> dict:
        return {
            "family": self.family,
            "label": self.label,
            "rows": [
                {self.label: idx, "computed": comp, "expected": exp, "match": match}
                for idx, comp, exp, match in zip(
                    self.indices, self.computed, self.expected, self.matches
                )
            ],
            "ok": self.ok,
        }


@frozen
class _SeriesCounts:
    """A family's counts read off a grammar's counting series.

    The count at size ``n`` is the ``x^(n+1)`` coefficient; up to
    ``row``'s bound each one is cross-checked by the family's brute
    route, ``brute``, named ``brute_route`` in a disagreement.
    """

    grammar: str
    what: str
    brute_route: str
    brute: Callable[[int], int]
    row: limits.Limit

    def __call__(self, max_n: int) -> tuple[int, ...]:
        poly = counting_series(builtin_grammar(self.grammar), max_n + 1)
        out = []
        for n in range(max_n + 1):
            count = poly.coefficient({"x": n + 1})
            if n <= self.row.bound:
                brute = self.brute(n)
                if brute != count:
                    raise CrossCheckError(
                        f"{self.what} routes disagree at n={n}",
                        (self.brute_route, "series"),
                        (brute, count),
                    )
            out.append(count)
        return tuple(out)


def _family_size(*values: int) -> Callable[[int], int]:
    allowed = ImbalanceSet.of(*values)
    return lambda n: len(imbalance_family(n, allowed))


def _maximal_balanced(n: int) -> int:
    return sum(
        1
        for t in balanced_trees(n)
        if BalanceFlag.MAXIMAL_RIGHT in classify_balanced(t)
    )


def _interior_counts(max_h: int) -> tuple[int, ...]:
    return tuple(interior_count(h) for h in range(max_h + 1))


def _weight_balanced_counts(max_n: int) -> tuple[int, ...]:
    return tuple(weight_balanced_count(n) for n in range(max_n + 1))


@frozen
class _Family:
    label: str
    expected: tuple[int, ...]
    compute: Callable[[int], tuple[int, ...]]

    @property
    def max_index(self) -> int:
        return len(self.expected) - 1


_FAMILIES: dict[str, _Family] = {
    "balanced": _Family(
        "n",
        tuple(fixtures.BALANCED_COUNTS),
        _SeriesCounts(
            "bal", "balanced", "enumeration", _family_size(-1, 0, 1),
            limits.ENUM_CROSS_CHECK,
        ),
    ),
    "maximal-balanced": _Family(
        "n",
        tuple(fixtures.MAXIMAL_BALANCED_COUNTS),
        _SeriesCounts(
            "max", "maximal", "brute", _maximal_balanced, limits.ENUM_CROSS_CHECK
        ),
    ),
    "balanced-intervals": _Family(
        "n",
        tuple(fixtures.BALANCED_INTERVAL_COUNTS),
        _SeriesCounts(
            "bi", "balanced interval", "brute", _balanced_pair_count,
            limits.BRUTE_INTERVALS,
        ),
    ),
    "maximal-intervals": _Family(
        "n",
        tuple(fixtures.MAXIMAL_INTERVAL_COUNTS),
        _SeriesCounts(
            "mbi", "maximal interval", "brute", _maximal_pair_count,
            limits.BRUTE_INTERVALS,
        ),
    ),
    "interior-by-height": _Family(
        "h", tuple(fixtures.INTERIOR_BY_HEIGHT), _interior_counts
    ),
    "weight-balanced": _Family(
        "n", tuple(fixtures.WEIGHT_BALANCED_COUNTS), _weight_balanced_counts
    ),
    "zero-one-balanced": _Family(
        "n",
        tuple(fixtures.ZERO_ONE_BALANCED_COUNTS),
        _SeriesCounts(
            "bal01", "zero-one balanced", "enumeration", _family_size(0, 1),
            limits.ENUM_CROSS_CHECK,
        ),
    ),
}


def run_enum(family: str, max_n: int | None = None, n: int | None = None) -> SequenceReport:
    """Recompute a family's counting sequence next to its reference values."""
    if family == "narayana":
        if n is None:
            raise UsageError("family narayana needs --n (a row index)")
        if max_n is not None:
            raise UsageError("family narayana takes --n, not --max-n")
        if n not in fixtures.NARAYANA_ROWS:
            known = ", ".join(str(k) for k in sorted(fixtures.NARAYANA_ROWS))
            raise UsageError(f"no reference row for n={n}; rows on file: {known}")
        expected = tuple(fixtures.NARAYANA_ROWS[n])
        computed = narayana_row(n)
        return SequenceReport(
            family="narayana",
            label="k",
            indices=tuple(range(len(expected))),
            computed=computed,
            expected=expected,
        )
    if family not in _FAMILIES:
        known = ", ".join((*sorted(_FAMILIES), "narayana"))
        raise UsageError(f"unknown family {family!r}; choose from {known}")
    if n is not None:
        raise UsageError(f"family {family} takes --max-n, not --n")
    spec = _FAMILIES[family]
    limit = spec.max_index if max_n is None else max_n
    if limit < 0:
        raise UsageError(f"--max-n must be nonnegative, got {limit}")
    if limit > spec.max_index:
        raise UsageError(
            f"no reference values for {family} beyond "
            f"{spec.label}={spec.max_index}, got {limit}"
        )
    computed = spec.compute(limit)
    return SequenceReport(
        family=family,
        label=spec.label,
        indices=tuple(range(limit + 1)),
        computed=computed,
        expected=spec.expected[: limit + 1],
    )


def cmd_enum(args: argparse.Namespace) -> int:
    report = run_enum(args.family, max_n=args.max_n, n=args.n)
    if args.json:
        print(json.dumps({"command": "enum", **report.payload()}, indent=2))
    else:
        print("\n".join(report.lines()))
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# Series rendering


_ASSIGNMENT_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)=(-?\d+)$")


def _parse_assignments(items: Sequence[str]) -> dict[str, int]:
    values: dict[str, int] = {}
    for item in items:
        m = _ASSIGNMENT_RE.match(item)
        if m is None:
            raise UsageError(f"bad --set argument {item!r}; expected var=integer")
        name, value = m.group(1), int(m.group(2))
        if name in values:
            raise UsageError(
                f"--set assigns {name!r} twice: {name}={values[name]} and {name}={value}"
            )
        values[name] = value
    return values


def _polynomial_payload(poly: Polynomial) -> list[dict]:
    return [
        {"coefficient": coeff, "monomial": dict(mono.pairs)}
        for mono, coeff in poly.sorted_terms()
    ]


def cmd_series(args: argparse.Namespace) -> int:
    if args.builtin is not None:
        grammar = builtin_grammar(args.builtin)
        source = args.builtin
    else:
        try:
            with open(args.file, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise UsageError(f"cannot read grammar file: {exc}") from exc
        grammar = parse_grammar(text)
        source = args.file
    assignments = _parse_assignments(args.set)
    # The series' variables: the buds under their merged names, and the
    # markers.  Specializing any other name would silently do nothing.
    renames = dict(grammar.merges)
    known = dict.fromkeys(
        [*(renames.get(bud, bud) for bud in grammar.buds), *grammar.markers]
    )
    for name in assignments:
        if name not in known:
            raise UsageError(
                f"unknown variable {name!r} in --set; choose from {', '.join(known)}"
            )
    if args.degree < 0:
        raise UsageError(f"--degree must be nonnegative, got {args.degree}")
    poly = _specialized_series(grammar, args.degree, assignments)
    if args.json:
        print(
            json.dumps(
                {
                    "command": "series",
                    "grammar": source,
                    "degree": args.degree,
                    "assignments": assignments,
                    "polynomial": str(poly),
                    "terms": _polynomial_payload(poly),
                },
                indent=2,
            )
        )
    else:
        print(poly)
    return 0


# ---------------------------------------------------------------------------
# Structural checks


def _counterexample_payload(found: ClosureCounterexample) -> dict:
    return {
        "chain": [serialize(t) for t in found.chain],
        "failing_index": found.failing_index,
        "lower": serialize(found.lower),
        "middle": serialize(found.middle),
        "upper": serialize(found.upper),
    }


def _closure_at(n: int, allowed: ImbalanceSet) -> dict | None:
    found = closure_check(imbalance_family(n, allowed))
    return None if found is None else _counterexample_payload(found)


def _hypercube_at(n: int) -> dict:
    # A non-cube raises CrossCheckError, so "failing" is always null.
    histogram = hypercube_histogram(n)
    return {
        "trees": len(balanced_trees(n)),
        "intervals": sum(histogram.values()),
        "dimensions": [
            {"dimension": k, "count": v} for k, v in histogram.items()
        ],
        "failing": None,
    }


def _report(
    args: argparse.Namespace, lines: list[str], results: list, verdict: str, **extra
) -> int:
    payload = {
        "command": "check",
        "property": args.property,
        **extra,
        "max_n": args.max_n,
        "results": results,
        "verdict": verdict,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))
    return 0 if verdict == "PASS" else 1


_CHECK_PROPERTIES = ("closure-balanced", "closure-vbalanced", "hypercube")


def _check_closure(
    args: argparse.Namespace, allowed: ImbalanceSet, family: str
) -> int:
    results = []
    lines = []
    verdict = "PASS"
    for n in range(args.max_n + 1):
        outcome = _closure_at(n, allowed)
        results.append({"n": n, "counterexample": outcome})
        if outcome is None:
            lines.append(f"n={n}: closed")
            continue
        chain = " -> ".join(outcome["chain"])
        lines.append(
            f"n={n}: counterexample {chain}; "
            f"outside the family at step {outcome['failing_index']}"
        )
        verdict = "FAIL"
        break
    if verdict == "PASS":
        lines.append(
            f"PASS: family {family} is closed under the rotation order "
            f"up to n={args.max_n}"
        )
    else:
        lines.append(f"FAIL: family {family} is not closed; first break at n={n}")
    return _report(args, lines, results, verdict, family=family)


def _check_hypercube(args: argparse.Namespace) -> int:
    results = []
    lines = []
    for n in range(args.max_n + 1):
        outcome = _hypercube_at(n)
        results.append({"n": n, **outcome})
        dims = ", ".join(
            f"{row['dimension']}:{row['count']}" for row in outcome["dimensions"]
        )
        lines.append(
            f"n={n}: {outcome['trees']} trees, {outcome['intervals']} intervals, "
            f"dimensions {dims or '-'}"
        )
    lines.append(
        f"PASS: every balanced interval is a hypercube up to n={args.max_n}"
    )
    return _report(args, lines, results, "PASS")


def cmd_check(args: argparse.Namespace) -> int:
    if args.property not in _CHECK_PROPERTIES:
        known = ", ".join(_CHECK_PROPERTIES)
        raise UsageError(f"unknown property {args.property!r}; choose from {known}")
    cap = (
        limits.CHECK_HYPERCUBE if args.property == "hypercube" else limits.CHECK_SWEEP
    ).bound
    if not 0 <= args.max_n <= cap:
        raise UsageError(f"--max-n must lie in 0..{cap}, got {args.max_n}")
    if args.property == "closure-vbalanced":
        if args.v is None:
            raise UsageError("closure-vbalanced needs --v, an imbalance set")
        try:
            allowed = ImbalanceSet.parse(args.v)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        return _check_closure(args, allowed, str(allowed))
    if args.v is not None:
        raise UsageError(f"--v only applies to closure-vbalanced, not {args.property}")
    if args.property == "closure-balanced":
        return _check_closure(args, ImbalanceSet.of(-1, 0, 1), "balanced")
    return _check_hypercube(args)


# ---------------------------------------------------------------------------
# Hasse diagram export


def _capped(command: str, limit: limits.Limit, n: int) -> None:
    if n < 0:
        raise UsageError(f"{command} needs a nonnegative n, got {n}")
    if n > limit.bound:
        raise UsageError(f"{command} is capped at n={limit.bound}, got {n}")


def _hasse_graph(args: argparse.Namespace) -> tuple[str, int, int]:
    if args.target == "tamari":
        _capped("hasse tamari", limits.HASSE_TAMARI, args.n)
        # The whole order is the interval from the left comb to the right comb.
        lower = upper = LEAF
        for _ in range(args.n):
            lower, upper = node(lower, LEAF), node(LEAF, upper)
        members, edges = _interval_members(lower, upper)
        return hasse_dot(members, edges), len(members), len(edges)
    if args.target == "balanced":
        _capped("hasse balanced", limits.HASSE_BALANCED, args.n)
        subposet = balanced_subposet(args.n)
        return subposet.to_dot(), len(subposet.trees), len(subposet.edges)
    try:
        lower = parse(args.lower)
        upper = parse(args.upper)
    except TreeParseError as exc:
        raise UsageError(str(exc)) from None
    if lower.node_count != upper.node_count:
        raise UsageError(
            f"interval endpoints need equal sizes, got "
            f"{lower.node_count} and {upper.node_count} nodes"
        )
    _capped("hasse interval", limits.HASSE_INTERVAL, lower.node_count)
    if not tamari_leq(lower, upper):
        raise UsageError(
            f"empty interval: {args.lower} does not precede {args.upper}"
        )
    members, edges = _interval_members(lower, upper)
    dot = hasse_dot(
        members, edges, highlight=frozenset({lower, upper}), graph_name="interval"
    )
    return dot, len(members), len(edges)


def cmd_hasse(args: argparse.Namespace) -> int:
    dot, nodes, edges = _hasse_graph(args)
    if args.json:
        rendered = json.dumps(
            {
                "command": "hasse",
                "target": args.target,
                "nodes": nodes,
                "edges": edges,
                "dot": dot,
            },
            indent=2,
        )
    else:
        rendered = dot
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write --out file: {exc}") from exc
        if not args.json:
            print(f"wrote {nodes} nodes, {edges} edges to {args.out}")
    else:
        print(rendered)
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tamari-balance",
        description="Balanced binary trees in the rotation order: "
        "sequence regression, grammar series, structural checks, "
        "and Hasse diagram export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enum_families = (*sorted(_FAMILIES), "narayana")
    p_enum = sub.add_parser(
        "enum",
        help="recompute a counting sequence against the embedded references",
        description="Families: " + ", ".join(enum_families),
    )
    p_enum.add_argument("family", help="family id, e.g. balanced")
    p_enum.add_argument(
        "--max-n",
        type=int,
        default=None,
        help="last index to compute (default: the whole reference range)",
    )
    p_enum.add_argument(
        "--n", type=int, default=None, help="row index (narayana only)"
    )
    p_enum.add_argument("--json", action="store_true", help="emit JSON")
    p_enum.set_defaults(handler=cmd_enum)

    p_series = sub.add_parser(
        "series",
        help="render a grammar's truncated generating series",
        description="Builtin grammars: " + ", ".join(builtin_names()),
    )
    source = p_series.add_mutually_exclusive_group(required=True)
    source.add_argument("--builtin", help="builtin grammar id")
    source.add_argument("--file", help="grammar file path")
    p_series.add_argument(
        "--degree", type=int, required=True, help="truncation degree"
    )
    p_series.add_argument(
        "--set",
        nargs="+",
        action="extend",
        default=[],
        metavar="VAR=INT",
        help="assign integers to variables after summing",
    )
    p_series.add_argument("--json", action="store_true", help="emit JSON")
    p_series.set_defaults(handler=cmd_series)

    p_check = sub.add_parser(
        "check",
        help="run a structural sweep and report PASS or FAIL",
        description="Properties: " + ", ".join(_CHECK_PROPERTIES),
    )
    p_check.add_argument("property", help="property id, e.g. closure-balanced")
    p_check.add_argument(
        "--max-n",
        type=int,
        default=limits.CHECK_SWEEP.bound,
        help=f"largest size to sweep, by default {limits.CHECK_SWEEP.bound}; "
        f"at most {limits.CHECK_SWEEP.bound} for the closure properties, "
        "where closure-vbalanced --v=.. takes about 5 s, and "
        f"{limits.CHECK_HYPERCUBE.bound} for hypercube, about 7 s",
    )
    p_check.add_argument(
        "--v", help="imbalance set for closure-vbalanced, e.g. -2..0 or 0,1"
    )
    p_check.add_argument("--json", action="store_true", help="emit JSON")
    p_check.set_defaults(handler=cmd_check)

    p_hasse = sub.add_parser(
        "hasse", help="export a Hasse diagram in DOT format"
    )
    hasse_sub = p_hasse.add_subparsers(dest="target", required=True)
    p_tamari = hasse_sub.add_parser("tamari", help="whole rotation order on n nodes")
    p_tamari.add_argument(
        "n", type=int, help=f"node count, at most {limits.HASSE_TAMARI.bound}"
    )
    p_balanced = hasse_sub.add_parser(
        "balanced", help="balanced subposet on n nodes"
    )
    p_balanced.add_argument(
        "n", type=int, help=f"node count, at most {limits.HASSE_BALANCED.bound}"
    )
    p_interval = hasse_sub.add_parser(
        "interval",
        help="one interval given by two tree strings, "
        f"at most {limits.HASSE_INTERVAL.bound} nodes each",
    )
    p_interval.add_argument("lower", help="lower endpoint tree string")
    p_interval.add_argument("upper", help="upper endpoint tree string")
    for p_target in (p_tamari, p_balanced, p_interval):
        p_target.add_argument("--out", default=None, help="write to file")
        p_target.add_argument("--json", action="store_true", help="emit JSON")
        p_target.set_defaults(handler=cmd_hasse)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (UsageError, GrammarError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CrossCheckError as exc:
        if args.json:
            routes = {
                route: value if isinstance(value, int) else str(value)
                for route, value in zip(exc.routes, exc.values)
            }
            print(
                json.dumps(
                    {"verdict": "FAIL", "error": str(exc), "routes": routes},
                    indent=2,
                )
            )
        else:
            print(f"FAIL: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
