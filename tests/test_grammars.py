"""Tests for the synchronous grammar engine."""

import ast
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from tamari_balance import grammars
from tamari_balance.grammars import (
    Bud,
    BudNode,
    CertificateError,
    GenerationLimitError,
    GrammarError,
    Rule,
    SynchronousGrammar,
    _specialized_series,
    builtin_grammar,
    builtin_names,
    check_strict,
    check_unambiguous,
    counting_series,
    derive_all,
    evaluation,
    frontier,
    generate,
    imbalance_grammar,
    iterate_sum,
    iterates,
    marked_count,
    parse_bud_tree,
    parse_grammar,
    render_grammar,
    series,
    substitution_polynomial,
)
from tamari_balance.families import ImbalanceSet, imbalance_family
from tamari_balance.fixtures import BALANCED_COUNTS
from tamari_balance.polynomials import Monomial, Polynomial


def poly(terms, markers=()):
    return Polynomial(
        {Monomial(exps): coeff for exps, coeff in terms.items()}, markers
    )


def x_(n=1, **extra):
    exps = {"x": n, **extra}
    return Monomial({v: e for v, e in exps.items() if e})


class TestBudTrees:
    def test_parse_and_render(self):
        text = "[2 <x> [1* <y> <x>]]"
        tree = parse_bud_tree(text)
        assert tree == BudNode(
            2, (Bud("x"), BudNode(1, (Bud("y"), Bud("x")), marked=True))
        )
        assert str(tree) == text

    def test_childless_and_marked_nodes(self):
        assert parse_bud_tree("[5]") == BudNode(5, ())
        assert parse_bud_tree("[]") == BudNode(None, ())
        assert parse_bud_tree("[* <x>]") == BudNode(None, (Bud("x"),), marked=True)
        assert parse_bud_tree("[-1* <z> <y>]") == BudNode(
            -1, (Bud("z"), Bud("y")), marked=True
        )
        for text in ("[5]", "[]", "[* <x>]", "[-1* <z> <y>]"):
            assert str(parse_bud_tree(text)) == text

    @pytest.mark.parametrize("bad", ["", "<>", "[2 <x>", "<x> <y>", "] [", "x"])
    def test_parse_errors(self, bad):
        with pytest.raises(GrammarError):
            parse_bud_tree(bad)

    def test_frontier_and_evaluation(self):
        tree = parse_bud_tree("[3 [2 <x> <y>] <x> [2 <x> <y>]]")
        assert frontier(tree) == ("x", "y", "x", "x", "y")
        assert evaluation(tree) == Monomial({"x": 3, "y": 2})
        assert evaluation(parse_bud_tree("[5]")).is_one

    def test_marked_count(self):
        tree = parse_bud_tree("[1* <x> [2 [3* <y>] <x>]]")
        assert marked_count(tree) == 2
        assert marked_count(Bud("x")) == 0


class TestValidation:
    def test_axiom_must_be_a_bud(self):
        with pytest.raises(GrammarError):
            SynchronousGrammar(("x",), "q", (Rule("x", Bud("x")),))

    def test_rules_must_cover_every_bud(self):
        with pytest.raises(GrammarError):
            SynchronousGrammar(("x", "y"), "x", (Rule("x", Bud("y")),))

    def test_rule_buds_must_be_known(self):
        with pytest.raises(GrammarError):
            SynchronousGrammar(("x",), "x", (Rule("x", Bud("q")),))

    def test_marker_must_be_declared(self):
        with pytest.raises(GrammarError):
            SynchronousGrammar(("x",), "x", (Rule("x", Bud("x"), "xi"),))

    def test_merge_names_checked(self):
        rules = (Rule("x", Bud("x")),)
        with pytest.raises(GrammarError):
            SynchronousGrammar(("x",), "x", rules, merges=(("q", "t"),))
        with pytest.raises(GrammarError):
            SynchronousGrammar(("x",), "x", rules, merges=(("x", "x"),))


class TestDerivation:
    def test_rules_for_never_hashes_the_grammar(self, monkeypatch):
        g = builtin_grammar("mbi_xi")
        expected = {bud: [r for r in g.rules if r.bud == bud] for bud in g.buds}
        derived = derive_all(g, Bud(g.axiom))

        def unhashable(self):
            raise AssertionError("the grammar was hashed")

        monkeypatch.setattr(SynchronousGrammar, "__hash__", unhashable)
        for bud in g.buds:
            assert list(g.rules_for(bud)) == expected[bud]
        assert derive_all(g, Bud(g.axiom)) == derived

    def test_one_step_from_axiom(self):
        g = builtin_grammar("epl")
        assert derive_all(g, Bud("x")) == [
            parse_bud_tree("[2 <x> <y>]"),
            parse_bud_tree("[3 <x> <y> <x>]"),
        ]

    def test_two_steps_epl(self):
        g = builtin_grammar("epl")
        level = generate(g, 2)
        assert len(level) == 6
        evs = sorted(
            (e.exponent("x"), e.exponent("y"))
            for e in map(evaluation, level)
        )
        assert evs == [(2, 1), (3, 1), (3, 2), (4, 2), (4, 2), (5, 2)]

    def test_perf_levels_are_single_trees(self):
        g = builtin_grammar("perf")
        for steps in range(4):
            level = generate(g, steps)
            assert len(level) == 1
            assert len(frontier(level[0])) == 2**steps

    def test_every_frontier_bud_rewrites_at_once(self):
        g = builtin_grammar("bal")
        tree = parse_bud_tree("[-1 <x> <y>]")
        derived = derive_all(g, tree)
        assert len(derived) == 3
        for t in derived:
            assert t.children[1] == Bud("x")

    def test_generation_limit(self):
        g = builtin_grammar("bal23")
        with pytest.raises(GenerationLimitError):
            generate(g, 4, max_results=50)

    def test_generating_graph_is_a_tree(self):
        for name in ("epl", "bal23", "bal", "bi"):
            g = builtin_grammar(name)
            seen: set = {Bud(g.axiom)}
            level = [Bud(g.axiom)]
            for _ in range(3):
                produced = []
                for tree in level:
                    produced.extend(derive_all(g, tree))
                assert len(produced) == len(set(produced)), name
                assert not (set(produced) & seen), name
                seen |= set(produced)
                level = produced


class TestBuiltinTable:
    def test_each_builtin_is_built_on_first_use(self):
        script = "\n".join(
            [
                "from tamari_balance import grammars",
                "built = []",
                "init = grammars.SynchronousGrammar.__init__",
                "def recording(self, *args, **kwargs):",
                "    init(self, *args, **kwargs)",
                "    built.append(self.name)",
                "grammars.SynchronousGrammar.__init__ = recording",
                "print(len(grammars.builtin_names()), built)",
                "perf = grammars.builtin_grammar('perf')",
                "print(built)",
                "print(grammars.builtin_grammar('perf') is perf, built)",
            ]
        )
        src = os.path.dirname(os.path.dirname(grammars.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["9 []", "['perf']", "True ['perf']"]


class TestCertificates:
    def test_builtins_are_certified(self):
        for name in builtin_names():
            g = builtin_grammar(name)
            assert check_strict(g), name
            assert check_unambiguous(g), name

    def test_bud_free_rule_breaks_strictness(self):
        g = SynchronousGrammar(
            ("x",), "x", (Rule("x", BudNode(0, ())), Rule("x", Bud("x")))
        )
        assert not check_strict(g)

    def test_single_bud_cycle_breaks_strictness(self):
        g = SynchronousGrammar(
            ("x", "y"),
            "x",
            (Rule("x", Bud("y")), Rule("y", Bud("x"))),
        )
        assert not check_strict(g)
        loop = SynchronousGrammar(("x",), "x", (Rule("x", Bud("x")),))
        assert not check_strict(loop)

    def test_multi_bud_rules_do_not_constrain(self):
        g = SynchronousGrammar(
            ("x", "y"),
            "x",
            (
                Rule("x", parse_bud_tree("[<y> <y>]")),
                Rule("y", parse_bud_tree("[<x> <x>]")),
            ),
        )
        assert check_strict(g)

    def test_identical_rules_are_ambiguous(self):
        g = SynchronousGrammar(
            ("x",),
            "x",
            (
                Rule("x", parse_bud_tree("[0 <x> <x>]")),
                Rule("x", parse_bud_tree("[0 <x> <x>]")),
            ),
        )
        assert not check_unambiguous(g)

    def test_mark_flag_disambiguates(self):
        g = SynchronousGrammar(
            ("x",),
            "x",
            (
                Rule("x", parse_bud_tree("[0 <x> <x>]")),
                Rule("x", parse_bud_tree("[0* <x> <x>]")),
            ),
        )
        assert check_unambiguous(g)

    def test_series_requires_certificate(self):
        loop = SynchronousGrammar(("x",), "x", (Rule("x", Bud("x")),))
        with pytest.raises(CertificateError):
            series(loop, 3)


class TestSubstitutionPolynomials:
    def test_epl(self):
        g = builtin_grammar("epl")
        assert substitution_polynomial(g, "x") == poly(
            {(("x", 1), ("y", 1)): 1, (("x", 2), ("y", 1)): 1}
        )
        assert substitution_polynomial(g, "y") == Polynomial.variable("x")

    def test_bal(self):
        g = builtin_grammar("bal")
        assert substitution_polynomial(g, "x") == poly(
            {(("x", 2),): 1, (("x", 1), ("y", 1)): 2}
        )

    def test_bi(self):
        g = builtin_grammar("bi")
        assert substitution_polynomial(g, "x") == poly(
            {(("x", 2),): 1, (("x", 1), ("y", 1)): 2, (("y", 1), ("z", 1)): 1}
        )
        assert substitution_polynomial(g, "z") == poly(
            {(("x", 2),): 1, (("x", 1), ("y", 1)): 1}
        )

    def test_max(self):
        g = builtin_grammar("max")
        assert substitution_polynomial(g, "x") == poly(
            {(("x", 2),): 1, (("x", 1), ("y", 1)): 1, (("y", 1), ("z", 1)): 1}
        )
        assert substitution_polynomial(g, "z") == poly(
            {(("x", 1), ("y", 1)): 1}
        )

    def test_mbi_premerge(self):
        g = builtin_grammar("mbi")
        assert substitution_polynomial(g, "x") == poly(
            {
                (("v", 1), ("y", 1)): 1,
                (("x", 2),): 1,
                (("u", 1), ("y", 1)): 1,
                (("y", 1), ("z", 1)): 1,
            }
        )
        assert substitution_polynomial(g, "u") == poly(
            {(("v", 1), ("y", 1)): 1, (("y", 1), ("z", 1)): 1}
        )
        assert substitution_polynomial(g, "v") == poly(
            {(("u", 1), ("y", 1)): 1, (("y", 1), ("z", 1)): 1}
        )
        assert substitution_polynomial(g, "u") != substitution_polynomial(g, "v")

    def test_mbi_merge_identifies_u_and_v(self):
        g = builtin_grammar("mbi")
        rename = {
            var: Polynomial.variable({"u": "t", "v": "t"}.get(var, var))
            for var in ("x", "y", "z", "u", "v")
        }
        merged_u = substitution_polynomial(g, "u").substitute(rename)
        merged_v = substitution_polynomial(g, "v").substitute(rename)
        expected = poly({(("y", 1), ("t", 1)): 1, (("y", 1), ("z", 1)): 1})
        assert merged_u == expected
        assert merged_v == expected

    def test_mbi_xi_marks_carry_the_marker(self):
        g = builtin_grammar("mbi_xi")
        assert substitution_polynomial(g, "x") == poly(
            {
                (("v", 1), ("y", 1)): 1,
                (("x", 2),): 1,
                (("u", 1), ("y", 1)): 1,
                (("y", 1), ("z", 1), ("xi", 1)): 1,
            },
            markers=("xi",),
        )

    def test_bal01(self):
        g = builtin_grammar("bal01")
        assert substitution_polynomial(g, "x") == poly(
            {(("x", 2),): 1, (("x", 1), ("y", 1)): 1}
        )


class TestIterates:
    def test_epl_iterates(self):
        g = builtin_grammar("epl")
        s0, s1, s2 = iterates(g, 2)
        assert s0 == Polynomial.variable("x")
        assert s1 == poly({(("x", 1), ("y", 1)): 1, (("x", 2), ("y", 1)): 1})
        assert s2 == poly(
            {
                (("x", 2), ("y", 1)): 1,
                (("x", 3), ("y", 1)): 1,
                (("x", 3), ("y", 2)): 1,
                (("x", 4), ("y", 2)): 2,
                (("x", 5), ("y", 2)): 1,
            }
        )

    def test_epl_iterate_sum(self):
        g = builtin_grammar("epl")
        assert iterate_sum(g, 2) == poly(
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

    def test_bal23_second_iterate(self):
        g = builtin_grammar("bal23")
        assert iterates(g, 2)[2] == poly(
            {
                (("x", 4),): 1,
                (("x", 5),): 2,
                (("x", 6),): 2,
                (("x", 7),): 3,
                (("x", 8),): 3,
                (("x", 9),): 1,
            }
        )

    def test_bal_iterates(self):
        g = builtin_grammar("bal")
        s = iterates(g, 2)
        assert s[1] == poly({(("x", 1), ("y", 1)): 2, (("x", 2),): 1})
        assert s[2] == poly(
            {
                (("x", 2), ("y", 1)): 4,
                (("x", 3),): 2,
                (("x", 2), ("y", 2)): 4,
                (("x", 3), ("y", 1)): 4,
                (("x", 4),): 1,
            }
        )

    def test_iterates_match_generation(self):
        # Every epl rule keeps at least one bud, so frontiers never
        # shrink and pruning a derivation above the cut loses no term
        # below it.  Steps 0..3 stay whole (degree at most 17); step 4
        # keeps its 5,486 trees of degree at most 24, of 42,840, and
        # test_step_4_matches_the_reference checks the rest of it.
        g = builtin_grammar("epl")
        cut = 24
        its = iterates(g, 4)
        level = [Bud(g.axiom)]
        for steps in range(5):
            if steps:
                level = [d for t in level for d in _derive_within(g, t, cut)]
            counts = {}
            for tree in level:
                mono = evaluation(tree)
                counts[mono] = counts.get(mono, 0) + 1
            assert its[steps].truncate(cut) == Polynomial(counts)

    def test_step_4_matches_the_reference(self):
        g = builtin_grammar("epl")
        assert _same(iterates(g, 4)[4], _reference_iterates(g, 4)[4])


def _graft(tree, subtrees):
    """Replace the frontier buds of ``tree``, left to right."""
    if isinstance(tree, Bud):
        return next(subtrees)
    return BudNode(
        tree.label, tuple(_graft(c, subtrees) for c in tree.children), tree.marked
    )


def _derive_within(g, tree, max_degree):
    """The trees of ``derive_all(g, tree)`` with at most ``max_degree``
    frontier buds, in the same order, without building the larger ones.

    A derivation replaces each frontier bud by the tree of one of its
    rules, so its frontier size is the sum of the chosen trees' sizes.
    """
    options = [
        [(len(frontier(rule.tree)), rule.tree) for rule in g.rules_for(name)]
        for name in frontier(tree)
    ]
    if not options:
        return []
    least = [0] * (len(options) + 1)
    for i in reversed(range(len(options))):
        least[i] = least[i + 1] + min(size for size, _ in options[i])
    results = []
    chosen = []

    def pick(i, used):
        if i == len(options):
            results.append(_graft(tree, iter(chosen)))
            return
        for size, sub in options[i]:
            if used + size + least[i + 1] <= max_degree:
                chosen.append(sub)
                pick(i + 1, used + size)
                chosen.pop()

    pick(0, 0)
    return results


def test_derive_within_is_derive_all_cut_by_frontier():
    for name in builtin_names():
        g = builtin_grammar(name)
        level = [Bud(g.axiom)]
        for _ in range(3):
            level = [
                d for t in level for d in derive_all(g, t) if len(frontier(d)) <= 4
            ][:20]
            for tree in level:
                for bound in range(7):
                    assert _derive_within(g, tree, bound) == [
                        d for d in derive_all(g, tree) if len(frontier(d)) <= bound
                    ], (name, str(tree), bound)


def _series_from_generation(g, max_degree, max_levels=200):
    """Sum tree evaluations level by level, pruning oversized trees.

    Derivations with more than ``max_degree`` frontier buds are dropped
    before they are built.
    """
    total = Polynomial.zero(g.markers)
    level = [Bud(g.axiom)]
    for _ in range(max_levels):
        if not level:
            break
        nxt = []
        seen = set()
        for tree in level:
            mono = evaluation(tree)
            if marked_count(tree):
                mono = mono * Monomial({m: marked_count(tree) for m in g.markers})
            total = total + Polynomial({mono: 1}, g.markers)
            for derived in _derive_within(g, tree, max_degree):
                if derived not in seen:
                    seen.add(derived)
                    nxt.append(derived)
        level = nxt
    else:
        raise AssertionError("generation did not settle")
    assignment = {
        var: Polynomial.variable({"u": "t", "v": "t"}.get(var, var), g.markers)
        for var in (*g.buds, *g.markers)
    }
    if not g.merges:
        assignment = {
            var: Polynomial.variable(var, g.markers)
            for var in (*g.buds, *g.markers)
        }
    return total.truncate(max_degree).substitute(assignment)


class TestSeries:
    def test_perf_series(self):
        g = builtin_grammar("perf")
        assert series(g, 8) == poly(
            {(("x", 1),): 1, (("x", 2),): 1, (("x", 4),): 1, (("x", 8),): 1}
        )
        assert series(g, 7) == poly(
            {(("x", 1),): 1, (("x", 2),): 1, (("x", 4),): 1}
        )

    @pytest.mark.parametrize("name", ["epl", "bal23", "bal"])
    def test_series_counts_generated_trees(self, name):
        g = builtin_grammar(name)
        assert series(g, 8) == _series_from_generation(g, 8)

    @pytest.mark.parametrize("name", ["max", "bi", "mbi", "mbi_xi"])
    def test_series_counts_generated_trees_small(self, name):
        g = builtin_grammar(name)
        assert series(g, 6) == _series_from_generation(g, 6)

    def test_series_extends_consistently(self):
        g = builtin_grammar("bal")
        assert series(g, 10).truncate(6) == series(g, 6)

    def test_balanced_counts_from_bal(self):
        g = builtin_grammar("bal")
        leaf_counts = series(g, 13).specialize({"y": 0})
        for nodes in range(13):
            assert (
                leaf_counts.coefficient({"x": nodes + 1})
                == BALANCED_COUNTS[nodes]
            )

    def test_mbi_and_mbi_xi_agree_without_the_marker(self):
        plain = series(builtin_grammar("mbi"), 7)
        refined = series(builtin_grammar("mbi_xi"), 7)
        assert refined.specialize({"xi": 1}) == plain

    def test_degree_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            series(builtin_grammar("perf"), -1)


def _reference_present(g, p):
    if not g.merges:
        return p
    renames = dict(g.merges)
    return p.substitute(
        {
            var: Polynomial.variable(renames.get(var, var), g.markers)
            for var in (*g.buds, *g.markers)
        }
    )


def _reference_substitution(g):
    subs = {b: substitution_polynomial(g, b) for b in g.buds}
    for m in g.markers:
        subs[m] = Polynomial.variable(m, g.markers)
    return subs


def _reference_series(g, max_degree):
    """The series loop on :class:`Polynomial`: substitute every variable
    of the last iterate, truncate, add, until an iterate vanishes."""
    subs = _reference_substitution(g)
    current = Polynomial.variable(g.axiom, g.markers).truncate(max_degree)
    total = Polynomial.zero(g.markers)
    while not current.is_zero:
        total = total + current
        current = current.substitute(subs).truncate(max_degree)
    return _reference_present(g, total)


def _reference_iterates(g, count):
    subs = _reference_substitution(g)
    current = Polynomial.variable(g.axiom, g.markers)
    out = [current]
    for _ in range(count):
        current = current.substitute(subs)
        out.append(current)
    return [_reference_present(g, p) for p in out]


def _same(p, q):
    """Equal terms, marker sets and display (which orders by markers)."""
    return p == q and p.markers == q.markers and str(p) == str(q)


@st.composite
def _bud_tree_text(draw, buds, depth):
    children = []
    for _ in range(draw(st.integers(1, 2))):
        if depth and draw(st.booleans()):
            children.append(draw(_bud_tree_text(buds, depth - 1)))
        else:
            children.append(f"<{draw(st.sampled_from(buds))}>")
    head = draw(st.sampled_from(["", "0 ", "-1 ", "1* ", "* "]))
    return "[" + head + " ".join(children) + "]"


@st.composite
def strict_grammars(draw):
    """Grammar files with 1-3 buds, optional markers and merges, whose
    rules pass the strictness certificate."""
    buds = ("x", "y", "z")[: draw(st.integers(1, 3))]
    markers = draw(st.sampled_from([(), ("m",), ("m", "n")]))
    lines = [f"buds: {' '.join(buds)}", f"axiom: {draw(st.sampled_from(buds))}"]
    if markers:
        lines.append(f"markers: {' '.join(markers)}")
    merged = draw(st.lists(st.sampled_from(buds), unique=True, max_size=2))
    target = draw(st.sampled_from(["t", *markers]))
    lines += [f"merge: {bud} {target}" for bud in merged]
    for i, bud in enumerate(buds):
        alts = []
        for _ in range(draw(st.integers(1, 3))):
            later = buds[i + 1 :]
            if later and draw(st.booleans()):
                alt = f"<{draw(st.sampled_from(later))}>"
            else:
                alt = draw(_bud_tree_text(buds, 1))
            if markers and draw(st.booleans()):
                alt += f" @{draw(st.sampled_from(markers))}"
            alts.append(alt)
        lines.append(f"{bud} -> " + " | ".join(alts))
    g = parse_grammar("\n".join(lines) + "\n")
    assume(check_strict(g))
    return g


class TestEngineAgainstReference:
    @pytest.mark.parametrize("name", builtin_names())
    def test_builtin_series(self, name):
        g = builtin_grammar(name)
        for degree in range(10):
            assert _same(series(g, degree), _reference_series(g, degree)), degree

    @pytest.mark.parametrize("name", builtin_names())
    def test_builtin_iterates(self, name):
        g = builtin_grammar(name)
        for got, want in zip(iterates(g, 3), _reference_iterates(g, 3)):
            assert _same(got, want)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(strict_grammars(), st.integers(0, 8))
    def test_generated_series(self, g, degree):
        assert _same(series(g, degree), _reference_series(g, degree))

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(strict_grammars())
    def test_generated_iterates(self, g):
        for got, want in zip(iterates(g, 3), _reference_iterates(g, 3)):
            assert _same(got, want)

    def test_iterates_keep_constant_terms(self):
        g = parse_grammar("buds: x y\naxiom: x\nx -> [<x> <y>] | []\ny -> []\n")
        assert not check_strict(g)
        for got, want in zip(iterates(g, 3), _reference_iterates(g, 3)):
            assert _same(got, want)


_CHAIN = (
    "buds: x y z\naxiom: x\nmarkers: m\n"
    "x -> <y> @m\ny -> <z> @m\nz -> [<x> <x>]\n"
)


class TestPackedKeys:
    """The engine's packed keys at the ends of their layout."""

    def test_perf_iterates_far_past_a_small_field(self):
        g = builtin_grammar("perf")
        got = iterates(g, 7)
        assert got[-1] == poly({(("x", 128),): 1})
        for mine, want in zip(got, _reference_iterates(g, 7)):
            assert _same(mine, want)

    def test_markers_on_one_bud_rules_outgrow_the_degree(self):
        g = parse_grammar(_CHAIN)
        assert check_strict(g)
        got = series(g, 9)
        assert _same(got, _reference_series(g, 9))
        # m^30 takes 5 bits, and a bud's field at degree 9 has 4.
        assert max(mono.exponent("m") for mono, _ in got.items()) == 30
        assert got.coefficient({"m": 30, "z": 8}) == 1
        assert _same(counting_series(g, 9), _point_reference(g, 9))
        for mine, want in zip(iterates(g, 12), _reference_iterates(g, 12)):
            assert _same(mine, want)

    def test_engine_checks_are_raised_not_asserted(self):
        with open(grammars.__file__, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree))

    def test_pass_under_optimize(self):
        src = os.path.dirname(os.path.dirname(grammars.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__]
        result = subprocess.run(
            [sys.executable, *argv, "-k", "TestPackedKeys and not optimize"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "3 passed" in result.stdout


def _point_reference(g, max_degree):
    """``series`` of the merge-free grammar, every bud but the axiom at 0."""
    plain = SynchronousGrammar(g.buds, g.axiom, g.rules, g.markers)
    zeros = {bud: 0 for bud in g.buds if bud != g.axiom}
    return series(plain, max_degree).specialize(zeros)


class TestCountingSeries:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(strict_grammars(), st.integers(0, 9))
    def test_generated_grammars(self, g, degree):
        assert _same(counting_series(g, degree), _point_reference(g, degree))

    @pytest.mark.parametrize("name", builtin_names())
    def test_builtins(self, name):
        g = builtin_grammar(name)
        for degree in range(13):
            assert _same(counting_series(g, degree), _point_reference(g, degree))

    def test_axiom_iterate_can_vanish_and_return(self):
        g = parse_grammar("buds: x y\naxiom: x\nx -> [<y>]\ny -> [<x> <x>]\n")
        assert counting_series(g, 6) == poly(
            {(("x", 1),): 1, (("x", 2),): 1, (("x", 4),): 1}
        )

    def test_requires_certificate(self):
        g = parse_grammar("buds: x\naxiom: x\nx -> [<x> <x>] | []\n")
        with pytest.raises(CertificateError):
            counting_series(g, 4)

    def test_degree_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            counting_series(builtin_grammar("bal"), -1)


@st.composite
def _assignments(draw, g):
    """Values for some of the series' variables: buds under their merged
    names, and markers; mostly 0."""
    renames = dict(g.merges)
    names = sorted({renames.get(b, b) for b in g.buds} | set(g.markers))
    chosen = draw(st.lists(st.sampled_from(names), unique=True))
    return {name: draw(st.sampled_from([0, 0, 1, 2])) for name in chosen}


class TestSpecializedSeries:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(st.data(), strict_grammars(), st.integers(0, 8))
    def test_generated_grammars(self, data, g, degree):
        values = data.draw(_assignments(g))
        want = series(g, degree).specialize(values)
        assert _same(_specialized_series(g, degree, values), want)


class TestImbalanceGrammar:
    @pytest.mark.parametrize(
        "name, values, text",
        [
            (
                "bal",
                {-1, 0, 1},
                "buds: x y\naxiom: x\ncounting: x y\n"
                "x -> [-1 <x> <y>] | [0 <x> <x>] | [1 <y> <x>]\n"
                "y -> <x>\n",
            ),
            (
                "bal01",
                {0, 1},
                "buds: x y\naxiom: x\ncounting: x y\n"
                "x -> [0 <x> <x>] | [1 <y> <x>]\n"
                "y -> <x>\n",
            ),
        ],
    )
    def test_builtins_are_instances(self, name, values, text):
        g = builtin_grammar(name)
        assert g == imbalance_grammar(values)
        assert g.name == name
        assert render_grammar(g) == text

    def test_deep_set_is_strict_and_round_trips(self):
        g = imbalance_grammar({-3, 0, 2})
        assert g.buds == ("x", "y", "y2", "y3")
        assert check_strict(g)
        assert check_unambiguous(g)
        text = render_grammar(g)
        assert text == (
            "buds: x y y2 y3\naxiom: x\ncounting: x y y2 y3\n"
            "x -> [-3 <x> <y3>] | [0 <x> <x>] | [2 <y2> <x>]\n"
            "y -> <x>\ny2 -> <y>\ny3 -> <y2>\n"
        )
        assert parse_grammar(text) == g

    @pytest.mark.parametrize(
        "values",
        [
            (-1, 0, 1), (0, 1), (0,), (-2, -1, 0, 1, 2), (0, 2), (-3, 0, 3),
            (-2, 0, 1), (-1, 0, 1, 2),
        ],
        ids=str,
    )
    def test_counts_are_family_sizes(self, values):
        counts = counting_series(imbalance_grammar(values), 15)
        allowed = ImbalanceSet.of(*values)
        for n in range(15):
            assert counts.coefficient({"x": n + 1}) == len(
                imbalance_family(n, allowed)
            ), n

    @pytest.mark.parametrize("values", [(), (1,), (-1, 1, 2)])
    def test_zero_is_required(self, values):
        with pytest.raises(GrammarError, match="must contain 0"):
            imbalance_grammar(values)


class TestGrammarFiles:
    def test_round_trip_builtins(self):
        for name in builtin_names():
            g = builtin_grammar(name)
            text = render_grammar(g)
            again = parse_grammar(text)
            assert again == g, name
            assert render_grammar(again) == text, name

    def test_parse_handwritten_file(self):
        text = """
        # toy grammar
        buds: x y
        axiom: x
        markers: xi
        x -> [0 <x> <x>] | [1* <y> <x>] @xi
        y -> <x>
        """
        g = parse_grammar(text)
        assert g.buds == ("x", "y")
        assert g.rules[1].marker == "xi"
        assert g.rules[1].tree == BudNode(1, (Bud("y"), Bud("x")), marked=True)
        assert g.rules[2] == Rule("y", Bud("x"))

    def test_counting_header_must_list_buds(self):
        with pytest.raises(GrammarError):
            parse_grammar("buds: x\naxiom: x\ncounting: x q\nx -> [<x> <x>]\n")
        g = parse_grammar("buds: x\naxiom: x\ncounting: x\nx -> [<x> <x>]\n")
        assert g.buds == ("x",)

    @pytest.mark.parametrize(
        "bad",
        [
            "axiom: x\nx -> <x>\n",
            "buds: x\nx -> <x>\n",
            "buds: x\naxiom: x\nx -> <x> @\n",
            "buds: x\naxiom: x\nmerge: u\nx -> <x>\n",
            "buds: x\naxiom: x\nnonsense here\n",
            "buds: x\naxiom: x\nx -> \n",
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(GrammarError):
            parse_grammar(bad)

    def test_unknown_builtin(self):
        with pytest.raises(GrammarError):
            builtin_grammar("nope")
