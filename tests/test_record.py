"""Frozen record classes: construction, repr, equality, hashing, replace.

Every record of the library is made by ``_record.frozen``.  The reprs
pinned here are those ``@dataclass(frozen=True)`` printed for the same
classes, and each hash is that of the compared fields' tuple, so set
orders and outputs do not depend on which of the two built a class.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import tamari_balance
from tamari_balance import cli, intervals, limits
from tamari_balance._record import replace
from tamari_balance.balance import RotationClassification, RotationKind
from tamari_balance.families import (
    CanopyClass,
    ClosureCounterexample,
    ClosureVerdict,
    ImbalanceSet,
)
from tamari_balance.grammars import (
    Bud,
    BudNode,
    GrammarError,
    Rule,
    SynchronousGrammar,
    builtin_grammar,
)
from tamari_balance.intervals import BalancedSubposet, RotationRootSet
from tamari_balance.patterns import ImbalancePattern
from tamari_balance.trees import parse

ROW = limits.Limit(12, "tamari_poset node count", "grows about 3x per node")
ONE, TWO = parse("(..)"), parse("((..).)")

# (record, its repr, the fields that equality and hashing compare)
CASES = [
    (
        ImbalanceSet.of(0),
        "ImbalanceSet(values=frozenset({0}), lower=None, upper=None)",
        ("values", "lower", "upper"),
    ),
    (
        ImbalanceSet(lower=-1),
        "ImbalanceSet(values=None, lower=-1, upper=None)",
        ("values", "lower", "upper"),
    ),
    (
        ROW,
        "Limit(bound=12, what='tamari_poset node count', reason='grows about 3x per node')",
        ("bound", "what", "reason"),
    ),
    (Bud("x"), "Bud(name='x')", ("name",)),
    (
        BudNode(-1, (Bud("z"), Bud("y")), True),
        "BudNode(label=-1, children=(Bud(name='z'), Bud(name='y')), marked=True)",
        ("label", "children", "marked"),
    ),
    (
        Rule("x", BudNode(None, ())),
        "Rule(bud='x', tree=BudNode(label=None, children=(), marked=False), marker=None)",
        ("bud", "tree", "marker"),
    ),
    (
        SynchronousGrammar(("x",), "x", (Rule("x", BudNode(0, ())),), name="leaf"),
        "SynchronousGrammar(buds=('x',), axiom='x', rules=(Rule(bud='x', "
        "tree=BudNode(label=0, children=(), marked=False), marker=None),), "
        "markers=(), merges=(), name='leaf')",
        ("buds", "axiom", "rules", "markers", "merges"),
    ),
    (
        ImbalancePattern(1, ImbalancePattern(0)),
        "ImbalancePattern(label=1, left=ImbalancePattern(label=0, left=None, "
        "right=None), right=None)",
        ("label", "left", "right"),
    ),
    (
        RotationClassification(RotationKind.SIMPLY_UNBALANCING, (0, 0), (2, 1)),
        "RotationClassification(kind=<RotationKind.SIMPLY_UNBALANCING: "
        "'simply-unbalancing'>, before=(0, 0), after=(2, 1))",
        ("kind", "before", "after"),
    ),
    (
        RotationRootSet(TWO, frozenset({1})),
        "RotationRootSet(base=parse('((..).)'), ranks=frozenset({1}))",
        ("base", "ranks"),
    ),
    (
        BalancedSubposet(1, (ONE,), ()),
        "BalancedSubposet(n=1, trees=(parse('(..)'),), edges=())",
        ("n", "trees", "edges"),
    ),
    (
        ClosureCounterexample((ONE, TWO), 1),
        "ClosureCounterexample(chain=(parse('(..)'), parse('((..).)')), failing_index=1)",
        ("chain", "failing_index"),
    ),
    (
        ClosureVerdict(closed=False, lemma="upper-0"),
        "ClosureVerdict(closed=False, lemma='upper-0', mirrored=False)",
        ("closed", "lemma", "mirrored"),
    ),
    (
        CanopyClass("", (ONE,), ONE, ONE),
        "CanopyClass(word='', members=(parse('(..)'),), lower=parse('(..)'), "
        "upper=parse('(..)'))",
        ("word", "members", "lower", "upper"),
    ),
    (
        cli.SequenceReport("balanced", "n", (0, 1), (1, 1), (1, 1)),
        "SequenceReport(family='balanced', label='n', indices=(0, 1), "
        "computed=(1, 1), expected=(1, 1))",
        ("family", "label", "indices", "computed", "expected"),
    ),
    (
        intervals._SeriesCounts("bal", "balanced", "enumeration", len, ROW),
        "_SeriesCounts(grammar='bal', what='balanced', brute_route='enumeration', "
        "brute=<built-in function len>, row=Limit(bound=12, what='tamari_poset "
        "node count', reason='grows about 3x per node'))",
        ("grammar", "what", "brute_route", "brute", "row"),
    ),
    (
        cli._Family("n", (1, 1), len),
        "_Family(label='n', expected=(1, 1), compute=<built-in function len>)",
        ("label", "expected", "compute"),
    ),
]
IDS = [type(record).__name__ + str(i) for i, (record, _, _) in enumerate(CASES)]


@pytest.mark.parametrize("record, text, compared", CASES, ids=IDS)
def test_repr_equality_and_hash(record, text, compared):
    assert repr(record) == text
    fields = tuple(getattr(record, name) for name in compared)
    assert hash(record) == hash(fields)
    twin = replace(record)
    assert twin == record and twin is not record and hash(twin) == hash(record)
    assert record != fields


@pytest.mark.parametrize("record, text, compared", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record, text, compared):
    for name in compared:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


@pytest.mark.parametrize("record, text, compared", CASES, ids=IDS)
def test_missing_or_unknown_arguments_raise_type_error(record, text, compared):
    cls = type(record)
    fields = [getattr(record, name) for name in cls.__match_args__]
    assert cls(*fields) == record
    assert cls(**dict(zip(cls.__match_args__, fields))) == record
    with pytest.raises(TypeError):
        cls(*fields, None)
    with pytest.raises(TypeError):
        cls(*fields, unknown=None)
    with pytest.raises(TypeError):
        cls(*fields[:1], **{cls.__match_args__[0]: fields[0]})
    if cls is not ImbalanceSet:  # every field of ImbalanceSet has a default
        with pytest.raises(TypeError):
            cls()


def test_grammar_equality_ignores_the_name():
    g = builtin_grammar("bal")
    renamed = replace(g, name="other")
    assert renamed.name == "other" and g.name == "bal"
    assert renamed == g and hash(renamed) == hash(g)
    assert replace(g, merges=(("y", "t"),)) != g


def test_replace_validates_again():
    with pytest.raises(ValueError, match="must contain 0"):
        replace(ImbalanceSet.of(0), values=frozenset({1}))
    with pytest.raises(GrammarError, match="is not a bud"):
        replace(builtin_grammar("bal"), axiom="w")
    with pytest.raises(TypeError):
        replace(ImbalanceSet.of(0), unknown=1)


def test_import_loads_no_dataclasses_inspect_or_typing():
    # -S skips ``site``, so a module that a ``.pth`` file preloads cannot
    # hide one that the library imports.
    src = Path(tamari_balance.__file__).resolve().parent.parent
    script = (
        f"import sys; sys.path.insert(0, {str(src)!r}); "
        "import tamari_balance, tamari_balance.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') "
        "if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
