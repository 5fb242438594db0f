"""The size-bound table is what the library and the CLI enforce.

No library function is called at or above its bound except to see it
refuse: ``all_trees(14)`` alone would take about 650 MB.
"""

import pytest

from tamari_balance import cli, fixtures, intervals, limits
from tamari_balance.balance import balanced_trees_of_height
from tamari_balance.cli import main
from tamari_balance.families import (
    ImbalanceSet,
    imbalance_family,
    weight_balanced_trees,
)
from tamari_balance.patterns import fibonacci_tree, interior_trees
from tamari_balance.tamari import tamari_poset
from tamari_balance.trees import all_trees


def _balanced_family(n):
    return imbalance_family(n, ImbalanceSet.of(-1, 0, 1))


LIBRARY_ROWS = [
    (limits.ALL_TREES, all_trees),
    (limits.TAMARI_POSET, tamari_poset),
    (limits.IMBALANCE_FAMILY, _balanced_family),
    (limits.WEIGHT_BALANCED, weight_balanced_trees),
    (limits.HEIGHT, balanced_trees_of_height),
    (limits.INTERIOR_HEIGHT, interior_trees),
    (limits.FIBONACCI_INDEX, fibonacci_tree),
]


@pytest.mark.parametrize(
    "row, build", LIBRARY_ROWS, ids=[build.__name__ for _, build in LIBRARY_ROWS]
)
def test_library_row_rejects_one_past_its_bound(row, build):
    past = row.bound + 1
    with pytest.raises(ValueError, match=f"capped at {row.bound}, got {past}") as exc:
        build(past)
    assert row.what in str(exc.value)
    assert row.reason in str(exc.value)


def _argv(*head):
    return lambda past: [*head, str(past)]


def _widest_interval(past):
    left_comb = "(" * past + "." + ".)" * past
    right_comb = "(." * past + "." + ")" * past
    return ["hasse", "interval", left_comb, right_comb]


# Each command line rejects one past its bound; the message shows the
# bound in the command's own words.  The interval families of ``enum``
# end at their reference range, not at a row.
CLI_ROWS = [
    pytest.param(
        limits.CHECK_SWEEP.bound,
        _argv("check", "closure-balanced", "--max-n"),
        "--max-n must lie in 0..{bound}, got {past}",
        id="check-closure-balanced",
    ),
    pytest.param(
        limits.CHECK_HYPERCUBE.bound,
        _argv("check", "hypercube", "--max-n"),
        "--max-n must lie in 0..{bound}, got {past}",
        id="check-hypercube",
    ),
    pytest.param(
        limits.HASSE_TAMARI.bound,
        _argv("hasse", "tamari"),
        "hasse tamari is capped at n={bound}, got {past}",
        id="hasse-tamari",
    ),
    pytest.param(
        limits.HASSE_BALANCED.bound,
        _argv("hasse", "balanced"),
        "hasse balanced is capped at n={bound}, got {past}",
        id="hasse-balanced",
    ),
    pytest.param(
        limits.HASSE_INTERVAL.bound,
        _widest_interval,
        "hasse interval is capped at n={bound}, got {past}",
        id="hasse-interval",
    ),
    pytest.param(
        len(fixtures.BALANCED_INTERVAL_COUNTS) - 1,
        _argv("enum", "balanced-intervals", "--max-n"),
        "no reference values for balanced-intervals beyond n={bound}, got {past}",
        id="enum-balanced-intervals",
    ),
    pytest.param(
        len(fixtures.MAXIMAL_INTERVAL_COUNTS) - 1,
        _argv("enum", "maximal-intervals", "--max-n"),
        "no reference values for maximal-intervals beyond n={bound}, got {past}",
        id="enum-maximal-intervals",
    ),
]


@pytest.mark.parametrize("bound, argv, message", CLI_ROWS)
def test_cli_rejects_one_past_its_row(capsys, bound, argv, message):
    past = bound + 1
    code = main(argv(past))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message.format(bound=bound, past=past)}\n"


# The brute route of each series-backed family enumerates trees with
# the function named here, in the module named here, once per size up to
# its row.
CROSS_CHECKED = [
    pytest.param(
        "balanced", cli, "imbalance_family", limits.ENUM_CROSS_CHECK,
        id="balanced",
    ),
    pytest.param(
        "zero-one-balanced", cli, "imbalance_family", limits.ENUM_CROSS_CHECK,
        id="zero-one-balanced",
    ),
    pytest.param(
        "maximal-balanced", cli, "balanced_trees", limits.ENUM_CROSS_CHECK,
        id="maximal-balanced",
    ),
    pytest.param(
        "balanced-intervals", intervals, "balanced_trees",
        limits.BRUTE_INTERVALS, id="balanced-intervals",
    ),
    pytest.param(
        "maximal-intervals", intervals, "balanced_trees",
        limits.BRUTE_INTERVALS, id="maximal-intervals",
    ),
]


@pytest.mark.parametrize("family, module, name, row", CROSS_CHECKED)
def test_enumeration_cross_check_stops_at_its_row(
    monkeypatch, family, module, name, row
):
    enumerated = []
    real = getattr(module, name)

    def recording(n, *rest):
        enumerated.append(n)
        return real(n, *rest)

    monkeypatch.setattr(module, name, recording)
    cli._FAMILIES[family].compute(row.bound + 2)
    assert enumerated == list(range(row.bound + 1))
