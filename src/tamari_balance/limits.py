"""Every size bound of the library, the CLI and the scripts, in one table.

The paper's results are checked by exhaustive sweeps, so these bounds
decide how far each one is checked.  A row holds the largest value one
computation accepts, what the value counts, and why the bound sits
there; the reasons are measurements on a 2-core host.  Library
functions call :meth:`Limit.check`; the CLI and the scripts read
``bound`` for their own messages and ``--help``.
"""

from __future__ import annotations

from ._record import frozen


@frozen
class Limit:
    """One size bound: the largest accepted value and why."""

    bound: int
    what: str
    reason: str

    def check(self, value: int) -> None:
        """Raise :class:`ValueError` when ``value`` exceeds the bound."""
        if value > self.bound:
            raise ValueError(
                f"{self.what} is capped at {self.bound}, got {value}: {self.reason}"
            )


# Library enumerations.
ALL_TREES = Limit(
    13, "all_trees node count",
    "all_trees(13) takes 2.8-3.3 s and 239 MB; n=14 would take about 800 MB",
)
TAMARI_POSET = Limit(
    12, "tamari_poset node count",
    "tamari_poset(12) takes 5.6-8.4 s and 144 MB, growing about 3x per node",
)
IMBALANCE_FAMILY = Limit(
    26, "imbalance_family node count",
    "the balanced family at n=26 is 1,199,384 trees, built in tree-string order "
    "in 2.8-3.1 s and 277 MB",
)
WEIGHT_BALANCED = Limit(
    15, "weight_balanced_trees node count",
    "at most 32 trees per size up to 15, but 1,024 at n=20 and 65,536 at n=37",
)
HEIGHT = Limit(
    5, "balanced_trees_of_height height",
    "height 5 has 108,675 balanced trees, built in 0.11-0.14 s and 41 MB; "
    "height 6 has 11,878,720,875",
)
INTERIOR_HEIGHT = Limit(
    10, "interior_trees height",
    "height 10 has 8,192 trees, height 11 has 2,097,152; interior_count goes further",
)
FIBONACCI_INDEX = Limit(
    25, "fibonacci_tree index",
    "fibonacci_tree(25) has 121,392 nodes; its tree string is 364,177 characters",
)

# CLI and script sweeps.
ENUM_CROSS_CHECK = Limit(
    10, "enumeration cross-check size",
    "classifying the 60 balanced trees at n=10 takes 2 ms; n=19 alone takes 0.5 s",
)
BRUTE_INTERVALS = Limit(
    19, "brute-force interval cross-check size",
    "the brute route takes about 1 s to n=19, 4 s at n=22 and 191 s at n=25",
)
CHECK_SWEEP = Limit(
    12, "check closure sweep size",
    "closure-vbalanced --v=.. checks all 208,012 trees at n=12 in 4.8-5.1 s and 152 MB",
)
CHECK_HYPERCUBE = Limit(
    16, "check hypercube size",
    "the sweep verifies 26,178 intervals to n=16 in 7.1 s and 21 MB; "
    "to n=17 it is 43,500 more and 14.8 s",
)
HASSE_TAMARI = Limit(
    10, "hasse tamari node count",
    "n=10 is 16,796 trees and 2.3 MB of DOT in 0.6 s and 49 MB",
)
HASSE_BALANCED = Limit(
    15, "hasse balanced node count",
    "n=15 is 1,553 trees and 169 KB of DOT in 0.3 s",
)
HASSE_INTERVAL = Limit(
    12, "hasse interval node count",
    "the widest interval at n=12 is the whole order, 208,012 trees, in 11 s",
)
