#!/usr/bin/env python3
"""Export DOT files for the balanced subposets of small sizes.

Writes one ``balanced_<n>.dot`` per size into the output directory and
prints the component structure (member counts and edge counts, largest
component first) as it goes.  Render with graphviz, for example::

    dot -Tpdf gallery/balanced_7.dot -o balanced_7.pdf
"""

import argparse
from pathlib import Path

from tamari_balance import limits
from tamari_balance.intervals import balanced_subposet


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--max-n",
        type=int,
        default=9,
        help=f"largest tree size to export, at most {limits.HASSE_BALANCED.bound}",
    )
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=Path("gallery"),
        help="directory for the DOT files",
    )
    args = parser.parse_args()
    if not 0 <= args.max_n <= limits.HASSE_BALANCED.bound:
        parser.error(f"--max-n must lie in 0..{limits.HASSE_BALANCED.bound}")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    for n in range(args.max_n + 1):
        subposet = balanced_subposet(n)
        target = args.out_dir / f"balanced_{n}.dot"
        target.write_text(subposet.to_dot() + "\n", encoding="utf-8")
        sizes, edges = subposet.structure()
        print(
            f"n={n}: {len(subposet.trees)} trees, {len(subposet.edges)} edges, "
            f"components {sizes} with edges {edges} -> {target}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
