#!/usr/bin/env python3
"""Computer trials for the {0, b}-balanced incomparability observation.

For each chosen offset b, lists the sizes of the {0, b}-balanced
families, sweeps them for comparable pairs, and runs the closure check.
Nothing here is a proof: the sweep reports what exhaustive search sees
on small sizes, and prints it as an observation only.
"""

import argparse
import json

from tamari_balance import limits
from tamari_balance.families import ImbalanceSet, closure_check, imbalance_family
from tamari_balance.tamari import comparable_pairs
from tamari_balance.trees import serialize


def trial(beta: int, max_n: int) -> dict:
    allowed = ImbalanceSet.of(0, beta)
    sizes = []
    comparable = []
    breaks = []
    for n in range(max_n + 1):
        members = imbalance_family(n, allowed)
        sizes.append(len(members))
        for lower, upper in comparable_pairs(members, members):
            if lower == upper:
                continue
            comparable.append(
                {"n": n, "lower": serialize(lower), "upper": serialize(upper)}
            )
        found = closure_check(members)
        if found is not None:
            breaks.append(
                {"n": n, "chain": [serialize(t) for t in found.chain]}
            )
    return {
        "beta": beta,
        "set": str(allowed),
        "sizes": sizes,
        "comparable_pairs": comparable,
        "closure_breaks": breaks,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--beta",
        type=int,
        nargs="+",
        default=list(range(-4, 5)),
        help="offsets b to try (default -4..4)",
    )
    parser.add_argument(
        "--max-n",
        type=int,
        default=9,
        help=f"largest tree size to sweep, at most {limits.IMBALANCE_FAMILY.bound}",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON")
    args = parser.parse_args()
    if not 0 <= args.max_n <= limits.IMBALANCE_FAMILY.bound:
        parser.error(f"--max-n must lie in 0..{limits.IMBALANCE_FAMILY.bound}")

    results = [trial(beta, args.max_n) for beta in sorted(set(args.beta))]
    if args.json:
        print(json.dumps({"max_n": args.max_n, "trials": results}, indent=2))
        return 0
    for result in results:
        sizes = ", ".join(str(s) for s in result["sizes"])
        print(f"{{0, {result['beta']}}}  sizes: {sizes}")
        if result["comparable_pairs"]:
            for pair in result["comparable_pairs"]:
                print(
                    f"  comparable pair at n={pair['n']}: "
                    f"{pair['lower']} < {pair['upper']}"
                )
        else:
            print("  no comparable pairs: every member incomparable")
        if result["closure_breaks"]:
            for item in result["closure_breaks"]:
                print(f"  closure break at n={item['n']}: {' -> '.join(item['chain'])}")
        else:
            print("  closure check: no counterexample")
    print(
        f"\nObservation only: exhaustive up to n={args.max_n}; "
        "no statement is made beyond that range."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
