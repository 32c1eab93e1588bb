#!/usr/bin/env python3
"""Survey the predicted colon-ideal degree data as the matrix size grows.

For each size the script prints the closed-form selection parameters, then
the enumerated bidegree table (degree by degree, as contiguous runs of
(x, y) splits), and cross-checks the two: the enumeration must realize the
closed-form degree window and the extreme-degree counts exactly, with one
contiguous run of splits per degree.

Example:
    python3 scripts/colon_degree_survey.py --max-n 12
    python3 scripts/colon_degree_survey.py --max-n 6 --uncapped
"""

import argparse
import sys

from commsyz.conjecture import colon_bidegrees, selection_params, selection_problems


def survey_one(n: int, uncapped: bool) -> bool:
    params = selection_params(n)
    cutoff = n * n if uncapped else None
    table = colon_bidegrees(n, degree_cutoff=cutoff)

    print(f"n={n}: k={params.k} s={params.s} a={params.a} "
          f"degrees {params.d_min}..{params.d_max} "
          f"counts {params.count_min}(min) {params.count_max}(max)")
    for d in sorted(table):
        xs = sorted(x for x, _ in table[d])
        runs = f"x in {xs[0]}..{xs[-1]}" if len(xs) > 1 else f"x = {xs[0]}"
        print(f"  degree {d:3d}: {len(table[d]):3d} bidegrees  ({runs})")

    ok = not selection_problems(n, table)
    print(f"  closed forms vs enumeration: {'ok' if ok else 'MISMATCH'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-n", type=int, default=2)
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument(
        "--uncapped", action="store_true",
        help="also enumerate degrees beyond the default cutoff n(n-1)/2",
    )
    args = parser.parse_args(argv)
    if args.min_n < 2 or args.max_n < args.min_n:
        parser.error("need 2 <= min-n <= max-n")

    all_ok = True
    for n in range(args.min_n, args.max_n + 1):
        all_ok = survey_one(n, args.uncapped) and all_ok
        print()
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
