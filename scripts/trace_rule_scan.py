#!/usr/bin/env python3
"""Scan the rule-generated trace expressions and test each one symbolically.

Generates every rule-certified word expression up to a degree bound, prints
the census (by rule kind and by degree), and then verifies each expression
exactly — tr(A(XY-YX)) must vanish identically — over the rationals at the
requested matrix sizes.  Any failure would disprove the generating rule.

Example:
    python3 scripts/trace_rule_scan.py --degree 5 --sizes 2 3 4
    python3 scripts/trace_rule_scan.py --degree 6 --sizes 2 --list
"""

import argparse
import sys
import time
from collections import Counter

from commsyz.fields import QQ
from commsyz.genmat import build_system
from commsyz.syzygy import trace_residuals
from commsyz.words import candidates


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--degree", type=int, default=5, help="max word degree (default 5)")
    parser.add_argument("--sizes", type=int, nargs="+", default=[2, 3],
                        metavar="N", help="matrix sizes to test at (default: 2 3)")
    parser.add_argument("--list", action="store_true", help="print every expression")
    args = parser.parse_args(argv)

    exprs = candidates(args.degree)
    by_rule = Counter(e.rule for e in exprs)
    by_degree = Counter(e.degree for e in exprs)
    print(f"{len(exprs)} expressions up to degree {args.degree}")
    print("  by rule:  " + ", ".join(f"{k}={v}" for k, v in sorted(by_rule.items())))
    print("  by degree: " + ", ".join(f"{d}:{c}" for d, c in sorted(by_degree.items())))
    if args.list:
        for e in exprs:
            print(f"  [{e.rule}] {e}")

    failures = []
    for n in args.sizes:
        system = build_system(n, QQ)
        start = time.perf_counter()
        bad = [str(e) for e, r in zip(exprs, trace_residuals(exprs, system)) if not r.is_zero()]
        elapsed = time.perf_counter() - start
        verdict = "all pass" if not bad else f"{len(bad)} FAIL: {bad}"
        print(f"n={n}: {verdict} ({elapsed:.2f}s)")
        failures.extend(bad)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
