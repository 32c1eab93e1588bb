#!/usr/bin/env python3
"""Run the whole verification suite across a range of matrix sizes.

Each size runs through `run_command` exactly as `commsyz verify -n N` does,
so it gets the same per-size check plan and the same desk-limit rule.  Exit
status is nonzero iff any check FAILs.

Example:
    python3 scripts/desk_verify.py --sizes 2 3 4
"""

import argparse
import sys

from commsyz.cli import FLAGS, RunConfig, emit, run_command


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[2, 3], metavar="N",
        help="matrix sizes to verify (default: 2 3)",
    )
    parser.add_argument("--field", default="gf:32003", help="q or gf:p (default gf:32003)")
    for flag in ("--budget-spairs", "--budget-seconds"):
        kind, _, _, text = FLAGS[flag]
        parser.add_argument(flag, type=kind, default=None, help=text)
    parser.add_argument("--json", action="store_true", help="emit one JSON report per size")
    args = parser.parse_args(argv)

    status = 0
    for n in args.sizes:
        cfg = RunConfig(
            command="verify",
            n=n,
            field=args.field,
            budget_spairs=args.budget_spairs,
            budget_seconds=args.budget_seconds,
            json_output=args.json,
        )
        report = run_command(cfg)
        print(emit(report, "json" if args.json else "text"))
        print()
        status = max(status, report.exit_code())
    return status


if __name__ == "__main__":
    sys.exit(main())
