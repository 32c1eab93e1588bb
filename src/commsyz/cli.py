"""Command-line entry point: build commutator systems, run bases, syzygies,
colon ideals, Hilbert series, predictors, and the verification suite.

Every run produces a Report; `--json` emits it under the versioned schema
with all wall-clock numbers quarantined in the `timing` block, so reports
from identical configurations are byte-identical apart from that block.
Flags can also be set through `COMMSYZ_*` environment variables (the
command-line value wins).  Exit status is 0 exactly when no check reports
FAIL; argparse usage errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field as dc_field
from time import perf_counter
from typing import Optional

from commsyz.conjecture import (
    colon_bidegrees,
    first_betti_prediction,
    first_betti_total,
    knutson_bidegree_feasible,
    knutson_candidates,
    resolution_shape,
    selection_params,
)
from commsyz.fields import field_from_name
from commsyz.groebner import Budget, buchberger
from commsyz.hilbert import hilbert_of_basis
from commsyz.syzygy import first_syzygies, is_trace_syzygy, trace_residual
from commsyz.verify import (
    DESK_LIMIT,
    CheckDef,
    CheckResult,
    DeskContext,
    check_splice_euler,
    run_check,
    run_suite,
)
from commsyz.words import candidates as word_candidates

REPORT_SCHEMA = "commsyz-report/1"
ENV_PREFIX = "COMMSYZ_"

#: the fixed trace-form candidate set used for word verdicts
WORD_DEGREE = 5


@dataclass(frozen=True)
class RunConfig:
    """Echoable configuration shared by every subcommand."""

    command: str
    n: int = 3
    field: str = "gf:32003"
    order: str = "grevlex"
    budget_seconds: Optional[float] = None
    budget_spairs: Optional[int] = None
    degree_bound: Optional[int] = None
    fixtures: Optional[str] = None
    json_output: bool = False
    extras: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        field_from_name(self.field)  # raises on a non-prime modulus
        if self.n < 1:
            raise ValueError("n must be at least 1")
        self.budget()  # validates positivity

    def coefficient_field(self):
        return field_from_name(self.field)

    def budget(self) -> Optional[Budget]:
        if self.budget_seconds is None and self.budget_spairs is None:
            return None
        return Budget(
            max_spairs=self.budget_spairs,
            max_seconds=self.budget_seconds,
            on_exhaustion="partial",
        )

    def context(self) -> DeskContext:
        return DeskContext(
            field=self.coefficient_field(),
            order=self.order,
            budget=self.budget(),
            fixture_dir=self.fixtures,
        )

    def as_dict(self) -> dict:
        d = asdict(self)
        d.pop("command")
        return d


@dataclass
class Report:
    command: str
    config: dict
    results: list  # [{"name", "verdict", "detail"}] in a deterministic order
    timing: dict
    schema: str = REPORT_SCHEMA

    def as_dict(self) -> dict:
        return {
            "schema": self.schema,
            "command": self.command,
            "config": self.config,
            "results": self.results,
            "timing": self.timing,
        }

    def exit_code(self) -> int:
        return 1 if any(r["verdict"] == "FAIL" for r in self.results) else 0


def _report(cfg: RunConfig, results: list, total_seconds: float) -> Report:
    """Assemble a Report from CheckResults, splitting timing out."""
    return Report(
        command=cfg.command,
        config=cfg.as_dict(),
        results=[
            {"name": r.name, "verdict": r.verdict, "detail": r.detail} for r in results
        ],
        timing={
            "total_seconds": round(total_seconds, 3),
            "per_result": {r.name: round(r.seconds, 3) for r in results},
        },
    )


def _stats_detail(stats) -> dict:
    d = stats.as_dict()
    d.pop("seconds", None)
    return d


def _desk_guard(cfg: RunConfig, what: str) -> Optional[CheckResult]:
    """SKIPPED result for Groebner-sized work past the desk limit, unless an
    explicit budget turns the attempt into a bounded partial run."""
    if cfg.n <= DESK_LIMIT or cfg.budget() is not None:
        return None
    reason = (
        f"{what} at n={cfg.n} exceeds the desk-scale limit (n <= {DESK_LIMIT}); "
        "pass --budget-seconds or --budget-spairs to attempt a bounded partial run"
    )
    return CheckResult("desk-limit", "SKIPPED", {"reason": reason}, 0.0)


# ---------------------------------------------------------------------------
# subcommand handlers: cfg -> list of CheckResult
# ---------------------------------------------------------------------------


def cmd_commutator(cfg: RunConfig) -> list:
    def run(ctx, n):
        system = ctx.system(n)
        entries = [
            {
                "index": k,
                "bidegree": list(system.f(k).bidegree()),
                "entry": str(system.f(k)),
            }
            for k in range(1, n * n + 1)
        ]
        detail = {
            "n": n,
            "entries": entries,
            "diagonal_indices": list(system.diagonal_indices),
        }
        return "PASS", detail

    return [run_check(CheckDef("commutator", run, lambda n: "run"), cfg.context(), cfg.n)]


def cmd_candidates(cfg: RunConfig) -> list:
    def run(ctx, n):
        exprs = word_candidates(cfg.extras["max_degree"])
        rows = []
        for e in exprs:
            bideg = e.bidegree()
            rows.append(
                {
                    "expr": str(e),
                    "rule": e.rule,
                    "degree": e.degree,
                    "bidegree": None if bideg is None else list(bideg),
                }
            )
        return "PASS", {"max_degree": cfg.extras["max_degree"], "candidates": rows}

    return [run_check(CheckDef("candidates", run, lambda n: "run"), cfg.context(), cfg.n)]


def cmd_groebner(cfg: RunConfig) -> list:
    guard = _desk_guard(cfg, "a Groebner basis")
    if guard:
        return [guard]

    def run(ctx, n):
        system = ctx.system(n)
        which = cfg.extras["ideal"]
        gens = list(system.off_diagonal_gens if which == "J" else system.minimal_gens)
        basis = buchberger(gens, budget=cfg.budget(), degree_bound=cfg.degree_bound)
        degs = {}
        for g in basis:
            degs[g.degree()] = degs.get(g.degree(), 0) + 1
        detail = {
            "ideal": which,
            "size": len(basis),
            "complete": basis.complete,
            "truncation_degree": basis.truncation_degree,
            "lead_degree_counts": {str(d): c for d, c in sorted(degs.items())},
            "stats": _stats_detail(basis.stats),
        }
        return ("PASS" if basis.complete else "PARTIAL"), detail

    return [run_check(CheckDef("groebner", run, lambda n: "run"), cfg.context(), cfg.n)]


def cmd_colon(cfg: RunConfig) -> list:
    guard = _desk_guard(cfg, "a colon ideal")
    if guard:
        return [guard]

    def run(ctx, n):
        new_gens = ctx.new_colon_generators(n)
        detail = {
            "base_generators": len(list(ctx.system(n).off_diagonal_gens)),
            "new_generators": [
                {
                    "bidegree": list(g.bidegree()),
                    "degree": g.degree(),
                    "generator": str(g),
                }
                for g in new_gens
            ],
        }
        return "PASS", detail

    return [run_check(CheckDef("colon", run, lambda n: "run"), cfg.context(), cfg.n)]


def cmd_syzygies(cfg: RunConfig) -> list:
    guard = _desk_guard(cfg, "a first-syzygy computation")
    if guard:
        return [guard]

    def run(ctx, n):
        fs = first_syzygies(
            ctx.system(n), degree_bound=cfg.degree_bound, budget=cfg.budget()
        )
        words = []
        if n <= 4:
            system_qq = ctx.system_qq(n)
            for e in word_candidates(WORD_DEGREE):
                words.append(
                    {"expr": str(e), "syzygy": is_trace_syzygy(e, system_qq)}
                )
        detail = {
            "rank": fs.rank,
            "degree_bound": fs.degree_bound,
            "counts": {str(k): v for k, v in sorted(fs.counts.items())},
            "counts_are_lower_bounds": fs.partial,
            "word_candidates": words,
            "stats": _stats_detail(fs.stats),
        }
        return ("PARTIAL" if fs.partial else "PASS"), detail

    return [run_check(CheckDef("syzygies", run, lambda n: "run"), cfg.context(), cfg.n)]


def cmd_syzygy_check(cfg: RunConfig) -> list:
    def run(ctx, n):
        system = ctx.system(n)
        text = cfg.extras["matrix_text"]
        rows = [line for line in text.strip().splitlines() if line.strip()]
        if len(rows) != n:
            raise ValueError(f"matrix file must have n={n} nonempty lines, got {len(rows)}")
        parsed = []
        for line in rows:
            cells = line.split(";")
            if len(cells) != n:
                raise ValueError(
                    f"each line needs n={n} ';'-separated entries, got {len(cells)}"
                )
            parsed.append([system.ring.parse(c) for c in cells])
        from commsyz.genmat import GenericMatrix

        mat = GenericMatrix(system.ring, parsed)
        residual = trace_residual(mat, system)
        ok = residual.is_zero()
        detail = {"syzygy": ok, "residual": "0" if ok else str(residual)}
        return ("PASS" if ok else "FAIL"), detail

    return [
        run_check(CheckDef("syzygy-check", run, lambda n: "run"), cfg.context(), cfg.n)
    ]


def cmd_hilbert(cfg: RunConfig) -> list:
    guard = _desk_guard(cfg, "a Hilbert series")
    if guard:
        return [guard]

    def run(ctx, n):
        which = cfg.extras["ideal"]
        basis = ctx.gb_off_diagonal(n) if which == "J" else ctx.gb_commutator(n)
        series = hilbert_of_basis(basis)
        detail = {
            "ideal": which,
            "numerator": list(series.numerator),
            "nvars": series.nvars,
            "dimension": series.dimension,
            "multiplicity": series.multiplicity,
            "series": str(series),
        }
        return "PASS", detail

    return [run_check(CheckDef("hilbert", run, lambda n: "run"), cfg.context(), cfg.n)]


def cmd_check_splice(cfg: RunConfig) -> list:
    check = CheckDef("check-splice", check_splice_euler, lambda n: "run")
    return [run_check(check, cfg.context(), cfg.n)]


def cmd_predict(cfg: RunConfig) -> list:
    target = cfg.extras["target"]

    def run(ctx, n):
        if target == "betti":
            prediction = first_betti_prediction(n)
            detail = {
                "first_syzygies_by_degree": {str(k): v for k, v in sorted(prediction.items())},
                "total": first_betti_total(n) if n >= 3 else sum(prediction.values()),
            }
        elif target == "colon-degrees":
            params = selection_params(n)
            table = colon_bidegrees(n, degree_cutoff=cfg.degree_bound)
            detail = {
                "params": asdict(params),
                "bidegrees_by_degree": {
                    str(d): sorted([list(b) for b in bs]) for d, bs in table.items()
                },
            }
        elif target == "shape":
            shape = resolution_shape(n)
            detail = {
                "display": shape.display(),
                "cells": [
                    {"i": i, "j": j, "count": v} for (i, j), v in sorted(shape.cells.items())
                ],
            }
        else:  # knutson
            system = ctx.system_qq(n)
            rows = []
            for labels, det_poly, bideg in knutson_candidates(system, n - 1):
                rows.append(
                    {
                        "columns": list(labels),
                        "bidegree": list(bideg),
                        "degree": sum(bideg),
                        "feasible": knutson_bidegree_feasible(n, bideg),
                    }
                )
            detail = {"candidates": rows}
        detail["status"] = "CONJECTURE"
        return "PASS", detail

    return [
        run_check(CheckDef(f"predict-{target}", run, lambda n: "run"), cfg.context(), cfg.n)
    ]


def cmd_verify(cfg: RunConfig) -> list:
    return run_suite(cfg.context(), cfg.n)


def run_verify_suite(cfg: RunConfig) -> Report:
    """The full verification suite for the configured n, as a Report."""
    start = perf_counter()
    results = cmd_verify(cfg)
    return _report(cfg, results, perf_counter() - start)


HANDLERS = {
    "commutator": cmd_commutator,
    "candidates": cmd_candidates,
    "groebner": cmd_groebner,
    "colon": cmd_colon,
    "syzygies": cmd_syzygies,
    "syzygy-check": cmd_syzygy_check,
    "hilbert": cmd_hilbert,
    "check-splice": cmd_check_splice,
    "predict": cmd_predict,
    "verify": cmd_verify,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _env(name: str, default=None):
    return os.environ.get(ENV_PREFIX + name, default)


def _shared_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("-n", type=int, default=int(_env("N", 3)), help="matrix size (default 3)")
    p.add_argument(
        "--field",
        default=_env("FIELD", "gf:32003"),
        help="coefficient field: q or gf:<prime> (default gf:32003)",
    )
    p.add_argument(
        "--order",
        default=_env("ORDER", "grevlex"),
        choices=("grevlex", "lex"),
        help="monomial order (default grevlex)",
    )
    p.add_argument(
        "--budget-seconds",
        type=float,
        default=_env("BUDGET_SECONDS"),
        help="wall-clock budget; exceeding it yields a PARTIAL result",
    )
    p.add_argument(
        "--budget-spairs",
        type=int,
        default=_env("BUDGET_SPAIRS"),
        help="s-pair reduction budget; exceeding it yields a PARTIAL result",
    )
    p.add_argument(
        "--degree-bound",
        type=int,
        default=_env("DEGREE_BOUND"),
        help="truncation degree for bases / syzygy runs",
    )
    p.add_argument(
        "--fixtures",
        default=_env("FIXTURES"),
        help="directory of fixture JSON files (default: the shipped set)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        default=_env("JSON", "") not in ("", "0", "false"),
        help="emit the versioned JSON report instead of text",
    )
    return p


def build_parser() -> argparse.ArgumentParser:
    shared = _shared_parser()
    parser = argparse.ArgumentParser(
        prog="commsyz",
        description="Commutator ideals of generic matrices: exact bases, "
        "syzygies, colon ideals, Hilbert series, and conjecture checks.",
        epilog=f"Every flag can be preset via {ENV_PREFIX}<NAME> environment "
        "variables, e.g. COMMSYZ_FIELD=q COMMSYZ_N=2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("commutator", parents=[shared], help="list the commutator entries")
    c = sub.add_parser("candidates", parents=[shared], help="trace-form word candidates")
    c.add_argument("--max-degree", type=int, default=5, help="maximum word degree")
    g = sub.add_parser("groebner", parents=[shared], help="basis of a commutator ideal")
    g.add_argument("--ideal", choices=("I", "J"), default="I", help="full (I) or off-diagonal (J)")
    sub.add_parser("colon", parents=[shared], help="colon ideal generators beyond the base")
    sub.add_parser("syzygies", parents=[shared], help="minimal first-syzygy counts")
    sc = sub.add_parser(
        "syzygy-check", parents=[shared], help="test a matrix file for the trace-syzygy property"
    )
    sc.add_argument(
        "--matrix",
        required=True,
        help="file with n lines of n ';'-separated polynomial entries",
    )
    h = sub.add_parser("hilbert", parents=[shared], help="Hilbert series of a quotient")
    h.add_argument("--ideal", choices=("I", "J"), default="I", help="full (I) or off-diagonal (J)")
    sub.add_parser(
        "check-splice", parents=[shared], help="dual-table splice and alternating-sum checks"
    )
    pr = sub.add_parser("predict", parents=[shared], help="conjectured invariants (labeled)")
    pr.add_argument(
        "target",
        choices=("betti", "colon-degrees", "shape", "knutson"),
        help="which prediction to print",
    )
    sub.add_parser("verify", parents=[shared], help="run the verification suite for n")
    return parser


def parse_args(argv) -> RunConfig:
    parser = build_parser()
    ns = parser.parse_args(argv)
    extras = {}
    if ns.command == "candidates":
        extras["max_degree"] = ns.max_degree
    elif ns.command in ("groebner", "hilbert"):
        extras["ideal"] = ns.ideal
    elif ns.command == "syzygy-check":
        try:
            with open(ns.matrix) as fh:
                extras["matrix_text"] = fh.read()
        except OSError as exc:
            parser.error(f"cannot read matrix file: {exc}")
    elif ns.command == "predict":
        extras["target"] = ns.target
    if ns.command == "check-splice" and ns.n not in (3, 4):
        parser.error("check-splice is defined for -n 3 (computed) and -n 4 (fixtures)")
    try:
        return RunConfig(
            command=ns.command,
            n=ns.n,
            field=ns.field,
            order=ns.order,
            budget_seconds=float(ns.budget_seconds) if ns.budget_seconds is not None else None,
            budget_spairs=int(ns.budget_spairs) if ns.budget_spairs is not None else None,
            degree_bound=int(ns.degree_bound) if ns.degree_bound is not None else None,
            fixtures=ns.fixtures,
            json_output=ns.json,
            extras=extras,
        )
    except ValueError as exc:
        parser.error(str(exc))


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _scalar(value) -> str:
    return value if isinstance(value, str) else json.dumps(value, sort_keys=True)


def _text_detail(detail: dict, indent: str = "    ") -> str:
    lines = []
    for key, value in detail.items():
        if isinstance(value, list) and value and all(isinstance(x, dict) for x in value):
            lines.append(f"{indent}{key}:")
            for x in value:
                row = "  ".join(f"{k}={_scalar(v)}" for k, v in x.items())
                lines.append(f"{indent}  {row}")
        elif isinstance(value, (dict, list)):
            lines.append(f"{indent}{key}: {json.dumps(value, sort_keys=True)}")
        elif isinstance(value, str) and "\n" in value:
            block = ("\n" + indent + "  ").join(value.splitlines())
            lines.append(f"{indent}{key}:\n{indent}  {block}")
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(lines)


def emit(report: Report, fmt: str) -> str:
    """Render a report as 'json' (versioned schema) or 'text'."""
    if fmt == "json":
        return json.dumps(report.as_dict(), sort_keys=True, indent=2)
    lines = [f"commsyz {report.command}"]
    cfg = report.config
    lines.append(f"  n={cfg['n']} field={cfg['field']} order={cfg['order']}")
    per = report.timing.get("per_result", {})
    for r in report.results:
        lines.append(f"{r['verdict']:8s} {r['name']}  ({per.get(r['name'], 0.0):.2f}s)")
        lines.append(_text_detail(r["detail"]))
    lines.append(f"total: {report.timing['total_seconds']:.2f}s")
    return "\n".join(line for line in lines if line)


def main(argv=None) -> int:
    cfg = parse_args(sys.argv[1:] if argv is None else argv)
    start = perf_counter()
    results = HANDLERS[cfg.command](cfg)
    report = _report(cfg, results, perf_counter() - start)
    print(emit(report, "json" if cfg.json_output else "text"))
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
