"""Command-line entry point: build commutator systems, run bases, syzygies,
colon ideals, Hilbert series, predictors, and the verification suite.

`COMMANDS` defines each subcommand in one row: its handler (cfg, ctx, n) ->
(verdict, detail), what it computes when that is Groebner-scale work, the
shared flags it reads and its own arguments.  A subcommand takes no other
flag.  `run_command` is the one dispatcher: it hands `verify.run_suite` the
suite's checks, or one check named after the subcommand, and that planner's
desk limit rule decides what is SKIPPED.

Every run produces a Report; `--json` emits it under the versioned schema
with all wall-clock numbers and the engines' work counts (`stats`)
quarantined in the `timing` block, so reports from identical configurations
are byte-identical apart from that block, and a change of engine that keeps
the answers keeps `results`.  `config` echoes only the settings the
subcommand takes.
Exit status is 0 exactly when no check reports FAIL; usage errors exit 2.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field as dc_field, fields
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple, Optional

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
from commsyz.genmat import GenericMatrix
from commsyz.groebner import Budget, buchberger
from commsyz.hilbert import hilbert_of_basis
from commsyz.syzygy import trace_residual, trace_residuals
from commsyz.verify import (
    CHECKS,
    WORD_DEGREE,
    CheckDef,
    DeskContext,
    check_splice_euler,
    run_suite,
)
from commsyz.words import candidates as word_candidates

REPORT_SCHEMA = "commsyz-report/1"

ORDERS = ("grevlex", "lex")


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
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.order not in ORDERS:
            raise ValueError(f"order must be one of {', '.join(ORDERS)}, not {self.order!r}")
        if self.degree_bound is not None and self.degree_bound < 0:
            raise ValueError("degree bound must be nonnegative")
        self.budget()  # validates positivity

    def budget(self) -> Optional[Budget]:
        if self.budget_seconds is None and self.budget_spairs is None:
            return None
        return Budget(max_spairs=self.budget_spairs, max_seconds=self.budget_seconds)

    def context(self) -> DeskContext:
        return DeskContext(
            field=field_from_name(self.field),
            order=self.order,
            budget=self.budget(),
            fixture_dir=self.fixtures,
            degree_bound=self.degree_bound,
        )

    def as_dict(self) -> dict:
        """The settings the subcommand takes: the shared flags its `COMMANDS`
        row names, --json and its own arguments (`extras`)."""
        taken = {flag.lstrip("-").replace("-", "_") for flag in COMMANDS[self.command].flags}
        taken |= {"json_output", "extras"}
        return {k: v for k, v in asdict(self).items() if k in taken}


@dataclass
class Report:
    command: str
    config: dict
    results: list  # [{"name", "verdict", "detail"}] in a deterministic order
    timing: dict
    schema: str = REPORT_SCHEMA

    def as_dict(self) -> dict:
        return asdict(self)

    def exit_code(self) -> int:
        return 1 if any(r["verdict"] == "FAIL" for r in self.results) else 0


def _stats(stats) -> dict:
    """An engine's work counts, which `run_command` moves to the timing block."""
    return {**asdict(stats), "seconds": round(stats.seconds, 3)}


# ---------------------------------------------------------------------------
# subcommands: (cfg, ctx, n) -> (verdict, detail), dispatched by run_command
# ---------------------------------------------------------------------------


def _commutator(cfg: RunConfig, ctx: DeskContext, n: int):
    system = ctx.system(n)
    entries = [
        {
            "index": k,
            "bidegree": list(system.f(k).bidegree()),
            "entry": str(system.f(k)),
        }
        for k in range(1, n * n + 1)
    ]
    detail = {"n": n, "entries": entries, "diagonal_indices": list(system.diagonal_indices)}
    return "PASS", detail


def _candidates(cfg: RunConfig, ctx: DeskContext, n: int):
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


def _groebner(cfg: RunConfig, ctx: DeskContext, n: int):
    system = ctx.system(n)
    which = cfg.extras["ideal"]
    gens = list(system.off_diagonal_gens if which == "J" else system.minimal_gens)
    basis = buchberger(gens, budget=ctx.budget, degree_bound=ctx.degree_bound)
    degree = basis.ring.order.degree
    degs = Counter(degree(g.terms[0][0]) for g in basis)
    detail = {
        "ideal": which,
        "size": len(basis),
        "complete": basis.complete,
        "truncation_degree": basis.truncation_degree,
        "lead_degree_counts": {str(d): c for d, c in sorted(degs.items())},
        "stats": _stats(basis.stats),
    }
    return ("PASS" if basis.complete else "PARTIAL"), detail


def _colon(cfg: RunConfig, ctx: DeskContext, n: int):
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
        "stats": _stats(ctx.colon_generators(n).stats),
    }
    return "PASS", detail


def _syzygies(cfg: RunConfig, ctx: DeskContext, n: int):
    fs = ctx.first_syzygies(n, ctx.degree_bound)
    words = []
    if n <= 4:
        exprs = word_candidates(WORD_DEGREE)
        residuals = trace_residuals(exprs, ctx.system_qq(n))
        words = [{"expr": str(e), "syzygy": r.is_zero()} for e, r in zip(exprs, residuals)]
    detail = {
        "rank": fs.rank,
        "degree_bound": fs.degree_bound,
        "counts": {str(k): v for k, v in sorted(fs.counts.items())},
        "truncation_degree": fs.truncation_degree,
        "word_candidates": words,
        "stats": _stats(fs.stats),
    }
    return ("PASS" if fs.complete else "PARTIAL"), detail


def _syzygy_check(cfg: RunConfig, ctx: DeskContext, n: int):
    system = ctx.system_qq(n)  # exact: a prime could pass a non-syzygy or refuse a 1/p
    text = cfg.extras["matrix_text"]
    rows = [line for line in text.strip().splitlines() if line.strip()]
    if len(rows) != n:
        raise ValueError(f"matrix file must have n={n} nonempty lines, got {len(rows)}")
    parsed = []
    for line in rows:
        cells = line.split(";")
        if len(cells) != n:
            raise ValueError(f"each line needs n={n} ';'-separated entries, got {len(cells)}")
        parsed.append([system.ring.parse(c) for c in cells])
    residual = trace_residual(GenericMatrix(system.ring, parsed), system)
    ok = residual.is_zero()
    detail = {"syzygy": ok, "residual": "0" if ok else str(residual)}
    return ("PASS" if ok else "FAIL"), detail


def _hilbert(cfg: RunConfig, ctx: DeskContext, n: int):
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


def _predict(cfg: RunConfig, ctx: DeskContext, n: int):
    target = cfg.extras["target"]
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
        detail = {"display": shape.display(), "cells": shape.to_entries()}
    else:  # knutson
        rows = [
            {
                "columns": list(labels),
                "bidegree": list(bideg),
                "degree": sum(bideg),
                "feasible": knutson_bidegree_feasible(n, bideg),
            }
            for labels, _, bideg in knutson_candidates(ctx.system_qq(n), n - 1)
        ]
        detail = {"candidates": rows}
    detail["status"] = "CONJECTURE"
    return "PASS", detail


def _nonnegative(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, not {text}")
    return int(text)


def _file_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot read matrix file: {exc}") from exc


def _directory(path: str) -> str:
    if not Path(path).is_dir():
        raise argparse.ArgumentTypeError(f"not a directory: {path}")
    return path


#: flag -> (type, default, choices, help) of the flags RunConfig holds
FLAGS = {
    "-n": (int, 3, None, "matrix size, at least 2 (default 3)"),
    "--field": (str, "gf:32003", None, "coefficient field: q or gf:<prime> (default gf:32003)"),
    "--order": (str, "grevlex", ORDERS, "monomial order (default grevlex)"),
    "--budget-seconds": (float, None, None, "wall-clock budget per engine run; a cut yields "
                         "PARTIAL, truncated through a degree that depends on timing"),
    "--budget-spairs": (int, None, None, "pairs one engine run may reduce (signature "
                        "J-pairs and generators; S-pairs in a minimal-generator "
                        "selection); a cut yields PARTIAL, truncated one degree below "
                        "its next pair"),
    "--degree-bound": (int, None, None, "truncation degree (bases, syzygies, colon-degrees)"),
    "--fixtures": (_directory, None, None, "directory of fixture JSON files (default: the shipped set)"),
}
RING = ("-n", "--field", "--order")
BUDGET = RING + ("--budget-seconds", "--budget-spairs")

# the subcommands' own arguments, as (name, add_argument keywords)
IDEAL = ("--ideal", dict(choices=("I", "J"), default="I", help="full (I) or off-diagonal (J)"))
MAX_DEGREE = ("--max-degree", dict(type=_nonnegative, default=5, help="maximum word degree"))
MATRIX = ("--matrix", dict(type=_file_text, dest="matrix_text", required=True,
                           help="file with n lines of n ';'-separated polynomial entries"))
TARGET = ("target", dict(choices=("betti", "colon-degrees", "shape", "knutson"),
                         help="which prediction to print"))


class Command(NamedTuple):
    """A subcommand: its handler (cfg, ctx, n) -> (verdict, detail), or None
    for `verify`, which runs CHECKS; the Groebner-scale work it does, which the
    desk limit guards; the FLAGS it reads; and its own arguments."""

    help: str
    func: Optional[Callable]
    what: Optional[str]
    flags: tuple
    args: tuple = ()


COMMANDS = {
    "commutator": Command("list the commutator entries", _commutator, None, RING),
    "candidates": Command("trace-form word candidates", _candidates, None, (), (MAX_DEGREE,)),
    "groebner": Command("basis of a commutator ideal", _groebner, "a Groebner basis",
                        BUDGET + ("--degree-bound",), (IDEAL,)),
    "colon": Command("colon ideal generators beyond the base", _colon, "a colon ideal", BUDGET),
    "syzygies": Command("minimal first-syzygy counts", _syzygies, "a first-syzygy computation",
                        BUDGET + ("--degree-bound",)),
    "syzygy-check": Command("test a matrix file for the trace-syzygy property over QQ",
                            _syzygy_check, None, ("-n", "--order"), (MATRIX,)),
    "hilbert": Command("Hilbert series of a quotient", _hilbert, "a Hilbert series", BUDGET,
                       (IDEAL,)),
    "check-splice": Command("dual-table splice and alternating-sum checks",
                            lambda cfg, ctx, n: check_splice_euler(ctx, n), None,
                            BUDGET + ("--fixtures",)),
    "predict": Command("conjectured invariants (labeled)", _predict, None,
                       ("-n", "--degree-bound"), (TARGET,)),
    "verify": Command("run the verification suite for n", None, None, BUDGET + ("--fixtures",)),
}


def run_command(cfg: RunConfig) -> Report:
    """Run the configured subcommand as a Report: the verify suite, or one
    check named after the subcommand, planned by `run_suite`."""
    start = perf_counter()
    command = COMMANDS[cfg.command]
    checks = CHECKS
    if command.func is not None:
        name = f"predict-{cfg.extras['target']}" if cfg.command == "predict" else cfg.command
        checks = (CheckDef(name, lambda ctx, n: command.func(cfg, ctx, n), what=command.what),)
    results = run_suite(cfg.context(), cfg.n, checks)
    # an engine's work counts describe the path to a result, not the result
    stats = {r.name: r.detail.pop("stats") for r in results if "stats" in r.detail}
    return Report(
        command=cfg.command,
        config=cfg.as_dict(),
        results=[
            {"name": r.name, "verdict": r.verdict, "detail": r.detail} for r in results
        ],
        timing={
            "total_seconds": round(perf_counter() - start, 3),
            "per_result": {r.name: round(r.seconds, 3) for r in results},
            "stats": stats,
        },
    )


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commsyz",
        description="Commutator ideals of generic matrices: exact bases, "
        "syzygies, colon ideals, Hilbert series, and conjecture checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # One parent parser per shared flag, copied into each subcommand that reads it,
    # as a copy costs less than `add_argument`.
    shared = {flag: argparse.ArgumentParser(add_help=False) for flag in (*FLAGS, "--json")}
    for flag, (kind, default, choices, text) in FLAGS.items():
        shared[flag].add_argument(flag, type=kind, default=default, choices=choices, help=text)
    shared["--json"].add_argument("--json", action="store_true", dest="json_output",
                                  help="emit the versioned JSON report instead of text")
    for name, command in COMMANDS.items():
        parents = [shared[flag] for flag in (*command.flags, "--json")]
        p = sub.add_parser(name, help=command.help, parents=parents)
        for arg, spec in command.args:
            p.add_argument(arg, **spec)
    return parser


def parse_args(argv) -> RunConfig:
    """The RunConfig of a command line; each value outside RunConfig's own
    fields is one of the subcommand's arguments and goes into `extras`."""
    parser = build_parser()
    values = vars(parser.parse_args(argv))
    splice = next(c for c in CHECKS if c.name == "splice-euler")
    if values["command"] == "check-splice" and not splice.applies(values["n"]):
        parser.error("check-splice is defined for -n 3 (computed) and -n 4 (fixtures)")
    shared = {f.name for f in fields(RunConfig)}
    extras = {k: values.pop(k) for k in list(values) if k not in shared}
    try:
        return RunConfig(extras=extras, **values)
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
    ring = " ".join(f"{k}={report.config[k]}" for k in ("n", "field", "order") if k in report.config)
    lines.append(ring and f"  {ring}")
    per, stats = report.timing.get("per_result", {}), report.timing.get("stats", {})
    for r in report.results:
        lines.append(f"{r['verdict']:8s} {r['name']}  ({per.get(r['name'], 0.0):.2f}s)")
        lines.append(_text_detail(r["detail"]))
        if r["name"] in stats:
            lines.append(_text_detail({"stats": stats[r["name"]]}))
    lines.append(f"total: {report.timing['total_seconds']:.2f}s")
    return "\n".join(line for line in lines if line)


def main(argv=None) -> int:
    cfg = parse_args(sys.argv[1:] if argv is None else argv)
    report = run_command(cfg)
    print(emit(report, "json" if cfg.json_output else "text"))
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
