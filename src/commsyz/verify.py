"""Desk-scale verification suite shared by the CLI and the acceptance tests.

Each check verifies one published claim about the commutator systems, sliced
by matrix size n.  `run_suite` is the one planner, for the suite and for each
CLI subcommand, which runs as a suite of one check: a check runs where it
applies and is omitted where it says nothing about n.  The one desk limit
rule reports a check SKIPPED when it does Groebner-scale work at n past
DESK_LIMIT and either does not apply there or has no budget or degree bound.
Every cap is a count: a degree bound, or a budget of pairs the signature
loop may reduce (`--budget-spairs`).  Wall-clock timing is reported
separately, so two runs with the same configuration produce identical
result payloads, PARTIAL ones included.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

from commsyz import fixtures as fixture_store
from commsyz.conjecture import (
    colon_bidegrees,
    first_betti_prediction,
    first_betti_total,
    knutson_bidegree_feasible,
    knutson_candidates,
    selection_params,
    selection_problems,
)
from commsyz.fields import GF, QQ
from commsyz.genmat import (
    CommutatorSystem,
    GenericMatrix,
    build_system,
    cayley_hamilton_residue,
    det,
    diagonal_entries,
    first_row_expansion_residual,
    matrix_from_columns,
    product_rewrite_residue_2x2,
)
from commsyz.groebner import (
    Engine,
    GroebnerBasis,
    IncompleteBasisError,
    buchberger,
    colon_ideal,
    require,
)
from commsyz.hilbert import (
    GradedBettiTable,
    canonical_splice_shift,
    euler_constraints,
    hilbert_of_basis,
    residual_relations,
    splice_tail,
)
from commsyz.syzygy import (
    FirstSyzygies,
    _koszul_vectors,
    eval_word,
    first_syzygies,
    module_buchberger,
    restrict_to_minimal,
    trace_residuals,
    tuple_from_matrix,
    vector_degree,
)
from commsyz.words import candidates as word_candidates

VERDICTS = ("PASS", "FAIL", "PARTIAL", "SKIPPED")

#: Largest n whose Groebner-sized computations are desk-scale.  Beyond this,
#: a basis, a colon ideal or a syzygy run needs a budget or a degree bound.
DESK_LIMIT = 3

#: Degree of the fixed trace-form candidate set behind every word verdict.
WORD_DEGREE = 5

_RANDOM_SEED = 20260816


@dataclass
class CheckResult:
    name: str
    verdict: str
    detail: dict
    seconds: float

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")


class DeskContext:
    """Lazy cache of the expensive shared objects (systems, bases, colon
    ideals, syzygy runs, the determinant candidates' memberships).
    `budget`, a pair count, caps every signature loop it builds; the
    selections it runs are not capped.  Every cached basis and
    syzygy run is keyed by its degree bound, a syzygy run by its resolved
    bound, so two requests for one bound share one object.  `degree_bound`
    is the bound the `groebner` and `syzygies` subcommands ask for; the
    checks ask for their own."""

    def __init__(
        self,
        field=None,
        order: str = "grevlex",
        budget: Optional[int] = None,
        fixture_dir=None,
        degree_bound: Optional[int] = None,
    ):
        self.field = GF(32003) if field is None else field
        self.order = order
        self.budget = budget
        self.degree_bound = degree_bound
        self.fixture_dir = fixture_dir
        self._cache: dict = {}

    def _get(self, key, make: Callable):
        """The object under `key`, built once.  A build the budget refuses
        is stored as its IncompleteBasisError and raised again on every
        later request, since the same budget would refuse it again."""
        if key not in self._cache:
            try:
                self._cache[key] = make()
            except IncompleteBasisError as exc:
                self._cache[key] = exc
        got = self._cache[key]
        if isinstance(got, IncompleteBasisError):
            raise got
        return got

    # -- shared objects ------------------------------------------------------

    def system(self, n: int) -> CommutatorSystem:
        return self._get(
            ("system", n), lambda: build_system(n, field=self.field, order=self.order)
        )

    def system_qq(self, n: int) -> CommutatorSystem:
        return self._get(
            ("system_qq", n), lambda: build_system(n, field=QQ, order=self.order)
        )

    def basis(self, n: int, ideal: str, bound: Optional[int] = None) -> GroebnerBasis:
        """Basis of the commutator ideal ("I") or of its off-diagonal
        entries ("J"), truncated at `bound` when one is given."""

        def make():
            system = self.system(n)
            gens = {"I": system.minimal_gens, "J": system.off_diagonal_gens}[ideal]
            return buchberger(list(gens), budget=self.budget, degree_bound=bound)

        return self._get(("basis", n, ideal, bound), make)

    def colon_generators(self, n: int) -> GroebnerBasis:
        """Reduced Groebner basis of (off-diagonal ideal : commutator ideal).

        The diagonal entries sum to zero, so the quotient by the full ideal is
        the quotient by the first n-1 diagonal entries.  They share one
        degree, so it comes from one signature loop with their vector
        tracked, whose work counts are the basis's `stats`.
        """

        def make():
            system = self.system(n)
            base = list(system.off_diagonal_gens)
            diag = [system.f(k) for k in system.diagonal_indices[:-1]]
            return colon_ideal(base, diag, budget=self.budget)

        return self._get(("colon", n), make)

    def new_colon_generators(self, n: int) -> list:
        """Minimal generators the colon ideal adds beyond the off-diagonal
        ideal (greedy Nakayama selection relative to the base ideal)."""

        def make():
            base = list(self.system(n).off_diagonal_gens)
            return minimal_new_generators(base, self.colon_generators(n))

        return self._get(("colon_new", n), make)

    def determinant_members(self, n: int) -> list:
        """Membership in the colon ideal of each determinant candidate of
        degree <= 3, which `check_colon_ideal` and `check_knutson` read."""
        return self._get(
            ("det_members", n),
            lambda: _determinant_members(self.system(n), self.colon_generators(n)),
        )

    def first_syzygies(self, n: int, bound: Optional[int] = None) -> FirstSyzygies:
        """Minimal first syzygies through coefficient degree `bound`, which
        defaults to n as in `syzygy.first_syzygies`."""
        bound = n if bound is None else bound
        return self._get(
            ("syz", n, bound),
            lambda: first_syzygies(self.system(n), degree_bound=bound, budget=self.budget),
        )


def minimal_new_generators(base_gens, gens) -> list:
    """Minimal homogeneous generators that `gens` adds beyond `base_gens`.

    Candidates are taken in increasing degree; one is kept iff it is not in
    the ideal of the base plus those already kept, decided by one engine run
    that holds the base and the kept normal forms (`Engine.select`).  For
    homogeneous input the count is the number of minimal generators of the
    quotient module (ideal / base ideal); with an empty base it is a minimal
    generating set of the ideal drawn from `gens`.  The engine is bounded
    at the top candidate degree, so it decides every candidate; it takes
    no budget.
    """
    base = [g for g in base_gens if not g.is_zero()]
    cand = [g for g in gens if not g.is_zero()]
    if not all(g.is_homogeneous() for g in base + cand):
        raise ValueError("minimal generator selection needs homogeneous input")
    if not cand:
        return []
    for g in base + cand:  # the engine takes raw packed terms and checks no ring
        cand[0].ring.check(g, "generators")
    cand.sort(key=lambda g: (g.degree(), g.terms[0][0]))
    engine = Engine(cand[0].ring, degree_bound=cand[-1].degree())
    for g in base:
        engine.add(g.terms)
    kept = engine.select([(g.degree(), g.terms) for g in cand])
    return [cand[k] for k in kept]


# ---------------------------------------------------------------------------
# individual checks: each returns (verdict, detail)
# ---------------------------------------------------------------------------


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def check_presentation(ctx: DeskContext, n: int):
    """n=2: three minimal generators, exactly two minimal first syzygies,
    both linear, reproducing the display totals '3 2'."""
    system = ctx.system(n)
    fs = ctx.first_syzygies(n, bound=n)
    require(fs, n, refusal="first syzygies only counted through coefficient degree {d}")
    counts = fs.counts
    display = f"total: {len(system.minimal_gens)} {sum(counts.values())}"
    predicted = first_betti_prediction(n)
    ok = (
        len(system.minimal_gens) == 3
        and counts == {1: 2}
        and display == "total: 3 2"
        and predicted == counts
    )
    detail = {
        "generators": len(system.minimal_gens),
        "syzygy_counts": {str(k): v for k, v in sorted(counts.items())},
        "display": display,
        "prediction_matches": predicted == counts,
    }
    return _verdict(ok), detail


def check_identities(ctx: DeskContext, n: int):
    """2x2: Cayley-Hamilton for X and the product-rewrite identity both
    vanish symbolically."""
    system = ctx.system_qq(n)
    ch = cayley_hamilton_residue(system.X)
    rewrite = product_rewrite_residue_2x2(system)
    detail = {
        "cayley_hamilton_zero": ch.is_zero(),
        "product_rewrite_zero": rewrite.is_zero(),
    }
    return _verdict(ch.is_zero() and rewrite.is_zero()), detail


def check_trace_rules(ctx: DeskContext, n: int):
    """Every generated trace-form candidate through WORD_DEGREE is an exact
    syzygy of the n x n system."""
    system = ctx.system_qq(n)
    exprs = word_candidates(WORD_DEGREE)
    residuals = trace_residuals(exprs, system)
    failures = [str(expr) for expr, r in zip(exprs, residuals) if not r.is_zero()]
    detail = {"n": n, "candidates": len(exprs), "failures": failures}
    return _verdict(not failures), detail


def check_first_syzygies(ctx: DeskContext, n: int):
    """n=3: syzygy counts (2 linear, 31 quadratic, none in degrees 3..4) and
    the two-way span identification of the three non-trivial quadratics with
    the squares-and-anticommutator trace forms."""
    system = ctx.system(n)
    fs = ctx.first_syzygies(n, bound=4)
    require(fs, 4, refusal="first syzygies only counted through coefficient degree {d}")
    counts = fs.counts
    ok_counts = counts == {1: 2, 2: 31}
    predicted = first_betti_prediction(n)

    gens = system.minimal_gens
    koszul_vecs = _koszul_vectors(gens)
    linear = [v for v in fs.generators if vector_degree(v) == 1]
    quad_pair = [
        v
        for v, s in zip(fs.generators, fs.sources)
        if s == "pair" and vector_degree(v) == 2
    ]

    def trace_vec(mat):
        return restrict_to_minimal(tuple_from_matrix(mat, system), system)

    X, Y = system.X, system.Y
    trace_quads = [trace_vec(X * X), trace_vec(Y * Y), trace_vec(X * Y + Y * X)]
    base = koszul_vecs + linear

    bases = {}

    def member(v, name, gens):
        # one basis per module, built when first asked; the vectors asked of
        # one module share a degree, which truncates it
        if name not in bases:
            bases[name] = module_buchberger(gens, degree_bound=vector_degree(v), budget=ctx.budget)
        return bases[name].contains(v)

    span_ok = True
    for v in trace_quads:
        span_ok = span_ok and member(v, "base+pair", base + quad_pair)
        span_ok = span_ok and not member(v, "base", base)
    for v in quad_pair:
        span_ok = span_ok and member(v, "base+trace", base + trace_quads)

    xyx = trace_vec(eval_word("XYX", system))
    xyx_ok = member(xyx, "all", list(fs.generators))

    ok = ok_counts and len(quad_pair) == 3 and span_ok and xyx_ok
    detail = {
        "counts": {str(k): v for k, v in sorted(counts.items())},
        "nontrivial_quadratics": len(quad_pair),
        "two_way_span": span_ok,
        "xyx_in_low_degree_span": xyx_ok,
        "prediction_matches": predicted == counts,
    }
    return _verdict(ok), detail


def _diagonal_det(*matrices):
    """Determinant of the matrix whose columns are the diagonals of `matrices`."""
    columns = [diagonal_entries(m) for m in matrices]
    return det(matrix_from_columns(matrices[0].ring, columns))


def _determinant_members(system: CommutatorSystem, basis: GroebnerBasis) -> list:
    """Membership in `basis` of each determinant candidate of degree <= 3."""
    X, Y = system.X, system.Y
    named = {"E": GenericMatrix.identity(system.ring, system.n), "X": X, "Y": Y}
    named.update({"X^2": X * X, "Y^2": Y * Y})
    return [
        {
            "columns": list(labels),
            "bidegree": list(bideg),
            "in_colon": basis.contains(_diagonal_det(*(named[c] for c in labels))),
        }
        for labels, bideg in knutson_candidates(system.n, 2)
        if sum(bideg) <= 3
    ]


def check_colon_ideal(ctx: DeskContext, n: int):
    """n=3: the colon ideal adds exactly five minimal generators beyond the
    off-diagonal ideal, with the predicted bidegrees; the determinant
    candidates of degree <= 3 are members; the explicit three-determinant
    combination lies in the off-diagonal ideal itself."""
    system = ctx.system(n)
    ring = system.ring
    new_gens = ctx.new_colon_generators(n)
    bidegs = sorted(g.bidegree() for g in new_gens)
    expected = sorted([(1, 1), (3, 0), (2, 1), (1, 2), (0, 3)])
    ok_gens = len(new_gens) == 5 and bidegs == expected

    members = ctx.determinant_members(n)
    ok_members = all(m["in_colon"] for m in members)

    E = GenericMatrix.identity(ring, n)
    X, Y = system.X, system.Y
    d1 = _diagonal_det(E, X, X * Y + Y * X)
    d2 = _diagonal_det(E, Y, X * X)
    d3 = _diagonal_det(E, X, Y)
    two = ring.const(2)
    combo = d1 - two * d2 - two * X.trace() * d3
    combo_ok = ctx.basis(n, "J").contains(combo)

    ok = ok_gens and ok_members and combo_ok
    detail = {
        "new_generators": len(new_gens),
        "bidegrees": [list(b) for b in bidegs],
        "determinant_members": members,
        "explicit_combination_in_base": combo_ok,
    }
    return _verdict(ok), detail


def check_dimension(ctx: DeskContext, n: int):
    """dim of both quotients is n^2 + n, via Hilbert series."""
    expected = n * n + n
    dim_off = hilbert_of_basis(ctx.basis(n, "J")).dimension
    dim_full = hilbert_of_basis(ctx.basis(n, "I")).dimension
    detail = {
        "expected": expected,
        "off_diagonal_quotient": dim_off,
        "commutator_quotient": dim_full,
    }
    return _verdict(dim_off == expected and dim_full == expected), detail


def _random_polynomial(ring, rng: random.Random):
    nv = ring.nvars
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0] * nv
        for _ in range(rng.randint(0, 2)):
            exps[rng.randrange(nv)] += 1
        coeff = rng.randint(-4, 4) or 1
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    return ring.poly(list(terms.items()))


def check_cofactor(ctx: DeskContext, n: int):
    """The alternating first-row cofactor expansion of m columns of length
    m-1 vanishes identically: structured diagonal columns and random ones."""
    system = ctx.system_qq(n)
    ring = system.ring
    E = GenericMatrix.identity(ring, n)
    X, Y = system.X, system.Y
    structured = [diagonal_entries(m) for m in (E, X, Y, X * X)]
    res = first_row_expansion_residual(ring, structured)
    results = [{"columns": ["E", "X", "Y", "X^2"], "zero": res.is_zero()}]

    rng = random.Random(_RANDOM_SEED)
    for trial in range(3):
        m = rng.choice((3, 4))
        columns = [
            [_random_polynomial(ring, rng) for _ in range(m - 1)] for _ in range(m)
        ]
        r = first_row_expansion_residual(ring, columns)
        results.append({"columns": f"random m={m} trial={trial}", "zero": r.is_zero()})

    detail = {"cases": results}
    return _verdict(all(c["zero"] for c in results)), detail


def check_predictors(ctx: DeskContext, n: int):
    """Closed-form selection data against enumeration for 2 <= m <= 12, the
    stated degree data at m = 3, 4, and the first-syzygy predictions against
    the display tables where fixtures exist."""
    problems = []

    p3 = selection_params(3)
    if (p3.k, p3.s, p3.d_min, p3.d_max, p3.count_min, p3.count_max) != (2, 0, 2, 3, 1, 4):
        problems.append("selection data at n=3")
    p4 = selection_params(4)
    if (p4.k, p4.s, p4.d_min, p4.d_max, p4.count_min, p4.count_max) != (2, 1, 4, 6, 3, 7):
        problems.append("selection data at n=4")
    if selection_params(6).d_min != 8:
        problems.append("selection data at n=6")

    if colon_bidegrees(3) != {
        2: {(1, 1)},
        3: {(3, 0), (2, 1), (1, 2), (0, 3)},
    }:
        problems.append("bidegree table at n=3")
    cb4 = colon_bidegrees(4)
    if cb4.get(4) != {(3, 1), (2, 2), (1, 3)} or len(cb4.get(5, ())) != 4 or len(
        cb4.get(6, ())
    ) != 7:
        problems.append("bidegree table at n=4")

    for m in range(2, 13):
        problems.extend(selection_problems(m))
        if m >= 3 and first_betti_total(m) != sum(first_betti_prediction(m).values()):
            problems.append(f"total formula at n={m}")

    display_matches = {}
    for m in (4, 5, 6):
        prediction = first_betti_prediction(m)
        table = fixture_store.load_betti_table(
            f"n{m}_betti_display", ctx.fixture_dir
        )
        cells = {
            j - 2: v
            for (i, j), v in table.cells.items()
            if i == 2 and j >= 3 and isinstance(v, int)
        }
        agree = all(prediction.get(d) == v for d, v in cells.items())
        display_matches[str(m)] = {
            "display": {str(d): v for d, v in sorted(cells.items())},
            "predicted": {str(d): prediction.get(d, 0) for d in sorted(cells)},
            "agree": agree,
        }
        if not agree:
            problems.append(f"display mismatch at n={m}")

    detail = {"problems": problems, "display_matches": display_matches}
    return _verdict(not problems), detail


def check_splice_euler(ctx: DeskContext, n: int):
    """Alternating-sum accounting.  At n=3 the fully known display table must
    satisfy every constraint from the computed series, and the dual tail
    built from the computed colon generators must land on the display's last
    columns.  At n=4 the fixture tables must splice onto the conjectured
    table's verified tail and leave exactly the one linked-unknown relation."""
    if n == 3:
        series = hilbert_of_basis(ctx.basis(3, "I"))
        table = fixture_store.load_betti_table("n3_betti_display", ctx.fixture_dir)
        constraints = euler_constraints(table, series)  # raises on violation
        residuals = residual_relations(constraints)
        degrees = [g.degree() for g in ctx.new_colon_generators(3)]
        dual = GradedBettiTable(
            {(0, d): c for d, c in sorted(Counter(degrees).items())}
        )
        tail = splice_tail(dual, codim=6, sigma=canonical_splice_shift(3))
        tail_ok = all(table.entry(i, j) == v for (i, j), v in tail.cells.items())
        ok = not residuals and tail_ok
        detail = {
            "numerator": list(series.numerator),
            "constraints": len(constraints),
            "residuals": [str(r) for r in residuals],
            "dual_tail_cells": {f"{i},{j}": v for (i, j), v in sorted(tail.cells.items())},
            "tail_matches_display": tail_ok,
        }
        return _verdict(ok), detail

    series = fixture_store.load_hilbert_series("n4_hilbert_numerator", ctx.fixture_dir)
    conj = fixture_store.load_betti_table("n4_conjectured_betti", ctx.fixture_dir)
    dual = fixture_store.load_betti_table("n4_canonical_module_betti", ctx.fixture_dir)
    partial = fixture_store.load_betti_table("n4_resolution_partial", ctx.fixture_dir)

    codim = 12
    tail = splice_tail(dual, codim=codim, sigma=canonical_splice_shift(4))
    splice_ok = all(
        conj.entry(i, j) == v and (i, j) in conj.computed
        for (i, j), v in tail.cells.items()
    )
    tail_cells = {(i, j) for (i, j) in conj.computed if i >= codim - 3}
    cover_ok = tail_cells == set(tail.cells)

    constraints = euler_constraints(conj, series)  # raises on violation
    residuals = [str(r) for r in residual_relations(constraints)]
    residual_ok = residuals == ["degree 13: c - d = -2262"]

    front_ok = all(conj.entry(i, j) == v for (i, j), v in partial.cells.items())

    totals_ok, totals_notes = _totals_consistent(conj, known={2: (115, 114)})
    dual_tot_ok, dual_notes = _totals_consistent(dual, known={2: (660, 1170)})
    part_tot_ok, part_notes = _totals_consistent(
        partial, known={1: (16, 15), 2: (115, 114)}
    )

    ok = (
        splice_ok
        and cover_ok
        and residual_ok
        and front_ok
        and totals_ok
        and dual_tot_ok
        and part_tot_ok
    )
    detail = {
        "spliced_cells": len(tail.cells),
        "splice_matches_verified_tail": splice_ok,
        "verified_tail_covered": cover_ok,
        "residuals": residuals,
        "front_cells_consistent": front_ok,
        "totals_notes": totals_notes + dual_notes + part_notes,
    }
    return _verdict(ok), detail


def _totals_consistent(table: GradedBettiTable, known: dict) -> tuple:
    """Stated column totals against recomputed cell sums.

    A stated 'N+' total must equal the sum of the known cells; `known` maps
    column -> (stated, recomputed) pairs that are allowed to disagree (totals
    rows printed from non-minimal or differently-sized runs).
    """
    stated = table.stated_totals
    notes = []
    if stated is None:
        return True, notes
    recomputed = table.totals()
    if len(stated) != len(recomputed):
        return False, [f"totals length {len(stated)} != {len(recomputed)}"]
    ok = True
    for col, (s, r) in enumerate(zip(stated, recomputed)):
        s_base = int(str(s).rstrip("+"))
        r_base = int(str(r).rstrip("+"))
        if s_base == r_base:
            continue
        if col in known and known[col] == (s_base, r_base):
            notes.append(f"column {col}: stated {s} vs cells {r} (known discrepancy)")
            continue
        ok = False
        notes.append(f"column {col}: stated {s} vs cells {r} (unexpected)")
    return ok, notes


def check_knutson(ctx: DeskContext, n: int):
    """Bidegree feasibility of determinant columns; at n=3 the degree <= 3
    determinant candidates must lie in the computed colon ideal."""
    feas_ok = not knutson_bidegree_feasible(4, (2, 2))
    detail = {"feasible_4_22": knutson_bidegree_feasible(4, (2, 2))}
    if n < 3 or n > DESK_LIMIT:
        return _verdict(feas_ok), detail

    members = ctx.determinant_members(3)
    detail["candidates_in_colon"] = members
    ok = feas_ok and all(m["in_colon"] for m in members)
    return _verdict(ok), detail


# ---------------------------------------------------------------------------
# registry and runner
# ---------------------------------------------------------------------------

_SKIP_GB = (
    "needs a Groebner-scale computation beyond the declared desk limit (n <= %d)"
    % DESK_LIMIT
)


@dataclass(frozen=True)
class CheckDef:
    """`func(ctx, n) -> (verdict, detail)`, the sizes it `applies` to, and
    `what` Groebner-scale work it does (None when none)."""

    name: str
    func: Callable
    applies: Callable = lambda n: True
    what: Optional[str] = None


CHECKS = (
    CheckDef("presentation", check_presentation, lambda n: n == 2),
    CheckDef("matrix-identities", check_identities, lambda n: n == 2),
    CheckDef("trace-rules", check_trace_rules, lambda n: n in (2, 3, 4)),
    CheckDef(
        "first-syzygies", check_first_syzygies, lambda n: n == 3, "a first-syzygy computation"
    ),
    CheckDef("colon-ideal", check_colon_ideal, lambda n: n == 3, "a colon ideal"),
    CheckDef("dimension", check_dimension, lambda n: n in (2, 3), "a Hilbert series"),
    CheckDef("cofactor-identity", check_cofactor, lambda n: n == 3),
    CheckDef("predictors", check_predictors),
    CheckDef("splice-euler", check_splice_euler, lambda n: n in (3, 4)),
    CheckDef("knutson", check_knutson, lambda n: n >= 3),
)


def run_check(check: CheckDef, ctx: DeskContext, n: int) -> CheckResult:
    start = perf_counter()
    try:
        verdict, detail = check.func(ctx, n)
    except IncompleteBasisError as exc:
        verdict, detail = "PARTIAL", {"reason": f"incomplete basis: {exc}"}
    except fixture_store.FixtureNotFound as exc:
        verdict, detail = "PARTIAL", {"reason": str(exc)}
    except ValueError as exc:
        verdict, detail = "FAIL", {"error": str(exc)}
    except ArithmeticError as exc:  # an exponent past the cap, a division by zero
        verdict, detail = "FAIL", {"error": f"{type(exc).__name__}: {exc}"}
    return CheckResult(check.name, verdict, detail, perf_counter() - start)


def run_suite(ctx: DeskContext, n: int, checks=CHECKS) -> list:
    """The checks that apply to matrix size n, in order.  The one desk limit
    rule: past DESK_LIMIT a check with Groebner-scale work is SKIPPED where
    it does not apply, or where it does and `ctx` has no budget or degree bound."""
    bounded = ctx.budget is not None or ctx.degree_bound is not None
    results = []
    for check in checks:
        applies = check.applies(n)
        if check.what and n > DESK_LIMIT and not (applies and bounded):
            reason = _SKIP_GB if not applies else (
                f"{check.what} at n={n} exceeds the desk-scale limit (n <= {DESK_LIMIT}); "
                "pass --budget-spairs, or --degree-bound where the command takes it, "
                "to attempt a truncated run"
            )
            results.append(CheckResult(check.name, "SKIPPED", {"reason": reason}, 0.0))
        elif applies:
            results.append(run_check(check, ctx, n))
    return results
