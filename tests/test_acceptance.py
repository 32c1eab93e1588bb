"""End-to-end acceptance runs, one test per stated criterion.

Every symbolic claim is checked exactly (tolerance zero); each test also
enforces its wall-clock budget.  The shared session context means later
criteria reuse bases computed by earlier ones, exactly as the CLI does.
"""

import time

from commsyz.conjecture import knutson_bidegree_feasible
from commsyz.fields import QQ
from commsyz.genmat import (
    build_system,
    cayley_hamilton_residue,
    product_rewrite_residue_2x2,
)
from commsyz.syzygy import is_trace_syzygy, vector_degree
from commsyz.verify import (
    check_cofactor,
    check_colon_ideal,
    check_dimension,
    check_first_syzygies,
    check_knutson,
    check_predictors,
    check_presentation,
    check_splice_euler,
)
from commsyz.words import candidates


def _timed(label, budget_seconds, fn):
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    print(f"{label}: PASS in {elapsed:.2f}s (budget {budget_seconds}s)")
    assert elapsed < budget_seconds, f"{label} exceeded its budget: {elapsed:.1f}s"


def test_criterion_01_smallest_presentation(ctx):
    def body():
        verdict, detail = check_presentation(ctx, 2)
        assert verdict == "PASS", detail
        assert detail["generators"] == 3
        assert detail["syzygy_counts"] == {"1": 2}
        assert detail["display"] == "total: 3 2"
        fs = ctx.first_syzygies(2, bound=2)
        assert all(vector_degree(v) == 1 for v in fs.generators)

    _timed("criterion 1 (3 generators, 2 linear syzygies)", 5, body)


def test_criterion_02_two_by_two_identities():
    def body():
        sys = build_system(2, QQ)
        assert cayley_hamilton_residue(sys.X).is_zero()
        assert product_rewrite_residue_2x2(sys).is_zero()

    _timed("criterion 2 (2x2 matrix identities)", 1, body)


def test_criterion_03_trace_rule_soundness():
    def body():
        exprs = candidates(5)
        assert len(exprs) == 31
        for n in (2, 3, 4):
            sys = build_system(n, QQ)
            for expr in exprs:
                assert is_trace_syzygy(expr, sys), (n, str(expr))

    _timed("criterion 3 (31 trace rules at n=2,3,4)", 60, body)


def test_criterion_04_first_syzygies_three_by_three(ctx):
    def body():
        fs = ctx.first_syzygies(3, bound=4)
        assert fs.counts == {1: 2, 2: 31}
        assert fs.complete
        verdict, detail = check_first_syzygies(ctx, 3)
        assert verdict == "PASS", detail
        assert detail["counts"] == {"1": 2, "2": 31}
        assert detail["nontrivial_quadratics"] == 3
        assert detail["two_way_span"] is True
        assert detail["xyx_in_low_degree_span"] is True

    _timed("criterion 4 (n=3 syzygy counts and spans)", 600, body)


def test_criterion_05_colon_ideal_three_by_three(ctx):
    def body():
        verdict, detail = check_colon_ideal(ctx, 3)
        assert verdict == "PASS", detail
        assert detail["new_generators"] == 5
        assert sorted(map(tuple, detail["bidegrees"])) == sorted(
            [(1, 1), (3, 0), (2, 1), (1, 2), (0, 3)]
        )
        assert all(m["in_colon"] for m in detail["determinant_members"])
        assert detail["explicit_combination_in_base"] is True

    _timed("criterion 5 (n=3 colon ideal)", 900, body)


def test_criterion_06_dimensions(ctx):
    def body():
        for n in (2, 3):
            verdict, detail = check_dimension(ctx, n)
            assert verdict == "PASS", detail
            assert detail["off_diagonal_quotient"] == n * n + n
            assert detail["commutator_quotient"] == n * n + n

    _timed("criterion 6 (quotient dimensions)", 600, body)


def test_criterion_07_cofactor_identity(ctx):
    def body():
        verdict, detail = check_cofactor(ctx, 3)
        assert verdict == "PASS", detail
        cases = detail["cases"]
        assert cases[0]["columns"] == ["E", "X", "Y", "X^2"]
        assert len(cases) == 4
        assert all(c["zero"] for c in cases)

    _timed("criterion 7 (first-row cofactor identity)", 30, body)


def test_criterion_08_predictors(ctx):
    def body():
        verdict, detail = check_predictors(ctx, 3)
        assert verdict == "PASS", detail
        assert detail["problems"] == []
        matches = detail["display_matches"]
        assert sorted(matches) == ["4", "5", "6"]
        assert all(entry["agree"] for entry in matches.values())

    _timed("criterion 8 (degree/count predictors)", 5, body)


def test_criterion_09_splice_and_euler(ctx):
    def body():
        verdict, detail = check_splice_euler(ctx, 3)
        assert verdict == "PASS", detail
        assert detail["residuals"] == []
        assert detail["tail_matches_display"] is True

        verdict, detail = check_splice_euler(ctx, 4)
        assert verdict == "PASS", detail
        assert detail["residuals"] == ["degree 13: c - d = -2262"]
        assert detail["splice_matches_verified_tail"] is True

    _timed("criterion 9 (canonical-module splice + Euler)", 5, body)


def test_criterion_10_knutson_bidegrees(ctx):
    def body():
        assert not knutson_bidegree_feasible(4, (2, 2))
        verdict, detail = check_knutson(ctx, 3)
        assert verdict == "PASS", detail
        assert detail["feasible_4_22"] is False
        members = detail["candidates_in_colon"]
        assert len(members) == 5
        assert all(m["in_colon"] for m in members)

    _timed("criterion 10 (diagonal-determinant bidegrees)", 900, body)
