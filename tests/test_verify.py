from dataclasses import replace
from types import SimpleNamespace

import pytest

from commsyz import cli, genmat, verify
from commsyz import fixtures as fixture_store
from commsyz.fields import GF
from commsyz.genmat import build_system, det
from commsyz.groebner import IncompleteBasisError
from commsyz.hilbert import GradedBettiTable
from commsyz.polyring import PolyRing
from commsyz.verify import (
    CHECKS,
    DESK_LIMIT,
    CheckDef,
    CheckResult,
    DeskContext,
    minimal_new_generators,
    run_check,
    run_suite,
)
from commsyz.verify import _determinant_members, _totals_consistent


def test_check_result_validates_verdict():
    CheckResult("x", "PASS", {}, 0.0)
    with pytest.raises(ValueError):
        CheckResult("x", "OK", {}, 0.0)


def test_determinant_members_take_only_the_determinants_they_read(monkeypatch):
    """Of the six n=3 candidates, (E, X^2, Y^2) has degree 4 and no check
    reads it, so five determinants are taken."""
    taken = []
    monkeypatch.setattr(verify, "det", lambda m: taken.append(m) or det(m))
    everything = SimpleNamespace(contains=lambda f: True)
    members = _determinant_members(build_system(3, GF(32003)), everything)
    assert len(members) == len(taken) == 5
    assert [m["columns"] for m in members][-1] == ["E", "Y", "Y^2"]


def test_a_verify_run_takes_each_determinant_once(monkeypatch, capsys):
    """`check_colon_ideal` and `check_knutson` read one cached membership
    list, so one `verify -n 3` takes 22 determinants: 14 in
    `check_cofactor`, 3 for the explicit combination and 5 candidates."""
    taken = []

    def spy(m):
        taken.append(m)
        return det(m)

    monkeypatch.setattr(genmat, "det", spy)
    monkeypatch.setattr(verify, "det", spy)
    assert cli.main(["verify", "-n", "3", "--json"]) == 0
    assert len(taken) == 22
    capsys.readouterr()


def test_registry_names_are_unique_and_ordered():
    names = [c.name for c in CHECKS]
    assert len(names) == len(set(names)) == 10
    assert names[0] == "presentation"


def test_per_size_plan_is_frozen():
    def plan(n, budget=None):
        # run_suite over stand-ins that compute nothing
        stubs = [replace(c, func=lambda ctx, n: ("PASS", {})) for c in CHECKS]
        results = run_suite(DeskContext(budget=budget), n, stubs)
        assert all(r.detail == {"reason": verify._SKIP_GB} for r in results if r.detail)
        return {r.name: "skip" if r.verdict == "SKIPPED" else "run" for r in results}

    assert {c.name: c.what for c in CHECKS if c.what} == {
        "first-syzygies": "a first-syzygy computation",
        "colon-ideal": "a colon ideal",
        "dimension": "a Hilbert series",
    }
    for budget in (None, 50):
        assert plan(2, budget) == {
            "presentation": "run",
            "matrix-identities": "run",
            "trace-rules": "run",
            "dimension": "run",
            "predictors": "run",
        }
        assert plan(3, budget) == {
            "trace-rules": "run",
            "first-syzygies": "run",
            "colon-ideal": "run",
            "dimension": "run",
            "cofactor-identity": "run",
            "predictors": "run",
            "splice-euler": "run",
            "knutson": "run",
        }
        assert plan(4, budget) == {
            "trace-rules": "run",
            "first-syzygies": "skip",
            "colon-ideal": "skip",
            "dimension": "skip",
            "predictors": "run",
            "splice-euler": "run",
            "knutson": "run",
        }
        assert plan(5, budget) == {
            "first-syzygies": "skip",
            "colon-ideal": "skip",
            "dimension": "skip",
            "predictors": "run",
            "knutson": "run",
        }
    assert DESK_LIMIT == 3


def test_desk_limit_rule_reads_the_budget():
    def basis_work(ctx, n):
        return "PASS", {"n": n}

    check = CheckDef("t", basis_work, lambda n: n >= 2, "a Groebner basis")
    assert run_suite(DeskContext(), 3, [check])[0].verdict == "PASS"
    (skipped,) = run_suite(DeskContext(), 4, [check])
    assert skipped.verdict == "SKIPPED"
    assert skipped.detail["reason"].startswith("a Groebner basis at n=4 exceeds")
    assert "pass --budget-spairs, or --degree-bound" in skipped.detail["reason"]
    for ctx in (DeskContext(budget=1), DeskContext(degree_bound=5)):
        (ran,) = run_suite(ctx, 4, [check])
        assert (ran.verdict, ran.detail) == ("PASS", {"n": 4})
    # with no Groebner-scale work the limit does not apply
    (free,) = run_suite(DeskContext(), 4, [replace(check, what=None)])
    assert free.verdict == "PASS"


def test_suite_smallest_size_all_pass(ctx):
    results = run_suite(ctx, 2)
    assert [r.name for r in results] == [
        "presentation",
        "matrix-identities",
        "trace-rules",
        "dimension",
        "predictors",
    ]
    assert all(r.verdict == "PASS" for r in results), [
        (r.name, r.verdict, r.detail) for r in results if r.verdict != "PASS"
    ]


def test_suite_three_by_three_all_pass(ctx):
    results = run_suite(ctx, 3)
    assert len(results) == 8
    assert all(r.verdict == "PASS" for r in results), [
        (r.name, r.verdict, r.detail) for r in results if r.verdict != "PASS"
    ]
    assert all(r.seconds >= 0 for r in results)


def test_run_check_maps_failures_to_verdicts(ctx):
    def lost(ctx, n):
        fixture_store.load_raw("zzz-no-such-fixture", ctx.fixture_dir)

    def broken(ctx, n):
        raise ValueError("inconsistent input")

    def mislabeled(ctx, n):
        raise ValueError("pivot not found in column 3")

    def incomplete(ctx, n):
        raise IncompleteBasisError("partial basis")

    mk = lambda f: CheckDef(name="t", func=f)
    assert run_check(mk(lost), ctx, 2).verdict == "PARTIAL"
    assert run_check(mk(broken), ctx, 2).verdict == "FAIL"
    # only the loader's typed error is a missing fixture, whatever a message says
    assert run_check(mk(mislabeled), ctx, 2).verdict == "FAIL"
    assert run_check(mk(incomplete), ctx, 2).verdict == "PARTIAL"
    ok = run_check(
        CheckDef(name="t", func=lambda c, n: ("PASS", {"x": 1})),
        ctx,
        2,
    )
    assert ok.verdict == "PASS" and ok.detail == {"x": 1}


def test_a_crash_is_not_a_verdict(ctx, tmp_path):
    """An arithmetic error is the check's FAIL with its type and message;
    anything else, MemoryError or a bug's TypeError, propagates out of the
    suite with its traceback.  A missing fixture directory is PARTIAL,
    with a reason that names it."""
    def overflow(ctx, n):
        raise OverflowError("exponent 300 exceeds order capacity 255")

    def exhausted(ctx, n):
        raise MemoryError

    def bug(ctx, n):
        return None + 1

    def lost(ctx, n):
        fixture_store.load_raw("n4_hilbert_numerator", ctx.fixture_dir)

    (failed,) = run_suite(ctx, 2, [CheckDef("t", overflow)])
    assert (failed.verdict, failed.detail) == (
        "FAIL", {"error": "OverflowError: exponent 300 exceeds order capacity 255"}
    )
    with pytest.raises(MemoryError):
        run_suite(ctx, 2, [CheckDef("t", exhausted)])
    with pytest.raises(TypeError):
        run_suite(ctx, 2, [CheckDef("t", bug)])
    (partial,) = run_suite(DeskContext(fixture_dir=tmp_path / "absent"), 2, [CheckDef("t", lost)])
    assert partial.verdict == "PARTIAL"
    assert str(tmp_path / "absent") in partial.detail["reason"]


@pytest.mark.parametrize(
    "name, n, spairs, d", [("presentation", 2, 3, 0), ("first-syzygies", 3, 60, 2)]
)
def test_a_check_refuses_truncated_first_syzygies(name, n, spairs, d):
    """The first syzygies cut below the check's bound answer through d
    only, and the check asks the gate for its whole bound."""
    check = next(c for c in CHECKS if c.name == name)
    result = run_check(check, DeskContext(budget=spairs), n)
    assert (result.verdict, result.detail) == (
        "PARTIAL",
        {"reason": f"incomplete basis: first syzygies only counted through coefficient degree {d}"},
    )


def test_desk_context_caches_and_reuses(ctx):
    assert ctx.system(3) is ctx.system(3)
    assert ctx.basis(2, "I") is ctx.basis(2, "I")
    assert ctx.basis(2, "J", 3) is ctx.basis(2, "J", 3) is not ctx.basis(2, "J")
    assert ctx.first_syzygies(3) is ctx.first_syzygies(3, bound=3)
    fresh = DeskContext(field=GF(32003))
    assert fresh.system(2) is not ctx.system(2)


def test_a_refused_build_is_not_rebuilt(monkeypatch, capsys):
    """At 300 S-pairs the colon's first elimination is cut; every check
    that asks for the colon afterwards gets the stored refusal."""
    calls = []
    original = verify.colon_ideal

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, "colon_ideal", counting)
    assert cli.main(["verify", "-n", "3", "--budget-spairs", "300", "--json"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_minimal_new_generators_toy_case():
    ring = PolyRing(1, GF(101))
    a, b = ring.x(1, 1), ring.y(1, 1)
    new = minimal_new_generators([a], [a, b, a * b, a + b])
    assert new == [b]
    assert minimal_new_generators([a], [a]) == []
    with pytest.raises(ValueError):
        minimal_new_generators([a], [a * a - b])
    # a candidate the kept ones generate in a higher degree is dropped
    ring = PolyRing(2, GF(32003))
    a, b, c = ring.x(1, 1), ring.y(1, 1), ring.x(1, 2)
    cand = [a * a + b * c, a * b, b * b * c]  # b^2c = b(a^2 + bc) - a(ab)
    assert sorted(map(str, minimal_new_generators([], cand))) == sorted(map(str, cand[:2]))


def test_minimal_new_generators_refuse_another_ring():
    """The selection engine takes raw packed terms, so the selection checks
    the rings itself: a candidate from a lex ring is refused, not read as
    another monomial."""
    ring = PolyRing(2, GF(101))
    lex = PolyRing(2, GF(101), order="lex")
    a, b, c = ring.x(1, 1), ring.x(1, 2), ring.y(1, 1)
    assert minimal_new_generators([a * b], [a * c]) == [a * c]
    with pytest.raises(ValueError, match="incompatible rings"):
        minimal_new_generators([a * b], [lex.x(1, 1) * lex.y(1, 1), a * c])
    with pytest.raises(ValueError, match="incompatible rings"):
        minimal_new_generators([lex.x(1, 1) * lex.x(1, 2)], [a * c])


def test_totals_consistency_rules():
    # bases are compared with any '+' stripped on either side
    table = GradedBettiTable(
        {(0, 0): 1, (1, 2): 4, (2, 3): 7, (2, 4): "c"},
        stated_totals=[1, 4, "7+"],
    )
    ok, notes = _totals_consistent(table, {})
    assert ok and notes == []
    # no stated totals: vacuously consistent
    assert _totals_consistent(GradedBettiTable({(0, 0): 1}), {}) == (True, [])
    # a mismatch fails unless listed as a known discrepancy
    table2 = GradedBettiTable(
        {(0, 0): 1, (1, 2): 4},
        stated_totals=[1, 5],
    )
    ok2, notes2 = _totals_consistent(table2, {})
    assert not ok2 and "unexpected" in notes2[0]
    ok3, notes3 = _totals_consistent(table2, {1: (5, 4)})
    assert ok3 and "known discrepancy" in notes3[0]
    # length disagreements are reported, not mispaired
    table3 = GradedBettiTable({(0, 0): 1}, stated_totals=[1, 2])
    ok4, notes4 = _totals_consistent(table3, {})
    assert not ok4 and "length" in notes4[0]


def test_suite_covers_budgeted_context():
    ctx = DeskContext(field=GF(32003), budget=2)
    results = run_suite(ctx, 2)
    # a starved budget must degrade verdicts, never crash the suite
    assert all(r.verdict in ("PASS", "PARTIAL", "FAIL") for r in results)
    assert any(r.verdict != "PASS" for r in results)
