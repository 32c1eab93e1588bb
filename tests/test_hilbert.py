from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commsyz.hilbert import (
    EulerConstraint,
    GradedBettiTable,
    HilbertSeries,
    canonical_splice_shift,
    divide_by_one_minus_t,
    euler_constraints,
    hilbert_of_basis,
    minimal_monomials,
    monomial_quotient_numerator,
    residual_relations,
    splice_tail,
)

from commsyz.fields import QQ
from commsyz.polyring import BlockElimination, Grevlex, Lex, PolyRing

from oracles import count_monomials_outside, hilbert_function

#: the three packed layouts: flipped bytes, reversed by grevlex; plain bytes;
#: two flipped blocks with a degree field between them
ORDERS = (Grevlex(4), Lex(4), BlockElimination(4, 2))


def packed(order, mons) -> list:
    return [order.packed(order.encode(m)) for m in mons]


def quadric_series():
    """One quadric in 3 variables, (x_1^2)."""
    order = Grevlex(3)
    numerator = monomial_quotient_numerator(packed(order, [(2, 0, 0)]), order)
    return HilbertSeries(tuple(numerator), order.nvars)


# -- series arithmetic ----------------------------------------------------------


def test_divide_by_one_minus_t():
    assert divide_by_one_minus_t([1, -1]) == [1]
    assert divide_by_one_minus_t([1, 0, -3, 2]) == [1, 1, -2]
    assert divide_by_one_minus_t([1, 1]) is None
    assert divide_by_one_minus_t([]) == []


def test_minimalize_monomials():
    mons = [(2, 0, 0, 1), (2, 1, 0, 1), (0, 1, 0, 0), (0, 2, 0, 0), (2, 0, 0, 1)]
    for order in ORDERS:
        out = minimal_monomials(packed(order, mons), order)
        assert list(out) == sorted(out)
        assert {order.decode(order.key(e)) for e in out} == {(0, 1, 0, 0), (2, 0, 0, 1)}
        assert len(out) == 2


mon4 = st.tuples(*[st.integers(0, 3)] * 4)


@settings(max_examples=60, deadline=None)
@given(gens=st.lists(mon4, max_size=5), d=st.integers(0, 7), order=st.sampled_from(ORDERS))
def test_monomial_numerator_matches_direct_count(gens, d, order):
    series = HilbertSeries(
        numerator=tuple(monomial_quotient_numerator(packed(order, gens), order)), nvars=4
    )
    assert hilbert_function(series.numerator, 4, d) == count_monomials_outside(gens, 4, d)


@settings(max_examples=30)
@given(gens=st.lists(mon4, min_size=1, max_size=5))
def test_monomial_numerator_is_order_independent(gens):
    """Neither the leads' order nor the monomial order's layout moves it."""
    numerators = []
    for order in ORDERS:
        leads = packed(order, gens)
        numerators.append(monomial_quotient_numerator(leads, order))
        numerators.append(monomial_quotient_numerator(list(reversed(leads)), order))
    assert all(b == numerators[0] for b in numerators)


def test_malformed_monomials_are_refused_where_they_enter():
    """The recursion takes packed leads and checks none: a negative
    exponent is refused by `encode`, a wrong arity by `PolyRing.poly`."""
    for order in ORDERS:
        with pytest.raises(ValueError):
            order.encode((-1, 0, 0, 0))
    with pytest.raises(ValueError):
        PolyRing(1, QQ).poly({(1, 0, 0): 1})


def test_polynomial_ring_series():
    # no generators: free ring, numerator 1
    s = HilbertSeries(tuple(monomial_quotient_numerator([], Grevlex(4))), 4)
    assert tuple(s.numerator) == (1,)
    assert s.dimension == 4
    assert s.multiplicity == 1
    for d in range(5):
        assert hilbert_function(s.numerator, 4, d) == comb(d + 3, 3)


def test_complete_intersection_products():
    # one quadric in 3 vars: numerator 1 - t^2, dim 2, degree 2
    s = quadric_series()
    assert list(s.numerator) == [1, 0, -1]
    assert s.dimension == 2
    assert s.multiplicity == 2
    minimal_num, cancelled = s.reduced()
    assert minimal_num == (1, 1)
    assert cancelled == 1


def test_series_str_mentions_numerator_and_denominator():
    s = quadric_series()
    text = str(s)
    assert "t" in text and "(1-t)" in text.replace(" ", "")


# -- frozen quotient series for the smallest matrix sizes -------------------------


def test_commutator_quotient_series_smallest(ctx):
    series = hilbert_of_basis(ctx.gb_commutator(2))
    assert list(series.numerator) == [1, 0, -3, 2]
    assert series.dimension == 6
    assert series.multiplicity == 3


def test_commutator_quotient_series_three_by_three(ctx):
    series = hilbert_of_basis(ctx.gb_commutator(3))
    assert list(series.numerator) == [1, 0, -8, 2, 31, -32, -25, 58, -32, 4, 1]
    assert series.dimension == 12


def test_off_diagonal_series_is_a_complete_intersection(ctx):
    for n, quadrics in ((2, 2), (3, 6)):
        series = hilbert_of_basis(ctx.gb_off_diagonal(n))
        expect = [1]
        for _ in range(quadrics):
            expect = [
                a - b
                for a, b in zip(
                    expect + [0, 0], [0, 0] + expect
                )
            ]
        assert list(series.numerator) == expect
        assert series.dimension == n * n + n
    assert hilbert_of_basis(ctx.gb_off_diagonal(3)).multiplicity == 64


def test_quotient_series_matches_monomial_count_oracle(ctx):
    for n, dmax in ((2, 6), (3, 4)):
        gb = ctx.gb_commutator(n)
        series = hilbert_of_basis(gb)
        nvars, order = gb.ring.nvars, gb.ring.order
        leads = [order.decode(g.terms[0][0]) for g in gb]
        for d in range(dmax + 1):
            assert hilbert_function(series.numerator, nvars, d) == count_monomials_outside(
                leads, nvars, d
            )


def test_hilbert_of_basis_refuses_partial_input(ctx):
    from commsyz.groebner import Budget, IncompleteBasisError, buchberger

    gens = ctx.system(2).minimal_gens
    partial = buchberger(gens, budget=Budget(max_spairs=1))
    with pytest.raises(IncompleteBasisError):
        hilbert_of_basis(partial)
    truncated = buchberger(gens, degree_bound=2)
    assert (truncated.complete, truncated.truncation_degree) == (False, 2)
    with pytest.raises(IncompleteBasisError):
        hilbert_of_basis(truncated)


def test_the_zero_series_has_dimension_minus_one():
    """The quotient by the unit ideal is the zero module: its series has the
    empty numerator, and an all-zero numerator is the same series."""
    from commsyz.groebner import buchberger

    ring = PolyRing(2, QQ)
    for series in (hilbert_of_basis(buchberger([ring.one])), HilbertSeries((0, 0, 0), 4)):
        assert (series.dimension, series.multiplicity) == (-1, 0)


# -- graded tables ----------------------------------------------------------------


def _toy_table():
    return GradedBettiTable(
        {(0, 0): 1, (1, 2): 3, (2, 3): "c", (2, 4): 2, (3, 5): "40+"}
    )


def test_table_entries_and_totals():
    t = _toy_table()
    assert t.entry(0, 0) == 1
    assert t.entry(5, 5) == 0
    assert t.max_col == 3
    assert t.min_row == 0 and t.max_row == 2
    assert t.totals() == [1, 3, "2+", "0+"]
    assert t.column_sum(2) == (2, ["c"])
    roundtrip = GradedBettiTable.from_entries(t.to_entries())
    assert roundtrip == t


def test_table_drops_zeros_and_rejects_negatives():
    t = GradedBettiTable({(0, 0): 1, (1, 2): 0})
    assert len(t) == 1
    with pytest.raises(ValueError):
        GradedBettiTable({(0, 0): -1})


def test_table_display_layout():
    t = _toy_table()
    text = t.display()
    lines = text.splitlines()
    assert lines[0].split() == ["total:", "1", "3", "2+", "0+"]
    assert lines[1].split() == ["0:", "1", ".", ".", "."]
    assert lines[2].split() == ["1:", ".", "3", "c", "."]
    assert lines[3].split() == ["2:", ".", ".", "2", "40+"]


def test_euler_constraints_on_a_koszul_complex():
    # quotient by one quadric: betti 1, 1 in degrees 0, 2
    table = GradedBettiTable({(0, 0): 1, (1, 2): 1})
    series = quadric_series()
    cons = euler_constraints(table, series)
    assert all(c.satisfied for c in cons)
    assert residual_relations(cons) == []


def test_euler_constraints_flag_violations():
    table = GradedBettiTable({(0, 0): 1, (1, 2): 2})
    series = quadric_series()
    with pytest.raises(ValueError):
        euler_constraints(table, series)


def test_euler_constraints_carry_symbolic_residuals():
    table = GradedBettiTable({(0, 0): 1, (1, 2): "c", (2, 2): "d"})
    series = quadric_series()
    cons = euler_constraints(table, series)
    res = residual_relations(cons)
    assert len(res) == 1
    c = res[0]
    assert c.degree == 2
    assert c.coeffs == {"c": -1, "d": 1}
    assert c.target == -1
    assert c.satisfied is None
    assert str(c) == "degree 2: - c + d = -1"
    # lower-bound cells become named unknowns
    t2 = GradedBettiTable({(0, 0): 1, (1, 2): "5+"})
    cons2 = euler_constraints(t2, series)
    res2 = residual_relations(cons2)
    assert res2 and res2[0].coeffs == {"b1_2": -1}


def test_splice_shift_values():
    assert canonical_splice_shift(2) == 4
    assert canonical_splice_shift(3) == 12
    assert canonical_splice_shift(4) == 24


def test_splice_tail_reflects_cells():
    canonical = GradedBettiTable({(0, 2): 1, (0, 3): 4, (1, 5): "c"}, computed=[(0, 2)])
    out = splice_tail(canonical, codim=6, sigma=12)
    assert out.cells == {(6, 10): 1, (6, 9): 4, (5, 7): "c"}
    assert out.computed == {(6, 10)}
