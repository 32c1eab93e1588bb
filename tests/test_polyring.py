import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commsyz.fields import GF, QQ
from commsyz.polyring import (
    BlockElimination,
    Grevlex,
    Lex,
    PolyRing,
    decompile,
    make_order,
)

from oracles import evaluate, exact_div, mon_degree, mon_div, mon_divides, mon_lcm, mon_mul

R = PolyRing(2, GF(101))  # 8 variables
RQ = PolyRing(2, QQ)

exps8 = st.tuples(*[st.integers(0, 3)] * 8)
coeffs = st.integers(-60, 60)
poly_dicts = st.dictionaries(exps8, coeffs, max_size=5)


def mk(d, ring=R):
    return ring.poly(d.items())


# -- monomial helpers ----------------------------------------------------------


@given(a=exps8, b=exps8)
def test_monomial_helpers(a, b):
    m = mon_mul(a, b)
    assert mon_degree(m) == mon_degree(a) + mon_degree(b)
    assert mon_divides(a, m) and mon_divides(b, m)
    assert mon_div(m, a) == b
    lcm = mon_lcm(a, b)
    assert mon_divides(a, lcm) and mon_divides(b, lcm)
    assert all(l == max(e, f) for l, e, f in zip(lcm, a, b))


# -- monomial orders -----------------------------------------------------------


def greater(order, a, b) -> bool:
    return order.encode(a) > order.encode(b)


@given(e=exps8)
def test_order_encode_decode_roundtrip(e):
    for order in (Grevlex(8), Lex(8), BlockElimination(8, 2)):
        n = order.nvars
        ee = (e + (0,) * n)[:n]
        assert order.decode(order.encode(ee)) == tuple(ee)


@given(a=exps8, b=exps8, c=exps8)
def test_order_is_total_and_multiplicative(a, b, c):
    for order in (Grevlex(8), Lex(8)):
        if a == b:
            assert not greater(order, a, b) and not greater(order, b, a)
        else:
            assert greater(order, a, b) != greater(order, b, a)
        if greater(order, a, b):
            assert greater(order, mon_mul(a, c), mon_mul(b, c))


def test_grevlex_tie_break():
    order = Grevlex(3)
    # same degree: higher degree wins first, then smaller last exponent wins
    assert greater(order, (2, 0, 0), (1, 1, 0))  # x^2 > xy? grevlex: compare
    assert greater(order, (1, 1, 0), (1, 0, 1))
    assert greater(order, (0, 2, 1), (0, 1, 2))
    assert greater(order, (1, 0, 0), (0, 0, 0))


def test_lex_order():
    order = Lex(3)
    assert greater(order, (1, 0, 0), (0, 5, 5))
    assert greater(order, (1, 1, 0), (1, 0, 5))


def test_elimination_order_blocks():
    ring = PolyRing(2, GF(101), order=BlockElimination(8, 1))  # x_1_1 in front
    order = ring.order
    front = (1,) + (0,) * 7
    big = (0,) + (3,) * 7
    assert greater(order, front, big)
    with pytest.raises(ValueError):
        make_order("weird", 8)


def test_what_is_gone_is_refused():
    """No "elim" order spec, no t_k variables and no aux-variable parameter."""
    with pytest.raises(ValueError):
        make_order("elim", 8)
    with pytest.raises(ValueError):
        PolyRing(2).parse("t_1")
    with pytest.raises(TypeError):
        PolyRing(2, naux=1)


# -- ring and polynomial arithmetic ---------------------------------------------


@settings(max_examples=60)
@given(da=poly_dicts, db=poly_dicts, dc=poly_dicts)
def test_ring_axioms(da, db, dc):
    a, b, c = mk(da), mk(db), mk(dc)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a - a == R.zero
    assert a * R.one == a
    assert a * R.zero == R.zero


@settings(max_examples=60)
@given(d=poly_dicts)
def test_terms_strictly_sorted(d):
    f = mk(d)
    keys = [v for v, _ in f.terms]
    assert keys == sorted(set(keys), reverse=True)
    assert keys == [R.order.encode(mon) for mon, _ in f.exponent_terms()]
    assert all(c != 0 for _, c in f.terms)


@settings(max_examples=60)
@given(da=poly_dicts, db=poly_dicts)
def test_parse_str_roundtrip(da, db):
    for ring in (R, RQ):
        f = mk(da, ring) - mk(db, ring)
        assert ring.parse(str(f)) == f


def test_parse_examples():
    f = RQ.parse("x_1_2^2 - 3/2*y_2_1*x_1_1 + 1")
    x12, y21, x11 = RQ.var("x_1_2"), RQ.var("y_2_1"), RQ.var("x_1_1")
    assert f == x12 * x12 - RQ.const("3/2") * y21 * x11 + RQ.one
    with pytest.raises(ValueError):
        RQ.parse("x_9_9")
    with pytest.raises(ValueError):
        RQ.parse("x_1_1 +")
    for text, term in (("1/0", "1/0"), ("0 / 0", "0/0"), ("x_1_1 - 2/0*y_1_1", "2/0*y_1_1")):
        with pytest.raises(ValueError, match=f"zero denominator in the term '{re.escape(term)}'"):
            RQ.parse(text)


@pytest.mark.parametrize(
    "factor", ("x_1_1^-1", "x_1_1^", "x_1_1^+2", "x_1_1^\u00b2", "x_1_1^2^3", "x_1_1^1.5")
)
def test_parse_refuses_an_exponent_that_is_not_ascii_digits(factor):
    text = f"y_1_1 - 2*{factor}"
    want = f"bad exponent in the factor '{factor}' of '{text}'"
    with pytest.raises(ValueError, match=re.escape(want)):
        RQ.parse(text)


def test_parse_refuses_coefficients_with_no_image_mod_p():
    text = "1/7*x_1_1 + y_1_1"
    assert RQ.parse(text) == RQ.const("1/7") * RQ.x(1, 1) + RQ.y(1, 1)
    with pytest.raises(ZeroDivisionError, match=r"GF\(7\)"):
        PolyRing(2, GF(7)).parse(text)
    R101 = PolyRing(2, GF(101))
    assert R101.parse(text) == R101.x(1, 1).scale(pow(7, -1, 101)) + R101.y(1, 1)


@settings(max_examples=40)
@given(da=poly_dicts, db=poly_dicts)
def test_exact_div_inverts_mul(da, db):
    f, g = mk(da), mk(db)
    if g.is_zero():
        return
    assert exact_div(f * g, g) == f


@settings(max_examples=40)
@given(da=poly_dicts, db=poly_dicts, point=st.lists(st.integers(0, 100), min_size=8, max_size=8))
def test_substitution_is_a_homomorphism(da, db, point):
    f, g = mk(da), mk(db)
    fld = R.field
    assert evaluate(f * g, point) == fld.mul(evaluate(f, point), evaluate(g, point))
    assert evaluate(f + g, point) == fld.add(evaluate(f, point), evaluate(g, point))


def test_degrees_and_bidegrees():
    f = R.x(1, 2) * R.y(2, 1) - R.x(1, 1) * R.y(1, 1)
    assert f.degree() == 2
    assert f.is_homogeneous()
    assert f.bidegree() == (1, 1)
    g = R.x(1, 2) + R.y(1, 2)
    assert g.bidegree() not in ((1, 0), (0, 1))  # mixed: marker, not a pair
    assert R.zero.bidegree() == (0, 0)
    assert R.zero.degree() == -1


def test_monic_and_scale():
    f = R.poly({(2,) + (0,) * 7: 7, (0,) * 8: 3})
    m = f.scale(R.field.inv(R.field.coerce(7)))
    assert m.terms[0][1] == 1
    assert m == R.poly({(2,) + (0,) * 7: 1, (0,) * 8: R.field.mul(3, R.field.inv(7))})


# -- packed encoding and decompile ------------------------------------------------

ORDERS9 = (Grevlex(9), Lex(9), BlockElimination(9, 1))
ORDERS8 = (Grevlex(8), Lex(8), BlockElimination(8, 1))  # the orders of n=2 rings


@st.composite
def exps9_capped(draw, total=255):
    """Nine exponents of total degree <= `total`, the cap: all of it in one
    variable when the cuts coincide, else spread over several."""
    t = draw(st.integers(0, total))
    cuts = sorted(draw(st.lists(st.integers(0, t), min_size=8, max_size=8)))
    return tuple(hi - lo for lo, hi in zip([0, *cuts], [*cuts, t]))


@pytest.mark.parametrize("order", ORDERS8, ids=repr)
def test_decompile_matches_canonical_sort(order):
    ring = PolyRing(2, GF(101), order=order)
    rng = random.Random(11)
    mons = sorted({tuple(rng.randrange(4) for _ in range(8)) for _ in range(60)})
    terms = [(order.encode(m), rng.randrange(101)) for m in mons]
    terms[::7] = [(v, 0) for v, _ in terms[::7]]
    rng.shuffle(terms)
    want = ring.poly([(order.decode(v), c) for v, c in terms])
    assert decompile(ring, terms).terms == want.terms
    assert len(want.terms) < len(terms)


@settings(max_examples=80)
@given(data=st.data())
def test_packed_key_is_additive_up_to_the_exponent_cap(data):
    a = data.draw(exps9_capped())
    b = data.draw(exps9_capped(255 - sum(a)))  # keeps a * b within total degree 255
    for order in ORDERS9:
        unit = order.encode((0,) * 9)
        assert unit == order.unit_v
        assert order.encode(mon_mul(a, b)) == order.encode(a) + order.encode(b) - unit


@pytest.mark.parametrize("order", ORDERS9, ids=repr)
def test_encode_raises_at_exponent_256(order):
    """Exponent 256 keeps its own message; total degree 256 spread over
    several variables, each within a byte, passes the cap too."""
    for total in (255, 256):
        spread = (29,) * 8 + (total - 232,)
        for i in (0, 8):
            single = [0] * 9
            single[i] = total
            if total == 255:
                assert order.decode(order.encode(single)) == tuple(single)
                assert order.decode(order.encode(spread)) == spread
                continue
            with pytest.raises(OverflowError, match="exponent 256 exceeds order capacity 255"):
                order.encode(single)
            with pytest.raises(OverflowError, match="total degree 256 exceeds the cap 255"):
                order.encode(spread)


@pytest.mark.parametrize("order", ORDERS8, ids=repr)
def test_encode_refuses_negative_exponents(order):
    ring = PolyRing(2, QQ, order=order)
    for i in (0, 1, 7):
        exps = [1] * 8
        exps[i] = -1
        with pytest.raises(ValueError, match="negative exponent"):
            order.encode(exps)
        with pytest.raises(ValueError, match="negative exponent"):
            ring.poly({tuple(exps): 1})
