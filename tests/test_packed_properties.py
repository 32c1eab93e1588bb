"""Packed-key arithmetic against exponent-tuple oracles, up to the cap.

The cap rule: no monomial has total degree above 255 (`polyring`).
`Polynomial.terms` holds packed order keys; these properties rebuild every
operation on plain exponent tuples (`tests/oracles.py`) and demand the same
answer, or an OverflowError exactly when a product of the naive computation
passes total degree 255.  Monomials are drawn of total degree near 0, near
128 and near 255, all of it in one variable or spread over several, so
products land on both sides of the cap.  Three variables (x_1_1, x_1_2,
y_1_1 of n=2, `oracles.spread`) under grevlex, lex and elim (x_1_1 in front
of the other seven), over QQ and GF(7).  Division raises at a step past
the cap (`oracles.divide`), and the engine refuses an element with a term
above its lead's degree, so no step of it passes the cap unseen.

The packed-exponent primitives (divisibility, lcm, support mask, key and
degree) are compared with tuple oracles in five variables, where elim's two
blocks (3 | 2 and 2 | 3) have a degree field between them, and on module
keys whose position bits sit above the scalar key; `encode`'s refusal past
total degree 255 in the eight variables of n=2, elim's blocks 3 | 5.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commsyz.fields import GF, QQ
from commsyz.groebner import buchberger
from commsyz.polyring import (
    BlockElimination,
    Grevlex,
    Lex,
    ModuleOrder,
    PolyRing,
    compile_terms,
)
from commsyz.syzygy import module_buchberger

from oracles import (
    divide,
    engine_basis,
    largest_product_degree,
    module_basis_all_pairs,
    mon_divides,
    mon_lcm,
    naive_combine,
    naive_division,
    n2_ring,
    naive_products,
    order_key,
    spread,
)

CAP = 255
RINGS = [n2_ring(field, order) for field in (QQ, GF(7)) for order in ("grevlex", "lex", "elim")]

exponents = st.one_of(st.integers(0, 2), st.integers(126, 130), st.integers(252, 255))


@st.composite
def capped(draw, nvars, total=exponents):
    """Exponents of one total degree, drawn from `total` (near 0, 128 or 255,
    the cap): all of it in one variable when the cuts coincide, else spread
    over several."""
    t = draw(total)
    cuts = sorted(draw(st.lists(st.integers(0, t), min_size=nvars - 1, max_size=nvars - 1)))
    return tuple(hi - lo for lo, hi in zip([0, *cuts], [*cuts, t]))


monomials = capped(3).map(spread)
# denominators up to 3 stay invertible mod 7
coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
term_lists = st.lists(st.tuples(monomials, coeffs), max_size=4)


PROPERTY = settings(max_examples=120, deadline=None)


def as_dict(f) -> dict:
    return dict(f.exponent_terms())


@st.composite
def ring_and_terms(draw, count):
    ring = draw(st.sampled_from(RINGS), label="ring")
    return ring, [draw(term_lists) for _ in range(count)]


@PROPERTY
@given(case=ring_and_terms(2))
def test_poly_str_and_parse_match_the_oracle(case):
    ring, (terms, _) = case
    f = ring.poly(terms)
    assert as_dict(f) == naive_combine(terms, ring.field)
    assert [v for v, _ in f.terms] == sorted({v for v, _ in f.terms}, reverse=True)
    assert ring.parse(str(f)) == f


@PROPERTY
@given(case=ring_and_terms(2))
def test_sums_match_the_oracle(case):
    ring, (ta, tb) = case
    a, b = ring.poly(ta), ring.poly(tb)
    assert as_dict(a + b) == naive_combine(ta + tb, ring.field)
    assert as_dict(a - b) == naive_combine(ta + [(m, -c) for m, c in tb], ring.field)
    assert (a - b) + b == a


@PROPERTY
@given(case=ring_and_terms(4))
def test_products_match_the_oracle_or_raise_past_the_cap(case):
    ring, terms = case
    a, b, c, d = [ring.poly(t) for t in terms]
    for pairs in ([(a, b)], [(a, b), (c, d)], [(a, a)]):
        if largest_product_degree(pairs) > CAP:
            with pytest.raises(OverflowError):
                ring.dot(pairs)
            continue
        want = naive_products(pairs, ring.field)
        assert as_dict(ring.dot(pairs)) == want
        if len(pairs) == 1:
            assert as_dict(pairs[0][0] * pairs[0][1]) == want


@PROPERTY
@given(case=ring_and_terms(1), mon=monomials, c=st.integers(1, 6))
def test_monomial_multiples_match_the_oracle_or_raise_past_the_cap(case, mon, c):
    ring, (terms,) = case
    f = ring.poly(terms)
    m = ring.poly({mon: c})
    for pairs in ([(f, m)], [(m, f)]):
        if largest_product_degree(pairs) > CAP:
            with pytest.raises(OverflowError):
                ring.dot(pairs)
        else:
            assert as_dict(ring.dot(pairs)) == naive_products(pairs, ring.field)


@PROPERTY
@given(case=ring_and_terms(3))
def test_divide_matches_the_oracle_or_raises_past_the_cap(case):
    ring, (tf, *tgs) = case
    f = ring.poly(tf)
    gs = [g for g in (ring.poly(t) for t in tgs) if g]
    assume(gs)
    fld = ring.field
    as_terms = lambda p: {(0, mon): c for mon, c in p.exponent_terms()}
    try:
        rem, quotients = naive_division(
            as_terms(f), [as_terms(g) for g in gs], order_key(ring.order), fld, cap=CAP
        )
    except OverflowError:
        with pytest.raises(OverflowError):
            divide(f, gs)
        return
    qs, r = divide(f, gs)
    assert as_dict(r) == {mon: c for (_, mon), c in rem.items()}
    assert [as_dict(q) for q in qs] == quotients


def test_s_polynomials_past_the_cap_raise():
    """Inhomogeneous under lex: S(x^2 - y^b, x*y^60) multiplies y^b by
    y^60, which reaches y^255 at b = 195, where the exponent-tuple route
    (`module_basis_all_pairs`) finds y^255.  The engine refuses both
    inputs, whose lead x^2 lies below its tail's degree, so no step of it
    can carry: unchecked, it returned [y^196, x] at b = 196, as y^256
    carried into x's byte.  The product past the cap raises where it
    forms."""
    ring = PolyRing(1, QQ, "lex")
    x, y = ring.x(1, 1), ring.y(1, 1)
    tuples = lambda g: {(0, mon): c for mon, c in g.exponent_terms()}
    gens = [x**2 - y**195, x * y**60]
    basis = module_basis_all_pairs([tuples(g) for g in gens], order_key(ring.order), QQ)
    assert tuples(y**255).keys() in [g.keys() for g in basis]
    for b in (195, 196):
        with pytest.raises(ValueError, match="above its lead's degree"):
            engine_basis([x**2 - y**b, x * y**60])
    with pytest.raises(OverflowError, match="product degree 256"):
        (x**2 - y**196) * y**60


def test_homogeneous_s_polynomials_past_the_cap_are_truncated():
    """The same pair made homogeneous by z, on the signature loop:
    S(x^2*z^(b-2) - y^b, x*y^60) is -y^(b+60), a pair of degree b + 60.
    At b = 195 it gives y^255, whose own pairs pass the cap; at b = 196 it
    passes the cap itself.  Either basis is truncated at 255, the
    engine's too, as no lead settles it."""
    ring = PolyRing(2, QQ, "lex")
    x, y, z = ring.x(1, 1), ring.x(1, 2), ring.y(1, 1)
    for b, elements in ((195, [y**255, x * y**60]), (196, [x * y**60])):
        gens = [x**2 * z**(b - 2) - y**b, x * y**60]
        basis = buchberger(gens)
        assert (basis.complete, basis.truncation_degree) == (False, 255)
        assert [g for g in elements if g in basis.elements] == elements
        assert basis.elements == engine_basis(gens).elements


@pytest.mark.parametrize("order", ("grevlex", "lex", "elim"))
def test_module_reduction_steps_past_the_cap_raise(order):
    """A step reaches y^255; the vector whose step would pass it is a
    product past the cap, which raises before any step."""
    ring = n2_ring(QQ, order)
    t, x, y = ring.x(1, 1), ring.x(1, 2), ring.y(1, 1)
    lead = t**100 * x**100  # leads t^100*x^100 - y^200 in all three orders
    basis = module_buchberger([(lead - y**200, ring.zero)])
    assert basis.reduce((lead * y**55, ring.zero)) == (y**255, ring.zero)
    with pytest.raises(OverflowError):
        basis.reduce((lead * y**56, ring.zero))


# -- packed exponents ----------------------------------------------------------

ORDERS5 = [Grevlex(5), Lex(5), BlockElimination(5, 3), BlockElimination(5, 2)]
monomials5 = capped(5)
RINGS8 = [n2_ring(GF(7), order, front=3) for order in ("grevlex", "lex", "elim")]
monomials8 = capped(8)


def _packed(order, exps):
    return order.packed(order.encode(exps))


@PROPERTY
@given(order=st.sampled_from(ORDERS5), a=monomials5, b=monomials5, k=st.integers(0, 4))
def test_packed_divisibility_and_lcm_match_the_tuples(order, a, b, k):
    pa, pb = _packed(order, a), _packed(order, b)
    assert order.divides(pa, pb) == mon_divides(a, b)
    lcm = order.lcm(pa, pb)  # up to degree 510: an lcm key is never encoded
    assert lcm == order.lcm(pb, pa) and order.decode(order.key(lcm)) == mon_lcm(a, b)
    assert order.divides(pa, lcm) and order.divides(pb, lcm)
    if sum(a) < CAP:
        up = a[:k] + (a[k] + 1,) + a[k + 1:]
        assert order.divides(pa, _packed(order, up)) and not order.divides(_packed(order, up), pa)


@PROPERTY
@given(order=st.sampled_from(ORDERS5), a=monomials5, b=monomials5, pos=st.integers(0, 2))
def test_packed_keys_degrees_and_supports_match_the_tuples(order, a, b, pos):
    v = order.encode(a)
    pa, pb = order.packed(v), _packed(order, b)
    assert order.key(pa) == v
    assert order.degree(v) == sum(a)
    units = [_packed(order, tuple(int(i == k) for i in range(5))) for k in range(5)]
    assert order.support(pa) == sum(u for u, x in zip(units, a) if x)
    coprime = not any(x and y for x, y in zip(a, b))
    assert (not order.support(pa) & order.support(pb)) == coprime
    # a module key's position bits drop out of its packed exponents and degree
    mv = ModuleOrder(order, 3).encode(pos, v)
    assert order.packed(mv) == pa and order.degree(mv) == sum(a)


@PROPERTY
@given(
    ring=st.sampled_from(RINGS8),
    q=st.tuples(*[exponents] * 8),
    terms=st.lists(st.tuples(st.integers(0, 2), monomials8), min_size=2, max_size=5, unique=True),
)
def test_cap_check_matches_the_tuples(ring, q, terms):
    """`encode` refuses a monomial past total degree 255, and a compiled
    term list reads its lead's degree and packed exponents off the key."""
    order = ring.order
    morder = ModuleOrder(order, 3)
    keys = sorted({morder.encode(pos, order.encode(e)) for pos, e in terms}, reverse=True)
    cp = compile_terms([(v, 1) for v in keys], ring)
    assert cp.packed == order.packed(keys[0])
    assert cp.lead_deg == sum(order.decode(morder.decode(keys[0])[1]))
    if sum(q) > CAP:
        with pytest.raises(OverflowError, match=f"total degree {sum(q)} exceeds the cap"):
            ring.poly({q: 1})
    else:
        assert order.decode(order.encode(q)) == q
