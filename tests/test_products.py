"""The product kernel `PolyRing.dots` and every route into it (`dot`, `*`,
matrix products, syzygy residuals) against a naive exponent-tuple oracle;
its cap guard (no product past total degree 255); that it never encodes or
decodes a monomial; and that over QQ it packs each operand once per call and
builds one Fraction per distinct coefficient."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commsyz import polyring
from commsyz.fields import GF, QQ
from commsyz.genmat import CommutatorSystem, GenericMatrix, build_system
from commsyz.polyring import BlockElimination, Grevlex, Lex, PolyRing
from commsyz.syzygy import eval_word, trace_residual

from oracles import naive_products

FIELDS = (QQ, GF(32003), GF(7))
# n = 2: x_1_1, ..., y_2_2 (8 variables); elim puts x_1_1 and x_1_2 in front
RINGS = [
    PolyRing(2, field, BlockElimination(8, 2) if order == "elim" else order)
    for field in FIELDS
    for order in ("grevlex", "lex", "elim")
]
# x_1_1, x_2_2, y_1_1 and y_2_2 only, so that term products collide and cancel
SUPPORT = (0, 3, 4, 7)


def _monomial(exps):
    mon = [0] * 8
    for i, e in zip(SUPPORT, exps):
        mon[i] = e
    return tuple(mon)


monomials = st.tuples(*[st.integers(0, 2)] * len(SUPPORT)).map(_monomial)
# denominators up to 6: non-unit and mixed over QQ, all invertible mod 7
coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def polys(ring):
    return st.dictionaries(monomials, coeffs, max_size=4).map(lambda d: ring.poly(d.items()))


def check(got, ring, pairs):
    want = ring.poly(naive_products(pairs, ring.field).items())
    assert got.terms == want.terms
    assert all(type(c) is type(ring.field.one) for _, c in got.terms)


def commutator_system(ring):
    X = GenericMatrix.from_entries(ring, 2, ring.x)
    Y = GenericMatrix.from_entries(ring, 2, ring.y)
    Z = X * Y - Y * X
    return CommutatorSystem(ring, X, Y, Z, tuple(Z[i, j] for j in (1, 2) for i in (1, 2)))


SYSTEMS = [commutator_system(ring) for ring in RINGS]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_dot_and_mul_match_the_naive_oracle(data):
    ring = data.draw(st.sampled_from(RINGS), label="ring")
    pairs = data.draw(st.lists(st.tuples(polys(ring), polys(ring)), max_size=5), label="pairs")
    check(ring.dot(pairs), ring, pairs)
    # operands made on the fly and dropped by the caller may reuse an object id
    shifted = [(a + ring.one, b) for a, b in pairs]
    check(ring.dot((a + ring.one, b) for a, b in pairs), ring, shifted)
    squares = [(a, a) for a, _ in pairs]
    check(ring.dot(squares), ring, squares)
    for a, b in pairs:
        check(a * b, ring, [(a, b)])
    assert ring.dot(pairs + [(-a, b) for a, b in pairs]).is_zero()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_dots_match_one_dot_per_sum(data):
    ring = data.draw(st.sampled_from(RINGS), label="ring")
    pool = data.draw(st.lists(polys(ring), min_size=1, max_size=4), label="pool")
    index = st.integers(0, len(pool) - 1)
    shape = st.lists(st.lists(st.tuples(index, index), max_size=4), max_size=4)
    sums = [[(pool[i], pool[j]) for i, j in pairs] for pairs in data.draw(shape, label="sums")]
    # one operand in several sums, each over another common denominator
    f, g = pool[0], pool[-1]
    sums += [[(f, g.scale(Fraction(1, k))), (g, f)] for k in (2, 3, 5)]

    def same(got, want):
        assert [h.terms for h in got] == [h.terms for h in want]
        assert all(type(c) is type(ring.field.one) for h in got for _, c in h.terms)

    same(ring.dots(sums), [ring.dot(pairs) for pairs in sums])
    # operands made on the fly and dropped by the caller may reuse an object id
    got = ring.dots(((a + ring.one, b) for a, b in pairs) for pairs in sums)
    same(got, [ring.dot([(a + ring.one, b) for a, b in pairs]) for pairs in sums])
    assert ring.dots([]) == []


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: repr(s.ring))
def test_commutators_match_the_naive_oracle(system):
    X, Y, ring = system.X, system.Y, system.ring
    assert ring.dot([]) == ring.zero
    assert ring.dot([(ring.zero, X[1, 1]), (Y[1, 1], ring.zero)]) == ring.zero
    other_field = RINGS[(RINGS.index(ring) + 3) % len(RINGS)]
    with pytest.raises(ValueError):
        ring.dot([(X[1, 1], other_field.x(1, 1))])
    for i in (1, 2):
        for j in (1, 2):
            pairs = [(X[i, k], Y[k, j]) for k in (1, 2)] + [(-Y[i, k], X[k, j]) for k in (1, 2)]
            check(system.Z[i, j], ring, pairs)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_matrix_products_and_residuals_match_the_naive_oracle(data):
    system = data.draw(st.sampled_from(SYSTEMS), label="system")
    ring = system.ring
    entries = data.draw(st.lists(polys(ring), min_size=12, max_size=12), label="entries")
    A = GenericMatrix(ring, [entries[0:2], entries[2:4]])
    B = GenericMatrix(ring, [entries[4:6], entries[6:8]])
    AB = A * B
    for i in (1, 2):
        for j in (1, 2):
            check(AB[i, j], ring, [(A[i, k], B[k, j]) for k in (1, 2)])
    C = GenericMatrix(ring, [entries[8:10], entries[10:12]])
    check(trace_residual(C, system), ring, list(zip(entries[8:], system.commutators)))


@pytest.mark.parametrize("field", (QQ, GF(32003)), ids=repr)
@pytest.mark.parametrize("order", (Grevlex(8), Lex(8), BlockElimination(8, 1)), ids=repr)
def test_products_stop_at_the_exponent_cap(order, field):
    ring = PolyRing(2, field, order=order)

    def exps(i, e):
        return tuple(e if k == i else 0 for k in range(8))

    def power(i, e):
        return ring.poly({exps(i, e): 1})

    def entry(f):
        return GenericMatrix(ring, [[f]])

    for i, other in ((0, 7), (4, 0), (7, 1)):
        a = power(i, 200)
        b = power(i, 55)
        for want, factor in ((power(i, 255), b), (a * power(other, 55), power(other, 55))):
            assert a * factor == want  # 255 in one variable, then spread over two
            assert ring.dot([(a, factor)]) == want
            assert (entry(a) * entry(factor))[1, 1] == want
        # a product of total degree 256 raises, in one variable or in two
        for c in (power(i, 56), power(other, 56)):
            for product in (
                lambda: a * c,
                lambda: ring.dot([(a, c)]),
                lambda: ring.dot([(c, a)]),
                lambda: entry(a) * entry(c),
            ):
                with pytest.raises(OverflowError, match="product degree 256"):
                    product()
        # sums of degrees 200 and 55 multiply within the cap
        f = a + power(other, 1)
        g = power(other, 55) + b
        assert f * g == a * power(other, 55) + a * b + power(other, 56) + power(other, 1) * b
        m = power(other, 55).scale(3)
        want = (a * power(other, 55) + power(other, 56)).scale(3)
        assert f * m == m * f == want
        top = power(other, 56)
        for product in (lambda: f * top, lambda: top * f):
            with pytest.raises(OverflowError):
                product()
        with pytest.raises(OverflowError):
            f * (power(other, 1) + power(i, 56))


def test_products_neither_encode_nor_decode(monkeypatch):
    """Terms are keyed already, so products make no order encodings or decodings."""
    system = build_system(3)
    ring, X, Y = system.ring, system.X, system.Y
    M = X * Y + Y * X
    seen = {}
    order, dots = ring.order, ring.dots

    def counting(name, fn):
        def wrapped(arg):
            seen[name] += 1
            return fn(arg)
        return wrapped

    def counting_dots(sums):
        sums = [list(pairs) for pairs in sums]
        pairs = [pair for pairs in sums for pair in pairs]
        seen["inputs"] += sum({id(f): len(f.terms) for pair in pairs for f in pair}.values())
        seen["products"] += sum(len(a.terms) * len(b.terms) for a, b in pairs)
        return dots(sums)

    monkeypatch.setattr(order, "encode", counting("encode", order.encode))
    monkeypatch.setattr(order, "decode", counting("decode", order.decode))
    monkeypatch.setattr(ring, "dots", counting_dots)

    def counts(job):
        seen.update(encode=0, decode=0, inputs=0, products=0)
        job()
        return dict(seen)

    # X*Y: one dots call over 9 sums of 3 pairs, which packs each of the 18
    # single-term entries once
    assert counts(lambda: X * Y) == {"encode": 0, "decode": 0, "inputs": 18, "products": 27}
    # tr(M(XY-YX)): one sum over 9 pairs (M_ij, Z_ji), 5 or 6 terms times 4 or 6 terms
    res = counts(lambda: trace_residual(M, system))
    assert res == {"encode": 0, "decode": 0, "inputs": 99, "products": 276}


def test_qq_products_build_one_fraction_per_distinct_coefficient(monkeypatch):
    """Each kernel call over QQ builds one Fraction per distinct coefficient
    value of its result, which every term with that value shares."""
    calls = []  # [Fractions built, result] per kernel call
    kernel = polyring.sum_of_products

    def counting_fraction(*args):
        calls[-1][0] += 1
        return Fraction(*args)

    def counting_kernel(*args):
        calls.append([0, None])
        calls[-1][1] = kernel(*args)
        return calls[-1][1]

    system = build_system(3)
    monkeypatch.setattr(polyring, "Fraction", counting_fraction)
    monkeypatch.setattr(polyring, "sum_of_products", counting_kernel)
    word = eval_word("XXYXY", system)
    monkeypatch.undo()

    assert len(calls) == 5 * 9  # one per entry of each of the 5 matrix products
    for built, terms in calls:
        assert built == len({c for _, c in terms})
    # 1,062 terms share 54 Fractions
    assert (sum(len(t) for _, t in calls), sum(b for b, _ in calls)) == (1062, 54)
    coeffs = [c for row in word.rows for f in row for _, c in f.terms]
    assert coeffs and all(type(c) is Fraction for c in coeffs)
