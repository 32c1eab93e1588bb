"""The reduction kernel `normal_form` against a naive exponent-tuple division.

Scalar polynomials and module vectors go through the one store,
`DegreeBucketReducers`, and the same loop.  Each case checks the remainder,
the quotients rebuilt from the recorded reduction steps, and the identity
f = sum q_i g_i + r recomputed term by term on exponent tuples.  The
store's `find` is compared with `oracles.first_divisor` on polynomials and
on vectors, and the cap check with the reducer it picks.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from commsyz.fields import GF, QQ
from commsyz.polyring import (
    BlockElimination,
    DegreeBucketReducers,
    PolyRing,
    compile_poly,
    compile_terms,
    decompile,
    normal_form,
)
from commsyz.syzygy import (
    ModuleOrder,
    decompile_vector,
    module_normal_form,
    vector_terms,
)

from oracles import divide, first_divisor, n2_ring, naive_division, order_key

FIELDS = [QQ, GF(32003), GF(7)]


def _random_poly(ring, rng, live, degrees, nterms):
    terms = {}
    for _ in range(nterms):
        exps = [0] * ring.nvars
        for _ in range(rng.choice(degrees)):
            exps[rng.choice(live)] += 1
        terms[tuple(exps)] = Fraction(rng.randrange(-9, 10) or 1, rng.randrange(1, 4))
    return ring.poly(terms)


def _quotients(record, decode_offset, count):
    """{exps: coeff} per reducer from (index, delta, coeff) events.

    Each step reduces a smaller term than the one before, so no reducer is
    used twice with one multiplier, and every coefficient is kept exactly
    as it was recorded.
    """
    out = [{} for _ in range(count)]
    for idx, delta, cf in record:
        q = decode_offset(delta)
        assert q not in out[idx]
        out[idx][q] = cf
    return out


def _recombine(rem: dict, quotients, divisors, field) -> dict:
    """sum q_i g_i + r over {(position, exps): coeff} terms, zeros dropped."""
    acc = dict(rem)
    for q_i, g in zip(quotients, divisors):
        for qe, qc in q_i.items():
            for (pos, ge), gc in g.items():
                t = (pos, tuple(a + b for a, b in zip(qe, ge)))
                acc[t] = field.add(acc.get(t, field.coerce(0)), field.mul(qc, gc))
    return {t: c for t, c in acc.items() if not field.is_zero(c)}


def _as_terms(vec) -> dict:
    return {(pos, mon): c for pos, p in enumerate(vec) for mon, c in p.exponent_terms()}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("order,front", [("grevlex", 0), ("lex", 0), ("elim", 1)])
def test_normal_form_matches_naive_division(field, order, front):
    """Inhomogeneous divisor sets that are not Groebner bases, so the result
    depends on which divisor each step picks; every other case also feeds a
    repeated key whose coefficients cancel."""
    ring = n2_ring(field, order, front)
    o = ring.order
    key = order_key(o)
    rng = random.Random(f"nf-{order}-{field}")
    live = (0, 1, 2, 5, ring.nvars - 1)
    steps = nonzero = 0
    for case in range(25):
        gs = [_random_poly(ring, rng, live, (1, 2, 3), 4) for _ in range(rng.randrange(2, 6))]
        gs = [g for g in gs if g]
        f = _random_poly(ring, rng, live, (2, 3, 4), 8)
        terms = list(f.terms)
        want_f = _as_terms([f])
        if case % 2 and len(terms) > 1:
            v, c = terms[len(terms) // 2]
            terms.append((v, field.neg(c)))
            del want_f[(0, o.decode(v))]
        reducers = DegreeBucketReducers(o, [compile_poly(g, i) for i, g in enumerate(gs)])
        record = []
        rem = normal_form(terms, reducers, field, record)

        divisors = [_as_terms([g]) for g in gs]
        want_rem, want_q = naive_division(want_f, divisors, key, field)
        assert [v for v, _ in rem] == sorted({v for v, _ in rem}, reverse=True)
        assert _as_terms([decompile(ring, rem)]) == want_rem
        got_q = _quotients(record, lambda d: o.decode(d + o.unit_v), len(gs))
        assert got_q == want_q
        assert _recombine(want_rem, got_q, divisors, field) == want_f
        if case % 2 == 0:
            qs, r = divide(f, gs)
            assert [dict(q.exponent_terms()) for q in qs] == want_q
            assert _as_terms([r]) == want_rem
        if field.p:
            assert all(0 < c < field.p for _, c in rem)
            assert all(0 < cf < field.p for _, _, cf in record)
        steps += len(record)
        nonzero += bool(rem)
    assert steps > 40 and nonzero > 10
    if field.p == 7:
        # f = 2b(a + 4b): the step on ab leaves 1 - 2*4 = -7 on b^2, and c^2
        # enters as 3 + 4; both sums are nonzero multiples of 7
        a, b, c = ring.x(1, 1), ring.x(1, 2), ring.x(2, 1)
        g = compile_poly(a + 4 * b, 0)
        terms = [((a * b).terms[0][0], 2), ((b * b).terms[0][0], 1)]
        terms += [((c * c).terms[0][0], 3), ((c * c).terms[0][0], 4)]
        record = []
        assert normal_form(terms, DegreeBucketReducers(o, [g]), field, record) == []
        assert record == [(0, b.terms[0][0] - o.unit_v, 2)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_module_normal_form_matches_naive_division(field, order):
    """Rank-3 vectors with some zero components: a reducer applies only at
    its own lead position, and its tail may sit at any position."""
    ring = PolyRing(2, field, order=order)
    o = ring.order
    rank = 3
    morder = ModuleOrder(o, rank)
    key = order_key(o)
    rng = random.Random(f"module-{order}-{field}")
    live = (0, 1, 4, 5, ring.nvars - 1)
    x = ring.x(1, 1)
    at_x = compile_terms(vector_terms((ring.zero, x, ring.zero), morder), ring, 0)
    at_one = DegreeBucketReducers(o, [at_x])
    assert at_one.find(morder.encode(1, x.terms[0][0])).index == 0
    assert at_one.find(morder.encode(0, x.terms[0][0])) is None

    def vector(degrees, nterms):
        while True:
            vec = tuple(
                _random_poly(ring, rng, live, degrees, nterms) if rng.random() < 0.7 else ring.zero
                for _ in range(rank)
            )
            if any(vec):
                return vec

    steps = nonzero = 0
    for _ in range(25):
        gs = [vector((1, 2), 3) for _ in range(rng.randrange(2, 7))]
        f = vector((2, 3), 5)
        terms = vector_terms(f, morder)
        reducers = DegreeBucketReducers(
            o, [compile_terms(vector_terms(g, morder), ring, i) for i, g in enumerate(gs)]
        )
        record = []
        rem = normal_form(terms, reducers, field, record)
        assert module_normal_form(terms, reducers, field) == rem

        divisors = [_as_terms(g) for g in gs]
        want_rem, want_q = naive_division(_as_terms(f), divisors, key, field)
        assert _as_terms(decompile_vector(ring, rank, rem, morder)) == want_rem
        got_q = _quotients(record, lambda d: o.decode(d + o.unit_v), len(gs))
        assert got_q == want_q
        assert _recombine(want_rem, got_q, divisors, field) == _as_terms(f)
        if field.p:
            assert all(0 < c < field.p for _, c in rem)
            assert all(0 < cf < field.p for _, _, cf in record)
        steps += len(record)
        nonzero += bool(rem)
    assert steps > 40 and nonzero > 10
    assert normal_form([], reducers, field) == []


def _monomial(rng, nvars, live, degree):
    exps = [0] * nvars
    for _ in range(degree):
        exps[rng.choice(live)] += 1
    return tuple(exps)


@pytest.mark.parametrize("rank", [0, 3], ids=["poly", "module"])
@pytest.mark.parametrize("order,front", [("grevlex", 0), ("lex", 0), ("elim", 2)])
def test_find_returns_the_first_divisor(order, front, rank):
    """find on stores of 30-120 random reducers in the n=4 ring against
    `oracles.first_divisor`; rank 0 fills the store with polynomials, rank 3
    with vectors, each reducer at a random position.  Reducers enter
    out of lead-degree order; some repeat an earlier lead, and every other
    store holds a constant, which must match every query at its position.
    Queries are multiples of leads, random monomials and monomials below
    every lead degree."""
    field = GF(32003)
    ring = PolyRing(4, field, BlockElimination(32, front) if order == "elim" else order)
    o = ring.order
    key = order_key(o)
    morder = ModuleOrder(o, max(rank, 1))
    rng = random.Random(f"find-{order}-{rank}")
    nvars = ring.nvars
    picked = Counter()
    for case in range(8):
        live = rng.sample(range(nvars), 10)
        vecs, leads = [], []
        for i in range(rng.randrange(30, 121)):
            if leads and rng.random() < 0.1:
                pos, lead = rng.choice(leads)
                g = ring.poly({lead: 1})
            else:
                pos = rng.randrange(max(rank, 1))
                g = _random_poly(ring, rng, live, (2, 3, 4, 5, 6), rng.randrange(1, 4))
                lead = max((mon for mon, _ in g.exponent_terms()), key=key)
            if case % 2 and i == 17:
                g, lead = ring.one, (0,) * nvars
            vec = [ring.zero] * rank
            if rank:
                vec[pos] = g
                for later in range(pos + 1, rank):
                    vec[later] = _random_poly(ring, rng, live, (1, 2, 5), 2)
            else:
                pos = 0
            vecs.append(vec if rank else g)
            leads.append((pos, lead))
        degrees = [sum(lead) for _, lead in leads]
        assert any(a > b for a, b in zip(degrees, degrees[1:]))
        if rank:
            cps = [compile_terms(vector_terms(v, morder), ring, i) for i, v in enumerate(vecs)]
            store = DegreeBucketReducers(o, cps)
        else:
            store = DegreeBucketReducers(o, [compile_poly(g, i) for i, g in enumerate(vecs)])

        queries = []
        for _ in range(150):
            kind = rng.randrange(3)
            pos = rng.randrange(max(rank, 1))
            if kind == 0:
                pos, lead = rng.choice(leads)
                shift = _monomial(rng, nvars, live, rng.randrange(4))
                exps = tuple(a + b for a, b in zip(lead, shift))
            elif kind == 1:
                exps = _monomial(rng, nvars, live, rng.randrange(2, 9))
            else:
                exps = _monomial(rng, nvars, live, rng.randrange(2))
            queries.append((pos, exps))
        for query in queries:
            v = o.encode(query[1])
            got = store.find(morder.encode(query[0], v) if rank else v)
            want = first_divisor(leads, query)
            assert (None if got is None else got.index) == want
            if sum(query[1]) < 2:
                picked["below"] += 1  # answered by a constant lead or by none
            elif want is None:
                picked["miss"] += 1
            elif degrees[want] == 0:
                picked["constant"] += 1
            elif leads.count(leads[want]) > 1:
                picked["repeated lead"] += 1
            else:
                picked["hit"] += 1
    assert len(picked) == 5 and min(picked.values()) > 5


def test_find_checks_the_cap_on_the_reducer_it_picks():
    """Under lex, a*b sits in the group of a, created first, and b in the
    group of b; both divide a*b*c^250, and b wins on lead degree.  find
    raises when b's multiple passes 255 and not when only a*b's would."""
    ring = PolyRing(2, GF(101), order="lex")
    a, b, c = ring.x(1, 1), ring.x(1, 2), ring.x(2, 1)
    o = ring.order
    query = (a * b * c**250).terms[0][0]

    def store(*gs):
        return DegreeBucketReducers(o, [compile_poly(g, i) for i, g in enumerate(gs)])

    assert [anchor for anchor, _ in store(a * b + b, b + c).positions[0]] == [
        o.support(o.packed(v.terms[0][0])) for v in (a, b)
    ]
    with pytest.raises(OverflowError):
        store(a * b + b, b + c**6).find(query)
    assert store(a * b + b * c**6, b + c).find(query).index == 1
    assert store(a * b + b * c**5, b + c**5).find(query).index == 1
