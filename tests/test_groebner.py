import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commsyz import groebner, polyring
from commsyz.fields import GF, QQ
from commsyz.genmat import build_system
from commsyz.groebner import (
    Budget,
    Engine,
    IncompleteBasisError,
    SignatureLoop,
    buchberger,
    colon_ideal,
    intersect_ideals,
    interreduce,
)
from commsyz.polyring import PolyRing
from commsyz.syzygy import first_syzygies, module_buchberger, module_membership
from commsyz.verify import DeskContext, minimal_new_generators

from oracles import (
    colon_by_element,
    colon_by_meets,
    count_monomials_outside,
    criteria_pairs,
    engine_basis,
    engine_meet,
    ideal_component_dim,
    interreduce_against_others,
    monic,
    n2_ring,
    reduced,
    settled_by_engine,
    verify_basis,
)

R = PolyRing(2, GF(101))


def _vars(ring):
    return [ring.var(name) for name in ring.names]


def test_buchberger_rejects_empty_input():
    with pytest.raises(ValueError):
        buchberger([R.zero])
    with pytest.raises(ValueError):
        buchberger([])


def test_principal_ideal_basis_is_the_monic_generator():
    """Inhomogeneous, so on the Gebauer-Moeller reference route."""
    f = R.x(1, 1) * R.x(1, 1) - R.y(2, 2).scale(R.field.coerce(3))
    gb = engine_basis([f, f + f])
    assert gb.elements == (monic(f),)
    assert verify_basis(gb, [f])[0]


def test_known_lex_basis_for_a_twisted_pair():
    # k[a,b]: (a^2 - b, a*b) has lex basis {a^2 - b, a*b, b^2}; inhomogeneous,
    # so on the Gebauer-Moeller reference route
    ring = PolyRing(1, QQ, order="lex")
    a, b = ring.x(1, 1), ring.y(1, 1)
    gb = engine_basis([a * a - b, a * b])
    elems = {str(g) for g in gb}
    assert elems == {"x_1_1^2 - y_1_1", "x_1_1*y_1_1", "y_1_1^2"}
    assert verify_basis(gb, [a * a - b, a * b])[0]
    assert gb.contains(b * b)
    assert not gb.contains(a)
    assert not gb.contains(b)


def test_reduce_is_idempotent_and_linear():
    ring = PolyRing(1, GF(101))
    a, b = ring.x(1, 1), ring.y(1, 1)
    gb = buchberger([a * a - b * b, a * b])
    for f in (a * a * a, a * a * b + b, (a + b) ** 3):
        r = gb.reduce(f)
        assert gb.reduce(r) == r
        assert gb.contains(f - r)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_random_combinations_reduce_to_zero(seed):
    """Inhomogeneous generators, on the Gebauer-Moeller reference route."""
    rng = random.Random(seed)
    ring = PolyRing(1, GF(101))
    vs = _vars(ring)

    def rand_poly(deg, terms):
        f = ring.zero
        for _ in range(terms):
            m = ring.one
            for _ in range(rng.randrange(deg + 1)):
                m = m * rng.choice(vs)
            f = f + m.scale(ring.field.coerce(rng.randrange(1, 101)))
        return f

    gens = [rand_poly(2, 3) for _ in range(3)]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    gb = engine_basis(gens)
    assert verify_basis(gb, gens)[0]
    combo = ring.zero
    for g in gens:
        combo = combo + g * rand_poly(1, 2)
    assert gb.contains(combo)


def test_budget_exhaustion_modes():
    sysring = PolyRing(2, GF(32003))
    xs = _vars(sysring)
    gens = []
    for i in range(4):
        gens.append(xs[i] * xs[i + 1] - xs[i + 2] * xs[i + 3])
    gb = buchberger(gens, budget=Budget(max_spairs=1))
    # one generator entered; the next pair has degree 2, so the cut basis
    # answers degree 1 and refuses degree 2
    assert (gb.complete, gb.truncation_degree) == (False, 1)
    assert gb.stats.spairs_reduced <= 1
    assert not gb.contains(xs[0])
    with pytest.raises(IncompleteBasisError):
        gb.contains(gens[0])
    with pytest.raises(ValueError):
        Budget(max_spairs=-1)
    with pytest.raises(ValueError):
        Budget(max_seconds=0)


def test_a_cut_with_dropped_pairs_is_truncated_at_most_at_the_bound():
    """Bound 2 drops the degree-3 pair of the two quadrics, and a cut of two
    pairs comes before the entry of x^6.  The next pair has degree 6, but
    degree 3 was never computed: y*z^2 = y*(xy - z^2) - x*y^2 lies in the
    ideal and does not reduce to zero, so the basis must refuse it."""
    ring = PolyRing(2, QQ)
    x, y, z = _vars(ring)[:3]
    gens = [x * y - z * z, y * y, x**6]
    assert buchberger(gens).contains(y * z * z)
    gb = buchberger(gens, degree_bound=2, budget=Budget(max_spairs=2))
    assert (gb.complete, gb.truncation_degree) == (False, 2)
    assert gb.contains(x * y * 3 - z * z * 3) and not gb.contains(x * z)
    with pytest.raises(IncompleteBasisError):
        gb.contains(y * z * z)
    zero = ring.zero
    mb = module_buchberger([(g, zero) for g in gens], degree_bound=2, budget=Budget(max_spairs=2))
    assert (mb.complete, mb.truncation_degree) == (False, 2)
    with pytest.raises(IncompleteBasisError):
        mb.contains((y * z * z, zero))


def test_degree_truncated_basis_answers_bounded_queries():
    ring = PolyRing(1, GF(101))
    a, b = ring.x(1, 1), ring.y(1, 1)
    gens = [a * a - b * b, a * b]
    full = buchberger(gens)
    trunc = buchberger(gens, degree_bound=3)
    assert (trunc.complete, trunc.truncation_degree) == (False, 3)
    for f in (a * a, a * b, b * b * b, a * a * a - b * b * a):
        assert trunc.reduce(f).is_zero() == full.reduce(f).is_zero()
    inhomog = [a * a - b]
    with pytest.raises(ValueError):
        buchberger(inhomog, degree_bound=2)


def test_a_generator_above_the_bound_decides_completeness_before_it_is_dropped():
    """Under bound 2 the loop enters a generator of degree 3 all the same.
    y^3 is coprime to x^2, so the pair update over the reduced basis queues
    nothing past the bound and the basis is complete, y^3 included.  x*y^2
    pairs with x^2 in degree 4, so that basis stays truncated at 2 and holds
    x^2 alone.  Dropping the elements above the bound before `_settled`
    reads them would call both bases complete and lose the generator."""
    ring = PolyRing(1, QQ)
    x, y = ring.x(1, 1), ring.y(1, 1)
    coprime = buchberger([x * x, y**3], degree_bound=2)
    assert (coprime.complete, len(coprime)) == (True, 2)
    assert coprime.contains(y**3)
    above = buchberger([x * x, x * y * y], degree_bound=2)
    assert (above.complete, above.truncation_degree, above.elements) == (False, 2, (x * x,))
    with pytest.raises(IncompleteBasisError):
        above.contains(x * y * y)


def test_interreduce_drops_redundant_generators():
    ring = PolyRing(1, QQ)
    a, b = ring.x(1, 1), ring.y(1, 1)
    out = reduced([a, a * a, a * b + b * b, b * b])
    assert {str(g) for g in out} == {"x_1_1", "y_1_1^2"}


def test_intersection_of_principal_ideals_is_lcm():
    ring = PolyRing(1, QQ)
    a, b = ring.x(1, 1), ring.y(1, 1)
    meet = intersect_ideals([a * b], [b * b])
    assert len(meet) == 1
    assert meet[0] == monic(a * b * b)


def _random_forms(rng, ring, count, degrees):
    live = [ring.var(name) for name in rng.sample(ring.names, 5)]
    out = []
    for _ in range(count):
        f = ring.zero
        degree = rng.choice(degrees)
        for _ in range(rng.randint(1, 3)):
            m = ring.const(rng.randint(-50, 50) or 1)
            for _ in range(degree):
                m = m * rng.choice(live)
            f = f + m
        if f:
            out.append(f)
    return out


P = 2**31 - 1


def _dim(gens, degree):
    """dim of the degree piece of the ideal, over GF(P) for a QQ ring: the
    same as over QQ unless P divides some minor, which seeded small
    coefficients make negligible."""
    if not gens:
        return 0
    ring = gens[0].ring
    if ring.field.p is None:
        ring_p = PolyRing(ring.n, GF(P), ring.order)
        gens = [ring_p.poly(g.exponent_terms()) for g in gens]
    return ideal_component_dim(gens, degree, gens[0].ring.field.p)


@pytest.mark.parametrize("order", ("grevlex", "lex"))
@pytest.mark.parametrize("field", (GF(101), QQ), ids=repr)
@pytest.mark.parametrize("seed", range(4))
def test_the_meet_has_the_dimensions_of_a_meet(seed, field, order):
    """Seeded homogeneous A and B: every element of the meet lies in A and
    in B, and in each degree d <= 4 the meet has dimension dim A_d + dim B_d
    - dim (A + B)_d, computed by linear algebra on the generators alone.
    It is term for term the meet of the Gebauer-Moeller reference route."""
    rng = random.Random(f"meet-{seed}")
    ring = PolyRing(2, field, order)
    a = _random_forms(rng, ring, rng.randint(1, 3), (1, 2))
    b = _random_forms(rng, ring, rng.randint(1, 3), (1, 2))
    meet = intersect_ideals(a, b)
    assert [g.terms for g in meet] == [g.terms for g in engine_meet(a, b)]
    basis_a, basis_b = buchberger(a), buchberger(b)
    assert all(basis_a.contains(g) and basis_b.contains(g) for g in meet)
    assert all(g.is_homogeneous() for g in meet)
    for d in range(5):
        assert _dim(meet, d) == _dim(a, d) + _dim(b, d) - _dim(a + b, d), d


def test_an_inhomogeneous_meet_is_answered():
    """On the Gebauer-Moeller reference route: coprime principal ideals meet
    in their product, and a meet of inhomogeneous ideals lies in both."""
    ring = PolyRing(1, QQ)
    a, b = ring.x(1, 1), ring.y(1, 1)
    f, g = a * b - 1, a - b * b
    assert engine_meet([f], [g]) == [monic(f * g)]
    A, B = [a * a - b, a * b], [b * b - a, a - 1]
    meet = engine_meet(A, B)
    assert meet
    basis_a, basis_b = engine_basis(A), engine_basis(B)
    assert all(basis_a.contains(m) and basis_b.contains(m) for m in meet)


def test_inhomogeneous_input_is_refused():
    """Every basis comes from the signature loop, which takes homogeneous
    input only: each caller raises ValueError instead of answering."""
    ring = PolyRing(1, QQ)
    a, b = ring.x(1, 1), ring.y(1, 1)
    f, g = a * b - 1, a - b * b
    with pytest.raises(ValueError):
        buchberger([f, a * b])
    with pytest.raises(ValueError):
        intersect_ideals([f], [a])
    with pytest.raises(ValueError):
        intersect_ideals([a], [g])
    with pytest.raises(ValueError):
        module_buchberger([(f, a), (a, b)])
    with pytest.raises(ValueError):
        module_membership((a, b), [(a * a, g)])
    with pytest.raises(ValueError):
        module_membership((f, a), [(a, b)])


def test_a_cut_meet_raises():
    system = DeskContext().system(3)
    with pytest.raises(IncompleteBasisError):
        intersect_ideals(system.off_diagonal_gens, [system.f(1)], budget=Budget(max_spairs=20))


def test_colon_by_element_known_answer():
    # ((a^2, a*b) : a) = (a, b), by the quotient loop and by a meet with (a)
    ring = PolyRing(1, QQ)
    a, b = ring.x(1, 1), ring.y(1, 1)
    assert list(colon_ideal([a * a, a * b], [a])) == [b, a]
    gb = buchberger(colon_by_element([a * a, a * b], a))
    assert gb.contains(a) and gb.contains(b)
    assert not gb.contains(ring.one)


def test_colon_ideal_known_answer():
    # ((a) : (a, b)) over k[a, b] is (a) : a  meet  (a) : b = (a)
    ring = PolyRing(1, QQ)
    a, b = ring.x(1, 1), ring.y(1, 1)
    out = colon_ideal([a], [a, b])
    gb = buchberger(out)
    assert gb.contains(a)
    assert not gb.contains(ring.one)
    assert not gb.contains(b)
    with pytest.raises(ValueError):
        colon_ideal([a], [ring.zero])


def _tracked_runs(monkeypatch) -> list:
    """Record each tracked signature-loop run a colon makes."""
    runs = []
    original = groebner.SignatureLoop.run

    def recording(self):
        if len(self.gens) > self.untracked:
            runs.append(self)
        return original(self)

    monkeypatch.setattr(groebner.SignatureLoop, "run", recording)
    return runs


def test_a_colon_is_one_tracked_run(monkeypatch):
    """The fs, of one degree, are tracked as one vector in one run, whose
    work counts the colon reports; fs of two degrees are refused, as
    inhomogeneous input is, before any run starts."""
    ring = PolyRing(2, GF(101))
    a, b, c, d = ring.x(1, 1), ring.x(1, 2), ring.y(1, 1), ring.y(1, 2)
    runs = _tracked_runs(monkeypatch)
    # (a) : a = (1), and b is not in (a): one run tracks the vector (a, b)
    got = colon_ideal([a], [a, b])
    assert list(got) == colon_by_meets([a], [a, b]) == [a]
    assert len(runs) == 1 and got.stats is runs[0].stats
    # (ac, bd) : (cd, c) = (a, b*d) and (ac, bd) : (cd, d) = (b, a*c) as
    # meets, but cd has degree 2 and c, d degree 1
    base = [a * c, b * d]
    for fs, meet in (([c * d, c], [a, b * d]), ([c * d, d], [b, a * c])):
        assert colon_by_meets(base, fs) == meet
        with pytest.raises(ValueError, match="homogeneous"):
            colon_ideal(base, fs)
    assert len(runs) == 1


def test_input_from_another_ring_is_refused():
    """The packed keys of a ring of another order, size or field name other
    monomials, so the signature loop's constructor refuses them for every
    caller; a ring of the same signature is the same ring."""
    ring = PolyRing(2, GF(101))
    a, b, c, d = ring.x(1, 1), ring.x(1, 2), ring.y(1, 1), ring.y(1, 2)
    twin = PolyRing(2, GF(101))
    assert list(colon_ideal([a * c, b * d], [twin.y(1, 1)])) == [a, b * d]
    for other in (PolyRing(2, GF(101), order="lex"), PolyRing(3, GF(101)), PolyRing(2, QQ)):
        c2, d2 = other.y(1, 1), other.y(1, 2)
        with pytest.raises(ValueError, match="incompatible rings"):
            colon_ideal([a * c, b * d], [c2])
        with pytest.raises(ValueError, match="incompatible rings"):
            colon_ideal([a * c, c2 * d2], [c])
        with pytest.raises(ValueError, match="incompatible rings"):
            buchberger([a * c, c2 * d2])
        with pytest.raises(ValueError, match="incompatible rings"):
            intersect_ideals([a * c], [c2 * d2])
        with pytest.raises(ValueError, match="incompatible rings"):
            module_buchberger([(a, b), (c2, d2)])
        with pytest.raises(ValueError, match="incompatible rings"):
            groebner.SignatureLoop(ring, [a * b, c2 * d2])
        with pytest.raises(ValueError, match="incompatible rings"):
            groebner.SignatureLoop(ring, [a * b], tracked=[(c, d2)])


def test_membership_refuses_a_polynomial_from_another_ring():
    """a^2 d lies in (ab - cd, a^2); built in a lex ring its key names
    another monomial, and x_1_1^2 of an n=3 ring is no member at all."""
    a, b, c, d = R.x(1, 1), R.x(1, 2), R.y(1, 1), R.y(1, 2)
    basis = buchberger([a * b - c * d, a * a])
    assert basis.contains(a * a * d)
    lex = PolyRing(2, GF(101), order="lex")
    n3 = PolyRing(3, GF(101))
    for f in (lex.x(1, 1) ** 2 * lex.y(1, 2), n3.x(1, 1) ** 2):
        with pytest.raises(ValueError, match="incompatible rings"):
            basis.contains(f)
        with pytest.raises(ValueError, match="incompatible rings"):
            basis.reduce(f)


def test_minimal_generators_greedy():
    ring = PolyRing(1, QQ)
    a, b = ring.x(1, 1), ring.y(1, 1)
    out = minimal_new_generators([], [a, b, a * a + b * b, a * b - b * a])
    assert {str(g) for g in out} == {"x_1_1", "y_1_1"}
    with pytest.raises(ValueError):
        minimal_new_generators([], [a * a - b])


def test_commutator_bases_match_linear_algebra_oracle(ctx):
    """Graded dimensions of the n=2 and n=3 ideals, two independent routes."""
    p = 32003
    for n, degrees in ((2, (2, 3, 4)), (3, (2, 3))):
        sys = ctx.system(n)
        gb = ctx.basis(n, "I")
        leads = [sys.ring.order.decode(g.terms[0][0]) for g in gb]
        nvars = sys.ring.nvars
        for d in degrees:
            expected = ideal_component_dim(sys.minimal_gens, d, p)
            # route 1: count monomials outside the lead-term ideal
            from math import comb

            total = comb(nvars + d - 1, d)
            outside = count_monomials_outside(leads, nvars, d)
            assert total - outside == expected


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_colon_generators_are_the_reduced_basis(order):
    """At n=3 the colon generators are the reduced Groebner basis in the
    ring's own order, complete, so a Buchberger run returns them unchanged.
    The quotient comes
    from the signature loop, which runs in the ring's order, and the lex
    result is the lex basis of the grevlex colon, the same ideal by a second
    route.  The meet of two quotients is one module run over the ring's
    own order: the meet of J and the first diagonal entry comes out of it
    as a reduced basis, so interreducing it changes nothing."""
    ctx = DeskContext(order=order)
    gens = ctx.colon_generators(3)
    assert gens.complete
    assert list(buchberger(gens).elements) == list(gens)
    system = ctx.system(3)
    meet = intersect_ideals(system.off_diagonal_gens, [system.f(1)])
    assert len(meet) > 1 and list(reduced(meet)) == meet
    if order == "lex":
        grevlex = DeskContext().colon_generators(3)
        relex = [gens.ring.poly(g.exponent_terms()) for g in grevlex]
        assert list(buchberger(relex).elements) == list(gens)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize("order,front", [("grevlex", 0), ("lex", 0), ("elim", 1)])
def test_interreduce_matches_reduction_against_the_others(field, order, front):
    """Random non-monic generator lists, mostly not Groebner bases, some with
    repeated leads: one shared reducer set gives the reference result.

    Leads of degree 2 and 3 in five variables make tail terms that several
    leads divide, so the bucket order the reducers are searched in matters.
    """
    ring = n2_ring(field, order, front)
    enc = ring.order.encode
    rng = random.Random(f"{order}-{field}")
    live = (0, 1, 2, 5, ring.nvars - 1)

    def mon(deg):
        exps = [0] * ring.nvars
        for _ in range(deg):
            exps[rng.choice(live)] += 1
        return tuple(exps)

    def poly_with_lead(lead, nterms):
        below = [m for m in (mon(sum(lead)) for _ in range(nterms)) if enc(m) < enc(lead)]
        terms = [(lead, rng.randrange(1, 9))] + [(m, rng.randrange(-9, 10)) for m in below]
        return ring.poly(terms)

    not_gb = 0
    for _ in range(30):
        gens = [poly_with_lead(mon(rng.choice((2, 3))), 6) for _ in range(rng.randrange(3, 9))]
        lead = ring.order.decode
        gens += [poly_with_lead(lead(g.terms[0][0]), 4) for g in gens[:2]]  # repeated leads
        gens.append(ring.zero)
        rng.shuffle(gens)
        got = reduced(gens)
        assert repr([p.terms for p in got]) == repr(
            [p.terms for p in interreduce_against_others(gens)]
        )
        not_gb += not verify_basis(got)[0]
    assert not_gb > 15


def test_truncated_n4_basis_does_not_depend_on_generator_order(ctx):
    gens = list(ctx.system(4).minimal_gens)
    shuffled = list(gens)
    random.Random(2).shuffle(shuffled)
    assert shuffled != gens
    first = buchberger(gens, degree_bound=4)
    second = buchberger(shuffled, degree_bound=4)
    assert len(first) == len(second) == 137
    assert first.truncation_degree == second.truncation_degree == 4
    assert first.elements == second.elements


def _settled_both_ways(gens, bound):
    """`_settled` on the minimal elements of a signature loop truncated at
    `bound`, as `buchberger` hands them over, and `settled_by_engine` on
    their reduced basis; elements above the bound are read by both.  The
    update step by step on exponent tuples (`criteria_pairs`) shares no
    code with the packed one and must agree too."""
    ring = gens[0].ring
    loop = SignatureLoop(ring, gens, degree_bound=bound)
    loop.run()
    elements = groebner._minimal(loop.basis, ring.order)
    polys = interreduce(ring, elements).elements
    got = groebner._settled(elements, bound, ring.order)
    assert got == settled_by_engine(polys, bound)
    leads = [ring.order.decode(g.lead_v) for g in elements]
    assert got == all(not criteria_pairs(leads[: k + 1], bound)[2] for k in range(len(leads)))
    return got


@pytest.mark.parametrize("ideal", ("I", "J"))
def test_settled_matches_the_engine_update_at_n3(ctx, ideal):
    system = ctx.system(3)
    gens = list(system.minimal_gens if ideal == "I" else system.off_diagonal_gens)
    got = [_settled_both_ways(gens, bound) for bound in range(2, 10)]
    # I settles from bound 6 on, J only at 9
    assert got == [bound >= (6 if ideal == "I" else 9) for bound in range(2, 10)]


@pytest.mark.parametrize("seed", range(3))
def test_settled_matches_the_engine_update_at_n4(ctx, seed):
    gens = list(ctx.system(4).minimal_gens)
    random.Random(seed).shuffle(gens)
    assert not _settled_both_ways(gens, 4) and not _settled_both_ways(gens, 5)


def test_settled_matches_the_engine_update_under_lex():
    system = build_system(2, field=GF(32003), order="lex")
    for gens, first in ((system.minimal_gens, 3), (system.off_diagonal_gens, 4)):
        got = [_settled_both_ways(list(gens), bound) for bound in range(1, 7)]
        assert got == [bound >= first for bound in range(1, 7)]


@pytest.mark.parametrize("order", ("grevlex", "lex"))
@pytest.mark.parametrize("field", (GF(101), QQ), ids=repr)
def test_settled_matches_the_engine_update_on_random_ideals(field, order):
    """Seeded forms of degree 1 to 3 under bounds 1 and 2, so generators
    above the bound enter the loop and are read before they are dropped."""
    verdicts = set()
    for seed in range(12):
        rng = random.Random(f"settled-{seed}")
        gens = _random_forms(rng, n2_ring(field, order), rng.randint(2, 5), (1, 2, 3))
        if gens:
            verdicts.update(_settled_both_ways(gens, bound) for bound in (1, 2))
    assert verdicts == {True, False}


def test_a_bounded_basis_builds_no_engine(ctx, monkeypatch):
    """`buchberger` settles a bounded basis from its leads: with `Engine`
    barred it still returns the complete n=3 basis at bound 9 and the one
    truncated at 4."""
    gens = list(ctx.system(3).minimal_gens)
    full = ctx.basis(3, "I")

    def barred(self, *args, **kwargs):
        raise AssertionError("buchberger built an Engine")

    monkeypatch.setattr(Engine, "__init__", barred)
    settled = buchberger(gens, degree_bound=9)
    assert settled.complete and settled.elements == full.elements
    truncated = buchberger(gens, degree_bound=4)
    assert truncated.truncation_degree == 4
    assert truncated.elements == tuple(g for g in full if g.degree() <= 4)


def test_no_element_above_the_truncation_degree_is_interreduced(ctx, monkeypatch):
    """At n=3 under bound 1 every generator lies above the bound, so
    `interreduce` gets nothing; the n=4 basis cut by a budget of 60 pairs
    is truncated at 3 and `interreduce` gets nothing above degree 3."""
    received = []

    def spy(ring, elements, **basis):
        received.append([g.lead_deg for g in elements])
        return interreduce(ring, elements, **basis)

    monkeypatch.setattr(groebner, "interreduce", spy)
    gb = buchberger(list(ctx.system(3).minimal_gens), degree_bound=1)
    assert (received, gb.truncation_degree, len(gb)) == ([[]], 1, 0)
    received.clear()
    gb = buchberger(list(ctx.system(4).minimal_gens), budget=Budget(max_spairs=60))
    (degrees,) = received
    assert gb.truncation_degree == 3 and degrees and max(degrees) == 3


def test_the_finish_makes_no_polynomial_round_trip(ctx, monkeypatch):
    """`buchberger` and `colon_ideal` finish from the loop's compiled
    elements, and nothing compiles or sorts a polynomial after that: with
    `compile_poly` and `decompile` barred in `polyring`, which `groebner`
    does not import them from, they return what they return unbarred, for I
    and J at n=3, I at n=4 under bound 4 and the colon J : I at n=3, and
    each basis answers `reduce` and `contains` as it does unbarred.  The
    first syzygies and a module basis's `contains`, whose vectors
    `decompile_vector` builds, run under the bar as well."""
    assert not {"compile_poly", "decompile"} & set(vars(groebner))
    system3, gens4 = ctx.system(3), list(ctx.system(4).minimal_gens)
    diag = [system3.f(k) for k in system3.diagonal_indices[:-1]]
    runs = {
        "I3": lambda: buchberger(list(system3.minimal_gens)),
        "J3": lambda: buchberger(list(system3.off_diagonal_gens)),
        "I4": lambda: buchberger(gens4, degree_bound=4),
        "J3:I3": lambda: colon_ideal(list(system3.off_diagonal_gens), diag),
    }

    def answers(basis):
        ring, (g, h) = basis.ring, basis.elements[:2]
        p = ring.x(1, 1) * ring.y(1, 2) + ring.x(1, 2) * ring.y(2, 1)
        probes = [p, p * ring.x(2, 2), p * p, g * ring.y(1, 1), h * ring.x(1, 2) + p]
        return [(basis.reduce(f), basis.contains(f)) for f in probes]

    def syzygies():
        vectors = first_syzygies(system3, degree_bound=4).generators
        shifted = tuple(a * system3.ring.x(1, 1) for a in vectors[1])
        module = module_buchberger(vectors[:6])
        return vectors, [module.contains(v) for v in (shifted, *vectors[4:9])]

    unbarred = {name: run() for name, run in runs.items()}
    unbarred_answers = {name: answers(basis) for name, basis in unbarred.items()}
    unbarred_syzygies = syzygies()

    def barred(*args, **kwargs):
        raise AssertionError("a polynomial was compiled or sorted again")

    monkeypatch.setattr(polyring, "compile_poly", barred)
    monkeypatch.setattr(polyring, "decompile", barred)
    for name, run in runs.items():
        got, want = run(), unbarred[name]
        assert got.elements == want.elements and got.truncation_degree == want.truncation_degree
        assert answers(got) == unbarred_answers[name]
    assert syzygies() == unbarred_syzygies
    assert unbarred_syzygies[1] == [True, True, True, False, False, False]
    assert unbarred["I3"].elements == ctx.basis(3, "I").elements
    assert unbarred["J3:I3"].elements == ctx.colon_generators(3).elements
