"""The colon J : (f_1, ..., f_m) from the signature loop against the meet route.

`colon_ideal` tracks the f of one degree as one module vector F in one
`SignatureLoop` run over J's generators, whose polynomial elements act on
every position of F's elements: the coefficients of F recorded at the zero
reductions of F's index (`relations`), with the loop's elements of lower
index, form a Groebner basis of J : F.  The reference is
`oracles.colon_by_meets`, which meets J with each (f) (`intersect_ideals`,
one module run), divides by f and meets the quotients.
The inputs are seeded random homogeneous ideals over GF(7), GF(32003) and
QQ under grevlex and lex, with generators of mixed degree 1-3, some with f
in J, where the quotient is the unit ideal; the same over GF(101) too with
2-3 fs of one degree, where J : f_1 is often larger than J : F; and
binomials of degree 100 and 127 under lex, whose colons reach total degree
255, the cap: a route whose pairs pass it is truncated there and refuses,
and where both answer they agree.  Binomials of degree 300 are refused
where the ring builds them.  At n=4 a degree bound cuts the loop, which the meet cannot
take: through degree 4 the quotient by the diagonal entries adds the 3
generators that `colon_bidegrees(4)` predicts.
"""

import random

import pytest

from commsyz.conjecture import colon_bidegrees
from commsyz.fields import GF, QQ
from commsyz.fixtures import load_betti_table
from commsyz.groebner import IncompleteBasisError, SignatureLoop, colon_ideal
from commsyz.polyring import PolyRing
from commsyz.verify import DeskContext, minimal_new_generators

from oracles import as_polynomials, colon_by_meets, near_cap_binomials, reduced, spread

FIELDS = {"gf7": GF(7), "gf32003": GF(32003), "qq": QQ}
VECTOR_FIELDS = {"gf7": GF(7), "gf101": GF(101), "gf32003": GF(32003), "qq": QQ}


def _form(rng, ring, live, degree):
    f = ring.zero
    for _ in range(rng.randint(1, 3)):
        m = ring.const(rng.randint(1, 100))
        for _ in range(degree):
            m = m * rng.choice(live)
        f = f + m
    return f


def _random_colon(rng, field, order):
    """2-4 forms of degree 1-3 in 5 of the n=2 variables, and f: a random
    form of degree 1-3, or one time in four a member of the ideal."""
    ring = PolyRing(2, field, order)
    live = [ring.var(name) for name in rng.sample(ring.names, 5)]
    gens = [_form(rng, ring, live, rng.randint(1, 3)) for _ in range(rng.randint(2, 4))]
    gens = [g for g in gens if g]
    if gens and rng.random() < 0.25:
        top = max(g.degree() for g in gens) + rng.randint(0, 1)
        f = sum((g * _form(rng, ring, live, top - g.degree()) for g in gens), ring.zero)
    else:
        f = _form(rng, ring, live, rng.randint(1, 3))
    return gens, f


@pytest.mark.parametrize("order", ("grevlex", "lex"))
@pytest.mark.parametrize("field", FIELDS)
def test_the_quotient_loop_gives_the_eliminated_colon(field, order):
    """25 random ideals per field and order: 150 in all, of which about a
    third have f in J, so the colon is the unit ideal."""
    members = 0
    for seed in range(25):
        rng = random.Random(f"{field}-{order}-{seed}")
        gens, f = _random_colon(rng, FIELDS[field], order)
        if not gens or f.is_zero():
            continue
        got = colon_ideal(gens, [f])
        assert [g.terms for g in got] == [g.terms for g in colon_by_meets(gens, [f])], seed
        members += list(got) == [f.ring.one]
    assert members > 0


def _equal_degree_colon(rng, field, order):
    """2-4 forms of degree 1-3 in 5 of the n=2 variables, and 2-3 forms fs
    of one degree, 1 or 2; half the time the ideal also holds f_1 times a
    linear form, which then lies in J : f_1 but seldom in J : F."""
    ring = PolyRing(2, field, order)
    live = [ring.var(name) for name in rng.sample(ring.names, 5)]
    gens = [_form(rng, ring, live, rng.randint(1, 3)) for _ in range(rng.randint(2, 4))]
    degree = rng.randint(1, 2)
    fs = [_form(rng, ring, live, degree) for _ in range(rng.randint(2, 3))]
    if rng.random() < 0.5:
        gens.append(fs[0] * _form(rng, ring, live, 1))
    return [g for g in gens if g], [f for f in fs if f]


def test_one_run_with_the_fs_tracked_as_a_vector_gives_the_colon(monkeypatch):
    """30 seeded colons per field and order, each by fs of one degree: the
    colon is one signature-loop run with F = (f_1, ..., f_m) tracked, and
    it equals the meet of the element quotients term for term.  In at
    least 100 of them J : f_1 differs from J : F, so the later fs count."""
    runs = []
    original = SignatureLoop.run

    def counting(self):
        runs.append(1)
        return original(self)

    monkeypatch.setattr(SignatureLoop, "run", counting)
    cases = larger = 0
    for field in VECTOR_FIELDS:
        for order in ("grevlex", "lex"):
            for seed in range(30):
                rng = random.Random(f"{field}-{order}-vector-{seed}")
                gens, fs = _equal_degree_colon(rng, VECTOR_FIELDS[field], order)
                if not gens or len(fs) < 2:
                    continue
                runs.clear()
                got = colon_ideal(gens, fs)
                assert len(runs) == 1
                want = colon_by_meets(gens, fs)
                assert [g.terms for g in got] == [g.terms for g in want], (field, order, seed)
                cases += 1
                larger += list(colon_ideal(gens, fs[:1])) != list(got)
    assert cases > 200 and larger >= 100


def test_the_quotient_generators_form_a_groebner_basis_of_the_colon(ctx):
    """At n=3 the recorded coefficients and the elements of lower index
    interreduce to the colon, and each recorded coefficient u has u*f in J."""
    system = ctx.system(3)
    base, f = list(system.off_diagonal_gens), system.f(1)
    loop = SignatureLoop(system.ring, base, tracked=[f])
    loop.run()
    assert loop.complete and 0 < len(loop.relations) <= loop.stats.zero_reductions
    gens = as_polynomials(system.ring, loop.quotient_generators())
    assert list(reduced(gens)) == colon_by_meets(base, [f])
    basis = ctx.basis(3, "J")
    recorded = gens[: len(loop.relations)]
    assert recorded and all(basis.contains(u * f) for u in recorded)
    # the elements of lower index lie in J
    assert all(basis.contains(g) for g in gens[len(loop.relations):])


def _two_routes(gens, f) -> str:
    """Compare the routes on one colon near the cap.  A route whose pairs
    pass total degree 255 is truncated there and refuses with
    IncompleteBasisError; where both answer they agree."""
    answers = []
    for route in (colon_ideal, colon_by_meets):
        try:
            answers.append([g.terms for g in route(gens, [f])])
        except IncompleteBasisError as refusal:
            assert str(refusal).endswith("truncated at 255)")
            answers.append(None)
    got, want = answers
    if got is None:
        return "both refuse" if want is None else "quotient refuses"
    if want is None:
        return "meet refuses"
    assert got == want
    return "agree"


@pytest.mark.parametrize("seed", range(6))
def test_near_the_cap_both_routes_raise_or_agree(seed):
    """Degree-100 binomials under lex, whose first two exponents lie near 0,
    50 and 100: the last is f, the others span J.  Neither route raises:
    the meet answers all six, and the quotient loop refuses the five whose
    pairs pass 255."""
    bins = near_cap_binomials("lex", seed, degree=100)
    want = "agree" if seed == 2 else "quotient refuses"
    assert _two_routes(bins[:-1], bins[-1]) == want


def test_past_degree_255_below_the_cap_the_routes_agree():
    """Binomials of degree 300 with exponents 46..127, each within a byte,
    are refused where `poly` builds them.  Their shape at degree 127, the
    exponents 20..50, is below the cap: the routes agree on most colons,
    and a route whose pairs pass 255 refuses; none is silently wrong."""
    ring = PolyRing(2, GF(101), "lex")
    with pytest.raises(OverflowError, match="total degree 300 exceeds the cap 255"):
        ring.poly({spread((127, 127, 46)): 1})
    outcomes = []
    for seed in range(12):
        rng = random.Random(seed)
        bins = []
        while len(bins) < 3:
            a, b = rng.randint(20, 50), rng.randint(20, 50)
            if 20 <= 127 - a - b <= 50:
                bins.append((a, b, 127 - a - b))
        f = ring.poly({spread(bins[1]): 1, spread(bins[2]): rng.randint(1, 100)})
        outcomes.append(_two_routes([ring.poly({spread(bins[0]): 1, spread(bins[2]): 1})], f))
    assert outcomes.count("agree") == 7 and "both refuse" in outcomes


def test_zero_and_inhomogeneous_input_are_refused():
    ring = PolyRing(1, QQ)
    a, b = ring.x(1, 1), ring.y(1, 1)
    with pytest.raises(ValueError):
        SignatureLoop(ring, [a * b], tracked=[ring.zero])
    with pytest.raises(ValueError):
        colon_ideal([a * b], [ring.zero])
    with pytest.raises(ValueError):
        colon_ideal([a * a - b], [a])
    with pytest.raises(ValueError):
        colon_ideal([a * b], [a - b * b])
    with pytest.raises(ValueError):
        colon_ideal([ring.zero], [a])


def test_a_budget_cut_is_refused_and_the_refusal_is_cached(monkeypatch):
    """50 reduced pairs cut the n=3 quotient loop: the colon raises
    IncompleteBasisError, and `DeskContext` raises the stored refusal again
    without a second run."""
    runs = []
    original = SignatureLoop.run

    def counting(self):
        runs.append(len(self.gens) > self.untracked)
        return original(self)

    monkeypatch.setattr(SignatureLoop, "run", counting)
    ctx = DeskContext(field=GF(32003), budget=50)
    with pytest.raises(IncompleteBasisError) as first:
        ctx.colon_generators(3)
    with pytest.raises(IncompleteBasisError) as again:
        ctx.new_colon_generators(3)
    assert again.value is first.value
    assert "quotient" in str(first.value)
    assert runs.count(True) == 1


def test_n4_quotient_through_degree_4_adds_the_predicted_generators(ctx):
    """J : I at n=4, as J : F with F the vector of the first three diagonal
    entries, under a degree bound of 6, complete through degree 4: the
    minimal generators beyond J are the three of `colon_bidegrees(4)[4]`,
    fixture cell (0,4) of `n4_canonical_module_betti`."""
    system = ctx.system(4)
    base = list(system.off_diagonal_gens)
    diag = tuple(system.f(k) for k in system.diagonal_indices[:-1])
    loop = SignatureLoop(system.ring, base, degree_bound=6, tracked=[diag])
    loop.run()
    assert loop.truncation_degree == 6
    low = [g for g in as_polynomials(system.ring, loop.quotient_generators()) if g.degree() <= 4]
    new = minimal_new_generators(base, low)
    bidegrees = sorted(g.bidegree() for g in new)
    assert bidegrees == [(1, 3), (2, 2), (3, 1)]
    assert bidegrees == sorted(colon_bidegrees(4)[4])
    assert load_betti_table("n4_canonical_module_betti").entry(0, 4) == len(new)
