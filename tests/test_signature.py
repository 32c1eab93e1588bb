"""The signature loop against the Gebauer-Moeller engine.

Every basis comes from `SignatureLoop`: `buchberger`, the module bases and
the meet run with `Engine.run` barred.  The reduced basis must be the one
the Gebauer-Moeller `Engine` gives (`oracles.engine_basis`), which is
unique for the ideal, the order and the degree bound.  The inputs are 306
seeded random homogeneous ideals over GF(7), GF(32003) and QQ under
grevlex, lex and elim, with and without a degree bound; 40 ideals of 2 to 5
generators of degree 2-3 in all 8 variables of n=2, bound 6, the shape on
which a signature loop that rewrites by addition order and drops singular
results loses leads; and binomials of degree 170, whose pairs reach total
degree 255, the cap, or pass it, where both routes truncate at 255.  The
lex input of degree 300 on which the loop once raised where the engine
answered is refused where the ring builds it.  A shuffle of the
generators changes neither the basis, the flags nor the work counts, and a
bounded basis flagged complete is the unbounded one.  A budget cut is a
truncation: on 12 more random ideals under several budgets, a cut basis
and module basis are truncated one degree below their next pair and
answer as uncut ones through it.
"""

import random
from dataclasses import astuple

import pytest

from commsyz.fields import GF, QQ
from commsyz.groebner import (
    Engine,
    IncompleteBasisError,
    SignatureLoop,
    buchberger,
    intersect_ideals,
)
from commsyz.polyring import PolyRing
from commsyz.syzygy import module_buchberger, module_membership

from oracles import engine_basis, engine_meet, n2_ring, near_cap_binomials, spread

FIELDS = {"gf7": GF(7), "gf32003": GF(32003), "qq": QQ}
ORDERS = ("grevlex", "lex", "elim")


def _random_ideal(rng, field, order, nvars=6, ngens=(3, 6)):
    """Forms of degree 2-3 with 1-4 terms in `nvars` of the n=2 variables."""
    ring = n2_ring(field, order, front=2)
    live = [ring.var(name) for name in rng.sample(ring.names, nvars)]
    gens = []
    for _ in range(rng.randint(*ngens)):
        degree = rng.randint(2, 3)
        f = ring.zero
        for _ in range(rng.randint(1, 4)):
            m = ring.const(rng.randint(1, 100))
            for _ in range(degree):
                m = m * rng.choice(live)
            f = f + m
        if f:
            gens.append(f)
    return gens


def _signature_route(monkeypatch, run, *args, **kwargs):
    """run(*args, **kwargs) with `Engine.run` barred, so the signature loop
    computes every basis it takes."""

    def barred(self, through=None):
        raise AssertionError("a basis ran the Gebauer-Moeller loop")

    with monkeypatch.context() as m:
        m.setattr(Engine, "run", barred)
        return run(*args, **kwargs)


def _terms(basis):
    return [g.terms for g in basis]


def _check(gens, bound, rng, monkeypatch):
    got = _signature_route(monkeypatch, buchberger, gens, degree_bound=bound)
    assert _terms(got) == _terms(engine_basis(gens, bound))
    shuffled = rng.sample(gens, len(gens))
    shuffled = _signature_route(monkeypatch, buchberger, shuffled, degree_bound=bound)
    assert _terms(shuffled) == _terms(got)
    flags = (got.complete, got.truncation_degree)
    assert (shuffled.complete, shuffled.truncation_degree) == flags
    assert astuple(shuffled.stats)[:-1] == astuple(got.stats)[:-1]  # all but seconds
    if bound is not None and got.complete:
        assert _terms(got) == _terms(engine_basis(gens))
    return got


@pytest.mark.parametrize("bounded", (False, True), ids=("unbounded", "bounded"))
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("field", FIELDS)
def test_the_signature_loop_gives_the_engine_basis(field, order, bounded, monkeypatch):
    """17 random ideals per field, order and bound kind: 306 in all."""
    for seed in range(17):
        rng = random.Random(f"{field}-{order}-{bounded}-{seed}")
        gens = _random_ideal(rng, FIELDS[field], order)
        if gens:
            _check(gens, rng.choice((4, 5, 6)) if bounded else None, rng, monkeypatch)


@pytest.mark.parametrize("seed", range(9000, 9040))
def test_few_generators_in_every_variable_bound_6(seed, monkeypatch):
    rng = random.Random(seed)
    gens = _random_ideal(rng, GF(32003), "grevlex", nvars=8, ngens=(2, 5))
    _check(gens, 6, rng, monkeypatch)


@pytest.mark.parametrize("bound", (None, 383, 400))
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("seed", range(6))
def test_near_the_cap_both_routes_raise_or_agree(seed, order, bound, monkeypatch):
    """Degree-170 binomials, whose pairs reach total degree 255 or pass it.
    A bound past the cap is the cap, so neither route raises: both drop
    the pairs past 255, and their bases agree, truncated at 255 unless
    `_settled` proves them complete."""
    gens = near_cap_binomials(order, seed)
    got = _signature_route(monkeypatch, buchberger, gens, degree_bound=bound)
    assert _terms(got) == _terms(engine_basis(gens, bound))
    assert got.truncation_degree in (None, 255)


def test_the_degree_300_inputs_are_refused_at_the_ring():
    """The cap is every run's limit, stated before it starts.  On a lex
    ideal J of degree 300 and an f of degree 300 the signature loop once
    raised in its cover test where the Gebauer-Moeller route answered; now
    no term of them can be built: `poly` and `parse` refuse each one, and so
    does the product that would form it."""
    ring = PolyRing(2, GF(101), "lex")
    for exps in ((120, 107, 73), (70, 122, 108), (122, 85, 93), (112, 72, 116)):
        with pytest.raises(OverflowError, match="total degree 300 exceeds the cap 255"):
            ring.poly({spread(exps): 1})
        with pytest.raises(OverflowError, match="total degree 300 exceeds the cap 255"):
            ring.parse("x_1_1^{}*x_1_2^{}*y_1_1^{}".format(*exps))
    a, b, c = ring.x(1, 1), ring.x(1, 2), ring.y(1, 1)
    with pytest.raises(OverflowError, match="product degree 300"):
        a**120 * b**107 * c**73


def test_a_constant_generator_gives_the_unit_ideal():
    ring = PolyRing(2, GF(101))
    x, y = ring.x(1, 1), ring.y(2, 2)
    basis = buchberger([x * x + y * y, ring.const(3), x * y])
    assert _terms(basis) == [ring.one.terms]
    assert basis.complete


@pytest.mark.parametrize("spairs", (1, 20, 50))
def test_a_cut_run_is_truncated_below_its_next_pair(spairs, ctx):
    """A budget cut at n=3 leaves the loop truncated one degree below its
    next queued pair; `buchberger` reports that degree, and the cut basis
    holds the elements of the complete basis through it."""
    gens = list(ctx.system(3).minimal_gens)
    loop = SignatureLoop(gens[0].ring, gens, budget=spairs)
    loop.run()
    assert loop.exhausted and loop.stats.spairs_reduced == spairs
    d = loop.truncation_degree
    assert d == loop.heap[0][0] - 1
    basis = buchberger(gens, budget=spairs)
    assert (basis.complete, basis.truncation_degree) == (False, d)
    assert _through(basis, d) == _through(buchberger(gens), d)


def _through(basis, d):
    return [g.terms for g in basis if g.degree() <= d]


def _forms(rng, ring, gens, degree, count):
    """`count` forms of `degree`, alternately random ones, which mostly lie
    outside the ideal, and combinations of `gens` with random multipliers."""
    out = []
    for k in range(count):
        f = ring.zero
        for g in gens if k % 2 else ():
            if g.degree() <= degree:
                f = f + g * _random_form(rng, ring, degree - g.degree())
        out.append(f or _random_form(rng, ring, degree))
    return out


def _random_form(rng, ring, degree):
    f = ring.zero
    for _ in range(rng.randint(1, 3)):
        m = ring.const(rng.randint(1, 100))
        for _ in range(degree):
            m = m * ring.var(rng.choice(ring.names))
        f = f + m
    return f


@pytest.mark.parametrize("seed", range(12))
def test_a_cut_basis_is_the_basis_truncated_below_its_next_pair(seed):
    """On random homogeneous ideals and budgets: a cut basis truncated at d
    holds exactly the elements of degree <= d of the basis bounded at d, answers
    membership as the complete basis does through d and refuses past d,
    also when a degree bound dropped pairs below a generator it cut; and a
    cut module basis answers as an uncut one through its truncation and
    refuses past it."""
    rng = random.Random(f"cut-{seed}")
    gens = _random_ideal(rng, GF(32003), rng.choice(ORDERS))
    if not gens:
        return
    ring, full = gens[0].ring, buchberger(gens)
    # a power above bound + 1, queued whatever the bound, past the pairs it drops
    high = gens + [ring.var(rng.choice(ring.names)) ** 6]
    full_high = buchberger(high)
    for spairs in (0, 2, 5, 12):
        capped = buchberger(high, degree_bound=2, budget=spairs)
        t = None if capped.complete else capped.truncation_degree
        for degree in range(1, 5):
            for f in _forms(rng, ring, high, degree, 4):
                if t is None or degree <= t:
                    assert capped.contains(f) == full_high.contains(f)
                else:
                    with pytest.raises(IncompleteBasisError):
                        capped.contains(f)

        cut = buchberger(gens, budget=spairs)
        if cut.complete:
            assert _terms(cut) == _terms(full)
            continue
        d = cut.truncation_degree
        assert _terms(cut) == _through(buchberger(gens, degree_bound=d), d)
        for degree in range(1, 5):
            for f in _forms(rng, ring, gens, degree, 4):
                if degree <= d:
                    assert cut.contains(f) == full.contains(f)
                else:
                    with pytest.raises(IncompleteBasisError):
                        cut.contains(f)

        zero = ring.zero
        vecs = [(g, zero) if k % 2 else (g, g) for k, g in enumerate(gens)]
        whole = module_buchberger(vecs, degree_bound=4)
        part = module_buchberger(vecs, degree_bound=4, budget=spairs)
        t = 4 if part.complete else part.truncation_degree
        for degree in range(1, 5):
            for f, g in zip(_forms(rng, ring, gens, degree, 4), _forms(rng, ring, gens, degree, 4)):
                v = (f, zero) if rng.random() < 0.5 else (f, g)
                if degree <= t:
                    assert part.contains(v) == whole.contains(v)
                else:
                    with pytest.raises(IncompleteBasisError):
                        part.contains(v)


def _module_basis(ctx, monkeypatch):
    syz = ctx.first_syzygies(3, bound=3).generators  # the selection runs the engine
    basis = _signature_route(monkeypatch, module_buchberger, syz, degree_bound=3)
    assert all(basis.contains(v) for v in syz)


def _module_membership(ctx, monkeypatch):
    syz = ctx.first_syzygies(3, bound=3).generators
    x = ctx.system(3).ring.x(1, 1)
    assert _signature_route(monkeypatch, module_membership, tuple(g * x for g in syz[0]), syz)
    assert not _signature_route(monkeypatch, module_membership, syz[-1], syz[:-1])


def _meet(ctx, monkeypatch):
    system = ctx.system(3)
    base, diag = list(system.off_diagonal_gens), system.f(system.diagonal_indices[0])
    meet = _signature_route(monkeypatch, intersect_ideals, base, [diag])
    assert _terms(meet) == _terms(engine_meet(base, [diag]))


def _below_the_generators(ctx, monkeypatch):
    gens = list(ctx.system(3).minimal_gens)
    low = _signature_route(monkeypatch, buchberger, gens, degree_bound=1)
    assert (len(low), low.complete, low.truncation_degree) == (0, False, 1)
    assert len(buchberger(gens, degree_bound=2)) == 8


@pytest.mark.parametrize("case", (_module_basis, _module_membership, _meet, _below_the_generators),
                         ids=lambda case: case.__name__[1:])
def test_every_basis_runs_the_signature_loop(case, ctx, monkeypatch):
    """At n=3, with `Engine.run` barred: a module basis of the first
    syzygies, membership in that module, the meet of the off-diagonal ideal
    with a diagonal entry, and the basis of I bounded at degree 1, below
    its generators' degree 2, which is truncated at 1 and so holds none of
    the 8 elements of degree 2 the loop reached."""
    case(ctx, monkeypatch)
